"""Polarization bundles of boundary Cauchy data and the muting projector.

At a boundary covector gamma that is hyperbolic for the S mode, the space C^6
of principal-symbol-level Cauchy data (displacement, traction) splits into
mode bundles spanned by vectors (e(gamma) a, s(x, xi) a) with a in the kernel
of the principal symbol at the corresponding characteristic covector xi and
e(gamma) = sqrt(tau^2 + |xi_t|^2).  Over the hyperbolic region the splitting
is B_S^+ (+) B_S^- (+) B_P^+ (+) B_P^- with ranks (2, 2, 1, 1); over the
mixed region the two complex P roots merge into a rank-2 bundle B_P.

``frame_batch`` builds the frames of n covectors at once on the boundary
kernel (see ``boundary``), with per-row errors and rows bitwise alike alone
or in any batch; ``polarization_frame`` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (_batched, _core_of, _fro, _run, e_symbol,
                       tangential_frequency)
from .errors import DegenerateMutingError, FrameConditionError, GlancingError
from .symbols import _apply, _outer

# re-exported: perfbench's NAMED_COPIES reads them here (ROADMAP item 2(b))
from .boundary import char_roots  # noqa: F401
from .symbols import traction_symbol  # noqa: F401

__all__ = [
    "e_symbol",
    "PolarizationFrame",
    "frame_batch",
    "polarization_frame",
    "mute_symbol",
    "muting_residuals",
    "muting_annihilation_check",
]

# a stacked basis with a larger condition number raises FrameConditionError
COND_LIMIT = 1e8
# the muting direction is undefined when |nu x xi_t| <= MUTING_TOL |xi_t|
MUTING_TOL = 1e-12
# (block, first column, end column) of the stacked basis, by kind
BLOCKS = {"hyperbolic": (("S+", 0, 2), ("S-", 2, 4), ("P+", 4, 5),
                         ("P-", 5, 6)),
          "mixed": (("S+", 0, 2), ("S-", 2, 4), ("P", 4, 6))}


@dataclass
class PolarizationFrame:
    """Mode bundles of C^6 at a boundary covector and their projectors.

    ``kind`` is "hyperbolic" (blocks S+, S-, P+, P-) or "mixed" (blocks S+,
    S-, P).  ``bases`` maps block names to (6, rank) column matrices and
    ``projectors`` to the orthogonally-acting (generally oblique) projectors
    extracted from the full-basis solve.  ``projector_residual`` is the
    largest of ||P^2 - P|| over the blocks and ||sum of P - Id||.
    """

    gamma: object
    kind: str
    e: float
    bases: dict
    projectors: dict
    cond: float
    projector_residual: float

    @property
    def p_projector(self):
        """Projector onto the full compressional subspace."""
        if self.kind == "hyperbolic":
            return self.projectors["P+"] + self.projectors["P-"]
        return self.projectors["P"]

    @property
    def s_projector(self):
        return self.projectors["S+"] + self.projectors["S-"]


def _cross(a, b):
    """a x b over leading axes, in np.cross's arithmetic."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def _unit(v):
    return v / np.sqrt(np.sum(np.abs(v) ** 2, axis=-1, keepdims=True))


def _plane_basis(xi):
    """Orthonormal real basis v1, v2 of {a : a . xi = 0} at real covectors:
    v1 = xi x e_k with e_k the axis of the smallest |xi_k|, v2 = xi x v1."""
    v1 = _unit(_cross(xi, np.eye(3)[np.argmin(np.abs(xi), axis=-1)]))
    return v1, _unit(_cross(xi, v1))


@np.errstate(all="ignore")
def _frame(b):
    t = b.table
    if not b.fail((~t.real[0], lambda i: GlancingError(
            "polarization frame needs an S-hyperbolic covector",
            discriminant=float(t.d4[0, i])))):
        return {}
    e = tangential_frequency(b.tau, b.xi_t)
    # columns (e a, s(x, xi) a) in the order of BLOCKS: per S root two
    # orthonormal a with a . xi = 0, per P root a = xi / |xi|, complex where
    # the P roots merge
    xi_s, xi_p = b.xi[:, 0].real, b.xi[:, 1]
    v1, v2 = _plane_basis(xi_s)
    a = np.array([v1[0], v2[0], v1[1], v2[1], *_unit(xi_p)])
    s = b.traction(np.array([xi_s[0], xi_s[0], xi_s[1], xi_s[1], *xi_p]))
    v = np.concatenate([e[:, None] * a, _apply(s, a)], -1).transpose(1, 2, 0)
    sv = np.linalg.svd(b.masked(v, np.eye(6)), compute_uv=False)
    cond = sv[:, 0] / sv[:, -1]
    if not b.fail((cond > COND_LIMIT, lambda i: FrameConditionError(
            f"polarization basis condition number {cond[i]:.2e} exceeds "
            f"{COND_LIMIT:.0e}"))):
        return {}
    v_inv = np.linalg.inv(b.masked(v, np.eye(6)))

    # the block projectors; where P merges they are S+, S-, P and zero
    s_plus, s_minus, p_plus, p_minus, p_merged = (
        v[..., i:j] @ v_inv[:, i:j]
        for _, i, j in BLOCKS["hyperbolic"] + BLOCKS["mixed"][2:])
    hyp = t.real[1][:, None, None]
    proj = np.array([s_plus, s_minus, np.where(hyp, p_plus, p_merged),
                     np.where(hyp, p_minus, 0.0)])
    total = proj[0] + proj[1] + proj[2] + proj[3]
    resid = np.max(_fro(np.concatenate([proj @ proj - proj,
                                        [total - np.eye(6)]])), axis=0)
    return {"hyperbolic": t.real[1], "e": e, "bases": v, "cond": cond,
            "projectors": proj.swapaxes(0, 1), "projector_residual": resid}


def frame_batch(m, x, nu, xi_t, tau):
    """``polarization_frame`` at x, nu, xi_t (n, 3) and tau (n,), as a
    SymbolBatch: hyperbolic, e, cond, projector_residual, the stacked bases
    (n, 6, 6) with columns as in BLOCKS, and the block projectors
    (n, 4, 6, 6) in that order, zero in the fourth slot of a mixed row."""
    return _batched(_frame, m, x, nu, xi_t, tau)


def polarization_frame(m, gamma):
    """Assemble the polarization bundles and projectors at gamma.

    Requires gamma hyperbolic for S (raises GlancingError otherwise, via the
    root computation).  Raises FrameConditionError when the stacked basis is
    too ill-conditioned to invert reliably (near-glancing covectors).
    """
    v = _run(_frame, _core_of(m, gamma)).row(0)
    kind = "hyperbolic" if v["hyperbolic"] else "mixed"
    blocks = BLOCKS[kind]
    return PolarizationFrame(
        gamma=gamma, kind=kind, e=float(v["e"]),
        bases={tag: v["bases"][:, i:j] for tag, i, j in blocks},
        projectors={tag: p for (tag, _, _), p in zip(blocks,
                                                     v["projectors"])},
        cond=float(v["cond"]),
        projector_residual=float(v["projector_residual"]))


def _mute(nu, xi_t):
    """``mute_symbol`` over leading axes of nu and xi_t."""
    w = _cross(nu, xi_t)
    n = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(n[..., 0] <= MUTING_TOL * np.maximum(
            np.linalg.norm(xi_t, axis=-1), 1e-300)):
        raise DegenerateMutingError(
            "muting direction undefined: xi_t parallel to nu (normal incidence)")
    return _outer(w / n, w / n)


def mute_symbol(gamma):
    """Rank-one shear-horizontal muting projector m = w (x) w.

    w is the unit vector along nu x xi_t, orthogonal to both the normal and
    the tangential covector.  Undefined at normal incidence (xi_t = 0) or
    whenever xi_t is parallel to nu; raises DegenerateMutingError there.
    """
    return _mute(gamma.nu, gamma.xi_t)


def muting_residuals(p_projector, nu, xi_t):
    """Operator norms of pi_P diag(m, m) over leading axes."""
    mm = _mute(nu, xi_t)
    lifted = np.zeros(mm.shape[:-2] + (6, 6))
    lifted[..., :3, :3] = lifted[..., 3:, 3:] = mm
    return np.linalg.norm(p_projector @ lifted, 2, axis=(-2, -1))


def muting_annihilation_check(m, gamma, frame=None):
    """Operator norm of pi_P composed with diag(m, m) at gamma.

    The muting projector selects shear-horizontal data, which lies in
    B_S^+ (+) B_S^-, so the compressional projector must annihilate its
    range; the returned norm is the quantitative residual.
    """
    if frame is None:
        frame = polarization_frame(m, gamma)
    return float(muting_residuals(frame.p_projector, gamma.nu, gamma.xi_t))
