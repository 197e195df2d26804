"""Polarization bundles of boundary Cauchy data and the muting projector.

At a boundary covector gamma that is hyperbolic for the S mode, the space C^6
of principal-symbol-level Cauchy data (displacement, traction) splits into
mode bundles spanned by vectors (e(gamma) a, s(x, xi) a) with a in the kernel
of the principal symbol at the corresponding characteristic covector xi and
e(gamma) = sqrt(tau^2 + |xi_t|^2).  Over the hyperbolic region the splitting
is B_S^+ (+) B_S^- (+) B_P^+ (+) B_P^- with ranks (2, 2, 1, 1); over the
mixed region the two complex P roots merge into a rank-2 bundle B_P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _kernel_basis, char_roots, e_symbol
from .errors import DegenerateMutingError, FrameConditionError, GlancingError
from .symbols import traction_symbol

__all__ = [
    "e_symbol",
    "PolarizationFrame",
    "polarization_frame",
    "mute_symbol",
    "muting_annihilation_check",
]

# a stacked basis with a larger condition number raises FrameConditionError
COND_LIMIT = 1e8
# the muting direction is undefined when |nu x xi_t| <= MUTING_TOL |xi_t|
MUTING_TOL = 1e-12


@dataclass
class PolarizationFrame:
    """Mode bundles of C^6 at a boundary covector and their projectors.

    ``kind`` is "hyperbolic" (blocks S+, S-, P+, P-) or "mixed" (blocks S+,
    S-, P).  ``bases`` maps block names to (6, rank) column matrices and
    ``projectors`` to the orthogonally-acting (generally oblique) projectors
    extracted from the full-basis solve.
    """

    gamma: object
    kind: str
    e: float
    bases: dict
    projectors: dict
    cond: float

    @property
    def p_projector(self):
        """Projector onto the full compressional subspace."""
        if self.kind == "hyperbolic":
            return self.projectors["P+"] + self.projectors["P-"]
        return self.projectors["P"]

    @property
    def s_projector(self):
        return self.projectors["S+"] + self.projectors["S-"]

    @property
    def projector_residual(self):
        """Largest of ||P^2 - P|| over the blocks and ||sum of P - Id||."""
        resid = 0.0
        total = np.zeros((6, 6), dtype=complex)
        for proj in self.projectors.values():
            resid = max(resid, float(np.linalg.norm(proj @ proj - proj)))
            total += proj
        return max(resid, float(np.linalg.norm(total - np.eye(6))))


def polarization_frame(m, gamma):
    """Assemble the polarization bundles and projectors at gamma.

    Requires gamma hyperbolic for S (raises GlancingError otherwise, via the
    root computation).  Raises FrameConditionError when the stacked basis is
    too ill-conditioned to invert reliably (near-glancing covectors).
    """
    roots = char_roots(m, gamma)
    if not roots.s.real:
        raise GlancingError("polarization frame needs an S-hyperbolic covector",
                            discriminant=roots.s.discriminant)
    e = e_symbol(gamma)

    def column(xi, a):
        s = traction_symbol(m, gamma.x, xi)
        return np.concatenate([e * np.asarray(a, dtype=complex),
                               (s @ a).astype(complex)])

    kind = "hyperbolic" if roots.p.real else "mixed"
    bases = {}
    for mode_roots in (roots.s, roots.p) if roots.p.real else (roots.s,):
        for sign, xi in (("+", mode_roots.xi_forward),
                         ("-", mode_roots.xi_backward)):
            xi_r = xi.real
            bases[mode_roots.mode + sign] = np.stack(
                [column(xi_r, a) for a in _kernel_basis(xi_r, mode_roots.mode)],
                axis=-1)
    if kind == "mixed":
        cols = []
        for xi in (roots.p.xi_forward, roots.p.xi_backward):
            a = xi / np.sqrt(np.sum(np.abs(xi) ** 2))
            cols.append(column(xi, a))
        bases["P"] = np.stack(cols, axis=-1)

    order = list(bases)     # S+, S-, then P+, P- or the merged P
    v = np.concatenate([bases[tag] for tag in order], axis=-1)
    cond = float(np.linalg.cond(v))
    if cond > COND_LIMIT:
        raise FrameConditionError(
            f"polarization basis condition number {cond:.2e} exceeds {COND_LIMIT:.0e}")
    v_inv = np.linalg.inv(v)

    projectors = {}
    col = 0
    for tag in order:
        rank = bases[tag].shape[1]
        projectors[tag] = v[:, col:col + rank] @ v_inv[col:col + rank]
        col += rank

    return PolarizationFrame(gamma=gamma, kind=kind, e=e, bases=bases,
                             projectors=projectors, cond=cond)


def mute_symbol(gamma):
    """Rank-one shear-horizontal muting projector m = w (x) w.

    w is the unit vector along nu x xi_t, orthogonal to both the normal and
    the tangential covector.  Undefined at normal incidence (xi_t = 0) or
    whenever xi_t is parallel to nu; raises DegenerateMutingError there.
    """
    w = np.cross(gamma.nu, gamma.xi_t)
    n = np.linalg.norm(w)
    scale = max(np.linalg.norm(gamma.xi_t), 1e-300)
    if n <= MUTING_TOL * scale:
        raise DegenerateMutingError(
            "muting direction undefined: xi_t parallel to nu (normal incidence)")
    w = w / n
    return np.outer(w, w)


def muting_annihilation_check(m, gamma, frame=None):
    """Operator norm of pi_P composed with diag(m, m) at gamma.

    The muting projector selects shear-horizontal data, which lies in
    B_S^+ (+) B_S^-, so the compressional projector must annihilate its
    range; the returned norm is the quantitative residual.
    """
    if frame is None:
        frame = polarization_frame(m, gamma)
    mm = mute_symbol(gamma)
    lifted = np.zeros((6, 6), dtype=complex)
    lifted[:3, :3] = mm
    lifted[3:, 3:] = mm
    return float(np.linalg.norm(frame.p_projector @ lifted, 2))
