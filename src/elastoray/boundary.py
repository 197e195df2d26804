"""Boundary covector analysis: regions, characteristic roots, DN symbol.

A boundary covector gamma = (t, x, tau, xi_t) has x on the boundary and xi_t
tangential.  Per mode, the full characteristic covectors through gamma are
xi_t - z nu with z solving the quadratic

    B(nu, nu) z^2 - 2 B(xi_t, nu) z + (B(xi_t, xi_t) - tau^2) = 0,

where B is the mode form, rho B(eta, zeta) = a eta.zeta + R eta.zeta with a =
mu or lambda + 2 mu; the principal symbol is p = q_S Id - (lambda + mu) xi (x)
xi, q = rho tau^2 - rho B(xi, xi).  Real roots are classified forward/backward
by the sign of tau * B(xi_t - z nu, nu); complex roots come in conjugate pairs
and the one with positive imaginary part is selected.

Residue matrices, contour quadrature, DN symbol and companion check run on
one batched kernel: x, nu, xi_t of shape (n, 3) and tau of shape (n,) give
a SymbolBatch of (n, ...) values, read from a RootCore (one root table and
one evaluation of the fields), with one exception per failed row, of the
class and message the scalar function raises.  A row comes out bitwise
alike alone or in any batch, and the scalar functions are batches of one.
The scalar views of one covector share one RootCore; only that of the last
(medium, covector) pair is kept.  Ray launches read a RootCore too; only
the Lopatinski scan reads bare root tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (ContourError, DegenerateDirectionError, ElastorayError,
                     FrameDegenerateError, GlancingError, LopatinskiError,
                     NotOnBoundaryError, SingularResidueError)
from .medium import check_class_membership
from .symbols import (MODES, _apply, _mat, _off_boundary, _outer, _traction,
                      adot)
# re-exported: perfbench's NAMED_COPIES reads it here (ROADMAP item 2(b))
from .symbols import traction_symbol  # noqa: F401

__all__ = [
    "BoundaryCovector",
    "boundary_covector",
    "e_symbol",
    "tangential_frequency",
    "RegionLabel",
    "classify",
    "ModeRoots",
    "CharRoots",
    "char_roots",
    "discriminant_margin",
    "mode_quadratics",
    "forward_roots",
    "RootTable",
    "principal_symbol_batch",
    "LopatinskiReport",
    "lopatinski_margin",
    "sample_boundary_covectors",
    "SymbolBatch",
    "ResidueData",
    "residue_batch",
    "residue_matrices",
    "QuadratureResult",
    "quadrature_batch",
    "residue_quadrature",
    "DnSymbol",
    "dn_batch",
    "dn_symbol",
    "CompanionReport",
    "companion_batch",
    "companion_symbol_check",
]

GLANCING_TOL = 1e-10
# the Lopatinski scan skips covectors this close to glancing, relatively
_SCAN_GLANCING = 1e-3

# rows per block of the Lopatinski scan: its transient arrays stay near 1 MB
# at any sample count, and numpy's per-call overhead stays small
_SCAN_BLOCK = 2048

# Sign of the normal-derivative term in the traction route of the DN symbol,
# fixed once by calibration against the eigenvector route on the constant
# medium (see tests); with covectors written xi_t - z nu this is -1.
NORMAL_DERIVATIVE_SIGN = -1.0


# ---------------------------------------------------------------------------
# boundary covectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryCovector:
    """Covector (t, x, tau, xi_t) on the boundary cylinder, with unit normal."""

    t: float
    x: np.ndarray
    tau: float
    xi_t: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("x", "xi_t", "nu"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def xi_t_norm(self):
        return float(np.linalg.norm(self.xi_t))

    def in_gamma_delta(self, delta):
        """Time-like cone membership: |tau| >= delta |xi_t|."""
        return _in_gamma_delta(self.tau, self.xi_t, delta)


def _in_gamma_delta(tau, xi_t, delta):
    """``BoundaryCovector.in_gamma_delta`` of one covector's tau and xi_t."""
    return abs(float(tau)) >= delta * float(np.linalg.norm(xi_t))


def tangential_frequency(tau, xi_t):
    """e = sqrt(tau^2 + |xi_t|^2) over leading axes of tau and xi_t."""
    return np.sqrt(tau * tau + adot(xi_t, xi_t))


def e_symbol(gamma):
    """Tangential frequency weight e(gamma) = sqrt(tau^2 + |xi_t|^2), a
    batch of one of ``tangential_frequency``."""
    return float(tangential_frequency(gamma.tau, gamma.xi_t))


def boundary_covector(m, t, x, tau, xi):
    """Build a validated BoundaryCovector, projecting xi onto the tangent plane."""
    x = np.asarray(x, dtype=np.float64)
    if not m.domain.on_boundary(x):
        raise NotOnBoundaryError(
            f"covector base point off the boundary: |phi| = {abs(float(m.domain.phi(x))):.2e}")
    nu = m.domain.normal(x)
    xi = np.asarray(xi, dtype=np.float64)
    xi_t = xi - np.dot(xi, nu) * nu
    if tau ** 2 + np.dot(xi_t, xi_t) == 0.0:
        raise DegenerateDirectionError("(tau, xi_t) must be nonzero")
    return BoundaryCovector(t=t, x=x, tau=tau, xi_t=xi_t, nu=nu)


# ---------------------------------------------------------------------------
# mode quadratics and roots
# ---------------------------------------------------------------------------

def _fields(m, x):
    """lambda, mu, rho and R at points x."""
    return m.lam(x), m.mu(x), m.rho(x), m.stress.matrix(x)


def _mode_coeffs(lam, mu):
    """The mode coefficients (mu, lambda + 2 mu) on a leading (S, P) axis."""
    return np.array([mu, lam + 2.0 * mu])


def _mode_form(a, r, eta, zeta):
    """rho B(eta, zeta) = a eta.zeta + R eta.zeta, the mode form times rho,
    from evaluated fields; ``a`` may carry a leading mode axis."""
    rz = np.einsum("...ij,...j->...i", r, zeta)
    return a * adot(eta, zeta) + adot(eta, rz)


def _symbol_matrix(fields, tau, xi):
    """Principal symbol in expanded form, p = q_S Id - (lambda + mu) xi (x) xi
    with q_S = rho tau^2 - rho B_S(xi, xi), from evaluated fields; defined for
    every complex covector and broadcast over leading axes."""
    lam, mu, rho, r = fields
    q_s = rho * tau * tau - _mode_form(mu, r, xi, xi)
    return _mat(q_s) * np.eye(3) - _mat(lam + mu) * _outer(xi, xi)


def principal_symbol_batch(m, x, tau, xi):
    """Vectorized principal symbol over a batch of cotangent points.

    ``x`` and ``xi`` have shape (n, 3), ``tau`` shape (n,); ``xi`` may be
    complex (analytic continuation).  Returns stacked (p, p_tilde, q_S, q_P)
    with matrix shape (n, 3, 3) and p_tilde = q_P Id + (lambda + mu) xi (x) xi.
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi)
    xi = xi.astype(np.result_type(xi, np.float64))
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(np.abs(adot(xi, xi)) < 1e-300):
        raise DegenerateDirectionError("batch contains xi . xi = 0")
    lam, mu, rho, r = fields = _fields(m, x)
    q_s, q_p = rho * tau * tau - _mode_form(_mode_coeffs(lam, mu), r, xi, xi)
    p_tilde = _mat(q_p) * np.eye(3) + _mat(lam + mu) * _outer(xi, xi)
    return _symbol_matrix(fields, tau, xi), p_tilde, q_s, q_p


def mode_quadratics(m, x, nu, xi_t, tau):
    """Coefficients (A, Bh, C, scale2) of both modes' root quadratics.

    A = B(nu,nu), Bh = B(xi_t,nu), C = B(xi_t,xi_t) - tau^2, with B the mode
    form and the mode on a leading (S, P) axis; the fields are evaluated
    once for both modes.  Batched over leading axes of the arguments.  The
    returned scale2 is homogeneous of the same degree as the discriminant
    Bh^2 - A C and never vanishes for valid covectors.
    """
    return _quadratics(_fields(m, x), nu, xi_t, tau)


def _quadratics(fields, nu, xi_t, tau):
    lam, mu, rho, r = fields
    a = _mode_coeffs(lam, mu)
    big_a = _mode_form(a, r, nu, nu) / rho
    bh = _mode_form(a, r, xi_t, nu) / rho
    bxx = _mode_form(a, r, xi_t, xi_t) / rho
    # tau * tau, not tau ** 2: a Python float squares through libm pow and
    # an array through x * x, which differ in the last bit for a few tau
    tau2 = tau * tau
    c = bxx - tau2
    scale2 = bh * bh + np.abs(big_a) * (np.abs(bxx) + tau2)
    return big_a, bh, c, scale2


def forward_roots(big_a, bh, c, tau):
    """Forward and backward roots of A z^2 - 2 Bh z + C = 0, elementwise.

    Returns (z_forward, z_backward, real, d4) as arrays, with d4 = Bh^2 - A C.
    Real roots are paired stably (the large-magnitude root first, the other
    from the product C / A), so neither cancels as C -> 0; the forward one
    has tau (Bh - A z) > 0.  A complex pair puts the root with positive
    imaginary part forward.
    """
    d4 = bh * bh - big_a * c
    real = d4 > 0
    s = np.sqrt(np.abs(d4))
    # rows with A <= 0 (inadmissible samples) only give inf / nan
    with np.errstate(divide="ignore", invalid="ignore"):
        z_big = np.where(bh >= 0, bh + s, bh - s) / big_a   # nonzero if real
        z_small = c / (big_a * z_big)
        big_fwd = tau * (bh - big_a * z_big) > 0
        z_cplx = bh / big_a + 1j * (s / big_a)
    z_fwd = np.where(real, np.where(big_fwd, z_big, z_small), z_cplx)
    z_bwd = np.where(real, np.where(big_fwd, z_small, z_big), z_cplx.conj())
    return z_fwd, z_bwd, real, d4


@dataclass
class RootTable:
    """Both modes' roots at a batch of covectors, mode on a leading (S, P)
    axis; A and Bh give the root derivative 2 rho (Bh - A z).  No root is
    forward where ``nonpositive``: either mode's A = B(nu, nu) is <= 0."""

    z_forward: np.ndarray
    z_backward: np.ndarray
    real: np.ndarray
    glancing: np.ndarray
    nonpositive: np.ndarray
    d4: np.ndarray
    scale2: np.ndarray
    big_a: np.ndarray
    bh: np.ndarray

    @property
    def margin(self):
        """min over modes of |Bh^2 - A C| / scale2; zero exactly at glancing."""
        return np.min(np.abs(self.d4) / self.scale2, axis=0)

    def region_label(self, i, in_gamma_delta):
        """RegionLabel of covector i; the S elliptic region lies in the P
        elliptic one, so (S label, P label) determine the combined label.
        Raises the ``form_error`` of a ``nonpositive`` covector."""
        if self.nonpositive[i]:
            raise self.form_error(i)
        s, p = ("glancing" if self.glancing[k, i] else
                "hyperbolic" if self.real[k, i] else "elliptic"
                for k in range(2))
        combined = ("glancing" if "glancing" in (s, p) else
                    "elliptic" if s == "elliptic" else
                    "hyperbolic" if p == "hyperbolic" else "mixed")
        return RegionLabel(s_label=s, p_label=p, combined=combined,
                           in_gamma_delta=in_gamma_delta,
                           s_discriminant=float(self.d4[0, i]),
                           p_discriminant=float(self.d4[1, i]),
                           s_scale2=float(self.scale2[0, i]),
                           p_scale2=float(self.scale2[1, i]))

    def glancing_error(self, k, *i):
        """The GlancingError of mode k (at covector i of a batch)."""
        return GlancingError(f"mode {MODES[k]} is glancing at this covector",
                             discriminant=float(self.d4[(k, *i)]))

    def form_error(self, i):
        """The ElastorayError of a ``nonpositive`` covector i, naming its
        first mode whose B(nu, nu) is not positive."""
        return self.first_form_error(self.big_a[:, i])

    @staticmethod
    def first_form_error(big_a, modes=MODES):
        """The ElastorayError naming the first of ``modes`` whose B(nu, nu),
        in ``big_a`` on a leading (S, P) axis, is not positive, or None."""
        for name in modes:
            if not big_a[MODES.index(name)] > 0:
                return ElastorayError(f"mode {name} form B(nu, nu) is not "
                                      "positive at this covector")


def _root_table(quadratics, tau, glancing_tol=GLANCING_TOL):
    """RootTable of ``mode_quadratics`` by one ``forward_roots`` call; a
    mode is glancing where |Bh^2 - A C| < glancing_tol * scale2."""
    big_a, bh, c, scale2 = quadratics
    z_fwd, z_bwd, real, d4 = forward_roots(big_a, bh, c, tau)
    return RootTable(z_forward=z_fwd, z_backward=z_bwd, real=real,
                     glancing=np.abs(d4) < glancing_tol * scale2,
                     nonpositive=~np.all(big_a > 0, axis=0), d4=d4,
                     scale2=scale2, big_a=big_a, bh=bh)


def normalized_product(xi_s, xi_p):
    """(xi_S . xi_P, |xi_S . xi_P| / (|xi_S| |xi_P|), null) over rows, with
    analytic norms |xi| = sqrt(|xi . xi|); ``null`` marks a norm that is not
    positive (a null covector), where the product is left undefined."""
    dot = adot(xi_s, xi_p)
    ns = np.sqrt(np.abs(adot(xi_s, xi_s)))
    npn = np.sqrt(np.abs(adot(xi_p, xi_p)))
    null = ~((ns > 0) & (npn > 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        product = np.abs(dot) / (ns * npn)
    return dot, product, null


@dataclass(frozen=True)
class RegionLabel:
    """Per-mode hyperbolic/elliptic/glancing labels and the combined region."""

    s_label: str
    p_label: str
    combined: str
    in_gamma_delta: bool | None
    s_discriminant: float
    p_discriminant: float
    s_scale2: float
    p_scale2: float

    def to_dict(self):
        return {"s_label": self.s_label, "p_label": self.p_label,
                "combined": self.combined,
                "in_gamma_delta": self.in_gamma_delta,
                "s_discriminant": self.s_discriminant,
                "p_discriminant": self.p_discriminant}


def classify(m, gamma, params=None):
    """Classify gamma into hyperbolic / mixed / elliptic / glancing regions
    by ``RootTable.region_label``, which raises where a mode's B(nu, nu) is
    not positive."""
    if params is None:
        params = getattr(m, "class_params", None)
    in_gd = gamma.in_gamma_delta(params.delta) if params is not None else None
    return _core_of(m, gamma).table.region_label(0, in_gd)


@dataclass(frozen=True)
class ModeRoots:
    """Characteristic roots of one mode at a boundary covector.

    For real roots, ``z_forward`` is the root whose bicharacteristic enters
    the domain as time increases; for a complex pair it is the root with
    positive imaginary part (decay into the domain) and ``real`` is False.
    ``c_forward`` is d q_mode / dz at the selected root.
    """

    mode: str
    real: bool
    z_forward: complex
    z_backward: complex
    c_forward: complex
    c_backward: complex
    xi_forward: np.ndarray
    xi_backward: np.ndarray
    discriminant: float


@dataclass(frozen=True)
class CharRoots:
    s: ModeRoots
    p: ModeRoots
    xi_dot: complex          # xi_S . xi_P (analytic)
    normalized_product: float

    def mode(self, mode):
        return self.s if mode == "S" else self.p


def discriminant_margin(m, gamma):
    """min over modes of |discriminant| / scale2; zero exactly at glancing.

    Contour quadrature of the residue matrices converges geometrically in
    the root separation, so quantitative cross-checks against the closed
    form should require a floor on this margin (sqrt of it bounds the
    relative root gap).
    """
    return float(_core_of(m, gamma).table.margin[0])


# ---------------------------------------------------------------------------
# Lopatinski margin sampling
# ---------------------------------------------------------------------------

def sample_boundary_covectors(m, n, rng, delta):
    """Random boundary covector batch inside the time-like cone Gamma_delta.

    Returns arrays (x, nu, xi_t, tau) with |xi_t| = 1 and |tau| / |xi_t|
    log-uniform from delta up to three times the largest compressional
    speed, which covers the hyperbolic region.
    """
    x = m.domain.sample_boundary(n, rng)
    nu = m.domain.normal(x)
    v = rng.standard_normal((n, 3))
    v -= adot(v, nu)[:, None] * nu
    bad = np.sqrt(adot(v, v)) < 1e-8
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        v[bad] -= adot(v[bad], nu[bad])[:, None] * nu[bad]
        bad = np.sqrt(adot(v, v)) < 1e-8
    xi_t = v / np.sqrt(adot(v, v))[:, None]
    pts = m.domain.grid(9)
    c2 = _mode_coeffs(m.lam(pts), m.mu(pts))[1] * (1.0 + 0.5) / m.rho(pts)
    top = max(3.0 * float(np.sqrt(c2.max())), 2.0 * delta)
    u = np.exp(rng.uniform(np.log(delta), np.log(top), n))
    tau = u * rng.choice([-1.0, 1.0], n)
    return x, nu, xi_t, tau


@dataclass
class LopatinskiReport:
    """Minimum normalized |xi_S . xi_P| over a covector sample."""

    min_normalized: float
    argmin: BoundaryCovector | None
    n_samples: int
    n_used: int
    n_glancing_skipped: int
    region_counts: dict
    admissible: bool | None

    @property
    def positive(self):
        return self.min_normalized > 0.0

    def to_dict(self):
        return {"min_normalized": self.min_normalized,
                "n_samples": self.n_samples, "n_used": self.n_used,
                "n_glancing_skipped": self.n_glancing_skipped,
                "region_counts": self.region_counts,
                "admissible": self.admissible,
                "positive": self.positive}


def lopatinski_margin(m, params=None, sample_count=10000, seed=0):
    """Sampled lower bound for the Lopatinski product over Gamma_delta.

    Samples covectors in the time-like cone, skips near-glancing ones
    (discriminant within ``_SCAN_GLANCING`` of zero relative to scale) and
    those where a mode's B(nu, nu) is not positive, and
    returns the minimum of |xi_S . xi_P| / (|xi_S| |xi_P|) with analytic
    norms |xi| = sqrt(|xi . xi|).  For a medium passing the class membership
    check the minimum must be positive; a non-positive minimum then raises
    LopatinskiError, as does a sample with no usable covector.  For
    inadmissible media the value is reported only.

    The samples are drawn at once and evaluated in blocks of rows, and the
    report is bitwise that of one pass over them: the minimizer is the first
    index ``np.argmin`` gives.
    """
    if params is None:
        params = getattr(m, "class_params", None)
    if params is None:
        raise ValueError("no class parameters supplied")
    rng = np.random.default_rng(seed)
    x, nu, xi_t, tau = sample_boundary_covectors(m, sample_count, rng,
                                                 params.delta)

    min_val, imin, n_used, n_glancing = np.inf, 0, 0, 0
    counts = dict.fromkeys(("hyperbolic", "mixed", "elliptic"), 0)
    for lo in range(0, sample_count, _SCAN_BLOCK):
        rows = slice(lo, lo + _SCAN_BLOCK)
        # roots only: a RootCore per block, with its derivatives, was slower
        t = _root_table(mode_quadratics(m, x[rows], nu[rows], xi_t[rows],
                                        tau[rows]), tau[rows], _SCAN_GLANCING)
        glancing = np.any(t.glancing, axis=0)
        xi_s, xi_p = (xi_t[rows] - z[:, None] * nu[rows]
                      for z in t.z_forward)
        _, product, null = normalized_product(xi_s, xi_p)
        ok = ~t.nonpositive & ~glancing & ~null
        norm_prod = np.where(ok, product, np.inf)
        i = int(np.argmin(norm_prod))
        # np.argmin of (running, block) minimum: an earlier tie or NaN wins
        if np.argmin([min_val, norm_prod[i]]):
            min_val, imin = float(norm_prod[i]), lo + i
        n_used += int(ok.sum())
        n_glancing += int(glancing.sum())
        real = t.real
        counts["hyperbolic"] += int(np.sum(real[0] & real[1] & ok))
        counts["mixed"] += int(np.sum(real[0] & ~real[1] & ok))
        counts["elliptic"] += int(np.sum(~real[0] & ok))
    if n_used == 0:
        raise LopatinskiError(
            "no usable covector samples (all glancing/invalid)")
    argmin = BoundaryCovector(t=0.0, x=x[imin], tau=float(tau[imin]),
                              xi_t=xi_t[imin], nu=nu[imin])

    memo = m._admissible    # the class check runs once per medium and params
    if params not in memo:
        try:
            memo[params] = check_class_membership(m, params).admissible
        except ValueError:
            memo[params] = None
    admissible = memo[params]
    report = LopatinskiReport(min_normalized=min_val, argmin=argmin,
                              n_samples=sample_count, n_used=n_used,
                              n_glancing_skipped=n_glancing,
                              region_counts=counts, admissible=admissible)
    if admissible and not report.positive:
        raise LopatinskiError(
            f"Lopatinski product vanished ({min_val}) for an admissible medium")
    return report


# ---------------------------------------------------------------------------
# the batched kernel: one root core, per-row errors
# ---------------------------------------------------------------------------

class RootCore:
    """Boundary covectors on a leading axis of n rows, the fields at x and
    one root table: both modes' roots z, root derivatives
    c = 2 rho (Bh - A z) and covectors xi_t - z nu (complex, on leading
    forward / backward and S / P axes), the Lopatinski product and its
    ``null`` mask.  Only read after it is built, so kernel runs share it."""

    def __init__(self, m, x, nu, xi_t, tau):
        self.m, self.x, self.nu, self.xi_t, self.tau = m, x, nu, xi_t, tau
        self.fields = _fields(m, x)
        t = self.table = _root_table(_quadratics(self.fields, nu, xi_t, tau),
                                     tau)
        self.z = np.array([t.z_forward, t.z_backward])
        with np.errstate(all="ignore"):     # inadmissible rows give inf, nan
            self.xi = xi_t - self.z[..., None] * nu
            self.xi_dot, self.product, self.null = normalized_product(
                *self.xi[0])
            self.c = 2.0 * self.fields[2] * (t.bh - t.big_a * self.z)


class SymbolBatch:
    """One kernel run on a RootCore, whose arrays it reads and never
    writes, and the run's own state: ``values``, arrays of n rows, NaN
    (zero in flags and counts) at a failed row, none if every row failed;
    ``errors[i]``, the ElastorayError the scalar function raises at row i,
    or None, made afresh by each run; ``ok``, the rows without.  A failed
    row computes on, masked and kept out of np.linalg, so a row comes out
    bitwise alike alone or in any batch."""

    def __init__(self, core):
        self.__dict__.update(core.__dict__)
        self.errors, self.ok = [None] * len(self.tau), np.ones(len(self.tau),
                                                               bool)
        self.values = {}
        t = self.table
        if (t.nonpositive | t.glancing[0] | t.glancing[1] | self.null).any():
            self.fail((t.nonpositive, t.form_error),
                      *((t.glancing[k], partial(t.glancing_error, k))
                        for k in range(2)),
                      (self.null, lambda i: SingularResidueError(
                          "analytically null selected covector")))

    def fail(self, *checks, first=False):
        """Give each row still ok the error of its first failing check (a
        mask over the batch and the factory of row i's error); ``first``
        overrides earlier errors.  Returns whether any row is left."""
        for fails, make in checks:
            if fails.any():
                for i in np.flatnonzero(fails if first else fails & self.ok):
                    self.errors[i] = make(i)
                self.ok &= ~fails
        return self.ok.any()

    def masked(self, a, fill):
        """``a`` with the failed rows replaced by ``fill``."""
        if self.ok.all():
            return a
        return np.where(self.ok.reshape((-1,) + (1,) * (a.ndim - 1)), a, fill)

    def traction(self, xi):
        """traction_symbol at xi of shape (k, n, 3); rows off the boundary
        fail."""
        off = _off_boundary(self.m, self.x, "traction symbol")
        if off:
            self.fail((np.isin(np.arange(len(self.ok)), list(off)), off.get))
        lam, mu, _, r = self.fields
        return _traction(self.m.domain.normal(self.x), lam, mu, r, xi)

    def row(self, i):
        """{name: value} at row i; raises the row's error if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return {name: a[i] for name, a in self.values.items()}

    def char_roots(self, i):
        """CharRoots of row i; real roots have real covectors."""
        real, z, c = (a[..., i].tolist() for a in (self.table.real, self.z,
                                                   self.c))
        s, p = (ModeRoots(mode, real[k], *(complex(v[k].real if real[k]
                                                   else v[k]) for v in z),
                          c[0][k], c[1][k], *(v.real if real[k] else v
                                              for v in self.xi[:, k, i]),
                          float(self.table.d4[k, i]))
                for k, mode in enumerate(MODES))
        return CharRoots(s=s, p=p, xi_dot=complex(self.xi_dot[i]),
                         normalized_product=float(self.product[i]))


def _run(kernel, core, *args):
    """SymbolBatch of one run of ``kernel`` on a RootCore."""
    b = SymbolBatch(core)
    b.values = {name: b.masked(a, np.nan if a.dtype.kind in "fc"
                               else a.dtype.type(0))
                for name, a in kernel(b, *args).items()}
    return b


def _batched(kernel, m, x, nu, xi_t, tau, *args):
    """SymbolBatch of ``kernel`` on a fresh RootCore at x, nu, xi_t (n, 3)
    and tau (n,)."""
    return _run(kernel, RootCore(m, *(np.asarray(a, dtype=np.float64)
                                      for a in (x, nu, xi_t, tau))), *args)


# (medium, covector, RootCore) of the last covector a scalar view was given
_last_core = None


def _core_of(m, gamma):
    """The RootCore of gamma as a batch of one, shared by the scalar views.

    Only the core of the last (medium, covector) pair is kept, matched by
    identity.  The entry holds strong references to both, so neither
    identity can be reused while it is kept.  A BoundaryCovector is frozen
    and its arrays are read-only, and nothing reassigns a medium's fields
    after construction, so a kept core stays that of its pair.
    """
    global _last_core
    entry = _last_core
    if entry is None or entry[0] is not m or entry[1] is not gamma:
        entry = _last_core = (m, gamma, RootCore(
            m, gamma.x[None], gamma.nu[None], gamma.xi_t[None],
            np.array([gamma.tau])))
    return entry[2]


def char_roots(m, gamma):
    """Characteristic roots, selected covectors, and the Lopatinski product.

    Raises GlancingError when either mode is glancing.  The residual of the
    scalar symbol at each returned root is at machine level by construction.
    """
    b = SymbolBatch(_core_of(m, gamma))
    b.row(0)
    return b.char_roots(0)


def _fro(a):
    """Frobenius norms of a stack of matrices."""
    return np.sqrt(np.sum((a * a.conj()).real, axis=(-2, -1)))


def _inv3(p):
    """Inverses of a stack of 3x3 matrices, by their cofactors."""
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(p, (-2, -1), (0, 1))
    adj = np.array([[e * i - f * h, c * h - b * i, b * f - c * e],
                    [f * g - d * i, a * i - c * g, c * d - a * f],
                    [d * h - e * g, b * g - a * h, a * e - b * d]])
    det = a * adj[0, 0] + b * adj[1, 0] + c * adj[2, 0]
    return np.moveaxis(adj / det, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# residue matrices
# ---------------------------------------------------------------------------

@dataclass
class ResidueData:
    """Closed-form residue matrices of the inverse principal symbol.

    A_j = (z_S^j / c_S)(Id - pi(xi_S)) + (z_P^j / c_P) pi(xi_P) for j = 0, 1,
    summing the residues of z^j p(tau, xi_t - z nu)^{-1} over the selected
    (forward / upper half-plane) roots.
    """

    a0: np.ndarray
    a1: np.ndarray
    a0_inv: np.ndarray
    cond_a0: float
    roots: CharRoots


@np.errstate(all="ignore")
def _residues(b):
    (z_s, z_p), (c_s, c_p), xi = b.z[0], b.c[0], b.xi[0]
    n2 = np.sum(np.abs(xi) ** 2, axis=-1)
    xx = adot(xi, xi)
    if not b.fail(
            (np.abs(z_s - z_p) < 1e-12 * np.maximum(
                np.maximum(np.abs(z_s), np.abs(z_p)), 1e-30),
             lambda i: SingularResidueError("coinciding S and P roots")),
            (np.abs(b.xi_dot) < 1e-12 * np.maximum(*n2), lambda i:
             SingularResidueError("xi_S . xi_P = 0: Lopatinski degeneracy")),
            (np.any(np.abs(xx) < 1e-14 * n2, axis=0), lambda i:
             SingularResidueError("xi . xi = 0: analytic projector undefined"))):
        return {}
    pi_s, pi_p = _outer(xi, xi) / _mat(xx)
    q_s, q_p = (np.eye(3) - pi_s) / _mat(c_s), pi_p / _mat(c_p)
    a0 = q_s + q_p
    a0_ok = b.masked(a0, np.eye(3))
    sv = np.linalg.svd(a0_ok, compute_uv=False)
    return {"a0": a0, "a1": _mat(z_s) * q_s + _mat(z_p) * q_p,
            "a0_inv": np.linalg.inv(a0_ok), "cond_a0": sv[:, 0] / sv[:, -1],
            "z": b.z[0].T, "xi": xi.swapaxes(0, 1)}


def residue_batch(m, x, nu, xi_t, tau):
    """``residue_matrices`` as a SymbolBatch: a0, a1, a0_inv, cond_a0, and
    the selected roots z (n, 2) and covectors xi (n, 2, 3), S then P."""
    return _batched(_residues, m, x, nu, xi_t, tau)


def residue_matrices(m, gamma):
    b = _run(_residues, _core_of(m, gamma))
    v = b.row(0)
    return ResidueData(a0=v["a0"], a1=v["a1"], a0_inv=v["a0_inv"],
                       cond_a0=float(v["cond_a0"]),
                       roots=b.char_roots(0))


@dataclass
class QuadratureResult:
    a0: np.ndarray
    a1: np.ndarray
    center: complex
    radius: float
    nodes: int
    windings: dict


# the roots' winding numbers about the contour, in the order they are checked
WINDINGS = (("S_forward", 1.0), ("P_forward", 1.0), ("S_backward", 0.0),
            ("P_backward", 0.0))


@lru_cache
def _ring(nodes):
    """The trapezoidal nodes exp(2 pi i k / nodes) on the unit circle."""
    ring = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    ring.setflags(write=False)
    return ring


@np.errstate(all="ignore")
def _quadrature(b, nodes):
    roots = b.z.reshape(4, -1).T        # S, P forward, then S, P backward
    center = 0.5 * (roots[:, 0] + roots[:, 1])
    dist = np.abs(roots - center[:, None])
    rmax, d_min = dist[:, :2].max(axis=-1), dist[:, 2:].min(axis=-1)
    if not b.fail((d_min <= rmax * (1.0 + 1e-9), lambda i: ContourError(
            "rejected root inside the minimal enclosing circle"))):
        return {}
    # geometric mean balances the inner and outer trapezoid decay rates
    radius = np.where(rmax == 0.0, 0.5 * d_min, np.sqrt(rmax * d_min))

    ring = _ring(nodes)
    z = center[:, None] + radius[:, None] * ring
    xi = b.xi_t[:, None, :] - z[..., None] * b.nu[:, None, :]
    p = _symbol_matrix([f[:, None] for f in b.fields], b.tau[:, None], xi)
    p_inv = _inv3(p).reshape(-1, nodes, 9)

    weight = (radius / nodes)[:, None] * ring
    a0, a1 = (np.concatenate([weight, weight * z], axis=-1).reshape(
        -1, 2, nodes) @ p_inv).swapaxes(0, 1).reshape(2, -1, 3, 3)
    windings = (weight[:, None] / (z[:, None] - roots[..., None])).sum(-1)
    off = np.abs(windings - [expect for _, expect in WINDINGS]) > 1e-2
    b.fail(*((off[:, j], lambda i, j=j, label=label, expect=expect:
              ContourError(f"winding number of {label} root is "
                           f"{complex(windings[i, j]):.3f}, expected {expect}"))
             for j, (label, expect) in enumerate(WINDINGS)))
    return {"a0": a0, "a1": a1, "center": center, "radius": radius,
            "windings": windings}


def quadrature_batch(m, x, nu, xi_t, tau, nodes=256):
    """``residue_quadrature`` as a SymbolBatch: a0, a1, center, radius, and
    the windings (n, 4) in the order of WINDINGS."""
    return _batched(_quadrature, m, x, nu, xi_t, tau, nodes)


def residue_quadrature(m, gamma, nodes=256):
    """Contour-integral evaluation of the residue matrices.

    Trapezoidal rule on a circle enclosing exactly the selected roots; the
    expanded-form principal symbol is inverted numerically at each node, by
    its cofactors, independent of the closed-form route.  Winding numbers of
    all four roots are evaluated from the same quadrature and must certify
    the selection, otherwise ContourError is raised.
    """
    v = _run(_quadrature, _core_of(m, gamma), nodes).row(0)
    return QuadratureResult(
        a0=v["a0"], a1=v["a1"], center=complex(v["center"]),
        radius=float(v["radius"]), nodes=nodes,
        windings={label: complex(w)
                  for (label, _), w in zip(WINDINGS, v["windings"])})


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann principal symbol
# ---------------------------------------------------------------------------

@dataclass
class DnSymbol:
    """DN principal symbol computed along two independent routes.

    ``matrix`` acts mode-by-mode: a in C xi_P maps to s(x, xi_P) a and
    a with a . xi_S = 0 maps to s(x, xi_S) a, extended linearly through the
    oblique splitting C^3 = C xi_P + {a : a . xi_S = 0}.  ``route_r`` composes
    the traction symbol with the normal-derivative symbol A_1 A_0^{-1}.
    """

    matrix: np.ndarray
    route_r: np.ndarray
    rel_residual: float
    roots: CharRoots


@np.errstate(all="ignore")
def _dn(b):
    res = _residues(b)
    if not res:
        return {}
    # the derivative of s(x, xi) along the normal coordinate is s(x, nu)
    s_s, s_p, s_t, s_nu = b.traction(np.array([*b.xi[0], b.xi_t, b.nu]))
    xi_s, xi_p = b.xi[0]
    # a = (a.xi_S / xi_S.xi_P) xi_P + w with w.xi_S = 0, as a rank-one update
    route_e = s_s + _outer(_apply(s_p - s_s, xi_p), xi_s) / _mat(b.xi_dot)
    route_r = s_t + NORMAL_DERIVATIVE_SIGN * s_nu @ (res["a1"] @ res["a0_inv"])
    n_e, n_r, n_d = _fro(np.array([route_e, route_r, route_e - route_r]))
    return {"matrix": route_e, "route_r": route_r,
            "rel_residual": n_d / np.maximum(np.maximum(n_e, n_r), 1e-300)}


def dn_batch(m, x, nu, xi_t, tau):
    """``dn_symbol`` as a SymbolBatch: matrix, route_r, rel_residual."""
    return _batched(_dn, m, x, nu, xi_t, tau)


def dn_symbol(m, gamma):
    b = _run(_dn, _core_of(m, gamma))
    v = b.row(0)
    return DnSymbol(matrix=v["matrix"], route_r=v["route_r"],
                    rel_residual=float(v["rel_residual"]),
                    roots=b.char_roots(0))


# ---------------------------------------------------------------------------
# companion first-order reduction
# ---------------------------------------------------------------------------

@dataclass
class CompanionReport:
    """Diagnostics of the 6x6 companion symbol at a boundary covector."""

    eta_norm: float
    identity_residual: float
    eigenvalue_error: float
    kernel_ok: bool
    kernel_dims: dict
    g: np.ndarray


# the roots whose kernels are checked where they are real
KERNEL_TAGS = ("S+", "S-", "P+", "P-")


@np.errstate(all="ignore")
def _companion(b, zeta):
    eta = tangential_frequency(b.tau, b.xi_t)
    if not b.fail((eta <= 0.0, lambda i: FrameDegenerateError(
            "tangential frequency vanishes")), first=True):
        return {}
    n, e, eye, eye6 = len(eta), _mat(eta), np.eye(3), np.eye(6)

    # p(z) at z = 0, 1, -1
    p_0, p_plus, p_minus = _symbol_matrix(
        b.fields, b.tau, b.xi_t - np.array([[[0.0]], [[1.0]], [[-1.0]]]) * b.nu)
    p12 = np.linalg.solve(0.5 * (p_plus + p_minus) - p_0,
                          np.concatenate([0.5 * (p_plus - p_minus), p_0], -1))
    p1, p2 = p12[..., :3], p12[..., 3:]
    g, gp = np.zeros((2, n, 6, 6))
    g[:, :3, 3:], g[:, 3:, :3], g[:, 3:, 3:] = e * eye, -p2 / e, -p1
    gp[:, :3, :3], gp[:, :3, 3:], gp[:, 3:, :3] = -p1, -e * eye, p2 / e

    (zs_f, zp_f), (zs_b, zp_b) = b.z
    roots = np.array([zs_f, zs_f, zs_b, zs_b, zp_f, zp_b]).T
    # the residual is a maximum, so repeated probes are moot
    z = _mat(np.concatenate([roots, 0.7 * eta[:, None]], axis=-1)
             if zeta is None else np.full((n, 1), zeta, dtype=complex))
    pn = z * z * eye + z * p1[:, None] + p2[:, None]
    lhs = (z * eye6 - gp[:, None]) @ (z * eye6 - g[:, None])
    lhs[..., :3, :3] -= pn
    lhs[..., 3:, 3:] -= pn
    # |diag(pn, pn)| = sqrt(2) |pn|
    identity = np.max(_fro(lhs) / np.maximum(np.sqrt(2.0) * _fro(pn), 1.0),
                      axis=-1)

    # each root takes the nearest eigenvalue not taken before it
    dist = np.abs(np.linalg.eigvals(b.masked(g, eye6))[:, None, :]
                  - roots[..., None])
    every, worst = np.arange(n), []
    for d in dist.swapaxes(0, 1):
        k = d.argmin(axis=-1)
        worst.append(d[every, k])
        dist[every, :, k] = np.inf

    # over a real root z, ker (z - g) = {(eta a, z a) : p(z) a = 0} has the
    # projector (w w^T) (x) Q, with w = (eta, z) / |(eta, z)| and Q the
    # projector onto ker p(z): the plane xi^perp for S, the line of xi for P
    rows, tags = np.nonzero(np.repeat(b.table.real.T, 2, axis=-1)
                            & b.ok[:, None])
    zr = np.concatenate(b.z.real.swapaxes(0, 1))[tags, rows]
    xi = np.concatenate(b.xi.real.swapaxes(0, 1))[tags, rows]
    q = _outer(xi, xi) / _mat(adot(xi, xi))
    q[tags < 2] = eye - q[tags < 2]
    w = np.stack([eta[rows], zr], axis=-1)
    ww = _outer(w, w) / _mat(adot(w, w))
    proj = (ww[:, :, None, :, None] * q[:, None, :, None, :]).reshape(-1, 6, 6)
    _, sv, vh = np.linalg.svd(_mat(zr) * eye6 - g[rows])
    null = sv < 1e-8 * sv[:, :1]
    gap = _fro(proj - (vh.swapaxes(-1, -2) * null[:, None, :]) @ vh)
    dims, fits = np.full((n, 4), -1), np.ones((n, 4), dtype=bool)
    dims[rows, tags] = null.sum(axis=-1)
    # ker p has rank 2 over an S root, 1 over a P root
    fits[rows, tags] = ((dims[rows, tags] == np.array([2, 2, 1, 1])[tags])
                        & ~(gap > 1e-8))
    return {"eta_norm": eta, "identity_residual": identity,
            "eigenvalue_error": np.max(worst, axis=0) / np.maximum(
                1.0, np.max(np.abs(roots), axis=-1)),
            "kernel_ok": fits.all(axis=-1), "kernel_dims": dims, "g": g}


def companion_batch(m, x, nu, xi_t, tau, zeta=None):
    """``companion_symbol_check`` as a SymbolBatch: eta_norm,
    identity_residual, eigenvalue_error, kernel_ok, g, and kernel_dims
    (n, 4) as in KERNEL_TAGS, -1 where that root is not real."""
    return _batched(_companion, m, x, nu, xi_t, tau, zeta)


def companion_symbol_check(m, gamma, zeta=None):
    """Build the companion symbol and verify its defining identities.

    With p(z) the principal symbol along xi_t - z nu, normalized to a monic
    matrix quadratic z^2 Id + p1 z + p2, the companion symbol is

        g = [[0, |eta| Id], [-p2 / |eta|, -p1]],   |eta|^2 = tau^2 + |xi_t|^2.

    Checks: the factorization (zeta - g')(zeta - g) = diag(p(zeta), p(zeta))
    with g' = [[-p1, -|eta| Id], [p2 / |eta|, 0]]; the eigenvalues of g equal
    the characteristic roots with multiplicity (2, 2, 1, 1); over each real
    root the kernel of (z - g) is {(|eta| a, z a) : p(z) a = 0}.
    """
    v = _run(_companion, _core_of(m, gamma), zeta).row(0)
    return CompanionReport(
        eta_norm=float(v["eta_norm"]),
        identity_residual=float(v["identity_residual"]),
        eigenvalue_error=float(v["eigenvalue_error"]),
        kernel_ok=bool(v["kernel_ok"]),
        kernel_dims={tag: int(d) for tag, d in zip(KERNEL_TAGS,
                                                    v["kernel_dims"])
                     if d >= 0},
        g=v["g"])
