"""Boundary covector analysis: regions, characteristic roots, DN symbol.

A boundary covector gamma = (t, x, tau, xi_t) has x on the boundary and xi_t
tangential.  Per mode, the full characteristic covectors through gamma are
xi_t - z nu with z solving the quadratic

    B(nu, nu) z^2 - 2 B(xi_t, nu) z + (B(xi_t, xi_t) - tau^2) = 0,

where B is the dual mode metric as a bilinear form.  Real roots are classified
forward/backward by the sign of tau * B(xi_t - z nu, nu); complex roots come
in conjugate pairs and the one with positive imaginary part is selected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ContourError, DegenerateDirectionError,
                     FrameDegenerateError, GlancingError, LopatinskiError,
                     NotOnBoundaryError, SingularResidueError)
from .medium import check_class_membership
from .symbols import (MODES, _mode_coeff, _mode_form, adot,
                      principal_symbol_matrix, traction_normal_derivative,
                      traction_symbol)

__all__ = [
    "BoundaryCovector",
    "boundary_covector",
    "e_symbol",
    "RegionLabel",
    "classify",
    "ModeRoots",
    "CharRoots",
    "char_roots",
    "discriminant_margin",
    "mode_quadratics",
    "forward_roots",
    "RootTable",
    "root_table",
    "LopatinskiReport",
    "lopatinski_margin",
    "sample_boundary_covectors",
    "ResidueData",
    "residue_matrices",
    "QuadratureResult",
    "residue_quadrature",
    "DnSymbol",
    "dn_symbol",
    "CompanionReport",
    "companion_symbol_check",
]

GLANCING_TOL = 1e-10

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
        return abs(self.tau) >= delta * self.xi_t_norm


def e_symbol(gamma):
    """Tangential frequency weight e(gamma) = sqrt(tau^2 + |xi_t|^2)."""
    return float(np.sqrt(gamma.tau ** 2 + np.dot(gamma.xi_t, gamma.xi_t)))


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

def mode_quadratics(m, x, nu, xi_t, tau):
    """Coefficients (A, Bh, C, scale2) of both modes' root quadratics.

    A = B(nu,nu), Bh = B(xi_t,nu), C = B(xi_t,xi_t) - tau^2, with B the mode
    form and the mode on a leading (S, P) axis; the fields are evaluated
    once for both modes.  Batched over leading axes of the arguments.  The
    returned scale2 is homogeneous of the same degree as the discriminant
    Bh^2 - A C and never vanishes for valid covectors.
    """
    a = np.array([_mode_coeff(m, mode, x) for mode in MODES])
    rho = m.rho(x)
    r = m.stress.matrix(x)
    big_a = _mode_form(a, r, rho, nu, nu)
    bh = _mode_form(a, r, rho, xi_t, nu)
    bxx = _mode_form(a, r, rho, xi_t, xi_t)
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
    axis; A and Bh give the root derivative 2 rho (Bh - A z)."""

    z_forward: np.ndarray
    z_backward: np.ndarray
    real: np.ndarray
    glancing: np.ndarray
    d4: np.ndarray
    scale2: np.ndarray
    big_a: np.ndarray
    bh: np.ndarray

    def glancing_error(self, k, *i):
        """The GlancingError of mode k (at covector i of a batch)."""
        return GlancingError(f"mode {MODES[k]} is glancing at this covector",
                             discriminant=float(self.d4[(k, *i)]))


def root_table(m, x, nu, xi_t, tau, glancing_tol=GLANCING_TOL):
    """RootTable at covectors batched over leading axes, from one
    ``mode_quadratics`` and one ``forward_roots`` call.  A mode is glancing
    where |Bh^2 - A C| < glancing_tol * scale2."""
    big_a, bh, c, scale2 = mode_quadratics(m, x, nu, xi_t, tau)
    z_fwd, z_bwd, real, d4 = forward_roots(big_a, bh, c, tau)
    return RootTable(z_forward=z_fwd, z_backward=z_bwd, real=real,
                     glancing=np.abs(d4) < glancing_tol * scale2, d4=d4,
                     scale2=scale2, big_a=big_a, bh=bh)


def root_covector(xi_t, z, nu):
    """Characteristic covector xi_t - z nu through a root z: a scalar, or a
    column with one root per row of xi_t and nu."""
    return xi_t - z * nu


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
    """Classify gamma into hyperbolic / mixed / elliptic / glancing regions.

    A mode is glancing where ``root_table`` marks it so.  The S elliptic
    region is contained in the P elliptic region, so the combined
    label is determined by (S label, P label).
    """
    t = root_table(m, gamma.x, gamma.nu, gamma.xi_t, gamma.tau)
    s, p = ("glancing" if t.glancing[k] else
            "hyperbolic" if t.real[k] else "elliptic" for k in range(2))
    combined = ("glancing" if "glancing" in (s, p) else
                "elliptic" if s == "elliptic" else
                "hyperbolic" if p == "hyperbolic" else "mixed")

    if params is None:
        params = getattr(m, "class_params", None)
    in_gd = gamma.in_gamma_delta(params.delta) if params is not None else None
    return RegionLabel(s_label=s, p_label=p,
                       combined=combined, in_gamma_delta=in_gd,
                       s_discriminant=float(t.d4[0]),
                       p_discriminant=float(t.d4[1]),
                       s_scale2=float(t.scale2[0]), p_scale2=float(t.scale2[1]))


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
    gamma: BoundaryCovector
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
    t = root_table(m, gamma.x, gamma.nu, gamma.xi_t, gamma.tau)
    return float(np.min(np.abs(t.d4) / t.scale2))


def char_roots(m, gamma):
    """Characteristic roots, selected covectors, and the Lopatinski product.

    Raises GlancingError when either mode is glancing.  The residual of the
    scalar symbol at each returned root is at machine level by construction.
    """
    t = root_table(m, gamma.x, gamma.nu, gamma.xi_t, gamma.tau)
    rho = float(m.rho(gamma.x))
    modes = []
    for k, mode in enumerate(MODES):
        if t.glancing[k]:
            raise t.glancing_error(k)
        # real roots stay real scalars, so their covectors are real arrays
        zs = [z.real.item() if t.real[k] else z.item()
              for z in (t.z_forward[k], t.z_backward[k])]
        c_z = [complex(2.0 * rho * (float(t.bh[k]) - float(t.big_a[k]) * z))
               for z in zs]
        xi_z = [root_covector(gamma.xi_t, z, gamma.nu) for z in zs]
        modes.append(ModeRoots(mode, bool(t.real[k]), *map(complex, zs),
                               *c_z, *xi_z, float(t.d4[k])))
    s_roots, p_roots = modes
    dot, product, null = normalized_product(s_roots.xi_forward,
                                            p_roots.xi_forward)
    if null:
        raise SingularResidueError("analytically null selected covector")
    return CharRoots(gamma=gamma, s=s_roots, p=p_roots, xi_dot=complex(dot),
                     normalized_product=float(product))


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
    v -= np.sum(v * nu, axis=-1, keepdims=True) * nu
    bad = np.linalg.norm(v, axis=-1) < 1e-8
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        v[bad] -= np.sum(v[bad] * nu[bad], axis=-1, keepdims=True) * nu[bad]
        bad = np.linalg.norm(v, axis=-1) < 1e-8
    xi_t = v / np.linalg.norm(v, axis=-1, keepdims=True)
    pts = m.domain.grid(9)
    c2 = _mode_coeff(m, "P", pts) * (1.0 + 0.5) / m.rho(pts)
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


def lopatinski_margin(m, params=None, sample_count=10000, seed=0,
                      glancing_margin=1e-3):
    """Sampled lower bound for the Lopatinski product over Gamma_delta.

    Samples covectors in the time-like cone, skips near-glancing ones
    (discriminant within ``glancing_margin`` of zero relative to scale), and
    returns the minimum of |xi_S . xi_P| / (|xi_S| |xi_P|) with analytic
    norms |xi| = sqrt(|xi . xi|).  For a medium passing the class membership
    check the minimum must be positive; a non-positive minimum then raises
    LopatinskiError.  For inadmissible media the value is reported only.
    """
    if params is None:
        params = getattr(m, "class_params", None)
    if params is None:
        raise ValueError("no class parameters supplied")
    rng = np.random.default_rng(seed)
    x, nu, xi_t, tau = sample_boundary_covectors(m, sample_count, rng,
                                                 params.delta)

    t = root_table(m, x, nu, xi_t, tau, glancing_tol=glancing_margin)
    glancing = np.any(t.glancing, axis=0)
    use = np.all(t.big_a > 0, axis=0) & ~glancing
    real, z_fwd = t.real, t.z_forward
    del t    # the quadratics are freed before the (n, 3) covectors
    xi_s, xi_p = (root_covector(xi_t, z[:, None], nu) for z in z_fwd)
    _, product, null = normalized_product(xi_s, xi_p)
    denom_ok = use & ~null
    norm_prod = np.where(denom_ok, product, np.inf)

    n_used = int(denom_ok.sum())
    if n_used == 0:
        raise ValueError("no usable covector samples (all glancing/invalid)")
    imin = int(np.argmin(norm_prod))
    min_val = float(norm_prod[imin])
    argmin = BoundaryCovector(t=0.0, x=x[imin], tau=float(tau[imin]),
                              xi_t=xi_t[imin], nu=nu[imin])

    counts = {"hyperbolic": int(np.sum(real[0] & real[1] & denom_ok)),
              "mixed": int(np.sum(real[0] & ~real[1] & denom_ok)),
              "elliptic": int(np.sum(~real[0] & denom_ok))}

    admissible = None
    try:
        admissible = check_class_membership(m, params).admissible
    except ValueError:
        pass
    report = LopatinskiReport(min_normalized=min_val, argmin=argmin,
                              n_samples=sample_count, n_used=n_used,
                              n_glancing_skipped=int(glancing.sum()),
                              region_counts=counts, admissible=admissible)
    if admissible and not report.positive:
        raise LopatinskiError(
            f"Lopatinski product vanished ({min_val}) for an admissible medium")
    return report


# ---------------------------------------------------------------------------
# residue matrices
# ---------------------------------------------------------------------------

def _analytic_projector(xi):
    xx = adot(xi, xi)
    if abs(xx) < 1e-14 * np.sum(np.abs(xi) ** 2):
        raise SingularResidueError("xi . xi = 0: analytic projector undefined")
    return np.outer(xi, xi) / xx


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


def residue_matrices(m, gamma):
    roots = char_roots(m, gamma)
    z_s, z_p = roots.s.z_forward, roots.p.z_forward
    scale = max(abs(z_s), abs(z_p), 1e-30)
    if abs(z_s - z_p) < 1e-12 * scale:
        raise SingularResidueError("coinciding S and P roots")
    if abs(roots.xi_dot) < 1e-12 * max(np.linalg.norm(roots.s.xi_forward) ** 2,
                                       np.linalg.norm(roots.p.xi_forward) ** 2):
        raise SingularResidueError("xi_S . xi_P = 0: Lopatinski degeneracy")
    pi_s = _analytic_projector(roots.s.xi_forward)
    pi_p = _analytic_projector(roots.p.xi_forward)
    eye = np.eye(3, dtype=complex)
    a0 = (eye - pi_s) / roots.s.c_forward + pi_p / roots.p.c_forward
    a1 = z_s * (eye - pi_s) / roots.s.c_forward + z_p * pi_p / roots.p.c_forward
    a0_inv = np.linalg.inv(a0)
    return ResidueData(a0=a0, a1=a1, a0_inv=a0_inv,
                       cond_a0=float(np.linalg.cond(a0)), roots=roots)


@dataclass
class QuadratureResult:
    a0: np.ndarray
    a1: np.ndarray
    center: complex
    radius: float
    nodes: int
    windings: dict


def residue_quadrature(m, gamma, nodes=256):
    """Contour-integral evaluation of the residue matrices.

    Trapezoidal rule on a circle enclosing exactly the selected roots; the
    matrix inverse of the expanded-form principal symbol is taken numerically
    at each node, independent of the closed-form route.  Winding numbers of
    all four roots are evaluated from the same quadrature and must certify
    the selection, otherwise ContourError is raised.
    """
    roots = char_roots(m, gamma)
    z_s, z_p = roots.s.z_forward, roots.p.z_forward
    rejected = [roots.s.z_backward, roots.p.z_backward]
    center = 0.5 * (z_s + z_p)
    rmax = max(abs(z_s - center), abs(z_p - center))
    d_min = min(abs(z - center) for z in rejected)
    if d_min <= rmax * (1.0 + 1e-9):
        raise ContourError("rejected root inside the minimal enclosing circle")
    # geometric mean balances the inner and outer trapezoid decay rates
    radius = 0.5 * d_min if rmax == 0.0 else np.sqrt(rmax * d_min)

    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    z = center + radius * ring

    xi = gamma.xi_t[None, :].astype(complex) - z[:, None] * gamma.nu[None, :]
    p_inv = np.linalg.inv(principal_symbol_matrix(m, gamma.x, gamma.tau, xi))

    weight = (radius / nodes) * ring
    a0 = np.einsum("n,nij->ij", weight, p_inv)
    a1 = np.einsum("n,n,nij->ij", weight, z, p_inv)

    windings = {}
    for label, root, expect in (("S_forward", z_s, 1.0), ("P_forward", z_p, 1.0),
                                ("S_backward", rejected[0], 0.0),
                                ("P_backward", rejected[1], 0.0)):
        w = np.sum(weight / (z - root))
        windings[label] = complex(w)
        if abs(w - expect) > 1e-2:
            raise ContourError(
                f"winding number of {label} root is {w:.3f}, expected {expect}")
    return QuadratureResult(a0=a0, a1=a1, center=complex(center),
                            radius=float(radius), nodes=nodes,
                            windings=windings)


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


def dn_symbol(m, gamma):
    residue = residue_matrices(m, gamma)
    roots = residue.roots
    xi_s = roots.s.xi_forward
    xi_p = roots.p.xi_forward

    s_s = traction_symbol(m, gamma.x, xi_s)
    s_p = traction_symbol(m, gamma.x, xi_p)
    sp_xip = s_p @ xi_p
    cols = []
    for j in range(3):
        e = np.zeros(3, dtype=complex)
        e[j] = 1.0
        alpha = adot(xi_s, e) / roots.xi_dot
        w = e - alpha * xi_p
        cols.append(alpha * sp_xip + s_s @ w)
    route_e = np.stack(cols, axis=-1)

    s_t = traction_symbol(m, gamma.x, gamma.xi_t).astype(complex)
    s_nu = traction_normal_derivative(m, gamma.x).astype(complex)
    u_prime = residue.a1 @ residue.a0_inv
    route_r = s_t + NORMAL_DERIVATIVE_SIGN * s_nu @ u_prime

    denom = max(np.linalg.norm(route_e), np.linalg.norm(route_r), 1e-300)
    rel = float(np.linalg.norm(route_e - route_r) / denom)
    return DnSymbol(matrix=route_e, route_r=route_r, rel_residual=rel,
                    roots=roots)


# ---------------------------------------------------------------------------
# companion first-order reduction
# ---------------------------------------------------------------------------

def _kernel_basis(xi, mode):
    """Orthonormal real basis of ker p at a real characteristic covector xi:
    the line of xi for P, the plane {a : a . xi = 0} for S."""
    if mode == "P":
        return [xi / np.linalg.norm(xi)]
    k = int(np.argmin(np.abs(xi)))
    e = np.zeros(3)
    e[k] = 1.0
    v1 = np.cross(xi, e)
    v1 /= np.linalg.norm(v1)
    v2 = np.cross(xi, v1)
    v2 /= np.linalg.norm(v2)
    return [v1, v2]


@dataclass
class CompanionReport:
    """Diagnostics of the 6x6 companion symbol at a boundary covector."""

    eta_norm: float
    identity_residual: float
    eigenvalue_error: float
    kernel_ok: bool
    kernel_dims: dict
    g: np.ndarray


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
    eta = e_symbol(gamma)
    if eta <= 0.0:
        raise FrameDegenerateError("tangential frequency vanishes")

    # p(z) at z = 0, 1, -1
    p_0, p_plus, p_minus = principal_symbol_matrix(
        m, gamma.x, gamma.tau,
        gamma.xi_t - np.array([[0.0], [1.0], [-1.0]]) * gamma.nu)
    c0 = p_0
    c1 = 0.5 * (p_plus - p_minus)
    c2 = 0.5 * (p_plus + p_minus) - p_0
    p1 = np.linalg.solve(c2, c1)
    p2 = np.linalg.solve(c2, c0)

    eye = np.eye(3)
    zero = np.zeros((3, 3))
    g = np.block([[zero, eta * eye], [-p2 / eta, -p1]])
    gp = np.block([[-p1, -eta * eye], [p2 / eta, zero]])

    roots = char_roots(m, gamma)
    all_roots = [roots.s.z_forward, roots.s.z_forward,
                 roots.s.z_backward, roots.s.z_backward,
                 roots.p.z_forward, roots.p.z_backward]

    # the residual is a maximum, so the order of the distinct roots is moot
    probes = [zeta] if zeta is not None else [*set(all_roots), 0.7 * eta]
    identity_residual = 0.0
    eye6 = np.eye(6, dtype=complex)
    for z in probes:
        pn = (z * z * np.eye(3, dtype=complex) + z * p1.astype(complex)
              + p2.astype(complex))
        lhs = (z * eye6 - gp.astype(complex)) @ (z * eye6 - g.astype(complex))
        rhs = np.block([[pn, np.zeros((3, 3))], [np.zeros((3, 3)), pn]])
        scale = max(np.linalg.norm(rhs), 1.0)
        identity_residual = max(identity_residual,
                                float(np.linalg.norm(lhs - rhs) / scale))

    eigs = np.linalg.eigvals(g)
    remaining = list(eigs)
    worst = 0.0
    for z in all_roots:
        k = int(np.argmin([abs(w - z) for w in remaining]))
        worst = max(worst, abs(remaining.pop(k) - z))
    eig_scale = max(1.0, max(abs(z) for z in all_roots))
    eigenvalue_error = float(worst / eig_scale)

    kernel_ok = True
    kernel_dims = {}
    for mode_roots in (roots.s, roots.p):
        if not mode_roots.real:
            continue
        for tag, z, xi in ((f"{mode_roots.mode}+", mode_roots.z_forward,
                            mode_roots.xi_forward),
                           (f"{mode_roots.mode}-", mode_roots.z_backward,
                            mode_roots.xi_backward)):
            zr = z.real
            basis = _kernel_basis(xi.real, mode_roots.mode)
            cand = np.stack([np.concatenate([eta * a, zr * a]) for a in basis],
                            axis=-1)
            q_cand, _ = np.linalg.qr(cand)
            mat = zr * np.eye(6) - g
            _, svals, vh = np.linalg.svd(mat)
            tol = 1e-8 * svals[0]
            null = vh[svals < tol].conj().T
            kernel_dims[tag] = null.shape[1]
            if null.shape[1] != len(basis):
                kernel_ok = False
                continue
            q_null, _ = np.linalg.qr(null)
            gap = np.linalg.norm(q_cand @ q_cand.conj().T
                                 - q_null @ q_null.conj().T)
            if gap > 1e-8:
                kernel_ok = False

    return CompanionReport(eta_norm=eta, identity_residual=identity_residual,
                           eigenvalue_error=eigenvalue_error,
                           kernel_ok=kernel_ok, kernel_dims=kernel_dims, g=g)
