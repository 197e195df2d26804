"""Material coefficients, residual stress fields, and domain geometry.

A medium consists of scalar Lame/density fields (rho, lambda, mu), a symmetric
divergence-free residual stress field R, and a bounded domain given by a level
set.  All field evaluations broadcast over a leading batch axis: ``x`` may be
a single point of shape (3,) or an array of shape (..., 3).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MediumFormatError, UnsupportedPotentialError

__all__ = [
    "Poly3",
    "ScalarField",
    "ConstantField",
    "PolynomialField",
    "GaussianBumpField",
    "scalar_field",
    "ResidualStressField",
    "ConstantStress",
    "PotentialStress",
    "stress_from_potential",
    "Domain",
    "Medium",
    "ClassParams",
    "ClassReport",
    "check_class_membership",
    "medium_from_dict",
    "medium_to_dict",
    "load_medium",
    "save_medium",
    "medium_digest",
]

MAX_POLY_DEGREE = 4
# |div R| above this on the class-membership grid fails the divergence check
DIVERGENCE_TOL = 1e-10
# points per axis of the grid on which a new Medium checks rho, lambda, mu > 0
POSITIVITY_GRID = 7


# ---------------------------------------------------------------------------
# trivariate polynomials
# ---------------------------------------------------------------------------

class Poly3:
    """Trivariate polynomial with broadcast evaluation and exact differentiation.

    Terms are stored as an (K, 3) integer exponent array and a (K,) coefficient
    array, sorted by exponent for deterministic serialization.  A term key
    is a sequence of three non-negative integer exponents; any other key
    raises MediumFormatError.
    """

    __slots__ = ("exps", "coefs")

    def __init__(self, terms):
        items = [(_exponents(k), float(c)) for k, c in dict(terms).items()
                 if c != 0.0]
        items.sort(key=lambda kv: kv[0])
        if items:
            self.exps = np.array([k for k, _ in items], dtype=np.int64)
            self.coefs = np.array([c for _, c in items], dtype=np.float64)
        else:
            self.exps = np.zeros((0, 3), dtype=np.int64)
            self.coefs = np.zeros(0, dtype=np.float64)
        self.exps.setflags(write=False)
        self.coefs.setflags(write=False)

    @property
    def degree(self):
        if len(self.coefs) == 0:
            return 0
        return int(self.exps.sum(axis=1).max())

    def __call__(self, x):
        return _MonomialTable([self])(x)[..., 0]

    def diff(self, axis):
        terms = {}
        for (i, j, k), c in zip(map(tuple, self.exps), self.coefs):
            e = [i, j, k]
            if e[axis] == 0:
                continue
            c2 = c * e[axis]
            e[axis] -= 1
            key = tuple(e)
            terms[key] = terms.get(key, 0.0) + c2
        return Poly3(terms)

    def to_dict(self):
        return {",".join(map(str, k)): c for k, c in zip(map(tuple, self.exps),
                                                         self.coefs.tolist())}

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``: keys "i,j,k" map to coefficients."""
        try:
            return cls({tuple(map(int, k.split(","))): c for k, c in d.items()})
        except ValueError as exc:
            raise MediumFormatError(f"bad polynomial term: {exc}") from None


def _exponents(key):
    """The exponent triple of a Poly3 term key."""
    try:
        e = tuple(operator.index(v) for v in key)
    except TypeError:
        e = ()
    if len(e) != 3 or min(e) < 0:
        raise MediumFormatError(f"polynomial term key {key!r} is not three "
                                "non-negative integer exponents")
    return e


class _MonomialTable:
    """Several trivariate polynomials evaluated from one table of monomials.

    Column c of ``table(x)`` is sum_k coefs[k, c] x^exps[k], with shape
    (..., C).  Each monomial is built once by repeated multiplication and the
    terms are accumulated one after another, so the value at a point does not
    depend on the other points of the batch.
    """

    def __init__(self, polys):
        keys = sorted({tuple(e) for p in polys for e in p.exps.tolist()})
        index = {k: i for i, k in enumerate(keys)}
        self.exps = keys
        self.coefs = np.zeros((len(keys), len(polys)))
        for col, p in enumerate(polys):
            for e, c in zip(p.exps.tolist(), p.coefs):
                self.coefs[index[tuple(e)], col] += c

    def columns(self, cols):
        """The table restricted to some columns, dropping unused monomials."""
        sub = object.__new__(_MonomialTable)
        coefs = self.coefs[:, cols]
        used = np.any(coefs != 0.0, axis=1)
        sub.exps = [e for e, u in zip(self.exps, used) if u]
        sub.coefs = coefs[used]
        return sub

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, 3)
        out = np.zeros((len(flat), self.coefs.shape[1]))
        powers = [[None, flat[:, a]] for a in range(3)]   # powers[a][e]
        for e, coef in zip(self.exps, self.coefs):
            mono = None
            for a in range(3):
                if e[a]:
                    p = powers[a]
                    while len(p) <= e[a]:
                        p.append(p[-1] * flat[:, a])
                    mono = p[e[a]] if mono is None else mono * p[e[a]]
            out += coef if mono is None else mono[:, None] * coef
        return out.reshape(x.shape[:-1] + (self.coefs.shape[1],))


# ---------------------------------------------------------------------------
# scalar coefficient fields
# ---------------------------------------------------------------------------

class ScalarField:
    """Scalar coefficient with analytic gradient."""

    family = "abstract"

    def __call__(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def value_and_gradient(self, x):
        return self(x), self.gradient(x)

    def to_dict(self):
        raise NotImplementedError


class ConstantField(ScalarField):
    family = "constant"

    def __init__(self, value):
        self.value = float(value)
        if not math.isfinite(self.value):
            raise MediumFormatError("constant field value must be finite")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.full(x.shape[:-1], self.value)

    def gradient(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.zeros(x.shape)

    def to_dict(self):
        return {"family": "constant", "value": self.value}


class PolynomialField(ScalarField):
    """Polynomial of total degree at most 4.

    The value and the three partials are the four columns of one monomial
    table, so a point's value does not depend on the other points of a batch.
    """

    family = "polynomial"

    def __init__(self, poly):
        if not isinstance(poly, Poly3):
            poly = Poly3(poly)
        if poly.degree > MAX_POLY_DEGREE:
            raise MediumFormatError(
                f"polynomial degree {poly.degree} exceeds {MAX_POLY_DEGREE}")
        self.poly = poly
        self._table = _MonomialTable([poly] + [poly.diff(a) for a in range(3)])

    def __call__(self, x):
        return self.value_and_gradient(x)[0]

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x):
        out = self._table(x)
        return out[..., 0], out[..., 1:]

    def to_dict(self):
        return {"family": "polynomial", "coefficients": self.poly.to_dict()}


class GaussianBumpField(ScalarField):
    """base + amplitude * exp(-|x - center|^2 / (2 width^2))."""

    family = "gaussian_bump"

    def __init__(self, base, amplitude, center=(0.0, 0.0, 0.0), width=1.0):
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.center = np.array(center, dtype=np.float64)
        self.width = float(width)
        if self.width <= 0:
            raise MediumFormatError("gaussian bump width must be positive")
        self.center.setflags(write=False)

    def _bump(self, x):
        d = np.asarray(x, dtype=np.float64) - self.center
        r2 = np.sum(d * d, axis=-1)
        return d, self.amplitude * np.exp(-r2 / (2.0 * self.width ** 2))

    def __call__(self, x):
        _, b = self._bump(x)
        return self.base + b

    def gradient(self, x):
        d, b = self._bump(x)
        return d * (-b / self.width ** 2)[..., None]

    def to_dict(self):
        return {"family": "gaussian_bump", "base": self.base,
                "amplitude": self.amplitude,
                "center": self.center.tolist(), "width": self.width}


def scalar_field(spec):
    """Build a ScalarField from its dict description."""
    if isinstance(spec, ScalarField):
        return spec
    if isinstance(spec, (int, float)):
        return ConstantField(spec)
    try:
        family = spec["family"]
    except (TypeError, KeyError) as exc:
        raise MediumFormatError(f"bad scalar field spec: {spec!r}") from exc
    if family == "constant":
        return ConstantField(spec["value"])
    if family == "polynomial":
        return PolynomialField(Poly3.from_dict(spec["coefficients"]))
    if family == "gaussian_bump":
        return GaussianBumpField(spec["base"], spec["amplitude"],
                                 spec.get("center", (0.0, 0.0, 0.0)),
                                 spec.get("width", 1.0))
    raise MediumFormatError(f"unknown scalar field family {family!r}")


# ---------------------------------------------------------------------------
# residual stress
# ---------------------------------------------------------------------------

class ResidualStressField:
    """Symmetric divergence-free 3x3 tensor field.

    ``matrix(x)`` returns R with shape (..., 3, 3); ``derivative(x)`` returns
    D with D[..., i, j, k] = dR_ij/dx_k; ``divergence(x)`` contracts the first
    index against the derivative.
    """

    kind = "abstract"

    def matrix(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def divergence(self, x):
        d = self.derivative(x)
        return np.einsum("...iji->...j", d)

    def to_dict(self):
        raise NotImplementedError


class ConstantStress(ResidualStressField):
    kind = "constant"

    def __init__(self, matrix):
        r = np.array(matrix, dtype=np.float64)
        if r.shape != (3, 3):
            raise MediumFormatError("residual stress matrix must be 3x3")
        if not np.allclose(r, r.T, atol=1e-14):
            raise MediumFormatError("residual stress matrix must be symmetric")
        self.r = 0.5 * (r + r.T)
        self.r.setflags(write=False)

    def matrix(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.broadcast_to(self.r, x.shape[:-1] + (3, 3)).copy()

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.zeros(x.shape[:-1] + (3, 3, 3))

    def to_dict(self):
        return {"kind": "constant", "matrix": self.r.tolist()}


class PotentialStress(ResidualStressField):
    """R = Hess(psi) - (Laplace psi) Id for a polynomial potential psi.

    This family is symmetric and divergence-free by construction:
    div(Hess psi) = grad(Laplace psi) cancels the second term exactly.
    ``table`` evaluates R and its derivative together as 36 columns;
    ``matrix`` and ``derivative`` are slices of it.
    """

    kind = "potential"

    def __init__(self, psi):
        if isinstance(psi, PolynomialField):
            poly = psi.poly
        elif isinstance(psi, ConstantField):
            poly = Poly3({(0, 0, 0): psi.value})
        elif isinstance(psi, Poly3):
            poly = psi
        else:
            raise UnsupportedPotentialError(
                "stress potential must be a polynomial field of degree <= 4")
        if poly.degree > MAX_POLY_DEGREE:
            raise UnsupportedPotentialError(
                f"stress potential degree {poly.degree} exceeds {MAX_POLY_DEGREE}")
        self.psi = poly
        hess = [[poly.diff(i).diff(j) for j in range(3)] for i in range(3)]
        lap_terms = {}
        for i in range(3):
            for key, c in zip(map(tuple, hess[i][i].exps), hess[i][i].coefs):
                lap_terms[key] = lap_terms.get(key, 0.0) + c
        lap = Poly3(lap_terms)
        r = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                terms = {tuple(k): c for k, c in zip(map(tuple, hess[i][j].exps),
                                                     hess[i][j].coefs)}
                if i == j:
                    for key, c in zip(map(tuple, lap.exps), lap.coefs):
                        terms[key] = terms.get(key, 0.0) - c
                r[i][j] = Poly3(terms)
        entries = [r[i][j] for i in range(3) for j in range(3)]
        entries += [r[i][j].diff(k) for i in range(3) for j in range(3)
                    for k in range(3)]
        # R in columns 0..8, dR_ij/dx_k in columns 9..35, row-major
        self.table = _MonomialTable(entries)
        self._r_table = self.table.columns(slice(0, 9))
        self._dr_table = self.table.columns(slice(9, 36))

    def matrix(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._r_table(x).reshape(x.shape[:-1] + (3, 3))

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._dr_table(x).reshape(x.shape[:-1] + (3, 3, 3))

    def to_dict(self):
        return {"kind": "potential", "coefficients": self.psi.to_dict()}


def stress_from_potential(psi):
    """Residual stress induced by a potential: Hess(psi) - (Laplace psi) Id."""
    return PotentialStress(psi)


def residual_stress(spec):
    if isinstance(spec, ResidualStressField):
        return spec
    if spec is None:
        return ConstantStress(np.zeros((3, 3)))
    try:
        kind = spec["kind"]
    except (TypeError, KeyError) as exc:
        raise MediumFormatError(f"bad residual stress spec: {spec!r}") from exc
    if kind == "constant":
        return ConstantStress(spec["matrix"])
    if kind == "potential":
        return PotentialStress(Poly3.from_dict(spec["coefficients"]))
    raise MediumFormatError(f"unknown residual stress kind {kind!r}")


# ---------------------------------------------------------------------------
# domain geometry
# ---------------------------------------------------------------------------

DOMAIN_TOL = 1e-9
BOUNDARY_TOL = 1e-10


class Domain:
    """Bounded strictly star-shaped domain {phi < 0} with smooth boundary.

    Supported level sets: the unit ball phi = |x|^2 - 1, and the axis-aligned
    ellipsoid phi = sum (x_i / a_i)^2 - 1.
    """

    def __init__(self, kind="ball", semi_axes=(1.0, 1.0, 1.0)):
        if kind not in ("ball", "ellipsoid"):
            raise MediumFormatError(f"unknown domain kind {kind!r}")
        self.kind = kind
        if kind == "ball":
            semi_axes = (1.0, 1.0, 1.0)
        self.semi_axes = np.array(semi_axes, dtype=np.float64)
        if self.semi_axes.shape != (3,) or np.any(self.semi_axes <= 0):
            raise MediumFormatError("semi-axes must be three positive numbers")
        self._inv_a2 = 1.0 / self.semi_axes ** 2
        self.semi_axes.setflags(write=False)
        self._inv_a2.setflags(write=False)

    def phi(self, x):
        # summed term by term: a point's value never depends on its batch
        x = np.asarray(x, dtype=np.float64)
        q = x * x * self._inv_a2
        return q[..., 0] + q[..., 1] + q[..., 2] - 1.0

    def grad_phi(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 2.0 * x * self._inv_a2

    def normal(self, x):
        """Outward unit normal; meaningful on (or very near) the boundary."""
        g = self.grad_phi(x)
        n = np.linalg.norm(g, axis=-1, keepdims=True)
        return g / n

    def contains(self, x):
        """In the closed domain: phi(x) <= DOMAIN_TOL."""
        return self.phi(x) <= DOMAIN_TOL

    def on_boundary(self, x):
        """On the boundary: |phi(x)| <= BOUNDARY_TOL."""
        return np.abs(self.phi(x)) <= BOUNDARY_TOL

    def radial_project(self, x):
        """Rescale x radially onto the boundary (exact for these level sets)."""
        u = np.asarray(x, dtype=np.float64)
        q = np.sum(u * u * self._inv_a2, axis=-1)
        if np.any(q <= 0):
            raise ValueError("direction must be nonzero")
        return u / np.sqrt(q)[..., None]

    def tangent_basis(self, x):
        """Deterministic orthonormal basis (e1, e2) of the tangent plane at x."""
        nu = self.normal(x)
        k = int(np.argmin(np.abs(nu)))
        e = np.zeros(3)
        e[k] = 1.0
        e1 = e - np.dot(e, nu) * nu
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nu, e1)
        return e1, e2

    def sample_boundary(self, n, rng):
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        return self.radial_project(u)

    def sample_interior(self, n, rng):
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        r = rng.random(n) ** (1.0 / 3.0)
        return self.radial_project(u) * r[:, None]

    def grid(self, resolution):
        axes = [np.linspace(-a, a, resolution) for a in self.semi_axes]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)
        return pts[self.phi(pts) <= 0.0]

    def to_dict(self):
        if self.kind == "ball":
            return {"kind": "ball"}
        return {"kind": "ellipsoid", "semi_axes": self.semi_axes.tolist()}


# ---------------------------------------------------------------------------
# medium and class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassParams:
    """Ellipticity bound L, smallness ratio eps, and time-like aperture delta."""

    L: float
    eps: float
    delta: float

    def __post_init__(self):
        if not (self.L > 0 and self.eps > 0 and self.delta > 0):
            raise MediumFormatError("class parameters must be positive")


class Medium:
    """Material data on a domain: rho, lambda, mu, and residual stress."""

    def __init__(self, rho, lam, mu, stress=None, domain=None,
                 class_params=None):
        self.rho = scalar_field(rho)
        self.lam = scalar_field(lam)
        self.mu = scalar_field(mu)
        self.stress = residual_stress(stress)
        self.domain = domain if domain is not None else Domain("ball")
        self.class_params = class_params
        self._admissible = {}   # lopatinski_margin's class checks, by params
        self._check_positivity()

    def _check_positivity(self):
        pts = self.domain.grid(POSITIVITY_GRID)
        for name, f in (("rho", self.rho), ("lambda", self.lam), ("mu", self.mu)):
            v = f(pts)
            if not np.all(np.isfinite(v)):
                raise MediumFormatError(f"{name} is not finite on the domain")
            if np.any(v <= 0):
                raise MediumFormatError(f"{name} must be positive on the domain")


@dataclass
class ClassReport:
    """Result of a class membership check, with worst-case margins.

    Margins are positive when the corresponding condition holds strictly:
      * ``lame_margin``:  L - max(lambda + 2 mu, 1/mu, 1/rho) over the grid,
      * ``stress_margin``: min(eps * mu - |R|_2) over the grid,
      * ``positivity_margin``: min(mu + lambda_min(R)) over the grid,
      * ``divergence_max``: largest |div R| component seen (should be ~0).
    """

    lame_ok: bool
    lame_margin: float
    stress_ok: bool
    stress_margin: float
    positivity_ok: bool
    positivity_margin: float
    divergence_ok: bool
    divergence_max: float
    n_points: int

    @property
    def admissible(self):
        return (self.lame_ok and self.stress_ok and self.positivity_ok
                and self.divergence_ok)

    def to_dict(self):
        return {
            "admissible": self.admissible,
            "lame_ok": self.lame_ok, "lame_margin": self.lame_margin,
            "stress_ok": self.stress_ok, "stress_margin": self.stress_margin,
            "positivity_ok": self.positivity_ok,
            "positivity_margin": self.positivity_margin,
            "divergence_ok": self.divergence_ok,
            "divergence_max": self.divergence_max,
            "n_points": self.n_points,
        }


def check_class_membership(m, params=None, grid_resolution=21):
    """Check the ellipticity, smallness, and admissibility conditions on a grid.

    The residual stress size |R| is measured in the spectral norm.  Spectral
    and Frobenius norms are equivalent up to sqrt(3) in three dimensions; the
    spectral norm is the sharp choice for the quadratic-form bounds used by
    the admissibility condition.
    """
    if grid_resolution < 5:
        raise ValueError("grid_resolution must be at least 5")
    if params is None:
        params = m.class_params
    if params is None:
        raise ValueError("no class parameters supplied")
    pts = m.domain.grid(grid_resolution)
    rho = m.rho(pts)
    mu = m.mu(pts)
    lam = m.lam(pts)
    r = m.stress.matrix(pts)
    eigs = np.linalg.eigvalsh(r)
    spec = np.abs(eigs).max(axis=-1)
    lam_min = eigs.min(axis=-1)

    worst = np.max(np.stack([lam + 2 * mu, 1.0 / mu, 1.0 / rho]))
    lame_margin = float(params.L - worst)
    stress_margin = float(np.min(params.eps * mu - spec))
    positivity_margin = float(np.min(mu + lam_min))
    div = m.stress.divergence(pts)
    divergence_max = float(np.abs(div).max()) if div.size else 0.0

    return ClassReport(
        lame_ok=lame_margin >= 0.0, lame_margin=lame_margin,
        stress_ok=stress_margin >= 0.0, stress_margin=stress_margin,
        positivity_ok=positivity_margin > 0.0,
        positivity_margin=positivity_margin,
        divergence_ok=divergence_max <= DIVERGENCE_TOL,
        divergence_max=divergence_max,
        n_points=len(pts),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _reject_nonfinite(value):
    raise MediumFormatError(f"non-finite number {value!r} in medium file")


def medium_from_dict(d):
    try:
        domain_spec = d.get("domain", {"kind": "ball"})
        domain = Domain(domain_spec.get("kind", "ball"),
                        domain_spec.get("semi_axes", (1.0, 1.0, 1.0)))
        cp = None
        if "class_params" in d:
            c = d["class_params"]
            cp = ClassParams(L=float(c["L"]), eps=float(c["eps"]),
                             delta=float(c["delta"]))
        return Medium(rho=scalar_field(d["rho"]),
                      lam=scalar_field(d["lambda"]),
                      mu=scalar_field(d["mu"]),
                      stress=residual_stress(d.get("residual_stress")),
                      domain=domain, class_params=cp)
    except MediumFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MediumFormatError(f"bad medium description: {exc}") from exc


def medium_to_dict(m):
    d = {
        "domain": m.domain.to_dict(),
        "rho": m.rho.to_dict(),
        "lambda": m.lam.to_dict(),
        "mu": m.mu.to_dict(),
        "residual_stress": m.stress.to_dict(),
    }
    if m.class_params is not None:
        d["class_params"] = {"L": m.class_params.L, "eps": m.class_params.eps,
                             "delta": m.class_params.delta}
    return d


def load_medium(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh, parse_constant=_reject_nonfinite)
        except json.JSONDecodeError as exc:
            raise MediumFormatError(f"cannot parse medium file: {exc}") from exc
    return medium_from_dict(d)


def save_medium(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(medium_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def medium_digest(m):
    """Stable hex digest of the medium description."""
    blob = json.dumps(medium_to_dict(m), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
