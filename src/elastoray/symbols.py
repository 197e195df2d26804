"""Scalar mode metrics and matrix symbols of the elastic operator.

Conventions: the analytic (bilinear, non-Hermitian) dot product a . b =
sum_i a_i b_i is used throughout, so every formula extends holomorphically to
complex covectors.  Mode labels are the strings "S" and "P".
"""

from __future__ import annotations

import numpy as np

from .engine import Hamilton
from .errors import (DegenerateDirectionError, NotOnBoundaryError,
                     OutOfDomainError)

__all__ = [
    "adot",
    "metric_inv",
    "metric_inv_grad",
    "metric_bilinear",
    "principal_symbol",
    "principal_symbol_matrix",
    "principal_symbol_batch",
    "traction_symbol",
    "traction_normal_derivative",
]

MODES = ("S", "P")


def adot(a, b):
    """Analytic dot product sum_i a_i b_i (no conjugation), bitwise
    ``(a * b).sum(axis=-1)``.

    Up to three terms are added one by one from +0.0, the order in which
    numpy sums them, without the cost of a reduction; the +0.0 start keeps
    numpy's sign of zero.  Longer axes go through numpy's sum.
    """
    p = np.asarray(a) * np.asarray(b)
    if p.shape[-1] > 3:
        return p.sum(axis=-1)
    out = 0.0 + p[..., 0]
    for k in range(1, p.shape[-1]):
        out += p[..., k]
    return out


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be 'S' or 'P', got {mode!r}")


def _require_in_domain(m, x):
    if not np.all(m.domain.contains(x)):
        raise OutOfDomainError(f"point {np.asarray(x)!r} outside the closed domain")


def _mode_coeff(m, mode, x):
    """Stiffness coefficient of the mode: mu for S, lambda + 2 mu for P."""
    if mode == "S":
        return m.mu(x)
    return m.lam(x) + 2.0 * m.mu(x)


def _mode_form(a, r, rho, eta, zeta):
    """(a eta.zeta + R eta.zeta) / rho from evaluated fields; ``a`` may carry
    a leading mode axis."""
    rz = np.einsum("...ij,...j->...i", r, zeta)
    return (a * adot(eta, zeta) + adot(eta, rz)) / rho


def metric_bilinear(m, mode, x, eta, zeta):
    """Polarization of the dual metric: (a eta.zeta + R eta.zeta) / rho."""
    _check_mode(mode)
    return _mode_form(_mode_coeff(m, mode, x), m.stress.matrix(x), m.rho(x),
                      eta, zeta)


def metric_inv(m, mode, x, xi):
    """Dual mode metric g_mode(x, xi) = B(xi, xi), analytic in xi.

    Vanishes iff xi = 0 for admissible media.  ``x`` must lie in the closed
    domain.
    """
    _require_in_domain(m, x)
    return metric_bilinear(m, mode, np.asarray(x, dtype=np.float64), xi, xi)


def metric_inv_grad(m, mode, x, xi):
    """Value of the dual metric plus its gradients in x and in xi.

    Real covectors only; ``x`` must lie in the closed domain.  Returns
    (value, d/dx, d/dxi).  A batch of one of the fused ``engine.Hamilton``
    kernel, whose field is (-d/dxi, d/dx).
    """
    _check_mode(mode)
    _require_in_domain(m, x)
    y = np.concatenate([np.asarray(x, dtype=np.float64),
                        np.asarray(xi, dtype=np.float64)])[None]
    f, g = Hamilton(m, np.array([mode == "P"]))(y)
    return g[0], f[0, 3:], -f[0, :3]


def principal_symbol(m, x, tau, xi):
    """Principal symbol of the operator and its cofactor-type partner.

    Returns (p, p_tilde, q_S, q_P) where q_mode = rho (tau^2 - g_mode(x, xi)),
    p = q_S (Id - pi) + q_P pi, p_tilde = q_P (Id - pi) + q_S pi, and
    pi = (xi (x) xi) / (xi . xi).  They satisfy p_tilde p = q_S q_P Id and
    det p = q_S^2 q_P.  Raises for xi . xi = 0 (pi is undefined there).
    A batch of one of ``principal_symbol_batch``.
    """
    _require_in_domain(m, x)
    batch = principal_symbol_batch(m, np.asarray(x, dtype=np.float64)[None],
                                   np.array([tau]), np.asarray(xi)[None])
    return tuple(v[0] for v in batch)


def principal_symbol_matrix(m, x, tau, xi):
    """Principal symbol in expanded polynomial form (no projector).

    p = rho tau^2 Id - (lambda + mu) xi (x) xi - (mu xi.xi + R xi.xi) Id.
    Defined for every complex covector, including analytic null directions;
    used as the independent route for contour quadrature checks.  Broadcasts
    over leading axes of ``x``, ``tau`` and ``xi`` (shape (..., 3)).
    """
    return _symbol_matrix(_fields(m, np.asarray(x, dtype=np.float64)), tau,
                          np.asarray(xi))


def _fields(m, x):
    """lambda, mu, rho and R at points x."""
    return m.lam(x), m.mu(x), m.rho(x), m.stress.matrix(x)


def _symbol_matrix(fields, tau, xi):
    """``principal_symbol_matrix`` from evaluated fields."""
    lam, mu, rho, r = fields
    diag = rho * tau * tau - mu * adot(xi, xi) - adot(xi, _apply(r, xi))
    return _mat(diag) * np.eye(3) - _mat(lam + mu) * _outer(xi, xi)


def principal_symbol_batch(m, x, tau, xi):
    """Vectorized principal symbol over a batch of cotangent points.

    ``x`` and ``xi`` have shape (n, 3), ``tau`` shape (n,); ``xi`` may be
    complex (analytic continuation).  Returns stacked (p, p_tilde, q_S, q_P)
    with matrix shape (n, 3, 3).
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi)
    xi = xi.astype(np.result_type(xi, np.float64))
    tau = np.asarray(tau, dtype=np.float64)
    xx = np.sum(xi * xi, axis=-1)
    if np.any(np.abs(xx) < 1e-300):
        raise DegenerateDirectionError("batch contains xi . xi = 0")
    rho = m.rho(x)
    r = m.stress.matrix(x)
    rxx = np.einsum("...i,...ij,...j->...", xi, r, xi)
    q_s, q_p = (rho * tau ** 2 - _mode_coeff(m, mode, x) * xx - rxx
                for mode in MODES)
    eye = np.eye(3)
    pi = xi[..., :, None] * xi[..., None, :] / xx[..., None, None]
    p = q_s[..., None, None] * (eye - pi) + q_p[..., None, None] * pi
    p_tilde = q_p[..., None, None] * (eye - pi) + q_s[..., None, None] * pi
    return p, p_tilde, q_s, q_p


def _mat(a):
    """``a`` with two trailing axes, to scale a stack of matrices."""
    return np.asarray(a)[..., None, None]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _apply(r, xi):
    """Matrices r applied to vectors xi over leading axes, column by column."""
    return (r[..., 0] * xi[..., :1] + r[..., 1] * xi[..., 1:2]
            + r[..., 2] * xi[..., 2:])


def _off_boundary(m, x, what):
    """{index: NotOnBoundaryError} of the points of x (shape (..., 3),
    flattened) that are off the boundary."""
    on = np.ravel(m.domain.on_boundary(x))
    if on.all():
        return {}
    phi = np.ravel(np.abs(m.domain.phi(x)))
    return {i: NotOnBoundaryError(f"{what} needs a boundary point, "
                                  f"|phi| = {phi[i]:.2e}")
            for i in np.flatnonzero(~on)}


def _boundary_fields(m, x, what):
    """Unit normal and lambda, mu, R at boundary points; raises for the first
    point off the boundary."""
    x = np.asarray(x, dtype=np.float64)
    off = _off_boundary(m, x, what)
    if off:
        raise next(iter(off.values()))
    return m.domain.normal(x), m.lam(x), m.mu(x), m.stress.matrix(x)


def traction_symbol(m, x, xi):
    """Principal symbol of the traction operator at a boundary point.

    s(x, xi) = lambda (nu (x) xi) + mu (xi (x) nu) + mu (xi.nu) Id
               + (R xi . nu) Id,
    with nu the outward unit normal.  Analytic in xi.  Broadcasts over
    leading axes of ``x`` and ``xi``.
    """
    return _traction(*_boundary_fields(m, x, "traction symbol"),
                     np.asarray(xi))


def _traction(nu, lam, mu, r, xi):
    """``traction_symbol`` from the evaluated normal and fields."""
    return (_mat(lam) * _outer(nu, xi) + _mat(mu) * _outer(xi, nu)
            + _mat(mu * adot(xi, nu) + adot(_apply(r, xi), nu)) * np.eye(3))


def traction_normal_derivative(m, x):
    """Derivative of the traction symbol along the normal covector coordinate.

    Equals s(x, nu) = (lambda + mu) (nu (x) nu) + (mu + R nu . nu) Id, as s is
    linear in xi; elliptic for admissible media (eigenvalues
    lambda + 2 mu + R nu.nu and mu + R nu.nu).
    """
    nu, lam, mu, r = _boundary_fields(m, x, "normal traction derivative")
    return _traction(nu, lam, mu, r, nu)
