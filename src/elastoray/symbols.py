"""Shared symbol helpers: the analytic dot product and the traction symbol.

Conventions: the analytic (bilinear, non-Hermitian) dot product a . b =
sum_i a_i b_i is used throughout, so every formula extends holomorphically to
complex covectors.  Mode labels are the strings "S" and "P".  The mode
coefficients and form, the root quadratics and the principal symbol live
with the boundary kernel (``boundary``), the ray Hamiltonian in ``engine``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotOnBoundaryError

__all__ = [
    "adot",
    "traction_symbol",
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


def traction_symbol(m, x, xi):
    """Principal symbol of the traction operator at a boundary point.

    s(x, xi) = lambda (nu (x) xi) + mu (xi (x) nu) + mu (xi.nu) Id
               + (R xi . nu) Id,
    with nu the outward unit normal.  Analytic in xi.  Broadcasts over
    leading axes of ``x`` and ``xi``; raises for the first point off the
    boundary.
    """
    x = np.asarray(x, dtype=np.float64)
    off = _off_boundary(m, x, "traction symbol")
    if off:
        raise next(iter(off.values()))
    return _traction(m.domain.normal(x), m.lam(x), m.mu(x),
                     m.stress.matrix(x), np.asarray(xi))


def _traction(nu, lam, mu, r, xi):
    """``traction_symbol`` from the evaluated normal and fields."""
    return (_mat(lam) * _outer(nu, xi) + _mat(mu) * _outer(xi, nu)
            + _mat(mu * adot(xi, nu) + adot(_apply(r, xi), nu)) * np.eye(3))
