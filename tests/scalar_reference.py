"""Frozen scalar references for the batched boundary-symbol kernel.

These are the one-covector-at-a-time bodies that ``residue_batch``,
``quadrature_batch``, ``dn_batch``, ``companion_batch`` and ``frame_batch``
replaced, kept verbatim (with the symbol and traction helpers they called)
so that the differential test in ``test_symbol_kernel.py`` compares the
kernel against the code it replaces.  ``lopatinski_margin`` and
``sample_boundary_covectors`` are the one-pass scan and its sampler, with
numpy's sums and norms, that the block-streamed scan replaced.
``root_table`` is the batched root evaluation both of them read, before
the roots moved into the kernel's root core.

``metric_bilinear``, ``metric_inv``, ``metric_inv_grad`` and
``principal_symbol`` are scalar views that ``elastoray.symbols`` once
exported and only the tests called.  With ``principal_symbol_matrix`` and
``traction_normal_derivative`` they are the scalar routes that the tests
check the batched kernel, ``engine.Hamilton`` and
``principal_symbol_batch`` against.  ``projector_symbol_batch`` is the
projector-form body of ``principal_symbol_batch`` that the expanded form
built from the kernel's mode form replaced.
"""

from dataclasses import dataclass

import numpy as np

from elastoray.boundary import (NORMAL_DERIVATIVE_SIGN, BoundaryCovector,
                                CharRoots, CompanionReport, DnSymbol,
                                LopatinskiReport, ModeRoots, QuadratureResult,
                                ResidueData, forward_roots, mode_quadratics,
                                normalized_product, principal_symbol_batch)
from elastoray.engine import Hamilton
from elastoray.errors import (ContourError, DegenerateDirectionError,
                              FrameConditionError, FrameDegenerateError,
                              GlancingError, LopatinskiError,
                              NotOnBoundaryError, OutOfDomainError,
                              SingularResidueError)
from elastoray.medium import check_class_membership
from elastoray.polarization import COND_LIMIT
from elastoray.symbols import MODES, adot


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be 'S' or 'P', got {mode!r}")


def _require_in_domain(m, x):
    if not np.all(m.domain.contains(x)):
        raise OutOfDomainError(f"point {np.asarray(x)!r} outside the closed "
                               "domain")


def metric_bilinear(m, mode, x, eta, zeta):
    """Polarization of the dual metric: (a eta.zeta + R eta.zeta) / rho.
    Broadcasts over leading axes of ``x``, ``eta`` and ``zeta``."""
    _check_mode(mode)
    a = m.mu(x) if mode == "S" else m.lam(x) + 2.0 * m.mu(x)
    r, rho = m.stress.matrix(x), m.rho(x)
    rz = np.einsum("...ij,...j->...i", r, zeta)
    return (a * adot(eta, zeta) + adot(eta, rz)) / rho


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


def principal_symbol(m, x, tau, xi, batch=principal_symbol_batch):
    """Principal symbol of the operator and its cofactor-type partner.

    Returns (p, p_tilde, q_S, q_P) where q_mode = rho (tau^2 - g_mode(x, xi)),
    p = q_S (Id - pi) + q_P pi, p_tilde = q_P (Id - pi) + q_S pi, and
    pi = (xi (x) xi) / (xi . xi).  They satisfy p_tilde p = q_S q_P Id and
    det p = q_S^2 q_P.  Raises for xi . xi = 0 (pi is undefined there).
    A batch of one of ``batch``: ``principal_symbol_batch``, or the frozen
    ``projector_symbol_batch``.
    """
    _require_in_domain(m, x)
    batch = batch(m, np.asarray(x, dtype=np.float64)[None],
                  np.array([tau]), np.asarray(xi)[None])
    return tuple(v[0] for v in batch)


def projector_symbol_batch(m, x, tau, xi):
    """Vectorized principal symbol over a batch of cotangent points, in
    projector form: p = q_S (Id - pi) + q_P pi, p_tilde = q_P (Id - pi) +
    q_S pi, pi = (xi (x) xi) / (xi . xi).

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
    q_s, q_p = (rho * tau ** 2 - a * xx - rxx
                for a in (m.mu(x), m.lam(x) + 2.0 * m.mu(x)))
    eye = np.eye(3)
    pi = xi[..., :, None] * xi[..., None, :] / xx[..., None, None]
    p = q_s[..., None, None] * (eye - pi) + q_p[..., None, None] * pi
    p_tilde = q_p[..., None, None] * (eye - pi) + q_s[..., None, None] * pi
    return p, p_tilde, q_s, q_p


def principal_symbol_matrix(m, x, tau, xi):
    """Principal symbol in expanded polynomial form (no projector).

    p = rho tau^2 Id - (lambda + mu) xi (x) xi - (mu xi.xi + R xi.xi) Id.
    Defined for every complex covector, including analytic null directions;
    used as the independent route for contour quadrature checks.  Broadcasts
    over leading axes of ``x``, ``tau`` and ``xi`` (shape (..., 3)).
    """
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi)
    lam = m.lam(x)
    mu = m.mu(x)
    rho = m.rho(x)
    r = m.stress.matrix(x)
    rxx = np.einsum("...i,...ij,...j->...", xi, r, xi)
    eye = np.eye(3, dtype=np.result_type(xi, float))
    diag = rho * tau ** 2 - mu * adot(xi, xi) - rxx
    return (diag[..., None, None] * eye
            - np.asarray(lam + mu)[..., None, None]
            * xi[..., :, None] * xi[..., None, :])


def _boundary_fields(m, x, what):
    """Unit normal and lambda, mu, R at a boundary point; raises off it."""
    x = np.asarray(x, dtype=np.float64)
    if not m.domain.on_boundary(x):
        raise NotOnBoundaryError(f"{what} needs a boundary point, |phi| = "
                                 f"{abs(float(m.domain.phi(x))):.2e}")
    return m.domain.normal(x), m.lam(x), m.mu(x), m.stress.matrix(x)


def traction_symbol(m, x, xi):
    """Principal symbol of the traction operator at a boundary point.

    s(x, xi) = lambda (nu (x) xi) + mu (xi (x) nu) + mu (xi.nu) Id
               + (R xi . nu) Id,
    with nu the outward unit normal.  Analytic in xi.
    """
    nu, lam, mu, r = _boundary_fields(m, x, "traction symbol")
    xi = np.asarray(xi)
    eye = np.eye(3, dtype=np.result_type(xi, float))
    return (lam * np.outer(nu, xi) + mu * np.outer(xi, nu)
            + (mu * adot(xi, nu) + adot(r @ xi, nu)) * eye)


def traction_normal_derivative(m, x):
    """Derivative of the traction symbol along the normal covector coordinate.

    Equals (lambda + mu) (nu (x) nu) + (mu + R nu . nu) Id; elliptic for
    admissible media (eigenvalues lambda + 2 mu + R nu.nu and mu + R nu.nu).
    """
    nu, lam, mu, r = _boundary_fields(m, x, "normal traction derivative")
    return ((lam + mu) * np.outer(nu, nu)
            + (mu + adot(nu, r @ nu)) * np.eye(3))


def e_symbol(gamma):
    """Tangential frequency weight e(gamma) = sqrt(tau^2 + |xi_t|^2)."""
    return float(np.sqrt(gamma.tau ** 2 + np.dot(gamma.xi_t, gamma.xi_t)))


@dataclass
class RootTable:
    """Both modes' roots at a batch of covectors, mode on a leading (S, P)
    axis; A and Bh give the root derivative 2 rho (Bh - A z)."""

    z_forward: np.ndarray
    z_backward: np.ndarray
    real: np.ndarray
    glancing: np.ndarray
    d4: np.ndarray
    big_a: np.ndarray
    bh: np.ndarray


def root_table(m, x, nu, xi_t, tau, glancing_tol=1e-10):
    """RootTable at covectors batched over leading axes, from one
    ``mode_quadratics`` and one ``forward_roots`` call.  A mode is glancing
    where |Bh^2 - A C| < glancing_tol * scale2."""
    big_a, bh, c, scale2 = mode_quadratics(m, x, nu, xi_t, tau)
    z_fwd, z_bwd, real, d4 = forward_roots(big_a, bh, c, tau)
    return RootTable(z_forward=z_fwd, z_backward=z_bwd, real=real,
                     glancing=np.abs(d4) < glancing_tol * scale2, d4=d4,
                     big_a=big_a, bh=bh)


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
            raise GlancingError(f"mode {mode} is glancing at this covector",
                                discriminant=float(t.d4[k]))
        # real roots stay real scalars, so their covectors are real arrays
        zs = [z.real.item() if t.real[k] else z.item()
              for z in (t.z_forward[k], t.z_backward[k])]
        c_z = [complex(2.0 * rho * (float(t.bh[k]) - float(t.big_a[k]) * z))
               for z in zs]
        xi_z = [gamma.xi_t - z * gamma.nu for z in zs]
        modes.append(ModeRoots(mode, bool(t.real[k]), *map(complex, zs),
                               *c_z, *xi_z, float(t.d4[k])))
    s_roots, p_roots = modes
    dot, product, null = normalized_product(s_roots.xi_forward,
                                            p_roots.xi_forward)
    if null:
        raise SingularResidueError("analytically null selected covector")
    return CharRoots(s=s_roots, p=p_roots, xi_dot=complex(dot),
                     normalized_product=float(product))


def _analytic_projector(xi):
    xx = adot(xi, xi)
    if abs(xx) < 1e-14 * np.sum(np.abs(xi) ** 2):
        raise SingularResidueError("xi . xi = 0: analytic projector undefined")
    return np.outer(xi, xi) / xx


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


def dn_symbol(m, gamma):
    residue = residue_matrices(m, gamma)
    roots = residue.roots
    xi_s = roots.s.xi_forward
    xi_p = roots.p.xi_forward

    # a = (a.xi_S / xi_S.xi_P) xi_P + w with w.xi_S = 0, as a rank-one update
    s_s = traction_symbol(m, gamma.x, xi_s)
    s_p = traction_symbol(m, gamma.x, xi_p)
    route_e = s_s + np.outer((s_p - s_s) @ xi_p, xi_s) / roots.xi_dot

    s_t = traction_symbol(m, gamma.x, gamma.xi_t).astype(complex)
    s_nu = traction_normal_derivative(m, gamma.x).astype(complex)
    u_prime = residue.a1 @ residue.a0_inv
    route_r = s_t + NORMAL_DERIVATIVE_SIGN * s_nu @ u_prime

    denom = max(np.linalg.norm(route_e), np.linalg.norm(route_r), 1e-300)
    rel = float(np.linalg.norm(route_e - route_r) / denom)
    return DnSymbol(matrix=route_e, route_r=route_r, rel_residual=rel,
                    roots=roots)


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
    c2 = (m.lam(pts) + 2.0 * m.mu(pts)) * (1.0 + 0.5) / m.rho(pts)
    top = max(3.0 * float(np.sqrt(c2.max())), 2.0 * delta)
    u = np.exp(rng.uniform(np.log(delta), np.log(top), n))
    tau = u * rng.choice([-1.0, 1.0], n)
    return x, nu, xi_t, tau


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
    xi_s, xi_p = (xi_t - z[:, None] * nu for z in z_fwd)
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

    memo = m._admissible    # the class check runs once per medium and params
    if params not in memo:
        try:
            memo[params] = check_class_membership(m, params).admissible
        except ValueError:
            memo[params] = None
    admissible = memo[params]
    report = LopatinskiReport(min_normalized=min_val, argmin=argmin,
                              n_samples=sample_count, n_used=n_used,
                              n_glancing_skipped=int(glancing.sum()),
                              region_counts=counts, admissible=admissible)
    if admissible and not report.positive:
        raise LopatinskiError(
            f"Lopatinski product vanished ({min_val}) for an admissible medium")
    return report
