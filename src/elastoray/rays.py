"""Bicharacteristic tracing, lens maps, broken transport, and recovery.

Rays are integral curves of the Hamilton field of H = tau^2 - g_mode(x, xi)
in the flow parameter s, with dt/ds = 2 tau, so tau is exactly constant and
t is an exact linear function of s.  Legs are traced with an embedded
adaptive Runge-Kutta 5(4) pair whose acceptance test combines the local
error estimate with an on-shell drift monitor; boundary exits are located by
bisection on the step interpolant followed by exact-substep refinement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .boundary import (BoundaryCovector, _mode_quadratic, boundary_covector,
                       char_roots)
from .errors import (DistanceError, ElastorayError, EvanescentModeError,
                     GlancingError, GlancingExitError, MaxStepsError,
                     StepControlError)
from .polarization import muting_annihilation_check

__all__ = [
    "StepControl",
    "RayState",
    "LensMapEntry",
    "trace_leg",
    "trace_state",
    "lens_map_table",
    "incidence_covector",
    "probe_fan",
    "ReflectionResult",
    "reflect",
    "WFEvent",
    "TransportResult",
    "broken_transport",
    "DistanceResult",
    "boundary_distance",
    "RecoveryRecord",
    "RecoveryReport",
    "recover_lens_maps",
]


@dataclass(frozen=True)
class StepControl:
    """Adaptive step parameters for bicharacteristic integration.

    ``drift_tol`` bounds |tau^2 - g(x, xi)| / tau^2 along accepted steps;
    steps violating it are rejected and halved even when the embedded error
    estimate would accept them.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 100000
    drift_tol: float = 1e-9
    boundary_tol: float = 1e-12
    tangent_tol: float = 1e-6
    h_init: float | None = None
    h_max: float | None = None


DEFAULT_STEP = StepControl()

# Dormand-Prince 5(4) coefficients
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)


@dataclass(frozen=True)
class RayState:
    """Point on a bicharacteristic: time, position, full covector, mode."""

    t: float
    x: np.ndarray
    xi: np.ndarray
    tau: float
    mode: str

    def __post_init__(self):
        for name in ("x", "xi"):
            a = np.array(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass
class LensMapEntry:
    """One traced leg: entry and exit boundary covectors and the travel time."""

    gamma_in: BoundaryCovector
    gamma_out: BoundaryCovector
    mode: str
    travel_time: float
    n_steps: int = 0
    drift_max: float = 0.0
    samples: np.ndarray | None = None   # dense (s, t, x1..x3, xi1..xi3) rows

    def to_dict(self):
        g0, g1 = self.gamma_in, self.gamma_out
        return {
            "mode": self.mode,
            "travel_time": self.travel_time,
            "t_in": g0.t, "x_in": g0.x.tolist(), "tau": g0.tau,
            "xi_t_in": g0.xi_t.tolist(),
            "t_out": g1.t, "x_out": g1.x.tolist(),
            "xi_t_out": g1.xi_t.tolist(),
            "n_steps": self.n_steps, "drift_max": self.drift_max,
        }


def _make_rhs(m, mode):
    """Hamilton field of tau^2 - g_mode in (x, xi); returns (f, g value)."""
    rho_f, mu_f, lam_f = m.rho, m.mu, m.lam
    stress = m.stress

    if mode == "S":
        def coeff(x):
            return mu_f.value_and_gradient(x)
    else:
        def coeff(x):
            lv, lg = lam_f.value_and_gradient(x)
            mv, mg = mu_f.value_and_gradient(x)
            return lv + 2.0 * mv, lg + 2.0 * mg

    def rhs(y):
        x = y[:3]
        xi = y[3:]
        a, da = coeff(x)
        rho, drho = rho_f.value_and_gradient(x)
        r = stress.matrix(x)
        dr = stress.derivative(x)
        rxi = r @ xi
        mxi = a * xi + rxi
        xx = xi @ xi
        g = (a * xx + xi @ rxi) / rho
        dg_dx = (da * xx + np.einsum("ijk,i,j->k", dr, xi, xi) - g * drho) / rho
        out = np.empty(6)
        out[:3] = (-2.0 / rho) * mxi   # dx/ds = -dg/dxi
        out[3:] = dg_dx                # dxi/ds = +dg/dx
        return out, float(g)

    return rhs


def _single_step(rhs, y, h):
    """One 5th-order step of size h; returns (y_new, k_last, g_new, err_vec)."""
    k = [None] * 7
    k[0], _ = rhs(y)
    for i in range(1, 6):
        yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]))
        k[i], _ = rhs(yi)
    y5 = y + h * sum(b * k[i] for i, b in enumerate(_B5) if b)
    k[6], g5 = rhs(y5)
    y4 = y + h * sum(b * k[i] for i, b in enumerate(_B4) if b)
    return y5, k[6], g5, y5 - y4


@dataclass
class _MarchResult:
    status: str            # "exited" or "time_capped"
    s_exit: float
    y_exit: np.ndarray
    g_exit: float
    drift_max: float
    n_steps: int
    samples: list


def _march(m, mode, y0, tau, sgn, ctrl, s_cap=None, collect=False):
    """Integrate from the boundary into the domain until the next boundary hit.

    ``sgn`` is the sign of the s-march (sign(tau) for forward-in-time legs).
    """
    rhs = _make_rhs(m, mode)
    phi = m.domain.phi
    grad_phi = m.domain.grad_phi

    f0, g0 = rhs(y0)
    tau2 = tau * tau
    speed = np.linalg.norm(f0[:3])
    if speed == 0.0:
        raise StepControlError("zero ray speed at launch")
    gphi = grad_phi(y0[:3])
    dphi = sgn * float(gphi @ f0[:3])
    if dphi > -ctrl.tangent_tol * np.linalg.norm(gphi) * speed:
        raise GlancingExitError("launch direction tangential to the boundary")

    h_max = ctrl.h_max
    if h_max is None:
        h_max = 0.5 * float(np.min(m.domain.semi_axes)) / speed
    h = ctrl.h_init if ctrl.h_init is not None else 1e-2 * h_max
    h = sgn * min(abs(h), h_max)

    s = 0.0
    y = y0
    k1 = f0
    entered = False
    drift_max = abs(tau2 - g0) / tau2
    samples = [(s, y.copy())] if collect else []
    n_steps = 0
    h_floor = 1e-14 * h_max

    for _ in range(ctrl.max_steps):
        capped = False
        if s_cap is not None and sgn * (s + h) >= sgn * s_cap:
            h = s_cap - s
            capped = True
            if abs(h) < 1e-16 * max(abs(s_cap), 1.0):
                return _MarchResult("time_capped", s, y, g0, drift_max,
                                    n_steps, samples)

        y5, k7, g5, err = _single_step(rhs, y, h)
        scale = ctrl.atol + ctrl.rtol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        drift = abs(tau2 - g5) / tau2
        if err_norm > 1.0 or drift > ctrl.drift_tol:
            h *= max(0.2, 0.9 * err_norm ** -0.2) if err_norm > 1.0 else 0.5
            if abs(h) < h_floor:
                raise StepControlError("step size underflow during drift control")
            continue

        n_steps += 1
        phi_new = float(phi(y5[:3]))
        if entered and phi_new >= 0.0:
            return _locate_exit(m, rhs, ctrl, tau2, s, y, k1, h, y5,
                                drift_max, n_steps, samples, sgn)
        if not entered:
            if phi_new >= 0.0:
                h *= 0.5
                if abs(h) < h_floor:
                    raise GlancingExitError("ray failed to enter the domain")
                continue
            entered = True

        s += h
        y = y5
        k1 = k7
        g0 = g5
        drift_max = max(drift_max, drift)
        if collect:
            samples.append((s, y.copy()))
        if capped:
            return _MarchResult("time_capped", s, y, g5, drift_max,
                                n_steps, samples)
        if err_norm > 0:
            h *= min(5.0, 0.9 * err_norm ** -0.2)
        else:
            h *= 5.0
        h = sgn * min(abs(h), h_max)

    raise MaxStepsError(f"no boundary hit within {ctrl.max_steps} steps")


def _hermite(y0, f0, y1, f1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + theta) * h * f0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * f1)


def _locate_exit(m, rhs, ctrl, tau2, s, y, k1, h, y_next, drift_max,
                 n_steps, samples, sgn):
    """Refine the boundary crossing inside the step [s, s + h].

    First bisect on the cubic Hermite interpolant of the accepted step, then
    polish with exact substeps from the step's left endpoint so the returned
    state carries full integration accuracy.
    """
    phi = m.domain.phi
    k_next, _ = rhs(y_next)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(phi(_hermite(y, k1, y_next, k_next, h, mid)[:3])) < 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)

    # exact-substep refinement: eta in (0, h], phi(0) < 0 <= phi(h)
    eta_lo, eta_hi = 0.0, h
    phi_lo = float(phi(y[:3]))
    best_eta, best_y, best_g, best_phi = h, y_next, None, float(phi(y_next[:3]))
    eta = theta * h
    prev = (0.0, phi_lo)
    for _ in range(80):
        y_eta, _, g_eta, _ = _single_step(rhs, y, eta)
        p_eta = float(phi(y_eta[:3]))
        if abs(p_eta) < abs(best_phi):
            best_eta, best_y, best_g, best_phi = eta, y_eta, g_eta, p_eta
        if abs(p_eta) <= ctrl.boundary_tol:
            break
        if p_eta < 0.0:
            eta_lo = eta
        else:
            eta_hi = eta
        # secant proposal clipped into the bracket, midpoint fallback
        e0, p0 = prev
        prev = (eta, p_eta)
        if p_eta != p0:
            cand = eta - p_eta * (eta - e0) / (p_eta - p0)
        else:
            cand = 0.5 * (eta_lo + eta_hi)
        inside = (min(abs(eta_lo), abs(eta_hi)) < abs(cand)
                  < max(abs(eta_lo), abs(eta_hi)))
        eta = cand if inside else 0.5 * (eta_lo + eta_hi)
        if abs(eta_hi - eta_lo) < 1e-16 * abs(h):
            break

    if best_g is None:
        _, _, best_g, _ = _single_step(rhs, y, best_eta)
    f_exit, _ = rhs(best_y)
    gphi = m.domain.grad_phi(best_y[:3])
    dphi = float(gphi @ f_exit[:3])
    speed = float(np.linalg.norm(f_exit[:3]))
    if abs(dphi) < ctrl.tangent_tol * np.linalg.norm(gphi) * speed:
        raise GlancingExitError("ray leaves the domain tangentially")

    drift_max = max(drift_max, abs(tau2 - best_g) / tau2)
    if samples:
        samples.append((s + best_eta, best_y.copy()))
    return _MarchResult("exited", s + best_eta, best_y, best_g, drift_max,
                        n_steps, samples)


def _exit_covector(m, t, tau, y_exit):
    x = m.domain.radial_project(y_exit[:3])
    nu = m.domain.normal(x)
    xi = y_exit[3:]
    xi_t = xi - float(xi @ nu) * nu
    return BoundaryCovector(t=t, x=x, tau=tau, xi_t=xi_t, nu=nu), xi


def trace_state(m, state, ctrl=None, t_cap=None, collect=False,
                time_direction=1):
    """Trace one leg from an interior-directed boundary state.

    Returns (exit RayState or None, LensMapEntry or None, status).  The
    status is "exited" or "time_capped"; on a time cap both payloads are
    None.
    """
    if ctrl is None:
        ctrl = DEFAULT_STEP
    y0 = np.concatenate([state.x, state.xi])
    sgn = (1.0 if state.tau > 0 else -1.0) * (1 if time_direction >= 0 else -1)
    s_cap = None
    if t_cap is not None:
        s_cap = (t_cap - state.t) / (2.0 * state.tau)
        if sgn * s_cap <= 0:
            return None, None, "time_capped"
    res = _march(m, state.mode, y0, state.tau, sgn, ctrl, s_cap=s_cap,
                 collect=collect)
    if res.status == "time_capped":
        return None, None, "time_capped"
    dt = 2.0 * state.tau * res.s_exit
    gamma_out, xi_full = _exit_covector(m, state.t + dt, state.tau, res.y_exit)
    exit_state = RayState(t=state.t + dt, x=gamma_out.x, xi=xi_full,
                          tau=state.tau, mode=state.mode)
    samples = None
    if collect:
        rows = [(s, state.t + 2.0 * state.tau * s, *y[:3], *y[3:])
                for s, y in res.samples]
        samples = np.array(rows)
    gamma_in = boundary_covector(m, state.t, state.x, state.tau, state.xi)
    entry = LensMapEntry(gamma_in=gamma_in, gamma_out=gamma_out,
                         mode=state.mode, travel_time=dt,
                         n_steps=res.n_steps, drift_max=res.drift_max,
                         samples=samples)
    return exit_state, entry, "exited"


def launch_state(m, gamma, mode, time_direction=1, glancing_tol=1e-10):
    """Interior-directed RayState at gamma for the given mode.

    Uses the forward characteristic root (backward when tracing against
    time).  Raises EvanescentModeError when the mode is elliptic at gamma.
    """
    roots = char_roots(m, gamma, glancing_tol).mode(mode)
    if not roots.real:
        raise EvanescentModeError(f"mode {mode} is evanescent at this covector")
    z = roots.z_forward if time_direction >= 0 else roots.z_backward
    xi = gamma.xi_t - z.real * gamma.nu
    return RayState(t=gamma.t, x=gamma.x, xi=xi, tau=gamma.tau, mode=mode)


def trace_leg(m, gamma, mode, ctrl=None, collect=False, time_direction=1):
    """Trace the single interior leg leaving gamma in the given mode."""
    state = launch_state(m, gamma, mode, time_direction)
    _, entry, status = trace_state(m, state, ctrl, collect=collect,
                                   time_direction=time_direction)
    if status != "exited":
        raise ElastorayError("unexpected time cap on an uncapped leg")
    return entry


def lens_map_table(m, mode, gammas, ctrl=None, skip_errors=False):
    """Lens-map entries for a fan of boundary covectors (None on failure).

    With ``skip_errors`` failing probes yield None and the error strings are
    returned alongside; otherwise the first failure raises.
    """
    entries = []
    failures = []
    for i, gamma in enumerate(gammas):
        try:
            entries.append(trace_leg(m, gamma, mode, ctrl))
        except ElastorayError as exc:
            if not skip_errors:
                raise
            entries.append(None)
            failures.append(f"probe {i}: {type(exc).__name__}: {exc}")
    return entries, failures


# ---------------------------------------------------------------------------
# covector fans
# ---------------------------------------------------------------------------

def incidence_covector(m, x, mode, theta, tau=1.0, direction=None, t=0.0):
    """Boundary covector launching a mode leg at incidence angle theta.

    Theta is measured from the inward normal; the tangential magnitude is
    |tau| sin(theta) / c_mode(x) with c the unstressed mode speed, which is
    the exact incidence relation for R = 0 media.
    """
    x = m.domain.radial_project(np.asarray(x, dtype=np.float64))
    if direction is None:
        direction, _ = m.domain.tangent_basis(x)
    nu = m.domain.normal(x)
    u = np.asarray(direction, dtype=np.float64)
    u = u - float(u @ nu) * nu
    u /= np.linalg.norm(u)
    a = float(m.mu(x)) if mode == "S" else float(m.lam(x) + 2.0 * m.mu(x))
    c = math.sqrt(a / float(m.rho(x)))
    xi_t = (abs(tau) * math.sin(theta) / c) * u
    # the ray leaves along +u when xi_t points along -u for tau > 0
    if tau > 0:
        xi_t = -xi_t
    return BoundaryCovector(t=t, x=x, tau=float(tau), xi_t=xi_t, nu=nu)


def _hyperbolic_radius(m, mode, x, nu, u, tau):
    """Largest |xi_t| along u keeping the mode hyperbolic at (x, tau)."""
    from .symbols import metric_bilinear
    b_nn = float(metric_bilinear(m, mode, x, nu, nu))
    b_uu = float(metric_bilinear(m, mode, x, u, u))
    b_un = float(metric_bilinear(m, mode, x, u, nu))
    denom = b_nn * b_uu - b_un * b_un
    if denom <= 0:
        raise ElastorayError("degenerate tangential direction")
    return abs(tau) * math.sqrt(b_nn / denom)


def probe_fan(m, n, rng, tau=1.0, frac_range=(0.15, 0.85), t=0.0):
    """Random boundary covectors hyperbolic for both modes, muting-friendly.

    The tangential magnitude is a fraction of the compressional hyperbolic
    radius, so both modes have real forward roots and |xi_t| > 0.
    """
    probes = []
    while len(probes) < n:
        x = m.domain.sample_boundary(1, rng)[0]
        nu = m.domain.normal(x)
        v = rng.standard_normal(3)
        v -= float(v @ nu) * nu
        if np.linalg.norm(v) < 1e-8:
            continue
        u = v / np.linalg.norm(v)
        frac = rng.uniform(*frac_range)
        r_p = _hyperbolic_radius(m, "P", x, nu, u, tau)
        gamma = BoundaryCovector(t=t, x=x, tau=float(tau),
                                 xi_t=frac * r_p * u, nu=nu)
        try:
            char_roots(m, gamma)
        except ElastorayError:
            continue
        probes.append(gamma)
    return probes


# ---------------------------------------------------------------------------
# reflection and broken transport
# ---------------------------------------------------------------------------

@dataclass
class ReflectionResult:
    """Reflected interior-directed states plus suppressed branch reports."""

    states: list
    evanescent: list
    glancing: list


def reflect(m, state, glancing_tol=1e-10):
    """Reflect an outgoing boundary state into all hyperbolic branches.

    The reflected branches share (t, x, tau, xi_t) with the incident state
    and use each mode's forward root.  Evanescent branches (complex roots)
    are reported, not traced.  A glancing incident mode raises GlancingError;
    a glancing converted mode is reported and dropped.
    """
    gamma = boundary_covector(m, state.t, state.x, state.tau, state.xi)
    states = []
    evanescent = []
    glancing = []
    for mode in ("S", "P"):
        big_a, bh, c, scale2 = (float(v) for v in
                                _mode_quadratic(m, mode, gamma))
        d4 = bh * bh - big_a * c
        if abs(d4) < glancing_tol * scale2:
            if mode == state.mode:
                raise GlancingError(
                    f"incident mode {mode} glancing at reflection point",
                    discriminant=d4)
            glancing.append(mode)
            continue
        if d4 < 0:
            evanescent.append(mode)
            continue
        s = math.sqrt(d4)
        z_fwd = (bh - math.copysign(s, gamma.tau)) / big_a
        xi = gamma.xi_t - z_fwd * gamma.nu
        states.append(RayState(t=state.t, x=gamma.x, xi=xi, tau=state.tau,
                               mode=mode))
    return ReflectionResult(states=states, evanescent=evanescent,
                            glancing=glancing)


@dataclass(frozen=True)
class WFEvent:
    """Boundary arrival of the transported wavefront set."""

    gamma: BoundaryCovector
    mode: str
    order_index: int
    n_reflections: int


@dataclass
class TransportResult:
    events: list
    reports: list


def broken_transport(m, gamma, initial_modes=("S", "P"), depth=3, t_max=None,
                     ctrl=None):
    """Propagate gamma through up to ``depth`` reflections, collecting events.

    Breadth-first over reflected branches; events are sorted by arrival time
    (ties by creation order, so the result is deterministic).  Branches that
    exceed ``t_max``, exit tangentially, or hit a glancing reflection are
    dropped with a report.
    """
    events = []
    reports = []
    queue = deque()
    for mode in initial_modes:
        queue.append((launch_state(m, gamma, mode), 0, mode))

    while queue:
        state, n_refl, lineage = queue.popleft()
        try:
            exit_state, entry, status = trace_state(m, state, ctrl,
                                                    t_cap=t_max)
        except GlancingExitError as exc:
            reports.append(f"{lineage}: tangential exit dropped ({exc})")
            continue
        if status == "time_capped":
            reports.append(f"{lineage}: time cap reached before boundary")
            continue
        if t_max is not None and entry.gamma_out.t > t_max + 1e-12:
            reports.append(f"{lineage}: arrival beyond time cap dropped")
            continue
        events.append((entry.gamma_out, state.mode, n_refl))
        if n_refl >= depth:
            continue
        try:
            refl = reflect(m, exit_state)
        except GlancingError as exc:
            reports.append(f"{lineage}: glancing reflection halted branch ({exc})")
            continue
        for mode in refl.evanescent:
            reports.append(f"{lineage}: converted {mode} branch evanescent")
        for mode in refl.glancing:
            reports.append(f"{lineage}: converted {mode} branch glancing")
        for new_state in refl.states:
            queue.append((new_state, n_refl + 1,
                          f"{lineage}->{new_state.mode}"))

    order = sorted(range(len(events)), key=lambda i: (events[i][0].t, i))
    out = [WFEvent(gamma=events[i][0], mode=events[i][1], order_index=k,
                   n_reflections=events[i][2])
           for k, i in enumerate(order)]
    return TransportResult(events=out, reports=reports)


# ---------------------------------------------------------------------------
# boundary distance
# ---------------------------------------------------------------------------

@dataclass
class DistanceResult:
    """Shortest found travel time between boundary points, with covectors.

    ``connected`` is False when no ray hit the target within tolerance; the
    result then reports the best miss found instead of raising, and
    ``distance`` is infinite.  ``failed_legs`` counts the shooting legs that
    raised, by exception class name.
    """

    distance: float
    mode: str
    gamma_in: BoundaryCovector | None
    gamma_out: BoundaryCovector | None
    miss: float
    n_legs: int
    connected: bool = True
    message: str = ""
    failed_legs: dict = field(default_factory=dict)


# damped Gauss-Newton shooting: iterations per start, and step halvings per
# iteration before the start is abandoned
_SHOOT_MAX_ITER = 12
_SHOOT_MAX_HALVINGS = 10


def boundary_distance(m, mode, x_from, y_to, tau=1.0, n_starts=64,
                      n_refine=3, ctrl=None, miss_tol=1e-9, warm_start=None):
    """Mode travel time between boundary points by multi-start shooting.

    Entry covectors are parametrized by two tangential components at
    ``x_from``.  ``n_starts`` starts spread over the hyperbolic disk are
    traced once each; the ``n_refine`` with the smallest boundary miss seed
    a damped Gauss-Newton iteration on the miss vector.  Its Jacobian is
    taken by forward differences, and its step is halved until the trial
    leg reaches the boundary with a smaller miss; the iterations and the
    halvings are capped, so a solve costs a bounded number of legs.  Each
    start stops once its miss is below ``0.3 * miss_tol``.  The result is
    the least travel time over the iterates that hit within ``miss_tol``.

    ``warm_start`` takes a known-good tangential parameter pair and replaces
    the start scan with that single start; the returned entry covector
    exposes the pair for reuse via ``gamma_in`` (its xi_t in the tangent
    basis at x_from).
    """
    x0 = m.domain.radial_project(np.asarray(x_from, dtype=np.float64))
    y1 = m.domain.radial_project(np.asarray(y_to, dtype=np.float64))
    if np.linalg.norm(x0 - y1) < 1e-12:
        raise DistanceError("endpoints coincide")
    nu = m.domain.normal(x0)
    e1, e2 = m.domain.tangent_basis(x0)
    n_legs = 0
    failed = {}

    def shoot(w):
        # one leg: (entry, miss, w, miss vector), or None when it raises
        nonlocal n_legs
        n_legs += 1
        gamma = BoundaryCovector(t=0.0, x=x0, tau=float(tau),
                                 xi_t=w[0] * e1 + w[1] * e2, nu=nu)
        try:
            entry = trace_leg(m, gamma, mode, ctrl)
        except ElastorayError as exc:
            name = type(exc).__name__
            failed[name] = failed.get(name, 0) + 1
            return None
        vec = entry.gamma_out.x - y1
        return entry, float(np.linalg.norm(vec)), w, vec

    if warm_start is not None:
        starts = [np.asarray(warm_start, dtype=np.float64)]
    else:
        starts = [np.zeros(2)]
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for k in range(max(n_starts - 1, 0)):
            ang = k * golden
            u = math.cos(ang) * e1 + math.sin(ang) * e2
            r_hyp = _hyperbolic_radius(m, mode, x0, nu, u, tau)
            frac = math.sqrt((k + 0.5) / max(n_starts - 1, 1)) * 0.93
            starts.append(frac * r_hyp * np.array([math.cos(ang),
                                                   math.sin(ang)]))

    def better(cand, incumbent):
        # below miss_tol the travel time decides; above it the miss does
        if incumbent is None:
            return True
        hit_c = cand[1] <= miss_tol
        hit_i = incumbent[1] <= miss_tol
        if hit_c and hit_i:
            return cand[0].travel_time < incumbent[0].travel_time
        if hit_c != hit_i:
            return hit_c
        return cand[1] < incumbent[1]

    def descend(shot):
        # damped Gauss-Newton from one traced start; the miss falls at every
        # accepted step, so the last iterate is the one closest to a ray
        for _ in range(_SHOOT_MAX_ITER):
            _, miss, w, vec = shot
            if miss <= miss_tol * 0.3:
                break
            h = 1e-7 * max(1.0, float(np.linalg.norm(w)))
            cols = [shoot(w + h * unit) for unit in np.eye(2)]
            if any(col is None for col in cols):
                break
            jac = np.stack([(col[3] - vec) / h for col in cols], axis=-1)
            step, *_ = np.linalg.lstsq(jac, -vec, rcond=None)
            for k in range(_SHOOT_MAX_HALVINGS + 1):
                trial = shoot(w + 0.5 ** k * step)
                if trial is not None and trial[1] < miss:
                    break
            else:
                break
            shot = trial
        return shot

    scanned = [(shot[1], i, shot) for i, shot in enumerate(map(shoot, starts))
               if shot is not None]
    scanned.sort(key=lambda item: item[:2])
    best = None
    for _, _, start in scanned[:max(n_refine, 1)]:
        shot = descend(start)
        if better(shot, best):
            best = shot

    failed_legs = dict(sorted(failed.items()))
    if best is not None and best[1] <= miss_tol:
        entry, miss = best[:2]
        return DistanceResult(distance=entry.travel_time, mode=mode,
                              gamma_in=entry.gamma_in,
                              gamma_out=entry.gamma_out, miss=miss,
                              n_legs=n_legs, failed_legs=failed_legs)
    if best is None:
        miss, message = math.inf, ("no ray from any start reached the "
                                   "boundary near the target")
    else:
        miss = best[1]
        message = f"best boundary miss {miss:.2e} above {miss_tol:.0e}"
    return DistanceResult(distance=math.inf, mode=mode, gamma_in=None,
                          gamma_out=None, miss=miss, n_legs=n_legs,
                          connected=False, message=message,
                          failed_legs=failed_legs)


# ---------------------------------------------------------------------------
# lens-map recovery experiment
# ---------------------------------------------------------------------------

@dataclass
class RecoveryRecord:
    probe: BoundaryCovector
    mode: str
    direct: LensMapEntry
    event: WFEvent
    dx: float
    dxi: float
    dt: float
    mute_residual: float


@dataclass
class RecoveryReport:
    records: list
    max_dx: float
    max_dxi: float
    max_dt: float
    max_mute_residual: float
    min_mode_separation: float
    max_mode_separation: float

    @property
    def n_probes(self):
        return len(self.records) // 2

    def to_dict(self):
        return {"n_probes": self.n_probes, "max_dx": self.max_dx,
                "max_dxi": self.max_dxi, "max_dt": self.max_dt,
                "max_mute_residual": self.max_mute_residual,
                "min_mode_separation": self.min_mode_separation,
                "max_mode_separation": self.max_mode_separation}


def recover_lens_maps(m, probes, depth=1, ctrl=None):
    """Reconstruct both lens maps from single-mode transport event streams.

    For each probe the shear map value is read off as the least-time event
    of a shear-only launch (justified quantitatively by the muting residual,
    recorded per probe) and likewise for the compressional map; both are
    compared against directly traced legs.
    """
    records = []
    max_dx = max_dxi = max_dt = max_mute = 0.0
    min_sep = math.inf
    max_sep = 0.0
    for gamma in probes:
        mute_res = muting_annihilation_check(m, gamma)
        max_mute = max(max_mute, mute_res)
        times = {}
        for mode in ("S", "P"):
            result = broken_transport(m, gamma, (mode,), depth=depth,
                                      ctrl=ctrl)
            if not result.events:
                raise ElastorayError(f"no events for mode {mode} launch")
            event = result.events[0]
            direct = trace_leg(m, gamma, mode, ctrl)
            dx = float(np.linalg.norm(event.gamma.x - direct.gamma_out.x))
            dxi = float(np.linalg.norm(event.gamma.xi_t
                                       - direct.gamma_out.xi_t))
            dt = abs(event.gamma.t - direct.gamma_out.t)
            times[mode] = event.gamma.t
            max_dx = max(max_dx, dx)
            max_dxi = max(max_dxi, dxi)
            max_dt = max(max_dt, dt)
            records.append(RecoveryRecord(probe=gamma, mode=mode,
                                          direct=direct, event=event,
                                          dx=dx, dxi=dxi, dt=dt,
                                          mute_residual=mute_res))
        sep = abs(times["S"] - times["P"])
        min_sep = min(min_sep, sep)
        max_sep = max(max_sep, sep)
    return RecoveryReport(records=records, max_dx=max_dx, max_dxi=max_dxi,
                          max_dt=max_dt, max_mute_residual=max_mute,
                          min_mode_separation=float(min_sep),
                          max_mode_separation=float(max_sep))
