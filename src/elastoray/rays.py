"""Bicharacteristic tracing, lens maps, broken transport, and recovery.

Rays are integral curves of the Hamilton field of H = tau^2 - g_mode(x, xi)
in the flow parameter s, with dt/ds = 2 tau, so tau is exactly constant and
t is an exact linear function of s.

Every leg goes through one batched engine (``engine.march``): a fused
kernel evaluates the Hamilton field of a whole batch of rays, S and P
mixed, and a DOP853 march (8th order) advances them together, each ray
with its own step size, time cap and acceptance test (the local error
estimate plus an on-shell drift monitor).  A ray that fails leaves the
batch without disturbing the others, and a ray traces bitwise alike alone
or in any batch.  A boundary exit is found by an Illinois-modified regula
falsi on the crossing step's 7th-order dense output, then reached by one
exact substep from the step's start and one first-order move along the
flow onto the boundary.  Lens-map fans, each level of a broken transport,
the recovery experiment and each round of lockstep distance solves are each
traced as one batch, and launched from one ``boundary.RootCore``, as the
boundary symbols are computed; ``launch_state``, ``trace_state``,
``trace_leg`` and ``boundary_distance`` are batches of one.

Distance solves, and the refine descents within each solve, are generators
of traced rounds run by one lockstep driver.  A descent ends on a shot that
another descent of its solve has already converged to once its next
Gauss-Newton iterate lands there, and a solve's ``n_legs`` counts every leg
it reads, those of descents that adopted included.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .boundary import (BoundaryCovector, RootCore, RootTable, _mode_coeffs,
                       boundary_covector, char_roots, mode_quadratics)
from .engine import march
from .errors import (DistanceError, ElastorayError, EvanescentModeError,
                     GlancingError, GlancingExitError)
from .polarization import muting_annihilation_check
from .symbols import MODES

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
    "boundary_distances",
    "RecoveryRecord",
    "RecoveryReport",
    "recover_lens_maps",
]


@dataclass(frozen=True)
class StepControl:
    """Adaptive step parameters for bicharacteristic integration.

    ``drift_tol`` bounds |tau^2 - g(x, xi)| / tau^2 along accepted steps;
    steps violating it are rejected and halved even when the embedded error
    estimate would accept them.  Step sizes follow from the domain and the
    launch speed; the first step also follows from ``rtol`` and ``atol``.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 100000
    drift_tol: float = 1e-9


DEFAULT_STEP = StepControl()


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
    """One traced leg: entry and exit boundary covectors and the travel time.

    ``n_steps`` counts the accepted steps and ``rejected_steps`` the
    rejected ones, by cause: the error estimate, the on-shell drift, or a
    first step that failed to enter the domain.  Their total is the number
    of attempts that ``StepControl.max_steps`` bounds.
    """

    gamma_in: BoundaryCovector
    gamma_out: BoundaryCovector
    mode: str
    travel_time: float
    n_steps: int = 0
    drift_max: float = 0.0
    samples: np.ndarray | None = None   # dense (s, t, x1..x3, xi1..xi3) rows
    rejected_steps: dict = field(default_factory=dict)

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
            "rejected_steps": dict(self.rejected_steps),
        }


# ---------------------------------------------------------------------------
# legs: batched tracing and its scalar views
# ---------------------------------------------------------------------------

def _finish_leg(m, state, leg, collect):
    """(exit RayState, LensMapEntry, "exited") of a marched leg."""
    dt = 2.0 * state.tau * leg.s_exit
    gamma_out = boundary_covector(m, state.t + dt,
                                  m.domain.radial_project(leg.y_exit[:3]),
                                  state.tau, leg.y_exit[3:])
    exit_state = RayState(t=state.t + dt, x=gamma_out.x, xi=leg.y_exit[3:],
                          tau=state.tau, mode=state.mode)
    samples = None
    if collect:
        rows = [(s, state.t + 2.0 * state.tau * s, *y[:3], *y[3:])
                for s, y in leg.samples]
        samples = np.array(rows)
    gamma_in = boundary_covector(m, state.t, state.x, state.tau, state.xi)
    entry = LensMapEntry(gamma_in=gamma_in, gamma_out=gamma_out,
                         mode=state.mode, travel_time=dt,
                         n_steps=leg.n_steps, drift_max=leg.drift_max,
                         samples=samples, rejected_steps=leg.rejected)
    return exit_state, entry, "exited"


def _trace_states(m, states, ctrl=None, t_cap=None, collect=False,
                  time_direction=1):
    """Trace interior-directed boundary states as one batch.

    Returns, per state, what trace_state would return, or the ElastorayError
    it would raise.
    """
    if ctrl is None:
        ctrl = DEFAULT_STEP
    direction = 1 if time_direction >= 0 else -1
    out = [None] * len(states)
    run = []
    sgn = []
    s_cap = []
    for i, state in enumerate(states):
        sg = (1.0 if state.tau > 0 else -1.0) * direction
        cap = sg * math.inf
        if t_cap is not None:
            cap = (t_cap - state.t) / (2.0 * state.tau)
            if sg * cap <= 0:
                out[i] = (None, None, "time_capped")
                continue
        run.append(i)
        sgn.append(sg)
        s_cap.append(cap)
    if not run:
        return out
    picked = [states[i] for i in run]
    legs = march(m, np.array([st.mode != "S" for st in picked]),
                 np.array([np.concatenate([st.x, st.xi]) for st in picked]),
                 np.array([st.tau for st in picked]), np.array(sgn),
                 np.array(s_cap), ctrl, collect=collect)
    for i, state, leg in zip(run, picked, legs):
        if isinstance(leg, ElastorayError):
            out[i] = leg
        elif leg.status == "time_capped":
            out[i] = (None, None, "time_capped")
        else:
            try:
                out[i] = _finish_leg(m, state, leg, collect)
            except ElastorayError as exc:
                out[i] = exc
    return out


def trace_state(m, state, ctrl=None, t_cap=None, collect=False,
                time_direction=1):
    """Trace one leg from an interior-directed boundary state.

    Returns (exit RayState or None, LensMapEntry or None, status).  The
    status is "exited" or "time_capped"; on a time cap both payloads are
    None.
    """
    out = _trace_states(m, [state], ctrl, t_cap, collect, time_direction)[0]
    if isinstance(out, ElastorayError):
        raise out
    return out


def _launch_states(m, gammas, modes, time_direction=1):
    """RayState per (gamma, mode) leg, or the ElastorayError launch_state
    would raise for it; the roots of all legs come from one RootCore."""
    if not gammas:
        return []
    core = RootCore(m, *(np.array([getattr(g, name) for g in gammas])
                         for name in ("x", "nu", "xi_t", "tau")))
    t, xi = core.table, core.xi[0 if time_direction >= 0 else 1]
    out = []
    for i, (gamma, mode) in enumerate(zip(gammas, modes, strict=True)):
        k = MODES.index(mode)
        if t.nonpositive[i]:
            out.append(t.form_error(i))
        elif t.glancing[k, i]:
            out.append(t.glancing_error(k, i))
        elif not t.real[k, i]:
            out.append(EvanescentModeError(
                f"mode {mode} is evanescent at this covector"))
        else:
            out.append(RayState(t=gamma.t, x=gamma.x, xi=xi[k, i].real,
                                tau=gamma.tau, mode=mode))
    return out


def launch_state(m, gamma, mode, time_direction=1):
    """Interior-directed RayState at gamma for the given mode.

    Uses the forward characteristic root (backward when tracing against
    time).  Raises GlancingError when the mode is glancing at gamma and
    EvanescentModeError when it is elliptic; the other mode may be either.
    Raises ElastorayError where either mode's B(nu, nu) is not positive.
    """
    out = _launch_states(m, [gamma], [mode], time_direction)[0]
    if isinstance(out, ElastorayError):
        raise out
    return out


def _trace_legs(m, gammas, modes, ctrl=None, collect=False, time_direction=1):
    """LensMapEntry, or the ElastorayError raised, per (gamma, mode) leg.

    All legs are launched as one batch, and all that launch traced as one.
    """
    out = _launch_states(m, gammas, modes, time_direction)
    launched = [i for i, state in enumerate(out)
                if isinstance(state, RayState)]
    traced = _trace_states(m, [out[i] for i in launched], ctrl,
                           collect=collect, time_direction=time_direction)
    # uncapped legs exit or raise
    for i, res in zip(launched, traced):
        out[i] = res if isinstance(res, ElastorayError) else res[1]
    return out


def trace_leg(m, gamma, mode, ctrl=None, collect=False, time_direction=1):
    """Trace the single interior leg leaving gamma in the given mode."""
    out = _trace_legs(m, [gamma], [mode], ctrl, collect, time_direction)[0]
    if isinstance(out, ElastorayError):
        raise out
    return out


def lens_map_table(m, mode, gammas, ctrl=None, skip_errors=False):
    """Lens-map entries for a fan of boundary covectors (None on failure).

    ``mode`` is one mode for the whole fan or a sequence with one mode per
    covector; the fan is traced as one batch.  With ``skip_errors`` failing
    probes yield None and the error strings are returned alongside;
    otherwise the first failure, in fan order, raises.
    """
    modes = [mode] * len(gammas) if isinstance(mode, str) else list(mode)
    entries = []
    failures = []
    for i, out in enumerate(_trace_legs(m, gammas, modes, ctrl)):
        if isinstance(out, ElastorayError):
            if not skip_errors:
                raise out
            entries.append(None)
            failures.append(f"probe {i}: {type(out).__name__}: {out}")
        else:
            entries.append(out)
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
    a = _mode_coeffs(m.lam(x), m.mu(x))[MODES.index(mode)]
    c = math.sqrt(float(a) / float(m.rho(x)))
    xi_t = (abs(tau) * math.sin(theta) / c) * u
    # the ray leaves along +u when xi_t points along -u for tau > 0
    if tau > 0:
        xi_t = -xi_t
    return BoundaryCovector(t=t, x=x, tau=float(tau), xi_t=xi_t, nu=nu)


def _hyperbolic_radius(m, mode, x, nu, u, tau, forms=None):
    """Largest |xi_t| along u keeping the mode hyperbolic at (x, tau); raises
    ``RootTable.first_form_error`` of the modes ``forms`` (default: the
    mode), the first whose B(nu, nu) is not positive."""
    # at tau = 0 the quadratic's C is B(u, u) exactly
    quadratics = mode_quadratics(m, x, nu, u, 0.0)
    error = RootTable.first_form_error(quadratics[0], forms or (mode,))
    if error is not None:
        raise error
    b_nn, b_un, b_uu, _ = (float(v[MODES.index(mode)]) for v in quadratics)
    denom = b_nn * b_uu - b_un * b_un
    if denom <= 0:
        raise ElastorayError("degenerate tangential direction")
    return abs(tau) * math.sqrt(b_nn / denom)


PROBE_FRACTION = (0.15, 0.85)
# consecutive rejected candidates after which probe_fan gives up
PROBE_MAX_REJECTS = 1000


def probe_fan(m, n, rng, tau=1.0, t=0.0):
    """Random boundary covectors hyperbolic for both modes, muting-friendly.

    The tangential magnitude is a fraction of the compressional hyperbolic
    radius, uniform in PROBE_FRACTION, so both modes have real forward roots
    and |xi_t| > 0.  Raises ElastorayError at the first draw where either
    mode's form B(nu, nu) is not positive, when that radius is 0 (tau = 0),
    so that no covector is hyperbolic, or when PROBE_MAX_REJECTS candidates
    in a row fail ``char_roots`` (at |tau| so small that tau^2 underflows).
    """
    probes = []
    while len(probes) < n:
        for _ in range(PROBE_MAX_REJECTS):
            x = m.domain.sample_boundary(1, rng)[0]
            nu = m.domain.normal(x)
            v = rng.standard_normal(3)
            v -= float(v @ nu) * nu
            if np.linalg.norm(v) < 1e-8:
                continue
            u = v / np.linalg.norm(v)
            frac = rng.uniform(*PROBE_FRACTION)
            r_p = _hyperbolic_radius(m, "P", x, nu, u, tau, forms=MODES)
            if not r_p > 0:
                raise ElastorayError(f"no hyperbolic covector at tau = {tau}")
            gamma = BoundaryCovector(t=t, x=x, tau=float(tau),
                                     xi_t=frac * r_p * u, nu=nu)
            try:
                char_roots(m, gamma)
            except ElastorayError:
                continue
            break
        else:
            raise ElastorayError(f"no hyperbolic covector at tau = {tau} in "
                                 f"{PROBE_MAX_REJECTS} consecutive draws")
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


def _reflections(m, states, gammas):
    """ReflectionResult, or the ElastorayError ``reflect`` raises, per
    outgoing state and its exit covector; both modes of every state launch
    in one batch."""
    launched = iter(_launch_states(m, [g for g in gammas for _ in MODES],
                                   list(MODES) * len(gammas)))
    out = []
    for state in states:
        result = ReflectionResult(states=[], evanescent=[], glancing=[])
        for mode, launch in [(mode, next(launched)) for mode in MODES]:
            if isinstance(launch, RayState):
                result.states.append(launch)
            elif isinstance(launch, EvanescentModeError):
                result.evanescent.append(mode)
            elif not isinstance(launch, GlancingError):
                result = launch
                break
            elif mode == state.mode:
                result = GlancingError(
                    f"incident mode {mode} glancing at reflection point",
                    discriminant=launch.discriminant)
                break
            else:
                result.glancing.append(mode)
        out.append(result)
    return out


def reflect(m, state):
    """Reflect an outgoing boundary state into all hyperbolic branches.

    A batch of one of ``_reflections``: both modes launch on their forward
    roots at the exit covector.  Evanescent branches are reported, not
    traced.  A glancing incident mode raises GlancingError; a glancing
    converted mode is reported and dropped.  A covector where a mode's
    B(nu, nu) is not positive raises its launch error.
    """
    gamma = boundary_covector(m, state.t, state.x, state.tau, state.xi)
    out = _reflections(m, [state], [gamma])[0]
    if isinstance(out, ElastorayError):
        raise out
    return out


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


def _arrival_order(times, rtol):
    """Indices of arrival ``times`` in time order.  Arrivals within
    rtol * max(1, |t|) of the first arrival t of their run are tied and keep
    their creation order, so rounding cannot reorder coinciding arrivals."""
    first, run = None, {}
    for k in sorted(range(len(times)), key=times.__getitem__):
        if first is None or times[k] - first > rtol * max(1.0, abs(first)):
            first = times[k]
        run[k] = first
    return sorted(run, key=lambda k: (run[k], k))


def _transport(m, sources, depth, t_max, ctrl):
    """Broken transport of several sources together, breadth first.

    ``sources`` holds (gamma, initial_modes) pairs.  Each BFS level, over
    all sources, is traced as one batch, and each source's rays are handled
    in the order a one-source queue would pop them, so its events, reports
    and time ties come out as in a sequential search.  Returns, per source,
    (TransportResult, the uncaught ElastorayError or None).  A source stops
    at its first uncaught error: the earliest-queued ray that raised.
    """
    events = [[] for _ in sources]
    reports = [[] for _ in sources]
    errors = [None] * len(sources)
    launches = iter(_launch_states(
        m, [gamma for gamma, modes in sources for _ in modes],
        [mode for _, modes in sources for mode in modes]))
    level = []
    for i, (_, modes) in enumerate(sources):
        states = [next(launches) for _ in modes]
        # a source that fails to launch stops at its first failing mode
        errors[i] = next((st for st in states
                          if isinstance(st, ElastorayError)), None)
        if errors[i] is None:
            level += [(i, st, 0, mode) for st, mode in zip(states, modes)]

    while level:
        traced = _trace_states(m, [item[1] for item in level], ctrl,
                               t_cap=t_max)
        # the boundary exits of a level reflect in one batch, those whose
        # branch stops before it reflects included
        branching = [k for k, (item, out) in enumerate(zip(level, traced))
                     if item[2] < depth and not isinstance(out, ElastorayError)
                     and out[2] != "time_capped"]
        reflected = dict(zip(branching, _reflections(
            m, [traced[k][0] for k in branching],
            [traced[k][1].gamma_out for k in branching])))
        queued = []
        for k, ((i, state, n_refl, lineage), out) in enumerate(zip(level,
                                                                   traced)):
            if errors[i] is not None:
                continue
            notes = reports[i]
            if isinstance(out, GlancingExitError):
                notes.append(f"{lineage}: tangential exit dropped ({out})")
                continue
            if isinstance(out, ElastorayError):
                errors[i] = out
                continue
            _, entry, status = out
            if status == "time_capped":
                notes.append(f"{lineage}: time cap reached before boundary")
                continue
            if t_max is not None and entry.gamma_out.t > t_max + 1e-12:
                notes.append(f"{lineage}: arrival beyond time cap dropped")
                continue
            events[i].append((entry.gamma_out, state.mode, n_refl))
            if n_refl >= depth:
                continue
            refl = reflected[k]
            if isinstance(refl, GlancingError):
                notes.append(f"{lineage}: glancing reflection halted branch "
                             f"({refl})")
                continue
            if isinstance(refl, ElastorayError):
                errors[i] = refl
                continue
            for mode in refl.evanescent:
                notes.append(f"{lineage}: converted {mode} branch evanescent")
            for mode in refl.glancing:
                notes.append(f"{lineage}: converted {mode} branch glancing")
            for new_state in refl.states:
                queued.append((i, new_state, n_refl + 1,
                               f"{lineage}->{new_state.mode}"))
        level = [item for item in queued if errors[item[0]] is None]

    rtol = (ctrl or DEFAULT_STEP).rtol
    results = []
    for found, notes, error in zip(events, reports, errors):
        order = _arrival_order([gamma.t for gamma, _, _ in found], rtol)
        out = [WFEvent(gamma=found[k][0], mode=found[k][1], order_index=rank,
                       n_reflections=found[k][2])
               for rank, k in enumerate(order)]
        results.append((TransportResult(events=out, reports=notes), error))
    return results


def broken_transport(m, gamma, initial_modes=("S", "P"), depth=3, t_max=None,
                     ctrl=None):
    """Propagate gamma through up to ``depth`` reflections, collecting events.

    Breadth-first over reflected branches, one batch per level; events are
    sorted by arrival time, where arrivals within ``ctrl.rtol`` of each
    other tie and keep creation order, so rounding cannot swap them.
    Branches that exceed ``t_max``, exit tangentially, or hit a glancing
    reflection are dropped with a report.
    """
    result, error = _transport(m, [(gamma, tuple(initial_modes))], depth,
                               t_max, ctrl)[0]
    if error is not None:
        raise error
    return result


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
# a descent whose next Gauss-Newton iterate lands this close (relative to
# max(1, |w*|)) to the parameters w* of a shot another descent of the solve
# has already converged to ends on that shot
_SHOOT_SAME_RAY = 1e-6


def _lockstep(gens):
    """Run generators of traced rounds in lockstep.

    Each generator yields a round of leg requests, (covector, mode) pairs,
    and receives back, per leg, its LensMapEntry or the ElastorayError it
    raised.  All generators are primed first; then every round yields the
    requests of all live ones as one batch and sends each its share, in
    order.  Returns the generators' return values.
    """
    results = [None] * len(gens)
    pending = {}

    def advance(i, outs):
        try:
            pending[i] = gens[i].send(outs)
        except StopIteration as stop:
            results[i] = stop.value
            pending.pop(i, None)

    for i in range(len(gens)):
        advance(i, None)
    while pending:
        batch = list(pending.items())
        outs = iter((yield [req for _, reqs in batch for req in reqs]))
        for i, reqs in batch:
            advance(i, [next(outs) for _ in reqs])
    return results


def _distance_solve(m, mode, x_from, y_to, tau=1.0, n_starts=64, n_refine=3,
                    miss_tol=1e-9, warm_start=None):
    """One boundary_distance solve as a generator of traced rounds.

    Each round yields the solve's next legs as (covector, mode) requests
    and receives back, per leg, its LensMapEntry or the ElastorayError it
    raised; the generator returns the DistanceResult.  The endpoint check
    runs before the first round.  The refine descents run under
    ``_lockstep`` and share the list of converged shots.
    """
    x0 = m.domain.radial_project(np.asarray(x_from, dtype=np.float64))
    y1 = m.domain.radial_project(np.asarray(y_to, dtype=np.float64))
    if np.linalg.norm(x0 - y1) < 1e-12:
        raise DistanceError("endpoints coincide")
    nu = m.domain.normal(x0)
    e1, e2 = m.domain.tangent_basis(x0)
    reads = []          # per leg read: the class name of its error, or None
    converged = []      # shots descents ended on below the target

    def trace(ws):
        # one round: (w, traced outcome) per tangential parameter pair
        outs = yield [(BoundaryCovector(t=0.0, x=x0, tau=float(tau),
                                        xi_t=w[0] * e1 + w[1] * e2, nu=nu),
                       mode) for w in ws]
        return list(zip(ws, outs))

    def jacobian_points(w):
        # forward-difference step at w and the parameters of the two legs
        # whose misses give the Jacobian columns there
        h = 1e-7 * max(1.0, float(np.linalg.norm(w)))
        return h, [w + h * unit for unit in np.eye(2)]

    def read(leg):
        # (entry, miss, w, miss vector) of a leg the solve reads, or None if
        # it raised
        w, entry = leg
        if isinstance(entry, ElastorayError):
            reads.append(type(entry).__name__)
            return None
        reads.append(None)
        vec = entry.gamma_out.x - y1
        return (entry, float(np.linalg.norm(vec)), w, vec)

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

    def descend(shot, columns):
        # damped Gauss-Newton from one traced start; the miss falls at every
        # accepted step, so the last iterate is the one closest to a ray;
        # ``columns`` holds the Jacobian legs traced along with the shot
        for _ in range(_SHOOT_MAX_ITER):
            _, miss, w, vec = shot
            if miss <= miss_tol * 0.3:
                break
            h, points = jacobian_points(w)
            if columns is None:
                columns = yield from trace(points)
            cols = [read(leg) for leg in columns]
            if any(col is None for col in cols):
                break
            jac = np.stack([(col[3] - vec) / h for col in cols], axis=-1)
            step, *_ = np.linalg.lstsq(jac, -vec, rcond=None)
            for prior in converged:
                gap = float(np.linalg.norm(w + step - prior[2]))
                if gap <= _SHOOT_SAME_RAY * max(
                        1.0, float(np.linalg.norm(prior[2]))):
                    return prior
            for k in range(_SHOOT_MAX_HALVINGS + 1):
                w_trial = w + 0.5 ** k * step
                legs = yield from trace([w_trial]
                                        + jacobian_points(w_trial)[1])
                trial = read(legs[0])
                if trial is not None and trial[1] < miss:
                    break
            else:
                break
            shot, columns = trial, legs[1:]
        if shot[1] <= miss_tol * 0.3:
            converged.append(shot)
        return shot

    if warm_start is not None:
        w = np.asarray(warm_start, dtype=np.float64)
        legs = yield from trace([w] + jacobian_points(w)[1])
        starts, columns = legs[:1], [legs[1:]]
    else:
        ws = [np.zeros(2)]
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for k in range(max(n_starts - 1, 0)):
            ang = k * golden
            u = math.cos(ang) * e1 + math.sin(ang) * e2
            r_hyp = _hyperbolic_radius(m, mode, x0, nu, u, tau)
            frac = math.sqrt((k + 0.5) / max(n_starts - 1, 1)) * 0.93
            ws.append(frac * r_hyp * np.array([math.cos(ang),
                                               math.sin(ang)]))
        starts = yield from trace(ws)
        columns = [None] * len(starts)

    scanned = [(shot[1], i, shot)
               for i, shot in enumerate(map(read, starts)) if shot is not None]
    scanned.sort(key=lambda item: item[:2])
    descents = [descend(start, columns[i])
                for _, i, start in scanned[:max(n_refine, 1)]]
    best = None
    for shot in (yield from _lockstep(descents)):
        if better(shot, best):
            best = shot

    n_legs = len(reads)
    failed_legs = dict(sorted(Counter(filter(None, reads)).items()))
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


def boundary_distances(m, jobs, ctrl=None):
    """DistanceResult per job, all solves advanced in lockstep.

    Each job is a dict of ``boundary_distance``'s arguments after ``m``
    (``mode``, ``x_from``, ``y_to`` and any of the optional ones but
    ``ctrl``).  The solves run under ``_lockstep``: every round traces the
    pending legs of every live solve as one batch, so the solves take as
    many rounds as the longest of them, and each result is bitwise the one
    its solo call returns.  A job whose endpoints coincide raises
    DistanceError before any leg is traced.
    """
    run = _lockstep([_distance_solve(m, **job) for job in jobs])
    outs = None
    while True:
        try:
            batch = run.send(outs)
        except StopIteration as stop:
            return stop.value
        outs = _trace_legs(m, [gamma for gamma, _ in batch],
                           [mode for _, mode in batch], ctrl)


def boundary_distance(m, mode, x_from, y_to, tau=1.0, n_starts=64,
                      n_refine=3, ctrl=None, miss_tol=1e-9, warm_start=None):
    """Mode travel time between boundary points by multi-start shooting.

    Entry covectors are parametrized by two tangential components at
    ``x_from``.  ``n_starts`` starts spread over the hyperbolic disk are
    traced as one batch; the ``n_refine`` with the smallest boundary miss
    seed a damped Gauss-Newton iteration on the miss vector.  Its Jacobian is
    taken by forward differences, and its step is halved until the trial
    leg reaches the boundary with a smaller miss; the iterations and the
    halvings are capped, so a solve costs a bounded number of legs.  Each
    start stops once its miss is below ``0.3 * miss_tol``; a later start
    also stops, adopting the earlier shot, once its Gauss-Newton iterate
    heads for a ray an earlier start converged to.  The result is the least
    travel time over the iterates that hit within ``miss_tol``.

    The Jacobian columns at a warm start and at every trial leg are traced
    speculatively, in the same batch as that leg, so an accepted trial
    costs one round of legs instead of two.  The descents run in lockstep:
    each round traces the pending legs of every live descent together, so
    a cold solve takes one round for the start scan plus the rounds of its
    longest descent.  A descent whose Gauss-Newton iterate lands within
    ``_SHOOT_SAME_RAY`` of a shot another descent has converged to by then,
    in this round or an earlier one, ends on that shot.  ``n_legs`` and
    ``failed_legs`` count every leg the solve reads: the starts, the
    trials, and the Jacobian columns of each iteration, those an adopting
    descent read before it adopted included.  Columns traced with a leg
    that ends its descent are never read and count in neither.

    ``warm_start`` takes a known-good tangential parameter pair and replaces
    the start scan with that single start; the returned entry covector
    exposes the pair for reuse via ``gamma_in`` (its xi_t in the tangent
    basis at x_from).  ``boundary_distances`` runs many solves in lockstep.
    """
    return boundary_distances(m, [{
        "mode": mode, "x_from": x_from, "y_to": y_to, "tau": tau,
        "n_starts": n_starts, "n_refine": n_refine, "miss_tol": miss_tol,
        "warm_start": warm_start}], ctrl)[0]


# ---------------------------------------------------------------------------
# lens-map recovery experiment
# ---------------------------------------------------------------------------

@dataclass
class RecoveryRecord:
    """One mode of one probe; ``reverse`` is the leg traced back from
    ``event``, and dx, dxi, dt are its gaps to the probe."""

    probe: BoundaryCovector
    mode: str
    reverse: LensMapEntry
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
    recorded per probe) and likewise for the compressional map.  Each
    event is checked by the leg traced back in time from it, which must
    land on its probe: the gaps in position, tangential covector and time
    measure the integration error of the two legs together.  The transports
    of all probes and both modes are traced together, one batch per level,
    and the reversed legs as one more batch.  Errors are raised in the order
    a probe-by-probe loop would meet them.
    """
    modes = ("S", "P")
    runs = _transport(m, [(gamma, (mode,)) for gamma in probes
                          for mode in modes], depth, None, ctrl)
    firsts = [result.events[0] if error is None and result.events else None
              for result, error in runs]
    found = [ev for ev in firsts if ev is not None]
    traced = iter(_trace_legs(m, [ev.gamma for ev in found],
                              [ev.mode for ev in found], ctrl,
                              time_direction=-1))
    reverses = [None if ev is None else next(traced) for ev in firsts]
    records = []
    max_dx = max_dxi = max_dt = max_mute = 0.0
    min_sep = math.inf
    max_sep = 0.0
    for k, gamma in enumerate(probes):
        mute_res = muting_annihilation_check(m, gamma)
        max_mute = max(max_mute, mute_res)
        times = {}
        for j, mode in enumerate(modes):
            result, error = runs[len(modes) * k + j]
            if error is not None:
                raise error
            if not result.events:
                raise ElastorayError(f"no events for mode {mode} launch")
            event = result.events[0]
            back = reverses[len(modes) * k + j]
            if isinstance(back, ElastorayError):
                raise back
            dx = float(np.linalg.norm(back.gamma_out.x - gamma.x))
            dxi = float(np.linalg.norm(back.gamma_out.xi_t - gamma.xi_t))
            dt = abs(back.gamma_out.t - gamma.t)
            times[mode] = event.gamma.t
            max_dx = max(max_dx, dx)
            max_dxi = max(max_dxi, dxi)
            max_dt = max(max_dt, dt)
            records.append(RecoveryRecord(probe=gamma, mode=mode,
                                          reverse=back, event=event,
                                          dx=dx, dxi=dxi, dt=dt,
                                          mute_residual=mute_res))
        sep = abs(times["S"] - times["P"])
        min_sep = min(min_sep, sep)
        max_sep = max(max_sep, sep)
    return RecoveryReport(records=records, max_dx=max_dx, max_dxi=max_dxi,
                          max_dt=max_dt, max_mute_residual=max_mute,
                          min_mode_separation=float(min_sep),
                          max_mode_separation=float(max_sep))
