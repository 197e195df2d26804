"""Batched ray engine: the fused Hamilton kernel and the DOP853 march.

A batch of legs is an (N, 6) state (x, xi) with one row per ray.  The
kernel evaluates the Hamilton field of H = tau^2 - g_mode(x, xi) for the
whole batch, S and P rows mixed, in one pass over the medium's fields.  The
march takes DOP853 steps (8th order): each ray keeps its own step size,
time cap and acceptance test (the local error estimate and an on-shell
drift monitor), and a ray that fails leaves the batch without disturbing
the others.  Exits are located together once every ray has crossed.

Rows are computed independently and in a fixed order: no reduction runs
over the batch axis and no BLAS call sums rows, so a ray traces bitwise
alike alone or in any batch.  This holds for the built-in field and stress
families; a user-defined field is evaluated through its own methods, which
must not mix rows either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GlancingExitError, MaxStepsError, StepControlError
from .medium import (ConstantField, ConstantStress, GaussianBumpField,
                     PotentialStress)

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): row i of _A builds
# stage i, _A[12] is the 8th-order solution and rows 13-15 the dense output's
# extra stages; _E5 and _E3 weigh the 5th- and 3rd-order error estimates and
# _D the last four coefficients of the 7th-order dense output
_A = (
    (), (0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = tuple(b - c for b, c in zip(_A[12], (
    0.2440944881889764, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0,
    0.022058823529411766)))
_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)

# rejected steps are counted by cause, in this order
REJECT_CAUSES = ("error", "drift", "entry")
# a located exit has |phi| <= EXIT_TOL
EXIT_TOL = 1e-12
# tangential launch or exit: normal velocity below TANGENT_TOL of the speed
TANGENT_TOL = 1e-6


def _dot3(a, b):
    """Row-wise dot product of (N, 3) arrays, summed term by term."""
    p = a * b
    return p[:, 0] + p[:, 1] + p[:, 2]


def _sq6(a):
    """Row-wise squared norm of an (N, 6) array, summed term by term."""
    q = a * a
    return q[:, 0] + q[:, 1] + q[:, 2] + q[:, 3] + q[:, 4] + q[:, 5]


def _combine(coefs, arrays):
    """sum_j c_j a_j over the nonzero c_j, accumulated in order."""
    acc = None
    for c, a in zip(coefs, arrays):
        if c:
            acc = c * a if acc is None else acc + c * a
    return acc


def _add(acc, term):
    return term if acc is None else acc + term


# ---------------------------------------------------------------------------
# fused Hamilton kernel
# ---------------------------------------------------------------------------

def _bump(center, width):
    """exp(-|x - c|^2 / (2 w^2)) and its gradient."""
    c = np.array(center)
    w2 = width * width

    def evaluate(x):
        d = x - c
        e = np.exp(-_dot3(d, d) / (2.0 * w2))
        return e, d * (-e / w2)[:, None]

    return evaluate


def _stress_term(stress):
    """x -> (R, dR or None), or None for a stress that vanishes."""
    if isinstance(stress, ConstantStress):
        r = np.array(stress.r)
        return (lambda x: (r, None)) if np.any(r) else None
    if isinstance(stress, PotentialStress):
        table = stress.table

        def evaluate(x):
            out = table(x)
            n = len(out)
            return (out[:, :9].reshape(n, 3, 3),
                    out[:, 9:].reshape(n, 3, 3, 3))

        return evaluate
    return lambda x: (stress.matrix(x), stress.derivative(x))


class Hamilton:
    """Fused Hamilton field of H = tau^2 - g_mode(x, xi) for a batch of rays.

    g = (a |xi|^2 + xi.R xi) / rho with a = mu on S rows and lam + 2 mu on
    P rows.  Each field contributes one term: constant fields fold into
    per-row constants, Gaussian bumps that share a center and width share
    one exp, and any other scalar field is evaluated through its own
    ``value_and_gradient`` (for a PolynomialField, one monomial table).  A
    constant stress is one matrix, a PotentialStress one monomial table for
    R and its derivative.  Calling the kernel maps an
    (N, 6) state to (F, g) with F = (-dg/dxi, dg/dx).
    """

    def __init__(self, m, is_p):
        const = np.zeros(3)              # weights in (a_S, a_P, rho)
        bumps = {}
        terms = []
        for fld, w in ((m.mu, (1.0, 2.0, 0.0)), (m.lam, (0.0, 1.0, 0.0)),
                       (m.rho, (0.0, 0.0, 1.0))):
            w = np.array(w)
            if isinstance(fld, ConstantField):
                const += fld.value * w
            elif isinstance(fld, GaussianBumpField):
                const += fld.base * w
                key = (tuple(fld.center.tolist()), fld.width)
                bumps[key] = bumps.get(key, 0.0) + fld.amplitude * w
            else:
                terms.append((fld.value_and_gradient, w))
        terms = [(_bump(*key), w) for key, w in bumps.items()] + terms
        weights = np.array([w for _, w in terms]).reshape(len(terms), 3)
        is_p = np.asarray(is_p, dtype=bool)
        self._terms = [(ev, bool(w[0] or w[1]), w[2])
                       for (ev, _), w in zip(terms, weights)]
        self._a0 = np.where(is_p, const[1], const[0])
        self._w_a = np.where(is_p[:, None], weights[:, 1], weights[:, 0])
        self._rho0 = const[2]
        self._stress = _stress_term(m.stress)

    def rows(self, idx):
        """The kernel of the sub-batch made of rows ``idx``."""
        sub = object.__new__(Hamilton)
        sub.__dict__.update(self.__dict__)
        sub._a0 = self._a0[idx]
        sub._w_a = self._w_a[idx]
        return sub

    def __call__(self, y):
        x = y[:, :3]
        xi = y[:, 3:]
        a, da = self._a0, None
        rho, drho = self._rho0, None
        for b, (evaluate, in_a, w_rho) in enumerate(self._terms):
            v, dv = evaluate(x)
            if in_a:
                w = self._w_a[:, b]
                a = a + w * v
                da = _add(da, w[:, None] * dv)
            if w_rho:
                rho = rho + w_rho * v
                drho = _add(drho, w_rho * dv)
        xx = _dot3(xi, xi)
        mxi = a[:, None] * xi
        num = a * xx
        dnum = None if da is None else da * xx[:, None]
        if self._stress is not None:
            r, dr = self._stress(x)
            if r.ndim == 2:
                rxi = xi[:, :1] * r[:, 0] + xi[:, 1:2] * r[:, 1] \
                    + xi[:, 2:] * r[:, 2]
            else:
                rxi = r[:, :, 0] * xi[:, :1] + r[:, :, 1] * xi[:, 1:2] \
                    + r[:, :, 2] * xi[:, 2:]
            mxi = mxi + rxi
            num = num + _dot3(xi, rxi)
            if dr is not None:
                # sum_ij dR_ij/dx_k xi_i xi_j, one index at a time
                t = dr[:, 0] * xi[:, 0, None, None] \
                    + dr[:, 1] * xi[:, 1, None, None] \
                    + dr[:, 2] * xi[:, 2, None, None]
                dnum = _add(dnum, t[:, 0] * xi[:, :1] + t[:, 1] * xi[:, 1:2]
                            + t[:, 2] * xi[:, 2:])
        g = num / rho
        if drho is not None:
            dnum = _add(dnum, -g[:, None] * drho)
        rho_c = rho[:, None] if np.ndim(rho) else rho
        out = np.empty((len(y), 6))
        out[:, :3] = (-2.0 / rho_c) * mxi          # dx/ds = -dg/dxi
        out[:, 3:] = 0.0 if dnum is None else dnum / rho_c   # dxi/ds = dg/dx
        return out, g


# ---------------------------------------------------------------------------
# the march
# ---------------------------------------------------------------------------

def dop853_step(kern, y, k1, h):
    """One DOP853 step of per-row size h from y, with k1 = f(y).

    Returns the 8th-order solution, the thirteen stage derivatives (the last
    one is f at the solution) and g at the solution.
    """
    hc = h[:, None]
    k = [k1]
    for i in range(1, 12):
        k.append(kern(y + hc * _combine(_A[i], k))[0])
    y8 = y + hc * _combine(_A[12], k)
    f8, g8 = kern(y8)
    return y8, k + [f8], g8


def _dense(kern, y, y8, h, k):
    """(N, 7, 3) coefficients of a step's 7th-order dense output of x."""
    hc = h[:, None]
    for i in range(13, 16):
        k = k + [kern(y + hc * _combine(_A[i], k))[0]]
    dy = y8 - y
    f = [dy, hc * k[0] - dy, 2.0 * dy - hc * (k[12] + k[0])]
    f += [hc * _combine(d, k) for d in _D]
    return np.stack([a[:, :3] for a in f], axis=1)


def _dense_x(x0, dense, theta):
    """x at per-row theta in [0, 1] on the dense output from x0."""
    th = theta[:, None]
    acc = dense[:, 6]
    for i in range(5, -1, -1):
        acc = dense[:, i] + (th if i % 2 else 1.0 - th) * acc
    return x0 + th * acc


class _Rows:
    """Per-ray arrays of a batch, all indexed alike."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def take(self, mask):
        return _Rows(**{name: a[mask] for name, a in vars(self).items()})

    @staticmethod
    def concat(parts):
        return _Rows(**{name: np.concatenate([vars(p)[name] for p in parts])
                        for name in vars(parts[0])})


@dataclass
class Leg:
    """A marched leg that exited or reached its time cap."""

    status: str            # "exited" or "time_capped"
    s_exit: float
    y_exit: np.ndarray
    drift_max: float
    n_steps: int
    rejected: dict
    samples: list | None = None


def _leg(rows, j, status):
    return Leg(status, float(rows.s[j]), rows.y[j], float(rows.drift_max[j]),
               int(rows.n_steps[j]), dict(zip(REJECT_CAUSES, rows.rej[j].tolist())))


def march(m, is_p, y0, tau, sgn, s_cap, ctrl, collect=False):
    """Integrate a batch of legs from the boundary to their next boundary hit.

    Row i starts on the boundary at y0[i] and marches in s with sign sgn[i]
    (sign(tau) for forward-in-time legs) until it exits or reaches s_cap[i]
    (+-inf for no cap).  Returns one Leg or ElastorayError per row.  A step
    costs a fixed number of array operations whatever the batch size; a
    ray's row leaves the arrays when the ray finishes or fails.
    """
    out = [None] * len(y0)
    kern_all = Hamilton(m, is_p)
    dom = m.domain
    f0, g0 = kern_all(y0)
    speed = np.sqrt(_dot3(f0[:, :3], f0[:, :3]))
    gphi = dom.grad_phi(y0[:, :3])
    tangential = (speed != 0.0) & (sgn * _dot3(gphi, f0[:, :3]) > (
        -TANGENT_TOL * np.sqrt(_dot3(gphi, gphi)) * speed))
    for i in np.flatnonzero(speed == 0.0):
        out[i] = StepControlError("zero ray speed at launch")
    for i in np.flatnonzero(tangential):
        out[i] = GlancingExitError("launch direction tangential to the boundary")

    ok = (speed != 0.0) & ~tangential
    n = int(ok.sum())
    # no step crosses more than half the shortest semi-axis at the launch
    # speed; the first step follows from the tolerances (II.4 of Hairer et al.)
    h_limit = 0.5 * float(np.min(dom.semi_axes)) / speed[ok]
    kern = kern_all.rows(np.flatnonzero(ok))
    y, f = y0[ok], f0[ok]
    scale = ctrl.atol + ctrl.rtol * np.abs(y)
    d0, d1 = (np.sqrt(_sq6(a / scale) / 6.0) for a in (y, f))
    h0 = np.minimum(np.where(np.minimum(d0, d1) < 1e-5, 1e-6, 0.01 * d0 / d1),
                    h_limit)
    df = kern(y + (sgn[ok] * h0)[:, None] * f)[0] - f
    d12 = np.maximum(d1, np.sqrt(_sq6(df / scale) / 6.0) / h0)
    h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, 1e-3 * h0),
                  (0.01 / np.maximum(d12, 1e-15)) ** 0.125)
    tau2 = tau[ok] * tau[ok]
    rows = _Rows(ids=np.flatnonzero(ok), y=y, k1=f, tau2=tau2,
                 sgn=sgn[ok], s=np.zeros(n), s_cap=s_cap[ok],
                 h=sgn[ok] * np.minimum(np.minimum(100.0 * h0, h1), h_limit),
                 h_limit=h_limit,
                 entered=np.zeros(n, dtype=bool),
                 drift_max=np.abs(tau2 - g0[ok]) / tau2,
                 n_steps=np.zeros(n, dtype=np.int64),
                 rej=np.zeros((n, 3), dtype=np.int64))
    history = [(rows.ids, rows.s, rows.y)] if collect else None
    crossings = []

    for _ in range(ctrl.max_steps):
        if not len(rows.ids):
            break
        capped = rows.sgn * (rows.s + rows.h) >= rows.sgn * rows.s_cap
        rows.h = np.where(capped, rows.s_cap - rows.s, rows.h)
        done = capped & (np.abs(rows.h) < 1e-16 * np.maximum(
            np.abs(rows.s_cap), 1.0))
        if done.any():
            for j in np.flatnonzero(done):
                out[rows.ids[j]] = _leg(rows, j, "time_capped")
            rows, capped = rows.take(~done), capped[~done]
            kern = kern_all.rows(rows.ids)
            if not len(rows.ids):
                break

        y8, k, g8 = dop853_step(kern, rows.y, rows.k1, rows.h)
        scale = ctrl.atol + ctrl.rtol * np.maximum(np.abs(rows.y), np.abs(y8))
        # the 5th-order estimate, damped where the 3rd-order one is small
        n5, n3 = (_sq6(rows.h[:, None] * _combine(e, k) / scale)
                  for e in (_E5, _E3))
        err_norm = n5 / np.sqrt(6.0 * np.maximum(n5 + 0.01 * n3, 1e-300))
        drift = np.abs(rows.tau2 - g8) / rows.tau2
        with np.errstate(divide="ignore"):
            fac = 0.9 * err_norm ** -0.125
        bad_err = err_norm > 1.0
        bad_drift = ~bad_err & (drift > ctrl.drift_tol)
        accepted = ~(bad_err | bad_drift)
        crossed = accepted & (dom.phi(y8[:, :3]) >= 0.0)
        exited = crossed & rows.entered
        no_entry = crossed & ~rows.entered
        advance = accepted & ~crossed
        rows.n_steps += advance | exited
        rows.rej += np.stack([bad_err, bad_drift, no_entry], axis=1)

        # rejected and failed-entry steps shrink, advancing ones grow
        h = rows.h * np.where(advance, np.minimum(5.0, fac),
                              np.where(bad_err, np.maximum(0.2, fac), 0.5))
        h = np.where(advance, rows.sgn * np.minimum(np.abs(h), rows.h_limit),
                     h)
        tiny = np.abs(h) < 1e-14 * rows.h_limit
        underflow = ~accepted & tiny
        glanced = no_entry & tiny
        finished = advance & capped
        if exited.any():
            c = rows.take(exited)
            k_c = [kj[exited] for kj in k]
            c.y8, c.f8, c.g8 = y8[exited], k_c[12], g8[exited]
            c.dense = _dense(kern.rows(np.flatnonzero(exited)), c.y, c.y8,
                             c.h, k_c)
            crossings.append(c)

        step = advance[:, None]
        rows.s = np.where(advance, rows.s + rows.h, rows.s)
        rows.y = np.where(step, y8, rows.y)
        rows.k1 = np.where(step, k[12], rows.k1)
        rows.drift_max = np.where(advance, np.maximum(rows.drift_max, drift),
                                  rows.drift_max)
        rows.entered = rows.entered | advance
        rows.h = h
        if history is not None and advance.any():
            history.append((rows.ids[advance], rows.s[advance],
                            rows.y[advance]))

        gone = underflow | glanced | finished | exited
        if gone.any():
            for j in np.flatnonzero(underflow):
                out[rows.ids[j]] = StepControlError(
                    "step size underflow during drift control")
            for j in np.flatnonzero(glanced):
                out[rows.ids[j]] = GlancingExitError(
                    "ray failed to enter the domain")
            for j in np.flatnonzero(finished):
                out[rows.ids[j]] = _leg(rows, j, "time_capped")
            rows = rows.take(~gone)
            kern = kern_all.rows(rows.ids)

    for i in rows.ids:
        out[i] = MaxStepsError(f"no boundary hit within {ctrl.max_steps} steps")
    if crossings:
        _locate_exits(kern_all, dom, _Rows.concat(crossings), out)
    if history is not None:
        ids, s_all, y_all = (np.concatenate(part) for part in zip(*history))
        for i, leg in enumerate(out):
            if isinstance(leg, Leg):
                mine = ids == i
                leg.samples = list(zip(s_all[mine].tolist(), y_all[mine]))
                if leg.status == "exited":
                    leg.samples.append((leg.s_exit, leg.y_exit))
    return out


def _locate_exits(kern_all, dom, c, out):
    """Refine the boundary crossings of the steps in ``c``, all together.

    An Illinois-modified regula falsi finds the crossing on each step's
    dense output.  Exact substeps from the step's start then polish it,
    each placed by a secant on phi clipped into the bracket, until |phi| is
    within EXIT_TOL; the returned state so carries full integration accuracy.
    """
    n = len(c.ids)
    x0 = c.y[:, :3]
    phi_start = dom.phi(x0)
    lo, hi = np.zeros(n), np.ones(n)
    f_lo, f_hi = phi_start, dom.phi(c.y8[:, :3])
    side = np.zeros(n)
    theta = np.ones(n)
    live = np.ones(n, dtype=bool)
    for _ in range(100):
        cand = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_c = dom.phi(_dense_x(x0, c.dense, cand))
        theta = np.where(live, cand, theta)
        live &= (np.abs(f_c) > 1e-3 * EXIT_TOL) & (hi - lo > 1e-15)
        if not live.any():
            break
        below = f_c < 0.0
        # Illinois: halve the far end's value when the same end moves twice
        f_hi = np.where(below & (side < 0), 0.5 * f_hi, f_hi)
        f_lo = np.where(~below & (side > 0), 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(below, cand, lo), np.where(below, f_c, f_lo)
        hi, f_hi = np.where(below, hi, cand), np.where(below, f_hi, f_c)
        side = np.where(below, -1.0, 1.0)

    # exact-substep polish: eta in (0, h], phi(0) < 0 <= phi(h)
    h = c.h
    eta = theta * h
    eta_lo, eta_hi = np.zeros(n), h.copy()
    prev_eta, prev_phi = np.zeros(n), phi_start.copy()
    best_eta, best_y, best_g = h.copy(), c.y8.copy(), c.g8.copy()
    best_f, best_phi = c.f8.copy(), dom.phi(c.y8[:, :3])
    live = np.ones(n, dtype=bool)
    for _ in range(80):
        idx = np.flatnonzero(live)
        if not len(idx):
            break
        e = eta[idx]
        y_e, k, g_e = dop853_step(kern_all.rows(c.ids[idx]), c.y[idx],
                                  c.k1[idx], e)
        p = dom.phi(y_e[:, :3])
        better = np.abs(p) < np.abs(best_phi[idx])
        j = idx[better]
        best_eta[j], best_y[j], best_g[j] = e[better], y_e[better], g_e[better]
        best_f[j], best_phi[j] = k[12][better], p[better]
        below = p < 0.0
        lo = np.where(below, e, eta_lo[idx])
        hi = np.where(below, eta_hi[idx], e)
        e0, p0 = prev_eta[idx], prev_phi[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = np.where(p != p0, e - p * (e - e0) / (p - p0), np.nan)
        inside = ((np.minimum(np.abs(lo), np.abs(hi)) < np.abs(cand))
                  & (np.abs(cand) < np.maximum(np.abs(lo), np.abs(hi))))
        eta[idx] = np.where(inside, cand, 0.5 * (lo + hi))
        eta_lo[idx], eta_hi[idx] = lo, hi
        prev_eta[idx], prev_phi[idx] = e, p
        live[idx[(np.abs(p) <= EXIT_TOL)
                 | (np.abs(hi - lo) < 1e-16 * np.abs(h[idx]))]] = False

    gphi = dom.grad_phi(best_y[:, :3])
    glancing = np.abs(_dot3(gphi, best_f[:, :3])) < (
        TANGENT_TOL * np.sqrt(_dot3(gphi, gphi))
        * np.sqrt(_dot3(best_f[:, :3], best_f[:, :3])))
    c.s, c.y = c.s + best_eta, best_y
    c.drift_max = np.maximum(c.drift_max, np.abs(c.tau2 - best_g) / c.tau2)
    for j in range(n):
        out[c.ids[j]] = (GlancingExitError("ray leaves the domain tangentially")
                         if glancing[j] else _leg(c, j, "exited"))
