"""Lockstep distance solves against the sequential solve they replaced.

The frozen sequential solve runs its refine descents one after another;
a later descent ends on a shot an earlier one converged to.  The lockstep
solve runs them together, and a descent ends on a shot any other descent
has converged to by the time it computes its next iterate, so with
adoption on cold solves meet a stated contract instead of matching
bitwise: the same ``connected``, distances within 10 ``miss_tol``, and
every connected miss within ``miss_tol``.  With adoption off
(``_SHOOT_SAME_RAY`` < 0) cold solves match bitwise, ``n_legs`` and
``failed_legs`` included.  Warm solves have one descent, so nothing can
be adopted and they match bitwise either way, as does every solve batched
with others against its solo call.
"""

import math
from collections import Counter

import numpy as np
import pytest

import elastoray as er
from elastoray import rays


# ------------------------------ differential: the replaced sequential solve

# Frozen copy of ``boundary_distance`` as it was before solves ran in
# lockstep: it traces its legs one or two at a time, counts every leg it
# traces and takes each Jacobian in a round of its own.

def _ref_starts(m, mode, x0, tau, n_starts):
    # tangential parameters of the cold starts, spread over the hyperbolic
    # disk at x0
    nu = m.domain.normal(x0)
    e1, e2 = m.domain.tangent_basis(x0)
    starts = [np.zeros(2)]
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(max(n_starts - 1, 0)):
        ang = k * golden
        u = math.cos(ang) * e1 + math.sin(ang) * e2
        r_hyp = rays._hyperbolic_radius(m, mode, x0, nu, u, tau)
        frac = math.sqrt((k + 0.5) / max(n_starts - 1, 1)) * 0.93
        starts.append(frac * r_hyp * np.array([math.cos(ang),
                                               math.sin(ang)]))
    return starts


def _ref_boundary_distance(m, mode, x_from, y_to, tau=1.0, n_starts=64,
                           n_refine=3, ctrl=None, miss_tol=1e-9,
                           warm_start=None):
    x0 = m.domain.radial_project(np.asarray(x_from, dtype=np.float64))
    y1 = m.domain.radial_project(np.asarray(y_to, dtype=np.float64))
    if np.linalg.norm(x0 - y1) < 1e-12:
        raise er.DistanceError("endpoints coincide")
    nu = m.domain.normal(x0)
    e1, e2 = m.domain.tangent_basis(x0)
    n_legs = 0
    failed = {}

    def shoot_all(ws):
        nonlocal n_legs
        n_legs += len(ws)
        gammas = [er.BoundaryCovector(t=0.0, x=x0, tau=float(tau),
                                      xi_t=w[0] * e1 + w[1] * e2, nu=nu)
                  for w in ws]
        shots = []
        for w, entry in zip(ws, rays._trace_legs(m, gammas, [mode] * len(ws),
                                                 ctrl)):
            if isinstance(entry, er.ElastorayError):
                name = type(entry).__name__
                failed[name] = failed.get(name, 0) + 1
                shots.append(None)
                continue
            vec = entry.gamma_out.x - y1
            shots.append((entry, float(np.linalg.norm(vec)), w, vec))
        return shots

    if warm_start is not None:
        starts = [np.asarray(warm_start, dtype=np.float64)]
    else:
        starts = _ref_starts(m, mode, x0, tau, n_starts)

    def better(cand, incumbent):
        if incumbent is None:
            return True
        hit_c = cand[1] <= miss_tol
        hit_i = incumbent[1] <= miss_tol
        if hit_c and hit_i:
            return cand[0].travel_time < incumbent[0].travel_time
        if hit_c != hit_i:
            return hit_c
        return cand[1] < incumbent[1]

    converged = []

    def descend(shot):
        for _ in range(rays._SHOOT_MAX_ITER):
            _, miss, w, vec = shot
            if miss <= miss_tol * 0.3:
                break
            h = 1e-7 * max(1.0, float(np.linalg.norm(w)))
            cols = shoot_all([w + h * unit for unit in np.eye(2)])
            if any(col is None for col in cols):
                break
            jac = np.stack([(col[3] - vec) / h for col in cols], axis=-1)
            step, *_ = np.linalg.lstsq(jac, -vec, rcond=None)
            for prior in converged:
                gap = float(np.linalg.norm(w + step - prior[2]))
                if gap <= rays._SHOOT_SAME_RAY * max(
                        1.0, float(np.linalg.norm(prior[2]))):
                    return prior
            for k in range(rays._SHOOT_MAX_HALVINGS + 1):
                trial = shoot_all([w + 0.5 ** k * step])[0]
                if trial is not None and trial[1] < miss:
                    break
            else:
                break
            shot = trial
        return shot

    scanned = [(shot[1], i, shot) for i, shot in enumerate(shoot_all(starts))
               if shot is not None]
    scanned.sort(key=lambda item: item[:2])
    best = None
    for _, _, start in scanned[:max(n_refine, 1)]:
        shot = descend(start)
        if shot[1] <= miss_tol * 0.3 and not any(shot is c for c in converged):
            converged.append(shot)
        if better(shot, best):
            best = shot

    failed_legs = dict(sorted(failed.items()))
    if best is not None and best[1] <= miss_tol:
        entry, miss = best[:2]
        return er.DistanceResult(distance=entry.travel_time, mode=mode,
                                 gamma_in=entry.gamma_in,
                                 gamma_out=entry.gamma_out, miss=miss,
                                 n_legs=n_legs, failed_legs=failed_legs)
    if best is None:
        miss, message = math.inf, ("no ray from any start reached the "
                                   "boundary near the target")
    else:
        miss = best[1]
        message = f"best boundary miss {miss:.2e} above {miss_tol:.0e}"
    return er.DistanceResult(distance=math.inf, mode=mode, gamma_in=None,
                             gamma_out=None, miss=miss, n_legs=n_legs,
                             connected=False, message=message,
                             failed_legs=failed_legs)


def _same_covector(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (a.t == b.t and a.tau == b.tau
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("x", "xi_t", "nu")))


def _assert_same(got, want, counts=True):
    keys = ("distance", "miss", "connected", "message", "mode")
    for key in keys + (("n_legs", "failed_legs") if counts else ()):
        assert getattr(got, key) == getattr(want, key), key
    assert _same_covector(got.gamma_in, want.gamma_in)
    assert _same_covector(got.gamma_out, want.gamma_out)


def _assert_contract(got, want, miss_tol=1e-9):
    # what a cold solve with adoption keeps of the sequential solve's result
    assert got.connected == want.connected
    if got.connected:
        assert abs(got.distance - want.distance) <= 10 * miss_tol
        assert got.miss <= miss_tol


def _better(cand, incumbent, miss_tol=1e-9):
    # the solve's own rule, on results: below miss_tol the travel time
    # decides, above it the miss does, and ties keep the incumbent
    if incumbent is None:
        return True
    hit_c = cand.miss <= miss_tol
    hit_i = incumbent.miss <= miss_tol
    if hit_c and hit_i:
        return cand.distance < incumbent.distance
    if hit_c != hit_i:
        return hit_c
    return cand.miss < incumbent.miss


@pytest.fixture()
def rounds(monkeypatch):
    """Counts the traced batches (rounds) of legs."""
    calls = []
    trace_legs = rays._trace_legs

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return trace_legs(*args, **kwargs)

    monkeypatch.setattr(rays, "_trace_legs", counted)
    return calls


def _pairs(m, n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        x0, y = m.domain.sample_boundary(2, rng)
        if 0.6 <= np.linalg.norm(y - x0) <= 1.8:
            pairs.append((x0, y))
    return pairs


def _warm_start(m, res):
    e1, e2 = m.domain.tangent_basis(res.gamma_in.x)
    return np.array([res.gamma_in.xi_t @ e1, res.gamma_in.xi_t @ e2])


def _scan(m, job):
    # a cold job's start scan: the tangential parameters of the starts whose
    # legs reach the boundary, by miss and then start index, and the scan's
    # failed legs by exception class name
    x0, y1 = (m.domain.radial_project(np.asarray(job[k], dtype=np.float64))
              for k in ("x_from", "y_to"))
    ws = _ref_starts(m, job["mode"], x0, 1.0, job["n_starts"])
    e1, e2 = m.domain.tangent_basis(x0)
    fan = [er.BoundaryCovector(t=0.0, x=x0, tau=1.0,
                               xi_t=w[0] * e1 + w[1] * e2,
                               nu=m.domain.normal(x0)) for w in ws]
    misses = []
    failed = Counter()
    for i, out in enumerate(rays._trace_legs(m, fan,
                                             [job["mode"]] * len(fan))):
        if isinstance(out, er.ElastorayError):
            failed[type(out).__name__] += 1
        else:
            misses.append((float(np.linalg.norm(out.gamma_out.x - y1)), i))
    return [ws[i] for _, i in sorted(misses)], failed


def _solo_and_batched(m, jobs, rounds):
    # each job solved alone, then all in one call: the batch takes its
    # longest solve's rounds and returns the solo results bitwise; returns
    # the solo results and their rounds
    solo = []
    solo_rounds = []
    for job in jobs:
        rounds.clear()
        solo.append(rays.boundary_distance(m, **job))
        solo_rounds.append(len(rounds))
    rounds.clear()
    batched = rays.boundary_distances(m, jobs)
    assert len(rounds) == max(solo_rounds)
    assert len(batched) == len(jobs)
    for got, alone in zip(batched, solo):
        _assert_same(got, alone)
    return solo, solo_rounds


@pytest.mark.parametrize("name,n_pairs", [("constant_stress", 3),
                                          ("gaussian_bump", 2)])
def test_lockstep_solves_match_sequential_solve(name, n_pairs, media_dir,
                                                rounds, monkeypatch):
    m = er.load_medium(media_dir / f"{name}.json")
    jobs = [{"mode": mode, "x_from": x0, "y_to": y, "n_starts": 12}
            for x0, y in _pairs(m, n_pairs, seed=len(name))
            for mode in "SP"]
    # without adoption every cold solve is the sequential one, bitwise
    with monkeypatch.context() as mp:
        mp.setattr(rays, "_SHOOT_SAME_RAY", -1.0)
        want = [_ref_boundary_distance(m, **job) for job in jobs]
        solo, unadopted_rounds = _solo_and_batched(m, jobs, rounds)
        for got, ref in zip(solo, want):
            assert ref.connected
            _assert_same(got, ref)
    # with it, they keep the contract, and adoption only ends descents
    want = [_ref_boundary_distance(m, **job) for job in jobs]
    solo, solo_rounds = _solo_and_batched(m, jobs, rounds)
    for got, ref in zip(solo, want):
        assert ref.connected
        _assert_contract(got, ref)
    assert all(a <= b for a, b in zip(solo_rounds, unadopted_rounds))

    # warm starts from the converged entries, at nearby targets as in the
    # generating-function check, plus a warm start outside the hyperbolic
    # disk (every leg raises) and an unreachable miss tolerance
    warm = []
    for job, res in zip(jobs, want):
        y = job["y_to"] + 1e-4 * m.domain.tangent_basis(job["y_to"])[0]
        warm.append({**job, "y_to": m.domain.radial_project(y),
                     "warm_start": _warm_start(m, res)})
    warm.append({**jobs[0], "warm_start": [5.0, 0.0]})
    warm.append({**jobs[1], "n_starts": 4, "n_refine": 1, "miss_tol": 1e-18})
    want = [_ref_boundary_distance(m, **job) for job in warm]
    solo, _ = _solo_and_batched(m, warm, rounds)
    for got, ref in zip(solo, want):
        _assert_same(got, ref)
    assert want[-2].failed_legs == {"EvanescentModeError": 1}
    assert want[-2].n_legs == 1
    assert not want[-1].connected


def test_warm_solve_takes_three_rounds(media_dir, rounds):
    # a warm start, then two accepted Gauss-Newton steps: the sequential
    # solve traces the start, then a Jacobian pair and a trial per step
    m = er.load_medium(media_dir / "gaussian_bump.json")
    (x0, y), = _pairs(m, 1, seed=808)
    base = rays.boundary_distance(m, "S", x0, y, n_starts=10, n_refine=1)
    assert base.connected
    target = m.domain.radial_project(y + 1e-4 * m.domain.tangent_basis(y)[1])
    job = {"mode": "S", "x_from": x0, "y_to": target,
           "warm_start": _warm_start(m, base)}
    rounds.clear()
    want = _ref_boundary_distance(m, **job)
    assert rounds == [1, 2, 1, 2, 1]
    rounds.clear()
    _assert_same(rays.boundary_distance(m, **job), want)
    assert rounds == [3, 3, 3]
    assert want.n_legs == 7


def test_coinciding_endpoints_trace_no_leg(constant_medium, rounds):
    south = np.array([0.0, 0.0, -1.0])
    jobs = [{"mode": "S", "x_from": south, "y_to": np.array([1.0, 0.0, 0.0])},
            {"mode": "P", "x_from": south, "y_to": south}]
    with pytest.raises(er.DistanceError):
        rays.boundary_distances(constant_medium, jobs)
    assert rounds == []
    assert rays.boundary_distances(constant_medium, []) == []


def test_later_descent_adopts_earlier_shot(media_dir, monkeypatch):
    # cold solves in which a descent heads for the shot another one has
    # converged to: it ends there, and the solve keeps the contract
    m = er.load_medium(media_dir / "constant_stress.json")
    (x0, y), = _pairs(m, 1, seed=2)
    jobs = [{"mode": mode, "x_from": x0, "y_to": y, "n_starts": 12}
            for mode in "SP"]
    want = [_ref_boundary_distance(m, **job) for job in jobs]
    got = rays.boundary_distances(m, jobs)
    for res, ref in zip(got, want):
        assert ref.connected
        _assert_contract(res, ref)
    # adoption fired: with it switched off every descent runs to its end
    # and each solve reads more legs, in both solves alike.  The counts
    # include the legs the adopting descents read before they adopted.
    assert [res.n_legs for res in got] == [61, 58]
    monkeypatch.setattr(rays, "_SHOOT_SAME_RAY", -1.0)
    for job, res in zip(jobs, got):
        unadopted = _ref_boundary_distance(m, **job)
        _assert_same(rays.boundary_distance(m, **job), unadopted)
        assert unadopted.n_legs > res.n_legs


def test_cold_solve_waits_on_its_longest_descent(media_dir, rounds,
                                                 monkeypatch):
    # the refine descents run in lockstep, so a cold solve takes the start
    # scan's round plus the rounds of its longest descent.  A warm start
    # from a descent's start traces it with its Jacobian legs, so a warm
    # solve from there takes the rounds of that descent alone.
    m = er.load_medium(media_dir / "constant_stress.json")
    (x0, y), = _pairs(m, 1, seed=2)
    job = {"mode": "S", "x_from": x0, "y_to": y, "n_starts": 12}
    starts, _ = _scan(m, job)
    descents = []
    with monkeypatch.context() as mp:
        mp.setattr(rays, "_SHOOT_SAME_RAY", -1.0)
        for w in starts[:3]:
            rounds.clear()
            rays.boundary_distance(m, **job, warm_start=w)
            descents.append(len(rounds))
        rounds.clear()
        rays.boundary_distance(m, **job)
        assert len(rounds) == 1 + max(descents)
    assert descents == [5, 6, 11]
    # with adoption the longest descent ends one round earlier, on another
    # descent's shot; the sequential solve waits on every descent in turn
    rounds.clear()
    rays.boundary_distance(m, **job)
    assert len(rounds) == 11
    rounds.clear()
    _ref_boundary_distance(m, **job)
    assert len(rounds) > 1 + sum(descents)


@pytest.mark.parametrize("name", ["constant_stress", "gaussian_bump"])
def test_cold_solve_is_best_warm_solve_from_its_starts(name, media_dir,
                                                       monkeypatch):
    # without adoption a cold solve is its start scan plus one descent from
    # each of its n_refine best starts, and a warm solve from a start is
    # that start's leg plus its descent: the cold result is the best warm
    # one, and it reads the scan and what each warm solve read past its
    # start
    monkeypatch.setattr(rays, "_SHOOT_SAME_RAY", -1.0)
    m = er.load_medium(media_dir / f"{name}.json")
    jobs = [{"mode": mode, "x_from": x0, "y_to": y, "n_starts": 12}
            for x0, y in _pairs(m, 2, seed=len(name) + 1) for mode in "SP"]
    for job, cold in zip(jobs, rays.boundary_distances(m, jobs)):
        starts, failed = _scan(m, job)
        warm = rays.boundary_distances(
            m, [{**job, "warm_start": w} for w in starts[:3]])
        best = None
        for res in warm:
            if _better(res, best):
                best = res
        _assert_same(cold, best, counts=False)
        assert cold.n_legs == job["n_starts"] + sum(res.n_legs - 1
                                                    for res in warm)
        for res in warm:
            failed.update(res.failed_legs)
        assert cold.failed_legs == dict(failed)
