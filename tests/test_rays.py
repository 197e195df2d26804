"""Bicharacteristic tracing, lens maps, reflection, transport, distances,
and the lens-map recovery experiment."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import elastoray as er
from elastoray import engine, rays
from elastoray.boundary import (GLANCING_TOL, ModeRoots, forward_roots,
                                mode_quadratics)
from elastoray.engine import Hamilton

SOUTH = np.array([0.0, 0.0, -1.0])
SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def chord_fan(m, n, seed, tau=1.0):
    rng = np.random.default_rng(seed)
    return er.probe_fan(m, n, rng, tau=tau)


# ------------------------------------------------------------- single legs

def test_diametral_shear_leg(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, SOUTH, 1.0, np.zeros(3))
    entry = er.trace_leg(constant_medium, g, "S")
    assert_allclose(entry.gamma_out.x, [0.0, 0.0, 1.0], atol=1e-9)
    assert entry.travel_time == pytest.approx(2.0, abs=1e-10)
    assert entry.gamma_out.tau == g.tau  # never integrated
    assert entry.drift_max <= 1e-9


def test_diametral_compressional_leg(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, SOUTH, 1.0, np.zeros(3))
    entry = er.trace_leg(constant_medium, g, "P")
    assert entry.travel_time == pytest.approx(2.0 / SQ3, abs=1e-10)


def test_45_degree_chord(constant_medium):
    g = er.incidence_covector(constant_medium, SOUTH, "S", np.deg2rad(45.0),
                              direction=np.array([1.0, 0.0, 0.0]))
    entry = er.trace_leg(constant_medium, g, "S")
    assert_allclose(entry.gamma_out.x, [1.0, 0.0, 0.0], atol=1e-9)
    assert entry.travel_time == pytest.approx(SQ2, abs=1e-9)
    assert entry.gamma_out.xi_t_norm == pytest.approx(np.sin(np.deg2rad(45.0)),
                                                      rel=1e-9)


def test_incidence_covector_magnitude(constant_medium):
    th = np.deg2rad(30.0)
    g = er.incidence_covector(constant_medium, SOUTH, "P", th, tau=2.0)
    assert g.xi_t_norm == pytest.approx(2.0 * np.sin(th) / SQ3, rel=1e-12)


def test_trace_collects_dense_samples(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, SOUTH, 1.0, np.zeros(3))
    entry = er.trace_leg(constant_medium, g, "S", collect=True)
    samples = np.asarray(entry.samples)
    assert samples.shape[1] == 8  # (s, t, x1..x3, xi1..xi3)
    assert np.all(np.diff(samples[:, 0]) > 0)
    assert samples[0, 1] == pytest.approx(0.0)
    assert_allclose(samples[0, 2:5], SOUTH, atol=1e-12)
    assert samples[-1, 1] == pytest.approx(entry.travel_time, abs=1e-10)


def test_evanescent_mode_rejected(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, SOUTH, 1.5,
                             np.array([1.0, 0.0, 0.0]))
    with pytest.raises(er.EvanescentModeError):
        er.trace_leg(constant_medium, g, "P")  # mixed region: P elliptic


def test_glancing_launch_rejected(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, SOUTH, SQ3,
                             np.array([1.0, 0.0, 0.0]))
    with pytest.raises(er.GlancingError):
        er.trace_leg(constant_medium, g, "P")


def test_launch_beside_a_glancing_mode(media_dir):
    # at the P hyperbolic radius S is hyperbolic and P glancing: the S leg
    # launches from its own roots, the P leg is refused
    m = er.load_medium(media_dir / "constant.json")
    x = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    nu = m.domain.normal(x)
    r_p = rays._hyperbolic_radius(m, "P", x, nu, u, 1.0)
    g = er.BoundaryCovector(t=0.0, x=x, tau=1.0, xi_t=r_p * u, nu=nu)
    label = er.classify(m, g)
    assert (label.s_label, label.p_label) == ("hyperbolic", "glancing")
    entry = er.trace_leg(m, g, "S")
    chord = np.linalg.norm(entry.gamma_out.x - x)
    c_s = np.sqrt(float(m.mu(x)) / float(m.rho(x)))
    assert entry.travel_time == pytest.approx(chord / c_s, abs=1e-10)
    with pytest.raises(er.GlancingError):
        er.trace_leg(m, g, "P")


def test_null_covector_launch_is_evanescent(constant_medium):
    # at tau = 0 both modes are elliptic and their selected covectors are
    # analytically null: char_roots refuses the covector, while a launch
    # reads only that its own mode is evanescent
    x = np.array([0.0, 0.0, 1.0])
    g = er.BoundaryCovector(t=0.0, x=x, tau=0.0, xi_t=np.array([3.0, 0.0, 0.0]),
                            nu=constant_medium.domain.normal(x))
    label = er.classify(constant_medium, g)
    assert (label.s_label, label.p_label) == ("elliptic", "elliptic")
    with pytest.raises(er.SingularResidueError):
        er.char_roots(constant_medium, g)
    for mode in ("S", "P"):
        with pytest.raises(er.EvanescentModeError):
            er.trace_leg(constant_medium, g, mode)


def test_tangential_state_rejected(constant_medium):
    # a boundary state whose velocity is tangent to the boundary cannot exit
    x = np.array([0.0, 0.0, 1.0])
    state = er.RayState(t=0.0, x=x, xi=np.array([1.0, 0.0, 0.0]), tau=1.0,
                        mode="S")
    with pytest.raises(er.GlancingExitError):
        er.trace_state(constant_medium, state)


def test_max_steps_enforced(bump_medium):
    g = er.boundary_covector(bump_medium, 0.0, SOUTH, 1.0, np.zeros(3))
    with pytest.raises(er.MaxStepsError):
        er.trace_leg(bump_medium, g, "S", ctrl=er.StepControl(max_steps=3))


# --------------------------------------------------------------- conservation

def test_drift_and_exact_frequency(bump_medium, stressed_medium):
    for m in (bump_medium, stressed_medium):
        for g in chord_fan(m, 10, seed=41):
            for mode in ("S", "P"):
                entry = er.trace_leg(m, g, mode)
                assert entry.drift_max <= 1e-9
                assert entry.gamma_out.tau == g.tau
                assert entry.gamma_out.t == pytest.approx(
                    g.t + entry.travel_time, abs=1e-12)


@pytest.mark.parametrize("name", ["gaussian_bump", "potential_stress"])
def test_legs_match_tight_tolerance_legs(name, media_dir):
    # the default step control is within 5e-11 of a far tighter one
    m = er.load_medium(media_dir / f"{name}.json")
    gammas = [g for g in chord_fan(m, 8, seed=3) for _ in "SP"]
    modes = ["S", "P"] * 8
    tight = er.StepControl(rtol=1e-14, atol=1e-16)
    for a, b in zip(rays._trace_legs(m, gammas, modes),
                    rays._trace_legs(m, gammas, modes, tight)):
        assert abs(a.travel_time - b.travel_time) <= 5e-11
        assert np.abs(a.gamma_out.x - b.gamma_out.x).max() <= 5e-11


def test_near_grazing_exits_land_on_the_boundary(media_dir):
    # launches just inside each mode's hyperbolic radius leave along short,
    # curved chords: the exit move puts every one on the boundary to
    # rounding, and still within 5e-11 of a far tighter step control
    m = er.load_medium(media_dir / "gaussian_bump.json")
    gammas, modes = [], []
    for g in chord_fan(m, 8, seed=5):
        u = g.xi_t / np.linalg.norm(g.xi_t)
        for mode in "SP":
            r = rays._hyperbolic_radius(m, mode, g.x, g.nu, u, g.tau)
            for frac in (0.99, 0.999, 0.9999, 0.99999):
                gammas.append(er.BoundaryCovector(t=g.t, x=g.x, tau=g.tau,
                                                  xi_t=frac * r * u, nu=g.nu))
                modes.append(mode)
    states = rays._launch_states(m, gammas, modes)
    is_p = np.array([st.mode == "P" for st in states])
    y0 = np.array([np.concatenate([st.x, st.xi]) for st in states])
    tau = np.array([st.tau for st in states])
    sgn = np.sign(tau)
    legs, tight = (engine.march(m, is_p, y0, tau, sgn, sgn * np.inf, ctrl)
                   for ctrl in (er.StepControl(),
                                er.StepControl(rtol=1e-14, atol=1e-16)))
    assert all(leg.status == "exited" for leg in legs + tight)
    for a, b, t in zip(legs, tight, tau):
        assert abs(m.domain.phi(a.y_exit[None, :3])[0]) <= 1e-15
        assert abs(2.0 * t * (a.s_exit - b.s_exit)) <= 5e-11
        assert np.abs(a.y_exit[:3] - b.y_exit[:3]).max() <= 5e-11


def test_time_reversal(constant_medium, bump_medium):
    for m in (constant_medium, bump_medium):
        for g in chord_fan(m, 6, seed=43):
            entry = er.trace_leg(m, g, "S")
            back = er.trace_leg(m, entry.gamma_out, "S", time_direction=-1)
            assert np.linalg.norm(back.gamma_out.x - g.x) <= 1e-8
            assert back.travel_time == pytest.approx(-entry.travel_time,
                                                     abs=1e-8)


def test_straight_rays_in_constant_medium(constant_medium):
    for g in chord_fan(constant_medium, 8, seed=47):
        for mode, c in (("S", 1.0), ("P", SQ3)):
            entry = er.trace_leg(constant_medium, g, mode)
            chord = np.linalg.norm(entry.gamma_out.x - g.x)
            assert entry.travel_time == pytest.approx(chord / c, abs=1e-8)


# ----------------------------------------------------------------- lens maps

def test_lens_map_fan_times(constant_medium):
    gammas = [er.incidence_covector(constant_medium, SOUTH, "S", np.deg2rad(d),
                                    direction=np.array([1.0, 0.0, 0.0]))
              for d in (0.0, 30.0, 45.0)]
    entries, errors = er.lens_map_table(constant_medium, "S", gammas)
    assert errors == []
    times = [e.travel_time for e in entries]
    assert_allclose(times, [2.0, SQ3, SQ2], atol=1e-9)


def test_lens_map_homogeneity(constant_medium):
    g = er.incidence_covector(constant_medium, SOUTH, "S", np.deg2rad(30.0))
    k = 2.0
    g2 = er.BoundaryCovector(t=g.t, x=g.x, tau=k * g.tau, xi_t=k * g.xi_t,
                             nu=g.nu)
    e1 = er.trace_leg(constant_medium, g, "S")
    e2 = er.trace_leg(constant_medium, g2, "S")
    assert_allclose(e2.gamma_out.x, e1.gamma_out.x, atol=1e-9)
    assert e2.travel_time == pytest.approx(e1.travel_time, abs=1e-9)
    assert_allclose(e2.gamma_out.xi_t, k * e1.gamma_out.xi_t, atol=1e-9)


def test_lens_map_glancing_member_recorded(constant_medium):
    m = constant_medium
    good = er.incidence_covector(m, SOUTH, "P", np.deg2rad(20.0))
    grazing = er.incidence_covector(m, SOUTH, "P", np.deg2rad(90.0))
    entries, errors = er.lens_map_table(m, "P", [good, grazing, good],
                                        skip_errors=True)
    assert entries[0] is not None and entries[2] is not None
    assert entries[1] is None
    assert len(errors) == 1
    assert errors[0].startswith("probe 1:") and "Glancing" in errors[0]


# ---------------------------------------------------------------- reflection

def exit_state(m, gamma, mode):
    state = er.launch_state(m, gamma, mode)
    out, entry, status = er.trace_state(m, state)
    return out


def test_snell_30_degrees(constant_medium):
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(30.0))
    out = exit_state(m, g, "S")
    res = er.reflect(m, out)
    assert res.evanescent == [] and res.glancing == []
    by_mode = {s.mode: s for s in res.states}
    assert set(by_mode) == {"S", "P"}
    nu = m.domain.normal(out.x)
    for mode, c, want in (("S", 1.0, 30.0), ("P", SQ3, 60.0)):
        s = by_mode[mode]
        v = -s.xi / (s.tau / c ** 2)  # dx/dt for the conformal metric
        v /= np.linalg.norm(v)
        angle = np.degrees(np.arccos(np.clip(-(v @ nu), -1.0, 1.0)))
        assert angle == pytest.approx(want, abs=1e-8)


def test_snell_45_degrees_evanescent(constant_medium):
    # sqrt(3) sin45 > 1: the converted compressional branch is evanescent
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(45.0))
    res = er.reflect(m, exit_state(m, g, "S"))
    assert [s.mode for s in res.states] == ["S"]
    assert res.evanescent == ["P"]


def test_downconversion_always_real(constant_medium, rng):
    # an incident compressional leg always has a real converted shear branch
    m = constant_medium
    for theta in rng.uniform(5.0, 85.0, size=8):
        g = er.incidence_covector(m, SOUTH, "P", np.deg2rad(theta))
        res = er.reflect(m, exit_state(m, g, "P"))
        assert "S" in {s.mode for s in res.states}


def test_reflection_preserves_boundary_data(constant_medium):
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(30.0))
    out = exit_state(m, g, "S")
    res = er.reflect(m, out)
    nu = m.domain.normal(out.x)
    t_out = out.xi - (out.xi @ nu) * nu
    for s in res.states:
        assert s.t == out.t and s.tau == out.tau
        assert np.array_equal(s.x, res.states[0].x)
        t_ref = s.xi - (s.xi @ nu) * nu
        assert np.abs(t_ref - t_out).max() <= 1e-15


def test_reflect_glancing_incident_raises(constant_medium):
    m = constant_medium
    x = np.array([0.0, 0.0, 1.0])
    nu = m.domain.normal(x)
    u = np.array([1.0, 0.0, 0.0])
    r = er.rays._hyperbolic_radius(m, "P", x, nu, u, 1.0)
    state = er.RayState(t=0.0, x=x, xi=r * u - 0.3 * nu, tau=1.0, mode="P")
    with pytest.raises(er.GlancingError):
        er.reflect(m, state)


# ----------------------------------------------------------------- transport

def test_transport_depth_zero_equals_lens_map(constant_medium):
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(30.0))
    res = er.broken_transport(m, g, initial_modes=("S",), depth=0)
    assert len(res.events) == 1
    direct = er.trace_leg(m, g, "S")
    ev = res.events[0]
    assert ev.mode == "S" and ev.n_reflections == 0
    assert_allclose(ev.gamma.x, direct.gamma_out.x, atol=1e-12)
    assert ev.gamma.t == pytest.approx(direct.travel_time, abs=1e-12)


def test_transport_depth_one_three_events(constant_medium):
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(30.0))
    res = er.broken_transport(m, g, initial_modes=("S",), depth=1)
    assert len(res.events) == 3
    times = [ev.gamma.t for ev in res.events]
    assert times == sorted(times)
    # chords: sqrt(3) for the first S leg, then the converted P leg at 60
    # degrees (length 1, speed sqrt(3)) beats the reflected S leg
    assert_allclose(times, [SQ3, SQ3 + 1.0 / SQ3, 2.0 * SQ3], atol=1e-8)
    assert [ev.mode for ev in res.events] == ["S", "P", "S"]
    assert [ev.n_reflections for ev in res.events] == [0, 1, 1]
    assert [ev.order_index for ev in res.events] == [0, 1, 2]


def test_transport_compressional_arrives_first(constant_medium):
    m = constant_medium
    g = er.boundary_covector(m, 0.0, SOUTH, 1.0, np.zeros(3))
    res = er.broken_transport(m, g, initial_modes=("S", "P"), depth=0)
    assert res.events[0].mode == "P"
    assert res.events[0].gamma.t == pytest.approx(2.0 / SQ3, abs=1e-10)


def test_transport_time_cap(constant_medium):
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(30.0))
    res = er.broken_transport(m, g, initial_modes=("S",), depth=1,
                              t_max=3.0)
    assert len(res.events) == 2  # the late reflected-S arrival is cut off


def test_transport_deterministic(stressed_medium):
    m = stressed_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(25.0))
    r1 = er.broken_transport(m, g, depth=2)
    r2 = er.broken_transport(m, g, depth=2)
    assert len(r1.events) == len(r2.events)
    for a, b in zip(r1.events, r2.events):
        assert a.mode == b.mode and a.gamma.t == b.gamma.t
        assert np.array_equal(a.gamma.x, b.gamma.x)


# ----------------------------------------------------------------- distances

def test_boundary_distance_hand_values(constant_medium):
    y = np.array([1.0, 0.0, 0.0])
    res = er.boundary_distance(constant_medium, "S", SOUTH, y, n_starts=16,
                               n_refine=2)
    assert res.connected
    assert res.distance == pytest.approx(SQ2, abs=1e-8)
    assert res.miss <= 1e-9
    res_p = er.boundary_distance(constant_medium, "P", SOUTH, y, n_starts=16,
                                 n_refine=2)
    assert res_p.distance == pytest.approx(SQ2 / SQ3, abs=1e-8)


def test_boundary_distance_coinciding_endpoints(constant_medium):
    with pytest.raises(er.DistanceError):
        er.boundary_distance(constant_medium, "S", SOUTH, SOUTH)


def test_boundary_distance_not_connected_report(constant_medium,
                                                monkeypatch):
    # a miss above tolerance must be reported, not raised; with no
    # Gauss-Newton iteration the report is the start scan's best miss
    monkeypatch.setattr(rays, "_SHOOT_MAX_ITER", 0)
    y = np.array([1.0, 0.0, 0.0])
    res = er.boundary_distance(constant_medium, "S", SOUTH, y, n_starts=4,
                               n_refine=1, miss_tol=1e-18)
    assert not res.connected
    assert res.message != ""
    assert res.distance == np.inf
    # and costs no more legs than the capped iterations allow: per iteration
    # two Jacobian legs and at most one trial per step halving
    per_iter = 2 + rays._SHOOT_MAX_HALVINGS + 1
    assert res.n_legs <= 4 + rays._SHOOT_MAX_ITER * per_iter


def test_boundary_distance_closed_form_stressed(stressed_medium):
    # constant Lame parameters and stress: rays are chords d run at the
    # group velocity of g = xi.M xi, M = (a I + R) / rho, so the travel time
    # is sqrt(d.M^-1 d) with a = mu for S and lam + 2 mu for P
    m = stressed_medium
    rng = np.random.default_rng(4242)
    big_r = 0.1 * np.diag([1.0, 0.0, -1.0])
    worst = 0.0
    n_pairs = 0
    while n_pairs < 4:
        x0, y = m.domain.sample_boundary(2, rng)
        d = y - x0
        if not 0.6 <= np.linalg.norm(d) <= 1.8:
            continue
        n_pairs += 1
        for mode, a in (("S", 1.0), ("P", 3.0)):
            want = np.sqrt(d @ np.linalg.solve(a * np.eye(3) + big_r, d))
            res = er.boundary_distance(m, mode, x0, y, n_starts=16,
                                       n_refine=3)
            assert res.connected
            assert res.n_legs <= 120
            worst = max(worst, abs(res.distance - want) / want)
    assert worst <= 1e-9


def test_boundary_distance_counts_failed_legs(constant_medium):
    # a warm start beyond the hyperbolic disk launches no ray; the failed
    # leg is counted by exception class instead of vanishing
    y = np.array([1.0, 0.0, 0.0])
    res = er.boundary_distance(constant_medium, "S", SOUTH, y,
                               warm_start=[5.0, 0.0])
    assert not res.connected
    assert res.n_legs == 1
    assert res.failed_legs == {"EvanescentModeError": 1}


def test_generating_function_identity(constant_medium):
    # the boundary gradient of the distance recovers the exit covector:
    # grad_y d = -xi_out / tau along the boundary
    m = constant_medium
    x0 = SOUTH
    y = m.domain.radial_project(np.array([0.8, 0.3, 0.6]))
    base = er.boundary_distance(m, "S", x0, y, n_starts=16, n_refine=2)
    assert base.connected
    e1, e2 = m.domain.tangent_basis(x0)
    w0 = np.array([base.gamma_in.xi_t @ e1, base.gamma_in.xi_t @ e2])
    t1, t2 = m.domain.tangent_basis(y)
    h = 1e-4
    for tvec in (t1, t2):
        dm = er.boundary_distance(m, "S", x0, m.domain.radial_project(y - h * tvec),
                                  warm_start=w0)
        dp = er.boundary_distance(m, "S", x0, m.domain.radial_project(y + h * tvec),
                                  warm_start=w0)
        assert dm.connected and dp.connected
        slope = (dp.distance - dm.distance) / (2.0 * h)
        want = -(base.gamma_out.xi_t @ tvec) / base.gamma_out.tau
        assert slope == pytest.approx(want, rel=1e-3, abs=1e-6)


def test_generating_function_identity_bump(bump_medium):
    m = bump_medium
    x0 = SOUTH
    y = m.domain.radial_project(np.array([0.5, -0.4, 0.75]))
    base = er.boundary_distance(m, "S", x0, y, n_starts=16, n_refine=2)
    assert base.connected
    e1, e2 = m.domain.tangent_basis(x0)
    w0 = np.array([base.gamma_in.xi_t @ e1, base.gamma_in.xi_t @ e2])
    t1, _ = m.domain.tangent_basis(y)
    h = 1e-4
    dm = er.boundary_distance(m, "S", x0, m.domain.radial_project(y - h * t1),
                              warm_start=w0)
    dp = er.boundary_distance(m, "S", x0, m.domain.radial_project(y + h * t1),
                              warm_start=w0)
    slope = (dp.distance - dm.distance) / (2.0 * h)
    want = -(base.gamma_out.xi_t @ t1) / base.gamma_out.tau
    assert slope == pytest.approx(want, rel=1e-3, abs=1e-6)


# ------------------------------------------------------------------ recovery

def test_recover_constant_medium(constant_medium):
    m = constant_medium
    probes = chord_fan(m, 10, seed=53)
    report = er.recover_lens_maps(m, probes)
    assert report.n_probes == 10
    assert report.max_dx <= 1e-8
    assert report.max_dxi <= 1e-8
    assert report.max_dt <= 1e-8
    assert report.max_mute_residual <= 1e-10
    assert report.min_mode_separation > 0.1


def test_recover_stressed_medium(stressed_medium):
    m = stressed_medium
    probes = chord_fan(m, 10, seed=59)
    report = er.recover_lens_maps(m, probes)
    assert report.max_dx <= 1e-6 and report.max_dt <= 1e-6
    # the two recovered maps genuinely differ
    by_probe = {}
    for rec in report.records:
        by_probe.setdefault(id(rec.probe), {})[rec.mode] = rec
    for modes in by_probe.values():
        dx = np.linalg.norm(modes["S"].event.gamma.x - modes["P"].event.gamma.x)
        dt = abs(modes["S"].event.gamma.t - modes["P"].event.gamma.t)
        assert dx > 1e-3 or dt > 1e-3


def test_recover_reversed_legs_see_integration_error(bump_medium):
    # each event is checked by the leg traced back from it to its probe, so
    # a coarse step control shows up in the residuals
    probes = chord_fan(bump_medium, 10, seed=67)
    fine = er.recover_lens_maps(bump_medium, probes)
    coarse = er.recover_lens_maps(
        bump_medium, probes,
        ctrl=er.StepControl(rtol=1e-5, atol=1e-7, drift_tol=1e-4))
    assert fine.max_dx <= 1e-8 and fine.max_dt <= 1e-8
    # the step limit caps how coarse a leg can get, so compare the two
    assert coarse.max_dx > 100 * fine.max_dx
    for rec in coarse.records:
        assert rec.reverse.travel_time < 0.0
        assert rec.reverse.gamma_in.t == rec.event.gamma.t
        assert np.array_equal(rec.reverse.gamma_in.x, rec.event.gamma.x)


def test_recover_identical_media_identical_tables(constant_medium):
    twin = er.Medium(rho=1.0, lam=1.0, mu=1.0,
                     class_params=er.ClassParams(3.5, 0.2, 0.5))
    probes = chord_fan(constant_medium, 5, seed=61)
    rep_a = er.recover_lens_maps(constant_medium, probes)
    rep_b = er.recover_lens_maps(twin, probes)
    for ra, rb in zip(rep_a.records, rep_b.records):
        assert ra.mode == rb.mode
        assert np.array_equal(ra.event.gamma.x, rb.event.gamma.x)
        assert ra.event.gamma.t == rb.event.gamma.t
        assert np.array_equal(ra.event.gamma.xi_t, rb.event.gamma.xi_t)


def test_probe_fan_is_hyperbolic(stressed_medium, rng):
    probes = er.probe_fan(stressed_medium, 12, rng)
    for g in probes:
        lab = er.classify(stressed_medium, g)
        assert lab.combined == "hyperbolic"
        assert g.xi_t_norm > 0.0


def test_probe_fan_rejects_zero_tau(constant_medium, rng):
    # at tau = 0 the hyperbolic radius is 0 and no candidate ever passes
    with pytest.raises(er.ElastorayError, match="no hyperbolic covector"):
        er.probe_fan(constant_medium, 2, rng, tau=0.0)


def test_probe_fan_gives_up_when_tau_squared_underflows(constant_medium, rng):
    # the radius is positive, but tau^2 = 0 makes every candidate's selected
    # covectors analytically null, so each one fails char_roots
    with pytest.raises(er.ElastorayError,
                       match=r"tau = 1e-300 in \d+ consecutive draws"):
        er.probe_fan(constant_medium, 1, rng, tau=1e-300)


# ------------------------------- differential: the replaced per-leg launch

# Frozen copy of ``launch_state`` as it was before legs launched as one
# batch: the roots of one covector at a time, through ``_mode_roots``, the
# per-covector root code that ``boundary.root_table`` replaced.

def _mode_roots(m, gamma):
    """ModeRoots of the S and P modes at gamma, in that order; a glancing
    mode gives its GlancingError instead."""
    big_a, bh, c, scale2 = mode_quadratics(m, gamma.x, gamma.nu, gamma.xi_t,
                                           gamma.tau)
    z_fwd, z_bwd, real, d4 = forward_roots(big_a, bh, c, gamma.tau)
    rho = float(m.rho(gamma.x))
    out = []
    for k, mode in enumerate(("S", "P")):
        if abs(d4[k]) < GLANCING_TOL * scale2[k]:
            out.append(er.GlancingError(
                f"mode {mode} is glancing at this covector",
                discriminant=float(d4[k])))
            continue
        # real roots stay real scalars, so their covectors are real arrays
        zs = [z.real.item() if real[k] else z.item()
              for z in (z_fwd[k], z_bwd[k])]
        c_z = [complex(2.0 * rho * (float(bh[k]) - float(big_a[k]) * z))
               for z in zs]
        xi_z = [gamma.xi_t - z * gamma.nu for z in zs]
        out.append(ModeRoots(mode=mode, real=bool(real[k]),
                             z_forward=complex(zs[0]),
                             z_backward=complex(zs[1]),
                             c_forward=c_z[0], c_backward=c_z[1],
                             xi_forward=xi_z[0], xi_backward=xi_z[1],
                             discriminant=float(d4[k])))
    return out


def _ref_launch_state(m, gamma, mode, time_direction=1):
    roots = _mode_roots(m, gamma)[("S", "P").index(mode)]
    if isinstance(roots, er.GlancingError):
        raise roots
    if not roots.real:
        raise er.EvanescentModeError(
            f"mode {mode} is evanescent at this covector")
    xi = roots.xi_forward if time_direction >= 0 else roots.xi_backward
    return er.RayState(t=gamma.t, x=gamma.x, xi=xi, tau=gamma.tau, mode=mode)


def _launch_fan(m, seed, n=24):
    """Cone-sampler covectors of every region, then the same base points and
    directions at fractions of each mode's hyperbolic radius: inside it,
    on it (glancing) and beyond it (evanescent)."""
    rng = np.random.default_rng(seed)
    x, nu, xi_t, tau = er.sample_boundary_covectors(m, n, rng, 0.5)
    gammas = [er.BoundaryCovector(t=0.3, x=x[i], tau=float(tau[i]),
                                  xi_t=xi_t[i], nu=nu[i]) for i in range(n)]
    for i in range(n // 2):
        for mode in "SP":
            r = rays._hyperbolic_radius(m, mode, x[i], nu[i], xi_t[i], tau[i])
            gammas += [er.BoundaryCovector(t=0.3, x=x[i], tau=float(tau[i]),
                                           xi_t=frac * r * xi_t[i], nu=nu[i])
                       for frac in (0.5, 1.0, 1.4)]
    return gammas


@pytest.mark.parametrize("name", ["constant", "constant_stress",
                                  "gaussian_bump", "potential_stress"])
def test_launch_states_match_per_leg_launch(name, media_dir, monkeypatch):
    m = er.load_medium(media_dir / f"{name}.json")
    gammas = [g for g in _launch_fan(m, seed=len(name)) for _ in "SP"]
    modes = ["S", "P"] * (len(gammas) // 2)
    calls = []
    batched_quadratics = er.boundary.mode_quadratics

    def counted(*args):
        calls.append(len(args[4]))
        return batched_quadratics(*args)

    monkeypatch.setattr(er.boundary, "mode_quadratics", counted)
    kinds = set()
    for direction in (1, -1):
        calls.clear()
        got = rays._launch_states(m, gammas, modes, direction)
        # one launch of every leg's roots
        assert calls == [len(gammas)]
        for gamma, mode, out in zip(gammas, modes, got, strict=True):
            try:
                want = _ref_launch_state(m, gamma, mode, direction)
            except er.ElastorayError as exc:
                want = exc
            assert type(out) is type(want)
            kinds.add(type(want).__name__)
            if isinstance(want, er.ElastorayError):
                assert str(out) == str(want)
                assert (getattr(out, "discriminant", None)
                        == getattr(want, "discriminant", None))
                continue
            assert (out.t, out.tau, out.mode) == (want.t, want.tau, want.mode)
            for key in ("x", "xi"):
                a, b = getattr(out, key), getattr(want, key)
                assert a.dtype == b.dtype and np.array_equal(a, b)
        # launch_state is a batch of one
        for gamma, mode, out in list(zip(gammas, modes, got))[::7]:
            if isinstance(out, er.ElastorayError):
                with pytest.raises(type(out), match=str(out)):
                    er.launch_state(m, gamma, mode, direction)
            else:
                one = er.launch_state(m, gamma, mode, direction)
                assert np.array_equal(one.xi, out.xi)
    assert kinds == {"RayState", "GlancingError", "EvanescentModeError"}
    assert rays._launch_states(m, [], []) == []


# ------------------------------------------------------------ batched engine

@pytest.fixture(scope="module")
def polynomial_medium():
    # polynomial rho, lam and mu under a constant stress
    return er.Medium(
        rho=er.PolynomialField({(0, 0, 0): 1.0, (1, 1, 0): 0.05,
                                (0, 0, 2): -0.04}),
        lam=er.PolynomialField({(0, 0, 0): 1.2, (0, 0, 1): -0.06,
                                (1, 1, 1): 0.04}),
        mu=er.PolynomialField({(0, 0, 0): 1.0, (1, 0, 0): 0.03,
                               (2, 0, 0): 0.08, (0, 1, 1): -0.05}),
        stress=er.ConstantStress(0.05 * np.diag([1.0, -1.0, 0.0])),
        class_params=er.ClassParams(L=3.5, eps=0.2, delta=0.5))


MEDIA = ("constant_medium", "stressed_medium", "potential_medium",
         "bump_medium", "polynomial_medium")


def assert_same_leg(a, b, tol=1e-13):
    assert np.abs(a.gamma_out.x - b.gamma_out.x).max() <= tol
    assert np.abs(a.gamma_out.xi_t - b.gamma_out.xi_t).max() <= tol
    assert abs(a.travel_time - b.travel_time) <= tol
    assert a.n_steps == b.n_steps
    assert a.rejected_steps == b.rejected_steps


def test_dop853_tableau():
    # quadrature order conditions sum_i b_i c_i^k = 1 / (k + 1), k <= 7,
    # with c_i = sum_j a_ij; both error estimates weigh a zero step to zero
    b = engine._A[12]
    c = [sum(row) for row in engine._A[:12]]
    for k in range(8):
        got = sum(bi * ci ** k for bi, ci in zip(b, c))
        assert abs(got - 1.0 / (k + 1)) <= 1e-13
    assert abs(sum(engine._E5)) <= 1e-13
    assert abs(sum(engine._E3)) <= 1e-13
    # the dense output's extra stages sit at c = 0.1, 0.2 and 7/9
    assert_allclose([sum(row) for row in engine._A[13:]], [0.1, 0.2, 7 / 9],
                    rtol=0.0, atol=1e-13)


def test_dense_output_spans_the_step(bump_medium):
    # the dense output starts at y, ends at the step's solution, and in
    # between agrees with an exact step of the partial size
    m = bump_medium
    states = [er.launch_state(m, g, mode)
              for g in er.probe_fan(m, 3, np.random.default_rng(79))
              for mode in "SP"]
    y = np.array([np.hstack([st.x, st.xi]) for st in states])
    kern = Hamilton(m, np.array([st.mode == "P" for st in states]))
    h = np.full(len(y), 0.05)
    y8, k, _ = engine.dop853_step(kern, y, kern(y)[0], h)
    dense = engine._dense(kern, y, y8, h, k)
    x0 = y[:, :3]
    assert np.array_equal(engine._dense_x(x0, dense, np.zeros(len(y))), x0)
    assert_allclose(engine._dense_x(x0, dense, np.ones(len(y))), y8[:, :3],
                    rtol=0.0, atol=1e-15)
    for theta in (0.3, 0.5, 0.8):
        part = engine.dop853_step(kern, y, kern(y)[0], theta * h)[0]
        assert_allclose(engine._dense_x(x0, dense, np.full(len(y), theta)),
                        part[:, :3], rtol=0.0, atol=1e-11)


def _ref_metric_inv_grad(m, mode, x, xi):
    # frozen scalar value and gradients of the dual metric, as
    # ``metric_inv_grad`` computed them before it became a view of the
    # fused kernel
    if mode == "S":
        a, da = m.mu.value_and_gradient(x)
    else:
        lam, dlam = m.lam.value_and_gradient(x)
        mu, dmu = m.mu.value_and_gradient(x)
        a, da = lam + 2.0 * mu, dlam + 2.0 * dmu
    rho, drho = m.rho.value_and_gradient(x)
    r = m.stress.matrix(x)
    dr = m.stress.derivative(x)
    rxi = r @ xi
    val = (a * (xi @ xi) + xi @ rxi) / rho
    dnum_dx = da * (xi @ xi) + np.einsum("ijk,i,j->k", dr, xi, xi)
    return val, (dnum_dx - val * drho) / rho, 2.0 * (a * xi + rxi) / rho


@pytest.mark.parametrize("name", MEDIA)
def test_kernel_matches_metric_gradient(name, request):
    # the fused kernel, S and P rows mixed, against the scalar value and
    # gradients of the dual metric; ``metric_inv_grad`` is a row of it
    m = request.getfixturevalue(name)
    rng = np.random.default_rng(67)
    x = m.domain.sample_interior(12, rng)
    xi = rng.standard_normal((12, 3))
    modes = ["S", "P"] * 6
    f, g = Hamilton(m, np.array([md == "P" for md in modes]))(
        np.hstack([x, xi]))
    for i, mode in enumerate(modes):
        val, d_x, d_xi = _ref_metric_inv_grad(m, mode, x[i], xi[i])
        assert g[i] == pytest.approx(val, rel=1e-13)
        assert_allclose(f[i, :3], -d_xi, rtol=1e-13, atol=1e-13)
        assert_allclose(f[i, 3:], d_x, rtol=1e-12, atol=1e-13)
        val, d_x, d_xi = er.metric_inv_grad(m, mode, x[i], xi[i])
        assert val == g[i]
        assert np.array_equal(d_x, f[i, 3:])
        assert np.array_equal(d_xi, -f[i, :3])


@pytest.mark.parametrize("name", MEDIA)
def test_batched_legs_match_batches_of_one(name, request):
    m = request.getfixturevalue(name)
    probes = er.probe_fan(m, 8, np.random.default_rng(71))
    gammas = [g for g in probes for _ in "SP"]
    modes = ["S", "P"] * len(probes)
    ones = [er.trace_leg(m, g, mode) for g, mode in zip(gammas, modes)]
    sixteen, errors = er.lens_map_table(m, modes, gammas)
    three, _ = er.lens_map_table(m, modes[5:8], gammas[5:8])
    assert errors == [] and len(sixteen) == 16
    for batch, first in ((sixteen, 0), (three, 5)):
        for k, entry in enumerate(batch):
            assert_same_leg(entry, ones[first + k])
    assert all(set(e.rejected_steps) == {"error", "drift", "entry"}
               for e in sixteen)


def test_batched_time_cap_and_reverse_legs(bump_medium):
    m = bump_medium
    probes = er.probe_fan(m, 6, np.random.default_rng(73))
    states = [er.launch_state(m, g, mode) for g in probes for mode in "SP"]
    arrivals = sorted(er.trace_state(m, st)[0].t for st in states)
    t_cap = 0.5 * (arrivals[2] + arrivals[-3])
    batch = rays._trace_states(m, states, t_cap=t_cap)
    assert {out[2] for out in batch} == {"exited", "time_capped"}
    for state, out in zip(states, batch):
        single = er.trace_state(m, state, t_cap=t_cap)
        assert out[2] == single[2]
        if out[2] == "exited":
            assert_same_leg(out[1], single[1])
        else:
            assert out[:2] == (None, None) == single[:2]
    # legs traced against time from the exits, batched and one by one
    exits = [er.trace_leg(m, g, mode) for g in probes for mode in "SP"]
    back = rays._trace_legs(m, [e.gamma_out for e in exits],
                            [e.mode for e in exits], time_direction=-1)
    for entry, out in zip(exits, back):
        assert_same_leg(out, er.trace_leg(m, entry.gamma_out, entry.mode,
                                          time_direction=-1))
        assert out.travel_time < 0.0


def test_failing_ray_leaves_the_batch(bump_medium):
    m = bump_medium
    probes = er.probe_fan(m, 8, np.random.default_rng(71))
    gammas = [g for g in probes for _ in "SP"]
    modes = ["S", "P"] * len(probes)
    # a budget between the fewest and the most attempts a leg takes here
    attempts = sorted(e.n_steps + sum(e.rejected_steps.values())
                      for e in rays._trace_legs(m, gammas, modes))
    ctrl = er.StepControl(max_steps=(attempts[0] + attempts[-1]) // 2)
    batch = rays._trace_legs(m, gammas, modes, ctrl)
    kinds = set()
    for g, mode, out in zip(gammas, modes, batch):
        if isinstance(out, er.MaxStepsError):
            kinds.add("raised")
            with pytest.raises(er.MaxStepsError):
                er.trace_leg(m, g, mode, ctrl=ctrl)
        else:
            kinds.add("exited")
            assert_same_leg(out, er.trace_leg(m, g, mode, ctrl=ctrl))
    assert kinds == {"raised", "exited"}
    # three steps: the long diametral leg raises, legs that start just
    # before the time cap still finish
    g = er.boundary_covector(m, 0.0, SOUTH, 1.0, np.zeros(3))
    long = er.launch_state(m, g, "S")
    short = [er.launch_state(m, er.boundary_covector(
        m, 1.0 - 1e-3 * k, SOUTH, 1.0, np.zeros(3)), mode)
        for k, mode in ((1, "S"), (2, "P"))]
    out = rays._trace_states(m, [short[0], long, short[1]],
                             er.StepControl(max_steps=3), t_cap=1.0)
    assert isinstance(out[1], er.MaxStepsError)
    assert out[0][2] == out[2][2] == "time_capped"


def test_step_counts_add_up_to_attempts(constant_medium):
    # a grazing launch whose first steps fail to enter the domain: accepted
    # and rejected steps are disjoint and together use the step budget
    m = constant_medium
    g = er.incidence_covector(m, SOUTH, "S", np.deg2rad(89.99))
    entry = er.trace_leg(m, g, "S")
    assert entry.rejected_steps["entry"] > 0
    attempts = entry.n_steps + sum(entry.rejected_steps.values())
    again = er.trace_leg(m, g, "S", ctrl=er.StepControl(max_steps=attempts))
    assert_same_leg(again, entry, tol=0.0)
    with pytest.raises(er.MaxStepsError):
        er.trace_leg(m, g, "S", ctrl=er.StepControl(max_steps=attempts - 1))


def sequential_transport(m, gamma, initial_modes=("S", "P"), depth=3,
                         t_max=None):
    """Breadth-first transport one ray at a time, through batches of one."""
    events = []
    reports = []
    queue = [(er.launch_state(m, gamma, mode), 0, mode)
             for mode in initial_modes]
    while queue:
        state, n_refl, lineage = queue.pop(0)
        try:
            exit_state, entry, status = er.trace_state(m, state, t_cap=t_max)
        except er.GlancingExitError as exc:
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
            refl = er.reflect(m, exit_state)
        except er.GlancingError as exc:
            reports.append(f"{lineage}: glancing reflection halted branch "
                           f"({exc})")
            continue
        reports += [f"{lineage}: converted {md} branch evanescent"
                    for md in refl.evanescent]
        reports += [f"{lineage}: converted {md} branch glancing"
                    for md in refl.glancing]
        queue += [(s, n_refl + 1, f"{lineage}->{s.mode}")
                  for s in refl.states]
    order = sorted(range(len(events)), key=lambda i: (events[i][0].t, i))
    return [events[i] for i in order], reports


@pytest.mark.parametrize("name,depth,t_max", [
    ("stressed_medium", 3, None), ("bump_medium", 2, None),
    ("potential_medium", 3, 4.0)])
def test_transport_matches_sequential_search(name, depth, t_max, request):
    m = request.getfixturevalue(name)
    for g in er.probe_fan(m, 2, np.random.default_rng(79)):
        res = er.broken_transport(m, g, depth=depth, t_max=t_max)
        want, reports = sequential_transport(m, g, depth=depth, t_max=t_max)
        assert res.reports == reports
        assert len(res.events) == len(want)
        for k, (ev, (gamma, mode, n_refl)) in enumerate(zip(res.events, want)):
            assert (ev.mode, ev.n_reflections, ev.order_index) == \
                (mode, n_refl, k)
            assert ev.gamma.t == gamma.t
            assert np.array_equal(ev.gamma.x, gamma.x)
            assert np.array_equal(ev.gamma.xi_t, gamma.xi_t)


@pytest.mark.parametrize("speed,modes", [
    (2.0, "SP"), (2.0, "PS"), (1.0, "SP"), (1.0, "PS"), (0.8, "SP")])
def test_transport_launch_failure_matches_sequential_search(
        speed, modes, constant_medium):
    # |xi_t| = 2 leaves both modes evanescent, 1 makes S glancing and P
    # evanescent, 0.8 only P evanescent: a source stops at its first mode
    # that fails to launch, as the one-ray-at-a-time search does
    m = constant_medium
    g = er.boundary_covector(m, 0.0, SOUTH, 1.0, [speed, 0.0, 0.0])
    with pytest.raises(er.ElastorayError) as want:
        sequential_transport(m, g, initial_modes=modes)
    with pytest.raises(type(want.value)) as got:
        er.broken_transport(m, g, initial_modes=modes)
    assert str(got.value) == str(want.value)


def test_transport_raises_uncaught_leg_error(bump_medium):
    # every leg exceeds a 3-step budget; the step error is not a report
    g = er.boundary_covector(bump_medium, 0.0, SOUTH, 1.0, np.zeros(3))
    with pytest.raises(er.MaxStepsError):
        er.broken_transport(bump_medium, g, depth=1,
                            ctrl=er.StepControl(max_steps=3))


# -------------------------------------------------------- root selection

def test_reflect_matches_char_roots(stressed_medium):
    # reflect takes each mode's forward root from the stable pairing of
    # char_roots, also where C = B(xi_t, xi_t) - tau^2 vanishes and the
    # naive formula (Bh - sign(tau) s) / A cancels
    m = stressed_medium
    rng = np.random.default_rng(83)
    states = []
    near_zero_c = 0
    for x in m.domain.sample_boundary(24, rng):
        nu = m.domain.normal(x)
        u = rng.standard_normal(3)
        u -= (u @ nu) * nu
        u /= np.linalg.norm(u)
        tau = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        for mode in ("S", "P"):
            b_uu = er.metric_bilinear(m, mode, x, u, u)
            for frac in (rng.uniform(0.1, 0.9), 1.0):   # 1.0: C ~ 0
                xi_t = frac * abs(tau) / np.sqrt(b_uu) * u
                states.append(er.RayState(t=0.0, x=x, xi=xi_t + 0.4 * nu,
                                          tau=tau, mode=mode))
    n_checked = 0
    for st in states:
        gamma = er.boundary_covector(m, st.t, st.x, st.tau, st.xi)
        try:
            roots = er.char_roots(m, gamma)
            res = er.reflect(m, st)
        except er.GlancingError:
            continue
        k = "SP".index(st.mode)
        big_a, bh, c, scale2 = (v[k] for v in mode_quadratics(
            m, gamma.x, gamma.nu, gamma.xi_t, gamma.tau))
        near_zero_c += abs(c) <= 1e-8 * scale2
        for s in res.states:
            z = roots.mode(s.mode).z_forward
            assert np.array_equal(s.xi, gamma.xi_t - z.real * gamma.nu)
            n_checked += 1
    assert n_checked >= 60 and near_zero_c >= 20


# ------------------------------------------------- distance deduplication

@pytest.mark.parametrize("name,modes", [("stressed_medium", "SP"),
                                        ("bump_medium", "S")])
def test_boundary_distance_adopts_converged_descent(name, modes, request,
                                                   monkeypatch):
    m = request.getfixturevalue(name)
    rng = np.random.default_rng(4242)
    legs = {True: 0, False: 0}
    n_pairs = 0
    while n_pairs < 2:
        x0, y = m.domain.sample_boundary(2, rng)
        if not 0.6 <= np.linalg.norm(y - x0) <= 1.8:
            continue
        n_pairs += 1
        for mode in modes:
            res = {}
            for dedup in (True, False):
                with monkeypatch.context() as mp:
                    if not dedup:
                        mp.setattr(rays, "_SHOOT_SAME_RAY", -1.0)
                    res[dedup] = er.boundary_distance(m, mode, x0, y,
                                                      n_starts=16, n_refine=3)
                legs[dedup] += res[dedup].n_legs
            assert res[True].connected == res[False].connected
            assert res[True].distance == pytest.approx(res[False].distance,
                                                       rel=1e-9)
    assert legs[True] < legs[False]
