"""Bicharacteristic tracing, lens maps, reflection, transport, distances,
and the lens-map recovery experiment."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import elastoray as er
from elastoray import rays

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


def test_boundary_distance_not_connected_report(constant_medium):
    # an unreachable miss tolerance must be reported, not raised
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
