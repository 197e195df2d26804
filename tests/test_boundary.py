"""Boundary covectors: classification, characteristic roots, residues, the
displacement-to-traction symbol on the boundary, and the companion reduction."""

import numpy as np
import pytest
import scalar_reference as ref
from numpy.testing import assert_allclose

import elastoray as er
from elastoray.boundary import NORMAL_DERIVATIVE_SIGN

NORTH = np.array([0.0, 0.0, 1.0])
SQ3 = np.sqrt(3.0)


def bcov(m, tau, xi_t, x=NORTH):
    return er.boundary_covector(m, 0.0, np.asarray(x, float), tau,
                                np.asarray(xi_t, float))


def fan(m, n, seed, delta=0.5):
    rng = np.random.default_rng(seed)
    x, nu, xi_t, tau = er.sample_boundary_covectors(m, n, rng, delta)
    return [er.boundary_covector(m, 0.0, x[i], tau[i], xi_t[i])
            for i in range(n)]


# ----------------------------------------------------------- construction

def test_boundary_covector_projects_tangentially(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, NORTH, 2.0,
                             np.array([1.0, 0.0, 5.0]))
    assert_allclose(g.xi_t, [1.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(g.nu, NORTH, atol=1e-14)
    assert np.linalg.norm(g.xi_t) == pytest.approx(1.0)


def test_boundary_covector_requires_boundary_point(constant_medium):
    with pytest.raises(er.NotOnBoundaryError):
        er.boundary_covector(constant_medium, 0.0, np.array([0.0, 0.0, 0.2]),
                             1.0, np.array([1.0, 0.0, 0.0]))


def test_boundary_covector_rejects_zero(constant_medium):
    with pytest.raises(er.DegenerateDirectionError):
        er.boundary_covector(constant_medium, 0.0, NORTH, 0.0, np.zeros(3))


# ---------------------------------------------------------- classification

def test_classification_bands(constant_medium):
    m = constant_medium
    assert er.classify(m, bcov(m, 2.0, [1, 0, 0])).combined == "hyperbolic"
    assert er.classify(m, bcov(m, 1.5, [1, 0, 0])).combined == "mixed"
    assert er.classify(m, bcov(m, 0.5, [1, 0, 0])).combined == "elliptic"
    lab = er.classify(m, bcov(m, 1.5, [1, 0, 0]))
    assert lab.s_label == "hyperbolic" and lab.p_label == "elliptic"


def test_p_glancing_has_zero_discriminant(constant_medium):
    lab = er.classify(constant_medium, bcov(constant_medium, SQ3, [1, 0, 0]))
    assert lab.p_label == "glancing"
    assert abs(lab.p_discriminant) < 1e-12 * lab.p_scale2


def test_gamma_delta_flag(constant_medium):
    g = bcov(constant_medium, 2.0, [1, 0, 0])
    lab = er.classify(constant_medium, g, params=er.ClassParams(3.0, 0.2, 0.5))
    assert lab.in_gamma_delta
    assert g.in_gamma_delta(0.5) and not g.in_gamma_delta(2.5)


def test_region_inclusion(constant_medium, stressed_medium, potential_medium):
    # P hyperbolic forces S hyperbolic (the S cone contains the P cone)
    for m in (constant_medium, stressed_medium, potential_medium):
        for g in fan(m, 200, seed=3):
            lab = er.classify(m, g)
            if lab.p_label == "hyperbolic":
                assert lab.s_label == "hyperbolic"
            if lab.s_label == "elliptic":
                assert lab.p_label == "elliptic"


# ------------------------------------------------------------------- roots

def test_char_roots_hyperbolic_hand_values(constant_medium):
    r = er.char_roots(constant_medium, bcov(constant_medium, 2.0, [1, 0, 0]))
    assert r.s.real and r.p.real
    assert r.s.z_forward == pytest.approx(-SQ3, rel=1e-12)
    assert r.p.z_forward == pytest.approx(-1.0 / SQ3, rel=1e-12)
    assert r.s.c_forward == pytest.approx(2.0 * SQ3, rel=1e-12)
    assert r.p.c_forward == pytest.approx(2.0 * SQ3, rel=1e-12)
    assert r.xi_dot == pytest.approx(2.0, rel=1e-12)
    assert r.normalized_product == pytest.approx(SQ3 / 2.0, rel=1e-12)


def test_char_roots_elliptic_hand_values(constant_medium):
    r = er.char_roots(constant_medium, bcov(constant_medium, 0.5, [1, 0, 0]))
    assert not r.s.real and not r.p.real
    assert r.s.z_forward == pytest.approx(0.86603j, abs=1e-5)
    assert r.p.z_forward == pytest.approx(0.95743j, abs=1e-5)
    assert r.s.z_forward.imag > 0 and r.p.z_forward.imag > 0
    assert r.xi_dot == pytest.approx(0.17084, abs=1e-5)


def test_negative_tau_flips_forwardness(constant_medium):
    r = er.char_roots(constant_medium, bcov(constant_medium, -2.0, [1, 0, 0]))
    assert r.s.z_forward == pytest.approx(SQ3, rel=1e-12)
    assert r.p.z_forward == pytest.approx(1.0 / SQ3, rel=1e-12)


def test_roots_satisfy_characteristic_equation(constant_medium, stressed_medium,
                                               potential_medium):
    for m in (constant_medium, stressed_medium, potential_medium):
        for g in fan(m, 60, seed=5):
            try:
                r = er.char_roots(m, g)
            except er.GlancingError:
                continue
            for mode, mr in (("S", r.s), ("P", r.p)):
                for xi in (mr.xi_forward, mr.xi_backward):
                    resid = g.tau ** 2 - ref.metric_inv(m, mode, g.x, xi)
                    assert abs(resid) <= 1e-10 * max(1.0, g.tau ** 2)


def test_forward_root_enters_domain(constant_medium, stressed_medium):
    # oracle: the Hamilton velocity of the forward branch points inward,
    # so phi decreases as t increases
    for m in (constant_medium, stressed_medium):
        for g in fan(m, 80, seed=7):
            lab = er.classify(m, g)
            r = er.char_roots(m, g)
            for mode, mr in (("S", r.s), ("P", r.p)):
                if getattr(lab, f"{mode.lower()}_label") != "hyperbolic":
                    continue
                x = g.x
                rmat = m.stress.matrix(x) if m.stress is not None else np.zeros((3, 3))
                a = m.mu(x) if mode == "S" else m.lam(x) + 2.0 * m.mu(x)
                big_m = a * np.eye(3) + rmat
                for xi, sgn in ((mr.xi_forward, -1.0), (mr.xi_backward, 1.0)):
                    v = -(big_m @ np.real(xi)) / (m.rho(x) * g.tau)  # dx/dt
                    dphi_dt = m.domain.grad_phi(x) @ v
                    assert sgn * dphi_dt > 0.0


def test_glancing_root_raises(constant_medium):
    with pytest.raises(er.GlancingError) as exc:
        er.char_roots(constant_medium, bcov(constant_medium, SQ3, [1, 0, 0]))
    assert exc.value.discriminant is not None
    assert abs(exc.value.discriminant) < 1e-12


def test_sampled_covectors_live_in_gamma_delta(constant_medium):
    m = constant_medium
    for g in fan(m, 100, seed=11, delta=0.5):
        assert m.domain.on_boundary(g.x)
        assert abs(g.xi_t @ g.nu) < 1e-12
        assert np.linalg.norm(g.xi_t) == pytest.approx(1.0)
        assert abs(g.tau) >= 0.5 * np.linalg.norm(g.xi_t)


# -------------------------------------------------------------- lopatinski

def test_lopatinski_positive_margin(constant_medium):
    rep = er.lopatinski_margin(constant_medium, sample_count=2000, seed=1)
    assert rep.admissible
    assert rep.min_normalized > 0.0
    assert rep.n_used + rep.n_glancing_skipped == rep.n_samples
    assert set(rep.region_counts) <= {"hyperbolic", "mixed", "elliptic"}
    assert rep.argmin is not None


def test_lopatinski_violator_reported_not_raised():
    # grossly violating the smallness bound is outside the admissible class:
    # the margin is reported but nothing is asserted about it
    viol = er.Medium(rho=1.0, lam=1.0, mu=1.0,
                     stress=er.ConstantStress(0.9 * np.diag([1.0, 0.0, -1.0])),
                     class_params=er.ClassParams(3.0, 0.2, 0.5))
    rep = er.lopatinski_margin(viol, sample_count=1000, seed=2)
    assert not rep.admissible
    assert np.isfinite(rep.min_normalized)


def test_lopatinski_needs_class_params():
    m = er.Medium(rho=1.0, lam=1.0, mu=1.0)
    with pytest.raises(ValueError):
        er.lopatinski_margin(m, sample_count=10)


# ----------------------------------------------------------------- residues

def test_residue_hand_values(constant_medium):
    rd = er.residue_matrices(constant_medium, bcov(constant_medium, 2.0, [1, 0, 0]))
    a = np.array([0.0, 1.0, 0.0])
    assert_allclose(rd.a0 @ a, a / (2.0 * SQ3), atol=1e-13)
    assert_allclose(rd.a1 @ a, -0.5 * a, atol=1e-13)
    assert rd.cond_a0 < 1e3
    assert_allclose(rd.a0 @ rd.a0_inv, np.eye(3), atol=1e-12)


def test_residue_a_one_relations(constant_medium, stressed_medium, rng):
    # A1 v = z_S A0 v whenever v . xi_P = 0 (analytic dot), A1 xi_S = z_P A0 xi_S
    for m in (constant_medium, stressed_medium):
        for g in fan(m, 40, seed=13):
            try:
                rd = er.residue_matrices(m, g)
            except er.GlancingError:
                continue
            z_s = rd.roots.s.z_forward
            z_p = rd.roots.p.z_forward
            xi_s = rd.roots.s.xi_forward
            xi_p = rd.roots.p.xi_forward
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = w - xi_p * (xi_p @ w) / (xi_p @ xi_p)
            scale = max(1.0, np.abs(rd.a0).max() * np.abs(v).max())
            assert np.abs(rd.a1 @ v - z_s * (rd.a0 @ v)).max() <= 1e-12 * scale
            assert np.abs(rd.a1 @ xi_s - z_p * (rd.a0 @ xi_s)).max() <= 1e-12 * scale


def test_residue_quadrature_oracle(constant_medium, stressed_medium):
    # the contour integral of z^j p(tau, xi_t - z nu)^{-1} reproduces the
    # closed forms once the kept and rejected roots are well separated
    for m in (constant_medium, stressed_medium):
        checked = 0
        for g in fan(m, 60, seed=17):
            lab = er.classify(m, g)
            if lab.combined == "glancing":
                continue
            if er.boundary.discriminant_margin(m, g) < 5e-2:
                continue
            rd = er.residue_matrices(m, g)
            quad = er.residue_quadrature(m, g, nodes=256)
            assert np.abs(quad.a0 - rd.a0).max() <= 1e-8
            assert np.abs(quad.a1 - rd.a1).max() <= 1e-8
            checked += 1
        assert checked >= 30


def test_quadrature_windings_certify_contour(constant_medium):
    q = er.residue_quadrature(constant_medium, bcov(constant_medium, 2.0, [1, 0, 0]))
    assert q.nodes == 256
    assert q.windings["S_forward"] == pytest.approx(1.0, abs=1e-10)
    assert q.windings["P_forward"] == pytest.approx(1.0, abs=1e-10)
    assert q.windings["S_backward"] == pytest.approx(0.0, abs=1e-10)
    assert q.windings["P_backward"] == pytest.approx(0.0, abs=1e-10)


def test_residue_rejects_glancing(constant_medium):
    with pytest.raises(er.GlancingError):
        er.residue_matrices(constant_medium, bcov(constant_medium, SQ3, [1, 0, 0]))


# --------------------------------------------------------------- dn symbol

def test_dn_sh_hand_value(constant_medium):
    dn = er.dn_symbol(constant_medium, bcov(constant_medium, 2.0, [1, 0, 0]))
    a = np.array([0.0, 1.0, 0.0])
    assert_allclose(dn.matrix @ a, SQ3 * a, atol=1e-12)
    assert dn.rel_residual <= 1e-10


def test_dn_compressional_hand_value(constant_medium):
    dn = er.dn_symbol(constant_medium, bcov(constant_medium, 2.0, [1, 0, 0]))
    xi_p = np.array([1.0, 0.0, 1.0 / SQ3])
    a = xi_p / np.linalg.norm(xi_p)
    assert_allclose(np.real(dn.matrix @ a), [1.0, 0.0, SQ3], atol=1e-10)
    assert np.abs(np.imag(dn.matrix @ a)).max() < 1e-12


def test_dn_routes_agree_across_regions(constant_medium, stressed_medium,
                                        potential_medium):
    for m in (constant_medium, stressed_medium, potential_medium):
        seen = set()
        for g in fan(m, 60, seed=19):
            lab = er.classify(m, g)
            if lab.combined == "glancing":
                continue
            dn = er.dn_symbol(m, g)
            assert dn.rel_residual <= 1e-10
            assert np.abs(dn.matrix - dn.route_r).max() <= \
                1e-10 * max(1.0, np.abs(dn.matrix).max())
            seen.add(lab.combined)
        assert seen == {"hyperbolic", "mixed", "elliptic"}


def test_dn_normal_incidence(constant_medium):
    # xi_t = 0: the symbol diagonalizes in the (nu, nu-perp) frame
    g = er.boundary_covector(constant_medium, 0.0, NORTH, 2.0, np.zeros(3))
    dn = er.dn_symbol(constant_medium, g)
    assert dn.rel_residual <= 1e-10
    mat = np.real(dn.matrix)
    assert_allclose(mat, np.diag(np.diagonal(mat)), atol=1e-10)
    assert mat[0, 0] == pytest.approx(mat[1, 1], rel=1e-10)


def test_dn_sign_calibration(constant_medium):
    # the route built from A1 A0^{-1} only matches with the calibrated sign;
    # the flipped sign is off at order one
    m = constant_medium
    g = bcov(m, 2.0, [1, 0, 0])
    rd = er.residue_matrices(m, g)
    dn = er.dn_symbol(m, g)
    s_t = er.traction_symbol(m, g.x, g.xi_t.astype(complex))
    s_nu = ref.traction_normal_derivative(m, g.x)
    u1 = rd.a1 @ rd.a0_inv
    assert NORMAL_DERIVATIVE_SIGN == -1.0
    good = s_t + NORMAL_DERIVATIVE_SIGN * (s_nu @ u1)
    flipped = s_t - NORMAL_DERIVATIVE_SIGN * (s_nu @ u1)
    scale = np.abs(dn.matrix).max()
    assert np.abs(good - dn.matrix).max() <= 1e-10 * scale
    assert np.abs(flipped - dn.matrix).max() > 0.1 * scale


# --------------------------------------------------------------- companion

def test_companion_identity_and_kernels(constant_medium):
    rep = er.companion_symbol_check(constant_medium,
                                    bcov(constant_medium, 2.0, [1, 0, 0]))
    assert rep.eta_norm == pytest.approx(np.sqrt(5.0))
    assert rep.identity_residual <= 1e-12
    assert rep.eigenvalue_error <= 1e-10
    assert rep.kernel_ok
    assert rep.kernel_dims == {"S+": 2, "S-": 2, "P+": 1, "P-": 1}
    assert rep.g.shape == (6, 6)


def test_companion_generic_zeta(constant_medium):
    rep = er.companion_symbol_check(constant_medium,
                                    bcov(constant_medium, 2.0, [1, 0, 0]),
                                    zeta=0.31 + 0.2j)
    assert rep.identity_residual <= 1e-12


def test_companion_mixed_region(constant_medium, stressed_medium):
    for m in (constant_medium, stressed_medium):
        rep = er.companion_symbol_check(m, bcov(m, 1.5, [1, 0, 0]))
        assert rep.identity_residual <= 1e-12
        assert rep.eigenvalue_error <= 1e-10
        assert rep.kernel_dims == {"S+": 2, "S-": 2}


def test_companion_degenerate_frame(constant_medium):
    bad = er.BoundaryCovector(0.0, NORTH, 0.0, np.zeros(3), NORTH)
    with pytest.raises(er.FrameDegenerateError):
        er.companion_symbol_check(constant_medium, bad)


def test_companion_eigenvalues_count_multiplicity(constant_medium,
                                                  monkeypatch):
    # an eigenvalue list that has lost one copy of the double S+ root to S-
    # must not match the roots (2, 2, 1, 1)
    g = bcov(constant_medium, 2.0, [1, 0, 0])
    roots = er.char_roots(constant_medium, g)
    eigvals = np.linalg.eigvals

    def lose_one(a):
        w = eigvals(a).astype(complex)
        k = np.argmin(np.abs(w - roots.s.z_forward), axis=-1, keepdims=True)
        np.put_along_axis(w, k, roots.s.z_backward, axis=-1)
        return w

    monkeypatch.setattr(np.linalg, "eigvals", lose_one)
    rep = er.companion_symbol_check(constant_medium, g)
    assert rep.eigenvalue_error > 0.1


# ------------------------------------ differential: the replaced root codes

# Frozen copies of the root code that ``mode_quadratics`` and
# ``forward_roots`` replaced: the per-mode quadratic, the scalar stable
# pairing, and the naive root (Bh - sign(tau) s) / A that the Lopatinski
# scan used, which cancels as C -> 0.

def _ref_quadratic(m, mode, x, nu, xi_t, tau):
    a = m.mu(x) if mode == "S" else m.lam(x) + 2.0 * m.mu(x)
    rho = m.rho(x)
    r = m.stress.matrix(x)
    rnu = np.einsum("...ij,...j->...i", r, nu)
    big_a = (a * np.sum(nu * nu, axis=-1) + np.sum(nu * rnu, axis=-1)) / rho
    bh = (a * np.sum(xi_t * nu, axis=-1) + np.sum(xi_t * rnu, axis=-1)) / rho
    rxi = np.einsum("...ij,...j->...i", r, xi_t)
    bxx = (a * np.sum(xi_t * xi_t, axis=-1) + np.sum(xi_t * rxi, axis=-1)) / rho
    # squared as x * x, as mode_quadratics squares it (a Python float's
    # tau ** 2 goes through libm pow)
    c = bxx - tau * tau
    scale2 = bh * bh + np.abs(big_a) * (np.abs(bxx) + tau * tau)
    return big_a, bh, c, scale2


def _ref_roots(m, mode, gamma, glancing_tol=er.boundary.GLANCING_TOL):
    """(z_fwd, z_bwd, c_fwd, c_bwd, xi_fwd, xi_bwd, real, d4), or None when
    the mode is glancing."""
    big_a, bh, c, scale2 = (float(v) for v in _ref_quadratic(
        m, mode, gamma.x, gamma.nu, gamma.xi_t, gamma.tau))
    d4 = bh * bh - big_a * c
    if abs(d4) < glancing_tol * scale2:
        return None
    rho = float(m.rho(gamma.x))
    if d4 > 0:
        s = np.sqrt(d4)
        z_big = (bh + s) / big_a if bh >= 0 else (bh - s) / big_a
        z_small = (c / (big_a * z_big) if z_big != 0.0
                   else (2 * bh / big_a - z_big))
        if gamma.tau * (bh - big_a * z_big) > 0:
            z_fwd, z_bwd = z_big, z_small
        else:
            z_fwd, z_bwd = z_small, z_big
    else:
        s = np.sqrt(-d4)
        z_fwd = complex(bh, s) / big_a
        z_bwd = complex(bh, -s) / big_a
    return (z_fwd, z_bwd, 2.0 * rho * (bh - big_a * z_fwd),
            2.0 * rho * (bh - big_a * z_bwd), gamma.xi_t - z_fwd * gamma.nu,
            gamma.xi_t - z_bwd * gamma.nu, d4 > 0, d4)


def _ref_naive_forward(big_a, bh, c, tau):
    d4 = bh * bh - big_a * c
    s = np.sqrt(np.abs(d4))
    z_real = (bh - np.sign(tau) * s) / big_a
    return np.where(d4 > 0, z_real.astype(complex), (bh + 1j * s) / big_a)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


def _differential_fan(m, seed, n=30):
    """(x, nu, xi_t, tau): n covectors from the cone sampler, then the same
    base points and directions rescaled to C = B(xi_t, xi_t) - tau^2 = 0,
    once for each mode."""
    rng = np.random.default_rng(seed)
    x, nu, xi_t, tau = er.sample_boundary_covectors(m, n, rng, 0.5)
    parts = [xi_t]
    for mode in ("S", "P"):
        b_uu = ref.metric_bilinear(m, mode, x, xi_t, xi_t)
        parts.append((np.abs(tau) / np.sqrt(b_uu))[:, None] * xi_t)
    return (np.tile(x, (3, 1)), np.tile(nu, (3, 1)), np.concatenate(parts),
            np.tile(tau, 3))


@pytest.mark.parametrize("name", ["constant", "constant_stress",
                                  "gaussian_bump", "potential_stress"])
def test_roots_match_replaced_root_code(name, media_dir, monkeypatch):
    m = er.load_medium(media_dir / f"{name}.json")
    x, nu, xi_t, tau = _differential_fan(m, seed=len(name))
    stressed = name in ("constant_stress", "potential_stress")
    products = {}
    near_zero_c = set()
    for i in range(len(tau)):
        gamma = er.BoundaryCovector(t=0.0, x=x[i], tau=tau[i], xi_t=xi_t[i],
                                    nu=nu[i])
        quad = {mode: [float(v) for v in _ref_quadratic(
            m, mode, gamma.x, gamma.nu, gamma.xi_t, gamma.tau)]
            for mode in "SP"}
        if any(abs(q[2]) <= 1e-8 * q[3] for q in quad.values()):
            near_zero_c.add(i)
        ref = {mode: _ref_roots(m, mode, gamma) for mode in "SP"}

        # classify: same discriminants, scales and labels
        label = er.classify(m, gamma)
        for mode, (big_a, bh, c, scale2) in quad.items():
            d4 = bh * bh - big_a * c
            assert getattr(label, f"{mode.lower()}_discriminant") == d4
            assert getattr(label, f"{mode.lower()}_scale2") == scale2
            expect = ("glancing" if ref[mode] is None
                      else "hyperbolic" if d4 > 0 else "elliptic")
            assert getattr(label, f"{mode.lower()}_label") == expect

        # reflect: every hyperbolic branch leaves on the stable forward root
        for mode in "SP":
            out = er.RayState(t=0.0, x=x[i], xi=xi_t[i], tau=tau[i], mode=mode)
            g_out = er.boundary_covector(m, 0.0, x[i], tau[i], xi_t[i])
            ref_out = {md: _ref_roots(m, md, g_out) for md in "SP"}
            if ref_out[mode] is None:
                with pytest.raises(er.GlancingError):
                    er.reflect(m, out)
                continue
            res = er.reflect(m, out)
            assert res.glancing == [md for md in "SP" if ref_out[md] is None]
            assert res.evanescent == [md for md in "SP" if ref_out[md]
                                      and not ref_out[md][6]]
            assert [st.mode for st in res.states] == [
                md for md in "SP" if ref_out[md] and ref_out[md][6]]
            for st in res.states:
                assert _same(st.xi, ref_out[st.mode][4])

        # char_roots: the stable pairing, bitwise, or the same GlancingError
        if ref["S"] is None or ref["P"] is None:
            with pytest.raises(er.GlancingError):
                er.char_roots(m, gamma)
            continue
        roots = er.char_roots(m, gamma)
        for mode in "SP":
            got = roots.mode(mode)
            z_fwd, z_bwd, c_fwd, c_bwd, xi_fwd, xi_bwd, real, d4 = ref[mode]
            assert got.real == real and got.discriminant == d4
            assert got.z_forward == z_fwd and got.z_backward == z_bwd
            assert got.c_forward == c_fwd and got.c_backward == c_bwd
            assert _same(got.xi_forward, xi_fwd)
            assert _same(got.xi_backward, xi_bwd)
        products[i] = roots.normalized_product

    if stressed:
        # C = 0 without glancing needs B(xi_t, nu) != 0, i.e. R != 0
        assert len(near_zero_c & set(products)) >= 20
    else:
        assert len(near_zero_c) >= 20

    # The Lopatinski scan selects its roots with char_roots' pairing, so its
    # product is bitwise char_roots' minimum
    big_a, d4, scale2 = (np.array(v) for v in zip(*(
        (q[0], q[1] * q[1] - q[0] * q[2], q[3])
        for q in (_ref_quadratic(m, mode, x, nu, xi_t, tau) for mode in "SP"))))
    usable = np.flatnonzero(np.all(big_a > 0, axis=0)
                            & np.all(np.abs(d4) >= 1e-3 * scale2, axis=0))
    fan_of = {"fan": (x, nu, xi_t, tau)}
    monkeypatch.setattr(er.boundary, "sample_boundary_covectors",
                        lambda m, n, rng, delta: fan_of["fan"])
    scan = er.lopatinski_margin(m, sample_count=len(tau))
    assert scan.n_used == len(usable)
    assert scan.min_normalized == min(products[i] for i in usable)
    # the skipped covectors, the regions of the used ones and the minimizer
    assert scan.n_glancing_skipped == int(np.sum(
        np.any(np.abs(d4) < 1e-3 * scale2, axis=0)))
    real = d4[:, usable] > 0
    assert scan.region_counts == {"hyperbolic": int(np.sum(real[0] & real[1])),
                                  "mixed": int(np.sum(real[0] & ~real[1])),
                                  "elliptic": int(np.sum(~real[0]))}
    i_min = min(usable, key=lambda i: products[i])
    assert scan.argmin.tau == tau[i_min]
    for key, col in (("x", x), ("nu", nu), ("xi_t", xi_t)):
        assert _same(getattr(scan.argmin, key), col[i_min])
    # one covector at a time, bitwise, where the naive root would cancel;
    # at char_roots' own glancing tolerance, so weak stress counts too
    monkeypatch.setattr(er.boundary, "_SCAN_GLANCING",
                        er.boundary.GLANCING_TOL)
    n_checked = naive_differs = 0
    for i in sorted(near_zero_c & set(products)):
        fan_of["fan"] = (x[i:i + 1], nu[i:i + 1], xi_t[i:i + 1], tau[i:i + 1])
        one = er.lopatinski_margin(m, sample_count=1)
        assert one.min_normalized == products[i]
        n_checked += 1
        gamma = er.BoundaryCovector(t=0.0, x=x[i], tau=tau[i], xi_t=xi_t[i],
                                    nu=nu[i])
        roots = er.char_roots(m, gamma)
        naive = [_ref_naive_forward(*_ref_quadratic(
            m, mode, gamma.x, gamma.nu, gamma.xi_t, gamma.tau)[:3], gamma.tau)
            for mode in "SP"]
        naive_differs += (naive[0] != roots.s.z_forward
                          or naive[1] != roots.p.z_forward)
    if stressed:
        assert n_checked >= 20 and naive_differs >= 10


@pytest.mark.parametrize("name", ["constant", "constant_stress",
                                  "gaussian_bump", "potential_stress"])
def test_tau_squares_alike_alone_and_in_a_batch(name, media_dir):
    # tau ** 2 of a Python float (a BoundaryCovector's tau) goes through libm
    # pow, which rounds a few squares otherwise than x * x; at those tau a
    # covector alone must still give the quadratics, labels, roots and
    # tangential frequency e it gets in a batch
    rng = np.random.default_rng(2026)
    taus = [t for t in rng.uniform(0.5, 5.0, 20000).tolist()
            if t ** 2 != t * t]
    assert len(taus) >= 3
    m = er.load_medium(media_dir / f"{name}.json")
    x, nu, xi_t, sign = er.sample_boundary_covectors(m, len(taus), rng, 0.5)
    tau = np.sign(sign) * np.array(taus)
    quads = er.boundary.mode_quadratics(m, x, nu, xi_t, tau)
    z_fwd, z_bwd, real, d4 = er.boundary.forward_roots(*quads[:3], tau)
    e = er.boundary.tangential_frequency(tau, xi_t)
    n_roots = 0
    for i in range(len(taus)):
        gamma = er.BoundaryCovector(t=0.0, x=x[i], tau=float(tau[i]),
                                    xi_t=xi_t[i], nu=nu[i])
        assert er.e_symbol(gamma) == e[i]
        one = er.boundary.mode_quadratics(m, gamma.x, gamma.nu, gamma.xi_t,
                                          gamma.tau)
        for alone, batch in zip(one, quads):
            assert _same(alone, batch[:, i])
        label = er.classify(m, gamma)
        assert [label.s_discriminant, label.p_discriminant] == list(d4[:, i])
        assert [label.s_scale2, label.p_scale2] == list(quads[3][:, i])
        if label.combined == "glancing":
            continue
        roots = er.char_roots(m, gamma)
        for k, mode in enumerate("SP"):
            got = roots.mode(mode)
            assert got.real == real[k, i]
            assert got.z_forward == z_fwd[k, i]
            assert got.z_backward == z_bwd[k, i]
        n_roots += 1
    assert n_roots >= len(taus) // 2
