"""Polarization frames on the boundary, the muting projector, annihilation."""

import numpy as np
import pytest
import scalar_reference as ref
from numpy.testing import assert_allclose

import elastoray as er

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


def test_e_symbol(constant_medium):
    assert er.e_symbol(bcov(constant_medium, 2.0, [1, 0, 0])) == \
        pytest.approx(np.sqrt(5.0))


# ------------------------------------------------------------------ frames

def test_hyperbolic_frame_ranks(constant_medium):
    fr = er.polarization_frame(constant_medium, bcov(constant_medium, 2.0, [1, 0, 0]))
    assert fr.kind == "hyperbolic"
    dims = {tag: basis.shape[1] for tag, basis in fr.bases.items()}
    assert dims == {"S+": 2, "S-": 2, "P+": 1, "P-": 1}
    total = sum(fr.projectors.values())
    assert_allclose(total, np.eye(6), atol=1e-12)
    assert fr.cond < 1e8


def test_mixed_frame_ranks(constant_medium):
    fr = er.polarization_frame(constant_medium, bcov(constant_medium, 1.5, [1, 0, 0]))
    assert fr.kind == "mixed"
    dims = {tag: basis.shape[1] for tag, basis in fr.bases.items()}
    assert dims == {"S+": 2, "S-": 2, "P": 2}
    assert_allclose(sum(fr.projectors.values()), np.eye(6), atol=1e-12)


def test_projector_algebra(constant_medium, stressed_medium):
    for m in (constant_medium, stressed_medium):
        count = 0
        for g in fan(m, 60, seed=23):
            lab = er.classify(m, g)
            if lab.s_label != "hyperbolic" or lab.combined == "glancing":
                continue
            try:
                fr = er.polarization_frame(m, g)
            except (er.GlancingError, er.FrameConditionError):
                continue
            projs = list(fr.projectors.values())
            for i, pi in enumerate(projs):
                assert np.abs(pi @ pi - pi).max() <= 1e-10
                for pj in projs[i + 1:]:
                    assert np.abs(pi @ pj).max() <= 1e-10
            assert np.abs(sum(projs) - np.eye(6)).max() <= 1e-10
            count += 1
        assert count >= 20


def test_frame_rejects_non_hyperbolic_s(constant_medium):
    with pytest.raises(er.GlancingError):
        er.polarization_frame(constant_medium, bcov(constant_medium, 0.5, [1, 0, 0]))


def test_sh_vector_membership(constant_medium):
    # a = (0,1,0) is orthogonal to xi_t, nu, so s acts on it as the scalar
    # mu (xi_S . nu); the Cauchy pair (e a, s a) then lies in B_S^(+/-)
    m = constant_medium
    g = bcov(m, 2.0, [1, 0, 0])
    fr = er.polarization_frame(m, g)
    roots = er.char_roots(m, g)
    e = er.e_symbol(g)
    a = np.array([0.0, 1.0, 0.0])
    for tag, xi in (("S+", roots.s.xi_forward), ("S-", roots.s.xi_backward)):
        v = np.concatenate([e * a, (xi @ g.nu) * a]).astype(complex)
        proj = fr.projectors[tag]
        assert np.abs(proj @ v - v).max() <= 1e-10 * np.abs(v).max()


def test_basis_vectors_solve_characteristic_system(constant_medium, stressed_medium):
    # every basis column is (e a, s(xi_mode) a) with p(xi_mode) a = 0
    for m in (constant_medium, stressed_medium):
        g = bcov(m, 2.0, [0.9, 0, 0])
        fr = er.polarization_frame(m, g)
        roots = er.char_roots(m, g)
        e = er.e_symbol(g)
        xi_of = {"S+": roots.s.xi_forward, "S-": roots.s.xi_backward,
                 "P+": roots.p.xi_forward, "P-": roots.p.xi_backward}
        for tag, basis in fr.bases.items():
            xi = xi_of[tag]
            p = ref.principal_symbol_matrix(m, g.x, g.tau, xi)
            s = er.traction_symbol(m, g.x, xi)
            for col in basis.T:
                a = col[:3] / e
                assert np.abs(p @ a).max() <= 1e-10
                assert np.abs(col[3:] - s @ a).max() <= 1e-10


# ------------------------------------------------------------------ muting

def test_mute_axis_aligned(constant_medium):
    mm = er.mute_symbol(bcov(constant_medium, 2.0, [1, 0, 0]))
    assert_allclose(mm, np.diag([0.0, 1.0, 0.0]), atol=1e-14)


def test_mute_diagonal_incidence(constant_medium):
    g = bcov(constant_medium, 2.0, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    expect = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert_allclose(er.mute_symbol(g), expect, atol=1e-14)


def test_mute_properties(constant_medium, rng):
    for g in fan(constant_medium, 30, seed=29):
        mm = er.mute_symbol(g)
        assert_allclose(mm, mm.T, atol=1e-14)
        assert_allclose(mm @ mm, mm, atol=1e-13)
        assert np.linalg.matrix_rank(mm) == 1
        assert np.abs(mm @ g.nu).max() < 1e-13
        assert np.abs(mm @ g.xi_t).max() < 1e-13


def test_mute_normal_incidence_degenerate(constant_medium):
    g = er.boundary_covector(constant_medium, 0.0, NORTH, 2.0, np.zeros(3))
    with pytest.raises(er.DegenerateMutingError):
        er.mute_symbol(g)


# ------------------------------------------------------------ annihilation

def test_muting_annihilation_hand_covectors(constant_medium):
    for tau in (2.0, 1.5):
        g = bcov(constant_medium, tau, [1, 0, 0])
        assert er.muting_annihilation_check(constant_medium, g) <= 1e-12


def test_muting_annihilation_fan(constant_medium, stressed_medium, potential_medium):
    for m in (constant_medium, stressed_medium, potential_medium):
        count = 0
        for g in fan(m, 50, seed=31):
            lab = er.classify(m, g)
            if lab.s_label != "hyperbolic" or lab.combined == "glancing":
                continue
            try:
                value = er.muting_annihilation_check(m, g)
            except (er.GlancingError, er.FrameConditionError):
                continue
            assert value <= 1e-10
            count += 1
        assert count >= 15


def test_muting_negative_control(constant_medium, rng):
    # a wrong muting direction leaks compressional polarization at order one
    m = constant_medium
    g = bcov(m, 2.0, [1, 0, 0])
    fr = er.polarization_frame(m, g)
    e = rng.standard_normal((3, 3))
    e = (e + e.T) / np.linalg.norm(e + e.T, 2)
    mm = er.mute_symbol(g) + 0.1 * e
    big = np.zeros((6, 6))
    big[:3, :3] = mm
    big[3:, 3:] = mm
    value = np.linalg.norm(fr.p_projector @ big, 2)
    assert value > 0.01


def test_dn_preserves_muting_subspace(constant_medium, stressed_medium):
    # (Id - m) sigma(DN) m = 0: the DN symbol maps the muted direction to itself
    for m in (constant_medium, stressed_medium):
        count = 0
        for g in fan(m, 40, seed=37):
            lab = er.classify(m, g)
            if lab.combined == "glancing":
                continue
            mm = er.mute_symbol(g)
            dn = er.dn_symbol(m, g)
            resid = np.abs((np.eye(3) - mm) @ dn.matrix @ mm).max()
            assert resid <= 1e-10 * max(1.0, np.abs(dn.matrix).max())
            count += 1
        assert count >= 30
