"""Coefficient fields, residual stress construction, domains, class membership."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import elastoray as er
from elastoray.medium import Poly3

FD_STEP = 1e-5
FD_RTOL = 1e-6

coords = st.floats(min_value=-0.5, max_value=0.5)


def fd_gradient(f, x, h=FD_STEP):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------- fields

def test_constant_field():
    f = er.ConstantField(2.5)
    x = np.array([0.1, -0.2, 0.3])
    assert f(x) == 2.5
    assert_allclose(f.gradient(x), np.zeros(3))


def test_poly3_eval_and_diff():
    p = Poly3({(2, 0, 0): 1.0, (0, 1, 1): -3.0, (0, 0, 0): 0.5})
    x = np.array([2.0, 1.0, -1.0])
    assert p(x) == pytest.approx(4.0 + 3.0 + 0.5)
    dp = p.diff(0)
    assert dp(x) == pytest.approx(4.0)


@settings(max_examples=50, deadline=None)
@given(x1=coords, x2=coords, x3=coords)
def test_polynomial_field_gradient_fd(x1, x2, x3):
    poly = Poly3({(2, 0, 0): 0.3, (1, 1, 0): -0.2, (0, 0, 3): 0.1, (0, 0, 0): 1.5})
    f = er.PolynomialField(poly)
    x = np.array([x1, x2, x3])
    assert_allclose(f.gradient(x), fd_gradient(f, x), rtol=FD_RTOL, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(x1=coords, x2=coords, x3=coords)
def test_gaussian_bump_gradient_fd(x1, x2, x3):
    f = er.GaussianBumpField(1.0, -0.3, center=(0.1, 0.0, -0.2), width=0.55)
    x = np.array([x1, x2, x3])
    assert f(x) > 0.0
    assert_allclose(f.gradient(x), fd_gradient(f, x), rtol=FD_RTOL, atol=1e-9)


def test_poly3_dict_round_trip_and_one_evaluator():
    p = Poly3({(2, 0, 0): 1.0, (0, 1, 1): -3.0, (1, 0, 3): 0.25})
    q = Poly3.from_dict(p.to_dict())
    assert np.array_equal(q.exps, p.exps) and np.array_equal(q.coefs, p.coefs)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 3))
    # the polynomial and its field are one evaluator, so they agree bitwise
    assert np.array_equal(p(x), er.PolynomialField(p)(x))
    assert p(x).shape == (7,) and Poly3({})(x[0]) == 0.0


# the constructor takes exponent sequences, from_dict "i,j,k" strings
@pytest.mark.parametrize("build, key", [
    *((Poly3, k) for k in [(-1, 0, 0), (1, 0), (1, 0, 0, 0), (1.5, 0, 0),
                           "100", 3]),
    *((Poly3.from_dict, k) for k in ["-1,0,0", "1,0", "a,0,0", "1.5,0,0", ""]),
])
def test_poly3_rejects_bad_keys(build, key):
    with pytest.raises(er.MediumFormatError):
        build({key: 1.0})


def test_polynomial_field_degree_cap():
    with pytest.raises(er.MediumFormatError):
        er.PolynomialField(Poly3({(5, 0, 0): 1.0}))


# ------------------------------------------------------- residual stress

def test_stress_from_square_potential():
    # psi = x1^2: Hess = diag(2,0,0), Laplacian = 2
    stress = er.stress_from_potential(Poly3({(2, 0, 0): 1.0}))
    for x in (np.zeros(3), np.array([0.3, -0.1, 0.7])):
        assert_allclose(stress.matrix(x), np.diag([0.0, -2.0, -2.0]))


def test_stress_from_xyz_potential():
    stress = er.stress_from_potential(Poly3({(1, 1, 1): 1.0}))
    x = np.array([0.2, -0.4, 0.6])
    r = stress.matrix(x)
    assert_allclose(np.diagonal(r), np.zeros(3))
    assert r[0, 1] == pytest.approx(x[2])
    assert r[0, 2] == pytest.approx(x[1])
    assert r[1, 2] == pytest.approx(x[0])
    assert_allclose(r, r.T)
    assert_allclose(stress.divergence(x), np.zeros(3), atol=1e-14)


def test_stress_derivative_matches_fd():
    stress = er.stress_from_potential(Poly3({(1, 1, 1): 0.05, (2, 2, 0): 0.01}))
    x = np.array([0.25, -0.15, 0.4])
    dr = stress.derivative(x)  # dr[i, j, k] = dR_ij/dx_k
    for k in range(3):
        e = np.zeros(3)
        e[k] = FD_STEP
        fd = (stress.matrix(x + e) - stress.matrix(x - e)) / (2.0 * FD_STEP)
        assert_allclose(dr[:, :, k], fd, rtol=FD_RTOL, atol=1e-10)


def test_zero_potential_gives_zero_stress():
    stress = er.stress_from_potential(Poly3({}))
    assert_allclose(stress.matrix(np.array([0.3, 0.2, 0.1])), np.zeros((3, 3)))


def test_potential_rejects_non_polynomial():
    with pytest.raises(er.UnsupportedPotentialError):
        er.stress_from_potential(er.GaussianBumpField(1.0, -0.3))
    with pytest.raises(er.UnsupportedPotentialError):
        er.stress_from_potential(Poly3({(3, 2, 0): 1.0}))


def test_divergence_vanishes_on_grid(potential_medium):
    # central differences are exact on the quadratic entries, so only rounding remains
    stress = potential_medium.stress
    h = 1e-3
    axis = np.linspace(-0.9, 0.9, 11) / np.sqrt(3.0)
    worst = 0.0
    for x1 in axis:
        for x2 in axis:
            for x3 in axis:
                x = np.array([x1, x2, x3])
                div = np.zeros(3)
                for k in range(3):
                    e = np.zeros(3)
                    e[k] = h
                    div += (stress.matrix(x + e)[k] - stress.matrix(x - e)[k]) / (2.0 * h)
                worst = max(worst, np.abs(div).max())
    assert worst < 1e-10


# ----------------------------------------------------------------- domain

def test_ball_normal_and_projection():
    dom = er.Domain()
    u = np.array([0.3, -0.4, 0.5])
    p = dom.radial_project(u)
    assert dom.on_boundary(p)
    nu = dom.normal(p)
    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-14)
    # outward: phi increases along nu
    assert dom.phi(p + 1e-6 * nu) > dom.phi(p)
    assert dom.contains(0.5 * p) and not dom.contains(1.5 * p)


def test_ellipsoid_normal():
    dom = er.Domain(kind="ellipsoid", semi_axes=(1.0, 0.8, 0.6))
    p = dom.radial_project(np.array([0.2, 0.7, -0.3]))
    assert dom.on_boundary(p)
    nu = dom.normal(p)
    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-14)
    assert dom.phi(p + 1e-6 * nu) > 0.0


def test_tangent_basis_orthonormal():
    dom = er.Domain()
    p = dom.radial_project(np.array([0.1, 0.9, 0.2]))
    t1, t2 = dom.tangent_basis(p)
    nu = dom.normal(p)
    for t in (t1, t2):
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
        assert abs(t @ nu) < 1e-12
    assert abs(t1 @ t2) < 1e-12


# ------------------------------------------------------- class membership

def test_class_membership_passes():
    m = er.Medium(rho=1.0, lam=1.0, mu=1.0)
    rep = er.check_class_membership(m, er.ClassParams(3.0, 0.2, 0.5))
    assert rep.lame_ok and rep.stress_ok and rep.positivity_ok and rep.divergence_ok
    assert rep.positivity_margin == pytest.approx(1.0)
    assert rep.admissible


def test_class_membership_small_mu_fails():
    m = er.Medium(rho=1.0, lam=1.0, mu=0.2)
    rep = er.check_class_membership(m, er.ClassParams(3.0, 0.2, 0.5))
    assert not rep.lame_ok
    assert rep.lame_margin == pytest.approx(-2.0)  # 1/mu = 5 > L = 3
    assert not rep.admissible


def test_class_membership_large_stress_fails():
    m = er.Medium(rho=1.0, lam=1.0, mu=1.0, stress=er.ConstantStress(0.5 * np.eye(3)))
    rep = er.check_class_membership(m, er.ClassParams(3.0, 0.2, 0.5))
    assert not rep.stress_ok
    assert rep.stress_margin == pytest.approx(-0.3)  # |R| = 0.5 > 0.2 mu


def test_admissible_media_have_positive_forms(
    constant_medium, stressed_medium, potential_medium, bump_medium, rng
):
    for m in (constant_medium, stressed_medium, potential_medium, bump_medium):
        assert er.check_class_membership(m, m.class_params).admissible
        for x in m.domain.sample_interior(50, rng):
            r = m.stress.matrix(x) if m.stress is not None else np.zeros((3, 3))
            for a in (m.mu(x), m.lam(x) + 2.0 * m.mu(x)):
                np.linalg.cholesky((a * np.eye(3) + r) / m.rho(x))


def test_medium_rejects_nonpositive_mu():
    with pytest.raises(er.MediumFormatError):
        er.Medium(rho=1.0, lam=1.0, mu=-1.0)


def test_class_params_validated():
    with pytest.raises(er.MediumFormatError):
        er.ClassParams(-1.0, 0.2, 0.5)
    with pytest.raises(er.MediumFormatError):
        er.ClassParams(3.0, 0.2, 0.0)


# ------------------------------------------------------------------- i/o

def test_dict_roundtrip(stressed_medium, potential_medium, bump_medium):
    for m in (stressed_medium, potential_medium, bump_medium):
        m2 = er.medium_from_dict(er.medium_to_dict(m))
        assert er.medium_digest(m2) == er.medium_digest(m)
        x = np.array([0.2, -0.3, 0.4])
        assert m2.mu(x) == pytest.approx(m.mu(x))
        if m.stress is not None:
            assert_allclose(m2.stress.matrix(x), m.stress.matrix(x))


def test_file_roundtrip(tmp_path, potential_medium):
    path = tmp_path / "medium.json"
    er.save_medium(potential_medium, path)
    m2 = er.load_medium(path)
    assert er.medium_digest(m2) == er.medium_digest(potential_medium)


def test_load_rejects_nan(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"domain": {"kind": "ball"}, "rho": 1.0, "lambda": NaN, "mu": 1.0}')
    with pytest.raises(er.MediumFormatError):
        er.load_medium(path)


def test_load_rejects_unknown_family(tmp_path):
    doc = {
        "domain": {"kind": "ball"},
        "rho": 1.0,
        "lambda": 1.0,
        "mu": {"family": "mystery", "value": 1.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(er.MediumFormatError):
        er.load_medium(path)


def test_digest_is_stable(constant_medium):
    d1 = er.medium_digest(constant_medium)
    d2 = er.medium_digest(er.medium_from_dict(er.medium_to_dict(constant_medium)))
    assert d1 == d2 and len(d1) == 16
