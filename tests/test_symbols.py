"""Metric duals, the principal symbol and its factorization, traction symbols."""

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import elastoray as er
from elastoray.symbols import adot

NORTH = np.array([0.0, 0.0, 1.0])

finite = st.floats(min_value=-3.0, max_value=3.0)
nonzero_tau = st.floats(min_value=0.1, max_value=3.0)


# ------------------------------------------------- analytic dot product

# signed zeros drawn often, magnitudes bounded so no product overflows,
# and values of one scale, whose sums round differently in another order
parts = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(min_value=-1e100, max_value=1e100),
                  st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def dot_operands(draw):
    """Two real or complex arrays of broadcast shapes whose last axes, of
    length 1 to 6, broadcast too."""
    n = draw(st.integers(1, 6))
    lead = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                  max_side=3)).input_shapes
    operands = []
    for shape in lead:
        last = draw(st.sampled_from([n, 1])) if operands else n
        complex_ = draw(st.booleans())
        operands.append(draw(hnp.arrays(
            np.complex128 if complex_ else np.float64, shape + (last,),
            elements=st.builds(complex, parts, parts) if complex_
            else parts)))
    return operands


@settings(max_examples=300, deadline=None)
@given(operands=dot_operands())
# numpy pairs four complex terms: ((1 + 1e16) + (-1e16 + 1)) is 0, where
# adding them in turn gives 1
@example(operands=[np.array([1.0, 1e16, -1e16, 1.0], complex), np.ones(4)])
def test_adot_is_bitwise_numpy_sum(operands):
    a, b = operands
    got, want = np.asarray(adot(a, b)), np.asarray((a * b).sum(axis=-1))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- metrics

def test_metric_conformal_values(constant_medium):
    x = np.zeros(3)
    xi = np.array([1.0, 2.0, 2.0])
    assert ref.metric_inv(constant_medium, "S", x, xi) == pytest.approx(9.0)
    assert ref.metric_inv(constant_medium, "P", x, xi) == pytest.approx(27.0)


def test_metric_stressed_value(stressed_medium):
    xi = np.array([1.0, 0.0, 0.0])
    assert ref.metric_inv(stressed_medium, "S", np.zeros(3), xi) == pytest.approx(1.1)


def test_metric_zero_covector(constant_medium):
    for mode in ("S", "P"):
        assert ref.metric_inv(constant_medium, mode, np.zeros(3), np.zeros(3)) == 0.0


def test_metric_out_of_domain(constant_medium):
    with pytest.raises(er.OutOfDomainError):
        ref.metric_inv(constant_medium, "S", np.array([0.0, 0.0, 2.0]), np.ones(3))


def test_metric_gradient_matches_fd(potential_medium, bump_medium, rng):
    h = 1e-5
    for m in (potential_medium, bump_medium):
        for _ in range(20):
            x = 0.5 * (rng.random(3) - 0.5)
            xi = rng.standard_normal(3)
            mode = rng.choice(["S", "P"])
            val, dx, dxi = ref.metric_inv_grad(m, mode, x, xi)
            assert val == pytest.approx(ref.metric_inv(m, mode, x, xi))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fx = (ref.metric_inv(m, mode, x + e, xi)
                      - ref.metric_inv(m, mode, x - e, xi)) / (2.0 * h)
                fxi = (ref.metric_inv(m, mode, x, xi + e)
                       - ref.metric_inv(m, mode, x, xi - e)) / (2.0 * h)
                assert dx[i] == pytest.approx(fx, rel=1e-6, abs=1e-8)
                assert dxi[i] == pytest.approx(fxi, rel=1e-6, abs=1e-8)


def test_metric_bilinear_polarization_identity(stressed_medium, rng):
    # B(eta, zeta) recovers the quadratic form by polarization
    m = stressed_medium
    x = np.zeros(3)
    eta = rng.standard_normal(3)
    zeta = rng.standard_normal(3)
    q = ref.metric_bilinear
    lhs = q(m, "S", x, eta, zeta)
    rhs = 0.25 * (ref.metric_inv(m, "S", x, eta + zeta) - ref.metric_inv(m, "S", x, eta - zeta))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------------- principal symbol

def test_principal_symbol_hand_values(constant_medium):
    p, pt, qs, qp = ref.principal_symbol(constant_medium, np.zeros(3), 2.0,
                                        np.array([1.0, 0.0, 0.0]))
    assert qs == pytest.approx(3.0)
    assert qp == pytest.approx(1.0)
    assert_allclose(p, np.diag([1.0, 3.0, 3.0]), atol=1e-14)
    assert_allclose(pt, np.diag([3.0, 1.0, 1.0]), atol=1e-14)
    assert_allclose(pt @ p, 3.0 * np.eye(3), atol=1e-13)


def test_principal_symbol_zero_frequency(constant_medium):
    p, pt, qs, qp = ref.principal_symbol(constant_medium, np.zeros(3), 0.0,
                                        np.array([1.0, 0.0, 0.0]))
    assert qs == pytest.approx(-1.0)
    assert qp == pytest.approx(-3.0)
    assert_allclose(p, np.diag([-3.0, -1.0, -1.0]), atol=1e-14)
    assert abs(np.linalg.det(p)) > 0.1


def test_on_characteristic_kernel(constant_medium):
    # tau^2 = g_S: q_S = 0, kernel of p is the plane perpendicular to xi
    xi = np.array([1.0, 2.0, 2.0])
    tau = 3.0  # g_S = 9
    p, _, qs, _ = ref.principal_symbol(constant_medium, np.zeros(3), tau, xi)
    assert abs(qs) < 1e-12
    s = np.linalg.svd(p, compute_uv=False)
    assert np.sum(s < 1e-10 * s[0]) == 2
    for a in (np.array([2.0, -1.0, 0.0]), np.array([0.0, 1.0, -1.0])):  # a . xi = 0
        assert_allclose(p @ a, np.zeros(3), atol=1e-12)


def test_degenerate_direction(constant_medium):
    with pytest.raises(er.DegenerateDirectionError):
        ref.principal_symbol(constant_medium, np.zeros(3), 1.0, np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(tau=nonzero_tau, k1=finite, k2=finite, k3=finite)
def test_factorization_and_determinant(tau, k1, k2, k3):
    xi = np.array([k1, k2, k3])
    if xi @ xi < 1e-6:
        xi = np.array([1.0, 0.0, 0.0])
    m = er.Medium(rho=1.0, lam=1.0, mu=1.0,
                  stress=er.ConstantStress(0.1 * np.diag([1.0, 0.0, -1.0])))
    p, pt, qs, qp = ref.principal_symbol(m, np.zeros(3), tau, xi)
    scale = max(1.0, abs(qs * qp))
    assert np.abs(pt @ p - qs * qp * np.eye(3)).max() <= 1e-12 * scale
    det_scale = max(1.0, abs(qs * qs * qp))
    assert abs(np.linalg.det(p) - qs * qs * qp) <= 1e-10 * det_scale
    assert qp < qs


def test_two_symbol_routes_agree(stressed_medium, potential_medium, rng):
    for m in (stressed_medium, potential_medium):
        for _ in range(50):
            x = 0.5 * (rng.random(3) - 0.5)
            tau = rng.uniform(0.2, 3.0)
            xi = rng.standard_normal(3)
            p, _, _, _ = ref.principal_symbol(
                m, x, tau, xi, batch=ref.projector_symbol_batch)
            p2 = ref.principal_symbol_matrix(m, x, tau, xi)
            assert_allclose(p2, p, rtol=1e-12, atol=1e-12)


def test_symbol_batch_matches_scalar(potential_medium, rng):
    n = 40
    x = 0.5 * (rng.random((n, 3)) - 0.5)
    tau = rng.uniform(0.2, 3.0, size=n)
    xi = rng.standard_normal((n, 3))
    p, pt, qs, qp = er.principal_symbol_batch(potential_medium, x, tau, xi)
    for i in range(n):
        pi, pti, qsi, qpi = ref.principal_symbol(potential_medium, x[i], tau[i], xi[i])
        assert_allclose(p[i], pi, atol=1e-13)
        assert_allclose(pt[i], pti, atol=1e-13)
        assert qs[i] == pytest.approx(qsi)
        assert qp[i] == pytest.approx(qpi)


def test_principal_symbol_complex_covector(constant_medium):
    # analytic continuation: the factorization survives complex xi
    xi = np.array([1.0, 0.0, 0.5j])
    p, pt, qs, qp = ref.principal_symbol(constant_medium, np.zeros(3), 1.3, xi,
                                         batch=ref.projector_symbol_batch)
    assert_allclose(pt @ p, qs * qp * np.eye(3), atol=1e-12)
    p2 = ref.principal_symbol_matrix(constant_medium, np.zeros(3), 1.3, xi)
    assert_allclose(p2, p, atol=1e-12)


@pytest.mark.parametrize("name", ["constant", "constant_stress",
                                  "gaussian_bump", "potential_stress"])
def test_symbol_matches_replaced_projector_form(name, media_dir):
    # the expanded form from the kernel's mode form against the frozen
    # projector-form body it replaced, at real and complex covectors
    m = er.load_medium(media_dir / f"{name}.json")
    rng = np.random.default_rng(len(name))
    n = 200
    x = m.domain.sample_interior(n, rng)
    tau = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
    xi = rng.standard_normal((n, 3))
    for cov in (xi, xi + 0.5j * rng.standard_normal((n, 3))):
        new = er.principal_symbol_batch(m, x, tau, cov)
        old = ref.projector_symbol_batch(m, x, tau, cov)
        for a, b in zip(new, old, strict=True):
            assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_mode_form_hand_values():
    # rho = 2, mu = 1, lam + 2 mu = 3, and a stress coupling the normal to
    # the tangent plane, so that Bh = B(xi_t, nu) is not zero
    r = np.array([[0.5, 0.25, 0.125], [0.25, 0.0, 0.0], [0.125, 0.0, -0.5]])
    m = er.Medium(rho=2.0, lam=1.0, mu=1.0, stress=er.ConstantStress(r))
    nu, xi_t, tau = NORTH, np.array([1.0, 2.0, 0.0]), 3.0
    big_a, bh, c, _ = er.boundary.mode_quadratics(m, np.zeros(3), nu, xi_t,
                                                  tau)
    # B(eta, zeta) = (a eta.zeta + eta.R zeta) / rho: nu.R nu = -1/2,
    # xi_t.R nu = 1/8, xi_t.xi_t = 5 and xi_t.R xi_t = 3/2
    for got, want in ((big_a, [0.25, 1.25]), (bh, [0.0625, 0.0625]),
                      (c, [3.25 - 9.0, 8.25 - 9.0])):
        assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # q = rho tau^2 - a xi.xi - xi.R xi: 18 - 6 - 3 and 18 - 18 - 3
    xi = np.array([[2.0, 1.0, 1.0]])
    _, _, q_s, q_p = er.principal_symbol_batch(m, np.zeros((1, 3)),
                                               np.array([tau]), xi)
    for q, a, want in ((q_s, 1.0, 9.0), (q_p, 3.0, -3.0)):
        assert 2.0 * tau ** 2 - a * xi[0] @ xi[0] - xi[0] @ r @ xi[0] == want
        assert_allclose(q, [want], rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------- traction

def test_traction_hand_value(constant_medium):
    s = er.traction_symbol(constant_medium, NORTH, np.array([1.0, 0.0, 1.0]))
    a = np.array([0.0, 1.0, 0.0])
    assert_allclose(s @ a, a, atol=1e-14)


def test_traction_tangential_formula(constant_medium, rng):
    lam = mu = 1.0
    nu = NORTH
    for _ in range(10):
        xi = np.append(rng.standard_normal(2), 0.0)  # xi . nu = 0
        a = rng.standard_normal(3)
        s = er.traction_symbol(constant_medium, NORTH, xi)
        expect = lam * (xi @ a) * nu + mu * (nu @ a) * xi
        assert_allclose(s @ a, expect, atol=1e-13)


def test_traction_requires_boundary(constant_medium):
    with pytest.raises(er.NotOnBoundaryError):
        er.traction_symbol(constant_medium, np.array([0.0, 0.0, 0.5]),
                           np.array([1.0, 0.0, 0.0]))


def test_traction_normal_derivative_elliptic(
    constant_medium, stressed_medium, potential_medium, bump_medium, rng
):
    # eigenvalues mu, mu, lam + 2 mu for R = 0; invertible for every admissible medium
    dn = ref.traction_normal_derivative(constant_medium, NORTH)
    assert_allclose(np.sort(np.linalg.eigvalsh(dn)), [1.0, 1.0, 3.0], atol=1e-13)
    for m in (constant_medium, stressed_medium, potential_medium, bump_medium):
        for x in m.domain.sample_boundary(20, rng):
            d = ref.traction_normal_derivative(m, x)
            assert abs(np.linalg.det(d)) > 1e-3


def test_traction_complex_covector(constant_medium):
    # evaluated by analytic extension, never conjugating
    xi = np.array([1.0, 0.0, 2.0j])
    s = er.traction_symbol(constant_medium, NORTH, xi)
    nu = NORTH
    lam = mu = 1.0
    expect = (lam * np.outer(nu, xi) + mu * np.outer(xi, nu)
              + mu * (xi @ nu) * np.eye(3))
    assert_allclose(s, expect, atol=1e-14)
