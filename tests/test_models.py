"""Approximator families: analytic Jacobians against finite differences,
paired initialization, rank classification."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lazytd import (
    Backup,
    EnsembleModel,
    GaussianBumpFeatures,
    LazyGeometry,
    LinearModel,
    Mrp,
    ParticleEnsemble,
    ReluNet,
    SpiralModel,
    TangentModel,
    cyclic_chain,
    finite_difference_jacobian,
    stationary_measure,
)
from lazytd.errors import DimensionMismatch, DomainError, OddWidth

# hand differentiation at theta = 0: growth*a - frequency*b
SPIRAL_JAC_AT_ZERO = np.array([
    0.01 * 10.0 - 0.866 * 2.3094,
    0.01 * -7.0 - 0.866 * -9.815,
    0.01 * -3.0 - 0.866 * 7.5056,
])


def relu_kink_distance(model, w):
    """Distance of any unit's kink argument to zero at the model's states."""
    a, b, c = model.unpack(w)
    return np.abs(model.states @ b.T - c[None, :]).min()


def test_spiral_value_vanishes_at_origin():
    model = SpiralModel()
    np.testing.assert_allclose(model.value(np.zeros(1)), np.zeros(3), atol=1e-14)


def test_spiral_jacobian_at_origin_hand_value():
    model = SpiralModel()
    np.testing.assert_allclose(model.jacobian(np.zeros(1))[:, 0], SPIRAL_JAC_AT_ZERO, atol=1e-12)


def test_spiral_jacobian_matches_finite_difference():
    model = SpiralModel()
    w = np.array([1.0])
    fd = finite_difference_jacobian(model, w)
    an = model.jacobian(w)
    np.testing.assert_allclose(an, fd, rtol=1e-6)


def test_relu_doubled_init_zero_output():
    for seed in range(5):
        model = ReluNet(20, np.linspace(-1, 1, 7))
        w0 = model.init_doubled(seed)
        assert np.max(np.abs(model.value(w0))) <= 1e-12


def test_relu_doubled_init_marginal_moments():
    model = ReluNet(400, np.linspace(-1, 1, 5))
    w0 = model.init_doubled(123)
    a, b, c = model.unpack(w0)
    n = a.size
    assert abs(a.mean()) <= 4.0 / np.sqrt(n)  # pairing makes it exactly 0
    assert abs(a.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)
    assert abs(c.mean()) <= 4.0 / np.sqrt(n)


def test_relu_odd_width_rejected():
    with pytest.raises(OddWidth):
        ReluNet(5, np.linspace(-1, 1, 4)).init_doubled(0)


@pytest.mark.parametrize("n_units", [0, -2])
def test_relu_without_units_rejected(n_units):
    with pytest.raises(DomainError):
        ReluNet(n_units, np.linspace(-1, 1, 4))


@pytest.mark.parametrize("call", [
    lambda: LinearModel(np.ones(3)),
    lambda: ReluNet(4, np.linspace(-1, 1, 3)).value(np.zeros(11)),
    lambda: EnsembleModel(GaussianBumpFeatures(np.linspace(-1, 1, 3)), 4).unpack(np.zeros(7)),
    lambda: ParticleEnsemble(np.ones(3), np.ones(2)),
], ids=["linear-1d-features", "relu-short-w", "ensemble-short-w", "ensemble-lengths"])
def test_parameters_of_another_shape_are_rejected(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_relu_jacobian_matches_finite_difference_away_from_kinks():
    model = ReluNet(4, np.linspace(-1, 1, 6))
    w = model.init_doubled(2)
    assert relu_kink_distance(model, w) > 1e-5
    fd = finite_difference_jacobian(model, w)
    an = model.jacobian(w)
    np.testing.assert_allclose(an, fd, rtol=1e-4, atol=1e-9)


def test_relu_positive_homogeneity_in_output_weights():
    model = ReluNet(6, np.linspace(-1, 1, 5))
    rng = np.random.default_rng(0)
    a = rng.standard_normal(6)
    b = rng.standard_normal((6, 1))
    c = rng.standard_normal(6)
    base = model.value(model.pack(a, b, c))
    scaled = model.value(model.pack(3.5 * a, b, c))
    np.testing.assert_allclose(scaled, 3.5 * base, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_relu_rows_are_a_view_of_the_parameters(m):
    # coordinate-major packing: w is the rows a, b_.1, ..., b_.m, c raveled
    model = ReluNet(4, np.random.default_rng(m).uniform(-1, 1, (5, m)))
    w = np.arange(model.p, dtype=float)
    rows = model._rows(w)
    assert rows.shape == (m + 2, 4)
    assert np.shares_memory(rows, w)
    np.testing.assert_array_equal(rows.ravel(), w)


def test_relu_pack_unpack_round_trip_two_inputs():
    model = ReluNet(6, np.random.default_rng(0).uniform(-1, 1, (5, 2)))
    rng = np.random.default_rng(1)
    a, b, c = rng.standard_normal(6), rng.standard_normal((6, 2)), rng.standard_normal(6)
    w = model.pack(a, b, c)
    np.testing.assert_array_equal(w[6:18], b.T.ravel())     # coordinate-major
    for got, want in zip(model.unpack(w), (a, b, c)):
        np.testing.assert_array_equal(got, want)


def test_tangent_model_exactness():
    base = SpiralModel()
    tan = TangentModel(base, np.zeros(1))
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.standard_normal(1)
        want = tan.v0 + tan.j0 @ (w - tan.w0)
        np.testing.assert_allclose(tan.value(w), want, atol=0)
        np.testing.assert_allclose(tan.jacobian(w), tan.j0, atol=0)


def test_linear_model_jacobian_constant():
    rng = np.random.default_rng(2)
    model = LinearModel(rng.standard_normal((5, 3)))
    w = rng.standard_normal(3)
    np.testing.assert_allclose(model.jacobian(w), model.features)
    fd = finite_difference_jacobian(model, w)
    np.testing.assert_allclose(fd, model.features, rtol=1e-6, atol=1e-8)


def _geometry(model, w):
    # the rank is the model's own; any chain on its states serves
    mrp = Mrp(P=cyclic_chain(model.d), rbar=np.zeros(model.d), gamma=0.9)
    return LazyGeometry.from_model(model, w, Backup.of(mrp, stationary_measure(mrp)))


def test_rank_profile_orthonormal_tangent():
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 4)))
    geometry = _geometry(LinearModel(Q), np.zeros(4))
    np.testing.assert_allclose([geometry.sigma_min, geometry.sigma_max], [1.0, 1.0], atol=1e-12)
    assert geometry.rank == 4 < 6


def test_rank_profile_spiral_rank_one():
    assert _geometry(SpiralModel(), np.zeros(1)).rank == 1


def test_rank_profile_wide_relu_full_rank():
    # width 100 on 30 grid points: full-rank at this seed (checked during
    # development; most seeds land a few kinks short of the grid size)
    model = ReluNet(100, np.linspace(-1, 1, 30))
    assert _geometry(model, model.init_doubled(1454)).rank == 30


@pytest.mark.parametrize("builder,seed", [
    ("linear", 0), ("spiral", 1), ("relu", 2), ("tangent", 3),
])
def test_jacobian_finite_difference_sweep(builder, seed):
    rng = np.random.default_rng(seed)
    if builder == "linear":
        model = LinearModel(rng.standard_normal((6, 3)))
    elif builder == "spiral":
        model = SpiralModel()
    elif builder == "relu":
        model = ReluNet(8, np.linspace(-1, 1, 6))
    else:
        model = TangentModel(ReluNet(8, np.linspace(-1, 1, 6)),
                             ReluNet(8, np.linspace(-1, 1, 6)).init_doubled(4))
    checked = 0
    while checked < 20:
        w = rng.standard_normal(model.p)
        if builder == "relu" and relu_kink_distance(model, w) < 1e-5:
            continue
        fd = finite_difference_jacobian(model, w)
        an = model.jacobian(w)
        np.testing.assert_allclose(an, fd, rtol=1e-4, atol=1e-8)
        checked += 1


def _vjp_model(kind, rng):
    if kind == "linear":
        return LinearModel(rng.standard_normal((6, 3)))
    if kind == "spiral":
        return SpiralModel()
    if kind == "relu-m1":
        return ReluNet(8, np.linspace(-1, 1, 6))
    if kind == "relu-m2":
        return ReluNet(8, rng.uniform(-1, 1, (6, 2)))
    if kind == "ensemble-bump":
        return EnsembleModel(GaussianBumpFeatures(rng.uniform(-1, 1, (6, 2)), width=0.6), 5)
    if kind == "ensemble-bump-m1":
        # the layout of the particle run: scalar states and centers
        return EnsembleModel(GaussianBumpFeatures(np.linspace(-1, 1, 5), width=0.6), 6)
    base = ReluNet(8, np.linspace(-1, 1, 6))
    return TangentModel(base, base.init_doubled(4))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["linear", "spiral", "relu-m1", "relu-m2", "tangent",
                             "ensemble-bump", "ensemble-bump-m1"]),
       seed=st.integers(0, 10_000))
def test_value_and_vjp_matches_finite_difference(kind, seed):
    rng = np.random.default_rng(seed)
    model = _vjp_model(kind, rng)
    w = rng.standard_normal(model.p)
    if isinstance(model, ReluNet):
        assume(relu_kink_distance(model, w) > 1e-5)
    g = rng.standard_normal(model.d)
    value, vjp = model.value_and_vjp(w)
    np.testing.assert_array_equal(value, model.value(w))
    fd = finite_difference_jacobian(model, w)
    np.testing.assert_allclose(vjp(g), fd.T @ g, rtol=1e-5, atol=1e-8)
    # a one-hot pullback is the Jacobian row itself, bit for bit, and so is
    # the row value_and_row reads; its two values are the value vector's
    # entries (the ReLU net's two-row pass may round them differently)
    J = model.jacobian(w)
    for s in range(model.d):
        np.testing.assert_array_equal(vjp(np.eye(model.d)[s]), J[s])
        t = (s + 1) % model.d
        v_s, v_t, row = model.value_and_row(w, s, t)
        np.testing.assert_array_equal(row, J[s])
        np.testing.assert_allclose([v_s, v_t], value[[s, t]], rtol=1e-14, atol=1e-14)


def _relu_draw(m, d, half, integer, seed):
    """A ReLU net and parameters: integer parameters on a grid of states put
    units exactly at their kinks and zero some output weights."""
    rng = np.random.default_rng(seed)
    states = rng.integers(-2, 3, (d, m)) / 2 if integer else rng.uniform(-1, 1, (d, m))
    model = ReluNet(2 * half, states)
    w = rng.integers(-2, 3, model.p).astype(float) if integer else rng.standard_normal(model.p)
    return model, w


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), d=st.integers(1, 8), half=st.integers(1, 6),
       integer=st.booleans(), seed=st.integers(0, 2**16))
def test_relu_value_and_row_match_one_hot_pullback(m, d, half, integer, seed):
    # the row of the two-state pass is the full Jacobian's row bit for bit,
    # and equal to the one-hot pullback (zeros may differ in sign); its two
    # values differ from the d-state pass's at most by rounding
    model, w = _relu_draw(m, d, half, integer, seed)
    ref_value, vjp = model.value_and_vjp(w)
    J = model.jacobian(w)
    for s in range(d):
        for t in range(d):
            v_s, v_t, row = model.value_and_row(w, s, t)
            assert row.tobytes() == J[s].tobytes()
            assert np.array_equal(row, vjp(np.eye(d)[s]))
            np.testing.assert_allclose([v_s, v_t], ref_value[[s, t]], rtol=1e-14, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), d=st.integers(1, 8), half=st.integers(1, 6),
       integer=st.booleans(), seed=st.integers(0, 2**16), scale=st.floats(1e-3, 1e3))
def test_relu_value_bound_holds(m, d, half, integer, seed, scale):
    # the stated bound mag^2 (1 + max_s ||s||_1) covers every value the net
    # takes at parameters of max-norm mag, on the drawn grid and scaled off it
    model, w = _relu_draw(m, d, half, integer, seed)
    for v in (w, w * scale):
        assert model.value_bound(float(np.abs(v).max())) >= np.abs(model.value(v)).max()


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-2000.0, 2000.0))
def test_spiral_value_bound_holds(theta):
    model = SpiralModel()
    assert model.value_bound(abs(theta)) >= np.abs(model.value(np.array([theta]))).max()


def test_value_bound_is_stated_or_infinite():
    assert SpiralModel().value_bound(1e6) == np.inf
    linear = LinearModel(np.array([[1.0, -2.0], [0.5, 0.5]]))
    assert linear.value_bound(2.0) == pytest.approx(6.0, rel=1e-15)
    assert linear.value_bound(2.0) >= np.abs(linear.value([2.0, -2.0])).max()
    base = ReluNet(4, np.linspace(-1, 1, 3))
    assert TangentModel(base, base.init_doubled(0)).value_bound(1.0) == np.inf


# ------------------------------------------------- kernels against reference


@pytest.mark.parametrize("m", [1, 2])
def test_relu_value_and_vjp_match_reference_formulas(m):
    # the fused kernel against value() and the materialized Jacobian
    rng = np.random.default_rng(20 + m)
    states = np.linspace(-1, 1, 9)[:, None] if m == 1 else rng.uniform(-1, 1, (9, m))
    model = ReluNet(12, states)
    for _ in range(5):
        w = rng.standard_normal(model.p)
        g = rng.standard_normal(model.d)
        value, vjp = model.value_and_vjp(w)
        np.testing.assert_array_equal(value, model.value(w))
        np.testing.assert_allclose(vjp(g), model.jacobian(w).T @ g, rtol=1e-13, atol=1e-15)
        # each pullback is its own array: the integrator keeps several alive
        assert vjp(g) is not vjp(g)


def test_spiral_value_and_vjp_match_reference_formulas():
    model = SpiralModel()
    rng = np.random.default_rng(3)
    for th in (0.0, -250.0, 1.3, 40.0):
        w = np.array([th])
        g = rng.standard_normal(3)
        value, vjp = model.value_and_vjp(w)
        np.testing.assert_array_equal(value, model.value(w))
        np.testing.assert_allclose(vjp(g), model.jacobian(w).T @ g, rtol=1e-14, atol=0)
        assert vjp(g).shape == (1,)
