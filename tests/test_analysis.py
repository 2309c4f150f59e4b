"""Lazy-regime geometry, certificates, and over/under-parametrized checks."""

import numpy as np
import pytest

from lazytd import (
    Backup,
    LazyGeometry,
    LinearModel,
    Mrp,
    ReluNet,
    SaveSeries,
    SpiralModel,
    TangentModel,
    Trajectory,
    TrainConfig,
    cyclic_chain,
    exact_value,
    fit_exponential_rate,
    integrate,
    make_lazy_rhs,
    metric_drift,
    mu_norm,
    mu_projection,
    overparametrized_certificate,
    stationary_measure,
    td_operator,
    underparametrized_certificate,
)
from lazytd.analysis import displacement_slope
from lazytd.errors import (
    DimensionMismatch,
    DomainError,
    InitNotZero,
    NotOverParametrized,
    NotUnderParametrized,
    RankCollapse,
)

from oracles import linear_td_fixed_point

SPIRAL_RBAR = np.array([-6.85, 8.35, -1.5])


@pytest.fixture
def chain3():
    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=SPIRAL_RBAR, gamma=0.9)
    return mrp, stationary_measure(mrp)


# ------------------------------------------------------------------ the norm

def test_norm0_orthonormal_span_is_euclidean(chain3):
    mrp, mu = chain3
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))
    geom = LazyGeometry.from_model(LinearModel(Q), np.zeros(2), Backup.of(mrp, mu))
    f = Q @ np.array([1.5, -2.0])
    assert geom.norm0(f) == pytest.approx(np.linalg.norm(f), abs=1e-12)


def test_norm0_matches_svd_oracle(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(1)
    J = rng.standard_normal((3, 2))
    geom = LazyGeometry.from_model(LinearModel(J), np.zeros(2), Backup.of(mrp, mu))
    f = J[:, 0]
    # explicit pseudo-inverse of J J^T through its SVD
    U, S, _ = np.linalg.svd(J, full_matrices=False)
    want = np.sqrt(f @ (U / S**2) @ U.T @ f)
    assert geom.norm0(f) == pytest.approx(want, rel=1e-12)


def test_norm0_homogeneous(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(2)
    J = rng.standard_normal((3, 3))
    geom = LazyGeometry.from_model(LinearModel(J), np.zeros(3), Backup.of(mrp, mu))
    f = rng.standard_normal(3)
    assert geom.norm0(2.0 * f) == pytest.approx(2.0 * geom.norm0(f), rel=1e-12)


def test_norm_equivalence_constant_contains_ratios(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(3)
    J = rng.standard_normal((3, 3))
    geom = LazyGeometry.from_model(LinearModel(J), np.zeros(3), Backup.of(mrp, mu))
    for _ in range(100):
        f = geom.span @ rng.standard_normal(geom.rank)
        ratio = mu_norm(f, mu) / geom.norm0(f)
        assert 1.0 / geom.kappa - 1e-9 <= ratio <= geom.kappa + 1e-9


def test_lyapunov_zero_at_target_and_nonnegative(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(4)
    geom = LazyGeometry.from_model(LinearModel(rng.standard_normal((3, 3))), np.zeros(3),
                                   Backup.of(mrp, mu))
    assert geom.lyapunov(geom.backup.vstar) == pytest.approx(0.0, abs=1e-18)
    for _ in range(10):
        assert geom.lyapunov(rng.standard_normal(3)) >= 0.0


class _StatedLipschitz(LinearModel):
    """A linear model stating a Jacobian Lipschitz constant above its own 0,
    so the radius and threshold formulas are finite."""
    jacobian_lipschitz = 0.7


def test_geometry_constants_reproduce_formulas(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(21)
    model = _StatedLipschitz(rng.standard_normal((3, 3)))
    geom = LazyGeometry.from_model(model, np.zeros(3), Backup.of(mrp, mu))
    # metric is symmetric positive definite on the full-rank span
    np.testing.assert_allclose(geom.g0, geom.g0.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(geom.g0) > 0)
    want_radius = (1 - mrp.gamma) ** 2 * geom.sigma_min**2 / (
        192.0 * geom.kappa**2 * 0.7 * geom.sigma_max
    )
    assert geom.radius_bound == pytest.approx(want_radius, rel=1e-12)
    vstar = exact_value(mrp)
    assert geom.alpha_threshold == pytest.approx(geom.norm0(vstar) / want_radius, rel=1e-12)
    assert geom.rate_bound == pytest.approx((1 - mrp.gamma) / (2 * geom.kappa**2), rel=1e-12)


def test_constant_jacobian_gives_infinite_radius(chain3):
    mrp, mu = chain3
    model = LinearModel(np.random.default_rng(5).standard_normal((3, 3)))
    geom = LazyGeometry.from_model(model, np.zeros(3), Backup.of(mrp, mu))
    assert geom.radius_bound == np.inf
    assert geom.alpha_threshold == 0.0


def test_zero_jacobian_gives_rank_zero_and_infinite_kappa(chain3):
    mrp, mu = chain3
    geom = LazyGeometry.from_model(LinearModel(np.zeros((3, 2))), np.zeros(2), Backup.of(mrp, mu))
    assert geom.rank == 0 and geom.sigma_min == geom.sigma_max == 0.0
    assert geom.kappa == np.inf and geom.rate_bound == 0.0
    assert geom.rate_fast == geom.rate_slow == 0.0 and geom.rates_unstable.size == 0


@pytest.mark.parametrize("weights", [[0.5], np.full(4, 0.25)], ids=["one", "four"])
def test_geometry_rejects_weights_of_another_length(weights):
    # the backup of a chain with another number of states: a single weight
    # would broadcast and give kappa = 1 on any chain
    n = len(weights)
    backup = Backup.of(Mrp(P=np.full((n, n), 1.0 / n), rbar=np.zeros(n), gamma=0.9), weights)
    with pytest.raises(DimensionMismatch):
        LazyGeometry.from_model(LinearModel(np.eye(3)), np.zeros(3), backup)


def test_relu_net_gives_zero_radius_and_infinite_threshold():
    # the ReLU Jacobian jumps at kinks, so it has no Lipschitz constant: no
    # initialization lies within the radius and no scaling is above the
    # threshold, which must not come from dividing by that zero radius
    d = 8
    rng = np.random.default_rng(11)
    mrp = Mrp(P=cyclic_chain(d, "backward"), rbar=rng.standard_normal(d), gamma=0.9)
    mu = stationary_measure(mrp)
    model = ReluNet(40, np.linspace(-1, 1, d))
    w0 = model.init_doubled(4)
    geom = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu))
    assert geom.rank == d
    assert geom.radius_bound == 0.0
    assert geom.alpha_threshold == np.inf
    run = Trajectory(times=np.array([0.0]), params=w0[None, :])
    SaveSeries(model, geom.backup, 1e12, geometry=geom).attach(run)
    cert = overparametrized_certificate(geom, run, 1e12)
    assert not cert.init_within_radius and not cert.alpha_above_threshold


# -------------------------------------------------------- projected residual

def test_projected_error_zero_at_exact_value(chain3):
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    vstar = exact_value(mrp)
    assert SaveSeries(model, Backup.of(mrp, mu), 1.0).record(vstar) < 1e-12


def test_projected_error_full_rank_equals_unprojected(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(6)
    model = LinearModel(rng.standard_normal((3, 3)))
    w = rng.standard_normal(3)
    V = model.value(w)
    td = td_operator(mrp, 0.3, V) - V
    want = mu_norm(td, mu)
    got = SaveSeries(model, Backup.of(mrp, mu, 0.3), 1.0).record(w)
    assert got == pytest.approx(want, rel=1e-10)


def test_projected_error_spiral_origin_by_quadrature(chain3):
    mrp, mu = chain3
    model = SpiralModel()
    got = SaveSeries(model, Backup.of(mrp, mu), 1.0).record(np.zeros(1))
    # one-dimensional tangent: |<residual, j>_mu| / ||j||_mu, residual = rbar at 0
    j = model.jacobian(np.zeros(1))[:, 0]
    inner = np.sum(mu * SPIRAL_RBAR * j)
    want = abs(inner) / np.sqrt(np.sum(mu * j * j))
    assert got == pytest.approx(want, rel=1e-10)
    assert got > 1.0  # strictly positive: the origin is not stationary


def test_stationarity_equivalence(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(7)
    features = rng.standard_normal((3, 2))
    model = LinearModel(features)
    target = linear_td_fixed_point(features, mu, mrp.P, mrp.rbar, mrp.gamma, 0.0)
    alpha = 20.0
    at_fixed = target / alpha
    assert SaveSeries(model, Backup.of(mrp, mu), alpha).record(at_fixed) < 1e-9
    rhs = make_lazy_rhs(model, mrp, mu, 0.0, alpha)
    assert np.linalg.norm(rhs(at_fixed)) < 1e-9
    for _ in range(10):
        w = rng.standard_normal(2)
        pe = SaveSeries(model, Backup.of(mrp, mu), alpha).record(w)
        rh = np.linalg.norm(rhs(w))
        assert (pe < 1e-9) == (rh < 1e-9)


# ------------------------------------------------------------------ rate fits

def test_fit_exponential_rate_recovers_synthetic():
    t = np.linspace(0.0, 10.0, 200)
    rate, r2 = fit_exponential_rate(t, 3.0 * np.exp(-0.7 * t))
    assert rate == pytest.approx(0.7, rel=1e-10)
    assert r2 > 0.999999


def test_fit_exponential_rate_rejects_flat():
    t = np.linspace(0.0, 10.0, 50)
    rate, r2 = fit_exponential_rate(t, np.ones_like(t))
    assert r2 == 1.0 or rate == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------- full-rank certificate

def test_overparametrized_certificate_linear_full_rank(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(8)
    model = LinearModel(rng.standard_normal((3, 3)))
    w0 = np.zeros(3)
    geom = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu))
    alpha = 50.0
    rhs = make_lazy_rhs(model, mrp, mu, 0.0, alpha)
    cfg = TrainConfig(dt=1e-2, horizon=400.0, save_every=100)
    run = integrate(rhs, w0, cfg)
    SaveSeries(model, geom.backup, alpha, geometry=geom).attach(run)
    cert = overparametrized_certificate(geom, run, alpha)
    assert cert.sigma_min_positive
    assert cert.envelope_ok
    assert cert.clean_exponential
    assert cert.fitted_rate is not None and cert.fitted_rate >= cert.rate_bound
    assert cert.passed
    assert "lyapunov" in run.diagnostics


def test_overparametrized_certificate_rejects_rank_deficient(chain3):
    mrp, mu = chain3
    model = SpiralModel()
    geom = LazyGeometry.from_model(model, np.zeros(1), Backup.of(mrp, mu))
    run = Trajectory(times=np.array([0.0]), params=np.zeros((1, 1)))
    with pytest.raises(NotOverParametrized):
        overparametrized_certificate(geom, run, 10.0)


def test_run_that_starts_at_its_target_holds_the_envelope():
    # zero rewards: v* = 0 = V(w0), so the Lyapunov value and its envelope
    # are both 0 at every time, and 0 against 0 holds the envelope
    mrp = Mrp(P=cyclic_chain(4, "backward"), rbar=np.zeros(4), gamma=0.9)
    mu = stationary_measure(mrp)
    model = LinearModel(np.eye(4))
    w0 = np.zeros(4)
    geom = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu))
    run = integrate(make_lazy_rhs(model, mrp, mu, 0.0, 1.0), w0,
                    TrainConfig(dt=0.1, horizon=1.0, save_every=2))
    SaveSeries(model, geom.backup, 1.0, geometry=geom).attach(run)
    cert = overparametrized_certificate(geom, run, 1.0)
    np.testing.assert_array_equal(run.diagnostics["lyapunov"], 0.0)
    assert cert.envelope_margin == 1.0
    assert cert.envelope_ok
    # a positive value against a zero envelope still breaks it
    moved = Trajectory(times=run.times, params=run.params + (run.times > 0)[:, None])
    SaveSeries(model, geom.backup, 1.0, geometry=geom).attach(moved)
    assert overparametrized_certificate(geom, moved, 1.0).envelope_margin == np.inf


# -------------------------------------------------- rank-deficient certificate

def test_underparametrized_certificate_tangent_model(chain3):
    mrp, mu = chain3
    base = SpiralModel()
    model = TangentModel(base, np.zeros(1))   # value(0) = 0, rank 1 < 3
    alphas = [10.0, 40.0, 160.0]
    cfg = TrainConfig(dt=1e-3, horizon=3.0, save_every=50)
    runs = [integrate(make_lazy_rhs(model, mrp, mu, 0.0, a), np.zeros(1), cfg)
            for a in alphas]
    for a, run in zip(alphas, runs):
        SaveSeries(model, Backup.of(mrp, mu), a).attach(run)
    geom = LazyGeometry.from_model(model, np.zeros(1), Backup.of(mrp, mu))
    cert = underparametrized_certificate(geom, alphas, runs)
    assert all(cert.converged)
    # exactly linear model: the reached point is the linear fixed point and
    # the excess over the bound is nonpositive, at every scaling
    target = linear_td_fixed_point(model.j0, mu, mrp.P, mrp.rbar, mrp.gamma, 0.0)
    for a, run in zip(alphas, runs):
        np.testing.assert_allclose(a * model.value(run.final_params),
                                   model.j0 @ target, atol=1e-6)
    assert all(exc <= 1e-9 for exc in cert.excesses)
    assert cert.envelope_ok and cert.passed


def test_error_bound_factor_reduces_at_lam_zero(chain3):
    # the factor (1 - lam gamma)/(1 - gamma) is read at the geometry's lam:
    # 1/(1 - gamma) at lam = 0, (1 - 0.3 gamma)/(1 - gamma) at lam = 0.3
    mrp, mu = chain3
    model = TangentModel(SpiralModel(), np.zeros(1))
    cfg = TrainConfig(dt=1e-3, horizon=3.0, save_every=50)
    vstar = exact_value(mrp)
    best_error = mu_norm(mu_projection(model.j0, mu, vstar) - vstar, mu)
    for lam in (0.0, 0.3):
        run = integrate(make_lazy_rhs(model, mrp, mu, lam, 50.0), np.zeros(1), cfg)
        SaveSeries(model, Backup.of(mrp, mu, lam), 50.0).attach(run)
        geom = LazyGeometry.from_model(model, np.zeros(1), Backup.of(mrp, mu, lam))
        cert = underparametrized_certificate(geom, [50.0], [run])
        want = best_error * (1.0 - lam * mrp.gamma) / (1.0 - mrp.gamma)
        assert cert.bound_base == pytest.approx(want, rel=1e-12)


def test_underparametrized_certificate_rejects_full_rank(chain3):
    mrp, mu = chain3
    geom = LazyGeometry.from_model(LinearModel(np.eye(3)), np.zeros(3), Backup.of(mrp, mu))
    run = Trajectory(times=np.array([0.0]), params=np.zeros((1, 3)))
    with pytest.raises(NotUnderParametrized):
        underparametrized_certificate(geom, [10.0], [run])


def test_underparametrized_certificate_rejects_nonzero_init(chain3):
    # the 1/alpha envelope is stated for runs that start from a vanishing value
    mrp, mu = chain3
    model = TangentModel(SpiralModel(), np.zeros(1))
    run = Trajectory(times=np.array([0.0]), params=np.ones((1, 1)))
    SaveSeries(model, Backup.of(mrp, mu), 10.0).attach(run)
    geom = LazyGeometry.from_model(model, np.ones(1), Backup.of(mrp, mu))
    with pytest.raises(InitNotZero):
        underparametrized_certificate(geom, [10.0], [run])


@pytest.mark.parametrize("alphas,n_runs,error", [
    ([], 0, DomainError),
    ([10.0, 20.0], 1, DimensionMismatch),
    (np.array([10.0, 20.0]), 1, DimensionMismatch),
], ids=["empty-grid", "one-run-short", "array-one-run-short"])
def test_underparametrized_certificate_rejects_bad_grid(chain3, alphas, n_runs, error):
    mrp, mu = chain3
    geom = LazyGeometry.from_model(TangentModel(SpiralModel(), np.zeros(1)), np.zeros(1),
                                   Backup.of(mrp, mu))
    run = Trajectory(times=np.array([0.0]), params=np.zeros((1, 1)))
    with pytest.raises(error):
        underparametrized_certificate(geom, alphas, [run] * n_runs)


def test_underparametrized_certificate_records_divergence(chain3):
    mrp, mu = chain3
    model = SpiralModel()
    cfg = TrainConfig(dt=1e-2, horizon=2000.0, save_every=100)
    probe = lambda w: np.max(np.abs(model.value(w)))
    run = integrate(make_lazy_rhs(model, mrp, mu, 0.0, 1.0), np.zeros(1), cfg,
                    divergence_probe=probe)
    SaveSeries(model, Backup.of(mrp, mu), 1.0).attach(run)
    geom = LazyGeometry.from_model(model, np.zeros(1), Backup.of(mrp, mu))
    cert = underparametrized_certificate(geom, [1.0], [run])
    assert cert.diverged == [True]
    assert not cert.passed


# ------------------------------------------------------------- displacement

@pytest.mark.parametrize("displacements, diverged, slope, passed", [
    ([1e-2, 1e-3, 1e-4], [False] * 3, -1.0, True),
    ([1e-2, 1e-3, 1e-4], [False, False, True], np.nan, False),
    ([1e-2, 1e-3, 0.0], [False] * 3, np.nan, False),
    ([1e-2, 10**-2.5, 1e-3], [False] * 3, -0.5, False),
], ids=["one-over-alpha", "diverged", "zero-displacement", "slope-half"])
def test_displacement_slope(displacements, diverged, slope, passed):
    got, ok = displacement_slope([1e2, 1e3, 1e4], displacements, diverged)
    if np.isnan(slope):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(slope, abs=1e-12)
    assert ok is passed


def test_displacement_slope_needs_two_alphas():
    # a line through one point has no slope; a least-squares fit would
    # return one anyway, with a RankWarning
    got, ok = displacement_slope([1e2], [1e-2], [False])
    assert np.isnan(got) and ok is False


# -------------------------------------------------------------- metric drift

def test_metric_drift_zero_for_tangent(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(10)
    model = LinearModel(rng.standard_normal((3, 3)))
    geom = LazyGeometry.from_model(model, np.zeros(3), Backup.of(mrp, mu))
    run = Trajectory(times=np.linspace(0, 1, 5),
                     params=rng.standard_normal((5, 3)))
    SaveSeries(model, geom.backup, 1.0, geometry=geom).attach(run)
    np.testing.assert_allclose(metric_drift(run), np.zeros(5), atol=1e-10)


class _RankDropModel:
    """Toy model whose Jacobian loses rank at the origin."""
    d, p = 2, 2
    jacobian_lipschitz = 1.0      # J(u) - J(v) = [[0, 0], [u1 - v1, u0 - v0]]

    def value(self, w):
        return np.array([w[0], w[0] * w[1]])

    def jacobian(self, w):
        return np.array([[1.0, 0.0], [w[1], w[0]]])


def test_metric_drift_rank_collapse(chain3):
    mrp2 = Mrp(P=np.array([[0.5, 0.5], [0.5, 0.5]]), rbar=np.zeros(2), gamma=0.9)
    mu2 = stationary_measure(mrp2)
    model = _RankDropModel()
    geom = LazyGeometry.from_model(model, np.array([1.0, 1.0]), Backup.of(mrp2, mu2))
    run = Trajectory(times=np.array([0.0, 1.0]),
                     params=np.array([[1.0, 1.0], [0.0, 0.0]]))
    SaveSeries(model, geom.backup, 1.0, geometry=geom).attach(run)
    with pytest.raises(RankCollapse):
        metric_drift(run)


def test_metric_drift_needs_the_series_of_a_geometry(chain3):
    mrp, mu = chain3
    run = Trajectory(times=np.array([0.0]), params=np.zeros((1, 3)))
    with pytest.raises(DomainError):
        metric_drift(run)
    SaveSeries(LinearModel(np.eye(3)), Backup.of(mrp, mu), 1.0).attach(run)  # no geometry, no drift
    with pytest.raises(DomainError):
        metric_drift(run)


def test_metric_drift_small_in_lazy_relu_run():
    # seed chosen so no hinge kink crosses a grid point along the run; when
    # one does, the Jacobian jumps and the lazy-regime drift bound is void
    d = 8
    rng = np.random.default_rng(11)
    mrp = Mrp(P=cyclic_chain(d, "backward"), rbar=rng.standard_normal(d), gamma=0.9)
    mu = stationary_measure(mrp)
    model = ReluNet(40, np.linspace(-1, 1, d))
    w0 = model.init_doubled(4)
    geom = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu))
    assert geom.rank == d
    cfg = TrainConfig(dt=1.0, horizon=2000.0, save_every=200)
    lazy = integrate(make_lazy_rhs(model, mrp, mu, 0.0, 500.0), w0, cfg)
    SaveSeries(model, geom.backup, 500.0, geometry=geom).attach(lazy)
    drift = metric_drift(lazy)
    assert np.max(drift) < (1.0 - mrp.gamma) / 4.0
    # contrast: without the scaling the parameters travel far and the metric
    # drifts well past the lazy regime (reported, not a guarantee)
    unscaled = integrate(make_lazy_rhs(model, mrp, mu, 0.0, 1.0), w0, cfg)
    SaveSeries(model, geom.backup, 1.0, geometry=geom).attach(unscaled)
    try:
        drift1 = float(np.max(metric_drift(unscaled)))
    except RankCollapse:
        drift1 = np.inf
    assert drift1 > np.max(drift)


def test_rank_zero_jacobian_without_lipschitz_constant_gives_zero_radius():
    # no hinge of this net is active on the grid, so J(w0) = 0: with no
    # Lipschitz constant the radius is 0 and the threshold infinite, while a
    # constant zero Jacobian keeps the infinite radius and zero threshold
    from lazytd.experiments import _nn_setup
    mrp, mu, model, w0 = _nn_setup(0.9, 13, 4, 5)
    geom = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu))
    assert geom.rank == 0
    assert (geom.radius_bound, geom.alpha_threshold) == (0.0, np.inf)
    for constant, w in ((LinearModel(np.zeros((5, 2))), np.zeros(2)),
                        (TangentModel(model, w0), w0)):
        geom = LazyGeometry.from_model(constant, w, Backup.of(mrp, mu))
        assert geom.rank == 0
        assert (geom.radius_bound, geom.alpha_threshold) == (np.inf, 0.0)


def test_series_a_stop_recorded_equal_those_attached_after_the_run(chain3):
    # the narrow-net stop records the saved states after the first as the
    # run saves them; attach evaluates only the rest
    mrp, mu = chain3
    model = SpiralModel()
    cfg = TrainConfig(dt=1e-2, horizon=5.0, save_every=50)
    run = integrate(make_lazy_rhs(model, mrp, mu, 0.0, 100.0), np.zeros(1), cfg)
    whole = Trajectory(times=run.times, params=run.params)
    SaveSeries(model, Backup.of(mrp, mu), 100.0).attach(whole)
    series = SaveSeries(model, Backup.of(mrp, mu), 100.0)
    for i in range(4):
        pe = series.record(run.params[i], run.times[i])
        assert pe == whole.diagnostics["projected_error"][i]
    series.attach(run)
    assert len(series.rows) == len(run.times)
    for name in ("projected_error", "value_error", "displacement"):
        np.testing.assert_array_equal(run.diagnostics[name], whole.diagnostics[name])
    np.testing.assert_array_equal(run.values, whole.values)


def test_save_series_rejects_a_geometry_of_another_backup(chain3):
    # a series measured at a lambda its run's geometry was not built at
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    geom = LazyGeometry.from_model(model, np.zeros(3), Backup.of(mrp, mu))
    with pytest.raises(DomainError, match="another backup"):
        SaveSeries(model, Backup.of(mrp, mu, 0.5), 1.0, geometry=geom)
    assert SaveSeries(model, geom.backup, 1.0, geometry=geom).backup is geom.backup
