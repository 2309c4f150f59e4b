"""Training engines: chain sampling, sampled TD updates, averaged and scaled
flows, and the fixed-step integrators."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazytd import (
    LinearModel,
    Mrp,
    ReluNet,
    SpiralModel,
    TrainConfig,
    cyclic_chain,
    exact_value,
    integrate,
    make_lazy_rhs,
    random_chain,
    run_stochastic_td,
    sample_chain,
    stationary_measure,
    stochastic_td_step,
    td_operator,
    td_resolvent,
)
from lazytd.dynamics import RKC_MARGIN, rkc_scheme, rkc_stage_count, write_csv
from lazytd.errors import DimensionMismatch, DomainError, NonFiniteState

from oracles import CHAIN_KINDS, irreducible_chain, linear_td_fixed_point, series_td_components

SPIRAL_RBAR = np.array([-6.85, 8.35, -1.5])


@pytest.fixture
def chain3():
    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=SPIRAL_RBAR, gamma=0.9)
    return mrp, stationary_measure(mrp)


# ------------------------------------------------------------- chain sampling

def test_sample_chain_symmetric_frequency():
    mrp = Mrp(P=np.array([[0.5, 0.5], [0.5, 0.5]]), rbar=np.zeros(2), gamma=0.5)
    mu = stationary_measure(mrp)
    path = sample_chain(mrp, mu, 10**6, 42)
    freq = np.mean(path == 0)
    assert abs(freq - 0.5) < 0.005


def test_sample_chain_cyclic_uniform(chain3):
    mrp, mu = chain3
    path = sample_chain(mrp, mu, 200_000, 7)
    freqs = np.bincount(path, minlength=3) / path.size
    # 3 standard errors for a multinomial frequency around 1/3
    assert np.abs(freqs - 1 / 3).max() < 3 * np.sqrt((1 / 3) * (2 / 3) / path.size)


def test_sample_chain_deterministic(chain3):
    mrp, mu = chain3
    a = sample_chain(mrp, mu, 1000, 5)
    b = sample_chain(mrp, mu, 1000, 5)
    np.testing.assert_array_equal(a, b)


def test_sample_chain_matches_searchsorted_reference():
    rng = np.random.default_rng(3)
    P = rng.random((6, 6)) ** 3
    P /= P.sum(axis=1, keepdims=True)
    mrp = Mrp(P=P, rbar=np.zeros(6), gamma=0.5)
    mu = stationary_measure(mrp)
    steps = 5000
    # the per-step searchsorted loop sample_chain replaces, same draws
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    draws = np.random.default_rng(11).random(steps)
    ref = np.empty(steps, dtype=np.int64)
    ref[0] = np.searchsorted(np.cumsum(mu), draws[0], side="right")
    for t in range(1, steps):
        ref[t] = np.searchsorted(cum[ref[t - 1]], draws[t], side="right")
    np.testing.assert_array_equal(sample_chain(mrp, mu, steps, 11), ref)


def test_sample_chain_first_draw_past_cumulative_mu():
    # mu's cumulative sum can end below 1 by rounding; a first draw between
    # it and 1 must pick the last state, as the transition rows do
    class TopFirstDraw(np.random.Generator):
        def random(self, size=None):
            draws = super().random(size)
            draws[0] = 1 - 1e-13
            return draws

    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=np.zeros(3), gamma=0.9)
    mu = np.array([1 / 3, 1 / 3, 1 / 3 - 1e-12])
    path = sample_chain(mrp, mu, 6, TopFirstDraw(np.random.PCG64(0)))
    assert path[0] == 2
    assert all(mrp.P[s, s_next] > 0 for s, s_next in zip(path[:-1], path[1:]))


@pytest.mark.parametrize("weights", [[1.0], [0.5, 0.5], np.full(4, 0.25), np.full((3, 1), 1 / 3)],
                         ids=["one", "two", "four", "column"])
def test_weights_of_another_length_are_rejected(chain3, weights):
    # one weight per state: a length-1 vector would broadcast into an
    # unweighted drift, and a short one would leave states unsampled
    mrp, _ = chain3
    with pytest.raises(DimensionMismatch):
        sample_chain(mrp, weights, 10, 0)
    with pytest.raises(DimensionMismatch):
        make_lazy_rhs(LinearModel(np.eye(3)), mrp, weights, 0.0, 1.0)


# --------------------------------------------------------------- sampled step

def test_step_reduces_to_plain_td_at_lam_zero(chain3):
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    cfg = TrainConfig(lam=0.0, alpha=1.0, beta0=0.1)
    w = np.array([1.0, -2.0, 0.5])
    z = np.array([9.0, 9.0, 9.0])  # must be forgotten entirely at lam = 0
    w2 = np.empty(3)
    stochastic_td_step(*model.value_and_row(w), w, z, 0, 1, 2.0, 0.1, mrp.gamma, cfg, w2)
    np.testing.assert_allclose(z, model.jacobian(w)[0])
    delta = 2.0 + mrp.gamma * w[1] - w[0]
    np.testing.assert_allclose(w2, w + 0.1 * delta * z)


def test_expected_update_vanishes_at_fixed_point(chain3):
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    vstar = exact_value(mrp)
    cfg = TrainConfig(lam=0.0, alpha=1.0, beta0=1.0)
    # expectation over (s, s') ~ mu x P of the lam = 0 update, by direct sum
    total, w2 = np.zeros(3), np.empty(3)
    for s in range(3):
        for s_next in range(3):
            stochastic_td_step(*model.value_and_row(vstar), vstar, np.zeros(3),
                               s, s_next, mrp.rbar[s], 1.0, mrp.gamma, cfg, w2)
            total += mu[s] * mrp.P[s, s_next] * (w2 - vstar)
    np.testing.assert_allclose(total, np.zeros(3), atol=1e-12)


def test_stochastic_linear_approaches_fixed_point(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(10)
    features = rng.standard_normal((3, 2))
    model = LinearModel(features)
    lam = 0.4
    target = linear_td_fixed_point(features, mu, mrp.P, mrp.rbar, mrp.gamma, lam)
    cfg = TrainConfig(lam=lam, alpha=1.0, beta0=2e-3,
                      horizon=100_000, seed=3, save_every=1000)
    run = run_stochastic_td(model, mrp, mu, cfg, np.zeros(2))
    tail = run.params[len(run.params) // 2:]
    gap = np.abs(tail.mean(axis=0) - target).max()
    assert gap < 0.05 * max(1.0, np.abs(target).max())


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 6),
    lam=st.floats(0.0, 0.95),
    alpha=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**16),
)
def test_sampled_run_matches_full_jacobian_rows(d, lam, alpha, seed):
    # the engine reads one Jacobian row per step; the reference is the literal
    # TD(lambda) recursion with the row read off the full Jacobian, and the
    # two runs must agree bit for bit
    rng = np.random.default_rng(seed)
    mrp = Mrp(P=random_chain(d, rng), rbar=rng.uniform(-1, 1, d), gamma=0.9)
    mu = stationary_measure(mrp)
    model = ReluNet(10, np.linspace(-1, 1, d))
    w0 = model.init_doubled(rng)
    cfg = TrainConfig(lam=lam, alpha=alpha, beta0=0.05, horizon=300, save_every=1, seed=seed)
    run = run_stochastic_td(model, mrp, mu, cfg, w0)

    path = sample_chain(mrp, mu, 301, np.random.default_rng(cfg.seed))
    w, z, ref = w0.copy(), np.zeros(model.p), [w0.copy()]
    for k in range(300):
        s, s_next = path[k], path[k + 1]
        V = model.value(w)
        delta = mrp.rbar[s] + mrp.gamma * cfg.alpha * V[s_next] - cfg.alpha * V[s]
        z = mrp.gamma * cfg.lam * z + model.jacobian(w)[s]
        w = w + cfg.beta0 * delta * z / cfg.alpha
        ref.append(w.copy())
    assert not run.diverged
    np.testing.assert_array_equal(run.params, np.asarray(ref))
    np.testing.assert_array_equal(run.times, cfg.beta0 * np.arange(301))


# -------------------------------------------------------------- averaged flow

def test_averaged_rhs_zero_at_fixed_point(chain3):
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    for lam in (0.0, 0.5):
        r = make_lazy_rhs(model, mrp, mu, lam, 1.0)(exact_value(mrp))
        np.testing.assert_allclose(r, np.zeros(3), atol=1e-10)


def test_averaged_rhs_matches_matrix_assembly(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(12)
    features = rng.standard_normal((3, 2))
    model = LinearModel(features)
    w = rng.standard_normal(2)
    lam = 0.7
    r_lam, P_lam = series_td_components(mrp.P, mrp.rbar, mrp.gamma, lam)
    want = features.T @ (mu * (r_lam + (mrp.gamma * P_lam - np.eye(3)) @ features @ w))
    np.testing.assert_allclose(make_lazy_rhs(model, mrp, mu, lam, 1.0)(w), want, atol=1e-9)


def test_averaged_rhs_spiral_three_term_sum(chain3):
    mrp, mu = chain3
    model = SpiralModel()
    theta = np.array([0.3])
    lam = 0.0
    V = model.value(theta)
    jac = model.jacobian(theta)[:, 0]
    td = td_operator(mrp, lam, V) - V
    want = sum(mu[s] * td[s] * jac[s] for s in range(3))
    got = make_lazy_rhs(model, mrp, mu, lam, 1.0)(theta)
    np.testing.assert_allclose(got, [want], atol=1e-12)


# ------------------------------------------------------------------ lazy flow

def test_lazy_flow_alpha_invariant_in_value_space(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(14)
    features = rng.standard_normal((3, 2))
    model = LinearModel(features)          # value at w0 = 0 for w0 = 0
    cfg = TrainConfig(dt=1e-3, horizon=5.0, save_every=100)
    w0 = np.zeros(2)
    flows = []
    for alpha in (1.0, 10.0, 100.0):
        rhs = make_lazy_rhs(model, mrp, mu, 0.0, alpha)
        run = integrate(rhs, w0, cfg)
        flows.append(alpha * run.params @ features.T)  # scaled value trajectories
    np.testing.assert_allclose(flows[0], flows[1], atol=1e-9)
    np.testing.assert_allclose(flows[0], flows[2], atol=1e-9)


def test_lazy_rhs_vanishes_at_tangent_fixed_point(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(15)
    features = rng.standard_normal((3, 2))
    model = LinearModel(features)
    lam, alpha = 0.2, 50.0
    # fixed point of the scaled flow: alpha * features @ w = linear fixed point
    target = linear_td_fixed_point(features, mu, mrp.P, mrp.rbar, mrp.gamma, lam)
    w_fixed = target / alpha
    assert np.linalg.norm(make_lazy_rhs(model, mrp, mu, lam, alpha)(w_fixed)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CHAIN_KINDS), d=st.integers(2, 8), seed=st.integers(0, 2**16),
       gamma=st.floats(0.05, 0.99), lam=st.floats(0.0, 0.9))
def test_lazy_rhs_vanishes_at_linear_td_fixed_point(kind, d, seed, gamma, lam):
    # on any irreducible chain, periodic ones included, the scaled flow of a
    # full-column-rank linear model stops where alpha times its value is the
    # linear TD fixed point
    rng = np.random.default_rng(seed)
    mrp = Mrp(P=irreducible_chain(kind, d, rng), rbar=rng.standard_normal(d), gamma=gamma)
    mu = stationary_measure(mrp)
    features = rng.standard_normal((d, int(rng.integers(1, d + 1))))  # full rank almost surely
    target = linear_td_fixed_point(features, mu, mrp.P, mrp.rbar, gamma, lam)
    model = LinearModel(features)
    for alpha in (1.0, 100.0):
        rhs = make_lazy_rhs(model, mrp, mu, lam, alpha)
        reward_term = np.linalg.norm(rhs(np.zeros(model.p)))  # what the fixed point cancels
        assert np.linalg.norm(rhs(target / alpha)) <= 1e-8 * reward_term + 1e-15


def test_lazy_flow_reaches_tangent_fixed_point(chain3):
    mrp, mu = chain3
    rng = np.random.default_rng(16)
    features = rng.standard_normal((3, 2))
    model = LinearModel(features)
    lam, alpha = 0.2, 50.0
    rhs = make_lazy_rhs(model, mrp, mu, lam, alpha)
    run = integrate(rhs, np.zeros(2), TrainConfig(dt=1e-2, horizon=1200.0, save_every=1000))
    assert np.linalg.norm(rhs(run.final_params)) < 1e-8


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("alpha", [1.0, 500.0])
def test_lazy_rhs_matches_textbook_drift(lam, alpha):
    # J^T Gamma (T(alpha V) - alpha V) / alpha, assembled from the resolvent
    # and the materialized Jacobian
    mrp = Mrp(P=cyclic_chain(7, "backward"), rbar=np.linspace(-1, 2, 7), gamma=0.9)
    mu = stationary_measure(mrp)
    model = ReluNet(10, np.linspace(-1, 1, 7))
    rhs = make_lazy_rhs(model, mrp, mu, lam, alpha)
    r_lam, P_lam = td_resolvent(mrp, lam)
    rng = np.random.default_rng(30)
    for _ in range(4):
        w = model.init_doubled(rng) + 0.1 * rng.standard_normal(model.p)
        V = alpha * model.value(w)
        want = model.jacobian(w).T @ (mu * (r_lam + mrp.gamma * P_lam @ V - V)) / alpha
        np.testing.assert_allclose(rhs(w), want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def test_scaled_value_norm_is_exact(chain3):
    mrp, mu = chain3
    model = ReluNet(6, np.linspace(-1, 1, 3))
    rng = np.random.default_rng(31)
    for alpha in (1.0, 7.3, 500.0):
        rhs = make_lazy_rhs(model, mrp, mu, 0.0, alpha)
        for _ in range(5):
            w = rng.standard_normal(model.p)
            want = float(np.max(np.abs(alpha * model.value(w))))
            assert rhs.scaled_value_norm(w) == want        # a fresh evaluation
            rhs(w)
            assert rhs.scaled_value_norm(w) == want        # the rhs call's value


@pytest.mark.parametrize("bad", [
    dict(lam=1.0), dict(lam=-0.1), dict(alpha=0.5), dict(dt=0.0),
    dict(integrator="ab3"), dict(beta0=0.0),
    dict(lam=np.nan), dict(save_every=0), dict(dt=np.inf),
    dict(dt=np.nan), dict(alpha=np.nan), dict(beta0=np.nan), dict(horizon=np.nan),
    dict(horizon=np.inf), dict(horizon=0.0), dict(horizon=-1.0), dict(save_every=2.5),
])
def test_train_config_validation(bad):
    from lazytd.errors import DomainError
    with pytest.raises(DomainError):
        TrainConfig(**bad)


@pytest.mark.parametrize("call", [
    lambda mrp, mu: make_lazy_rhs(LinearModel(np.eye(3)), mrp, mu, 0.0, 0.5),
    lambda mrp, mu: sample_chain(mrp, mu, 0, 0),
], ids=["rhs-alpha-below-one", "chain-of-no-steps"])
def test_invalid_engine_input_raises_domain_error(chain3, call):
    with pytest.raises(DomainError):
        call(*chain3)


# ----------------------------------------------------------------- integrator

def test_integrate_zero_rhs_is_constant():
    cfg = TrainConfig(dt=0.1, horizon=5.0, save_every=10)
    run = integrate(lambda w: np.zeros_like(w), np.array([2.0, -1.0]), cfg)
    assert not run.diverged
    np.testing.assert_array_equal(run.params[-1], [2.0, -1.0])


def test_integrate_rk4_step_matches_textbook_combination():
    # one step of w' = A w, against the four stages written out
    A = np.array([[-1.0, 0.3, 0.0], [0.2, -0.5, 0.1], [0.0, -0.4, -2.0]])
    w0 = np.array([1.0, -2.0, 0.5])
    dt = 0.1
    k1 = A @ w0
    k2 = A @ (w0 + 0.5 * dt * k1)
    k3 = A @ (w0 + 0.5 * dt * k2)
    k4 = A @ (w0 + dt * k3)
    want = w0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    run = integrate(lambda w: A @ w, w0, TrainConfig(dt=dt, horizon=dt, save_every=1))
    np.testing.assert_array_equal(run.params[-1], want)
    np.testing.assert_array_equal(run.params[0], w0)


def test_integrate_exponential_decay_oracle():
    cfg = TrainConfig(dt=1e-3, horizon=1.0, save_every=1000, integrator="rk4")
    run = integrate(lambda w: -w, np.array([1.0]), cfg)
    assert abs(run.final_params[0] - np.exp(-1.0)) < 1e-8


def test_integrate_euler_first_order():
    cfg = TrainConfig(dt=1e-4, horizon=1.0, save_every=10_000, integrator="euler")
    run = integrate(lambda w: -w, np.array([1.0]), cfg)
    assert abs(run.final_params[0] - np.exp(-1.0)) < 1e-4


def test_integrate_step_halving_self_check(chain3):
    mrp, mu = chain3
    model = SpiralModel()
    rhs = make_lazy_rhs(model, mrp, mu, 0.0, 100.0)
    runs = {}
    for dt in (1e-2, 5e-3):
        cfg = TrainConfig(dt=dt, horizon=2.0, save_every=10**6)
        runs[dt] = integrate(rhs, np.zeros(1), cfg).final_params[0]
    assert abs(runs[1e-2] - runs[5e-3]) < 1e-6 * max(1.0, abs(runs[5e-3]))


def test_spiral_unscaled_flow_diverges(chain3):
    mrp, mu = chain3
    model = SpiralModel()
    rhs = make_lazy_rhs(model, mrp, mu, 0.0, 1.0)
    cfg = TrainConfig(dt=1e-2, horizon=2000.0, save_every=100)
    probe = lambda w: np.max(np.abs(model.value(w)))
    run = integrate(rhs, np.zeros(1), cfg, divergence_probe=probe)
    assert run.diverged
    assert run.diverged_at is not None
    # no samples past the divergence time, and all saved states finite
    assert run.times[-1] <= run.diverged_at
    assert np.all(np.isfinite(run.params))
    # the probe that reuses the rhs's value stops at the same step
    fused = integrate(rhs, np.zeros(1), cfg, divergence_probe=rhs.scaled_value_norm)
    assert fused.diverged and fused.diverged_at == run.diverged_at
    np.testing.assert_array_equal(fused.params, run.params)
    # sampled TD(0) on the same spiral stops by the same rule, at a step
    beta = 2e-3
    sampled = run_stochastic_td(model, mrp, mu, TrainConfig(beta0=beta, horizon=20_000), np.zeros(1))
    assert sampled.diverged
    assert sampled.diverged_at == round(sampled.diverged_at / beta) * beta
    assert sampled.times[-1] <= sampled.diverged_at
    assert np.all(np.isfinite(sampled.params))
    assert max(np.abs(model.value(w)).max() for w in sampled.params) <= 1e8


@pytest.mark.parametrize("integrator,stages", [
    ("rk4", 4), ("euler", 1), pytest.param("rkc", None, id="rkc-varying")])
def test_integrate_rhs_calls_per_step(chain3, integrator, stages):
    mrp, mu = chain3
    model = ReluNet(4, np.linspace(-1, 1, 3))
    rhs = make_lazy_rhs(model, mrp, mu, 0.0, 100.0)
    w0 = model.init_doubled(0)
    calls = []

    def counted(w):
        calls.append(1)
        return rhs(w)

    counted.scaled_value_norm = rhs.scaled_value_norm
    value_calls = []
    value = model.value
    model.value = lambda w: value_calls.append(1) or value(w)
    # RKC: a spectral radius that changes between save points, so that the
    # stage count does (2, 3, ..., 7, 2, ...)
    radii = [0.999 * rkc_scheme(s)[0] / (RKC_MARGIN * 1e-2) for s in range(2, 8)]
    chosen = []

    def spectral_radius(w):
        rho = radii[len(chosen) % len(radii)]
        chosen.append(rkc_stage_count(1e-2 * rho))
        return rho

    n = 250
    cfg = TrainConfig(dt=1e-2, horizon=n * 1e-2, save_every=50, integrator=integrator)
    run = integrate(counted, w0, cfg, divergence_probe=counted.scaled_value_norm,
                    spectral_radius=spectral_radius)
    assert not run.diverged
    if stages is None:
        assert chosen == [2, 3, 4, 5, 6]   # at the start and at every save point but the last
        assert len(calls) == 50 * sum(chosen) + 1
        assert (run.stats["stages_min"], run.stats["stages_max"]) == (2, 6)
    else:
        assert stages * n <= len(calls) <= stages * n + 1
        assert run.stats["stages_min"] == run.stats["stages_max"] == stages
    assert run.stats["rhs_calls"] == len(calls)
    assert run.stats["steps"] == n and run.stats["integrator"] == integrator
    # every probe found its state's value already computed by the rhs
    assert value_calls == []
    calls.clear()
    chosen.clear()
    run = integrate(counted, w0, cfg, stop_when=lambda w, t: t >= 1.0,
                    spectral_radius=spectral_radius)
    if stages is None:
        assert len(calls) == 50 * sum(chosen) + 1
    else:
        assert stages * 100 <= len(calls) <= stages * 100 + 1
    assert run.stats["rhs_calls"] == len(calls) and run.stats["steps"] == 100


def test_rkc_without_spectral_radius_raises_domain_error():
    cfg = TrainConfig(dt=0.1, horizon=1.0, integrator="rkc")
    with pytest.raises(DomainError, match="spectral_radius"):
        integrate(lambda w: -w, np.array([1.0]), cfg)


@pytest.mark.parametrize("stages", [2, 5, 9])
def test_rkc_is_second_order(stages):
    # a smooth linear flow: with the stage count held fixed, halving the
    # step cuts the error at t = 1 about fourfold
    A = np.array([[-1.0, 0.3, 0.0], [0.2, -0.5, 0.1], [0.0, -0.4, -2.0]])
    w0 = np.array([1.0, -2.0, 0.5])
    lam, V = np.linalg.eig(A)
    exact = (V @ (np.exp(lam) * np.linalg.solve(V, w0))).real
    errors = []
    for h in (0.1, 0.05, 0.025):
        # a radius that makes exactly this many stages the fewest that cover it
        rho = 0.999 * rkc_scheme(stages)[0] / (RKC_MARGIN * h)
        assert rkc_stage_count(h * rho) == stages
        run = integrate(lambda w: A @ w, w0, TrainConfig(dt=h, horizon=1.0, integrator="rkc"),
                        spectral_radius=lambda w, rho=rho: rho)
        errors.append(np.abs(run.final_params - exact).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_rkc_stability_length_grows_with_the_stages():
    lengths = [rkc_scheme(s)[0] for s in range(2, 40)]
    assert np.all(np.diff(lengths) > 0)
    assert 0.4 < lengths[-1] / 39**2 < 2.0 / 3.0    # beta(s) ~ c s^2, c < 2/3 when damped
    assert rkc_stage_count(0.0) == 2
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(DomainError):
            rkc_stage_count(bad)
    with pytest.raises(DomainError):
        rkc_scheme(1)


def test_rkc_decays_on_a_stiff_flow_where_rk4_diverges():
    # w' = -diag(1, rho) w at h rho = 500: far outside RK4's stability
    # interval, inside that of the RKC scheme the spectral radius selects
    rates = np.array([1.0, 500.0])
    h = 1.0
    cfg = TrainConfig(dt=h, horizon=5.0, save_every=1)
    w0 = np.array([1.0, 1.0])
    rk4 = integrate(lambda w: -rates * w, w0, cfg)
    assert rk4.diverged
    rkc = integrate(lambda w: -rates * w, w0, replace(cfg, integrator="rkc"),
                    spectral_radius=lambda w: rates.max())
    assert not rkc.diverged
    assert rkc.stats["stages_min"] == rkc_stage_count(h * rates.max())
    # every step at least halves the stiff component, and the slow one
    # shrinks by exp(-1) to within the scheme's error at h = 1
    slow, stiff = rkc.params.T
    assert np.all(np.abs(stiff[1:]) <= 0.5 * np.abs(stiff[:-1]))
    np.testing.assert_allclose(slow[1:] / slow[:-1], np.exp(-1.0), rtol=0.1)


def test_sampled_run_reads_one_row_map_per_state(chain3):
    # a run of n steps evaluates value_and_row at each of its n + 1 states
    # and asks the model for nothing else
    mrp, mu = chain3
    model = ReluNet(4, np.linspace(-1, 1, 3))
    calls = {"value_and_row": 0, "value": 0, "jacobian": 0, "value_and_vjp": 0}
    for name in calls:
        def counted(w, name=name, method=getattr(model, name)):
            calls[name] += 1
            return method(w)
        setattr(model, name, counted)
    n = 250
    cfg = TrainConfig(alpha=100.0, beta0=1e-2, horizon=n, save_every=50)
    run = run_stochastic_td(model, mrp, mu, cfg, model.init_doubled(0))
    assert not run.diverged and run.stats == {"steps": n}
    assert calls == {"value_and_row": n + 1, "value": 0, "jacobian": 0, "value_and_vjp": 0}


def test_integrate_raises_on_nonfinite_rhs(chain3):
    def bad(w):
        return np.array([np.nan])
    cfg = TrainConfig(dt=0.1, horizon=1.0)
    with pytest.raises(NonFiniteState):
        integrate(bad, np.array([0.5]), cfg)

    # the sampled engine keeps the rule: a NaN pullback from a small state
    class NanPullback(LinearModel):
        def value_and_vjp(self, w):
            return self.value(w), lambda g: np.full(self.p, np.nan)

    mrp, mu = chain3
    with pytest.raises(NonFiniteState):
        run_stochastic_td(NanPullback(np.eye(3)), mrp, mu, TrainConfig(horizon=10), np.zeros(3))


def test_nonfinite_step_from_a_large_state_is_divergence():
    # within three orders of the threshold a single explosive step can jump
    # straight past it to inf: the run halts as diverged, and the step that
    # diverged counts among its steps
    run = integrate(lambda w: np.array([np.inf]), np.array([1e6]),
                    TrainConfig(dt=0.1, horizon=1.0, integrator="euler"))
    assert run.diverged and run.diverged_at == pytest.approx(0.1)
    np.testing.assert_array_equal(run.params, [[1e6]])
    assert run.stats["steps"] == 1


def test_trajectory_csv_round_trip(tmp_path, chain3):
    mrp, mu = chain3
    model = SpiralModel()
    rhs = make_lazy_rhs(model, mrp, mu, 0.0, 100.0)
    cfg = TrainConfig(dt=1e-2, horizon=1.0, save_every=10)
    run = integrate(rhs, np.zeros(1), cfg)
    run.diagnostics["err"] = np.linspace(1.0, 0.0, len(run.times))
    path = tmp_path / "traj.csv"
    write_csv(path, *run.table())
    rows = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(rows["time"], run.times, atol=0)
    np.testing.assert_allclose(rows["w0"], run.params[:, 0], atol=0)
    np.testing.assert_allclose(rows["err"], run.diagnostics["err"], atol=0)
