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
    td_operator,
    td_resolvent,
)
from lazytd.dynamics import CHAIN_BLOCK, RKC_MARGIN, rkc_scheme, rkc_stage_count, write_csv
from lazytd.errors import DimensionMismatch, DomainError, NonFiniteState

from oracles import CHAIN_KINDS, irreducible_chain, linear_td_fixed_point, series_td_components

SPIRAL_RBAR = np.array([-6.85, 8.35, -1.5])


@pytest.fixture
def chain3():
    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=SPIRAL_RBAR, gamma=0.9)
    return mrp, stationary_measure(mrp)


# ------------------------------------------------------------- chain sampling

def path_of(mrp, mu, steps, rng):
    """The states sample_chain yields, as one array."""
    return np.fromiter(sample_chain(mrp, mu, steps, rng), dtype=np.int64, count=steps)


def test_sample_chain_symmetric_frequency():
    mrp = Mrp(P=np.array([[0.5, 0.5], [0.5, 0.5]]), rbar=np.zeros(2), gamma=0.5)
    mu = stationary_measure(mrp)
    path = path_of(mrp, mu, 10**6, 42)
    freq = np.mean(path == 0)
    assert abs(freq - 0.5) < 0.005


def test_sample_chain_cyclic_uniform(chain3):
    mrp, mu = chain3
    path = path_of(mrp, mu, 200_000, 7)
    freqs = np.bincount(path, minlength=3) / path.size
    # 3 standard errors for a multinomial frequency around 1/3
    assert np.abs(freqs - 1 / 3).max() < 3 * np.sqrt((1 / 3) * (2 / 3) / path.size)


def test_sample_chain_deterministic(chain3):
    mrp, mu = chain3
    a = path_of(mrp, mu, 1000, 5)
    b = path_of(mrp, mu, 1000, 5)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("steps", [1, CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1, 9000])
def test_sample_chain_matches_searchsorted_reference(steps):
    rng = np.random.default_rng(3)
    P = rng.random((6, 6)) ** 3
    P /= P.sum(axis=1, keepdims=True)
    mrp = Mrp(P=P, rbar=np.zeros(6), gamma=0.5)
    mu = stationary_measure(mrp)
    # the per-step searchsorted loop sample_chain replaces, on one draw of
    # every uniform: the blocks it draws them in give the same stream
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    draws = np.random.default_rng(11).random(steps)
    ref = np.empty(steps, dtype=np.int64)
    ref[0] = np.searchsorted(np.cumsum(mu), draws[0], side="right")
    for t in range(1, steps):
        ref[t] = np.searchsorted(cum[ref[t - 1]], draws[t], side="right")
    chain = sample_chain(mrp, mu, steps, 11)
    np.testing.assert_array_equal(np.fromiter(chain, dtype=np.int64), ref)


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
    path = path_of(mrp, mu, 6, TopFirstDraw(np.random.PCG64(0)))
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

def one_step(model, mrp, mu, w, seed, **cfg):
    """The transition (s, s') a one-step sampled run at ``seed`` takes, read
    from sample_chain at that seed, and the state the run steps to."""
    cfg = TrainConfig(horizon=1, save_every=1, seed=seed, **cfg)
    s, s_next = sample_chain(mrp, mu, 2, np.random.default_rng(seed))
    run = run_stochastic_td(model, mrp, mu, cfg, w)
    return (s, s_next), run.final_params


def test_step_reduces_to_plain_td_at_lam_zero(chain3):
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    w = np.array([1.0, -2.0, 0.5])
    for seed in range(3):
        (s, s_next), w1 = one_step(model, mrp, mu, w, seed, beta0=0.1)
        delta = mrp.rbar[s] + mrp.gamma * w[s_next] - w[s]
        np.testing.assert_allclose(w1, w + 0.1 * delta * model.jacobian(w)[s])


def transition_updates(model, mrp, mu, w, alpha):
    """The one-step updates w1 - w of lam = 0 sampled runs from w, by
    transition (s, s'), over seeds until every transition of the chain
    has been taken."""
    pairs = {(s, t) for s, t in zip(*np.nonzero(mrp.P))}
    updates = {}
    for seed in range(10_000):
        pair, w1 = one_step(model, mrp, mu, w, seed, alpha=alpha, beta0=0.5)
        updates.setdefault(pair, w1 - w)
        if updates.keys() == pairs:
            return updates
    raise AssertionError(f"transitions {pairs - updates.keys()} were never sampled")


def test_expected_update_vanishes_at_fixed_point(chain3):
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    vstar = exact_value(mrp)
    # expectation over (s, s') ~ mu x P of the lam = 0 update, by direct sum
    updates = transition_updates(model, mrp, mu, vstar, 1.0)
    total = sum(mu[s] * mrp.P[s, t] * u for (s, t), u in updates.items())
    np.testing.assert_allclose(total, np.zeros(3), atol=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 50.0])
def test_expected_update_is_the_scaled_drift(alpha):
    # at lam = 0 the mu x P expectation of one sampled step is beta times
    # the scaled dynamics' drift, at any w
    rng = np.random.default_rng(4)
    mrp = Mrp(P=random_chain(3, rng), rbar=rng.uniform(-1, 1, 3), gamma=0.9)
    mu = stationary_measure(mrp)
    model = ReluNet(8, np.linspace(-1, 1, 3))
    w = model.init_doubled(rng) + 0.1 * rng.standard_normal(model.p)
    updates = transition_updates(model, mrp, mu, w, alpha)
    total = sum(mu[s] * mrp.P[s, t] * u for (s, t), u in updates.items())
    drift = make_lazy_rhs(model, mrp, mu, 0.0, alpha)(w)
    assert np.abs(drift).max() > 1e-3
    np.testing.assert_allclose(total, 0.5 * drift, rtol=1e-10, atol=1e-14)


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
    # the engine reads the two states of each transition; the reference is
    # the literal TD(lambda) recursion on the full value vector and Jacobian.
    # The rows agree bit for bit (test_models), the values of the two-row
    # pass up to rounding, so the runs agree to rounding (over 300 draws:
    # 5% of entries differ, by at most 2.2e-15)
    rng = np.random.default_rng(seed)
    mrp = Mrp(P=random_chain(d, rng), rbar=rng.uniform(-1, 1, d), gamma=0.9)
    mu = stationary_measure(mrp)
    model = ReluNet(10, np.linspace(-1, 1, d))
    w0 = model.init_doubled(rng)
    cfg = TrainConfig(lam=lam, alpha=alpha, beta0=0.05, horizon=300, save_every=1, seed=seed)
    run = run_stochastic_td(model, mrp, mu, cfg, w0)

    path = path_of(mrp, mu, 301, np.random.default_rng(cfg.seed))
    w, z, ref = w0.copy(), np.zeros(model.p), [w0.copy()]
    for k in range(300):
        s, s_next = path[k], path[k + 1]
        V = model.value(w)
        delta = mrp.rbar[s] + mrp.gamma * cfg.alpha * V[s_next] - cfg.alpha * V[s]
        z = mrp.gamma * cfg.lam * z + model.jacobian(w)[s]
        w = w + cfg.beta0 * delta * z / cfg.alpha
        ref.append(w.copy())
    assert not run.diverged
    np.testing.assert_allclose(run.params, np.asarray(ref), rtol=1e-11, atol=1e-13)
    np.testing.assert_array_equal(run.times, cfg.beta0 * np.arange(301))


def test_sampled_run_memory_is_flat_in_the_horizon(chain3):
    # the chain is read state by state: ten times the steps may not hold
    # ten times the path (saves only at the end, so the record is constant)
    import tracemalloc
    mrp, mu = chain3
    model = LinearModel(np.eye(3))

    def peak(steps):
        cfg = TrainConfig(beta0=1e-3, horizon=steps, save_every=steps, seed=1)
        tracemalloc.start()
        try:
            run_stochastic_td(model, mrp, mu, cfg, np.zeros(3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5_000)  # warm-up: first-call allocations
    assert peak(50_000) - peak(5_000) < 64 * 1024


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
    assert rhs.backup.lam == lam and rhs.backup.r_lam.tobytes() == r_lam.tobytes()
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
    lambda mrp, mu: make_lazy_rhs(LinearModel(np.eye(3)), mrp, mu, 0.0, np.nan),
    lambda mrp, mu: sample_chain(mrp, mu, 0, 0),
], ids=["rhs-alpha-below-one", "rhs-alpha-nan", "chain-of-no-steps"])
def test_invalid_engine_input_raises_domain_error(chain3, call):
    with pytest.raises(DomainError):
        call(*chain3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("engine", ["integrate", "run_stochastic_td"])
def test_non_finite_initial_state_is_rejected(chain3, engine, bad):
    # before any step: not a NonFiniteState blamed on the first step, nor a
    # diverged run whose first saved state is not finite
    mrp, mu = chain3
    model = LinearModel(np.eye(3))
    w0 = np.array([0.0, bad, 1.0])
    cfg = TrainConfig(dt=0.1, horizon=10.0, save_every=1)
    with pytest.raises(DomainError, match="initial state"):
        if engine == "integrate":
            integrate(make_lazy_rhs(model, mrp, mu, 0.0, 1.0), w0, cfg)
        else:
            run_stochastic_td(model, mrp, mu, cfg, w0)


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


@pytest.mark.parametrize("n_steps, stop_at", [(28, None), (30, None), (30, 2.0)],
                         ids=["saves-divide-steps", "short-last-save", "early-stop"])
def test_rkc_asks_spectral_radius_at_w0_and_each_state_stop_when_read(n_steps, stop_at):
    # the radius is asked at w0, then right after stop_when reads each saved
    # state the run steps on from, at an array-equal state, and nowhere else
    A = np.array([[-1.0, 0.5], [0.0, -3.0]])
    w0 = np.array([1.0, -2.0])
    events = []

    def stop_when(w, t):
        events.append(("saved", w.copy()))
        return stop_at is not None and t >= stop_at

    def spectral_radius(w):
        events.append(("radius", w.copy()))
        return 3.0

    cfg = TrainConfig(dt=0.1, horizon=n_steps * 0.1, save_every=7, integrator="rkc")
    run = integrate(lambda w: A @ w, w0, cfg, stop_when=stop_when,
                    spectral_radius=spectral_radius)
    kinds = ["radius"] + ["saved", "radius"] * (len(run.times) - 2) + ["saved"]
    assert [kind for kind, _ in events] == kinds
    assert np.array_equal(events[0][1], w0)
    for (_, saved), (_, asked) in zip(events[1::2], events[2::2]):
        assert np.array_equal(asked, saved)
    np.testing.assert_array_equal([w for kind, w in events if kind == "saved"], run.params[1:])
    assert run.stats["stop"] == ("horizon" if stop_at is None else "stop_when")


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
    # on a lazy net each of n steps reads the model at its transition's two
    # states, once, and the stated value bound stands in for the divergence
    # probe's value vector: no other model call
    mrp, mu = chain3
    model = ReluNet(4, np.linspace(-1, 1, 3))
    calls = {"value_and_row": 0, "value": 0, "jacobian": 0, "value_and_vjp": 0}
    for name in calls:
        def counted(*args, name=name, method=getattr(model, name)):
            calls[name] += 1
            return method(*args)
        setattr(model, name, counted)
    n = 250
    cfg = TrainConfig(alpha=100.0, beta0=1e-2, horizon=n, save_every=50)
    run = run_stochastic_td(model, mrp, mu, cfg, model.init_doubled(0))
    assert not run.diverged and run.stats == {"steps": n, "stop": "horizon"}
    assert calls == {"value_and_row": n, "value": 0, "jacobian": 0, "value_and_vjp": 0}


class Unbounded(ReluNet):
    """The ReLU net without its stated value bound."""

    def value_bound(self, mag):
        return np.inf


@pytest.mark.parametrize("beta,horizon,diverges", [(22.0, 100, True), (20.5, 2000, False)],
                         ids=["diverging", "growing"])
def test_value_bound_leaves_a_run_as_the_exact_probe_has_it(beta, horizon, diverges):
    # an unscaled net at a large step grows, and at beta = 22 diverges; with
    # its value bound the probe skips the value vector while the bound is
    # small, and the run is the one the exact probe gives, bit for bit
    rng = np.random.default_rng(4)
    mrp = Mrp(P=random_chain(5, rng), rbar=rng.uniform(-1, 1, 5), gamma=0.9)
    mu = stationary_measure(mrp)
    runs, values = [], []
    for cls in (ReluNet, Unbounded):
        model = cls(10, np.linspace(-1, 1, 5))
        w0 = model.init_doubled(0)
        calls = [0]

        def value(w, method=model.value):
            calls[0] += 1
            return method(w)
        model.value = value
        cfg = TrainConfig(lam=0.5, beta0=beta, horizon=horizon, save_every=1, seed=1)
        runs.append(run_stochastic_td(model, mrp, mu, cfg, w0))
        values.append(calls[0])
    bounded, exact = runs
    assert exact.diverged == diverges
    assert bounded.params.tobytes() == exact.params.tobytes()
    assert bounded.times.tobytes() == exact.times.tobytes()
    assert (bounded.diverged, bounded.diverged_at) == (exact.diverged, exact.diverged_at)
    assert bounded.stats == exact.stats
    # the exact probe evaluates every state it reaches; the bound skipped
    # some but not all of them
    assert values[1] == exact.stats["steps"] + 1
    assert 0 < values[0] < values[1]


def test_sampled_run_checks_the_parameter_length(chain3):
    mrp, mu = chain3
    model = ReluNet(4, np.linspace(-1, 1, 3))
    with pytest.raises(DimensionMismatch):
        run_stochastic_td(model, mrp, mu, TrainConfig(horizon=10), np.zeros(model.p + 1))


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


@pytest.mark.parametrize("integrator,diverged_at", [("rk4", 0.1), ("rkc", 0.2)])
def test_nonfinite_step_through_a_loud_stage_is_divergence(integrator, diverged_at):
    # from a quiet state, a stage's rhs of 1e8 sends the next stage far past
    # QUIET, where the rhs turns NaN: the run diverged, and the re-run of the
    # step that tells so is not counted among the 4 rhs calls
    def rhs(w):
        x = abs(w[0])
        return np.array([10.0 if x < 0.9 else 1e8 if x < 2.0 else np.nan])
    run = integrate(rhs, np.array([0.5]), TrainConfig(dt=0.1, horizon=1.0, integrator=integrator),
                    spectral_radius=lambda w: 1.0)
    assert run.diverged and run.diverged_at == pytest.approx(diverged_at)
    assert run.stats["stop"] == "diverged:parameter" and run.stats["rhs_calls"] == 4


def test_run_that_takes_every_step_stops_at_the_horizon():
    run = integrate(lambda w: -w, np.ones(2), TrainConfig(dt=0.1, horizon=1.0, save_every=3))
    assert not run.diverged and run.stats["stop"] == "horizon" and run.stats["steps"] == 10


def test_run_ended_by_stop_when_says_so():
    seen = []
    run = integrate(lambda w: -w, np.ones(2), TrainConfig(dt=0.1, horizon=1.0, save_every=2),
                    stop_when=lambda w, t: seen.append(t) or t > 0.3)
    assert seen == pytest.approx([0.2, 0.4])
    assert not run.diverged and run.stats == {
        "steps": 4, "stop": "stop_when", "integrator": "rk4", "rhs_calls": 17,
        "stages_min": 4, "stages_max": 4}


@pytest.mark.parametrize("probe", [lambda w: 100.0 * np.abs(w).max(), lambda w: np.nan],
                         ids=["large", "nan"])
def test_run_ended_by_the_probe_diverged_in_value(probe):
    # growth by 1.1 per step: the probe, 100 times the state, passes the
    # threshold (or reads NaN) while the state is still below it
    run = integrate(lambda w: w, np.ones(1), TrainConfig(dt=0.1, horizon=1000.0,
                                                         integrator="euler"),
                    divergence_probe=probe)
    assert run.diverged and run.stats["stop"] == "diverged:value"
    assert np.abs(run.params).max() <= 1e6


@pytest.mark.parametrize("rhs,w0", [(lambda w: w, 1.0), (lambda w: np.array([np.inf]), 1e6)],
                         ids=["threshold", "non-finite"])
def test_run_ended_by_the_state_diverged_in_parameter(rhs, w0):
    # the state passes the threshold with no probe, or jumps from a large
    # state straight to inf
    run = integrate(rhs, np.array([w0]), TrainConfig(dt=0.1, horizon=1000.0,
                                                     integrator="euler"))
    assert run.diverged and run.stats["stop"] == "diverged:parameter"


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
