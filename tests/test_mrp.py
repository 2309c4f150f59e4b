"""Chain-level operations against independent dense/series oracles."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazytd import (
    Backup,
    LinearModel,
    Mrp,
    contraction_modulus,
    cyclic_chain,
    exact_value,
    make_lazy_rhs,
    mu_inner,
    mu_norm,
    mu_projection,
    random_chain,
    sample_chain,
    stationary_measure,
    td_operator,
    td_resolvent,
)
from lazytd.errors import DimensionMismatch, DomainError, FullSupportViolation
from oracles import CHAIN_KINDS, eig_stationary, irreducible_chain, neumann_value, series_td_operator


# ------------------------------------------------------- stationary measure

def test_stationary_symmetric_two_state():
    mrp = Mrp(P=np.array([[0.5, 0.5], [0.5, 0.5]]), rbar=np.zeros(2), gamma=0.5)
    mu = stationary_measure(mrp)
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-12)


def test_stationary_measure_is_a_float_vector():
    mu = stationary_measure(Mrp(P=random_chain(4, np.random.default_rng(1)), rbar=np.zeros(4),
                                gamma=0.5))
    assert isinstance(mu, np.ndarray)
    assert mu.dtype == np.float64 and mu.shape == (4,)


def test_stationary_doubly_stochastic_cycle():
    mrp = Mrp(P=cyclic_chain(3, "forward"), rbar=np.zeros(3), gamma=0.5)
    np.testing.assert_allclose(stationary_measure(mrp), np.ones(3) / 3, atol=1e-10)


def test_stationary_matches_eigen_solve():
    P = random_chain(4, np.random.default_rng(11))
    mrp = Mrp(P=P, rbar=np.zeros(4), gamma=0.5)
    mu = stationary_measure(mrp)
    np.testing.assert_allclose(mu, eig_stationary(P), atol=1e-8)
    assert np.abs(mu @ P - mu).max() < 1e-10
    assert abs(mu.sum() - 1.0) < 1e-12


def test_stationary_periodic_chain():
    # irreducible with period 2: plain power iteration oscillates forever
    P = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    mrp = Mrp(P=P, rbar=np.zeros(3), gamma=0.5)
    np.testing.assert_allclose(stationary_measure(mrp), [0.25, 0.5, 0.25], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CHAIN_KINDS), d=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_stationary_measure_matches_eigen_oracle(kind, d, seed):
    # periodic chains included, up to the cyclic shift of period d
    P = irreducible_chain(kind, d, np.random.default_rng(seed))
    mu = stationary_measure(Mrp(P=P, rbar=np.zeros(d), gamma=0.5))
    np.testing.assert_allclose(mu, eig_stationary(P), rtol=0, atol=1e-8)
    assert mu.min() > 0
    assert np.abs(mu @ P - mu).max() <= 1e-13
    assert abs(mu.sum() - 1.0) <= 1e-12


def test_stationary_slow_birth_death_chain_matches_detailed_balance():
    # reflecting birth-death chain, up-probability 1/2: period 2 and a
    # mixing time of order d^2, so power iteration on it takes minutes
    d, up = 800, Fraction(1, 2)
    exact = [[Fraction(0)] * d for _ in range(d)]
    exact[0][1] = exact[d - 1][d - 2] = Fraction(1)
    for i in range(1, d - 1):
        exact[i][i + 1], exact[i][i - 1] = up, 1 - up
    weights = [Fraction(1)]
    for i in range(d - 1):
        weights.append(weights[-1] * exact[i][i + 1] / exact[i + 1][i])
    total = sum(weights)
    want = np.array([float(w / total) for w in weights])
    P = np.array(exact, dtype=float)
    start = time.perf_counter()
    mu = stationary_measure(Mrp(P=P, rbar=np.zeros(d), gamma=0.5))
    assert time.perf_counter() - start < 5.0
    np.testing.assert_allclose(mu, want, rtol=0, atol=1e-13)


def test_stationary_full_support_violation():
    P = np.array([[1.0, 0.0], [0.5, 0.5]])  # absorbs in state 0
    mrp = Mrp(P=P, rbar=np.zeros(2), gamma=0.5)
    with pytest.raises(FullSupportViolation):
        stationary_measure(mrp)


@pytest.mark.parametrize("P", [
    np.eye(2),  # every state absorbing: any measure is invariant
    np.kron(np.eye(2), np.full((2, 2), 0.5)),  # two closed classes of two states
    # state 0 reaches every state but none reaches it, then the reverse
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]),
    np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
], ids=["identity", "block-diagonal", "0-reaches-all", "all-reach-0"])
def test_stationary_rejects_reducible_chains(P):
    with pytest.raises(FullSupportViolation):
        stationary_measure(Mrp(P=P, rbar=np.zeros(len(P)), gamma=0.5))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("P,rbar", [
    ([[0.5, NAN], [0.5, 0.5]], [1.0, 0.0]),
    ([[NAN, NAN], [0.5, 0.5]], [1.0, 0.0]),
    ([[0.5, 0.5], [0.5, 0.5]], [NAN, 0.0]),
    ([[0.5, 0.5], [0.5, 0.5]], [INF, 0.0]),
    ([[0.5, 0.5], [0.5, 0.5]], [1.0, -INF]),
], ids=["nan-in-P", "nan-row-of-P", "nan-reward", "inf-reward", "minus-inf-reward"])
def test_mrp_rejects_non_finite_input(P, rbar):
    # every comparison with NaN is false, so NaN must fail the checks
    # themselves, not slip through them
    with pytest.raises(DomainError):
        Mrp(P=np.array(P), rbar=np.array(rbar), gamma=0.9)


HALVES = np.full((2, 2), 0.5)


@pytest.mark.parametrize("call,error", [
    (lambda: Mrp(P=np.full((2, 3), 1 / 3), rbar=np.zeros(2), gamma=0.9), DimensionMismatch),
    (lambda: Mrp(P=HALVES, rbar=np.zeros(1), gamma=0.9), DimensionMismatch),
    (lambda: td_resolvent(Mrp(P=HALVES, rbar=np.zeros(2), gamma=0.9), 1.0), DomainError),
    (lambda: td_resolvent(Mrp(P=HALVES, rbar=np.zeros(2), gamma=0.9), -0.1), DomainError),
    (lambda: cyclic_chain(1), DomainError),
    (lambda: cyclic_chain(3, "sideways"), DomainError),
], ids=["non-square-P", "short-rbar", "lam-one", "lam-negative", "one-state-cycle",
        "unknown-orientation"])
def test_invalid_chain_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


# ------------------------------------------------------------- exact value

def test_exact_value_zero_reward():
    mrp = Mrp(P=cyclic_chain(3), rbar=np.zeros(3), gamma=0.9)
    np.testing.assert_allclose(exact_value(mrp), np.zeros(3), atol=1e-12)


def test_exact_value_matches_neumann_series():
    P = cyclic_chain(3, "forward")
    mrp = Mrp(P=P, rbar=np.array([1.0, 0.0, 0.0]), gamma=0.5)
    v = exact_value(mrp)
    np.testing.assert_allclose(v, neumann_value(P, mrp.rbar, 0.5), atol=1e-10)


def test_exact_value_divergence_experiment_instance():
    # the backward shift is the orientation reproducing this reward vector
    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=np.array([-6.85, 8.35, -1.5]), gamma=0.9)
    np.testing.assert_allclose(exact_value(mrp), [-10.0, 7.0, 3.0], atol=1e-10)


@pytest.mark.parametrize("d,seed", [(5, 1), (30, 5)])
def test_exact_value_accepts_large_rewards(d, seed):
    # the residual bound scales with the rewards: at 1e5 an absolute 1e-10
    # rejected these valid chains (residuals 2.8e-10 and 2.9e-10)
    rbar = 1e5 * np.random.default_rng(seed).standard_normal(d)
    mrp = Mrp(P=cyclic_chain(d), rbar=rbar, gamma=0.99)
    v = exact_value(mrp)
    np.testing.assert_allclose((np.eye(d) - 0.99 * mrp.P) @ v, rbar, rtol=0, atol=1e-9 * 1e5)


def test_forward_shift_gives_different_reward():
    target = np.array([-10.0, 7.0, 3.0])
    P_fwd = cyclic_chain(3, "forward")
    rbar_fwd = (np.eye(3) - 0.9 * P_fwd) @ target
    assert np.abs(rbar_fwd - np.array([-6.85, 8.35, -1.5])).max() > 1e-2


# ----------------------------------------------------------- weighted inner

def test_mu_inner_normalization():
    mu = stationary_measure(Mrp(P=random_chain(5, np.random.default_rng(0)), rbar=np.zeros(5), gamma=0.5))
    ones = np.ones(5)
    assert abs(mu_inner(ones, ones, mu) - 1.0) < 1e-12


def test_mu_inner_constructed_orthogonality():
    rng = np.random.default_rng(3)
    mu = stationary_measure(Mrp(P=random_chain(4, rng), rbar=np.zeros(4), gamma=0.5))
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    b = b - (mu_inner(a, b, mu) / mu_inner(a, a, mu)) * a  # Gram-Schmidt step
    assert abs(mu_inner(a, b, mu)) < 1e-12


def test_mu_inner_uniform_reduces_to_dot():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    mu = np.full(4, 0.25)
    assert abs(mu_inner(a, b, mu) - (a @ b) / 4.0) < 1e-12


def test_mu_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mu_inner(np.ones(3), np.ones(4), np.full(3, 1 / 3))


# ------------------------------------------------------ contraction modulus

def test_contraction_modulus_reduces_at_lam_zero():
    assert contraction_modulus(0.7, 0.0) == pytest.approx(0.7)


def test_contraction_modulus_vanishes_as_lam_to_one():
    assert contraction_modulus(0.9, 1 - 1e-9) < 1e-8


def test_contraction_modulus_direct_evaluation():
    assert contraction_modulus(0.9, 0.5) == pytest.approx(0.45 / 0.55, abs=1e-15)


@pytest.mark.parametrize("gamma,lam", [(0.0, 0.5), (1.0, 0.5), (0.9, 1.0), (0.9, -0.1)])
def test_contraction_modulus_domain(gamma, lam):
    with pytest.raises(DomainError):
        contraction_modulus(gamma, lam)


# ------------------------------------------------------------ backup operator

def test_td_operator_fixes_exact_value():
    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=np.array([-6.85, 8.35, -1.5]), gamma=0.9)
    v = exact_value(mrp)
    for lam in (0.0, 0.3, 0.7, 0.9):
        np.testing.assert_allclose(td_operator(mrp, lam, v), v, atol=1e-9)


def test_td_operator_single_step_form():
    rng = np.random.default_rng(5)
    P = random_chain(4, rng)
    mrp = Mrp(P=P, rbar=rng.standard_normal(4), gamma=0.8)
    V = rng.standard_normal(4)
    np.testing.assert_allclose(td_operator(mrp, 0.0, V), mrp.rbar + 0.8 * P @ V, atol=1e-14)


def test_td_operator_matches_truncated_series():
    rng = np.random.default_rng(6)
    P = random_chain(5, rng)
    mrp = Mrp(P=P, rbar=rng.standard_normal(5), gamma=0.9)
    V = rng.standard_normal(5)
    want = series_td_operator(P, mrp.rbar, 0.9, 0.7, V)
    np.testing.assert_allclose(td_operator(mrp, 0.7, V), want, atol=1e-9)


def test_td_resolvent_lam_zero_identity():
    rng = np.random.default_rng(7)
    P = random_chain(3, rng)
    mrp = Mrp(P=P, rbar=rng.standard_normal(3), gamma=0.7)
    r_lam, P_lam = td_resolvent(mrp, 0.0)
    np.testing.assert_allclose(r_lam, mrp.rbar, atol=1e-14)
    np.testing.assert_allclose(P_lam, P, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    gamma=st.floats(0.1, 0.95),
    lam=st.floats(0.0, 0.9),
)
def test_td_contraction_property(seed, gamma, lam):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    P = random_chain(d, rng)
    mrp = Mrp(P=P, rbar=rng.standard_normal(d), gamma=gamma)
    mu = stationary_measure(mrp)
    V, W = rng.standard_normal(d), rng.standard_normal(d)
    lhs = mu_norm(td_operator(mrp, lam, V) - td_operator(mrp, lam, W), mu)
    rhs = contraction_modulus(gamma, lam) * mu_norm(V - W, mu)
    assert lhs <= rhs + 1e-10


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CHAIN_KINDS), d=st.integers(2, 8), seed=st.integers(0, 2**16),
       gamma=st.floats(0.05, 0.99), lam=st.floats(0.0, 0.95))
def test_td_operator_contracts_with_its_modulus(kind, d, seed, gamma, lam):
    # periodic chains included; a constant difference attains the modulus,
    # since P maps the constant vector to itself
    rng = np.random.default_rng(seed)
    mrp = Mrp(P=irreducible_chain(kind, d, rng), rbar=rng.standard_normal(d), gamma=gamma)
    mu = stationary_measure(mrp)
    modulus = contraction_modulus(gamma, lam)
    V, W = rng.standard_normal(d), rng.standard_normal(d)
    T = lambda U: td_operator(mrp, lam, U)
    assert mu_norm(T(V) - T(W), mu) <= modulus * mu_norm(V - W, mu) * (1 + 1e-10)
    shift = float(rng.uniform(0.5, 2.0))
    assert mu_norm(T(V + shift) - T(V), mu) == pytest.approx(modulus * shift, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(CHAIN_KINDS), d=st.integers(2, 8), seed=st.integers(0, 2**16),
       gamma=st.floats(0.05, 0.99), lam=st.floats(0.0, 0.95))
def test_backup_residual_drive_and_fixed_point(kind, d, seed, gamma, lam):
    # one solve of the chain serves the operator, the weighted drive and v*
    rng = np.random.default_rng(seed)
    mrp = Mrp(P=irreducible_chain(kind, d, rng), rbar=rng.standard_normal(d), gamma=gamma)
    mu = stationary_measure(mrp)
    backup = Backup.of(mrp, mu, lam)
    assert (backup.gamma, backup.lam) == (gamma, lam)
    V = rng.standard_normal(d)
    scale = max(1.0, np.abs(V).max(), np.abs(backup.vstar).max())
    residual = backup.residual(V)
    want = td_operator(mrp, lam, V) - V
    np.testing.assert_allclose(residual, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(backup.drive @ (V - backup.vstar), mu * residual,
                               rtol=0, atol=1e-14 * scale)
    assert np.abs(backup.residual(backup.vstar)).max() <= 1e-13 * scale


def test_backup_checks_its_weights():
    mrp = Mrp(P=HALVES, rbar=np.zeros(2), gamma=0.9)
    with pytest.raises(DimensionMismatch):
        Backup.of(mrp, np.full(3, 1 / 3))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_transition_nonexpansive_in_weighted_norm(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    P = random_chain(d, rng)
    mrp = Mrp(P=P, rbar=np.zeros(d), gamma=0.5)
    mu = stationary_measure(mrp)
    V = rng.standard_normal(d)
    assert mu_norm(P @ V, mu) <= mu_norm(V, mu) + 1e-12


# ---------------------------------------------------------------- projection

@pytest.fixture
def proj_setup():
    rng = np.random.default_rng(8)
    P = random_chain(6, rng)
    mu = stationary_measure(Mrp(P=P, rbar=np.zeros(6), gamma=0.5))
    J = rng.standard_normal((6, 2))
    return rng, mu, J


def test_projection_fixes_its_range(proj_setup):
    rng, mu, J = proj_setup
    W = J @ rng.standard_normal(2)
    np.testing.assert_allclose(mu_projection(J, mu, W), W, atol=1e-10)


def test_projection_kills_orthogonal_complement(proj_setup):
    rng, mu, J = proj_setup
    W = rng.standard_normal(6)
    resid = W - mu_projection(J, mu, W)
    np.testing.assert_allclose(mu_projection(J, mu, resid), np.zeros(6), atol=1e-10)


def test_projection_residual_weighted_orthogonal(proj_setup):
    rng, mu, J = proj_setup
    W = rng.standard_normal(6)
    resid = W - mu_projection(J, mu, W)
    for j in range(J.shape[1]):
        assert abs(mu_inner(resid, J[:, j], mu)) < 1e-10


def test_projection_idempotent_rank_deficient(proj_setup):
    rng, mu, J = proj_setup
    Jdef = np.column_stack([J, J[:, 0]])  # duplicated column
    W = rng.standard_normal(6)
    once = mu_projection(Jdef, mu, W)
    np.testing.assert_allclose(mu_projection(Jdef, mu, once), once, atol=1e-10)


@pytest.mark.parametrize("weights,W", [
    ([0.5], np.ones(6)),                  # one weight would broadcast over six states
    (np.full(5, 0.2), np.ones(6)),
    (np.full(6, 1 / 6), np.ones(5)),
    (np.full(6, 1 / 6), np.ones((6, 1))),
], ids=["one-weight", "short-weights", "short-vector", "column-vector"])
def test_projection_rejects_mismatched_lengths(proj_setup, weights, W):
    _, _, J = proj_setup
    with pytest.raises(DimensionMismatch):
        mu_projection(J, weights, W)


# ------------------------------------------------------------- construction

def test_mrp_validation():
    with pytest.raises(DomainError):
        Mrp(P=np.array([[0.5, 0.6], [0.5, 0.5]]), rbar=np.zeros(2), gamma=0.9)
    with pytest.raises(DomainError):
        Mrp(P=np.eye(2), rbar=np.zeros(2), gamma=1.5)


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [-0.2, 0.6, 0.6], [0.0, 0.5, 0.5],
                                     [np.inf, 0.5, 0.5]], ids=["nan", "negative", "zero", "inf"])
@pytest.mark.parametrize("use", [
    lambda mrp, mu: Backup.of(mrp, mu),
    lambda mrp, mu: make_lazy_rhs(LinearModel(np.eye(3)), mrp, mu, 0.0, 1.0),
    lambda mrp, mu: sample_chain(mrp, mu, 10, 0),
], ids=["backup", "drift", "chain"])
def test_state_weights_must_be_finite_and_positive(weights, use):
    # NaN weights made integrate blame the run at its first save, negative
    # ones gave a geometry a kappa from no norm and a chain silent draws
    mrp = Mrp(P=cyclic_chain(3, "backward"), rbar=np.ones(3), gamma=0.9)
    with pytest.raises(DomainError, match="finite and positive"):
        use(mrp, np.array(weights))
