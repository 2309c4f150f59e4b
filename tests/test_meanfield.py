"""Particle ensembles: values, exact averaged velocities, transport
integration, and the fixed-point diagnostics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lazytd import meanfield
from lazytd import mrp as mrp_module
from lazytd import (
    EnsembleModel,
    GaussianBumpFeatures,
    Mrp,
    ParticleEnsemble,
    ReluNet,
    TrainConfig,
    cyclic_chain,
    doubled_ensemble,
    ensemble_value,
    exact_value,
    fixed_point_optimality,
    g_profile,
    h1_profile,
    integrate,
    integrate_ensemble,
    make_lazy_rhs,
    mu_norm,
    separation_check,
    stationary_measure,
)
from lazytd.errors import DimensionMismatch, DomainError
from lazytd.experiments import run_meanfield
from oracles import ColumnEnsembleModel


@pytest.fixture
def chain5():
    rng = np.random.default_rng(7)
    states = np.linspace(-1, 1, 5)
    mrp = Mrp(P=cyclic_chain(5, "backward"), rbar=rng.standard_normal(5), gamma=0.9)
    return mrp, stationary_measure(mrp), states


def particle_velocities(ensemble, features, mrp, mu):
    """Output-weight (N,) and feature-parameter (N, k) velocities of every
    particle, from the velocity field a particle run integrates."""
    model, velocity, _ = meanfield._particle_system(features, ensemble.n, mrp, mu)
    return model.unpack(velocity(model.pack(ensemble)))


def uniform_sampler(lo, hi):
    return lambda count, rng: rng.uniform(lo, hi, size=(count, 1))


def exact_fit_ensemble(features, centers, vstar):
    """Output weights putting the bump ensemble exactly on the target."""
    centers = np.asarray(centers, dtype=float)[:, None]
    F = features.phi_matrix(centers)
    om0, *_ = np.linalg.lstsq(F.T / centers.shape[0], vstar, rcond=None)
    return ParticleEnsemble(om0, centers)


# ------------------------------------------------------------ ensemble value

def test_value_zero_when_weights_zero():
    feat = GaussianBumpFeatures(np.linspace(-1, 1, 4))
    ens = ParticleEnsemble(np.zeros(6), np.linspace(-1, 1, 6))
    np.testing.assert_array_equal(ensemble_value(ens, feat), np.zeros(4))


def test_value_zero_for_doubled_pairs():
    feat = GaussianBumpFeatures(np.linspace(-1, 1, 4))
    ens = doubled_ensemble(10, uniform_sampler(-1, 1), rng=0)
    np.testing.assert_allclose(ensemble_value(ens, feat), np.zeros(4), atol=1e-15)


def reference_bumps(states, wbar, width):
    """The bump pass in particle rows written as one broadcast: F (N, d)
    from the squared differences summed over the coordinate axis, and the
    differences D (N, d, k)."""
    D = states[None, :, :] - wbar[:, None, :]
    F = np.exp(np.sum(D**2, axis=2) * (-1.0 / (2.0 * width**2)))
    return F, D


def bump_model_case(k, d, n, width, seed):
    """A bump ensemble model, a parameter vector and a cotangent g."""
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.5, 1.5, (d, k))
    model = EnsembleModel(GaussianBumpFeatures(states, width=width), n)
    return model, rng.standard_normal(model.p), rng.standard_normal(d)


bump_cases = dict(k=st.integers(1, 3), d=st.integers(1, 8), n=st.integers(1, 256),
                  width=st.floats(0.05, 3.0), seed=st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(**bump_cases)
def test_bump_pass_matches_reference_bit_for_bit(k, d, n, width, seed):
    model, w, g = bump_model_case(k, d, n, width, seed)
    features = model.features
    omega0, wbar = model.unpack(w)
    F, D = reference_bumps(features.states, wbar, width)
    # np.dot throughout, on the same operands: which product routine runs
    # depends on the shape and strides (a zero's sign, or a last bit, can
    # differ between them). The cotangent is divided by N first; then one
    # product per feature coordinate on its (N, d) block of D * F, and the
    # factors omega0 / width^2
    DF = D * F[:, :, None]
    g_n = g / n
    rows = np.column_stack([np.dot(DF[:, :, j], g_n) for j in range(k)])
    rows = rows * (omega0 * (1.0 / width**2))[:, None]
    pullback = np.concatenate([np.dot(F, g_n), rows.ravel()])
    assert features.phi_matrix(wbar).tobytes() == F.tobytes()
    F_pass, D_pass = features.phi_matrix(wbar, gradient=True)
    assert F_pass.tobytes() == F.tobytes() and D_pass.tobytes() == D.tobytes()
    value, vjp = model.value_and_vjp(w)
    assert value.tobytes() == (np.dot(omega0, F) / n).tobytes()
    assert model.value(w).tobytes() == value.tobytes()
    assert ensemble_value(ParticleEnsemble(omega0, wbar), features).tobytes() == value.tobytes()
    assert vjp(g).tobytes() == pullback.tobytes()


@settings(max_examples=80, deadline=None)
@given(**bump_cases)
@example(k=3, d=2, n=1, width=0.080078125, seed=1143)  # every bump subnormal, about 1e-312
def test_bump_pass_matches_column_einsum_oracle(k, d, n, width, seed):
    # the same pass in column layout with an einsum pullback sums in
    # another order: the two agree to rounding, relative to the largest
    # entry. Below the normal range rounding is absolute, half a unit of
    # the smallest subnormal per operation, and the pullback scales it by
    # omega0 / width^2 (hundreds here) over d terms, so the floor is 2^10
    # such units
    floor = 2.0**10 * np.finfo(float).smallest_subnormal
    model, w, g = bump_model_case(k, d, n, width, seed)
    oracle = ColumnEnsembleModel(model.features, n)
    value, vjp = model.value_and_vjp(w)
    want_value, want_vjp = oracle.value_and_vjp(w)
    for got, want in ((value, want_value), (model.value(w), oracle.value(w)),
                      (vjp(g), want_vjp(g)), (model.jacobian(w), oracle.jacobian(w))):
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=max(1e-13 * np.abs(want).max(), floor))


# ------------------------------------------------------------- velocities

def test_velocities_vanish_at_exact_value(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = exact_fit_ensemble(feat, states, exact_value(mrp))
    do, dw = particle_velocities(ens, feat, mrp, mu)
    assert np.abs(do).max() < 1e-10
    assert np.abs(dw).max() < 1e-10


def test_zero_output_weight_freezes_feature_params(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    om0 = np.array([0.0, 1.3, 0.0])
    ens = ParticleEnsemble(om0, np.array([-0.5, 0.1, 0.7]))
    do, dw = particle_velocities(ens, feat, mrp, mu)
    assert np.abs(dw[0]).max() == 0.0
    assert np.abs(dw[2]).max() == 0.0
    assert np.abs(do).max() > 0.0  # output weights still feel the residual


def test_single_particle_matches_literal_double_sum():
    # two states, one particle: write the expectation as the full 4-term sum
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    mrp = Mrp(P=P, rbar=np.array([1.0, -1.0]), gamma=0.9)
    mu = stationary_measure(mrp)
    states = np.array([-1.0, 1.0])
    width = 0.5
    feat = GaussianBumpFeatures(states, width=width)
    om0, center = 0.8, 0.2
    ens = ParticleEnsemble(np.array([om0]), np.array([center]))

    phi = np.exp(-(states - center) ** 2 / (2 * width**2))
    dphi = phi * (states - center) / width**2
    V = om0 * phi / 1.0
    do_want, dc_want = 0.0, 0.0
    for s in range(2):
        for s2 in range(2):
            delta = mrp.rbar[s] + 0.9 * V[s2] - V[s]
            do_want += mu[s] * P[s, s2] * delta * phi[s]
            dc_want += mu[s] * P[s, s2] * delta * om0 * dphi[s]
    do, dw = particle_velocities(ens, feat, mrp, mu)
    assert do[0] == pytest.approx(do_want, abs=1e-14)
    assert dw[0, 0] == pytest.approx(dc_want, abs=1e-14)


def test_homogeneity_factorization(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = doubled_ensemble(12, uniform_sampler(-1, 1), rng=1)
    do_base, dw_base = particle_velocities(ens, feat, mrp, mu)
    xi = 3.7
    scaled = ParticleEnsemble(xi * ens.omega0, ens.wbar.copy())
    # pairing keeps the value (hence the residual) fixed at zero
    np.testing.assert_allclose(ensemble_value(scaled, feat), np.zeros(5), atol=1e-14)
    do_s, dw_s = particle_velocities(scaled, feat, mrp, mu)
    np.testing.assert_allclose(do_s, do_base, atol=1e-13)
    np.testing.assert_allclose(dw_s, xi * dw_base, atol=1e-12)


@pytest.mark.parametrize("wbar", [np.zeros(0), np.zeros((0, 2))], ids=["k1", "k2"])
def test_empty_ensemble_rejected(wbar):
    # with no particle the value, the first-moment profile and the largest
    # output weight are all undefined
    with pytest.raises(DomainError):
        ParticleEnsemble(np.zeros(0), wbar)


@pytest.mark.parametrize("state_dim,wbar_dim", [(1, 2), (2, 1), (2, 3)])
def test_bumps_reject_parameters_of_another_dimension(state_dim, wbar_dim):
    # broadcasting would otherwise pair coordinates that do not correspond
    features = GaussianBumpFeatures(np.zeros((4, state_dim)))
    with pytest.raises(DimensionMismatch):
        features.phi_matrix(np.zeros((3, wbar_dim)))


def test_value_scales_with_output_weights(chain5):
    _, _, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    rng = np.random.default_rng(2)
    ens = ParticleEnsemble(rng.standard_normal(8), rng.uniform(-1, 1, 8))
    xi = -2.5
    scaled = ParticleEnsemble(xi * ens.omega0, ens.wbar.copy())
    np.testing.assert_allclose(ensemble_value(scaled, feat),
                               xi * ensemble_value(ens, feat), atol=1e-14)


# ------------------------------------------------------------- integration

def test_zero_reward_doubled_ensemble_is_stationary(chain5):
    _, mu, states = chain5
    mrp0 = Mrp(P=cyclic_chain(5, "backward"), rbar=np.zeros(5), gamma=0.9)
    mu0 = stationary_measure(mrp0)
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = doubled_ensemble(10, uniform_sampler(-1, 1), rng=3)
    hist = integrate_ensemble(ens, feat, mrp0, mu0, dt=0.1, horizon=5.0, save_every=10)
    assert np.max(hist.diagnostics["velocity_norm"]) < 1e-14
    np.testing.assert_allclose(hist.final.omega0, ens.omega0, atol=1e-12)
    np.testing.assert_allclose(hist.final.wbar, ens.wbar, atol=1e-12)


def test_ensemble_converges_on_desk_instance(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.35)
    ens = doubled_ensemble(200, uniform_sampler(-1.2, 1.2), rng=7)
    hist = integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=1200.0, save_every=200)
    gaps = hist.diagnostics["optimality_gap"]
    assert gaps[-1] < 1e-3
    assert gaps[-1] < gaps[0]


def test_hinge_feature_ensemble_converges(chain5):
    # hinge particles (omega0, (b, c)) are a width-normalized ReLU net at
    # alpha = 1, whose drift N times over is their velocity
    mrp, mu, states = chain5

    def sampler(n, r):
        return np.column_stack([r.standard_normal(n), r.standard_normal(n)])

    ens = doubled_ensemble(200, sampler, rng=7)
    net = ReluNet(200, states)
    drift = make_lazy_rhs(net, mrp, mu, 0.0, 1.0)
    w0 = net.pack(ens.omega0, ens.wbar[:, 0], ens.wbar[:, 1])
    run = integrate(lambda w: 200 * drift(w), w0,
                    TrainConfig(dt=0.05, horizon=1500.0, save_every=3000),
                    divergence_probe=drift.scaled_value_norm)
    assert not run.diverged
    assert mu_norm(net.value(run.final_params) - exact_value(mrp), mu) < 1e-3


def test_unstable_step_is_reported_as_divergence(chain5):
    mrp, mu, states = chain5
    loud = Mrp(P=mrp.P, rbar=1e10 * mrp.rbar, gamma=mrp.gamma)
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = doubled_ensemble(12, uniform_sampler(-1, 1), rng=4)
    # far beyond the stability limit of these rewards: the first step explodes
    hist = integrate_ensemble(ens, feat, loud, mu, dt=0.1, horizon=10.0, save_every=10)
    assert hist.diverged and hist.diverged_at == 0.1
    np.testing.assert_array_equal(hist.times, [0.0])
    np.testing.assert_array_equal(hist.final.omega0, ens.omega0)
    assert all(np.all(np.isfinite(v)) for v in hist.diagnostics.values())


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_ensemble_is_rejected(chain5, bad):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = doubled_ensemble(4, uniform_sampler(-1, 1), rng=4)
    ens.omega0[1] = bad
    with pytest.raises(DomainError, match="initial state"):
        integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=1.0, save_every=5)


def test_run_solves_the_backup_resolvent_once(chain5, monkeypatch):
    # one drift per run serves the steps and every saved state's diagnostics
    mrp, mu, states = chain5
    calls = []
    solve = mrp_module.td_resolvent
    monkeypatch.setattr(mrp_module, "td_resolvent", lambda *a: calls.append(a) or solve(*a))
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = doubled_ensemble(12, uniform_sampler(-1, 1), rng=4)
    hist = integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=3.0, save_every=5)
    assert len(hist.times) == 7
    assert len(calls) == 1


def test_optimality_report_solves_the_backup_resolvent_once(chain5, monkeypatch):
    # the speed, the gap and the gap constant read one particle system
    mrp, mu, states = chain5
    calls = []
    solve = mrp_module.td_resolvent
    monkeypatch.setattr(mrp_module, "td_resolvent", lambda *a: calls.append(a) or solve(*a))
    feat = GaussianBumpFeatures(states, width=0.4)
    fixed_point_optimality(doubled_ensemble(12, uniform_sampler(-1, 1), rng=4), feat, mrp, mu,
                           eps=1e-5)
    assert len(calls) == 1


def test_particle_run_matches_column_einsum_oracle(chain5, monkeypatch):
    # a run driven by the column-layout velocity ends at the same state,
    # with the same optimality gap at every save, to rounding
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.35)
    ens = doubled_ensemble(200, uniform_sampler(-1.2, 1.2), rng=7)
    run = integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=50.0, save_every=50)
    monkeypatch.setattr(meanfield, "EnsembleModel", ColumnEnsembleModel)
    oracle = integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=50.0, save_every=50)
    assert run.final_params.tobytes() != oracle.final_params.tobytes()
    np.testing.assert_allclose(run.final_params, oracle.final_params, rtol=1e-12,
                               atol=1e-12 * np.abs(oracle.final_params).max())
    np.testing.assert_allclose(run.diagnostics["optimality_gap"],
                               oracle.diagnostics["optimality_gap"], rtol=1e-12)


def test_particle_permutation_leaves_value_trajectory_unchanged(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = doubled_ensemble(12, uniform_sampler(-1, 1), rng=4)
    perm = np.random.default_rng(5).permutation(12)
    shuffled = ParticleEnsemble(ens.omega0[perm], ens.wbar[perm])
    h1 = integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=3.0, save_every=5)
    h2 = integrate_ensemble(shuffled, feat, mrp, mu, dt=0.1, horizon=3.0, save_every=5)
    for k in h1.diagnostics:
        np.testing.assert_allclose(h1.diagnostics[k], h2.diagnostics[k], atol=1e-12)
    for s1, s2 in zip(h1.snapshots, h2.snapshots):
        np.testing.assert_allclose(ensemble_value(s1, feat), ensemble_value(s2, feat),
                                   atol=1e-12)


def test_duplicating_particles_changes_nothing(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    rng = np.random.default_rng(6)
    ens = ParticleEnsemble(rng.standard_normal(7), rng.uniform(-1, 1, 7))
    dup = ParticleEnsemble(np.tile(ens.omega0, 2), np.tile(ens.wbar, (2, 1)))
    np.testing.assert_allclose(ensemble_value(dup, feat), ensemble_value(ens, feat),
                               atol=1e-14)
    do, dw = particle_velocities(ens, feat, mrp, mu)
    do2, dw2 = particle_velocities(dup, feat, mrp, mu)
    np.testing.assert_allclose(do2[:7], do, atol=1e-14)
    np.testing.assert_allclose(dw2[:7], dw, atol=1e-14)


# ------------------------------------------------------------------ profiles

def test_g_profile_zero_at_exact_value(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = exact_fit_ensemble(feat, states, exact_value(mrp))
    grid = np.linspace(-1.2, 1.2, 17)
    np.testing.assert_allclose(g_profile(ens, feat, mrp, mu, grid), np.zeros(17),
                               atol=1e-10)


def test_g_profile_narrow_bump_picks_single_state(chain5):
    mrp, mu, states = chain5
    width = 0.02
    feat = GaussianBumpFeatures(states, width=width)
    ens = ParticleEnsemble(np.zeros(2), np.array([0.0, 0.5]))  # value identically 0
    s0 = 2  # state at 0.0
    got = g_profile(ens, feat, mrp, mu, np.array([states[s0]]))[0]
    residual_at_s0 = mrp.rbar[s0]  # V = 0 so the residual is the reward
    assert got == pytest.approx(mu[s0] * residual_at_s0, rel=1e-6)


def test_g_profile_sign_flips_with_reward(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = ParticleEnsemble(np.zeros(3), np.array([-0.5, 0.0, 0.5]))
    flipped = Mrp(P=mrp.P, rbar=-mrp.rbar, gamma=mrp.gamma)
    grid = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(
        g_profile(ens, feat, flipped, mu, grid),
        -g_profile(ens, feat, mrp, mu, grid),
        atol=1e-14,
    )


def test_h1_profile_doubled_is_zero_everywhere():
    ens = doubled_ensemble(40, uniform_sampler(-1, 1), rng=8)
    edges = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_allclose(h1_profile(ens, edges), np.zeros(8), atol=1e-15)


def test_h1_profile_point_mass():
    ens = ParticleEnsemble(np.array([1.0, 2.0, -0.5]), np.array([0.31, 0.31, 0.31]))
    edges = np.linspace(0.0, 1.0, 5)
    prof = h1_profile(ens, edges)
    want = np.zeros(4)
    want[1] = (1.0 + 2.0 - 0.5) / 3.0  # bin [0.25, 0.5)
    np.testing.assert_allclose(prof, want, atol=1e-15)
    assert prof.sum() == pytest.approx(ens.omega0.sum() / ens.n)


def test_h1_profile_reads_a_flat_list_as_one_axis():
    ens = ParticleEnsemble(np.array([1.0, 2.0]), np.array([0.2, 0.7]))
    np.testing.assert_array_equal(h1_profile(ens, [0.0, 0.5, 1.0]), [0.5, 1.0])
    np.testing.assert_array_equal(h1_profile(ens, np.array([0.0, 0.5, 1.0])), [0.5, 1.0])
    # with a 2-D feature space, one list of edges per axis
    ens2 = ParticleEnsemble(np.array([1.0, 2.0]), np.array([[0.2, 0.2], [0.7, 0.2]]))
    np.testing.assert_array_equal(h1_profile(ens2, [[0.0, 0.5, 1.0], [0.0, 1.0]]),
                                  [[0.5], [1.0]])


def test_h1_profile_rejects_edges_that_miss_a_particle():
    rng = np.random.default_rng(8)
    ens = ParticleEnsemble(rng.standard_normal(40), rng.uniform(-1.0, 1.0, 40))
    covering = np.linspace(-1.0, 1.0, 9)
    assert h1_profile(ens, covering).sum() == pytest.approx(ens.omega0.mean(), rel=1e-12)
    short = np.linspace(-1.0, np.sort(ens.wbar[:, 0])[-2], 9)  # the largest particle is out
    with pytest.raises(DomainError, match="1 of 40 particles"):
        h1_profile(ens, short)


def test_meanfield_h1_bins_cover_every_final_particle(tmp_path):
    # particles of the default run drift past [-1.7, 1.7]; the bins widen
    # to hold them, so the profile sums to the first moment mean(omega0)
    run_meanfield(out_dir=tmp_path)
    h1 = np.loadtxt(tmp_path / "h1_profile.csv", delimiter=",", skiprows=1)
    final = np.loadtxt(tmp_path / "snapshot_final.csv", delimiter=",", skiprows=1)
    assert h1.shape == (12, 2)
    assert abs(h1[:, 1].sum() - final[:, 1].mean()) < 1e-12


def test_equal_h1_gives_equal_value_for_bin_constant_features(chain5):
    _, _, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    # same first moment per location, different particle splittings
    a = ParticleEnsemble(np.array([3.0, 1.0]), np.array([0.3, 0.3]))
    b = ParticleEnsemble(np.array([2.0, 2.0, 2.0, 2.0]), np.array([0.3, 0.3, 0.3, 0.3]))
    edges = np.array([0.0, 0.6])
    np.testing.assert_allclose(h1_profile(a, edges), h1_profile(b, edges), atol=1e-15)
    np.testing.assert_allclose(ensemble_value(a, feat), ensemble_value(b, feat),
                               atol=1e-14)


# ---------------------------------------------------------------- separation

def test_separation_passes_for_covering_doubled_ensemble():
    grid = np.linspace(-1, 1, 9)
    ens = doubled_ensemble(
        36,
        lambda count, rng: np.repeat(np.linspace(-1, 1, count), 1)[:, None],
        rng=9,
    )
    r0 = np.abs(ens.omega0).max()
    report = separation_check(ens, r0=r0, wbar_grid=grid, resolution=0.2)
    assert report.passed
    assert report.uncovered.size == 0


def test_separation_fails_with_witness_for_half_space():
    grid = np.linspace(-1, 1, 9)
    ens = ParticleEnsemble(np.ones(10), np.linspace(0.2, 1.0, 10))
    report = separation_check(ens, r0=2.0, wbar_grid=grid, resolution=0.1)
    assert not report.passed
    assert report.uncovered.size > 0
    assert np.all(report.uncovered[:, 0] < 0.2)


def test_separation_preserved_along_run(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.35)
    ens = doubled_ensemble(
        80,
        lambda count, rng: np.linspace(-1.2, 1.2, count)[:, None],
        rng=10,
    )
    grid = np.linspace(-1.1, 1.1, 9)
    # output weights grow during training; r0 bounds the initial support and
    # must leave headroom for the horizon, the preserved part is the coverage
    r0 = 8.0
    hist = integrate_ensemble(ens, feat, mrp, mu, dt=0.1, horizon=50.0, save_every=100)
    for snap in hist.snapshots:
        assert separation_check(snap, r0=r0, wbar_grid=grid, resolution=0.35).passed


# ----------------------------------------------------- fixed point optimality

def test_optimality_report_near_exact_ensemble(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = exact_fit_ensemble(feat, states, exact_value(mrp))
    sep = separation_check(ens, r0=1.1 * np.abs(ens.omega0).max(),
                           wbar_grid=states, resolution=0.5)
    rep = fixed_point_optimality(ens, feat, mrp, mu, eps=1e-8, separation=sep)
    assert rep.velocity_norm < 1e-10
    assert rep.bellman_residual < 1e-10
    assert rep.optimality_gap < 1e-10
    assert rep.stationary and rep.separation_passed and rep.features_universal
    # the implication is checked under the constant computed at the ensemble
    assert rep.gap_constant == pytest.approx(30.69, abs=0.01)
    assert rep.gap_tolerance == rep.gap_constant * 1e-8
    assert rep.implication_holds


def test_stalled_zero_weights_is_not_a_fixed_point(chain5):
    mrp, mu, states = chain5
    feat = GaussianBumpFeatures(states, width=0.4)
    ens = ParticleEnsemble(np.zeros(6), np.linspace(-1, 1, 6))
    grid = np.linspace(-1, 1, 7)
    assert np.abs(g_profile(ens, feat, mrp, mu, grid)).max() > 1e-3
    rep = fixed_point_optimality(ens, feat, mrp, mu, eps=1e-8)
    assert rep.velocity_norm > 1e-3  # output weights accelerate
    assert not rep.stationary
