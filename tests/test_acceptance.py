"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 5 (decay-rate
monotonicity in the discount factor) is implemented exactly as stated and
is expected to FAIL: on the reference network the fitted rates rise
with the discount. The slow mode of Gamma (gamma P - I) J J^T on
the backward cyclic chain is near-alternating, and TD damps a mode of
angle theta there at a rate proportional to 1 - gamma cos(theta), which
grows with gamma when cos(theta) < 0. On the smooth Gaussian-bump
instance, whose slow mode is smooth, the fitted rates fall in gamma. Only
the guaranteed lower-bound envelope carries the (1 - gamma) factor. The
failure is a property of the dynamics, not of the implementation; ROADMAP.md
has the analysis under "Criterion 5 explained by the spectrum".

Criteria 4, 5, 6, 7 and 11 run full-size experiments and are marked slow:
`pytest -m "not slow"` leaves them out.
"""

import numpy as np
import pytest

from lazytd import (
    GaussianBumpFeatures,
    LinearModel,
    Mrp,
    ReluNet,
    SpiralModel,
    TangentModel,
    TrainConfig,
    contraction_modulus,
    cyclic_chain,
    doubled_ensemble,
    exact_value,
    finite_difference_jacobian,
    integrate,
    integrate_ensemble,
    linearized_gap_bound,
    make_lazy_rhs,
    mu_norm,
    random_chain,
    run_stochastic_td,
    separation_check,
    stationary_measure,
    td_operator,
    underparametrized_certificate,
    fixed_point_optimality,
)
from lazytd.experiments import run_nn, run_spiral, run_sweep, spiral_mrp

from oracles import series_td_operator


def outcome(num: int, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_01_spiral_dichotomy():
    div = run_spiral(1.0)        # horizon 2000 = 2e5 steps of 1e-2
    conv = run_spiral(100.0)
    ok = div.diverged and (not conv.diverged) and conv.final_projected_error <= 1e-6
    assert outcome(1, ok, "unscaled spiral diverged=%s; scaled projected error=%.2e"
                   % (div.diverged, conv.final_projected_error))


def test_criterion_02_backup_operator_oracle():
    worst = 0.0
    for d in (3, 5, 8):
        rng = np.random.default_rng(d)
        P = random_chain(d, rng)
        mrp = Mrp(P=P, rbar=rng.standard_normal(d), gamma=0.9)
        for lam in (0.0, 0.3, 0.7, 0.9):
            for _ in range(20):
                V = rng.standard_normal(d)
                got = td_operator(mrp, lam, V)
                want = series_td_operator(P, mrp.rbar, 0.9, lam, V, m_max=400)
                worst = max(worst, float(np.abs(got - want).max()))
    assert outcome(2, worst <= 1e-9, f"max closed-form vs series gap {worst:.2e}")


def test_criterion_03_contraction_property():
    worst = -np.inf
    for gamma in (0.3, 0.6, 0.9, 0.95):
        for lam in (0.0, 0.3, 0.7, 0.9):
            rng = np.random.default_rng(int(1000 * gamma + 10 * lam))
            P = random_chain(6, rng)
            mrp = Mrp(P=P, rbar=rng.standard_normal(6), gamma=gamma)
            mu = stationary_measure(mrp)
            mod = contraction_modulus(gamma, lam)
            for _ in range(100):
                V, W = rng.standard_normal(6), rng.standard_normal(6)
                lhs = mu_norm(td_operator(mrp, lam, V) - td_operator(mrp, lam, W), mu)
                worst = max(worst, lhs - mod * mu_norm(V - W, mu))
    assert outcome(3, worst <= 1e-10, f"max contraction violation {worst:.2e}")


@pytest.mark.slow
def test_criterion_04_global_decay_envelope():
    rep = run_nn("over")   # width 100, 30 states, scaling 500, discount 0.9, fixed seed
    cert = rep.certificate
    ok = (not rep.diverged and cert["envelope_ok"]
          and cert["envelope_margin"] <= 1.05 and cert["r_squared"] >= 0.95)
    assert outcome(4, ok, "envelope margin %.4f (<=1.05), fit R^2 %.4f (>=0.95), wall %.0fs"
                   % (cert["envelope_margin"], cert["r_squared"], rep.wall_clock))


@pytest.mark.slow
def test_criterion_05_rate_monotonicity_in_discount():
    sweep = run_sweep("gamma", [0.8, 0.83, 0.85, 0.87, 0.9])
    rates = sweep.certificate["rates_by_gamma"]
    ok = sweep.certificate["passed"]
    detail = "fitted rates by discount " + str(["%.3e" % r if r else "-" for r in rates])
    # Expected to fail: the swept net's slow mode is near-alternating, and
    # its damping grows with the discount (see the module docstring).
    assert outcome(5, ok, detail)


@pytest.mark.slow
def test_criterion_06_local_fixed_point_error_bound():
    alphas = [50.0, 100.0, 200.0]

    # spiral manifold grid
    mrp = spiral_mrp()
    mu = stationary_measure(mrp)
    model = SpiralModel()
    runs = []
    for a in alphas:
        rhs = make_lazy_rhs(model, mrp, mu, 0.0, a)
        cfg = TrainConfig(dt=1e-2, horizon=2000.0, save_every=100)
        probe = lambda w, _a=a: _a * np.max(np.abs(model.value(w)))
        runs.append(integrate(rhs, np.zeros(1), cfg, divergence_probe=probe))
    cert_s = underparametrized_certificate(model, mrp, mu, 0.0, alphas, runs)

    # narrow network grid
    reports = [run_nn("under", alpha=a) for a in alphas]
    pes = [r.final_projected_error for r in reports]
    nn_conv = all(p <= 1e-6 for p in pes) and not any(r.diverged for r in reports)
    excesses = [r.certificate["excesses"][0] for r in reports]
    C = max(excesses[0] * alphas[0], 1e-12)
    nn_env = all(exc <= C / a + 1e-12 for a, exc in zip(alphas, excesses))

    ok = cert_s.passed and nn_conv and nn_env
    assert outcome(6, ok, "spiral cert=%s; net projected errors %s, excess envelope %s"
                   % (cert_s.passed, ["%.1e" % p for p in pes], nn_env))


@pytest.mark.slow
def test_criterion_07_displacement_scaling():
    sweep = run_sweep("alpha", [1e2, 1e3, 1e4])
    relu_slope = sweep.certificate["slope"]
    relu_ok = sweep.certificate["passed"]

    rng = np.random.default_rng(9)
    base = ReluNet(16, np.linspace(-1, 1, 8))
    w0 = base.init_doubled(rng)
    mrp = Mrp(P=cyclic_chain(8, "backward"), rbar=rng.standard_normal(8), gamma=0.9)
    mu = stationary_measure(mrp)
    tangent = TangentModel(base, w0)
    cfg = TrainConfig(dt=0.5, horizon=4000.0, save_every=20)
    disp = []
    for a in (1e2, 1e3, 1e4):
        run = integrate(make_lazy_rhs(tangent, mrp, mu, 0.0, a), w0, cfg)
        disp.append(np.max(np.linalg.norm(run.params - w0, axis=1)))
    t_slope = float(np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(disp), 1)[0])
    t_ok = abs(t_slope - (-1.0)) <= 0.02

    ok = relu_ok and relu_slope <= -0.8 and t_ok
    assert outcome(7, ok, "network slope %.3f (<=-0.8); tangent slope %.4f (=-1 +/- 0.02)"
                   % (relu_slope, t_slope))


def test_criterion_08_linear_lazy_invariance():
    rng = np.random.default_rng(10)
    base = ReluNet(16, np.linspace(-1, 1, 8))
    w0 = base.init_doubled(rng)
    model = TangentModel(base, w0)        # value(w0) = 0, so f(0) = 0 for all alpha
    mrp = Mrp(P=cyclic_chain(8, "backward"), rbar=rng.standard_normal(8), gamma=0.9)
    mu = stationary_measure(mrp)
    cfg = TrainConfig(dt=0.5, horizon=3000.0, save_every=20)
    flows = []
    for a in (1.0, 10.0, 100.0):
        run = integrate(make_lazy_rhs(model, mrp, mu, 0.0, a), w0, cfg)
        flows.append(np.array([a * model.value(w) for w in run.params]))
    gap = max(np.abs(flows[0] - flows[1]).max(), np.abs(flows[0] - flows[2]).max())
    assert outcome(8, gap <= 1e-6, f"max cross-scaling value-trajectory gap {gap:.2e}")


def test_criterion_09_meanfield_optimality():
    states = np.linspace(-1, 1, 5)
    P = cyclic_chain(5, "backward")
    rng = np.random.default_rng(7)
    vstar = rng.standard_normal(5)
    mrp = Mrp(P=P, rbar=(np.eye(5) - 0.9 * P) @ vstar, gamma=0.9)
    mu = stationary_measure(mrp)
    features = GaussianBumpFeatures(states, width=0.35)
    ens = doubled_ensemble(200, lambda n, r: r.uniform(-1.2, 1.2, size=(n, 1)), rng=rng)
    hist = integrate_ensemble(ens, features, mrp, mu, dt=0.1, horizon=1500.0,
                              save_every=375)
    sep = separation_check(hist.final, r0=8.0, wbar_grid=np.linspace(-1.1, 1.1, 9),
                           resolution=0.4)
    bound = linearized_gap_bound(hist.final, features, mrp, mu)
    rep = fixed_point_optimality(hist.final, features, mrp, mu, eps=1e-5,
                                 separation=sep,
                                 features_universal=features.universal_for_states(states[:, None]),
                                 gap_constant=bound)
    if rep.stationary:
        ok = sep.passed and rep.optimality_gap <= 1e-2
        detail = "velocity %.2e <= 1e-5, separation %s, gap %.2e <= 1e-2" % (
            rep.velocity_norm, sep.passed, rep.optimality_gap)
    else:
        gaps = hist.diagnostics["optimality_gap"]
        tail = gaps[len(gaps) // 2:]
        ok = bool(np.all(np.diff(tail) <= 1e-12))
        detail = "velocity threshold not reached; gap tail nonincreasing %s" % ok
    assert outcome(9, ok, detail)


def test_criterion_10_jacobian_checks():
    rng = np.random.default_rng(11)
    relu = ReluNet(8, np.linspace(-1, 1, 6))
    models = [
        ("linear", LinearModel(rng.standard_normal((6, 3)))),
        ("spiral", SpiralModel()),
        ("relu", relu),
        ("tangent", TangentModel(relu, relu.init_doubled(12))),
    ]
    worst = 0.0
    for name, model in models:
        checked = 0
        while checked < 20:
            w = rng.standard_normal(model.p)
            if name in ("relu",):
                a, b, c = relu.unpack(w)
                if np.abs(relu.states @ b.T - c[None, :]).min() < 1e-5:
                    continue
            fd = finite_difference_jacobian(model, w)
            an = model.jacobian(w)
            scale = np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float((np.abs(an - fd) / scale).max()))
            checked += 1
    assert outcome(10, worst <= 1e-4, f"max relative Jacobian gap {worst:.2e}")


@pytest.mark.slow
def test_criterion_11_stochastic_ode_consistency():
    mrp = spiral_mrp()
    mu = stationary_measure(mrp)
    model = LinearModel(np.eye(3))
    wstar = exact_value(mrp)        # full-rank fixed point of the averaged flow
    gaps = []
    for beta in (1e-2, 1e-3, 1e-4):
        steps = int(60.0 / beta)
        cfg = TrainConfig(lam=0.0, alpha=1.0, beta0=beta,
                          horizon=steps, seed=0, save_every=max(1, steps // 2000))
        run = run_stochastic_td(model, mrp, mu, cfg, np.zeros(3))
        tail = run.params[len(run.params) // 2:]
        gaps.append(float(np.abs(tail.mean(axis=0) - wstar).max()))
    ok = gaps[0] > gaps[1] > gaps[2]
    assert outcome(11, ok, "terminal gaps by step size " + str(["%.3e" % g for g in gaps]))
