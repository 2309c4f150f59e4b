"""Experiment runners and the command-line front end: protocols,
reproducibility, file outputs, report coherence."""

import csv
import inspect
import io
import json
import multiprocessing
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lazytd import Backup, GaussianBumpFeatures, LinearModel, Mrp, experiments
from lazytd.analysis import LazyGeometry, fit_exponential_rate
from lazytd.cli import main as cli_main
from lazytd.dynamics import TrainConfig, integrate
from lazytd.experiments import (
    EXPERIMENTS,
    NN_MIN_STEPS,
    ExperimentConfig,
    RunReport,
    _nn_setup,
    run_from_config,
    run_meanfield,
    run_nn,
    run_spiral,
    run_sweep,
    spiral_mrp,
)
from lazytd import exact_value


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def test_spiral_mrp_reproduces_target_values():
    np.testing.assert_allclose(exact_value(spiral_mrp()), [-10.0, 7.0, 3.0], atol=1e-10)


def test_spiral_unscaled_diverges():
    rep = run_spiral(1.0)
    assert rep.diverged
    assert rep.extra["diverged_at"] is not None


def test_spiral_scaled_converges():
    rep = run_spiral(100.0)
    assert not rep.diverged
    assert rep.final_projected_error <= 1e-6


def test_spiral_step_halving_consistency():
    a = run_spiral(100.0, dt=1e-2)
    b = run_spiral(100.0, dt=5e-3)
    assert abs(a.extra["theta_final"] - b.extra["theta_final"]) < 1e-4


def test_spiral_stochastic_engine_runs():
    rep = run_spiral(100.0, mode="stochastic", horizon=20_000, seed=1)
    assert not rep.diverged
    # noisy, but the iterate should be in the neighborhood of the ode fixed point
    assert abs(rep.extra["theta_final"] - 0.0103) < 5e-3


def test_spiral_stochastic_engine_diverges_unscaled():
    rep = run_spiral(1.0, mode="stochastic", horizon=200_000, seed=0)
    assert rep.diverged
    assert np.isfinite(rep.final_projected_error)


def test_spiral_stochastic_divergence_is_pinned():
    # the probe's stated value bound stands in for the spiral's value only
    # where the bound lies far below the threshold, so the unscaled run
    # stops where the exact probe always stopped it: step 2663, on its value
    rep = run_spiral(1.0, mode="stochastic", horizon=200_000, seed=0)
    assert rep.extra["diverged_at"] == 5.3260000000000005 == 2663 * 2e-3
    assert rep.extra["stop"] == "diverged:value"
    assert rep.extra["steps"] == 2663
    assert rep.extra["theta_final"] == 181.96241578338027


def test_nn_over_certificate_passes_small_config():
    # small full-rank net with its natural horizon; the reference-size
    # configuration is exercised by the acceptance suite
    rep = run_nn("over", n_units=40, n_states=8, seed=8)
    cert = rep.certificate
    assert not rep.diverged
    assert rep.extra["rank"] == 8
    assert rep.extra["unstable_count"] == 0 and rep.extra["rate_unstable"] is None
    assert cert["envelope_ok"]
    assert cert["r_squared"] >= 0.95
    assert cert["passed"]
    # the ReLU Jacobian has no Lipschitz constant, so the worst-case radius
    # is zero and the threshold infinite: both preconditions fail, whatever
    # rounding leaves of the paired initialization's zero value
    assert cert["init_within_radius"] is False
    assert cert["alpha_above_threshold"] is False


@pytest.mark.parametrize("n_units,n_states,seed", [(40, 8, 12), (50, 12, 6)])
def test_nn_over_rate_is_converged_in_the_step(n_units, n_states, seed):
    # small full-rank nets whose default RKC step is NN_RKC_FACTOR / fast,
    # not the NN_MIN_STEPS floor; at 25 / fast the (50, 12, 6) run fitted
    # 2.6 times the rate it fits at half that step
    rep = run_nn("over", n_units=n_units, n_states=n_states, seed=seed)
    assert rep.extra["steps"] > NN_MIN_STEPS
    half = run_nn("over", n_units=n_units, n_states=n_states, seed=seed, dt=rep.config["dt"] / 2)
    assert abs(rep.fitted_rate - half.fitted_rate) < 0.01 * half.fitted_rate


@pytest.mark.parametrize("regime", ["over", "under"])
def test_network_ode_runs_report_their_integration(regime, tmp_path):
    rep = run_nn(regime, n_units=20 if regime == "over" else 6, n_states=5, out_dir=tmp_path)
    extra = json.loads((tmp_path / "report.json").read_text())["extra"]
    steps, calls = extra["steps"], extra["rhs_calls"]
    if regime == "over":
        assert extra["integrator"] == "rkc"
        assert 2 <= extra["stages_min"] <= extra["stages_max"]
        assert extra["stages_min"] * steps + 1 <= calls <= extra["stages_max"] * steps + 1
    else:
        assert extra["integrator"] == "rk4"
        assert extra["stages_min"] == extra["stages_max"] == 4 and calls == 4 * steps + 1
    # the run stops at its horizon or, in the under regime, early
    horizon_steps = round(rep.config["horizon"] / rep.config["dt"])
    assert 1 <= steps <= horizon_steps
    if extra["stop"] == "horizon":
        assert steps == horizon_steps
    else:
        assert regime == "under" and extra["stop"] == "stop_when"
    # telemetry stays out of config.json, whose keys are the run's inputs
    config = json.loads((tmp_path / "config.json").read_text())
    assert not {"integrator", "steps", "stop", "rhs_calls", "stages_min",
                "stages_max"} & set(config)


@pytest.mark.parametrize("regime,n_units,n_states", [("over", 20, 5), ("under", 6, 5)])
def test_nn_reports_the_geometry_of_its_initialization(regime, n_units, n_states):
    rep = run_nn(regime, n_units=n_units, n_states=n_states)
    mrp, mu, model, w0 = _nn_setup(0.9, rep.config["seed"], n_units, n_states)
    geometry = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu))
    want = {"rate_fast": geometry.rate_fast, "rate_slow": geometry.rate_slow,
            "unstable_count": geometry.rates_unstable.size, "rank": geometry.rank}
    if regime == "over":
        want.update(kappa=geometry.kappa, rate_bound=geometry.rate_bound)
    assert {key: rep.extra[key] for key in want} == want


def test_every_run_report_carries_its_run_stats():
    ode = run_spiral(1.0, horizon=5.0)
    assert ode.extra["integrator"] == "rk4" and ode.extra["steps"] == 500
    assert ode.extra["stop"] == "horizon"
    assert ode.extra["rhs_calls"] == 4 * 500 + 1
    assert ode.extra["stages_min"] == ode.extra["stages_max"] == 4
    sampled = run_spiral(1.0, mode="stochastic", horizon=1000)
    assert sampled.extra["steps"] == 1000 and "integrator" not in sampled.extra
    assert sampled.extra["stop"] == "horizon"
    net = run_nn("under", mode="stochastic", horizon=500)
    assert net.extra["steps"] == 500 and net.extra["stop"] == "horizon"
    particles = run_meanfield(n_particles=4, horizon=1.0)
    assert particles.extra["integrator"] == "rk4" and particles.extra["steps"] == 10
    assert particles.extra["stop"] == "horizon"


def test_linearized_rates_returns_unstable_eigenvalues():
    # features (1, 2), both states jump to the second, equal weights that
    # are not the chain's stationary measure: the classic off-policy
    # counterexample, whose linearization grows at 3 gamma - 5/2
    model = LinearModel(np.array([[1.0], [2.0]]))
    mrp = Mrp(P=np.array([[0.0, 1.0], [0.0, 1.0]]), rbar=np.zeros(2), gamma=0.9)
    mu = np.array([0.5, 0.5])
    geometry = LazyGeometry.from_model(model, np.zeros(1), Backup.of(mrp, mu))
    np.testing.assert_allclose(geometry.rates_unstable, [0.2])


@pytest.mark.slow
def test_nn_under_three_seeds_converge():
    for seed in (5, 17, 3):
        rep = run_nn("under", seed=seed)
        assert not rep.diverged
        assert rep.final_projected_error <= 1e-6


def test_nn_over_initial_error_is_target_norm(tmp_path):
    from lazytd import mu_norm

    rep = run_nn("over", horizon=2e5, out_dir=tmp_path)
    assert rep.extra["rank"] == 30
    # paired initialization: value vanishes at start, so the initial error
    # equals the norm of the target itself
    mrp, mu, model, w0 = _nn_setup(0.9, rep.config["seed"], 100, 30)
    cols = read_csv_columns(tmp_path / "trajectory.csv")
    assert cols["value_error"][0] == pytest.approx(mu_norm(exact_value(mrp), mu), abs=1e-12)
    assert cols["lyapunov"][0] > 0


def test_nn_stochastic_mode_runs():
    rep = run_nn("under", mode="stochastic", horizon=20_000, seed=5)
    assert not rep.diverged
    assert rep.certificate is None
    assert rep.final_projected_error < 1.0  # moved toward a fixed point


def test_nn_under_value_error_is_the_certificates():
    # one v* per run: at this seed and scaling the target drawn for the
    # chain and the value solved from it differ in the last bit, and the
    # reported final value error is still the certificate's, bit for bit
    rep = run_nn("under", alpha=25.0, seed=5)
    assert rep.final_value_error == rep.certificate["value_errors"][0]


def test_run_report_files_and_coherence(tmp_path):
    rep = run_nn("under", out_dir=tmp_path / "run")
    cols = read_csv_columns(tmp_path / "run" / "trajectory.csv")
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert abs(cols["projected_error"][-1] - report["final_projected_error"]) <= 1e-12
    assert abs(cols["value_error"][-1] - report["final_value_error"]) <= 1e-12
    assert abs(cols["displacement"].max() - report["displacement"]) <= 1e-12
    rate, r2 = fit_exponential_rate(cols["time"], cols["projected_error"])
    if report["fitted_rate"] is not None:
        assert rate == pytest.approx(report["fitted_rate"], rel=1e-9)
    assert r2 == pytest.approx(report["r_squared"], rel=1e-9)
    for name in report["manifest"]:
        assert (tmp_path / "run" / name).exists()


def test_reproducibility_byte_identical(tmp_path):
    run_spiral(100.0, out_dir=tmp_path / "a", seed=3)
    run_spiral(100.0, out_dir=tmp_path / "b", seed=3)
    for name in ("config.json", "trajectory.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_meanfield_reproducibility_and_outputs(tmp_path):
    run_meanfield(horizon=20.0, out_dir=tmp_path / "a")
    run_meanfield(horizon=20.0, out_dir=tmp_path / "b")
    for name in ("trajectory.csv", "snapshot_final.csv", "g_profile.csv", "h1_profile.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    snap = (tmp_path / "a" / "snapshot_final.csv").read_text().splitlines()
    assert snap[0] == "i,omega0,wbar_1"
    assert len(snap) == 201


def test_config_round_trip():
    cfg = ExperimentConfig(experiment="spiral", seed=4, out_dir=None,
                           params={"alpha": 100.0, "dt": 0.01})
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(experiment=st.sampled_from(EXPERIMENTS), seed=st.none() | st.integers(),
       out_dir=st.none() | st.text(), params=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
def test_config_json_round_trip_is_exact(experiment, seed, out_dir, params):
    cfg = ExperimentConfig(experiment=experiment, seed=seed, out_dir=out_dir, params=params)
    text = cfg.to_json()
    back = ExperimentConfig.from_json(text)
    assert back == cfg
    assert back.to_json() == text


def test_run_from_config_matches_direct_call():
    cfg = ExperimentConfig(experiment="spiral", seed=0, params={"alpha": 100.0})
    a = run_from_config(cfg)
    b = run_spiral(100.0, seed=0)
    assert a.final_projected_error == b.final_projected_error
    assert a.extra["theta_final"] == b.extra["theta_final"]


@pytest.mark.parametrize("base,seed", [({}, 13), ({"seed": 3}, 3)], ids=["top-level", "base-wins"])
def test_config_file_sweep_passes_seed(tmp_path, base, seed):
    # as with ``sweep --seed``, the file's seed reaches every run of the
    # sweep, and a seed given in base takes precedence
    text = json.dumps({"experiment": "alpha-sweep", "seed": 13, "out_dir": str(tmp_path),
                       "params": {"grid": [100, 200],
                                  "base": {"regime": "under", "n_units": 6, "n_states": 6, **base}}})
    run_from_config(ExperimentConfig.from_json(text))
    for v in (100, 200):
        assert json.loads((tmp_path / f"run_{v}" / "config.json").read_text())["seed"] == seed


def test_every_run_records_its_inputs(tmp_path):
    # every runner parameter but out_dir is a key of the run's config.json;
    # regime and kind are recorded through the experiment name
    small = {"regime": "over", "n_units": 20, "n_states": 5, "horizon": 500.0}
    runs = [
        (run_spiral, "spiral", lambda out: run_spiral(100.0, horizon=5.0, out_dir=out)),
        (run_nn, "nn-over", lambda out: run_nn(out_dir=out, **small)),
        (run_meanfield, "meanfield", lambda out: run_meanfield(n_particles=20, horizon=5.0,
                                                               out_dir=out)),
        (run_sweep, "alpha-sweep", lambda out: run_sweep("alpha", [50.0], base=small, out_dir=out)),
    ]
    for runner, experiment, call in runs:
        call(tmp_path / experiment)
        config = json.loads((tmp_path / experiment / "config.json").read_text())
        assert config["experiment"] == experiment
        missing = set(inspect.signature(runner).parameters) - set(config) - {"out_dir", "regime", "kind"}
        assert not missing, (experiment, missing)


def _config(out):
    return json.loads((out / "config.json").read_text())


def test_config_files_pin_their_settings(tmp_path):
    # the keys and the fixed settings every config.json records; the
    # values left out follow from the run's spectrum or step count
    run_spiral(100.0, horizon=5.0, out_dir=tmp_path / "spiral")
    assert _config(tmp_path / "spiral") == dict(
        experiment="spiral", alpha=100.0, mode="ode", integrator="rk4", dt=1e-2, horizon=5.0,
        beta=2e-3, seed=0, stop_tol=1e-8, save_every=100, gamma=0.9, lam=0.0)

    over = dict(gamma=0.9, seed=1454, alpha=500.0, n_units=20, n_states=5, lam=0.0, beta=1e-3)
    under = dict(over, seed=5, alpha=100.0, n_units=10, n_states=50)
    for regime, settings in (("over", over), ("under", under)):
        run_nn(regime, horizon=500.0, out_dir=tmp_path / regime,
               **{k: settings[k] for k in ("seed", "alpha", "n_units", "n_states")})
        config = _config(tmp_path / regime)
        assert set(config) == {*settings, "experiment", "mode", "dt", "horizon", "stop_tol",
                               "save_every"}
        assert {k: config[k] for k in settings} == settings
        assert (config["experiment"], config["mode"]) == (f"nn-{regime}", "ode")
        assert config["stop_tol"] == 1e-7 and config["horizon"] == 500.0

    run_nn("over", mode="stochastic", horizon=800, n_units=20, n_states=5,
           out_dir=tmp_path / "stochastic")
    assert _config(tmp_path / "stochastic") == dict(
        experiment="nn-over", mode="stochastic", horizon=800, save_every=2, **over)

    run_meanfield(n_particles=20, horizon=5.0, out_dir=tmp_path / "meanfield")
    assert _config(tmp_path / "meanfield") == dict(
        experiment="meanfield", n_particles=20, n_states=5, gamma=0.9, seed=7,
        feature_kind="gaussian-bump", width=0.35, center_low=-1.2, center_high=1.2, dt=0.1,
        horizon=5.0, r0=8.0, grid_points=9, resolution=0.4, eps=1e-5)


def test_singleton_sweep_matches_single_run():
    sweep = run_sweep("gamma", [0.9], base={"regime": "under"})
    single = run_nn("under", gamma=0.9)
    row = sweep.extra["rows"][0]
    assert row["final_projected_error"] == single.final_projected_error
    assert row["final_value_error"] == single.final_value_error
    assert row["displacement"] == single.displacement


def _sweep_files(root):
    """Every file under a sweep's output directory, its wall_clock and the
    sweep's recorded workers blanked."""
    return {str(path.relative_to(root)):
            re.sub(r'("wall_clock"|"workers"): [-+0-9.eE]+', r"\1: null", path.read_text())
            for path in sorted(p for p in root.rglob("*") if p.is_file())}


def test_sweep_worker_count_independence(tmp_path):
    # the same rows and files at every worker count; 3 is more than the grid holds
    base = {"regime": "under"}
    sweeps = {workers: run_sweep("gamma", [0.85, 0.9], base=base,
                                 out_dir=tmp_path / str(workers), workers=workers)
              for workers in (1, 2, 3)}
    assert sweeps[2].extra["rows"] == sweeps[1].extra["rows"] == sweeps[3].extra["rows"]
    one = _sweep_files(tmp_path / "1")
    assert "run_0.85/trajectory.csv" in one
    assert _sweep_files(tmp_path / "2") == one == _sweep_files(tmp_path / "3")
    assert multiprocessing.active_children() == []


def test_sweep_runs_in_the_calling_thread_or_forked_processes(monkeypatch, tmp_path):
    # workers=1 runs the grid in this thread, in grid order, and starts no
    # thread; workers=2 deals it round-robin to this process and one fork
    from lazytd import experiments
    real, log = experiments.run_nn, tmp_path / "calls"

    def spy(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {threading.get_ident()} {kwargs['alpha']}\n")
        return real(*args, **kwargs)

    def calls():
        lines = log.read_text().split("\n")[:-1]
        log.unlink()
        return [(int(pid), int(ident), float(alpha))
                for pid, ident, alpha in (line.split() for line in lines)]

    monkeypatch.setattr(experiments, "run_nn", spy)
    base = {"regime": "under", "n_units": 4, "n_states": 5}
    before, here = threading.active_count(), (os.getpid(), threading.get_ident())
    run_sweep("alpha", [100.0, 50.0], base=base, out_dir=tmp_path / "one", workers=1)
    assert calls() == [(*here, 100.0), (*here, 50.0)]
    assert threading.active_count() == before
    run_sweep("alpha", [100.0, 50.0], base=base, out_dir=tmp_path / "two", workers=2)
    pids = {alpha: pid for pid, _, alpha in calls()}
    assert pids[100.0] == os.getpid() != pids[50.0]
    assert json.loads((tmp_path / "two" / "config.json").read_text())["workers"] == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("grid", [[100.0, 0.5], [0.5, 100.0]], ids=["worker", "parent"])
def test_sweep_raises_the_typed_error_of_either_share(monkeypatch, grid):
    # alpha = 0.5 is refused by the run's config; the other run stalls, so
    # when the parent's own share raises, the worker is still running
    from lazytd import experiments
    from lazytd.errors import DomainError
    real = experiments.run_nn

    def stalling(**kw):
        if kw["alpha"] == 100.0 and grid[0] == 0.5:  # the worker's run
            time.sleep(60)
        return real(**kw)

    monkeypatch.setattr(experiments, "run_nn", stalling)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="alpha must be >= 1") as raised:
        run_sweep("alpha", grid, base={"regime": "under", "n_units": 4, "n_states": 5},
                  workers=2)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []
    if grid[0] == 100.0:  # the worker's traceback is kept in the cause
        cause = raised.value.__cause__
        assert isinstance(cause, ChildProcessError)
        assert "Traceback" in str(cause) and "alpha must be >= 1" in str(cause)


def test_sweep_names_the_exit_code_of_a_worker_that_sent_nothing(monkeypatch):
    from lazytd import experiments
    real = experiments.run_nn
    monkeypatch.setattr(experiments, "run_nn",
                        lambda **kw: os._exit(3) if kw["alpha"] == 50.0 else real(**kw))
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        run_sweep("alpha", [100.0, 50.0], base={"regime": "under", "n_units": 4, "n_states": 5},
                  workers=2)
    assert multiprocessing.active_children() == []


def test_worker_of_a_sweep_that_ended_starts_no_run(monkeypatch, tmp_path):
    # the sweep's process ends without unwinding (os._exit here, as under
    # the benchmark's set-up probe; a signal alike): its worker finishes the
    # run it is in and starts no other
    from lazytd import experiments
    real, log, here = experiments.run_nn, tmp_path / "calls", os.getpid()

    def spy(**kw):
        if os.getppid() == here:  # the sweep's own process: end once the worker has started
            time.sleep(0.5)
            os._exit(0)
        with open(log, "a") as fh:
            fh.write(f"start {kw['alpha']}\n")
        time.sleep(1.5)  # the sweep's process ends meanwhile
        report = real(**kw)
        with open(log, "a") as fh:
            fh.write(f"end {kw['alpha']}\n")
        return report

    monkeypatch.setattr(experiments, "run_nn", spy)
    sweeper = os.fork()
    if sweeper == 0:
        try:
            run_sweep("alpha", [100.0, 50.0, 200.0, 400.0], workers=2,
                      base={"regime": "under", "n_units": 4, "n_states": 5})
        finally:
            os._exit(1)
    assert os.waitstatus_to_exitcode(os.waitpid(sweeper, 0)[1]) == 0
    deadline = time.monotonic() + 30
    while "end" not in (log.read_text() if log.exists() else "") and time.monotonic() < deadline:
        time.sleep(0.05)
    time.sleep(0.5)  # the worker's next run would have started by now
    assert log.read_text() == "start 50.0\nend 50.0\n"


def test_sweep_summary_file(tmp_path):
    run_sweep("gamma", [0.9], base={"regime": "under"}, out_dir=tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("grid_value,")
    assert len(lines) == 2
    assert (tmp_path / "run_0.9" / "trajectory.csv").exists()


@pytest.mark.parametrize("grid", [[0.9, 0.9000001], [0.9, 0.9]], ids=["same-6-digits", "repeated"])
def test_sweep_rejects_values_sharing_a_run_name(tmp_path, grid):
    # each run writes run_{v:g}, which keeps six significant digits: these
    # grids would put two runs in one directory and one summary row
    from lazytd.errors import DomainError
    with pytest.raises(DomainError):
        run_sweep("gamma", grid, base={"regime": "under", "n_units": 4, "n_states": 5},
                  out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("call", [
    lambda: run_meanfield(n_particles=0),
    lambda: GaussianBumpFeatures(np.linspace(-1, 1, 5), width=float("nan")),
    lambda: GaussianBumpFeatures(np.linspace(-1, 1, 5), width=float("inf")),
    lambda: run_sweep("alpha", [100.0], base={"regime": "under"}, workers=0),
    lambda: run_sweep("alpha", [100.0], base={"regime": "under"}, workers=-2),
    lambda: run_sweep("alpha", [100.0], base={"regime": "under"}, workers=1.5),
    lambda: run_nn("over", n_units=0, n_states=5),
    lambda: ExperimentConfig("bogus"),
    lambda: run_spiral(mode="bogus"),
    lambda: run_nn("sideways"),
    lambda: run_sweep("beta", [0.9]),
    lambda: run_sweep("alpha", []),
], ids=["no-particles", "nan-width", "inf-width", "zero-workers", "negative-workers",
        "fractional-workers", "no-units", "unknown-experiment", "unknown-mode",
        "unknown-regime", "unknown-sweep", "empty-grid"])
def test_invalid_run_input_raises_domain_error(call):
    from lazytd.errors import DomainError
    with pytest.raises(DomainError):
        call()


NAN, INF = float("nan"), float("inf")


BAD_VALUE, NO_STEP = "must be positive and finite", "a run takes at least one"
ODE_ONLY = "dt is the ode step"
SPIRAL_ODE_ONLY, SAMPLED_ONLY = "set the ode step", "beta is the sampled step"


@pytest.mark.parametrize("call,argv,message", [
    (lambda: run_meanfield(dt=0.0), ["meanfield", "--dt", "0"], BAD_VALUE),
    (lambda: run_meanfield(dt=NAN), ["meanfield", "--dt", "nan"], BAD_VALUE),
    (lambda: run_meanfield(horizon=INF), ["meanfield", "--horizon", "inf"], BAD_VALUE),
    (lambda: run_nn("under", dt=0.0), ["nn", "--regime", "under", "--dt", "0"], BAD_VALUE),
    (lambda: run_nn("under", dt=NAN), ["nn", "--regime", "under", "--dt", "nan"], BAD_VALUE),
    (lambda: run_nn("under", horizon=INF), ["nn", "--regime", "under", "--horizon", "inf"],
     BAD_VALUE),
    (lambda: run_nn("over", mode="stochastic", horizon=INF),
     ["nn", "--regime", "over", "--mode", "stochastic", "--horizon", "inf"], BAD_VALUE),
    (lambda: run_nn("over", mode="stochastic", horizon=NAN),
     ["nn", "--regime", "over", "--mode", "stochastic", "--horizon", "nan"], BAD_VALUE),
    # valid alone, but each comes to less than one step
    (lambda: run_meanfield(horizon=0.04), ["meanfield", "--horizon", "0.04"], NO_STEP),
    (lambda: run_nn("under", horizon=1e-9), ["nn", "--regime", "under", "--horizon", "1e-9"],
     NO_STEP),
    (lambda: run_spiral(horizon=0.001), ["spiral", "--horizon", "0.001"], NO_STEP),
    (lambda: run_spiral(mode="stochastic", horizon=0.5),
     ["spiral", "--mode", "stochastic", "--horizon", "0.5"], NO_STEP),
    (lambda: run_nn("over", mode="stochastic", horizon=0.5),
     ["nn", "--regime", "over", "--mode", "stochastic", "--horizon", "0.5"], NO_STEP),
    # the sampled engine steps by beta, so an ode step would be recorded unused
    (lambda: run_nn("under", mode="stochastic", dt=123.0),
     ["nn", "--regime", "under", "--mode", "stochastic", "--dt", "123"], ODE_ONLY),
    # likewise each spiral engine refuses the other's step settings
    (lambda: run_spiral(mode="stochastic", horizon=2000, dt=5.0),
     ["spiral", "--mode", "stochastic", "--horizon", "2000", "--dt", "5"], SPIRAL_ODE_ONLY),
    (lambda: run_spiral(mode="stochastic", horizon=2000, integrator="euler"),
     ["spiral", "--mode", "stochastic", "--horizon", "2000", "--integrator", "euler"],
     SPIRAL_ODE_ONLY),
    (lambda: run_spiral(alpha=100.0, horizon=50.0, beta=7.0),
     ["spiral", "--alpha", "100", "--horizon", "50", "--beta", "7"], SAMPLED_ONLY),
], ids=["meanfield-zero-dt", "meanfield-nan-dt", "meanfield-inf-horizon", "nn-zero-dt",
        "nn-nan-dt", "nn-inf-horizon", "sampled-inf-horizon", "sampled-nan-horizon",
        "meanfield-no-step", "nn-no-step", "spiral-no-step", "spiral-sampled-no-step",
        "sampled-no-step", "sampled-dt", "spiral-sampled-dt", "spiral-sampled-integrator",
        "spiral-ode-beta"])
def test_step_and_horizon_are_checked_before_use(call, argv, message, capsys):
    # a step count derived from them first would raise ZeroDivisionError,
    # OverflowError or numpy's ValueError instead of the library's error, and
    # a run of no step would write a report of nothing
    from lazytd.errors import DomainError
    with pytest.raises(DomainError, match=message):
        call()
    assert cli_main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("call,argv", [
    (lambda: integrate(lambda w: -w, np.ones(1), TrainConfig(dt=1e-300, horizon=1e10)), None),
    (lambda: run_meanfield(dt=1e-300, horizon=1e10),
     ["meanfield", "--dt", "1e-300", "--horizon", "1e10"]),
    (lambda: run_nn("under", dt=1e-300, horizon=1e10),
     ["nn", "--regime", "under", "--dt", "1e-300", "--horizon", "1e10"]),
], ids=["integrate", "meanfield", "nn"])
def test_step_count_past_the_float_range_raises_domain_error(call, argv, capsys):
    # each step and horizon is valid alone, but horizon/dt overflows to inf,
    # which int() rejects with a bare OverflowError
    from lazytd.errors import DomainError
    with pytest.raises(DomainError, match="overflows the step count"):
        call()
    if argv is not None:
        assert cli_main(argv) == 2
        assert "overflows the step count" in capsys.readouterr().err


def test_every_csv_shares_one_dialect(tmp_path):
    # one writer for every CSV: CRLF line ends throughout, and reading a file
    # with csv.reader then writing it back with csv.writer reproduces it
    run_spiral(100.0, horizon=5.0, out_dir=tmp_path / "spiral")
    run_meanfield(n_particles=20, horizon=5.0, out_dir=tmp_path / "meanfield")
    run_sweep("alpha", [50.0, 100.0], out_dir=tmp_path / "sweep",
              base={"regime": "over", "n_units": 20, "n_states": 5, "horizon": 500.0})
    checked = 0
    for report in sorted(tmp_path.rglob("report.json")):
        for name in json.loads(report.read_text())["manifest"]:
            if not name.endswith(".csv"):
                continue
            text = (report.parent / name).read_bytes().decode()
            assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n"), name
            with open(report.parent / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len({len(r) for r in rows}) == 1, name
            buf = io.StringIO(newline="")
            csv.writer(buf).writerows(rows)
            assert buf.getvalue() == text, name
            checked += 1
    # spiral 1, meanfield 5, sweep summary 1, two sweep trajectories
    assert checked == 9


# --------------------------------------------------------------------- CLI

def test_cli_spiral_divergence_is_success(tmp_path, capsys):
    code = cli_main(["spiral", "--alpha", "1", "--out", str(tmp_path / "o")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["diverged"] is True
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_bad_flag_value_fails(capsys):
    code = cli_main(["spiral", "--alpha", "-2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys):
    cfg = ExperimentConfig(experiment="spiral", params={"alpha": 100.0})
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code = cli_main(["spiral", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    echoed = json.loads((tmp_path / "o" / "config.json").read_text())
    assert echoed["alpha"] == 100.0


@pytest.mark.parametrize("command,experiment", [
    ("meanfield", "spiral"), ("spiral", "nn-over"), ("nn", "alpha-sweep"),
    ("sweep", "nn-under"), ("nn", "meanfield"), ("spiral", "gamma-sweep"),
])
def test_cli_refuses_a_config_of_another_subcommand(tmp_path, capsys, command, experiment):
    path = tmp_path / "cfg.json"
    path.write_text(ExperimentConfig(experiment=experiment).to_json())
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    assert "cannot run as" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,missing", [
    (["nn"], "--regime"), (["nn", "--alpha", "50"], "--regime"),
    (["sweep", "--regime", "under"], "--kind, --grid"), (["sweep", "--kind", "alpha"], "--grid"),
])
def test_cli_without_config_requires_the_experiment_flags(capsys, argv, missing):
    # with no --config file the flags are what names the experiment
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


WALL_CLOCK = re.compile(rb'"wall_clock": [-+0-9.eE]+')


def _output_files(out):
    return {str(p.relative_to(out)): WALL_CLOCK.sub(b"", p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv,config", [
    (["spiral", "--alpha", "100", "--horizon", "5"],
     {"experiment": "spiral", "params": {"alpha": 100.0, "horizon": 5.0}}),
    (["nn", "--regime", "over", "--units", "20", "--states", "5", "--horizon", "500",
      "--seed", "3"],
     {"experiment": "nn-over", "seed": 3,
      "params": {"n_units": 20, "n_states": 5, "horizon": 500.0}}),
    (["nn", "--regime", "under", "--units", "6", "--states", "6", "--alpha", "50"],
     {"experiment": "nn-under", "params": {"n_units": 6, "n_states": 6, "alpha": 50.0}}),
    (["meanfield", "--particles", "20", "--horizon", "5", "--seed", "8"],
     {"experiment": "meanfield", "seed": 8, "params": {"n_particles": 20, "horizon": 5.0}}),
    (["sweep", "--kind", "alpha", "--grid", "100,200", "--regime", "under", "--seed", "13"],
     {"experiment": "alpha-sweep", "seed": 13,
      "params": {"grid": [100.0, 200.0], "base": {"regime": "under"}}}),
    # integer-valued numbers in a file record as the flags' floats
    (["spiral", "--alpha", "100", "--horizon", "5"],
     {"experiment": "spiral", "params": {"alpha": 100, "horizon": 5}}),
    (["spiral", "--mode", "stochastic", "--alpha", "100", "--horizon", "50", "--beta", "1"],
     {"experiment": "spiral",
      "params": {"mode": "stochastic", "alpha": 100, "horizon": 50, "beta": 1}}),
    (["nn", "--regime", "under", "--units", "6", "--states", "6", "--alpha", "50"],
     {"experiment": "nn-under", "params": {"n_units": 6, "n_states": 6, "alpha": 50, "lam": 0}}),
    (["nn", "--regime", "under", "--units", "6", "--states", "6", "--mode", "stochastic",
      "--horizon", "300"],
     {"experiment": "nn-under",
      "params": {"n_units": 6, "n_states": 6, "mode": "stochastic", "horizon": 300}}),
    (["meanfield", "--particles", "20", "--dt", "1", "--horizon", "5"],
     {"experiment": "meanfield", "params": {"n_particles": 20, "dt": 1, "horizon": 5}}),
    (["sweep", "--kind", "alpha", "--grid", "100,200", "--regime", "under", "--seed", "13"],
     {"experiment": "alpha-sweep", "seed": 13,
      "params": {"grid": [100, 200], "base": {"regime": "under"}}}),
], ids=["spiral", "nn-over", "nn-under", "meanfield", "alpha-sweep", "spiral-int",
        "spiral-sampled-int", "nn-under-int", "nn-sampled-int", "meanfield-int",
        "alpha-sweep-int"])
def test_cli_flags_and_config_file_write_the_same_files(tmp_path, capsys, argv, config):
    # a command line and its JSON config are one request: the same output
    # files byte for byte, apart from the wall clock. The file needs no
    # flag beside --config, nn's --regime and sweep's --kind and --grid
    # included.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main([*argv, "--out", str(tmp_path / "flags")]) == 0
    by_flags = capsys.readouterr().out
    assert cli_main([argv[0], "--config", str(path), "--out", str(tmp_path / "file")]) == 0
    by_file = capsys.readouterr().out
    assert WALL_CLOCK.sub(b"", by_flags.encode()) == WALL_CLOCK.sub(b"", by_file.encode())
    flags, file = _output_files(tmp_path / "flags"), _output_files(tmp_path / "file")
    assert "report.json" in flags
    assert flags == file


def test_cli_nn_and_sweep(tmp_path, capsys):
    assert cli_main(["nn", "--regime", "under", "--out", str(tmp_path / "n")]) == 0
    assert cli_main(["sweep", "--kind", "gamma", "--grid", "0.9",
                     "--regime", "under", "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "summary.csv").exists()


def test_cli_meanfield(tmp_path, capsys):
    code = cli_main(["meanfield", "--horizon", "20", "--out", str(tmp_path / "m")])
    assert code == 0
    assert (tmp_path / "m" / "snapshot_final.csv").exists()


@pytest.mark.parametrize("argv,runner,expected", [
    (["spiral"], "run_spiral", dict()),
    (["spiral", "--mode", "stochastic", "--seed", "3"], "run_spiral",
     dict(mode="stochastic", seed=3)),
    (["spiral", "--alpha", "100", "--integrator", "euler", "--dt", "0.05",
      "--horizon", "10", "--beta", "0.01"], "run_spiral",
     dict(alpha=100.0, integrator="euler", dt=0.05, horizon=10.0, beta=0.01)),
    (["nn", "--regime", "under"], "run_nn", dict()),
    (["nn", "--regime", "over", "--units", "40", "--states", "8", "--gamma", "0.8",
      "--mode", "stochastic", "--alpha", "50", "--dt", "0.1", "--horizon", "9"],
     "run_nn", dict(n_units=40, n_states=8, gamma=0.8, mode="stochastic", alpha=50.0,
                    dt=0.1, horizon=9.0)),
    (["sweep", "--kind", "alpha", "--grid", "1,2"], "run_sweep",
     dict(base={})),
    (["sweep", "--kind", "gamma", "--grid", "0.8", "--regime", "under", "--seed", "5",
      "--workers", "2"], "run_sweep", dict(base={"regime": "under", "seed": 5}, workers=2)),
    (["meanfield"], "run_meanfield", dict()),
    (["meanfield", "--particles", "20", "--states", "4", "--gamma", "0.5", "--dt", "0.2",
      "--horizon", "3"], "run_meanfield",
     dict(n_particles=20, n_states=4, gamma=0.5, dt=0.2, horizon=3.0)),
])
def test_cli_passes_only_given_flags(monkeypatch, capsys, argv, runner, expected):
    # a flag left out must leave the runner's own default in force
    received = {}

    def fake(*args, **kwargs):
        received.update(args=args, kwargs=kwargs)
        return RunReport(experiment="fake", config={}, diverged=False)

    monkeypatch.setattr(experiments, runner, fake)
    assert cli_main(argv) == 0
    kwargs = received["kwargs"]
    assert kwargs.pop("out_dir") is None
    if runner == "run_sweep":
        assert kwargs.pop("grid") == [float(x) for x in argv[4].split(",")]
    assert kwargs == expected
    if runner in ("run_nn", "run_sweep"):
        assert received["args"] == (argv[2],)


def _rates_in_parameter_space(model, w0, mrp, mu, lam):
    # the p x p form, J^T Gamma (gamma P_lam - I) J, with the same rules
    from lazytd import td_resolvent
    J = model.jacobian(w0)
    _, P_lam = td_resolvent(mrp, lam)
    A = J.T @ (mu[:, None] * (mrp.gamma * P_lam - np.eye(mrp.d))) @ J
    re = np.linalg.eigvals(A).real
    fast = float(-re.min())
    tol = 1e-12 * max(fast, 1.0)
    nonzero = -re[re < -tol]
    return fast, float(nonzero.min()) if nonzero.size else fast, np.sort(re[re > tol])[::-1]


@pytest.mark.parametrize("regime,n_units,n_states,seed", [
    ("over", 40, 12, 3),    # d < p: the rates come from the d x d product
    ("under", 4, 30, 5),    # d > p: the p x p form itself
])
def test_linearized_rates_match_parameter_space_form(regime, n_units, n_states, seed):
    mrp, mu, model, w0 = _nn_setup(0.9, seed, n_units, n_states)
    assert (model.d < model.p) == (regime == "over")
    for lam in (0.0, 0.5):
        geometry = LazyGeometry.from_model(model, w0, Backup.of(mrp, mu, lam))
        want = _rates_in_parameter_space(model, w0, mrp, mu, lam)
        np.testing.assert_allclose([geometry.rate_fast, geometry.rate_slow], want[:2], rtol=1e-10)
        assert geometry.rates_unstable.size == want[2].size == 0


def test_linearized_rates_unstable_case_matches_parameter_space_form():
    # three states, four parameters: the d x d path, on a chain whose
    # off-policy weights leave one mode decaying and two growing
    model = LinearModel(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0]]))
    P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    mrp = Mrp(P=P, rbar=np.zeros(3), gamma=0.9)
    mu = np.array([0.4, 0.4, 0.2])
    geometry = LazyGeometry.from_model(model, np.zeros(4), Backup.of(mrp, mu))
    want = _rates_in_parameter_space(model, np.zeros(4), mrp, mu, 0.0)
    assert geometry.rates_unstable.size == want[2].size == 2
    np.testing.assert_allclose(geometry.rates_unstable, want[2], rtol=1e-10)
    np.testing.assert_allclose([geometry.rate_fast, geometry.rate_slow], want[:2], rtol=1e-10)


def test_nn_without_active_hinge_raises_typed_error():
    # every hinge of this net is off on the grid: its Jacobian at w0 is zero,
    # so the linearized flow has no rate to derive a step or horizon from
    from lazytd.errors import FlatLinearization, LazyTdError
    with pytest.raises(FlatLinearization):
        run_nn("under", n_units=4, n_states=5, seed=13)
    assert issubclass(FlatLinearization, LazyTdError)


def test_nn_over_without_active_hinge_has_no_decay_certificate(tmp_path):
    # the net above with its step and horizon given: the narrow run
    # completes at rank 0, the wide one has no decay certificate to check
    from lazytd.errors import NotOverParametrized
    args = ["nn", "--units", "4", "--states", "5", "--seed", "13", "--dt", "0.1", "--horizon", "1"]
    assert cli_main([*args, "--regime", "under", "--out", str(tmp_path / "under")]) == 0
    assert json.loads((tmp_path / "under" / "report.json").read_text())["extra"]["rank"] == 0
    assert cli_main([*args, "--regime", "over", "--out", str(tmp_path / "over")]) == 2
    with pytest.raises(NotOverParametrized):
        run_nn("over", n_units=4, n_states=5, seed=13, dt=0.1, horizon=1)


# the wide net of the metric-drift report: full rank along its whole run
SMALL_OVER = dict(n_units=200, n_states=10, seed=9, alpha=1e4)


def test_nn_over_reports_its_metric_drift():
    rep = run_nn("over", **SMALL_OVER)
    assert rep.extra["metric_drift_max"] == pytest.approx(7.86e-5, rel=1e-3)
    assert "metric_drift_note" not in rep.extra


@pytest.mark.slow
def test_nn_over_default_reports_where_its_rank_dropped():
    rep = run_nn("over")
    assert rep.extra["metric_drift_max"] is None
    assert rep.extra["metric_drift_note"] == "rank dropped from 30 to 29 at t=857439"


@pytest.mark.parametrize("regime, kw", [
    ("over", SMALL_OVER),
    ("under", dict(n_units=6, n_states=5)),
], ids=["over", "under"])
def test_network_run_evaluates_each_saved_state_once(monkeypatch, regime, kw):
    # every per-save series, the RKC stage counts and the certificate read
    # one evaluation of each saved state
    from lazytd import ReluNet
    calls = {"value": 0, "jacobian": 0}
    for name in calls:
        def counted(self, w, _name=name, _method=getattr(ReluNet, name)):
            calls[_name] += 1
            return _method(self, w)
        monkeypatch.setattr(ReluNet, name, counted)
    runs, engine = [], experiments.integrate

    def integrate(*args, **kwargs):
        runs.append(engine(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(experiments, "integrate", integrate)
    run_nn(regime, **kw)
    saved = len(runs[0].times)
    assert calls["value"] == saved
    # one per saved state, plus J(w0) for the geometry
    assert calls["jacobian"] == saved + 1


@pytest.mark.parametrize("run", [
    lambda: run_spiral(100.0, horizon=5.0),
    lambda: run_spiral(100.0, mode="stochastic", horizon=1000),
    lambda: run_nn("over", **SMALL_OVER),
    lambda: run_nn("under", n_units=6, n_states=5),
    lambda: run_nn("over", mode="stochastic", horizon=1000, **SMALL_OVER),
    lambda: run_nn("under", n_units=6, n_states=5, mode="stochastic", horizon=1000),
], ids=["spiral-ode", "spiral-sampled", "over-ode", "under-ode", "over-sampled", "under-sampled"])
def test_run_forms_one_backup(monkeypatch, run):
    # an ode run's drift owns the backup its geometry and series read; a
    # sampled run forms the one its series reads
    calls, of = [], Backup.of
    monkeypatch.setattr(Backup, "of", classmethod(lambda cls, *a: calls.append(a) or of(*a)))
    run()
    assert len(calls) == 1


@pytest.mark.parametrize("key", ["alpha", "out_dir"])
def test_sweep_base_cannot_set_what_the_sweep_sets(tmp_path, capsys, key):
    from lazytd.errors import DomainError
    base = {"regime": "under", "n_units": 6, "n_states": 6, key: 7.0}
    with pytest.raises(DomainError, match="base cannot set"):
        run_sweep("alpha", [100.0, 200.0], base=base, out_dir=tmp_path / "direct")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "alpha-sweep",
                                "params": {"grid": [100, 200], "base": base}}))
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 2
    assert "base cannot set" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_entry_points_the_benchmark_hook_wraps(monkeypatch):
    # the benchmark's hook wraps these names in lazytd.experiments and reads
    # their arguments by position or by name, the drift's model before the
    # ode run it integrates, and the particle run's final ensemble
    names = lambda fn: list(inspect.signature(fn).parameters)
    assert names(experiments.make_lazy_rhs) == ["model", "mrp", "mu", "lam", "alpha"]
    assert names(experiments.run_stochastic_td) == ["model", "mrp", "mu", "config", "w0"]
    assert names(experiments.integrate_ensemble) == [
        "ensemble", "features", "mrp", "mu", "dt", "horizon", "save_every"]
    assert names(experiments.integrate)[:5] == [
        "rhs", "w0", "config", "divergence_probe", "stop_when"]
    mrp, mu = experiments._target_chain(5, 0.9, np.random.default_rng(0))
    features = GaussianBumpFeatures(np.linspace(-1, 1, 5))
    ensemble = experiments.doubled_ensemble(4, lambda n, r: r.uniform(-1, 1, (n, 1)), rng=0)
    history = experiments.integrate_ensemble(ensemble, features, mrp, mu, dt=0.1, horizon=1.0)
    assert history.final.n == 4
    order = []
    for name in ("make_lazy_rhs", "integrate"):
        def logged(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            order.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, logged)
    run_nn("under", n_units=6, n_states=5)
    assert order == ["make_lazy_rhs", "integrate"]
