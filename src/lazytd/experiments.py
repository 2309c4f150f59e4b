"""Experiment protocols: the 3-state spiral dichotomy, wide and narrow ReLU
networks on cyclic chains, scaling and discount sweeps, and the particle
run, each emitting flat files (config.json, trajectory.csv, report.json)
for external plotting.

Defaults reproduce the reference qualitative outcomes with the smallest
horizons that make them unambiguous; integration steps and horizons for the
network runs are derived from the spectrum of the dynamics linearized at
initialization rather than hard-coded.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it lazily: here, before a sweep forks, not once per process

from .analysis import (
    LazyGeometry,
    SaveSeries,
    displacement_slope,
    fit_exponential_rate,
    metric_drift,
    overparametrized_certificate,
    underparametrized_certificate,
)
from .dynamics import (
    TrainConfig,
    Trajectory,
    integrate,
    make_lazy_rhs,
    run_stochastic_td,
    write_csv,
)
from .errors import DomainError, FlatLinearization, RankCollapse
from .meanfield import (
    GaussianBumpFeatures,
    doubled_ensemble,
    fixed_point_optimality,
    g_profile,
    h1_profile,
    integrate_ensemble,
    separation_check,
)
from .models import ReluNet, SpiralModel, numerical_rank
from .mrp import Backup, Mrp, cyclic_chain, stationary_measure

SPIRAL_RBAR = np.array([-6.85, 8.35, -1.5])
SPIRAL_GAMMA = 0.9
SPIRAL_BETA = 2e-3
SPIRAL_STOP_TOL = 1e-8            # projected residual that ends an ode spiral run
SPIRAL_SAVE_EVERY = 100

# network-run defaults; the full-rank seed was selected by scanning for a
# width-100 net whose kinks cover all 30 grid points (most seeds fall short)
OVER_DEFAULTS = dict(n_units=100, n_states=30, alpha=500.0, seed=1454)
UNDER_DEFAULTS = dict(n_units=10, n_states=50, alpha=100.0, seed=5)
NN_BETA = 1e-3                    # the sampled engine's step size
NN_STOP_TOL = 1e-7                # projected residual that ends a narrow-net run
# default network step and horizon, over the fastest and the slowest
# linearized decay rate at initialization. The narrow net's RK4 step lies
# within RK4's stability interval; the wide net's RKC step is ten times
# longer, its stage count follows the spectrum, and its run takes at
# least NN_MIN_STEPS steps.
NN_STABILITY_FACTOR = 1.5
NN_RKC_FACTOR = 15.0
NN_MIN_STEPS = 400
NN_TIME_FACTOR = 2.5
# particle-run settings: bump width, the interval the initial centers are
# drawn from, the separation check's radius, grid size and resolution, and
# the optimality tolerance
MF_WIDTH = 0.35
MF_CENTER_LOW, MF_CENTER_HIGH = -1.2, 1.2
MF_R0 = 8.0
MF_GRID_POINTS = 9
MF_RESOLUTION = 0.4
MF_EPS = 1e-5

EXPERIMENTS = ("spiral", "nn-over", "nn-under", "meanfield", "alpha-sweep", "gamma-sweep")


def spiral_mrp() -> Mrp:
    """The 3-state cyclic chain of the divergence experiment.

    The backward shift orientation is the one consistent with the reference
    reward vector (and the one under which the unscaled run diverges).
    """
    return Mrp(P=cyclic_chain(3, "backward"), rbar=SPIRAL_RBAR.copy(), gamma=SPIRAL_GAMMA)


@dataclass
class ExperimentConfig:
    """Serializable description of one experiment invocation."""

    experiment: str
    seed: int | None = None
    out_dir: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


@dataclass
class RunReport:
    """Summary of one run; every series-derived number is recomputable from
    the emitted trajectory CSV."""

    experiment: str
    config: dict
    diverged: bool
    final_projected_error: float | None = None
    final_value_error: float | None = None
    fitted_rate: float | None = None
    r_squared: float | None = None
    displacement: float | None = None
    certificate: dict | None = None
    extra: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    manifest: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _floats(*values):
    """The given float parameters as floats, None left as is, so that a
    config file's 100 records as the flag's 100.0."""
    return [None if v is None else float(v) for v in values]


def _emit(out_dir, report: RunReport, tables: dict, listed=()) -> None:
    """Write one run's output files: config.json, one CSV per entry of
    ``tables`` ({name: (header, rows)}) and report.json, whose manifest
    names them plus the files of ``listed``, written by other runs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(_jsonable(report.config), indent=2, sort_keys=True))
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    report.manifest = sorted(["config.json", "report.json", *tables, *listed])
    (out / "report.json").write_text(report.to_json())


def _report(experiment: str, config: dict, t_start: float, out_dir, tables: dict,
            listed=(), stats=None, **fields) -> RunReport:
    """Every runner's report: built from ``fields``, with the ``stats`` of
    the run behind it (what the run loop counted) in ``extra``, stamped with
    the wall clock since ``t_start``, and written out by ``_emit`` with
    ``tables`` and ``listed`` when ``out_dir`` is given."""
    report = RunReport(experiment=experiment, config=config, **fields)
    report.extra.update(stats or {})
    report.wall_clock = time.perf_counter() - t_start
    if out_dir is not None:
        _emit(out_dir, report, tables, listed)
    return report


def _run_report(experiment: str, config: dict, run: Trajectory, t_start: float, out_dir,
                fit=None, include_params: bool = False, **fields) -> RunReport:
    """Report quoting the final diagnostics of ``run``, with the run as
    trajectory.csv. ``fit`` is the (rate, r_squared) pair, by default the
    exponential fit of the projected residual."""
    pe = run.diagnostics["projected_error"]
    rate, r2 = fit_exponential_rate(run.times, pe) if fit is None else fit
    return _report(
        experiment, config, t_start, out_dir, {"trajectory.csv": run.table(include_params)},
        diverged=run.diverged,
        final_projected_error=float(pe[-1]),
        final_value_error=float(run.diagnostics["value_error"][-1]),
        fitted_rate=rate,
        r_squared=r2,
        displacement=float(run.diagnostics["displacement"].max()),
        stats=run.stats,
        **fields,
    )


def _train(model, mrp: Mrp, mu: np.ndarray, w0: np.ndarray, rhs, cfg: TrainConfig,
           stop_tol: float | None = None, geometry: LazyGeometry | None = None) -> Trajectory:
    """The one training path of the spiral and network runs: the averaged
    flow of the drift ``rhs`` (``make_lazy_rhs``), or sampled TD(lambda)
    when ``rhs`` is None, under ``cfg``, with the series of one
    ``SaveSeries`` on the drift's backup (a sampled run forms one) attached;
    given the ``geometry``, the Lyapunov value, the metric drift and the RKC
    stage counts too. The averaged flow records each state as it saves it
    and stops early once the projected residual falls below ``stop_tol``."""
    if rhs is None:
        series = SaveSeries(model, Backup.of(mrp, mu, cfg.lam), cfg.alpha)
        run = run_stochastic_td(model, mrp, mu, cfg, w0)
    else:
        series = SaveSeries(model, rhs.backup, cfg.alpha, geometry)
        series.record(w0)

        def stop(w, t):
            error = series.record(w, t)
            return stop_tol is not None and error < stop_tol
        run = integrate(rhs, w0, cfg, divergence_probe=rhs.scaled_value_norm, stop_when=stop,
                        spectral_radius=None if geometry is None else series.spectral_radius)
    series.attach(run)
    return run


def run_spiral(
    alpha: float = 1.0,
    out_dir: str | Path | None = None,
    mode: str = "ode",
    integrator: str | None = None,
    dt: float | None = None,
    horizon: float | None = None,
    beta: float | None = None,
    seed: int = 0,
) -> RunReport:
    """Spiral manifold on the 3-state chain: diverges unscaled (the default
    alpha = 1), converges lazily.

    The averaged (ode) engine is the default; the sampled engine with the
    reference constant step size is available for visual comparison.
    ``horizon`` is flow time for the ode engine (default 2000, i.e. 2e5
    steps of 1e-2) and a step count for the sampled engine (default 2e5),
    which config.json records rounded down, as the engine counts it.
    ``dt`` and ``integrator`` (default 1e-2 and "rk4") set the ode step and
    ``beta`` (default ``SPIRAL_BETA``) the sampled one; giving the other
    engine's setting is an error. config.json records all three.
    The deterministic run stops early once the projected residual falls
    below ``SPIRAL_STOP_TOL``; divergence is a recorded outcome, not an error.
    """
    alpha, dt, horizon, beta = _floats(alpha, dt, horizon, beta)
    if mode not in ("ode", "stochastic"):
        raise DomainError(f"mode must be 'ode' or 'stochastic', got {mode!r}")
    if mode == "ode" and beta is not None:
        raise DomainError("beta is the sampled step; the ode engine steps by dt")
    if mode != "ode" and (dt is not None or integrator is not None):
        raise DomainError("dt and integrator set the ode step; the sampled engine steps by beta")
    dt = 1e-2 if dt is None else dt
    integrator = "rk4" if integrator is None else integrator
    beta = SPIRAL_BETA if beta is None else beta
    if horizon is None:
        horizon = 2000.0 if mode == "ode" else 200_000
    t_start = time.perf_counter()
    mrp = spiral_mrp()
    mu = stationary_measure(mrp)
    model = SpiralModel()
    lam = 0.0
    config = dict(experiment="spiral", alpha=alpha, mode=mode, integrator=integrator,
                  dt=dt, horizon=horizon, beta=beta, seed=seed, stop_tol=SPIRAL_STOP_TOL,
                  save_every=SPIRAL_SAVE_EVERY, gamma=mrp.gamma, lam=lam)
    cfg = TrainConfig(lam=lam, alpha=alpha, beta0=beta, dt=dt, horizon=horizon,
                      integrator=integrator, save_every=SPIRAL_SAVE_EVERY, seed=seed)
    rhs = make_lazy_rhs(model, mrp, mu, lam, alpha) if mode == "ode" else None
    run = _train(model, mrp, mu, np.zeros(1), rhs, cfg, SPIRAL_STOP_TOL)
    if mode != "ode":  # the whole steps the sampled engine counts, as run_nn records them
        config.update(horizon=cfg.n_samples)
    return _run_report("spiral", config, run, t_start, out_dir, include_params=True, extra={
        "diverged_at": run.diverged_at, "theta_final": float(run.final_params[0])})


def _target_chain(n_states: int, gamma: float, rng: np.random.Generator):
    """The chain of the network and particle runs: a cyclic chain with reward
    rbar = (I - gamma P) v for a v drawn i.i.d. standard normal from ``rng``,
    so that its exact value is v to rounding. Returns (mrp, mu)."""
    P = cyclic_chain(n_states, "backward")
    rbar = (np.eye(n_states) - gamma * P) @ rng.standard_normal(n_states)
    mrp = Mrp(P=P, rbar=rbar, gamma=gamma)
    return mrp, stationary_measure(mrp)


def _nn_setup(gamma: float, seed: int, n_units: int, n_states: int):
    """Shared network-run construction: paired network initialization on
    the target chain. The net is drawn first, then the target, both from
    one seeded stream."""
    rng = np.random.default_rng(seed)
    model = ReluNet(n_units, np.linspace(-1, 1, n_states))
    w0 = model.init_doubled(rng)
    mrp, mu = _target_chain(n_states, gamma, rng)
    return mrp, mu, model, w0


def run_nn(
    regime: str,
    gamma: float = 0.9,
    seed: int | None = None,
    alpha: float | None = None,
    n_units: int | None = None,
    n_states: int | None = None,
    lam: float = 0.0,
    mode: str = "ode",
    dt: float | None = None,
    horizon: float | None = None,
    out_dir: str | Path | None = None,
) -> RunReport:
    """Train a paired-initialization ReLU net on a cyclic chain, lazily scaled.

    regime "over": wide net, full-rank Jacobian, exponential-decay
    certificate. regime "under": narrow net, rank-deficient Jacobian,
    local-fixed-point certificate; this run stops early once the projected
    residual falls below ``NN_STOP_TOL``. The horizon defaults to
    ``NN_TIME_FACTOR`` over the slowest linearized rate, so runs resolve
    their own dynamics. The wide net's flow is stiff and runs on damped
    RKC steps of ``NN_RKC_FACTOR`` over the fastest rate (at least
    ``NN_MIN_STEPS`` of them), whose stage count follows the spectral
    radius of the flow linearized at each save point; the narrow net runs
    on RK4 steps of ``NN_STABILITY_FACTOR`` over the fastest rate.
    Certificates are computed on the averaged ("ode") engine; mode
    "stochastic" runs the sampled algorithm at the reference constant step
    size instead (horizon then counts steps, default 1e5) and reports the
    same series without certificates.
    """
    if regime not in ("over", "under"):
        raise DomainError(f"regime must be 'over' or 'under', got {regime!r}")
    if mode not in ("ode", "stochastic"):
        raise DomainError(f"mode must be 'ode' or 'stochastic', got {mode!r}")
    gamma, alpha, lam, dt, horizon = _floats(gamma, alpha, lam, dt, horizon)
    over = regime == "over"
    defaults = OVER_DEFAULTS if over else UNDER_DEFAULTS
    n_units = defaults["n_units"] if n_units is None else n_units
    n_states = defaults["n_states"] if n_states is None else n_states
    alpha = defaults["alpha"] if alpha is None else alpha
    seed = defaults["seed"] if seed is None else seed

    t_start = time.perf_counter()
    mrp, mu, model, w0 = _nn_setup(gamma, seed, n_units, n_states)
    config = dict(experiment=f"nn-{regime}", mode=mode, gamma=gamma, seed=seed, alpha=alpha,
                  n_units=n_units, n_states=n_states, lam=lam, beta=NN_BETA)

    if mode != "ode":  # the sampled engine
        if dt is not None:
            raise DomainError("dt is the ode step; the sampled engine steps by beta")
        # the config checks the horizon before it becomes a step count
        cfg = TrainConfig(lam=lam, alpha=alpha, beta0=NN_BETA, seed=seed,
                          horizon=100_000 if horizon is None else horizon)
        steps = cfg.n_samples
        cfg = replace(cfg, horizon=steps, save_every=max(1, steps // 400))
        config.update(horizon=steps, save_every=cfg.save_every)
        rank = numerical_rank(np.linalg.svd(model.jacobian(w0), compute_uv=False))
        run = _train(model, mrp, mu, w0, None, cfg)
        return _run_report(f"nn-{regime}", config, run, t_start, out_dir, extra={"rank": rank})

    rhs = make_lazy_rhs(model, mrp, mu, lam, alpha)
    geometry = LazyGeometry.from_model(model, w0, rhs.backup)
    fast, slow, unstable = geometry.rate_fast, geometry.rate_slow, geometry.rates_unstable
    if (dt is None or horizon is None) and not fast > 0.0:
        raise FlatLinearization(
            f"the flow linearized at initialization has no decaying direction "
            f"(fastest rate {fast:g}), so no step or horizon follows from it")
    if over:
        if horizon is None:
            horizon = NN_TIME_FACTOR / slow
        if dt is None:
            dt = min(NN_RKC_FACTOR / fast, horizon / NN_MIN_STEPS)
    else:
        if dt is None:
            dt = NN_STABILITY_FACTOR / fast
        if horizon is None:
            # generous: the rank-deficient path can crawl far below the rate
            # of its linearization; the projected-residual stop bounds the
            # actual cost, the step cap bounds the worst case
            horizon = min(2000.0 / slow, 150_000 * dt)
    # the config checks step and horizon before they become a step count
    cfg = TrainConfig(lam=lam, alpha=alpha, dt=dt, horizon=horizon, seed=seed,
                      integrator="rkc" if over else "rk4")
    cfg = replace(cfg, save_every=max(1, cfg.n_steps // 400))
    config.update(dt=dt, horizon=horizon, stop_tol=NN_STOP_TOL, save_every=cfg.save_every)
    run = _train(model, mrp, mu, w0, rhs, cfg, None if over else NN_STOP_TOL,
                 geometry if over else None)

    extra = {"rate_fast": fast, "rate_slow": slow, "unstable_count": int(unstable.size),
             "rate_unstable": float(unstable[0]) if unstable.size else None,
             "rank": geometry.rank}
    if over:
        cert = overparametrized_certificate(geometry, run, alpha)
        fit = cert.fitted_rate, cert.r_squared
        extra["kappa"] = geometry.kappa
        extra["rate_bound"] = geometry.rate_bound
        try:
            extra["metric_drift_max"] = float(np.max(metric_drift(run)))
        except RankCollapse as exc:
            extra.update(metric_drift_max=None, metric_drift_note=str(exc))
    else:
        cert = underparametrized_certificate(geometry, [alpha], [run])
        fit = None

    return _run_report(f"nn-{regime}", config, run, t_start, out_dir, fit=fit,
                       certificate=asdict(cert), extra=extra)


def _run_shares(run, shares: list[list]) -> list[list]:
    """``[[run(v) for v in share] for share in shares]``. Share 0 runs here;
    each other share runs in one process forked before share 0 starts and
    sends back its reports, or a run's exception with its traceback. That
    exception is raised here from a ``ChildProcessError`` holding the
    traceback (the lowest failing share's, which need not be the first
    failure in grid order); a worker that sends nothing raises
    ``ChildProcessError`` naming its exit code. Every exit that unwinds
    this call (return, exception, Ctrl-C) joins every worker. A worker whose
    parent ended without unwinding (``os._exit``, a signal) starts no
    further run."""
    import multiprocessing

    context, parent = multiprocessing.get_context("fork"), os.getpid()

    def work(share, inlet, outlet):
        inlet.close()
        try:
            reports = []
            for v in share:
                if os.getppid() != parent:  # the sweep is gone: nobody reads the rest
                    return
                reports.append(run(v))
            sent = (reports, None)
        except Exception as exc:
            import traceback
            sent = (exc, traceback.format_exc())
        outlet.send(sent)

    started = []
    try:
        for share in shares[1:]:
            inlet, outlet = context.Pipe(duplex=False)
            proc = context.Process(target=work, args=(share, inlet, outlet))
            proc.start()
            outlet.close()  # so that a worker ending without sending reads as EOF
            started.append((proc, inlet))
        results = [[run(v) for v in shares[0]]]
        for proc, inlet in started:
            try:
                reports, trace = inlet.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(f"a sweep worker exited with code {proc.exitcode} "
                                        "without sending its runs") from None
            proc.join()
            if trace is not None:
                raise reports from ChildProcessError(f"raised in a sweep worker:\n{trace}")
            results.append(reports)
        return results
    finally:
        for proc, _ in started:
            proc.terminate()  # no-op once joined
            proc.join()


def run_sweep(
    kind: str,
    grid: list[float],
    base: dict | None = None,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> RunReport:
    """Grid of network runs: "gamma" sweeps the discount at fixed scaling,
    "alpha" sweeps the scaling at fixed discount (displacement check).

    ``base`` holds every run's other ``run_nn`` arguments, never ``kind``'s
    key or ``out_dir``. The grid is dealt round-robin, in grid order, into
    min(``workers``, len(grid)) shares (``workers`` an integer >= 1): this
    process runs share 0 and each other share runs in one process forked
    from it (``multiprocessing``'s "fork" context, so POSIX only; see
    ``_run_shares``). With one share nothing forks. Runs are
    deterministic, so the results and files do not depend on ``workers``.
    Individual divergences are recorded and the sweep continues.
    """
    if kind not in ("gamma", "alpha"):
        raise DomainError(f"sweep kind must be 'gamma' or 'alpha', got {kind!r}")
    if not grid:
        raise DomainError("sweep grid must be nonempty")
    grid = _floats(*grid)
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    # each run's directory name; two values that format alike would share one
    run_name = {v: f"run_{v:g}" for v in grid}
    if len(set(run_name.values())) < len(grid):
        raise DomainError(f"sweep grid values must have distinct run names, got {list(grid)}")
    if {kind, "out_dir"} & set(base or {}):
        raise DomainError(f"base cannot set {kind!r} or 'out_dir': the sweep sets them per run")
    base = {"regime": "over", **(base or {})}
    t_start = time.perf_counter()

    def run(v):
        kw = {**base, kind: v}  # kind names run_nn's gamma or alpha
        if out_dir is not None:
            kw["out_dir"] = Path(out_dir) / run_name[v]
        return run_nn(**kw)

    n = min(workers, len(grid))
    shares = [grid[i::n] for i in range(n)]
    by_value = {v: rep for share, reps in zip(shares, _run_shares(run, shares))
                for v, rep in zip(share, reps)}
    ordered = sorted(by_value)

    rows = []
    for v in ordered:
        rep = by_value[v]
        cert = rep.certificate or {}
        rows.append({
            "grid_value": v,
            "diverged": rep.diverged,
            "final_projected_error": rep.final_projected_error,
            "final_value_error": rep.final_value_error,
            "fitted_rate": rep.fitted_rate,
            "r_squared": rep.r_squared,
            "displacement": rep.displacement,
            "envelope_ok": cert.get("envelope_ok"),
        })

    certificate: dict
    if kind == "gamma":
        rates = [r["fitted_rate"] for r in rows]
        usable = all(r is not None for r in rates)
        monotone = usable and all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
        certificate = {"kind": "rate-monotonicity", "rates_by_gamma": rates,
                       "nonincreasing_in_gamma": bool(monotone), "passed": bool(monotone)}
    else:
        disp = [r["displacement"] for r in rows]
        slope, passed = displacement_slope(ordered, disp, [r["diverged"] for r in rows])
        certificate = {"kind": "displacement-scaling", "displacements": disp,
                       "slope": slope, "passed": passed}

    config = dict(experiment=f"{kind}-sweep", grid=list(grid), base=base, workers=workers)
    summary = (list(rows[0]), [list(r.values()) for r in rows])
    return _report(f"{kind}-sweep", config, t_start, out_dir, {"summary.csv": summary},
                   listed=[f"{run_name[v]}/report.json" for v in ordered],
                   diverged=any(r["diverged"] for r in rows),
                   certificate=certificate, extra={"rows": rows})


def run_meanfield(
    n_particles: int = 200,
    n_states: int = 5,
    gamma: float = 0.9,
    seed: int = 7,
    dt: float = 0.1,
    horizon: float = 1500.0,
    out_dir: str | Path | None = None,
) -> RunReport:
    """Particle run with radial-bump features on a small cyclic chain.

    Integrates the exactly averaged particle system from a paired random
    initialization, then reports the fixed-point diagnostics: maximal
    particle speed, backup residual, distance to the exact value function,
    the support-coverage surrogate, and the optimality implication. There
    is no reference experiment to match here. The bump width, the interval
    the initial centers are drawn from, the separation check's settings and
    the optimality tolerance are the module constants ``MF_*``; they and the
    parameter defaults are chosen so the run settles within the horizon.
    config.json records every one of them. The first-moment profile bins
    the final ensemble in 12 bins over [-1.7, 1.7], widened to every
    particle that drifted past it, so its bins sum to the mean output weight.
    """
    gamma, dt, horizon = _floats(gamma, dt, horizon)
    t_start = time.perf_counter()
    cfg = TrainConfig(dt=dt, horizon=horizon)  # checks both before they set the save interval
    save_every = max(1, cfg.n_steps // 40)
    # the target first, then the ensemble, from one seeded stream
    rng = np.random.default_rng(seed)
    mrp, mu = _target_chain(n_states, gamma, rng)
    features = GaussianBumpFeatures(np.linspace(-1, 1, n_states), width=MF_WIDTH)
    ensemble = doubled_ensemble(
        n_particles,
        lambda count, r: r.uniform(MF_CENTER_LOW, MF_CENTER_HIGH, size=(count, 1)),
        rng=rng,
    )
    config = dict(experiment="meanfield", n_particles=n_particles, n_states=n_states,
                  gamma=gamma, seed=seed, feature_kind="gaussian-bump", width=MF_WIDTH,
                  center_low=MF_CENTER_LOW, center_high=MF_CENTER_HIGH, dt=dt,
                  horizon=horizon, r0=MF_R0, grid_points=MF_GRID_POINTS,
                  resolution=MF_RESOLUTION, eps=MF_EPS)

    history = integrate_ensemble(ensemble, features, mrp, mu, dt=dt, horizon=horizon,
                                 save_every=save_every)
    theta_grid = np.linspace(-1.1, 1.1, MF_GRID_POINTS)
    separation = [separation_check(s, r0=MF_R0, wbar_grid=theta_grid, resolution=MF_RESOLUTION)
                  for s in history.snapshots]
    final_report = fixed_point_optimality(history.final, features, mrp, mu, eps=MF_EPS,
                                          separation=separation[-1])
    gaps = history.diagnostics["optimality_gap"]
    tail = gaps[len(gaps) // 2:]
    tail_monotone = bool(np.all(np.diff(tail) <= 1e-12))

    profile_grid = np.linspace(MF_CENTER_LOW, MF_CENTER_HIGH, 33)
    g_vals = g_profile(history.final, features, mrp, mu, profile_grid)
    wbar_final = history.final.wbar[:, 0]
    edges = np.linspace(min(MF_CENTER_LOW - 0.5, wbar_final.min()),
                        max(MF_CENTER_HIGH + 0.5, wbar_final.max()), 13)
    h_vals = h1_profile(history.final, edges)

    history.diagnostics["separation_passed"] = np.array([float(s.passed) for s in separation])
    tables = {
        "trajectory.csv": history.table(include_params=False),
        "snapshot_initial.csv": history.snapshots[0].table(),
        "snapshot_final.csv": history.final.table(),
        "g_profile.csv": (["wbar", "g"], zip(profile_grid, g_vals)),
        "h1_profile.csv": (["bin_center", "h1"], zip(0.5 * (edges[:-1] + edges[1:]), h_vals)),
    }
    return _report(
        "meanfield", config, t_start, out_dir, tables,
        diverged=history.diverged,
        final_value_error=float(gaps[-1]),
        certificate={
            "optimality": asdict(final_report),
            "separation_final": asdict(separation[-1]),
            "gap_constant": final_report.gap_constant,
            "gap_tail_nonincreasing": tail_monotone,
        },
        extra={
            "diverged_at": history.diverged_at,
            "velocity_final": float(history.diagnostics["velocity_norm"][-1]),
            "bellman_final": float(history.diagnostics["bellman_residual"][-1]),
        },
        stats=history.stats,
    )


def run_from_config(config: ExperimentConfig, command: str | None = None) -> RunReport:
    """Run a serialized experiment description, the one path from a
    command line or a JSON config to a runner. ``command`` is the CLI
    subcommand the request came through, when it did: the experiment must
    be one of its own (``spiral``, ``nn-*``, ``*-sweep``, ``meanfield``)."""
    experiment = config.experiment
    if command is not None and command not in experiment.split("-"):
        raise DomainError(f"a {experiment!r} config cannot run as {command!r}")
    params = dict(config.params)
    if config.seed is not None:
        params.setdefault("seed", config.seed)
    out = config.out_dir
    if experiment == "spiral":
        return run_spiral(out_dir=out, **params)
    if experiment in ("nn-over", "nn-under"):
        return run_nn(experiment[3:], out_dir=out, **params)
    if experiment == "meanfield":
        return run_meanfield(out_dir=out, **params)
    # a sweep: the seed reaches every run through base, where one already
    # given takes precedence
    if "seed" in params:
        params["base"] = {"seed": params.pop("seed"), **(params.get("base") or {})}
    return run_sweep(experiment.split("-")[0], out_dir=out, **params)
