"""Write the step-converged references that rate_relerr and value_err are
measured against, one file per workload and validated lazytd seed:

    python3 bench/make_references.py                   # every workload and seed
    python3 bench/make_references.py --workload meanfield
    python3 bench/make_references.py --scan 40000      # list full-rank over seeds

Each reference reruns the workload through public CLI arguments only, with
a finer step:

    lazy-over     --dt 0.375/fast (fast: the run's fastest linearized rate;
                  the default step is 1.5/fast)
    sampled-over  the averaged flow (--mode ode) over the same flow time,
                  horizon x beta, with 800 steps
    meanfield     --dt 0.025 (default 0.1)
    under-sweep   --config with half of every run's default dt and its
                  default horizon

and once more at half the reference step, whose distance to the reference
is stored as the reference's own error estimate ("halving"). The file also
keeps the workload's CLI inputs, its step-independent config and its
outcome flags, so the benchmark can refuse a reference made for another
problem, and the lazytd commit and source digest it was made from.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import invoke
import workloads
from workloads import WORKLOADS

TIMEOUT_S = 3600.0


def reference_args(name: str, default: invoke.Invocation, refine: float) -> tuple[list, dict]:
    """CLI arguments of the reference run, with the step refined ``refine``
    times below the reference step, and the --config file they name (empty
    when there is none)."""
    w = WORKLOADS[name]
    seed = default.argv[default.argv.index("--seed") + 1]
    out = default.out
    if name == "lazy-over":
        fast = workloads.read_json(out / "report.json")["extra"]["rate_fast"]
        return [*default.argv, "--dt", repr(0.375 / fast / refine)], {}
    if name == "sampled-over":
        cfg = workloads.read_json(out / "config.json")
        flow_time = cfg["horizon"] * cfg["beta"]
        return ["nn", "--regime", "over", "--seed", seed, "--horizon", repr(flow_time),
                "--dt", repr(flow_time / 800 / refine)], {}
    if name == "meanfield":
        return [*default.argv, "--dt", repr(0.025 / refine)], {}
    if name == "under-sweep":
        runs = [workloads.read_json(d / "config.json") for d in workloads.run_dirs(out)]
        steps = {(c["dt"], c["horizon"]) for c in runs}
        if len(steps) != 1:
            raise SystemExit(f"under-sweep runs differ in dt or horizon: {steps}")
        (dt, horizon), = steps
        top = workloads.read_json(out / "config.json")
        base = dict(top["base"], dt=dt / 2 / refine, horizon=horizon)
        config = {"experiment": "alpha-sweep",
                  "params": {"grid": top["grid"], "base": base, "workers": top["workers"]}}
        path = out.parent / f"reference-config-{refine:g}.json"
        path.write_text(json.dumps(config, indent=2))
        return ["sweep", "--kind", "alpha", "--grid", w.argv[w.argv.index("--grid") + 1],
                "--config", str(path)], config
    raise SystemExit(f"no reference rule for {name}")


def launch_checked(args: list[str]) -> invoke.Invocation:
    inv = invoke.launch(args, "capture", timeout=TIMEOUT_S, tag="ref")
    if inv.returncode != 0:
        raise SystemExit(f"{args} failed: {inv.stderr.strip()[-800:]}")
    return inv


def measured(name: str, inv: invoke.Invocation) -> tuple[float | None, dict]:
    return (workloads.certified_rate(WORKLOADS[name], inv.out),
            workloads.final_values(inv.captures))


def make(name: str, seed: int, prov: dict) -> dict:
    w = WORKLOADS[name]
    default = launch_checked(w.cli_args(seed))
    ref_args, ref_config = reference_args(name, default, 1.0)
    ref = launch_checked(ref_args)
    finer = launch_checked(reference_args(name, default, 2.0)[0])
    rate, values = measured(name, ref)
    if rate is None or not values:
        raise SystemExit(f"{name}: reference run has no certified rate or final value")
    target = {"rate": rate, "runs": {k: {"value": v} for k, v in sorted(values.items())}}
    halving, _ = workloads.accuracy(*measured(name, finer), target)
    default_err, _ = workloads.accuracy(*measured(name, default), target)
    record = {
        "workload": name,
        "lazytd_seed": seed,
        "workload_argv": w.cli_args(seed),
        "workload_config": workloads.configs(default.out),
        "outcome": workloads.outcomes(default.out),
        "reference_argv": ref_args,
        "reference_config": ref_config,
        **target,
        "halving": halving,
        "default_errors": default_err,
        "lazytd": {"git_commit": prov["lazytd_git_commit"],
                   "src_sha256": prov["lazytd_src_sha256"]},
        "made_with": {k: prov[k] for k in ("python", "numpy", "blas", "nproc",
                                           "OPENBLAS_NUM_THREADS")},
    }
    for inv in (default, ref, finer):
        invoke.discard(inv)
    return record


SCAN_SCRIPT = r"""
import sys
from lazytd.experiments import OVER_DEFAULTS, _nn_setup, linearized_rates
from lazytd.models import rank_profile
n_units, n_states = OVER_DEFAULTS["n_units"], OVER_DEFAULTS["n_states"]
for seed in range(int(sys.argv[1])):
    mrp, mu, model, w0, _ = _nn_setup(0.9, seed, n_units, n_states)
    if rank_profile(model, w0).overparametrized:
        fast, slow = linearized_rates(model, w0, mrp, mu, 0.0)
        # default step 1.5/fast and horizon 2.5/slow
        print(seed, round((2.5 / slow) / (1.5 / fast)), flush=True)
"""


def scan(limit: int) -> None:
    """Print every seed below ``limit`` whose default over-regime net has a
    full-rank Jacobian at initialization, with its RK4 step count."""
    env = dict(os.environ, PYTHONPATH=str(invoke.SRC), OPENBLAS_NUM_THREADS=invoke.BLAS_THREADS)
    print("seed steps")
    subprocess.run([sys.executable, "-c", SCAN_SCRIPT, str(limit)], cwd=invoke.ROOT, env=env,
                   check=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS), default=None)
    p.add_argument("--lazytd-seed", type=int, default=None)
    p.add_argument("--scan", type=int, default=None, metavar="N")
    args = p.parse_args(argv)
    if args.scan is not None:
        scan(args.scan)
        return 0
    prov = invoke.provenance()
    workloads.REFERENCES.mkdir(exist_ok=True)
    for name in [args.workload] if args.workload else list(WORKLOADS):
        seeds = WORKLOADS[name].lazytd_seeds
        for seed in [args.lazytd_seed] if args.lazytd_seed is not None else seeds:
            record = make(name, seed, prov)
            path = workloads.reference_path(WORKLOADS[name], seed)
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            print(f"{path.name}: default errors {record['default_errors']}, "
                  f"halving {record['halving']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
