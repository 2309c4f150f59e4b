"""lazytd benchmark: time to a checked, certified result, end to end and
per layer.

    python3 bench/run.py                        # all workloads, end to end
    python3 bench/run.py --workload lazy-over --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload meanfield --trace 1

Run from the root of a source checkout. ``--seed`` seeds the benchmark's
own schedule (where the set-up probes fall between the full invocations);
the program's inputs are the workload's CLI arguments and its lazytd seed,
by default the first validated one (``--lazytd-seed`` picks another that
has a stored reference). See bench/README.md for the metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
invocation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import invoke
import workloads
from layers import LAYER_METRICS, Spans, layer_metrics
from workloads import WORKLOADS

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "rate_relerr": "ratio",
    "value_err": "value",
}
PROBES_PER_ROUND = 3
RUN_LIMIT_S = 170.0     # every run ends within 180 s


class Run:
    """Invocations of one workload within one benchmark run."""

    def __init__(self, workload, lazytd_seed: int):
        self.workload = workload
        self.lazytd_seed = lazytd_seed
        self.args = workload.cli_args(lazytd_seed)
        path = workloads.reference_path(workload, lazytd_seed)
        if not path.is_file():
            raise SystemExit(f"no reference {path}; run bench/make_references.py")
        self.reference = workloads.read_json(path)
        self.started = time.monotonic()
        self.samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.steal: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def _launch(self, mode: str) -> invoke.Invocation:
        self.attempted += 1
        inv = invoke.launch(self.args, mode, timeout=max(1.0, self.remaining()), tag=mode)
        if inv.steal_frac is not None:
            self.steal.append(inv.steal_frac)
        return inv

    def fail(self, inv: invoke.Invocation, errors: list[str]) -> None:
        detail = f"rc={inv.returncode}; " + "; ".join(errors)
        if inv.returncode != 0:
            detail += f"; stderr: {inv.stderr.strip()[-400:]}"
        self.failures.append(detail)

    def full(self, mode: str = "capture") -> invoke.Invocation | None:
        """One complete invocation with its output checks; None if it failed.
        The caller discards the returned outputs."""
        inv = self._launch(mode)
        errors = [] if inv.returncode == 0 else ["nonzero exit"]
        acc = {}
        if not errors:
            acc, errors = workloads.check(self.workload, self.lazytd_seed, inv.out, inv.summary,
                                          inv.captures, self.reference)
        if errors or inv.setup_s is None:
            self.fail(inv, errors or ["no engine call seen"])
            invoke.discard(inv)
            return None
        if mode == "capture":
            self.samples["wall_s"].append(inv.wall_s)
            self.samples["setup_s"].append(inv.setup_s)
            self.samples["peak_rss_mib"].append(inv.peak_rss_mib)
            for k, v in acc.items():
                self.samples[k].append(v)
        return inv

    def probe(self) -> None:
        """A set-up-only invocation: ends at its first engine call."""
        inv = self._launch("probe")
        if inv.returncode != 0 or inv.setup_s is None:
            self.fail(inv, ["set-up probe did not reach an engine call"])
        else:
            self.samples["setup_s"].append(inv.setup_s)
        invoke.discard(inv)

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def measure(run: Run, seconds: float, rng: random.Random) -> dict:
    """Rounds of one full invocation and PROBES_PER_ROUND set-up probes, in
    a seeded order, while the next round fits in ``seconds``."""
    deadline = run.started + seconds
    while True:
        t0 = time.monotonic()
        steps = ["full"] + ["probe"] * PROBES_PER_ROUND
        rng.shuffle(steps)
        for step in steps:
            if step == "full":
                inv = run.full()
                if inv is not None:
                    invoke.discard(inv)
            else:
                run.probe()
            if run.failures:
                return {}
        last = time.monotonic() - t0
        if time.monotonic() + last > min(deadline, run.started + RUN_LIMIT_S):
            break
    return {k: {"value": statistics.median(v), "unit": END_TO_END[k], "samples": len(v)}
            for k, v in run.samples.items()}


def trace(run: Run) -> dict:
    """One untraced and one traced invocation; per-layer metrics from the
    traced one, whose outputs must equal the untraced one's."""
    plain = run.full()
    if plain is None:
        return {}
    traced = run.full("trace")
    if traced is None:
        invoke.discard(plain)
        return {}
    diffs = output_differences(plain.out, traced.out)
    if diffs:
        run.fail(traced, [f"tracing changed outputs: {diffs}"])
    spans = Spans(traced.hook_out)
    if spans.unpatched:
        print(f"warning: not traced (missing in lazytd): {sorted(spans.unpatched)}",
              file=sys.stderr)
    cfg = workloads.read_json(traced.out / "config.json")
    metrics = layer_metrics(spans, workers=int(cfg.get("workers", 1)),
                            overhead_frac=traced.wall_s / plain.wall_s - 1.0)
    for inv in (plain, traced):
        invoke.discard(inv)
    return {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()}


def output_differences(a, b) -> list[str]:
    """Files that differ between two output directories; report.json is
    compared without its wall_clock field."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    diffs = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            diffs.append(str(name))
        elif name.name == "report.json":
            ja, jb = workloads.read_json(pa), workloads.read_json(pb)
            ja.pop("wall_clock", None)
            jb.pop("wall_clock", None)
            if ja != jb:
                diffs.append(str(name))
        elif pa.read_bytes() != pb.read_bytes():
            diffs.append(str(name))
    return diffs


def print_table(name: str, run: Run, metrics: dict, prov: dict) -> None:
    print(f"== {name} (lazytd seed {run.lazytd_seed}): {run.attempted} invocations, "
          f"{len(run.failures)} failed, fail_frac {len(run.failures) / max(run.attempted, 1):.3g}")
    for key, m in metrics.items():
        n = f"  n={m['samples']}" if "samples" in m else ""
        print(f"   {key:<36} {m['value']:<14.6g} {m['unit']}{n}")
    for f in run.failures:
        print(f"   FAILED: {f}")
    record = dict(prov, workload=name, lazytd_seed=run.lazytd_seed)
    record["host.steal_frac"] = ({"median": statistics.median(run.steal), "max": max(run.steal)}
                                 if run.steal else None)
    print("provenance " + json.dumps(record))


def run_workload(name: str, seed: int, seconds: float, traced: bool, lazytd_seed, prov) -> dict:
    workload = WORKLOADS[name]
    if lazytd_seed is None:
        lazytd_seed = workload.lazytd_seeds[0]
    elif lazytd_seed not in workload.lazytd_seeds:
        raise SystemExit(f"lazytd seed {lazytd_seed} has no reference for {name}; "
                         f"choose from {workload.lazytd_seeds}")
    run = Run(workload, lazytd_seed)
    metrics = trace(run) if traced else measure(run, seconds, random.Random(seed))
    print_table(name, run, metrics, prov)
    return run.result({k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--lazytd-seed", type=int, default=None,
                   help="program seed; must be one of the workload's validated seeds")
    args = p.parse_args(argv)
    try:
        prov = invoke.provenance()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.lazytd_seed, prov)
               for n in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}/{k}": m for n, r in zip(names, results)
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
