"""Self-checks of the benchmark's instrumentation and checks.

    python3 -m pytest bench/test_bench.py -q

The hook must not change what lazytd writes, its counts must repeat, and
it must still see calls made on sweep workers, whether those are threads
(as in run_sweep today) or processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import invoke
import run as bench_run
import workloads
from layers import LAYER_METRICS, Spans, covered, layer_metrics

SMALL = {
    "nn-under": ["nn", "--regime", "under", "--alpha", "3200", "--seed", "5"],
    "nn-sampled": ["nn", "--regime", "over", "--mode", "stochastic", "--horizon", "3000",
                   "--seed", "1454"],
    "meanfield": ["meanfield", "--horizon", "60", "--seed", "7"],
    "sweep": ["sweep", "--kind", "alpha", "--regime", "under", "--grid", "800,1600,3200",
              "--workers", "2", "--seed", "5"],
}


def launched(args, mode):
    inv = invoke.launch(args, mode, timeout=300, tag="test")
    assert inv.returncode == 0, inv.stderr
    return inv


@pytest.fixture(scope="module", autouse=True)
def bytecode_cache():
    invoke.provenance()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_outputs_identical(name):
    plain, traced = launched(SMALL[name], "capture"), launched(SMALL[name], "trace")
    try:
        assert bench_run.output_differences(plain.out, traced.out) == []
        assert workloads.final_values(plain.captures) == workloads.final_values(traced.captures)
    finally:
        invoke.discard(plain)
        invoke.discard(traced)


def counts(inv):
    metrics = layer_metrics(Spans(inv.hook_out), workers=2, overhead_frac=0.0)
    return {k: v for k, v in metrics.items()
            if k.endswith(("_calls", "_checks", "steps")) or k == "models.jacobian_mb_computed"}


@pytest.mark.parametrize("name", ["nn-under", "nn-sampled", "sweep"])
def test_counts_repeat_exactly(name):
    a, b = launched(SMALL[name], "trace"), launched(SMALL[name], "trace")
    try:
        ca, cb = counts(a), counts(b)
        assert ca == cb
        assert ca["models.vj_calls"] > 0
    finally:
        invoke.discard(a)
        invoke.discard(b)


def test_sweep_thread_workers_are_traced():
    serial_args = [a if a != "2" else "1" for a in SMALL["sweep"]]
    serial, threaded = launched(serial_args, "trace"), launched(SMALL["sweep"], "trace")
    try:
        spans = Spans(threaded.hook_out)
        assert spans.count("experiments.run_nn") == 3
        # the runs on worker threads hang under the sweep's span
        sweep_id = spans.id[spans.mask("experiments.run_sweep")]
        assert np.all(spans.parent[spans.mask("experiments.run_nn")] == sweep_id)
        assert counts(serial) == counts(threaded)
        assert len(threaded.captures) == 3
    finally:
        invoke.discard(serial)
        invoke.discard(threaded)


PROCESS_SWEEP = textwrap.dedent("""
    import concurrent.futures, multiprocessing, sys
    from lazytd import experiments

    def one(alpha):
        return experiments.run_nn("under", alpha=alpha, seed=5).diverged

    if __name__ == "__main__":
        ctx = multiprocessing.get_context(sys.argv[1])
        with concurrent.futures.ProcessPoolExecutor(2, mp_context=ctx) as pool:
            print(list(pool.map(one, [1600.0, 3200.0])))
""")


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_process_workers_are_traced(method):
    work = invoke.new_workdir("test")
    script, hook_out = work / "sweep.py", work / "hook"
    script.write_text(PROCESS_SWEEP)
    res = subprocess.run([sys.executable, str(script), method], cwd=invoke.ROOT,
                         env=invoke.child_env("trace", hook_out), capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    spans = Spans(hook_out)
    assert spans.count("experiments.run_nn") == 2
    assert spans.count("dynamics.integrate") == 2
    assert spans.count("models.value_and_jacobian") > 0
    metas = [json.loads(p.read_text()) for p in hook_out.glob("hook-*.json")]
    assert sorted(r["alpha"] for m in metas for r in m["runs"]) == [1600.0, 3200.0]
    assert spans.counters["dynamics.steps"] > 0
    shutil.rmtree(work)


def test_setup_probe_stops_at_the_engine():
    inv = launched(SMALL["nn-under"], "probe")
    try:
        assert 0 < inv.setup_s < inv.wall_s
        assert not (inv.out / "report.json").exists()
    finally:
        invoke.discard(inv)


def test_covered_merges_overlaps():
    assert covered(np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 6.0])) == 4.0
    assert covered(np.zeros(0), np.zeros(0)) == 0.0


@pytest.fixture
def workdir():
    work = invoke.new_workdir("test")
    yield work
    shutil.rmtree(work)


def test_reference_with_other_config_is_refused(workdir):
    w = workloads.WORKLOADS["meanfield"]
    ref = workloads.read_json(workloads.reference_path(w, w.lazytd_seeds[0]))
    out = workdir / "out"
    out.mkdir()
    cfg = dict(next(iter(ref["workload_config"].values())), horizon=1.0)
    (out / "config.json").write_text(json.dumps(cfg))
    (out / "report.json").write_text(json.dumps({"diverged": False, "manifest": []}))
    _, errors = workloads.check(w, w.lazytd_seeds[0], out, {"experiment": w.experiment}, [], ref)
    assert any("config differs" in e for e in errors)


def test_bare_directory_fails(workdir):
    # a directory with only the benchmark in it: nothing to build or run
    bare = workdir / "bare"
    shutil.copytree(invoke.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "meanfield"],
                         cwd=bare, capture_output=True, text=True, timeout=180,
                         env=dict(os.environ, PYTHONPATH=""))
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((invoke.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
