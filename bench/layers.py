"""Per-layer metrics from the spans of one traced invocation.

A layer is one lazytd module. Inclusive time is a span's duration; self
time subtracts the part of that interval its child spans cover (children
on worker threads may overlap, so the covered part is a union).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# unit of every per-layer metric, in the order they are reported
LAYER_METRICS = {
    "cli.parse_s": "s",
    "experiments.setup_s": "s",
    "experiments.linearized_rates_s": "s",
    "experiments.diagnostics_s": "s",
    "experiments.emit_s": "s",
    "experiments.sweep_busy_frac": "ratio",
    "dynamics.steps": "count",
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_us": "us",
    "dynamics.integrate_self_s": "s",
    "dynamics.probe_calls": "count",
    "dynamics.probe_s": "s",
    "dynamics.stop_checks": "count",
    "dynamics.stop_s": "s",
    "dynamics.sampled_steps": "count",
    "dynamics.sampled_step_us": "us",
    "dynamics.sample_chain_s": "s",
    "models.vj_calls": "count",
    "models.vj_us": "us",
    "models.value_calls": "count",
    "models.value_us": "us",
    "models.jacobian_calls": "count",
    "models.jacobian_us": "us",
    "models.jacobian_mb_computed": "MiB",
    "analysis.projected_td_error_calls": "count",
    "analysis.projected_td_error_us": "us",
    "analysis.geometry_s": "s",
    "analysis.certificate_s": "s",
    "mrp.stationary_measure_s": "s",
    "mrp.td_resolvent_calls": "count",
    "mrp.mu_projection_us": "us",
    "meanfield.particle_rhs_calls": "count",
    "meanfield.particle_rhs_us": "us",
    "meanfield.integrate_self_s": "s",
    "meanfield.diagnostics_s": "s",
    "trace.overhead_frac": "ratio",
}

RUNNERS = ("experiments.run_nn", "experiments.run_meanfield", "experiments.run_spiral")
ENGINES = ("dynamics.integrate", "dynamics.run_stochastic_td", "meanfield.integrate_ensemble")
CERTIFICATES = ("analysis.overparametrized_certificate",
                "analysis.underparametrized_certificate", "analysis.metric_drift")
MEANFIELD_DIAGNOSTICS = ("meanfield.separation_check", "meanfield.linearized_gap_bound",
                         "meanfield.fixed_point_optimality", "meanfield.g_profile",
                         "meanfield.h1_profile")


class Spans:
    """All spans of one invocation, from every process that wrote some."""

    def __init__(self, hook_out: Path):
        ids, codes, parents, starts, ends = [], [], [], [], []
        self.codes: dict[str, int] = {}     # span name -> code, over all processes
        self.counters: dict[str, int] = {}
        self.unpatched: set[str] = set()
        for meta_path in sorted(Path(hook_out).glob("hook-*.json")):
            meta = json.loads(meta_path.read_text())
            for k, v in meta["counters"].items():
                self.counters[k] = self.counters.get(k, 0) + v
            self.unpatched.update(meta["unpatched"])
            rows_path = meta_path.with_name(f"spans-{meta['pid']}.f64")
            if not rows_path.exists():
                continue
            rows = np.fromfile(rows_path, dtype=np.float64).reshape(-1, 5)
            ids.append(rows[:, 0].astype(np.int64))
            local = np.array([self.codes.setdefault(n, len(self.codes)) for n in meta["names"]],
                             dtype=np.int64)
            codes.append(local[rows[:, 1].astype(np.int64)])
            parents.append(rows[:, 2].astype(np.int64))
            starts.append(rows[:, 3])
            ends.append(rows[:, 4])
        cat = lambda parts, dtype: np.concatenate(parts) if parts else np.zeros(0, dtype)
        self.id, self.code = cat(ids, np.int64), cat(codes, np.int64)
        self.parent, self.start, self.end = cat(parents, np.int64), cat(starts, float), cat(ends, float)
        self.dur = self.end - self.start

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.code, [self.codes[n] for n in names if n in self.codes])

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def mean_us(self, *names: str) -> float:
        m = self.mask(*names)
        return float(self.dur[m].mean() * 1e6) if m.any() else 0.0

    def self_time(self, *names: str) -> float:
        total = 0.0
        for i in np.flatnonzero(self.mask(*names)):
            kids = self.parent == self.id[i]
            s = np.clip(self.start[kids], self.start[i], self.end[i])
            e = np.clip(self.end[kids], self.start[i], self.end[i])
            total += self.dur[i] - covered(s, e)
        return total

    def setup_time(self) -> float:
        """Per run, from the runner's start to its first engine call."""
        total = 0.0
        engines = self.mask(*ENGINES)
        for i in np.flatnonzero(self.mask(*RUNNERS)):
            first = self.start[engines & (self.parent == self.id[i])]
            if first.size:
                total += first.min() - self.start[i]
        return total


def covered(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of intervals."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts)
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    new = np.ones(s.size, bool)
    new[1:] = s[1:] > reach[:-1]
    block = np.cumsum(new) - 1
    block_end = np.zeros(block[-1] + 1)
    np.maximum.at(block_end, block, reach)
    return float(np.sum(block_end - s[new]))


def layer_metrics(spans: Spans, workers: int, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS; 0 where a layer did no work."""
    sweep = spans.mask("experiments.run_sweep")
    runs = spans.mask("experiments.run_nn")
    summary_s, busy = 0.0, 0.0
    if sweep.any():
        # the sweep summary is written after the last run has finished
        last_run_end = spans.end[runs].max() if runs.any() else spans.start[sweep].min()
        summary_s = float(spans.end[sweep].max() - last_run_end)
        busy = spans.total("experiments.run_nn") / (workers * spans.total("experiments.run_sweep"))
    return {
        "cli.parse_s": spans.total("cli.parse"),
        "experiments.setup_s": spans.setup_time(),
        "experiments.linearized_rates_s": spans.total("experiments.linearized_rates"),
        "experiments.diagnostics_s": spans.total("experiments.diagnostics"),
        "experiments.emit_s": spans.total("experiments.emit") + summary_s,
        "experiments.sweep_busy_frac": busy,
        "dynamics.steps": spans.counters.get("dynamics.steps", 0),
        "dynamics.rhs_calls": spans.count("dynamics.rhs"),
        "dynamics.rhs_us": spans.mean_us("dynamics.rhs"),
        "dynamics.integrate_self_s": spans.self_time("dynamics.integrate"),
        "dynamics.probe_calls": spans.count("dynamics.probe"),
        "dynamics.probe_s": spans.total("dynamics.probe"),
        "dynamics.stop_checks": spans.count("dynamics.stop_when"),
        "dynamics.stop_s": spans.total("dynamics.stop_when"),
        "dynamics.sampled_steps": spans.count("dynamics.sampled_step"),
        "dynamics.sampled_step_us": spans.mean_us("dynamics.sampled_step"),
        "dynamics.sample_chain_s": spans.total("dynamics.sample_chain"),
        "models.vj_calls": spans.count("models.value_and_jacobian"),
        "models.vj_us": spans.mean_us("models.value_and_jacobian"),
        "models.value_calls": spans.count("models.value"),
        "models.value_us": spans.mean_us("models.value"),
        "models.jacobian_calls": spans.count("models.jacobian"),
        "models.jacobian_us": spans.mean_us("models.jacobian"),
        "models.jacobian_mb_computed": spans.counters.get("models.jacobian_bytes", 0) / 2**20,
        "analysis.projected_td_error_calls": spans.count("analysis.projected_td_error"),
        "analysis.projected_td_error_us": spans.mean_us("analysis.projected_td_error"),
        "analysis.geometry_s": spans.total("analysis.geometry"),
        "analysis.certificate_s": spans.total(*CERTIFICATES),
        "mrp.stationary_measure_s": spans.total("mrp.stationary_measure"),
        "mrp.td_resolvent_calls": spans.count("mrp.td_resolvent"),
        "mrp.mu_projection_us": spans.mean_us("mrp.mu_projection"),
        "meanfield.particle_rhs_calls": spans.count("meanfield.particle_rhs"),
        "meanfield.particle_rhs_us": spans.mean_us("meanfield.particle_rhs"),
        "meanfield.integrate_self_s": spans.self_time("meanfield.integrate_ensemble"),
        "meanfield.diagnostics_s": spans.total(*MEANFIELD_DIAGNOSTICS),
        "trace.overhead_frac": overhead_frac,
    }
