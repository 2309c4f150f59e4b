"""Instrumentation the benchmark installs into a lazytd process.

LAZYTD_BENCH_HOOK holds a JSON object {"mode": ..., "out": ...}:

capture  record when the first engine call starts and the final scaled
         value vector of every run (one wrapper call per run, nothing per
         step);
probe    record when the first engine call starts, then end the process:
         a set-up-only invocation;
trace    capture, plus one span per call into the wrapped functions of
         every lazytd module.

Every wrapper is installed where the name is looked up at call time (for
example ``lazytd.experiments.integrate``, not only ``lazytd.dynamics``),
because the package binds names with ``from .x import y``.

Each process writes hook-<pid>.json into "out" when it exits and, when
tracing, spans-<pid>.f64: five float64 per span (span id, name id, parent
span id, start, end). Span ids carry the pid in their high bits, so they
are unique across the processes of one invocation. Times are
CLOCK_MONOTONIC, which every process on the host shares, so the parent can
compare them with its own launch time.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import itertools
import json
import os
import threading
import time
from array import array

ENV = "LAZYTD_BENCH_HOOK"
MODES = ("capture", "probe", "trace")
clock = time.monotonic

# (module, attribute, span name): plain functions, wrapped in the namespace
# that calls them.
TRACED_FUNCTIONS = [
    ("experiments", "run_nn", "experiments.run_nn"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "run_meanfield", "experiments.run_meanfield"),
    ("experiments", "run_spiral", "experiments.run_spiral"),
    ("experiments", "run_from_config", "experiments.run_from_config"),
    ("experiments", "_nn_setup", "experiments.setup"),
    ("experiments", "linearized_rates", "experiments.linearized_rates"),
    ("experiments", "_attach_run_diagnostics", "experiments.diagnostics"),
    ("experiments", "_emit", "experiments.emit"),
    ("experiments", "projected_td_error", "analysis.projected_td_error"),
    ("experiments", "fit_exponential_rate", "analysis.fit_exponential_rate"),
    ("experiments", "overparametrized_certificate", "analysis.overparametrized_certificate"),
    ("experiments", "underparametrized_certificate", "analysis.underparametrized_certificate"),
    ("experiments", "metric_drift", "analysis.metric_drift"),
    ("experiments", "rank_profile", "models.rank_profile"),
    ("experiments", "stationary_measure", "mrp.stationary_measure"),
    ("experiments", "td_resolvent", "mrp.td_resolvent"),
    ("experiments", "exact_value", "mrp.exact_value"),
    ("experiments", "doubled_ensemble", "meanfield.doubled_ensemble"),
    ("experiments", "separation_check", "meanfield.separation_check"),
    ("experiments", "linearized_gap_bound", "meanfield.linearized_gap_bound"),
    ("experiments", "fixed_point_optimality", "meanfield.fixed_point_optimality"),
    ("experiments", "g_profile", "meanfield.g_profile"),
    ("experiments", "h1_profile", "meanfield.h1_profile"),
    ("dynamics", "td_resolvent", "mrp.td_resolvent"),
    ("dynamics", "sample_chain", "dynamics.sample_chain"),
    ("dynamics", "stochastic_td_step", "dynamics.sampled_step"),
    ("analysis", "projected_td_error", "analysis.projected_td_error"),
    ("analysis", "fit_exponential_rate", "analysis.fit_exponential_rate"),
    ("analysis", "rank_profile", "models.rank_profile"),
    ("analysis", "td_resolvent", "mrp.td_resolvent"),
    ("analysis", "mu_projection", "mrp.mu_projection"),
    ("analysis", "exact_value", "mrp.exact_value"),
    ("meanfield", "particle_rhs", "meanfield.particle_rhs"),
    ("meanfield", "exact_value", "mrp.exact_value"),
]

# (module, class, method, span name)
TRACED_METHODS = [
    ("models", "ReluNet", "value", "models.value"),
    ("models", "ReluNet", "jacobian", "models.jacobian"),
    ("models", "ReluNet", "value_and_jacobian", "models.value_and_jacobian"),
    ("analysis", "LazyGeometry", "from_model", "analysis.geometry"),
]

# engine entry points, looked up in lazytd.experiments
ENGINES = {
    "integrate": "dynamics.integrate",
    "run_stochastic_td": "dynamics.run_stochastic_td",
    "integrate_ensemble": "meanfield.integrate_ensemble",
}


class Hook:
    """Per-process recorder; see the module docstring."""

    def __init__(self, mode: str, out: str):
        if mode not in MODES:
            raise ValueError(f"hook mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.out = out
        self.tracing = mode == "trace"
        self.lock = threading.Lock()
        self.names: dict[str, int] = {}
        self.unpatched: list[str] = []
        self._reset()

    def _reset(self) -> None:
        pid = os.getpid()
        self.pid = pid
        self.ids = itertools.count((pid << 24) + 1)
        self.rows = array("d")
        self.runs: list[dict] = []
        self.counters = {"dynamics.steps": 0, "models.jacobian_bytes": 0}
        self.first_engine = None
        self.dumped = False
        self.local = threading.local()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = [0]
            return self.local.stack

    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        nid = self._name_id(name)
        hook = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = hook._stack()
            sid = next(hook.ids)
            parent = stack[-1]
            stack.append(sid)
            if on_call is not None:
                on_call(args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                hook.rows.extend((sid, nid, parent, t0, t1))

        return wrapped

    def _add(self, counter: str, amount: int) -> None:
        with self.lock:
            self.counters[counter] += amount

    # -- engines -------------------------------------------------------

    def _engine_started(self) -> None:
        with self.lock:
            first = self.first_engine is None
            if first:
                self.first_engine = clock()
        if first and self.mode == "probe":
            self.dump()
            os._exit(0)

    def _engine(self, attr: str, fn):
        hook = self
        inner = self.span(ENGINES[attr], fn) if self.tracing else fn

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            hook._engine_started()
            if attr == "integrate" and hook.tracing:
                args, kwargs = hook._wrap_integrate_callables(args, kwargs)
            result = inner(*args, **kwargs)
            hook._record_run(attr, args, kwargs, result)
            return result

        return wrapped

    def _wrap_integrate_callables(self, args, kwargs):
        # integrate(rhs, w0, config, divergence_probe=None, stop_when=None);
        # the probe and stop closures are built inside the runners, so they
        # can only be counted here
        args = list(args)
        for pos, key, name in ((3, "divergence_probe", "dynamics.probe"),
                               (4, "stop_when", "dynamics.stop_when")):
            if len(args) > pos and args[pos] is not None:
                args[pos] = self.span(name, args[pos])
            elif kwargs.get(key) is not None:
                kwargs = dict(kwargs, **{key: self.span(name, kwargs[key])})
        return tuple(args), kwargs

    def _record_run(self, attr, args, kwargs, result) -> None:
        import numpy as np

        record = {"engine": ENGINES[attr], "diverged": bool(getattr(result, "diverged", False))}
        if attr == "integrate":
            config = args[2] if len(args) > 2 else kwargs["config"]
            model, alpha = getattr(self.local, "model", None), getattr(self.local, "alpha", None)
            last_t = result.times[-1]
            if result.diverged and result.diverged_at is not None:
                last_t = result.diverged_at
            self._add("dynamics.steps", int(round(last_t / config.dt)))
            if model is not None:
                value = inspect.unwrap(type(model).value)(model, result.final_params)
                record.update(alpha=float(alpha), value=(alpha * value).tolist())
        elif attr == "run_stochastic_td":
            model = args[0] if args else kwargs["model"]
            config = args[3] if len(args) > 3 else kwargs["config"]
            value = inspect.unwrap(type(model).value)(model, result.final_params)
            record.update(alpha=float(config.alpha), value=(config.alpha * value).tolist())
        else:
            from lazytd import meanfield

            features = args[1] if len(args) > 1 else kwargs["features"]
            value = inspect.unwrap(meanfield.ensemble_value)(result.final, features)
            record.update(value=np.asarray(value).tolist())
        with self.lock:
            self.runs.append(record)

    def _make_lazy_rhs(self, fn):
        hook = self

        @functools.wraps(fn)
        def wrapped(model, mrp, mu, lam, alpha, *args, **kwargs):
            # the next integrate call on this thread integrates this model
            hook.local.model, hook.local.alpha = model, alpha
            rhs = fn(model, mrp, mu, lam, alpha, *args, **kwargs)
            return hook.span("dynamics.rhs", rhs) if hook.tracing else rhs

        return self.span("dynamics.make_lazy_rhs", wrapped) if self.tracing else wrapped

    def _thread_pool(self, base):
        hook = self

        class TracedThreadPool(base):
            """Carries the submitting span into the worker thread."""

            def submit(self, fn, /, *args, **kwargs):
                parent = hook._stack()[-1]

                def call(*a, **k):
                    saved = hook._stack()[:]
                    hook.local.stack = [parent]
                    try:
                        return fn(*a, **k)
                    finally:
                        hook.local.stack = saved

                return super().submit(call, *args, **kwargs)

        return TracedThreadPool

    # -- installation and output ----------------------------------------

    def install(self) -> None:
        import importlib
        import multiprocessing.util

        mods = {name: importlib.import_module(f"lazytd.{name}")
                for name in ("experiments", "dynamics", "analysis", "meanfield", "models", "mrp")}
        ex = mods["experiments"]
        for attr in ENGINES:
            self._patch(ex, attr, lambda fn, a=attr: self._engine(a, fn))
        self._patch(ex, "make_lazy_rhs", self._make_lazy_rhs)
        if self.tracing:
            for mod, attr, name in TRACED_FUNCTIONS:
                self._patch(mods[mod], attr, lambda fn, n=name: self.span(n, fn))
            for mod, cls_name, attr, name in TRACED_METHODS:
                cls = getattr(mods[mod], cls_name, None)
                if cls is None or attr not in vars(cls):
                    self.unpatched.append(f"{mod}.{cls_name}.{attr}")
                    continue
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
                else:
                    on_call = self._count_jacobian if attr == "value_and_jacobian" else None
                    setattr(cls, attr, self.span(name, raw, on_call))
            if hasattr(ex, "ThreadPoolExecutor"):
                ex.ThreadPoolExecutor = self._thread_pool(ex.ThreadPoolExecutor)
            self._patch_argparse()
        atexit.register(self.dump)
        multiprocessing.util.register_after_fork(self, Hook._after_fork)

    def _count_jacobian(self, args) -> None:
        model = args[0]
        self._add("models.jacobian_bytes", 8 * model.d * model.p)

    def _patch(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.unpatched.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(fn))

    def _patch_argparse(self) -> None:
        # ``python -m lazytd.cli`` runs the CLI as __main__, whose functions
        # cannot be reached from here; the parse phase is bracketed instead by
        # the first parser construction and the end of the outermost
        # parse_args call
        import argparse

        hook = self
        nid = self._name_id("cli.parse")
        init, parse = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args
        first = []

        @functools.wraps(init)
        def traced_init(parser, *args, **kwargs):
            if not first:
                first.append(clock())
            init(parser, *args, **kwargs)

        @functools.wraps(parse)
        def traced_parse(parser, *args, **kwargs):
            try:
                return parse(parser, *args, **kwargs)
            finally:
                t1 = clock()
                t0 = first.pop() if first else t1
                hook.rows.extend((next(hook.ids), nid, hook._stack()[-1], t0, t1))

        argparse.ArgumentParser.__init__ = traced_init
        argparse.ArgumentParser.parse_args = traced_parse

    def _after_fork(self) -> None:
        import multiprocessing.util

        stack = self._stack()[:]
        self._reset()
        # keep the forking thread's open spans as parents of the child's spans
        self.local.stack = stack
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        if self.dumped:
            return
        self.dumped = True
        os.makedirs(self.out, exist_ok=True)
        if self.tracing:
            with open(os.path.join(self.out, f"spans-{self.pid}.f64"), "wb") as fh:
                self.rows.tofile(fh)
        meta = {
            "pid": self.pid,
            "mode": self.mode,
            "first_engine": self.first_engine,
            "runs": self.runs,
            "counters": self.counters,
            "names": sorted(self.names, key=self.names.get),
            "unpatched": self.unpatched,
        }
        path = os.path.join(self.out, f"hook-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(meta, fh)
        os.replace(path + ".tmp", path)


def install_from_env() -> Hook:
    spec = json.loads(os.environ[ENV])
    hook = Hook(spec["mode"], spec["out"])
    hook.install()
    return hook
