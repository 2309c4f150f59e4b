"""Launching one lazytd CLI process the way a user does, and measuring it.

Every invocation is a fresh ``python -m lazytd.cli ...`` process, run from
the checkout's own ``src`` with ``OPENBLAS_NUM_THREADS=1``, writing into a
fresh directory under ``.bench_out`` of the checkout. The hook directory
on PYTHONPATH installs benchhook in that process (see hook/benchhook.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
HOOK_DIR = BENCH / "hook"
BLAS_THREADS = "1"


@dataclass
class Invocation:
    argv: list[str]
    out: Path                  # the --out directory
    hook_out: Path             # where the processes' hook files land
    returncode: int
    wall_s: float
    peak_rss_mib: float
    steal_frac: float | None
    launched: float            # CLOCK_MONOTONIC at launch
    stdout: str
    stderr: str
    hooks: list[dict] = field(default_factory=list)

    @property
    def setup_s(self) -> float | None:
        """Launch to the first engine call in any process of the invocation."""
        starts = [h["first_engine"] for h in self.hooks if h.get("first_engine") is not None]
        return min(starts) - self.launched if starts else None

    @property
    def captures(self) -> list[dict]:
        return [run for h in self.hooks for run in h["runs"]]

    @property
    def summary(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None


def cpu_times() -> list[int] | None:
    """Aggregate CPU counters from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after) -> float | None:
    # fields: user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def child_env(hook_mode: str, hook_out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HOOK_DIR)])
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["LAZYTD_BENCH_HOOK"] = json.dumps({"mode": hook_mode, "out": str(hook_out)})
    return env


def new_workdir(tag: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))


def launch(cli_args: list[str], hook_mode: str, timeout: float, tag: str = "run") -> Invocation:
    """Run one CLI invocation to completion and collect what it left."""
    work = new_workdir(tag)
    out, hook_out = work / "out", work / "hook"
    argv = [sys.executable, "-m", "lazytd.cli", *cli_args, "--out", str(out)]
    stat0 = cpu_times()
    with open(work / "stdout", "wb") as so, open(work / "stderr", "wb") as se:
        launched = time.monotonic()
        # a session of its own, so that a timeout also ends worker processes
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(hook_mode, hook_out),
                                stdout=so, stderr=se, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(
        argv=cli_args, out=out, hook_out=hook_out, returncode=proc.returncode,
        wall_s=ended - launched, peak_rss_mib=usage.ru_maxrss / 1024.0,
        steal_frac=steal_share(stat0, cpu_times()), launched=launched,
        stdout=(work / "stdout").read_text(errors="replace"),
        stderr=(work / "stderr").read_text(errors="replace"),
    )
    inv.hooks = [json.loads(p.read_text()) for p in sorted(hook_out.glob("hook-*.json"))]
    return inv


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def discard(inv: Invocation) -> None:
    shutil.rmtree(inv.out.parent, ignore_errors=True)


def src_digest() -> str:
    """sha256 over the package sources: identifies the program measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lazytd").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


PROVENANCE_SCRIPT = r"""
import json, os, platform, sys
import numpy, lazytd, lazytd.cli, lazytd.experiments
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "lazytd_file": lazytd.__file__,
    "lazytd_version": lazytd.__version__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""


def provenance() -> dict:
    """What the measured processes run on. Importing the package here also
    fills its bytecode cache before anything is timed. Raises RuntimeError
    when the checkout's own lazytd cannot be imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    res = subprocess.run([sys.executable, "-c", PROVENANCE_SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"cannot import lazytd from {SRC}: {res.stderr.strip()[-500:]}")
    info = json.loads(res.stdout.strip().splitlines()[-1])
    if Path(info["lazytd_file"]).resolve().parent != (SRC / "lazytd").resolve():
        raise RuntimeError(f"lazytd imported from {info['lazytd_file']}, not from {SRC}")
    info.update(
        lazytd_git_commit=git_commit(),
        lazytd_src_sha256=src_digest(),
        nproc=len(os.sched_getaffinity(0)),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
    )
    return info
