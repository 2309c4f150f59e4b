"""Compare the output files of two lazytd source trees, run for run.

    python3 tools/diff_outputs.py PARENT CHANGE [CLI ARGS...]

PARENT and CHANGE are checkouts of the repository (each with its own
``src``). Every invocation runs once under each tree, as
``python -m lazytd.cli ARGS --out DIR`` with ``OPENBLAS_NUM_THREADS=1``,
into a temporary directory. The invocations are every benchmark workload
of ``bench/workloads.py`` (under CHANGE) at each of its stored seeds, plus
the spiral, narrow-net and sweep runs of ``EXTRA`` and the lambda = 0.5
network runs of ``CONFIGS`` (averaged and sampled), each written as a JSON
config into the temporary directory and run with ``--config`` (the CLI has
no lambda flag); CLI ARGS given after the two trees replace the list with
that one invocation.

Exit codes, stdout and every output file must match byte for byte, apart
from the ``wall_clock`` figure in report.json and on stdout. Every file
that differs is printed with the start of its diff. A differing CSV or
JSON file (and stdout, a JSON summary) is also sized over the numeric
cells both versions hold at the same place (row and column of a CSV, key
path of a JSON file): its largest relative difference, the absolute
difference at that place, and its largest absolute difference where that
lies elsewhere. A quantity at the rounding floor can differ hugely in
relative terms and negligibly in absolute ones. The last line gives the
same sizes over every invocation. The exit code is 1 on any difference
and 0 otherwise.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

# runs no benchmark workload covers: the spiral, the narrow net, the
# wide nets' rates in the rows of a discount sweep (serial, and on more
# workers than runs), the rank a sampled narrow net reports, and the wide
# net's decay certificate at two scalings
EXTRA = (
    ("spiral", "--alpha", "100"),
    ("spiral", "--mode", "stochastic", "--horizon", "20000"),
    ("nn", "--regime", "under"),
    ("sweep", "--kind", "gamma", "--grid", "0.85,0.9"),
    ("sweep", "--kind", "gamma", "--grid", "0.85,0.9", "--workers", "3"),
    ("nn", "--regime", "under", "--mode", "stochastic", "--horizon", "20000"),
    ("sweep", "--kind", "alpha", "--grid", "500,5000"),
)
# network runs at lambda = 0.5, so that the backup's resolvent is covered
# off lambda = 0: the narrow default and a small wide net, averaged and
# sampled (the sampled engine's trace is read only off lambda = 0)
CONFIGS = (
    {"experiment": "nn-under", "params": {"lam": 0.5}},
    {"experiment": "nn-over", "seed": 3, "params": {"lam": 0.5, "n_units": 40, "n_states": 12}},
    {"experiment": "nn-over", "seed": 3, "params": {"lam": 0.5, "n_units": 40, "n_states": 12,
                                                    "mode": "stochastic", "horizon": 20000}},
)
WALL_CLOCK = re.compile(rb'("wall_clock": )[-+0-9.eE]+')
DIFF_LINES = 12


def invocations(change: Path, tmp: Path) -> list[list[str]]:
    """Every invocation of the full list; the ``CONFIGS`` files go into tmp."""
    sys.path.insert(0, str(change / "bench"))
    import workloads

    runs = [w.cli_args(seed) for w in workloads.WORKLOADS.values() for seed in w.lazytd_seeds]
    runs += [list(argv) for argv in EXTRA]
    for i, config in enumerate(CONFIGS):
        path = tmp / f"config-{i}-{config['experiment']}.json"
        path.write_text(json.dumps(config))
        runs.append([config["experiment"].split("-")[0], "--config", str(path)])
    return runs


def run(tree: Path, argv: list[str], out: Path) -> dict[str, bytes]:
    """Exit code, stdout and every output file of one invocation, keyed by
    name, with wall_clock blanked."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    env.pop("LAZYTD_BENCH_HOOK", None)
    proc = subprocess.run([sys.executable, "-m", "lazytd.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, cwd=out.parent)
    found = {"<exit code>": str(proc.returncode).encode(), "<stdout>": proc.stdout}
    if proc.returncode != 0:
        found["<stderr>"] = proc.stderr
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        found[str(path.relative_to(out))] = path.read_bytes()
    return {k: WALL_CLOCK.sub(rb"\1null", v) for k, v in found.items()}


def leaves(name: str, data: bytes) -> dict | None:
    """Every cell of a CSV file or leaf of a JSON file (stdout is the JSON
    summary), keyed by its place; None for other files and for files that
    do not parse."""
    text = data.decode(errors="replace")
    try:
        if name.endswith(".csv"):
            header, *rows = csv.reader(io.StringIO(text))
            return {f"row {i + 1}, {col}": cell
                    for i, row in enumerate(rows) for col, cell in zip(header, row)}
        if name.endswith(".json") or name == "<stdout>":
            found = {}

            def walk(node, at):
                if isinstance(node, dict):
                    for key, value in node.items():
                        walk(value, f"{at}.{key}" if at else key)
                elif isinstance(node, list):
                    for i, value in enumerate(node):
                        walk(value, f"{at}[{i}]")
                else:
                    found[at] = node

            walk(json.loads(text), "")
            return found
    except ValueError:
        pass
    return None


def number(cell) -> float | None:
    """The cell as a float, None when it is not a number (booleans and
    nulls included)."""
    if cell is None or isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


@dataclass
class Size:
    """How far two versions of a file lie apart in their numeric cells:
    the largest relative difference |a - b| / max(|a|, |b|) (inf when a
    differing cell is not finite), the absolute difference at its place,
    and the largest absolute difference over all places."""

    rel: float = 0.0
    rel_abs: float = 0.0
    rel_at: str | None = None
    absolute: float = 0.0
    absolute_at: str | None = None

    def add(self, rel: float, diff: float, at: str):
        """Take in one differing cell."""
        self.merge(Size(rel, diff, at, diff, at))

    def merge(self, other: Size, prefix: str = ""):
        """Take in the Size of other places, their names given ``prefix``."""
        if other.rel_at is None:
            return
        if self.rel_at is None or other.rel > self.rel:
            self.rel, self.rel_abs, self.rel_at = other.rel, other.rel_abs, prefix + other.rel_at
        if self.absolute_at is None or other.absolute > self.absolute:
            self.absolute, self.absolute_at = other.absolute, prefix + other.absolute_at

    def __str__(self) -> str:
        if self.rel_at is None:
            return "no numeric cell differs"
        text = (f"largest relative difference {self.rel:.3e} (absolute {self.rel_abs:.3e})"
                f" at {self.rel_at}")
        if self.absolute_at != self.rel_at:
            text += f"; largest absolute difference {self.absolute:.3e} at {self.absolute_at}"
        return text


def difference_size(name: str, a: bytes, b: bytes) -> tuple[Size, int] | None:
    """The Size of two versions of a CSV or JSON file over the places both
    hold, and the number of places only one holds; None for other files."""
    cells_a, cells_b = leaves(name, a), leaves(name, b)
    if cells_a is None or cells_b is None:
        return None
    size = Size()
    for place in sorted(cells_a.keys() & cells_b.keys()):
        x, y = number(cells_a[place]), number(cells_b[place])
        if x is None or y is None or x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if math.isfinite(x) and math.isfinite(y):
            size.add(abs(x - y) / max(abs(x), abs(y)), abs(x - y), place)
        else:
            size.add(math.inf, math.inf, place)
    return size, len(cells_a.keys() ^ cells_b.keys())


def compare(parent: dict[str, bytes], change: dict[str, bytes]) -> tuple[list[str], Size]:
    """One entry per differing file: its name, its largest relative
    difference with the absolute difference at that place (CSV and JSON
    files) and the start of its diff; and the Size over all files, with
    each place prefixed by its file's name."""
    differing, total = [], Size()
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a == b:
            continue
        if a is None or b is None:
            differing.append(f"{name}: only under {'CHANGE' if a is None else 'PARENT'}")
            continue
        diff = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                    b.decode(errors="replace").splitlines(),
                                    "PARENT", "CHANGE", n=0, lineterm="")
        lines = list(diff)[2:]
        more = [f"... {len(lines) - DIFF_LINES} more lines"] if len(lines) > DIFF_LINES else []
        sized = difference_size(name, a, b)
        head = []
        if sized:
            size, one_side = sized
            total.merge(size, f"{name} ")
            head = [str(size) + (f"; places under one tree only: {one_side}" if one_side else "")]
        differing.append("\n    ".join([name, *head, *lines[:DIFF_LINES], *more]))
    return differing, total


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    status, overall = 0, Size()
    with tempfile.TemporaryDirectory(prefix="diff_outputs-") as tmp:
        todo = [argv[2:]] if len(argv) > 2 else invocations(change, Path(tmp))
        for i, args in enumerate(todo):
            outputs = []
            for tree, label in ((parent, "parent"), (change, "change")):
                out = Path(tmp) / f"{i}-{label}" / "out"
                out.parent.mkdir()
                outputs.append(run(tree, args, out))
            differing, size = compare(*outputs)
            print(f"{'DIFFERS' if differing else 'same   '}  {' '.join(args)}")
            for entry in differing:
                print(f"  {entry}")
            overall.merge(size, f"{' '.join(args)}: ")
            status |= bool(differing)
    print(f"over all invocations: {overall}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
