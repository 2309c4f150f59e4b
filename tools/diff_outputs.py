"""Compare the output files of two lazytd source trees, run for run.

    python3 tools/diff_outputs.py PARENT CHANGE [CLI ARGS...]

PARENT and CHANGE are checkouts of the repository (each with its own
``src``). Every invocation runs once under each tree, as
``python -m lazytd.cli ARGS --out DIR`` with ``OPENBLAS_NUM_THREADS=1``,
into a temporary directory. The invocations are every benchmark workload
of ``bench/workloads.py`` (under CHANGE) at each of its stored seeds, plus
the spiral, narrow-net and sweep runs of ``EXTRA``; CLI ARGS given
after the two trees replace the list with that one invocation.

Exit codes, stdout and every output file must match byte for byte, apart
from the ``wall_clock`` figure in report.json and on stdout. Every file
that differs is printed with the start of its diff. A differing CSV or
JSON file (and stdout, a JSON summary) is also sized: the largest
relative difference over the numeric cells both versions hold at the same
place (row and column of a CSV, key path of a JSON file), and that place.
The exit code is 1 on any difference and 0 otherwise.
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
from pathlib import Path

# runs no benchmark workload covers: the spiral, the narrow net, the
# wide nets' rates in the rows of a discount sweep, the rank a sampled
# narrow net reports, and the wide net's decay certificate at two scalings
EXTRA = (
    ("spiral", "--alpha", "100"),
    ("spiral", "--mode", "stochastic", "--horizon", "20000"),
    ("nn", "--regime", "under"),
    ("sweep", "--kind", "gamma", "--grid", "0.85,0.9"),
    ("nn", "--regime", "under", "--mode", "stochastic", "--horizon", "20000"),
    ("sweep", "--kind", "alpha", "--grid", "500,5000"),
)
WALL_CLOCK = re.compile(rb'("wall_clock": )[-+0-9.eE]+')
DIFF_LINES = 12


def invocations(change: Path) -> list[list[str]]:
    sys.path.insert(0, str(change / "bench"))
    import workloads

    runs = [w.cli_args(seed) for w in workloads.WORKLOADS.values() for seed in w.lazytd_seeds]
    return runs + [list(argv) for argv in EXTRA]


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


def largest_relative_difference(name: str, a: bytes, b: bytes) -> str | None:
    """Where two versions of a CSV or JSON file differ most in a numeric
    cell, |a - b| / max(|a|, |b|) over the places both hold (inf when a
    differing cell is not finite); None for other files."""
    cells_a, cells_b = leaves(name, a), leaves(name, b)
    if cells_a is None or cells_b is None:
        return None
    worst, where = 0.0, None
    for place in sorted(cells_a.keys() & cells_b.keys()):
        x, y = number(cells_a[place]), number(cells_b[place])
        if x is None or y is None or x == y or (math.isnan(x) and math.isnan(y)):
            continue
        finite = math.isfinite(x) and math.isfinite(y)
        rel = abs(x - y) / max(abs(x), abs(y)) if finite else math.inf
        if where is None or rel > worst:
            worst, where = rel, place
    one_side = len(cells_a.keys() ^ cells_b.keys())
    text = "no numeric cell differs" if where is None else \
        f"largest relative difference {worst:.3e} at {where}"
    return text + (f"; places under one tree only: {one_side}" if one_side else "")


def compare(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One entry per differing file: its name, its largest relative
    difference (CSV and JSON files) and the start of its diff."""
    differing = []
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
        size = largest_relative_difference(name, a, b)
        differing.append("\n    ".join([name, *([size] if size else []), *lines[:DIFF_LINES],
                                          *more]))
    return differing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    todo = [argv[2:]] if len(argv) > 2 else invocations(change)
    status = 0
    with tempfile.TemporaryDirectory(prefix="diff_outputs-") as tmp:
        for i, args in enumerate(todo):
            outputs = []
            for tree, label in ((parent, "parent"), (change, "change")):
                out = Path(tmp) / f"{i}-{label}" / "out"
                out.parent.mkdir()
                outputs.append(run(tree, args, out))
            differing = compare(*outputs)
            print(f"{'DIFFERS' if differing else 'same   '}  {' '.join(args)}")
            for entry in differing:
                print(f"  {entry}")
            status |= bool(differing)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
