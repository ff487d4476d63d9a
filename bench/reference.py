"""Host speed next to the program, from a fixed reference loop.

The benchmark shares a few cores of a host with other tenants.  They slow
every instruction, CPU time as much as wall time, by up to 2x, in phases from
a few seconds to minutes: longer than a run, so no amount of repetition inside
one run averages them out.  What does follow them is a fixed piece of work
timed right next to the program.

`run` times one slice of that work.  A slice has three parts, one for each
kind of work the workloads do, none of it from divalg, so no change to the
program changes it:

- `_tuples`: permutations of 6 points acting on a 6 x 6 table by tuple
  building and indexing, like the monads kernels;
- `_parser`: building an argparse parser with nested subcommands, parsing a
  command line and writing JSON, like `cli.run`;
- `_arrays`: small int64 numpy vectors contracted with a rank-3 tensor, like
  the rings and nimreps classifiers.

Other tenants slow the three by different amounts (the tight tuple loop the
most), and a workload by an amount in between.  The parts are sized to take
1 : 1 : 2 of a slice on the quiet host the benchmark was tuned on; that mix
tracked all three benchmark workloads best (README.md).

`pace` is the median of `SLICES` slices in a row.  `scale` turns each
verdict's measured time into seconds of the quiet host: measured time x
NOMINAL_S / the mean of the paces taken just before and just after it.

Set-up (starting an interpreter, importing numpy and divalg) has its own
reference: `startup` times a fresh interpreter that imports numpy, whose
quiet-host time is NOMINAL_STARTUP_S.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

POINTS = 6
TABLE = tuple((3 * a + 5 * b + a * b) % POINTS for a in range(POINTS) for b in range(POINTS))
PERMUTATIONS = tuple(itertools.permutations(range(POINTS)))[::3]
TENSOR = np.arange(POINTS ** 3, dtype=np.int64).reshape(POINTS, POINTS, POINTS) % 3
CONTRACTIONS = 250
# a slice's time on an otherwise idle 2-vCPU Intel Xeon VM (2.0 GHz, 105 MB L3)
NOMINAL_S = 0.0047
SLICES = 3
# a pace is taken between verdicts once this much time has passed since the last
EVERY_S = 0.15
# `startup` on the same VM
NOMINAL_STARTUP_S = 0.14


def _tuples() -> int:
    seen = set()
    for perm in PERMUTATIONS:
        inverse = [0] * POINTS
        for i, p in enumerate(perm):
            inverse[p] = i
        seen.add(tuple(perm[TABLE[inverse[a] * POINTS + inverse[b]]]
                       for a in range(POINTS) for b in range(POINTS)))
    return len(seen)


def _parser() -> str:
    parser = argparse.ArgumentParser(prog="reference", description="fixed reference parser")
    parser.add_argument("--format", choices=["json", "markdown"], default="json")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma"):
        leaves = commands.add_parser(name, help=name).add_subparsers(dest="leaf", required=True)
        for leaf in ("validate", "classify"):
            sub = leaves.add_parser(leaf, help=leaf)
            sub.add_argument("--builtin")
            sub.add_argument("--object", required=True)
            sub.add_argument("--side", choices=["left", "right"], default="left")
            sub.add_argument("--flag", action="store_true")
    args = parser.parse_args(["beta", "classify", "--object", "1,0,2", "--side", "right"])
    return json.dumps({"payload": vars(args), "ok": True}, sort_keys=True, indent=2)


def _arrays() -> int:
    total = 0
    for i in range(CONTRACTIONS):
        x = np.zeros(POINTS, dtype=np.int64)
        x[i % POINTS] = 1
        x[(i * 5) % POINTS] += 1
        y = np.einsum("a,abc->bc", x, TENSOR)
        total += int((y @ x == TENSOR[0, 0]).sum()) + int(np.argmax(y.sum(axis=0)))
    return total


def run() -> float:
    """Seconds for one slice of the reference work."""
    start = perf_counter()
    _tuples()
    _parser()
    _arrays()
    return perf_counter() - start


def pace() -> float:
    """Median time of `SLICES` slices in a row."""
    return statistics.median(run() for _ in range(SLICES))


def startup(cwd) -> float:
    """Seconds for a fresh interpreter to start, import numpy and exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def scale(durations: list[float], paces: dict[int, float], nominal: float = NOMINAL_S) -> list[float]:
    """Each duration in quiet-host seconds.

    `paces[i]` is the reference time measured just before duration i (index
    len(durations) is the one after the last); it must hold index 0 and
    index len(durations).  `nominal` is that reference's quiet-host time.
    """
    marks = sorted(paces)
    out = []
    for index, duration in enumerate(durations):
        before = paces[marks[bisect.bisect_right(marks, index) - 1]]
        after = paces[marks[bisect.bisect_right(marks, index)]]
        out.append(duration * nominal * 2 / (before + after))
    return out
