"""Summarise or compare run records written by ``run.py --out``.

    python3 perfbench/compare.py RUNS.jsonl                 # spread of one set
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl  # verdict of a change

Only untraced runs are read.  Each workload gets its own rows: the median and
quartiles (``statistics.quantiles(n=4)``) of every end-to-end metric named in
BENCHMARK.json.  With one file the verdict is whether the spread, the
quartile distance over the median, is under a third of the metric's bound.
With two, a metric regresses when the change's median is worse than the
parent's by more than the bound; it is unresolved when the parent's own
spread exceeds the bound, unless every change run beats every parent run.
The exit status is 1 when any metric regresses or is not steady.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """workload -> metric -> values, plus workload -> [failed, attempted]."""
    values = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            for name, m in rec["metrics"].items():
                values[rec["workload"]][name].append(m["value"])
            failures[rec["workload"]][0] += rec["failed"]
            failures[rec["workload"]][1] += rec["attempted"]
    return values, failures


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2


def worse_share(base, change, better):
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    return (change - base) / base if better == "lower" else (base - change) / base


def main(argv) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    sets = [load(p) for p in argv]
    bad = False
    print(f"{'workload':<22} {'metric':<13} {'n':>3} " +
          " ".join(f"{h:>32}" for h in (["runs"] if len(sets) == 1 else ["parent", "change"]))
          + "  verdict")
    for workload in sorted(sets[0][0]):
        for m in spec["end_to_end"]:
            cols = []
            series = [s[0][workload][m["name"]] for s in sets]
            for xs in series:
                q1, q2, q3 = quartiles(xs)
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] ±{spread(xs):.1%}")
            if len(sets) == 1:
                steady = m["name"] == "setup_s" or spread(series[0]) < m["bound"] / 3
                verdict = "steady" if steady else f"NOT STEADY (bound/3 = {m['bound'] / 3:.1%})"
                bad |= not steady
            else:
                base, change = series
                delta = worse_share(statistics.median(base), statistics.median(change),
                                    m["better"])
                clear_win = all(worse_share(b, c, m["better"]) < 0 for b in base for c in change)
                change_text = f"{delta:.1%} worse" if delta > 0 else f"{-delta:.1%} better"
                if delta > m["bound"]:
                    verdict, bad = f"REGRESSED, {change_text}", True
                elif spread(base) > m["bound"] and not clear_win:
                    verdict = f"unresolved, {change_text}"
                else:
                    verdict = f"ok, {change_text}"
            print(f"{workload:<22} {m['name']:<13} {len(series[0]):>3} "
                  + " ".join(f"{c:>32}" for c in cols) + f"  {verdict}")
        fails = "  ".join(f"{f}/{a}" for f, a in (s[1][workload] for s in sets))
        print(f"{workload:<22} {'failed':<13}     {fails}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
