#!/usr/bin/env python3
"""Compare two sets of perfbench results.

Each set is a directory of files named <workload>-<seed>.out holding one
run's standard output (the last line is the result JSON). For every
workload x end-to-end metric the tool prints each side's median and
quartiles, the spread (quartile distance / median; for time metrics also
the spread of the raw CPU figures the report prints beside them), and
whether the pair agrees within the bounds in BENCHMARK.json: each side's
spread within the bound (setup_s exempt) and the second median no worse
than the first by more than the bound. A spread above a third of its
bound is flagged but not a disagreement.

    python3 perfbench/compare.py SET_A [SET_B]

With one set it prints that set's figures and spreads only. Exit status
is 1 when any pair disagrees or any run failed.
"""

import json
import os
import re
import statistics
import sys


def load(dirname):
    runs = {}
    for name in sorted(os.listdir(dirname)):
        if not name.endswith(".out"):
            continue
        workload = name[: -len(".out")].rsplit("-", 1)[0]
        with open(os.path.join(dirname, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        run = json.loads(lines[-1]) if lines else None
        if run:
            # The report prints each time metric's raw CPU figure beside it.
            run["raw"] = {m.group(1): float(m.group(2)) for m in map(RAW.match, lines) if m}
        runs.setdefault(workload, []).append(run)
    return runs


RAW = re.compile(r"^  (\S+)\s+\S+\s+\S+\s+.*raw CPU ([0-9.]+)")


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load(d) for d in argv[1:]]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for i, s in enumerate(sets):
            rs = s.get(workload, [])
            bad = [r for r in rs if r is None or not r["correct"] or r["failed"]]
            print(f"{workload}: set {'AB'[i]}: {len(rs)} runs, {len(bad)} failed or incorrect")
            ok = ok and not bad and len(rs) >= 2
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            cols, sides = [], []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s.get(workload, []) if r]
                if len(vals) < 2:
                    cols.append("n/a")
                    sides.append(None)
                    continue
                med, q1, q3, spread = stats(vals)
                sides.append((med, spread))
                col = f"{med:12.4f} [{q1:.4f} {q3:.4f}] spread {100*spread:5.2f}%"
                raw = [r["raw"][name] for r in s.get(workload, []) if r and name in r["raw"]]
                if len(raw) >= 2:
                    col += f" (raw CPU spread {100*stats(raw)[3]:5.2f}%)"
                cols.append(col)
            verdict = []
            for med_spread in sides:
                if med_spread is None:
                    verdict.append("missing")
                elif name != "setup_s" and med_spread[1] > bound:
                    verdict.append("spread>bound")
                elif name != "setup_s" and med_spread[1] > bound / 3:
                    verdict.append("spread>bound/3")
            if len(sides) == 2 and None not in sides:
                a, b = sides[0][0], sides[1][0]
                worse = (b - a) / a if lower else (a - b) / a
                cols.append(f"B vs A {100*(b-a)/a:+6.2f}%")
                if worse > bound:
                    verdict.append("B worse than bound")
            hard = [v for v in verdict if v != "spread>bound/3"]
            ok = ok and not hard
            print(f"  {name:22s} bound {100*bound:4.1f}%  " + "  |  ".join(cols)
                  + "  " + ("AGREE" if not hard else "DISAGREE") + (" (" + ", ".join(verdict) + ")" if verdict else ""))
    print("all pairs agree" if ok else "some pairs disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
