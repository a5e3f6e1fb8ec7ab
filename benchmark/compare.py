#!/usr/bin/env python3
"""Compare two result files of the suite: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change; both were written
by ``run.py --out``.  One row per workload x end-to-end metric with both
medians, the ratio ``B/A`` and a verdict by the ``choosing-metrics`` rules:

* ``regressed`` — B's median is worse than A's by more than the metric's
  bound (``worse`` means larger for every metric here: all are costs);
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound, so "no change" cannot be claimed, unless every run of B reads
  better than every run of A;
* ``ok`` — otherwise.

Exits 1 on any ``regressed`` row, on a higher failed share, or when a
side's checks failed; ``unresolved`` rows do not fail the comparison.
"""

from __future__ import annotations

import json
import sys


def verdict(base: dict, change: dict, bound: float) -> str:
    if change["median"] > base["median"] * (1 + bound):
        return "regressed"
    all_better = max(change["values"]) < min(base["values"])
    if max(base["spread"], change["spread"]) > bound and not all_better:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = (json.load(open(path)) for path in argv)
    bounds = {spec["name"]: spec["bound"] for spec in base["end_to_end"]}
    bad = False
    print(f"base {argv[0]} @ {base['host']['commit']}   "
          f"change {argv[1]} @ {change['host']['commit']}")
    print(f"{'workload':<13}{'metric':<18}{'base':>12}{'change':>12}"
          f"{'change/base':>13}{'bound':>7}  verdict")
    for name, a in base["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            print(f"{name:<13}missing from the change")
            bad = True
            continue
        for metric, bound in bounds.items():
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            result = verdict(x, y, bound)
            bad = bad or result == "regressed"
            print(f"{name:<13}{metric:<18}{x['median']:>12.4f}{y['median']:>12.4f}"
                  f"{y['median'] / x['median']:>13.3f}{bound:>7.2f}  {result}")
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        note = ""
        if share_b > share_a:
            note, bad = "  HIGHER FAILED SHARE", True
        if not (a["correct"] and b["correct"]):
            note, bad = note + "  CHECKS FAILED", True
        same = a["result_digest"] == b["result_digest"]
        print(f"{name:<13}failed {a['failed']}/{a['attempted']} -> "
              f"{b['failed']}/{b['attempted']}; simulated results "
              f"{'identical' if same else 'differ'}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
