"""Compare two suite outputs of ``benchmarks.e2e.run --out``.

``python -m benchmarks.e2e.compare PARENT.json CHANGE.json`` prints one row
per (workload, end-to-end metric) with the verdict the bounds in
BENCHMARK.json give:

* ``worse`` — the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved`` — not worse, but either side's run-to-run spread
  (interquartile range over median, needs ``--repeats`` >= 2) is wider
  than the bound, and the change's runs are not all better than all of
  the parent's;
* ``ok`` — otherwise.

``fail_share`` and ``sim_digest`` are exact: any difference is ``worse``.
Exits 1 on any ``worse`` row, 2 when the files cannot be compared.
"""

import json
import statistics
import sys

from benchmarks.e2e.run import benchmark_spec


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(parent, change, better, bound):
    """Verdict for one metric from the two sides' per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / base
    if worsening > bound:
        return "worse", worsening
    all_better = max(sign * value for value in change) \
        < min(sign * value for value in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", worsening
    return "ok", worsening


def compare(parent, change, spec):
    """Rows ``(workload, metric, verdict, detail)`` for two suite payloads."""
    rows = []
    for name in (entry["name"] for entry in spec["workloads"]):
        old, new = parent["workloads"][name], change["workloads"][name]
        same = old["sim_digest"] == new["sim_digest"]
        rows.append((name, "sim_digest", "ok" if same else "worse",
                     "identical" if same else "simulated statistics differ"))
        fails = [[(run["failed"], run["attempted"]) for run in side["runs"]]
                 for side in (old, new)]
        same = set(fails[0]) == set(fails[1])
        rows.append((name, "fail_share", "ok" if same else "worse",
                     "%d of %d" % fails[1][0] if same
                     else "%r -> %r" % tuple(fails)))
        for metric in spec["end_to_end"]:
            values = [[run["metrics"][metric["name"]]["value"]
                       for run in side["runs"]] for side in (old, new)]
            status, worsening = verdict(values[0], values[1],
                                        metric["better"], metric["bound"])
            rows.append((name, metric["name"], status,
                         "%.6g -> %.6g %s (%+.1f%% worse, bound %.0f%%, "
                         "spread %.1f%%/%.1f%%, n=%d/%d)" % (
                             statistics.median(values[0]),
                             statistics.median(values[1]), metric["unit"],
                             100 * worsening, 100 * metric["bound"],
                             100 * spread(values[0]),
                             100 * spread(values[1]),
                             len(values[0]), len(values[1]))))
    return rows


def main(argv=None):
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__)
        return 2
    payloads = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    settings = [{key: payload["meta"][key]
                 for key in ("seed", "seconds", "smoke")}
                for payload in payloads]
    if settings[0] != settings[1]:
        print("not comparable: %r vs %r" % tuple(settings))
        return 2
    rows = compare(payloads[0], payloads[1], benchmark_spec())
    for workload, metric, status, detail in rows:
        print("%-14s %-16s %-10s %s" % (workload, metric, status, detail))
    return 1 if any(row[2] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
