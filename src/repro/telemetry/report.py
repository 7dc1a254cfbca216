"""Fleet reports: aggregate campaign + fuzz JSONL into one HTML document.

``repro.cli report`` is the read side of the fleet observability layer:
given any mix of campaign records files and fuzz session directories, it
produces a single self-contained HTML report (inline CSS + SVG, no
external assets, no dependencies) with the paper-facing statistics:

* outcome mix per source and overall (pass / fail / crashed / hung);
* **containment-time percentiles** — p50/p95/p99 over every completed
  recovery episode observed across all sources (each record's
  ``recovery.timeline``), recomputed over the raw durations rather than
  averaged over per-run figures — the headline distribution (PAPERS.md:
  containment-time distributions for self-stabilizing systems) plus its
  bucket histogram;
* **blast-radius distribution** — how many nodes each injected fault
  actually reached (forensic summaries), the observational containment
  evidence;
* **coverage growth** — the fuzz sessions' distinct-feature curve over
  finished runs, showing whether the mutation loop is still finding new
  behaviour.

The same aggregate is available as JSON (``--json``) for dashboards.
"""

import html
import json
import os
import sys

from repro.campaign.records import RunStatus, load_json_lines
from repro.telemetry.metrics import Histogram, containment_times_ms

_STATUSES = tuple(status.value for status in RunStatus)

_STATUS_COLORS = {RunStatus.PASS: "#2e7d32", RunStatus.FAIL: "#c62828",
                  RunStatus.CRASHED: "#6a1b9a", RunStatus.HUNG: "#ef6c00"}


# ------------------------------------------------------------- collection

def collect_sources(paths):
    """Resolve CLI paths into ``{path, kind, records}`` sources.

    A directory stands for the ``records.jsonl`` inside it.  Every file
    holds one record shape (:class:`~repro.campaign.records.RunRecord`);
    a source is a fuzz session iff its records carry a ``fuzz`` section.
    """
    sources = []
    for path in paths:
        records = load_json_lines(
            os.path.join(path, "records.jsonl") if os.path.isdir(path)
            else path)
        kind = ("fuzz" if any(record.get("fuzz") for record in records)
                else "campaign")
        sources.append({"path": path, "kind": kind, "records": records})
    return sources


# ------------------------------------------------------------ aggregation

def aggregate(sources):
    """Fold sources into the report aggregate (JSON-friendly)."""
    outcomes = {status: 0 for status in _STATUSES}
    containment = Histogram()
    blast = {}
    growth = []
    per_source = []
    fuzz_runs = 0

    for source in sources:
        counts = {status: 0 for status in _STATUSES}
        for record in source["records"]:
            status = record.get("status", RunStatus.CRASHED.value)
            counts[status] = counts.get(status, 0) + 1
            outcomes[status] = outcomes.get(status, 0) + 1
            for duration_ms in containment_times_ms(record.get("metrics")):
                containment.observe(duration_ms)
            for fault in (record.get("forensics") or {}).get("faults", ()):
                radius = len(fault.get("blast_nodes", ()))
                blast[radius] = blast.get(radius, 0) + 1
        per_source.append({
            "path": source["path"],
            "kind": source["kind"],
            "runs": len(source["records"]),
            "counts": counts,
        })
        if source["kind"] == "fuzz":
            seen = 0
            for record in source["records"]:    # file = accounting order
                fuzz = record.get("fuzz") or {}
                seen += len(fuzz.get("new_features", ()))
                fuzz_runs += 1
                growth.append((fuzz_runs, seen))

    total = sum(outcomes.values())
    return {
        "sources": per_source,
        "runs": total,
        "outcomes": outcomes,
        "containment_ms": {
            "count": containment.count,
            "mean": round(containment.mean, 6) if containment.count else None,
            "p50": containment.percentile(50),
            "p95": containment.percentile(95),
            "p99": containment.percentile(99),
            "max": containment.max,
            "buckets": {str(bound): count for bound, count
                        in sorted(containment.buckets.items())},
        },
        "blast_radius": {str(radius): count for radius, count
                         in sorted(blast.items())},
        "coverage_growth": growth,
    }


# -------------------------------------------------------------- rendering

#: every chart's plot area in SVG user units (the page scales it to fit)
_CHART_W, _CHART_H = 640, 180


def _svg_bars(pairs, color):
    """Vertical bar chart of ``(label, value)`` pairs as inline SVG."""
    if not pairs:
        return "<p class='empty'>no data</p>"
    top = max(value for _, value in pairs) or 1
    pad, axis = 8, 22
    slot = (_CHART_W - pad * 2) / len(pairs)
    bar_w = max(2.0, slot * 0.7)
    parts = ["<svg viewBox='0 0 %d %d' role='img'>"
             % (_CHART_W, _CHART_H + axis)]
    for index, (label, value) in enumerate(pairs):
        bar_h = (_CHART_H - pad) * value / top
        x = pad + index * slot + (slot - bar_w) / 2
        y = _CHART_H - bar_h
        parts.append(
            "<rect x='%.1f' y='%.1f' width='%.1f' height='%.1f' "
            "fill='%s'><title>%s: %s</title></rect>"
            % (x, y, bar_w, bar_h, color,
               html.escape(str(label)), value))
        parts.append(
            "<text x='%.1f' y='%.1f' font-size='10' fill='#444' "
            "text-anchor='middle'>%s</text>"
            % (x + bar_w / 2, _CHART_H + 14, html.escape(str(label))))
        parts.append(
            "<text x='%.1f' y='%.1f' font-size='10' fill='#222' "
            "text-anchor='middle'>%s</text>"
            % (x + bar_w / 2, max(10.0, y - 3), value))
    parts.append("</svg>")
    return "".join(parts)


def _svg_line(points, color):
    """Line chart of ``(x, y)`` points as inline SVG."""
    if len(points) < 2:
        return "<p class='empty'>fewer than two points</p>"
    pad, axis = 8, 22
    x_max = max(x for x, _ in points) or 1
    y_max = max(y for _, y in points) or 1
    scale_x = (_CHART_W - pad * 2) / x_max
    scale_y = (_CHART_H - pad * 2) / y_max
    coords = " ".join(
        "%.1f,%.1f" % (pad + x * scale_x, _CHART_H - pad - y * scale_y)
        for x, y in points)
    last_x, last_y = points[-1]
    return (
        "<svg viewBox='0 0 %d %d' role='img'>"
        "<polyline points='%s' fill='none' stroke='%s' stroke-width='2'/>"
        "<text x='%.1f' y='%.1f' font-size='10' fill='#222' "
        "text-anchor='end'>%d features @ run %d</text>"
        "<text x='%.1f' y='%.1f' font-size='10' fill='#444'>runs -></text>"
        "</svg>"
        % (_CHART_W, _CHART_H + axis, coords, color,
           _CHART_W - pad, max(12.0, _CHART_H - pad - last_y * scale_y - 6),
           last_y, last_x, pad, _CHART_H + 14))


def _outcome_section(agg):
    pairs = [(status, agg["outcomes"].get(status, 0))
             for status in _STATUSES]
    bars = "".join(
        "<div class='chip' style='background:%s'>%s&nbsp;%d</div>"
        % (_STATUS_COLORS[RunStatus(status)], status, count)
        for status, count in pairs)
    rows = "".join(
        "<tr><td>%s</td><td>%s</td><td>%d</td>%s</tr>"
        % (html.escape(source["path"]), source["kind"], source["runs"],
           "".join("<td>%d</td>" % source["counts"].get(status, 0)
                   for status in _STATUSES))
        for source in agg["sources"])
    return (
        "<h2>Outcome mix — %d runs</h2><div class='chips'>%s</div>"
        "<table><tr><th>source</th><th>kind</th><th>runs</th>%s</tr>"
        "%s</table>" % (agg["runs"], bars,
                        "".join("<th>%s</th>" % status
                                for status in _STATUSES), rows))


def _containment_section(agg):
    stats = agg["containment_ms"]
    if not stats["count"]:
        return "<h2>Containment time</h2><p class='empty'>no recovery " \
               "episodes observed</p>"
    buckets = [(_bucket_label(bound), count)
               for bound, count in stats["buckets"].items()]
    return (
        "<h2>Containment time — %d episodes</h2>"
        "<p>p50=<b>%s ms</b> p95=<b>%s ms</b> p99=<b>%s ms</b> "
        "mean=%s ms max=%s ms</p>%s"
        % (stats["count"], stats["p50"], stats["p95"], stats["p99"],
           stats["mean"], stats["max"],
           _svg_bars(buckets, color="#1565c0")))


def _bucket_label(bound):
    value = float(bound)
    return ("<=%g" % value) if value < 1024 else "<=%gk" % (value / 1024)


def _blast_section(agg):
    blast = agg["blast_radius"]
    if not blast:
        return "<h2>Blast radius</h2><p class='empty'>no forensic " \
               "summaries in these records</p>"
    pairs = [("%s node(s)" % radius, count)
             for radius, count in sorted(blast.items(),
                                         key=lambda kv: int(kv[0]))]
    return ("<h2>Blast-radius distribution — %d audited fault(s)</h2>%s"
            % (sum(blast.values()), _svg_bars(pairs, color="#c62828")))


def _coverage_section(agg):
    growth = agg["coverage_growth"]
    if not growth:
        return "<h2>Coverage growth</h2><p class='empty'>no fuzz " \
               "sessions among the sources</p>"
    return ("<h2>Coverage growth — %d fuzz runs</h2>%s"
            % (growth[-1][0], _svg_line(growth, color="#2e7d32")))


_PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>%(title)s</title>
<style>
 body { font: 14px/1.5 -apple-system, "Segoe UI", sans-serif;
        margin: 2em auto; max-width: 720px; color: #1a1a1a; }
 h1 { font-size: 1.4em; border-bottom: 2px solid #1565c0;
      padding-bottom: .3em; }
 h2 { font-size: 1.1em; margin-top: 1.6em; }
 table { border-collapse: collapse; margin: .6em 0; width: 100%%; }
 th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: left;
          font-size: 13px; }
 th { background: #f0f4f8; }
 svg { width: 100%%; height: auto; background: #fafafa;
       border: 1px solid #eee; }
 .chips { margin: .4em 0; }
 .chip { display: inline-block; color: #fff; border-radius: 3px;
         padding: .15em .6em; margin-right: .4em; font-size: 13px; }
 .empty { color: #777; font-style: italic; }
 footer { margin-top: 2em; color: #777; font-size: 12px; }
</style></head><body>
<h1>%(title)s</h1>
%(sections)s
<footer>self-contained report — repro.cli report</footer>
</body></html>
"""


def render_html(agg, title="Fault-containment fleet report"):
    """The full self-contained HTML document for one aggregate."""
    sections = "\n".join([
        _outcome_section(agg),
        _containment_section(agg),
        _blast_section(agg),
        _coverage_section(agg),
    ])
    return _PAGE % {"title": html.escape(title), "sections": sections}


def write_report(paths, out_path, title="Fault-containment fleet report"):
    """Aggregate ``paths`` and write the HTML report; returns the
    aggregate."""
    agg = aggregate(collect_sources(paths))
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(render_html(agg, title=title))
    return agg


def print_report(paths, out_path, title, as_json=False):
    """``repro.cli report``: write the HTML report and print its headline
    (the whole aggregate as JSON with ``as_json``); returns the number of
    runs found, after a stderr note when there are none."""
    agg = write_report(paths, out_path, title=title)
    if as_json:
        print(json.dumps(dict(agg, out=out_path), sort_keys=True))
    else:
        print("report: %d run(s) from %d source(s) -> %s"
              % (agg["runs"], len(agg["sources"]), out_path))
        containment = agg["containment_ms"]
        if containment["count"]:
            print("  containment: %d episode(s)  p50=%s p95=%s p99=%s ms"
                  % (containment["count"], containment["p50"],
                     containment["p95"], containment["p99"]))
    if not agg["runs"]:
        print("report: no records found in: %s" % " ".join(paths),
              file=sys.stderr)
    return agg["runs"]
