"""Fleet status sidecars: atomically-updated ``status.json`` heartbeats.

A 100k-schedule sweep (the ROADMAP's distributed campaign fabric) is only
operable if a running batch can be *asked how it is doing* without
attaching to its stderr.  The campaign runner — generator campaigns,
replays and fuzz sessions alike — is the one caller of the one driving
loop (:meth:`repro.campaign.pool.BatchWorkerPool.drive`), which ticks it
at least every half second with the runs in flight; this module turns
that tick into a structured heartbeat:

* the runner owns a :class:`StatusWriter` pointed at a sidecar next to
  its output (``<records>.status.json`` for campaigns,
  ``<out_dir>/status.json`` for fuzz sessions);
* every update writes the *whole* status document to a temp file and
  ``os.replace``-s it into place, so a concurrent reader (``repro.cli
  status``, a dashboard, another agent) never sees a torn JSON —
  the same atomicity story as the JSONL append-and-resume contract;
* updates are throttled (:attr:`StatusWriter.min_interval_s`) so a burst
  of sub-second runs does not turn the sidecar into an I/O hot spot; the
  terminal update is forced so the final document always says
  ``finished``.

The document is deliberately self-contained: kind, pid, wall-clock
progress, outcome counts, in-flight runs with their ages, a rate/ETA
estimate, and planner-specific extras (coverage and corpus sizes for fuzz
sessions).
"""

import json
import os
import time


class StatusWriter:
    """Owns one status sidecar; every ``update`` is an atomic replace."""

    def __init__(self, path, kind, total=None, min_interval_s=0.5):
        self.path = path
        self.kind = kind
        self.total = total
        self.min_interval_s = min_interval_s
        self.started = time.time()
        self.started_monotonic = time.monotonic()
        self._last_write = None

    def update(self, done=0, counts=None, in_flight=None, extras=None,
               finished=False, force=False):
        """Write the current status document (throttled unless forced)."""
        now = time.monotonic()
        if (not force and not finished and self._last_write is not None
                and now - self._last_write < self.min_interval_s):
            return False
        self._last_write = now
        elapsed = now - self.started_monotonic
        rate = done / elapsed if elapsed > 0 and done else None
        remaining = (self.total - done
                     if self.total is not None and done is not None else None)
        payload = {
            "kind": self.kind,
            "pid": os.getpid(),
            "started_at": self.started,
            "updated_at": time.time(),
            "elapsed_s": round(elapsed, 3),
            "total": self.total,
            "done": done,
            "counts": dict(counts or {}),
            "in_flight": list(in_flight or ()),
            "rate_per_s": round(rate, 4) if rate else None,
            "eta_s": (round(remaining / rate, 1)
                      if rate and remaining is not None and remaining > 0
                      else None),
            "finished": finished,
        }
        if extras:
            payload["extras"] = dict(extras)
        _atomic_write_json(self.path, payload)
        return True


def _atomic_write_json(path, payload):
    """Write-then-rename so readers never observe a torn document."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def status_sidecar_path(path):
    """The sidecar a given campaign/fuzz output path implies.

    Accepts the sidecar itself, a fuzz session directory, or a campaign
    records path (``x.jsonl`` -> ``x.jsonl.status.json``).
    """
    if os.path.isdir(path):
        return os.path.join(path, "status.json")
    if path.endswith(".status.json") or os.path.basename(path) == \
            "status.json":
        return path
    return path + ".status.json"


def read_status(path):
    """Load a status document (resolving the sidecar path); None if absent
    or torn mid-write on a filesystem without atomic rename."""
    sidecar = status_sidecar_path(path)
    try:
        with open(sidecar, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, ValueError):
        return None


def format_status(payload):
    """Human-readable live view of one status document."""
    age = time.time() - payload.get("updated_at", 0.0)
    state = "finished" if payload.get("finished") else (
        "running" if age < 30.0 else "STALE (%.0fs since heartbeat)" % age)
    lines = ["%s sweep [%s]  pid=%s" % (payload.get("kind", "?"), state,
                                        payload.get("pid"))]
    total = payload.get("total")
    done = payload.get("done", 0)
    progress = ("%d/%d" % (done, total)) if total else "%d" % done
    line = "  progress: %s runs in %.1fs" % (progress,
                                             payload.get("elapsed_s", 0.0))
    if payload.get("rate_per_s"):
        line += "  (%.2f runs/s" % payload["rate_per_s"]
        if payload.get("eta_s") is not None:
            line += ", ~%.0fs left" % payload["eta_s"]
        line += ")"
    lines.append(line)
    counts = payload.get("counts") or {}
    if counts:
        lines.append("  outcomes: " + "  ".join(
            "%s=%d" % (key, counts[key]) for key in sorted(counts)))
    in_flight = payload.get("in_flight") or ()
    for entry in in_flight:
        lines.append("  in flight: run %s  %.1fs"
                     % (entry.get("run_index"), entry.get("elapsed_s", 0.0)))
    extras = payload.get("extras") or {}
    if extras:
        lines.append("  " + "  ".join(
            "%s=%s" % (key, extras[key]) for key in sorted(extras)))
    return "\n".join(lines)


def watch_status(path, as_json=False, interval=None):
    """``repro.cli status``: print the sidecar ``path`` implies (raw JSON
    with ``as_json``), re-reading every ``interval`` seconds until the
    sweep reports finished; once when ``interval`` is None."""
    sidecar = status_sidecar_path(path)
    while True:
        payload = read_status(sidecar)
        if payload is None:
            raise SystemExit("no status sidecar at %s (is the sweep "
                             "running with an output path?)" % sidecar)
        print(json.dumps(payload, sort_keys=True) if as_json
              else format_status(payload))
        if interval is None or payload.get("finished"):
            return
        time.sleep(interval)
