"""Coverage features from one run's already-emitted signals.

Nothing here adds instrumentation to the model: every feature is distilled
from telemetry the machine produces anyway — the protocol engines'
``covered`` sets, the trace recorder's event stream, and the forensic
audit.  A feature is a short ``|``-separated string; the fuzzer only ever
compares and counts them, so the exact spelling is the contract (changing
it resets corpus coverage, which is safe but wasteful).

Feature families:

``dk|STATE|KIND``
    A coherence handler ran for message KIND while the home directory
    held the line in STATE (``ProtocolEngine.covered``, filled on traced
    runs) — the directory-state x message-kind product the protocol walks.
``pe|A>B`` / ``pe|A>B|x``
    A recovery agent entered phase B directly after phase A; ``|x`` marks
    the edge crossing a restart (epoch change).
``pi|A>B``
    Phase interleaving: consecutive phase entries machine-wide landed on
    *different* nodes (multi-agent overlap the per-node edges can't see).
``re|REASON`` / ``trig|REASON`` / ``shut|REASON``
    Episode restarts, begin-triggers and node shutdowns by reason.
``det|NAME``
    A failure detector fired (timeout, nak_overflow, truncated).
``bl|VERDICT|N|D``
    Forensic blast-radius shape: audit verdict, bucketed node count and
    bucketed causal-DAG depth below the injection.
``esc|CLASS``
    A containment violation of the given class (write-grant,
    invalidation, dirty-data) was observed.
``st|N`` / ``ab|N``
    Bucketed stray-message and drained-message (absorbed at a dead
    interface) totals.
``out|STATUS`` / ``ep|N`` / ``rs|N`` / ``skip|N``
    Run verdict, bucketed episode / restart / skipped-injection counts.

Buckets are ``int.bit_length`` — power-of-two resolution, like the
metrics histograms, so "3 episodes" and "4 episodes" are different
coverage but 40 and 50 are not.
"""

import hashlib


def bucket(value):
    """Power-of-two bucket of a non-negative count (0 -> 0, 5 -> 3)."""
    return max(0, int(value)).bit_length()


def feature_hash(feature):
    """Stable 64-bit hex id of a feature string (for compact artifacts)."""
    return hashlib.blake2b(feature.encode("utf-8"),
                           digest_size=8).hexdigest()


# ------------------------------------------------------------- extraction

def _phase_features(recorder):
    features = set()
    last_by_node = {}
    previous = None     # (node, phase) of the last enter machine-wide
    for event in recorder.events:
        if event.category == "phase" and event.name == "enter":
            phase = event.data.get("phase")
            epoch = event.data.get("epoch")
            prior = last_by_node.get(event.node)
            if prior is not None:
                mark = "|x" if prior[1] != epoch else ""
                features.add("pe|%s>%s%s" % (prior[0], phase, mark))
            last_by_node[event.node] = (phase, epoch)
            if previous is not None and previous[0] != event.node:
                features.add("pi|%s>%s" % (previous[1], phase))
            previous = (event.node, phase)
        elif event.category == "episode":
            reason = event.data.get("reason")
            if event.name == "restart":
                features.add("re|%s" % reason)
            elif event.name == "begin":
                features.add("trig|%s" % reason)
            elif event.name == "shutdown":
                features.add("shut|%s" % reason)
        elif event.category == "detect":
            features.add("det|%s" % event.name)
    return features


def _forensic_features(recorder):
    from repro.telemetry.forensics import analyze
    report = analyze(recorder)
    features = set()
    for fault in report.faults:
        features.add("bl|%s|%d|%d" % (
            fault.verdict, bucket(len(fault.blast_nodes)),
            bucket(fault.depth)))
        for violation in fault.violations:
            reason = violation.get("reason", "")
            features.add("esc|%s" % reason.split(" ", 1)[0].rstrip(":"))
    return features, report.verdict


def run_coverage(machine, result, recorder):
    """The fuzzer's per-run payload: features, injector skips, escape.

    Called in the worker after :func:`run_schedule_experiment` returns;
    everything is read-only over state the run already produced.
    """
    features = set()
    escape = False
    if recorder is not None:
        for node in machine.nodes:
            features.update("dk|%s|%s" % pair
                            for pair in node.magic.protocol.covered)
        stray = recorder.count("protocol", "stray")
        if stray:
            features.add("st|%d" % bucket(stray))
        features |= _phase_features(recorder)
        forensic, verdict = _forensic_features(recorder)
        features |= forensic
        escape = verdict == "escape"
    drained = sum(node.magic.stats.drained_messages
                  for node in machine.nodes)
    if drained:
        features.add("ab|%d" % bucket(drained))
    features.add("out|%s" % ("PASS" if result.passed else "FAIL"))
    features.add("ep|%d" % bucket(result.episodes))
    features.add("rs|%d" % bucket(result.restarts))
    features.add("skip|%d" % bucket(result.skipped_injections))
    return {
        "features": sorted(features),
        "skipped_injections": result.skipped_injections,
        "escape": escape,
    }


# ------------------------------------------------------------ accumulation

class CoverageMap:
    """Global seen-set with per-feature hit counts.

    ``add`` returns the features a run contributed for the first time —
    the fuzzer's "interesting" signal — and ``rarity`` weights corpus
    energy toward schedules exercising the least-hit features.
    """

    def __init__(self):
        self.hits = {}

    def __len__(self):
        return len(self.hits)

    def __contains__(self, feature):
        return feature in self.hits

    def add(self, features):
        """Count one run's features; returns the sorted new ones."""
        new = []
        hits = self.hits
        for feature in features:
            count = hits.get(feature)
            if count is None:
                hits[feature] = 1
                new.append(feature)
            else:
                hits[feature] = count + 1
        return sorted(new)

    def rarity(self, feature):
        """1/hits — 1.0 for a feature seen once, ~0 for saturated ones."""
        count = self.hits.get(feature, 0)
        return 1.0 / count if count else 0.0

    def energy(self, features):
        """Scheduling weight of a corpus entry holding ``features``."""
        return 1.0 + sum(self.rarity(feature) for feature in features)

    def to_dict(self):
        return {"hits": dict(sorted(self.hits.items()))}

    @classmethod
    def from_dict(cls, data):
        coverage = cls()
        coverage.hits = dict(data.get("hits", {}))
        return coverage
