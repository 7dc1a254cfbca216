"""The fuzzer's corpus: schedules that earned their keep, on disk as JSONL.

An entry joins the corpus only by reaching coverage no earlier run
reached; it carries its lineage (sufficient, with the campaign seed, to
rebuild the schedule bit-for-bit), the features it was admitted for, and
the full feature set of its run (energy weighting).  Entries are deduped
by a schedule *fingerprint* — a hash over the canonical schedule JSON
minus the cosmetic name — so two lineages converging on the same
schedule occupy one slot.

Persistence is append-only JSONL like campaign records: a resumed fuzz
session reloads the corpus (tolerating a torn final line from a killed
process) and continues.
"""

import hashlib
import json

from repro.campaign.records import append_json_line, load_json_lines
from repro.campaign.schedule import FaultSchedule


def schedule_fingerprint(schedule):
    """Stable identity of a schedule's *content* (name excluded)."""
    data = schedule.to_dict()
    data.pop("name", None)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"),
                           digest_size=16).hexdigest()


class CorpusEntry:
    """One admitted schedule with its provenance and coverage."""

    def __init__(self, lineage, schedule, seed, features,
                 new_features=(), op="seed"):
        self.lineage = lineage
        self.schedule = schedule
        self.seed = seed
        self.features = list(features)
        self.new_features = list(new_features)
        self.op = op
        self.fingerprint = schedule_fingerprint(schedule)

    def to_dict(self):
        return {
            "lineage": self.lineage,
            "schedule": self.schedule.to_dict(),
            "seed": self.seed,
            "features": self.features,
            "new_features": self.new_features,
            "op": self.op,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(lineage=data["lineage"],
                   schedule=FaultSchedule.from_dict(data["schedule"]),
                   seed=data["seed"],
                   features=data.get("features", ()),
                   new_features=data.get("new_features", ()),
                   op=data.get("op", "seed"))


class Corpus:
    """Fingerprint-deduped entry set with rarity-weighted parent choice."""

    def __init__(self):
        self.entries = []
        self._by_fingerprint = {}

    def __len__(self):
        return len(self.entries)

    def __contains__(self, fingerprint):
        return fingerprint in self._by_fingerprint

    def add(self, entry):
        """Admit an entry; returns False when its schedule is already in."""
        if entry.fingerprint in self._by_fingerprint:
            return False
        self._by_fingerprint[entry.fingerprint] = entry
        self.entries.append(entry)
        return True

    def select_parent(self, rng, coverage):
        """Energy-weighted draw: schedules whose features are rare under
        ``coverage`` breed more (AFL-style corpus scheduling)."""
        if not self.entries:
            return None
        weights = [coverage.energy(entry.features)
                   for entry in self.entries]
        return rng.choices(self.entries, weights=weights, k=1)[0]

    def select_donor(self, rng, parent):
        """A splice partner other than the parent (or None)."""
        candidates = [entry for entry in self.entries
                      if entry.fingerprint != parent.fingerprint]
        if not candidates:
            return None
        return rng.choice(candidates)

    # ----------------------------------------------------------- persistence

    def append_to(self, path, entry):
        append_json_line(path, entry.to_dict())

    @classmethod
    def load(cls, path):
        """Rebuild a corpus from JSONL, tolerating a torn final line."""
        corpus = cls()
        for data in load_json_lines(path):
            corpus.add(CorpusEntry.from_dict(data))
        return corpus
