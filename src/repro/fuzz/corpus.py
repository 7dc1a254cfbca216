"""The fuzzer's corpus: schedules that earned their keep.

An entry joins the corpus only by reaching coverage no earlier run
reached; it carries its lineage (sufficient, with the campaign seed, to
rebuild the schedule bit-for-bit) and the full feature set of its run
(energy weighting).  Entries are deduped
by a schedule *fingerprint* — a hash over the canonical schedule JSON
minus the cosmetic name — so two lineages converging on the same
schedule occupy one slot.

The corpus has no file of its own: it is exactly the session's run
records with non-empty ``new_features``, in file order (one slot per
fingerprint), so a resumed session rebuilds it by replaying the records
(:meth:`~repro.fuzz.engine.FuzzEngine.account`).
"""

from repro.campaign.schedule import schedule_fingerprint


class CorpusEntry:
    """One admitted schedule with its provenance and coverage."""

    def __init__(self, lineage, schedule, features):
        self.lineage = lineage
        self.schedule = schedule
        self.features = list(features)
        self.fingerprint = schedule_fingerprint(schedule)


class Corpus:
    """Fingerprint-deduped entry set with rarity-weighted parent choice."""

    def __init__(self):
        self.entries = []
        self._by_fingerprint = {}

    def __len__(self):
        return len(self.entries)

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
