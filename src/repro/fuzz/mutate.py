"""Deterministic, seed-derived mutations over fault schedules.

Every schedule the fuzzer ever runs is identified by a **lineage** string
and is bit-reproducible from ``(campaign_seed, lineage)`` alone:

* a seed-corpus root is ``g:<kind>:<salt>`` — generator ``kind`` driven
  by ``rng_for(campaign_seed, lineage)``;
* each mutation appends ``/m<salt>:<op>``; a splice embeds its donor's
  whole lineage, parenthesized: ``/m<salt>:splice(<donor lineage>)``.

The RNG for a step is derived by BLAKE2b from the campaign seed and the
*full lineage up to and including that step's token*, so replaying a
lineage re-derives exactly the draws the original mutation made — no
corpus file needed to reproduce a finding (:func:`rebuild_from_lineage`).

Mutants are canonicalized (entries sorted: timed by time, then
phase-triggered) and validated before being accepted: a mutant with an
injector no-op entry (target already failed, see
:func:`~repro.campaign.schedule.redundant_entries`), with no timed entry
to start the action, or outside the machine shape is rejected and the
engine simply tries the next salt.
"""

import dataclasses
import hashlib
import json
import random

from repro.campaign.schedule import (
    RECOVERY_PHASES,
    TimedFault,
    make_schedule,
    redundant_entries,
    valid_for_machine,
)
from repro.faults.models import FaultSpec, FaultType
from repro.interconnect.topology import make_topology

#: hard bounds keeping mutants runnable on small campaign machines
MAX_ENTRIES = 5
MAX_TIME_NS = 5_000_000.0

#: fault models that are mutual swap alternatives (same target shape)
_LINK_MODELS = (FaultType.LINK_FAILURE, FaultType.TRANSIENT_LINK_FAILURE,
                FaultType.INTERMITTENT_LINK)
_NODE_MODELS = (FaultType.NODE_FAILURE, FaultType.ROUTER_FAILURE,
                FaultType.INFINITE_LOOP, FaultType.DELAYED_WEDGE)


def rng_for(campaign_seed, lineage):
    """The deterministic RNG of one lineage step (BLAKE2b-derived)."""
    digest = hashlib.blake2b(
        ("%d|%s" % (campaign_seed, lineage)).encode("utf-8"),
        digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def root_lineage(kind, salt):
    return "g:%s:%d" % (kind, salt)


def root_schedule(campaign_seed, kind, salt, num_nodes=8, topology="mesh"):
    """A seed-corpus schedule and its lineage (shared with rebuild)."""
    lineage = root_lineage(kind, salt)
    schedule = make_schedule(kind, rng_for(campaign_seed, lineage),
                             num_nodes=num_nodes, topology=topology)
    return schedule, lineage


# ------------------------------------------------------------- operators

def _place(rng, spec):
    """A schedule entry for a fresh spec: usually timed, sometimes armed
    on a recovery phase (the §4.1 restart stressor)."""
    if rng.random() < 0.25:
        phase = rng.choice(RECOVERY_PHASES)
        phase_node = (spec.target if not spec.is_link_fault
                      and spec.destroys_node_state else None)
        return TimedFault(spec, phase=phase, phase_node=phase_node)
    return TimedFault(spec, time=rng.uniform(0.0, 2_000_000.0))


def _op_add(schedule, _donor, rng, topo):
    if len(schedule.entries) >= MAX_ENTRIES:
        return None
    exclude = schedule.excluded_targets(topo) | {0}
    try:
        spec = FaultSpec.random(rng, topo, exclude=exclude)
    except ValueError:
        # Everything usable is already failed — no room to grow.
        return None
    return schedule.replace(entries=schedule.entries + (_place(rng, spec),))


def _op_remove(schedule, _donor, rng, _topo):
    if len(schedule.entries) < 2:
        return None
    index = rng.randrange(len(schedule.entries))
    entries = schedule.entries[:index] + schedule.entries[index + 1:]
    return schedule.replace(entries=entries)


def _op_move(schedule, _donor, rng, _topo):
    index = rng.randrange(len(schedule.entries))
    entry = schedule.entries[index]
    if entry.phase is None:
        entry = dataclasses.replace(
            entry, time=rng.uniform(0.0, 2_000_000.0))
    else:
        entry = dataclasses.replace(entry, phase=rng.choice(RECOVERY_PHASES))
    return _with_entry(schedule, index, entry)


def _op_retarget(schedule, _donor, rng, topo):
    index = rng.randrange(len(schedule.entries))
    entry = schedule.entries[index]
    spec = entry.spec
    exclude = {0}
    for other in schedule.entries:
        if other is not entry:
            exclude |= other.spec.excluded_targets(topo)
    try:
        drawn = FaultSpec.random(rng, topo, spec.fault_type, exclude=exclude)
    except ValueError:
        return None
    # Retarget means *move* the fault, not reroll it: keep its model
    # parameters on the new target.
    drawn = dataclasses.replace(drawn, dwell=spec.dwell,
                                drop_rate=spec.drop_rate)
    if entry.phase_node is not None and not drawn.is_link_fault:
        entry = dataclasses.replace(entry, spec=drawn,
                                    phase_node=drawn.target)
    else:
        entry = dataclasses.replace(entry, spec=drawn)
    return _with_entry(schedule, index, entry)


def _swap_spec(rng, spec, new_type):
    target = spec.target
    if new_type == FaultType.TRANSIENT_LINK_FAILURE:
        return FaultSpec.transient_link_failure(
            *target, dwell=spec.dwell or rng.uniform(200_000.0,
                                                     5_000_000.0))
    if new_type == FaultType.INTERMITTENT_LINK:
        return FaultSpec.intermittent_link(
            *target, drop_rate=spec.drop_rate or rng.uniform(0.05, 0.5))
    if new_type == FaultType.LINK_FAILURE:
        return FaultSpec.link_failure(*target)
    if new_type == FaultType.DELAYED_WEDGE:
        return FaultSpec.delayed_wedge(
            target, dwell=spec.dwell or rng.uniform(200_000.0,
                                                    5_000_000.0))
    return FaultSpec(new_type, target)


def _op_swap_model(schedule, _donor, rng, _topo):
    index = rng.randrange(len(schedule.entries))
    entry = schedule.entries[index]
    models = (_LINK_MODELS if entry.spec.is_link_fault else
              _NODE_MODELS if entry.spec.fault_type in _NODE_MODELS
              else ())
    alternatives = [model for model in models
                    if model != entry.spec.fault_type]
    if not alternatives:
        return None   # FALSE_ALARM has no model siblings
    new_type = rng.choice(alternatives)
    entry = dataclasses.replace(entry,
                                spec=_swap_spec(rng, entry.spec, new_type))
    return _with_entry(schedule, index, entry)


def _op_perturb_time(schedule, _donor, rng, _topo):
    timed = [index for index, entry in enumerate(schedule.entries)
             if entry.phase is None]
    if not timed:
        return None
    index = rng.choice(timed)
    entry = schedule.entries[index]
    time = min(MAX_TIME_NS,
               entry.time * rng.uniform(0.25, 4.0)
               + rng.uniform(0.0, 50_000.0))
    return _with_entry(schedule, index,
                       dataclasses.replace(entry, time=time))


def _op_flip_trigger(schedule, _donor, rng, _topo):
    index = rng.randrange(len(schedule.entries))
    entry = schedule.entries[index]
    spec = entry.spec
    if entry.phase is None:
        phase_node = (spec.target if not spec.is_link_fault
                      and spec.destroys_node_state else None)
        entry = dataclasses.replace(entry, time=0.0,
                                    phase=rng.choice(RECOVERY_PHASES),
                                    phase_node=phase_node)
    else:
        entry = dataclasses.replace(entry, phase=None, phase_node=None,
                                    time=rng.uniform(0.0, 2_000_000.0))
    return _with_entry(schedule, index, entry)


def _op_splice(schedule, donor, rng, topo):
    """Parent prefix + whatever of the donor still fits without no-ops."""
    if donor is None or not donor.entries:
        return None
    keep = rng.randint(1, len(schedule.entries))
    entries = list(schedule.entries[:keep])
    used = set()
    for entry in entries:
        used |= entry.spec.excluded_targets(topo)
    for entry in donor.entries:
        if len(entries) >= MAX_ENTRIES:
            break
        if entry.spec.excluded_targets() & used:
            continue
        used |= entry.spec.excluded_targets(topo)
        entries.append(entry)
    if tuple(entries) == schedule.entries:
        return None   # donor contributed nothing
    return schedule.replace(entries=tuple(entries))


def _with_entry(schedule, index, entry):
    entries = (schedule.entries[:index] + (entry,)
               + schedule.entries[index + 1:])
    return schedule.replace(entries=entries)


#: stable operator order — part of the determinism contract: reordering
#: or renaming changes which op a given lineage salt selects
MUTATION_OPS = (
    ("add", _op_add),
    ("remove", _op_remove),
    ("move", _op_move),
    ("retarget", _op_retarget),
    ("swap-model", _op_swap_model),
    ("perturb-time", _op_perturb_time),
    ("flip-trigger", _op_flip_trigger),
    ("splice", _op_splice),
)

_OPS_BY_NAME = dict(MUTATION_OPS)


# ---------------------------------------------------- canonical + validity

def _entry_key(entry):
    return (0 if entry.phase is None else 1,
            entry.time,
            entry.phase or "",
            -1 if entry.phase_node is None else entry.phase_node,
            json.dumps(entry.spec.to_dict(), sort_keys=True))


def canonical(schedule):
    """Entries in canonical order (timed by time, then phase-armed), so
    permutation-equivalent mutants share one corpus fingerprint."""
    return schedule.replace(entries=tuple(sorted(schedule.entries,
                                                 key=_entry_key)))


def acceptable(schedule):
    """Is this mutant worth running at all?

    Rejects empty schedules, over-long ones, targets outside the machine
    shape, schedules with no timed entry (a purely phase-armed schedule
    never starts an episode, so nothing ever fires) and — the satellite
    seam rule — schedules with injector no-op entries.
    """
    if not schedule.entries or len(schedule.entries) > MAX_ENTRIES:
        return False
    if not any(entry.phase is None for entry in schedule.entries):
        return False
    if not valid_for_machine(schedule, schedule.num_nodes):
        return False
    return not redundant_entries(schedule)


# ------------------------------------------------------------ mutate/rebuild

def mutate(campaign_seed, parent, parent_lineage, salt,
           donor=None, donor_lineage=None):
    """One deterministic mutation attempt.

    Returns ``(schedule, lineage, op_name)``, or None when the selected
    operator does not apply or produced an unacceptable mutant — the
    caller tries the next salt (the lineage embeds the salt, so skipped
    attempts cost nothing and successful ones stay reproducible).
    """
    chooser = rng_for(campaign_seed, "%s/m%d?" % (parent_lineage, salt))
    names = [name for name, _op in MUTATION_OPS
             if name != "splice" or donor is not None]
    op_name = chooser.choice(names)
    if op_name == "splice":
        token = "m%d:splice(%s)" % (salt, donor_lineage)
    else:
        token = "m%d:%s" % (salt, op_name)
    lineage = "%s/%s" % (parent_lineage, token)
    topo = make_topology(parent.topology, parent.num_nodes)
    mutant = _OPS_BY_NAME[op_name](parent, donor,
                                   rng_for(campaign_seed, lineage), topo)
    if mutant is None:
        return None
    mutant = canonical(mutant)
    if not acceptable(mutant):
        return None
    return mutant, lineage, op_name


def split_lineage(lineage):
    """Top-level lineage tokens ('/'-separated, parens protect donors)."""
    tokens = []
    depth = 0
    current = []
    for char in lineage:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "/" and depth == 0:
            tokens.append("".join(current))
            current = []
        else:
            current.append(char)
    tokens.append("".join(current))
    return tokens


def _parse_mutation_token(token):
    """'m3:splice(g:x:1/m0:add)' -> (3, 'splice', 'g:x:1/m0:add')."""
    if not token.startswith("m"):
        raise ValueError("bad lineage token %r" % token)
    head, _, op = token.partition(":")
    salt = int(head[1:])
    if op.startswith("splice(") and op.endswith(")"):
        return salt, "splice", op[len("splice("):-1]
    if op not in _OPS_BY_NAME or op == "splice":
        raise ValueError("unknown mutation op in token %r" % token)
    return salt, op, None


def rebuild_from_lineage(campaign_seed, lineage, num_nodes=8,
                         topology="mesh"):
    """The exact schedule a lineage denotes — no corpus file needed.

    Raises ValueError on a malformed lineage or one whose steps no longer
    apply (which can only happen if the operator set changed).
    """
    tokens = split_lineage(lineage)
    root = tokens[0]
    parts = root.split(":")
    if len(parts) != 3 or parts[0] != "g":
        raise ValueError("lineage must start with g:<kind>:<salt>, got %r"
                         % root)
    schedule, prefix = root_schedule(campaign_seed, parts[1], int(parts[2]),
                                     num_nodes=num_nodes, topology=topology)
    topo = make_topology(topology, num_nodes)
    for token in tokens[1:]:
        _salt, op_name, donor_lineage = _parse_mutation_token(token)
        donor = None
        if donor_lineage is not None:
            donor = rebuild_from_lineage(campaign_seed, donor_lineage,
                                         num_nodes=num_nodes,
                                         topology=topology)
        step_lineage = "%s/%s" % (prefix, token)
        mutant = _OPS_BY_NAME[op_name](
            schedule, donor, rng_for(campaign_seed, step_lineage), topo)
        if mutant is None:
            raise ValueError("lineage step %r no longer applies" % token)
        schedule = canonical(mutant)
        prefix = step_lineage
    return schedule


def derive_mutant_seed(campaign_seed, lineage):
    """The machine seed a lineage runs with (stable, 63-bit)."""
    digest = hashlib.blake2b(
        ("seed:%d|%s" % (campaign_seed, lineage)).encode("utf-8"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
