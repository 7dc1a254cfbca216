"""The stand-alone validation workload of paper §5.2.

    "In each run, all the processors start by filling up their caches with
    lines chosen at random from the range of valid system addresses.  For
    each line, we randomly decide whether it will be fetched in shared or
    exclusive mode.  After all the processors have filled up at least half
    of their caches, we inject a fault.  Upon completion of the hardware
    recovery algorithm, the processors read all of the system's memory and
    check, for each cache line, whether it contains the correct data or has
    become incoherent."
"""

import random

from repro.common.errors import BusError
from repro.node.processor import Load, Store


def cache_fill_program(machine, node_id, fill_lines, seed):
    """Fill a node's cache with random lines (§5.2), each fetched
    exclusive or shared with even odds."""
    rng = random.Random("%s-%s" % (seed, node_id))
    all_lines = machine.all_usable_lines()
    for _ in range(fill_lines):
        line = rng.choice(all_lines)
        if rng.random() < 0.5:
            yield Store(line, value=("fill", node_id, line, rng.random()))
        else:
            yield Load(line)


def memory_check_program(lines, observations):
    """Read ``lines`` and record (line, kind, detail) observations.

    * ``("value", v)`` — the read completed;
    * ``("bus_error", BusErrorKind)`` — MAGIC terminated the access.

    The first access that hits a failed home is also what *detects* the
    fault and triggers recovery: the program is interrupted, parks, and
    reissues the read after recovery — exactly the §4.2 sequence.
    """
    for line in lines:
        try:
            value = yield Load(line)
        except BusError as error:
            observations.append((line, "bus_error", error.kind))
        else:
            observations.append((line, "value", value))


def partition_lines(machine, node_ids):
    """Split every usable line in the machine across the given checkers."""
    all_lines = machine.all_usable_lines()
    node_ids = sorted(node_ids)
    assignment = {node_id: [] for node_id in node_ids}
    for index, line in enumerate(all_lines):
        assignment[node_ids[index % len(node_ids)]].append(line)
    return assignment
