"""Workloads: the stand-alone validation filler (§5.2) and the
parallel-make model (§5.1)."""

from repro.workloads.standalone import (
    cache_fill_program,
    memory_check_program,
    partition_lines,
)

__all__ = [
    "cache_fill_program",
    "memory_check_program",
    "partition_lines",
]
