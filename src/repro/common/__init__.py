"""Shared types, timing parameters, and error hierarchy."""

from repro.common.errors import (
    BusError,
    ConfigurationError,
    ReproError,
)
from repro.common.params import TimingParams
from repro.common.types import (
    AccessKind,
    BusErrorKind,
    CacheState,
    DirState,
    Lane,
    LineAddress,
    NodeId,
)

__all__ = [
    "AccessKind",
    "BusError",
    "BusErrorKind",
    "CacheState",
    "ConfigurationError",
    "DirState",
    "Lane",
    "LineAddress",
    "NodeId",
    "ReproError",
    "TimingParams",
]
