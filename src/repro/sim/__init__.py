"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of simpy:

* :class:`~repro.sim.engine.Simulator` owns the virtual clock and event heap.
* :class:`~repro.sim.process.Process` wraps a generator; the generator yields
  waitables (a delay, an :class:`~repro.sim.process.Event`, another process,
  or a channel get) and is resumed when they fire.
* :class:`~repro.sim.channel.Channel` is an unbounded FIFO message queue with
  blocking ``get``.

Processes can be interrupted (:meth:`Process.interrupt`), which throws
:class:`~repro.sim.process.Interrupt` into the generator at the current
simulation time.  This is the analog of the cache-error/NMI mechanism MAGIC
uses to drop the R10000 into recovery code.
"""

from repro.sim.engine import Simulator
from repro.sim.process import AllOf, AnyOf, Event, Interrupt, Process
from repro.sim.channel import Channel

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
]
