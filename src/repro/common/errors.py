"""Error hierarchy.

:class:`BusError` is *not* a bug: it is the architected way MAGIC terminates
a memory reference that must not complete (access to an inaccessible or
incoherent line, firewall violation, range-check violation, cross-cell
uncached I/O).  Processor and OS models catch it and react; tests assert it
is raised in exactly the right situations.
"""


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """An invalid machine or experiment configuration."""


class BusError(ReproError):
    """A memory reference terminated with a bus error by MAGIC.

    Parameters
    ----------
    kind:
        A :class:`repro.common.types.BusErrorKind` describing why MAGIC
        refused the access.
    address:
        The byte address of the offending reference.
    """

    def __init__(self, kind, address, detail=""):
        super().__init__("bus error (%s) at 0x%x %s" % (kind.name, address, detail))
        self.kind = kind
        self.address = address
        self.detail = detail
