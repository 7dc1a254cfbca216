"""Coherence and recovery message kinds, and packet construction helpers."""

import enum

from repro.common.types import Lane
from repro.interconnect.packet import Packet


class MessageKind(enum.Enum):
    """All message types exchanged between node controllers."""

    # -- coherence requests (REQUEST lane) -----------------------------------
    GET = "get"                      # read miss: fetch shared copy
    GETX = "getx"                    # write miss: fetch exclusive copy
    PUT = "put"                      # writeback of the dirty (only) copy
    UC_READ = "uc_read"              # uncached read (memory or I/O register)
    UC_WRITE = "uc_write"            # uncached write

    # -- forwarded interventions (REQUEST lane) -------------------------------
    FWD_GET = "fwd_get"              # home asks owner to share with requester
    FWD_GETX = "fwd_getx"            # home asks owner to yield to requester
    INVAL = "inval"                  # home invalidates a sharer

    # -- replies (REPLY lane) ----------------------------------------------------
    DATA_SHARED = "data_shared"      # data grant, read-only
    DATA_EXCL = "data_excl"          # data grant, exclusive
    NAK = "nak"                      # line locked: retry later
    BUS_ERROR_REPLY = "bus_error"    # access terminated (firewall, incoherent,
                                     # range check, remote uncached I/O)
    INVAL_ACK = "inval_ack"          # sharer acknowledged invalidation
    SHARING_WB = "sharing_wb"        # owner's data copy back to home on FWD_GET
    OWNERSHIP_XFER = "ownership_xfer"  # owner passed the line on FWD_GETX
    FWD_MISS = "fwd_miss"            # intervention missed: writeback is racing
    UC_DATA = "uc_data"              # uncached read reply
    UC_ACK = "uc_ack"                # uncached write acknowledgment

    # -- recovery traffic (RECOVERY lanes, source-routed) ----------------------
    PING = "ping"                    # drop target into recovery; reply proves
                                     # its processor runs recovery code (§4.2)
    PING_REPLY = "ping_reply"
    DISSEMINATE = "disseminate"      # LState/NState exchange round (§4.3)
    BARRIER_UP = "barrier_up"        # fault-tolerant tree barrier: reduce
    BARRIER_DOWN = "barrier_down"    # fault-tolerant tree barrier: release
    # FLUSH_DONE rides the *normal* request lane so that in-order delivery
    # puts it behind the sender's writebacks (the all-to-all barrier of §4.5).
    FLUSH_DONE = "flush_done"

    # -- operating system (normal REQUEST lane) --------------------------------
    # Inter-cell kernel message: models Hive's shared-memory mailbox plus
    # inter-processor interrupt.  Like all normal traffic it can be lost
    # when a fault hits, which is why the Hive RPC layer implements an
    # end-to-end exactly-once protocol on top of it (paper §3.3).
    OS_MSG = "os_msg"


#: Kinds that carry a full cache line of data.
DATA_KINDS = frozenset({
    MessageKind.PUT,
    MessageKind.DATA_SHARED,
    MessageKind.DATA_EXCL,
    MessageKind.SHARING_WB,
})

_REQUEST_KINDS = frozenset({
    MessageKind.GET, MessageKind.GETX, MessageKind.PUT,
    MessageKind.UC_READ, MessageKind.UC_WRITE,
    MessageKind.FWD_GET, MessageKind.FWD_GETX, MessageKind.INVAL,
    MessageKind.FLUSH_DONE,
})


def lane_for(kind):
    """Normal-traffic virtual lane carrying this message kind."""
    return Lane.REQUEST if kind in _REQUEST_KINDS else Lane.REPLY


def flits_for(kind, params):
    """Packet size: header-only for control, header+line for data."""
    if kind in DATA_KINDS:
        return params.data_packet_flits()
    return 2


def make_packet(params, src, dst, kind, payload=None, lane=None,
                source_route=None):
    """Build a network packet for a protocol or recovery message."""
    return Packet(
        src=src,
        dst=dst,
        lane=lane if lane is not None else lane_for(kind),
        kind=kind,
        payload=payload,
        flits=flits_for(kind, params),
        source_route=source_route,
    )
