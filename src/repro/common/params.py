"""Timing and sizing parameters for the FLASH model.

The headline constants come straight from the paper: the 120 ns /
24-instruction remote-read handler (§3.1), the 390 ns uncached instruction
fetch measured on the R10000 RTL model (§5.3, equivalently < 2.5 MIPS in
recovery mode, §4.1), 128-byte lines and 4 KB firewall pages (§2, §3.3).
The remaining constants (hop latency, flit time, memory access) are chosen
to be representative of the CrayLink/SPIDER and 100 MHz MAGIC technology of
the era; the figure benches depend only on how times *scale*, not on the
absolute values.
"""

import dataclasses


@dataclasses.dataclass
class TimingParams:
    """All model latencies (ns) and protocol thresholds in one place."""

    # --- geometry ---------------------------------------------------------
    line_size: int = 128            # bytes per coherence line (paper §2)
    page_size: int = 4096           # firewall granularity (paper §3.3)
    flit_bytes: int = 16            # interconnect flit payload

    # --- interconnect -----------------------------------------------------
    hop_latency: float = 50.0       # router header latency per hop (ns)
    flit_time: float = 10.0         # serialization time per flit (ns)
    buffer_capacity: int = 8        # packets per (port, lane) input buffer
    recovery_buffer_capacity: int = 4
    recovery_stall_discard: float = 5_000.0   # stalled source-routed packet
                                              # discard threshold (ns, §4.1)

    # --- MAGIC node controller ---------------------------------------------
    handler_time: float = 120.0     # common coherence handler (ns, §3.1)
    short_handler_time: float = 60.0   # trivial handlers (ACK bookkeeping)
    long_handler_time: float = 240.0   # handlers that touch the directory twice
    memory_access: float = 140.0    # DRAM access (ns)
    firewall_check_time: float = 8.0   # extra cost on inter-cell write
                                       # handlers (firewall is the one feature
                                       # not hidden in spare slots, §6.2)
    magic_inbox_capacity: int = 16  # packets MAGIC buffers before exerting
                                    # back-pressure on its router port

    # --- failure detection thresholds (§4.2) --------------------------------
    memory_op_timeout: float = 100_000.0   # ns before a request times out
    nak_retry_interval: float = 400.0      # processor retry pacing after NAK
    nak_counter_limit: int = 256           # retries before overflow triggers
                                           # recovery
    drain_quiet_time: float = 10_000.0     # tau: quiet period that means the
                                           # interconnect has drained (§4.4)

    # --- recovery-mode execution (§4.1, §5.3) -------------------------------
    uncached_instruction_time: float = 390.0   # ns per instruction at the
                                               # R10000 RTL calibrated rate
    # Instruction-count estimates for recovery work items, charged at the
    # uncached rate above.  These set the scale of Figures 5.5-5.7.
    instr_probe_setup: int = 600        # set up and fire one neighbor probe
    instr_ping_handle: int = 300        # handle one incoming ping
    instr_enter_recovery: int = 4_000   # cache-error vector + diagnostics
    instr_merge_per_entry: int = 5     # merge one link/node state entry
    instr_send_per_entry: int = 2       # serialize one entry into a packet
    instr_bft_per_node: int = 60        # BFS work per node in BFT computation
    instr_route_per_node: int = 90      # routing-table computation per node
    instr_barrier_step: int = 400       # one barrier send/receive step
    instr_isolate_router: int = 1_200   # reprogram one bordering router

    # P4 is driven by cache/MAGIC hardware at full speed, not by uncached
    # R10000 code; per-line costs calibrated to Figure 5.6's magnitudes
    # (both steps scale linearly in L2 size and memory size respectively).
    flush_line_time: float = 1_200.0    # walk + write back one cache line
    dir_scan_line_time: float = 80.0    # scan/reset one directory entry

    # --- Hive OS recovery (§4.6, Figure 5.7) ---------------------------------
    # Unlike the hardware recovery algorithm, OS recovery runs cached, at
    # full speed; its cost scales with the number of cells, not nodes.
    os_recovery_fixed_ns: float = 18_000_000.0     # fixed kernel work
    os_recovery_per_cell_ns: float = 7_000_000.0   # per surviving cell
    rpc_retry_interval: float = 150_000.0          # RPC retransmit pacing
    rpc_timeout: float = 60_000_000.0              # give up on a dead cell
    kernel_access_watchdog: float = 1_500_000.0    # kernel memory-op retry

    # --- recovery-algorithm protocol timeouts --------------------------------
    probe_timeout: float = 30_000.0     # wait for a router-probe reply (ns)
    probe_retries: int = 3
    ping_interval: float = 1_000_000.0  # gap between ping retries (ns)
    ping_deadline: float = 6_000_000.0  # declare a node dead after this (ns);
                                        # must exceed the recovery-entry time
                                        # (instr_enter_recovery * 390 ns)
    ctrl_timeout: float = 200_000.0     # router-control ack timeout (ns)
    ctrl_retries: int = 4
    barrier_timeout: float = 400_000_000.0   # a barrier partner this late is
                                             # treated as a new fault (ns)
    dissemination_timeout: float = 200_000_000.0  # round-partner deadline (ns)
    shutdown_fraction: float = 0.5      # split-brain heuristic (§4.2): shut
                                        # down if fewer than this fraction of
                                        # nodes are reachable and alive

    # --- processor ----------------------------------------------------------
    cpu_cycle: float = 5.0          # 200 MHz R4000 (§5.1, Table 5.1)
    l1_hit_time: float = 10.0       # cache hit service time seen by the model

    def recovery_work(self, instructions):
        """Time (ns) to execute ``instructions`` in uncached recovery mode."""
        return instructions * self.uncached_instruction_time

    def data_packet_flits(self):
        """Flits in a packet carrying one full cache line (plus header)."""
        return 1 + self.line_size // self.flit_bytes
