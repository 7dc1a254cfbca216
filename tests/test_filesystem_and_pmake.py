"""Tests for the shared-memory file service and the parallel-make workload."""

from repro.common.types import DirState
from repro.faults.models import FaultSpec
from repro.hive.filesystem import disk_token
from repro.hive.os import HiveConfig, HiveOS
from repro.node.processor import Load
from repro.workloads.pmake import (
    LOG_NAME,
    compile_job,
    create_build_tree,
    expected_object_lines,
    log_line_of,
    object_name,
    source_name,
)


def small_hive(**overrides):
    defaults = dict(cells=4, mem_per_node=1 << 17, l2_size=1 << 13,
                    seed=41)
    defaults.update(overrides)
    return HiveOS(HiveConfig(**defaults)).start()


class TestFileService:
    def test_create_allocates_server_pages(self):
        hive = small_hive()
        pages = hive.file_service.create("f1")
        server_node = hive.cells[0].lead_node
        for page in pages:
            assert hive.machine.address_map.home_of(page) == server_node

    def test_files_do_not_overlap(self):
        hive = small_hive()
        pages_a = hive.file_service.create("a")
        pages_b = hive.file_service.create("b")
        assert not set(pages_a) & set(pages_b)

    def test_initial_contents_are_disk_tokens(self):
        hive = small_hive()
        hive.file_service.create("src")
        line = hive.file_service.lines_of("src")[0]
        memory = hive.machine.nodes[hive.cells[0].lead_node].memory
        assert memory.read_line(line) == disk_token("src", line)

    def test_writers_get_firewall_permission(self):
        hive = small_hive()
        hive.file_service.create("obj", writers={2})
        line = hive.file_service.lines_of("obj")[0]
        page = line - (line % hive.params.page_size)
        magic = hive.cells[0].magic
        writer_node = hive.cells[2].lead_node
        outsider_node = hive.cells[3].lead_node
        assert magic.firewall_allows(page, writer_node)
        assert not magic.firewall_allows(page, outsider_node)

    def test_open_rpc_returns_pages(self):
        hive = small_hive()
        pages = hive.file_service.create("f")
        replies = []

        def caller():
            reply = yield from hive.cells[1].rpc.call(
                0, "fs.open", {"name": "f"})
            replies.append(reply)

        hive.sim.spawn(caller())
        hive.sim.run(until=10_000_000)
        assert replies[0]["pages"] == pages

    def test_open_missing_file_errors(self):
        hive = small_hive()
        replies = []

        def caller():
            reply = yield from hive.cells[1].rpc.call(
                0, "fs.open", {"name": "nope"})
            replies.append(reply)

        hive.sim.spawn(caller())
        hive.sim.run(until=10_000_000)
        assert "error" in replies[0]

    def test_refetch_scrubs_and_restores(self):
        hive = small_hive()
        hive.file_service.create("f")
        line = hive.file_service.lines_of("f")[0]
        home_magic = hive.cells[0].magic
        home_magic.directory.entry(line).unlock(DirState.INCOHERENT)
        replies = []

        def caller():
            reply = yield from hive.cells[1].rpc.call(
                0, "fs.refetch", {"name": "f", "line": line})
            replies.append(reply)

        hive.sim.spawn(caller())
        hive.sim.run(until=10_000_000)
        assert replies[0].get("ok")
        entry = home_magic.directory.entry(line)
        assert entry.state == DirState.UNOWNED


class TestPmakeWorkload:
    def test_build_tree_names(self):
        assert source_name(3) == "src3"
        assert object_name(3) == "obj3"

    def test_create_build_tree_makes_all_files(self):
        hive = small_hive()
        create_build_tree(hive, range(4))
        for job in range(4):
            assert source_name(job) in hive.file_service.files
            assert object_name(job) in hive.file_service.files
        assert LOG_NAME in hive.file_service.files

    def test_log_lines_distinct_per_job(self):
        hive = small_hive()
        create_build_tree(hive, range(4))
        lines = {log_line_of(hive, job) for job in range(4)}
        assert len(lines) == 4

    def test_compile_job_completes_without_faults(self):
        hive = small_hive()
        create_build_tree(hive, range(4))
        process = hive.spawn_process(
            1, "cc1", compile_job(hive, 1, 1), dependencies={0})
        hive.run_until_processes_settle([process], limit=60_000_000_000)
        assert process.state == "done"
        assert process.result == "ok"

    def test_compile_output_matches_expected_tokens(self):
        hive = small_hive()
        create_build_tree(hive, range(4))
        process = hive.spawn_process(
            2, "cc2", compile_job(hive, 2, 2), dependencies={0})
        hive.run_until_processes_settle([process], limit=60_000_000_000)
        machine = hive.machine
        for line, expected in expected_object_lines(hive, 2):
            assert machine.oracle.committed_value(line) == expected

    def test_compile_generates_cross_cell_traffic(self):
        hive = small_hive()
        create_build_tree(hive, range(4))
        process = hive.spawn_process(
            3, "cc3", compile_job(hive, 3, 3), dependencies={0})
        hive.run_until_processes_settle([process], limit=60_000_000_000)
        # The compile on cell 3 must have missed into the server's memory.
        server_magic = hive.cells[0].magic
        assert server_magic.stats.handlers_run > 0
        client_cache = hive.machine.nodes[hive.cells[3].lead_node].cache
        assert client_cache.misses > 0

    def test_compile_survives_recovery_of_unrelated_cell(self):
        hive = small_hive()
        create_build_tree(hive, range(4))
        process = hive.spawn_process(
            1, "cc1", compile_job(hive, 1, 1), dependencies={0})
        hive.sim.run(until=500_000)
        hive.machine.injector.inject(
            FaultSpec.node_failure(hive.cells[3].lead_node))
        hive.run_until_processes_settle([process], limit=120_000_000_000)
        assert process.state == "done", process.termination_reason

    def test_log_read_of_dead_jobs_slot_is_refetched(self):
        """A survivor reading the dead job's log slot exercises the
        incoherent-line refetch path and still completes."""
        hive = small_hive()
        create_build_tree(hive, range(4))
        victim = hive.spawn_process(
            3, "cc3", compile_job(hive, 3, 3), dependencies={0})
        survivor = hive.spawn_process(
            1, "cc1", compile_job(hive, 1, 1), dependencies={0})
        # Let job 3 write its log slot (held exclusive), then kill it.
        hive.sim.run(until=1_200_000)
        hive.machine.injector.inject(
            FaultSpec.node_failure(hive.cells[3].lead_node))
        hive.run_until_processes_settle([survivor], limit=120_000_000_000)
        assert survivor.state == "done", survivor.termination_reason
        assert victim.state in ("terminated", "failed", "done")
