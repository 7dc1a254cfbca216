"""The parallel-make workload (paper §5.1).

    "We ran a parallel make benchmark that compiles eight of the GnuChess
    4.0 files, with each compile executing on a different cell.  The
    benchmark generates a large amount of coherence traffic, since one of
    the cells acts as a file server for the other cells and the Hive file
    system uses shared memory for all file data transfers across cell
    boundaries."

Each compile job: RPC-open its source file, read every line of it through
shared memory (cross-cell coherence traffic), compute, then write its
object file lines into server memory.  A bus error on an incoherent file
line is handled by asking the server to refetch the page from disk and
retrying — the code path whose Hive bugs the paper's failed runs exposed.
"""

from repro.common.errors import BusError
from repro.common.types import BusErrorKind
from repro.hive.filesystem import disk_token
from repro.node.processor import Load, Store


def source_name(job_id):
    return "src%d" % job_id


def object_name(job_id):
    return "obj%d" % job_id


#: Shared build log: every compile writes progress into its own slot and
#: reads everyone else's at the end (make's dependency/output aggregation).
#: This is the shared-written file whose lines can be cached exclusive by a
#: cell when it dies — the survivors then hit incoherent lines and exercise
#: the OS handling path the paper's bugs lived in.
LOG_NAME = "makelog"

#: one compile's simulated compute time (ns), half spent over the source
#: passes and half on code generation
COMPILE_NS = 3_000_000.0
#: lexing/parsing passes over the source
READ_PASSES = 2


def object_token(job_id, line_address):
    return ("obj", job_id, line_address)


def create_build_tree(hive, jobs):
    """Create per-job source/object files plus the shared log."""
    for job_id in jobs:
        hive.file_service.create(source_name(job_id))
        cell_id = job_id % hive.config.cells
        hive.file_service.create(object_name(job_id), writers={cell_id})
    hive.file_service.create(
        LOG_NAME, writers=set(range(hive.config.cells)))


def log_line_of(hive, job_id):
    lines = hive.file_service.lines_of(LOG_NAME)
    return lines[job_id % len(lines)]


def file_access(hive, cell, file_name, op):
    """Kernel file access with incoherent-line handling (§4.6).

    On an incoherent-line bus error, ask the file server to scrub the page
    and refetch it from disk, then retry the access.
    """
    server = hive.config.file_server_cell
    attempts = 0
    while True:
        try:
            value = yield from cell.kernel_access(op)
            return value
        except BusError as error:
            if error.kind != BusErrorKind.INCOHERENT_LINE:
                raise
            attempts += 1
            if attempts > 8:
                raise
            reply = yield from cell.rpc.call(
                server, "fs.refetch",
                {"name": file_name, "line": op.address})
            if reply.get("error"):
                raise RuntimeError(
                    "refetch of %s failed: %s" % (file_name, reply["error"]))


def compile_job(hive, cell_id, job_id):
    """One compile: read source through shared memory, compute, write the
    object file.  Returns "ok"; any uncontained failure raises."""
    cell = hive.cells[cell_id]
    server = hive.config.file_server_cell
    src = source_name(job_id)
    obj = object_name(job_id)

    reply = yield from cell.rpc.call(server, "fs.open", {"name": src})
    if reply.get("error"):
        raise RuntimeError("open %s: %s" % (src, reply["error"]))
    src_lines = hive.file_service.lines_of(src)

    log_line = log_line_of(hive, job_id)

    # Lexing/parsing passes: stream the source through the cache, logging
    # progress into the shared build log (held exclusive between writes).
    for pass_no in range(READ_PASSES):
        for line in src_lines:
            value = yield from file_access(hive, cell, src, Load(line))
            if value != disk_token(src, line):
                raise RuntimeError(
                    "compile %d read corrupt source data %r" % (job_id, value))
        yield from file_access(
            hive, cell, LOG_NAME,
            Store(log_line, value=("log", job_id, pass_no)))
        yield COMPILE_NS / (2.0 * READ_PASSES)

    # Code generation.
    yield COMPILE_NS / 2.0

    reply = yield from cell.rpc.call(server, "fs.grant_write",
                                     {"name": obj})
    if reply.get("error"):
        raise RuntimeError("grant_write %s: %s" % (obj, reply["error"]))
    obj_lines = hive.file_service.lines_of(obj)
    for line in obj_lines:
        yield from file_access(
            hive, cell, obj, Store(line, value=object_token(job_id, line)))

    # "make" aggregates the build log: read every job's slot.  Slots owned
    # exclusively by a cell that died come back as incoherent lines; the
    # refetch path restores them (or trips the emulated OS bug).
    for other_job in range(hive.config.cells):
        other_line = log_line_of(hive, other_job)
        yield from file_access(hive, cell, LOG_NAME, Load(other_line))
    return "ok"


def expected_object_lines(hive, job_id):
    """(line, expected token) pairs for verifying a finished compile."""
    lines = hive.file_service.lines_of(object_name(job_id))
    return [(line, object_token(job_id, line)) for line in lines]
