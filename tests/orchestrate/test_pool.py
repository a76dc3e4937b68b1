"""WorkerPool process lifetime: a worker never outlives its parent."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.orchestrate import WorkerPool

from .test_scheduler import echo_execute


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; an exited zombie awaiting its reaper is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _own_pool(conn) -> None:
    """Helper process: build a one-worker pool, report the worker's PID."""
    pool = WorkerPool(1, echo_execute, context=multiprocessing.get_context("fork"))
    conn.send(pool._workers[0].process.pid)
    time.sleep(60)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.exists("/proc/self/stat"),
    reason="needs the fork start method and /proc",
)
class TestWorkerLifetime:
    def test_worker_exits_when_parent_is_sigkilled(self):
        """Under fork a worker inherits the pool's end of its own pipe;
        unless it closes that copy, its ``recv`` never sees EOF once
        the parent is gone and it lives on as an orphan."""
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        helper = ctx.Process(target=_own_pool, args=(theirs,))
        helper.start()
        worker = None
        try:
            assert ours.poll(10), "the helper never reported its worker"
            worker = ours.recv()
            assert _alive(worker)
            os.kill(helper.pid, signal.SIGKILL)
            helper.join(5)
            deadline = time.monotonic() + 5.0
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker), "the pool worker outlived its parent"
        finally:
            if helper.is_alive():
                helper.kill()
            if worker is not None and _alive(worker):
                os.kill(worker, signal.SIGKILL)
