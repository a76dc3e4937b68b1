"""The Dispatcher's contract, pinned against a scripted fake backend.

Both schedulers in the repository — ``Orchestrator.run`` for a CLI
batch and the service broker's thread — step this one loop, so these
tests pin what either relies on: the trailing dispatch pass, dropped
jobs, backoff windows, the degrade to serial and the thread-safety of
``submit``.
"""

import json
import sys
import threading
import time

from repro.orchestrate.executor import Executor, SerialExecutor
from repro.orchestrate.pool import EVENT_ERROR, EVENT_OK
from repro.orchestrate.scheduler import MAX_RESPAWNS, Dispatcher


class FakeExecutor(Executor):
    """Records submissions; each poll reports what the test scripted.

    Running jobs succeed at the next poll unless ``hold`` is set;
    ``fail_once`` keys fail their first attempt instead.
    """

    name = "fake"

    def __init__(self, size=1, hold=False, fail_once=()):
        self._size = size
        self.hold = hold
        self.fail_once = set(fail_once)
        self.lost_workers = 0
        self.submitted = []  # (key, perf_counter) in submission order
        self.inflight = []
        self.closed = False

    def submit(self, key, job):
        self.submitted.append((key, time.perf_counter()))
        self.inflight.append(key)

    def poll(self, wait=0.05):
        events = []
        for key in list(self.inflight):
            if key in self.fail_once:
                self.fail_once.discard(key)
                events.append((EVENT_ERROR, key, "boom"))
            elif not self.hold:
                events.append((EVENT_OK, key, f"result-{key}"))
            else:
                continue
            self.inflight.remove(key)
        return events

    def close(self):
        self.closed = True

    @property
    def size(self):
        return self._size

    @property
    def busy_count(self):
        return len(self.inflight)

    @property
    def respawns(self):
        return self.lost_workers

    def keys(self):
        return [key for key, _ in self.submitted]


class Recorder:
    """The callbacks, recording every outcome in order."""

    def __init__(self, drop=()):
        self.drop = set(drop)
        self.log = []

    def on_dispatch(self, key, job):
        if key in self.drop:
            self.log.append(("dropped", key))
            return None
        return job

    def on_done(self, key, job, result, attempts):
        self.log.append(("done", key, attempts))

    def on_retry(self, key, job, error, attempts):
        self.log.append(("retry", key, attempts))

    def on_fail(self, key, job, error, attempts):
        self.log.append(("failed", key, attempts))

    def on_requeue(self, key, job):
        self.log.append(("requeued", key))


def make_dispatcher(executor, recorder, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    return Dispatcher(
        executor,
        lambda job: f"serial-{job}",
        on_dispatch=recorder.on_dispatch,
        on_done=recorder.on_done,
        on_retry=recorder.on_retry,
        on_fail=recorder.on_fail,
        on_requeue=recorder.on_requeue,
        **kwargs,
    )


def drain(dispatcher, limit=1000):
    for _ in range(limit):
        if not dispatcher.pending:
            return
        dispatcher.step()
    raise AssertionError("dispatcher never drained")


class TestDispatch:
    def test_step_that_ends_a_job_dispatches_the_next(self):
        """A caller idles whenever nothing runs (the broker sleeps up to
        50 ms on its condition), so the job queued behind a finished
        one must be on the backend before the step returns."""
        fake = FakeExecutor(size=1)
        recorder = Recorder()
        dispatcher = make_dispatcher(fake, recorder)
        dispatcher.submit("a", "a")
        dispatcher.submit("b", "b")
        assert dispatcher.step() == 1
        assert recorder.log == [("done", "a", 1)]
        assert fake.keys() == ["a", "b"]
        assert dispatcher.running == 1

    def test_dropped_job_is_never_submitted(self):
        fake = FakeExecutor(size=2)
        recorder = Recorder(drop={"b"})
        dispatcher = make_dispatcher(fake, recorder)
        for key in "abc":
            dispatcher.submit(key, key)
        drain(dispatcher)
        assert fake.keys() == ["a", "c"]
        assert sorted(recorder.log) == [
            ("done", "a", 1),
            ("done", "c", 1),
            ("dropped", "b"),
        ]

    def test_retry_budget_then_failure(self):
        class AlwaysFails(FakeExecutor):
            def poll(self, wait=0.05):
                events = [(EVENT_ERROR, key, "boom") for key in self.inflight]
                self.inflight = []
                return events

        fake = AlwaysFails()
        recorder = Recorder()
        dispatcher = make_dispatcher(fake, recorder, retries=2)
        dispatcher.submit("a", "a")
        drain(dispatcher)
        assert recorder.log == [
            ("retry", "a", 1),
            ("retry", "a", 2),
            ("failed", "a", 3),
        ]
        assert fake.keys() == ["a", "a", "a"]


class TestBackoff:
    def test_retried_job_waits_out_its_window(self):
        fake = FakeExecutor(fail_once={"a"})
        recorder = Recorder()
        naps = []
        dispatcher = make_dispatcher(
            fake, recorder, backoff=30.0, sleep=naps.append
        )
        dispatcher.submit("a", "a")
        for _ in range(20):
            dispatcher.step()
        assert fake.keys() == ["a"]
        assert recorder.log == [("retry", "a", 1)]
        # every idle step waits, but never past the poll interval, so a
        # submit or a stop is noticed promptly.
        assert len(naps) == 19
        assert all(0.0 < nap <= 0.05 for nap in naps)

    def test_retried_job_resubmitted_once_the_window_opens(self):
        fake = FakeExecutor(fail_once={"a"})
        recorder = Recorder()
        dispatcher = make_dispatcher(fake, recorder, backoff=0.1)
        dispatcher.submit("a", "a")
        drain(dispatcher)
        assert recorder.log == [("retry", "a", 1), ("done", "a", 2)]
        (_, first), (_, second) = fake.submitted
        assert second - first >= 0.1


class TestDegrade:
    def test_stranded_jobs_requeued_once_and_uncharged(self, capsys):
        fake = FakeExecutor(size=2, hold=True, fail_once={"a"})
        recorder = Recorder()
        dispatcher = make_dispatcher(fake, recorder)
        dispatcher.submit("a", "a")
        dispatcher.submit("b", "b")
        dispatcher.step()  # a fails once and goes straight back out
        assert fake.keys() == ["a", "b", "a"]
        dispatcher.submit("c", "c")  # queued: no capacity left
        fake.lost_workers = MAX_RESPAWNS + 1
        dispatcher.step()
        assert fake.closed
        assert isinstance(dispatcher.executor, SerialExecutor)
        drain(dispatcher)
        requeued = [entry for entry in recorder.log if entry[0] == "requeued"]
        assert sorted(requeued) == [("requeued", "a"), ("requeued", "b")]
        done = {entry[1]: entry[2] for entry in recorder.log if entry[0] == "done"}
        # a's failed attempt counts, the stranded attempts do not.
        assert done == {"a": 2, "b": 1, "c": 1}
        degraded = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if '"executor_degraded"' in line
        ]
        assert len(degraded) == 1
        assert degraded[0]["requeued"] == 2


class TestThreading:
    JOBS = 5000

    def test_submit_while_another_thread_steps(self):
        """Handler threads submit while the broker thread steps; only
        the stepping thread may iterate the queue, so a submission can
        never land in the middle of a scan."""
        blocked = FakeExecutor(size=0)  # no capacity: every step scans
        recorder = Recorder()
        dispatcher = make_dispatcher(blocked, recorder, sleep=lambda _: None)
        errors = []
        done = threading.Event()

        def stepper():
            try:
                while not done.is_set():
                    dispatcher.step()
            except Exception as exc:  # noqa: BLE001 — the assertion target
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=stepper)
        thread.start()
        try:
            for index in range(self.JOBS):
                dispatcher.submit(f"k{index}", index)
                if index % 20 == 0:
                    time.sleep(0)  # let the stepper start a scan
        finally:
            done.set()
            thread.join(10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors
        dispatcher.executor = FakeExecutor(size=8)
        drain(dispatcher, limit=self.JOBS)
        assert sorted(entry[1] for entry in recorder.log) == sorted(
            f"k{index}" for index in range(self.JOBS)
        )
