"""The determinism sink: builds the run summary.

The file-local CS rules see nothing wrong in this module — the wall-clock
read lives in ``clock.py`` and only the whole-program taint pass
connects it to the ``RunSummary`` construction below.
"""

from repro.orchestrate.job import RunSummary

from .clock import now_stamp


def summarize(job):
    stamp = now_stamp()
    return RunSummary(job, stamp)
