"""Pass families of :mod:`repro.devtools.analyze`.

* :mod:`repro.devtools.passes.cs` — file-local simulation hygiene
  (staged-mutator call zones, seeded randomness, no wall clock,
  stats-counter ownership);
* :mod:`repro.devtools.passes.dx` — determinism taint dataflow
  (nondeterminism sources reaching result/identity sinks);
* :mod:`repro.devtools.passes.px` — process-safety (picklable worker
  payloads, no post-import writes to module-level mutable globals);
* :mod:`repro.devtools.passes.hx` — hot-path checks over functions
  registered as hot (allocations, repeated lookups, try in loops).

Each pass consumes the shared :class:`repro.devtools.project.ProjectIndex`
(one parse per file) and emits :class:`repro.devtools.rules.Finding`s.
"""

from .cs import run_cs_pass
from .dx import run_dx_pass
from .hx import run_hx_pass
from .px import run_px_pass

__all__ = ["run_cs_pass", "run_dx_pass", "run_hx_pass", "run_px_pass"]
