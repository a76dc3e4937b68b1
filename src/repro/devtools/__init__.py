"""Developer tooling that guards the simulator's structure.

:mod:`repro.devtools.analyze` is ReproCheck, the one static checker
(``python -m repro.devtools analyze``).  It parses the tree once
(:mod:`repro.devtools.project`) and runs four pass families over it:
file-local simulation hygiene (CS), determinism taint dataflow (DX),
process-safety (PX) and hot-path checks (HX).

Deliberate DX/PX/HX exceptions live in ``analyze_baseline.json`` (one
justification per entry) or as inline ``# repro: allow[RULE]``
escapes; CS findings admit neither.  See the README "Static
analysis" section.
"""
