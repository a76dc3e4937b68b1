"""Working-set categories from paper Section IV.B."""

from __future__ import annotations

#: working set fits in the core caches (L1/L2).
CATEGORY_CCF = "CCF"
#: working set fits in the last-level cache.
CATEGORY_LLCF = "LLCF"
#: working set exceeds the last-level cache.
CATEGORY_LLCT = "LLCT"

CATEGORIES = (CATEGORY_CCF, CATEGORY_LLCF, CATEGORY_LLCT)


def category_of(app_name: str) -> str:
    """Category of a Table I benchmark (by its 3-letter short name)."""
    from .spec import app_profile  # local import: spec depends on this module

    return app_profile(app_name).category


def mix_category(apps) -> str:
    """Canonical category tag of a multi-programmed mix.

    The per-app Section IV.B categories, sorted and joined with ``+``
    (``("h26", "gob")`` -> ``"CCF+LLCT"``), so two mixes with the same
    category *multiset* share one tag regardless of core order.  This
    is the slicing coordinate :mod:`repro.eval` groups A/B pairs by,
    and what the orchestrator journals next to each job so evaluation
    needs no back-parsing of workload names.
    """
    return "+".join(sorted(category_of(app) for app in apps))
