"""Entry point: ``python -m repro.devtools analyze [args...]``."""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from . import analyze

USAGE = """usage: python -m repro.devtools <command> [args...]

commands:
  analyze   static analysis: hygiene (CS), determinism (DX),
            process-safety (PX) and hot-path (HX) rules
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in {"-h", "--help"}:
        print(USAGE, end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "analyze":
        return analyze.main(rest)
    print(f"unknown command {command!r}\n{USAGE}", file=sys.stderr, end="")
    return 2


if __name__ == "__main__":
    sys.exit(main())
