"""Per-LLC-line core presence bits.

"Like the Core i7, a directory is maintained with each LLC line to
determine the cores to which a back-invalidate must be sent" (paper,
Section III.B footnote 1).  The directory is *conservative*: bits are
set when a line is filled toward a core and cleared when the LLC
invalidates the core's copy, but cores do not notify the LLC of their
own clean evictions — exactly like the hardware.  A set bit therefore
means "may be present", a clear bit means "definitely absent".

Back-invalidates and QBS queries are sent only to cores whose bit is
set, which is what keeps the extra TLA message traffic small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..errors import ConfigurationError


class Directory:
    """Bit-vector of possible sharers for each LLC-resident line."""

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise ConfigurationError("directory needs at least one core")
        self.num_cores = num_cores
        self._full_mask = (1 << num_cores) - 1
        self._sharers: Dict[int, int] = {}

    def on_fill_to_core(self, line_addr: int, core_id: int) -> None:
        """A copy of ``line_addr`` was sent toward ``core_id``'s caches."""
        self._check_core(core_id)
        sharers = self._sharers
        sharers[line_addr] = sharers.get(line_addr, 0) | (1 << core_id)

    def on_core_invalidated(self, line_addr: int, core_id: int) -> None:
        """``core_id``'s copy was invalidated (back-inval or ECI)."""
        self._check_core(core_id)
        mask = self._sharers.get(line_addr)
        if mask is None:
            return
        mask &= ~(1 << core_id)
        if mask:
            self._sharers[line_addr] = mask
        else:
            del self._sharers[line_addr]

    def on_llc_eviction(self, line_addr: int) -> None:
        """The LLC no longer holds ``line_addr``; drop its directory state."""
        self._sharers.pop(line_addr, None)

    def sharers(self, line_addr: int) -> List[int]:
        """Cores that *may* hold ``line_addr`` (conservative)."""
        mask = self._sharers.get(line_addr, 0)
        return [core for core in range(self.num_cores) if mask & (1 << core)]

    def sharer_count(self, line_addr: int) -> int:
        return bin(self._sharers.get(line_addr, 0)).count("1")

    def may_be_cached(self, line_addr: int) -> bool:
        return bool(self._sharers.get(line_addr, 0))

    def is_sharer(self, line_addr: int, core_id: int) -> bool:
        self._check_core(core_id)
        return bool(self._sharers.get(line_addr, 0) & (1 << core_id))

    def tracked_lines(self) -> Iterable[int]:
        """Line addresses with at least one presence bit set."""
        return self._sharers.keys()

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise ConfigurationError(
                f"core id {core_id} out of range for {self.num_cores} cores"
            )

    def __len__(self) -> int:
        return len(self._sharers)
