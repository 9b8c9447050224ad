"""The DejaVu cache: the workload-signature repository.

"After the Tuner determines resource allocations for each workload
class, DejaVu has a table populated with workload signatures along with
their preferred resource allocations — the workload signature repository
— which it can re-use at runtime" (Sec. 3.4).  Entries are keyed by
(workload class, interference band): Sec. 3.6 extends the lookup with
the interference amount so the same workload under heavier co-location
maps to a larger allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.provider import Allocation


@dataclass(frozen=True)
class RepositoryEntry:
    """One cached tuning decision."""

    workload_class: int
    interference_band: int
    allocation: Allocation
    tuned_at: float
    """Simulation time of the tuning run that produced this entry."""


@dataclass
class CacheStats:
    """Hit/miss accounting — DejaVu's effectiveness is its hit rate."""

    hits: int = 0
    misses: int = 0
    missed_keys: dict[tuple[int, int], int] = field(default_factory=dict)
    """Miss count per (class, band) key.  Sharded fleet sweeps replay a
    family's repository per shard, so a merge needs to know *which*
    keys missed: a miss that a tuning run immediately back-filled is a
    one-per-fleet event (every replica pays it locally), while misses
    on keys nothing ever stored repeat per lookup in every arm."""

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AllocationRepository:
    """(class, interference band) → preferred allocation."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], RepositoryEntry] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def store(
        self,
        workload_class: int,
        interference_band: int,
        allocation: Allocation,
        tuned_at: float = 0.0,
    ) -> RepositoryEntry:
        """Insert or overwrite the entry for a (class, band) key."""
        if workload_class < 0:
            raise ValueError(f"bad workload class: {workload_class}")
        if interference_band < 0:
            raise ValueError(f"bad interference band: {interference_band}")
        entry = RepositoryEntry(
            workload_class=workload_class,
            interference_band=interference_band,
            allocation=allocation,
            tuned_at=tuned_at,
        )
        self._entries[(workload_class, interference_band)] = entry
        return entry

    def lookup(
        self, workload_class: int, interference_band: int = 0
    ) -> RepositoryEntry | None:
        """Cache lookup; records the hit or miss."""
        entry = self._entries.get((workload_class, interference_band))
        if entry is None:
            self.stats.misses += 1
            key = (workload_class, interference_band)
            self.stats.missed_keys[key] = (
                self.stats.missed_keys.get(key, 0) + 1
            )
        else:
            self.stats.hits += 1
        return entry

    def contains(self, workload_class: int, interference_band: int = 0) -> bool:
        """Presence check without touching hit/miss statistics."""
        return (workload_class, interference_band) in self._entries

    def entries(self) -> list[RepositoryEntry]:
        return list(self._entries.values())

    def classes(self) -> set[int]:
        return {cls for cls, _band in self._entries}

    def clear(self) -> None:
        """Drop all entries (re-clustering invalidates the cache)."""
        self._entries.clear()
