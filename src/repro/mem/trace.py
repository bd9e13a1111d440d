"""Access traces: the bridge between execution and the cache model.

During kernel execution every global/texture access instruction appends
an :class:`AccessRecord` to the launch's :class:`AccessTrace`.  A record
keeps two views of the access:

* an exact (or unbiased, warp-sampled) :class:`~repro.mem.coalesce.AccessSummary`
  with grid-total transaction and sector counts, and
* the raw lane addresses of a small *warp window* — a contiguous run of
  warps from the middle of the grid — in program order, which the
  memory hierarchy later replays through the L1/L2 cache models.

A contiguous window (rather than a scattered sample) is deliberate:
cross-warp spatial sharing, such as neighbouring warps re-touching the
boundary segments of a misaligned access, only shows up between warps
that are adjacent in the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mem.coalesce import AccessSummary, lanes_to_warps

__all__ = ["AccessRecord", "AccessTrace", "CACHE_WINDOW_WARPS"]

#: Number of contiguous warps replayed through the cache models.
CACHE_WINDOW_WARPS = 64


@dataclass
class AccessRecord:
    """One warp-wide memory access instruction, grid-wide."""

    space: str                 #: "global", "texture" or "constant"
    is_store: bool
    itemsize: int
    summary: AccessSummary     #: grid-total coalescing statistics
    window_addrs: np.ndarray   #: (window_warps, warp_size) lane byte addresses
    window_mask: np.ndarray    #: matching activity mask
    label: str = ""            #: optional source annotation for reports


@dataclass
class AccessTrace:
    """Program-ordered access records for one kernel launch."""

    warp_size: int
    total_lanes: int
    window_start_warp: int
    window_warps: int
    records: list[AccessRecord] = field(default_factory=list)
    #: the last cache-model resolution, ``((gpu, resident_warps_per_sm,
    #: record count), report)``; kept by :mod:`repro.timing.model`
    _traffic: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @classmethod
    def for_grid(
        cls,
        total_lanes: int,
        warp_size: int = 32,
        window_warps: int = CACHE_WINDOW_WARPS,
    ) -> "AccessTrace":
        """Create a trace whose cache window sits mid-grid.

        Mid-grid warps see steady-state cache behaviour; warp 0 would
        over-observe cold-start misses on small grids.
        """
        n_warps = -(-total_lanes // warp_size) if total_lanes else 0
        w = min(window_warps, max(n_warps, 1))
        start = max((n_warps - w) // 2, 0)
        return cls(
            warp_size=warp_size,
            total_lanes=total_lanes,
            window_start_warp=start,
            window_warps=w,
        )

    @property
    def n_grid_warps(self) -> int:
        return -(-self.total_lanes // self.warp_size) if self.total_lanes else 0

    @property
    def window_fraction(self) -> float:
        """Fraction of the grid's warps inside the cache window."""
        n = self.n_grid_warps
        return self.window_warps / n if n else 1.0

    def record(
        self,
        *,
        space: str,
        is_store: bool,
        itemsize: int,
        summary: AccessSummary,
        addrs: np.ndarray,
        mask: np.ndarray | None,
        label: str = "",
    ) -> AccessRecord:
        """Append a record, slicing out the cache window's addresses."""
        a2d, m2d = lanes_to_warps(
            np.asarray(addrs, dtype=np.int64), mask, self.warp_size
        )
        lo = self.window_start_warp
        hi = min(lo + self.window_warps, a2d.shape[0])
        rec = AccessRecord(
            space=space,
            is_store=is_store,
            itemsize=int(itemsize),
            summary=summary,
            window_addrs=a2d[lo:hi].copy(),
            window_mask=m2d[lo:hi].copy(),
            label=label,
        )
        self.records.append(rec)
        return rec

    def space_rollup(self) -> dict[str, dict[str, float]]:
        """Per-space byte/transaction totals across the trace.

        Returns ``{space: {read_bytes, write_bytes, transactions,
        sectors, accesses}}`` — the aggregate view exporters and the
        doctor's read-only-placement rule consume.
        """
        out: dict[str, dict[str, float]] = {}
        for rec in self.records:
            bucket = out.setdefault(
                rec.space,
                {
                    "read_bytes": 0.0,
                    "write_bytes": 0.0,
                    "transactions": 0.0,
                    "sectors": 0.0,
                    "accesses": 0.0,
                },
            )
            key = "write_bytes" if rec.is_store else "read_bytes"
            bucket[key] += rec.summary.bytes_requested
            bucket["transactions"] += rec.summary.transactions
            bucket["sectors"] += rec.summary.sectors
            bucket["accesses"] += 1.0
        return out

    def __len__(self) -> int:
        return len(self.records)
