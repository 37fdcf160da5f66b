"""The Accelerator Data Engine (ADE).

The ADE owns the MMAE's two DMA engines and is responsible for moving tile
data between the L3 system cache and the A/B/C scratchpad buffers (paper
Fig. 2(a)).  For the functional execution path it also performs the actual
NumPy sub-block reads/writes against the :class:`~repro.mem.hostmem.HostMemory`
view, translating virtual addresses through the mATLB (predictive path) or the
shared MMU (demand path) so the tests exercise the same translation machinery
the timing model charges for.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.gemm.tiling import Tile
from repro.isa.instructions import GEMMDescriptor
from repro.mem.hostmem import HostMemory
from repro.mem.page_table import PageFaultError
from repro.mmae.buffers import BufferSet
from repro.mmae.dma import DMAEngine
from repro.mmae.matlb import MATLB, MatrixLayout


@dataclass
class TileTransferPlan:
    """Byte volumes a second-level tile moves through the DMA engines."""

    a_bytes: int
    b_bytes: int
    c_read_bytes: int
    c_write_bytes: int

    @property
    def load_bytes(self) -> int:
        return self.a_bytes + self.b_bytes + self.c_read_bytes

    @property
    def total_bytes(self) -> int:
        return self.load_bytes + self.c_write_bytes


class AcceleratorDataEngine:
    """Schedules tile transfers over the MMAE's DMA engines."""

    def __init__(
        self,
        buffers: Optional[BufferSet] = None,
        num_engines: int = 2,
        frequency_hz: float = 2.5e9,
        matlb: Optional[MATLB] = None,
    ) -> None:
        if num_engines <= 0:
            raise ValueError("the ADE needs at least one DMA engine")
        self.buffers = buffers if buffers is not None else BufferSet()
        self.engines: List[DMAEngine] = [
            DMAEngine(engine_id=index, frequency_hz=frequency_hz) for index in range(num_engines)
        ]
        self.matlb = matlb if matlb is not None else MATLB()
        self.translation_stall_cycles = 0
        self.demand_translations = 0

    def transfer_cycles(self, plan: TileTransferPlan, round_trip_latency_cycles: float = 0.0) -> int:
        """Cycles to move a tile's data, splitting the load across both engines."""
        per_engine = plan.total_bytes / len(self.engines)
        results = [
            engine.transfer(int(round(per_engine)), round_trip_latency_cycles)
            for engine in self.engines
        ]
        return max(result.total_cycles for result in results)

    # ----------------------------------------------------------------- functional
    def load_operands(
        self,
        memory: HostMemory,
        descriptor: GEMMDescriptor,
        tile: Tile,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read the A, B and C sub-blocks of a tile from host memory."""
        a = memory.matrix_at(descriptor.addr_a)
        b = memory.matrix_at(descriptor.addr_b)
        c = memory.matrix_at(descriptor.addr_c)
        a_block = a[tile.row_start : tile.row_end, tile.k_start : tile.k_end]
        b_block = b[tile.k_start : tile.k_end, tile.col_start : tile.col_end]
        c_block = c[tile.row_start : tile.row_end, tile.col_start : tile.col_end]
        return a_block, b_block, c_block

    # ---------------------------------------------------------------- translation
    def translate_tile_batch(
        self,
        mmu,
        asid: int,
        layout: MatrixLayout,
        tile_rows: Tuple[int, int],
        tile_cols: Tuple[int, int],
        prediction_enabled: bool,
    ) -> int:
        """Translate every page a tile touches; returns the exposed stall cycles.

        With prediction the mATLB pre-walks the pages (walk cycles are treated
        as hidden) and the demand lookups hit; without prediction each page
        missing from the mATLB costs a demand walk through the shared MMU.
        The work is batched: one prewalk and one demand stream per tile.

        Bit-identical to the per-page reference loop
        (:func:`repro.conformance.reference.translate_tile_scalar`) — the
        same pages in the same access order reach the mATLB and the MMU, and
        every hit/miss/prewalk/walk
        counter advances identically (the scalar loop interleaves mATLB lookups
        with demand MMU translations, but the two never touch each other's
        state, so splitting them into two batched passes preserves every
        outcome).  A page fault on the demand path propagates at the same page
        with the same partial counter updates as the scalar loop.
        """
        row_start, row_count = tile_rows
        col_start, col_count = tile_cols
        pages = self.matlb.predictor.tile_page_vaddrs(
            layout, row_start, row_count, col_start, col_count
        )
        page_list = pages.tolist()
        if self.matlb.buffer_matches(page_list):
            # Steady-state reuse tile: the prewalk skips every page (no stats,
            # no LRU change) and the lookup stream hits every page while
            # leaving the LRU order exactly as it is, so the whole pass
            # reduces to the bulk hit count with zero stall cycles.
            self.matlb.stats.hits += len(page_list)
            return 0
        if prediction_enabled:
            self.matlb.prewalk_pages_batch(mmu, asid, pages)
        # Snapshot the mATLB's lookup-visible state so the (in practice dead)
        # demand-fault path below can rewind to exactly what the scalar loop
        # would have touched; lookups never change membership or values, so
        # the key order plus the two counters is the whole state.
        matlb_entries = self.matlb._entries
        lru_snapshot = list(matlb_entries.keys())
        stats_snapshot = (self.matlb.stats.hits, self.matlb.stats.misses)
        paddrs = self.matlb.lookup_batch(pages)
        missing = pages[paddrs < 0]
        stall_cycles = 0
        if missing.size:
            if not mmu.mapped_mask(asid, missing).all():
                self._demand_fault(mmu, asid, page_list, missing, lru_snapshot, stats_snapshot)
            demand = mmu.translate_data_batch(asid, missing)
            self.demand_translations += int(missing.size)
            stall_cycles = int(demand.cycles.sum())
        self.translation_stall_cycles += stall_cycles
        return stall_cycles

    def _demand_fault(self, mmu, asid, page_list, missing, lru_snapshot, stats_snapshot):
        """Replay the scalar loop's partial progress for a faulting demand page.

        The scalar loop stops at the first mATLB-missing page that faults: mATLB
        lookups (stats + LRU refreshes) cover only the pages up to and including
        the faulter, demand translations cover only the missing pages before it.
        The batched lookup above already touched every page, so rewind the mATLB
        to the snapshot, replay the prefix, and let the batched demand
        translation raise at the faulter with exact MMU-side partial stats.
        """
        matlb = self.matlb
        matlb._entries = OrderedDict(
            (page, matlb._entries[page]) for page in lru_snapshot
        )
        matlb.stats.hits, matlb.stats.misses = stats_snapshot
        missing_list = missing.tolist()
        fault_index = next(
            index for index, mapped in enumerate(mmu.mapped_mask(asid, missing).tolist())
            if not mapped
        )
        cutoff = page_list.index(missing_list[fault_index])
        matlb.lookup_batch(page_list[: cutoff + 1])
        try:
            mmu.translate_data_batch(asid, missing_list[: fault_index + 1])
        except PageFaultError as error:
            self.demand_translations += getattr(error, "batch_processed", 1) - 1
            raise
        raise RuntimeError("unreachable: an unmapped demand page must fault")
