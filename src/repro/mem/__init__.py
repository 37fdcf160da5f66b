"""Memory hierarchy substrate: addresses, paging, TLBs, caches, coherence, L3 and DRAM.

The MACO evaluation depends on three memory-system behaviours that this
package models explicitly:

* virtual-to-physical translation (page tables, TLBs, page-table walks) — the
  substrate under the predictive address translation study of Fig. 6;
* the distributed, directory-coherent (MOESI) L3 "system cache" with stash and
  lock operations — the substrate under the GEMM+ mapping scheme of Fig. 5;
* bandwidth/latency of the DDR memory controllers behind the L3.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mem.address import (
        AddressRange,
        align_down,
        align_up,
        cache_index,
        cache_tag,
        page_number,
        page_offset,
    )
    from repro.mem.page_table import AddressSpace, FrameAllocator, PageTable, PageTableWalker
    from repro.mem.tlb import TLB, TLBEntry, TLBHierarchy
    from repro.mem.cache import CacheConfig, CacheStats, SetAssociativeCache
    from repro.mem.coherence import CoherenceState, DirectoryController, DirectoryEntry
    from repro.mem.l3cache import DistributedL3Cache, L3Slice, StashRequest
    from repro.mem.dram import DRAMConfig, DRAMModel

__getattr__, __dir__ = lazy_exports(__name__, __file__)

__all__ = [
    "AddressRange",
    "align_down",
    "align_up",
    "cache_index",
    "cache_tag",
    "page_number",
    "page_offset",
    "AddressSpace",
    "FrameAllocator",
    "PageTable",
    "PageTableWalker",
    "TLB",
    "TLBEntry",
    "TLBHierarchy",
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "CoherenceState",
    "DirectoryController",
    "DirectoryEntry",
    "DistributedL3Cache",
    "L3Slice",
    "StashRequest",
    "DRAMConfig",
    "DRAMModel",
]
