//! Virtual-memory substrate: address-space layout, page tables, TLBs,
//! physical frame allocation over heterogeneous modules, and the OS
//! page-placement policy hook.
//!
//! This reproduces the memory-management layer the paper modifies inside the
//! Linux guest (§III-C, §IV-D, Fig. 6):
//!
//! * the **heap virtual address space is partitioned into three typed
//!   regions** (latency / bandwidth / power), so an object's class is
//!   recoverable from its virtual page number alone;
//! * the **physical address space is divided per module**; the OS maintains
//!   per-module frame allocators and maps a faulting virtual page to a frame
//!   of the module its class prefers, falling back to the next-best module
//!   when the preferred one is exhausted;
//! * address translation goes through a per-core **TLB**; misses pay a page
//!   walk.

pub mod frames;
pub mod layout;
pub mod page_table;
pub mod policy;
pub mod radix;
pub mod tlb;

pub use frames::{FrameError, FrameSpace, FreeErrorCause, ModuleRegion, FREE_CACHE, STRIPE_CHUNK};
pub use layout::{partition_base, segment_of_va, HeapLayout, PageIntent};
pub use page_table::PageTable;
pub use policy::{preference_order, PagePlacementPolicy};
pub use radix::RadixMap;
pub use tlb::Tlb;
