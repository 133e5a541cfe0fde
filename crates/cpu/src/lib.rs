//! Out-of-order core model.
//!
//! A trace-driven reproduction of the core the paper simulates in gem5
//! (Table I): 1 GHz x86-style out-of-order engine, 3-wide
//! fetch/dispatch/issue/commit, 84-entry reorder buffer, 32-entry load
//! queue, with a branch-mispredict redirect penalty standing in for the
//! tournament predictor.
//!
//! The model consumes an [`InstrStream`] (produced by `moca-workloads`) and
//! talks to the memory hierarchy through the [`MemPort`] trait (implemented
//! by `moca-sim`). Two properties the MOCA classifier depends on *emerge*
//! from the microarchitecture rather than being asserted:
//!
//! * **LLC MPKI** — loads/stores walk the real cache hierarchy; only L2
//!   misses reach DRAM.
//! * **Memory-level parallelism** — independent loads overlap up to the
//!   LQ/MSHR limits, while address-dependent loads (pointer chasing) issue
//!   serially; the resulting *ROB-head stall cycles per load miss* is
//!   measured exactly as in §III-A: cycles the commit stage spends blocked
//!   on an incomplete LLC-missing load at the ROB head.

pub mod core;
pub mod instr;
pub mod stats;

pub use crate::core::{Core, CoreConfig, MemPort, MemReply, StoreReply};
pub use instr::{Instr, InstrStream};
pub use stats::{CoreStats, TagStats};
