//! # hs-cpu — a cycle-level SMT out-of-order pipeline
//!
//! This crate models the processor of the paper's Table 1: a 6-wide
//! out-of-order core with a 128-entry RUU, a 32-entry LSQ, two memory ports,
//! two SMT contexts, and the **ICOUNT** fetch policy fetching from up to two
//! threads per cycle. It follows the SimpleScalar `sim-outorder`
//! organization the paper built on: instructions execute *functionally at
//! dispatch* (in program order, using `hs-isa`'s architectural semantics)
//! while the Register Update Unit models timing out of order.
//!
//! Two behaviours the paper calls out explicitly are implemented:
//!
//! * **ICOUNT** fetch arbitration ([`pipeline::Cpu`]): each cycle the two
//!   threads with the fewest in-flight instructions share the fetch
//!   bandwidth, which is what lets a high-IPC malicious thread (variant1)
//!   monopolize fetch, and what variant2 deliberately avoids by padding its
//!   IPC down with L2 misses.
//! * **Squash on L2 miss**: a thread whose load misses in the L2 stops
//!   dispatching until the miss returns, so it cannot fill the shared issue
//!   queue ("our SMT simulator implements common optimization techniques
//!   such as squashing a thread on an L2 miss").
//!
//! Every microarchitectural event increments a per-thread, per-resource
//! counter ([`resources::AccessMatrix`]); the power model (`hs-power`) turns
//! those counts into block powers and the DTM policies (`hs-core`) use the
//! same counts for the paper's per-thread access-rate monitors.
//!
//! ```
//! use hs_cpu::{Cpu, CpuConfig, FetchGate};
//! use hs_mem::MemConfig;
//! use hs_isa::{ProgramBuilder, IntReg};
//!
//! let mut b = ProgramBuilder::new();
//! let top = b.label();
//! b.addi(IntReg::new(1), IntReg::new(1), 1);
//! b.jump(top);
//!
//! let mut cpu = Cpu::new(CpuConfig::default(), MemConfig::default());
//! cpu.attach_thread(b.build().unwrap());
//! for _ in 0..1000 {
//!     cpu.tick(FetchGate::open());
//! }
//! assert!(cpu.thread_stats(hs_cpu::ThreadId(0)).committed > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod bpred;
pub mod config;
mod decode;
pub mod phase;
pub mod pipeline;
pub mod resources;
pub mod stats;
mod thread;

pub use config::{CpuConfig, FetchPolicy};
pub use phase::{IntervalDriver, PhaseSample};
pub use pipeline::{Cpu, FetchGate};
pub use resources::{
    fu_resource, AccessMatrix, Resource, ThreadId, ALL_RESOURCES, MAX_THREADS, NUM_RESOURCES,
};
pub use stats::ThreadStats;
