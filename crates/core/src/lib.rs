//! # hs-core — dynamic thermal management, including **selective sedation**
//!
//! This crate implements the paper's contribution. The problem: a malicious
//! SMT thread can hammer a shared resource (the integer register file) until
//! it hits the thermal emergency temperature; every known DTM mechanism then
//! slows or stalls the *entire* pipeline, so the attacker repeatedly freezes
//! all threads — the **heat stroke** denial of service.
//!
//! The fix, *selective sedation* (§3.2 of the paper), rests on two
//! observations:
//!
//! 1. Hot-spot-creating threads access the heated resource at distinctly
//!    higher rates than normal threads, so per-thread access-rate monitoring
//!    identifies the culprit.
//! 2. Only the culprit needs to slow down; gating *its* fetch lets the
//!    resource cool while every other thread runs at full speed.
//!
//! The implementation follows the paper's mechanism exactly:
//!
//! * per-thread, per-resource access counters sampled every 1000 cycles,
//!   folded into a **weighted running average** with weight `x = 1/128` —
//!   computed with shifts, not multiplies ([`monitor::Ewma`]);
//! * an **upper temperature threshold** (356 K) just below the emergency
//!   (358.5 K): when it trips, the unsedated thread with the highest
//!   weighted average at that resource is sedated (fetch-gated);
//! * a **lower threshold** (355 K): when the resource cools to it, all
//!   threads sedated for that resource resume;
//! * re-examination after **twice the expected cooling time**: if the
//!   resource is still hot, the next-highest-average thread is sedated too
//!   (multiple attackers);
//! * the **last unsedated thread** is never sedated — if it drives the
//!   resource to the emergency anyway, a **safety-net stop-and-go** stalls
//!   the whole pipeline until the resource returns to its normal operating
//!   temperature and restores all sedated threads;
//! * sedated threads' averages are **frozen** so sedation cannot launder a
//!   thread's history;
//! * every sedation/release/emergency is **reported to the OS**
//!   ([`report::OsReport`]).
//!
//! [`StopAndGo`] (global clock gating on emergency) is the paper's baseline
//! DTM, and [`NoDtm`] is the no-op policy used with the ideal heat sink.
//!
//! ```
//! use hs_core::{SelectiveSedation, SedationConfig, ThermalPolicy, DtmInput, BlockCounts};
//! use hs_thermal::{Block, NUM_BLOCKS};
//!
//! let mut policy = SelectiveSedation::new(SedationConfig::default(), 2);
//! let mut temps = [340.0; NUM_BLOCKS];
//! temps[Block::IntReg.index()] = 356.5; // above the upper threshold
//! let mut counts = BlockCounts::new();
//! counts.add(0, Block::IntReg, 10_000); // thread 0 hammers the regfile
//! counts.add(1, Block::IntReg, 2_000);
//! let d = policy.on_sample(&DtmInput {
//!     cycle: 1_000,
//!     block_temps: &temps,
//!     sensor_valid: &hs_core::policy::ALL_SENSORS_VALID,
//!     sensor_fresh: true,
//!     counts: &counts,
//!     global_stalled: false,
//! });
//! assert!(d.gate.is_gated(hs_cpu::ThreadId(0)));   // culprit sedated
//! assert!(!d.gate.is_gated(hs_cpu::ThreadId(1)));  // victim untouched
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod config;
pub mod counts;
pub mod dvfs;
pub mod error;
pub mod failsafe;
pub mod faults;
pub mod guard;
mod latch;
pub mod monitor;
pub mod policy;
pub mod rate_cap;
pub mod report;
pub mod sedation;
pub mod stop_and_go;

pub use config::{DtmThresholds, SedationConfig};
pub use counts::BlockCounts;
pub use dvfs::GlobalDvfs;
pub use error::ConfigError;
pub use failsafe::{FailsafeConfig, FailsafeMode, FaultTolerantDtm};
pub use faults::{CounterFault, CounterFaultKind, CounterFaultPlan, MAX_COUNTER_FAULTS};
pub use guard::{GuardEvent, GuardedFrame, SensorGuard, SensorHealth};
pub use monitor::Ewma;
pub use policy::{DtmDecision, DtmInput, NoDtm, ThermalPolicy, ALL_SENSORS_VALID};
pub use rate_cap::{RateCap, RateCapConfig};
pub use report::{OsReport, ReportKind, ALL_REPORT_KINDS};
pub use sedation::SelectiveSedation;
pub use stop_and_go::StopAndGo;
