//! A multi-quantum OS scheduling layer on top of the quantum simulator.
//!
//! §3.2.2 of the paper: "In addition to alleviating heat-stroke in
//! hardware, we also report the offending threads to the operating system.
//! This reporting facilitates the identification of offensive threads and
//! their users" — and §3.3 argues the OS scheduler *by itself* (without
//! hardware reports) cannot defend against heat stroke.
//!
//! [`OsScheduler`] simulates a round-robin scheduler multiplexing a pool
//! of software threads over the SMT contexts, one OS quantum at a time.
//! When [`SchedulerConfig::respond_to_reports`] is on, a thread
//! accumulating more than `offense_threshold` sedation reports is marked
//! ineligible (suspended), after which the remaining threads get the
//! machine to themselves.
//!
//! ```no_run
//! use hs_sim::os::{OsScheduler, SchedulerConfig};
//! use hs_sim::{HeatSink, PolicyKind, SimConfig};
//! use hs_workloads::{SpecWorkload, Workload};
//!
//! let mut os = OsScheduler::new(
//!     SimConfig::experiment(),
//!     PolicyKind::SelectiveSedation,
//!     HeatSink::Realistic,
//!     SchedulerConfig { quanta: 8, offense_threshold: 10, respond_to_reports: true },
//! );
//! os.add_thread(Workload::Spec(SpecWorkload::Gcc));
//! os.add_thread(Workload::Spec(SpecWorkload::Eon));
//! os.add_thread(Workload::Variant2);
//! let outcome = os.run();
//! assert!(outcome.thread(2).suspended); // the attacker got benched
//! ```

use crate::config::{HeatSink, PolicyKind, SimConfig};
use crate::simulator::Simulator;
use hs_core::ReportKind;
use hs_workloads::Workload;

/// OS-level scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Number of OS quanta to simulate.
    pub quanta: u32,
    /// Sedation reports before a thread is suspended (when responding).
    pub offense_threshold: u64,
    /// Whether the OS acts on hardware offense reports at all.
    pub respond_to_reports: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quanta: 8,
            offense_threshold: 10,
            respond_to_reports: true,
        }
    }
}

/// Lifetime accounting for one software thread.
#[derive(Debug, Clone)]
pub struct OsThreadOutcome {
    /// Workload name.
    pub name: String,
    /// Instructions committed across all quanta it ran.
    pub committed: u64,
    /// Quanta in which the thread was scheduled.
    pub quanta_run: u32,
    /// Total sedation reports attributed to it.
    pub offenses: u64,
    /// Whether the OS suspended it.
    pub suspended: bool,
}

/// Result of a multi-quantum schedule.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Per software thread, in `add_thread` order.
    pub threads: Vec<OsThreadOutcome>,
    /// Quanta actually executed.
    pub quanta: u32,
    /// Total temperature emergencies across all quanta.
    pub emergencies: u64,
}

impl ScheduleOutcome {
    /// The outcome for software thread `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn thread(&self, i: usize) -> &OsThreadOutcome {
        &self.threads[i]
    }
}

#[derive(Debug)]
struct OsThread {
    workload: Workload,
    committed: u64,
    quanta_run: u32,
    offenses: u64,
    suspended: bool,
}

/// The round-robin multi-quantum scheduler.
#[derive(Debug)]
pub struct OsScheduler {
    cfg: SimConfig,
    policy: PolicyKind,
    sink: HeatSink,
    sched: SchedulerConfig,
    threads: Vec<OsThread>,
    next: usize,
}

impl OsScheduler {
    /// Creates a scheduler with no threads.
    #[must_use]
    pub fn new(cfg: SimConfig, policy: PolicyKind, sink: HeatSink, sched: SchedulerConfig) -> Self {
        cfg.validate();
        OsScheduler {
            cfg,
            policy,
            sink,
            sched,
            threads: Vec::new(),
            next: 0,
        }
    }

    /// Adds a software thread to the run queue; returns its index.
    pub fn add_thread(&mut self, w: Workload) -> usize {
        self.threads.push(OsThread {
            workload: w,
            committed: 0,
            quanta_run: 0,
            offenses: 0,
            suspended: false,
        });
        self.threads.len() - 1
    }

    /// Picks up to `contexts` runnable threads round-robin.
    fn pick(&mut self) -> Vec<usize> {
        let contexts = self.cfg.cpu.contexts as usize;
        let n = self.threads.len();
        let mut picked = Vec::new();
        for k in 0..n {
            let i = (self.next + k) % n;
            if !self.threads[i].suspended {
                picked.push(i);
                if picked.len() == contexts {
                    break;
                }
            }
        }
        self.next = (self.next + 1) % n;
        picked
    }

    /// Runs the configured number of quanta and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if no threads were added.
    pub fn run(&mut self) -> ScheduleOutcome {
        assert!(!self.threads.is_empty(), "add at least one thread");
        let mut emergencies = 0;
        let mut executed = 0;
        for _ in 0..self.sched.quanta {
            let picked = self.pick();
            if picked.is_empty() {
                break; // everyone suspended
            }
            let mut sim = Simulator::new(self.cfg, self.policy, self.sink);
            for &i in &picked {
                sim.attach(self.threads[i].workload)
                    .expect("pick() never exceeds the context count");
            }
            let stats = sim.run_quantum();
            executed += 1;
            emergencies += stats.emergencies;
            for (hw, &i) in picked.iter().enumerate() {
                let t = &mut self.threads[i];
                t.committed += stats.thread(hw).committed;
                t.quanta_run += 1;
                let offenses = stats
                    .reports
                    .iter()
                    .filter(|r| {
                        r.kind == ReportKind::Sedated
                            && r.thread.map(hs_cpu::ThreadId::index) == Some(hw)
                    })
                    .count() as u64;
                t.offenses += offenses;
                if self.sched.respond_to_reports && t.offenses >= self.sched.offense_threshold {
                    t.suspended = true;
                }
            }
        }
        ScheduleOutcome {
            threads: self
                .threads
                .iter()
                .map(|t| OsThreadOutcome {
                    name: t.workload.name().to_string(),
                    committed: t.committed,
                    quanta_run: t.quanta_run,
                    offenses: t.offenses,
                    suspended: t.suspended,
                })
                .collect(),
            quanta: executed,
            emergencies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workloads::SpecWorkload;

    fn fast() -> SimConfig {
        let mut c = SimConfig::scaled(800.0);
        c.warmup_cycles = 200_000;
        c
    }

    fn sched(quanta: u32, respond: bool) -> SchedulerConfig {
        SchedulerConfig {
            quanta,
            offense_threshold: 5,
            respond_to_reports: respond,
        }
    }

    #[test]
    fn round_robin_shares_quanta_fairly() {
        let mut os = OsScheduler::new(
            fast(),
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            sched(6, true),
        );
        for w in [SpecWorkload::Gcc, SpecWorkload::Eon, SpecWorkload::Mesa] {
            os.add_thread(Workload::Spec(w));
        }
        let out = os.run();
        // 3 threads, 2 contexts, 6 quanta => 12 slots => 4 each.
        for t in &out.threads {
            assert_eq!(t.quanta_run, 4, "{} ran {}", t.name, t.quanta_run);
            assert!(!t.suspended);
            assert!(t.committed > 0);
        }
    }

    #[test]
    fn attacker_gets_suspended_when_os_responds() {
        let mut os = OsScheduler::new(
            fast(),
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            sched(6, true),
        );
        os.add_thread(Workload::Spec(SpecWorkload::Gcc));
        os.add_thread(Workload::Variant2);
        let out = os.run();
        assert!(out.thread(1).suspended, "attacker must be benched");
        assert!(out.thread(1).offenses >= 5);
        assert!(!out.thread(0).suspended);
    }

    #[test]
    fn without_response_the_attacker_keeps_running() {
        let mut os = OsScheduler::new(
            fast(),
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            sched(6, false),
        );
        os.add_thread(Workload::Spec(SpecWorkload::Gcc));
        os.add_thread(Workload::Variant2);
        let out = os.run();
        assert!(!out.thread(1).suspended);
        assert_eq!(out.thread(1).quanta_run, 6);
    }

    #[test]
    fn suspension_improves_innocent_throughput_under_stop_and_go() {
        // Under stop-and-go (no hardware defense) the only mitigation is
        // the OS acting on reports... which stop-and-go never generates —
        // so the attacker is never suspended and the victim suffers every
        // quantum. This is the paper's point: the OS needs the hardware's
        // identification.
        let mut os = OsScheduler::new(
            fast(),
            PolicyKind::StopAndGo,
            HeatSink::Realistic,
            sched(4, true),
        );
        os.add_thread(Workload::Spec(SpecWorkload::Gcc));
        os.add_thread(Workload::Variant2);
        let out = os.run();
        assert!(
            !out.thread(1).suspended,
            "stop-and-go cannot identify the culprit, so the OS cannot act"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_run_queue_panics() {
        let mut os = OsScheduler::new(
            fast(),
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            sched(1, true),
        );
        let _ = os.run();
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use hs_workloads::SpecWorkload;

    #[test]
    fn five_threads_on_two_contexts_rotate() {
        let mut cfg = crate::SimConfig::scaled(800.0);
        cfg.warmup_cycles = 100_000;
        let mut os = OsScheduler::new(
            cfg,
            crate::PolicyKind::StopAndGo,
            crate::HeatSink::Ideal,
            SchedulerConfig {
                quanta: 10,
                offense_threshold: 5,
                respond_to_reports: true,
            },
        );
        for w in [
            SpecWorkload::Gcc,
            SpecWorkload::Eon,
            SpecWorkload::Mesa,
            SpecWorkload::Twolf,
            SpecWorkload::Gap,
        ] {
            os.add_thread(Workload::Spec(w));
        }
        let out = os.run();
        // 10 quanta x 2 contexts = 20 slots over 5 threads => 4 each.
        for t in &out.threads {
            assert_eq!(t.quanta_run, 4, "{}: {}", t.name, t.quanta_run);
        }
        assert_eq!(out.quanta, 10);
    }

    #[test]
    fn all_suspended_ends_the_schedule_early() {
        let mut cfg = crate::SimConfig::scaled(800.0);
        cfg.warmup_cycles = 100_000;
        let mut os = OsScheduler::new(
            cfg,
            crate::PolicyKind::SelectiveSedation,
            crate::HeatSink::Realistic,
            SchedulerConfig {
                quanta: 12,
                offense_threshold: 1,
                respond_to_reports: true,
            },
        );
        // Two attackers and nothing else: once both are benched the run
        // queue empties and the schedule stops early.
        os.add_thread(Workload::Variant2);
        os.add_thread(Workload::Variant1);
        let out = os.run();
        assert!(out.thread(0).suspended || out.thread(1).suspended);
        if out.threads.iter().all(|t| t.suspended) {
            assert!(out.quanta < 12, "schedule should end early");
        }
    }
}
