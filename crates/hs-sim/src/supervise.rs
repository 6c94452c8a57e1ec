//! # Campaign supervision: panic isolation, deadlines, retries, chaos
//!
//! [`Campaign::run`](crate::Campaign::run) is fail-fast: the first bad run
//! aborts the batch, a panicking run poisons the whole worker pool, and a
//! runaway run can stall a campaign forever. That is the right contract
//! for reproducing the paper's figures, where every run is known good —
//! and the wrong one for fleet-scale screening of *hostile* guest code,
//! which is this paper's whole threat model. This module adds the
//! supervision layer:
//!
//! * **Panic isolation** — each run executes under
//!   [`std::panic::catch_unwind`]; a poisoned run becomes a typed
//!   [`RunOutcome::Panicked`] instead of a pool abort. No simulation state
//!   is shared between runs, so unwinding one run cannot corrupt another
//!   (every run owns its own `Simulator`).
//! * **Deadlines** — a deterministic *cycle budget* (a run whose
//!   `warmup + quantum` exceeds the budget is refused before it executes)
//!   and a cooperative *wall-clock watchdog* (a run whose attempt overran
//!   the deadline is discarded and classified [`RunOutcome::TimedOut`]).
//! * **Retry with seeded backoff** — outcomes classified
//!   [`ErrorClass::Transient`] are retried up to
//!   [`RetryPolicy::max_attempts`] times with exponential backoff and
//!   deterministic jitter drawn from the in-tree [`XorShift64`], keyed by
//!   `(seed, run id, attempt)` so the delay schedule is a pure function of
//!   the policy — never of thread timing.
//! * **Quarantine** — a run that fails permanently (or exhausts its
//!   attempts) lands in [`CampaignReport::quarantined`] as a
//!   [`QuarantinedRun`]; the rest of the campaign completes.
//! * **Crash-safe journal + resume** — with [`Supervision::journal`] set,
//!   every final outcome is appended to `<name>.journal.jsonl` (one JSON
//!   record per line, flushed per record); [`Campaign::resume`] replays
//!   journaled outcomes from disk and executes only the remainder,
//!   producing a report **byte-identical** to an uninterrupted run.
//! * **Chaos harness** — a seeded [`ChaosPlan`] injects worker panics,
//!   stalls, and transient errors keyed by `(run id, attempt)`, so the
//!   whole ladder above is exercised deterministically in tests and the
//!   `chaos` registry experiment.
//!
//! ## Determinism
//!
//! The supervised engine keeps the campaign engine's serial≡parallel
//! byte-identity contract: outcomes are keyed by stable run id, chaos and
//! backoff jitter are pure functions of `(seed, run id, attempt)`, and the
//! serialized report excludes everything scheduling-dependent (attempt
//! wall times, journal record order). The only nondeterministic input is
//! the wall-clock watchdog; a spuriously slow attempt is *retried*, so it
//! can only change in-memory attempt counts, never the artifact — unless
//! every attempt times out, which supervision treats as a genuine runaway.

use crate::campaign::{Campaign, CampaignReport, PlannedRun};
use crate::error::SimError;
use crate::executor::{self, Worker};
use crate::journal::{Journal, JournalEntry};
use crate::json::Json;
use crate::stats::SimStats;
use hs_core::ErrorClass;
use hs_thermal::XorShift64;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

thread_local! {
    /// Set while this thread executes a supervised attempt, so the panic
    /// hook knows the unwind is caught and expected.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics on supervised worker threads — they are caught, classified and
/// reported through [`RunOutcome::Panicked`], so the default hook's
/// backtrace would only spam stderr — and delegates every other panic to
/// the previously installed hook unchanged.
fn silence_supervised_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Which deadline a run overran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// The deterministic cycle budget: `warmup + quantum` exceeds
    /// [`Supervision::cycle_budget`]. Checked *before* execution, so a
    /// budget-busting run costs nothing — and since the overrun is a pure
    /// function of the spec, it is permanent (never retried).
    CycleBudget,
    /// The cooperative wall-clock watchdog: the attempt took longer than
    /// [`Supervision::wall_deadline`]. Environmental, hence transient.
    WallClock,
}

/// The outcome lattice of one supervised attempt.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run finished and produced statistics.
    Completed(SimStats),
    /// The run returned a typed error.
    Failed(SimError),
    /// The run panicked; the payload's message, with the pool intact.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The run overran a deadline.
    TimedOut(DeadlineKind),
}

impl RunOutcome {
    /// Supervision classification; `None` for a completed run.
    #[must_use]
    pub fn class(&self) -> Option<ErrorClass> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Failed(e) => Some(e.class()),
            // A panic may be a poisoned environment (chaos, resource
            // exhaustion); bounded retry decides whether it is sticky.
            RunOutcome::Panicked { .. } => Some(ErrorClass::Transient),
            RunOutcome::TimedOut(DeadlineKind::CycleBudget) => Some(ErrorClass::Permanent),
            RunOutcome::TimedOut(DeadlineKind::WallClock) => Some(ErrorClass::Transient),
        }
    }

    /// Stable kind tag used in journals, artifacts, and renderings.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RunOutcome::Completed(_) => "completed",
            RunOutcome::Failed(_) => "failed",
            RunOutcome::Panicked { .. } => "panicked",
            RunOutcome::TimedOut(DeadlineKind::CycleBudget) => "timed-out:cycles",
            RunOutcome::TimedOut(DeadlineKind::WallClock) => "timed-out:wall",
        }
    }

    /// Deterministic one-line description (no wall-clock measurements).
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            RunOutcome::Completed(_) => String::new(),
            RunOutcome::Failed(e) => e.to_string(),
            RunOutcome::Panicked { message } => message.clone(),
            RunOutcome::TimedOut(DeadlineKind::CycleBudget) => {
                "run needs more cycles than the supervision budget allows".into()
            }
            RunOutcome::TimedOut(DeadlineKind::WallClock) => {
                "attempt overran the wall-clock deadline".into()
            }
        }
    }
}

/// A run the supervisor gave up on: the campaign's poison list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRun {
    /// Stable run id (declaration index).
    pub id: usize,
    /// The run's label.
    pub label: String,
    /// Attempts spent before quarantining (1 for permanent failures).
    pub attempts: u32,
    /// Outcome kind tag ([`RunOutcome::kind`]).
    pub kind: String,
    /// Deterministic description of the final failure.
    pub detail: String,
}

impl QuarantinedRun {
    /// Serializes the record (used in both artifacts and journals).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::U64(self.id as u64)),
            ("label".into(), Json::Str(self.label.clone())),
            ("attempts".into(), Json::U64(u64::from(self.attempts))),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }

    /// Reconstructs a record from [`QuarantinedRun::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<QuarantinedRun, String> {
        let str_of = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        Ok(QuarantinedRun {
            id: v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("missing integer `id`")? as usize,
            label: str_of("label")?,
            attempts: u32::try_from(
                v.get("attempts")
                    .and_then(Json::as_u64)
                    .ok_or("missing integer `attempts`")?,
            )
            .map_err(|_| "`attempts` overflows u32".to_string())?,
            kind: str_of("kind")?,
            detail: str_of("detail")?,
        })
    }
}

/// Bounded, deterministic retry.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per run, including the first (min 1).
    pub max_attempts: u32,
    /// Base backoff before attempt 2; doubles per further attempt.
    pub backoff: Duration,
    /// Seed for the jitter stream (mixed with run id and attempt).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(10),
            seed: 0x4845_4154_5354_524F, // "HEATSTRO"
        }
    }
}

impl RetryPolicy {
    /// The delay before `attempt + 1` of run `run_id`: exponential in the
    /// attempt number with jitter in `[0.5, 1.5)` drawn from a stream
    /// seeded by `(seed, run_id, attempt)` — a pure function, so the
    /// backoff schedule is reproducible and testable.
    #[must_use]
    pub fn delay(&self, run_id: usize, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = (attempt.saturating_sub(1)).min(16);
        let exp = self.backoff.saturating_mul(1 << shift);
        let mut rng = XorShift64::new(
            self.seed
                ^ (run_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        exp.mul_f64(0.5 + rng.next_f64())
    }
}

/// What chaos injects into one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Nothing; the attempt runs normally.
    None,
    /// Panic inside the worker before the run executes.
    Panic,
    /// Sleep for the plan's stall duration, then run normally (a wall
    /// deadline shorter than the stall converts this into a timeout).
    Stall,
    /// Return a transient [`SimError::Interrupted`] instead of running.
    Transient,
}

/// A deterministic fault schedule for the supervision layer itself.
///
/// Events are a pure function of `(seed, run id, attempt)` — never of
/// worker identity or timing — so a chaotic campaign is exactly as
/// reproducible as a clean one. Two regimes:
///
/// * **Seeded rates** (`panic_rate`/`transient_rate`/`stall_rate`): fire
///   on the *first* attempt only, so bounded retry always clears them.
///   This keeps the quarantine set exactly equal to the planned one.
/// * **Planned permanent failures** (`permanent`): those run ids panic on
///   *every* attempt, so they deterministically exhaust their retries and
///   land in quarantine.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    seed: u64,
    panic_rate: f64,
    transient_rate: f64,
    stall_rate: f64,
    stall: Duration,
    permanent: Vec<usize>,
}

impl ChaosPlan {
    /// A plan with the given seed and no events.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            stall: Duration::from_millis(10),
            ..ChaosPlan::default()
        }
    }

    /// Probability that a first attempt panics.
    #[must_use]
    pub fn panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability that a first attempt fails with a transient error.
    #[must_use]
    pub fn transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability that a first attempt stalls for [`ChaosPlan::stall_for`].
    #[must_use]
    pub fn stall_rate(mut self, rate: f64) -> Self {
        self.stall_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// How long an injected stall sleeps.
    #[must_use]
    pub fn stall_for(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// Run ids that fail on every attempt (the planned quarantine set).
    #[must_use]
    pub fn permanent(mut self, ids: impl IntoIterator<Item = usize>) -> Self {
        self.permanent.extend(ids);
        self
    }

    /// The stall duration injected by [`ChaosEvent::Stall`].
    #[must_use]
    pub fn stall_duration(&self) -> Duration {
        self.stall
    }

    /// The event for one attempt — a pure function of the plan and the
    /// `(run_id, attempt)` pair.
    #[must_use]
    pub fn event(&self, run_id: usize, attempt: u32) -> ChaosEvent {
        if self.permanent.contains(&run_id) {
            return ChaosEvent::Panic;
        }
        if attempt > 1 {
            // Rate-based faults are first-attempt only: retries are clean,
            // so the quarantine set stays exactly the planned one.
            return ChaosEvent::None;
        }
        let mut rng = XorShift64::new(
            self.seed ^ (run_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x000C_4A05,
        );
        let x = rng.next_f64();
        if x < self.panic_rate {
            ChaosEvent::Panic
        } else if x < self.panic_rate + self.transient_rate {
            ChaosEvent::Transient
        } else if x < self.panic_rate + self.transient_rate + self.stall_rate {
            ChaosEvent::Stall
        } else {
            ChaosEvent::None
        }
    }
}

/// The supervision configuration for [`Campaign::run_supervised`] and
/// [`Campaign::resume`].
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Deterministic per-run cycle budget (`warmup + quantum` must not
    /// exceed it); `None` disables the check.
    pub cycle_budget: Option<u64>,
    /// Cooperative per-attempt wall-clock deadline; `None` disables it.
    pub wall_deadline: Option<Duration>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Fault injection for the supervision layer itself.
    pub chaos: Option<ChaosPlan>,
    /// Append-only run journal path (`<name>.journal.jsonl`); `None`
    /// disables journaling (and therefore resume).
    pub journal: Option<PathBuf>,
    /// Crash-test hook: once this many outcomes have been journaled, stop
    /// dispatching new runs and return [`SimError::Interrupted`] — the
    /// in-process equivalent of `kill -9` for resume tests.
    pub abort_after: Option<usize>,
}

// Default for Supervision derives field-wise; RetryPolicy::default() is
// max_attempts 1, i.e. supervision without retries.

/// A run's final supervised disposition.
#[derive(Debug)]
enum Done {
    Completed(SimStats),
    Quarantined(QuarantinedRun),
}

impl Campaign {
    /// Executes the matrix under supervision: panics are isolated,
    /// deadlines enforced, transient failures retried, permanent ones
    /// quarantined, and (with [`Supervision::journal`] set) every outcome
    /// journaled crash-safely. An existing journal file is **truncated**;
    /// use [`Campaign::resume`] to continue one.
    ///
    /// # Errors
    ///
    /// Returns the preflight's [`SimError`] for an invalid matrix,
    /// [`SimError::Journal`] if the journal cannot be written, and
    /// [`SimError::Interrupted`] if [`Supervision::abort_after`] fired.
    pub fn run_supervised(
        &self,
        jobs: usize,
        sup: &Supervision,
    ) -> Result<CampaignReport, SimError> {
        self.execute_supervised(jobs, sup, false)
    }

    /// Like [`Campaign::run_supervised`], but if the journal file already
    /// exists its completed and quarantined runs are **replayed from
    /// disk** and only the remainder executes. The resulting report is
    /// byte-identical to an uninterrupted run (journaled statistics
    /// round-trip bit-exactly). Without an existing journal this is a
    /// fresh supervised run.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_supervised`], plus [`SimError::Journal`] when
    /// the journal on disk was written by a different campaign or is
    /// corrupt beyond its (tolerated) torn final line.
    pub fn resume(&self, jobs: usize, sup: &Supervision) -> Result<CampaignReport, SimError> {
        self.execute_supervised(jobs, sup, true)
    }

    fn execute_supervised(
        &self,
        jobs: usize,
        sup: &Supervision,
        resume: bool,
    ) -> Result<CampaignReport, SimError> {
        self.preflight()?;
        silence_supervised_panics();
        let started = Instant::now();
        let mut slots: Vec<Option<Done>> = self.runs().iter().map(|_| None).collect();

        // Replay the journal (resume) or start a fresh one.
        let journal = match &sup.journal {
            None => None,
            Some(path) => {
                let (journal, replayed) = if resume {
                    Journal::open_or_create(path, self)?
                } else {
                    (Journal::create(path, self)?, Vec::new())
                };
                for entry in replayed {
                    match entry {
                        JournalEntry::Completed { id, stats } => {
                            slots[id] = Some(Done::Completed(stats));
                        }
                        JournalEntry::Quarantined(q) => {
                            let id = q.id;
                            slots[id] = Some(Done::Quarantined(q));
                        }
                    }
                }
                Some(journal)
            }
        };

        let pending: Vec<usize> = (0..self.len()).filter(|&i| slots[i].is_none()).collect();
        let journaled = AtomicUsize::new(0);
        let executed = executor::execute(
            self.runs(),
            &pending,
            jobs,
            |id, worker| {
                let done = supervise_one(&self.runs()[id], id, sup, worker);
                if let Some(journal) = &journal {
                    match &done {
                        Done::Completed(stats) => {
                            journal.completed(id, &self.runs()[id].label, stats);
                        }
                        Done::Quarantined(q) => journal.quarantined(q),
                    }
                }
                done
            },
            |_| {
                let n = journaled.fetch_add(1, Ordering::SeqCst) + 1;
                sup.abort_after.is_some_and(|k| n >= k)
            },
        );

        if let Some(journal) = journal {
            journal.flush()?;
        }
        if executed.stopped {
            return Err(SimError::Interrupted {
                what: format!(
                    "campaign `{}` aborted after {} supervised outcomes (abort-after hook)",
                    self.name(),
                    journaled.load(Ordering::SeqCst)
                ),
            });
        }
        for (slot, done) in slots.iter_mut().zip(executed.results) {
            if done.is_some() {
                *slot = done;
            }
        }

        let mut runs = Vec::new();
        let mut quarantined = Vec::new();
        for (id, done) in slots.into_iter().enumerate() {
            match done.unwrap_or_else(|| unreachable!("run {id} has no outcome")) {
                Done::Completed(stats) => runs.push(self.record(id, stats)),
                Done::Quarantined(q) => quarantined.push(q),
            }
        }
        Ok(CampaignReport {
            name: self.name().to_string(),
            runs,
            quarantined,
            jobs: executed.jobs,
            warmups: executed.warmups,
            wall: started.elapsed(),
        })
    }
}

/// Runs one planned run to its final disposition: retry transient
/// failures per the policy, quarantine permanent ones.
fn supervise_one(run: &PlannedRun, id: usize, sup: &Supervision, worker: &Worker<'_>) -> Done {
    let max_attempts = sup.retry.max_attempts.max(1);
    for attempt in 1..=max_attempts {
        let outcome = attempt_once(run, id, attempt, sup, worker);
        let Some(class) = outcome.class() else {
            let RunOutcome::Completed(stats) = outcome else {
                unreachable!("only Completed classifies as None")
            };
            return Done::Completed(stats);
        };
        if class.is_transient() && attempt < max_attempts {
            std::thread::sleep(sup.retry.delay(id, attempt));
            continue;
        }
        return Done::Quarantined(QuarantinedRun {
            id,
            label: run.label.clone(),
            attempts: attempt,
            kind: outcome.kind().to_string(),
            detail: outcome.detail(),
        });
    }
    unreachable!("attempt loop always returns")
}

/// One supervised attempt: cycle-budget gate, chaos injection, panic
/// isolation, wall-clock check. Time spent waiting for another run's
/// warm-up does not count against the deadline.
fn attempt_once(
    run: &PlannedRun,
    id: usize,
    attempt: u32,
    sup: &Supervision,
    worker: &Worker<'_>,
) -> RunOutcome {
    if let Some(budget) = sup.cycle_budget {
        let cfg = run.spec.config();
        let needed = cfg.warmup_cycles.saturating_add(cfg.quantum_cycles);
        if needed > budget {
            return RunOutcome::TimedOut(DeadlineKind::CycleBudget);
        }
    }
    let chaos = sup
        .chaos
        .as_ref()
        .map_or(ChaosEvent::None, |p| p.event(id, attempt));
    if chaos == ChaosEvent::Transient {
        return RunOutcome::Failed(SimError::Interrupted {
            what: format!("chaos: injected transient fault (attempt {attempt})"),
        });
    }
    let stall = sup
        .chaos
        .as_ref()
        .map_or(Duration::ZERO, ChaosPlan::stall_duration);
    let label = &run.label;
    let started = Instant::now();
    let work = || {
        if chaos == ChaosEvent::Stall {
            std::thread::sleep(stall);
        }
        assert!(
            chaos != ChaosEvent::Panic,
            "chaos: injected panic in `{label}` (attempt {attempt})"
        );
        worker.run(id, &run.spec)
    };
    // `RunSpec` is plain data, each attempt builds a fresh `Simulator`, and
    // a shared warm core is only ever cloned (an unwinding warm-up hands
    // its duty back), so nothing observable survives an unwind:
    // AssertUnwindSafe is sound.
    SUPERVISED.with(|s| s.set(true));
    let caught = catch_unwind(AssertUnwindSafe(work));
    SUPERVISED.with(|s| s.set(false));
    let (result, waited) = match caught {
        Ok(ran) => ran,
        Err(payload) => {
            return RunOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            }
        }
    };
    if let Some(limit) = sup.wall_deadline {
        if started.elapsed().saturating_sub(waited) > limit {
            // The attempt's result is discarded even when Ok: a run that
            // overran its deadline is a runaway by definition, and keeping
            // the result would make the report depend on scheduling luck.
            return RunOutcome::TimedOut(DeadlineKind::WallClock);
        }
    }
    match result {
        Ok(stats) => RunOutcome::Completed(stats),
        Err(e) => RunOutcome::Failed(e),
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(8),
            seed: 7,
        };
        assert_eq!(policy.delay(3, 1), policy.delay(3, 1));
        assert_ne!(
            policy.delay(3, 1),
            policy.delay(4, 1),
            "jitter keys on run id"
        );
        // Jitter is bounded to [0.5, 1.5) of the exponential base.
        for attempt in 1..=3 {
            let d = policy.delay(0, attempt);
            let base = Duration::from_millis(8 << (attempt - 1));
            assert!(d >= base / 2 && d < base * 3 / 2, "{d:?} vs base {base:?}");
        }
        let zero = RetryPolicy {
            backoff: Duration::ZERO,
            ..policy
        };
        assert_eq!(zero.delay(0, 1), Duration::ZERO);
    }

    #[test]
    fn chaos_events_are_pure_and_first_attempt_only() {
        let plan = ChaosPlan::seeded(11)
            .panic_rate(0.3)
            .transient_rate(0.3)
            .stall_rate(0.2)
            .permanent([5]);
        let mut fired = 0;
        for id in 0..40 {
            let e = plan.event(id, 1);
            assert_eq!(e, plan.event(id, 1), "pure function of (id, attempt)");
            if e != ChaosEvent::None {
                fired += 1;
            }
            if id != 5 {
                assert_eq!(plan.event(id, 2), ChaosEvent::None, "retries are clean");
            }
        }
        assert!(fired > 5, "rates must actually fire ({fired}/40)");
        for attempt in 1..=4 {
            assert_eq!(
                plan.event(5, attempt),
                ChaosEvent::Panic,
                "permanent ids stick"
            );
        }
    }

    #[test]
    fn outcome_lattice_classification() {
        assert_eq!(
            RunOutcome::TimedOut(DeadlineKind::CycleBudget).class(),
            Some(ErrorClass::Permanent)
        );
        assert_eq!(
            RunOutcome::TimedOut(DeadlineKind::WallClock).class(),
            Some(ErrorClass::Transient)
        );
        assert_eq!(
            RunOutcome::Panicked {
                message: "x".into()
            }
            .class(),
            Some(ErrorClass::Transient)
        );
        assert_eq!(
            RunOutcome::Failed(SimError::NoWorkloads).class(),
            Some(ErrorClass::Permanent)
        );
        assert_eq!(RunOutcome::Completed(SimStats::default()).class(), None);
        assert_eq!(
            RunOutcome::TimedOut(DeadlineKind::CycleBudget).kind(),
            "timed-out:cycles"
        );
    }
}
