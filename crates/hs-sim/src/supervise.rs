//! # Campaign supervision: panic isolation, quarantine, journal, resume
//!
//! Every campaign runs on this engine. Its threat model is this paper's:
//! hostile guest code, where one bad run must end as a record, not end the
//! batch. [`Campaign::run`](crate::Campaign::run) is this engine under
//! [`Supervision::default()`] and turns any quarantined run into an error;
//! [`Campaign::run_supervised`] and [`Campaign::resume`] return the
//! quarantine in the report. The layers:
//!
//! * **Panic isolation** — each run executes once under
//!   [`std::panic::catch_unwind`]; a poisoned run becomes a typed
//!   `panicked` outcome instead of a pool abort. No simulation state
//!   is shared between runs, so unwinding one run cannot corrupt another
//!   (every run owns its own `Simulator`).
//! * **Quarantine** — a run that panics or fails lands in
//!   [`CampaignReport::quarantined`] as a [`QuarantinedRun`]; the rest of
//!   the campaign completes. A run is a pure function of its `RunSpec`, so
//!   it is never retried: a second attempt would end the same way.
//! * **Crash-safe journal + resume** — with [`Supervision::journal`] set,
//!   every outcome is appended to `<name>.journal.jsonl` (one JSON record
//!   per line, flushed per record); [`Campaign::resume`] replays journaled
//!   outcomes from disk and executes only the remainder, producing a report
//!   **byte-identical** to an uninterrupted run.
//!
//! ## Determinism
//!
//! The engine keeps the campaign's serial≡parallel byte-identity
//! contract: outcomes are keyed by stable run id, and the serialized report
//! excludes everything scheduling-dependent (wall times, journal record
//! order). A report depends on nothing but the campaign.

use crate::campaign::{Campaign, CampaignReport, PlannedRun};
use crate::error::SimError;
use crate::executor::{self, Worker};
use crate::journal::Journal;
use crate::json::Json;
use crate::stats::SimStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A run that panicked or failed: the campaign's poison list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRun {
    /// Stable run id (declaration index).
    pub id: usize,
    /// The run's label.
    pub label: String,
    /// Outcome kind tag: `failed` or `panicked`.
    pub kind: String,
    /// Deterministic description of the failure.
    pub detail: String,
}

impl QuarantinedRun {
    /// Serializes the record (used in both artifacts and journals).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::U64(self.id as u64)),
            ("label".into(), Json::Str(self.label.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }

    /// Reconstructs a record from [`QuarantinedRun::to_json`] output. Other
    /// fields are ignored, such as the `attempts` count older artifacts
    /// carry.
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
            kind: str_of("kind")?,
            detail: str_of("detail")?,
        })
    }
}

/// The supervision configuration for [`Campaign::run_supervised`] and
/// [`Campaign::resume`]; [`Campaign::run`] runs under the default one.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Append-only run journal path (`<name>.journal.jsonl`); `None`
    /// disables journaling (and therefore resume).
    pub journal: Option<PathBuf>,
    /// Crash-test hook: once this many outcomes have been journaled, stop
    /// dispatching new runs and return [`SimError::Interrupted`] — the
    /// in-process equivalent of `kill -9` for resume tests.
    pub abort_after: Option<usize>,
}

/// A run's final supervised disposition.
#[derive(Debug)]
pub(crate) enum Done {
    Completed(SimStats),
    Quarantined(QuarantinedRun),
}

impl Campaign {
    /// Executes the matrix under supervision: panics are isolated, runs
    /// that panic or fail quarantined, and (with [`Supervision::journal`]
    /// set) every outcome journaled crash-safely. An existing journal file
    /// is **truncated**; use [`Campaign::resume`] to continue one.
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
    /// round-trip bit-exactly). Without an existing journal, or with one
    /// holding no complete header line, this is a fresh supervised run.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_supervised`], plus [`SimError::Journal`] when
    /// the journal on disk was written by a different campaign or another
    /// configuration of this one, or is corrupt in a complete line.
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
                for (id, done) in replayed {
                    slots[id] = Some(done);
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
                let done = supervise_one(&self.runs()[id], id, worker);
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

/// Runs one planned run, isolating a panic: it completes, or it is
/// quarantined as `failed` or `panicked`.
fn supervise_one(run: &PlannedRun, id: usize, worker: &Worker<'_>) -> Done {
    // `RunSpec` is plain data, each run builds a fresh `Simulator`, and a
    // shared warm core is only ever cloned (an unwinding warm-up hands its
    // duty back), so nothing observable survives an unwind:
    // AssertUnwindSafe is sound.
    let (kind, detail) = match catch_unwind(AssertUnwindSafe(|| worker.run(id, &run.spec))) {
        Ok(Ok(stats)) => return Done::Completed(stats),
        Ok(Err(e)) => ("failed", e.to_string()),
        Err(payload) => ("panicked", panic_message(payload.as_ref())),
    };
    Done::Quarantined(QuarantinedRun {
        id,
        label: run.label.clone(),
        kind: kind.to_string(),
        detail,
    })
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
    use crate::campaign::RunRecord;
    use crate::{HeatSink, PolicyKind, RunSpec, SimConfig};
    use hs_workloads::{SpecWorkload, Workload};
    use std::time::Duration;

    /// Tiny runs at a time scale where the DTM acts within the quantum.
    fn tiny() -> SimConfig {
        let mut c = SimConfig::scaled(2000.0);
        c.warmup_cycles = 20_000;
        c.quantum_cycles = 30_000;
        c
    }

    /// Four runs of one warm-up (gcc+variant2), then two of another
    /// (variant1 solo).
    fn two_groups(name: &str) -> Campaign {
        let pair = [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2];
        let mut c = Campaign::new(name);
        for (label, policy, sink) in [
            (
                "pair/stop-and-go",
                PolicyKind::StopAndGo,
                HeatSink::Realistic,
            ),
            (
                "pair/sedation",
                PolicyKind::SelectiveSedation,
                HeatSink::Realistic,
            ),
            ("pair/dvfs", PolicyKind::GlobalDvfs, HeatSink::Realistic),
            ("pair/ideal", PolicyKind::SelectiveSedation, HeatSink::Ideal),
        ] {
            c.push(label, RunSpec::pair(pair[0], pair[1], policy, sink, tiny()));
        }
        for policy in [PolicyKind::StopAndGo, PolicyKind::SelectiveSedation] {
            c.push(
                format!("v1/{}", policy.name()),
                RunSpec::solo(Workload::Variant1, policy, HeatSink::Realistic, tiny()),
            );
        }
        c
    }

    /// Every run of `campaign` but `except`, one by one through
    /// `RunSpec::try_run`.
    fn reference(campaign: &Campaign, except: usize) -> Vec<RunRecord> {
        (0..campaign.len())
            .filter(|&id| id != except)
            .map(|id| campaign.record(id, campaign.runs()[id].spec.try_run().expect("reference")))
            .collect()
    }

    /// `report`'s artifact as it must read: `runs` from the reference, the
    /// quarantine as reported.
    fn expected_json(report: &CampaignReport, runs: Vec<RunRecord>) -> String {
        CampaignReport {
            name: report.name.clone(),
            runs,
            quarantined: report.quarantined.clone(),
            jobs: 0,
            warmups: 0,
            wall: Duration::ZERO,
        }
        .to_json()
    }

    /// A scratch journal path unique to this test, cleaned before use.
    fn scratch(test: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "hs-sup-unit-{}-{test}.journal.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn a_panicking_run_is_quarantined_and_the_others_complete() {
        let campaign = two_groups("panics");
        let expected = reference(&campaign, 2);
        let reports: Vec<String> = [1, 3]
            .map(|jobs| {
                let report = executor::panicking_run(2, || {
                    campaign.run_supervised(jobs, &Supervision::default())
                })
                .expect("the pool survives the panic");
                assert_eq!(
                    report.quarantined,
                    [QuarantinedRun {
                        id: 2,
                        label: "pair/dvfs".into(),
                        kind: "panicked".into(),
                        detail: executor::planted_panic_message(2),
                    }],
                    "jobs={jobs}"
                );
                assert_eq!(
                    report.to_json(),
                    expected_json(&report, expected.clone()),
                    "jobs={jobs}"
                );
                report.to_json()
            })
            .into();
        assert_eq!(reports[0], reports[1], "jobs 1 vs 3");
    }

    #[test]
    fn a_run_panicking_while_it_warms_strands_nobody() {
        // Run 0 is its group's first: at jobs 1 it always takes the duty
        // to warm the group's core and panics holding it, so the duty is
        // handed back and the group's next run warms the core instead.
        let campaign = two_groups("warming-panic");
        let expected = reference(&campaign, 0);
        let reports: Vec<String> = [1, 3]
            .map(|jobs| {
                let report = executor::panicking_run(0, || {
                    campaign.run_supervised(jobs, &Supervision::default())
                })
                .expect("supervised");
                let quarantined: Vec<(usize, &str)> = report
                    .quarantined
                    .iter()
                    .map(|q| (q.id, q.kind.as_str()))
                    .collect();
                assert_eq!(quarantined, [(0, "panicked")], "jobs={jobs}");
                assert_eq!(
                    report.to_json(),
                    expected_json(&report, expected.clone()),
                    "jobs={jobs}"
                );
                assert_eq!(report.warmups, 2, "jobs={jobs}");
                report.to_json()
            })
            .into();
        assert_eq!(reports[0], reports[1], "jobs 1 vs 3");
    }

    #[test]
    fn a_journaled_quarantine_survives_abort_and_resume() {
        let campaign = two_groups("quarantine-resume");
        let full =
            executor::panicking_run(1, || campaign.run_supervised(1, &Supervision::default()))
                .expect("uninterrupted run");
        let path = scratch("quarantine-resume");
        let sup = Supervision {
            journal: Some(path.clone()),
            ..Supervision::default()
        };
        // Runs 0 and 1 are journaled, run 1 as quarantined, then the abort.
        let err = executor::panicking_run(1, || {
            campaign.run_supervised(
                1,
                &Supervision {
                    abort_after: Some(2),
                    ..sup.clone()
                },
            )
        })
        .expect_err("abort hook fires");
        assert!(matches!(err, SimError::Interrupted { .. }), "{err}");
        let journal = std::fs::read_to_string(&path).expect("journal exists");
        assert!(journal.contains(r#""outcome":"quarantined""#), "{journal}");
        // No run panics now: the quarantine comes from the journal alone.
        let resumed = campaign.resume(2, &sup).expect("resume");
        assert_eq!(resumed.quarantined, full.quarantined);
        assert_eq!(resumed.to_json(), full.to_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_records_with_an_attempts_count_still_parse() {
        let record =
            Json::parse(r#"{"id":3,"label":"v1","attempts":3,"kind":"panicked","detail":"boom"}"#)
                .expect("json");
        let q = QuarantinedRun::from_json(&record).expect("attempts is ignored");
        assert_eq!(
            q,
            QuarantinedRun {
                id: 3,
                label: "v1".into(),
                kind: "panicked".into(),
                detail: "boom".into(),
            }
        );
        assert_eq!(QuarantinedRun::from_json(&q.to_json()), Ok(q));
    }
}
