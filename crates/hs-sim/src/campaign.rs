//! # The campaign engine: deterministic multi-threaded experiment batches
//!
//! The paper's evaluation is a large matrix of runs — workload pairs × DTM
//! policies × heat sinks × thresholds (Figs. 3–6, Table 1). A [`Campaign`]
//! holds that matrix as declarative, labelled [`RunSpec`]s; [`Campaign::run`]
//! executes it on the supervised engine ([`crate::supervise`]), a
//! `std::thread` worker pool where **each run owns its own
//! [`Simulator`](crate::Simulator)**, and aggregates per-run [`SimStats`]
//! into a [`CampaignReport`]. Runs that share a warm-up identity (same
//! workloads, core, memory, time scale and warm-up length) start from
//! clones of one warmed core, so each distinct warm-up is simulated once.
//!
//! ## Determinism contract
//!
//! Parallel execution is bit-identical to serial:
//!
//! * every run is identified by a **stable run id** — its index in
//!   declaration order — assigned before any worker starts;
//! * workers share an atomic cursor into the run list and the execution's
//!   warm cores; a run's simulator (started from a bit-identical clone of
//!   the core its warm-up would have produced), RNG streams and statistics
//!   are private to it;
//! * the report stores results **by run id, not completion order**;
//! * [`CampaignReport::to_json`] serializes only the deterministic payload
//!   (name + runs). Wall-clock, worker-count and warm-up accounting live
//!   next to it in the in-memory report and are deliberately **excluded**
//!   from the artifact, so `--jobs 1` and `--jobs N` write byte-identical
//!   files.
//!
//! The dedicated test `crates/hs-sim/tests/campaign.rs` enforces the
//! contract on a ≥16-run matrix.
//!
//! ```no_run
//! use hs_sim::campaign::CampaignMatrix;
//! use hs_sim::{HeatSink, PolicyKind, SimConfig};
//! use hs_workloads::{SpecWorkload, Workload};
//!
//! let campaign = CampaignMatrix::new(SimConfig::experiment())
//!     .workloads("gcc+v2", [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2])
//!     .workloads("mcf+v2", [Workload::Spec(SpecWorkload::Mcf), Workload::Variant2])
//!     .policy(PolicyKind::StopAndGo)
//!     .policy(PolicyKind::SelectiveSedation)
//!     .sink(HeatSink::Realistic)
//!     .build("demo")
//!     .expect("valid matrix");
//! let report = campaign.run(8).expect("runs");
//! println!("{}", report.to_json());
//! ```

use crate::config::{FaultConfig, HeatSink, PolicyKind, SimConfig};
use crate::error::SimError;
use crate::json::{Json, JsonError};
use crate::runner::RunSpec;
use crate::stats::SimStats;
use crate::supervise::{QuarantinedRun, Supervision};
use hs_workloads::Workload;
use std::time::Duration;

/// One labelled entry of a campaign's run matrix.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// Human-readable label, unique within the campaign.
    pub label: String,
    /// What to simulate.
    pub spec: RunSpec,
}

/// A declarative batch of labelled [`RunSpec`]s.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    name: String,
    runs: Vec<PlannedRun>,
}

impl Campaign {
    /// An empty campaign (renderer-only experiments use these).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            runs: Vec::new(),
        }
    }

    /// Appends a labelled run; its stable id is its insertion index.
    pub fn push(&mut self, label: impl Into<String>, spec: RunSpec) -> &mut Self {
        self.runs.push(PlannedRun {
            label: label.into(),
            spec,
        });
        self
    }

    /// The campaign name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The planned runs, in run-id order.
    #[must_use]
    pub fn runs(&self) -> &[PlannedRun] {
        &self.runs
    }

    /// Number of planned runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the matrix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Validates every planned run without executing anything, and rejects
    /// duplicate labels. Labels key [`CampaignReport::stats`] lookup and
    /// journal resume identity, so a duplicate would silently shadow one
    /// run behind another — it is caught here, before anything executes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateLabel`] naming both offending runs, or
    /// [`SimError::InvalidRun`] naming the first (lowest-id) invalid run.
    pub fn preflight(&self) -> Result<(), SimError> {
        for (second, run) in self.runs.iter().enumerate() {
            if let Some(first) = self.runs[..second]
                .iter()
                .position(|r| r.label == run.label)
            {
                return Err(SimError::DuplicateLabel {
                    label: run.label.clone(),
                    first,
                    second,
                });
            }
        }
        for (id, run) in self.runs.iter().enumerate() {
            run.spec.preflight().map_err(|e| SimError::InvalidRun {
                id,
                label: run.label.clone(),
                cause: Box::new(e),
            })?;
        }
        Ok(())
    }

    /// Executes the whole matrix on `jobs` worker threads and aggregates
    /// the results into a [`CampaignReport`]: the supervised engine under
    /// [`Supervision::default()`], with any quarantined run turned into an
    /// error.
    ///
    /// `jobs` is clamped to `1..=len()`. Workers take runs from a shared
    /// cursor, the runs of each distinct warm-up back to back; each run
    /// builds and drops its own [`Simulator`](crate::Simulator), and runs
    /// sharing a warm-up start from clones of one warmed core (DESIGN.md
    /// §3b), so no run sees another's simulation. The report is ordered by
    /// run id regardless of completion order. A run that panics or fails
    /// does not stop the others.
    ///
    /// # Errors
    ///
    /// Returns the preflight's [`SimError`] if any run is invalid (nothing
    /// has been executed at that point), or, once every run has finished,
    /// [`SimError::InvalidRun`] naming the lowest-id run that panicked or
    /// failed, its cause [`SimError::Interrupted`] naming the kind and
    /// detail.
    pub fn run(&self, jobs: usize) -> Result<CampaignReport, SimError> {
        reject_quarantine(self.run_supervised(jobs, &Supervision::default())?)
    }

    /// The report record of run `id`.
    pub(crate) fn record(&self, id: usize, stats: SimStats) -> RunRecord {
        let planned = &self.runs[id];
        RunRecord {
            id,
            label: planned.label.clone(),
            workloads: planned
                .spec
                .workloads()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            policy: planned.spec.policy().name().to_string(),
            sink: planned.spec.sink().name().to_string(),
            stats,
        }
    }
}

/// `report` itself when nothing was quarantined, else the lowest-id
/// quarantined run as an error.
fn reject_quarantine(report: CampaignReport) -> Result<CampaignReport, SimError> {
    match report.quarantined.first() {
        None => Ok(report),
        Some(q) => Err(SimError::InvalidRun {
            id: q.id,
            label: q.label.clone(),
            cause: Box::new(SimError::Interrupted {
                what: format!("{}: {}", q.kind, q.detail),
            }),
        }),
    }
}

/// Cartesian-product builder over workloads × policies × sinks × faults,
/// every run on the base config.
///
/// Axes left empty fall back to a single default: selective sedation, the
/// realistic sink, the base config's own faults. The product is emitted in
/// a fixed lexicographic order (workload set, then policy, then sink, then
/// faults), which fixes every run's stable id.
#[derive(Debug, Clone)]
pub struct CampaignMatrix {
    base: SimConfig,
    workload_sets: Vec<(String, Vec<Workload>)>,
    policies: Vec<PolicyKind>,
    sinks: Vec<HeatSink>,
    faults: Vec<(String, FaultConfig)>,
}

impl CampaignMatrix {
    /// A matrix over `base` with all axes empty.
    #[must_use]
    pub fn new(base: SimConfig) -> Self {
        CampaignMatrix {
            base,
            workload_sets: Vec::new(),
            policies: Vec::new(),
            sinks: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Adds a labelled workload set (one co-schedule).
    #[must_use]
    pub fn workloads(
        mut self,
        label: impl Into<String>,
        ws: impl IntoIterator<Item = Workload>,
    ) -> Self {
        self.workload_sets
            .push((label.into(), ws.into_iter().collect()));
        self
    }

    /// Adds a policy to the policy axis.
    #[must_use]
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policies.push(p);
        self
    }

    /// Adds a sink to the package axis.
    #[must_use]
    pub fn sink(mut self, s: HeatSink) -> Self {
        self.sinks.push(s);
        self
    }

    /// Adds a labelled fault plan to the fault axis; its runs take these
    /// faults in place of the base config's.
    #[must_use]
    pub fn faults(mut self, label: impl Into<String>, f: FaultConfig) -> Self {
        self.faults.push((label.into(), f));
        self
    }

    /// Expands the product into a validated [`Campaign`].
    ///
    /// Labels are `workloads/policy/sink[/faults]` — the fault segment
    /// appears only when that axis has more than one point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoWorkloads`] if no workload set was added, or
    /// [`SimError::InvalidRun`] naming the first invalid combination.
    pub fn build(self, name: impl Into<String>) -> Result<Campaign, SimError> {
        if self.workload_sets.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        let policies = if self.policies.is_empty() {
            vec![PolicyKind::SelectiveSedation]
        } else {
            self.policies
        };
        let sinks = if self.sinks.is_empty() {
            vec![HeatSink::Realistic]
        } else {
            self.sinks
        };
        let faults = if self.faults.is_empty() {
            vec![(String::new(), self.base.faults)]
        } else {
            self.faults
        };
        let tag_faults = faults.len() > 1;

        let mut campaign = Campaign::new(name);
        for (wl, ws) in &self.workload_sets {
            for &policy in &policies {
                for &sink in &sinks {
                    for (fl, faults) in &faults {
                        let mut label = format!("{wl}/{}/{}", policy.name(), sink.name());
                        if tag_faults {
                            label.push('/');
                            label.push_str(fl);
                        }
                        let spec = RunSpec::builder()
                            .workloads(ws.iter().copied())
                            .policy(policy)
                            .sink(sink)
                            .config(SimConfig {
                                faults: *faults,
                                ..self.base
                            })
                            .build()
                            .map_err(|e| SimError::InvalidRun {
                                id: campaign.len(),
                                label: label.clone(),
                                cause: Box::new(e),
                            })?;
                        campaign.push(label, spec);
                    }
                }
            }
        }
        Ok(campaign)
    }
}

/// One executed run: identity plus results.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Stable id (declaration index).
    pub id: usize,
    /// The label it was declared with.
    pub label: String,
    /// Workload names, in attach order.
    pub workloads: Vec<String>,
    /// Policy name.
    pub policy: String,
    /// Sink name.
    pub sink: String,
    /// The run's statistics.
    pub stats: SimStats,
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Per-run records, ordered by run id.
    pub runs: Vec<RunRecord>,
    /// Runs that panicked or failed, ordered by run id.
    /// [`Campaign::run`] turns a non-empty quarantine into an error.
    pub quarantined: Vec<QuarantinedRun>,
    /// Worker threads used (accounting only — not serialized).
    pub jobs: usize,
    /// Warm-ups the execution simulated (accounting only — not
    /// serialized). Runs sharing a warm-up identity share one warm-up, so
    /// a clean execution simulates one per distinct identity among the
    /// runs it executed, at any `jobs`.
    pub warmups: usize,
    /// Wall-clock time of the batch (accounting only — not serialized).
    pub wall: Duration,
}

impl CampaignReport {
    /// Completed runs per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.runs.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// The stats of the run with the given label.
    ///
    /// # Panics
    ///
    /// Panics if no run has that label — a renderer asking for a label its
    /// own matrix never declared is a programming error.
    #[must_use]
    pub fn stats(&self, label: &str) -> &SimStats {
        &self
            .runs
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("campaign `{}` has no run labelled `{label}`", self.name))
            .stats
    }

    /// The stats of the run with the given label, if present.
    #[cfg(test)]
    fn try_stats(&self, label: &str) -> Option<&SimStats> {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .map(|r| &r.stats)
    }

    /// Serializes the deterministic payload (name + runs, ordered by run
    /// id). Wall-clock and job-count accounting are excluded by contract:
    /// the same matrix must serialize byte-identically whatever `jobs` was.
    #[must_use]
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".into(), Json::U64(r.id as u64)),
                    ("label".into(), Json::Str(r.label.clone())),
                    (
                        "workloads".into(),
                        Json::Arr(r.workloads.iter().map(|w| Json::Str(w.clone())).collect()),
                    ),
                    ("policy".into(), Json::Str(r.policy.clone())),
                    ("sink".into(), Json::Str(r.sink.clone())),
                    ("stats".into(), r.stats.to_json()),
                ])
            })
            .collect();
        let mut fields = vec![
            ("campaign".into(), Json::Str(self.name.clone())),
            ("format".into(), Json::U64(1)),
            ("runs".into(), Json::Arr(runs)),
        ];
        // Only serialized when non-empty: unsupervised artifacts (and
        // supervised runs where nothing failed) stay byte-identical to the
        // pre-supervision format.
        if !self.quarantined.is_empty() {
            fields.push((
                "quarantined".into(),
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(QuarantinedRun::to_json)
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields).to_string_pretty()
    }

    /// Reconstructs a report from [`CampaignReport::to_json`] output.
    /// The non-serialized accounting fields come back zeroed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed text or a payload that is not
    /// a version-1 campaign report.
    pub fn from_json(text: &str) -> Result<CampaignReport, JsonError> {
        let fail = |what: &str| JsonError {
            offset: 0,
            message: format!("CampaignReport: {what}"),
        };
        let v = Json::parse(text)?;
        let name = v
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `campaign`"))?
            .to_string();
        if v.get("format").and_then(Json::as_u64) != Some(1) {
            return Err(fail("unsupported `format` (expected 1)"));
        }
        let mut runs = Vec::new();
        for r in v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("missing array `runs`"))?
        {
            let str_of = |key: &str| {
                r.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| fail(&format!("run missing string `{key}`")))
            };
            let workloads = r
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("run missing array `workloads`"))?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| fail("non-string workload name"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            runs.push(RunRecord {
                id: r
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail("run missing integer `id`"))? as usize,
                label: str_of("label")?,
                workloads,
                policy: str_of("policy")?,
                sink: str_of("sink")?,
                stats: SimStats::from_json(
                    r.get("stats").ok_or_else(|| fail("run missing `stats`"))?,
                )?,
            });
        }
        let mut quarantined = Vec::new();
        if let Some(qs) = v.get("quarantined").and_then(Json::as_arr) {
            for q in qs {
                quarantined.push(
                    QuarantinedRun::from_json(q)
                        .map_err(|what| fail(&format!("bad quarantine record: {what}")))?,
                );
            }
        }
        Ok(CampaignReport {
            name,
            runs,
            quarantined,
            jobs: 0,
            warmups: 0,
            wall: Duration::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workloads::SpecWorkload;

    /// Tiny runs: determinism logic, not thermal fidelity.
    fn tiny() -> SimConfig {
        let mut c = SimConfig::scaled(2000.0);
        c.warmup_cycles = 20_000;
        c.quantum_cycles = 30_000;
        c
    }

    #[test]
    fn matrix_expands_in_fixed_order_with_stable_ids() {
        let campaign = CampaignMatrix::new(tiny())
            .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
            .workloads("v2", [Workload::Variant2])
            .policy(PolicyKind::StopAndGo)
            .policy(PolicyKind::SelectiveSedation)
            .sink(HeatSink::Ideal)
            .sink(HeatSink::Realistic)
            .build("order")
            .expect("valid matrix");
        assert_eq!(campaign.len(), 8);
        let labels: Vec<&str> = campaign.runs().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels[0], "gcc/stop-and-go/ideal");
        assert_eq!(labels[1], "gcc/stop-and-go/realistic");
        assert_eq!(labels[2], "gcc/sedation/ideal");
        assert_eq!(labels[7], "v2/sedation/realistic");
    }

    #[test]
    fn matrix_without_a_fault_axis_keeps_the_base_faults() {
        use hs_thermal::{Block, SensorFault, SensorFaultKind, SensorFaultPlan};
        let base = SimConfig {
            faults: FaultConfig {
                sensors: SensorFaultPlan::seeded(5).with(SensorFault::permanent(
                    Block::IntReg,
                    SensorFaultKind::StuckAt { value_k: 345.0 },
                    0,
                )),
                ..FaultConfig::none()
            },
            ..tiny()
        };
        let campaign = CampaignMatrix::new(base)
            .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
            .policy(PolicyKind::SelectiveSedation)
            .policy(PolicyKind::FaultTolerant)
            .build("stuck-low")
            .expect("valid matrix");
        assert_eq!(campaign.len(), 2);
        for run in campaign.runs() {
            assert_eq!(run.spec.config().faults, base.faults, "{}", run.label);
        }
    }

    #[test]
    fn matrix_rejects_runaway_combination() {
        let err = CampaignMatrix::new(tiny())
            .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
            .policy(PolicyKind::None)
            .sink(HeatSink::Realistic)
            .build("bad")
            .unwrap_err();
        let SimError::InvalidRun { id, label, cause } = err else {
            panic!("expected InvalidRun, got {err}");
        };
        assert_eq!(id, 0);
        assert!(label.contains("none"));
        assert_eq!(*cause, SimError::RunawayCombination);
    }

    #[test]
    fn matrix_without_workloads_is_rejected() {
        let err = CampaignMatrix::new(tiny()).build("empty").unwrap_err();
        assert_eq!(err, SimError::NoWorkloads);
    }

    #[test]
    fn empty_campaign_runs_to_an_empty_report() {
        let report = Campaign::new("empty").run(4).expect("empty batch is fine");
        assert!(report.runs.is_empty());
        let back = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back.name, "empty");
        assert!(back.runs.is_empty());
    }

    /// A report of one completed run and the given quarantine.
    fn report_with(quarantined: Vec<QuarantinedRun>) -> CampaignReport {
        CampaignReport {
            name: "hand-built".into(),
            runs: vec![RunRecord {
                id: 0,
                label: "solo".into(),
                workloads: vec!["gcc".into()],
                policy: "sedation".into(),
                sink: "ideal".into(),
                stats: SimStats::default(),
            }],
            quarantined,
            jobs: 1,
            warmups: 1,
            wall: Duration::ZERO,
        }
    }

    fn quarantined(id: usize, label: &str, kind: &str, detail: &str) -> QuarantinedRun {
        QuarantinedRun {
            id,
            label: label.into(),
            kind: kind.into(),
            detail: detail.into(),
        }
    }

    #[test]
    fn a_quarantined_run_becomes_an_invalid_run_error() {
        let one = report_with(vec![quarantined(
            3,
            "v1",
            "panicked",
            "index out of bounds",
        )]);
        let err = reject_quarantine(one).unwrap_err();
        let message = err.to_string();
        let SimError::InvalidRun { id, label, cause } = err else {
            panic!("expected InvalidRun, got {err}");
        };
        assert_eq!((id, label.as_str()), (3, "v1"));
        assert!(matches!(*cause, SimError::Interrupted { .. }), "{cause}");
        assert!(
            message.contains("panicked: index out of bounds"),
            "the message names the kind and detail: {message}"
        );
        // Several: the lowest id (the quarantine is ordered by id) names it.
        let two = report_with(vec![
            quarantined(1, "gcc", "failed", "replayed"),
            quarantined(4, "mcf", "panicked", "boom"),
        ]);
        let Err(SimError::InvalidRun { id, .. }) = reject_quarantine(two) else {
            panic!("expected InvalidRun");
        };
        assert_eq!(id, 1);
    }

    #[test]
    fn an_empty_quarantine_passes_the_report_through() {
        let report = report_with(Vec::new());
        let passed = reject_quarantine(report.clone()).expect("nothing quarantined");
        assert_eq!(passed.to_json(), report.to_json());
        assert_eq!((passed.jobs, passed.warmups), (1, 1));
    }

    #[test]
    fn report_lookup_by_label() {
        let mut campaign = Campaign::new("lookup");
        campaign.push(
            "solo",
            RunSpec::solo(
                Workload::Variant1,
                PolicyKind::StopAndGo,
                HeatSink::Ideal,
                tiny(),
            ),
        );
        let report = campaign.run(1).expect("runs");
        assert_eq!(report.stats("solo").threads.len(), 1);
        assert!(report.try_stats("missing").is_none());
        assert_eq!(report.jobs, 1);
    }
}
