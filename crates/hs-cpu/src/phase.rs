//! Phase detection and activity crediting for interval-mode execution.
//!
//! The interval engine (`hs-sim`, DESIGN.md §3d) fast-forwards through
//! stretches where every hardware context has settled into a steady
//! phase: committed-instruction and per-resource access rates that repeat,
//! sample after sample, within a small tolerance. `hs-sim` decides whether
//! a sample period may be credited at all (no gate, no stall, every block
//! cold); [`IntervalDriver`] decides the rest — confirmation, aggregation,
//! verification cadence and the post-squash refill — and applies each
//! credit through [`Cpu::fast_forward`]. Its phase detector provides the
//! two halves of that contract:
//!
//! * It watches the per-sample activity ([`PhaseSample`]) and declares a
//!   phase **stable** when either of two tests holds, with W the
//!   confirmation window (`CONFIRM_SAMPLES`):
//!   - the *streak* test: W consecutive samples have each matched the
//!     mean of the samples before it since the last mismatch. Any mismatch
//!     — a loop boundary, a thread waking or halting, a memory-behaviour
//!     shift — restarts the streak.
//!   - the *centered* test: each of the last 2W samples lies within
//!     tolerance of their common mean. Activity that alternates between
//!     nearby levels (a streak of low samples, then a high one a little
//!     over tolerance above it) never completes a streak but passes this
//!     test, while a large-amplitude duty cycle or a profile shift fails
//!     it at its first out-of-tolerance sample.
//! * Once stable, it extrapolates the next sample's worth of activity
//!   from the measured samples: the streak window while the streak test
//!   holds, otherwise the 2W centered ones. Crediting uses Bresenham-style
//!   integer interpolation, so over any `n` credited samples the total
//!   equals the window mean times `n` to the instruction — there is no
//!   cumulative rounding drift for the DTM's rate monitors or the power
//!   model to absorb.
//!
//! The detector is deliberately conservative: it learns the shortest
//! stable streak it has ever seen complete and offers half of it as an
//! upper bound on consecutive credits, so a duty-cycled workload (the
//! `hs-workloads` evaders) whose phases keep ending can never be
//! fast-forwarded far past where its hot phase historically broke.

use crate::pipeline::Cpu;
use crate::resources::{AccessMatrix, ThreadId, ALL_RESOURCES, MAX_THREADS, NUM_RESOURCES};

/// Counters per context in a [`Counters`] row: committed instructions,
/// then one access count per resource.
const ROW: usize = 1 + NUM_RESOURCES;

/// Counters in one [`PhaseSample`].
const COUNTERS: usize = MAX_THREADS * ROW;

/// A [`PhaseSample`] flattened to its counters, one [`ROW`] per context,
/// so the detector's sums and scans are plain array loops.
type Counters = [u64; COUNTERS];

/// Consecutive matching observations that confirm a phase (W); the
/// centered test looks at 2W.
const CONFIRM_SAMPLES: usize = 8;

/// Relative tolerance on each counter against the window mean.
const REL_TOL: f64 = 0.10;

/// Absolute slack (counts per observation) added to the tolerance, so tiny
/// counters are not held to a meaninglessly tight relative bound.
const ABS_SLACK: f64 = 12.0;

/// Most consecutive credited observations before a measured verification
/// observation is forced, bounding how stale the extrapolated profile can
/// get.
const MAX_SKIP_SAMPLES: u64 = 15;

/// One monitor sample of architectural activity: what every hardware
/// context did during one DTM sample period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSample {
    /// Instructions committed per hardware context during the sample.
    pub committed: [u64; MAX_THREADS],
    /// Per-thread, per-resource access counts during the sample.
    pub counts: AccessMatrix,
}

impl PhaseSample {
    /// An all-zero sample (an idle machine).
    #[must_use]
    pub fn zero() -> Self {
        PhaseSample {
            committed: [0; MAX_THREADS],
            counts: AccessMatrix::new(),
        }
    }

    /// Accumulates `other` into `self` counter by counter, folding
    /// consecutive monitor samples into one aggregate observation.
    fn merge(&mut self, other: &PhaseSample) {
        for (acc, c) in self.committed.iter_mut().zip(other.committed) {
            *acc += c;
        }
        self.counts.merge(&other.counts);
    }

    /// The `k`-th of `n` drift-free integer shares of this sample: every
    /// counter is split with the same Bresenham rounding as
    /// [`PhaseDetector::credit_next`], so summing all `n` slices
    /// reconstructs the sample exactly. This spreads an aggregate credit
    /// back over its constituent sample periods.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n` (there is no such slice).
    fn bresenham_slice(&self, k: u64, n: u64) -> PhaseSample {
        assert!(k < n, "slice {k} of {n} does not exist");
        Self::from_counters(&self.counters().map(|s| bresenham(s, k, n)))
    }

    fn counters(&self) -> Counters {
        let mut out = [0; COUNTERS];
        for (t, row) in out.chunks_exact_mut(ROW).enumerate() {
            let tid = ThreadId(t as u8);
            row[0] = self.committed[t];
            for (c, r) in row[1..].iter_mut().zip(ALL_RESOURCES) {
                *c = self.counts.get(tid, r);
            }
        }
        out
    }

    fn from_counters(counters: &Counters) -> Self {
        let mut out = PhaseSample::zero();
        for (t, row) in counters.chunks_exact(ROW).enumerate() {
            let tid = ThreadId(t as u8);
            out.committed[t] = row[0];
            for (&c, r) in row[1..].iter().zip(ALL_RESOURCES) {
                out.counts.add(tid, r, c);
            }
        }
        out
    }
}

/// Watches per-sample activity and reports when execution has entered a
/// stable phase whose profile is safe to extrapolate.
///
/// See the [module docs](self) for the detection and crediting contract.
#[derive(Debug)]
struct PhaseDetector {
    /// The last `2 × CONFIRM_SAMPLES` observations since the last reset,
    /// as a ring: once full, `history[next]` is the oldest.
    history: Vec<Counters>,
    /// The slot the next observation is written to.
    next: usize,
    /// Per-counter sums over `history`.
    history_sums: Counters,
    /// Per-counter sums over the streak window.
    streak_sums: Counters,
    /// Whether the centered test holds; only evaluated while the streak
    /// test does not.
    centered: bool,
    /// Bresenham position within the current credit run; reset by every
    /// observation so each run interpolates one fixed mean.
    credit_pos: u64,
    /// Observed samples in the current streak: the seeding sample plus
    /// the consecutive matches after it (0 after a reset).
    run_len: u64,
    /// Shortest *completed* stable streak seen so far, in samples
    /// (`u64::MAX` until one has ended).
    min_run: u64,
}

impl PhaseDetector {
    fn new() -> Self {
        PhaseDetector {
            history: Vec::with_capacity(2 * CONFIRM_SAMPLES),
            next: 0,
            history_sums: [0; COUNTERS],
            streak_sums: [0; COUNTERS],
            centered: false,
            credit_pos: 0,
            run_len: 0,
            min_run: u64::MAX,
        }
    }

    /// Whether the current phase has passed the streak or the centered
    /// test.
    fn is_stable(&self) -> bool {
        self.streak_stable() || self.centered
    }

    /// An upper bound on consecutive credited samples, learned from the
    /// shortest stable streak that has ever completed (half of it, at
    /// least one). `u64::MAX` until a stable streak has been seen to end —
    /// the driver composes this with `MAX_SKIP_SAMPLES`.
    fn credit_cap(&self) -> u64 {
        if self.min_run == u64::MAX {
            u64::MAX
        } else {
            (self.min_run / 2).max(1)
        }
    }

    /// Feeds one *measured* sample and returns [`Self::is_stable`] after
    /// the observation. Credited (extrapolated) samples must never be fed
    /// back — they would confirm themselves — and neither must samples
    /// taken while the pipeline refills after an interval squash, which
    /// would bias the rolling mean low (the driver drops those on the
    /// floor; see DESIGN.md §3d).
    fn observe(&mut self, sample: &PhaseSample) -> bool {
        let obs = sample.counters();
        let window = CONFIRM_SAMPLES;
        let cap = 2 * window;
        if self.run_len > 0 && self.matches_streak(&obs) {
            if self.streak_len() == window {
                // The streak window is the newest `window` observations
                // of the history; drop its oldest.
                let oldest = &self.history[(self.next + cap - window) % cap];
                for (s, &o) in self.streak_sums.iter_mut().zip(oldest) {
                    *s -= o;
                }
            }
            self.run_len += 1;
        } else {
            if self.streak_stable() {
                self.min_run = self.min_run.min(self.run_len);
            }
            self.streak_sums = [0; COUNTERS];
            self.run_len = 1;
        }
        for (s, &o) in self.streak_sums.iter_mut().zip(&obs) {
            *s += o;
        }
        if self.history.len() < cap {
            self.history.push(obs);
        } else {
            for (s, &o) in self.history_sums.iter_mut().zip(&self.history[self.next]) {
                *s -= o;
            }
            self.history[self.next] = obs;
        }
        for (s, &o) in self.history_sums.iter_mut().zip(&obs) {
            *s += o;
        }
        self.next = (self.next + 1) % cap;
        self.credit_pos = 0;
        self.centered = !self.streak_stable() && self.centered_stable();
        self.is_stable()
    }

    /// Forgets the current phase (history, streak, credit position)
    /// without touching the learned minimum run length.
    fn reset(&mut self) {
        self.history.clear();
        self.next = 0;
        self.history_sums = [0; COUNTERS];
        self.streak_sums = [0; COUNTERS];
        self.centered = false;
        self.credit_pos = 0;
        self.run_len = 0;
    }

    /// Extrapolates the next sample of the stable phase.
    ///
    /// Bresenham interpolation of the window mean: for a counter summing
    /// to `s` over the `n` window samples, credit number `k` contributes
    /// `⌊s·(k+1)/n⌋ − ⌊s·k/n⌋`, so any run of `m` credits totals exactly
    /// `⌊s·m/n⌋` — the credited rate tracks the measured mean without
    /// cumulative drift. The window is the streak window while the streak
    /// test holds, and the centered test's 2W samples otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the detector is not stable.
    fn credit_next(&mut self) -> PhaseSample {
        assert!(self.is_stable(), "cannot credit an unconfirmed phase");
        let (sums, n) = if self.streak_stable() {
            (&self.streak_sums, self.streak_len())
        } else {
            (&self.history_sums, self.history.len())
        };
        let k = self.credit_pos;
        self.credit_pos += 1;
        PhaseSample::from_counters(&sums.map(|s| bresenham(s, k, n as u64)))
    }

    /// The streak test: at least `CONFIRM_SAMPLES` consecutive matches
    /// after the seeding sample.
    fn streak_stable(&self) -> bool {
        self.run_len > CONFIRM_SAMPLES as u64
    }

    /// Length of the streak window: the newest observations of the current
    /// streak, at most `CONFIRM_SAMPLES` of them.
    fn streak_len(&self) -> usize {
        self.run_len.min(CONFIRM_SAMPLES as u64) as usize
    }

    /// Whether `obs` matches the streak window's mean on every counter.
    fn matches_streak(&self, obs: &Counters) -> bool {
        let n = self.streak_len() as f64;
        obs.iter()
            .zip(&self.streak_sums)
            .all(|(&c, &sum)| within_tol(c, sum as f64 / n))
    }

    /// The centered test: the history is full and every observation in it
    /// lies within tolerance of the history's mean on every counter. The
    /// tolerance grows monotonically away from the mean, so testing each
    /// counter's minimum and maximum is enough.
    fn centered_stable(&self) -> bool {
        let n = self.history.len();
        if n < 2 * CONFIRM_SAMPLES {
            return false;
        }
        let mut lo = [u64::MAX; COUNTERS];
        let mut hi = [0; COUNTERS];
        for h in &self.history {
            for ((l, u), &c) in lo.iter_mut().zip(&mut hi).zip(h) {
                *l = (*l).min(c);
                *u = (*u).max(c);
            }
        }
        let n = n as f64;
        lo.iter()
            .zip(&hi)
            .zip(&self.history_sums)
            .all(|((&lo, &hi), &sum)| {
                // A constant counter is its own mean.
                let mean = sum as f64 / n;
                lo == hi || (within_tol(lo, mean) && within_tol(hi, mean))
            })
    }
}

fn within_tol(count: u64, mean: f64) -> bool {
    let c = count as f64;
    let tol = ABS_SLACK + REL_TOL * c.max(mean);
    (c - mean).abs() <= tol
}

/// The `k`-th term of the drift-free integer interpolation of `s/n`.
fn bresenham(s: u64, k: u64, n: u64) -> u64 {
    s * (k + 1) / n - s * k / n
}

/// Interval mode's phase state for one measured quantum: the detector,
/// the aggregate being measured or credited, the skip budget and the
/// post-squash refill. The simulator decides only whether a sample period
/// is eligible (no gate, no stall, every block cold); the driver decides
/// whether an eligible one is credited.
#[derive(Debug)]
pub struct IntervalDriver {
    detector: PhaseDetector,
    /// Monitor samples per detector observation.
    agg: u64,
    /// The measured aggregate being built, and its samples so far.
    agg_acc: PhaseSample,
    agg_n: u64,
    /// The aggregate being credited, and the slice it credits next (0 when
    /// no credit is in flight).
    credit_super: PhaseSample,
    credit_j: u64,
    /// Aggregates credited since the last observation.
    consec_skips: u64,
    /// Set from a credit until the next measured sample, the refill.
    refill_pending: bool,
    /// Committed instructions per context at the last monitor sample.
    last_committed: [u64; MAX_THREADS],
}

impl IntervalDriver {
    /// A driver for `cpu`'s measured quantum that folds `aggregate_samples`
    /// consecutive monitor samples into each detector observation and
    /// spreads each credited aggregate back over as many sample periods.
    ///
    /// # Panics
    ///
    /// Panics if `aggregate_samples` is zero.
    #[must_use]
    pub fn new(cpu: &Cpu, aggregate_samples: u64) -> Self {
        assert!(aggregate_samples > 0, "an aggregate needs a sample");
        IntervalDriver {
            detector: PhaseDetector::new(),
            agg: aggregate_samples,
            agg_acc: PhaseSample::zero(),
            agg_n: 0,
            credit_super: PhaseSample::zero(),
            credit_j: 0,
            consec_skips: 0,
            refill_pending: false,
            last_committed: committed(cpu),
        }
    }

    /// Fast-forwards `cpu` through the coming sample period, returning
    /// whether it did. An `eligible` period is credited when a credit is
    /// in flight, or when one may start: on an aggregate boundary (no
    /// verification measurement in flight), in a confirmed phase, with
    /// skip allowance left. An ineligible period abandons the unapplied
    /// slices of a credit in flight, so execution returns to cycle level
    /// immediately.
    pub fn try_credit(&mut self, cpu: &mut Cpu, eligible: bool) -> bool {
        if !eligible {
            self.credit_j = 0;
            return false;
        }
        if self.credit_j == 0 {
            let allowance = MAX_SKIP_SAMPLES.min(self.detector.credit_cap());
            if self.agg_n > 0 || !self.detector.is_stable() || self.consec_skips >= allowance {
                return false;
            }
            self.credit_super = self.detector.credit_next();
        }
        cpu.fast_forward(&self.credit_super.bresenham_slice(self.credit_j, self.agg));
        self.credit_j = (self.credit_j + 1) % self.agg;
        true
    }

    /// Closes a monitor sample whose true access counts are `counts`;
    /// `credited` is what [`Self::try_credit`] returned for its period.
    /// Measured samples train the detector; credited ones must not (they
    /// would confirm themselves) and instead consume skip allowance.
    pub fn end_sample(&mut self, cpu: &Cpu, counts: &AccessMatrix, credited: bool) {
        let last = std::mem::replace(&mut self.last_committed, committed(cpu));
        if credited {
            if self.credit_j == 0 {
                // The slice just applied completed its aggregate.
                self.consec_skips += 1;
            }
            self.refill_pending = true;
        } else if self.refill_pending {
            // First measured sample after a credit run: the pipeline is
            // still refilling from the squash, so this sample is a timing
            // artifact — neither trained into the profile nor allowed to
            // reset the skip budget (the *next* measured sample is the
            // real verify).
            self.refill_pending = false;
        } else {
            self.agg_acc.merge(&PhaseSample {
                committed: std::array::from_fn(|t| self.last_committed[t] - last[t]),
                counts: *counts,
            });
            self.agg_n += 1;
            if self.agg_n == self.agg {
                self.consec_skips = 0;
                self.detector.observe(&self.agg_acc);
                self.agg_acc = PhaseSample::zero();
                self.agg_n = 0;
            }
        }
    }

    /// Forgets the current phase and any aggregate in flight, keeping only
    /// the learned credit cap. Activity measured under one gating regime
    /// says nothing about the next, so a DTM state change calls this.
    pub fn reset(&mut self) {
        self.detector.reset();
        self.consec_skips = 0;
        self.refill_pending = false;
        self.agg_acc = PhaseSample::zero();
        self.agg_n = 0;
        self.credit_j = 0;
    }
}

/// Committed instructions per hardware context of `cpu` so far.
fn committed(cpu: &Cpu) -> [u64; MAX_THREADS] {
    let mut out = [0; MAX_THREADS];
    for (t, c) in out.iter_mut().enumerate().take(cpu.num_threads()) {
        *c = cpu.thread_stats(ThreadId(t as u8)).committed;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::resources::Resource;
    use hs_mem::MemConfig;

    fn sample(committed: u64, regfile: u64) -> PhaseSample {
        let mut s = PhaseSample::zero();
        s.committed[0] = committed;
        s.counts.add(ThreadId(0), Resource::IntRegFile, regfile);
        s
    }

    #[test]
    fn steady_stream_confirms_after_the_window() {
        let mut d = PhaseDetector::new();
        for i in 0..20 {
            let stable = d.observe(&sample(100, 60));
            // Seed sample + 8 matches => stable from the 9th observation.
            assert_eq!(stable, i >= 8, "observation {i}");
        }
    }

    #[test]
    fn phase_shorter_than_the_window_never_stabilizes() {
        let mut d = PhaseDetector::new();
        for _ in 0..10 {
            // 5-sample phases, alternating profile: every switch resets
            // the streak before the 8-match confirmation is reached.
            for _ in 0..5 {
                assert!(!d.observe(&sample(100, 60)));
            }
            for _ in 0..5 {
                assert!(!d.observe(&sample(10, 200)));
            }
        }
    }

    #[test]
    fn jitter_within_tolerance_stays_stable() {
        let mut d = PhaseDetector::new();
        // +-6 around 100 is inside ABS_SLACK + 10% of the mean.
        let jitter = [100u64, 94, 106, 100, 97, 103, 100, 100, 95, 105];
        let mut stable_seen = false;
        for round in 0..4 {
            for &c in &jitter {
                let s = d.observe(&sample(c, c / 2));
                if round >= 1 {
                    assert!(s, "lost stability on count {c}");
                }
                stable_seen |= s;
            }
        }
        assert!(stable_seen);
    }

    #[test]
    fn a_profile_shift_breaks_stability() {
        let mut d = PhaseDetector::new();
        for _ in 0..12 {
            d.observe(&sample(100, 60));
        }
        assert!(d.is_stable());
        assert!(!d.observe(&sample(300, 60)));
        assert!(!d.is_stable());
    }

    /// Observation `i` of a two-level square wave: 4 samples high, then 5
    /// samples 12.5 % lower, repeating.
    fn square_wave(i: usize) -> PhaseSample {
        if i % 9 < 4 {
            sample(800, 1600)
        } else {
            sample(700, 1400)
        }
    }

    #[test]
    fn bounded_two_level_wave_confirms_by_its_window_mean() {
        let mut d = PhaseDetector::new();
        // Every level switch misses the streak window's mean (a high
        // sample is 14 % above a run of lows), so no streak ever reaches
        // the window. Every 16 consecutive samples, though, lie within
        // tolerance of their own mean.
        for i in 0..90 {
            assert_eq!(d.observe(&square_wave(i)), i >= 15, "observation {i}");
        }
        assert_eq!(d.credit_cap(), u64::MAX);
        // Only the centered test holds, so credits interpolate the last 16
        // observations (74..=89: 6 high, 10 low) exactly.
        let (mut c_tot, mut r_tot) = (0u64, 0u64);
        for _ in 0..16 {
            let s = d.credit_next();
            c_tot += s.committed[0];
            r_tot += s.counts.get(ThreadId(0), Resource::IntRegFile);
        }
        assert_eq!((c_tot, r_tot), (11_800, 23_600));
    }

    #[test]
    fn an_out_of_tolerance_sample_breaks_a_centered_phase() {
        let mut d = PhaseDetector::new();
        for i in 0..40 {
            d.observe(&square_wave(i));
        }
        assert!(d.is_stable());
        assert!(!d.observe(&sample(1000, 2000)));
        // The phase stays broken while the outlier is among the last 16
        // observations, and confirms again once it has left them.
        for i in 41..56 {
            assert!(!d.observe(&square_wave(i)), "observation {i}");
        }
        assert!(d.observe(&square_wave(56)));
    }

    #[test]
    fn crediting_matches_the_window_mean_exactly() {
        let mut d = PhaseDetector::new();
        // Non-divisible profile: mean committed 101.5, regfile 60.25.
        let cycle = [101u64, 102, 101, 102];
        let reg = [60u64, 60, 60, 61];
        for i in 0..16 {
            d.observe(&sample(cycle[i % 4], reg[i % 4]));
        }
        assert!(d.is_stable());
        let (mut c_tot, mut r_tot) = (0u64, 0u64);
        let n = 8; // one full window's worth of credits
        for _ in 0..n {
            let s = d.credit_next();
            c_tot += s.committed[0];
            r_tot += s.counts.get(ThreadId(0), Resource::IntRegFile);
        }
        // Window holds the last 8 samples: sums 812 and 482.
        assert_eq!(c_tot, 812);
        assert_eq!(r_tot, 482);
    }

    #[test]
    fn observed_sample_resets_the_credit_position() {
        let mut d = PhaseDetector::new();
        for i in 0..16 {
            // Mean 101.5: Bresenham alternates 101 and 102, so the credit
            // position is observable.
            d.observe(&sample(101 + (i % 2), 60));
        }
        let first = d.credit_next();
        let second = d.credit_next();
        assert_ne!(first.committed[0], second.committed[0]);
        d.observe(&sample(101, 60));
        // After a fresh observation the interpolation restarts.
        assert_eq!(d.credit_next().committed[0], first.committed[0]);
    }

    #[test]
    fn matching_samples_keep_retraining_the_window() {
        let mut d = PhaseDetector::new();
        for _ in 0..16 {
            d.observe(&sample(100, 60));
        }
        assert!(d.is_stable());
        // A slow in-tolerance drift is tracked: after a full window of
        // drifted samples the credited mean follows it.
        for _ in 0..8 {
            assert!(d.observe(&sample(92, 55)));
        }
        let total: u64 = (0..8).map(|_| d.credit_next().committed[0]).sum();
        assert_eq!(total, 8 * 92);
    }

    #[test]
    fn learned_min_run_caps_crediting() {
        let mut d = PhaseDetector::new();
        assert_eq!(d.credit_cap(), u64::MAX);
        // A stable run of 30 samples, then a break.
        for _ in 0..30 {
            d.observe(&sample(100, 60));
        }
        d.observe(&sample(500, 10));
        assert_eq!(d.credit_cap(), 15);
        // A later, shorter completed run tightens the cap; it never loosens.
        for _ in 0..12 {
            d.observe(&sample(200, 20));
        }
        d.observe(&sample(700, 90));
        assert_eq!(d.credit_cap(), 6);
    }

    #[test]
    fn reset_forgets_the_phase_but_not_the_learned_cap() {
        let mut d = PhaseDetector::new();
        for _ in 0..20 {
            d.observe(&sample(100, 60));
        }
        d.observe(&sample(9, 9)); // completes a 20-sample run
        let cap = d.credit_cap();
        d.reset();
        assert!(!d.is_stable());
        assert_eq!(d.credit_cap(), cap);
    }

    #[test]
    #[should_panic(expected = "unconfirmed")]
    fn crediting_before_confirmation_panics() {
        let mut d = PhaseDetector::new();
        d.observe(&sample(100, 60));
        let _ = d.credit_next();
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let mut acc = PhaseSample::zero();
        acc.merge(&sample(100, 60));
        acc.merge(&sample(3, 7));
        assert_eq!(acc.committed[0], 103);
        assert_eq!(acc.counts.get(ThreadId(0), Resource::IntRegFile), 67);
    }

    #[test]
    fn bresenham_slices_reconstruct_the_sample_exactly() {
        // Non-divisible totals: 103/8 and 67/8 both leave remainders.
        let s = sample(103, 67);
        let mut total = PhaseSample::zero();
        for k in 0..8 {
            let slice = s.bresenham_slice(k, 8);
            // Each share is the floor or ceiling of the mean.
            assert!((12..=13).contains(&slice.committed[0]));
            total.merge(&slice);
        }
        assert_eq!(total, s);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn out_of_range_slice_panics() {
        let _ = sample(1, 1).bresenham_slice(8, 8);
    }

    /// One sample period of `d` on a core with no threads: a measured
    /// period counts `measured` regfile accesses, a credited one whatever
    /// the driver fast-forwarded. Returns the credited count, `None` when
    /// the period was measured.
    fn period(d: &mut IntervalDriver, cpu: &mut Cpu, eligible: bool, measured: u64) -> Option<u64> {
        let credited = d.try_credit(cpu, eligible);
        let mut counts = cpu.take_access_counts();
        if !credited {
            counts.add(ThreadId(0), Resource::IntRegFile, measured);
        }
        d.end_sample(cpu, &counts, credited);
        credited.then(|| counts.get(ThreadId(0), Resource::IntRegFile))
    }

    fn idle_core() -> Cpu {
        Cpu::new(CpuConfig::default(), MemConfig::default())
    }

    #[test]
    fn driver_cadence_is_fifteen_credits_one_refill_one_verify() {
        let mut cpu = idle_core();
        let mut d = IntervalDriver::new(&cpu, 1);
        let mut trace = String::new();
        let mut after_credit = false;
        for _ in 0..60 {
            // The refill period measures a pipeline still ramping up from
            // the squash, far below the phase: training on it would break
            // the phase.
            let measured = if after_credit { 0 } else { 60 };
            let credited = period(&mut d, &mut cpu, true, measured).is_some();
            trace.push(match (credited, after_credit) {
                (true, _) => 'C',
                (false, true) => 'r',
                (false, false) => 'm',
            });
            after_credit = credited;
        }
        let cadence = format!("{}rm", "C".repeat(15));
        assert_eq!(trace, format!("{}{}", "m".repeat(9), cadence.repeat(3)));
    }

    #[test]
    fn aggregate_slices_sum_to_the_credit_and_an_interruption_drops_the_rest() {
        let mut cpu = idle_core();
        let mut d = IntervalDriver::new(&cpu, 4);
        // Every aggregate totals 407, so every credited aggregate does too.
        let samples = [101, 102, 101, 103];
        for i in 0..36 {
            assert_eq!(period(&mut d, &mut cpu, true, samples[i % 4]), None);
        }
        let slices: Vec<u64> = (0..4)
            .map(|_| period(&mut d, &mut cpu, true, 0).expect("a confirmed phase credits"))
            .collect();
        assert_eq!(slices, [101, 102, 102, 102]);
        assert_eq!(slices.iter().sum::<u64>(), 407);
        // Two slices into the next aggregate, an ineligible period ends it:
        // the next credit starts a fresh aggregate at its first slice.
        assert_eq!(period(&mut d, &mut cpu, true, 0), Some(101));
        assert_eq!(period(&mut d, &mut cpu, true, 0), Some(102));
        assert_eq!(period(&mut d, &mut cpu, false, 0), None);
        assert_eq!(period(&mut d, &mut cpu, true, 0), Some(101));
    }

    #[test]
    fn reset_withholds_credit_until_a_fresh_confirmation() {
        let mut cpu = idle_core();
        let mut d = IntervalDriver::new(&cpu, 1);
        for _ in 0..9 {
            assert_eq!(period(&mut d, &mut cpu, true, 60), None);
        }
        assert_eq!(period(&mut d, &mut cpu, true, 60), Some(60));
        d.reset();
        // The credit just applied leaves no refill to drop after a reset.
        for i in 0..9 {
            assert_eq!(period(&mut d, &mut cpu, true, 60), None, "period {i}");
        }
        assert_eq!(period(&mut d, &mut cpu, true, 60), Some(60));
    }
}
