//! Phase detection and activity crediting for interval-mode execution.
//!
//! The interval engine (`hs-sim`, DESIGN.md §3d) fast-forwards through
//! stretches where every hardware context has settled into a steady
//! phase: committed-instruction and per-resource access rates that repeat,
//! sample after sample, within a small tolerance. This module provides the
//! two halves of that contract:
//!
//! * [`PhaseDetector`] watches the per-sample activity ([`PhaseSample`])
//!   and declares a phase **stable** when either of two tests holds, with
//!   W the confirmation window:
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
//! * Once stable, [`PhaseDetector::credit_next`] extrapolates the next
//!   sample's worth of activity from the measured samples: the streak
//!   window while the streak test holds, otherwise the 2W centered ones.
//!   Crediting uses Bresenham-style integer interpolation, so over any `n`
//!   credited samples the total equals the window mean times `n` to the
//!   instruction — there is no cumulative rounding drift for the DTM's
//!   rate monitors or the power model to absorb.
//!
//! The detector is deliberately conservative: it learns the shortest
//! stable streak it has ever seen complete ([`PhaseDetector::credit_cap`])
//! and offers that as an upper bound on consecutive credits, so a
//! duty-cycled workload (the `hs-workloads` evaders) whose phases keep
//! ending can never be fast-forwarded far past where its hot phase
//! historically broke.

use crate::resources::{AccessMatrix, ThreadId, ALL_RESOURCES, MAX_THREADS, NUM_RESOURCES};

/// Counters per context in a [`Counters`] row: committed instructions,
/// then one access count per resource.
const ROW: usize = 1 + NUM_RESOURCES;

/// Counters in one [`PhaseSample`].
const COUNTERS: usize = MAX_THREADS * ROW;

/// A [`PhaseSample`] flattened to its counters, one [`ROW`] per context,
/// so the detector's sums and scans are plain array loops.
type Counters = [u64; COUNTERS];

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

    /// Accumulates `other` into `self` counter by counter. The interval
    /// engine uses this to fold several consecutive monitor samples into
    /// one *aggregate* observation when the workload's loop structure is
    /// longer than a single sample period (see
    /// `IntervalConfig::aggregate_samples` in `hs-sim`).
    pub fn merge(&mut self, other: &PhaseSample) {
        for (acc, c) in self.committed.iter_mut().zip(other.committed) {
            *acc += c;
        }
        self.counts.merge(&other.counts);
    }

    /// The `k`-th of `n` drift-free integer shares of this sample: every
    /// counter is split with the same Bresenham rounding as
    /// [`PhaseDetector::credit_next`], so summing all `n` slices
    /// reconstructs the sample exactly. The interval engine uses this to
    /// spread an aggregate credit back over its constituent sample
    /// periods.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n` (there is no such slice).
    #[must_use]
    pub fn bresenham_slice(&self, k: u64, n: u64) -> PhaseSample {
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

impl Default for PhaseSample {
    fn default() -> Self {
        Self::zero()
    }
}

/// Tuning knobs for [`PhaseDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseDetectorConfig {
    /// Consecutive matching samples required before the phase counts as
    /// stable (and doubles as the rolling-window length; the centered
    /// test looks at twice as many samples).
    pub confirm_samples: u32,
    /// Relative tolerance on each counter against the window mean.
    pub rel_tol: f64,
    /// Absolute slack (counts per sample) added to the tolerance, so tiny
    /// counters are not held to a meaninglessly tight relative bound.
    pub abs_slack: u64,
}

impl Default for PhaseDetectorConfig {
    fn default() -> Self {
        PhaseDetectorConfig {
            confirm_samples: 8,
            rel_tol: 0.10,
            abs_slack: 12,
        }
    }
}

/// Watches per-sample activity and reports when execution has entered a
/// stable phase whose profile is safe to extrapolate.
///
/// See the [module docs](self) for the detection and crediting contract.
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    cfg: PhaseDetectorConfig,
    /// The last `2 × confirm_samples` observations since the last reset,
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
    /// Creates a detector with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `confirm_samples` is zero or `rel_tol` is negative or not
    /// finite.
    #[must_use]
    pub fn new(cfg: PhaseDetectorConfig) -> Self {
        assert!(cfg.confirm_samples > 0, "confirmation window must be > 0");
        assert!(
            cfg.rel_tol.is_finite() && cfg.rel_tol >= 0.0,
            "relative tolerance must be finite and non-negative"
        );
        PhaseDetector {
            cfg,
            history: Vec::with_capacity(2 * cfg.confirm_samples as usize),
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
    #[must_use]
    pub fn is_stable(&self) -> bool {
        self.streak_stable() || self.centered
    }

    /// An upper bound on consecutive credited samples, learned from the
    /// shortest stable streak that has ever completed (half of it, at
    /// least one). `u64::MAX` until a stable streak has been seen to end —
    /// the caller composes this with its own fixed skip allowance.
    #[must_use]
    pub fn credit_cap(&self) -> u64 {
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
    /// would bias the rolling mean low (the engine drops those on the
    /// floor; see DESIGN.md §3d).
    pub fn observe(&mut self, sample: &PhaseSample) -> bool {
        let obs = sample.counters();
        let window = self.cfg.confirm_samples as usize;
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
    /// without touching the learned minimum run length. The interval
    /// engine calls this whenever the DTM state changes: activity measured
    /// under one gating regime says nothing about the next.
    pub fn reset(&mut self) {
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
    pub fn credit_next(&mut self) -> PhaseSample {
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

    /// The streak test: at least `confirm_samples` consecutive matches
    /// after the seeding sample.
    fn streak_stable(&self) -> bool {
        self.run_len > u64::from(self.cfg.confirm_samples)
    }

    /// Length of the streak window: the newest observations of the current
    /// streak, at most `confirm_samples` of them.
    fn streak_len(&self) -> usize {
        self.run_len.min(u64::from(self.cfg.confirm_samples)) as usize
    }

    /// Whether `obs` matches the streak window's mean on every counter.
    fn matches_streak(&self, obs: &Counters) -> bool {
        let n = self.streak_len() as f64;
        obs.iter()
            .zip(&self.streak_sums)
            .all(|(&c, &sum)| self.within_tol(c, sum as f64 / n))
    }

    /// The centered test: the history is full and every observation in it
    /// lies within tolerance of the history's mean on every counter. The
    /// tolerance grows monotonically away from the mean, so testing each
    /// counter's minimum and maximum is enough.
    fn centered_stable(&self) -> bool {
        let n = self.history.len();
        if n < 2 * self.cfg.confirm_samples as usize {
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
                lo == hi || (self.within_tol(lo, mean) && self.within_tol(hi, mean))
            })
    }

    fn within_tol(&self, count: u64, mean: f64) -> bool {
        let c = count as f64;
        let tol = self.cfg.abs_slack as f64 + self.cfg.rel_tol * c.max(mean);
        (c - mean).abs() <= tol
    }
}

/// The `k`-th term of the drift-free integer interpolation of `s/n`.
fn bresenham(s: u64, k: u64, n: u64) -> u64 {
    s * (k + 1) / n - s * k / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resource;

    fn sample(committed: u64, regfile: u64) -> PhaseSample {
        let mut s = PhaseSample::zero();
        s.committed[0] = committed;
        s.counts.add(ThreadId(0), Resource::IntRegFile, regfile);
        s
    }

    fn detector() -> PhaseDetector {
        PhaseDetector::new(PhaseDetectorConfig::default())
    }

    #[test]
    fn steady_stream_confirms_after_the_window() {
        let mut d = detector();
        for i in 0..20 {
            let stable = d.observe(&sample(100, 60));
            // Seed sample + 8 matches => stable from the 9th observation.
            assert_eq!(stable, i >= 8, "observation {i}");
        }
    }

    #[test]
    fn phase_shorter_than_the_window_never_stabilizes() {
        let mut d = detector();
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
        let mut d = detector();
        // +-6 around 100 is inside abs_slack + 10% of the mean.
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
        let mut d = detector();
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
}
