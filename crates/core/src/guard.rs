//! The hardened sensor front-end: voting, plausibility, and per-sensor
//! health tracking.
//!
//! The DTM policies of this crate trust their temperature inputs blindly —
//! a stuck-low hot-spot sensor silently disables the defense, and a
//! stuck-high one turns the safety net into a denial of service of its own.
//! [`SensorGuard`] sits between the raw sensor bank and a policy and
//! produces, per block:
//!
//! * a **voted reading** — the median of the last three raw readings, which
//!   removes single-sample spikes without lag on ramps;
//! * a **trust flag** — driven by a per-sensor health state machine
//!   (`Healthy → Suspect → Failed`, with hysteresis on recovery);
//! * **events** for every health transition, so the simulator can report
//!   them to the OS alongside sedation events.
//!
//! Anomaly checks per sensor update:
//!
//! 1. **Rate plausibility** — a physical block obeys an RC thermal network;
//!    its temperature cannot move more than the guard's rate bound
//!    `max_step_k` between consecutive sensor updates (derived from
//!    `ThermalConfig::max_heating_rate`; see
//!    [`FailsafeConfig::max_step_k`](crate::FailsafeConfig::max_step_k)).
//! 2. **Cross-block consistency** — blocks share a die; a reading more than
//!    30 K away from the median of all valid readings is implausible
//!    (catches stuck-at faults at far-from-operating-point values and
//!    accumulated drift).
//! 3. **Dropout** — the sensor produced no reading at all.
//! 4. **Stuck detection** — a reading *bit-identical* for 24 consecutive
//!    updates while at least one other non-failed sensor moved. True block
//!    temperatures evolve continuously, so exact repeats flag a latched
//!    output (benign quantized sensors plateau too, which is why peers must
//!    be moving and the window is long).
//!
//! The health windows are constants: 2 consecutive anomalies make a sensor
//! `Suspect`, 6 make it `Failed`, and 32 consecutive clean updates step it
//! back up one level.

use crate::report::ReportKind;
use hs_thermal::{Block, ALL_BLOCKS, NUM_BLOCKS};

/// Maximum plausible deviation from the median of all valid readings (K).
const CROSS_BLOCK_DELTA_K: f64 = 30.0;
/// Bit-identical readings (while peers move) tolerated before the sensor
/// is considered latched.
const STUCK_UPDATES: u32 = 24;
/// Consecutive anomalous updates before `Healthy → Suspect`.
const SUSPECT_AFTER: u32 = 2;
/// Consecutive anomalous updates before `Suspect → Failed`.
const FAIL_AFTER: u32 = 6;
/// Consecutive clean updates before health steps back up one level
/// (`Failed → Suspect → Healthy`) — the recovery hysteresis.
const RECOVER_AFTER: u32 = 32;

/// Per-sensor health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensorHealth {
    /// Readings plausible; the sensor is trusted.
    #[default]
    Healthy,
    /// Recent anomalies; readings are voted/held but still used.
    Suspect,
    /// Persistent anomalies; readings must not be trusted.
    Failed,
}

/// One health transition, for OS reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardEvent {
    /// Cycle of the transition.
    pub cycle: u64,
    /// The sensor's block.
    pub block: Block,
    /// `SensorSuspect`, `SensorFailed`, or `SensorRecovered`.
    pub kind: ReportKind,
    /// The raw reading that triggered the transition (K).
    pub reading_k: f64,
}

/// The guard's per-update output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedFrame {
    /// Voted (or, for anomalous sensors, last-good) reading per block (K).
    pub temps: [f64; NUM_BLOCKS],
    /// Whether each block's sensor is currently trusted (health not
    /// `Failed`).
    pub trusted: [bool; NUM_BLOCKS],
}

#[derive(Debug, Clone, Copy, Default)]
struct SensorState {
    /// Ring of the last three raw readings (for the median vote).
    raw: [f64; 3],
    raw_len: u8,
    raw_head: u8,
    /// Last output the guard produced for this block.
    output: f64,
    initialized: bool,
    health: SensorHealth,
    anomaly_streak: u32,
    clean_streak: u32,
    identical_streak: u32,
}

impl SensorState {
    fn push_raw(&mut self, v: f64) {
        self.raw[self.raw_head as usize] = v;
        self.raw_head = (self.raw_head + 1) % 3;
        self.raw_len = (self.raw_len + 1).min(3);
    }

    fn last_raw(&self) -> Option<f64> {
        if self.raw_len == 0 {
            None
        } else {
            Some(self.raw[((self.raw_head + 2) % 3) as usize])
        }
    }

    fn voted(&self, current: f64) -> f64 {
        if self.raw_len < 3 {
            return current;
        }
        let [a, b, c] = self.raw;
        median3(a, b, c)
    }
}

fn median3(a: f64, b: f64, c: f64) -> f64 {
    a.max(b).min(a.min(b).max(c))
}

/// Median of the valid entries in one frame (used for the cross-block
/// consistency check). Falls back to `f64::NAN` when nothing is valid —
/// every comparison against it then fails safe (no cross-block anomaly).
fn frame_median(values: &[f64; NUM_BLOCKS], valid: &[bool; NUM_BLOCKS]) -> f64 {
    let mut buf = [0.0f64; NUM_BLOCKS];
    let mut n = 0;
    for i in 0..NUM_BLOCKS {
        if valid[i] {
            buf[n] = values[i];
            n += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    buf[..n].sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    if n % 2 == 1 {
        buf[n / 2]
    } else {
        0.5 * (buf[n / 2 - 1] + buf[n / 2])
    }
}

/// The hardened sensor front-end. Feed it every raw sensor frame via
/// [`SensorGuard::observe`]; read back voted temperatures, trust flags, and
/// health-transition events.
#[derive(Debug, Clone)]
pub struct SensorGuard {
    /// Maximum plausible |ΔT| between consecutive sensor updates (K).
    max_step_k: f64,
    state: [SensorState; NUM_BLOCKS],
    events: Vec<GuardEvent>,
}

impl SensorGuard {
    /// Creates a guard with all sensors healthy that deems a reading
    /// implausible when it moves more than `max_step_k` kelvin between
    /// consecutive sensor updates.
    ///
    /// # Panics
    ///
    /// Panics unless `max_step_k` is positive.
    #[must_use]
    pub fn new(max_step_k: f64) -> Self {
        assert!(max_step_k > 0.0, "rate bound must be positive");
        SensorGuard {
            max_step_k,
            state: [SensorState::default(); NUM_BLOCKS],
            events: Vec::new(),
        }
    }

    /// Current health of one sensor.
    #[cfg(test)]
    fn health(&self, block: Block) -> SensorHealth {
        self.state[block.index()].health
    }

    /// Number of currently trusted (non-`Failed`) sensors.
    #[must_use]
    pub fn trusted_count(&self) -> usize {
        self.state
            .iter()
            .filter(|s| s.health != SensorHealth::Failed)
            .count()
    }

    /// Drains health-transition events recorded since the last call.
    pub fn take_events(&mut self) -> Vec<GuardEvent> {
        std::mem::take(&mut self.events)
    }

    /// Processes one raw sensor frame and returns the guarded view.
    pub fn observe(
        &mut self,
        cycle: u64,
        values: &[f64; NUM_BLOCKS],
        valid: &[bool; NUM_BLOCKS],
    ) -> GuardedFrame {
        // Did any non-failed peer move this update? (Computed against the
        // previous raw readings, before this frame is pushed.)
        let peers_moved: [bool; NUM_BLOCKS] = {
            let mut moved = [false; NUM_BLOCKS];
            for b in ALL_BLOCKS {
                let i = b.index();
                let s = &self.state[i];
                moved[i] = valid[i]
                    && s.health != SensorHealth::Failed
                    && s.last_raw().is_some_and(|prev| prev != values[i]);
            }
            let any = |except: usize| (0..NUM_BLOCKS).any(|i| i != except && moved[i]);
            let mut out = [false; NUM_BLOCKS];
            for (i, o) in out.iter_mut().enumerate() {
                *o = any(i);
            }
            out
        };
        let median = frame_median(values, valid);

        let mut frame = GuardedFrame {
            temps: [0.0; NUM_BLOCKS],
            trusted: [true; NUM_BLOCKS],
        };

        for b in ALL_BLOCKS {
            let i = b.index();
            let r = values[i];
            let s = &mut self.state[i];

            if !s.initialized {
                // First frame: nothing to compare against; adopt it.
                if valid[i] {
                    s.push_raw(r);
                    s.output = r;
                    s.initialized = true;
                }
                frame.temps[i] = s.output;
                frame.trusted[i] = s.health != SensorHealth::Failed;
                continue;
            }

            let mut anomaly: Option<&'static str> = None;
            if !valid[i] {
                anomaly = Some("dropout");
            } else {
                // Stuck streak bookkeeping (bit-identical repeats).
                if s.last_raw() == Some(r) {
                    s.identical_streak = s.identical_streak.saturating_add(1);
                } else {
                    s.identical_streak = 0;
                }
                // Rate plausibility: implausible only if the reading is a
                // jump from *both* the previous raw reading (catches step
                // faults) and the voted output (2× margin absorbs the
                // one-update voting lag on steep but physical ramps, while
                // still passing post-spike recovery readings).
                let raw_jump = s
                    .last_raw()
                    .is_some_and(|prev| (r - prev).abs() > self.max_step_k);
                let output_jump = (r - s.output).abs() > 2.0 * self.max_step_k;
                if raw_jump && output_jump {
                    anomaly = Some("rate");
                } else if (r - median).abs() > CROSS_BLOCK_DELTA_K {
                    anomaly = Some("cross-block");
                } else if s.identical_streak >= STUCK_UPDATES && peers_moved[i] {
                    anomaly = Some("stuck");
                }
                s.push_raw(r);
            }

            if anomaly.is_some() {
                s.anomaly_streak = s.anomaly_streak.saturating_add(1);
                s.clean_streak = 0;
                // Hold the last good output; do not adopt the reading.
            } else {
                s.clean_streak = s.clean_streak.saturating_add(1);
                s.anomaly_streak = 0;
                s.output = s.voted(r);
            }

            // Health transitions.
            let before = s.health;
            match s.health {
                SensorHealth::Healthy => {
                    if s.anomaly_streak >= SUSPECT_AFTER {
                        s.health = SensorHealth::Suspect;
                    }
                }
                SensorHealth::Suspect => {
                    if s.anomaly_streak >= FAIL_AFTER {
                        s.health = SensorHealth::Failed;
                    } else if s.clean_streak >= RECOVER_AFTER {
                        s.health = SensorHealth::Healthy;
                        s.clean_streak = 0;
                    }
                }
                SensorHealth::Failed => {
                    if s.clean_streak >= RECOVER_AFTER {
                        s.health = SensorHealth::Suspect;
                        s.clean_streak = 0;
                    }
                }
            }
            if s.health != before {
                let kind = match (before, s.health) {
                    (_, SensorHealth::Failed) => ReportKind::SensorFailed,
                    (SensorHealth::Healthy, SensorHealth::Suspect) => ReportKind::SensorSuspect,
                    _ => ReportKind::SensorRecovered,
                };
                self.events.push(GuardEvent {
                    cycle,
                    block: b,
                    kind,
                    reading_k: r,
                });
            }

            frame.temps[i] = s.output;
            frame.trusted[i] = s.health != SensorHealth::Failed;
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REG: Block = Block::IntReg;

    /// A rate bound well above the benign frames' drift.
    const MAX_STEP_K: f64 = 2.0;

    fn benign_frame(step: u64) -> [f64; NUM_BLOCKS] {
        // Every block drifts slowly and uniquely so no two frames repeat.
        let mut v = [0.0; NUM_BLOCKS];
        for (i, t) in v.iter_mut().enumerate() {
            *t = 345.0 + i as f64 * 0.5 + step as f64 * 0.01 + (i as f64 * 0.001);
        }
        v
    }

    fn all_valid() -> [bool; NUM_BLOCKS] {
        [true; NUM_BLOCKS]
    }

    #[test]
    fn benign_readings_stay_healthy_and_pass_through() {
        let mut g = SensorGuard::new(MAX_STEP_K);
        for step in 0..200 {
            let v = benign_frame(step);
            let f = g.observe(step * 800, &v, &all_valid());
            assert!(f.trusted.iter().all(|&t| t));
            // Voted output tracks the input closely (median of a slow ramp).
            assert!((f.temps[REG.index()] - v[REG.index()]).abs() < 0.1);
        }
        assert!(g.take_events().is_empty());
        assert_eq!(g.trusted_count(), NUM_BLOCKS);
    }

    #[test]
    fn single_spike_is_voted_out_without_losing_trust() {
        let mut g = SensorGuard::new(MAX_STEP_K);
        for step in 0..10 {
            g.observe(step, &benign_frame(step), &all_valid());
        }
        let mut v = benign_frame(10);
        v[REG.index()] += 40.0; // one-sample spike
        let f = g.observe(10, &v, &all_valid());
        // The spike is rejected: output holds near the pre-spike value.
        assert!((f.temps[REG.index()] - benign_frame(9)[REG.index()]).abs() < 0.5);
        assert!(f.trusted[REG.index()]);
        // And a clean follow-up clears the streak.
        let f = g.observe(11, &benign_frame(11), &all_valid());
        assert!(f.trusted[REG.index()]);
        assert_eq!(g.health(REG), SensorHealth::Healthy);
    }

    #[test]
    fn stuck_low_sensor_walks_to_failed() {
        let mut g = SensorGuard::new(MAX_STEP_K);
        for step in 0..10 {
            g.observe(step, &benign_frame(step), &all_valid());
        }
        let mut failed_at = None;
        for step in 10..40 {
            let mut v = benign_frame(step);
            v[REG.index()] = 300.0; // stuck far below the die
            let f = g.observe(step, &v, &all_valid());
            // Held output never adopts the bogus value.
            assert!(f.temps[REG.index()] > 340.0);
            if !f.trusted[REG.index()] && failed_at.is_none() {
                failed_at = Some(step);
            }
        }
        assert!(failed_at.is_some(), "stuck-low sensor must reach Failed");
        assert_eq!(g.health(REG), SensorHealth::Failed);
        let events = g.take_events();
        assert!(events.iter().any(|e| e.kind == ReportKind::SensorSuspect));
        assert!(events.iter().any(|e| e.kind == ReportKind::SensorFailed));
    }

    #[test]
    fn stuck_at_plausible_value_is_caught_by_stuck_detection() {
        let mut g = SensorGuard::new(MAX_STEP_K);
        for step in 0..5 {
            g.observe(step, &benign_frame(step), &all_valid());
        }
        // Latch the regfile sensor at its last plausible value: passes the
        // rate and cross-block checks, so only the stuck detector can see it.
        let latched = benign_frame(4)[REG.index()];
        for step in 5..120 {
            let mut v = benign_frame(step);
            v[REG.index()] = latched;
            g.observe(step, &v, &all_valid());
        }
        assert_ne!(
            g.health(REG),
            SensorHealth::Healthy,
            "latched sensor must at least be Suspect"
        );
    }

    #[test]
    fn dropouts_fail_and_recovery_has_hysteresis() {
        let mut g = SensorGuard::new(MAX_STEP_K);
        for step in 0..5 {
            g.observe(step, &benign_frame(step), &all_valid());
        }
        // Long dropout → Failed.
        for step in 5..25 {
            let mut valid = all_valid();
            valid[REG.index()] = false;
            let f = g.observe(step, &benign_frame(step), &valid);
            // Output holds the last good reading during the dropout.
            assert!((f.temps[REG.index()] - benign_frame(4)[REG.index()]).abs() < 0.5);
        }
        assert_eq!(g.health(REG), SensorHealth::Failed);
        // One clean reading is NOT enough to recover.
        g.observe(25, &benign_frame(25), &all_valid());
        assert_eq!(g.health(REG), SensorHealth::Failed);
        // A long clean run steps back down through Suspect to Healthy.
        let mut step = 26;
        while g.health(REG) != SensorHealth::Healthy && step < 26 + 3 * 64 {
            g.observe(step, &benign_frame(step), &all_valid());
            step += 1;
        }
        assert_eq!(g.health(REG), SensorHealth::Healthy);
        assert!(
            g.take_events()
                .iter()
                .filter(|e| e.kind == ReportKind::SensorRecovered)
                .count()
                >= 2
        );
    }

    #[test]
    fn all_sensors_invalid_is_survivable() {
        let mut g = SensorGuard::new(MAX_STEP_K);
        for step in 0..3 {
            g.observe(step, &benign_frame(step), &all_valid());
        }
        for step in 3..30 {
            let f = g.observe(step, &benign_frame(step), &[false; NUM_BLOCKS]);
            // Everything holds its last value; nothing panics.
            assert!(f.temps.iter().all(|t| t.is_finite()));
        }
        assert_eq!(g.trusted_count(), 0);
    }

    #[test]
    fn median3_is_the_median() {
        assert_eq!(median3(1.0, 2.0, 3.0), 2.0);
        assert_eq!(median3(3.0, 1.0, 2.0), 2.0);
        assert_eq!(median3(2.0, 3.0, 1.0), 2.0);
        assert_eq!(median3(5.0, 5.0, 1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "rate bound must be positive")]
    fn non_positive_rate_bound_is_rejected() {
        let _ = SensorGuard::new(0.0);
    }
}
