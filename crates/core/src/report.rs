//! OS reporting: the paper's hardware "report\[s\] the offending threads to
//! the operating system" so the scheduler can act on repeat offenders.

use hs_cpu::ThreadId;
use hs_thermal::Block;
use std::fmt;

/// What a report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A thread was identified as the culprit at a resource and sedated.
    Sedated,
    /// Sedated threads were released after the resource cooled.
    Released,
    /// The resource reached the emergency temperature and the safety-net
    /// stop-and-go engaged.
    Emergency,
    /// The safety-net stall ended; all sedated threads were restored.
    SafetyNetReleased,
    /// A temperature sensor produced implausible readings and was demoted
    /// to *suspect* by the hardened monitor front-end.
    SensorSuspect,
    /// A temperature sensor kept misbehaving and was declared *failed*; its
    /// readings are no longer trusted.
    SensorFailed,
    /// A previously suspect/failed sensor produced a long run of plausible
    /// readings and regained (one level of) trust.
    SensorRecovered,
    /// The failsafe DTM lost trust in a sensor and fell back from selective
    /// sedation to worst-case stop-and-go.
    FallbackEngaged,
    /// All sensors regained trust; selective sedation resumed.
    FallbackReleased,
    /// Too few trusted sensors remained (quorum lost); the watchdog halted
    /// fetch entirely.
    WatchdogHalt,
    /// Sensor quorum was restored; the watchdog released the halt.
    WatchdogResumed,
    /// Static admission screening flagged the thread's program as a likely
    /// power-density attack before it ran a single cycle.
    AdmissionFlagged,
}

/// Every report kind, in declaration order (for serializers that map kinds
/// to and from their stable names).
pub const ALL_REPORT_KINDS: [ReportKind; 12] = [
    ReportKind::Sedated,
    ReportKind::Released,
    ReportKind::Emergency,
    ReportKind::SafetyNetReleased,
    ReportKind::SensorSuspect,
    ReportKind::SensorFailed,
    ReportKind::SensorRecovered,
    ReportKind::FallbackEngaged,
    ReportKind::FallbackReleased,
    ReportKind::WatchdogHalt,
    ReportKind::WatchdogResumed,
    ReportKind::AdmissionFlagged,
];

impl ReportKind {
    /// Stable display name (also the serialized form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Sedated => "sedated",
            ReportKind::Released => "released",
            ReportKind::Emergency => "emergency",
            ReportKind::SafetyNetReleased => "safety-net released",
            ReportKind::SensorSuspect => "sensor suspect",
            ReportKind::SensorFailed => "sensor failed",
            ReportKind::SensorRecovered => "sensor recovered",
            ReportKind::FallbackEngaged => "fallback engaged",
            ReportKind::FallbackReleased => "fallback released",
            ReportKind::WatchdogHalt => "watchdog halt",
            ReportKind::WatchdogResumed => "watchdog resumed",
            ReportKind::AdmissionFlagged => "admission flagged",
        }
    }

    /// The kind with the given stable name, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ReportKind> {
        ALL_REPORT_KINDS.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for ReportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One event reported to the OS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsReport {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// The thread involved (`None` for chip-wide events).
    pub thread: Option<ThreadId>,
    /// The resource (floorplan block) involved.
    pub block: Block,
    /// The event kind.
    pub kind: ReportKind,
    /// The culprit's weighted average at decision time, if applicable.
    pub weighted_avg: Option<f64>,
    /// The block temperature at decision time (K).
    pub temperature_k: f64,
}

impl fmt::Display for OsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cycle {:>12}] {} @ {} ({:.2} K",
            self.cycle, self.kind, self.block, self.temperature_k
        )?;
        if let Some(t) = self.thread {
            write!(f, ", thread {t}")?;
        }
        if let Some(w) = self.weighted_avg {
            write!(f, ", wt.avg {w:.1}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let r = OsReport {
            cycle: 1_234,
            thread: Some(ThreadId(1)),
            block: Block::IntReg,
            kind: ReportKind::Sedated,
            weighted_avg: Some(9876.5),
            temperature_k: 356.2,
        };
        let s = r.to_string();
        assert!(s.contains("sedated"));
        assert!(s.contains("int-reg"));
        assert!(s.contains("T1"));
        assert!(s.contains("356.2"));
    }

    #[test]
    fn names_roundtrip_every_kind() {
        for kind in ALL_REPORT_KINDS {
            assert_eq!(ReportKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ReportKind::from_name("no-such-kind"), None);
    }
}
