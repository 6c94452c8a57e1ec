//! Pipeline configuration (paper Table 1 defaults).

/// SMT fetch arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchPolicy {
    /// Tullsen's ICOUNT: prioritize the threads with the fewest
    /// instructions in flight (the paper's default, and what a high-IPC
    /// attacker exploits to monopolize fetch).
    #[default]
    Icount,
    /// Strict round-robin rotation, for ablation against ICOUNT.
    RoundRobin,
}

/// Configuration of the SMT core.
///
/// Defaults match Table 1 of the paper: 6-wide out-of-order issue, a
/// 128-entry RUU and 32-entry LSQ, 2 memory ports, 2 SMT contexts, and
/// ICOUNT fetch from up to two threads per cycle.
///
/// ```
/// use hs_cpu::CpuConfig;
/// let c = CpuConfig::default();
/// assert_eq!(c.issue_width, 6);
/// assert_eq!(c.ruu_size, 128);
/// assert_eq!(c.lsq_size, 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Maximum instructions fetched per cycle (shared across threads).
    pub fetch_width: u32,
    /// Number of threads that may fetch in the same cycle (ICOUNT.n).
    pub fetch_threads_per_cycle: u32,
    /// Fetch arbitration policy.
    pub fetch_policy: FetchPolicy,
    /// Per-thread fetch-queue capacity.
    pub fetch_queue_size: u32,
    /// Maximum instructions dispatched (renamed + inserted) per cycle.
    pub dispatch_width: u32,
    /// Maximum instructions issued to functional units per cycle, at most
    /// 32.
    pub issue_width: u32,
    /// Maximum instructions committed per cycle.
    pub commit_width: u32,
    /// Register update unit (issue queue + ROB) capacity, shared.
    pub ruu_size: u32,
    /// Maximum RUU entries any single thread may occupy. Prevents one
    /// thread's long dependence/miss chain from squeezing every other
    /// thread out of the shared window (ICOUNT throttles *fetch*, but only
    /// an occupancy cap bounds *dispatch*).
    pub ruu_per_thread_cap: u32,
    /// Load/store queue capacity, shared.
    pub lsq_size: u32,
    /// Number of single-cycle integer ALUs.
    pub int_alus: u32,
    /// Number of integer multipliers.
    pub int_muls: u32,
    /// Number of FP adders.
    pub fp_adds: u32,
    /// Number of FP multiplier/dividers.
    pub fp_muls: u32,
    /// Number of cache ports for loads/stores.
    pub mem_ports: u32,
    /// Extra cycles of fetch redirect delay after a mispredicted branch
    /// resolves.
    pub mispredict_redirect_penalty: u32,
    /// Number of SMT contexts.
    pub contexts: u32,
    /// Number of entries in the bimodal branch predictor.
    pub bpred_entries: u32,
    /// How many window entries (oldest first) the issue select logic can
    /// examine per cycle, at most 32 — real select trees have bounded
    /// depth; this also bounds simulation cost per cycle.
    pub issue_scan_depth: u32,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            fetch_width: 6,
            fetch_threads_per_cycle: 2,
            fetch_policy: FetchPolicy::Icount,
            fetch_queue_size: 12,
            dispatch_width: 6,
            issue_width: 6,
            commit_width: 6,
            ruu_size: 128,
            ruu_per_thread_cap: 112,
            lsq_size: 32,
            int_alus: 4,
            int_muls: 1,
            fp_adds: 2,
            fp_muls: 1,
            mem_ports: 2,
            mispredict_redirect_penalty: 2,
            contexts: 2,
            bpred_entries: 2048,
            issue_scan_depth: 16,
        }
    }
}

impl CpuConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: a zero
    /// width or capacity, an issue width or select depth outside `1..=32`,
    /// a RUU cap outside the RUU, a non-power-of-two predictor, or more
    /// contexts than [`crate::MAX_THREADS`].
    pub fn try_validate(&self) -> Result<(), String> {
        let nonzero: [(&str, u64); 9] = [
            ("fetch_width", u64::from(self.fetch_width)),
            (
                "fetch_threads_per_cycle",
                u64::from(self.fetch_threads_per_cycle),
            ),
            ("fetch_queue_size", self.fetch_queue_size as u64),
            ("dispatch_width", u64::from(self.dispatch_width)),
            ("commit_width", u64::from(self.commit_width)),
            ("ruu_size", self.ruu_size as u64),
            ("lsq_size", self.lsq_size as u64),
            ("mem_ports", u64::from(self.mem_ports)),
            ("int_alus", u64::from(self.int_alus)),
        ];
        for (name, v) in nonzero {
            if v == 0 {
                return Err(format!("{name} must be nonzero"));
            }
        }
        if !(1..=self.ruu_size).contains(&self.ruu_per_thread_cap) {
            return Err("per-thread RUU cap must be in 1..=ruu_size".into());
        }
        // The select logic issues and examines at most 32 entries a cycle.
        for (name, v) in [
            ("issue_width", self.issue_width),
            ("issue_scan_depth", self.issue_scan_depth),
        ] {
            if !(1..=32).contains(&v) {
                return Err(format!("{name} must be in 1..=32"));
            }
        }
        if !self.bpred_entries.is_power_of_two() {
            return Err("bpred entries must be a power of two".into());
        }
        if (self.contexts as usize) > crate::resources::MAX_THREADS {
            return Err(format!(
                "at most {} contexts supported",
                crate::resources::MAX_THREADS
            ));
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or capacity is zero, or if `contexts` exceeds
    /// [`crate::MAX_THREADS`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CpuConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "contexts")]
    fn too_many_contexts_rejected() {
        let cfg = CpuConfig {
            contexts: 9,
            ..CpuConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn issue_width_is_limited_to_1_through_32() {
        for (width, ok) in [(0, false), (1, true), (32, true), (33, false), (40, false)] {
            let cfg = CpuConfig {
                issue_width: width,
                ..CpuConfig::default()
            };
            assert_eq!(cfg.try_validate().is_ok(), ok, "issue_width {width}");
        }
    }

    #[test]
    fn issue_scan_depth_is_limited_to_1_through_32() {
        for (depth, ok) in [(0, false), (1, true), (32, true), (33, false)] {
            let cfg = CpuConfig {
                issue_scan_depth: depth,
                ..CpuConfig::default()
            };
            assert_eq!(cfg.try_validate().is_ok(), ok, "issue_scan_depth {depth}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_bpred_rejected() {
        let cfg = CpuConfig {
            bpred_entries: 1000,
            ..CpuConfig::default()
        };
        cfg.validate();
    }
}
