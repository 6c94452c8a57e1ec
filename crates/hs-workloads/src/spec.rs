//! The synthetic SPEC2K-like suite.
//!
//! Each member's segment recipe targets the benchmark's observable
//! behaviour class: integer ILP and register-file pressure, floating-point
//! intensity, working-set size (cache-resident vs memory-bound), and branch
//! predictability. A few members are deliberately *hot* (sustained
//! register-file rates in the 4–6 accesses/cycle range) to reproduce the
//! paper's benchmarks with inherent power-density problems.

use crate::evaders;
use crate::generator::{build_program, Segment, WorkloadSpec};
use crate::malicious;
use hs_isa::Program;
use hs_mem::MemConfig;
use std::fmt;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// The sixteen SPEC2K-like synthetic benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum SpecWorkload {
    Applu,
    Apsi,
    Art,
    Bzip2,
    Crafty,
    Eon,
    Gap,
    Gcc,
    Gzip,
    Lucas,
    Mcf,
    Mesa,
    Parser,
    Swim,
    Twolf,
    Vortex,
}

/// All suite members, alphabetically (the order the paper's figures use).
pub const SPEC_SUITE: [SpecWorkload; 16] = [
    SpecWorkload::Applu,
    SpecWorkload::Apsi,
    SpecWorkload::Art,
    SpecWorkload::Bzip2,
    SpecWorkload::Crafty,
    SpecWorkload::Eon,
    SpecWorkload::Gap,
    SpecWorkload::Gcc,
    SpecWorkload::Gzip,
    SpecWorkload::Lucas,
    SpecWorkload::Mcf,
    SpecWorkload::Mesa,
    SpecWorkload::Parser,
    SpecWorkload::Swim,
    SpecWorkload::Twolf,
    SpecWorkload::Vortex,
];

impl SpecWorkload {
    /// The benchmark's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpecWorkload::Applu => "applu",
            SpecWorkload::Apsi => "apsi",
            SpecWorkload::Art => "art",
            SpecWorkload::Bzip2 => "bzip2",
            SpecWorkload::Crafty => "crafty",
            SpecWorkload::Eon => "eon",
            SpecWorkload::Gap => "gap",
            SpecWorkload::Gcc => "gcc",
            SpecWorkload::Gzip => "gzip",
            SpecWorkload::Lucas => "lucas",
            SpecWorkload::Mcf => "mcf",
            SpecWorkload::Mesa => "mesa",
            SpecWorkload::Parser => "parser",
            SpecWorkload::Swim => "swim",
            SpecWorkload::Twolf => "twolf",
            SpecWorkload::Vortex => "vortex",
        }
    }

    /// Whether this member is one of the deliberately hot benchmarks with
    /// an inherent power-density tendency (the paper's crafty & co.).
    #[cfg(test)]
    fn has_power_density_problem(self) -> bool {
        matches!(
            self,
            SpecWorkload::Art | SpecWorkload::Crafty | SpecWorkload::Gzip | SpecWorkload::Vortex
        )
    }

    /// The segment recipe.
    #[must_use]
    pub fn spec(self) -> WorkloadSpec {
        let segments = match self {
            // FP solvers: fp bursts + streaming scans over big arrays.
            SpecWorkload::Applu => vec![
                Segment::FpBurst {
                    insts: 4800,
                    ilp: 2,
                },
                Segment::MemScan {
                    loads: 600,
                    stride: 64,
                    region_bytes: 512 * KB,
                },
                Segment::Mixed {
                    iters: 200,
                    ilp: 4,
                    region_bytes: 64 * KB,
                    toggle_branch: false,
                },
            ],
            SpecWorkload::Apsi => vec![
                Segment::FpBurst {
                    insts: 3600,
                    ilp: 2,
                },
                Segment::Mixed {
                    iters: 400,
                    ilp: 3,
                    region_bytes: 128 * KB,
                    toggle_branch: false,
                },
            ],
            // art: sustained low-ILP integer hammering — the hottest
            // "innocent" benchmark (inherent power-density problem).
            SpecWorkload::Art => vec![
                Segment::IntBurst {
                    insts: 20000,
                    ilp: 2,
                },
                Segment::MemScan {
                    loads: 50,
                    stride: 64,
                    region_bytes: 256 * KB,
                },
            ],
            SpecWorkload::Bzip2 => vec![
                Segment::Mixed {
                    iters: 700,
                    ilp: 4,
                    region_bytes: 32 * KB,
                    toggle_branch: false,
                },
                Segment::Mixed {
                    iters: 300,
                    ilp: 4,
                    region_bytes: 128 * KB,
                    toggle_branch: false,
                },
            ],
            // crafty: hot integer benchmark with mispredicting branches.
            SpecWorkload::Crafty => vec![
                Segment::IntBurst {
                    insts: 9600,
                    ilp: 3,
                },
                Segment::Mixed {
                    iters: 400,
                    ilp: 3,
                    region_bytes: 64 * KB,
                    toggle_branch: true,
                },
            ],
            SpecWorkload::Eon => vec![
                Segment::Mixed {
                    iters: 600,
                    ilp: 6,
                    region_bytes: 32 * KB,
                    toggle_branch: false,
                },
                Segment::FpBurst {
                    insts: 3600,
                    ilp: 4,
                },
            ],
            SpecWorkload::Gap => vec![
                Segment::Mixed {
                    iters: 500,
                    ilp: 4,
                    region_bytes: 32 * KB,
                    toggle_branch: false,
                },
                Segment::Mixed {
                    iters: 400,
                    ilp: 4,
                    region_bytes: 128 * KB,
                    toggle_branch: false,
                },
            ],
            SpecWorkload::Gcc => vec![
                Segment::Mixed {
                    iters: 1000,
                    ilp: 3,
                    region_bytes: 64 * KB,
                    toggle_branch: true,
                },
                Segment::MemScan {
                    loads: 20,
                    stride: 64,
                    region_bytes: 4 * MB,
                },
            ],
            // gzip: high-ILP integer compression loops — hot-ish.
            SpecWorkload::Gzip => vec![
                Segment::IntBurst {
                    insts: 3600,
                    ilp: 6,
                },
                Segment::Mixed {
                    iters: 500,
                    ilp: 5,
                    region_bytes: 32 * KB,
                    toggle_branch: false,
                },
            ],
            SpecWorkload::Lucas => vec![
                Segment::FpBurst {
                    insts: 2400,
                    ilp: 2,
                },
                Segment::MemScan {
                    loads: 400,
                    stride: 64,
                    region_bytes: 256 * KB,
                },
                Segment::Mixed {
                    iters: 200,
                    ilp: 2,
                    region_bytes: 256 * KB,
                    toggle_branch: false,
                },
            ],
            // mcf: pointer chasing over a >L2 working set; IPC collapses.
            SpecWorkload::Mcf => vec![
                Segment::MemScan {
                    loads: 60,
                    stride: 64,
                    region_bytes: 16 * MB,
                },
                Segment::Mixed {
                    iters: 800,
                    ilp: 2,
                    region_bytes: 512 * KB,
                    toggle_branch: true,
                },
            ],
            SpecWorkload::Mesa => vec![
                Segment::Mixed {
                    iters: 600,
                    ilp: 5,
                    region_bytes: 32 * KB,
                    toggle_branch: false,
                },
                Segment::FpBurst {
                    insts: 2400,
                    ilp: 5,
                },
            ],
            SpecWorkload::Parser => vec![
                Segment::Mixed {
                    iters: 800,
                    ilp: 2,
                    region_bytes: 128 * KB,
                    toggle_branch: true,
                },
                Segment::IntBurst { insts: 960, ilp: 2 },
            ],
            SpecWorkload::Swim => vec![
                Segment::FpBurst {
                    insts: 2400,
                    ilp: 6,
                },
                Segment::MemScan {
                    loads: 500,
                    stride: 64,
                    region_bytes: 512 * KB,
                },
                Segment::MemScan {
                    loads: 30,
                    stride: 64,
                    region_bytes: 8 * MB,
                },
            ],
            SpecWorkload::Twolf => vec![
                Segment::Mixed {
                    iters: 500,
                    ilp: 2,
                    region_bytes: 64 * KB,
                    toggle_branch: true,
                },
                Segment::Mixed {
                    iters: 400,
                    ilp: 2,
                    region_bytes: 256 * KB,
                    toggle_branch: true,
                },
            ],
            // vortex: integer, hot-ish.
            SpecWorkload::Vortex => vec![
                Segment::IntBurst {
                    insts: 9600,
                    ilp: 4,
                },
                Segment::Mixed {
                    iters: 400,
                    ilp: 4,
                    region_bytes: 64 * KB,
                    toggle_branch: false,
                },
            ],
        };
        WorkloadSpec {
            name: self.name(),
            segments,
        }
    }

    /// Builds the benchmark's program.
    #[must_use]
    pub fn program(self) -> Program {
        build_program(&self.spec())
    }
}

impl fmt::Display for SpecWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Any runnable workload: a suite member or one of the malicious variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A SPEC2K-like benchmark.
    Spec(SpecWorkload),
    /// Figure 1: aggressive, high-IPC register-file hammer.
    Variant1,
    /// Figure 2: register-file bursts padded with L2-conflict misses.
    Variant2,
    /// The evasive low-rate attacker.
    Variant3,
    /// Duty-cycle evader: hot work split across many short sibling loops
    /// using the canonical counted idiom (see [`crate::evaders`]).
    EvaderSplit,
    /// [`Workload::EvaderSplit`]'s schedule with every loop bound expressed
    /// through the extended counting idioms.
    EvaderHidden,
    /// A register-file hammer whose trip count is loaded from memory and
    /// therefore statically unknowable.
    EvaderUnknown,
}

impl Workload {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Spec(s) => s.name(),
            Workload::Variant1 => "variant1",
            Workload::Variant2 => "variant2",
            Workload::Variant3 => "variant3",
            Workload::EvaderSplit => "evader-split",
            Workload::EvaderHidden => "evader-hidden",
            Workload::EvaderUnknown => "evader-unknown",
        }
    }

    /// Builds the program with the default memory configuration.
    /// `time_scale` sizes the malicious variants' phases to match a
    /// time-scaled thermal model (1.0 for physical constants); it does not
    /// affect the SPEC-like members.
    #[must_use]
    pub fn program(self, time_scale: f64) -> Program {
        self.program_with(&MemConfig::default(), time_scale)
    }

    /// Builds the program against a specific memory configuration (the
    /// L2-conflict addresses depend on the L2 geometry).
    #[must_use]
    pub fn program_with(self, mem: &MemConfig, time_scale: f64) -> Program {
        match self {
            Workload::Spec(s) => s.program(),
            Workload::Variant1 => malicious::variant1(),
            Workload::Variant2 => malicious::variant2(mem, time_scale),
            Workload::Variant3 => malicious::variant3(mem, time_scale),
            Workload::EvaderSplit => evaders::duty_split(time_scale),
            Workload::EvaderHidden => evaders::duty_hidden(time_scale),
            Workload::EvaderUnknown => evaders::unknown_trip(),
        }
    }

    /// Whether this is one of the malicious variants.
    #[must_use]
    pub fn is_malicious(self) -> bool {
        !matches!(self, Workload::Spec(_))
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_has_sixteen_unique_members() {
        let names: HashSet<_> = SPEC_SUITE.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn every_member_builds_and_loops() {
        for s in SPEC_SUITE {
            let p = s.program();
            let mut m = hs_isa::Machine::new(p);
            assert_eq!(m.run(20_000), 20_000, "{s} halted unexpectedly");
        }
    }

    #[test]
    fn footprint_counts_the_distinct_words_stored() {
        let mut stored_words = 0;
        for s in SPEC_SUITE {
            let mut m = hs_isa::Machine::new(s.program());
            let mut stored = HashSet::new();
            for _ in 0..1_000_000 {
                let out = m.step().expect("the suite's programs never halt");
                let inst = m.program().get(out.executed).expect("executed");
                if let (hs_isa::Kind::Store { .. }, Some(addr)) = (inst.kind(), out.mem_addr) {
                    stored.insert(addr & !7);
                }
            }
            assert_eq!(m.memory().footprint_words(), stored.len(), "{s}");
            stored_words += stored.len();
        }
        // Enough stores to fill many 512-byte pages.
        assert!(stored_words > 100_000, "{stored_words} words stored");
    }

    #[test]
    fn programs_fit_in_the_icache() {
        for s in SPEC_SUITE {
            let p = s.program();
            assert!(p.len() * 4 < 64 << 10, "{s}: {} insts", p.len());
        }
    }

    #[test]
    fn hot_members_are_flagged() {
        assert!(SpecWorkload::Art.has_power_density_problem());
        assert!(!SpecWorkload::Mcf.has_power_density_problem());
        let hot: Vec<_> = SPEC_SUITE
            .iter()
            .filter(|s| s.has_power_density_problem())
            .collect();
        assert_eq!(hot.len(), 4);
    }

    #[test]
    fn workload_wrapper_builds_everything() {
        for w in [
            Workload::Spec(SpecWorkload::Gcc),
            Workload::Variant1,
            Workload::Variant2,
            Workload::Variant3,
        ] {
            assert!(!w.program(25.0).is_empty());
        }
        assert!(Workload::Variant1.is_malicious());
        assert!(!Workload::Spec(SpecWorkload::Art).is_malicious());
    }
}
