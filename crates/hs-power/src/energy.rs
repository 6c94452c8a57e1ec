//! Per-access energies and per-block idle powers.

use hs_cpu::{Resource, ALL_RESOURCES, NUM_RESOURCES};
use hs_thermal::{Block, NUM_BLOCKS};

/// Maps a pipeline resource to the floorplan block that dissipates its
/// switching energy.
#[must_use]
pub fn resource_block(resource: Resource) -> Block {
    match resource {
        Resource::FetchUnit | Resource::Bpred => Block::Bpred,
        Resource::Rename => Block::Rename,
        Resource::IssueQueue => Block::IntQ,
        Resource::Lsq => Block::LdStQ,
        Resource::IntRegFile => Block::IntReg,
        Resource::FpRegFile => Block::FpReg,
        Resource::IntAlu | Resource::IntMul => Block::IntExec,
        Resource::FpAdd => Block::FpAdd,
        Resource::FpMul => Block::FpMul,
        Resource::L1I => Block::Icache,
        Resource::L1D => Block::Dcache,
        Resource::L2 => Block::L2,
    }
}

/// Switching energy per access for every resource (joules) plus constant
/// idle power per block (watts; leakage and ungated clocks — dissipated
/// even while the pipeline is stalled).
///
/// Defaults are calibrated to the paper's temperature anchors; see the
/// crate docs and `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    per_access: [f64; NUM_RESOURCES],
    idle: [f64; NUM_BLOCKS],
}

impl Default for EnergyTable {
    fn default() -> Self {
        let mut t = EnergyTable {
            per_access: [0.0; NUM_RESOURCES],
            idle: [0.0; NUM_BLOCKS],
        };
        const PJ: f64 = 1e-12;
        // Per-access switching energies.
        t.set_energy(Resource::FetchUnit, 20.0 * PJ);
        t.set_energy(Resource::Bpred, 40.0 * PJ);
        t.set_energy(Resource::Rename, 30.0 * PJ);
        t.set_energy(Resource::IssueQueue, 35.0 * PJ);
        t.set_energy(Resource::Lsq, 50.0 * PJ);
        // The register files: the attack target. Calibrated so ~3 acc/cycle
        // ⇒ ≈354 K and ≥13 acc/cycle ⇒ steady state well above 358.5 K.
        t.set_energy(Resource::IntRegFile, 76.0 * PJ);
        t.set_energy(Resource::FpRegFile, 25.0 * PJ);
        t.set_energy(Resource::IntAlu, 80.0 * PJ);
        t.set_energy(Resource::IntMul, 250.0 * PJ);
        t.set_energy(Resource::FpAdd, 300.0 * PJ);
        t.set_energy(Resource::FpMul, 350.0 * PJ);
        t.set_energy(Resource::L1I, 400.0 * PJ);
        t.set_energy(Resource::L1D, 400.0 * PJ);
        t.set_energy(Resource::L2, 1800.0 * PJ);
        // Idle (leakage + ungated clock) power, watts. Sums to ≈30 W so the
        // 0.8 K/W package holds the spreader near 347 K.
        t.set_idle(Block::Icache, 4.0);
        t.set_idle(Block::Dcache, 4.0);
        t.set_idle(Block::Bpred, 1.0);
        t.set_idle(Block::Rename, 0.3);
        t.set_idle(Block::IntQ, 0.25);
        t.set_idle(Block::IntReg, 0.45);
        t.set_idle(Block::IntExec, 2.8);
        t.set_idle(Block::LdStQ, 0.7);
        t.set_idle(Block::FpReg, 0.35);
        t.set_idle(Block::FpAdd, 1.3);
        t.set_idle(Block::FpMul, 1.6);
        t.set_idle(Block::L2, 10.8);
        t
    }
}

impl EnergyTable {
    /// Energy per access (joules) for a resource.
    #[must_use]
    pub fn energy(&self, resource: Resource) -> f64 {
        self.per_access[resource.index()]
    }

    /// Sets a resource's per-access energy (joules).
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn set_energy(&mut self, resource: Resource, joules: f64) -> &mut Self {
        assert!(joules.is_finite() && joules >= 0.0, "energy must be ≥ 0");
        self.per_access[resource.index()] = joules;
        self
    }

    /// Idle power (watts) for a block.
    #[must_use]
    pub fn idle(&self, block: Block) -> f64 {
        self.idle[block.index()]
    }

    /// Sets a block's idle power (watts).
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn set_idle(&mut self, block: Block, watts: f64) -> &mut Self {
        assert!(watts.is_finite() && watts >= 0.0, "idle power must be ≥ 0");
        self.idle[block.index()] = watts;
        self
    }

    /// Total idle power across all blocks (watts).
    #[cfg(test)]
    fn total_idle(&self) -> f64 {
        self.idle.iter().sum()
    }

    /// The full per-access energy table, indexed by [`Resource::index`]
    /// (joules per access, zeros included).
    ///
    /// Static analyses (`hs-analyze`) weight predicted access counts by
    /// exactly these values so their per-block energy ranking is computed
    /// from the same table the dynamic power model integrates.
    #[must_use]
    pub fn per_access_energies(&self) -> [f64; NUM_RESOURCES] {
        let mut out = [0.0; NUM_RESOURCES];
        for r in ALL_RESOURCES {
            out[r.index()] = self.energy(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_resource_maps_to_a_block() {
        for r in ALL_RESOURCES {
            let _ = resource_block(r); // must not panic
        }
        assert_eq!(resource_block(Resource::IntRegFile), Block::IntReg);
        assert_eq!(resource_block(Resource::IntMul), Block::IntExec);
    }

    #[test]
    fn default_energies_are_positive() {
        let t = EnergyTable::default();
        for r in ALL_RESOURCES {
            assert!(t.energy(r) > 0.0, "{r} has zero energy");
        }
    }

    #[test]
    fn idle_total_is_about_thirty_watts() {
        let t = EnergyTable::default();
        let total = t.total_idle();
        assert!((25.0..35.0).contains(&total), "idle total {total} W");
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn negative_energy_rejected() {
        EnergyTable::default().set_energy(Resource::L2, -1.0);
    }

    #[test]
    fn setters_round_trip() {
        let mut t = EnergyTable::default();
        t.set_energy(Resource::L1D, 1e-12);
        t.set_idle(Block::L2, 7.5);
        assert_eq!(t.energy(Resource::L1D), 1e-12);
        assert_eq!(t.idle(Block::L2), 7.5);
    }
}
