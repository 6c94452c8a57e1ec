//! The thermal RC network and its integrator.

use crate::block::{Block, ALL_BLOCKS, NUM_BLOCKS};
use crate::config::ThermalConfig;
use crate::power_vector::PowerVector;

/// Node indices: blocks occupy `0..NUM_BLOCKS`, then spreader, then sink.
const SPREADER: usize = NUM_BLOCKS;
const SINK: usize = NUM_BLOCKS + 1;
const NUM_NODES: usize = NUM_BLOCKS + 2;

/// The lumped thermal RC network.
///
/// See the crate-level documentation for the modelled topology. All
/// temperatures are absolute kelvin.
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    config: ThermalConfig,
    /// Node temperatures (K).
    temps: [f64; NUM_NODES],
    /// Node capacitances (J/K), already time-scaled.
    caps: [f64; NUM_NODES],
    /// Conductive edges `(i, j, g)` with `g` in W/K.
    edges: Vec<(usize, usize, f64)>,
    /// CSR adjacency built once from `edges`: node `n`'s incident edges are
    /// `csr[csr_offsets[n]..csr_offsets[n + 1]]` as `(other, g)`, kept in
    /// global edge order so the per-node flow accumulation replays the edge
    /// loop's additions in the same order (bit-identical trajectories).
    csr: Vec<(usize, f64)>,
    csr_offsets: [usize; NUM_NODES + 1],
    /// Reciprocal of each node's total incident conductance (ambient
    /// included at the sink): the closed form's fixed-point terms.
    inv_g_total: [f64; NUM_NODES],
    /// Conductance from the sink to the (fixed-temperature) ambient.
    g_ambient: f64,
    /// Largest stable Euler step (s), 0.5 × min_i C_i / Σ_j g_ij.
    max_dt: f64,
    /// Substep plan for the most recently seen `step` dt: `(dt, substeps,
    /// h)`. Sensor-driven callers step with one fixed dt for a whole run,
    /// so the ceil/divide derivation happens once, not per call.
    plan: (f64, u64, f64),
    /// Cached closed-form plan for [`Self::advance_closed_form`]:
    /// `(dt, sweeps, per-node decay factors)`.
    closed_plan: (f64, u64, [f64; NUM_NODES]),
    /// Integrator substeps taken so far (perf instrumentation only — this
    /// counter never feeds back into the dynamics).
    substeps_taken: u64,
}

/// How far past the Euler stability bound one relaxation sweep of
/// [`ThermalNetwork::advance_closed_form`] may reach: the sweep is
/// unconditionally stable, so its size is bounded by accuracy
/// (frozen-neighbour error), not stability.
const CLOSED_FORM_SWEEP_FACTOR: f64 = 2.0;

/// Sweep-count ceiling for [`ThermalNetwork::advance_closed_form`]. The
/// closed-form advance is `O(1)` in the advanced duration by construction:
/// an advance that would need more than this many exponential relaxation
/// sweeps at the accuracy-preserving sweep size switches to the long-advance
/// branch (one steady-state solve plus per-node single-pole decay).
pub const CLOSED_FORM_MAX_SWEEPS: u64 = 8;

impl ThermalNetwork {
    /// Builds the network for the default floorplan. All nodes start at the
    /// ambient temperature; call [`Self::initialize_steady_state`] to
    /// pre-warm the package.
    #[must_use]
    pub fn new(config: &ThermalConfig) -> Self {
        let mut caps = [0.0; NUM_NODES];
        for b in ALL_BLOCKS {
            caps[b.index()] = config.block_capacitance(b.area_m2());
        }
        caps[SPREADER] = config.spreader_capacitance / config.time_scale;
        caps[SINK] = config.sink_capacitance / config.time_scale;

        let mut edges = Vec::new();
        // Vertical: block -> spreader.
        for b in ALL_BLOCKS {
            edges.push((
                b.index(),
                SPREADER,
                config.vertical_conductance(b.area_m2()),
            ));
        }
        // Lateral: adjacent blocks.
        for &(a, b) in Block::adjacency() {
            let g = config.lateral_conductance(a.area_m2(), b.area_m2());
            edges.push((a.index(), b.index(), g));
        }
        // Spreader -> sink.
        edges.push((SPREADER, SINK, 1.0 / config.spreader_resistance));
        let g_ambient = 1.0 / config.convection_resistance;

        // Stability bound.
        let mut g_sum = [0.0; NUM_NODES];
        for &(i, j, g) in &edges {
            g_sum[i] += g;
            g_sum[j] += g;
        }
        g_sum[SINK] += g_ambient;
        let max_dt = (0..NUM_NODES)
            .map(|i| caps[i] / g_sum[i])
            .fold(f64::INFINITY, f64::min)
            * 0.5;

        // CSR adjacency, per node in global edge order.
        let mut csr_offsets = [0usize; NUM_NODES + 1];
        for &(i, j, _) in &edges {
            csr_offsets[i + 1] += 1;
            csr_offsets[j + 1] += 1;
        }
        for n in 0..NUM_NODES {
            csr_offsets[n + 1] += csr_offsets[n];
        }
        let mut csr = vec![(0usize, 0.0f64); 2 * edges.len()];
        let mut fill = csr_offsets;
        for &(i, j, g) in &edges {
            csr[fill[i]] = (j, g);
            fill[i] += 1;
            csr[fill[j]] = (i, g);
            fill[j] += 1;
        }

        let mut inv_g_total = [0.0; NUM_NODES];
        for n in 0..NUM_NODES {
            inv_g_total[n] = 1.0 / g_sum[n];
        }

        ThermalNetwork {
            config: *config,
            temps: [config.ambient_k; NUM_NODES],
            caps,
            edges,
            csr,
            csr_offsets,
            inv_g_total,
            g_ambient,
            max_dt,
            plan: (0.0, 0, 0.0),
            closed_plan: (0.0, 0, [1.0; NUM_NODES]),
            substeps_taken: 0,
        }
    }

    /// The configuration the network was built with.
    #[must_use]
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Current temperature of a floorplan block, in kelvin.
    #[must_use]
    pub fn block_temp(&self, block: Block) -> f64 {
        self.temps[block.index()]
    }

    /// All block temperatures, in [`ALL_BLOCKS`] order.
    #[must_use]
    pub fn block_temps(&self) -> [f64; NUM_BLOCKS] {
        let mut out = [0.0; NUM_BLOCKS];
        out.copy_from_slice(&self.temps[..NUM_BLOCKS]);
        out
    }

    /// The hottest block and its temperature.
    #[must_use]
    pub fn hottest_block(&self) -> (Block, f64) {
        ALL_BLOCKS
            .iter()
            .map(|&b| (b, self.block_temp(b)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("there is at least one block")
    }

    /// Heat-spreader temperature (K).
    #[must_use]
    pub fn spreader_temp(&self) -> f64 {
        self.temps[SPREADER]
    }

    /// Advances the network `dt` seconds with constant per-block `power`.
    /// Internally subdivides into stable forward-Euler substeps.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn step(&mut self, dt: f64, power: &PowerVector) {
        assert!(dt.is_finite() && dt >= 0.0, "dt must be non-negative");
        if dt == 0.0 {
            return;
        }
        if dt != self.plan.0 {
            let substeps = (dt / self.max_dt).ceil().max(1.0) as u64;
            self.plan = (dt, substeps, dt / substeps as f64);
        }
        let (_, substeps, h) = self.plan;
        for _ in 0..substeps {
            self.euler_substep(h, power);
        }
        self.substeps_taken += substeps;
    }

    /// Total integrator substeps taken since construction. Pure
    /// instrumentation for throughput accounting.
    #[must_use]
    pub fn substeps_taken(&self) -> u64 {
        self.substeps_taken
    }

    /// One forward-Euler substep via the CSR adjacency.
    ///
    /// Bit-identity with the retained edge-list reference
    /// ([`Self::step_reference`]) holds because, for every node, the same
    /// IEEE additions happen in the same order: per node, the CSR walk
    /// contributes `g·(T_other − T_self)` for each incident edge in global
    /// edge order, and `x − g·(T_self − T_other)` is exactly
    /// `x + g·(T_other − T_self)` (negation is exact in IEEE 754, both
    /// through the subtraction's sign and through the product's).
    fn euler_substep(&mut self, h: f64, power: &PowerVector) {
        let t = &self.temps;
        let mut flow = [0.0f64; NUM_NODES];
        for b in ALL_BLOCKS {
            flow[b.index()] += power.get(b);
        }
        for n in 0..NUM_NODES {
            let tn = t[n];
            let mut acc = flow[n];
            for &(other, g) in &self.csr[self.csr_offsets[n]..self.csr_offsets[n + 1]] {
                acc += g * (t[other] - tn);
            }
            flow[n] = acc;
        }
        flow[SINK] += self.g_ambient * (self.config.ambient_k - t[SINK]);
        for ((t, f), c) in self.temps.iter_mut().zip(&flow).zip(&self.caps) {
            *t += h * f / c;
        }
    }

    /// The pre-optimization integrator, retained verbatim (edge-list flow
    /// accumulation, per-call substep derivation, always forward Euler) so
    /// differential tests can prove the CSR path is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    #[doc(hidden)]
    pub fn step_reference(&mut self, dt: f64, power: &PowerVector) {
        assert!(dt.is_finite() && dt >= 0.0, "dt must be non-negative");
        if dt == 0.0 {
            return;
        }
        let substeps = (dt / self.max_dt).ceil().max(1.0) as u64;
        let h = dt / substeps as f64;
        for _ in 0..substeps {
            let mut flow = [0.0f64; NUM_NODES];
            for b in ALL_BLOCKS {
                flow[b.index()] += power.get(b);
            }
            for &(i, j, g) in &self.edges {
                let q = g * (self.temps[i] - self.temps[j]);
                flow[i] -= q;
                flow[j] += q;
            }
            flow[SINK] += self.g_ambient * (self.config.ambient_k - self.temps[SINK]);
            for ((t, f), c) in self.temps.iter_mut().zip(&flow).zip(&self.caps) {
                *t += h * f / c;
            }
        }
        self.substeps_taken += substeps;
    }

    /// Advances the network `dt` seconds with constant per-block `power`
    /// via the closed-form RC response, in a bounded amount of work —
    /// `O(1)` in `dt`, unlike [`Self::step`] whose substep count grows
    /// linearly with the advanced duration.
    ///
    /// Two regimes, both built from the per-node single-pole math in
    /// [`crate::pole`]:
    ///
    /// * **Short advances** (up to [`CLOSED_FORM_MAX_SWEEPS`] exponential
    ///   steps past the Euler stability bound — the sensor-interval regime
    ///   the interval-mode execution engine lives in): a bounded number of
    ///   relaxation sweeps, each moving every node along the exact
    ///   solution of its own RC toward the fixed point implied by its
    ///   (frozen) neighbours. The neglected term is the motion of
    ///   neighbouring nodes within one sweep, bounded by the weak lateral
    ///   coupling of the floorplan.
    /// * **Long advances**: the duty-averaged-baseline decomposition of
    ///   the static screener (`hs-analyze::transient`), made two-time-scale.
    ///   One direct steady-state solve under `power` gives the baseline;
    ///   the slow package nodes relax toward it with their local poles,
    ///   and the fast block nodes relax toward the quasi-static solution
    ///   implied by the *advanced* package state (so a block cannot outrun
    ///   the spreader beneath it). Exact in the `dt → ∞` limit; in the
    ///   crossover region its error against [`Self::step`] is held to the
    ///   screener's documented ±2 K transient contract by this module's
    ///   tests.
    ///
    /// The interval-mode differential suite (`hs-sim`) holds the
    /// end-to-end peak-temperature drift of this path under its own
    /// documented tolerance. Cycle-level sensors keep [`Self::step`]; the
    /// closed form is only consulted for spans the execution engine has
    /// decided are thermally boring.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn advance_closed_form(&mut self, dt: f64, power: &PowerVector) {
        assert!(dt.is_finite() && dt >= 0.0, "dt must be non-negative");
        if dt == 0.0 {
            return;
        }
        let sweep_h = CLOSED_FORM_SWEEP_FACTOR * self.max_dt;
        if dt > CLOSED_FORM_MAX_SWEEPS as f64 * sweep_h {
            // Long advance: two-time-scale baseline + single-pole form.
            // Package nodes (slow) relax toward the steady baseline with
            // their local poles; block nodes (fast) relax toward the
            // quasi-static solution implied by the *new* package state, so
            // a block cannot outrun the spreader beneath it.
            let baseline = self.solve_steady_state(power);
            for (n, &base) in baseline.iter().enumerate().skip(NUM_BLOCKS) {
                let tau = self.caps[n] * self.inv_g_total[n];
                let decay = crate::pole::phase_decay(dt, tau);
                self.temps[n] = crate::pole::relax(self.temps[n], base, decay);
            }
            // Gauss–Seidel on the block sub-network with the package held
            // at its advanced temperatures; the dominant vertical coupling
            // makes this strongly diagonally dominant, so a handful of
            // sweeps (seeded from the baseline) suffice.
            let mut qs = self.temps;
            qs[..NUM_BLOCKS].copy_from_slice(&baseline[..NUM_BLOCKS]);
            for _ in 0..4 {
                for b in ALL_BLOCKS {
                    let n = b.index();
                    let mut num = power.get(b);
                    for &(other, g) in &self.csr[self.csr_offsets[n]..self.csr_offsets[n + 1]] {
                        num += g * qs[other];
                    }
                    qs[n] = num * self.inv_g_total[n];
                }
            }
            for (n, &q) in qs.iter().enumerate().take(NUM_BLOCKS) {
                let tau = self.caps[n] * self.inv_g_total[n];
                let decay = crate::pole::phase_decay(dt, tau);
                self.temps[n] = crate::pole::relax(self.temps[n], q, decay);
            }
            self.substeps_taken += 1;
            return;
        }
        if dt != self.closed_plan.0 {
            let sweeps = (dt / sweep_h).ceil().max(1.0) as u64;
            let h = dt / sweeps as f64;
            let mut decay = [1.0; NUM_NODES];
            for (n, d) in decay.iter_mut().enumerate() {
                *d = crate::pole::phase_decay(h, self.caps[n] * self.inv_g_total[n]);
            }
            self.closed_plan = (dt, sweeps, decay);
        }
        let (_, sweeps, decay) = self.closed_plan;
        for _ in 0..sweeps {
            let t = &self.temps;
            let mut next = [0.0f64; NUM_NODES];
            for b in ALL_BLOCKS {
                next[b.index()] = power.get(b);
            }
            next[SINK] += self.g_ambient * self.config.ambient_k;
            for n in 0..NUM_NODES {
                let mut num = next[n];
                for &(other, g) in &self.csr[self.csr_offsets[n]..self.csr_offsets[n + 1]] {
                    num += g * t[other];
                }
                let fixed = num * self.inv_g_total[n];
                next[n] = crate::pole::relax(t[n], fixed, decay[n]);
            }
            self.temps = next;
        }
        self.substeps_taken += sweeps;
    }

    /// Solves for and installs the steady-state temperatures under `power`.
    ///
    /// This mirrors HotSpot's initialization practice: the sink's RC is tens
    /// of seconds, far longer than any simulated quantum, so the package is
    /// pre-warmed to the steady state of the expected average power.
    pub fn initialize_steady_state(&mut self, power: &PowerVector) {
        self.temps = self.solve_steady_state(power);
    }

    /// Computes (without installing) the steady-state temperatures under
    /// `power`. Exposed for calibration: per-access energies in `hs-power`
    /// are chosen so these steady points land on the paper's anchors.
    #[must_use]
    pub fn steady_state_temp(&self, power: &PowerVector, block: Block) -> f64 {
        self.solve_steady_state(power)[block.index()]
    }

    /// Computes (without installing) the steady-state temperature of every
    /// floorplan block under `power`, in [`ALL_BLOCKS`] order.
    ///
    /// One Gaussian solve for the whole vector; use this instead of twelve
    /// [`Self::steady_state_temp`] calls when all blocks are needed (the
    /// static screener's closed-form transient model does).
    #[must_use]
    pub fn steady_state_block_temps(&self, power: &PowerVector) -> [f64; NUM_BLOCKS] {
        let sol = self.solve_steady_state(power);
        let mut out = [0.0; NUM_BLOCKS];
        out.copy_from_slice(&sol[..NUM_BLOCKS]);
        out
    }

    /// Thermal capacitance of a block node in J/K, already divided by the
    /// configured time scale. Exposed so closed-form transient analyses can
    /// reuse the exact RC values the integrator steps with.
    #[must_use]
    pub fn block_capacitance(&self, block: Block) -> f64 {
        self.caps[block.index()]
    }

    /// Total conductance hanging off a block node, in W/K: the vertical
    /// path into the spreader plus every lateral edge to an adjacent block.
    /// `block_capacitance / block_conductance` is the block's local RC time
    /// constant — the rate at which a temperature *deviation* from the
    /// package-determined baseline decays.
    #[must_use]
    pub fn block_conductance(&self, block: Block) -> f64 {
        let idx = block.index();
        self.edges
            .iter()
            .filter(|&&(i, j, _)| i == idx || j == idx)
            .map(|&(_, _, g)| g)
            .sum()
    }

    /// The block's local RC time constant `τ_b = C_b / G_b` in seconds
    /// (already time-scaled): the rate at which a temperature *deviation*
    /// from the package-determined baseline decays. Convenience over
    /// [`Self::block_capacitance`] / [`Self::block_conductance`] for the
    /// closed-form transient consumers.
    #[must_use]
    pub fn block_time_constant(&self, block: Block) -> f64 {
        self.block_capacitance(block) / self.block_conductance(block)
    }

    fn solve_steady_state(&self, power: &PowerVector) -> [f64; NUM_NODES] {
        // Conductance matrix G (relative to ambient) and injection vector.
        let n = NUM_NODES;
        let mut g = vec![vec![0.0f64; n]; n];
        let mut rhs = vec![0.0f64; n];
        for &(i, j, cond) in &self.edges {
            g[i][i] += cond;
            g[j][j] += cond;
            g[i][j] -= cond;
            g[j][i] -= cond;
        }
        g[SINK][SINK] += self.g_ambient;
        for b in ALL_BLOCKS {
            rhs[b.index()] = power.get(b);
        }
        // Gaussian elimination with partial pivoting (n = 14; trivial cost).
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&a, &b| g[a][col].abs().total_cmp(&g[b][col].abs()))
                .expect("non-empty range");
            g.swap(col, pivot);
            rhs.swap(col, pivot);
            let diag = g[col][col];
            assert!(
                diag.abs() > 1e-30,
                "singular thermal conductance matrix (disconnected node?)"
            );
            for row in (col + 1)..n {
                let factor = g[row][col] / diag;
                if factor == 0.0 {
                    continue;
                }
                let (pivot_rows, target_rows) = g.split_at_mut(row);
                for (t, p) in target_rows[0][col..]
                    .iter_mut()
                    .zip(&pivot_rows[col][col..])
                {
                    *t -= factor * p;
                }
                rhs[row] -= factor * rhs[col];
            }
        }
        let mut sol = [0.0f64; NUM_NODES];
        for row in (0..n).rev() {
            let mut acc = rhs[row];
            for k in (row + 1)..n {
                acc -= g[row][k] * sol[k];
            }
            sol[row] = acc / g[row][row];
        }
        // Solution is relative to ambient.
        for t in &mut sol {
            *t += self.config.ambient_k;
        }
        sol
    }

    /// Resets every node to ambient.
    pub fn reset(&mut self) {
        self.temps = [self.config.ambient_k; NUM_NODES];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ThermalConfig {
        ThermalConfig::default()
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut net = ThermalNetwork::new(&cfg());
        net.step(1.0, &PowerVector::zero());
        for b in ALL_BLOCKS {
            assert!((net.block_temp(b) - cfg().ambient_k).abs() < 1e-9);
        }
    }

    #[test]
    fn heating_approaches_steady_state() {
        let mut net = ThermalNetwork::new(&cfg());
        let mut p = PowerVector::zero();
        p.set(Block::IntReg, 3.0);
        let target = net.steady_state_temp(&p, Block::IntReg);
        assert!(target > cfg().ambient_k + 1.0);
        // Integrate long enough for the block to converge (package nodes
        // converge much more slowly but the block rides on them).
        net.initialize_steady_state(&p);
        assert!((net.block_temp(Block::IntReg) - target).abs() < 1e-6);
        // A transient step keeps it there (fixed point of the dynamics).
        net.step(0.01, &p);
        assert!((net.block_temp(Block::IntReg) - target).abs() < 0.05);
    }

    #[test]
    fn monotone_in_power() {
        // More power anywhere can never cool any block (diagonally dominant
        // resistive network): a property the DTM logic relies on.
        let net = ThermalNetwork::new(&cfg());
        let mut lo = PowerVector::zero();
        lo.set(Block::IntReg, 1.0);
        let mut hi = lo;
        hi.set(Block::IntReg, 2.0);
        hi.set(Block::L2, 5.0);
        for b in ALL_BLOCKS {
            assert!(net.steady_state_temp(&hi, b) >= net.steady_state_temp(&lo, b) - 1e-9);
        }
    }

    #[test]
    fn hot_block_cools_when_power_removed() {
        let mut net = ThermalNetwork::new(&cfg());
        let mut p = PowerVector::zero();
        p.set(Block::IntReg, 4.0);
        net.initialize_steady_state(&p);
        let hot = net.block_temp(Block::IntReg);
        net.step(0.050, &PowerVector::zero()); // 50 ms with no power
        let cooled = net.block_temp(Block::IntReg);
        assert!(cooled < hot - 0.5, "hot={hot} cooled={cooled}");
    }

    #[test]
    fn cooling_time_constant_is_order_10ms() {
        // The paper: "for a typical heat sink the cooling time is in the
        // order of 10 ms". Heat the regfile ~5 K above its base, cut power,
        // and check it sheds ~2/3 of the excess within 5–30 ms.
        let mut net = ThermalNetwork::new(&cfg());
        let mut base_p = PowerVector::from_fn(|_| 1.0);
        base_p.set(Block::L2, 6.0);
        let mut attack_p = base_p;
        attack_p.add(Block::IntReg, 4.0);
        net.initialize_steady_state(&attack_p);
        let hot = net.block_temp(Block::IntReg);
        let mut base_net = net.clone();
        base_net.initialize_steady_state(&base_p);
        let base = base_net.block_temp(Block::IntReg);
        assert!(hot > base + 3.0);

        // Drop back to base power; find time to shed 63% of the excess.
        let excess = hot - base;
        let mut t = 0.0;
        while net.block_temp(Block::IntReg) > base + excess * 0.37 {
            net.step(0.001, &base_p);
            t += 0.001;
            assert!(t < 0.2, "cooling took unreasonably long");
        }
        assert!(
            (0.002..0.040).contains(&t),
            "cooling tau = {t} s, expected order 10 ms"
        );
    }

    #[test]
    fn time_scale_preserves_steady_state_but_compresses_transients() {
        let mut p = PowerVector::zero();
        p.set(Block::IntReg, 4.0);

        let net1 = ThermalNetwork::new(&cfg());
        let net25 = ThermalNetwork::new(&cfg().with_time_scale(25.0));
        // Steady state is resistive only: identical.
        assert!(
            (net1.steady_state_temp(&p, Block::IntReg)
                - net25.steady_state_temp(&p, Block::IntReg))
            .abs()
                < 1e-9
        );
        // Transient: scaled network covers in t/25 what the physical one
        // covers in t.
        let mut a = net1.clone();
        let mut b = net25.clone();
        a.step(0.025, &p);
        b.step(0.001, &p);
        assert!((a.block_temp(Block::IntReg) - b.block_temp(Block::IntReg)).abs() < 0.05);
    }

    #[test]
    fn lateral_spread_is_weak() {
        // A register-file hot spot barely warms the distant L2: lateral
        // paths are much weaker than the vertical escape path.
        let net = ThermalNetwork::new(&cfg());
        let mut p = PowerVector::zero();
        p.set(Block::IntReg, 4.0);
        let rise_reg = net.steady_state_temp(&p, Block::IntReg) - cfg().ambient_k;
        let rise_l2 = net.steady_state_temp(&p, Block::L2) - cfg().ambient_k;
        assert!(rise_l2 < rise_reg * 0.5);
    }

    #[test]
    fn convection_resistance_moves_global_temperature() {
        // §5.5 of the paper: better packaging (lower convection R) lowers
        // steady temperatures chip-wide.
        let p = PowerVector::from_fn(|_| 2.0);
        let base = ThermalNetwork::new(&cfg());
        let better = ThermalNetwork::new(&cfg().with_convection_resistance(0.4));
        for b in ALL_BLOCKS {
            assert!(better.steady_state_temp(&p, b) < base.steady_state_temp(&p, b));
        }
    }

    #[test]
    fn hottest_block_is_the_powered_one() {
        let mut net = ThermalNetwork::new(&cfg());
        let mut p = PowerVector::zero();
        p.set(Block::FpMul, 5.0);
        net.initialize_steady_state(&p);
        let (b, t) = net.hottest_block();
        assert_eq!(b, Block::FpMul);
        assert!(t > cfg().ambient_k);
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut net = ThermalNetwork::new(&cfg());
        let mut p = PowerVector::zero();
        p.set(Block::IntReg, 4.0);
        net.initialize_steady_state(&p);
        net.reset();
        assert_eq!(net.block_temp(Block::IntReg), cfg().ambient_k);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_dt_panics() {
        let mut net = ThermalNetwork::new(&cfg());
        net.step(-1.0, &PowerVector::zero());
    }

    #[test]
    fn exposed_rc_matches_full_vector_solve() {
        let net = ThermalNetwork::new(&cfg());
        let mut p = PowerVector::zero();
        p.set(Block::IntReg, 3.0);
        p.set(Block::L2, 6.0);
        let vec_solve = net.steady_state_block_temps(&p);
        for b in ALL_BLOCKS {
            assert!((vec_solve[b.index()] - net.steady_state_temp(&p, b)).abs() < 1e-12);
        }
    }

    #[test]
    fn block_rc_time_constant_is_physical() {
        // The register file's local deviation time constant (C/G of the
        // block node alone) sits in the single-digit-millisecond range at
        // physical time scale — the number the paper's duty-cycle attacks
        // are tuned against.
        let net = ThermalNetwork::new(&cfg());
        let tau = net.block_capacitance(Block::IntReg) / net.block_conductance(Block::IntReg);
        assert!(
            (0.5e-3..50e-3).contains(&tau),
            "IntReg local tau = {tau} s, expected order 1–10 ms"
        );
        // Time scale divides capacitance only: tau scales down linearly.
        let scaled = ThermalNetwork::new(&cfg().with_time_scale(25.0));
        let tau25 =
            scaled.block_capacitance(Block::IntReg) / scaled.block_conductance(Block::IntReg);
        assert!((tau25 - tau / 25.0).abs() < tau * 1e-9);
    }

    #[test]
    fn csr_substep_is_bitwise_identical_to_reference() {
        // The optimized per-node CSR accumulation must replay the exact
        // IEEE operations of the retained edge-list integrator: compare
        // long trajectories by bit pattern, not tolerance, across uneven
        // power vectors and several dt regimes (1 substep and many).
        for scale in [1.0, 50.0, 2000.0] {
            let base = ThermalNetwork::new(&cfg().with_time_scale(scale));
            let mut fast = base.clone();
            let mut reference = base;
            let mut p = PowerVector::from_fn(|b| 0.3 + b.index() as f64 * 0.7);
            p.set(Block::IntReg, 9.5);
            for step in 0..200 {
                let dt = match step % 3 {
                    0 => 1e-7,
                    1 => 1e-4,
                    _ => 0.02,
                };
                fast.step(dt, &p);
                reference.step_reference(dt, &p);
                for n in 0..NUM_NODES {
                    assert_eq!(
                        fast.temps[n].to_bits(),
                        reference.temps[n].to_bits(),
                        "scale {scale}, step {step}, node {n}: {} != {}",
                        fast.temps[n],
                        reference.temps[n],
                    );
                }
            }
            assert_eq!(fast.substeps_taken(), reference.substeps_taken());
        }
    }

    #[test]
    fn closed_form_tracks_euler_through_a_transient() {
        // Advance both paths through a heat-up from one steady operating
        // point to another, one sensor-interval-sized step at a time (the
        // regime the interval-mode engine actually drives this API in);
        // the closed form must stay within the interval-mode drift budget.
        let mut euler = ThermalNetwork::new(&cfg().with_time_scale(50.0));
        let mut closed = euler.clone();
        let idle = PowerVector::from_fn(|_| 0.8);
        let mut busy = idle;
        busy.set(Block::IntReg, 6.0);
        euler.initialize_steady_state(&idle);
        closed.initialize_steady_state(&idle);
        let dt = 1e-7; // one 400-cycle sensor interval at 4 GHz
        for _ in 0..3000 {
            euler.step(dt, &busy);
            closed.advance_closed_form(dt, &busy);
            for b in ALL_BLOCKS {
                let d = (euler.block_temp(b) - closed.block_temp(b)).abs();
                assert!(d < 0.25, "{b}: closed form diverged {d} K from Euler");
            }
        }
    }

    #[test]
    fn closed_form_long_advance_stays_within_screener_tolerance() {
        // In the crossover regime (dt past the sweep budget, but short of
        // full equilibration) the long-advance branch is the screener's
        // baseline + single-pole decomposition; hold it to the screener's
        // documented ±2 K transient contract against exact Euler.
        let mut euler = ThermalNetwork::new(&cfg().with_time_scale(50.0));
        let mut closed = euler.clone();
        let idle = PowerVector::from_fn(|_| 0.8);
        let mut busy = idle;
        busy.set(Block::IntReg, 6.0);
        euler.initialize_steady_state(&idle);
        closed.initialize_steady_state(&idle);
        let before = closed.substeps_taken();
        euler.step(1e-3, &busy);
        closed.advance_closed_form(1e-3, &busy);
        assert_eq!(
            closed.substeps_taken() - before,
            1,
            "long branch is one solve"
        );
        for b in ALL_BLOCKS {
            let d = (euler.block_temp(b) - closed.block_temp(b)).abs();
            assert!(d < 2.0, "{b}: long advance diverged {d} K from Euler");
        }
    }

    #[test]
    fn closed_form_sweep_count_is_bounded_in_dt() {
        // O(1) contract: an advance a billion times longer may not take
        // more sweeps, and a huge advance lands on the exact steady state
        // (every per-node decay underflows to zero).
        let mut net = ThermalNetwork::new(&cfg());
        let p = PowerVector::from_fn(|_| 2.0);
        net.advance_closed_form(1e-5, &p);
        let short = net.substeps_taken();
        net.advance_closed_form(1e4, &p);
        let long = net.substeps_taken() - short;
        assert!(long <= short.max(1), "long advance took {long} sweeps");
        let steady = net.steady_state_block_temps(&p);
        for b in ALL_BLOCKS {
            let d = (net.block_temp(b) - steady[b.index()]).abs();
            assert!(d < 1e-3, "{b}: {d} K off steady state after a long advance");
        }
    }

    #[test]
    fn block_time_constant_matches_its_factors() {
        let net = ThermalNetwork::new(&cfg());
        for b in ALL_BLOCKS {
            let direct = net.block_capacitance(b) / net.block_conductance(b);
            assert_eq!(net.block_time_constant(b).to_bits(), direct.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn closed_form_negative_dt_panics() {
        let mut net = ThermalNetwork::new(&cfg());
        net.advance_closed_form(-1.0, &PowerVector::zero());
    }

    #[test]
    fn substep_plan_is_reused_and_rebuilt() {
        let mut net = ThermalNetwork::new(&cfg());
        let p = PowerVector::from_fn(|_| 1.0);
        net.step(1e-3, &p);
        let first = net.plan;
        assert_eq!(first.0, 1e-3);
        net.step(1e-3, &p);
        assert_eq!(net.plan, first, "same dt must not replan");
        net.step(2e-3, &p);
        assert_eq!(net.plan.0, 2e-3, "new dt must replan");
    }

    #[test]
    fn euler_is_stable_for_large_steps() {
        // A 1-second step must not blow up (substepping handles it).
        let mut net = ThermalNetwork::new(&cfg());
        let p = PowerVector::from_fn(|_| 3.0);
        net.step(1.0, &p);
        for b in ALL_BLOCKS {
            let t = net.block_temp(b);
            assert!(t.is_finite() && t < 500.0, "{b} diverged to {t}");
        }
    }
}
