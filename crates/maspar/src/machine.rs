//! The virtual-time SIMD array: cycle accounting for logical-grid
//! operations under PE virtualization.

use crate::cost::MasParCost;

/// How a logical pixel grid larger than the physical PE array is laid
/// out (the paper's §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Virtualization {
    /// "Cut and stack": the image is cut into physical-array-sized tiles
    /// stacked as layers. Logical neighbours are physical neighbours in
    /// every layer, so *every* shifted element crosses the X-net, once
    /// per layer.
    CutAndStack,
    /// Hierarchical: each PE owns a contiguous `b x b` sub-image. Shifts
    /// of distance `d < b` move most elements inside PE memory; only the
    /// boundary fraction crosses the X-net. This is the layout the paper
    /// found superior.
    Hierarchical,
}

/// The SIMD array clock and its cost model.
///
/// All primitives are expressed over a *logical* element count; the
/// machine converts to physical passes through the virtualization factor
/// `ceil(logical / pes)`.
#[derive(Debug, Clone)]
pub struct SimdMachine {
    /// Physical array width.
    pub width: usize,
    /// Physical array height.
    pub height: usize,
    /// Cost model.
    pub cost: MasParCost,
    /// Virtualization layout.
    pub virt: Virtualization,
    cycles: f64,
    router_transactions: u64,
}

impl SimdMachine {
    /// A fresh machine with zeroed clock.
    pub fn new(width: usize, height: usize, cost: MasParCost, virt: Virtualization) -> Self {
        assert!(width > 0 && height > 0);
        SimdMachine {
            width,
            height,
            cost,
            virt,
            cycles: 0.0,
            router_transactions: 0,
        }
    }

    /// The 16K-PE MasPar MP-2 of the paper's Table 1, hierarchical
    /// virtualization.
    pub fn mp2_16k() -> Self {
        SimdMachine::new(128, 128, MasParCost::mp2(), Virtualization::Hierarchical)
    }

    /// Physical PE count.
    pub fn pes(&self) -> usize {
        self.width * self.height
    }

    /// Number of physical passes needed to cover `logical` elements.
    pub fn virt_factor(&self, logical: usize) -> f64 {
        (logical as f64 / self.pes() as f64).max(1.0).ceil()
    }

    /// Side length of each PE's sub-block under hierarchical
    /// virtualization of a square logical grid with `logical` elements.
    fn block_side(&self, logical: usize) -> f64 {
        self.virt_factor(logical).sqrt().max(1.0)
    }

    /// Elapsed virtual time.
    pub fn seconds(&self) -> f64 {
        self.cycles * self.cost.cycle_s
    }

    /// Raw cycle count.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Global-router transactions issued so far (the dilution algorithm
    /// must keep this at zero).
    pub fn router_transactions(&self) -> u64 {
        self.router_transactions
    }

    /// Reset the clock (e.g. between measured phases).
    pub fn reset(&mut self) {
        self.cycles = 0.0;
        self.router_transactions = 0;
    }

    /// ACU broadcast of one scalar (e.g. a filter tap) to all PEs.
    pub fn charge_broadcast(&mut self) {
        self.cycles += self.cost.broadcast_cycles;
    }

    /// Multiply-accumulate on `logical` active elements.
    pub fn charge_mac(&mut self, logical: usize) {
        self.cycles += self.virt_factor(logical) * self.cost.mac_cycles;
    }

    /// A PE-local move/copy over `logical` elements.
    pub fn charge_move(&mut self, logical: usize) {
        self.cycles += self.virt_factor(logical) * self.cost.move_cycles;
    }

    /// Shift `logical` elements by `dist` positions along one axis of
    /// the logical grid.
    pub fn charge_shift(&mut self, logical: usize, dist: usize) {
        if dist == 0 {
            return;
        }
        let vf = self.virt_factor(logical);
        match self.virt {
            Virtualization::CutAndStack => {
                // Every element crosses the X-net `dist` hops, layer by
                // layer.
                self.cycles += vf * dist as f64 * self.cost.xnet_hop_cycles;
            }
            Virtualization::Hierarchical => {
                let b = self.block_side(logical);
                let d = dist as f64;
                // All elements move within PE memory; the fraction whose
                // source lies in another PE crosses the X-net, over
                // ceil(d/b) PE hops.
                let boundary_frac = (d / b).min(1.0);
                let pe_hops = (d / b).ceil();
                self.cycles += vf * self.cost.move_cycles
                    + vf * boundary_frac * pe_hops * self.cost.xnet_hop_cycles;
            }
        }
    }

    /// One systolic convolution pass over `logical` elements with a
    /// `taps`-tap filter: per tap, the ACU broadcasts it, every PE
    /// multiply-accumulates, and the partial sums shift `dist` positions
    /// (1 for a plain filter, `2^level` for a diluted one).
    pub fn charge_pass(&mut self, logical: usize, taps: usize, dist: usize) {
        for _ in 0..taps {
            self.charge_broadcast();
            self.charge_mac(logical);
            self.charge_shift(logical, dist);
        }
    }

    /// A global-router transaction moving `messages` 32-bit values with
    /// an arbitrary (permutation-like) pattern. Every 4×4 cluster shares
    /// one serial port, so the port handles `ceil(messages / clusters)`
    /// words sequentially.
    pub fn charge_router(&mut self, messages: usize) {
        if messages == 0 {
            return;
        }
        self.router_transactions += 1;
        let clusters = (self.pes() / 16).max(1) as f64;
        let rounds = (messages as f64 / clusters).ceil();
        self.cycles += self.cost.router_setup_cycles + rounds * self.cost.router_word_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(virt: Virtualization) -> SimdMachine {
        SimdMachine::new(4, 4, MasParCost::mp2(), virt)
    }

    #[test]
    fn virt_factor_rounds_up() {
        let m = machine(Virtualization::CutAndStack);
        assert_eq!(m.virt_factor(1), 1.0);
        assert_eq!(m.virt_factor(16), 1.0);
        assert_eq!(m.virt_factor(17), 2.0);
        assert_eq!(m.virt_factor(256), 16.0);
    }

    #[test]
    fn mac_scales_with_virtualization() {
        let mut m = machine(Virtualization::CutAndStack);
        m.charge_mac(16);
        let one = m.cycles();
        m.reset();
        m.charge_mac(64);
        assert_eq!(m.cycles(), 4.0 * one);
    }

    #[test]
    fn hierarchical_shift_cheaper_than_cut_and_stack() {
        let mut cs = machine(Virtualization::CutAndStack);
        let mut hi = machine(Virtualization::Hierarchical);
        // 256 logical elements on 16 PEs: virt 16, block side 4.
        cs.charge_shift(256, 1);
        hi.charge_shift(256, 1);
        assert!(
            hi.cycles() < cs.cycles(),
            "hierarchical {} >= cut&stack {}",
            hi.cycles(),
            cs.cycles()
        );
    }

    #[test]
    fn long_shifts_cost_more() {
        let mut m = machine(Virtualization::Hierarchical);
        m.charge_shift(256, 1);
        let short = m.cycles();
        m.reset();
        m.charge_shift(256, 8);
        assert!(m.cycles() > short);
    }

    #[test]
    fn zero_distance_shift_is_free() {
        let mut m = machine(Virtualization::CutAndStack);
        m.charge_shift(256, 0);
        assert_eq!(m.cycles(), 0.0);
    }

    #[test]
    fn router_serializes_on_cluster_ports() {
        let mut m = machine(Virtualization::CutAndStack); // 16 PEs = 1 cluster
        m.charge_router(16);
        let c16 = m.cycles();
        m.reset();
        m.charge_router(32);
        let c32 = m.cycles();
        assert!(c32 > c16);
        assert_eq!(m.router_transactions(), 1);
    }

    #[test]
    fn seconds_converts_cycles() {
        let mut m = machine(Virtualization::CutAndStack);
        m.charge_broadcast();
        let expect = m.cost.broadcast_cycles * m.cost.cycle_s;
        assert!((m.seconds() - expect).abs() < 1e-18);
    }
}
