//! Roofline model (Williams et al.), used for Figure 6.
//!
//! The attainable throughput of an operation with arithmetic intensity `AI`
//! on a device with peak throughput `P` and memory bandwidth `BW` is
//! `min(P, AI · BW)`. The paper plots the measured throughput of Popcorn's
//! SpMM and of the baseline's hand-written kernel against this bound for each
//! dataset and `k`; the reproduction produces the same placement from the
//! modeled throughputs.

use crate::device::DeviceSpec;

/// A roofline for one device and element width.
#[derive(Debug, Clone)]
pub struct Roofline {
    device: DeviceSpec,
    elem_bytes: usize,
}

/// One point on a roofline plot: an operation's arithmetic intensity and its
/// achieved throughput, plus how close it came to the attainable bound.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label (implementation / dataset / k).
    pub label: String,
    /// Arithmetic intensity in FLOP/byte.
    pub arithmetic_intensity: f64,
    /// Achieved throughput in GFLOP/s.
    pub achieved_gflops: f64,
    /// Attainable throughput at this intensity in GFLOP/s.
    pub attainable_gflops: f64,
}

impl RooflinePoint {
    /// Fraction of the attainable throughput that was achieved, in `[0, 1]`.
    pub fn efficiency(&self) -> f64 {
        if self.attainable_gflops <= 0.0 {
            0.0
        } else {
            (self.achieved_gflops / self.attainable_gflops).min(1.0)
        }
    }
}

impl Roofline {
    /// Build a roofline for a device, assuming `elem_bytes`-wide scalars.
    pub fn new(device: DeviceSpec, elem_bytes: usize) -> Self {
        Self { device, elem_bytes }
    }

    /// Peak compute throughput in GFLOP/s (the flat part of the roof).
    pub fn peak_gflops(&self) -> f64 {
        self.device.peak_gflops_for(self.elem_bytes)
    }

    /// Peak memory bandwidth in GB/s (the slope of the inclined part).
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.device.mem_bandwidth_gbs
    }

    /// Arithmetic intensity at which the roofline transitions from
    /// memory-bound to compute-bound.
    pub fn ridge_point(&self) -> f64 {
        self.device.ridge_point(self.elem_bytes)
    }

    /// Attainable throughput (GFLOP/s) at a given arithmetic intensity.
    pub fn attainable_gflops(&self, arithmetic_intensity: f64) -> f64 {
        if arithmetic_intensity <= 0.0 {
            return 0.0;
        }
        (arithmetic_intensity * self.peak_bandwidth_gbs()).min(self.peak_gflops())
    }

    /// Build a labelled roofline point from measured/modeled quantities.
    pub fn point(&self, label: impl Into<String>, ai: f64, achieved_gflops: f64) -> RooflinePoint {
        RooflinePoint {
            label: label.into(),
            arithmetic_intensity: ai,
            achieved_gflops,
            attainable_gflops: self.attainable_gflops(ai),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> Roofline {
        Roofline::new(DeviceSpec::a100_80gb(), 4)
    }

    #[test]
    fn attainable_is_min_of_two_bounds() {
        let r = a100();
        // Deep in memory-bound territory: AI * BW
        let low = r.attainable_gflops(0.5);
        assert!((low - 0.5 * 2039.0).abs() < 1e-9);
        // Deep in compute-bound territory: peak
        let high = r.attainable_gflops(1000.0);
        assert_eq!(high, 19_500.0);
        assert_eq!(r.attainable_gflops(0.0), 0.0);
        assert_eq!(r.attainable_gflops(-1.0), 0.0);
    }

    #[test]
    fn ridge_point_separates_regimes() {
        let r = a100();
        let ridge = r.ridge_point();
        assert!(r.attainable_gflops(ridge * 0.5) < r.peak_gflops());
        assert_eq!(r.attainable_gflops(ridge * 2.0), r.peak_gflops());
        // At the ridge point both bounds coincide.
        let at_ridge = r.attainable_gflops(ridge);
        assert!((at_ridge - r.peak_gflops()).abs() / r.peak_gflops() < 1e-9);
    }

    #[test]
    fn popcorn_spmm_intensity_is_memory_bound() {
        // Paper Eq. 17 intensities are ~0.5 FLOP/byte — far below the A100
        // ridge point (~9.6), so the distance phase is memory-bound. This is
        // the qualitative claim behind Figure 6.
        let r = a100();
        assert!(0.5 < r.ridge_point());
    }

    #[test]
    fn point_efficiency() {
        let r = a100();
        let p = r.point("popcorn/mnist/k=100", 0.5, 700.0);
        assert!((p.attainable_gflops - 1019.5).abs() < 1e-9);
        assert!(p.efficiency() > 0.65 && p.efficiency() < 0.70);
        let capped = r.point("x", 0.5, 5000.0);
        assert_eq!(capped.efficiency(), 1.0);
        let degenerate = r.point("y", 0.0, 1.0);
        assert_eq!(degenerate.efficiency(), 0.0);
    }
}
