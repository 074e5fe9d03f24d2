//! Operation traces and phase breakdowns.
//!
//! The paper uses Nsight Compute to attribute time and throughput to the
//! individual kernels of each implementation (Figures 5, 6 and 8). The
//! [`OpTrace`] collected by the simulator plays the same role: every executed
//! operation leaves an [`OpRecord`] carrying its class, phase, FLOP/byte
//! footprint, modeled device time and measured host time.

use crate::cost::{DeviceEngine, EngineSeconds, OpClass, OpCost};

/// Phase of the kernel k-means pipeline an operation belongs to; matches the
/// categories of the paper's Figure 8 runtime breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading the input and moving it to the device (§4.1).
    DataPreparation,
    /// Computing `B = P̂ P̂ᵀ` and applying the kernel function (§4.2).
    KernelMatrix,
    /// The per-iteration SpMM / SpMV / assembly work (§4.3).
    PairwiseDistances,
    /// Row-wise argmin and selection-matrix rebuild (§4.3, "Argmin + Cluster Update").
    Assignment,
    /// Anything else.
    Other,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 5] = [
        Phase::DataPreparation,
        Phase::KernelMatrix,
        Phase::PairwiseDistances,
        Phase::Assignment,
        Phase::Other,
    ];

    /// Human-readable label used by the experiment harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::DataPreparation => "Data Preparation",
            Phase::KernelMatrix => "Kernel Matrix",
            Phase::PairwiseDistances => "Pairwise Distances",
            Phase::Assignment => "Argmin + Cluster Update",
            Phase::Other => "Other",
        }
    }
}

/// One executed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Short operation name (e.g. `"spmm K*V^T"`).
    pub name: String,
    /// Pipeline phase.
    pub phase: Phase,
    /// Operation class (which library routine / kernel it models).
    pub class: OpClass,
    /// FLOP / byte footprint.
    pub cost: OpCost,
    /// Modeled device time in seconds.
    pub modeled_seconds: f64,
    /// Measured host wall-clock time in seconds.
    pub host_seconds: f64,
}

impl OpRecord {
    /// Modeled achieved throughput in GFLOP/s.
    pub fn modeled_gflops(&self) -> f64 {
        if self.modeled_seconds <= 0.0 {
            0.0
        } else {
            self.cost.flops as f64 / self.modeled_seconds / 1e9
        }
    }
}

/// A chronological list of executed operations with aggregation helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTrace {
    records: Vec<OpRecord>,
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, record: OpRecord) {
        self.records.push(record);
    }

    /// All records in execution order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total modeled device time in seconds.
    pub fn total_modeled_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.modeled_seconds).sum()
    }

    /// Total measured host time in seconds.
    pub fn total_host_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.host_seconds).sum()
    }

    /// Total FLOPs across all records, saturating at `u64::MAX` as
    /// [`OpCost::total_bytes`] does.
    pub fn total_flops(&self) -> u64 {
        self.records
            .iter()
            .fold(0u64, |sum, r| sum.saturating_add(r.cost.flops))
    }

    /// Total bytes moved across all records, saturating at `u64::MAX`: a
    /// record may already carry a saturated byte count.
    pub fn total_bytes(&self) -> u64 {
        self.records
            .iter()
            .fold(0u64, |sum, r| sum.saturating_add(r.cost.total_bytes()))
    }

    /// Modeled device time attributed to one phase.
    pub fn phase_modeled_seconds(&self, phase: Phase) -> f64 {
        self.records
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.modeled_seconds)
            .sum()
    }

    /// Modeled device time attributed to one execution engine
    /// ([`DeviceEngine::Compute`] vs [`DeviceEngine::Copy`]). Streams on the
    /// same device serialize per engine but the two engines overlap, so the
    /// stream-aware batch wall-clock takes the max of the two sums.
    pub fn engine_modeled_seconds(&self, engine: DeviceEngine) -> f64 {
        self.records
            .iter()
            .filter(|r| r.class.device_engine() == engine)
            .map(|r| r.modeled_seconds)
            .sum()
    }

    /// Engine-split modeled seconds of the records from index `mark` to the
    /// end — the segment-measurement primitive behind the double-buffered
    /// streaming model (`Executor::engine_seconds_since`).
    pub fn engine_split_since(&self, mark: usize) -> EngineSeconds {
        self.records
            .iter()
            .skip(mark)
            .fold(EngineSeconds::default(), |mut acc, r| {
                acc.add(r.class, r.modeled_seconds);
                acc
            })
    }

    /// Modeled time per phase, in [`Phase::ALL`] order.
    pub fn breakdown(&self) -> Vec<(Phase, f64)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phase_modeled_seconds(p)))
            .collect()
    }

    /// Modeled time and FLOPs restricted to one operation class.
    pub fn class_summary(&self, class: OpClass) -> (f64, u64) {
        self.records
            .iter()
            .filter(|r| r.class == class)
            .fold((0.0, 0u64), |(t, f), r| {
                (t + r.modeled_seconds, f.saturating_add(r.cost.flops))
            })
    }

    /// Aggregate achieved throughput (GFLOP/s, modeled) of all operations in
    /// one class — this is what Figure 5 plots for the SpMM (Popcorn) and the
    /// first hand-written kernel (baseline).
    pub fn class_gflops(&self, class: OpClass) -> f64 {
        let (t, f) = self.class_summary(class);
        if t <= 0.0 {
            0.0
        } else {
            f as f64 / t / 1e9
        }
    }

    /// Flops-weighted mean arithmetic intensity of all operations in a class,
    /// used for the roofline plot (Figure 6). Both sums saturate.
    pub fn class_arithmetic_intensity(&self, class: OpClass) -> f64 {
        let (flops, bytes) =
            self.records
                .iter()
                .filter(|r| r.class == class)
                .fold((0u64, 0u64), |(f, b), r| {
                    (
                        f.saturating_add(r.cost.flops),
                        b.saturating_add(r.cost.total_bytes()),
                    )
                });
        if bytes == 0 {
            0.0
        } else {
            flops as f64 / bytes as f64
        }
    }

    /// Merge another trace into this one (records are appended).
    pub fn extend(&mut self, other: &OpTrace) {
        self.records.extend(other.records.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(phase: Phase, class: OpClass, flops: u64, bytes: u64, t: f64) -> OpRecord {
        OpRecord {
            name: "op".to_string(),
            phase,
            class,
            cost: OpCost::new(flops, bytes, 0),
            modeled_seconds: t,
            host_seconds: t * 2.0,
        }
    }

    #[test]
    fn totals_sum_records() {
        let mut trace = OpTrace::new();
        trace.push(record(Phase::KernelMatrix, OpClass::Gemm, 100, 40, 1.0));
        trace.push(record(Phase::PairwiseDistances, OpClass::SpMM, 50, 20, 0.5));
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert!((trace.total_modeled_seconds() - 1.5).abs() < 1e-12);
        assert!((trace.total_host_seconds() - 3.0).abs() < 1e-12);
        assert_eq!(trace.total_flops(), 150);
        assert_eq!(trace.total_bytes(), 60);
    }

    #[test]
    fn phase_breakdown_partitions_time() {
        let mut trace = OpTrace::new();
        trace.push(record(Phase::KernelMatrix, OpClass::Gemm, 1, 1, 2.0));
        trace.push(record(Phase::PairwiseDistances, OpClass::SpMM, 1, 1, 3.0));
        trace.push(record(Phase::PairwiseDistances, OpClass::SpMV, 1, 1, 1.0));
        trace.push(record(Phase::Assignment, OpClass::Reduction, 1, 1, 0.5));
        let breakdown = trace.breakdown();
        let total: f64 = breakdown.iter().map(|(_, t)| t).sum();
        assert!((total - trace.total_modeled_seconds()).abs() < 1e-12);
        assert!((trace.phase_modeled_seconds(Phase::PairwiseDistances) - 4.0).abs() < 1e-12);
        assert_eq!(trace.phase_modeled_seconds(Phase::Other), 0.0);
    }

    #[test]
    fn class_summaries() {
        let mut trace = OpTrace::new();
        trace.push(record(
            Phase::PairwiseDistances,
            OpClass::SpMM,
            4_000_000_000,
            1000,
            2.0,
        ));
        trace.push(record(
            Phase::PairwiseDistances,
            OpClass::SpMM,
            4_000_000_000,
            1000,
            2.0,
        ));
        trace.push(record(Phase::Assignment, OpClass::Reduction, 10, 10, 1.0));
        let (t, f) = trace.class_summary(OpClass::SpMM);
        assert!((t - 4.0).abs() < 1e-12);
        assert_eq!(f, 8_000_000_000);
        assert!((trace.class_gflops(OpClass::SpMM) - 2.0).abs() < 1e-9);
        assert_eq!(trace.class_gflops(OpClass::Gemm), 0.0);
        let ai = trace.class_arithmetic_intensity(OpClass::SpMM);
        assert!((ai - 8_000_000_000.0 / 2000.0).abs() < 1e-6);
    }

    #[test]
    fn sums_saturate_over_a_saturated_record() {
        let mut trace = OpTrace::new();
        let mut saturated = record(Phase::PairwiseDistances, OpClass::SpMM, 1, 0, 1.0);
        saturated.cost = OpCost::new(u64::MAX, u64::MAX, 0);
        trace.push(saturated);
        trace.push(record(Phase::PairwiseDistances, OpClass::SpMM, 10, 10, 1.0));
        assert_eq!(trace.total_bytes(), u64::MAX);
        assert_eq!(trace.total_flops(), u64::MAX);
        assert_eq!(trace.class_summary(OpClass::SpMM).1, u64::MAX);
        assert_eq!(trace.class_arithmetic_intensity(OpClass::SpMM), 1.0);
    }

    #[test]
    fn record_gflops() {
        let r = record(Phase::Other, OpClass::Gemm, 2_000_000_000, 8, 1.0);
        assert!((r.modeled_gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn extend_appends() {
        let mut a = OpTrace::new();
        a.push(record(Phase::Other, OpClass::Other, 1, 1, 1.0));
        let mut b = OpTrace::new();
        b.push(record(Phase::Other, OpClass::Other, 2, 2, 2.0));
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_flops(), 3);
    }

    #[test]
    fn phase_labels_are_distinct() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
