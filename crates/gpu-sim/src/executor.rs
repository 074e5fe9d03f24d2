//! Simulated device execution: the [`Executor`] trait and its single-device
//! implementation, [`SimExecutor`], whose only API beyond the trait is its
//! constructors and [`SimExecutor::roofline`].
//!
//! [`Executor`] is the seam between "run the real computation on the host"
//! and "account for what it would have cost on the device(s)". Engines, the
//! iteration pipeline and the batch driver hold executors as
//! `&dyn Executor`, so they are oblivious to whether the run is priced
//! against one modeled device ([`SimExecutor`]) or a row-sharded multi-device
//! topology ([`crate::ShardedExecutor`]). The trait's primitive is
//! [`Executor::record`] (price one described operation); the generic
//! conveniences [`ExecutorExt::run`] and [`ExecutorExt::charge`] — a closure
//! executes immediately (so results are real), its host wall-clock time is
//! measured, and the modeled device time is computed from the cost model —
//! live in the blanket [`ExecutorExt`] extension so they stay available on
//! trait objects.

use crate::cost::{CostModel, EngineSeconds, OpClass, OpCost};
use crate::device::{DeviceSpec, DeviceTopology};
use crate::fault::{FaultEvent, RecoveryReport};
use crate::profiler::Profiler;
use crate::roofline::Roofline;
use crate::trace::{OpRecord, OpTrace, Phase};
use std::time::Instant;

/// The execution surface every simulated device (or device group) offers.
///
/// Object-safe by construction: all consumers hold `&dyn Executor` (or a
/// `Box<dyn Executor>` fork) and never name the concrete executor. Methods
/// with host closures and generic returns live in [`ExecutorExt`].
pub trait Executor: std::fmt::Debug + Send + Sync {
    /// Price and record one operation that took `host_seconds` of measured
    /// host time (the primitive `run`/`charge` build on). Implementations
    /// decide which device's cost model prices the operation.
    fn record(&self, name: String, phase: Phase, class: OpClass, cost: OpCost, host_seconds: f64);

    /// The primary simulated device (the only device for [`SimExecutor`],
    /// shard 0's device for a sharded executor).
    fn device(&self) -> &DeviceSpec;

    /// The primary device's cost model.
    fn cost_model(&self) -> &CostModel;

    /// Snapshot of everything recorded so far, in execution order.
    fn trace(&self) -> OpTrace;

    /// Number of operations recorded so far — a cheap monotonic mark for
    /// slicing segments out of the trace without snapshotting it (the
    /// streaming meter and the batch driver both measure "what was charged
    /// since mark X" this way).
    fn trace_len(&self) -> usize {
        self.trace().len()
    }

    /// Engine-split modeled seconds charged since record index `mark`.
    ///
    /// This is how the double-buffered streaming model prices a produce or
    /// consume segment: take a [`Executor::trace_len`] mark, run the segment,
    /// read the split. The default snapshots the trace; implementations with
    /// direct profiler access override it to aggregate under the lock.
    fn engine_seconds_since(&self, mark: usize) -> EngineSeconds {
        self.trace().engine_split_since(mark)
    }

    /// Total modeled device time recorded so far, in seconds. For a sharded
    /// executor this is the *serialized* sum over every device's operations —
    /// the overlap-aware number is its `modeled_wallclock_seconds`.
    fn total_modeled_seconds(&self) -> f64;

    /// Append the records of `trace` (merging a fork's history back — see
    /// [`Executor::fork`]).
    fn absorb(&self, trace: &OpTrace);

    /// A new executor with the same cost model(s) but an empty trace, whose
    /// residency counter starts at this executor's current residency.
    ///
    /// Batched drivers fork one executor per job so each job's trace contains
    /// only its own operations; [`Executor::absorb`] merges a fork's records
    /// back. The returned fork is a **drop guard**: when it is dropped — on
    /// success *or on an error path* — its residency peak is merged into this
    /// executor automatically, so a fork abandoned mid-job can never lose its
    /// high-water mark. Callers may still call [`Executor::merge_peak`]
    /// explicitly (e.g. to merge a *sum* of concurrent forks); the merge is a
    /// `max`, so doing both is harmless.
    fn fork(&self) -> Box<dyn Executor>;

    /// Record a modeled device allocation of `bytes` bytes (points, kernel
    /// matrix or tile, per-iteration buffers). Feeds the peak-residency
    /// accounting the tiling planner's capacity model is validated against.
    fn track_alloc(&self, bytes: u64);

    /// Record a modeled device free of `bytes` bytes.
    fn track_free(&self, bytes: u64);

    /// Bytes currently resident under the modeled allocations.
    fn resident_bytes(&self) -> u64;

    /// High-water mark of the modeled residency.
    fn peak_resident_bytes(&self) -> u64;

    /// Raise this executor's residency peak to at least `peak` (merging a
    /// forked executor's memory history back, the residency counterpart of
    /// [`Executor::absorb`]).
    fn merge_peak(&self, peak: u64);

    /// Memory capacity of the primary simulated device, in bytes.
    fn mem_bytes(&self) -> u64 {
        self.device().mem_bytes
    }

    /// The multi-device topology behind this executor, when it shards work
    /// across devices. `None` for single-device executors; the streaming
    /// kernel-source layer uses this to build a row-sharded plan.
    fn topology(&self) -> Option<&DeviceTopology> {
        None
    }

    /// Number of device shards operations can be attributed to (1 for
    /// single-device executors).
    fn shard_count(&self) -> usize {
        1
    }

    /// Attribute subsequently recorded operations (and tracked allocations)
    /// to device shard `shard`, or to the serial/replicated stream with
    /// `None`. A no-op on single-device executors. The active shard is shared
    /// with forks of this executor, so a tile stream activating a shard on
    /// the shared executor also routes the per-job engine work charged on
    /// forked executors.
    fn activate_shard(&self, shard: Option<usize>) {
        let _ = shard;
    }

    /// Drain one due fault event (scheduled at or before kernel-matrix pass
    /// `pass`) from the executor's fault plan, applying its liveness flip.
    /// Sharded sources call this in a loop at every pass boundary; `None`
    /// (the default — single-device executors never fault) means nothing is
    /// due.
    fn poll_fault(&self, pass: usize) -> Option<FaultEvent> {
        let _ = pass;
        None
    }

    /// `true` when device shard `shard` is currently alive (has not been
    /// lost). Planners skip dead shards. Always `true` on single-device
    /// executors.
    fn shard_alive(&self, shard: usize) -> bool {
        let _ = shard;
        true
    }

    /// Fold one recovery step's accounting into the executor's cumulative
    /// [`RecoveryReport`]. A no-op on single-device executors.
    fn note_recovery(&self, delta: &RecoveryReport) {
        let _ = delta;
    }

    /// The cumulative recovery accounting, or `None` when no device was ever
    /// lost (the default).
    fn recovery_report(&self) -> Option<RecoveryReport> {
        None
    }
}

/// Generic conveniences over any [`Executor`] (including trait objects).
pub trait ExecutorExt: Executor {
    /// Run `f` on the host, record its cost, and return its result.
    fn run<R>(
        &self,
        name: impl Into<String>,
        phase: Phase,
        class: OpClass,
        cost: OpCost,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        let host_seconds = start.elapsed().as_secs_f64();
        self.record(name.into(), phase, class, cost, host_seconds);
        result
    }

    /// Record an operation that has no host-side work (e.g. a modeled
    /// host→device transfer of a dataset that is already in memory).
    fn charge(&self, name: impl Into<String>, phase: Phase, class: OpClass, cost: OpCost) {
        self.record(name.into(), phase, class, cost, 0.0);
    }
}

impl<E: Executor + ?Sized> ExecutorExt for E {}

macro_rules! delegate_executor {
    ($wrapper:ty) => {
        impl<E: Executor + ?Sized> Executor for $wrapper {
            fn record(
                &self,
                name: String,
                phase: Phase,
                class: OpClass,
                cost: OpCost,
                host_seconds: f64,
            ) {
                (**self).record(name, phase, class, cost, host_seconds)
            }
            fn device(&self) -> &DeviceSpec {
                (**self).device()
            }
            fn cost_model(&self) -> &CostModel {
                (**self).cost_model()
            }
            fn trace(&self) -> OpTrace {
                (**self).trace()
            }
            fn trace_len(&self) -> usize {
                (**self).trace_len()
            }
            fn engine_seconds_since(&self, mark: usize) -> EngineSeconds {
                (**self).engine_seconds_since(mark)
            }
            fn total_modeled_seconds(&self) -> f64 {
                (**self).total_modeled_seconds()
            }
            fn absorb(&self, trace: &OpTrace) {
                (**self).absorb(trace)
            }
            fn fork(&self) -> Box<dyn Executor> {
                (**self).fork()
            }
            fn track_alloc(&self, bytes: u64) {
                (**self).track_alloc(bytes)
            }
            fn track_free(&self, bytes: u64) {
                (**self).track_free(bytes)
            }
            fn resident_bytes(&self) -> u64 {
                (**self).resident_bytes()
            }
            fn peak_resident_bytes(&self) -> u64 {
                (**self).peak_resident_bytes()
            }
            fn merge_peak(&self, peak: u64) {
                (**self).merge_peak(peak)
            }
            fn mem_bytes(&self) -> u64 {
                (**self).mem_bytes()
            }
            fn topology(&self) -> Option<&DeviceTopology> {
                (**self).topology()
            }
            fn shard_count(&self) -> usize {
                (**self).shard_count()
            }
            fn activate_shard(&self, shard: Option<usize>) {
                (**self).activate_shard(shard)
            }
            fn poll_fault(&self, pass: usize) -> Option<FaultEvent> {
                (**self).poll_fault(pass)
            }
            fn shard_alive(&self, shard: usize) -> bool {
                (**self).shard_alive(shard)
            }
            fn note_recovery(&self, delta: &RecoveryReport) {
                (**self).note_recovery(delta)
            }
            fn recovery_report(&self) -> Option<RecoveryReport> {
                (**self).recovery_report()
            }
        }
    };
}

delegate_executor!(Box<E>);
delegate_executor!(std::sync::Arc<E>);
delegate_executor!(&E);

/// Executes host closures while accumulating modeled device time.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    cost_model: CostModel,
    profiler: Profiler,
}

impl SimExecutor {
    /// Create an executor for a device, assuming `elem_bytes`-wide scalars
    /// (4 for `f32`, 8 for `f64`).
    pub fn new(device: DeviceSpec, elem_bytes: usize) -> Self {
        Self {
            cost_model: CostModel::new(device, elem_bytes),
            profiler: Profiler::new(),
        }
    }

    /// Executor modeling the paper's platform: A100-80GB, single precision.
    pub fn a100_f32() -> Self {
        Self::new(DeviceSpec::a100_80gb(), 4)
    }

    /// A roofline for the simulated device.
    pub fn roofline(&self) -> Roofline {
        Roofline::new(self.device().clone(), self.cost_model.elem_bytes())
    }
}

impl Executor for SimExecutor {
    fn record(&self, name: String, phase: Phase, class: OpClass, cost: OpCost, host_seconds: f64) {
        let modeled_seconds = self.cost_model.time_seconds(class, &cost);
        self.profiler.record(OpRecord {
            name,
            phase,
            class,
            cost,
            modeled_seconds,
            host_seconds,
        });
    }

    fn device(&self) -> &DeviceSpec {
        self.cost_model.device()
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    fn trace(&self) -> OpTrace {
        self.profiler.snapshot()
    }

    fn trace_len(&self) -> usize {
        self.profiler.len()
    }

    fn engine_seconds_since(&self, mark: usize) -> EngineSeconds {
        self.profiler.engine_split_since(mark)
    }

    fn total_modeled_seconds(&self) -> f64 {
        self.profiler.total_modeled_seconds()
    }

    fn absorb(&self, trace: &OpTrace) {
        self.profiler.extend(trace);
    }

    fn fork(&self) -> Box<dyn Executor> {
        let child = Self {
            cost_model: self.cost_model.clone(),
            profiler: Profiler::with_resident(self.profiler.resident_bytes()),
        };
        Box::new(ForkGuard::new(child, self.profiler.clone()))
    }

    fn track_alloc(&self, bytes: u64) {
        self.profiler.track_alloc(bytes);
    }

    fn track_free(&self, bytes: u64) {
        self.profiler.track_free(bytes);
    }

    fn resident_bytes(&self) -> u64 {
        self.profiler.resident_bytes()
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.profiler.peak_resident_bytes()
    }

    fn merge_peak(&self, peak: u64) {
        self.profiler.merge_peak(peak);
    }
}

/// A forked executor that merges its residency peak back into the parent's
/// profiler when dropped — the drop guard behind [`Executor::fork`] that
/// makes its residency-baseline contract (merge the peak even on error
/// paths) impossible to forget. Every other call goes to the child.
#[derive(Debug)]
pub struct ForkGuard<E: Executor + ?Sized> {
    parent: Profiler,
    child: E,
}

impl<E: Executor> ForkGuard<E> {
    /// Wrap a forked executor so `parent` receives its peak on drop.
    pub fn new(child: E, parent: Profiler) -> Self {
        Self { parent, child }
    }
}

impl<E: Executor + ?Sized> Drop for ForkGuard<E> {
    fn drop(&mut self) {
        self.parent.merge_peak(self.child.peak_resident_bytes());
    }
}

impl<E: Executor + ?Sized> std::ops::Deref for ForkGuard<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.child
    }
}

delegate_executor!(ForkGuard<E>);

/// Guard returned by [`ResidencyScope::new`]: on drop, frees every byte
/// tracked since the guard was created (a completed fit's buffers leave the
/// device). Works over any [`Executor`].
pub struct ResidencyScope<'a> {
    executor: &'a dyn Executor,
    baseline: u64,
}

impl<'a> ResidencyScope<'a> {
    /// Scope the residency of one fit on `executor`: everything tracked
    /// between this call and the guard's drop is freed again, so a reused
    /// (`with_executor`) executor does not accumulate the buffers of
    /// completed fits into the next fit's residency. The peak is a lifetime
    /// high-water mark and is unaffected by the free.
    pub fn new(executor: &'a dyn Executor) -> Self {
        Self {
            executor,
            baseline: executor.resident_bytes(),
        }
    }
}

impl Drop for ResidencyScope<'_> {
    fn drop(&mut self) {
        let now = self.executor.resident_bytes();
        self.executor.track_free(now.saturating_sub(self.baseline));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_closure_and_records() {
        let exec = SimExecutor::a100_f32();
        let out = exec.run(
            "gemm test",
            Phase::KernelMatrix,
            OpClass::Gemm,
            OpCost::gemm(100, 100, 100, 4),
            || 40 + 2,
        );
        assert_eq!(out, 42);
        let trace = exec.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records()[0].name, "gemm test");
        assert!(trace.records()[0].modeled_seconds > 0.0);
        assert!(trace.records()[0].host_seconds >= 0.0);
    }

    #[test]
    fn charge_records_without_work() {
        let exec = SimExecutor::a100_f32();
        exec.charge(
            "upload",
            Phase::DataPreparation,
            OpClass::Transfer,
            OpCost::transfer(1 << 20),
        );
        assert_eq!(exec.trace().len(), 1);
        assert!(exec.total_modeled_seconds() > 0.0);
    }

    #[test]
    fn gpu_models_faster_than_cpu_for_same_op() {
        let gpu = SimExecutor::a100_f32();
        let cpu = SimExecutor::new(DeviceSpec::epyc7763_single_core(), 4);
        let cost = OpCost::gemm(2000, 2000, 100, 4);
        gpu.charge("gemm", Phase::KernelMatrix, OpClass::Gemm, cost);
        cpu.charge("gemm", Phase::KernelMatrix, OpClass::Gemm, cost);
        assert!(cpu.total_modeled_seconds() / gpu.total_modeled_seconds() > 10.0);
    }

    #[test]
    fn roofline_matches_device() {
        let exec = SimExecutor::a100_f32();
        assert_eq!(exec.roofline().peak_gflops(), 19_500.0);
        assert_eq!(exec.device().name, "NVIDIA A100 80GB");
    }

    #[test]
    fn fork_starts_empty_and_absorb_merges_back() {
        let exec = SimExecutor::a100_f32();
        exec.charge(
            "shared",
            Phase::KernelMatrix,
            OpClass::Gemm,
            OpCost::new(8, 8, 8),
        );
        let fork = exec.fork();
        assert!(fork.trace().is_empty(), "fork must not inherit records");
        assert_eq!(fork.device().name, exec.device().name);
        fork.charge(
            "job",
            Phase::PairwiseDistances,
            OpClass::SpMM,
            OpCost::new(4, 4, 4),
        );
        // The fork's records do not leak into the parent until absorbed.
        assert_eq!(exec.trace().len(), 1);
        exec.absorb(&fork.trace());
        let trace = exec.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[1].name, "job");
        // Same cost model: identical op, identical modeled time.
        let cost = OpCost::gemm(64, 64, 8, 4);
        assert_eq!(
            exec.cost_model().time_seconds(OpClass::Gemm, &cost),
            fork.cost_model().time_seconds(OpClass::Gemm, &cost)
        );
    }

    #[test]
    fn clone_shares_profiler() {
        let exec = SimExecutor::a100_f32();
        let clone = exec.clone();
        clone.charge("x", Phase::Other, OpClass::Other, OpCost::new(1, 1, 1));
        assert_eq!(exec.trace().len(), 1);
    }

    #[test]
    fn fork_inherits_residency_baseline() {
        let exec = SimExecutor::a100_f32();
        exec.track_alloc(1_000);
        let fork = exec.fork();
        assert_eq!(fork.resident_bytes(), 1_000);
        fork.track_alloc(500);
        assert_eq!(fork.peak_resident_bytes(), 1_500);
        // The fork's allocations do not move the parent's counter...
        assert_eq!(exec.resident_bytes(), 1_000);
        assert_eq!(exec.peak_resident_bytes(), 1_000);
        // ...until the peak is merged back.
        exec.merge_peak(fork.peak_resident_bytes());
        assert_eq!(exec.peak_resident_bytes(), 1_500);
    }

    #[test]
    fn dyn_executor_runs_and_charges_via_the_extension_trait() {
        let exec = SimExecutor::a100_f32();
        let dyn_exec: &dyn Executor = &exec;
        let out = dyn_exec.run(
            "dyn gemm",
            Phase::KernelMatrix,
            OpClass::Gemm,
            OpCost::gemm(64, 64, 8, 4),
            || 7,
        );
        assert_eq!(out, 7);
        dyn_exec.charge(
            "dyn upload",
            Phase::DataPreparation,
            OpClass::Transfer,
            OpCost::transfer(1 << 16),
        );
        assert_eq!(exec.trace().len(), 2);
        assert_eq!(dyn_exec.shard_count(), 1);
        assert!(dyn_exec.topology().is_none());
        dyn_exec.activate_shard(Some(3)); // no-op on a single device
        assert!(dyn_exec.total_modeled_seconds() > 0.0);
    }

    #[test]
    fn trait_fork_is_a_drop_guard_that_merges_the_peak() {
        let exec = SimExecutor::a100_f32();
        exec.track_alloc(1_000);
        {
            let fork = Executor::fork(&exec);
            fork.track_alloc(700);
            assert_eq!(fork.resident_bytes(), 1_700);
            // Simulate an error path: the fork is dropped without any
            // explicit merge_peak call.
        }
        assert_eq!(
            exec.peak_resident_bytes(),
            1_700,
            "dropping a fork must merge its peak into the parent"
        );
        // An explicit merge on top of the automatic one is harmless (max).
        let fork = Executor::fork(&exec);
        fork.track_alloc(100);
        exec.merge_peak(fork.peak_resident_bytes());
        drop(fork);
        assert_eq!(exec.peak_resident_bytes(), 1_700);
    }

    #[test]
    fn trait_fork_absorb_round_trip() {
        let exec = SimExecutor::a100_f32();
        let fork = Executor::fork(&exec);
        fork.charge("job", Phase::Other, OpClass::Other, OpCost::new(1, 1, 1));
        assert!(exec.trace().is_empty());
        exec.absorb(&fork.trace());
        assert_eq!(exec.trace().len(), 1);
        // Forks of forks still work and see the same device.
        let grandchild = fork.fork();
        assert_eq!(grandchild.device().name, exec.device().name);
    }

    #[test]
    fn residency_scope_works_over_dyn_executors() {
        let exec = SimExecutor::a100_f32();
        exec.track_alloc(10);
        {
            let dyn_exec: &dyn Executor = &exec;
            let _scope = ResidencyScope::new(dyn_exec);
            dyn_exec.track_alloc(90);
            assert_eq!(exec.resident_bytes(), 100);
        }
        assert_eq!(exec.resident_bytes(), 10);
        assert_eq!(exec.peak_resident_bytes(), 100);
    }

    #[test]
    fn concurrent_forks_record_and_merge_deterministically() {
        // The parallel batch driver's usage pattern: one fork per job, each
        // recording from its own thread, merged back on the driver thread in
        // fixed order. Per-fork traces must be isolated and the absorbed
        // order must be exactly the merge order.
        let exec = SimExecutor::a100_f32();
        exec.track_alloc(1_000);
        let forks: Vec<Box<dyn Executor>> = (0..4).map(|_| Executor::fork(&exec)).collect();
        std::thread::scope(|scope| {
            for (i, fork) in forks.iter().enumerate() {
                scope.spawn(move || {
                    for op in 0..3 {
                        fork.charge(
                            format!("job {i} op {op}"),
                            Phase::PairwiseDistances,
                            OpClass::SpMM,
                            OpCost::new(10 + i as u64, 5, 5),
                        );
                    }
                    fork.track_alloc(100 * (i as u64 + 1));
                });
            }
        });
        for (i, fork) in forks.iter().enumerate() {
            let trace = fork.trace();
            assert_eq!(trace.len(), 3, "fork {i} trace must only hold its ops");
            assert!(trace
                .records()
                .iter()
                .all(|r| r.name.starts_with(&format!("job {i} "))));
            exec.absorb(&trace);
        }
        let merged = exec.trace();
        assert_eq!(merged.len(), 12);
        for (i, chunk) in merged.records().chunks(3).enumerate() {
            assert!(chunk
                .iter()
                .all(|r| r.name.starts_with(&format!("job {i} "))));
        }
        drop(forks); // drop guards merge the peaks
        assert_eq!(exec.peak_resident_bytes(), 1_000 + 400);
    }

    #[test]
    fn h100_preset_is_faster_than_a100() {
        let h100 = SimExecutor::new(DeviceSpec::h100_80gb(), 4);
        let a100 = SimExecutor::a100_f32();
        let cost = OpCost::gemm(4096, 4096, 512, 4);
        assert!(
            h100.cost_model().time_seconds(OpClass::Gemm, &cost)
                < a100.cost_model().time_seconds(OpClass::Gemm, &cost)
        );
        assert_eq!(h100.device().name, "NVIDIA H100 80GB");
    }

    #[test]
    fn device_capacity_is_exposed() {
        let exec = SimExecutor::a100_f32();
        assert_eq!(exec.mem_bytes(), exec.device().mem_bytes);
        assert!(exec.mem_bytes() > 0);
    }
}
