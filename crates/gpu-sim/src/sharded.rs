//! Multi-device row-sharded execution: [`ShardedExecutor`].
//!
//! The sharded cost-simulation story mirrors the single-device one: every
//! operation still executes for real on the host, and what changes is only
//! *where the operation is priced*. A [`ShardedExecutor`] wraps a
//! [`DeviceTopology`] and keeps one attribution bucket per device:
//!
//! * While a shard is active ([`Executor::activate_shard`], set by the
//!   row-sharded kernel source around each device's tiles), recorded
//!   operations are priced with that device's cost model, their modeled
//!   seconds accumulate into the device's *concurrent* bucket, and tracked
//!   allocations land on that device's residency counters.
//! * With no shard active, operations are serial/replicated: priced with
//!   device 0's model, accumulated in the serial bucket, and allocations are
//!   replicated to **every** device (uploads, the `n × k` distance buffers
//!   the serial finish step consumes, bookkeeping vectors).
//! * [`OpClass::AllReduce`] operations are priced against the topology's
//!   [`crate::LinkSpec`] as a ring all-reduce and accumulate into the communication
//!   bucket.
//!
//! The aggregate trace stays one chronological [`OpTrace`] (so existing
//! reports work unchanged), and the overlap-aware number is
//! [`ShardedExecutor::modeled_wallclock_seconds`]: serial + communication +
//! the **max** over the per-device concurrent buckets. With a single device
//! every operation is priced exactly as a plain [`crate::SimExecutor`] would price
//! it, op for op.
//!
//! Forks ([`Executor::fork`], used by the batched lockstep driver) share the
//! per-device buckets and the active-shard cell with their parent, so a tile
//! stream activating a shard on the shared executor also routes the per-job
//! engine work charged on forked executors — and per-job SpMM tiles land on
//! the device that owns their rows.
//!
//! A [`FaultPlan`] attached with [`ShardedExecutor::with_fault_plan`] makes
//! the pool shrink: each loss the row stream drains
//! ([`Executor::poll_fault`]) marks its device dead for the rest of the
//! executor's life, counts it on the shared [`RecoveryReport`], and the
//! stream resumes on the survivors. Forks share the liveness flags, the
//! fault cursor and the report.

use crate::cost::{CostModel, OpClass, OpCost};
use crate::device::{DeviceSpec, DeviceTopology};
use crate::executor::{Executor, ForkGuard};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, RecoveryReport};
use crate::profiler::Profiler;
use crate::trace::{OpRecord, OpTrace, Phase};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sentinel for "no shard active" in the shared atomic cell.
const NO_SHARD: usize = usize::MAX;

/// Per-device attribution bucket: concurrent modeled seconds plus modeled
/// residency counters.
#[derive(Debug, Default)]
struct DeviceBucket {
    seconds: Mutex<f64>,
    mem: Mutex<(u64, u64)>, // (resident, peak)
}

impl DeviceBucket {
    fn lock_mem(&self) -> MutexGuard<'_, (u64, u64)> {
        self.mem.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn add_seconds(&self, s: f64) {
        *self.seconds.lock().unwrap_or_else(|p| p.into_inner()) += s;
    }

    fn seconds(&self) -> f64 {
        *self.seconds.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn alloc(&self, bytes: u64) {
        let mut mem = self.lock_mem();
        mem.0 = mem.0.saturating_add(bytes);
        mem.1 = mem.1.max(mem.0);
    }

    fn free(&self, bytes: u64) {
        let mut mem = self.lock_mem();
        mem.0 = mem.0.saturating_sub(bytes);
    }
}

/// Cursor over a resolved fault schedule: events are consumed in pass order,
/// exactly once each.
#[derive(Debug, Default)]
struct FaultCursor {
    events: Vec<FaultEvent>,
    next: usize,
}

/// State shared between a sharded executor and all of its forks.
#[derive(Debug)]
struct SharedState {
    topology: DeviceTopology,
    cost_models: Vec<CostModel>,
    devices: Vec<DeviceBucket>,
    active: AtomicUsize,
    serial_seconds: Mutex<f64>,
    comm_seconds: Mutex<f64>,
    /// Per-device liveness: every device starts alive, and a drained loss
    /// clears its flag for good.
    alive: Vec<AtomicBool>,
    faults: Mutex<FaultCursor>,
    recovery: Mutex<RecoveryReport>,
}

impl SharedState {
    fn add_serial(&self, s: f64) {
        *self
            .serial_seconds
            .lock()
            .unwrap_or_else(|p| p.into_inner()) += s;
    }

    fn add_comm(&self, s: f64) {
        *self.comm_seconds.lock().unwrap_or_else(|p| p.into_inner()) += s;
    }

    fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Relaxed))
            .count()
    }
}

/// An [`Executor`] pricing operations against a row-sharded multi-device
/// [`DeviceTopology`]. See the module docs for the attribution rules.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    shared: Arc<SharedState>,
    /// This handle's chronological trace and aggregate residency (the same
    /// fork/absorb/merge-peak semantics as a [`SimExecutor`]'s profiler).
    profiler: Profiler,
}

impl ShardedExecutor {
    /// Create a sharded executor over `topology`, assuming `elem_bytes`-wide
    /// scalars.
    pub fn new(topology: DeviceTopology, elem_bytes: usize) -> Self {
        Self::build(topology, elem_bytes, Vec::new())
    }

    /// Shared constructor: `events` is the resolved fault schedule.
    fn build(topology: DeviceTopology, elem_bytes: usize, events: Vec<FaultEvent>) -> Self {
        assert!(
            !topology.devices.is_empty(),
            "a topology needs at least one device"
        );
        let cost_models = topology
            .devices
            .iter()
            .map(|d| CostModel::new(d.clone(), elem_bytes))
            .collect();
        let devices: Vec<DeviceBucket> = topology
            .devices
            .iter()
            .map(|_| DeviceBucket::default())
            .collect();
        let alive = topology
            .devices
            .iter()
            .map(|_| AtomicBool::new(true))
            .collect();
        Self {
            shared: Arc::new(SharedState {
                topology,
                cost_models,
                devices,
                active: AtomicUsize::new(NO_SHARD),
                serial_seconds: Mutex::new(0.0),
                comm_seconds: Mutex::new(0.0),
                alive,
                faults: Mutex::new(FaultCursor { events, next: 0 }),
                recovery: Mutex::new(RecoveryReport::default()),
            }),
            profiler: Profiler::new(),
        }
    }

    /// This executor's topology with `plan`'s fault schedule attached. Must
    /// be called before any work is recorded — the returned executor starts
    /// with fresh buckets and an empty trace.
    pub fn with_fault_plan(&self, plan: FaultPlan) -> Self {
        let elem_bytes = self.shared.cost_models[0].elem_bytes();
        Self::build(self.shared.topology.clone(), elem_bytes, plan.resolve())
    }

    /// `count` identical `device`s linked by `interconnect` — what the CLI's
    /// `--devices N --interconnect L` builds.
    pub fn homogeneous(
        device: DeviceSpec,
        count: usize,
        interconnect: crate::device::LinkSpec,
        elem_bytes: usize,
    ) -> Self {
        Self::new(
            DeviceTopology::homogeneous(device, count, interconnect),
            elem_bytes,
        )
    }

    /// The topology being simulated (including devices already lost — see
    /// [`ShardedExecutor::device_alive`]).
    pub fn device_topology(&self) -> &DeviceTopology {
        &self.shared.topology
    }

    /// Per-device liveness snapshot (`true` = alive right now).
    pub fn device_alive(&self) -> Vec<bool> {
        self.shared
            .alive
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// The currently active shard, if any.
    fn active_shard(&self) -> Option<usize> {
        match self.shared.active.load(Ordering::Relaxed) {
            NO_SHARD => None,
            s => Some(s.min(self.shared.devices.len() - 1)),
        }
    }

    /// Modeled seconds of concurrent (shard-attributed) work per device.
    pub fn per_device_modeled_seconds(&self) -> Vec<f64> {
        self.shared.devices.iter().map(|d| d.seconds()).collect()
    }

    /// Modeled residency high-water mark per device (replicated allocations
    /// count on every device, shard-scoped ones only on their owner).
    pub fn per_device_peak_resident_bytes(&self) -> Vec<u64> {
        self.shared.devices.iter().map(|d| d.lock_mem().1).collect()
    }

    /// Modeled seconds of the serial (non-sharded) stream.
    pub fn serial_modeled_seconds(&self) -> f64 {
        *self
            .shared
            .serial_seconds
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Modeled seconds spent in device↔device all-reduces.
    pub fn comm_modeled_seconds(&self) -> f64 {
        *self
            .shared
            .comm_seconds
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Overlap-aware modeled wall-clock: the serial stream, plus the
    /// communication, plus the **max** over the devices' concurrent buckets
    /// (devices price their shards concurrently).
    pub fn modeled_wallclock_seconds(&self) -> f64 {
        let busiest = self
            .per_device_modeled_seconds()
            .into_iter()
            .fold(0.0f64, f64::max);
        self.serial_modeled_seconds() + self.comm_modeled_seconds() + busiest
    }

    /// Modeled seconds a true single device would need for the same run:
    /// the serial stream plus every device's concurrent work, serialized —
    /// the all-reduce is **excluded** (one device never communicates).
    pub fn serialized_single_device_seconds(&self) -> f64 {
        self.serial_modeled_seconds() + self.per_device_modeled_seconds().iter().sum::<f64>()
    }

    /// Modeled speedup of the sharded execution over serializing the same
    /// computation on one device:
    /// [`ShardedExecutor::serialized_single_device_seconds`] (no all-reduce)
    /// over the overlap-aware wall-clock (1.0 when nothing ran concurrently).
    pub fn modeled_speedup(&self) -> f64 {
        let wallclock = self.modeled_wallclock_seconds();
        if wallclock <= 0.0 {
            1.0
        } else {
            self.serialized_single_device_seconds() / wallclock
        }
    }
}

impl Executor for ShardedExecutor {
    fn record(&self, name: String, phase: Phase, class: OpClass, cost: OpCost, host_seconds: f64) {
        let shard = self.active_shard();
        let modeled_seconds = if class == OpClass::AllReduce {
            let link = &self.shared.topology.interconnect;
            let t = link.all_reduce_seconds(cost.bytes_read, self.shared.alive_count().max(1));
            self.shared.add_comm(t);
            t
        } else {
            let model = &self.shared.cost_models[shard.unwrap_or(0)];
            let t = model.time_seconds(class, &cost);
            match shard {
                Some(s) => self.shared.devices[s].add_seconds(t),
                None => self.shared.add_serial(t),
            }
            t
        };
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
        &self.shared.topology.devices[0]
    }

    fn cost_model(&self) -> &CostModel {
        &self.shared.cost_models[0]
    }

    fn trace(&self) -> OpTrace {
        self.profiler.snapshot()
    }

    fn trace_len(&self) -> usize {
        self.profiler.len()
    }

    fn engine_seconds_since(&self, mark: usize) -> crate::cost::EngineSeconds {
        self.profiler.engine_split_since(mark)
    }

    fn total_modeled_seconds(&self) -> f64 {
        self.profiler.total_modeled_seconds()
    }

    fn absorb(&self, trace: &OpTrace) {
        self.profiler.extend(trace);
    }

    fn fork(&self) -> Box<dyn Executor> {
        let child = ShardedExecutor {
            shared: Arc::clone(&self.shared),
            profiler: Profiler::with_resident(self.profiler.resident_bytes()),
        };
        Box::new(ForkGuard::new(child, self.profiler.clone()))
    }

    fn track_alloc(&self, bytes: u64) {
        self.profiler.track_alloc(bytes);
        match self.active_shard() {
            Some(s) => self.shared.devices[s].alloc(bytes),
            None => {
                for device in &self.shared.devices {
                    device.alloc(bytes);
                }
            }
        }
    }

    fn track_free(&self, bytes: u64) {
        self.profiler.track_free(bytes);
        match self.active_shard() {
            Some(s) => self.shared.devices[s].free(bytes),
            None => {
                for device in &self.shared.devices {
                    device.free(bytes);
                }
            }
        }
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

    fn topology(&self) -> Option<&DeviceTopology> {
        Some(&self.shared.topology)
    }

    fn shard_count(&self) -> usize {
        self.shared.devices.len()
    }

    fn activate_shard(&self, shard: Option<usize>) {
        let value = match shard {
            Some(s) => {
                debug_assert!(s < self.shared.devices.len(), "shard {s} out of range");
                s.min(self.shared.devices.len() - 1)
            }
            None => NO_SHARD,
        };
        self.shared.active.store(value, Ordering::Relaxed);
    }

    fn poll_fault(&self, pass: usize) -> Option<FaultEvent> {
        let mut cursor = self.shared.faults.lock().unwrap_or_else(|p| p.into_inner());
        if cursor.next >= cursor.events.len() || cursor.events[cursor.next].at_pass > pass {
            return None;
        }
        let event = cursor.events[cursor.next].clone();
        cursor.next += 1;
        drop(cursor);
        let FaultKind::DeviceLost { device } = event.kind;
        self.shared.alive[device].store(false, Ordering::Relaxed);
        self.note_recovery(&RecoveryReport {
            devices_lost: 1,
            ..Default::default()
        });
        Some(event)
    }

    fn shard_alive(&self, shard: usize) -> bool {
        self.shared
            .alive
            .get(shard)
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    fn note_recovery(&self, delta: &RecoveryReport) {
        self.shared
            .recovery
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .merge(delta);
    }

    fn recovery_report(&self) -> Option<RecoveryReport> {
        let report = self
            .shared
            .recovery
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if report.is_empty() {
            None
        } else {
            Some(report.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::LinkSpec;
    use crate::executor::{ExecutorExt, SimExecutor};

    fn four_a100s() -> ShardedExecutor {
        ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 4, LinkSpec::nvlink(), 4)
    }

    #[test]
    fn serial_ops_price_like_a_plain_sim_executor() {
        let sharded = four_a100s();
        let plain = SimExecutor::a100_f32();
        let cost = OpCost::gemm(1000, 1000, 100, 4);
        sharded.charge("gemm", Phase::KernelMatrix, OpClass::Gemm, cost);
        plain.charge("gemm", Phase::KernelMatrix, OpClass::Gemm, cost);
        let a = sharded.trace().records()[0].clone();
        let b = plain.trace().records()[0].clone();
        assert_eq!(a.modeled_seconds, b.modeled_seconds);
        assert_eq!(a.cost, b.cost);
        // Serial work counts towards the serial bucket, not any device's.
        assert_eq!(sharded.serial_modeled_seconds(), a.modeled_seconds);
        assert!(sharded
            .per_device_modeled_seconds()
            .iter()
            .all(|&s| s == 0.0));
    }

    #[test]
    fn shard_attribution_routes_seconds_and_memory() {
        let sharded = four_a100s();
        let cost = OpCost::gemm(500, 500, 64, 4);
        sharded.activate_shard(Some(2));
        sharded.charge("tile", Phase::KernelMatrix, OpClass::Gemm, cost);
        sharded.track_alloc(1_000);
        sharded.activate_shard(None);
        sharded.track_alloc(50); // replicated
        let seconds = sharded.per_device_modeled_seconds();
        assert!(seconds[2] > 0.0);
        assert_eq!(seconds[0], 0.0);
        let peaks = sharded.per_device_peak_resident_bytes();
        assert_eq!(peaks[2], 1_050);
        assert_eq!(peaks[0], 50);
        // The aggregate residency counter sees both allocations.
        assert_eq!(sharded.resident_bytes(), 1_050);
    }

    #[test]
    fn wallclock_is_serial_plus_comm_plus_busiest_device() {
        let sharded = four_a100s();
        let cost = OpCost::gemm(2000, 2000, 100, 4);
        for shard in 0..4 {
            sharded.activate_shard(Some(shard));
            sharded.charge("tile", Phase::KernelMatrix, OpClass::Gemm, cost);
        }
        sharded.activate_shard(None);
        sharded.charge(
            "argmin",
            Phase::Assignment,
            OpClass::Reduction,
            OpCost::new(1000, 4000, 0),
        );
        sharded.charge(
            "all-reduce",
            Phase::PairwiseDistances,
            OpClass::AllReduce,
            OpCost::transfer(1 << 20),
        );
        let per_device = sharded.per_device_modeled_seconds();
        let busiest = per_device.iter().cloned().fold(0.0f64, f64::max);
        let expected = sharded.serial_modeled_seconds() + sharded.comm_modeled_seconds() + busiest;
        assert!((sharded.modeled_wallclock_seconds() - expected).abs() < 1e-15);
        // The single-device baseline serializes the devices' work but never
        // pays the all-reduce (one device does not communicate).
        let baseline = sharded.serialized_single_device_seconds();
        assert!(
            (baseline - (sharded.serial_modeled_seconds() + per_device.iter().sum::<f64>())).abs()
                < 1e-15
        );
        assert!(baseline < Executor::total_modeled_seconds(&sharded));
        // Four equal devices working concurrently: speedup = baseline over
        // wall-clock, diluted below 4x by the serial stream and the
        // all-reduce the sharded run (but not the baseline) pays.
        let expected_speedup = baseline / sharded.modeled_wallclock_seconds();
        assert!((sharded.modeled_speedup() - expected_speedup).abs() < 1e-12);
        assert!(sharded.modeled_speedup() > 1.0);
        assert!(sharded.modeled_speedup() < 4.0);
        // The buckets partition the serialized total exactly.
        let bucket_sum: f64 = per_device.iter().sum::<f64>()
            + sharded.serial_modeled_seconds()
            + sharded.comm_modeled_seconds();
        assert!((bucket_sum - Executor::total_modeled_seconds(&sharded)).abs() < 1e-12);
    }

    #[test]
    fn all_reduce_is_priced_against_the_link() {
        let nvlink = four_a100s();
        let pcie =
            ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 4, LinkSpec::pcie_gen4(), 4);
        let cost = OpCost::transfer(1 << 28);
        nvlink.charge("ar", Phase::PairwiseDistances, OpClass::AllReduce, cost);
        pcie.charge("ar", Phase::PairwiseDistances, OpClass::AllReduce, cost);
        assert!(pcie.comm_modeled_seconds() > 10.0 * nvlink.comm_modeled_seconds());
        let expected = LinkSpec::nvlink().all_reduce_seconds(1 << 28, 4);
        assert!((nvlink.comm_modeled_seconds() - expected).abs() < 1e-15);
    }

    #[test]
    fn forks_share_buckets_and_the_active_shard() {
        let sharded = four_a100s();
        let fork = Executor::fork(&sharded);
        // The parent activates a shard (the tile stream), the fork records
        // (the per-job engine): the op must land on the active device.
        sharded.activate_shard(Some(1));
        fork.charge(
            "job spmm",
            Phase::PairwiseDistances,
            OpClass::SpMM,
            OpCost::spmm_kvt(1000, 10, 4, 4),
        );
        sharded.activate_shard(None);
        assert!(sharded.per_device_modeled_seconds()[1] > 0.0);
        // The record stays in the fork's trace until absorbed.
        assert!(sharded.trace().is_empty());
        assert_eq!(fork.trace().len(), 1);
        sharded.absorb(&fork.trace());
        assert_eq!(sharded.trace().len(), 1);
        // Dropping the fork merges its peak automatically.
        fork.track_alloc(123);
        drop(fork);
        assert_eq!(sharded.peak_resident_bytes(), 123);
    }

    #[test]
    fn single_device_topology_behaves_like_sim_executor() {
        let sharded =
            ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 1, LinkSpec::nvlink(), 4);
        let plain = SimExecutor::a100_f32();
        for exec in [&sharded as &dyn Executor, &plain as &dyn Executor] {
            exec.charge(
                "upload",
                Phase::DataPreparation,
                OpClass::Transfer,
                OpCost::transfer(1 << 20),
            );
            exec.charge(
                "gemm",
                Phase::KernelMatrix,
                OpClass::Gemm,
                OpCost::gemm(300, 300, 30, 4),
            );
        }
        let a = sharded.trace();
        let b = plain.trace();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.records().iter().zip(b.records().iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.class, y.class);
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.modeled_seconds, y.modeled_seconds);
        }
        assert_eq!(sharded.shard_count(), 1);
    }
}
