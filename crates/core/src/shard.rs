//! Multi-device row sharding of the kernel matrix: [`ShardPlan`], the
//! elastic row stream every kernel representation walks, and the exact
//! [`ShardedKernelSource`].
//!
//! Built exactly the way the roadmap prescribed — on [`KernelSource`]: a
//! sharded source hands each device its own contiguous row range of `K`, so
//! the distance engines and the lockstep batch driver work **unchanged**.
//! Per-device residency planning reuses [`plan_tile_rows`] against each
//! device's [`popcorn_gpusim::DeviceSpec::mem_bytes`]: a device either keeps
//! its whole shard resident or streams it in sub-tiles, and a topology whose
//! devices cannot hold even one row each is rejected up front.
//!
//! Sharding changes **where tiles are priced, never what is computed**: the
//! tiles are produced by the same panel kernels as [`TiledKernel`] (which are
//! bit-identical to the in-core path), they are visited in global row order,
//! and every per-entry fold order is untouched — so sharded fits equal
//! single-device fits to the last bit, for every solver, both layouts,
//! standalone and batched. What the sharding adds is attribution: while a
//! device's tiles stream, the executor's active shard points at that device
//! ([`popcorn_gpusim::Executor::activate_shard`]), so the tile recomputation
//! *and* the engine work folded over the tile are charged to the owning
//! device's concurrent bucket. After each full pass the `n × k` distance
//! partials and per-cluster statistics are all-reduced across the topology's
//! link ([`popcorn_gpusim::LinkSpec`]), charged as one
//! [`OpClass::AllReduce`] operation.
//!
//! Sharding also *aggregates memory*: a shard small enough to sit resident
//! on its device ([`DeviceShard::is_resident`]) is computed — and charged —
//! exactly once, then replayed from device memory on later passes, exactly
//! like the in-core [`crate::FullKernel`] path. Enough devices therefore
//! recover charge-once semantics at an `n` where every single device would
//! have to recompute tiles each iteration.
//!
//! # One stream for every representation
//!
//! The exact, Nyström and sparsified CSR sources all walk their rows through
//! one stream. It owns the plan and the pass counter, drains the fault
//! schedule at every pass boundary, re-plans after a loss, moves residency,
//! fills the [`RecoveryReport`], walks the entries in global row order and
//! charges the all-reduce. A representation only says how a row range
//! becomes a tile or a CSR view, what a device holds for a plan entry (a
//! tile buffer, or a CSR slice) and what a recovery does besides moving rows
//! (replay lost resident tiles, or re-upload CSR slices). A single-device
//! fit is a one-entry plan walked by the same code; on a single-shard
//! executor the stream never activates a shard and never polls for faults.
//!
//! # Elastic topologies
//!
//! Heterogeneous pools are planned by [`ShardPlan::balanced_by_throughput`]:
//! shard sizes proportional to each device's modeled throughput (the
//! geometric mean of its compute and bandwidth roofs), degenerating *exactly*
//! to [`ShardPlan::balanced`] on uniform pools. The stream also survives
//! mid-fit device loss: at every pass boundary it drains the executor's fault
//! schedule ([`popcorn_gpusim::Executor::poll_fault`]), re-partitions each
//! lost device's rows over the surviving devices (throughput-weighted,
//! spliced in place so the global row order is unchanged) and continues: a
//! device loss is always resumed in place, never surfaced to the fit. The
//! re-plan counts what each survivor already holds: migrated rows stream at
//! the largest tile height that fits beside those holdings, or through the
//! survivor's own streaming buffer when that is taller, and a layout that
//! must stay resident and cannot fit is a
//! [`CoreError::DeviceShardMemoryExceeded`] naming the survivor. Because
//! sharding never changes what is computed, a recovered fit is
//! **bit-identical to a fresh fit on the surviving topology**; the only cost
//! is the modeled re-shard work, which is accounted on a [`RecoveryReport`].
//! A lost device stays lost for the executor's life, so later fits on the
//! same executor plan over the survivors from the start.

use crate::kernel::KernelFunction;
use crate::kernel_source::{
    plan_tile_rows, tile_bytes, workspace_bytes, KernelSource, Panel, PanelKind, PanelVisitor,
    TilePolicy, TiledKernel,
};
use crate::model::ResidentKernel;
use crate::solver::FitInput;
use crate::{CoreError, Result};
use popcorn_dense::{PackedRows, Scalar};
use popcorn_gpusim::{
    DeviceSpec, DeviceTopology, Executor, ExecutorExt, FaultKind, OpClass, OpCost, Phase,
    RecoveryReport,
};
use std::ops::Range;
use std::sync::Mutex;

/// One device's slice of the kernel matrix rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceShard {
    /// Index of the owning device in the topology.
    pub device: usize,
    /// The contiguous row range `K[rows, :]` this device prices.
    pub rows: Range<usize>,
    /// Sub-tile height this device streams its shard in (equals
    /// `rows.len()` when the whole shard is resident; 0 for an empty shard).
    pub tile_rows: usize,
}

impl DeviceShard {
    /// `true` when this device keeps its entire shard resident (one tile).
    pub fn is_resident(&self) -> bool {
        self.tile_rows >= self.rows.len()
    }
}

/// How `n` kernel-matrix rows are partitioned across a [`DeviceTopology`],
/// with a per-device sub-tiling plan from [`plan_tile_rows`].
///
/// A plan is a list of contiguous entries covering `0..n`. Most plans carry
/// one entry per device, but the re-plan after a device loss may hand a
/// surviving device several entries — [`ShardPlan::device_count`] counts
/// entries, while
/// [`ShardPlan::participating_devices`] counts distinct occupied devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    shards: Vec<DeviceShard>,
}

impl ShardPlan {
    /// Partition `0..n` into contiguous, balanced row ranges — one per device
    /// of `topology` — and plan each device's sub-tiling for a fit with
    /// `k_budget` total distance columns and `input_bytes` of uploaded
    /// points.
    pub fn balanced(
        n: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
    ) -> Result<Self> {
        let p = topology.devices.len();
        let boundaries: Vec<usize> = (1..p).map(|d| d * n / p).collect();
        Self::with_boundaries(
            n,
            &boundaries,
            k_budget,
            elem,
            input_bytes,
            tiling,
            topology,
        )
    }

    /// Partition `0..n` with shard sizes proportional to each device's
    /// modeled throughput, so a mixed pool (say A100s next to H100s) finishes
    /// its shards in lockstep instead of idling the fast devices at the
    /// all-reduce. The weight is the geometric mean of the device's two
    /// roofline ceilings — `sqrt(peak GFLOP/s × memory GB/s)` at the fit's
    /// element width — scaled to an integer so a **uniform pool produces
    /// exactly the [`ShardPlan::balanced`] boundaries** (bit-for-bit the same
    /// plan). [`ShardPlan::with_boundaries`] remains the escape hatch for
    /// hand-placed splits.
    ///
    /// `alive` optionally masks devices out of the plan entirely (a dead
    /// device gets no entry); `None` plans over the whole topology. Under
    /// [`TilePolicy::Full`] each device's share is additionally capped at the
    /// rows it can hold resident next to the replicated workspace, with the
    /// overflow redistributed over the uncapped devices; when the pool as a
    /// whole cannot hold `n` rows the tightest device is reported via
    /// [`CoreError::DeviceShardMemoryExceeded`].
    #[allow(clippy::too_many_arguments)]
    pub fn balanced_by_throughput(
        n: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
        alive: Option<&[bool]>,
    ) -> Result<Self> {
        let budget = RowBudget {
            n,
            k_budget,
            elem,
            input_bytes,
            tiling,
        };
        let active = alive_devices(topology, alive)?;
        let weights = throughput_weights(&active, topology, elem);
        // Capacity caps only bind under Full — every device must hold its
        // whole shard resident; the streamed policies fit by sub-tiling.
        let caps: Vec<Option<usize>> = active
            .iter()
            .map(|&d| {
                (tiling == TilePolicy::Full).then(|| budget.resident_rows(&topology.devices[d], 0))
            })
            .collect();
        let counts = match capped_proportional_rows(n, &weights, &caps) {
            Some(counts) => counts,
            None => {
                // The pool as a whole cannot hold n rows resident: report
                // the first device an uncapped throughput share overfills.
                let counts = proportional_rows(n, &weights);
                let (device, rows) = active
                    .iter()
                    .zip(&counts)
                    .zip(&caps)
                    .find(|((_, &rows), cap)| cap.is_some_and(|c| rows > c))
                    .map(|((&d, &rows), _)| (d, rows))
                    .expect("capacity exhaustion implies an overfull device");
                let required = budget.workspace() + tile_bytes(rows, n, elem) as u128;
                return Err(CoreError::DeviceShardMemoryExceeded {
                    device,
                    required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                    available_bytes: topology.devices[device].mem_bytes,
                });
            }
        };
        Self::from_counts(n, &active, &counts, |device, rows| {
            budget.shard_tile_rows(rows.len(), &topology.devices[device], device)
        })
    }

    /// Plan over an executor's topology and liveness: on a sharded executor,
    /// the throughput-weighted partition of
    /// [`ShardPlan::balanced_by_throughput`] restricted to the devices the
    /// executor reports alive ([`popcorn_gpusim::Executor::shard_alive`]).
    /// This is the entry point the fit dispatcher uses, so a fit retried
    /// after a surfaced device loss automatically plans over the survivors.
    /// A single-shard executor gets a one-entry plan of
    /// [`plan_tile_rows`]' height for its device, whose capacity error is the
    /// plain [`CoreError::DeviceMemoryExceeded`].
    pub fn for_executor(
        n: usize,
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        executor: &dyn Executor,
    ) -> Result<Self> {
        if executor.shard_count() > 1 {
            let topology = executor_topology(executor)?;
            return Self::balanced_by_throughput(
                n,
                k_budget,
                elem,
                input_bytes,
                tiling,
                topology,
                Some(&alive_mask(executor, topology)),
            );
        }
        let tile_rows = plan_tile_rows(n, k_budget, elem, input_bytes, tiling, executor.device())?;
        Self::from_counts(n, &[0], &[n], |_, _| Ok(tile_rows))
    }

    /// Plan `0..n` over an executor's alive devices with a caller-supplied
    /// per-entry fit check: `fit(spec, device, rows)` returns the entry's tile
    /// height or its capacity error. A single-shard executor gets one entry
    /// on its device, and its capacity error loses the device index; a
    /// sharded one gets the uncapped throughput-weighted split.
    pub(crate) fn for_executor_with(
        n: usize,
        elem: usize,
        executor: &dyn Executor,
        mut fit: impl FnMut(&DeviceSpec, usize, &Range<usize>) -> Result<usize>,
    ) -> Result<Self> {
        if executor.shard_count() <= 1 {
            let tile_rows = fit(executor.device(), 0, &(0..n)).map_err(|e| match e {
                CoreError::DeviceShardMemoryExceeded {
                    required_bytes,
                    available_bytes,
                    ..
                } => CoreError::DeviceMemoryExceeded {
                    required_bytes,
                    available_bytes,
                },
                other => other,
            })?;
            return Self::from_counts(n, &[0], &[n], |_, _| Ok(tile_rows));
        }
        let topology = executor_topology(executor)?;
        let active = alive_devices(topology, Some(&alive_mask(executor, topology)))?;
        let counts = proportional_rows(n, &throughput_weights(&active, topology, elem));
        Self::from_counts(n, &active, &counts, |device, rows| {
            fit(&topology.devices[device], device, rows)
        })
    }

    /// Partition `0..n` at the given ascending split points (device `d` gets
    /// `boundaries[d-1]..boundaries[d]`); `boundaries.len()` must be one less
    /// than the device count. Property tests use this to prove results are
    /// independent of the partition.
    pub fn with_boundaries(
        n: usize,
        boundaries: &[usize],
        k_budget: usize,
        elem: usize,
        input_bytes: u64,
        tiling: TilePolicy,
        topology: &DeviceTopology,
    ) -> Result<Self> {
        let p = topology.devices.len();
        if boundaries.len() + 1 != p {
            return Err(CoreError::InvalidConfig(format!(
                "a {p}-device topology needs {} shard boundaries, got {}",
                p - 1,
                boundaries.len()
            )));
        }
        let mut counts = Vec::with_capacity(p);
        let mut start = 0usize;
        for &end in boundaries.iter().chain(std::iter::once(&n)) {
            if end < start || end > n {
                return Err(CoreError::InvalidConfig(format!(
                    "shard boundaries must be ascending and at most n = {n}"
                )));
            }
            counts.push(end - start);
            start = end;
        }
        let budget = RowBudget {
            n,
            k_budget,
            elem,
            input_bytes,
            tiling,
        };
        let devices: Vec<usize> = (0..p).collect();
        Self::from_counts(n, &devices, &counts, |device, rows| {
            budget.shard_tile_rows(rows.len(), &topology.devices[device], device)
        })
    }

    /// Consecutive entries of `counts[i]` rows on `devices[i]`, each sized
    /// by `fit(device, rows)`.
    fn from_counts(
        n: usize,
        devices: &[usize],
        counts: &[usize],
        mut fit: impl FnMut(usize, &Range<usize>) -> Result<usize>,
    ) -> Result<Self> {
        let mut shards = Vec::with_capacity(devices.len());
        let mut start = 0usize;
        for (&device, &count) in devices.iter().zip(counts) {
            let rows = start..start + count;
            start = rows.end;
            let tile_rows = fit(device, &rows)?;
            shards.push(DeviceShard {
                device,
                rows,
                tile_rows,
            });
        }
        debug_assert_eq!(start, n);
        Ok(Self { n, shards })
    }

    /// The re-plan behind the stream's recovery: re-partition the `lost`
    /// device's rows over the surviving (`alive` and not `lost`) devices,
    /// throughput-weighted, splicing the replacement chunks exactly where
    /// the lost entries sat so the global row order — and therefore every
    /// fold order — is unchanged. Each migrated chunk is sized beside what
    /// its survivor already holds (`held`, one figure per entry of `self`)
    /// for `rows`' representation ([`ShardRows::migrated_chunk`]).
    ///
    /// Returns the new plan, a carry map aligned with its entries (`Some(i)`
    /// marks an entry carried verbatim from index `i` of `self`, whose
    /// resident cache survives; `None` a fresh chunk whose tiles the new
    /// owner must compute) and the bytes each of its entries holds.
    fn splice<R: ShardRows + ?Sized>(
        &self,
        held: &[u64],
        lost: usize,
        topology: &DeviceTopology,
        alive: &[bool],
        budget: &RowBudget,
        rows: &R,
    ) -> Result<(ShardPlan, Vec<Option<usize>>, Vec<u64>)> {
        let survivors: Vec<usize> = (0..topology.devices.len())
            .filter(|&d| d != lost && alive.get(d).copied().unwrap_or(false))
            .collect();
        if survivors.is_empty() {
            return Err(CoreError::InvalidConfig(format!(
                "device {lost} was lost but no alive devices remain to take over its rows"
            )));
        }
        let weights = throughput_weights(&survivors, topology, budget.elem);
        // Per device: the bytes it holds, and the height of the tallest
        // streaming tile buffer it owns (0 for none).
        fn hold(holdings: &mut [(u64, usize)], shard: &DeviceShard, bytes: u64) {
            if let Some((total, buffer)) = holdings.get_mut(shard.device) {
                *total += bytes;
                if bytes > 0 && !shard.is_resident() {
                    *buffer = (*buffer).max(shard.tile_rows);
                }
            }
        }
        let mut holdings = vec![(0u64, 0usize); topology.devices.len()];
        for (shard, &bytes) in self.shards.iter().zip(held) {
            if shard.device != lost {
                hold(&mut holdings, shard, bytes);
            }
        }
        let (mut shards, mut carry, mut new_held) = (Vec::new(), Vec::new(), Vec::new());
        for (index, (shard, &bytes)) in self.shards.iter().zip(held).enumerate() {
            if shard.device != lost {
                shards.push(shard.clone());
                carry.push(Some(index));
                new_held.push(bytes);
                continue;
            }
            let counts = proportional_rows(shard.rows.len(), &weights);
            let mut start = shard.rows.start;
            for (&device, &count) in survivors.iter().zip(&counts) {
                if count == 0 {
                    continue;
                }
                let range = start..start + count;
                start = range.end;
                let (total, buffer) = holdings[device];
                let spec = &topology.devices[device];
                let (tile_rows, bytes) =
                    rows.migrated_chunk(budget, spec, device, &range, total, buffer)?;
                let chunk = DeviceShard {
                    device,
                    rows: range,
                    tile_rows,
                };
                hold(&mut holdings, &chunk, bytes);
                shards.push(chunk);
                carry.push(None);
                new_held.push(bytes);
            }
        }
        Ok((ShardPlan { n: self.n, shards }, carry, new_held))
    }

    /// Number of points `n` the plan covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-device shards, in row order.
    pub fn shards(&self) -> &[DeviceShard] {
        &self.shards
    }

    /// Number of plan entries (one per device until a re-plan splits rows).
    pub fn device_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct devices that own at least one row — the all-reduce
    /// fires only when this exceeds one.
    pub fn participating_devices(&self) -> usize {
        let mut devices: Vec<usize> = self
            .shards
            .iter()
            .filter(|s| !s.rows.is_empty())
            .map(|s| s.device)
            .collect();
        devices.sort_unstable();
        devices.dedup();
        devices.len()
    }

    /// The device owning row `i`.
    pub fn device_of(&self, row: usize) -> usize {
        self.shards
            .iter()
            .find(|s| s.rows.contains(&row))
            .map(|s| s.device)
            .unwrap_or(0)
    }

    /// The largest per-device sub-tile height in the plan.
    pub fn max_tile_rows(&self) -> usize {
        self.shards.iter().map(|s| s.tile_rows).max().unwrap_or(0)
    }
}

/// The devices `alive` leaves in the plan (all of them for `None`), after
/// checking the mask covers the topology and keeps at least one device.
fn alive_devices(topology: &DeviceTopology, alive: Option<&[bool]>) -> Result<Vec<usize>> {
    let p = topology.devices.len();
    if let Some(mask) = alive {
        if mask.len() != p {
            return Err(CoreError::InvalidConfig(format!(
                "liveness mask covers {} devices but the topology has {p}",
                mask.len()
            )));
        }
    }
    let active: Vec<usize> = (0..p).filter(|&d| alive.is_none_or(|m| m[d])).collect();
    if active.is_empty() {
        return Err(CoreError::InvalidConfig(
            "no alive devices left to shard the kernel matrix over".into(),
        ));
    }
    Ok(active)
}

/// The topology of an executor that reports several shards.
fn executor_topology(executor: &dyn Executor) -> Result<&DeviceTopology> {
    executor.topology().ok_or_else(|| {
        CoreError::InvalidConfig(
            "the executor reports multiple shards but no device topology; an Executor \
             implementation overriding shard_count() must also override topology()"
                .into(),
        )
    })
}

/// Which devices of `topology` the executor reports alive.
fn alive_mask(executor: &dyn Executor, topology: &DeviceTopology) -> Vec<bool> {
    (0..topology.devices.len())
        .map(|d| executor.shard_alive(d))
        .collect()
}

fn throughput_weights(devices: &[usize], topology: &DeviceTopology, elem: usize) -> Vec<u128> {
    devices
        .iter()
        .map(|&d| throughput_weight(&topology.devices[d], elem))
        .collect()
}

/// Integer-scaled relative throughput of one device at the fit's element
/// width: `sqrt(peak GFLOP/s × memory GB/s)`, the geometric mean of the two
/// roofline ceilings, scaled by 10⁶ and rounded. The integer scaling makes
/// uniform pools produce *exactly* the `d·n/p` boundaries of
/// [`ShardPlan::balanced`] (float boundaries could round a degenerate pool
/// off by one).
fn throughput_weight(spec: &DeviceSpec, elem: usize) -> u128 {
    let ceiling = (spec.peak_gflops_for(elem) * spec.mem_bandwidth_gbs).sqrt();
    ((ceiling * 1e6).round() as u128).max(1)
}

/// Split `n` rows proportionally to `weights` via cumulative integer
/// boundaries (`end_i = ⌊cum_i · n / total⌋`), so the counts always sum to
/// `n` and equal weights reproduce the balanced split exactly.
fn proportional_rows(n: usize, weights: &[u128]) -> Vec<usize> {
    let total: u128 = weights.iter().sum::<u128>().max(1);
    let mut counts = Vec::with_capacity(weights.len());
    let mut cum = 0u128;
    let mut prev = 0usize;
    for &w in weights {
        cum += w;
        let end = usize::try_from(cum * n as u128 / total).expect("boundary bounded by n");
        counts.push(end - prev);
        prev = end;
    }
    counts
}

/// [`proportional_rows`] with optional per-entry row caps: capped entries are
/// pinned at their cap and the overflow is redistributed proportionally over
/// the rest, iterating until stable. `None` when the caps cannot absorb all
/// `n` rows.
fn capped_proportional_rows(
    n: usize,
    weights: &[u128],
    caps: &[Option<usize>],
) -> Option<Vec<usize>> {
    let m = weights.len();
    let mut fixed: Vec<Option<usize>> = vec![None; m];
    loop {
        let free: Vec<usize> = (0..m).filter(|&i| fixed[i].is_none()).collect();
        let assigned: usize = fixed.iter().flatten().sum();
        let remaining = n - assigned;
        if free.is_empty() {
            return (remaining == 0).then(|| fixed.into_iter().flatten().collect());
        }
        let free_weights: Vec<u128> = free.iter().map(|&i| weights[i]).collect();
        let sub = proportional_rows(remaining, &free_weights);
        let mut capped_any = false;
        for (j, &i) in free.iter().enumerate() {
            if let Some(cap) = caps[i] {
                if sub[j] > cap {
                    fixed[i] = Some(cap);
                    capped_any = true;
                }
            }
        }
        if !capped_any {
            for (j, &i) in free.iter().enumerate() {
                fixed[i] = Some(sub[j]);
            }
            return Some(fixed.into_iter().flatten().collect());
        }
    }
}

/// The fit-level numbers a dense re-plan sizes tile buffers against: the
/// replicated workspace of an `n`-point fit with `k_budget` distance columns
/// and `input_bytes` of other replicated state, under the fit's policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowBudget {
    pub(crate) n: usize,
    pub(crate) k_budget: usize,
    pub(crate) elem: usize,
    pub(crate) input_bytes: u64,
    pub(crate) tiling: TilePolicy,
}

impl RowBudget {
    /// The workspace every device holds besides its plan entries.
    pub(crate) fn workspace(&self) -> u128 {
        workspace_bytes(self.n, self.k_budget, self.elem, self.input_bytes)
    }

    /// Per-device tile planning: map the fit-level [`TilePolicy`] onto one
    /// device's shard of `shard_rows` rows, reusing [`plan_tile_rows`] for
    /// the capacity math. A capacity rejection is promoted to
    /// [`CoreError::DeviceShardMemoryExceeded`] so the failing device of a
    /// heterogeneous pool is named. An empty shard plans no tile.
    fn shard_tile_rows(
        &self,
        shard_rows: usize,
        spec: &DeviceSpec,
        device: usize,
    ) -> Result<usize> {
        if shard_rows == 0 {
            return Ok(0);
        }
        let plan = |policy: TilePolicy| {
            plan_tile_rows(
                self.n,
                self.k_budget,
                self.elem,
                self.input_bytes,
                policy,
                spec,
            )
            .map_err(|e| match e {
                CoreError::DeviceMemoryExceeded {
                    required_bytes,
                    available_bytes,
                } => CoreError::DeviceShardMemoryExceeded {
                    device,
                    required_bytes,
                    available_bytes,
                },
                other => other,
            })
        };
        match self.tiling {
            // "Full" on a sharded fit means: every device keeps its whole
            // shard resident; reject the topology if a device cannot.
            TilePolicy::Full => plan(TilePolicy::Rows(shard_rows)),
            // `plan_tile_rows` rejects a zero height.
            TilePolicy::Rows(rows) => plan(TilePolicy::Rows(rows.min(shard_rows))),
            TilePolicy::Auto => {
                let rows = plan(TilePolicy::Auto)?;
                Ok(rows.min(shard_rows))
            }
        }
    }

    /// Rows `spec` can hold resident next to the replicated fit workspace
    /// and `held` bytes of other entries — with nothing held, the
    /// [`TilePolicy::Full`] capacity cap, matching [`plan_tile_rows`]'
    /// `workspace + rows·n·elem ≤ mem` check exactly.
    fn resident_rows(&self, spec: &DeviceSpec, held: u64) -> usize {
        let free = (spec.mem_bytes as u128).saturating_sub(self.workspace() + held as u128);
        let per_row = (self.n as u128 * self.elem as u128).max(1);
        usize::try_from(free / per_row).unwrap_or(usize::MAX)
    }

    /// One `tile_rows × n` buffer: what a dense entry holds.
    fn tile_buffer(&self, shard: &DeviceShard) -> u64 {
        tile_bytes(shard.tile_rows, self.n, self.elem)
    }
}

/// Attributes work to one device while alive and restores "no active shard"
/// on drop, so an error inside a shard's tile stream cannot leave the
/// executor attributing unrelated work to a device.
pub(crate) struct ActiveShard<'a> {
    executor: &'a dyn Executor,
}

impl<'a> ActiveShard<'a> {
    /// Activate `device` on a sharded executor; `None` on a single-shard
    /// one, where activating shard 0 would move charges off the serial
    /// bucket.
    pub(crate) fn on(executor: &'a dyn Executor, device: usize) -> Option<Self> {
        (executor.shard_count() > 1).then(|| {
            executor.activate_shard(Some(device));
            Self { executor }
        })
    }
}

impl Drop for ActiveShard<'_> {
    fn drop(&mut self) {
        self.executor.activate_shard(None);
    }
}

/// What a kernel representation adds to the [`ShardStream`]. The defaults
/// describe dense tile buffers (exact and Nyström panels).
///
/// The stream calls these hooks while it holds its own state lock: a hook
/// must not call back into the stream, and may take a representation lock
/// (such as the exact source's resident cache) only after it.
pub(crate) trait ShardRows {
    /// Bytes a device holds for plan entry `shard`.
    fn held_bytes(&self, budget: &RowBudget, shard: &DeviceShard) -> u64 {
        budget.tile_buffer(shard)
    }

    /// How survivor `device` (`spec`) takes over the migrated `rows`: their
    /// tile height and the bytes it newly holds for them, or its capacity
    /// error. The device already holds `held` bytes for its other entries
    /// and owns a streaming tile buffer of `buffer` rows (0 for none).
    ///
    /// Dense panels take the policy's height, shrunk to what fits beside the
    /// holdings. When that falls short and the streaming buffer is taller,
    /// they stream through that buffer instead — the device walks its entries
    /// one after another — and hold nothing new. Under [`TilePolicy::Full`]
    /// the rows must fit resident.
    fn migrated_chunk(
        &self,
        budget: &RowBudget,
        spec: &DeviceSpec,
        device: usize,
        rows: &Range<usize>,
        held: u64,
        buffer: usize,
    ) -> Result<(usize, u64)> {
        let planned = budget.shard_tile_rows(rows.len(), spec, device)?;
        let fits = budget.resident_rows(spec, held);
        let full = budget.tiling == TilePolicy::Full;
        if !full && fits < planned && buffer > fits {
            return Ok((planned.min(buffer), 0));
        }
        let needed = if full { rows.len() } else { 1 };
        if fits < needed {
            let required = budget.workspace()
                + held as u128
                + tile_bytes(needed, budget.n, budget.elem) as u128;
            return Err(CoreError::DeviceShardMemoryExceeded {
                device,
                required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                available_bytes: spec.mem_bytes,
            });
        }
        let tile_rows = planned.min(fits);
        Ok((tile_rows, tile_bytes(tile_rows, budget.n, budget.elem)))
    }

    /// The side effect of one recovery beyond moving residency: `carry`
    /// maps each entry of `plan` to the entry of `old` it was carried from
    /// (`None` for a migrated chunk).
    fn replanned(
        &self,
        _old: &ShardPlan,
        _lost: usize,
        _plan: &ShardPlan,
        _carry: &[Option<usize>],
        _executor: &dyn Executor,
        _report: &mut RecoveryReport,
    ) {
    }
}

/// The callback of [`ShardStream::walk`]: `f(resident, rows)` for one tile.
/// `resident` is `Some(entry)` when plan entry `entry` keeps all its rows in
/// a buffer of its own — a tile the representation may cache across passes —
/// and `None` while the entry streams.
pub(crate) type EntryVisitor<'a> = dyn FnMut(Option<usize>, Range<usize>) -> Result<()> + 'a;

/// The plan in force, the bytes each of its entries holds on its device (0
/// for a chunk streaming through a buffer its device already owns) and the
/// number of completed passes.
#[derive(Debug)]
struct PassState {
    plan: ShardPlan,
    held: Vec<u64>,
    pass: usize,
}

/// The elastic row protocol, shared by every kernel representation: owns the
/// [`ShardPlan`] and the pass counter, drains fault events at each pass
/// boundary, re-plans after a loss (moving residency and filling the
/// [`RecoveryReport`]), walks the entries in global row order under one
/// [`ActiveShard`] guard per entry and charges the all-reduce when more than
/// one device took part in the pass.
#[derive(Debug)]
pub(crate) struct ShardStream {
    /// Behind a mutex because a mid-fit device loss re-plans it; the
    /// [`KernelSource`] `Sync` contract rules out a `RefCell`. Lock order:
    /// this state before any lock of the representation.
    state: Mutex<PassState>,
    pub(crate) budget: RowBudget,
}

impl ShardStream {
    /// A stream over `plan`, re-planning against `budget`. Call
    /// [`ShardStream::track`] once the owning representation exists.
    pub(crate) fn new(plan: ShardPlan, budget: RowBudget) -> Self {
        Self {
            state: Mutex::new(PassState {
                plan,
                held: Vec::new(),
                pass: 0,
            }),
            budget,
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PassState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A snapshot of the plan in force (a device loss may re-plan between
    /// passes).
    pub(crate) fn plan(&self) -> ShardPlan {
        self.state().plan.clone()
    }

    /// Track what every device holds for its entries, each on its owner.
    pub(crate) fn track<R: ShardRows + ?Sized>(&self, rows: &R, executor: &dyn Executor) {
        let state = &mut *self.state();
        state.held = state
            .plan
            .shards()
            .iter()
            .map(|shard| {
                let _active = ActiveShard::on(executor, shard.device);
                let bytes = rows.held_bytes(&self.budget, shard);
                executor.track_alloc(bytes);
                bytes
            })
            .collect();
    }

    /// Attribute work on row `i` (a seed row pull) to the device owning it.
    pub(crate) fn on_row<'e>(
        &self,
        executor: &'e dyn Executor,
        i: usize,
    ) -> Option<ActiveShard<'e>> {
        ActiveShard::on(executor, self.state().plan.device_of(i))
    }

    /// One full pass: `f` for each tile of each entry in global row order,
    /// with the entry's device active, then the all-reduce of the distance
    /// partials when several devices took part.
    pub(crate) fn walk<R: ShardRows + ?Sized>(
        &self,
        rows: &R,
        executor: &dyn Executor,
        f: &mut EntryVisitor<'_>,
    ) -> Result<()> {
        let (plan, held) = self.begin_pass(rows, executor)?;
        for (index, (shard, &bytes)) in plan.shards().iter().zip(&held).enumerate() {
            if shard.rows.is_empty() {
                continue;
            }
            let resident = (shard.is_resident() && bytes > 0).then_some(index);
            let _active = ActiveShard::on(executor, shard.device);
            let mut r0 = shard.rows.start;
            while r0 < shard.rows.end {
                let r1 = (r0 + shard.tile_rows.max(1)).min(shard.rows.end);
                f(resident, r0..r1)?;
                r0 = r1;
            }
        }
        if plan.participating_devices() > 1 {
            // Every device's rows of the `n × k` partials plus the
            // `k`-length cluster statistics.
            let RowBudget {
                n, k_budget, elem, ..
            } = self.budget;
            executor.charge(
                format!("all-reduce distance partials (n={n}, k={k_budget})"),
                Phase::PairwiseDistances,
                OpClass::AllReduce,
                OpCost::transfer((n as u64 + 1) * k_budget as u64 * elem as u64),
            );
        }
        Ok(())
    }

    /// Drain due fault events at the pass boundary, resume in place after
    /// each device loss, bump the pass counter and return this pass's plan
    /// with its per-entry holdings. The topology is read before polling, so
    /// every drained loss has one to recover on.
    fn begin_pass<R: ShardRows + ?Sized>(
        &self,
        rows: &R,
        executor: &dyn Executor,
    ) -> Result<(ShardPlan, Vec<u64>)> {
        let mut state = self.state();
        if let Some(topology) = executor.topology().filter(|_| executor.shard_count() > 1) {
            while let Some(event) = executor.poll_fault(state.pass) {
                let FaultKind::DeviceLost { device } = event.kind;
                self.recover(&mut state, device, topology, rows, executor)?;
            }
        }
        state.pass += 1;
        Ok((state.plan.clone(), state.held.clone()))
    }

    /// Resume in place after losing `lost`: splice its rows over the
    /// survivors beside what they hold, free its holdings, track the
    /// migrated chunks on their new owners, run the representation's side
    /// effect and account the recovery on the executor. Runs under the
    /// state lock, so the [`ShardRows`] hooks must not re-enter the stream.
    fn recover<R: ShardRows + ?Sized>(
        &self,
        state: &mut PassState,
        lost: usize,
        topology: &DeviceTopology,
        rows: &R,
        executor: &dyn Executor,
    ) -> Result<()> {
        let before = executor.total_modeled_seconds();
        let alive = alive_mask(executor, topology);
        let (plan, carry, held) =
            state
                .plan
                .splice(&state.held, lost, topology, &alive, &self.budget, rows)?;
        let mut delta = RecoveryReport::default();
        for (shard, &bytes) in state.plan.shards().iter().zip(&state.held) {
            if shard.device == lost {
                delta.rows_migrated += shard.rows.len() as u64;
                let _active = ActiveShard::on(executor, lost);
                executor.track_free(bytes);
            }
        }
        for ((shard, &bytes), carried) in plan.shards().iter().zip(&held).zip(&carry) {
            if carried.is_none() {
                let _active = ActiveShard::on(executor, shard.device);
                executor.track_alloc(bytes);
            }
        }
        rows.replanned(&state.plan, lost, &plan, &carry, executor, &mut delta);
        delta.reshard_seconds = executor.total_modeled_seconds() - before;
        (state.plan, state.held) = (plan, held);
        executor.note_recovery(&delta);
        Ok(())
    }
}

/// A [`KernelSource`] that streams `K` in global row order while attributing
/// each device's rows — recomputation *and* the engine work folded over them
/// — to that device, then charges the per-pass all-reduce of the distance
/// partials against the topology's link.
///
/// The source is *elastic*: every [`KernelSource::for_each_panel`] pass starts
/// by draining the executor's fault schedule and, on a device loss,
/// re-partitions the lost rows over the survivors in place (see the module
/// docs). Recovered fits stay bit-identical to a fresh fit on the surviving
/// topology because only pricing attribution ever moves.
pub struct ShardedKernelSource<'a, T: Scalar> {
    inner: TiledKernel<'a, T>,
    stream: ShardStream,
    /// Resident shards (`DeviceShard::is_resident`, in a buffer of their own)
    /// are computed — and charged to their device — exactly once, as packed
    /// lower panels, then replayed from this cache on later passes, the
    /// multi-device analogue of [`crate::FullKernel`]'s charge-once
    /// semantics. Streaming (sub-tiled) shards, and migrated chunks
    /// streaming through a survivor's buffer, never cache. Indexed in
    /// lockstep with the plan's entries; a recovery rebuilds it through the
    /// carry map so survivors keep their caches. A `Mutex` (not `RefCell`)
    /// so the source satisfies the [`KernelSource`] `Sync` contract; the
    /// panel stream itself always runs on the driver thread.
    resident: Mutex<Vec<Option<Vec<T>>>>,
}

impl<'a, T: Scalar> ShardedKernelSource<'a, T> {
    /// Build a sharded source over retained points. Charges the (replicated)
    /// Gram-diagonal computation once, tracks the replicated bookkeeping on
    /// every device and each device's tile buffer on that device alone.
    pub fn new(
        points: FitInput<'a, T>,
        kernel: KernelFunction,
        plan: ShardPlan,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = points.n();
        if plan.n() != n {
            return Err(CoreError::InvalidConfig(format!(
                "shard plan covers {} rows but the input has {n} points",
                plan.n()
            )));
        }
        let elem = std::mem::size_of::<T>();
        let budget = RowBudget {
            n,
            k_budget,
            elem,
            input_bytes: points.upload_bytes(),
            tiling: TilePolicy::Auto,
        };
        let inner = TiledKernel::build(points, kernel, plan.max_tile_rows().max(1), executor)?;
        // The kernel diagonal is read by every device's tile transform:
        // replicated bookkeeping, tracked on all devices.
        executor.track_alloc(n as u64 * elem as u64);
        let resident = Mutex::new((0..plan.shards().len()).map(|_| None).collect());
        let source = Self {
            inner,
            stream: ShardStream::new(plan, budget),
            resident,
        };
        source.stream.track(&source, executor);
        Ok(source)
    }

    /// Set the fit-level tile policy the stream's recovery re-plans size
    /// migrated rows with after a device loss (defaults to
    /// [`TilePolicy::Auto`]). The constructor's plan was already built with
    /// it; this leaves that plan untouched.
    pub fn with_tiling(mut self, tiling: TilePolicy) -> Self {
        self.stream.budget.tiling = tiling;
        self
    }

    /// The row partition and per-device tiling currently in effect (a
    /// snapshot — a device loss may re-plan between passes).
    pub fn plan(&self) -> ShardPlan {
        self.stream.plan()
    }
}

impl<T: Scalar> ShardRows for ShardedKernelSource<'_, T> {
    /// The lost device's resident tiles are gone: count them as replayed
    /// (their new owners recompute them in the next passes) and carry the
    /// survivors' caches into the new plan.
    fn replanned(
        &self,
        old: &ShardPlan,
        lost: usize,
        _plan: &ShardPlan,
        carry: &[Option<usize>],
        _executor: &dyn Executor,
        report: &mut RecoveryReport,
    ) {
        let mut cache = self.resident.lock().unwrap_or_else(|p| p.into_inner());
        for (shard, cached) in old.shards().iter().zip(cache.iter()) {
            if shard.device == lost && cached.is_some() {
                report.replayed_tiles += 1;
                report.replayed_bytes +=
                    tile_bytes(shard.rows.len(), old.n(), std::mem::size_of::<T>());
            }
        }
        let rebuilt = carry
            .iter()
            .map(|c| c.and_then(|i| cache[i].take()))
            .collect();
        *cache = rebuilt;
    }
}

impl<T: Scalar> KernelSource<T> for ShardedKernelSource<'_, T> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn diag(&self, executor: &dyn Executor) -> Result<Vec<T>> {
        // Computed from the replicated Gram diagonal: serial/replicated work.
        self.inner.diag(executor)
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        // Seed rows are produced by (and priced on) the device owning them.
        let _active = self.stream.on_row(executor, i);
        self.inner.row(i, executor)
    }

    /// Every panel is a lower panel of the exact tiled source, in global
    /// row order.
    fn panel_kind(&self) -> PanelKind {
        PanelKind::Lower
    }

    /// One pass of the shard stream: a resident shard's panel is computed
    /// (and charged) on the first pass, and replayed for free afterwards.
    fn for_each_panel(
        &self,
        executor: &dyn Executor,
        _columns: Option<&[usize]>,
        f: &mut PanelVisitor<'_, T>,
    ) -> Result<()> {
        let compute = |rows: &Range<usize>| {
            self.inner
                .compute_lower_tile(rows.start, rows.end, executor)
        };
        let mut visit = |rows: Range<usize>, tile: &[T]| {
            f(rows.clone(), Panel::Lower(PackedRows::new(rows, tile)?))
        };
        self.stream.walk(self, executor, &mut |resident, rows| {
            let Some(index) = resident else {
                return visit(rows.clone(), &compute(&rows)?);
            };
            let mut cache = self.resident.lock().unwrap_or_else(|p| p.into_inner());
            let tile = match &mut cache[index] {
                Some(tile) => tile,
                empty => empty.insert(compute(&rows)?),
            };
            visit(rows, tile)
        })
    }

    fn resident(&self) -> ResidentKernel<T> {
        ResidentKernel::Streamed {
            tile_rows: self.stream.plan().max_tile_rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_matrix::compute_kernel_matrix;
    use crate::strategy::KernelMatrixStrategy;
    use popcorn_dense::DenseMatrix;
    use popcorn_gpusim::{DeviceSpec, FaultPlan, LinkSpec, ShardedExecutor, SimExecutor, GIB};

    fn topo(p: usize) -> DeviceTopology {
        DeviceTopology::homogeneous(DeviceSpec::a100_80gb(), p, LinkSpec::nvlink())
    }

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            if (i + j) % 4 == 0 {
                0.0
            } else {
                ((i * d + j) as f64 * 0.29).sin() * 2.0
            }
        })
    }

    #[test]
    fn balanced_plan_partitions_all_rows() {
        for p in [1usize, 2, 3, 4, 7, 16] {
            let plan = ShardPlan::balanced(100, 10, 8, 1000, TilePolicy::Auto, &topo(p)).unwrap();
            assert_eq!(plan.device_count(), p);
            let mut next = 0usize;
            for (d, shard) in plan.shards().iter().enumerate() {
                assert_eq!(shard.device, d);
                assert_eq!(shard.rows.start, next);
                next = shard.rows.end;
                // Balanced shards differ by at most one row.
                assert!(shard.rows.len() >= 100 / p);
                assert!(shard.rows.len() <= 100 / p + 1);
                // Plenty of memory: every shard is fully resident.
                assert!(shard.is_resident());
            }
            assert_eq!(next, 100);
            assert_eq!(plan.device_of(0), 0);
            assert_eq!(plan.device_of(99), p - 1);
        }
    }

    #[test]
    fn more_devices_than_rows_leaves_empty_shards() {
        let plan = ShardPlan::balanced(3, 2, 8, 100, TilePolicy::Auto, &topo(8)).unwrap();
        let occupied: usize = plan.shards().iter().filter(|s| !s.rows.is_empty()).count();
        assert_eq!(occupied, 3);
        let total: usize = plan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(plan.participating_devices(), 3);
    }

    #[test]
    fn with_boundaries_validates_shape() {
        let t = topo(3);
        assert!(ShardPlan::with_boundaries(10, &[4], 2, 8, 0, TilePolicy::Auto, &t).is_err());
        assert!(
            ShardPlan::with_boundaries(10, &[7, 4], 2, 8, 0, TilePolicy::Auto, &t).is_err(),
            "descending boundaries must be rejected"
        );
        assert!(ShardPlan::with_boundaries(10, &[4, 11], 2, 8, 0, TilePolicy::Auto, &t).is_err());
        let plan = ShardPlan::with_boundaries(10, &[2, 9], 2, 8, 0, TilePolicy::Auto, &t).unwrap();
        assert_eq!(plan.shards()[0].rows, 0..2);
        assert_eq!(plan.shards()[1].rows, 2..9);
        assert_eq!(plan.shards()[2].rows, 9..10);
    }

    #[test]
    fn throughput_plan_degenerates_to_balanced_on_uniform_pools() {
        for p in [1usize, 2, 3, 5, 8] {
            let t = topo(p);
            let balanced = ShardPlan::balanced(101, 7, 8, 4096, TilePolicy::Auto, &t).unwrap();
            let weighted =
                ShardPlan::balanced_by_throughput(101, 7, 8, 4096, TilePolicy::Auto, &t, None)
                    .unwrap();
            assert_eq!(weighted, balanced, "p={p}");
        }
    }

    #[test]
    fn throughput_plan_favors_faster_devices_and_skips_dead_ones() {
        let mixed = DeviceTopology {
            devices: vec![
                DeviceSpec::a100_80gb(),
                DeviceSpec::h100_80gb(),
                DeviceSpec::a100_80gb(),
            ],
            interconnect: LinkSpec::nvlink(),
        };
        let n = 3_000;
        let plan =
            ShardPlan::balanced_by_throughput(n, 8, 8, 0, TilePolicy::Auto, &mixed, None).unwrap();
        let total: usize = plan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, n);
        let a100 = plan.shards()[0].rows.len();
        let h100 = plan.shards()[1].rows.len();
        assert!(
            h100 > a100,
            "the H100 must take the larger shard ({h100} vs {a100})"
        );
        // The two A100s get identical shares (up to the boundary rounding).
        assert!(plan.shards()[2].rows.len().abs_diff(a100) <= 1);
        // Masking a device out removes its entry entirely.
        let survivors = ShardPlan::balanced_by_throughput(
            n,
            8,
            8,
            0,
            TilePolicy::Auto,
            &mixed,
            Some(&[true, false, true]),
        )
        .unwrap();
        assert_eq!(survivors.device_count(), 2);
        assert!(survivors.shards().iter().all(|s| s.device != 1));
        let total: usize = survivors.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, n);
        assert!(ShardPlan::balanced_by_throughput(
            n,
            8,
            8,
            0,
            TilePolicy::Auto,
            &mixed,
            Some(&[false, false, false]),
        )
        .is_err());
    }

    #[test]
    fn throughput_plan_caps_full_shards_at_device_capacity() {
        // One roomy device next to one that can only hold a sliver: under
        // Full the sliver device is pinned at its cap and the rest flows to
        // the roomy one.
        let n = 20_000usize;
        let elem = 8usize;
        let small_rows = 2_000usize;
        let small_bytes = u64::try_from(workspace_bytes(n, 10, elem, 0)).unwrap()
            + (small_rows * n * elem) as u64;
        let lopsided = DeviceTopology {
            devices: vec![
                DeviceSpec::a100_80gb(),
                DeviceSpec::a100_80gb().with_mem_bytes(small_bytes),
            ],
            interconnect: LinkSpec::nvlink(),
        };
        let plan =
            ShardPlan::balanced_by_throughput(n, 10, elem, 0, TilePolicy::Full, &lopsided, None)
                .unwrap();
        assert_eq!(plan.shards()[1].rows.len(), small_rows);
        assert_eq!(plan.shards()[0].rows.len(), n - small_rows);
        assert!(plan.shards().iter().all(|s| s.is_resident()));
        // Streamed policies ignore the cap: the small device sub-tiles.
        let auto =
            ShardPlan::balanced_by_throughput(n, 10, elem, 0, TilePolicy::Auto, &lopsided, None)
                .unwrap();
        assert_eq!(auto.shards()[0].rows.len(), n / 2);
    }

    #[test]
    fn full_policy_rejects_devices_too_small_for_their_shard() {
        // 20k rows over 2 devices: each shard is 10k x 20k f64 = 1.6 GB.
        let n = 20_000;
        let small = DeviceTopology::homogeneous(
            DeviceSpec::a100_80gb().with_mem_bytes(GIB),
            2,
            LinkSpec::nvlink(),
        );
        let err = ShardPlan::balanced(n, 10, 8, 0, TilePolicy::Full, &small).unwrap_err();
        assert!(matches!(err, CoreError::DeviceShardMemoryExceeded { .. }));
        // The throughput planner reports the same exhaustion (every device
        // capped below its share).
        let err = ShardPlan::balanced_by_throughput(n, 10, 8, 0, TilePolicy::Full, &small, None)
            .unwrap_err();
        assert!(matches!(err, CoreError::DeviceShardMemoryExceeded { .. }));
        // Auto succeeds by sub-tiling inside each shard.
        let plan = ShardPlan::balanced(n, 10, 8, 0, TilePolicy::Auto, &small).unwrap();
        assert!(plan.shards().iter().all(|s| s.tile_rows < s.rows.len()));
        // And an explicit row height is clamped to the shard.
        let plan = ShardPlan::balanced(n, 10, 8, 0, TilePolicy::Rows(1_000), &small).unwrap();
        assert!(plan.shards().iter().all(|s| s.tile_rows == 1_000));
    }

    #[test]
    fn shard_capacity_error_names_the_device_and_both_byte_figures() {
        // Device 1 is too small for its 12k-row shard under Full; the error
        // must name it and quote both byte figures so a heterogeneous-pool
        // failure is actionable.
        let n = 20_000usize;
        let elem = 8usize;
        let topology = DeviceTopology {
            devices: vec![
                DeviceSpec::a100_80gb(),
                DeviceSpec::a100_80gb().with_mem_bytes(GIB),
            ],
            interconnect: LinkSpec::nvlink(),
        };
        let err = ShardPlan::with_boundaries(n, &[8_000], 10, elem, 0, TilePolicy::Full, &topology)
            .unwrap_err();
        let required =
            u64::try_from(workspace_bytes(n, 10, elem, 0) + tile_bytes(12_000, n, elem) as u128)
                .unwrap();
        assert_eq!(
            err,
            CoreError::DeviceShardMemoryExceeded {
                device: 1,
                required_bytes: required,
                available_bytes: GIB,
            }
        );
        let message = err.to_string();
        assert_eq!(
            message,
            format!(
                "device 1 cannot hold its shard: the shard layout needs {required} bytes \
                 resident but device 1 holds {GIB} bytes; move the boundaries, use the auto \
                 tiling policy, or drop the device"
            )
        );
    }

    /// Dense tile buffers that keep the carry map of the last re-plan.
    #[derive(Default)]
    struct CarryLog(Mutex<Vec<Option<usize>>>);

    impl ShardRows for CarryLog {
        fn replanned(
            &self,
            _old: &ShardPlan,
            _lost: usize,
            _plan: &ShardPlan,
            carry: &[Option<usize>],
            _executor: &dyn Executor,
            _report: &mut RecoveryReport,
        ) {
            *self.0.lock().unwrap() = carry.to_vec();
        }
    }

    #[test]
    fn recovery_splices_lost_rows_and_carries_survivors() {
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        // One pass of a 90-row stream over three devices, under `faults`:
        // the plan after it, the carry map of its last re-plan and the
        // pass's outcome.
        let run = |faults: FaultPlan| {
            let exec = base.with_fault_plan(faults);
            let plan =
                ShardPlan::balanced(90, 5, 8, 0, TilePolicy::Auto, exec.device_topology()).unwrap();
            let budget = RowBudget {
                n: 90,
                k_budget: 5,
                elem: 8,
                input_bytes: 0,
                tiling: TilePolicy::Auto,
            };
            let stream = ShardStream::new(plan, budget);
            let log = CarryLog::default();
            stream.track(&log, &exec);
            let walked = stream.walk(&log, &exec, &mut |_, _| Ok(()));
            (stream.plan(), log.0.into_inner().unwrap(), walked)
        };
        let (replan, carry, walked) = run(FaultPlan::new().lose(1, 0));
        walked.unwrap();
        // Device 1's 30 rows are spliced (in place) over devices 0 and 2.
        let total: usize = replan.shards().iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 90);
        assert!(replan.shards().iter().all(|s| s.device != 1));
        assert_eq!(replan.participating_devices(), 2);
        // Contiguous global cover is preserved.
        let mut next = 0usize;
        for shard in replan.shards() {
            assert_eq!(shard.rows.start, next);
            next = shard.rows.end;
        }
        assert_eq!(next, 90);
        // The carry map keeps the surviving entries and marks the fresh
        // chunks.
        assert_eq!(carry.len(), replan.shards().len());
        assert_eq!(carry[0], Some(0), "device 0's entry is carried");
        assert_eq!(
            carry.iter().filter(|c| c.is_none()).count(),
            2,
            "device 1's rows became two fresh chunks"
        );
        assert_eq!(
            *carry.last().unwrap(),
            Some(2),
            "device 2's entry is carried"
        );
        // Losing everything is rejected.
        let (_, _, walked) = run(FaultPlan::new().lose(0, 0).lose(1, 0).lose(2, 0));
        assert!(walked.is_err());
    }

    #[test]
    fn sharded_source_reassembles_the_full_kernel_matrix_bit_for_bit() {
        let points = sample_points(17, 5);
        let exec = SimExecutor::a100_f32();
        let (full, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        for p in [2usize, 3, 5] {
            let sharded_exec =
                ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), p, LinkSpec::nvlink(), 8);
            let plan = ShardPlan::balanced(
                17,
                3,
                8,
                17 * 5 * 8,
                TilePolicy::Auto,
                sharded_exec.device_topology(),
            )
            .unwrap();
            let source = ShardedKernelSource::new(
                FitInput::Dense(&points),
                KernelFunction::paper_polynomial(),
                plan,
                3,
                &sharded_exec,
            )
            .unwrap();
            // Lower panels in row order, the oracle's lower triangle.
            let out = crate::kernel_source::tests::panel_pass(&source, &sharded_exec, None);
            for i in 0..17 {
                for j in 0..17 {
                    assert_eq!(
                        out[(i, j)].to_bits(),
                        full[(i, j)].to_bits(),
                        "p={p} ({i},{j})"
                    );
                }
            }
            // Every occupied device did concurrent work, and the pass ended
            // with exactly one all-reduce priced on the link.
            let busy = sharded_exec
                .per_device_modeled_seconds()
                .into_iter()
                .filter(|&s| s > 0.0)
                .count();
            assert_eq!(busy, p.min(17));
            assert!(sharded_exec.comm_modeled_seconds() > 0.0);
            let trace = sharded_exec.trace();
            let all_reduces = trace
                .records()
                .iter()
                .filter(|r| r.class == OpClass::AllReduce)
                .count();
            assert_eq!(all_reduces, 1);
            // No shard left active after the pass.
            sharded_exec.charge("probe", Phase::Other, OpClass::Other, OpCost::new(1, 1, 1));
            let serial_before = sharded_exec.serial_modeled_seconds();
            assert!(serial_before > 0.0, "post-pass ops must be serial");
        }
    }

    #[test]
    fn sharded_rows_are_priced_on_their_owning_device() {
        let points = sample_points(12, 4);
        let sharded_exec =
            ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        let plan = ShardPlan::balanced(
            12,
            2,
            8,
            12 * 4 * 8,
            TilePolicy::Auto,
            sharded_exec.device_topology(),
        )
        .unwrap();
        let source = ShardedKernelSource::new(
            FitInput::Dense(&points),
            KernelFunction::Linear,
            plan,
            2,
            &sharded_exec,
        )
        .unwrap();
        // Row 11 lives on device 2.
        let row = source.row(11, &sharded_exec).unwrap();
        assert_eq!(row.len(), 12);
        let seconds = sharded_exec.per_device_modeled_seconds();
        assert!(seconds[2] > 0.0);
        assert_eq!(seconds[1], 0.0);
        // diag is replicated/serial.
        let before = sharded_exec.serial_modeled_seconds();
        source.diag(&sharded_exec).unwrap();
        assert!(sharded_exec.serial_modeled_seconds() > before);
        // Per-device tile buffers were tracked on their owners only; the
        // diag bookkeeping on every device.
        let peaks = sharded_exec.per_device_peak_resident_bytes();
        assert!(peaks.iter().all(|&b| b > 0));
    }

    #[test]
    fn device_loss_mid_stream_recovers_bit_identically() {
        let points = sample_points(19, 4);
        let exec = SimExecutor::a100_f32();
        let (full, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        // Device 1 dies at the start of pass 1 (after its pass-0 tiles were
        // cached).
        let faulty = base.with_fault_plan(FaultPlan::new().lose(1, 1));
        let plan =
            ShardPlan::for_executor(19, 3, 8, 19 * 4 * 8, TilePolicy::Auto, &faulty).unwrap();
        let source = ShardedKernelSource::new(
            FitInput::Dense(&points),
            KernelFunction::paper_polynomial(),
            plan,
            3,
            &faulty,
        )
        .unwrap();
        for pass in 0..3 {
            // Row order and the panels' bits survive recovery.
            let out = crate::kernel_source::tests::panel_pass(&source, &faulty, None);
            for i in 0..19 {
                for j in 0..19 {
                    assert_eq!(out[(i, j)].to_bits(), full[(i, j)].to_bits(), "pass {pass}");
                }
            }
        }
        // The plan no longer mentions device 1 and the recovery was
        // accounted: one loss, its rows migrated, its cached tile replayed.
        let plan = source.plan();
        assert!(plan.shards().iter().all(|s| s.device != 1));
        assert_eq!(plan.participating_devices(), 2);
        let report = faulty.recovery_report().expect("recovery must be recorded");
        assert_eq!(report.devices_lost, 1);
        assert!(report.rows_migrated > 0);
        assert_eq!(report.replayed_tiles, 1);
        assert!(report.replayed_bytes > 0);
        assert_eq!(faulty.device_alive(), vec![true, false, true]);
    }

    #[test]
    fn later_plans_on_a_resumed_executor_skip_the_lost_device() {
        let points = sample_points(11, 3);
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 2, LinkSpec::nvlink(), 8);
        let faulty = base.with_fault_plan(FaultPlan::new().lose(0, 0));
        let plan =
            ShardPlan::for_executor(11, 2, 8, 11 * 3 * 8, TilePolicy::Auto, &faulty).unwrap();
        let source = ShardedKernelSource::new(
            FitInput::Dense(&points),
            KernelFunction::Linear,
            plan,
            2,
            &faulty,
        )
        .unwrap();
        source
            .for_each_panel(&faulty, None, &mut |_, _| Ok(()))
            .unwrap();
        // The pass resumed on the survivor, and the loss outlives the
        // source: the executor's liveness now excludes the device, so the
        // next fit on it plans over the survivor alone.
        assert!(source.plan().shards().iter().all(|s| s.device == 1));
        assert_eq!(faulty.device_alive(), vec![false, true]);
        let next_plan =
            ShardPlan::for_executor(11, 2, 8, 11 * 3 * 8, TilePolicy::Auto, &faulty).unwrap();
        assert_eq!(next_plan.device_count(), 1);
        assert_eq!(next_plan.shards()[0].device, 1);
    }
}
