//! Shard scaling — multi-device clustering past the single-device wall.
//!
//! PR 3's streaming `TiledKernel` lets one modeled A100 cluster any `n`, but
//! every tile still executes serially on that one device. This binary sweeps
//! a `DeviceTopology` of 1→16 A100s at an `n` whose full kernel matrix OOMs a
//! single 80 GB device and reports, per device count:
//!
//! * the per-device shard (rows, sub-tile height from the real
//!   [`ShardPlan`] planner, modeled peak residency — asserted under each
//!   device's capacity);
//! * the modeled **wall-clock**: serial stream + per-iteration all-reduce of
//!   the `n × k` distance partials + the busiest device's concurrent work;
//! * the modeled speedup over the single-device tiled run, for both NVLink
//!   and PCIe Gen4 interconnects.
//!
//! An **executed** demonstration closes the report: a real fit across four
//! memory-starved devices whose shards are fully resident while one such
//! device OOMs in full-K mode — labels bit-identical to the unconstrained
//! single-device fit, per-device peaks under the cap, modeled speedup > 1.

use popcorn_bench::analytic::{
    distance_spmm_tile_seconds, model_assignment_seconds, popcorn_distance_finish_seconds,
    popcorn_tiled_modeled, tile_recompute_seconds, tiled_gram_diag_seconds, ModelWorkload, ELEM,
};
use popcorn_bench::report::{format_seconds, format_speedup, Table};
use popcorn_bench::ExperimentOptions;
use popcorn_core::kernel_source::{plan_tile_rows, tile_bytes, workspace_bytes};
use popcorn_core::shard::ShardPlan;
use popcorn_core::{KernelFunction, KernelKmeans, KernelKmeansConfig, Solver, TilePolicy};
use popcorn_data::synthetic::uniform_dataset;
use popcorn_gpusim::{
    CostModel, DeviceSpec, DeviceTopology, FaultPlan, LinkSpec, OpClass, OpCost, ShardedExecutor,
    SimExecutor,
};
use std::sync::Arc;

/// Modeled multi-device cost of the sharded tiled run at one device count.
struct ShardedModel {
    /// Busiest device's concurrent seconds (tile recompute + SpMM).
    busiest_seconds: f64,
    /// Serial stream: upload, diag, per-iteration finish + assignment.
    serial_seconds: f64,
    /// Per-iteration all-reduce total.
    comm_seconds: f64,
    /// Largest per-device peak residency in bytes.
    peak_bytes_per_device: u128,
    /// Sub-tile height of device 0 (all balanced shards share it ±1 row).
    tile_rows: usize,
    /// Rows of device 0's shard.
    shard_rows: usize,
}

impl ShardedModel {
    fn wallclock(&self) -> f64 {
        self.serial_seconds + self.comm_seconds + self.busiest_seconds
    }
}

/// Replay the sharded execution analytically: the real [`ShardPlan`] decides
/// the partition and per-device tiling, the device cost model prices each
/// device's tiles, and the link prices the all-reduce.
fn sharded_model(
    w: ModelWorkload,
    kernel: KernelFunction,
    topology: &DeviceTopology,
) -> Result<ShardedModel, popcorn_core::CoreError> {
    let ModelWorkload {
        n,
        d,
        k,
        iterations,
    } = w;
    let input_bytes = n as u64 * d as u64 * ELEM as u64;
    let plan = ShardPlan::balanced(n, k, ELEM, input_bytes, TilePolicy::Auto, topology)?;
    let model = CostModel::new(topology.devices[0].clone(), ELEM);

    // Per-device concurrent work, priced with the same analytic helpers the
    // single-device replay uses (so numerator and denominator of the speedup
    // can never desynchronize): tile recompute (once for a resident shard —
    // it is cached and replayed — and every iteration for a streamed one)
    // plus the distance SpMM over the device's rows, every iteration.
    let mut busiest = 0.0f64;
    let mut peak_bytes = 0u128;
    for shard in plan.shards() {
        if shard.rows.is_empty() {
            continue;
        }
        let mut recompute_pass = 0.0f64;
        let mut spmm_pass = 0.0f64;
        let mut r0 = shard.rows.start;
        while r0 < shard.rows.end {
            let r1 = (r0 + shard.tile_rows.max(1)).min(shard.rows.end);
            let t = r1 - r0;
            recompute_pass += tile_recompute_seconds(n, d, t, kernel);
            spmm_pass += distance_spmm_tile_seconds(n, k, t);
            r0 = r1;
        }
        let recompute_passes = if shard.is_resident() { 1 } else { iterations };
        busiest =
            busiest.max(recompute_pass * recompute_passes as f64 + spmm_pass * iterations as f64);
        peak_bytes = peak_bytes.max(
            workspace_bytes(n, k, ELEM, input_bytes) + tile_bytes(shard.tile_rows, n, ELEM) as u128,
        );
    }

    // Serial stream: the broadcast upload and diag once, then per iteration
    // the gather + SpMV + assembly + argmin + V rebuild the finish step runs.
    let upload = model.time_seconds(OpClass::Transfer, &OpCost::transfer(input_bytes));
    let diag = tiled_gram_diag_seconds(n, d);
    let per_iter_serial = popcorn_distance_finish_seconds(n, k) + model_assignment_seconds(n, k);

    // The all-reduce of the n × k distance partials, once per iteration.
    let payload = (n as u64 + 1) * k as u64 * ELEM as u64;
    let comm = topology
        .interconnect
        .all_reduce_seconds(payload, topology.device_count())
        * iterations as f64;

    let first = &plan.shards()[0];
    Ok(ShardedModel {
        busiest_seconds: busiest,
        serial_seconds: upload + diag + per_iter_serial * iterations as f64,
        comm_seconds: comm,
        peak_bytes_per_device: peak_bytes,
        tile_rows: first.tile_rows,
        shard_rows: first.rows.len(),
    })
}

fn gb(bytes: u128) -> String {
    format!("{:.1}", bytes as f64 / 1e9)
}

fn main() {
    let options = ExperimentOptions::from_env();
    let kernel = KernelFunction::paper_polynomial();
    let device = DeviceSpec::a100_80gb();
    let d = 780; // MNIST-like feature count
    let k = *options.k_values.first().unwrap_or(&50);
    // Past the single-device wall: the full f32 kernel matrix of n = 500k is
    // 1 TB, far beyond one 80 GB card.
    let n = 500_000usize;
    let w = ModelWorkload::new(n, d, k).with_iterations(options.iterations);
    let input_bytes = n as u64 * d as u64 * ELEM as u64;
    assert!(
        plan_tile_rows(n, k, ELEM, input_bytes, TilePolicy::Full, &device).is_err(),
        "premise: full-K mode must OOM a single device at this n"
    );

    // The single-device reference every speedup is measured against: the
    // auto-tiled streaming run of PR 3.
    let single_tile_rows = plan_tile_rows(n, k, ELEM, input_bytes, TilePolicy::Auto, &device)
        .expect("a single row tile fits");
    let single_total = popcorn_tiled_modeled(w, kernel, single_tile_rows).total();

    let mut table = Table::new(
        format!(
            "Shard scaling past the single-device wall (n={n}, d={d}, k={k}, \
             {} iterations, {} per device)",
            options.iterations, device.name,
        ),
        &[
            "devices",
            "rows/device",
            "tile rows",
            "resident",
            "peak/device (GB)",
            "busiest device",
            "all-reduce (nvlink)",
            "wall-clock (nvlink)",
            "speedup (nvlink)",
            "wall-clock (pcie)",
            "speedup (pcie)",
        ],
    );

    for devices in [1usize, 2, 4, 8, 16] {
        let nvlink = DeviceTopology::homogeneous(device.clone(), devices, LinkSpec::nvlink());
        let pcie = DeviceTopology::homogeneous(device.clone(), devices, LinkSpec::pcie_gen4());
        let model_nv = sharded_model(w, kernel, &nvlink).expect("plan");
        let model_pcie = sharded_model(w, kernel, &pcie).expect("plan");
        assert!(
            model_nv.peak_bytes_per_device <= device.mem_bytes as u128,
            "every device must stay under its capacity"
        );
        let speedup_nv = single_total / model_nv.wallclock();
        let speedup_pcie = single_total / model_pcie.wallclock();
        if devices > 1 {
            assert!(
                speedup_nv > 1.0,
                "sharding across {devices} devices must beat one device"
            );
        }
        table.push_row(vec![
            devices.to_string(),
            model_nv.shard_rows.to_string(),
            model_nv.tile_rows.to_string(),
            if model_nv.tile_rows >= model_nv.shard_rows {
                "yes".to_string()
            } else {
                "no".to_string()
            },
            gb(model_nv.peak_bytes_per_device),
            format_seconds(model_nv.busiest_seconds),
            format_seconds(model_nv.comm_seconds),
            format_seconds(model_nv.wallclock()),
            format_speedup(speedup_nv),
            format_seconds(model_pcie.wallclock()),
            format_speedup(speedup_pcie),
        ]);
    }

    print!("{}", table.render());
    println!(
        "(speedups compare against the single-device auto-tiled run, which must \
         recompute every tile each of the {} iterations; once the aggregate \
         topology memory holds all shards resident — the 'resident' column — each \
         shard is computed exactly once and the speedup turns super-linear: memory \
         aggregation recovers the in-core charge-once semantics)",
        options.iterations
    );
    table
        .write_csv(options.out_path("shard_scaling.csv"))
        .expect("write shard_scaling.csv");

    // --- executed demonstration across memory-starved devices ---------------
    //
    // Scale the wall down so the host can execute it: 1 500 f32 points make a
    // 9 MB kernel matrix. One 8 MB device cannot hold it in full-K mode; four
    // such devices hold their 2.25 MB shards fully resident — and the
    // clustering matches the unconstrained single-device fit bit for bit.
    let n_exec = 1_500;
    let cap: u64 = 8 << 20;
    let dataset = uniform_dataset::<f32>(n_exec, 16, options.seed);
    let capped = DeviceSpec::a100_80gb().with_mem_bytes(cap);
    let config = KernelKmeansConfig::paper_defaults(8)
        .with_max_iter(5)
        .with_seed(options.seed)
        .with_tiling(TilePolicy::Full);
    assert!(
        KernelKmeans::new(config.clone())
            .with_executor(SimExecutor::new(capped.clone(), ELEM))
            .fit(dataset.points())
            .is_err(),
        "the executed wall must be real: full-K OOMs one capped device"
    );
    let executor = Arc::new(ShardedExecutor::homogeneous(
        capped,
        4,
        LinkSpec::nvlink(),
        ELEM,
    ));
    let sharded = KernelKmeans::new(config.clone())
        .with_shared_executor(executor.clone())
        .fit(dataset.points())
        .expect("sharded full-K fit");
    let unconstrained = KernelKmeans::new(config.with_tiling(TilePolicy::Auto))
        .fit(dataset.points())
        .expect("in-core fit");
    assert_eq!(
        sharded.labels, unconstrained.labels,
        "sharding must not change the clustering"
    );
    let peaks = executor.per_device_peak_resident_bytes();
    assert!(
        peaks.iter().all(|&p| p > 0 && p <= cap),
        "per-device peaks {peaks:?} must respect the {cap} byte cap"
    );
    assert!(executor.modeled_speedup() > 1.0);
    println!(
        "\nexecuted: n={n_exec} f32 across 4 x {:.0} MB devices — full K needs {:.1} MB \
         (OOM on one device), resident shards peaked at {:.1} MB/device, labels \
         bit-identical to the single-device fit, {:.2}x modeled speedup over \
         serializing ({} wall-clock vs {} serialized)",
        cap as f64 / 1e6,
        (n_exec * n_exec * ELEM) as f64 / 1e6,
        peaks.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        executor.modeled_speedup(),
        format_seconds(executor.modeled_wallclock_seconds()),
        format_seconds(popcorn_gpusim::Executor::total_modeled_seconds(&*executor)),
    );

    // --- elastic demonstration: mixed pool, mid-fit device loss -------------
    //
    // A heterogeneous A100 + H100 + V100 pool shards rows by modeled
    // throughput, then the same fit is replayed with the H100 (device 1,
    // carrying the largest shard) dying at kernel-matrix pass 1. The run
    // re-shards the lost rows over the survivors: labels stay bit-identical,
    // and the modeled recovery overhead is bounded by the cost of re-running
    // the work the lost device owned — asserted under 2x one iteration.
    let n_elastic = 1_500;
    let mixed = DeviceTopology {
        devices: vec![
            DeviceSpec::a100_80gb(),
            DeviceSpec::h100_80gb(),
            DeviceSpec::v100(),
        ],
        interconnect: LinkSpec::nvlink(),
    };
    let elastic_config = KernelKmeansConfig::paper_defaults(8)
        .with_max_iter(5)
        .with_seed(options.seed);
    let input_bytes_elastic = (n_elastic * 16 * ELEM) as u64;
    let plan = ShardPlan::balanced_by_throughput(
        n_elastic,
        8,
        ELEM,
        input_bytes_elastic,
        TilePolicy::Auto,
        &mixed,
        None,
    )
    .expect("throughput plan");
    let split: Vec<usize> = plan.shards().iter().map(|s| s.rows.len()).collect();
    assert!(
        split[1] > split[0] && split[0] > split[2],
        "throughput weighting must hand the H100 more rows than the A100, \
         and the A100 more than the V100: {split:?}"
    );

    let fresh_executor = Arc::new(ShardedExecutor::new(mixed.clone(), ELEM));
    let fresh = KernelKmeans::new(elastic_config.clone())
        .with_shared_executor(fresh_executor.clone())
        .fit(uniform_dataset::<f32>(n_elastic, 16, options.seed).points())
        .expect("fresh mixed-pool fit");

    let lossy_executor =
        Arc::new(ShardedExecutor::new(mixed, ELEM).with_fault_plan(FaultPlan::new().lose(1, 1)));
    let recovered = KernelKmeans::new(elastic_config)
        .with_shared_executor(lossy_executor.clone())
        .fit(uniform_dataset::<f32>(n_elastic, 16, options.seed).points())
        .expect("fit surviving the device loss");
    assert_eq!(
        fresh.labels, recovered.labels,
        "losing a device mid-fit must not change the clustering"
    );
    assert_eq!(fresh.objective.to_bits(), recovered.objective.to_bits());
    assert_eq!(lossy_executor.device_alive(), vec![true, false, true]);
    let report = recovered
        .recovery
        .as_ref()
        .expect("a recovered fit carries its recovery accounting");
    assert_eq!(report.devices_lost, 1);
    assert!(report.rows_migrated > 0);

    // Overhead = extra modeled seconds the faulted run paid over the fresh
    // fit on the same topology; one iteration of the fresh fit is the budget
    // yardstick (recovery re-runs roughly one shard's worth of work).
    let fresh_total = popcorn_gpusim::Executor::total_modeled_seconds(&*fresh_executor);
    let lossy_total = popcorn_gpusim::Executor::total_modeled_seconds(&*lossy_executor);
    let recovery_overhead = lossy_total - fresh_total;
    let per_iteration = fresh.modeled_timings.total() / fresh.iterations.max(1) as f64;
    assert!(
        recovery_overhead < 2.0 * per_iteration,
        "recovery overhead {recovery_overhead:.6} s must stay under 2x one \
         iteration ({per_iteration:.6} s)"
    );
    println!(
        "\nelastic: n={n_elastic} over A100+H100+V100 (throughput split {split:?}); \
         device 1 lost at pass 1 — labels bit-identical, {} row(s) migrated, \
         recovery overhead {} vs {} per iteration ({:.2}x)",
        report.rows_migrated,
        format_seconds(recovery_overhead),
        format_seconds(per_iteration),
        recovery_overhead / per_iteration,
    );

    let json = format!(
        "{{\n  \"n\": {n_elastic},\n  \"d\": 16,\n  \"k\": 8,\n  \"iterations\": {},\n  \
         \"pool\": [\"a100\", \"h100\", \"v100\"],\n  \
         \"throughput_split_rows\": [{}, {}, {}],\n  \
         \"lost_device\": 1,\n  \"lost_at_pass\": 1,\n  \
         \"labels_bit_identical\": true,\n  \
         \"rows_migrated\": {},\n  \"bytes_reuploaded\": {},\n  \
         \"replayed_tiles\": {},\n  \"reshard_seconds\": {:.9},\n  \
         \"fresh_modeled_seconds\": {fresh_total:.9},\n  \
         \"recovered_modeled_seconds\": {lossy_total:.9},\n  \
         \"recovery_overhead_seconds\": {recovery_overhead:.9},\n  \
         \"per_iteration_seconds\": {per_iteration:.9},\n  \
         \"overhead_vs_iteration\": {:.4},\n  \
         \"overhead_under_two_iterations\": true\n}}\n",
        fresh.iterations,
        split[0],
        split[1],
        split[2],
        report.rows_migrated,
        report.bytes_reuploaded,
        report.replayed_tiles,
        report.reshard_seconds,
        recovery_overhead / per_iteration,
    );
    let artifact = options.out_path("BENCH_elastic_shard.json");
    std::fs::write(&artifact, json).expect("write JSON artifact");
    println!("wrote {}", artifact.display());
}
