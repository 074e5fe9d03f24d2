//! Property tests for multi-device row sharding: sharding is a **pricing**
//! decision, never a numerical one. For any dataset, any solver, either point
//! layout, any device count in `[1, 16]`, any contiguous row partition,
//! standalone or batched — labels, iteration counts, objectives and objective
//! histories are bit-identical to the single-device fit. The executor side is
//! pinned too: a 1-device [`ShardedExecutor`] prices a fit op-for-op exactly
//! like a plain [`SimExecutor`], and the per-device/serial/communication
//! buckets partition the serialized total. The memory side is exercised the
//! way the tentpole promises: an `n` whose full kernel matrix OOMs one device
//! in full-K mode fits when its rows are sharded, with every device's peak
//! residency under its own capacity.

use popcorn::baselines::SolverKind;
use popcorn::core::batch::FitJob;
use popcorn::core::CoreError;
use popcorn::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn mixed_points(max_n: usize, max_d: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (8..=max_n, 2..=max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-4.0f64..4.0, n * d).prop_map(move |mut data| {
            for (i, v) in data.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            DenseMatrix::from_vec(n, d, data).unwrap()
        })
    })
}

fn base_config(k: usize) -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(k)
        .with_max_iter(6)
        .with_convergence_check(true, 1e-10)
}

fn sharded_executor(kind: SolverKind, devices: usize) -> Arc<ShardedExecutor> {
    Arc::new(ShardedExecutor::homogeneous(
        kind.default_device(),
        devices,
        LinkSpec::nvlink(),
        std::mem::size_of::<f64>(),
    ))
}

fn assert_bit_identical(
    name: &str,
    single: &ClusteringResult,
    sharded: &ClusteringResult,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &single.labels,
        &sharded.labels,
        "{}: labels diverge {}",
        name,
        context
    );
    prop_assert_eq!(
        single.iterations,
        sharded.iterations,
        "{}: {}",
        name,
        context
    );
    prop_assert_eq!(single.converged, sharded.converged, "{}: {}", name, context);
    prop_assert_eq!(
        single.objective.to_bits(),
        sharded.objective.to_bits(),
        "{}: objectives diverge ({} vs {}) {}",
        name,
        single.objective,
        sharded.objective,
        context
    );
    let a: Vec<u64> = single
        .history
        .iter()
        .map(|h| h.objective.to_bits())
        .collect();
    let b: Vec<u64> = sharded
        .history
        .iter()
        .map(|h| h.objective.to_bits())
        .collect();
    prop_assert_eq!(a, b, "{}: history diverges {}", name, context);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: every solver, both layouts, any device count
    /// in [1, 16] — a sharded fit is bit-identical to the single-device fit.
    #[test]
    fn sharded_fit_is_bit_identical_to_single_device_for_all_solvers(
        points in mixed_points(20, 6),
        k in 2usize..4,
        seed in 0u64..50,
        devices in 1usize..=16,
    ) {
        prop_assume!(k <= points.rows());
        let csr = CsrMatrix::from_dense(&points);
        let config = base_config(k).with_seed(seed);
        for kind in SolverKind::ALL {
            for (layout, input) in [
                ("dense", FitInput::Dense(&points)),
                ("csr", FitInput::Sparse(&csr)),
            ] {
                let single = kind
                    .build::<f64>(config.clone())
                    .fit_input(input)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                let executor = sharded_executor(kind, devices);
                let sharded = kind
                    .build_with_executor::<f64>(config.clone(), executor.clone())
                    .fit_input(input)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                assert_bit_identical(
                    kind.name(),
                    &single,
                    &sharded,
                    &format!("(layout {layout}, devices {devices})"),
                )?;
                // The attribution buckets partition the serialized total.
                let total = Executor::total_modeled_seconds(&*executor);
                let buckets: f64 = executor.per_device_modeled_seconds().iter().sum::<f64>()
                    + executor.serial_modeled_seconds()
                    + executor.comm_modeled_seconds();
                prop_assert!(
                    (total - buckets).abs() <= 1e-9 * total.max(1.0),
                    "{}: buckets {} vs total {} (devices {})",
                    kind.name(),
                    buckets,
                    total,
                    devices
                );
            }
        }
    }

    /// `fit_batch` over a sharded topology: every per-job result matches the
    /// single-device batch and the standalone sharded fit, for all solvers
    /// and both layouts — the lockstep driver never notices the sharding.
    /// Nor does it notice a device lost while the jobs share one pass
    /// (`loss`, when drawn, is `lose(device, pass)`): the fault-free
    /// single-device batch is still every job's answer.
    #[test]
    fn sharded_batch_is_bit_identical_to_single_device_batch(
        points in mixed_points(16, 5),
        k in 2usize..4,
        base_seed in 0u64..50,
        devices in 2usize..=16,
        loss in (0usize..3, 0usize..16, 0usize..4)
            .prop_map(|(draw, device, pass)| (draw > 0).then_some((device, pass))),
    ) {
        prop_assume!(k <= points.rows());
        let csr = CsrMatrix::from_dense(&points);
        let jobs = FitJob::restarts(&base_config(k), base_seed..base_seed + 3);
        let loss = loss.map(|(device, pass)| (device % devices, pass));
        let faults = loss.map_or_else(FaultPlan::new, |(device, pass)| {
            FaultPlan::new().lose(device, pass)
        });
        for kind in SolverKind::ALL {
            for (layout, input) in [
                ("dense", FitInput::Dense(&points)),
                ("csr", FitInput::Sparse(&csr)),
            ] {
                let single = kind
                    .build::<f64>(base_config(k))
                    .fit_batch(input, &jobs)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                let executor =
                    Arc::new(sharded_executor(kind, devices).with_fault_plan(faults.clone()));
                let sharded_solver =
                    kind.build_with_executor::<f64>(base_config(k), executor.clone());
                let sharded = sharded_solver
                    .fit_batch(input, &jobs)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;
                prop_assert_eq!(single.best, sharded.best);
                // A fired loss is accounted on the executor, once.
                let lost = executor.device_alive().iter().filter(|alive| !**alive).count();
                prop_assert_eq!(
                    executor.recovery_report().map_or(0, |r| r.devices_lost),
                    lost,
                    "{} (layout {}, devices {}, loss {:?})",
                    kind.name(),
                    layout,
                    devices,
                    loss
                );
                for ((job, a), b) in jobs
                    .iter()
                    .zip(single.results.iter())
                    .zip(sharded.results.iter())
                {
                    let context = format!(
                        "(layout {layout}, devices {devices}, loss {loss:?}, seed {})",
                        job.config.seed
                    );
                    assert_bit_identical(kind.name(), a, b, &context)?;
                    let standalone = sharded_solver
                        .fit_input_with(input, &job.config)
                        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                    assert_bit_identical(
                        kind.name(),
                        &standalone,
                        b,
                        &format!("standalone-vs-batch {context}"),
                    )?;
                }
            }
        }
    }

    /// Any contiguous row partition — not just the balanced one — reassembles
    /// the kernel matrix bit for bit and leaves the clustering unchanged:
    /// results are independent of where the shard boundaries fall.
    #[test]
    fn arbitrary_row_partitions_leave_the_fit_bit_identical(
        points in mixed_points(18, 5),
        seed in 0u64..50,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
        tile_fraction in 0.0f64..1.0,
    ) {
        let n = points.rows();
        let mut boundaries: Vec<usize> =
            cuts.iter().map(|c| ((*c) * n as f64) as usize).collect();
        boundaries.sort_unstable();
        let devices = boundaries.len() + 1;
        let config = base_config(2).with_seed(seed);
        // Force sub-tiling inside shards for some cases.
        let tile_rows = 1 + ((n - 1) as f64 * tile_fraction) as usize;

        let single = KernelKmeans::new(config.clone())
            .fit(&points)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;

        let executor = Arc::new(ShardedExecutor::homogeneous(
            DeviceSpec::a100_80gb(),
            devices,
            LinkSpec::nvlink(),
            std::mem::size_of::<f64>(),
        ));
        let plan = ShardPlan::with_boundaries(
            n,
            &boundaries,
            2,
            std::mem::size_of::<f64>(),
            FitInput::Dense(&points).upload_bytes(),
            TilePolicy::Rows(tile_rows),
            executor.device_topology(),
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let source = ShardedKernelSource::new(
            FitInput::Dense(&points),
            config.kernel,
            plan,
            2,
            &*executor,
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let solver = KernelKmeans::new(config.clone()).with_shared_executor(executor.clone());
        let sharded = solver
            .fit_from_source_with(&source, &config)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&single.labels, &sharded.labels, "boundaries {:?}", boundaries);
        prop_assert_eq!(
            single.objective.to_bits(),
            sharded.objective.to_bits(),
            "boundaries {:?}",
            boundaries
        );
    }

    /// Throughput-weighted plans over mixed device pools: every device gets
    /// a shard entry, the shards are contiguous and cover `0..n` exactly,
    /// and a strictly faster device never receives fewer rows than a
    /// strictly slower one in the same pool.
    #[test]
    fn throughput_plans_cover_all_rows_and_order_by_device_speed(
        n in 16usize..600,
        k in 2usize..8,
        pool in proptest::collection::vec(0usize..3, 2..6),
    ) {
        let presets = [
            DeviceSpec::a100_80gb(),
            DeviceSpec::h100_80gb(),
            DeviceSpec::v100(),
        ];
        let topology = DeviceTopology {
            devices: pool.iter().map(|&i| presets[i].clone()).collect(),
            interconnect: LinkSpec::nvlink(),
        };
        let elem = std::mem::size_of::<f64>();
        let plan = ShardPlan::balanced_by_throughput(
            n,
            k,
            elem,
            (n * 8 * elem) as u64,
            TilePolicy::Auto,
            &topology,
            None,
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let shards = plan.shards();
        prop_assert_eq!(shards.len(), topology.devices.len());
        let mut cursor = 0usize;
        for (device, shard) in shards.iter().enumerate() {
            prop_assert_eq!(shard.device, device, "pool {:?}", &pool);
            prop_assert_eq!(shard.rows.start, cursor, "pool {:?}", &pool);
            cursor = shard.rows.end;
        }
        prop_assert_eq!(cursor, n, "shards must cover every row: pool {:?}", &pool);
        // H100 > A100 > V100 in every modeled metric, so the row counts
        // must order the same way (ties between equal presets are ±1).
        let speed = |preset: usize| [1usize, 2, 0][preset]; // v100 < a100 < h100
        for (i, &a) in pool.iter().enumerate() {
            for (j, &b) in pool.iter().enumerate() {
                if speed(a) > speed(b) {
                    prop_assert!(
                        shards[i].rows.len() >= shards[j].rows.len(),
                        "faster device {i} ({}) got {} rows but slower {j} ({}) got {}",
                        presets[a].name,
                        shards[i].rows.len(),
                        presets[b].name,
                        shards[j].rows.len()
                    );
                }
            }
        }
    }

    /// Mid-fit device loss is a recovery event, never a numerical one: for
    /// every kernel representation (exact sharded, Nyström, sparsified CSR),
    /// any lost device and any loss pass, the recovered fit matches the
    /// fault-free single-device fit bit for bit — and when the loss actually
    /// fired, both the executor and the result account for it.
    #[test]
    fn device_loss_recovery_is_bit_identical_for_all_representations(
        points in mixed_points(24, 5),
        seed in 0u64..50,
        devices in 2usize..=4,
        lost_pick in 0usize..4,
        at_pass in 0usize..4,
    ) {
        let lost = lost_pick % devices;
        let n = points.rows();
        let elem = std::mem::size_of::<f64>();
        let representations = [
            ("exact", KernelApprox::Exact),
            (
                "nystrom",
                KernelApprox::Nystrom {
                    landmarks: (n / 2).max(2),
                    seed: 3,
                },
            ),
            (
                "sparsified",
                KernelApprox::Sparsified {
                    sparsify: Sparsify::Knn { neighbors: 4 },
                },
            ),
        ];
        for (name, approx) in representations {
            let config = base_config(2).with_seed(seed).with_approx(approx);
            let single = KernelKmeans::new(config.clone())
                .fit(&points)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
            let executor = Arc::new(
                ShardedExecutor::homogeneous(
                    DeviceSpec::a100_80gb(),
                    devices,
                    LinkSpec::nvlink(),
                    elem,
                )
                .with_fault_plan(FaultPlan::new().lose(lost, at_pass)),
            );
            let recovered = KernelKmeans::new(config)
                .with_shared_executor(executor.clone())
                .fit(&points)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
            let context =
                format!("({name}, devices {devices}, lost {lost} at pass {at_pass})");
            assert_bit_identical(name, &single, &recovered, &context)?;
            // A fit short enough to finish before `at_pass` never sees the
            // event; otherwise the loss must be fully accounted.
            if !executor.device_alive()[lost] {
                let report = executor
                    .recovery_report()
                    .ok_or_else(|| TestCaseError::fail(format!("no report {context}")))?;
                prop_assert!(report.devices_lost >= 1, "{}", &context);
                prop_assert_eq!(
                    recovered.recovery.as_ref().map(|r| r.devices_lost),
                    Some(report.devices_lost),
                    "result-level accounting diverges {}",
                    &context
                );
            } else {
                prop_assert!(
                    recovered.recovery.is_none(),
                    "a fault-free fit must not carry recovery accounting {}",
                    &context
                );
            }
        }
    }

    /// Kernel k-means++ seeding pulls diag(K) and seed rows through the
    /// sharded source (each row priced on its owning device); the sampled
    /// centres — hence everything downstream — match the single-device path.
    #[test]
    fn sharded_kmeanspp_matches_single_device_kmeanspp(
        points in mixed_points(14, 5),
        seed in 0u64..50,
        devices in 2usize..=8,
    ) {
        let config = base_config(3)
            .with_seed(seed)
            .with_init(Initialization::KmeansPlusPlus);
        prop_assume!(3 <= points.rows());
        let single = KernelKmeans::new(config.clone()).fit(&points).unwrap();
        let sharded = KernelKmeans::new(config)
            .with_shared_executor(sharded_executor(SolverKind::Popcorn, devices))
            .fit(&points)
            .unwrap();
        assert_bit_identical("popcorn/kmeans++", &single, &sharded, "")?;
    }
}

// --- executor-level invariants ---------------------------------------------

/// A 1-device `ShardedExecutor` must price a whole fit **op for op** exactly
/// like a plain `SimExecutor`: same names, classes, costs and modeled times
/// (host times differ — they are measured).
#[test]
fn one_device_sharded_executor_prices_op_for_op_like_sim_executor() {
    let points = DenseMatrix::<f64>::from_fn(60, 4, |i, j| ((i * 4 + j) as f64 * 0.23).sin());
    let config = base_config(3).with_seed(11);

    let plain = SimExecutor::new(DeviceSpec::a100_80gb(), 8);
    let single = KernelKmeans::new(config.clone())
        .with_executor(plain.clone())
        .fit(&points)
        .unwrap();

    let sharded_exec =
        ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 1, LinkSpec::nvlink(), 8);
    let sharded = KernelKmeans::new(config)
        .with_shared_executor(Arc::new(sharded_exec.clone()))
        .fit(&points)
        .unwrap();

    assert_eq!(single.labels, sharded.labels);
    let a = plain.trace();
    let b = sharded_exec.trace();
    assert_eq!(a.len(), b.len(), "trace lengths diverge");
    for (x, y) in a.records().iter().zip(b.records().iter()) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.phase, y.phase);
        assert_eq!(x.class, y.class);
        assert_eq!(x.cost, y.cost);
        assert_eq!(
            x.modeled_seconds.to_bits(),
            y.modeled_seconds.to_bits(),
            "op '{}' priced differently",
            x.name
        );
    }
    // With one device nothing is concurrent and nothing is reduced.
    assert_eq!(sharded_exec.comm_modeled_seconds(), 0.0);
    assert_eq!(
        sharded_exec.modeled_wallclock_seconds(),
        Executor::total_modeled_seconds(&sharded_exec)
    );
    assert_eq!(
        plain.peak_resident_bytes(),
        sharded_exec.peak_resident_bytes()
    );
}

/// Per-device modeled seconds sum (minus overlap) matches the aggregate
/// report: total = Σ devices + serial + comm, and wall-clock = total −
/// Σ devices + max device.
#[test]
fn per_device_seconds_reconcile_with_the_aggregate_report() {
    let points = DenseMatrix::<f64>::from_fn(120, 6, |i, j| ((i * 6 + j) as f64 * 0.17).cos());
    let executor = Arc::new(ShardedExecutor::homogeneous(
        DeviceSpec::a100_80gb(),
        4,
        LinkSpec::nvlink(),
        8,
    ));
    KernelKmeans::new(base_config(3).with_seed(5))
        .with_shared_executor(executor.clone())
        .fit(&points)
        .unwrap();
    let per_device = executor.per_device_modeled_seconds();
    let device_sum: f64 = per_device.iter().sum();
    let busiest = per_device.iter().cloned().fold(0.0f64, f64::max);
    let total = Executor::total_modeled_seconds(&*executor);
    let reconstructed =
        device_sum + executor.serial_modeled_seconds() + executor.comm_modeled_seconds();
    assert!(
        (total - reconstructed).abs() <= 1e-12 * total.max(1.0),
        "buckets {reconstructed} vs serialized total {total}"
    );
    let wallclock = executor.modeled_wallclock_seconds();
    assert!(
        (wallclock - (total - device_sum + busiest)).abs() <= 1e-12 * total.max(1.0),
        "wall-clock must be the total minus the overlapped device time"
    );
    assert!(wallclock < total, "four devices must overlap");
    assert!(executor.modeled_speedup() > 1.0);
    assert!(per_device.iter().all(|&s| s > 0.0));
}

// --- the multi-device memory wall, exercised for real -----------------------

/// Per-device cap under which one device cannot hold the full 800-point f64
/// kernel matrix (5.12 MB) but a 4-way row shard (1.28 MB) fits comfortably.
const SMALL_DEVICE_BYTES: u64 = 4 << 20;

fn wall_points() -> DenseMatrix<f64> {
    DenseMatrix::from_fn(800, 8, |i, j| {
        let offset = if i < 400 { 0.0 } else { 9.0 };
        offset + ((i * 8 + j) as f64 * 0.37).sin()
    })
}

#[test]
fn sharding_crosses_the_full_kernel_memory_wall_under_per_device_caps() {
    let points = wall_points();
    let n = points.rows();
    let elem = std::mem::size_of::<f64>();
    let cap_device = DeviceSpec::a100_80gb().with_mem_bytes(SMALL_DEVICE_BYTES);
    assert!(
        (n * n * elem) as u64 > SMALL_DEVICE_BYTES,
        "premise: full K must OOM"
    );

    // One capped device in full-K mode: rejected.
    let config = base_config(2).with_seed(7).with_tiling(TilePolicy::Full);
    let err = KernelKmeans::new(config.clone())
        .with_executor(SimExecutor::new(cap_device.clone(), elem))
        .fit(&points)
        .unwrap_err();
    assert!(matches!(err, CoreError::DeviceMemoryExceeded { .. }));

    // Four capped devices in full-K mode: every shard is resident, every
    // device stays under its own capacity, and the clustering equals the
    // unconstrained single-device fit bit for bit.
    let executor = Arc::new(ShardedExecutor::homogeneous(
        cap_device,
        4,
        LinkSpec::nvlink(),
        elem,
    ));
    let sharded = KernelKmeans::new(config.clone())
        .with_shared_executor(executor.clone())
        .fit(&points)
        .unwrap();
    let peaks = executor.per_device_peak_resident_bytes();
    assert_eq!(peaks.len(), 4);
    for (device, &peak) in peaks.iter().enumerate() {
        assert!(peak > 0);
        assert!(
            peak <= SMALL_DEVICE_BYTES,
            "device {device} peak {peak} exceeds its {SMALL_DEVICE_BYTES} byte capacity"
        );
    }
    let unconstrained = KernelKmeans::new(base_config(2).with_seed(7))
        .fit(&points)
        .unwrap();
    assert_eq!(sharded.labels, unconstrained.labels);
    assert_eq!(
        sharded.objective.to_bits(),
        unconstrained.objective.to_bits()
    );
    // And the devices worked concurrently.
    assert!(executor.modeled_speedup() > 1.0);
}

/// A re-plan after a device loss sizes the migrated rows beside what each
/// survivor already holds. Streamed policies shrink the migrated tiles until
/// they fit, or stream them through the survivor's own tile buffer when its
/// streamed shard already fills its memory (the 2.5 MiB case); a resident
/// layout (`Full`, or a CSR slice) that cannot fit is a capacity error naming
/// the survivor, never a silent overcommit.
#[test]
fn recovery_respects_survivor_capacity() {
    const TIGHT_DEVICE_BYTES: u64 = 5 << 19;
    let points = wall_points();
    let elem = std::mem::size_of::<f64>();
    let capped_pair = |cap: u64| {
        Arc::new(
            ShardedExecutor::homogeneous(
                DeviceSpec::a100_80gb().with_mem_bytes(cap),
                2,
                LinkSpec::nvlink(),
                elem,
            )
            .with_fault_plan(FaultPlan::new().lose(1, 1)),
        )
    };
    let exact = base_config(2).with_seed(7);
    let sparsified = exact.clone().with_approx(KernelApprox::Sparsified {
        sparsify: Sparsify::Knn { neighbors: 400 },
    });
    for (name, config) in [
        ("exact full", exact.clone().with_tiling(TilePolicy::Full)),
        ("sparsified knn:400", sparsified),
    ] {
        let executor = capped_pair(SMALL_DEVICE_BYTES);
        let err = KernelKmeans::new(config)
            .with_shared_executor(executor.clone())
            .fit(&points)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::DeviceShardMemoryExceeded { device: 0, .. }),
            "{name}: expected the survivor's capacity error, got {err:?}"
        );
        assert!(
            !executor.device_alive()[1],
            "{name}: the error must come from the recovery, not the initial plan"
        );
    }
    let nystrom = exact.clone().with_approx(KernelApprox::Nystrom {
        landmarks: 64,
        seed: 3,
    });
    for (name, config, cap) in [
        ("exact auto", exact.clone(), SMALL_DEVICE_BYTES),
        ("nystrom m=64", nystrom, SMALL_DEVICE_BYTES),
        ("exact auto, streamed survivor", exact, TIGHT_DEVICE_BYTES),
    ] {
        let executor = capped_pair(cap);
        let recovered = KernelKmeans::new(config.clone())
            .with_shared_executor(executor.clone())
            .fit(&points)
            .unwrap();
        assert!(!executor.device_alive()[1], "{name}: the loss must fire");
        let single = KernelKmeans::new(config).fit(&points).unwrap();
        assert_eq!(recovered.labels, single.labels, "{name}");
        assert_eq!(
            recovered.objective.to_bits(),
            single.objective.to_bits(),
            "{name}"
        );
        for (device, &peak) in executor.per_device_peak_resident_bytes().iter().enumerate() {
            assert!(
                peak <= cap,
                "{name}: device {device} peak {peak} exceeds its {cap} byte capacity"
            );
        }
    }
}
