//! Sparse kernel crossover — when a CSR-resident `K` beats the dense fold.
//!
//! Graph-shaped workloads (affinity matrices, kNN graphs) produce kernel
//! matrices that are overwhelmingly zero, and the distance SpMM
//! `E = −2 K Vᵀ` only ever touches stored entries. The sparse subsystem
//! keeps `K` CSR-resident — `nnz·(elem + index)` bytes instead of
//! `n²·elem` — and folds row panels with an nnz-proportional charge
//! ([`OpCost::spmm_csr_kvt_rows`]) instead of the dense tile read.
//!
//! This binary reports two things:
//!
//! * **Analytic sweep** — at a fixed `n` far past the dense in-core wall,
//!   sweep the stored neighbors per row and report CSR residency, the
//!   per-iteration fold time against the dense-`K` fold and against the
//!   full tiled-exact pass (which must *recompute* each Gram tile), and
//!   the crossover density `n·elem / (elem + index)` past which the CSR
//!   read traffic overtakes the dense tile read (at 4-byte values and
//!   indices: half density).
//! * **Executed demonstration** — a real fit on a memory-starved simulated
//!   device whose dense kernel matrix is rejected under
//!   `TilePolicy::Full`, while the kNN-sparsified CSR fit runs under the
//!   cap and, at moderate `knn`, recovers the exact solver's clustering
//!   (ARI/NMI against the unconstrained exact labels) — plus a
//!   graph-affinity matrix from `graph_affinity_blobs` wrapped zero-build
//!   via [`SparsifiedKernel::from_csr`] under the same cap.
//!
//! Results land in `sparse_kernel_crossover.csv` and
//! `BENCH_sparse_kernel.json`.

use popcorn_bench::analytic::{ELEM, INDEX};
use popcorn_bench::report::{format_seconds, Table};
use popcorn_bench::ExperimentOptions;
use popcorn_core::kernel_source::full_kernel_matrix_bytes;
use popcorn_core::model::ResidentKernel;
use popcorn_core::{
    KernelApprox, KernelFunction, KernelKmeans, KernelKmeansConfig, KernelSource, Solver,
    SparsifiedKernel, Sparsify, TilePolicy,
};
use popcorn_data::synthetic::{gaussian_blobs, graph_affinity_blobs};
use popcorn_gpusim::{CostModel, DeviceSpec, OpClass, OpCost, SimExecutor};
use popcorn_metrics::{adjusted_rand_index, normalized_mutual_information};

/// Analytic sweep size: well past the dense in-core wall (f32 full matrix
/// is `n²·4` = 1 TB against the A100's 80 GB).
const SWEEP_N: usize = 500_000;
/// MNIST-like feature count, matching the other scaling benches.
const SWEEP_D: usize = 780;

/// Executed demo sizes: small enough to run in seconds, big enough that the
/// full f32 kernel matrix (9 MB) cannot fit the 8 MB device cap.
const EXEC_N: usize = 1_500;
const EXEC_D: usize = 16;
const EXEC_K: usize = 8;
const EXEC_ITERS: usize = 10;
const EXEC_CAP: u64 = 8 << 20;
/// kNN budgets for the executed sweep: from aggressive pruning to a
/// neighborhood wide enough to recover the exact partition on blob data.
const EXEC_KNN: [usize; 4] = [8, 16, 32, 64];

fn gb(bytes: u128) -> String {
    format!("{:.1}", bytes as f64 / 1e9)
}

/// Resident bytes of a CSR kernel matrix with `nnz` stored entries plus the
/// exact diagonal the distance decomposition always keeps.
fn csr_resident_bytes(n: usize, nnz: u128) -> u128 {
    nnz * (ELEM + INDEX) as u128 + (n as u128 + 1) * INDEX as u128 + n as u128 * ELEM as u128
}

fn main() {
    let options = ExperimentOptions::from_env();
    let k = *options.k_values.first().unwrap_or(&50);
    let iterations = options.iterations;
    let device = DeviceSpec::a100_80gb();
    let model = CostModel::new(device.clone(), ELEM);

    // --- analytic density sweep past the dense wall -------------------------
    let dense_bytes = full_kernel_matrix_bytes(SWEEP_N, ELEM);
    assert!(
        dense_bytes > device.mem_bytes as u128,
        "the sweep must sit past the dense in-core wall"
    );
    // The dense fold charge the CSR path competes with, and the full
    // tiled-exact pass that a non-resident dense K actually costs (each
    // tile's Gram panel is recomputed at O(rows·n·d) before the fold).
    let dense_fold = model.time_seconds(OpClass::SpMM, &OpCost::spmm_kvt(SWEEP_N, k, ELEM, INDEX));
    let tiled_pass = dense_fold
        + model.time_seconds(
            OpClass::Gemm,
            &OpCost::gemm(SWEEP_N, SWEEP_N, SWEEP_D, ELEM),
        );
    // CSR read traffic matches the dense tile read at nnz/row = n·elem /
    // (elem + index); with 4-byte values and indices that is half density.
    let crossover_nnz_per_row = SWEEP_N * ELEM / (ELEM + INDEX);
    let mut table = Table::new(
        format!(
            "Sparse kernel crossover at n={SWEEP_N} (k={k}, {iterations} iterations): \
             dense K needs {} GB against {} GB; CSR read traffic overtakes the \
             dense tile read at {crossover_nnz_per_row} stored neighbors per row",
            gb(dense_bytes),
            gb(device.mem_bytes as u128),
        ),
        &[
            "nnz/row",
            "density",
            "CSR (GB)",
            "fits",
            "fold",
            "vs dense fold",
            "vs tiled pass",
        ],
    );
    let mut sweep_json = Vec::new();
    for nnz_per_row in [16usize, 256, 4_096, 65_536, crossover_nnz_per_row, SWEEP_N] {
        let nnz = SWEEP_N as u128 * nnz_per_row as u128;
        let resident = csr_resident_bytes(SWEEP_N, nnz);
        let fits = resident <= device.mem_bytes as u128;
        let fold = model.time_seconds(
            OpClass::SpMM,
            &OpCost::spmm_csr_kvt_rows(
                (nnz_per_row as u128 * SWEEP_N as u128).min(u64::MAX as u128) as usize,
                SWEEP_N,
                SWEEP_N,
                k,
                ELEM,
                INDEX,
            ),
        );
        let density = nnz_per_row as f64 / SWEEP_N as f64;
        table.push_row(vec![
            nnz_per_row.to_string(),
            format!("{density:.4}"),
            gb(resident),
            if fits { "yes" } else { "no" }.to_string(),
            format_seconds(fold),
            format!("{:.2}x", dense_fold / fold),
            format!("{:.2}x", tiled_pass / fold),
        ]);
        sweep_json.push(format!(
            "    {{\"nnz_per_row\": {nnz_per_row}, \"density\": {density:.6}, \
             \"csr_bytes\": {resident}, \"fits\": {fits}, \
             \"fold_seconds\": {fold:.6}, \"dense_fold_speedup\": {:.4}, \
             \"tiled_pass_speedup\": {:.4}}}",
            dense_fold / fold,
            tiled_pass / fold,
        ));
    }
    print!("{}", table.render());
    let csv = options.out_path("sparse_kernel_crossover.csv");
    table
        .write_csv(&csv)
        .expect("write sparse_kernel_crossover.csv");
    println!("wrote {}", csv.display());

    // --- executed demonstration on a memory-starved device ------------------
    //
    // Ground-truth blobs make the recovered clustering meaningful: the exact
    // solver separates them, and the question is how small a neighborhood
    // still reproduces that partition. The constrained device rejects the
    // dense in-core plan outright; only the CSR-resident fit runs.
    let full_exec_bytes = full_kernel_matrix_bytes(EXEC_N, ELEM);
    assert!(
        full_exec_bytes > EXEC_CAP as u128,
        "the executed wall must be real"
    );
    let dataset = gaussian_blobs::<f32>(EXEC_N, EXEC_D, EXEC_K, 1.0, options.seed);
    // A Gaussian kernel localizes row mass around each point's neighborhood —
    // the regime the sparsifier is for. (The paper's polynomial kernel
    // spreads mass across every entry, so kNN pruning there is genuinely
    // lossy; graph-shaped workloads are Gaussian/affinity-shaped.)
    let config = KernelKmeansConfig::paper_defaults(EXEC_K)
        .with_kernel(KernelFunction::Gaussian {
            gamma: 1.0,
            sigma: 4.0,
        })
        .with_max_iter(EXEC_ITERS)
        .with_seed(options.seed);
    let exact = KernelKmeans::new(config.clone())
        .fit(dataset.points())
        .expect("unconstrained exact fit");
    let capped_device = DeviceSpec::a100_80gb().with_mem_bytes(EXEC_CAP);
    let rejected = KernelKmeans::new(config.clone().with_tiling(TilePolicy::Full))
        .with_executor(SimExecutor::new(capped_device.clone(), ELEM))
        .fit(dataset.points());
    assert!(
        rejected.is_err(),
        "the dense in-core plan must be rejected under the cap"
    );
    println!(
        "\nexecuted demo: n={EXEC_N} f32 blobs on a {:.0} MB device — dense K needs \
         {:.1} MB (rejected under the cap); CSR-resident kNN fits run below:",
        EXEC_CAP as f64 / 1e6,
        full_exec_bytes as f64 / 1e6,
    );
    let mut demo_json = Vec::new();
    let mut best_ari = f64::NEG_INFINITY;
    for knn in EXEC_KNN {
        let approx = KernelApprox::Sparsified {
            sparsify: Sparsify::Knn { neighbors: knn },
        };
        let run = KernelKmeans::new(
            config
                .clone()
                .with_tiling(TilePolicy::Full)
                .with_approx(approx),
        )
        .with_executor(SimExecutor::new(capped_device.clone(), ELEM))
        .fit(dataset.points())
        .expect("constrained CSR-resident fit");
        assert!(
            run.peak_resident_bytes <= EXEC_CAP,
            "the CSR path must respect the cap (peak {} > {EXEC_CAP})",
            run.peak_resident_bytes,
        );
        let ari = adjusted_rand_index(&exact.labels, &run.labels).expect("ARI");
        let nmi = normalized_mutual_information(&exact.labels, &run.labels).expect("NMI");
        let bound = run
            .approx_error_bound
            .expect("the sparsified path reports its dropped-mass diagnostic");
        best_ari = best_ari.max(ari);
        println!(
            "  knn={knn:>3}: ARI {ari:.4}  NMI {nmi:.4}  vs exact labels, peak {:.2} MB, \
             mean row mass dropped {bound:.3e}",
            run.peak_resident_bytes as f64 / 1e6,
        );
        demo_json.push(format!(
            "    {{\"knn\": {knn}, \"ari_vs_exact\": {ari:.6}, \"nmi_vs_exact\": {nmi:.6}, \
             \"peak_resident_bytes\": {}, \"dropped_mass\": {bound:.6e}}}",
            run.peak_resident_bytes,
        ));
    }
    assert!(
        best_ari >= 0.9,
        "moderate-knn sparsification must recover the exact clustering (best ARI {best_ari:.4})"
    );
    println!(
        "  the wall is broken: dense in-core is rejected at {:.1} MB, the CSR path \
         fits under {:.0} MB and reaches ARI {best_ari:.4} against the exact labels",
        full_exec_bytes as f64 / 1e6,
        EXEC_CAP as f64 / 1e6,
    );

    // --- graph-shaped workload: the matrix never exists densely -------------
    //
    // A kNN affinity matrix from `graph_affinity_blobs` is already the
    // kernel matrix; `SparsifiedKernel::from_csr` wraps it zero-build under
    // the same cap the dense form of the same matrix would blow through.
    let graph_n = 3_000usize;
    let graph = graph_affinity_blobs::<f32>(graph_n, 8, EXEC_K, 12, 0.8, 1.5, options.seed);
    let graph_dense_bytes = full_kernel_matrix_bytes(graph_n, ELEM);
    assert!(
        graph_dense_bytes > EXEC_CAP as u128,
        "the graph's dense form must not fit the cap"
    );
    let graph_exec = SimExecutor::new(capped_device, ELEM);
    let source = SparsifiedKernel::from_csr(
        graph.points().clone(),
        TilePolicy::Full,
        EXEC_K,
        &graph_exec,
    )
    .expect("the affinity matrix must wrap under the cap");
    println!(
        "\ngraph workload: {} holds {} nnz ({:.4} dense) — {:.2} MB CSR-resident \
         where the dense form needs {:.1} MB",
        graph.name(),
        source.nnz(),
        source.density(),
        source.csr_bytes() as f64 / 1e6,
        graph_dense_bytes as f64 / 1e6,
    );
    assert!(matches!(
        KernelSource::<f32>::resident(&source),
        ResidentKernel::Csr(_)
    ));

    let json = format!(
        "{{\n  \"sweep\": {{\n    \"n\": {SWEEP_N}, \"d\": {SWEEP_D}, \"k\": {k}, \
         \"iterations\": {iterations},\n    \"dense_kernel_bytes\": {dense_bytes}, \
         \"device_mem_bytes\": {},\n    \"dense_in_core_fits\": false,\n    \
         \"crossover_nnz_per_row\": {crossover_nnz_per_row},\n    \
         \"densities\": [\n{}\n    ]\n  }},\n  \"executed\": {{\n    \"n\": {EXEC_N}, \
         \"d\": {EXEC_D}, \"k\": {EXEC_K}, \"iterations\": {EXEC_ITERS},\n    \
         \"device_cap_bytes\": {EXEC_CAP}, \"dense_kernel_bytes\": {full_exec_bytes},\n    \
         \"dense_in_core_rejected\": true,\n    \"runs\": [\n{}\n    ],\n    \
         \"best_ari_vs_exact\": {best_ari:.6}\n  }},\n  \"graph\": {{\n    \
         \"n\": {graph_n}, \"nnz\": {}, \"density\": {:.6},\n    \
         \"csr_bytes\": {}, \"dense_kernel_bytes\": {graph_dense_bytes},\n    \
         \"wrapped_under_cap\": true\n  }}\n}}\n",
        device.mem_bytes,
        sweep_json.join(",\n"),
        demo_json.join(",\n"),
        source.nnz(),
        source.density(),
        source.csr_bytes(),
    );
    let artifact = options.out_path("BENCH_sparse_kernel.json");
    std::fs::write(&artifact, json).expect("write JSON artifact");
    println!("wrote {}", artifact.display());
}
