//! Property tests for the batched multi-fit (restart) API: `fit_batch` must
//! be a pure accounting optimization. For any dataset, any solver and either
//! point layout, every per-job result is **bit-identical** to the equivalent
//! standalone `fit_input` call — the shared kernel matrix changes what the
//! simulator charges, never the arithmetic — and the simulator trace charges
//! the expensive phases exactly once per batch, not once per job.

use popcorn::core::batch::FitJob;
use popcorn::gpusim::{OpClass, Phase};
use popcorn::prelude::*;
use proptest::prelude::*;

/// A dense point set with a sprinkling of structural zeros so the CSR layout
/// is non-trivial.
fn mixed_points(max_n: usize, max_d: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (6..=max_n, 2..=max_d).prop_flat_map(|(n, d)| {
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

fn batch_config(k: usize) -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(k)
        .with_max_iter(6)
        .with_convergence_check(true, 1e-10)
}

/// Assert `fit_batch` over `jobs` equals looping `fit_input_with` per job,
/// bit for bit, for one solver and one input layout.
fn assert_batch_equals_loop(
    solver: &dyn Solver<f64>,
    input: FitInput<'_, f64>,
    jobs: &[FitJob],
) -> Result<(), TestCaseError> {
    let batch = solver
        .fit_batch(input, jobs)
        .map_err(|e| TestCaseError::fail(format!("{}: {e}", solver.name())))?;
    prop_assert_eq!(batch.results.len(), jobs.len());
    for (job, batched) in jobs.iter().zip(batch.results.iter()) {
        let standalone = solver
            .fit_input_with(input, &job.config)
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", solver.name())))?;
        prop_assert_eq!(
            &standalone.labels,
            &batched.labels,
            "{}: labels diverge for seed {} k {}",
            solver.name(),
            job.config.seed,
            job.config.k
        );
        prop_assert_eq!(standalone.iterations, batched.iterations);
        prop_assert_eq!(standalone.converged, batched.converged);
        prop_assert_eq!(
            standalone.objective.to_bits(),
            batched.objective.to_bits(),
            "{}: objectives diverge: {} vs {}",
            solver.name(),
            standalone.objective,
            batched.objective
        );
        let standalone_history: Vec<u64> = standalone
            .history
            .iter()
            .map(|h| h.objective.to_bits())
            .collect();
        let batched_history: Vec<u64> = batched
            .history
            .iter()
            .map(|h| h.objective.to_bits())
            .collect();
        prop_assert_eq!(standalone_history, batched_history);
    }
    // The best index picks the minimal objective.
    let best = batch.best_result().objective;
    prop_assert!(batch.results.iter().all(|r| best <= r.objective));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_restarts_match_independent_fits_for_all_solvers(
        points in mixed_points(20, 6),
        k in 2usize..4,
        base_seed in 0u64..50,
    ) {
        prop_assume!(k <= points.rows());
        let csr = CsrMatrix::from_dense(&points);
        let jobs = FitJob::restarts(
            &batch_config(k),
            base_seed..base_seed + 3,
        );
        let solvers: Vec<Box<dyn Solver<f64>>> = vec![
            Box::new(KernelKmeans::new(batch_config(k))),
            Box::new(CpuKernelKmeans::new(batch_config(k))),
            Box::new(DenseGpuBaseline::new(batch_config(k))),
            Box::new(LloydKmeans::new(batch_config(k))),
        ];
        for solver in &solvers {
            assert_batch_equals_loop(solver.as_ref(), FitInput::Dense(&points), &jobs)?;
            assert_batch_equals_loop(solver.as_ref(), FitInput::Sparse(&csr), &jobs)?;
        }
    }

    #[test]
    fn batched_k_sweep_matches_independent_fits(
        points in mixed_points(18, 5),
        seed in 0u64..50,
    ) {
        let base = batch_config(2).with_seed(seed);
        let jobs = FitJob::k_sweep(&base, &[2, 3], 2).unwrap();
        prop_assume!(jobs.iter().all(|j| j.config.k <= points.rows()));
        let solver = KernelKmeans::new(base);
        assert_batch_equals_loop(&solver, FitInput::Dense(&points), &jobs)?;
    }
}

// --- simulator accounting ---------------------------------------------------

fn accounting_points() -> DenseMatrix<f64> {
    DenseMatrix::from_fn(30, 4, |i, j| {
        let offset = if i < 15 { 0.0 } else { 10.0 };
        offset + ((i * 4 + j) as f64 * 0.23).sin()
    })
}

/// Number of records in `trace` whose class is one of `classes`.
fn count_ops(trace: &popcorn::gpusim::OpTrace, classes: &[OpClass]) -> usize {
    trace
        .records()
        .iter()
        .filter(|r| classes.contains(&r.class))
        .count()
}

#[test]
fn dense_batch_charges_exactly_one_gram_product() {
    let points = accounting_points();
    let jobs = FitJob::restarts(&batch_config(3).with_convergence_check(false, 0.0), 0..4);
    let batch = KernelKmeans::new(batch_config(3))
        .fit_batch(FitInput::Dense(&points), &jobs)
        .unwrap();
    let trace = batch.combined_trace();
    // Exactly one GEMM-or-SYRK Gram product for the whole batch...
    assert_eq!(
        count_ops(&trace, &[OpClass::Gemm, OpClass::Syrk]),
        1,
        "the Gram product must be charged once per batch, not per job"
    );
    assert_eq!(count_ops(&trace, &[OpClass::SpGEMM]), 0);
    // ...while per-job iteration costs still accumulate: one SpMM per
    // iteration of every job.
    let total_iterations: usize = batch.results.iter().map(|r| r.iterations).sum();
    assert_eq!(count_ops(&trace, &[OpClass::SpMM]), total_iterations);
    assert_eq!(total_iterations, 4 * 6); // 4 jobs x max_iter 6, no early stop
}

#[test]
fn sparse_batch_charges_exactly_one_spgemm() {
    let points = accounting_points();
    let csr = CsrMatrix::from_dense(&points);
    let jobs = FitJob::restarts(&batch_config(3), 0..5);
    let batch = KernelKmeans::new(batch_config(3))
        .fit_batch(FitInput::Sparse(&csr), &jobs)
        .unwrap();
    let trace = batch.combined_trace();
    assert_eq!(count_ops(&trace, &[OpClass::SpGEMM]), 1);
    assert_eq!(count_ops(&trace, &[OpClass::Gemm, OpClass::Syrk]), 0);
    // The shared phase holds the single SpGEMM; no job trace repeats it.
    assert_eq!(count_ops(&batch.report.shared_trace, &[OpClass::SpGEMM]), 1);
    for result in &batch.results {
        assert_eq!(count_ops(&result.trace, &[OpClass::SpGEMM]), 0);
    }
}

#[test]
fn batch_uploads_the_points_exactly_once() {
    // Upload-byte accounting: the modeled host->device traffic of a batch is
    // one upload of the points, independent of the number of jobs. A
    // reintroduced per-job copy (or a clone of the shared K charged as a
    // transfer) fails this.
    let points = accounting_points();
    let input = FitInput::Dense(&points);
    let jobs = FitJob::restarts(&batch_config(2), 0..6);
    let batch = KernelKmeans::new(batch_config(2))
        .fit_batch(input, &jobs)
        .unwrap();
    let trace = batch.combined_trace();
    // (`OpCost::transfer` charges the payload on both sides of the copy, so
    // the device-side write alone is the payload size.)
    let transfer_bytes: u64 = trace
        .records()
        .iter()
        .filter(|r| r.class == OpClass::Transfer)
        .map(|r| r.cost.bytes_written)
        .sum();
    assert_eq!(
        transfer_bytes,
        input.upload_bytes(),
        "a batch of 6 jobs must move the points across PCIe exactly once"
    );
    assert_eq!(count_ops(&trace, &[OpClass::Transfer]), 1);
}

#[test]
fn per_job_iteration_costs_accumulate_per_job() {
    // Each job's own trace carries only its iterations (distance + argmin
    // phases), so per-job modeled times are attributable and sum to the
    // amortized total together with the shared phase.
    let points = accounting_points();
    let jobs = FitJob::restarts(&batch_config(2), 0..3);
    let batch = CpuKernelKmeans::new(batch_config(2))
        .fit_batch(FitInput::Dense(&points), &jobs)
        .unwrap();
    for (job, result) in batch.report.jobs.iter().zip(batch.results.iter()) {
        assert!(job.modeled_seconds > 0.0);
        assert_eq!(result.trace.phase_modeled_seconds(Phase::KernelMatrix), 0.0);
        assert!(result.trace.phase_modeled_seconds(Phase::PairwiseDistances) > 0.0);
    }
    assert!(
        batch
            .report
            .shared_trace
            .phase_modeled_seconds(Phase::KernelMatrix)
            > 0.0
    );
    let sum: f64 = batch.report.shared_modeled_seconds() + batch.report.jobs_modeled_seconds();
    assert!((sum - batch.report.amortized_modeled_seconds()).abs() < 1e-15);
}

#[test]
fn lloyd_batch_shares_exactly_the_upload_and_still_selects_best() {
    // Lloyd has no kernel matrix to share, but the points still cross PCIe:
    // the batch charges that transfer exactly once (the shared phase), and
    // every job's own trace carries only its iterations.
    let points = accounting_points();
    let input = FitInput::Dense(&points);
    let jobs = FitJob::restarts(&batch_config(3), 0..4);
    let batch = LloydKmeans::new(batch_config(3))
        .fit_batch(input, &jobs)
        .unwrap();
    assert_eq!(batch.report.shared_trace.len(), 1);
    assert_eq!(
        count_ops(&batch.report.shared_trace, &[OpClass::Transfer]),
        1
    );
    let trace = batch.combined_trace();
    assert_eq!(
        count_ops(&trace, &[OpClass::Transfer]),
        1,
        "a Lloyd batch of 4 jobs must upload the points exactly once"
    );
    let transfer_bytes: u64 = trace
        .records()
        .iter()
        .filter(|r| r.class == OpClass::Transfer)
        .map(|r| r.cost.bytes_written)
        .sum();
    assert_eq!(transfer_bytes, input.upload_bytes());
    for result in &batch.results {
        assert_eq!(count_ops(&result.trace, &[OpClass::Transfer]), 0);
    }
    assert_eq!(batch.report.jobs.len(), 4);
    assert!(batch.report.reuse_speedup() > 1.0);
    let best = batch.best_result().objective;
    assert!(batch.results.iter().all(|r| best <= r.objective));
}

#[test]
fn mixed_kernel_jobs_are_rejected() {
    let points = accounting_points();
    let jobs = vec![
        FitJob::new(batch_config(2).with_kernel(KernelFunction::Linear), 0),
        FitJob::new(
            batch_config(2).with_kernel(KernelFunction::paper_polynomial()),
            1,
        ),
    ];
    assert!(KernelKmeans::new(batch_config(2))
        .fit_batch(FitInput::Dense(&points), &jobs)
        .is_err());
    // Lloyd evaluates no kernel function, so the same mixed jobs are fine
    // there — only per-job config validity is enforced.
    let lloyd = LloydKmeans::new(batch_config(2))
        .fit_batch(FitInput::Dense(&points), &jobs)
        .unwrap();
    assert_eq!(lloyd.results.len(), 2);
    // Empty batches are rejected by every implementation, including the
    // independent fallback.
    assert!(LloydKmeans::new(batch_config(2))
        .fit_batch(FitInput::<f64>::Dense(&points), &[])
        .is_err());
}
