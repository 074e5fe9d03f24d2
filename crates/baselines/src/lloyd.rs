//! Classical (linear) k-means — Lloyd's algorithm.
//!
//! Kernel k-means exists because Lloyd's algorithm can only find linearly
//! separable clusters (paper §1–2). This implementation exists so the
//! examples and tests can demonstrate that gap: on concentric rings / moons
//! Lloyd fails while kernel k-means succeeds; on plain Gaussian blobs the two
//! agree. It also provides the `-l`-style alternative solver the artifact CLI
//! exposes.
//!
//! Both dense and CSR points are supported natively: Lloyd's assignment step
//! only needs point↔centroid distances, which for a sparse point `x` are
//! evaluated as `‖x − c‖² = ‖c‖² + Σ_{j∈nz(x)} ((x_j − c_j)² − c_j²)` in
//! `O(nnz(x))` per centroid — the points are never densified. The sweep is
//! [`popcorn_core::lloyd::nearest_centroids`], which a Lloyd model's serving
//! path runs too.

use popcorn_core::batch::{self, BatchResult, FitJob};
use popcorn_core::kernel_source::KernelSource;
use popcorn_core::lloyd;
use popcorn_core::pipeline::LoopState;
use popcorn_core::result::ClusteringResult;
use popcorn_core::solver::{FitInput, Solver};
use popcorn_core::{CoreError, KernelKmeansConfig, ModelFamily, Result};
use popcorn_dense::Scalar;
use popcorn_gpusim::{Executor, ExecutorExt, OpClass, OpCost, Phase, ResidencyScope, SimExecutor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Classical k-means via Lloyd's algorithm on the raw points.
#[derive(Debug, Clone)]
pub struct LloydKmeans {
    config: KernelKmeansConfig,
    executor: Option<Arc<dyn Executor>>,
}

impl LloydKmeans {
    /// Create a solver. The `kernel` field of the configuration is ignored
    /// (Lloyd's algorithm works in the input space).
    pub fn new(config: KernelKmeansConfig) -> Self {
        Self {
            config,
            executor: None,
        }
    }

    /// Use a specific executor (defaults to the A100 model, matching the GPU
    /// classical-k-means implementations the paper cites).
    pub fn with_executor(self, executor: impl Executor + 'static) -> Self {
        self.with_shared_executor(Arc::new(executor))
    }

    /// Use an already-shared executor handle (the CLI's sharded topology
    /// goes through this).
    pub fn with_shared_executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The solver configuration.
    pub fn config(&self) -> &KernelKmeansConfig {
        &self.config
    }

    fn executor_for<T: Scalar>(&self) -> Arc<dyn Executor> {
        self.executor.clone().unwrap_or_else(|| {
            Arc::new(SimExecutor::new(
                ModelFamily::Lloyd.default_device(),
                std::mem::size_of::<T>(),
            ))
        })
    }

    /// Lloyd's loop over either point layout. `init_centroids` (the
    /// warm-start path of `Solver::refit`) replaces the random seeding; `None`
    /// keeps the classical random initialisation bit-for-bit.
    fn fit_points<T: Scalar>(
        &self,
        points: FitInput<'_, T>,
        config: &KernelKmeansConfig,
        executor: &dyn Executor,
        init_centroids: Option<Vec<Vec<f64>>>,
    ) -> Result<ClusteringResult> {
        let n = points.n();
        let d = points.d();
        let k = config.k;
        let elem = std::mem::size_of::<T>();

        let mut centroids: Vec<Vec<f64>> = match init_centroids {
            Some(centroids) => {
                if centroids.len() != k || centroids.iter().any(|c| c.len() != d) {
                    return Err(CoreError::InvalidInput(format!(
                        "warm-start centroids must be {k} vectors of length {d}"
                    )));
                }
                centroids
            }
            None => {
                // Initial centroids: k distinct points chosen uniformly at
                // random (the "random" initialisation of classical k-means).
                let mut rng = StdRng::seed_from_u64(config.seed);
                let mut indices: Vec<usize> = (0..n).collect();
                indices.shuffle(&mut rng);
                let mut centroids = zero_centroids(k, d)?;
                for (centroid, &i) in centroids.iter_mut().zip(&indices[..k]) {
                    for_each_coordinate(points, i, centroid, |c, x| *c = x);
                }
                centroids
            }
        };

        // The centroids that produced the final assignment (i.e. the set
        // entering the last assignment step) — the model a serving path
        // replays to reproduce `labels` exactly.
        let mut last_assignment_centroids = zero_centroids(k, d)?;
        // The update's cluster sums, swapped with `centroids` once they
        // hold the means, so no iteration allocates.
        let mut sums = zero_centroids(k, d)?;

        // Labels start at cluster 0, so the first iteration's changed count
        // is the points that leave it.
        let mut state = LoopState::new(vec![0; n], k);
        while state.active(config) {
            // Assignment step: nearest centroid in Euclidean distance.
            for (last, centroid) in last_assignment_centroids.iter_mut().zip(&centroids) {
                last.copy_from_slice(centroid);
            }
            let (labels, objective) = executor.run(
                format!("lloyd assignment (n={n}, d={d}, k={k})"),
                Phase::PairwiseDistances,
                OpClass::Gemm,
                lloyd::sweep_cost(points, k),
                || lloyd::nearest_centroids(points, &centroids),
            );
            state.record(labels, objective, config);

            // Update step: new centroids are the cluster means; an empty
            // cluster keeps its previous centroid.
            let labels = state.labels();
            executor.run(
                format!("lloyd centroid update (n={n}, d={d}, k={k})"),
                Phase::Assignment,
                OpClass::Reduction,
                OpCost::new(
                    n as u64 * d as u64,
                    n as u64 * d as u64 * elem as u64,
                    k as u64 * d as u64 * elem as u64,
                ),
                || {
                    for sum in &mut sums {
                        sum.fill(0.0);
                    }
                    let mut counts = vec![0usize; k];
                    for (i, &l) in labels.iter().enumerate() {
                        counts[l] += 1;
                        for_each_coordinate(points, i, &mut sums[l], |c, x| *c += x);
                    }
                    for ((sum, centroid), &count) in sums.iter_mut().zip(&centroids).zip(&counts) {
                        if count == 0 {
                            sum.copy_from_slice(centroid);
                        } else {
                            for value in sum.iter_mut() {
                                *value /= count as f64;
                            }
                        }
                    }
                },
            );
            std::mem::swap(&mut centroids, &mut sums);
        }

        let mut result = state.into_result(executor);
        result.config = Some(config.clone());
        if result.iterations > 0 {
            result.centroids = Some(last_assignment_centroids);
        }
        Ok(result)
    }
}

/// Apply `f(out[j], x_j)` to each coordinate `x_j` of point `i` that its
/// layout stores (every coordinate of a dense row, the stored entries of a
/// CSR row).
fn for_each_coordinate<T: Scalar>(
    points: FitInput<'_, T>,
    i: usize,
    out: &mut [f64],
    f: impl Fn(&mut f64, f64),
) {
    match points {
        FitInput::Dense(p) => {
            for (out, v) in out.iter_mut().zip(p.row(i)) {
                f(out, v.to_f64());
            }
        }
        FitInput::Sparse(p) => {
            let (cols, vals) = p.row(i);
            for (&j, v) in cols.iter().zip(vals) {
                f(&mut out[j], v.to_f64());
            }
        }
    }
}

/// `k` zeroed centroids of `d` coordinates, each reserved fallibly: points
/// whose largest feature index is huge (a libSVM file's 4e9, say) get
/// [`CoreError::HostAllocationFailed`] naming the shape, not an abort.
fn zero_centroids(k: usize, d: usize) -> Result<Vec<Vec<f64>>> {
    let failed = || CoreError::HostAllocationFailed {
        what: "the dense centroids",
        shape: (k, d),
        bytes: k as u128 * d as u128 * std::mem::size_of::<f64>() as u128,
    };
    k.checked_mul(d).ok_or_else(failed)?;
    (0..k)
        .map(|_| {
            let mut centroid = Vec::new();
            centroid.try_reserve_exact(d).map_err(|_| failed())?;
            centroid.resize(d, 0.0);
            Ok(centroid)
        })
        .collect()
}

impl<T: Scalar> Solver<T> for LloydKmeans {
    fn name(&self) -> &'static str {
        ModelFamily::Lloyd.name()
    }

    fn config(&self) -> &KernelKmeansConfig {
        &self.config
    }

    /// Run Lloyd's algorithm on dense or CSR points. The modeled host→device
    /// copy of the points is charged like every other solver's.
    fn fit_input_with(
        &self,
        input: FitInput<'_, T>,
        config: &KernelKmeansConfig,
    ) -> Result<ClusteringResult> {
        config.validate(input.n())?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let _residency = ResidencyScope::new(&*executor);
        input.charge_upload(&executor);
        self.fit_points(input, config, &*executor, None)
    }

    /// Lloyd's algorithm has no kernel-matrix formulation.
    fn fit_from_source_with(
        &self,
        _source: &dyn KernelSource<T>,
        _config: &KernelKmeansConfig,
    ) -> Result<ClusteringResult> {
        Err(CoreError::Unsupported(
            "Lloyd's algorithm operates on raw points, not a kernel matrix".into(),
        ))
    }

    /// [`Solver::fit_input`] plus model extraction: the fitted model stores
    /// the points and the centroids that produced the final labels, so
    /// serving replays the last assignment step bit-for-bit.
    fn fit_model(
        &self,
        input: FitInput<'_, T>,
    ) -> Result<(ClusteringResult, popcorn_core::FittedModel<T>)> {
        let config = &self.config;
        config.validate(input.n())?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let _residency = ResidencyScope::new(&*executor);
        input.charge_upload(&executor);
        let result = self.fit_points(input, config, &*executor, None)?;
        let model = popcorn_core::FittedModel::from_lloyd(config, &result, input)?;
        Ok((result, model))
    }

    /// Warm-start/mini-batch refits. Lloyd keeps no kernel state, so "warm"
    /// means seeding the loop from the stored centroids instead of the random
    /// initialisation; with `warm_start` off the refit is bit-identical to a
    /// cold fit. Only appended points are charged as an upload — the stored
    /// points stayed device-resident.
    fn refit(
        &self,
        model: &popcorn_core::FittedModel<T>,
        request: &popcorn_core::RefitRequest<T>,
    ) -> Result<(ClusteringResult, popcorn_core::FittedModel<T>)> {
        if model.family() != ModelFamily::Lloyd {
            return Err(CoreError::InvalidInput(format!(
                "cannot refit a {} model with the lloyd solver",
                model.family().name()
            )));
        }
        let config = request
            .config
            .clone()
            .unwrap_or_else(|| model.config().clone());
        let executor = self.executor_for::<T>();
        let _residency = ResidencyScope::new(&*executor);
        let init = if request.warm_start {
            Some(
                model
                    .centroids()
                    .ok_or_else(|| {
                        CoreError::InvalidInput(
                            "the model carries no centroids to warm-start from".into(),
                        )
                    })?
                    .to_vec(),
            )
        } else {
            None
        };
        let combined;
        let points = match &request.new_points {
            None => model.points(),
            Some(new) => {
                new.as_input().validate()?;
                combined = model.points().concat(new)?;
                new.as_input().charge_upload(&executor);
                &combined
            }
        };
        config.validate(points.n())?;
        let input = points.as_input();
        let result = self.fit_points(input, &config, &*executor, init)?;
        let refitted = popcorn_core::FittedModel::from_lloyd(&config, &result, input)?;
        Ok((result, refitted))
    }

    /// The restart protocol on Lloyd: there is no kernel matrix to share, but
    /// the points still cross PCIe — so the batch charges the upload exactly
    /// once and every job's iterations run over the shared, resident points.
    /// Jobs share no per-iteration state, so `options.host_threads` fans
    /// whole restarts out across workers (merged back in job order).
    fn fit_batch_with(
        &self,
        input: FitInput<'_, T>,
        jobs: &[FitJob],
        options: &batch::BatchOptions,
    ) -> Result<BatchResult> {
        // Only the per-job configs need validating: Lloyd evaluates no kernel
        // function, so jobs may freely mix kernel/strategy/tiling settings.
        batch::validate_job_configs(&input, jobs)?;
        input.validate()?;
        let executor = self.executor_for::<T>();
        let _residency = ResidencyScope::new(&*executor);
        let mark = executor.trace().len();
        input.charge_upload(&executor);
        let shared_trace = batch::trace_since(&executor, mark);
        batch::drive_shared_kernel_with(
            jobs,
            &executor,
            shared_trace,
            options,
            |job, job_executor| self.fit_points(input, &job.config, job_executor, None),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::DenseMatrix;
    use popcorn_sparse::CsrMatrix;

    fn blob_points() -> DenseMatrix<f64> {
        DenseMatrix::from_fn(30, 2, |i, j| {
            let offset = if i < 15 { 0.0 } else { 25.0 };
            offset + ((i * 2 + j) as f64 * 0.53).sin()
        })
    }

    fn config(k: usize) -> KernelKmeansConfig {
        KernelKmeansConfig::paper_defaults(k)
            .with_max_iter(25)
            .with_convergence_check(true, 1e-10)
            .with_seed(13)
    }

    #[test]
    fn recovers_linearly_separable_blobs() {
        let result = LloydKmeans::new(config(2)).fit(&blob_points()).unwrap();
        assert!(result.converged);
        let first = result.labels[0];
        let second = result.labels[15];
        assert_ne!(first, second);
        assert!(result.labels[..15].iter().all(|&l| l == first));
        assert!(result.labels[15..].iter().all(|&l| l == second));
    }

    #[test]
    fn objective_monotone_non_increasing() {
        let result = LloydKmeans::new(config(3).with_convergence_check(false, 0.0))
            .fit(&blob_points())
            .unwrap();
        let history = result.objective_history();
        for w in history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LloydKmeans::new(config(3)).fit(&blob_points()).unwrap();
        let b = LloydKmeans::new(config(3)).fit(&blob_points()).unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn sparse_fit_matches_dense_fit() {
        // Sparse-ish blobs: zero out a few coordinates so the CSR layout is
        // non-trivial, then check both layouts agree label-for-label.
        let points = DenseMatrix::from_fn(30, 4, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                let offset = if i < 15 { 0.0 } else { 25.0 };
                offset + ((i * 4 + j) as f64 * 0.53).sin()
            }
        });
        let csr = popcorn_sparse::CsrMatrix::from_dense(&points);
        let dense = LloydKmeans::new(config(2)).fit(&points).unwrap();
        let sparse = LloydKmeans::new(config(2)).fit_sparse(&csr).unwrap();
        assert_eq!(dense.labels, sparse.labels);
        assert!(
            (dense.objective - sparse.objective).abs() / dense.objective.abs().max(1e-12) < 1e-9
        );
    }

    #[test]
    fn centroids_over_a_huge_feature_index_are_a_typed_error() {
        let d = 1usize << 61;
        let points = CsrMatrix::from_raw(
            2,
            d,
            vec![0, 2, 3],
            vec![0, d - 1, 1],
            vec![1.0f64, 2.0, 3.0],
        )
        .unwrap();
        for k in [1, 2] {
            let err = LloydKmeans::new(config(k)).fit_sparse(&points).unwrap_err();
            assert_eq!(
                err,
                CoreError::HostAllocationFailed {
                    what: "the dense centroids",
                    shape: (k, d),
                    bytes: k as u128 * d as u128 * 8,
                }
            );
        }
    }

    #[test]
    fn fit_from_kernel_is_unsupported() {
        let k_matrix = DenseMatrix::<f64>::identity(5);
        let solver = LloydKmeans::new(config(2));
        assert!(matches!(
            Solver::<f64>::fit_from_kernel(&solver, &k_matrix),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn objective_matches_inertia_definition() {
        let points = blob_points();
        let result = LloydKmeans::new(config(2)).fit(&points).unwrap();
        // After convergence, the stored objective equals the inertia of the
        // final labels (assignment against the means of those labels).
        let inertia = popcorn_metrics::inertia(&points, &result.labels).unwrap();
        assert!((result.objective - inertia).abs() / inertia.max(1e-12) < 1e-6);
    }

    #[test]
    fn handles_k_equal_n() {
        let points = DenseMatrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64 * 2.0);
        let result = LloydKmeans::new(config(5).with_max_iter(5))
            .fit(&points)
            .unwrap();
        assert_eq!(result.non_empty_clusters(), 5);
        assert!(result.objective < 1e-9);
    }

    #[test]
    fn validates_inputs() {
        assert!(LloydKmeans::new(config(100)).fit(&blob_points()).is_err());
        let no_features = DenseMatrix::<f64>::zeros(5, 0);
        assert!(LloydKmeans::new(config(2)).fit(&no_features).is_err());
    }

    /// One fit's iteration record: per iteration `(changed, empty_clusters,
    /// objective bits)`, then iterations, converged, the objective's bits
    /// and an FNV-1a hash of the centroids' bits.
    type Record = (Vec<(usize, usize, u64)>, usize, bool, u64, u64);

    fn record(result: &ClusteringResult) -> Record {
        let centroids = result
            .centroids
            .as_ref()
            .expect("a Lloyd fit keeps centroids");
        let hash = centroids
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
                (h ^ c.to_bits()).wrapping_mul(0x100_0000_01b3)
            });
        let history = result.history.iter();
        (
            history
                .map(|h| (h.changed, h.empty_clusters, h.objective.to_bits()))
                .collect(),
            result.iterations,
            result.converged,
            result.objective.to_bits(),
            hash,
        )
    }

    /// Pins Lloyd's iteration record, recorded before its history and
    /// convergence rule moved into `LoopState`.
    #[test]
    fn iteration_records_match_the_recorded_fits() {
        // Converges early with the convergence check on.
        let blobs = DenseMatrix::from_fn(40, 4, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                (i % 4) as f64 * 3.0 + ((i * 4 + j) as f64 * 0.53).sin() * 2.0
            }
        });
        // Nine identical points out of twelve: seeds coincide, so clusters
        // sit empty (and keep their centroids) for the first iterations.
        let crowded = DenseMatrix::from_fn(12, 3, |i, j| match (i, j) {
            (0..=8, 0) => 1.0,
            (0..=8, 2) => 2.0,
            (0..=8, _) => 0.0,
            _ => ((i * 3 + j) as f64 * 0.71).sin() * 6.0,
        });
        let fixed = config(3)
            .with_convergence_check(false, 0.0)
            .with_max_iter(4);
        let cases = [(&blobs, config(3)), (&crowded, fixed)];
        let expected: [Record; 2] = [
            (
                vec![
                    (37, 0, 0x40a2f6d312ab4264),
                    (4, 0, 0x409643a8ac43087f),
                    (2, 0, 0x4095b0e8ca35919f),
                    (5, 0, 0x40957d0c288f87ce),
                    (9, 0, 0x408fb999985b5bb8),
                    (1, 0, 0x4086f3eb71191395),
                    (0, 0, 0x4086d29d4123f798),
                ],
                7,
                true,
                0x4086d29d4123f798,
                0x6b008d3cdee884ad,
            ),
            (
                vec![
                    (0, 2, 0x4065b194f870b2d6),
                    (10, 1, 0x4064552c8b10ce48),
                    (9, 0, 0x4058402663b8b0fe),
                    (0, 0, 0x404f414a429f6e7a),
                ],
                4,
                false,
                0x404f414a429f6e7a,
                0x4ea3f4633ecd41c9,
            ),
        ];
        for ((points, config), expected) in cases.into_iter().zip(expected) {
            let dense = LloydKmeans::new(config.clone()).fit(points).unwrap();
            let csr = CsrMatrix::from_dense(points);
            let sparse = LloydKmeans::new(config).fit_sparse(&csr).unwrap();
            assert_eq!(record(&dense), expected, "dense points");
            assert_eq!(record(&sparse), expected, "CSR points");
        }
    }

    #[test]
    fn timings_populated() {
        let result = LloydKmeans::new(config(2)).fit(&blob_points()).unwrap();
        assert!(result.modeled_timings.pairwise_distances > 0.0);
        assert!(result.modeled_timings.assignment > 0.0);
    }
}
