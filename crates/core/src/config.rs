//! Solver configuration.

use crate::errors::CoreError;
use crate::init::Initialization;
use crate::kernel::KernelFunction;
use crate::kernel_source::TilePolicy;
use crate::nystrom::KernelApprox;
use crate::strategy::KernelMatrixStrategy;
use crate::Result;
use popcorn_gpusim::Streaming;

/// Configuration for the Popcorn kernel k-means solver (and for the baseline
/// solvers, which accept the same options so comparisons are apples-to-apples).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelKmeansConfig {
    /// Number of clusters `k` (must satisfy `1 <= k <= n`).
    pub k: usize,
    /// Maximum number of iterations (the paper runs exactly 30 in its timing
    /// experiments).
    pub max_iter: usize,
    /// Relative tolerance on the objective used by the convergence check.
    pub tolerance: f64,
    /// Whether to stop early when converged (`-c 1` in the artifact CLI) or
    /// always run `max_iter` iterations (`-c 0`, used for timing).
    pub check_convergence: bool,
    /// Kernel function.
    pub kernel: KernelFunction,
    /// GEMM/SYRK selection strategy for the kernel-matrix computation.
    pub strategy: KernelMatrixStrategy,
    /// Initial assignment method.
    pub init: Initialization,
    /// RNG seed for the initial assignment.
    pub seed: u64,
    /// Repair empty clusters by reassigning the points currently farthest
    /// from their centroid (the paper does not specify a policy; disabling
    /// this leaves empty clusters empty, as the raw algorithm would).
    pub repair_empty_clusters: bool,
    /// Kernel-matrix residency policy: keep the full `n × n` matrix on the
    /// device, stream it in row tiles recomputed from the retained points, or
    /// let the planner pick the largest layout that fits
    /// ([`TilePolicy::Auto`], the default). Tiling never changes results —
    /// only what is resident and what the simulator charges.
    pub tiling: TilePolicy,
    /// Kernel-matrix representation: the exact matrix
    /// ([`KernelApprox::Exact`], the default) or a rank-`m` Nyström
    /// factorization ([`KernelApprox::Nystrom`]) that trades a bounded
    /// approximation error for `O(n·m)` memory — the only option in this
    /// configuration that can change results.
    pub approx: KernelApprox,
    /// Tile-streaming policy: `Off` (the default) prices the tile pipeline
    /// serially; `DoubleBuffered` prices tile `t+1`'s production as hidden
    /// under tile `t`'s distance fold (first tile exposed). Never changes
    /// labels, objectives or the operation trace — only
    /// [`crate::ClusteringResult::modeled_wallclock_seconds`] and the
    /// attached [`popcorn_gpusim::StreamingReport`]. A batch prices its one
    /// shared tile pass the same way, into
    /// [`crate::BatchReport::streaming`] (produce on the shared executor,
    /// consume summed over the jobs' folds), so every job of a batch must
    /// share one policy ([`crate::batch::validate_jobs`]).
    pub streaming: Streaming,
}

impl Default for KernelKmeansConfig {
    fn default() -> Self {
        Self {
            k: 10,
            max_iter: 30,
            tolerance: 1e-4,
            check_convergence: false,
            kernel: KernelFunction::paper_polynomial(),
            strategy: KernelMatrixStrategy::default(),
            init: Initialization::Random,
            seed: 0,
            repair_empty_clusters: true,
            tiling: TilePolicy::Auto,
            approx: KernelApprox::Exact,
            streaming: Streaming::Off,
        }
    }
}

impl KernelKmeansConfig {
    /// Configuration matching the paper's timing experiments: polynomial
    /// kernel (γ = c = 1, r = 2), exactly 30 iterations, random init.
    pub fn paper_defaults(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Builder-style setter for the kernel function.
    pub fn with_kernel(mut self, kernel: KernelFunction) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style setter for the iteration budget.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the initialisation method.
    pub fn with_init(mut self, init: Initialization) -> Self {
        self.init = init;
        self
    }

    /// Builder-style setter for convergence checking.
    pub fn with_convergence_check(mut self, check: bool, tolerance: f64) -> Self {
        self.check_convergence = check;
        self.tolerance = tolerance;
        self
    }

    /// Builder-style setter for the GEMM/SYRK strategy.
    pub fn with_strategy(mut self, strategy: KernelMatrixStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style setter for the empty-cluster repair policy. Disabling it
    /// leaves empty clusters empty, as the raw paper algorithm would.
    pub fn with_repair_empty_clusters(mut self, repair: bool) -> Self {
        self.repair_empty_clusters = repair;
        self
    }

    /// Builder-style setter for the kernel-matrix residency policy.
    pub fn with_tiling(mut self, tiling: TilePolicy) -> Self {
        self.tiling = tiling;
        self
    }

    /// Builder-style setter for the kernel-matrix representation (exact or
    /// Nyström).
    pub fn with_approx(mut self, approx: KernelApprox) -> Self {
        self.approx = approx;
        self
    }

    /// Builder-style setter for the tile-streaming policy.
    pub fn with_streaming(mut self, streaming: Streaming) -> Self {
        self.streaming = streaming;
        self
    }

    /// Validate the configuration against a dataset of `n` points.
    pub fn validate(&self, n: usize) -> Result<()> {
        if self.k == 0 {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        if n == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        if self.k > n {
            return Err(CoreError::InvalidConfig(format!(
                "k = {} exceeds the number of points n = {n}",
                self.k
            )));
        }
        if self.max_iter == 0 {
            return Err(CoreError::InvalidConfig(
                "max_iter must be at least 1".into(),
            ));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "tolerance must be a non-negative finite number, got {}",
                self.tolerance
            )));
        }
        if self.tiling == TilePolicy::Rows(0) {
            return Err(CoreError::InvalidConfig(
                "tile_rows must be at least 1".into(),
            ));
        }
        if let KernelApprox::Nystrom { landmarks, .. } = self.approx {
            if landmarks == 0 {
                return Err(CoreError::InvalidConfig(
                    "nystrom landmarks must be at least 1".into(),
                ));
            }
        }
        if let KernelApprox::NystromAuto { epsilon, .. } = self.approx {
            if !epsilon.is_finite() || epsilon <= 0.0 {
                return Err(CoreError::InvalidConfig(format!(
                    "nystrom auto epsilon must be finite and positive, got {epsilon}"
                )));
            }
        }
        if let KernelApprox::Sparsified { sparsify } = self.approx {
            sparsify.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol() {
        let c = KernelKmeansConfig::default();
        assert_eq!(c.max_iter, 30);
        assert!(!c.check_convergence);
        assert_eq!(c.kernel, KernelFunction::paper_polynomial());
        assert_eq!(c.init, Initialization::Random);
    }

    #[test]
    fn builders_compose() {
        let c = KernelKmeansConfig::paper_defaults(50)
            .with_kernel(KernelFunction::Linear)
            .with_max_iter(5)
            .with_seed(7)
            .with_init(Initialization::KmeansPlusPlus)
            .with_convergence_check(true, 1e-6)
            .with_strategy(KernelMatrixStrategy::ForceGemm)
            .with_repair_empty_clusters(false);
        assert_eq!(c.k, 50);
        assert_eq!(c.kernel, KernelFunction::Linear);
        assert_eq!(c.max_iter, 5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.init, Initialization::KmeansPlusPlus);
        assert!(c.check_convergence);
        assert_eq!(c.tolerance, 1e-6);
        assert_eq!(c.strategy, KernelMatrixStrategy::ForceGemm);
        assert!(!c.repair_empty_clusters);
        assert!(
            c.clone()
                .with_repair_empty_clusters(true)
                .repair_empty_clusters
        );
    }

    #[test]
    fn validation_rules() {
        let c = KernelKmeansConfig::paper_defaults(10);
        assert!(c.validate(100).is_ok());
        assert!(c.validate(10).is_ok());
        assert!(c.validate(9).is_err());
        assert!(c.validate(0).is_err());
        assert!(KernelKmeansConfig::paper_defaults(0).validate(10).is_err());
        assert!(KernelKmeansConfig::paper_defaults(2)
            .with_max_iter(0)
            .validate(10)
            .is_err());
        let mut bad_tol = KernelKmeansConfig::paper_defaults(2);
        bad_tol.tolerance = f64::NAN;
        assert!(bad_tol.validate(10).is_err());
        bad_tol.tolerance = -1.0;
        assert!(bad_tol.validate(10).is_err());
    }

    #[test]
    fn tiling_policy_builder_and_validation() {
        let c = KernelKmeansConfig::paper_defaults(2);
        assert_eq!(c.tiling, TilePolicy::Auto);
        let c = c.with_tiling(TilePolicy::Rows(512));
        assert_eq!(c.tiling, TilePolicy::Rows(512));
        assert!(c.validate(1_000).is_ok());
        assert!(c.with_tiling(TilePolicy::Rows(0)).validate(1_000).is_err());
        assert!(KernelKmeansConfig::paper_defaults(2)
            .with_tiling(TilePolicy::Full)
            .validate(10)
            .is_ok());
    }

    #[test]
    fn streaming_defaults_off_and_builder_sets_it() {
        let c = KernelKmeansConfig::paper_defaults(2);
        assert_eq!(c.streaming, Streaming::Off);
        let c = c.with_streaming(Streaming::DoubleBuffered);
        assert_eq!(c.streaming, Streaming::DoubleBuffered);
        // Streaming never invalidates a config: it is a pricing policy.
        assert!(c.validate(10).is_ok());
    }

    #[test]
    fn approx_builder_and_validation() {
        let c = KernelKmeansConfig::paper_defaults(2);
        assert_eq!(c.approx, KernelApprox::Exact);
        let nys = KernelApprox::Nystrom {
            landmarks: 64,
            seed: 5,
        };
        let c = c.with_approx(nys);
        assert_eq!(c.approx, nys);
        assert!(c.validate(1_000).is_ok());
        assert!(KernelKmeansConfig::paper_defaults(2)
            .with_approx(KernelApprox::Nystrom {
                landmarks: 0,
                seed: 0
            })
            .validate(10)
            .is_err());
    }
}
