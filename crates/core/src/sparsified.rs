//! Sparse kernel matrices: [`Sparsify`] and [`SparsifiedKernel`], the
//! CSR-resident [`KernelSource`] backend.
//!
//! The paper's thesis is that kernel k-means *is* sparse linear algebra, yet
//! the exact backends all hold (or recompute) `K` dense: every iteration pays
//! an `O(n²k)` GEMM fold and residency is `n²` scalars. For graph-shaped
//! workloads — kNN affinity matrices, thresholded Gaussian kernels, the
//! spectral-clustering-adjacent family — most of `K` is (near) zero, and
//! keeping it in CSR turns the per-iteration hot path into an
//! nnz-proportional SpMM
//! ([`popcorn_sparse::spmm_csr_rows_selection_t_into`]) and shrinks residency
//! from `n²` to `nnz`. This is a second, *independent* way past the `O(n²)`
//! memory wall that composes with the Nyström low-rank path rather than
//! replacing it: Nyström approximates globally with rank `m`, sparsification
//! approximates locally by dropping small couplings.
//!
//! [`SparsifiedKernel::build`] streams the exact kernel matrix in dense row
//! panels (never holding more than one panel), keeps the `knn` largest
//! entries per row (or every `|K_ij| ≥ τ`), always keeps the diagonal, and
//! symmetrizes the pattern as the union `S ∪ Sᵀ` — for a (bitwise symmetric)
//! kernel matrix the mirrored values are bitwise equal, so the union only
//! restores pattern symmetry, never changes a kept value.
//! [`SparsifiedKernel::from_csr`] accepts an externally built CSR kernel
//! (e.g. a graph affinity matrix from `popcorn-data`) as-is.
//!
//! Determinism and bit-identity: the panels come from the same
//! [`TiledKernel`] arithmetic as every exact path, selection is a pure
//! function of the row values (ties broken toward smaller column), and the
//! sparse distance fold scatters stored entries in ascending column order —
//! exactly the order the dense fold reads them. A sparsifier that keeps
//! *every* entry (including explicit zeros) therefore reproduces the dense
//! fold bit for bit; [`crate::kernel_source::run_with_source`] exploits this
//! by degenerating keep-everything configs to the exact dispatch, the same
//! contract as a rank-`n` Nyström fit.

use crate::kernel::KernelFunction;
use crate::kernel_matrix::INDEX_BYTES;
use crate::kernel_source::{
    plan_tile_rows, tile_bytes, KernelSource, Panel, PanelKind, PanelVisitor, PhaseResidency,
    TilePolicy, TiledKernel,
};
use crate::model::ResidentKernel;
use crate::shard::{ActiveShard, DeviceShard, RowBudget, ShardPlan, ShardRows, ShardStream};
use crate::solver::FitInput;
use crate::{CoreError, Result};
use popcorn_dense::Scalar;
use popcorn_gpusim::{DeviceSpec, Executor, ExecutorExt, OpClass, OpCost, Phase, RecoveryReport};
use popcorn_sparse::CsrMatrix;
use std::ops::Range;
use std::sync::Arc;

/// Per-row sparsification rule for the kernel matrix (surfaced on the CLI as
/// `--sparsify {knn:N|threshold:T}`). The diagonal is always kept: `K_ii` is
/// the squared feature-space norm `P̃_i` every distance needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sparsify {
    /// Keep the `neighbors` largest-magnitude entries of each row (ties
    /// broken toward the smaller column index), plus the diagonal.
    Knn {
        /// Entries kept per row (clamped to `n`).
        neighbors: usize,
    },
    /// Keep every entry with `|K_ij| >= tau`, plus the diagonal. `tau = 0`
    /// keeps everything — including explicit zeros.
    Threshold {
        /// The magnitude threshold `τ` (finite, non-negative).
        tau: f64,
    },
}

impl Sparsify {
    /// Name matching the CLI flag values (`knn:N` / `threshold:T`).
    pub fn describe(&self) -> String {
        match self {
            Sparsify::Knn { neighbors } => format!("knn:{neighbors}"),
            Sparsify::Threshold { tau } => format!("threshold:{tau}"),
        }
    }

    /// `true` when this rule keeps every entry of an `n`-point kernel matrix
    /// — the degenerate case the dispatcher routes to the exact backends.
    pub fn keeps_everything(&self, n: usize) -> bool {
        match *self {
            Sparsify::Knn { neighbors } => neighbors >= n,
            Sparsify::Threshold { tau } => tau == 0.0,
        }
    }

    /// Reject parameter values with no meaningful interpretation.
    pub fn validate(&self) -> Result<()> {
        match *self {
            Sparsify::Knn { neighbors: 0 } => Err(CoreError::InvalidConfig(
                "sparsify knn neighbors must be at least 1".into(),
            )),
            Sparsify::Threshold { tau } if !tau.is_finite() || tau < 0.0 => {
                Err(CoreError::InvalidConfig(format!(
                    "sparsify threshold must be finite and non-negative, got {tau}"
                )))
            }
            _ => Ok(()),
        }
    }
}

/// A sparsified kernel matrix held CSR-resident and streamed as zero-copy
/// row-panel views.
///
/// Residency is the CSR footprint (indptr + indices + values) plus the
/// diagonal — *not* `n²` — so the fit check budgets nnz and a device far too
/// small for the dense matrix can still hold a sparse `K`. Tiles are views
/// into the resident arrays, so [`TilePolicy`] only picks the panel height
/// handed to the engines ([`TilePolicy::Rows`]) or a single full-height panel
/// ([`TilePolicy::Auto`] / [`TilePolicy::Full`]); no height changes memory.
#[derive(Debug)]
pub struct SparsifiedKernel<T: Scalar> {
    /// Shared with the fitted models frozen from this source.
    csr: Arc<CsrMatrix<T>>,
    /// `diag(K)` as the exact backends compute it — the sparsifier always
    /// keeps the diagonal, so these are the stored diagonal entries.
    diag: Vec<T>,
    /// Mean fraction of per-row absolute mass the sparsifier dropped —
    /// `None` when the matrix was supplied pre-sparsified via
    /// [`SparsifiedKernel::from_csr`].
    dropped_mass: Option<f64>,
    tile_rows: usize,
    /// The row walk; each device holds its entries' CSR slices.
    stream: ShardStream,
}

impl<T: Scalar> SparsifiedKernel<T> {
    /// Build a sparsified kernel from retained points: stream the exact
    /// kernel matrix in dense row panels (each charged like any exact tiled
    /// pass), apply `sparsify` per row, symmetrize the pattern as `S ∪ Sᵀ`,
    /// and keep the result CSR-resident. The dense panels are transient —
    /// their height comes from [`TilePolicy::Auto`] regardless of `tiling`,
    /// so a policy of [`TilePolicy::Full`] demands only that the *CSR* fits,
    /// never the dense matrix.
    pub fn build(
        input: FitInput<'_, T>,
        kernel: KernelFunction,
        sparsify: Sparsify,
        tiling: TilePolicy,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        sparsify.validate()?;
        let n = input.n();
        if n == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        let elem = std::mem::size_of::<T>();
        let input_bytes = input.upload_bytes();

        // Transient build phase: one dense panel at a time, sized by the
        // *Auto* planner — the user's tiling policy governs the resident CSR
        // stream below, not this scratch buffer.
        let panel_rows = plan_tile_rows(
            n,
            k_budget,
            elem,
            input_bytes,
            TilePolicy::Auto,
            executor.device(),
        )?;
        let exact = TiledKernel::build(input, kernel, panel_rows, executor)?;
        let diag = exact.diag(executor)?;
        let transient = PhaseResidency::track(
            executor,
            tile_bytes(panel_rows, n, elem) + n as u64 * elem as u64 + n as u64 * 8,
        );

        let mut kept_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut kept_vals: Vec<Vec<T>> = vec![Vec::new(); n];
        let mut row_total_abs = vec![0.0f64; n];
        exact.for_each_row_tile(executor, &mut |rows, tile| {
            let (r0, r1) = (rows.start, rows.end);
            executor.run(
                format!(
                    "sparsify K rows {r0}..{r1} ({}, n={n})",
                    sparsify.describe()
                ),
                Phase::KernelMatrix,
                OpClass::Elementwise,
                // One magnitude comparison per entry; the panel is read once,
                // survivors are written at assembly below.
                OpCost::new((r1 - r0) as u64 * n as u64, tile_bytes(r1 - r0, n, elem), 0),
                || {
                    for (local, i) in (r0..r1).enumerate() {
                        row_total_abs[i] = select_row(
                            sparsify,
                            i,
                            tile.row(local),
                            &mut kept_cols[i],
                            &mut kept_vals[i],
                        );
                    }
                },
            );
            Ok(())
        })?;

        // Pattern symmetrization S ∪ Sᵀ: a kept (i, j) also keeps (j, i).
        // The kernel matrix is bitwise symmetric (entry (i,j) and (j,i) fold
        // the same products in the same order), so the mirrored value is the
        // bitwise-equal one the row already produced.
        let mut t_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut t_vals: Vec<Vec<T>> = vec![Vec::new(); n];
        for i in 0..n {
            for (&j, &v) in kept_cols[i].iter().zip(kept_vals[i].iter()) {
                t_cols[j].push(i);
                t_vals[j].push(v);
            }
        }
        let mut row_ptrs = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::new();
        let mut values: Vec<T> = Vec::new();
        let mut dropped_sum = 0.0f64;
        row_ptrs.push(0usize);
        for i in 0..n {
            let start = col_indices.len();
            merge_union(
                &kept_cols[i],
                &kept_vals[i],
                &t_cols[i],
                &t_vals[i],
                &mut col_indices,
                &mut values,
            );
            let kept_abs: f64 = values[start..].iter().map(|v| v.to_f64().abs()).sum();
            if row_total_abs[i] > 0.0 {
                dropped_sum += ((row_total_abs[i] - kept_abs) / row_total_abs[i]).max(0.0);
            }
            row_ptrs.push(col_indices.len());
        }
        let dropped_mass = dropped_sum / n as f64;
        let csr = CsrMatrix::from_raw(n, n, row_ptrs, col_indices, values)?;
        executor.charge(
            format!("assemble CSR K (n={n}, nnz={})", csr.nnz()),
            Phase::KernelMatrix,
            OpClass::Other,
            OpCost::new(
                csr.nnz() as u64,
                2 * csr.nnz() as u64 * (elem + INDEX_BYTES) as u64,
                csr.storage_bytes(elem, INDEX_BYTES),
            ),
        );
        drop(transient);

        Self::finish(
            csr,
            diag,
            Some(dropped_mass),
            tiling,
            k_budget,
            input_bytes,
            executor,
        )
    }

    /// Wrap an externally built CSR kernel matrix (e.g. a graph affinity
    /// matrix) without re-sparsifying. The matrix must be square; entries
    /// absent from a row — including a missing diagonal — read as zero.
    pub fn from_csr(
        csr: CsrMatrix<T>,
        tiling: TilePolicy,
        k_budget: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let (rows, cols) = csr.shape();
        if rows != cols {
            return Err(CoreError::InvalidInput(format!(
                "sparsified kernel matrix must be square, got {rows}x{cols}"
            )));
        }
        if rows == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        let elem = std::mem::size_of::<T>();
        let diag = executor.run(
            format!("extract diag(K) (csr, n={rows})"),
            Phase::KernelMatrix,
            OpClass::Elementwise,
            OpCost::new(
                csr.nnz() as u64,
                csr.storage_bytes(elem, INDEX_BYTES),
                rows as u64 * elem as u64,
            ),
            || (0..rows).map(|i| csr.get(i, i)).collect::<Vec<T>>(),
        );
        Self::finish(csr, diag, None, tiling, k_budget, 0, executor)
    }

    /// Shared tail of both constructors: the panel-height choice, the row
    /// plan with its nnz-budgeted fit check, and the residency tracking of
    /// the diagonal and each device's CSR slice.
    fn finish(
        csr: CsrMatrix<T>,
        diag: Vec<T>,
        dropped_mass: Option<f64>,
        tiling: TilePolicy,
        k_budget: usize,
        input_bytes: u64,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = csr.rows();
        let elem = std::mem::size_of::<T>();
        // The engines consume zero-copy views of the resident CSR, so the
        // tile height is purely a batching choice — Rows(r) is honoured
        // verbatim, Auto and Full hand out one full-height panel.
        let tile_rows = match tiling {
            TilePolicy::Rows(0) => {
                return Err(CoreError::InvalidConfig(
                    "tile_rows must be at least 1".into(),
                ));
            }
            TilePolicy::Rows(rows) => rows.min(n),
            TilePolicy::Auto | TilePolicy::Full => n,
        };
        let budget = RowBudget {
            n,
            k_budget,
            elem,
            input_bytes,
            tiling,
        };
        let plan = ShardPlan::for_executor_with(n, elem, executor, |spec, device, rows| {
            fit_csr_rows(&csr, rows, 0, &budget, tile_rows, device, spec.mem_bytes)
        })?;
        // The diagonal is replicated bookkeeping (tracked on every device);
        // each CSR row slice lives on its owning device.
        executor.track_alloc(n as u64 * elem as u64);
        let source = Self {
            csr: Arc::new(csr),
            diag,
            dropped_mass,
            tile_rows,
            stream: ShardStream::new(plan, budget),
        };
        source.stream.track(&source, executor);
        Ok(source)
    }

    /// Stored entries of the sparsified matrix.
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Fraction of stored entries relative to the dense `n²`.
    pub fn density(&self) -> f64 {
        let n = self.csr.rows() as f64;
        self.csr.nnz() as f64 / (n * n).max(1.0)
    }

    /// Modeled resident bytes of the CSR storage (indptr + indices + values).
    pub fn csr_bytes(&self) -> u64 {
        self.csr
            .storage_bytes(std::mem::size_of::<T>(), INDEX_BYTES)
    }

    /// Mean fraction of per-row absolute mass the sparsifier removed (`None`
    /// when the matrix was supplied pre-sparsified).
    pub fn dropped_mass(&self) -> Option<f64> {
        self.dropped_mass
    }
}

impl<T: Scalar> ShardRows for SparsifiedKernel<T> {
    fn held_bytes(&self, budget: &RowBudget, shard: &DeviceShard) -> u64 {
        shard_csr_bytes(&self.csr, &shard.rows, budget.elem)
    }

    /// A CSR slice stays resident: it fits beside the survivor's holdings
    /// or the re-plan fails. Panels are zero-copy views, so there is no
    /// buffer to share.
    fn migrated_chunk(
        &self,
        budget: &RowBudget,
        spec: &DeviceSpec,
        device: usize,
        rows: &Range<usize>,
        held: u64,
        _buffer: usize,
    ) -> Result<(usize, u64)> {
        let tile_rows = fit_csr_rows(
            &self.csr,
            rows,
            held,
            budget,
            self.tile_rows,
            device,
            spec.mem_bytes,
        )?;
        Ok((tile_rows, shard_csr_bytes(&self.csr, rows, budget.elem)))
    }

    /// Unlike replicated points or factors, the stored entries only exist
    /// host-side, so each migrated slice is re-uploaded to its new owner as
    /// a charged transfer.
    fn replanned(
        &self,
        _old: &ShardPlan,
        lost: usize,
        plan: &ShardPlan,
        carry: &[Option<usize>],
        executor: &dyn Executor,
        report: &mut RecoveryReport,
    ) {
        let elem = std::mem::size_of::<T>();
        for (shard, _) in plan.shards().iter().zip(carry).filter(|(_, c)| c.is_none()) {
            let bytes = shard_csr_bytes(&self.csr, &shard.rows, elem);
            let _active = ActiveShard::on(executor, shard.device);
            executor.charge(
                format!(
                    "re-upload sparsified K rows {}..{} after device {lost} loss",
                    shard.rows.start, shard.rows.end
                ),
                Phase::KernelMatrix,
                OpClass::Transfer,
                OpCost::transfer(bytes),
            );
            report.bytes_reuploaded += bytes;
        }
    }
}

impl<T: Scalar> KernelSource<T> for SparsifiedKernel<T> {
    fn n(&self) -> usize {
        self.csr.rows()
    }

    fn diag(&self, _executor: &dyn Executor) -> Result<Vec<T>> {
        // Computed (and charged) once at construction.
        Ok(self.diag.clone())
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        let _active = self.stream.on_row(executor, i);
        let n = self.csr.rows();
        let elem = std::mem::size_of::<T>();
        let (cols, vals) = self.csr.row(i);
        Ok(executor.run(
            format!("gather sparsified K row {i} (nnz={})", cols.len()),
            Phase::KernelMatrix,
            OpClass::Elementwise,
            OpCost::new(
                cols.len() as u64,
                cols.len() as u64 * (elem + INDEX_BYTES) as u64,
                n as u64 * elem as u64,
            ),
            || {
                let mut row = vec![T::ZERO; n];
                for (&j, &v) in cols.iter().zip(vals.iter()) {
                    row[j] = v;
                }
                row
            },
        ))
    }

    fn panel_kind(&self) -> PanelKind {
        PanelKind::Csr
    }

    /// The panels are zero-copy views of the resident CSR: streaming
    /// charges nothing, the engines charge their nnz-proportional folds.
    fn for_each_panel(
        &self,
        executor: &dyn Executor,
        _columns: Option<&[usize]>,
        f: &mut PanelVisitor<'_, T>,
    ) -> Result<()> {
        self.stream.walk(self, executor, &mut |_, rows| {
            f(rows.clone(), Panel::Csr(self.csr.rows_view(rows)))
        })
    }

    fn approx_error_bound(&self) -> Option<f64> {
        self.dropped_mass
    }

    fn resident(&self) -> ResidentKernel<T> {
        ResidentKernel::Csr(Arc::clone(&self.csr))
    }
}

/// Panel height of the CSR `rows` on `device` (`mem` bytes, already holding
/// `held` for its other entries), or its capacity error: the device keeps
/// the rows' CSR slice resident next to the replicated workspace and
/// diagonal.
fn fit_csr_rows<T: Scalar>(
    csr: &CsrMatrix<T>,
    rows: &Range<usize>,
    held: u64,
    budget: &RowBudget,
    panel_rows: usize,
    device: usize,
    mem: u64,
) -> Result<usize> {
    let required = budget.workspace()
        + held as u128
        + shard_csr_bytes(csr, rows, budget.elem) as u128
        + budget.n as u128 * budget.elem as u128;
    if required > mem as u128 {
        return Err(CoreError::DeviceShardMemoryExceeded {
            device,
            required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
            available_bytes: mem,
        });
    }
    Ok(panel_rows.min(rows.len()))
}

/// Bytes of the CSR slice covering `rows` (that row range's stored entries
/// plus its stretch of the row-pointer array).
fn shard_csr_bytes<T: Scalar>(csr: &CsrMatrix<T>, rows: &Range<usize>, elem: usize) -> u64 {
    if rows.is_empty() {
        return 0;
    }
    let ptrs = csr.row_ptrs();
    let nnz = (ptrs[rows.end] - ptrs[rows.start]) as u64;
    nnz * (elem + INDEX_BYTES) as u64 + (rows.len() as u64 + 1) * INDEX_BYTES as u64
}

/// Apply `sparsify` to one dense row: append the kept `(column, value)`
/// pairs — ascending columns, diagonal always included — and return the
/// row's total absolute mass (for the dropped-mass diagnostic).
///
/// `knn:N` keeps the first `N` columns in the order |K_ij| descending, then
/// column ascending. On a row without NaN that order is total, so an
/// `O(n)` selection ([`slice::select_nth_unstable_by`]) keeps the same set
/// a full sort would. With a NaN the comparator is no order at all, so such
/// a row is sorted stably, and its kept set is whatever that sort puts
/// first.
fn select_row<T: Scalar>(
    sparsify: Sparsify,
    i: usize,
    row: &[T],
    cols: &mut Vec<usize>,
    vals: &mut Vec<T>,
) -> f64 {
    let n = row.len();
    let magnitude: Vec<f64> = row.iter().map(|v| v.to_f64().abs()).collect();
    let total_abs: f64 = magnitude.iter().sum();
    match sparsify {
        Sparsify::Knn { neighbors } => {
            let keep = neighbors.min(n);
            let by_magnitude = |a: &usize, b: &usize| {
                magnitude[*b]
                    .partial_cmp(&magnitude[*a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            };
            let mut order: Vec<usize> = (0..n).collect();
            if magnitude.iter().any(|m| m.is_nan()) {
                order.sort_by(by_magnitude);
            } else if keep > 0 && keep < n {
                order.select_nth_unstable_by(keep - 1, by_magnitude);
            }
            order.truncate(keep);
            if !order.contains(&i) {
                order.push(i);
            }
            order.sort_unstable();
            for j in order {
                cols.push(j);
                vals.push(row[j]);
            }
        }
        Sparsify::Threshold { tau } => {
            for (j, &v) in row.iter().enumerate() {
                if j == i || magnitude[j] >= tau {
                    cols.push(j);
                    vals.push(v);
                }
            }
        }
    }
    total_abs
}

/// Union-merge two ascending `(column, value)` lists into the output arrays.
/// On a column present in both, the left (row-kept) value wins — for a
/// symmetric kernel matrix both are bitwise equal anyway.
fn merge_union<T: Scalar>(
    a_cols: &[usize],
    a_vals: &[T],
    b_cols: &[usize],
    b_vals: &[T],
    out_cols: &mut Vec<usize>,
    out_vals: &mut Vec<T>,
) {
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < a_cols.len() || ib < b_cols.len() {
        let take_a = match (a_cols.get(ia), b_cols.get(ib)) {
            (Some(&ca), Some(&cb)) => {
                if ca == cb {
                    ib += 1;
                    true
                } else {
                    ca < cb
                }
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("loop condition"),
        };
        if take_a {
            out_cols.push(a_cols[ia]);
            out_vals.push(a_vals[ia]);
            ia += 1;
        } else {
            out_cols.push(b_cols[ib]);
            out_vals.push(b_vals[ib]);
            ib += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popcorn_dense::DenseMatrix;
    use popcorn_gpusim::{DeviceSpec, ResidencyScope, SimExecutor};

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            let offset = if i % 2 == 0 { 0.0 } else { 6.0 };
            offset + ((i * d + j) as f64 * 0.37).sin() * 1.5
        })
    }

    fn build(
        points: &DenseMatrix<f64>,
        sparsify: Sparsify,
        tiling: TilePolicy,
    ) -> (SparsifiedKernel<f64>, SimExecutor) {
        let exec = SimExecutor::a100_f32();
        let source = SparsifiedKernel::build(
            FitInput::Dense(points),
            KernelFunction::paper_polynomial(),
            sparsify,
            tiling,
            4,
            &exec,
        )
        .unwrap();
        (source, exec)
    }

    #[test]
    fn sparsify_describe_keeps_everything_and_validation() {
        assert_eq!(Sparsify::Knn { neighbors: 32 }.describe(), "knn:32");
        assert_eq!(Sparsify::Threshold { tau: 0.5 }.describe(), "threshold:0.5");
        assert!(Sparsify::Knn { neighbors: 10 }.keeps_everything(10));
        assert!(!Sparsify::Knn { neighbors: 9 }.keeps_everything(10));
        assert!(Sparsify::Threshold { tau: 0.0 }.keeps_everything(10));
        assert!(!Sparsify::Threshold { tau: 1e-300 }.keeps_everything(10));
        assert!(Sparsify::Knn { neighbors: 1 }.validate().is_ok());
        assert!(Sparsify::Knn { neighbors: 0 }.validate().is_err());
        assert!(Sparsify::Threshold { tau: 0.0 }.validate().is_ok());
        assert!(Sparsify::Threshold { tau: -1.0 }.validate().is_err());
        assert!(Sparsify::Threshold { tau: f64::NAN }.validate().is_err());
        assert!(Sparsify::Threshold { tau: f64::INFINITY }
            .validate()
            .is_err());
        assert_eq!(
            crate::KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 8 }
            }
            .describe(),
            "sparsified(knn:8)"
        );
    }

    #[test]
    fn full_density_sparsifiers_reproduce_the_exact_matrix_bitwise() {
        let points = sample_points(13, 4);
        let kernel = KernelFunction::paper_polynomial();
        // The sparsifier streams the production Gram/GEMM path, so compare
        // against that — not the O(n²d) pairwise reference, whose summation
        // order differs in the last bit.
        let exact = {
            let exec = SimExecutor::a100_f32();
            let tiled = TiledKernel::new(FitInput::Dense(&points), kernel, 13, &exec).unwrap();
            let mut exact = DenseMatrix::zeros(13, 13);
            tiled
                .for_each_row_tile(&exec, &mut |_, tile| {
                    exact = tile.clone();
                    Ok(())
                })
                .unwrap();
            exact
        };
        for sparsify in [
            Sparsify::Knn { neighbors: 13 },
            Sparsify::Knn { neighbors: 99 },
            Sparsify::Threshold { tau: 0.0 },
        ] {
            let (source, exec) = build(&points, sparsify, TilePolicy::Rows(5));
            assert_eq!(source.nnz(), 13 * 13, "{sparsify:?} must keep everything");
            assert_eq!(source.dropped_mass(), Some(0.0));
            // CSR panels and rows match bitwise.
            source
                .for_each_panel(&exec, None, &mut |rows, panel| {
                    let Panel::Csr(panel) = panel else {
                        panic!("a sparsified source hands out CSR panels")
                    };
                    for (local, i) in rows.clone().enumerate() {
                        let (cols, vals) = panel.row(local);
                        assert_eq!(cols, (0..13).collect::<Vec<_>>().as_slice());
                        for j in 0..13 {
                            assert_eq!(vals[j].to_bits(), exact[(i, j)].to_bits());
                        }
                    }
                    Ok(())
                })
                .unwrap();
            let row = KernelSource::row(&source, 7, &exec).unwrap();
            for j in 0..13 {
                assert_eq!(row[j].to_bits(), exact[(7, j)].to_bits());
            }
            let diag = KernelSource::diag(&source, &exec).unwrap();
            for i in 0..13 {
                assert_eq!(diag[i].to_bits(), exact[(i, i)].to_bits());
            }
        }
    }

    #[test]
    fn sparsified_pattern_is_symmetric_and_keeps_the_diagonal() {
        let points = sample_points(17, 5);
        for sparsify in [
            Sparsify::Knn { neighbors: 3 },
            Sparsify::Threshold { tau: 0.8 },
        ] {
            let (source, _) = build(&points, sparsify, TilePolicy::Auto);
            let csr = &source.csr;
            assert!(csr.nnz() < 17 * 17, "{sparsify:?} must actually drop");
            for i in 0..17 {
                let (cols, _) = csr.row(i);
                assert!(cols.contains(&i), "diagonal ({i},{i}) must be kept");
                for &j in cols {
                    let (cols_j, _) = csr.row(j);
                    assert!(
                        cols_j.contains(&i),
                        "{sparsify:?}: kept ({i},{j}) demands ({j},{i})"
                    );
                    // Mirrored values are bitwise equal.
                    assert_eq!(csr.get(i, j).to_bits(), csr.get(j, i).to_bits());
                }
            }
            let bound = source.approx_error_bound().unwrap();
            assert!(bound > 0.0 && bound < 1.0, "dropped mass {bound}");
        }
    }

    #[test]
    fn sparsifier_is_deterministic_and_tiling_independent() {
        let points = sample_points(19, 4);
        let sparsify = Sparsify::Knn { neighbors: 5 };
        let (reference, _) = build(&points, sparsify, TilePolicy::Auto);
        for tiling in [TilePolicy::Rows(1), TilePolicy::Rows(7), TilePolicy::Full] {
            let (other, _) = build(&points, sparsify, tiling);
            let (a, b) = (&reference.csr, &other.csr);
            assert_eq!(a.row_ptrs(), b.row_ptrs());
            assert_eq!(a.col_indices(), b.col_indices());
            assert_eq!(
                a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(reference.dropped_mass(), other.dropped_mass());
        }
    }

    #[test]
    fn knn_tie_break_prefers_smaller_columns() {
        // A constant row: every off-diagonal magnitude ties, so the kept set
        // must be the smallest column indices plus the diagonal.
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let dense_row = [1.0f64, 1.0, 1.0, 1.0];
        let total = select_row(
            Sparsify::Knn { neighbors: 2 },
            3,
            &dense_row,
            &mut cols,
            &mut vals,
        );
        assert_eq!(total, 4.0);
        // Top-2 by (|v| desc, col asc) is {0, 1}; the diagonal 3 is added.
        assert_eq!(cols, vec![0, 1, 3]);
        assert_eq!(vals, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn knn_selection_keeps_the_sorted_reference_set() {
        // The reference: a stable sort of the whole row by (|v| desc, col
        // asc), the first `neighbors` kept, plus the diagonal.
        fn sorted_reference(neighbors: usize, i: usize, row: &[f64]) -> Vec<usize> {
            let mut order: Vec<usize> = (0..row.len()).collect();
            order.sort_by(|&a, &b| {
                row[b]
                    .abs()
                    .partial_cmp(&row[a].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order.truncate(neighbors.min(row.len()));
            if !order.contains(&i) {
                order.push(i);
            }
            order.sort_unstable();
            order
        }
        // Ties, ±0, subnormals and ±∞, drawn with repeats; every other row
        // may also draw a NaN.
        let palette = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            -2.5,
            0.75,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let (mut rows, mut with_nan) = (0, 0);
        for len in 1..=13usize {
            for draw in 0..40 {
                let choices = if draw % 2 == 0 { 10 } else { palette.len() };
                let row: Vec<f64> = (0..len).map(|_| palette[next(choices)]).collect();
                rows += 1;
                with_nan += usize::from(row.iter().any(|v| v.is_nan()));
                let i = next(len);
                for neighbors in 1..=len + 1 {
                    let (mut cols, mut vals) = (Vec::new(), Vec::new());
                    let total =
                        select_row(Sparsify::Knn { neighbors }, i, &row, &mut cols, &mut vals);
                    let want = sorted_reference(neighbors, i, &row);
                    let at = || format!("row {row:?}, i = {i}, knn:{neighbors}");
                    assert_eq!(cols, want, "{}", at());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let want_vals: Vec<f64> = want.iter().map(|&j| row[j]).collect();
                    assert_eq!(bits(&vals), bits(&want_vals), "{}", at());
                    let want_total: f64 = row.iter().map(|v| v.abs()).sum();
                    assert_eq!(total.to_bits(), want_total.to_bits(), "{}", at());
                }
            }
        }
        // Both paths ran: rows with a NaN (the stable sort) and without.
        assert!(with_nan > 0 && with_nan < rows, "{with_nan} of {rows}");
    }

    #[test]
    fn from_csr_round_trips_and_reports_no_bound() {
        let dense = DenseMatrix::<f64>::from_fn(6, 6, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let csr = CsrMatrix::from_dense(&dense);
        let exec = SimExecutor::a100_f32();
        let source = SparsifiedKernel::from_csr(csr.clone(), TilePolicy::Auto, 2, &exec).unwrap();
        assert_eq!(KernelSource::n(&source), 6);
        assert!(source.approx_error_bound().is_none());
        let diag = KernelSource::diag(&source, &exec).unwrap();
        for i in 0..6 {
            assert_eq!(diag[i].to_bits(), dense[(i, i)].to_bits());
        }
        source
            .for_each_panel(&exec, None, &mut |rows, panel| {
                let Panel::Csr(panel) = panel else {
                    panic!("a sparsified source hands out CSR panels")
                };
                for (local, i) in rows.clone().enumerate() {
                    let mut row = [0.0f64; 6];
                    let (cols, vals) = panel.row(local);
                    for (&j, &v) in cols.iter().zip(vals) {
                        row[j] = v;
                    }
                    for j in 0..6 {
                        assert_eq!(row[j].to_bits(), dense[(i, j)].to_bits());
                    }
                }
                Ok(())
            })
            .unwrap();
        // Non-square input is rejected.
        let rect = CsrMatrix::<f64>::zeros(3, 4);
        assert!(SparsifiedKernel::from_csr(rect, TilePolicy::Auto, 2, &exec).is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected_with_clear_errors() {
        let points = sample_points(8, 3);
        let exec = SimExecutor::a100_f32();
        let make = |input: FitInput<'_, f64>, sparsify: Sparsify| {
            SparsifiedKernel::build(
                input,
                KernelFunction::Linear,
                sparsify,
                TilePolicy::Auto,
                2,
                &exec,
            )
        };
        assert!(matches!(
            make(FitInput::Dense(&points), Sparsify::Knn { neighbors: 0 }),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            make(FitInput::Dense(&points), Sparsify::Threshold { tau: -0.5 }),
            Err(CoreError::InvalidConfig(_))
        ));
        let empty = DenseMatrix::<f64>::zeros(0, 3);
        assert!(matches!(
            make(FitInput::Dense(&empty), Sparsify::Knn { neighbors: 4 }),
            Err(CoreError::InvalidInput(_))
        ));
        assert!(matches!(
            SparsifiedKernel::build(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                Sparsify::Knn { neighbors: 4 },
                TilePolicy::Rows(0),
                2,
                &exec,
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        // Config-level validation mirrors the API rejection.
        assert!(crate::KernelKmeansConfig::paper_defaults(2)
            .with_approx(crate::KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 0 }
            })
            .validate(10)
            .is_err());
    }

    #[test]
    fn residency_stays_under_a_cap_the_dense_matrix_exceeds() {
        // 900 f64 points: exact K is 6.5 MB; cap the device at 2 MB. The
        // dense Full policy must reject, the sparse source must fit.
        let n = 900;
        let cap: u64 = 2 << 20;
        let points = sample_points(n, 4);
        let exec = SimExecutor::new(DeviceSpec::a100_80gb().with_mem_bytes(cap), 8);
        assert!(
            crate::kernel_source::full_kernel_matrix_bytes(n, 8) > cap as u128,
            "the wall must be real"
        );
        assert!(matches!(
            plan_tile_rows(
                n,
                4,
                8,
                points.rows() as u64 * 4 * 8,
                TilePolicy::Full,
                exec.device()
            ),
            Err(CoreError::DeviceMemoryExceeded { .. })
        ));
        let peak = {
            let _scope = ResidencyScope::new(&exec);
            let source = SparsifiedKernel::build(
                FitInput::Dense(&points),
                KernelFunction::Linear,
                Sparsify::Knn { neighbors: 16 },
                TilePolicy::Full,
                4,
                &exec,
            )
            .unwrap();
            assert!(source.csr_bytes() < cap);
            source
                .for_each_panel(&exec, None, &mut |_rows, _panel| Ok(()))
                .unwrap();
            exec.peak_resident_bytes()
        };
        assert!(peak > 0);
        assert!(peak <= cap, "peak {peak} must stay under the {cap} cap");
    }

    #[test]
    fn oversized_csr_is_rejected_against_the_device() {
        let n = 900;
        let points = sample_points(n, 4);
        // A cap so small even the kNN CSR cannot fit.
        let exec = SimExecutor::new(DeviceSpec::a100_80gb().with_mem_bytes(64 << 10), 8);
        let err = SparsifiedKernel::build(
            FitInput::Dense(&points),
            KernelFunction::Linear,
            Sparsify::Knn { neighbors: 64 },
            TilePolicy::Auto,
            4,
            &exec,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DeviceMemoryExceeded { .. }));
    }

    #[test]
    fn tile_policy_governs_panel_heights_only() {
        let points = sample_points(10, 3);
        let (auto_src, auto_exec) =
            build(&points, Sparsify::Knn { neighbors: 4 }, TilePolicy::Auto);
        assert_eq!(auto_src.tile_rows, 10);
        let mut panels = Vec::new();
        auto_src
            .for_each_panel(&auto_exec, None, &mut |rows, _| {
                panels.push(rows);
                Ok(())
            })
            .unwrap();
        assert_eq!(panels, vec![0..10]);
        let (rows_src, exec) = build(&points, Sparsify::Knn { neighbors: 4 }, TilePolicy::Rows(4));
        assert_eq!(rows_src.tile_rows, 4);
        let mut panels = Vec::new();
        rows_src
            .for_each_panel(&exec, None, &mut |rows, _| {
                panels.push(rows);
                Ok(())
            })
            .unwrap();
        assert_eq!(panels, vec![0..4, 4..8, 8..10]);
        // Same resident bytes either way: tiles are views.
        assert_eq!(auto_exec.peak_resident_bytes(), exec.peak_resident_bytes());
    }

    #[test]
    fn device_loss_mid_stream_re_shards_and_re_uploads_csr_slices() {
        use popcorn_gpusim::{FaultPlan, LinkSpec, ShardedExecutor};
        let n = 60;
        let points = sample_points(n, 4);
        let base = ShardedExecutor::homogeneous(DeviceSpec::a100_80gb(), 3, LinkSpec::nvlink(), 8);
        // Device 1 dies at the start of pass 1 (after a clean pass 0).
        let faulty = base.with_fault_plan(FaultPlan::new().lose(1, 1));
        let source = SparsifiedKernel::build(
            FitInput::Dense(&points),
            KernelFunction::paper_polynomial(),
            Sparsify::Knn { neighbors: 8 },
            TilePolicy::Auto,
            4,
            &faulty,
        )
        .unwrap();
        for pass in 0..3 {
            let mut covered = vec![false; n];
            source
                .for_each_panel(&faulty, None, &mut |rows, _panel| {
                    for i in rows {
                        assert!(!covered[i], "row {i} visited twice in pass {pass}");
                        covered[i] = true;
                    }
                    Ok(())
                })
                .unwrap();
            assert!(
                covered.iter().all(|&c| c),
                "pass {pass} must cover every row exactly once"
            );
        }
        // The walk no longer touches device 1 and the migration was accounted
        // as a modeled re-upload of the lost CSR slices.
        let plan = source.stream.plan();
        assert!(plan.shards().iter().all(|s| s.device != 1));
        assert_eq!(
            plan.shards().iter().map(|s| s.rows.len()).sum::<usize>(),
            n,
            "the re-shard must still cover every row"
        );
        let report = faulty.recovery_report().expect("recovery must be recorded");
        assert_eq!(report.devices_lost, 1);
        assert!(report.rows_migrated > 0);
        assert!(report.bytes_reuploaded > 0);
        assert!(report.reshard_seconds > 0.0);
        assert_eq!(faulty.device_alive(), vec![true, false, true]);
    }
}
