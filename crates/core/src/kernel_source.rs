//! Streaming access to the kernel matrix: [`KernelSource`] and its two
//! backends.
//!
//! The paper's formulation materializes the full `n × n` kernel matrix `K` on
//! the device, which caps the reachable problem size at whatever fits in
//! device memory (~144k points of f32 on an 80 GB A100). Every consumer of
//! `K` in this workspace, however, only ever needs it **row tile by row
//! tile**: the distance SpMM, the baselines' row reductions and the CPU
//! reference all stream complete rows. [`KernelSource`] captures exactly that
//! access pattern — row panels in ascending order — so the iteration
//! pipeline no longer cares whether `K` is resident or recomputed:
//!
//! * [`FullKernel`] wraps a precomputed matrix; one tile spans all rows and
//!   nothing extra is charged. This is the in-core fast path and is what
//!   every fit used before this abstraction existed.
//! * [`TiledKernel`] retains only the (dense or CSR) points and recomputes
//!   each panel — a GEMM panel for dense points, a Gustavson SpGEMM panel
//!   for CSR points, each applying the kernel function in its write-back —
//!   never holding more than `tile_rows × n` scalars of `K`. Results are
//!   **bit-identical** to the in-core path: the panel kernels reproduce the
//!   full computation's per-entry accumulation order exactly (see
//!   `CsrMatrix::gram_panel` and the dense products' per-entry dot
//!   products), so labels, objectives and histories match to the last bit.
//!
//! A panel comes in one of three kinds ([`Panel`]), and [`for_each_panel`]
//! is the one place that asks a source for its kind:
//!
//! * **lower** panels, the packed rows `K[r, 0..=r]`, from every source of
//!   an exact symmetric `K` a solver computed: the in-core matrix, which the
//!   host keeps as its packed lower triangle, the tiled and sharded panels,
//!   and a fitted model's resident or recomputed `K`. A source that hands
//!   them out is symmetric by construction, and half of each panel's work
//!   and bytes go;
//! * **CSR** panels of a sparsified `K`;
//! * **dense row** tiles `K[r0..r1, :]` from every other source: a caller's
//!   own matrix, which promises no symmetry, and the Nyström
//!   reconstruction. A reader that needs only some columns of `K` streams
//!   them through [`KernelSource::for_each_tile_of`]:
//!   [`crate::nystrom::NystromKernel`] then reconstructs just those columns.
//!
//! Every source also hands out full dense rows ([`KernelSource::row`],
//! [`KernelSource::for_each_tile`]) for the readers that need them: kernel
//! k-means++ seeding and the kNN sparsifier's selection pass.
//!
//! [`plan_tile_rows`] is the residency planner: given the device's
//! [`DeviceSpec::mem_bytes`] capacity it keeps the full matrix when it fits,
//! picks the largest fitting tile under [`TilePolicy::Auto`], or rejects the
//! configuration outright — the simulator refuses to model a working set the
//! device could never hold.

use crate::errors::CoreError;
use crate::kernel::{KernelFunction, KernelMap};
use crate::kernel_matrix::{
    charge_kernel_map, extract_dense_point_norms, extract_point_norms, INDEX_BYTES,
};
use crate::model::ResidentKernel;
use crate::nystrom::KernelApprox;
use crate::solver::FitInput;
use crate::Result;
use popcorn_dense::{
    matmul_nt_rows_with, syrk_packed_with, DenseMatrix, PackedRows, PackedSymmetric, Scalar,
};
use popcorn_gpusim::{DeviceSpec, Executor, ExecutorExt, OpClass, OpCost, Phase, RecoveryReport};
use popcorn_sparse::{CsrMatrix, CsrRows, GramIndex};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Kernel-matrix residency policy (surfaced on the CLI as `--tile-rows`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TilePolicy {
    /// Keep the full matrix when it fits in device memory, otherwise stream
    /// the largest row tile that does (the default).
    #[default]
    Auto,
    /// Always materialize the full matrix; error if it cannot fit.
    Full,
    /// Stream row tiles of exactly this many rows (clamped to `n`); error if
    /// even that does not fit.
    Rows(usize),
}

impl TilePolicy {
    /// Name matching the CLI flag values (`auto`, `full`, or the row count).
    pub fn describe(&self) -> String {
        match self {
            TilePolicy::Auto => "auto".to_string(),
            TilePolicy::Full => "full".to_string(),
            TilePolicy::Rows(r) => r.to_string(),
        }
    }
}

/// The tile-visitor callback type of [`KernelSource::for_each_tile`].
pub type TileVisitor<'a, T> = dyn FnMut(Range<usize>, &DenseMatrix<T>) -> Result<()> + 'a;

/// The sparse-tile visitor callback type of
/// [`KernelSource::for_each_csr_tile`]: each call hands out a zero-copy
/// row-panel view `K[r0..r1, :]` of the resident CSR kernel matrix.
pub type CsrTileVisitor<'a, T> = dyn FnMut(Range<usize>, CsrRows<'_, T>) -> Result<()> + 'a;

/// The lower-tile visitor callback type of
/// [`KernelSource::for_each_lower_tile`]: each call hands out the packed
/// rows `K[r, 0..=r]` for `r ∈ r0..r1`.
pub type LowerTileVisitor<'a, T> = dyn FnMut(Range<usize>, PackedRows<'_, T>) -> Result<()> + 'a;

/// The kind of row panel a source hands out (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelKind {
    /// Dense row tiles `K[r0..r1, :]`, or compact column tiles.
    Rows,
    /// Packed lower rows `K[r, 0..=r]` of a symmetric `K`.
    Lower,
    /// CSR row panels of a sparse `K`.
    Csr,
}

/// One row panel of `K`, of the kind its source hands out.
#[derive(Debug, Clone, Copy)]
pub enum Panel<'t, T: Scalar> {
    /// Dense rows, full or compact ([`KernelSource::for_each_tile_of`]).
    Rows(&'t DenseMatrix<T>),
    /// Packed lower rows ([`KernelSource::for_each_lower_tile`]).
    Lower(PackedRows<'t, T>),
    /// CSR rows ([`KernelSource::for_each_csr_tile`]).
    Csr(CsrRows<'t, T>),
}

/// The panel visitor callback type of [`for_each_panel`].
pub type PanelVisitor<'a, T> = dyn FnMut(Range<usize>, Panel<'_, T>) -> Result<()> + 'a;

/// Stream `source`'s panels, in ascending row order, in the kind it hands
/// out: the one dispatch over the panel kinds, shared by the fit, the
/// lockstep batch and model extraction. `columns` are the columns the
/// reader needs when it reads dense rows ([`KernelSource::for_each_tile_of`]).
pub fn for_each_panel<T: Scalar>(
    source: &dyn KernelSource<T>,
    executor: &dyn Executor,
    columns: Option<&[usize]>,
    f: &mut PanelVisitor<'_, T>,
) -> Result<()> {
    match source.panel_kind() {
        PanelKind::Rows => source.for_each_tile_of(executor, columns, &mut |rows, tile| {
            f(rows, Panel::Rows(tile))
        }),
        PanelKind::Lower => {
            source.for_each_lower_tile(executor, &mut |rows, tile| f(rows, Panel::Lower(tile)))
        }
        PanelKind::Csr => {
            source.for_each_csr_tile(executor, &mut |rows, tile| f(rows, Panel::Csr(tile)))
        }
    }
}

/// Row-tile access to the kernel matrix `K`.
///
/// The iteration pipeline and the batch driver consume `K` exclusively
/// through this trait, in the panel kind the source hands out
/// ([`for_each_panel`]); whether the matrix is resident ([`FullKernel`]) or
/// recomputed per tile ([`TiledKernel`]) is invisible to them — including in
/// the results, which are bit-identical across backends.
///
/// Sources are `Sync` by contract: the parallel batch driver fans per-job
/// engine work out across host threads while every worker reads the same
/// source (`diag` from `begin_iteration`, rows during seeding), so internal
/// caches must use thread-safe interior mutability (`Mutex`, not `RefCell`).
pub trait KernelSource<T: Scalar>: Sync {
    /// Number of points `n` (the matrix is `n × n`).
    fn n(&self) -> usize;

    /// Rows per tile handed to [`KernelSource::for_each_tile`] (equals `n`
    /// for the in-core backend).
    fn tile_rows(&self) -> usize;

    /// `diag(K)` — the squared feature-space point norms `P̃` (paper §3.3).
    /// Charged to the executor on first call, cached afterwards.
    fn diag(&self, executor: &dyn Executor) -> Result<Vec<T>>;

    /// One full row `K[i, :]` (kernel k-means++ seeding needs point↔seed
    /// distances, i.e. arbitrary rows).
    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>>;

    /// Stream the matrix as contiguous row tiles, calling
    /// `f(r0..r1, &tile)` with `tile` holding rows `r0..r1` (shape
    /// `(r1 - r0) × n`). [`TiledKernel`] charges each tile's recomputation to
    /// the executor here; [`FullKernel`] charges nothing.
    fn for_each_tile(&self, executor: &dyn Executor, f: &mut TileVisitor<'_, T>) -> Result<()>;

    /// [`KernelSource::for_each_tile`] for a reader of only some columns of
    /// `K`: `columns`, ascending and distinct (`None` for every column). A
    /// source may then hand out compact tiles `K[r0..r1, columns]`, exactly
    /// `columns.len()` wide, their column `p` being `K`'s column
    /// `columns[p]`, bit for bit. Every tile is either that or `n` wide, and
    /// each is charged as the full tile it stands for. The default streams
    /// full tiles: a resident matrix has nothing to save.
    fn for_each_tile_of(
        &self,
        executor: &dyn Executor,
        columns: Option<&[usize]>,
        f: &mut TileVisitor<'_, T>,
    ) -> Result<()> {
        let _ = columns;
        self.for_each_tile(executor, f)
    }

    /// A cheap quality bound for *approximate* sources — `None` (the
    /// default) for exact backends, `Some(bound)` for lossy ones (e.g. the
    /// mean diagonal reconstruction error of
    /// [`crate::nystrom::NystromKernel`]). Surfaced on
    /// [`crate::ClusteringResult::approx_error_bound`] and in the CLI report
    /// footer.
    fn approx_error_bound(&self) -> Option<f64> {
        None
    }

    /// The resident CSR form of `K` when this source keeps one — `None` (the
    /// default) for dense backends, `Some` for
    /// [`crate::sparsified::SparsifiedKernel`].
    fn csr(&self) -> Option<&CsrMatrix<T>> {
        None
    }

    /// The kind of panel [`for_each_panel`] streams from this source: CSR
    /// panels when it keeps a CSR matrix, dense rows by default. A source of
    /// packed lower rows says [`PanelKind::Lower`] and implements
    /// [`KernelSource::for_each_lower_tile`].
    fn panel_kind(&self) -> PanelKind {
        if self.csr().is_some() {
            PanelKind::Csr
        } else {
            PanelKind::Rows
        }
    }

    /// Stream the resident CSR matrix as contiguous row-panel views, calling
    /// `f(r0..r1, panel)`. Only sources that return `Some` from
    /// [`KernelSource::csr`] support this; the default errs.
    fn for_each_csr_tile(
        &self,
        _executor: &dyn Executor,
        _f: &mut CsrTileVisitor<'_, T>,
    ) -> Result<()> {
        Err(CoreError::Unsupported(
            "this kernel source keeps no CSR-resident matrix to stream".into(),
        ))
    }

    /// Stream `K` as packed lower rows, calling `f(r0..r1, panel)` with
    /// `panel` holding `K[r, 0..=r]` for each `r` in `r0..r1`, in ascending
    /// row order and charged as the full tiles they stand for. Only sources
    /// of [`PanelKind::Lower`] support this, and they promise that `K` is
    /// bitwise symmetric — `K[l][i]` and `K[i][l]` are the same bits, so a
    /// fold may read either from the stored one — by construction: a kernel
    /// matrix a solver computed from points (GEMM and SYRK entries are the
    /// same sequential dot product, the SpGEMM walk multiplies commuting
    /// operands in the same order for `(i, j)` and `(j, i)`, and every
    /// kernel map is symmetric in `(b_ii, b_jj)`), or state checked on load.
    /// The default errs.
    fn for_each_lower_tile(
        &self,
        _executor: &dyn Executor,
        _f: &mut LowerTileVisitor<'_, T>,
    ) -> Result<()> {
        Err(CoreError::Unsupported(
            "this kernel source hands out no packed lower rows".into(),
        ))
    }

    /// The kernel state this source keeps resident, as a fitted model keeps
    /// it: [`crate::FittedModel`] extraction stores what this returns, so a
    /// source that owns its state behind an `Arc` shares it with the model
    /// instead of copying it. The default — for sources that recompute their
    /// tiles every pass — is [`ResidentKernel::Streamed`] at this source's
    /// tile height.
    fn resident(&self) -> ResidentKernel<T> {
        ResidentKernel::Streamed {
            tile_rows: self.tile_rows(),
        }
    }
}

/// The in-core backend: a precomputed kernel matrix. One tile spans all
/// rows and streaming charges nothing — the matrix was already computed
/// (and charged) by the kernel-matrix phase.
pub struct FullKernel<'a, T: Scalar> {
    matrix: Matrix<'a, T>,
    diag_cache: Mutex<Option<Vec<T>>>,
}

/// How a [`FullKernel`] holds its matrix.
enum Matrix<'a, T: Scalar> {
    /// A caller's full matrix. Any square matrix is accepted, so it promises
    /// no symmetry: its tiles are dense rows.
    Borrowed(&'a DenseMatrix<T>),
    /// A matrix a solver computed from points, kept as its packed lower
    /// triangle and shared with a fitted model that keeps it. Its tiles are
    /// lower panels (see [`KernelSource::for_each_lower_tile`]).
    Shared(Arc<PackedSymmetric<T>>),
}

impl<'a, T: Scalar> FullKernel<'a, T> {
    /// Wrap a caller's precomputed kernel matrix (must be square). Any
    /// square matrix is accepted, so the source promises no symmetry and
    /// hands out full rows.
    pub fn new(matrix: &'a DenseMatrix<T>) -> Result<Self> {
        if !matrix.is_square() {
            return Err(CoreError::InvalidInput(format!(
                "kernel matrix must be square, got {}x{}",
                matrix.rows(),
                matrix.cols()
            )));
        }
        Ok(Self::wrap(Matrix::Borrowed(matrix)))
    }

    /// Wrap the packed lower triangle of a kernel matrix a solver computed
    /// from points. A fitted model extracted from this source shares the
    /// `Arc` instead of copying the matrix.
    pub(crate) fn computed(matrix: Arc<PackedSymmetric<T>>) -> Self {
        Self::wrap(Matrix::Shared(matrix))
    }

    fn wrap(matrix: Matrix<'a, T>) -> Self {
        Self {
            matrix,
            diag_cache: Mutex::new(None),
        }
    }
}

impl<T: Scalar> KernelSource<T> for FullKernel<'_, T> {
    fn n(&self) -> usize {
        match &self.matrix {
            Matrix::Borrowed(m) => m.rows(),
            Matrix::Shared(m) => m.n(),
        }
    }

    fn tile_rows(&self) -> usize {
        self.n()
    }

    fn diag(&self, executor: &dyn Executor) -> Result<Vec<T>> {
        // Hold the lock across compute-and-store so concurrent first calls
        // (parallel per-job engines) charge the extraction exactly once.
        let mut cache = self.diag_cache.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(diag) = cache.as_ref() {
            return Ok(diag.clone());
        }
        let diag = match &self.matrix {
            Matrix::Borrowed(m) => extract_dense_point_norms(m, executor)?,
            Matrix::Shared(m) => extract_point_norms(m, executor)?,
        };
        *cache = Some(diag.clone());
        Ok(diag)
    }

    fn row(&self, i: usize, _executor: &dyn Executor) -> Result<Vec<T>> {
        Ok(match &self.matrix {
            Matrix::Borrowed(m) => m.row(i).to_vec(),
            Matrix::Shared(m) => {
                let mut row = vec![T::ZERO; m.n()];
                m.full_row_into(i, &mut row);
                row
            }
        })
    }

    /// One tile of full rows: the caller's matrix, or the computed one
    /// expanded from its triangle.
    fn for_each_tile(&self, _executor: &dyn Executor, f: &mut TileVisitor<'_, T>) -> Result<()> {
        match &self.matrix {
            Matrix::Borrowed(m) => f(0..m.rows(), m),
            Matrix::Shared(m) => f(0..m.n(), &m.to_dense()),
        }
    }

    fn panel_kind(&self) -> PanelKind {
        match self.matrix {
            Matrix::Borrowed(_) => PanelKind::Rows,
            Matrix::Shared(_) => PanelKind::Lower,
        }
    }

    fn for_each_lower_tile(
        &self,
        _executor: &dyn Executor,
        f: &mut LowerTileVisitor<'_, T>,
    ) -> Result<()> {
        match &self.matrix {
            Matrix::Shared(m) => f(0..m.n(), m.rows(0..m.n())),
            Matrix::Borrowed(_) => Err(CoreError::Unsupported(
                "a caller's kernel matrix promises no symmetry to pack".into(),
            )),
        }
    }

    /// A computed matrix is shared with the model; a caller's matrix is
    /// copied once into the model's shared state, as its lower triangle.
    fn resident(&self) -> ResidentKernel<T> {
        ResidentKernel::Full(match &self.matrix {
            Matrix::Borrowed(m) => {
                Arc::new(PackedSymmetric::from_lower(m).expect("checked square"))
            }
            Matrix::Shared(m) => Arc::clone(m),
        })
    }
}

/// The out-of-core backend: retains the points (dense or CSR) and recomputes
/// `K[r0..r1, :]` per tile via GEMM / SpGEMM panels whose write-back applies
/// the kernel function, charging every panel and its map to the executor.
/// Never holds more than `tile_rows × n` scalars of `K`.
pub struct TiledKernel<'a, T: Scalar> {
    points: FitInput<'a, T>,
    kernel: KernelFunction,
    tile_rows: usize,
    /// The Gram diagonal `xᵀx` per point, captured as `f64` exactly the way
    /// `KernelFunction::apply_to_gram` captures it from a full Gram matrix —
    /// the Gaussian kernel reads it for every entry, and `diag()` derives the
    /// kernel diagonal `P̃` from it.
    gram_diag: Vec<f64>,
    /// The column index of CSR points, built once: every Gram panel walks
    /// it, and each tile's SpGEMM pricing reads its column lengths in
    /// `O(panel nnz)`. `O(nnz + n)` memory, never `O(d)`.
    gram_index: Option<GramIndex<'a, T>>,
    diag_cache: Mutex<Option<Vec<T>>>,
}

impl<'a, T: Scalar> TiledKernel<'a, T> {
    /// Build a tiled source over retained points. Computes (and charges) the
    /// Gram diagonal once; tracks the tile buffer's modeled residency.
    pub fn new(
        points: FitInput<'a, T>,
        kernel: KernelFunction,
        tile_rows: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let source = Self::build(points, kernel, tile_rows, executor)?;
        let (n, elem) = (source.points.n(), std::mem::size_of::<T>());
        executor.track_alloc(tile_bytes(source.tile_rows, n, elem) + n as u64 * elem as u64);
        Ok(source)
    }

    /// The exact panel producer alone: [`TiledKernel::new`] without the
    /// residency tracking, for the sources whose shard stream tracks the
    /// tile buffers it plans.
    pub(crate) fn build(
        points: FitInput<'a, T>,
        kernel: KernelFunction,
        tile_rows: usize,
        executor: &dyn Executor,
    ) -> Result<Self> {
        let n = points.n();
        if tile_rows == 0 {
            return Err(CoreError::InvalidConfig(
                "tile_rows must be at least 1".into(),
            ));
        }
        if n == 0 {
            return Err(CoreError::InvalidInput("dataset has no points".into()));
        }
        let tile_rows = tile_rows.min(n);
        let elem = std::mem::size_of::<T>();
        let nnz = points.nnz();
        // One pass over the stored entries: gram_diag[i] = <p_i, p_i>,
        // accumulated exactly as the full Gram computation accumulates its
        // diagonal entries so downstream values match bit for bit.
        let gram_diag = executor.run(
            format!("tiled gram diag (n={n})"),
            Phase::KernelMatrix,
            OpClass::Elementwise,
            OpCost::new(
                2 * nnz as u64,
                nnz as u64 * elem as u64,
                n as u64 * elem as u64,
            ),
            || Self::compute_gram_diag(&points),
        );
        let gram_index = match points {
            FitInput::Dense(_) => None,
            FitInput::Sparse(p) => Some(p.gram_index()),
        };
        Ok(Self {
            points,
            kernel,
            tile_rows,
            gram_diag,
            gram_index,
            diag_cache: Mutex::new(None),
        })
    }

    /// The Gram diagonal as captured for the kernel map.
    pub fn gram_diag(&self) -> &[f64] {
        &self.gram_diag
    }

    /// This source's row tiles, in ascending order.
    fn tiles(&self) -> impl Iterator<Item = Range<usize>> {
        let (n, step) = (self.points.n(), self.tile_rows);
        (0..n).step_by(step).map(move |r0| r0..(r0 + step).min(n))
    }

    /// Compute (and charge) one finished kernel-matrix tile `K[r0..r1, :]`:
    /// the Gram panel with the kernel map in its write-back, recorded as the
    /// panel and then the map. The full-row producer, for the readers of
    /// full rows: seeding's rows and the sparsifier's selection pass.
    pub(crate) fn compute_tile(
        &self,
        r0: usize,
        r1: usize,
        executor: &dyn Executor,
    ) -> Result<DenseMatrix<T>> {
        let tile = self.kernel_panel(r0, r1, false, executor)?;
        self.charge_map(format_args!("tile rows {r0}..{r1}"), r1 - r0, executor);
        Ok(DenseMatrix::from_vec(r1 - r0, self.points.n(), tile)?)
    }

    /// [`TiledKernel::compute_tile`] for the lower panel: the packed rows
    /// `K[r, 0..=r]` for `r ∈ r0..r1`, about half the work and the bytes of
    /// the full tile, under the same records — the step both this source's
    /// own streaming loop and the row-sharded source price per tile.
    pub(crate) fn compute_lower_tile(
        &self,
        r0: usize,
        r1: usize,
        executor: &dyn Executor,
    ) -> Result<Vec<T>> {
        let tile = self.kernel_panel(r0, r1, true, executor)?;
        self.charge_map(format_args!("tile rows {r0}..{r1}"), r1 - r0, executor);
        Ok(tile)
    }

    /// Gram diagonal `xᵀx` per point, with the exact accumulation arithmetic
    /// of the full Gram paths — `pub(crate)` so the fitted-model serving
    /// path computes query diagonals with bitwise-identical values.
    pub(crate) fn compute_gram_diag(points: &FitInput<'_, T>) -> Vec<f64> {
        match points {
            FitInput::Dense(p) => (0..p.rows())
                .map(|i| {
                    let row = p.row(i);
                    let mut acc = T::ZERO;
                    for &x in row {
                        acc = x.mul_add(x, acc);
                    }
                    // The dense GEMM/SYRK paths write `0 + 1·acc` into the
                    // output cell; replay that exact arithmetic.
                    (T::ZERO + T::ONE * acc).to_f64()
                })
                .collect(),
            FitInput::Sparse(p) => (0..p.rows())
                .map(|i| {
                    let (_, vals) = p.row(i);
                    let mut acc = T::ZERO;
                    for &v in vals {
                        acc = v.mul_add(v, acc);
                    }
                    // The CSR Gram writes the accumulator directly.
                    acc.to_f64()
                })
                .collect(),
        }
    }

    /// Compute rows `r0..r1` of `K` — whole rows, or with `lower` their
    /// packed lower parts — charged as a GEMM or SpGEMM panel of the Gram
    /// matrix whose write-back applies the kernel map, and then the map:
    /// bit-identical to the same entries of the full kernel matrix.
    fn kernel_panel(
        &self,
        r0: usize,
        r1: usize,
        lower: bool,
        executor: &dyn Executor,
    ) -> Result<Vec<T>> {
        let t = r1 - r0;
        let n = self.points.n();
        let d = self.points.d();
        let elem = std::mem::size_of::<T>();
        let map = KernelMap::new(self.kernel, &self.gram_diag, &self.gram_diag);
        let panel = match &self.points {
            FitInput::Dense(p) => executor.run(
                format!("gemm K tile rows {r0}..{r1} (n={n}, d={d})"),
                Phase::KernelMatrix,
                OpClass::Gemm,
                OpCost::gemm(t, n, d, elem),
                || {
                    if lower {
                        syrk_packed_with(
                            p,
                            r0..r1,
                            #[inline(always)]
                            |i, j0, cells| map.run(i, j0, cells),
                        )
                    } else {
                        matmul_nt_rows_with(
                            p,
                            r0,
                            r1,
                            p,
                            #[inline(always)]
                            |i, j0, cells| map.run(i, j0, cells),
                        )
                        .map(DenseMatrix::into_vec)
                    }
                },
            )?,
            FitInput::Sparse(p) => {
                let storage = p.storage_bytes(elem, INDEX_BYTES);
                let index = self
                    .gram_index
                    .as_ref()
                    .expect("built at construction for sparse points");
                let cost = OpCost::new(
                    index.panel_flops(r0, r1),
                    // The panel's CSR rows are streamed once against the full
                    // operand, mirroring the full SpGEMM's 2×storage reads.
                    storage + storage * t as u64 / n.max(1) as u64,
                    tile_bytes(t, n, elem),
                );
                executor.run(
                    format!("spgemm K tile rows {r0}..{r1} (n={n}, d={d})"),
                    Phase::KernelMatrix,
                    OpClass::SpGEMM,
                    cost,
                    || {
                        if lower {
                            index.gram_lower_rows_with(
                                r0,
                                r1,
                                #[inline(always)]
                                |i, j0, cells| map.run(i, j0, cells),
                            )
                        } else {
                            index
                                .gram_rows_with(
                                    r0,
                                    r1,
                                    #[inline(always)]
                                    |i, j0, cells| map.run(i, j0, cells),
                                )
                                .into_vec()
                        }
                    },
                )
            }
        };
        Ok(panel)
    }

    /// The record of the map fused into the panel of rows `rows`, named for
    /// `what` it produced.
    fn charge_map(&self, what: std::fmt::Arguments<'_>, rows: usize, executor: &dyn Executor) {
        charge_kernel_map::<T>(
            executor,
            format!("apply {} kernel to K {what}", self.kernel.name()),
            Phase::KernelMatrix,
            self.kernel,
            rows as u64 * self.points.n() as u64,
        );
    }
}

impl<T: Scalar> KernelSource<T> for TiledKernel<'_, T> {
    fn n(&self) -> usize {
        self.points.n()
    }

    fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    fn diag(&self, executor: &dyn Executor) -> Result<Vec<T>> {
        let mut cache = self.diag_cache.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(diag) = cache.as_ref() {
            return Ok(diag.clone());
        }
        let n = self.points.n();
        let elem = std::mem::size_of::<T>();
        let kernel = self.kernel;
        let gram_diag = &self.gram_diag;
        let diag = executor.run(
            "extract diag(K) (tiled)",
            Phase::KernelMatrix,
            OpClass::Elementwise,
            OpCost::elementwise(n, 1, 1, 0, elem),
            || -> Vec<T> {
                gram_diag
                    .iter()
                    .map(|&g| T::from_f64(kernel.apply(g, g, g)))
                    .collect()
            },
        );
        *cache = Some(diag.clone());
        Ok(diag)
    }

    fn row(&self, i: usize, executor: &dyn Executor) -> Result<Vec<T>> {
        let row = self.kernel_panel(i, i + 1, false, executor)?;
        self.charge_map(format_args!("row {i}"), 1, executor);
        Ok(row)
    }

    fn for_each_tile(&self, executor: &dyn Executor, f: &mut TileVisitor<'_, T>) -> Result<()> {
        for rows in self.tiles() {
            let tile = self.compute_tile(rows.start, rows.end, executor)?;
            f(rows, &tile)?;
        }
        Ok(())
    }

    /// The panels are rows of the full computed matrix, bit for bit.
    fn panel_kind(&self) -> PanelKind {
        PanelKind::Lower
    }

    fn for_each_lower_tile(
        &self,
        executor: &dyn Executor,
        f: &mut LowerTileVisitor<'_, T>,
    ) -> Result<()> {
        for rows in self.tiles() {
            let tile = self.compute_lower_tile(rows.start, rows.end, executor)?;
            f(rows.clone(), PackedRows::new(rows, &tile)?)?;
        }
        Ok(())
    }
}

/// Plan the residency for one fit and run it over the chosen source: the
/// single dispatch point between the in-core, streaming and multi-device
/// paths.
///
/// The exact kernel-matrix rows are planned by
/// [`crate::shard::ShardPlan::for_executor`]. When a single device keeps the
/// full matrix, `compute_full` produces it (each solver computes and charges
/// its kernel matrix its own way) and `run` receives a [`FullKernel`] over
/// it. Otherwise `run` receives a [`crate::shard::ShardedKernelSource`] over
/// the retained points: one plan entry streamed in tiles on a single device,
/// or — when the executor shards work across several devices
/// ([`Executor::topology`], e.g. a [`popcorn_gpusim::ShardedExecutor`]) —
/// one contiguous row range per device; engines and the lockstep batch
/// driver work unchanged, only *where* tiles are priced moves. `k_budget`
/// sizes the modeled `n × k` iteration workspace — a standalone fit passes
/// its `k`, a batch passes the **sum** of its jobs' `k`s because the
/// lockstep driver keeps every job's buffer live at once.
///
/// With [`KernelApprox::Nystrom`] and `landmarks < n`, `run` instead
/// receives a [`crate::nystrom::NystromKernel`] — the rank-`m` factorization
/// plans its own tiling (single- or multi-device) against the same policy.
/// `landmarks >= n` degenerates to the exact dispatch, so a rank-`n`
/// "approximation" is bit-identical to an exact fit by construction.
///
/// With [`KernelApprox::Sparsified`], `run` receives a
/// [`crate::sparsified::SparsifiedKernel`] that keeps `K` CSR-resident and
/// streams zero-copy row panels — unless the sparsifier keeps every entry
/// (`knn >= n` or `τ = 0`), which degenerates to the exact dispatch just like
/// a rank-`n` Nyström fit, so full-density "sparsification" is bit-identical
/// to an exact fit by construction — traces included.
///
/// Multi-device fits are *elastic*: the row partition is throughput-weighted
/// over the devices the executor reports alive, and a
/// [`CoreError::DeviceLost`] surfaced mid-fit (the executor's
/// [`popcorn_gpusim::RecoveryPolicy::Abort`] path) is retried — up to
/// [`DEVICE_LOSS_RETRIES`] times with exponential modeled backoff — by
/// re-running `run` against a fresh source planned over the survivors. `run`
/// is therefore `FnMut`; each retry is accounted on the executor's
/// [`popcorn_gpusim::RecoveryReport`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_source<T: Scalar, R>(
    input: FitInput<'_, T>,
    kernel: KernelFunction,
    approx: KernelApprox,
    tiling: TilePolicy,
    k_budget: usize,
    executor: &dyn Executor,
    compute_full: impl FnOnce() -> Result<PackedSymmetric<T>>,
    mut run: impl FnMut(&dyn KernelSource<T>) -> Result<R>,
) -> Result<R> {
    // A fit killed by a surfaced device loss is restarted on the surviving
    // pool (the executor's liveness already excludes the dead device when
    // the error reaches us).
    let mut compute_full = Some(compute_full);
    let mut attempt = 0usize;
    loop {
        let result = dispatch(
            input,
            kernel,
            approx,
            tiling,
            k_budget,
            executor,
            &mut compute_full,
            &mut run,
        );
        match result {
            Err(CoreError::DeviceLost { .. }) if attempt < DEVICE_LOSS_RETRIES => {
                executor.note_recovery(&RecoveryReport {
                    retries: 1,
                    backoff_seconds: DEVICE_LOSS_BACKOFF_SECONDS * (1u64 << attempt) as f64,
                    ..RecoveryReport::default()
                });
                attempt += 1;
            }
            result => return result,
        }
    }
}

/// Whole-fit restarts [`run_with_source`] grants a multi-device fit after a
/// surfaced [`CoreError::DeviceLost`] before giving up.
pub const DEVICE_LOSS_RETRIES: usize = 2;

/// Modeled seconds of backoff before the first device-loss retry; doubles on
/// each subsequent attempt.
pub const DEVICE_LOSS_BACKOFF_SECONDS: f64 = 0.01;

/// One fit attempt of [`run_with_source`]: the approximate source `approx`
/// asks for, else the exact kernel matrix.
#[allow(clippy::too_many_arguments)]
fn dispatch<T: Scalar, R>(
    input: FitInput<'_, T>,
    kernel: KernelFunction,
    approx: KernelApprox,
    tiling: TilePolicy,
    k_budget: usize,
    executor: &dyn Executor,
    compute_full: &mut Option<impl FnOnce() -> Result<PackedSymmetric<T>>>,
    run: &mut impl FnMut(&dyn KernelSource<T>) -> Result<R>,
) -> Result<R> {
    let n = input.n();
    match approx {
        KernelApprox::Nystrom { landmarks, seed } if landmarks.min(n) < n => {
            let source = crate::nystrom::NystromKernel::new(
                input, kernel, landmarks, seed, tiling, k_budget, executor,
            )?;
            return run(&source);
        }
        // The adaptive search caps at full rank, so unlike the fixed-rank
        // arm there is no degenerate fall-through: a rank-n factorization is
        // still the factorization the search accepted.
        KernelApprox::NystromAuto { epsilon, seed } => {
            let source = crate::nystrom::NystromKernel::new_adaptive(
                input, kernel, epsilon, seed, tiling, k_budget, executor,
            )?;
            return run(&source);
        }
        KernelApprox::Sparsified { sparsify } if !sparsify.keeps_everything(n) => {
            let source = crate::sparsified::SparsifiedKernel::build(
                input, kernel, sparsify, tiling, k_budget, executor,
            )?;
            return run(&source);
        }
        _ => {}
    }
    let elem = std::mem::size_of::<T>();
    let plan = crate::shard::ShardPlan::for_executor(
        n,
        k_budget,
        elem,
        input.upload_bytes(),
        tiling,
        executor,
    )?;
    if executor.shard_count() <= 1 && plan.max_tile_rows() == n {
        let compute_full = compute_full
            .take()
            .expect("only single-shard fits build the in-core matrix, and they never retry");
        return run(&FullKernel::computed(Arc::new(compute_full()?)));
    }
    let source = crate::shard::ShardedKernelSource::new(input, kernel, plan, k_budget, executor)?
        .with_tiling(tiling);
    run(&source)
}

/// Tracks a phase's transient working set on the executor and frees it on
/// drop, so an error mid-phase cannot leak tracked bytes into a
/// caller-attached executor's residency.
pub(crate) struct PhaseResidency<'a> {
    executor: &'a dyn Executor,
    bytes: u64,
}

impl<'a> PhaseResidency<'a> {
    /// Track `bytes` until the guard drops.
    pub(crate) fn track(executor: &'a dyn Executor, bytes: u64) -> Self {
        executor.track_alloc(bytes);
        Self { executor, bytes }
    }

    /// Track `bytes` more, freed with the rest.
    pub(crate) fn grow(&mut self, bytes: u64) {
        self.executor.track_alloc(bytes);
        self.bytes += bytes;
    }
}

impl Drop for PhaseResidency<'_> {
    fn drop(&mut self) {
        self.executor.track_free(self.bytes);
    }
}

/// Bytes of one `rows × n` tile of `elem`-byte scalars (u64-safe).
pub fn tile_bytes(rows: usize, n: usize, elem: usize) -> u64 {
    rows as u64 * n as u64 * elem as u64
}

/// Bytes of the full `n × n` kernel matrix — computed in `u128` because past
/// `n ≈ 2×10⁶` the product no longer fits in `u64`.
pub fn full_kernel_matrix_bytes(n: usize, elem: usize) -> u128 {
    n as u128 * n as u128 * elem as u128
}

/// Modeled working-set bytes a fit needs *besides* the kernel matrix: the
/// uploaded points, the `n × k` distance/E buffer, the point-norm vector and
/// the per-point `f64` bookkeeping vector kernel k-means++ seeding holds
/// while it samples (its `k × n` seed rows reuse the distance buffer's
/// budget, so only the bookkeeping is extra).
pub fn workspace_bytes(n: usize, k: usize, elem: usize, input_bytes: u64) -> u128 {
    input_bytes as u128
        + n as u128 * k as u128 * elem as u128
        + n as u128 * elem as u128
        + n as u128 * 8
}

/// The residency planner: how many kernel-matrix rows fit per tile on
/// `device` for an `n`-point, `k`-cluster fit whose uploaded points occupy
/// `input_bytes`.
///
/// Returns `n` when the full matrix fits (or is demanded by
/// [`TilePolicy::Full`]); otherwise the tile height the policy allows. Errors
/// with [`CoreError::DeviceMemoryExceeded`] when the requested (or any)
/// layout cannot fit. All arithmetic is `u128` — a 10⁷-point f32 kernel
/// matrix is 400 TB and must not wrap.
pub fn plan_tile_rows(
    n: usize,
    k: usize,
    elem: usize,
    input_bytes: u64,
    policy: TilePolicy,
    device: &DeviceSpec,
) -> Result<usize> {
    let mem = device.mem_bytes as u128;
    let workspace = workspace_bytes(n, k, elem, input_bytes);
    let full = full_kernel_matrix_bytes(n, elem);
    let row = n as u128 * elem as u128;
    let fits_full = workspace + full <= mem;
    let reject = |required: u128| -> CoreError {
        CoreError::DeviceMemoryExceeded {
            required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
            available_bytes: device.mem_bytes,
        }
    };
    match policy {
        TilePolicy::Full => {
            if fits_full {
                Ok(n)
            } else {
                Err(reject(workspace + full))
            }
        }
        TilePolicy::Rows(rows) => {
            if rows == 0 {
                return Err(CoreError::InvalidConfig(
                    "tile_rows must be at least 1".into(),
                ));
            }
            let rows = rows.min(n);
            if workspace + rows as u128 * row <= mem {
                Ok(rows)
            } else {
                Err(reject(workspace + rows as u128 * row))
            }
        }
        TilePolicy::Auto => {
            if fits_full {
                return Ok(n);
            }
            if row == 0 {
                return Ok(n.max(1));
            }
            let budget = mem.saturating_sub(workspace);
            let rows = (budget / row) as usize;
            if rows == 0 {
                Err(reject(workspace + row))
            } else {
                Ok(rows.min(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_matrix::{compute_gram, compute_gram_csr, compute_kernel_matrix};
    use crate::strategy::{GramRoutine, KernelMatrixStrategy};
    use popcorn_gpusim::SimExecutor;
    use popcorn_gpusim::GIB;
    use popcorn_sparse::CsrMatrix;

    fn sample_points(n: usize, d: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, d, |i, j| {
            if (i + 2 * j) % 5 == 0 {
                0.0
            } else {
                ((i * d + j) as f64 * 0.23).sin() * 1.5
            }
        })
    }

    fn collect_tiles<T: Scalar>(
        source: &dyn KernelSource<T>,
        executor: &dyn Executor,
    ) -> DenseMatrix<T> {
        let n = source.n();
        let mut out = DenseMatrix::zeros(n, n);
        source
            .for_each_tile(executor, &mut |rows, tile| {
                for (local, i) in rows.clone().enumerate() {
                    out.row_mut(i).copy_from_slice(tile.row(local));
                }
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn full_kernel_is_one_uncharged_tile() {
        let points = sample_points(10, 4);
        let exec = SimExecutor::a100_f32();
        let (k, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        let k = k.to_dense();
        let source = FullKernel::new(&k).unwrap();
        assert_eq!(KernelSource::n(&source), 10);
        assert_eq!(source.tile_rows(), 10);
        let before = exec.trace().len();
        let mut tiles = 0;
        source
            .for_each_tile(&exec, &mut |rows, tile| {
                tiles += 1;
                assert_eq!(rows, 0..10);
                assert_eq!(tile.shape(), (10, 10));
                Ok(())
            })
            .unwrap();
        assert_eq!(tiles, 1);
        assert_eq!(exec.trace().len(), before, "streaming must charge nothing");
        // diag is charged once, then served from the cache.
        let diag = source.diag(&exec).unwrap();
        assert_eq!(diag.len(), 10);
        let after_first = exec.trace().len();
        assert_eq!(after_first, before + 1);
        let again = source.diag(&exec).unwrap();
        assert_eq!(diag, again);
        assert_eq!(exec.trace().len(), after_first);
        assert!(FullKernel::new(&DenseMatrix::<f64>::zeros(3, 4)).is_err());
    }

    #[test]
    fn tiled_kernel_matches_full_kernel_bit_for_bit_dense() {
        let points = sample_points(13, 5);
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::default_gaussian(),
        ] {
            for strategy in [
                KernelMatrixStrategy::ForceGemm,
                KernelMatrixStrategy::ForceSyrk,
            ] {
                let exec = SimExecutor::a100_f32();
                let (full, _) = compute_kernel_matrix(&points, kernel, strategy, &exec).unwrap();
                for tile_rows in [1usize, 2, 5, 13, 40] {
                    let source =
                        TiledKernel::new(FitInput::Dense(&points), kernel, tile_rows, &exec)
                            .unwrap();
                    let assembled = collect_tiles(&source, &exec);
                    for i in 0..13 {
                        for j in 0..13 {
                            assert_eq!(
                                assembled[(i, j)].to_bits(),
                                full[(i, j)].to_bits(),
                                "kernel {} strategy {strategy:?} tile_rows {tile_rows} ({i},{j})",
                                kernel.name()
                            );
                        }
                    }
                    // diag and row also reproduce the full matrix bits.
                    let diag = source.diag(&exec).unwrap();
                    for i in 0..13 {
                        assert_eq!(diag[i].to_bits(), full[(i, i)].to_bits());
                    }
                    let row = source.row(4, &exec).unwrap();
                    for j in 0..13 {
                        assert_eq!(row[j].to_bits(), full[(4, j)].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_kernel_matches_full_kernel_bit_for_bit_csr() {
        let points = sample_points(11, 7);
        let csr = CsrMatrix::from_dense(&points);
        for kernel in [
            KernelFunction::paper_polynomial(),
            KernelFunction::default_gaussian(),
        ] {
            let exec = SimExecutor::a100_f32();
            let (full, _) =
                crate::kernel_matrix::compute_kernel_matrix_csr(&csr, kernel, &exec).unwrap();
            for tile_rows in [1usize, 3, 4, 11] {
                let source =
                    TiledKernel::new(FitInput::Sparse(&csr), kernel, tile_rows, &exec).unwrap();
                let assembled = collect_tiles(&source, &exec);
                for i in 0..11 {
                    for j in 0..11 {
                        assert_eq!(
                            assembled[(i, j)].to_bits(),
                            full[(i, j)].to_bits(),
                            "kernel {} tile_rows {tile_rows} ({i},{j})",
                            kernel.name()
                        );
                    }
                }
                let diag = source.diag(&exec).unwrap();
                for i in 0..11 {
                    assert_eq!(diag[i].to_bits(), full[(i, i)].to_bits());
                }
            }
        }
    }

    /// Points whose Gram entries include `±∞` and NaN among ordinary
    /// values, with a row of `−0`.
    fn awkward_points<T: Scalar>(n: usize, d: usize) -> DenseMatrix<T> {
        DenseMatrix::from_fn(n, d, |i, j| {
            let v = match (i, (i * 31 + j * 17) % 61) {
                (2, _) => -0.0,
                (_, 0) if i % 7 == 0 => f64::INFINITY,
                (_, 1) if i % 7 == 0 => f64::NEG_INFINITY,
                (_, 2..=9) => -0.0,
                _ => ((i * d + j) as f64 * 0.37).sin() * 0.2,
            };
            T::from_f64(v)
        })
    }

    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Tiles and rows of a tiled source under `TilePolicy::Rows(7)` against
    /// the Gram product followed by `apply_to_gram`, dense and CSR, with
    /// each tile recorded as its panel and then its map.
    fn check_tiles_against_the_two_step_oracle<T: Scalar>() {
        // At d = 512 a panel's B spans four packed chunks in f32, seven in
        // f64; 100 rows make 14 tiles of 7 and one of 2.
        let (n, d) = (100, 512);
        let points = awkward_points::<T>(n, d);
        let csr = CsrMatrix::from_dense(&points);
        for kernel in [
            KernelFunction::Linear,
            KernelFunction::paper_polynomial(),
            KernelFunction::Gaussian {
                gamma: 0.7,
                sigma: 1.3,
            },
            KernelFunction::Sigmoid {
                gamma: 0.2,
                coef0: 0.1,
            },
        ] {
            let exec = SimExecutor::a100_f32();
            for input in [FitInput::Dense(&points), FitInput::Sparse(&csr)] {
                let mut oracle = match input {
                    FitInput::Dense(p) => compute_gram(p, GramRoutine::Gemm, &exec).unwrap(),
                    FitInput::Sparse(p) => compute_gram_csr(p, &exec).unwrap(),
                };
                kernel.apply_to_gram(&mut oracle);
                let source = TiledKernel::new(input, kernel, 7, &exec).unwrap();
                let mut tiles = 0;
                source
                    .for_each_tile(&exec, &mut |rows, tile| {
                        tiles += 1;
                        let at = format!(
                            "{} tile {rows:?}, sparse {}",
                            kernel.name(),
                            input.is_sparse()
                        );
                        let want = &oracle.as_slice()[rows.start * n..rows.end * n];
                        assert!(bits(tile.as_slice()) == bits(want), "{at}");
                        let trace = exec.trace();
                        let [.., panel, map] = trace.records() else {
                            panic!("{at}: no records")
                        };
                        assert!(panel
                            .name
                            .contains(&format!("K tile rows {}..{}", rows.start, rows.end)));
                        assert_eq!(
                            map.name,
                            format!(
                                "apply {} kernel to K tile rows {}..{}",
                                kernel.name(),
                                rows.start,
                                rows.end
                            )
                        );
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(tiles, 15);
                // The packed panels: the oracle's lower triangle, under the
                // same records, in ragged tiles.
                for tile_rows in [7, 30] {
                    let ragged = TiledKernel::new(input, kernel, tile_rows, &exec).unwrap();
                    let (mut tiles, mut seen) = (0, Vec::new());
                    ragged
                        .for_each_lower_tile(&exec, &mut |rows, panel| {
                            tiles += 1;
                            assert_eq!(panel.rows(), rows);
                            seen.extend(bits(panel.as_slice()));
                            let trace = exec.trace();
                            let [.., product, map] = trace.records() else {
                                panic!("no records")
                            };
                            let t = rows.len();
                            assert!(product
                                .name
                                .contains(&format!("K tile rows {}..{}", rows.start, rows.end)));
                            if !input.is_sparse() {
                                let elem = std::mem::size_of::<T>();
                                assert_eq!(product.cost, OpCost::gemm(t, n, d, elem));
                            }
                            assert_eq!(
                                map.name,
                                format!(
                                    "apply {} kernel to K tile rows {}..{}",
                                    kernel.name(),
                                    rows.start,
                                    rows.end
                                )
                            );
                            Ok(())
                        })
                        .unwrap();
                    assert_eq!(tiles, n.div_ceil(tile_rows));
                    let want: Vec<u64> = (0..n).flat_map(|i| bits(&oracle.row(i)[..=i])).collect();
                    assert!(
                        seen == want,
                        "{} packed tiles of {tile_rows}, sparse {}",
                        kernel.name(),
                        input.is_sparse()
                    );
                }
                for i in [0, 2, 7, 50, n - 1] {
                    let row = source.row(i, &exec).unwrap();
                    assert!(
                        bits(&row) == bits(oracle.row(i)),
                        "{} row {i}",
                        kernel.name()
                    );
                    let trace = exec.trace();
                    let map = trace.records().last().unwrap();
                    assert_eq!(
                        map.name,
                        format!("apply {} kernel to K row {i}", kernel.name())
                    );
                }
            }
        }
    }

    #[test]
    fn tiles_and_rows_write_the_gram_under_apply_to_gram_bit_for_bit() {
        check_tiles_against_the_two_step_oracle::<f32>();
        check_tiles_against_the_two_step_oracle::<f64>();
        crate::test_support::rerun_at_kernel_threads(
            module_path!(),
            "tiles_and_rows_write_the_gram_under_apply_to_gram_bit_for_bit",
        );
    }

    #[test]
    fn a_computed_matrix_is_shared_with_the_model_and_a_callers_is_copied() {
        let points = sample_points(9, 3);
        let exec = SimExecutor::a100_f32();
        let (k, _) = compute_kernel_matrix(
            &points,
            KernelFunction::paper_polynomial(),
            KernelMatrixStrategy::default(),
            &exec,
        )
        .unwrap();
        let shared = Arc::new(k);
        let computed = FullKernel::computed(Arc::clone(&shared));
        assert_eq!(computed.panel_kind(), PanelKind::Lower);
        let ResidentKernel::Full(resident) = computed.resident() else {
            panic!("a full source keeps the full matrix")
        };
        assert!(Arc::ptr_eq(&resident, &shared));

        let full = shared.to_dense();
        let caller = FullKernel::new(&full).unwrap();
        assert_eq!(caller.panel_kind(), PanelKind::Rows);
        let ResidentKernel::Full(copy) = caller.resident() else {
            panic!("a full source keeps the full matrix")
        };
        assert!(!Arc::ptr_eq(&copy, &shared));
        assert!(!std::ptr::eq(copy.as_ref(), shared.as_ref()));
        assert!(bits(copy.as_slice()) == bits(shared.as_slice()));
        let rectangular = DenseMatrix::<f64>::zeros(3, 4);
        assert!(FullKernel::new(&rectangular).is_err());
        // Both hand out the same full rows.
        for i in [0, 4, 8] {
            let (a, b) = (
                computed.row(i, &exec).unwrap(),
                caller.row(i, &exec).unwrap(),
            );
            assert!(bits(&a) == bits(&b));
        }
    }

    #[test]
    fn tiled_kernel_charges_panels_and_tracks_residency() {
        let points = sample_points(12, 4);
        let exec = SimExecutor::a100_f32();
        let source = TiledKernel::new(
            FitInput::Dense(&points),
            KernelFunction::paper_polynomial(),
            5,
            &exec,
        )
        .unwrap();
        assert_eq!(source.tile_rows(), 5);
        assert!(exec.peak_resident_bytes() >= 5 * 12 * 8);
        let before = exec.trace().len();
        let mut tile_shapes = Vec::new();
        source
            .for_each_tile(&exec, &mut |rows, tile| {
                tile_shapes.push((rows, tile.rows()));
                Ok(())
            })
            .unwrap();
        assert_eq!(tile_shapes, vec![(0..5, 5), (5..10, 5), (10..12, 2)]);
        // Each of the three tiles charges a GEMM panel + a kernel transform.
        let trace = exec.trace();
        assert_eq!(trace.len() - before, 6);
        let (gemm_time, gemm_flops) = trace.class_summary(OpClass::Gemm);
        assert!(gemm_time > 0.0);
        // Three panels perform exactly the full Gram's FLOPs.
        assert_eq!(gemm_flops, OpCost::gemm(12, 12, 4, 8).flops);
    }

    #[test]
    fn csr_tile_pass_charges_the_full_gram_flops_as_spgemm() {
        let points = sample_points(10, 6);
        let csr = CsrMatrix::from_dense(&points);
        let exec = SimExecutor::a100_f32();
        let source = TiledKernel::new(
            FitInput::Sparse(&csr),
            KernelFunction::paper_polynomial(),
            4,
            &exec,
        )
        .unwrap();
        let mark = exec.trace().len();
        source.for_each_tile(&exec, &mut |_, _| Ok(())).unwrap();
        let trace = exec.trace();
        let (_, spgemm_flops) = trace.class_summary(OpClass::SpGEMM);
        assert_eq!(spgemm_flops, csr.gram_flops());
        assert_eq!(trace.class_summary(OpClass::Gemm).0, 0.0);
        assert!(trace.len() > mark);
    }

    #[test]
    fn planner_keeps_full_matrix_when_it_fits() {
        let device = DeviceSpec::a100_80gb();
        // 10k f32 points: K is 400 MB, trivially resident on 80 GB.
        let rows = plan_tile_rows(10_000, 50, 4, 10_000 * 16 * 4, TilePolicy::Auto, &device);
        assert_eq!(rows.unwrap(), 10_000);
        let rows = plan_tile_rows(10_000, 50, 4, 10_000 * 16 * 4, TilePolicy::Full, &device);
        assert_eq!(rows.unwrap(), 10_000);
    }

    #[test]
    fn planner_auto_tiles_past_the_memory_wall() {
        let device = DeviceSpec::a100_80gb();
        // 500k f32 points: K alone is 1 TB — far past 80 GB.
        let n = 500_000;
        let input = n as u64 * 780 * 4;
        let rows = plan_tile_rows(n, 50, 4, input, TilePolicy::Auto, &device).unwrap();
        assert!(rows < n, "must tile");
        assert!(rows > 0);
        // The chosen tile fits together with the workspace...
        assert!(
            workspace_bytes(n, 50, 4, input) + tile_bytes(rows, n, 4) as u128 <= 80 * GIB as u128
        );
        // ...and one more row would not.
        assert!(
            workspace_bytes(n, 50, 4, input) + tile_bytes(rows + 1, n, 4) as u128
                > 80 * GIB as u128
        );
        // Full is rejected outright at this size.
        let err = plan_tile_rows(n, 50, 4, input, TilePolicy::Full, &device).unwrap_err();
        assert!(matches!(err, CoreError::DeviceMemoryExceeded { .. }));
    }

    #[test]
    fn planner_honours_and_validates_explicit_rows() {
        let device = DeviceSpec::a100_80gb().with_mem_bytes(GIB);
        let n = 20_000;
        // Forced tile height is respected (clamped to n).
        assert_eq!(
            plan_tile_rows(n, 10, 4, 0, TilePolicy::Rows(1_000), &device).unwrap(),
            1_000
        );
        assert_eq!(
            plan_tile_rows(100, 10, 4, 0, TilePolicy::Rows(1_000), &device).unwrap(),
            100
        );
        assert!(plan_tile_rows(n, 10, 4, 0, TilePolicy::Rows(0), &device).is_err());
        // A forced tile that cannot fit is rejected, not silently shrunk.
        let err = plan_tile_rows(n, 10, 4, 0, TilePolicy::Rows(15_000), &device).unwrap_err();
        assert!(matches!(err, CoreError::DeviceMemoryExceeded { .. }));
        // Even a single row may be too much when the workspace fills the card.
        let tiny = DeviceSpec::a100_80gb().with_mem_bytes(1024);
        let err = plan_tile_rows(n, 10, 4, 0, TilePolicy::Auto, &tiny).unwrap_err();
        assert!(matches!(err, CoreError::DeviceMemoryExceeded { .. }));
    }

    #[test]
    fn byte_helpers_use_wide_arithmetic() {
        // 10^7-point f32 kernel matrix: 4×10^14 bytes — representable in
        // u128, would truncate in u32/usize-on-32-bit math.
        assert_eq!(full_kernel_matrix_bytes(10_000_000, 4), 400_000_000_000_000);
        assert_eq!(tile_bytes(70_000, 70_000, 4), 70_000u64 * 70_000 * 4);
        let ws = workspace_bytes(10_000_000, 100, 4, u64::MAX);
        assert!(ws > u64::MAX as u128);
    }

    #[test]
    fn tile_policy_describe() {
        assert_eq!(TilePolicy::Auto.describe(), "auto");
        assert_eq!(TilePolicy::Full.describe(), "full");
        assert_eq!(TilePolicy::Rows(4096).describe(), "4096");
        assert_eq!(TilePolicy::default(), TilePolicy::Auto);
    }
}
