//! Per-operation cost model.
//!
//! Each simulated operation is described by an [`OpCost`] (FLOPs, bytes moved,
//! utilization hint) and an [`OpClass`] (which library routine or hand-written
//! kernel it corresponds to). The [`CostModel`] turns that description into a
//! modeled execution time on a [`DeviceSpec`] using a roofline-style bound:
//!
//! ```text
//! t = max( flops / (peak · eff_compute · util),
//!          bytes / (bandwidth · eff_memory · util) ) + launch_overhead
//! ```
//!
//! The per-class efficiency factors encode how well each routine uses the
//! device: cuBLAS GEMM runs close to peak, cuSPARSE SpMM is memory-bound but
//! well coalesced, and the baseline's hand-written shared-memory reduction
//! kernel (paper §5.3) is charged a lower memory efficiency — which is
//! exactly the effect the paper measures in Figures 5 and 6.

use crate::device::DeviceSpec;

/// Classification of a simulated operation, mirroring the library routines
/// and hand-written kernels the paper's implementations are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// cuBLAS-style dense GEMM.
    Gemm,
    /// cuBLAS-style SYRK (one triangle).
    Syrk,
    /// cuSPARSE-style sparse × dense SpMM.
    SpMM,
    /// cuSPARSE-style SpMV.
    SpMV,
    /// cuSPARSE-style SpGEMM.
    SpGEMM,
    /// cuSOLVER-style small dense factorization (Cholesky / eigen solve of a
    /// Nyström core matrix). Heavily serialized compared to GEMM: panel
    /// factorizations expose little parallelism at the `m × m` sizes the
    /// approximate kernel path uses.
    Factorize,
    /// thrust-style elementwise transform (kernel function application,
    /// distance assembly, diagonal extraction, ...).
    Elementwise,
    /// RAPIDS-style coalesced row reduction (argmin).
    Reduction,
    /// A hand-written kernel of the dense CUDA baseline (paper §5.3): the
    /// shared-memory row reduction and the centroid-norm reduction.
    HandwrittenReduction,
    /// Host ↔ device transfer over the interconnect.
    Transfer,
    /// NCCL-style device↔device all-reduce of per-shard partials. A
    /// multi-device executor prices this against its topology's `LinkSpec`;
    /// a single-device cost model falls back to the host interconnect.
    AllReduce,
    /// Anything else (bookkeeping kernels, V rebuild, ...).
    Other,
}

/// Which on-device execution engine an operation class occupies.
///
/// Real devices run kernels on the SMs and DMA copies on dedicated copy
/// engines; operations queued on the *same* engine serialize even when they
/// come from independent streams, while the two engines overlap each other.
/// The stream-aware batch wall-clock model
/// (`BatchReport::modeled_concurrent_seconds` in `popcorn-core`) is built on
/// this split: restart jobs sharing one device serialize their compute, but a
/// job's transfers can hide under another job's compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceEngine {
    /// The SM/compute pipeline (GEMM, SpMM, reductions, elementwise, ...).
    Compute,
    /// The DMA/copy pipeline (host↔device transfers, device↔device
    /// all-reduces).
    Copy,
}

/// Modeled seconds split by [`DeviceEngine`] — the aggregation the pipelined
/// streaming model works in, since only work on *different* engines (or on
/// concurrent streams) can overlap.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineSeconds {
    /// Seconds on the SM/compute pipeline.
    pub compute: f64,
    /// Seconds on the DMA/copy pipeline.
    pub copy: f64,
}

impl EngineSeconds {
    /// Serialized total across both engines.
    pub fn total(&self) -> f64 {
        self.compute + self.copy
    }

    /// Accumulate `seconds` on the engine `class` executes on.
    pub fn add(&mut self, class: OpClass, seconds: f64) {
        match class.device_engine() {
            DeviceEngine::Compute => self.compute += seconds,
            DeviceEngine::Copy => self.copy += seconds,
        }
    }

    /// Element-wise sum with another split.
    pub fn accumulate(&mut self, other: EngineSeconds) {
        self.compute += other.compute;
        self.copy += other.copy;
    }
}

impl OpClass {
    /// The device engine operations of this class execute on (see
    /// [`DeviceEngine`]).
    pub fn device_engine(self) -> DeviceEngine {
        match self {
            OpClass::Transfer | OpClass::AllReduce => DeviceEngine::Copy,
            _ => DeviceEngine::Compute,
        }
    }

    /// Fraction of peak compute this class of routine typically sustains.
    pub fn compute_efficiency(self) -> f64 {
        match self {
            OpClass::Gemm => 0.85,
            OpClass::Syrk => 0.80,
            OpClass::SpMM => 0.60,
            OpClass::SpMV => 0.40,
            OpClass::SpGEMM => 0.25,
            OpClass::Factorize => 0.30,
            OpClass::Elementwise => 0.50,
            OpClass::Reduction => 0.50,
            OpClass::HandwrittenReduction => 0.35,
            OpClass::Transfer => 1.0,
            OpClass::AllReduce => 1.0,
            OpClass::Other => 0.50,
        }
    }

    /// Fraction of peak memory bandwidth this class of routine typically
    /// sustains. The gap between [`OpClass::SpMM`] (cuSPARSE, coalesced) and
    /// [`OpClass::HandwrittenReduction`] (the baseline's kernel) is the main
    /// driver of the Popcorn-vs-baseline speedup in Figures 4–7.
    pub fn memory_efficiency(self) -> f64 {
        match self {
            OpClass::Gemm => 0.85,
            OpClass::Syrk => 0.85,
            OpClass::SpMM => 0.72,
            OpClass::SpMV => 0.60,
            OpClass::SpGEMM => 0.35,
            OpClass::Factorize => 0.40,
            OpClass::Elementwise => 0.90,
            OpClass::Reduction => 0.80,
            OpClass::HandwrittenReduction => 0.30,
            OpClass::Transfer => 0.90,
            OpClass::AllReduce => 0.85,
            OpClass::Other => 0.60,
        }
    }
}

/// FLOP and byte footprint of one operation, plus an optional utilization
/// hint in `(0, 1]` capturing how much of the device the launch can occupy
/// (e.g. an SpMM with very few output columns cannot fill an A100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Floating point operations performed.
    pub flops: u64,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
    /// Utilization factor in `(0, 1]`; 1.0 means the launch can saturate the
    /// device.
    pub utilization: f64,
}

impl OpCost {
    /// A cost record with explicit FLOPs and bytes and full utilization.
    pub fn new(flops: u64, bytes_read: u64, bytes_written: u64) -> Self {
        Self {
            flops,
            bytes_read,
            bytes_written,
            utilization: 1.0,
        }
    }

    /// Override the utilization hint (clamped to `(0, 1]`).
    pub fn with_utilization(mut self, utilization: f64) -> Self {
        self.utilization = utilization.clamp(1e-3, 1.0);
        self
    }

    /// Total bytes moved (saturated, so any two counts add).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read.saturating_add(self.bytes_written)
    }

    /// Cost of a dense GEMM `(m×k) · (k×n)` with `elem`-byte scalars:
    /// `2mnk` FLOPs, reads both operands once, writes the output once.
    ///
    /// All byte/FLOP arithmetic in these constructors is performed in `u64`
    /// *before* any product is taken, so shapes whose products exceed
    /// `usize::MAX` on 32-bit targets (an `n × n` matrix past `n ≈ 2^16`
    /// already does) never overflow the intermediate `usize` math.
    pub fn gemm(m: usize, n: usize, k: usize, elem: usize) -> Self {
        let (m, n, k, elem) = (m as u64, n as u64, k as u64, elem as u64);
        Self::new(2 * m * n * k, (m * k + k * n) * elem, m * n * elem)
    }

    /// Cost of a SYRK producing an `n×n` symmetric matrix from an `n×d`
    /// operand (half the GEMM FLOPs) plus the triangular mirror copy the
    /// paper charges against the SYRK-based algorithm (§4.2).
    pub fn syrk_with_mirror(n: usize, d: usize, elem: usize) -> Self {
        let (n, d, elem) = (n as u64, d as u64, elem as u64);
        let tri = n * (n + 1) / 2;
        let mirror = n * n.saturating_sub(1) / 2 * elem;
        Self::new(tri * 2 * d, n * d * elem + mirror, tri * elem + mirror)
    }

    /// Cost of a generic SpMM `C = A_sparse · B_dense` where `A` is CSR with
    /// `nnz` stored entries (`index_bytes`-wide indices), `B` is
    /// `dense_rows × dense_cols`, and `C` is `out_rows × dense_cols`:
    /// each stored entry contributes one FMA per output column.
    pub fn spmm(
        nnz: usize,
        dense_rows: usize,
        dense_cols: usize,
        out_rows: usize,
        elem: usize,
        index_bytes: usize,
    ) -> Self {
        let (nnz, dense_rows, dense_cols, out_rows) = (
            nnz as u64,
            dense_rows as u64,
            dense_cols as u64,
            out_rows as u64,
        );
        let (elem, index_bytes) = (elem as u64, index_bytes as u64);
        Self::new(
            2 * nnz * dense_cols,
            dense_rows * dense_cols * elem + nnz * (elem + index_bytes),
            out_rows * dense_cols * elem,
        )
    }

    /// Cost of the Popcorn distance SpMM `E = −2 K Vᵀ` specifically
    /// (paper §3.1): `K` is `n×n` dense, `V` is `k×n` with exactly `n`
    /// non-zeros, so the product performs `2n²` FLOPs, reads `K` once and
    /// `V` once, and writes the `n×k` output.
    pub fn spmm_kvt(n: usize, k: usize, elem: usize, index_bytes: usize) -> Self {
        Self::spmm_kvt_rows(n, n, k, elem, index_bytes)
    }

    /// Cost of the distance SpMM restricted to a row tile of `K`:
    /// `E[r0..r1, :] = −2 K[r0..r1, :] Vᵀ` with `rows = r1 − r0`. The tile is
    /// read once, `V` (all `n` stored entries) is read once per tile, and the
    /// tile's slice of the output is written. With `rows == n` this is
    /// exactly [`OpCost::spmm_kvt`].
    pub fn spmm_kvt_rows(rows: usize, n: usize, k: usize, elem: usize, index_bytes: usize) -> Self {
        let (rows, n, k, elem, index_bytes) = (
            rows as u64,
            n as u64,
            k as u64,
            elem as u64,
            index_bytes as u64,
        );
        Self::new(
            2 * rows * n,
            rows * n * elem + n * (elem + index_bytes),
            rows * k * elem,
        )
    }

    /// Cost of the distance SpMM over a **sparse-K** row panel:
    /// `E[r0..r1, :] = −2 K_csr[r0..r1, :] Vᵀ` where the panel stores
    /// `panel_nnz` entries (`index_bytes`-wide indices). Each stored entry
    /// contributes one FMA, the panel's CSR arrays (values + indices +
    /// `rows + 1` indptr entries) are read once, `V` (all `n` stored entries)
    /// is read once per tile exactly as in [`OpCost::spmm_kvt_rows`], and the
    /// tile's `rows × k` output slice is written. With `panel_nnz = rows · n`
    /// the FLOPs match the dense-K tile charge; the traffic replaces the
    /// dense `rows · n · elem` tile read with the nnz-proportional CSR read.
    pub fn spmm_csr_kvt_rows(
        panel_nnz: usize,
        rows: usize,
        n: usize,
        k: usize,
        elem: usize,
        index_bytes: usize,
    ) -> Self {
        let (panel_nnz, rows, n, k, elem, index_bytes) = (
            panel_nnz as u64,
            rows as u64,
            n as u64,
            k as u64,
            elem as u64,
            index_bytes as u64,
        );
        Self::new(
            2 * panel_nnz,
            panel_nnz * (elem + index_bytes) + (rows + 1) * index_bytes + n * (elem + index_bytes),
            rows * k * elem,
        )
    }

    /// Cost of an SpMV over a CSR matrix with `nnz` entries and an `x` vector
    /// of length `cols`, producing `rows` outputs.
    pub fn spmv(nnz: usize, rows: usize, cols: usize, elem: usize, index_bytes: usize) -> Self {
        let (nnz, rows, cols, elem, index_bytes) = (
            nnz as u64,
            rows as u64,
            cols as u64,
            elem as u64,
            index_bytes as u64,
        );
        Self::new(
            2 * nnz,
            nnz * (elem + index_bytes) + cols * elem,
            rows * elem,
        )
    }

    /// Cost of an elementwise transform touching `n` elements with `reads`
    /// input streams and `writes` output streams and `flops_per_element`
    /// floating point operations each.
    ///
    /// Call sites whose element count is itself a product (`n * n`, `t * n`,
    /// `n * k`) must use [`OpCost::elementwise_elems`] and multiply in `u64`
    /// — a `usize` product at the call site would wrap on 32-bit targets
    /// before this constructor's widening can help.
    pub fn elementwise(
        n: usize,
        reads: usize,
        writes: usize,
        flops_per_element: usize,
        elem: usize,
    ) -> Self {
        Self::elementwise_elems(n as u64, reads, writes, flops_per_element, elem)
    }

    /// [`OpCost::elementwise`] with a `u64` element count, for footprints
    /// whose element count is a product of dimensions.
    pub fn elementwise_elems(
        n: u64,
        reads: usize,
        writes: usize,
        flops_per_element: usize,
        elem: usize,
    ) -> Self {
        let (reads, writes, flops_per_element, elem) = (
            reads as u64,
            writes as u64,
            flops_per_element as u64,
            elem as u64,
        );
        Self::new(n * flops_per_element, n * reads * elem, n * writes * elem)
    }

    /// Cost of a host↔device transfer of `bytes` bytes.
    pub fn transfer(bytes: u64) -> Self {
        Self::new(0, bytes, bytes)
    }
}

/// Turns [`OpCost`] records into modeled times for a particular device.
#[derive(Debug, Clone)]
pub struct CostModel {
    device: DeviceSpec,
    /// Element width in bytes used to pick the compute peak (4 = f32).
    elem_bytes: usize,
}

impl CostModel {
    /// Build a cost model for a device, assuming `elem_bytes`-wide scalars.
    pub fn new(device: DeviceSpec, elem_bytes: usize) -> Self {
        Self { device, elem_bytes }
    }

    /// The device this model describes.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Element width in bytes this model assumes.
    pub fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    /// Modeled execution time of one operation, in seconds.
    pub fn time_seconds(&self, class: OpClass, cost: &OpCost) -> f64 {
        let util = cost.utilization.clamp(1e-3, 1.0);
        let launch = self.device.launch_overhead_us * 1e-6;
        if class == OpClass::Transfer || class == OpClass::AllReduce {
            let bw = self.device.interconnect_gbs * 1e9 * class.memory_efficiency();
            return cost.bytes_read as f64 / bw + launch;
        }
        let peak_flops = self.device.peak_gflops_for(self.elem_bytes) * 1e9;
        let peak_bw = self.device.mem_bandwidth_gbs * 1e9;
        let t_compute = if cost.flops == 0 {
            0.0
        } else {
            cost.flops as f64 / (peak_flops * class.compute_efficiency() * util)
        };
        let t_memory = if cost.total_bytes() == 0 {
            0.0
        } else {
            cost.total_bytes() as f64 / (peak_bw * class.memory_efficiency() * util)
        };
        t_compute.max(t_memory) + launch
    }

    /// Achieved throughput in GFLOP/s implied by the modeled time.
    pub fn achieved_gflops(&self, class: OpClass, cost: &OpCost) -> f64 {
        let t = self.time_seconds(class, cost);
        if t <= 0.0 {
            0.0
        } else {
            cost.flops as f64 / t / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(DeviceSpec::a100_80gb(), 4)
    }

    #[test]
    fn gemm_cost_counts() {
        let c = OpCost::gemm(10, 20, 30, 4);
        assert_eq!(c.flops, 2 * 10 * 20 * 30);
        assert_eq!(c.bytes_read, (10 * 30 + 30 * 20) as u64 * 4);
        assert_eq!(c.bytes_written, (10 * 20) as u64 * 4);
    }

    #[test]
    fn syrk_cost_is_roughly_half_gemm_flops() {
        let g = OpCost::gemm(1000, 1000, 64, 4);
        let s = OpCost::syrk_with_mirror(1000, 64, 4);
        let ratio = s.flops as f64 / g.flops as f64;
        assert!(ratio > 0.49 && ratio < 0.52, "ratio = {ratio}");
        // but SYRK pays mirror traffic
        assert!(s.bytes_written > (1000u64 * 1001 / 2) * 4);
    }

    #[test]
    fn spmm_kvt_cost_matches_paper_counts() {
        // Paper §3.1: the SpMM is O(n^2) work regardless of k.
        let c10 = OpCost::spmm_kvt(1000, 10, 4, 4);
        let c100 = OpCost::spmm_kvt(1000, 100, 4, 4);
        assert_eq!(c10.flops, 2_000_000);
        assert_eq!(c10.flops, c100.flops);
        // but the output traffic grows with k
        assert!(c100.bytes_written > c10.bytes_written);
    }

    #[test]
    fn cost_arithmetic_survives_32bit_product_boundaries() {
        // n × n products past n = 2^16 overflow a 32-bit usize; the
        // constructors promote to u64 before multiplying, so these exact
        // values hold on every target width.
        let n = 70_000usize; // n * n * 4 = 1.96e10 > u32::MAX
        let g = OpCost::gemm(n, n, 100, 4);
        assert_eq!(g.flops, 2 * 70_000u64 * 70_000 * 100);
        assert_eq!(g.bytes_written, 70_000u64 * 70_000 * 4);
        let s = OpCost::syrk_with_mirror(n, 100, 4);
        assert!(s.bytes_written > u32::MAX as u64);
        let kvt = OpCost::spmm_kvt(n, 10, 4, 4);
        assert_eq!(kvt.flops, 2 * 70_000u64 * 70_000);
        assert_eq!(kvt.bytes_read, 70_000u64 * 70_000 * 4 + 70_000 * 8);
        let e = OpCost::elementwise(n * n / 4, 1, 1, 1, 4);
        assert!(e.total_bytes() > u32::MAX as u64);
        let m = OpCost::spmm(n, n, n, n, 4, 4);
        assert_eq!(m.bytes_written, 70_000u64 * 70_000 * 4);
        // Fully dense sparse-K panel at n = 70_000: panel_nnz = n * n wraps a
        // 32-bit usize product, so the nnz count is widened before the
        // byte/FLOP products are taken.
        let sk = OpCost::spmm_csr_kvt_rows(4_900_000_000u64 as usize, n, n, 10, 4, 4);
        if usize::BITS >= 64 {
            assert_eq!(sk.flops, 2 * 4_900_000_000u64);
            assert_eq!(
                sk.bytes_read,
                4_900_000_000u64 * 8 + 70_001u64 * 4 + 70_000u64 * 8
            );
        }
        assert_eq!(sk.bytes_written, 70_000u64 * 10 * 4);
    }

    #[test]
    fn spmm_csr_kvt_rows_matches_dense_charge_flops_at_full_density() {
        let rows = 128usize;
        let n = 1_000usize;
        let k = 16usize;
        let dense = OpCost::spmm_kvt_rows(rows, n, k, 4, 4);
        let sparse = OpCost::spmm_csr_kvt_rows(rows * n, rows, n, k, 4, 4);
        assert_eq!(sparse.flops, dense.flops);
        assert_eq!(sparse.bytes_written, dense.bytes_written);
        // A fully dense CSR panel pays extra for the stored indices...
        assert!(sparse.bytes_read > dense.bytes_read);
        // ...but at 10% density the CSR read traffic undercuts the dense tile.
        let tenth = OpCost::spmm_csr_kvt_rows(rows * n / 10, rows, n, k, 4, 4);
        assert!(tenth.bytes_read < dense.bytes_read);
        assert_eq!(tenth.flops, dense.flops / 10);
    }

    #[test]
    fn spmm_kvt_rows_is_the_tile_restriction() {
        let full = OpCost::spmm_kvt(1_000, 20, 4, 4);
        let as_rows = OpCost::spmm_kvt_rows(1_000, 1_000, 20, 4, 4);
        assert_eq!(full, as_rows);
        let tile = OpCost::spmm_kvt_rows(100, 1_000, 20, 4, 4);
        assert_eq!(tile.flops, 2 * 100 * 1_000);
        // Ten tiles cover the FLOPs and output of the full product but re-read
        // V once per tile.
        assert_eq!(10 * tile.flops, full.flops);
        assert_eq!(10 * tile.bytes_written, full.bytes_written);
        assert!(10 * tile.bytes_read > full.bytes_read);
    }

    #[test]
    fn spmv_and_elementwise_costs() {
        let c = OpCost::spmv(500, 100, 500, 4, 4);
        assert_eq!(c.flops, 1000);
        let e = OpCost::elementwise(1000, 1, 1, 3, 4);
        assert_eq!(e.flops, 3000);
        assert_eq!(e.total_bytes(), 8000);
    }

    #[test]
    fn modeled_time_is_positive_and_monotone_in_work() {
        let m = model();
        let small = m.time_seconds(OpClass::Gemm, &OpCost::gemm(100, 100, 100, 4));
        let large = m.time_seconds(OpClass::Gemm, &OpCost::gemm(1000, 1000, 1000, 4));
        assert!(small > 0.0);
        assert!(large > small);
    }

    #[test]
    fn memory_bound_op_ignores_flops_peak() {
        let m = model();
        // SpMV: tiny flops, dominated by bytes
        let cost = OpCost::spmv(1_000_000, 1000, 1_000_000, 4, 4);
        let t = m.time_seconds(OpClass::SpMV, &cost);
        let bw = 2_039.0e9 * OpClass::SpMV.memory_efficiency();
        let expected = cost.total_bytes() as f64 / bw + 5.0e-6;
        assert!((t - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn utilization_slows_things_down() {
        let m = model();
        let full = OpCost::spmm_kvt(10_000, 100, 4, 4);
        let starved = full.with_utilization(0.5);
        assert!(m.time_seconds(OpClass::SpMM, &starved) > m.time_seconds(OpClass::SpMM, &full));
    }

    #[test]
    fn handwritten_kernel_is_slower_than_spmm_for_same_footprint() {
        // This inequality is the modeled core of the paper's Figure 4.
        let m = model();
        let cost = OpCost::spmm_kvt(20_000, 50, 4, 4);
        let popcorn = m.time_seconds(OpClass::SpMM, &cost);
        let baseline = m.time_seconds(OpClass::HandwrittenReduction, &cost);
        assert!(
            baseline / popcorn > 1.4,
            "expected >1.4x, got {}",
            baseline / popcorn
        );
    }

    #[test]
    fn transfer_uses_interconnect() {
        let m = model();
        let t = m.time_seconds(OpClass::Transfer, &OpCost::transfer(31_500_000_000 / 2));
        // ~0.5 s at ~31.5 GB/s with 0.9 efficiency -> ~0.55 s
        assert!(t > 0.4 && t < 0.7, "t = {t}");
    }

    #[test]
    fn achieved_gflops_below_peak() {
        let m = model();
        let cost = OpCost::gemm(4096, 4096, 4096, 4);
        let g = m.achieved_gflops(OpClass::Gemm, &cost);
        assert!(g > 0.0);
        assert!(g <= 19_500.0);
    }

    #[test]
    fn cpu_model_is_much_slower() {
        let gpu = model();
        let cpu = CostModel::new(DeviceSpec::epyc7763_single_core(), 4);
        let cost = OpCost::gemm(5000, 5000, 128, 4);
        let speedup =
            cpu.time_seconds(OpClass::Gemm, &cost) / gpu.time_seconds(OpClass::Gemm, &cost);
        assert!(speedup > 50.0, "GPU should be much faster, got {speedup}");
    }

    #[test]
    fn efficiency_factors_are_sane() {
        for class in [
            OpClass::Gemm,
            OpClass::Syrk,
            OpClass::SpMM,
            OpClass::SpMV,
            OpClass::SpGEMM,
            OpClass::Factorize,
            OpClass::Elementwise,
            OpClass::Reduction,
            OpClass::HandwrittenReduction,
            OpClass::Transfer,
            OpClass::AllReduce,
            OpClass::Other,
        ] {
            assert!(class.compute_efficiency() > 0.0 && class.compute_efficiency() <= 1.0);
            assert!(class.memory_efficiency() > 0.0 && class.memory_efficiency() <= 1.0);
        }
        // The central modeling assumption: cuSPARSE SpMM out-performs the
        // baseline's hand-written reduction.
        assert!(
            OpClass::SpMM.memory_efficiency() > OpClass::HandwrittenReduction.memory_efficiency()
        );
    }
}
