//! Device specifications.
//!
//! The paper's testbed is an NVIDIA A100 (80 GB HBM2e) attached to a 64-core
//! AMD EPYC 7763 over PCIe Gen4, with the CPU baseline (PRMLT) running on a
//! single core. The presets below capture the published peak numbers of that
//! hardware; they feed the cost model and the roofline.

/// Static description of an execution device (GPU or CPU).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Peak half-precision throughput in GFLOP/s (tensor/matrix cores where
    /// the device has them; equal to the FP32 peak where it does not).
    pub fp16_peak_gflops: f64,
    /// Peak single-precision throughput in GFLOP/s.
    pub fp32_peak_gflops: f64,
    /// Peak double-precision throughput in GFLOP/s.
    pub fp64_peak_gflops: f64,
    /// Peak device-memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Host-device interconnect bandwidth in GB/s (PCIe for the GPU presets).
    pub interconnect_gbs: f64,
    /// Fixed overhead charged per kernel launch / library call, in microseconds.
    pub launch_overhead_us: f64,
    /// Number of streaming multiprocessors (GPU) or cores (CPU); informational
    /// and used by utilization heuristics.
    pub parallel_units: usize,
    /// Device memory capacity in bytes (HBM for the GPU presets, host RAM for
    /// the CPU presets). Workloads whose modeled working set exceeds this
    /// capacity must be tiled or rejected by the planner.
    pub mem_bytes: u64,
}

/// One gibibyte, the unit the memory-capacity presets are expressed in.
pub const GIB: u64 = 1 << 30;

impl DeviceSpec {
    /// NVIDIA A100 80 GB SXM: 19.5 TFLOP/s FP32, 9.7 TFLOP/s FP64,
    /// 312 TFLOP/s FP16 tensor, 2039 GB/s HBM2e, PCIe Gen4 x16 host link,
    /// 108 SMs.
    pub fn a100_80gb() -> Self {
        Self {
            name: "NVIDIA A100 80GB".to_string(),
            fp16_peak_gflops: 312_000.0,
            fp32_peak_gflops: 19_500.0,
            fp64_peak_gflops: 9_700.0,
            mem_bandwidth_gbs: 2_039.0,
            interconnect_gbs: 31.5,
            launch_overhead_us: 5.0,
            parallel_units: 108,
            mem_bytes: 80 * GIB,
        }
    }

    /// NVIDIA H100 80 GB SXM5: 67 TFLOP/s FP32, 33.5 TFLOP/s FP64,
    /// 3352 GB/s HBM3, PCIe Gen5 x16 host link, 132 SMs. The next-generation
    /// preset the multi-device sharding experiments scale onto.
    pub fn h100_80gb() -> Self {
        Self {
            name: "NVIDIA H100 80GB".to_string(),
            fp16_peak_gflops: 989_000.0,
            fp32_peak_gflops: 67_000.0,
            fp64_peak_gflops: 33_500.0,
            mem_bandwidth_gbs: 3_352.0,
            interconnect_gbs: 63.0,
            launch_overhead_us: 5.0,
            parallel_units: 132,
            mem_bytes: 80 * GIB,
        }
    }

    /// NVIDIA V100 16 GB: 15.7 TFLOP/s FP32, 900 GB/s HBM2.
    pub fn v100() -> Self {
        Self {
            name: "NVIDIA V100".to_string(),
            fp16_peak_gflops: 125_000.0,
            fp32_peak_gflops: 15_700.0,
            fp64_peak_gflops: 7_800.0,
            mem_bandwidth_gbs: 900.0,
            interconnect_gbs: 15.75,
            launch_overhead_us: 6.0,
            parallel_units: 80,
            mem_bytes: 16 * GIB,
        }
    }

    /// A single core of the AMD EPYC 7763 host CPU, matching the paper's
    /// single-threaded PRMLT (MATLAB) baseline: ~2.45 GHz sustained boost,
    /// 2×256-bit FMA per cycle ≈ 39 GFLOP/s FP32 peak, ~20 GB/s effective
    /// single-core DRAM bandwidth, negligible "launch" overhead.
    pub fn epyc7763_single_core() -> Self {
        Self {
            name: "AMD EPYC 7763 (1 core)".to_string(),
            fp16_peak_gflops: 39.2,
            fp32_peak_gflops: 39.2,
            fp64_peak_gflops: 19.6,
            mem_bandwidth_gbs: 20.0,
            interconnect_gbs: 20.0,
            launch_overhead_us: 0.0,
            parallel_units: 1,
            mem_bytes: 256 * GIB,
        }
    }

    /// The full 64-core EPYC 7763 socket (not used by the paper's baseline,
    /// provided for completeness / extra comparisons).
    pub fn epyc7763_socket() -> Self {
        Self {
            name: "AMD EPYC 7763 (64 cores)".to_string(),
            fp16_peak_gflops: 2_500.0,
            fp32_peak_gflops: 2_500.0,
            fp64_peak_gflops: 1_250.0,
            mem_bandwidth_gbs: 204.8,
            interconnect_gbs: 204.8,
            launch_overhead_us: 0.0,
            parallel_units: 64,
            mem_bytes: 256 * GIB,
        }
    }

    /// Peak throughput for the given element width (2 = f16 on the tensor
    /// path, 4 = f32, 8 = f64).
    pub fn peak_gflops_for(&self, elem_bytes: usize) -> f64 {
        if elem_bytes >= 8 {
            self.fp64_peak_gflops
        } else if elem_bytes <= 2 {
            self.fp16_peak_gflops
        } else {
            self.fp32_peak_gflops
        }
    }

    /// Arithmetic intensity (FLOP/byte) at which this device transitions from
    /// memory-bound to compute-bound — the "ridge point" of its roofline.
    pub fn ridge_point(&self, elem_bytes: usize) -> f64 {
        self.peak_gflops_for(elem_bytes) / self.mem_bandwidth_gbs
    }

    /// Builder-style override of the memory capacity, e.g. to model a smaller
    /// card or to force the tiling planner's hand in tests and experiments
    /// (the CLI's `--device-mem` flag goes through this).
    pub fn with_mem_bytes(mut self, mem_bytes: u64) -> Self {
        self.mem_bytes = mem_bytes;
        self
    }
}

/// Device↔device interconnect used by a multi-device topology.
///
/// The sharded cost model charges the per-iteration all-reduce of the
/// `n × k` distance partials (and cluster statistics) against this link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable link name.
    pub name: String,
    /// Per-device unidirectional bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Per-hop latency in microseconds.
    pub latency_us: f64,
}

impl LinkSpec {
    /// NVLink 3.0 (A100 generation): 600 GB/s per GPU, ~2 µs hop latency.
    pub fn nvlink() -> Self {
        Self {
            name: "NVLink3".to_string(),
            bandwidth_gbs: 600.0,
            latency_us: 2.0,
        }
    }

    /// PCIe Gen4 x16: 31.5 GB/s effective per direction, ~10 µs hop latency
    /// (peer transfers bounce through the switch/root complex).
    pub fn pcie_gen4() -> Self {
        Self {
            name: "PCIe Gen4 x16".to_string(),
            bandwidth_gbs: 31.5,
            latency_us: 10.0,
        }
    }

    /// Modeled seconds of a ring all-reduce of a `payload_bytes` buffer over
    /// `devices` participants: each device sends and receives
    /// `2·(p−1)/p · payload` bytes in `2·(p−1)` latency-bound steps. With one
    /// device the reduction is a no-op and costs nothing.
    pub fn all_reduce_seconds(&self, payload_bytes: u64, devices: usize) -> f64 {
        if devices <= 1 {
            return 0.0;
        }
        let p = devices as f64;
        let steps = 2.0 * (p - 1.0);
        let bytes_per_device = 2.0 * (p - 1.0) / p * payload_bytes as f64;
        bytes_per_device / (self.bandwidth_gbs * 1e9) + steps * self.latency_us * 1e-6
    }
}

/// A multi-device execution platform: the devices kernel-matrix rows are
/// sharded across, plus the link their partial results are reduced over.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTopology {
    /// The participating devices, in shard order.
    pub devices: Vec<DeviceSpec>,
    /// The device↔device interconnect.
    pub interconnect: LinkSpec,
}

impl DeviceTopology {
    /// A topology of `count` identical devices (the common homogeneous case
    /// the CLI's `--devices N` builds). `count` must be at least 1.
    pub fn homogeneous(device: DeviceSpec, count: usize, interconnect: LinkSpec) -> Self {
        assert!(count >= 1, "a topology needs at least one device");
        Self {
            devices: vec![device; count],
            interconnect,
        }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_numbers_are_published_specs() {
        let d = DeviceSpec::a100_80gb();
        assert_eq!(d.fp32_peak_gflops, 19_500.0);
        assert_eq!(d.fp16_peak_gflops, 312_000.0);
        assert_eq!(d.mem_bandwidth_gbs, 2_039.0);
        assert!(d.parallel_units == 108);
        assert_eq!(d.mem_bytes, 80 * GIB);
    }

    #[test]
    fn memory_capacities_match_the_marketing_names() {
        assert_eq!(DeviceSpec::v100().mem_bytes, 16 * GIB);
        // The CPU presets model host RAM, far larger than any HBM part.
        assert!(DeviceSpec::epyc7763_single_core().mem_bytes > DeviceSpec::a100_80gb().mem_bytes);
    }

    #[test]
    fn with_mem_bytes_overrides_capacity_only() {
        let d = DeviceSpec::a100_80gb().with_mem_bytes(GIB);
        assert_eq!(d.mem_bytes, GIB);
        assert_eq!(d.fp32_peak_gflops, DeviceSpec::a100_80gb().fp32_peak_gflops);
    }

    #[test]
    fn peak_picks_the_precision_path() {
        let gpu = DeviceSpec::a100_80gb();
        assert_eq!(gpu.peak_gflops_for(2), gpu.fp16_peak_gflops);
        assert_eq!(gpu.peak_gflops_for(4), gpu.fp32_peak_gflops);
        assert_eq!(gpu.peak_gflops_for(8), gpu.fp64_peak_gflops);
        // The CPU presets have no matrix cores: half precision buys bytes,
        // not flops.
        let cpu = DeviceSpec::epyc7763_single_core();
        assert_eq!(cpu.peak_gflops_for(2), cpu.fp32_peak_gflops);
    }

    #[test]
    fn ridge_point_is_peak_over_bandwidth() {
        let d = DeviceSpec::a100_80gb();
        let rp = d.ridge_point(4);
        assert!((rp - 19_500.0 / 2_039.0).abs() < 1e-9);
        // FP64 ridge point is lower.
        assert!(d.ridge_point(8) < rp);
    }

    #[test]
    fn gpu_is_faster_than_single_core_cpu() {
        let gpu = DeviceSpec::a100_80gb();
        let cpu = DeviceSpec::epyc7763_single_core();
        assert!(gpu.fp32_peak_gflops / cpu.fp32_peak_gflops > 100.0);
        assert!(gpu.mem_bandwidth_gbs / cpu.mem_bandwidth_gbs > 50.0);
    }

    #[test]
    fn peak_selection_by_element_width() {
        let d = DeviceSpec::v100();
        assert_eq!(d.peak_gflops_for(4), 15_700.0);
        assert_eq!(d.peak_gflops_for(8), 7_800.0);
    }

    #[test]
    fn h100_numbers_are_published_specs() {
        // Pin the constants the sharded cost model scales onto: H100 SXM5
        // published peaks (FP32/FP64 TFLOP/s, HBM3 bandwidth, SM count).
        let d = DeviceSpec::h100_80gb();
        assert_eq!(d.fp32_peak_gflops, 67_000.0);
        assert_eq!(d.fp64_peak_gflops, 33_500.0);
        assert_eq!(d.mem_bandwidth_gbs, 3_352.0);
        assert_eq!(d.interconnect_gbs, 63.0);
        assert_eq!(d.parallel_units, 132);
        assert_eq!(d.mem_bytes, 80 * GIB);
        // The generation step over the A100 the presets must preserve.
        let a100 = DeviceSpec::a100_80gb();
        assert!(d.fp32_peak_gflops > 3.0 * a100.fp32_peak_gflops);
        assert!(d.mem_bandwidth_gbs > a100.mem_bandwidth_gbs);
    }

    #[test]
    fn link_table_pins_the_sharded_cost_constants() {
        // The LinkSpec table the sharded all-reduce model is priced against.
        let nvlink = LinkSpec::nvlink();
        assert_eq!(nvlink.bandwidth_gbs, 600.0);
        assert_eq!(nvlink.latency_us, 2.0);
        let pcie = LinkSpec::pcie_gen4();
        assert_eq!(pcie.bandwidth_gbs, 31.5);
        assert_eq!(pcie.latency_us, 10.0);
        assert_ne!(nvlink.name, pcie.name);
    }

    #[test]
    fn all_reduce_model_shape() {
        let link = LinkSpec::nvlink();
        // One device: free.
        assert_eq!(link.all_reduce_seconds(1 << 20, 1), 0.0);
        // The ring all-reduce per-device traffic 2(p−1)/p·payload grows
        // (towards 2·payload) with p, so the time is monotone in p for a
        // fixed payload.
        let t2 = link.all_reduce_seconds(1 << 30, 2);
        let t4 = link.all_reduce_seconds(1 << 30, 4);
        let t16 = link.all_reduce_seconds(1 << 30, 16);
        assert!(t2 > 0.0);
        assert!(t4 > t2);
        assert!(t16 > t4);
        // 2 devices move exactly one payload per device: 1 GiB at 600 GB/s
        // plus two hops.
        let expected = (1u64 << 30) as f64 / 600e9 + 2.0 * 2e-6;
        assert!((t2 - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn homogeneous_topology_replicates_the_device() {
        let topo = DeviceTopology::homogeneous(DeviceSpec::a100_80gb(), 4, LinkSpec::nvlink());
        assert_eq!(topo.device_count(), 4);
        assert!(topo.devices.iter().all(|d| d.name == "NVIDIA A100 80GB"));
        assert_eq!(topo.interconnect, LinkSpec::nvlink());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_topology_is_rejected() {
        DeviceTopology::homogeneous(DeviceSpec::a100_80gb(), 0, LinkSpec::nvlink());
    }

    #[test]
    fn presets_have_distinct_names() {
        let names: Vec<String> = [
            DeviceSpec::a100_80gb(),
            DeviceSpec::h100_80gb(),
            DeviceSpec::v100(),
            DeviceSpec::epyc7763_single_core(),
            DeviceSpec::epyc7763_socket(),
        ]
        .iter()
        .map(|d| d.name.clone())
        .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
