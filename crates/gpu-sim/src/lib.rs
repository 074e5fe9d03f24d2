//! # popcorn-gpusim
//!
//! Analytical GPU execution simulator used as the stand-in for the NVIDIA
//! A100 + CUDA 12.2 platform the paper evaluates on.
//!
//! All numerical work in this reproduction executes on the host (see
//! `popcorn-dense` / `popcorn-sparse`), so results are bit-real. What a GPU
//! would have contributed is *time*: this crate models that time analytically
//! from first principles the paper itself uses in its §4.4 arithmetic
//! intensity analysis and §5.5 roofline study:
//!
//! * [`device::DeviceSpec`] — peak FLOP/s, memory bandwidth, PCIe bandwidth
//!   and kernel-launch overhead for A100-class GPUs and EPYC-class CPUs;
//! * [`cost::CostModel`] — per-operation modeled time
//!   `t = max(flops / (peak · eff_c · util), bytes / (bw · eff_m · util)) + launch`;
//! * [`roofline::Roofline`] — attainable GFLOP/s at a given arithmetic
//!   intensity (Figure 6);
//! * [`trace::OpTrace`] / [`profiler::Profiler`] — Nsight-Compute-like per-op
//!   records with phase breakdowns (Figures 5 and 8);
//! * [`executor::Executor`] — the execution surface engines and drivers hold
//!   (as `&dyn Executor`), so they never care how many devices price the run;
//! * [`executor::SimExecutor`] — the single-device implementation: runs real
//!   host closures while accumulating modeled device time, so the same driver
//!   code produces both wall-clock and modeled measurements;
//! * [`sharded::ShardedExecutor`] — the multi-device implementation: one
//!   attribution bucket per device of a [`device::DeviceTopology`], all-reduce
//!   pricing against a [`device::LinkSpec`], and an overlap-aware modeled
//!   wall-clock (max over devices);
//! * [`fault::FaultPlan`] — deterministic device-loss schedules the sharded
//!   executor consumes at pass boundaries, where the row stream resumes in
//!   place on the survivors, and [`fault::RecoveryReport`] accounting the
//!   modeled re-shard work;
//! * [`streaming::StreamMeter`] — the double-buffered tile-pipeline model: a
//!   single fit's per-tile produce/consume segments measured off the trace,
//!   priced with tile `t+1`'s production hidden under tile `t`'s consumption
//!   (first tile exposed), opt-in via [`streaming::Streaming`].

pub mod cost;
pub mod device;
pub mod executor;
pub mod fault;
pub mod profiler;
pub mod roofline;
pub mod sharded;
pub mod streaming;
pub mod trace;

pub use cost::{CostModel, DeviceEngine, EngineSeconds, OpClass, OpCost};
pub use device::{DeviceSpec, DeviceTopology, LinkSpec, GIB};
pub use executor::{Executor, ExecutorExt, ForkGuard, ResidencyScope, SimExecutor};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RecoveryReport};
pub use profiler::Profiler;
pub use roofline::Roofline;
pub use sharded::ShardedExecutor;
pub use streaming::{StreamMeter, Streaming, StreamingReport};
pub use trace::{OpRecord, OpTrace, Phase};
