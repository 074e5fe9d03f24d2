//! Double-buffered tile streaming: the pipelined compute/copy overlap model.
//!
//! The paper's implementation streams kernel-matrix tiles: while the device
//! folds distances over tile `t` (the *consume* half), the next tile's panel
//! GEMM / upload (the *produce* half) runs concurrently on its own stream, so
//! in steady state production is hidden under consumption. This module prices
//! that pipeline for a fit or a restart batch from segments measured off the
//! operation trace, without touching the trace itself — with streaming on or
//! off, the recorded operations are bit-identical; only the *wall-clock
//! interpretation* of the trace changes.
//!
//! Dependency rule (per tile pass):
//!
//! * the **first tile's production is always exposed** — nothing earlier in
//!   the pass can hide it;
//! * in steady state, tile `t+1`'s production overlaps tile `t`'s
//!   consumption, so the pass costs
//!   `p(0) + Σₜ max(c(t), p(t+1)) + c(T-1)`
//!   instead of the serial `Σₜ p(t) + c(t)`;
//! * iteration boundaries are barriers: the assignment/update step consumes
//!   the whole distance matrix, so production never spans passes.
//!
//! Since `max(a, b) ≤ a + b`, the overlapped pass is never slower than the
//! serial one; the difference is reported as [`StreamingReport::hidden_seconds`].

use crate::cost::EngineSeconds;
use crate::executor::Executor;

/// Tile-streaming policy for a single fit.
///
/// `Off` (the default) keeps the historical serial interpretation — every
/// tile's production is exposed — and records nothing, so results and traces
/// are bit-identical with earlier versions. `DoubleBuffered` measures the
/// per-tile produce/consume segments and prices the overlap described in the
/// module docs. The opt-out exists because the overlap model is optimistic:
/// it assumes the produce stream's work fits alongside the consume stream
/// (ideal SM partitioning / a free copy engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Streaming {
    /// Serial tile pipeline: produce then consume, every tile exposed.
    #[default]
    Off,
    /// Two buffers, two streams: tile `t+1` produces while tile `t` consumes.
    DoubleBuffered,
}

/// Streaming accounting for one fit: segment totals plus the overlap they
/// admit under the double-buffer dependency rule.
///
/// All fields are derived from the operation trace; none of them feed back
/// into it. The double-buffered cost of the measured tile segments is
/// `serial_seconds() - hidden_seconds`, never above the serial cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingReport {
    /// Tile passes measured (one per Lloyd iteration).
    pub passes: usize,
    /// Total tiles across all passes.
    pub tiles: usize,
    /// Modeled seconds producing tiles (panel GEMM / kernel apply / upload),
    /// split by device engine.
    pub produce: EngineSeconds,
    /// Modeled seconds consuming tiles (distance folds), split by engine.
    pub consume: EngineSeconds,
    /// Production that stays exposed because it is the first tile of a pass
    /// (summed over passes) — the pipeline's fill cost.
    pub exposed_first_tile_seconds: f64,
    /// Production hidden under the previous tile's consumption (and vice
    /// versa): the serial-minus-overlapped difference.
    pub hidden_seconds: f64,
}

impl StreamingReport {
    /// Serialized cost of the measured tile segments.
    pub fn serial_seconds(&self) -> f64 {
        self.produce.total() + self.consume.total()
    }
}

/// One tile's measured produce/consume segments.
#[derive(Debug, Clone, Copy, Default)]
struct TileSegments {
    produce: EngineSeconds,
    consume: EngineSeconds,
}

/// Measures per-tile produce/consume segments and folds them into a
/// [`StreamingReport`].
///
/// Driven by the iteration loop: `begin_pass` before streaming tiles,
/// `tile_produced` on visitor entry (the source just charged the tile's
/// production to the executor the pass runs on), `tile_consumed` once every
/// run folded it, `finish_pass` after the pass. A tile's consumption is the
/// **sum** of the runs' folds, which the loop measures off each run's own
/// executor (runs share one device, so concurrent folds serialize on its
/// engines). With [`Streaming::Off`] every call is a no-op, so the off path
/// does not even take trace locks.
#[derive(Debug)]
pub struct StreamMeter {
    mode: Streaming,
    /// Trace index where the currently-measured segment started.
    cursor: usize,
    /// Segments of the pass in flight.
    pass: Vec<TileSegments>,
    report: StreamingReport,
}

impl StreamMeter {
    /// A meter for `mode` (no-op when `Off`).
    pub fn new(mode: Streaming) -> Self {
        Self {
            mode,
            cursor: 0,
            pass: Vec::new(),
            report: StreamingReport::default(),
        }
    }

    /// Start measuring a tile pass: everything charged to `executor` from
    /// here on belongs to the first tile's produce segment.
    pub fn begin_pass(&mut self, executor: &dyn Executor) {
        if !self.active() {
            return;
        }
        self.cursor = executor.trace_len();
        self.pass.clear();
    }

    /// The source finished producing a tile (visitor entry): close the
    /// produce segment.
    pub fn tile_produced(&mut self, executor: &dyn Executor) {
        if !self.active() {
            return;
        }
        let produce = executor.engine_seconds_since(self.cursor);
        self.pass.push(TileSegments {
            produce,
            consume: EngineSeconds::default(),
        });
        self.cursor = executor.trace_len();
    }

    /// `true` when the meter is measuring (mode is not [`Streaming::Off`]):
    /// the loop measures the folds' seconds only then, so the off path
    /// takes no trace locks.
    pub fn active(&self) -> bool {
        self.mode != Streaming::Off
    }

    /// Every run folded the tile: close its consume segment with the
    /// `consume` seconds their folds charged, summed over the runs, and
    /// move the cursor past those folds on `executor` (the one the pass
    /// produces on, where a run without a fork of its own charged them),
    /// so the next tile's production starts there.
    pub fn tile_consumed(&mut self, consume: EngineSeconds, executor: &dyn Executor) {
        if !self.active() {
            return;
        }
        if let Some(tile) = self.pass.last_mut() {
            tile.consume = consume;
        }
        self.cursor = executor.trace_len();
    }

    /// Fold the finished pass into the report under the double-buffer rule.
    pub fn finish_pass(&mut self) {
        if !self.active() || self.pass.is_empty() {
            return;
        }
        self.report.passes += 1;
        self.report.tiles += self.pass.len();
        for tile in &self.pass {
            self.report.produce.accumulate(tile.produce);
            self.report.consume.accumulate(tile.consume);
        }
        // First tile: the pipeline has nothing to hide it under.
        self.report.exposed_first_tile_seconds += self.pass[0].produce.total();
        // Steady state: tile t+1 produces while tile t consumes, hiding
        // min(c(t), p(t+1)) of serial time per adjacent pair.
        for pair in self.pass.windows(2) {
            self.report.hidden_seconds += pair[1].produce.total().min(pair[0].consume.total());
        }
        self.pass.clear();
    }

    /// The accumulated report (`None` when the meter ran with `Off`).
    pub fn into_report(self) -> Option<StreamingReport> {
        match self.mode {
            Streaming::Off => None,
            Streaming::DoubleBuffered => Some(self.report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{OpClass, OpCost};
    use crate::executor::{ExecutorExt, SimExecutor};
    use crate::trace::Phase;

    fn charge(exec: &SimExecutor, class: OpClass, flops: u64) {
        exec.charge(
            "op",
            Phase::PairwiseDistances,
            class,
            OpCost::new(flops, flops, 0),
        );
    }

    /// One run's SpMM fold of the tile, measured as the loop measures it.
    fn fold(meter: &mut StreamMeter, exec: &SimExecutor, flops: u64) {
        let mark = exec.trace_len();
        charge(exec, OpClass::SpMM, flops);
        meter.tile_consumed(exec.engine_seconds_since(mark), exec);
    }

    #[test]
    fn off_meter_reports_nothing() {
        let exec = SimExecutor::a100_f32();
        let mut meter = StreamMeter::new(Streaming::Off);
        meter.begin_pass(&exec);
        charge(&exec, OpClass::Gemm, 1 << 30);
        meter.tile_produced(&exec);
        meter.tile_consumed(EngineSeconds::default(), &exec);
        meter.finish_pass();
        assert!(meter.into_report().is_none());
    }

    #[test]
    fn single_tile_pass_hides_nothing() {
        let exec = SimExecutor::a100_f32();
        let mut meter = StreamMeter::new(Streaming::DoubleBuffered);
        meter.begin_pass(&exec);
        charge(&exec, OpClass::Gemm, 1 << 30);
        meter.tile_produced(&exec);
        fold(&mut meter, &exec, 1 << 28);
        meter.finish_pass();
        let report = meter.into_report().unwrap();
        assert_eq!(report.passes, 1);
        assert_eq!(report.tiles, 1);
        assert_eq!(report.hidden_seconds, 0.0);
        assert!(report.produce.compute > 0.0);
        assert!(report.consume.compute > 0.0);
        // A lone tile is entirely fill cost: its production stays exposed.
        assert_eq!(report.exposed_first_tile_seconds, report.produce.total());
        assert_eq!(
            report.serial_seconds() - report.hidden_seconds,
            report.serial_seconds()
        );
    }

    #[test]
    fn steady_state_hides_the_smaller_half_and_never_speeds_past_serial() {
        let exec = SimExecutor::a100_f32();
        let mut meter = StreamMeter::new(Streaming::DoubleBuffered);
        meter.begin_pass(&exec);
        let tiles = 4;
        for _ in 0..tiles {
            charge(&exec, OpClass::Gemm, 1 << 30);
            meter.tile_produced(&exec);
            fold(&mut meter, &exec, 1 << 30);
        }
        meter.finish_pass();
        let report = meter.into_report().unwrap();
        assert_eq!(report.tiles, tiles);
        assert!(report.hidden_seconds > 0.0);
        let overlapped = report.serial_seconds() - report.hidden_seconds;
        assert!(overlapped <= report.serial_seconds());
        assert!(overlapped >= report.exposed_first_tile_seconds);
        // Uniform tiles: exactly T-1 adjacent pairs overlap, each hiding
        // min(produce, consume) of one tile.
        let per_tile_produce = report.produce.total() / tiles as f64;
        let per_tile_consume = report.consume.total() / tiles as f64;
        let expected = (tiles - 1) as f64 * per_tile_produce.min(per_tile_consume);
        assert!((report.hidden_seconds - expected).abs() < 1e-12);
    }

    #[test]
    fn engine_split_attributes_transfers_to_the_copy_engine() {
        let exec = SimExecutor::a100_f32();
        let mut meter = StreamMeter::new(Streaming::DoubleBuffered);
        meter.begin_pass(&exec);
        charge(&exec, OpClass::Gemm, 1 << 30);
        exec.charge(
            "upload tile",
            Phase::DataPreparation,
            OpClass::Transfer,
            OpCost::transfer(1 << 24),
        );
        meter.tile_produced(&exec);
        fold(&mut meter, &exec, 1 << 28);
        meter.finish_pass();
        let report = meter.into_report().unwrap();
        assert!(report.produce.copy > 0.0, "upload must land on Copy");
        assert!(report.produce.compute > 0.0, "GEMM must land on Compute");
        assert_eq!(report.consume.copy, 0.0);
    }
}
