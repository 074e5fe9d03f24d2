//! Pipeline overlap — double-buffered tile streaming (modeled).
//!
//! With `Streaming::DoubleBuffered`, a single tiled fit prices tile `t+1`'s
//! production (panel GEMM + upload on the copy/compute engines) as hidden
//! under tile `t`'s distance fold; the first tile stays exposed. The bench
//! runs one fit with streaming off and on, asserts the labels and traces are
//! bit-identical, and records serial vs overlapped modeled seconds in
//! `experiment-results/BENCH_pipeline_overlap.json`.
//!
//! The measured host timing of the parallel restart driver lives in
//! `restart_protocol`, and its bit-identity contract in
//! `tests/parallel_batch_properties.rs`.

use popcorn_bench::ExperimentOptions;
use popcorn_core::solver::{FitInput, Solver as _};
use popcorn_core::{KernelKmeans, TilePolicy};
use popcorn_data::synthetic::uniform_dataset;
use popcorn_gpusim::Streaming;

/// Fit shape: small tiles on purpose, so every pass has many tiles to
/// overlap.
const N: usize = 768;
const D: usize = 12;
const K: usize = 6;
const TILE_ROWS: usize = 64;
const ITERATIONS: usize = 6;

fn main() {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let options = match ExperimentOptions::parse(&raw_args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let dataset = uniform_dataset::<f32>(N, D, options.seed);
    let config = options
        .config(K)
        .with_max_iter(ITERATIONS)
        .with_tiling(TilePolicy::Rows(TILE_ROWS))
        .with_seed(options.seed);

    let serial_fit = KernelKmeans::new(config.clone())
        .fit_input(FitInput::Dense(dataset.points()))
        .expect("serial fit");
    let streamed_fit = KernelKmeans::new(config.with_streaming(Streaming::DoubleBuffered))
        .fit_input(FitInput::Dense(dataset.points()))
        .expect("streamed fit");
    assert_eq!(serial_fit.labels, streamed_fit.labels);
    assert_eq!(serial_fit.trace.len(), streamed_fit.trace.len());
    let report = streamed_fit
        .streaming
        .as_ref()
        .expect("streamed fit carries a streaming report");
    let serial_total = streamed_fit.modeled_timings.total();
    let streamed_total = streamed_fit.modeled_wallclock_seconds();
    assert!(streamed_total <= serial_total + 1e-15);
    let tiles_per_iteration = N.div_ceil(TILE_ROWS);
    println!(
        "Double-buffered tile streaming (n={N}, d={D}, k={K}, {ITERATIONS} iterations, \
         {TILE_ROWS}-row tiles = {tiles_per_iteration} tiles/iteration; {} tiles over {} \
         passes):",
        report.tiles, report.passes
    );
    println!("  serial modeled wall-clock:    {serial_total:.6} s");
    println!(
        "  streamed modeled wall-clock:  {streamed_total:.6} s  ({:.6} s hidden, first tile \
         exposes {:.6} s)",
        report.hidden_seconds, report.exposed_first_tile_seconds
    );
    println!("  trace with streaming on vs off: bit-identical (pricing overlay only)");

    let json = format!(
        "{{\n  \"n\": {N},\n  \"d\": {D},\n  \"k\": {K},\n  \"tile_rows\": {TILE_ROWS},\n  \
         \"iterations\": {ITERATIONS},\n  \
         \"tiles_per_iteration\": {tiles_per_iteration},\n  \
         \"streaming\": {{\n    \"passes\": {},\n    \"tiles\": {},\n    \
         \"serial_modeled_seconds\": {serial_total:.9},\n    \
         \"streamed_modeled_seconds\": {streamed_total:.9},\n    \
         \"hidden_seconds\": {:.9},\n    \
         \"exposed_first_tile_seconds\": {:.9},\n    \
         \"trace_bit_identical\": true\n  }}\n}}\n",
        report.passes, report.tiles, report.hidden_seconds, report.exposed_first_tile_seconds,
    );
    let artifact = options.out_path("BENCH_pipeline_overlap.json");
    std::fs::write(&artifact, json).expect("write JSON artifact");
    println!("\nwrote {}", artifact.display());
}
