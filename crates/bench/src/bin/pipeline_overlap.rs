//! Pipeline overlap — the persistent worker pool and double-buffered tile
//! streaming.
//!
//! Two claims from the executor/driver redesign, measured and verified:
//!
//! 1. **Persistent pool vs the inline drive (measured).** The lockstep
//!    restart driver runs its phases inline on the driver thread at one
//!    host thread; above that, the persistent pool spawns workers once per
//!    drive and feeds them the same phases over channels, one round-trip
//!    per tile. This bench runs the same tiled multi-restart sweep both
//!    ways, asserts bit-identity, and records both measured host
//!    wall-clocks.
//!
//! 2. **Double-buffered streaming (modeled).** With
//!    `Streaming::DoubleBuffered`, a single tiled fit prices tile `t+1`'s
//!    production (panel GEMM + upload on the copy/compute engines) as
//!    hidden under tile `t`'s distance fold; the first tile stays exposed.
//!    The bench runs one fit with streaming off and on, asserts the traces
//!    are bit-identical, and records serial vs overlapped modeled seconds.
//!
//! Kernel-level parallelism (POPCORN_NUM_THREADS) is pinned to 1 in a
//! re-exec'd child so the measured pool-vs-inline ratio isolates the
//! driver's own fan-out; artifacts land in
//! `experiment-results/BENCH_pipeline_overlap.json`.

use popcorn_bench::harness::{execute_batch_with, ExecutedBatch};
use popcorn_bench::{ExperimentOptions, Solver};
use popcorn_core::batch::{BatchOptions, HostParallelism};
use popcorn_core::solver::{FitInput, Solver as _};
use popcorn_core::{KernelKmeans, TilePolicy};
use popcorn_data::synthetic::uniform_dataset;
use popcorn_gpusim::Streaming;

/// Sweep shape: small tiles on purpose, so the pool pays its per-tile
/// channel round-trip many times per iteration.
const N: usize = 768;
const D: usize = 12;
const K: usize = 6;
const TILE_ROWS: usize = 64;
const RESTARTS: usize = 8;
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
    // The measured comparison wants per-operation kernel parallelism pinned
    // to one thread, but that setting caches process-wide — so re-exec with
    // the env set unless the user already chose one.
    if std::env::var_os(popcorn_dense::parallel::NUM_THREADS_ENV).is_none() {
        match std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(&raw_args)
                .env(popcorn_dense::parallel::NUM_THREADS_ENV, "1")
                .status()
        }) {
            Ok(status) => std::process::exit(status.code().unwrap_or(1)),
            Err(e) => eprintln!(
                "note: could not re-exec with pinned kernel threads ({e}); \
                 the measured ratio below mixes kernel- and job-level parallelism"
            ),
        }
    }
    run(&options);
}

fn run(options: &ExperimentOptions) {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if available < 4 {
        println!(
            "NOTE: this host reports {available} hardware thread(s) — a pool \
             speedup is not honestly measurable below 4 cores. The run still \
             verifies the bit-identity contract of the pool; treat the \
             measured ratio as overhead accounting, not speedup."
        );
    }
    let threads = available.max(4);
    let dataset = uniform_dataset::<f32>(N, D, options.seed);
    let config = options
        .config(K)
        .with_max_iter(ITERATIONS)
        .with_tiling(TilePolicy::Rows(TILE_ROWS));

    let run_threads = |threads: usize| -> ExecutedBatch {
        execute_batch_with(
            Solver::Popcorn,
            dataset.name(),
            FitInput::Dense(dataset.points()),
            config.clone(),
            &[K],
            RESTARTS,
            &BatchOptions::default().with_host_threads(HostParallelism::Threads(threads)),
        )
        .expect("pipeline overlap batch")
    };
    let inline = run_threads(1);
    let pool = run_threads(threads);

    // Bit-identity between the inline drive and the pool is a hard
    // contract; verify before reporting any timing.
    assert_eq!(inline.batch.results.len(), pool.batch.results.len());
    assert_eq!(inline.batch.best, pool.batch.best);
    for (a, b) in inline.batch.results.iter().zip(pool.batch.results.iter()) {
        assert_eq!(a.labels, b.labels, "pool changed labels");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "pool changed an objective"
        );
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.records().iter().zip(b.trace.records().iter()) {
            assert_eq!(x.name, y.name, "pool reordered a job trace");
            assert_eq!(x.modeled_seconds.to_bits(), y.modeled_seconds.to_bits());
        }
    }
    assert_eq!(
        inline.batch.report.peak_resident_bytes,
        pool.batch.report.peak_resident_bytes
    );

    let inline_seconds = inline.batch.report.host_seconds;
    let pool_seconds = pool.batch.report.host_seconds;
    let pool_ratio = if pool_seconds > 0.0 {
        inline_seconds / pool_seconds
    } else {
        1.0
    };
    let tiles_per_iteration = N.div_ceil(TILE_ROWS);
    println!(
        "\nPersistent pool vs inline drive (n={N}, d={D}, k={K}, {RESTARTS} restarts, \
         {ITERATIONS} iterations, {TILE_ROWS}-row tiles = {tiles_per_iteration} tiles/iteration, \
         {threads} host threads, kernel threads {}):",
        popcorn_dense::parallel::num_threads()
    );
    println!("  inline drive:    drive measured {inline_seconds:.4} s");
    println!("  persistent pool: drive measured {pool_seconds:.4} s  ({pool_ratio:.2}x)");
    println!(
        "  bit-identity between pool and inline drive: verified (labels, objectives, traces, peak)"
    );

    // Part 2: the modeled streaming overlap on a single tiled fit.
    let single = config.clone().with_seed(options.seed);
    let serial_fit = KernelKmeans::new(single.clone())
        .fit_input(FitInput::Dense(dataset.points()))
        .expect("serial fit");
    let streamed_fit = KernelKmeans::new(single.with_streaming(Streaming::DoubleBuffered))
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
    println!(
        "\nDouble-buffered tile streaming (single fit, {} tiles over {} passes):",
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
         \"restarts\": {RESTARTS},\n  \"iterations\": {ITERATIONS},\n  \
         \"tiles_per_iteration\": {tiles_per_iteration},\n  \
         \"available_parallelism\": {available},\n  \
         \"host_threads\": {threads},\n  \
         \"kernel_threads\": {},\n  \
         \"speedup_measurable\": {},\n  \
         \"inline_host_seconds\": {inline_seconds:.6},\n  \
         \"persistent_pool_host_seconds\": {pool_seconds:.6},\n  \
         \"pool_vs_inline_ratio\": {pool_ratio:.4},\n  \
         \"pool_bit_identical\": true,\n  \
         \"streaming\": {{\n    \"passes\": {},\n    \"tiles\": {},\n    \
         \"serial_modeled_seconds\": {serial_total:.9},\n    \
         \"streamed_modeled_seconds\": {streamed_total:.9},\n    \
         \"hidden_seconds\": {:.9},\n    \
         \"exposed_first_tile_seconds\": {:.9},\n    \
         \"trace_bit_identical\": true\n  }}\n}}\n",
        popcorn_dense::parallel::num_threads(),
        available >= 4,
        report.passes,
        report.tiles,
        report.hidden_seconds,
        report.exposed_first_tile_seconds,
    );
    let artifact = options.out_path("BENCH_pipeline_overlap.json");
    std::fs::write(&artifact, json).expect("write JSON artifact");
    println!("\nwrote {}", artifact.display());
}
