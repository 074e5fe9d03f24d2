//! Restart protocol — amortized kernel-matrix reuse and the parallel driver.
//!
//! The paper's evaluation runs every (dataset, k) cell several times and
//! keeps the best run by objective; the `n × n` kernel matrix is identical
//! across those runs. This binary executes that protocol through the batched
//! `fit_batch` driver and reports what the sharing buys: the modeled cost of
//! the batch (kernel matrix charged once) next to the modeled cost of the
//! same jobs run as independent fits, per solver.
//!
//! It then demonstrates the **parallel restart driver**: the same 16-restart
//! in-core sweep executed once sequentially and once with per-job work
//! fanned across host threads (`--host-threads` on the CLI,
//! `BatchOptions::host_threads` in the API). Results and traces are verified
//! bit-identical; what the threads buy is measured host wall-clock, recorded
//! in `BENCH_restart_parallel.json`. The modeled device numbers do not move:
//! a single simulated device serializes the jobs' compute even across
//! streams, which is exactly what `modeled_concurrent_seconds` reports.
//!
//! `--restarts` controls the seeds per k (paper-style default: 4), `--k` the
//! sweep; `--scale` sizes the executed stand-in dataset.

use popcorn_bench::harness::{execute_batch, execute_batch_with};
use popcorn_bench::report::{format_seconds, format_speedup, Table};
use popcorn_bench::{ExperimentOptions, Solver};
use popcorn_core::batch::{BatchOptions, HostParallelism};
use popcorn_core::solver::FitInput;
use popcorn_data::paper::PaperDataset;
use popcorn_data::synthetic::uniform_dataset;

/// Size of the parallel-driver demo sweep: big enough that per-job host work
/// dominates thread overhead, small enough to run in seconds.
const PARALLEL_N: usize = 2048;
const PARALLEL_D: usize = 16;
const PARALLEL_K: usize = 8;
const PARALLEL_RESTARTS: usize = 16;
const PARALLEL_ITERATIONS: usize = 8;

fn main() {
    // `--parallel-demo-only` is the internal re-exec entry point: the demo
    // wants the per-operation kernel parallelism (POPCORN_NUM_THREADS) pinned
    // to one thread so its measured ratio isolates the job-level driver, but
    // that setting caches process-wide — pinning it here would silently
    // serialize the paper-protocol table runs above. So the parent runs the
    // table with normal kernels and re-execs itself with the env pinned for
    // the demo alone.
    let mut raw_args: Vec<String> = std::env::args().skip(1).collect();
    let demo_only = raw_args.iter().any(|a| a == "--parallel-demo-only");
    raw_args.retain(|a| a != "--parallel-demo-only");
    let options = match ExperimentOptions::parse(&raw_args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if demo_only {
        parallel_driver_demo(&options);
        return;
    }
    let dataset = options.scaled_dataset(PaperDataset::Mnist);
    let k_values: Vec<usize> = options
        .k_values
        .iter()
        .copied()
        .filter(|&k| k <= dataset.n())
        .collect();
    if k_values.is_empty() {
        eprintln!(
            "all --k values exceed the scaled dataset size n = {}; raise --scale",
            dataset.n()
        );
        std::process::exit(2);
    }

    let mut table = Table::new(
        format!(
            "Restart protocol on {} (n={}, d={}, {} restarts per k, k in {:?})",
            dataset.name(),
            dataset.n(),
            dataset.d(),
            options.restarts,
            k_values,
        ),
        &[
            "solver",
            "jobs",
            "shared",
            "per-job",
            "amortized",
            "independent",
            "reuse",
            "best k",
            "best objective",
        ],
    );

    for solver in [Solver::Popcorn, Solver::DenseBaseline, Solver::Cpu] {
        let executed = execute_batch(
            solver,
            dataset.name(),
            FitInput::Dense(dataset.points()),
            options.config(k_values[0]),
            &k_values,
            options.restarts,
        )
        .expect("batched execution");
        let report = &executed.batch.report;
        let best = &report.jobs[executed.batch.best];
        table.push_row(vec![
            solver.name().to_string(),
            report.jobs.len().to_string(),
            format_seconds(report.shared_modeled_seconds()),
            format_seconds(report.jobs_modeled_seconds()),
            format_seconds(report.amortized_modeled_seconds()),
            format_seconds(report.independent_modeled_seconds()),
            format_speedup(report.reuse_speedup()),
            best.k.to_string(),
            format!("{:.6e}", best.objective),
        ]);
    }

    print!("{}", table.render());
    let path = options.out_path("restart_protocol.csv");
    table.write_csv(&path).expect("write CSV");
    println!("\nwrote {}", path.display());

    spawn_parallel_demo(&raw_args, &options);
}

/// Run the parallel-driver demo in a child process with POPCORN_NUM_THREADS
/// pinned to 1 (unless the user set it), so the pin cannot leak into this
/// process's cached kernel thread count. Falls back to an inline demo when
/// spawning is impossible.
fn spawn_parallel_demo(raw_args: &[String], options: &ExperimentOptions) {
    let spawned = std::env::current_exe().and_then(|exe| {
        let mut cmd = std::process::Command::new(exe);
        cmd.args(raw_args).arg("--parallel-demo-only");
        if std::env::var_os(popcorn_dense::parallel::NUM_THREADS_ENV).is_none() {
            cmd.env(popcorn_dense::parallel::NUM_THREADS_ENV, "1");
        }
        cmd.status()
    });
    match spawned {
        Ok(status) if status.success() => {}
        Ok(status) => {
            eprintln!("parallel demo child exited with {status}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!(
                "note: could not re-exec for the parallel demo ({e}); running inline — \
                 per-kernel threads stay at this process's setting, so the measured \
                 ratio mixes kernel- and job-level parallelism"
            );
            parallel_driver_demo(options);
        }
    }
}

/// The parallel-driver demonstration: one 16-restart in-core sweep,
/// sequential vs multi-threaded, bit-identity asserted, measured ratio
/// reported and recorded as a JSON artifact.
fn parallel_driver_demo(options: &ExperimentOptions) {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if available == 1 {
        // Say so up front, before any timing scrolls past: on a 1-core host
        // the parallel driver cannot run jobs concurrently, so the measured
        // ratio below is thread overhead, not a speedup measurement.
        println!(
            "\nNOTE: this host reports 1 hardware thread — a host-thread \
             speedup is NOT measurable here. The run below still verifies \
             the bit-identity contract; treat the measured ratio as \
             overhead, not speedup."
        );
    }
    let threads = available.max(4);
    let demo = uniform_dataset::<f32>(PARALLEL_N, PARALLEL_D, options.seed);
    let config = options
        .config(PARALLEL_K)
        .with_max_iter(PARALLEL_ITERATIONS);
    let run = |host_threads: HostParallelism| {
        execute_batch_with(
            Solver::Popcorn,
            demo.name(),
            FitInput::Dense(demo.points()),
            config.clone(),
            &[PARALLEL_K],
            PARALLEL_RESTARTS,
            &BatchOptions::default().with_host_threads(host_threads),
        )
        .expect("parallel demo batch")
    };
    let sequential = run(HostParallelism::Threads(1));
    let parallel = run(HostParallelism::Threads(threads));

    // Bit-identity across thread counts is a hard contract, not a hope:
    // verify the demo's own results before reporting any speedup.
    assert_eq!(sequential.batch.results.len(), parallel.batch.results.len());
    for (a, b) in sequential
        .batch
        .results
        .iter()
        .zip(parallel.batch.results.iter())
    {
        assert_eq!(a.labels, b.labels, "parallel driver changed labels");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "parallel driver changed an objective"
        );
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.records().iter().zip(b.trace.records().iter()) {
            assert_eq!(x.name, y.name, "parallel driver reordered a job trace");
            assert_eq!(x.modeled_seconds.to_bits(), y.modeled_seconds.to_bits());
        }
    }

    let seq_report = &sequential.batch.report;
    let par_report = &parallel.batch.report;
    let measured_speedup = if par_report.host_seconds > 0.0 {
        seq_report.host_seconds / par_report.host_seconds
    } else {
        1.0
    };
    let kernel_threads = popcorn_dense::parallel::num_threads();
    println!(
        "\nParallel restart driver (n={PARALLEL_N}, d={PARALLEL_D}, k={PARALLEL_K}, \
         {PARALLEL_RESTARTS} restarts, {PARALLEL_ITERATIONS} iterations, in-core; \
         host has {available} hardware thread(s), {kernel_threads} kernel thread(s)):"
    );
    println!(
        "  host threads 1:  drive measured {:.3} s",
        seq_report.host_seconds
    );
    println!(
        "  host threads {threads}:  drive measured {:.3} s  ({measured_speedup:.2}x measured speedup)",
        par_report.host_seconds
    );
    if available < 4 {
        println!(
            "  note: only {available} hardware thread(s) available — the >= 2x target \
             needs >= 4 cores; the driver is still verified bit-identical."
        );
    }
    println!(
        "  modeled device time (identical at any thread count): amortized {:.6} s, \
         stream-aware concurrent {:.6} s ({:.2}x stream overlap)",
        par_report.amortized_modeled_seconds(),
        par_report.modeled_concurrent_seconds(),
        par_report.stream_overlap_speedup(),
    );
    println!("  bit-identity across thread counts: verified (labels, objectives, traces)");

    let json = format!(
        "{{\n  \"n\": {PARALLEL_N},\n  \"d\": {PARALLEL_D},\n  \"k\": {PARALLEL_K},\n  \
         \"restarts\": {PARALLEL_RESTARTS},\n  \"iterations\": {PARALLEL_ITERATIONS},\n  \
         \"host_cores\": {available},\n  \
         \"available_parallelism\": {available},\n  \"kernel_threads\": {kernel_threads},\n  \
         \"speedup_measurable\": {},\n  \
         \"sequential_host_threads\": {},\n  \"sequential_host_seconds\": {:.6},\n  \
         \"parallel_host_threads\": {},\n  \"parallel_host_seconds\": {:.6},\n  \
         \"measured_speedup\": {measured_speedup:.4},\n  \
         \"modeled_amortized_seconds\": {:.9},\n  \
         \"modeled_concurrent_seconds\": {:.9},\n  \
         \"bit_identical\": true\n}}\n",
        available > 1,
        seq_report.host_threads,
        seq_report.host_seconds,
        par_report.host_threads,
        par_report.host_seconds,
        par_report.amortized_modeled_seconds(),
        par_report.modeled_concurrent_seconds(),
    );
    let artifact = options.out_path("BENCH_restart_parallel.json");
    std::fs::write(&artifact, json).expect("write JSON artifact");
    println!("wrote {}", artifact.display());
}
