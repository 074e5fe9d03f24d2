//! Measured host-time benchmark of the popcorn workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense-exact|sparse-text|nystrom|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload untraced in this process and prints
//! its end-to-end metrics. `--trace 1` measures the host roofline probes and
//! then runs the traced decomposition of every workload, each in a child
//! process of its own, and prints the per-layer metrics tagged with their
//! workload. The last line of standard output is the JSON result. See
//! `README.md` beside this crate for the metrics and workloads.

mod probe;
mod stats;
mod traced;
mod workloads;

use probe::Roofline;
use stats::Report;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// Each roofline copy array spans twice the L3 the OS reports, so the two
/// together are four times it.
const COPY_ARRAY_L3_MULTIPLE: u64 = 2;
/// Copy array size when the OS reports no L3.
const COPY_ARRAY_FALLBACK_BYTES: u64 = 256 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes of a traced run; they hand their metrics
    /// to the parent instead of printing the JSON result.
    child: bool,
    /// The parent's probe results, handed to traced children.
    roofline: Option<Roofline>,
}

const USAGE: &str = "usage: perfbench --workload <dense-exact|sparse-text|nystrom|serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut child, mut roofline) = (false, None);
    while let Some(flag) = args.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad("expected seconds"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--roofline" => {
                let (fma, copy) = value.split_once(',').ok_or(bad("expected FMA,COPY"))?;
                roofline = Some(Roofline {
                    fma_gflops: fma.parse().map_err(|_| bad("expected a number"))?,
                    copy_gbs: copy.parse().map_err(|_| bad("expected a number"))?,
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
        roofline,
    })
}

/// Run this program again for `workload`, wait for it, and read back its
/// metrics. `None` if it failed.
fn run_child(
    workload: Workload,
    args: &Args,
    extra: &[&str],
    env: &[(&str, &str)],
) -> Option<Report> {
    let exe = std::env::current_exe().expect("locate the running benchmark");
    let seed = args.seed.to_string();
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed, "--child"])
        .args(extra)
        .envs(env.iter().copied())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a benchmark child process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|line| !line.starts_with('@')) {
        println!("{line}");
    }
    if !output.status.success() {
        eprintln!(
            "perfbench: {} child exited with {}",
            workload.name(),
            output.status
        );
        return None;
    }
    Report::from_child_lines(&stdout)
}

/// The traced run: roofline probes here, then each workload's traced
/// decomposition in a child process, one at a time.
fn traced_run(args: &Args) -> Report {
    let mut report = Report::default();
    let threads = popcorn_dense::parallel::num_threads();
    let l3 = probe::l3_bytes();
    let copy_bytes = l3.map_or(COPY_ARRAY_FALLBACK_BYTES, |l3| COPY_ARRAY_L3_MULTIPLE * l3);
    let roofline = probe::measure(threads, copy_bytes as usize);
    println!(
        "probes ({threads} threads): FMA {:.2} GFLOP/s; copy {:.2} GB/s between two arrays \
         of {} MiB each, {} MiB together (OS-reported L3: {}); op and byte counts below are \
         computed, not measured",
        roofline.fma_gflops,
        roofline.copy_gbs,
        copy_bytes >> 20,
        (2 * copy_bytes) >> 20,
        l3.map_or("none".to_string(), |b| format!("{} MiB", b >> 20)),
    );
    report.put("probe.fma_gflops", roofline.fma_gflops, "GFLOP/s");
    report.put("probe.copy_gbs", roofline.copy_gbs, "GB/s");

    let probes = format!("{:?},{:?}", roofline.fma_gflops, roofline.copy_gbs);
    let seconds = args.seconds.to_string();
    for workload in Workload::ALL {
        let extra = ["--trace", "1", "--seconds", &seconds, "--roofline", &probes];
        match run_child(workload, args, &extra, &[]) {
            Some(child) => report.absorb(&format!("{}.", workload.name()), child),
            None => report.check(false, || {
                format!("{}: traced child failed", workload.name())
            }),
        }
    }

    // Kernel threads are cached per process, so the one-thread fits run in a
    // child of their own.
    let one_thread = run_child(
        Workload::DenseExact,
        args,
        &["--trace", "0", "--seconds", "0"],
        &[(popcorn_dense::parallel::NUM_THREADS_ENV, "1")],
    );
    let default_fit = report.metrics.get("dense-exact.fit_s").map(|m| m.0);
    match (
        one_thread.and_then(|r| r.metrics.get("work_s").map(|m| m.0)),
        default_fit,
    ) {
        (Some(one), Some(default)) => {
            report.put("dense-exact.parallel.speedup", one / default, "x")
        }
        _ => report.check(false, || "dense-exact: one-thread fits failed".into()),
    }
    report.metrics.retain(|name, _| !name.ends_with(".fit_s"));
    report
}

/// A traced child: one workload's traced decomposition, spans written out.
fn traced_child(args: &Args) -> Report {
    let roofline = args
        .roofline
        .expect("traced children get the parent's probes");
    let name = args.workload.name();
    let mut tracer = traced::Tracer::new(format!(
        "{name}-seed{}-pid{}",
        args.seed,
        std::process::id()
    ));
    let report = match args.workload {
        Workload::Serve => traced::traced_serve(args.seed, &mut tracer),
        workload => traced::traced_fit_workload(workload, args.seed, &roofline, &mut tracer),
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{name}-seed{}.jsonl", args.seed));
    match tracer.write(&path) {
        Ok(()) => println!("{name}: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    println!(
        "{name}: {} | seed {} | available_parallelism {} | kernel threads {}",
        args.workload.shape(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        popcorn_dense::parallel::num_threads(),
    );
    let report = match (args.trace, args.child) {
        (false, _) if args.workload == Workload::Serve => {
            workloads::run_serve(args.seed, args.seconds)
        }
        (false, _) => workloads::run_fit(args.workload, args.seed, args.seconds),
        (true, false) => traced_run(&args),
        (true, true) => traced_child(&args),
    };
    if args.child {
        print!("{}", report.table());
        print!("{}", report.child_lines());
    } else {
        println!("{} (trace {}):", name, u8::from(args.trace));
        print!("{}", report.table());
        println!("{}", report.json());
    }
    ExitCode::SUCCESS
}
