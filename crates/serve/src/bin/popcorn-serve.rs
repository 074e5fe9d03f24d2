//! `popcorn-serve` — serve a saved clustering model.
//!
//! Loads a [`popcorn_core::FittedModel`] written by `gpukmeans --save-model`,
//! starts the bounded-queue serving runtime and drives it with the requests
//! named on the command line (query files to label, refits to run), printing
//! one line per answered request plus a stats footer. The kernel state is
//! uploaded once at load time; every request pays only its marginal cost.

use popcorn_baselines::SolverKind;
use popcorn_core::model::{OwnedPoints, RefitRequest};
use popcorn_data::{csv, libsvm};
use popcorn_serve::{ServeOptions, ServeRequest, ServeResponse, Server, SubmitError};

const USAGE: &str = "popcorn-serve — serve a fitted Popcorn clustering model

USAGE:
  popcorn-serve --model FILE [REQUESTS...]

REQUESTS (executed in order; repeatable):
  --assign FILE   label the points in FILE (csv or libsvm, sniffed per file)
  --train         label the model's own training set (replays the fit's
                  distance pass over resident state — no kernel recompute)
  --refit MODE    refit the model: warm (seed from the stored labels) or
                  cold (bit-identical to a fresh fit)

OPTIONS:
  --model FILE    the model to serve (written by gpukmeans --save-model);
                  refits run the solver family that fitted it
  --queue INT     bounded request-queue capacity, at most 65536
                  [default: 64]
  --workers INT   worker threads                 [default: 1]
  --labels-out F  write the labels of the LAST assignment to F
  -h, --help      print this help text
";

/// The largest `--queue`: the queue allocates every slot up front.
const MAX_QUEUE: usize = 1 << 16;

enum Scripted {
    AssignFile(String),
    AssignTraining,
    Refit(RefitRequest<f32>),
}

struct ServeArgs {
    model: String,
    queue: usize,
    workers: usize,
    labels_out: Option<String>,
    script: Vec<Scripted>,
}

fn parse_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut model = None;
    let mut queue = 64usize;
    let mut workers = 1usize;
    let mut labels_out = None;
    let mut script = Vec::new();
    let mut iter = args.iter();
    let value = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "--model" => model = Some(value("--model", &mut iter)?),
            "--queue" => {
                queue = value("--queue", &mut iter)?
                    .parse()
                    .map_err(|_| "--queue expects a positive integer".to_string())?
            }
            "--workers" => {
                workers = value("--workers", &mut iter)?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?
            }
            "--labels-out" => labels_out = Some(value("--labels-out", &mut iter)?),
            "--assign" => script.push(Scripted::AssignFile(value("--assign", &mut iter)?)),
            "--train" => script.push(Scripted::AssignTraining),
            "--refit" => {
                let mode = value("--refit", &mut iter)?;
                script.push(Scripted::Refit(match mode.as_str() {
                    "warm" => RefitRequest::warm(),
                    "cold" => RefitRequest::cold(),
                    _ => return Err(format!("--refit expects warm or cold, got '{mode}'")),
                }));
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    if queue == 0 || workers == 0 {
        return Err("--queue and --workers must be at least 1".to_string());
    }
    if queue > MAX_QUEUE {
        return Err(format!(
            "--queue {queue} exceeds {MAX_QUEUE}: the queue allocates every slot up front"
        ));
    }
    // Checked before the model loads: a script without an assignment has
    // no labels to write, whatever its refits do.
    let assigns = script
        .iter()
        .any(|step| matches!(step, Scripted::AssignFile(_) | Scripted::AssignTraining));
    if labels_out.is_some() && !assigns {
        return Err("--labels-out needs at least one --assign or --train".to_string());
    }
    Ok(ServeArgs {
        model: model.ok_or_else(|| format!("--model is required\n\n{USAGE}"))?,
        queue,
        workers,
        labels_out,
        script,
    })
}

/// Load a query file, told libSVM or CSV by the CLI's format check.
fn load_queries(path: &str) -> Result<OwnedPoints<f32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| path.to_string());
    if libsvm::looks_like_libsvm(&text) {
        libsvm::parse_libsvm_sparse::<f32>(name, &text, None)
            .map(|ds| OwnedPoints::Csr(ds.points().clone()))
            .map_err(|e| format!("failed to parse {path} as libsvm: {e}"))
    } else {
        csv::parse_csv::<f32>(name, &text, false)
            .map(|ds| OwnedPoints::Dense(ds.points().clone()))
            .map_err(|e| format!("failed to parse {path} as csv: {e}"))
    }
}

fn run(args: &ServeArgs) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.model)
        .map_err(|e| format!("cannot read {}: {e}", args.model))?;
    let (model, format) = popcorn_core::FittedModel::<f32>::load_versioned(&text)
        .map_err(|e| format!("{}: {e}", args.model))?;
    if format.is_deprecated() {
        eprintln!(
            "popcorn-serve: {} uses the deprecated {} model format; re-save it with \
             gpukmeans --save-model to upgrade",
            args.model,
            format.describe()
        );
    }
    println!("serving {}", model.describe());
    // The family that fitted the model executes its refits: every solver
    // rejects refitting another family's model.
    let solver = SolverKind::from(model.family());
    let server = Server::start(
        model,
        solver,
        ServeOptions {
            queue_capacity: args.queue,
            workers: args.workers,
        },
    );

    let mut last_labels: Option<Vec<usize>> = None;
    for step in &args.script {
        let (what, request) = match step {
            Scripted::AssignFile(path) => (
                format!("assign {path}"),
                ServeRequest::Assign {
                    queries: load_queries(path)?,
                },
            ),
            Scripted::AssignTraining => (
                "assign <training set>".to_string(),
                ServeRequest::Assign {
                    queries: server.model().points().clone(),
                },
            ),
            Scripted::Refit(request) => (
                format!(
                    "refit ({})",
                    if request.warm_start { "warm" } else { "cold" }
                ),
                ServeRequest::Refit {
                    request: request.clone(),
                },
            ),
        };
        // The scripted driver resubmits on backpressure; a networked front-end
        // would surface Busy to its client instead.
        let ticket = loop {
            match server.submit(request.clone()) {
                Ok(ticket) => break ticket,
                Err(SubmitError::Busy) => std::thread::yield_now(),
                Err(SubmitError::Closed) => return Err("server closed".to_string()),
            }
        };
        match ticket.wait() {
            ServeResponse::Assigned(batch) => {
                println!(
                    "{what}: {} labels in {:.6} modeled s{}",
                    batch.labels.len(),
                    batch.modeled_seconds,
                    if batch.replayed_training {
                        " (training replay)"
                    } else {
                        ""
                    }
                );
                last_labels = Some(batch.labels);
            }
            ServeResponse::Refitted(summary) => {
                let recovery = summary
                    .recovery
                    .as_ref()
                    .map(|r| {
                        format!(
                            " | recovered from {} device loss(es): {} row(s) migrated, \
                             {} byte(s) re-uploaded",
                            r.devices_lost, r.rows_migrated, r.bytes_reuploaded
                        )
                    })
                    .unwrap_or_default();
                println!(
                    "{what}: n={} iterations={} converged={} objective={:.6e} modeled={:.6}s{}",
                    summary.n,
                    summary.iterations,
                    summary.converged,
                    summary.objective,
                    summary.modeled_seconds,
                    recovery
                )
            }
            ServeResponse::Stats(_) => {}
            ServeResponse::Error(e) => println!("{what}: ERROR {e}"),
        }
    }

    if let Some(path) = &args.labels_out {
        // Every assignment of the script may have answered an error.
        let labels = last_labels.ok_or("--labels-out found no answered assignment to write")?;
        let mut text = String::new();
        for (i, label) in labels.iter().enumerate() {
            text.push_str(&format!("{i},{label}\n"));
        }
        std::fs::write(path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
    }

    let stats = server.shutdown();
    println!(
        "served {} request(s): {} assignment(s) over {} query row(s) ({} training replay(s)), \
         {} refit(s), {} rejected, {} error(s)",
        stats.served(),
        stats.assigned,
        stats.queries_labeled,
        stats.training_replays,
        stats.refits,
        stats.rejected,
        stats.errors,
    );
    println!(
        "modeled device time {:.6} s | mean host latency {:.6} s | worst {:.6} s",
        stats.modeled_device_seconds,
        stats.mean_host_latency_seconds(),
        stats.max_host_latency_seconds,
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&parsed) {
        eprintln!("popcorn-serve: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<ServeArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn labels_out_needs_an_assignment_in_the_script() {
        for line in [
            "--model m.model --labels-out x.labels",
            "--model m.model --refit warm --labels-out x.labels",
            "--model m.model --labels-out x.labels --refit cold",
        ] {
            let err = parse(line).err().unwrap_or_else(|| panic!("{line} parsed"));
            assert!(err.contains("--labels-out"), "{line}: {err}");
        }
        for line in [
            "--model m.model --assign q.csv --labels-out x.labels",
            "--model m.model --labels-out x.labels --train --refit warm",
        ] {
            let parsed = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.labels_out.as_deref(), Some("x.labels"));
        }
    }
}
