//! Hostile inputs, mutated by a seeded RNG — truncated, a token swapped for
//! a hostile count or another token of the text, bytes flipped, a line
//! deleted or duplicated:
//!
//! - small saved (v2) models of every kernel family and resident kind, and
//!   Lloyd's, on dense and CSR points, and the v1 files under
//!   `tests/fixtures/`. Each mutant is loaded. When it loads, it assigns the
//!   training points and a fresh batch, and one warm refit runs through its
//!   family's solver. Every mutant that loads is also served by
//!   `popcorn_serve::Server`, with hostile queries;
//! - generated libSVM and CSV texts. Each mutant is parsed by the libSVM
//!   reader and the CSV reader, and whatever parses is fitted by Popcorn.
//!
//! Any step may return an error; none may panic or abort, and none may
//! allocate by a count the text claims beyond what its own rows justify:
//! `load` rebuilds `K` and the Nyström factors from counts in the file, so
//! the process's peak resident set (`VmHWM`, Linux only) must stay under
//! [`PEAK_RSS_BOUND_BYTES`].

use popcorn::baselines::SolverKind;
use popcorn::core::ModelFormat;
use popcorn::data::csv::parse_csv;
use popcorn::data::libsvm::parse_libsvm_sparse;
use popcorn::data::synthetic::gaussian_blobs;
use popcorn::prelude::*;
use popcorn::serve::{ServeOptions, ServeRequest, ServeResponse, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random mutants per saved model: 33 models make about 2,500.
const MUTANTS_PER_MODEL: usize = 75;

/// The bound on the process's peak resident set. The suite's models hold
/// at most 40 points, so each rebuilt `K` or factor takes a few kB; the
/// peak read 13.5–13.7 MB in debug and release builds on Linux x86-64.
const PEAK_RSS_BOUND_BYTES: u64 = 64 << 20;

/// The files saved by the build before format v2.
const V1_FIXTURES: [&str; 7] = [
    include_str!("fixtures/v1-dense-full.model"),
    include_str!("fixtures/v1-dense-nystrom.model"),
    include_str!("fixtures/v1-dense-csr.model"),
    include_str!("fixtures/v1-dense-streamed.model"),
    include_str!("fixtures/v1-dense-lloyd.model"),
    include_str!("fixtures/v1-csr-full.model"),
    include_str!("fixtures/v1-csr-nystrom.model"),
];

/// Random mutants per generated libSVM or CSV text.
const MUTANTS_PER_TEXT: usize = 300;

/// Rows of each generated libSVM or CSV text.
const TEXT_ROWS: usize = 40;

/// The iteration budget every model is fitted with. Only a refit reads it,
/// so besides the random swaps each model gets it inflated explicitly.
const MAX_ITER: usize = 10;

/// Tokens a swap may write: inflated and negative counts, non-finite
/// values, and nothing at all.
const HOSTILE: [&str; 7] = [
    "999999999",
    "18446744073709551615",
    "-1",
    "0",
    "nan",
    "inf",
    "",
];

/// The byte spans of the whitespace-separated tokens of `text`.
fn tokens(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, &b) in text.iter().chain(b" ").enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// One random mutation of `text`, with a description of it.
fn mutate(text: &str, rng: &mut StdRng) -> (String, String) {
    let bytes = text.as_bytes();
    let (mutant, what) = match rng.gen_range(0..4u32) {
        0 => {
            let cut = rng.gen_range(0..bytes.len());
            (bytes[..cut].to_vec(), format!("truncated at byte {cut}"))
        }
        1 => {
            let spans = tokens(bytes);
            let (s, e) = spans[rng.gen_range(0..spans.len())];
            let pick = rng.gen_range(0..HOSTILE.len() + 1);
            let with = match HOSTILE.get(pick) {
                Some(token) => token.as_bytes(),
                None => {
                    let (os, oe) = spans[rng.gen_range(0..spans.len())];
                    &bytes[os..oe]
                }
            };
            let mut out = bytes[..s].to_vec();
            out.extend_from_slice(with);
            out.extend_from_slice(&bytes[e..]);
            let with = String::from_utf8_lossy(with);
            (out, format!("token at byte {s} replaced by {with:?}"))
        }
        2 => {
            let mut out = bytes.to_vec();
            let mut flips = Vec::new();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..out.len());
                out[at] = rng.gen_range(0x20..0x7fu8);
                flips.push(at);
            }
            (out, format!("bytes {flips:?} flipped"))
        }
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = rng.gen_range(0..lines.len());
            let what = if rng.gen_range(0..2u32) == 0 {
                lines.remove(at);
                format!("line {at} deleted")
            } else {
                lines.insert(at, lines[at]);
                format!("line {at} duplicated")
            };
            ((lines.join("\n") + "\n").into_bytes(), what)
        }
    };
    let mutant = String::from_utf8(mutant).expect("model files and mutations are ASCII");
    (mutant, what)
}

/// Names the mutant under test if it panics, so a failure can be replayed.
struct Current(String);

impl Drop for Current {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("panicked on {}", self.0);
        }
    }
}

fn config() -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(3)
        .with_seed(5)
        .with_max_iter(MAX_ITER)
        .with_convergence_check(true, 1e-6)
}

/// The process's peak resident set so far, in bytes.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("the status file reports VmHWM");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a count of kB");
    kib * 1024
}

/// Fails unless the process's peak resident set is under the bound.
fn assert_peak_rss_bounded() {
    #[cfg(target_os = "linux")]
    {
        let peak = peak_rss_bytes();
        assert!(
            peak < PEAK_RSS_BOUND_BYTES,
            "the peak RSS reached {:.1} MB (bound {} MB)",
            peak as f64 / (1 << 20) as f64,
            PEAK_RSS_BOUND_BYTES >> 20
        );
    }
}

/// One saved model to mutate, with the points to assign to its mutants.
struct ModelCase {
    name: String,
    text: String,
    train: OwnedPoints<f32>,
    fresh: OwnedPoints<f32>,
}

/// Every saved model the suite mutates: fits of every kernel family and
/// resident kind, and Lloyd's, on dense and CSR points, then the v1
/// fixtures, each with its own points and fresh rows of its layout.
fn model_cases() -> Vec<ModelCase> {
    let train = gaussian_blobs::<f32>(40, 4, 3, 2.0, 11).points().clone();
    let fresh = gaussian_blobs::<f32>(7, 4, 3, 2.0, 12).points().clone();
    let (train_csr, fresh_csr) = (CsrMatrix::from_dense(&train), CsrMatrix::from_dense(&fresh));
    let layouts = [
        (FitInput::Dense(&train), FitInput::Dense(&fresh)),
        (FitInput::Sparse(&train_csr), FitInput::Sparse(&fresh_csr)),
    ];
    let residents = [
        ("full", config()),
        ("streamed", config().with_tiling(TilePolicy::Rows(16))),
        (
            "nystrom",
            config().with_approx(KernelApprox::Nystrom {
                landmarks: 6,
                seed: 2,
            }),
        ),
        (
            "csr",
            config().with_approx(KernelApprox::Sparsified {
                sparsify: Sparsify::Knn { neighbors: 5 },
            }),
        ),
    ];
    let mut cases = Vec::new();
    for (train, fresh) in layouts {
        let mut fits = Vec::new();
        for kind in [
            SolverKind::Popcorn,
            SolverKind::Cpu,
            SolverKind::DenseBaseline,
        ] {
            for (resident, config) in &residents {
                fits.push((kind, *resident, config.clone()));
            }
        }
        fits.push((SolverKind::Lloyd, "none", config()));
        for (kind, resident, config) in fits {
            let (_, model) = kind.build::<f32>(config).fit_model(train).unwrap();
            assert_eq!(model.resident_kind(), resident, "{}", kind.name());
            cases.push(ModelCase {
                name: format!("{} {resident}, sparse {}", kind.name(), train.is_sparse()),
                text: model.save(),
                train: OwnedPoints::from_input(train),
                fresh: OwnedPoints::from_input(fresh),
            });
        }
    }
    for text in V1_FIXTURES {
        let (model, format) = FittedModel::<f32>::load_versioned(text).unwrap();
        assert_eq!(format, ModelFormat::V1);
        let d = model.d();
        let fresh = DenseMatrix::<f32>::from_fn(7, d, |i, j| ((i * d + j) as f32 * 0.9).sin());
        let fresh = match model.points() {
            OwnedPoints::Dense(_) => OwnedPoints::Dense(fresh),
            OwnedPoints::Csr(_) => OwnedPoints::Csr(CsrMatrix::from_dense(&fresh)),
        };
        cases.push(ModelCase {
            name: format!(
                "v1 fixture {} {}",
                model.family().name(),
                model.resident_kind()
            ),
            text: text.to_string(),
            train: model.points().clone(),
            fresh,
        });
    }
    cases
}

/// Each case's seeded mutants, with a description of each, plus the
/// iteration budget inflated explicitly (only a refit reads it).
fn mutants(case: &ModelCase, rng: &mut StdRng) -> Vec<(String, String)> {
    let budget = format!("max-iter {MAX_ITER}");
    let inflated = ["999999999", "18446744073709551615"].map(|count| {
        let mutant = case.text.replacen(&budget, &format!("max-iter {count}"), 1);
        (mutant, format!("max-iter set to {count}"))
    });
    std::iter::repeat_with(|| mutate(&case.text, rng))
        .take(MUTANTS_PER_MODEL)
        .chain(inflated)
        .collect()
}

#[test]
fn mutated_model_files_never_panic() {
    let cases = model_cases();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut mutants_run, mut loaded) = (0usize, 0usize);
    for case in &cases {
        let (train, fresh) = (case.train.as_input(), case.fresh.as_input());
        for (mutant, what) in mutants(case, &mut rng) {
            let _current = Current(format!("{}: {what}\n{mutant}", case.name));
            mutants_run += 1;
            let Ok(model) = FittedModel::<f32>::load(&mutant) else {
                continue;
            };
            loaded += 1;
            let executor = SimExecutor::new(model.family().default_device(), 4);
            let _ = model.assign(train, &executor);
            let _ = model.assign(fresh, &executor);
            let solver = SolverKind::from(model.family()).build::<f32>(model.config().clone());
            let _ = solver.refit(&model, &RefitRequest::warm());
        }
    }
    assert_eq!(cases.len(), 33);
    assert_eq!(mutants_run, cases.len() * (MUTANTS_PER_MODEL + 2));
    // Some mutations leave a valid model (a changed seed, a duplicated
    // label, an inflated budget, ...), so the serving and refit paths run
    // too.
    assert!(
        loaded * 25 > mutants_run,
        "only {loaded} of {mutants_run} loaded"
    );
    assert_peak_rss_bounded();
}

/// Queries no model accepts, or accepts only as awkward input: a wrong
/// feature count in either layout, no rows, non-finite values.
fn hostile_queries(d: usize) -> Vec<OwnedPoints<f32>> {
    let wide = DenseMatrix::<f32>::from_fn(3, d + 1, |i, j| (i + j) as f32);
    let mut non_finite = DenseMatrix::<f32>::from_fn(3, d, |i, j| (i * d + j) as f32);
    non_finite[(1, 0)] = f32::NAN;
    non_finite[(2, d - 1)] = f32::INFINITY;
    vec![
        OwnedPoints::Csr(CsrMatrix::from_dense(&wide)),
        OwnedPoints::Dense(wide),
        OwnedPoints::Dense(DenseMatrix::zeros(0, d)),
        OwnedPoints::Csr(CsrMatrix::from_dense(&non_finite)),
        OwnedPoints::Dense(non_finite),
    ]
}

#[test]
fn bad_model_files_and_queries_never_reach_the_servers_panic_backstop() {
    // The server turns a worker's panic into a `worker panicked` error
    // response. Every mutant that loads, and each unmutated model, is
    // served with its points, fresh rows, hostile queries and a warm
    // refit; none may get that response.
    let cases = model_cases();
    let mut rng = StdRng::seed_from_u64(0x5e7e);
    let mut served = 0usize;
    for case in &cases {
        let texts = std::iter::once((case.text.clone(), "unmutated".to_string()));
        for (text, what) in texts.chain(mutants(case, &mut rng)) {
            let _current = Current(format!("{}: {what}\n{text}", case.name));
            let Ok(model) = FittedModel::<f32>::load(&text) else {
                continue;
            };
            served += 1;
            let mut requests: Vec<ServeRequest> = [&case.train, &case.fresh]
                .into_iter()
                .cloned()
                .chain(hostile_queries(case.train.d().max(1)))
                .map(|queries| ServeRequest::Assign { queries })
                .collect();
            requests.push(ServeRequest::Refit {
                request: RefitRequest::warm(),
            });
            let server = Server::start(
                model.clone(),
                SolverKind::from(model.family()),
                ServeOptions::default(),
            );
            for request in requests {
                if let ServeResponse::Error(message) = server.request(request).unwrap() {
                    assert!(
                        !message.starts_with("worker panicked"),
                        "{}: {what}: {message}",
                        case.name
                    );
                }
            }
            server.shutdown();
        }
    }
    assert!(served > cases.len(), "only {served} models served");
    assert_peak_rss_bounded();
}

/// A libSVM text of two classes: each row stores 3 to 6 of its class's six
/// features (1–6 or 7–12), ascending, with positive and negative values.
fn libsvm_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for i in 0..TEXT_ROWS {
        let class = i % 2;
        text.push_str(&class.to_string());
        let stored = rng.gen_range(3..7usize);
        let mut features: Vec<usize> = Vec::new();
        while features.len() < stored {
            let f = rng.gen_range(1..7usize) + 6 * class;
            if !features.contains(&f) {
                features.push(f);
            }
        }
        features.sort_unstable();
        for f in features {
            let value = rng.gen_range(-1.0..2.0f64);
            text.push_str(&format!(" {f}:{value:.3}"));
        }
        text.push('\n');
    }
    text
}

/// A CSV text of two classes: four feature columns and a trailing label.
fn csv_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for i in 0..TEXT_ROWS {
        let class = i % 2;
        for _ in 0..4 {
            let value = 4.0 * class as f64 + rng.gen_range(-1.0..1.0f64);
            text.push_str(&format!("{value:.4},"));
        }
        text.push_str(&format!("{class}\n"));
    }
    text
}

#[test]
fn mutated_libsvm_and_csv_texts_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x7e47);
    let texts = [
        ("libSVM", libsvm_text(&mut rng)),
        ("CSV", csv_text(&mut rng)),
    ];
    let solver = KernelKmeans::new(
        KernelKmeansConfig::paper_defaults(2)
            .with_seed(3)
            .with_max_iter(3),
    );
    let (mut mutants, mut fitted) = (0usize, 0usize);
    for (format, text) in &texts {
        for _ in 0..MUTANTS_PER_TEXT {
            let (mutant, what) = mutate(text, &mut rng);
            let _current = Current(format!("{format}: {what}\n{mutant}"));
            mutants += 1;
            if let Ok(data) = parse_libsvm_sparse::<f32>("mutant", &mutant, None) {
                fitted += 1;
                let _ = solver.fit_sparse(data.points());
            }
            for has_labels in [false, true] {
                if let Ok(data) = parse_csv::<f32>("mutant", &mutant, has_labels) {
                    fitted += 1;
                    let _ = solver.fit(data.points());
                }
            }
        }
    }
    assert_eq!(mutants, texts.len() * MUTANTS_PER_TEXT);
    // Many mutations leave a readable text (a changed value, a deleted
    // line, ...), so the fits run too: each mutant gets up to three parses,
    // and the 600 mutants here give 356 fits.
    assert!(
        fitted * 2 > mutants,
        "only {fitted} fits of {mutants} mutants"
    );
    assert_peak_rss_bounded();
}
