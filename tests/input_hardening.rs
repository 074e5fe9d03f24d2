//! Hostile inputs, mutated by a seeded RNG — truncated, a token swapped for
//! a hostile count or another token of the text, bytes flipped, a line
//! deleted or duplicated:
//!
//! - small saved models of every kernel family and resident kind, and
//!   Lloyd's, on dense and CSR points. Each mutant is loaded. When it
//!   loads, it assigns the training points and a fresh batch, and one warm
//!   refit runs through its family's solver;
//! - generated libSVM and CSV texts. Each mutant is parsed by the dense and
//!   the sparse libSVM reader and the CSV reader, and whatever parses is
//!   fitted by Popcorn.
//!
//! Any step may return an error; none may panic or abort.

use popcorn::baselines::SolverKind;
use popcorn::data::csv::parse_csv;
use popcorn::data::libsvm::{parse_libsvm, parse_libsvm_sparse};
use popcorn::data::synthetic::gaussian_blobs;
use popcorn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random mutants per saved model: 26 models make about 2,000.
const MUTANTS_PER_MODEL: usize = 75;

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

fn solver_kind(family: ModelFamily) -> SolverKind {
    SolverKind::ALL
        .into_iter()
        .find(|kind| kind.family() == family)
        .expect("every family has a solver")
}

fn config() -> KernelKmeansConfig {
    KernelKmeansConfig::paper_defaults(3)
        .with_seed(5)
        .with_max_iter(MAX_ITER)
        .with_convergence_check(true, 1e-6)
}

#[test]
fn mutated_model_files_never_panic() {
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
        for kind in [
            SolverKind::Popcorn,
            SolverKind::Cpu,
            SolverKind::DenseBaseline,
        ] {
            for (resident, config) in &residents {
                cases.push((kind, *resident, config.clone(), train, fresh));
            }
        }
        cases.push((SolverKind::Lloyd, "none", config(), train, fresh));
    }

    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut mutants, mut loaded) = (0usize, 0usize);
    for (kind, resident, config, train, fresh) in cases {
        let (_, model) = kind.build::<f32>(config).fit_model(train).unwrap();
        assert_eq!(model.resident_kind(), resident, "{}", kind.name());
        let text = model.save();
        let case = format!("{} {resident}, sparse {}", kind.name(), train.is_sparse());
        let budget = format!("max-iter {MAX_ITER}");
        let inflated = ["999999999", "18446744073709551615"].map(|count| {
            let mutant = text.replacen(&budget, &format!("max-iter {count}"), 1);
            (mutant, format!("max-iter set to {count}"))
        });
        let random = std::iter::repeat_with(|| mutate(&text, &mut rng)).take(MUTANTS_PER_MODEL);
        for (mutant, what) in random.chain(inflated) {
            let _current = Current(format!("{case}: {what}\n{mutant}"));
            mutants += 1;
            let Ok(model) = FittedModel::<f32>::load(&mutant) else {
                continue;
            };
            loaded += 1;
            let executor = SimExecutor::new(kind.default_device(), 4);
            let _ = model.assign(train, &executor);
            let _ = model.assign(fresh, &executor);
            let solver = solver_kind(model.family()).build::<f32>(model.config().clone());
            let _ = solver.refit(&model, &RefitRequest::warm());
        }
    }
    assert_eq!(mutants, 26 * (MUTANTS_PER_MODEL + 2));
    // Some mutations leave a valid model (a changed seed, a duplicated
    // label, an inflated budget, ...), so the serving and refit paths run
    // too.
    assert!(loaded * 25 > mutants, "only {loaded} of {mutants} loaded");
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
            if let Ok(data) = parse_libsvm::<f32>("mutant", &mutant, None) {
                fitted += 1;
                let _ = solver.fit(data.points());
            }
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
    // line, ...), so the fits run too.
    assert!(
        fitted * 4 > mutants,
        "only {fitted} fits of {mutants} mutants"
    );
}
