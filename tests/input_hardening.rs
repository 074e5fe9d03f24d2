//! Hostile model files: small saved models of every kernel family and
//! resident kind, and Lloyd's, on dense and CSR points, mutated by a seeded
//! RNG — truncated, a token swapped for a hostile count or another token of
//! the file, bytes flipped, a line deleted or duplicated.
//!
//! Each mutant is loaded. When it loads, it assigns the training points and
//! a fresh batch, and one warm refit runs through its family's solver. Any
//! step may return an error; none may panic or abort.

use popcorn::baselines::SolverKind;
use popcorn::data::synthetic::gaussian_blobs;
use popcorn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random mutants per saved model: 26 models make about 2,000.
const MUTANTS_PER_MODEL: usize = 75;

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
