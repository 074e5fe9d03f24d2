//! Model files saved before format v2. The files under `tests/fixtures/`
//! were written by `gpukmeans --save-model` on the build that still wrote
//! `K` and the Nyström factors (see the README there): one per resident
//! kind on dense points, plus a full and a Nyström model on CSR points.
//! Each loads as a deprecated v1 file, serves the labels its v2 re-save
//! serves, and re-saves to the bytes a fresh fit of its points and config
//! saves.

use popcorn::baselines::SolverKind;
use popcorn::core::ModelFormat;
use popcorn::prelude::*;

const FIXTURES: [(&str, &str); 7] = [
    ("dense full", include_str!("fixtures/v1-dense-full.model")),
    (
        "dense nystrom",
        include_str!("fixtures/v1-dense-nystrom.model"),
    ),
    ("dense csr", include_str!("fixtures/v1-dense-csr.model")),
    (
        "dense streamed",
        include_str!("fixtures/v1-dense-streamed.model"),
    ),
    ("dense lloyd", include_str!("fixtures/v1-dense-lloyd.model")),
    ("csr full", include_str!("fixtures/v1-csr-full.model")),
    ("csr nystrom", include_str!("fixtures/v1-csr-nystrom.model")),
];

#[test]
fn v1_fixtures_serve_as_their_v2_resave_and_resave_as_a_fresh_fit() {
    for (name, text) in FIXTURES {
        let (v1, format) = FittedModel::<f32>::load_versioned(text).unwrap();
        assert_eq!(format, ModelFormat::V1, "{name}");
        let resaved = v1.save();
        let (v2, format) = FittedModel::<f32>::load_versioned(&resaved).unwrap();
        assert_eq!(format, ModelFormat::V2, "{name}");
        assert!(resaved.len() <= text.len(), "{name}");

        // The training points (a replay) and fresh rows in both layouts.
        let d = v1.d();
        let fresh = DenseMatrix::<f32>::from_fn(6, d, |i, j| match (i + j) % 3 {
            0 => 0.0,
            _ => ((i * d + j) as f32 * 0.7).sin() * 3.0,
        });
        let fresh_csr = CsrMatrix::from_dense(&fresh);
        let queries = [
            v1.points().as_input(),
            FitInput::Dense(&fresh),
            FitInput::Sparse(&fresh_csr),
        ];
        for queries in queries {
            let labels = |model: &FittedModel<f32>| {
                let executor = SimExecutor::new(model.family().default_device(), 4);
                model.assign(queries, &executor).unwrap().labels
            };
            assert_eq!(labels(&v1), labels(&v2), "{name}");
        }

        let solver = SolverKind::from(v1.family()).build::<f32>(v1.config().clone());
        let (_, fit) = solver.fit_model(v1.points().as_input()).unwrap();
        assert_eq!(fit.save(), resaved, "{name}");
    }
}
