//! libSVM sparse text format reader.
//!
//! The paper's datasets come from the libSVM repository and the original
//! artifact reads them with `-i file.libsvm`. Each line is
//! `label index:value index:value ...` with 1-based, strictly increasing
//! feature indices; absent features are zero. Labels may be arbitrary
//! integers (they are remapped to contiguous `0..c` class ids).
//!
//! [`read_libsvm_sparse`] keeps the file's natural sparsity as a CSR-backed
//! [`SparseDataset`]: for the paper's text workloads (scotus: n = 6 400,
//! d = 126 405, ~99.9% zeros) densifying would expand ~13 MB of stored
//! entries into a ~3 GB dense matrix. [`looks_like_libsvm`] is the format
//! check `gpukmeans` and `popcorn-serve` apply to an input of unknown kind.

use crate::dataset::SparseDataset;
use crate::{DataError, Result};
use popcorn_dense::Scalar;
use popcorn_sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::path::Path;

/// Parse libSVM-formatted text into a CSR-backed sparse dataset, preserving
/// the file's natural sparsity end to end (no dense intermediate is built).
///
/// `d_hint` optionally forces the number of features (useful when the tail
/// features of the file happen to be all-zero); otherwise the maximum feature
/// index seen determines `d`.
pub fn parse_libsvm_sparse<T: Scalar>(
    name: impl Into<String>,
    text: &str,
    d_hint: Option<usize>,
) -> Result<SparseDataset<T>> {
    let mut raw_labels: Vec<i64> = Vec::new();
    let mut row_ptrs = vec![0usize];
    let mut col_indices = Vec::new();
    let mut values = Vec::new();
    let mut max_index = 0usize;

    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let label_tok = tokens.next().ok_or_else(|| DataError::Parse {
            line: line_no + 1,
            reason: "missing label".into(),
        })?;
        let label: i64 = label_tok.parse().map_err(|_| DataError::Parse {
            line: line_no + 1,
            reason: format!("label '{label_tok}' is not an integer"),
        })?;
        let mut prev_index = 0usize;
        for tok in tokens {
            let (idx_str, val_str) = tok.split_once(':').ok_or_else(|| DataError::Parse {
                line: line_no + 1,
                reason: format!("feature '{tok}' is not index:value"),
            })?;
            let idx: usize = idx_str.parse().map_err(|_| DataError::Parse {
                line: line_no + 1,
                reason: format!("feature index '{idx_str}' is not an integer"),
            })?;
            if idx == 0 {
                return Err(DataError::Parse {
                    line: line_no + 1,
                    reason: "libSVM feature indices are 1-based".into(),
                });
            }
            if idx <= prev_index {
                return Err(DataError::Parse {
                    line: line_no + 1,
                    reason: format!("feature indices not strictly increasing at {idx}"),
                });
            }
            prev_index = idx;
            let val: f64 = val_str.parse().map_err(|_| DataError::Parse {
                line: line_no + 1,
                reason: format!("feature value '{val_str}' is not a number"),
            })?;
            max_index = max_index.max(idx);
            col_indices.push(idx - 1);
            values.push(T::from_f64(val));
        }
        raw_labels.push(label);
        row_ptrs.push(values.len());
    }

    if raw_labels.is_empty() {
        return Err(DataError::Shape(
            "libSVM input contains no data lines".into(),
        ));
    }
    // Remap raw labels to contiguous class ids in order of first appearance.
    let mut class_map: BTreeMap<i64, usize> = BTreeMap::new();
    for &l in &raw_labels {
        let next = class_map.len();
        class_map.entry(l).or_insert(next);
    }
    let labels = raw_labels.iter().map(|l| class_map[l]).collect();
    let d = d_hint.unwrap_or(max_index).max(max_index);
    // The parser enforces strictly increasing 1-based indices per line, so
    // the CSR invariants hold by construction.
    let points = CsrMatrix::from_raw_unchecked(raw_labels.len(), d, row_ptrs, col_indices, values);
    SparseDataset::with_labels(name, points, labels)
}

/// Read a libSVM file from disk into a CSR-backed sparse dataset.
pub fn read_libsvm_sparse<T: Scalar>(
    path: impl AsRef<Path>,
    d_hint: Option<usize>,
) -> Result<SparseDataset<T>> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "libsvm".to_string());
    parse_libsvm_sparse(name, &text, d_hint)
}

/// Whether an input text of unknown format reads as libSVM rather than
/// CSV: libSVM feature tokens contain a `:`, CSV rows contain a `,`. Blank
/// and `#` comment lines are skipped, and lines showing neither marker (a
/// label-only libSVM row for an all-zero point, or a one-column CSV row)
/// are ambiguous, so scanning continues until a decisive line, over the
/// first 200 lines. Text with no decisive line reads as CSV.
pub fn looks_like_libsvm(text: &str) -> bool {
    const SNIFF_LINES: usize = 200;
    for line in text.lines().take(SNIFF_LINES) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line
            .split_whitespace()
            .skip(1)
            .any(|token| token.contains(':'))
        {
            return true;
        }
        if line.contains(',') {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "1 1:0.5 3:2.0\n-1 2:1.5\n1 1:1.0 2:1.0 3:1.0\n";
        let ds = parse_libsvm_sparse::<f64>("test", text, None).unwrap();
        assert_eq!(ds.n(), 3);
        assert_eq!(ds.d(), 3);
        assert_eq!(ds.nnz(), 6);
        let points = ds.points();
        assert_eq!(points.get(0, 0), 0.5);
        assert_eq!(points.get(0, 1), 0.0);
        assert_eq!(points.get(0, 2), 2.0);
        assert_eq!(points.get(1, 1), 1.5);
        // No dense intermediate: density reflects only stored entries.
        assert!((ds.density() - 6.0 / 9.0).abs() < 1e-12);
        // labels -1 and 1 remapped to 0-based ids, order of first appearance
        assert_eq!(ds.labels().unwrap(), &[0, 1, 0]);
        assert_eq!(ds.num_classes(), 2);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# comment\n\n1 1:1.0\n";
        let ds = parse_libsvm_sparse::<f32>("test", text, None).unwrap();
        assert_eq!(ds.n(), 1);
    }

    #[test]
    fn d_hint_expands_dimensions() {
        let text = "0 1:1.0\n";
        let ds = parse_libsvm_sparse::<f64>("test", text, Some(5)).unwrap();
        assert_eq!(ds.d(), 5);
        // a hint smaller than the data is ignored
        let ds = parse_libsvm_sparse::<f64>("test", "0 1:1.0 4:2.0\n", Some(2)).unwrap();
        assert_eq!(ds.d(), 4);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_libsvm_sparse::<f64>("t", "notanumber 1:1.0\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "1 1\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "1 0:1.0\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "1 2:1.0 1:2.0\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "1 a:1.0\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "1 1:xyz\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "\n\n", None).is_err());
        // A feature index far beyond the stored entries allocates nothing
        // by the feature count.
        let ds = parse_libsvm_sparse::<f32>("t", "1 2305843009213693952:1.0\n", None).unwrap();
        assert_eq!((ds.d(), ds.nnz()), (1 << 61, 1));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("popcorn_libsvm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.libsvm");
        let text = "0 1:1.0 2:2.0\n1 2:3.0\n";
        std::fs::write(&path, text).unwrap();
        let back = read_libsvm_sparse::<f64>(&path, None).unwrap();
        assert_eq!(back.name(), "toy");
        assert_eq!(back, parse_libsvm_sparse::<f64>("toy", text, None).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = read_libsvm_sparse::<f64>("/nonexistent/path/file.libsvm", None).unwrap_err();
        assert!(matches!(e, DataError::Io(_)));
    }

    #[test]
    fn sparse_parse_honours_d_hint() {
        let sparse = parse_libsvm_sparse::<f32>("t", "0 1:1.0\n", Some(5)).unwrap();
        assert_eq!(sparse.d(), 5);
        assert_eq!(sparse.nnz(), 1);
    }

    #[test]
    fn sparse_parse_rejects_malformed_input() {
        assert!(parse_libsvm_sparse::<f64>("t", "1 2:1.0 1:2.0\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "1 0:1.0\n", None).is_err());
        assert!(parse_libsvm_sparse::<f64>("t", "\n\n", None).is_err());
    }

    #[test]
    fn format_check_skips_comments_and_label_only_rows() {
        // A CSV export headed by a comment that holds a `:`.
        assert!(!looks_like_libsvm(
            "# exported 2026-10-19 12:30\n1.0,2.0\n3.0,4.0\n"
        ));
        // Label-only rows (all-zero points) are ambiguous; the first row
        // with a feature decides.
        assert!(looks_like_libsvm("1\n0\n# note: sparse\n1 3:0.5\n"));
        assert!(looks_like_libsvm("# header\n\n2 1:1.0 7:2.5\n"));
        // One-column CSV rows show neither marker, then a comma decides.
        assert!(!looks_like_libsvm("1.5\n2.5\n1.0,2.0\n"));
        // Nothing decisive reads as CSV.
        assert!(!looks_like_libsvm("1\n2\n"));
        assert!(!looks_like_libsvm(""));
    }
}
