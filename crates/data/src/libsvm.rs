//! libSVM sparse text format reader / writer.
//!
//! The paper's datasets come from the libSVM repository and the original
//! artifact reads them with `-i file.libsvm`. Each line is
//! `label index:value index:value ...` with 1-based, strictly increasing
//! feature indices; absent features are zero. Labels may be arbitrary
//! integers (they are remapped to contiguous `0..c` class ids).
//!
//! Two loaders are provided: [`read_libsvm`] densifies into a [`Dataset`]
//! (the historical behaviour), while [`read_libsvm_sparse`] keeps the file's
//! natural sparsity as a CSR-backed [`SparseDataset`] — for the paper's text
//! workloads (scotus: n = 6 400, d = 126 405, ~99.9% zeros) densifying would
//! expand ~13 MB of stored entries into a ~3 GB dense matrix.

use crate::dataset::{Dataset, SparseDataset};
use crate::{DataError, Result};
use popcorn_dense::{DenseMatrix, Scalar};
use popcorn_sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::path::Path;

/// The layout-independent parse of a libSVM text: per-row `(index, value)`
/// features, raw integer labels, and the largest feature index seen.
struct RawLibsvm {
    raw_labels: Vec<i64>,
    rows: Vec<Vec<(usize, f64)>>,
    max_index: usize,
}

impl RawLibsvm {
    /// The feature count implied by the data and an optional hint.
    fn d(&self, d_hint: Option<usize>) -> usize {
        d_hint.unwrap_or(self.max_index).max(self.max_index)
    }

    /// Remap raw labels to contiguous class ids in sorted order.
    fn class_ids(&self) -> Vec<usize> {
        let mut class_map: BTreeMap<i64, usize> = BTreeMap::new();
        for &l in &self.raw_labels {
            let next = class_map.len();
            class_map.entry(l).or_insert(next);
        }
        self.raw_labels.iter().map(|l| class_map[l]).collect()
    }
}

fn parse_raw(text: &str) -> Result<RawLibsvm> {
    let mut raw_labels: Vec<i64> = Vec::new();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
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
        let mut features: Vec<(usize, f64)> = Vec::new();
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
            features.push((idx - 1, val));
        }
        raw_labels.push(label);
        rows.push(features);
    }

    if rows.is_empty() {
        return Err(DataError::Shape(
            "libSVM input contains no data lines".into(),
        ));
    }
    Ok(RawLibsvm {
        raw_labels,
        rows,
        max_index,
    })
}

/// Parse libSVM-formatted text into a dense dataset.
///
/// `d_hint` optionally forces the number of features (useful when the tail
/// features of the file happen to be all-zero); otherwise the maximum feature
/// index seen determines `d`. The dense matrix takes `n × d` entries however
/// few the file stores, so the size is checked and the buffer reserved
/// fallibly: a feature index of 2^61 gets a [`DataError::Shape`], not an
/// abort.
pub fn parse_libsvm<T: Scalar>(
    name: impl Into<String>,
    text: &str,
    d_hint: Option<usize>,
) -> Result<Dataset<T>> {
    let raw = parse_raw(text)?;
    let d = raw.d(d_hint);
    let n = raw.rows.len();
    let failed = || {
        DataError::Shape(format!(
            "cannot allocate a dense {n} x {d} matrix: it needs {} bytes",
            n as u128 * d as u128 * std::mem::size_of::<T>() as u128
        ))
    };
    let len = n.checked_mul(d).ok_or_else(failed)?;
    let mut values = Vec::new();
    values.try_reserve_exact(len).map_err(|_| failed())?;
    values.resize(len, T::ZERO);
    for (row, features) in values.chunks_exact_mut(d.max(1)).zip(&raw.rows) {
        for &(j, v) in features {
            row[j] = T::from_f64(v);
        }
    }
    let points =
        DenseMatrix::from_vec(n, d, values).map_err(|e| DataError::Shape(e.to_string()))?;
    Dataset::with_labels(name, points, raw.class_ids())
}

/// Parse libSVM-formatted text into a CSR-backed sparse dataset, preserving
/// the file's natural sparsity end to end (no dense intermediate is built).
pub fn parse_libsvm_sparse<T: Scalar>(
    name: impl Into<String>,
    text: &str,
    d_hint: Option<usize>,
) -> Result<SparseDataset<T>> {
    let raw = parse_raw(text)?;
    let d = raw.d(d_hint);
    let n = raw.rows.len();
    let nnz: usize = raw.rows.iter().map(|r| r.len()).sum();
    let mut row_ptrs = Vec::with_capacity(n + 1);
    let mut col_indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    row_ptrs.push(0usize);
    for features in &raw.rows {
        for &(j, v) in features {
            col_indices.push(j);
            values.push(T::from_f64(v));
        }
        row_ptrs.push(values.len());
    }
    // The parser enforces strictly increasing 1-based indices per line, so
    // the CSR invariants hold by construction.
    let points = CsrMatrix::from_raw_unchecked(n, d, row_ptrs, col_indices, values);
    SparseDataset::with_labels(name, points, raw.class_ids())
}

fn dataset_name(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "libsvm".to_string())
}

/// Read a libSVM file from disk into a dense dataset.
pub fn read_libsvm<T: Scalar>(path: impl AsRef<Path>, d_hint: Option<usize>) -> Result<Dataset<T>> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    parse_libsvm(dataset_name(path), &text, d_hint)
}

/// Read a libSVM file from disk into a CSR-backed sparse dataset.
pub fn read_libsvm_sparse<T: Scalar>(
    path: impl AsRef<Path>,
    d_hint: Option<usize>,
) -> Result<SparseDataset<T>> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    parse_libsvm_sparse(dataset_name(path), &text, d_hint)
}

/// Serialise a dataset to libSVM text (zeros are omitted). Points without
/// labels are written with label `0`.
pub fn to_libsvm_string<T: Scalar>(dataset: &Dataset<T>) -> String {
    let mut out = String::new();
    for i in 0..dataset.n() {
        let label = dataset.labels().map(|l| l[i]).unwrap_or(0);
        out.push_str(&label.to_string());
        for (j, &v) in dataset.points().row(i).iter().enumerate() {
            if v != T::ZERO {
                out.push_str(&format!(" {}:{}", j + 1, v.to_f64()));
            }
        }
        out.push('\n');
    }
    out
}

/// Write a dataset to a libSVM file on disk.
pub fn write_libsvm<T: Scalar>(dataset: &Dataset<T>, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, to_libsvm_string(dataset))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "1 1:0.5 3:2.0\n-1 2:1.5\n1 1:1.0 2:1.0 3:1.0\n";
        let ds = parse_libsvm::<f64>("test", text, None).unwrap();
        assert_eq!(ds.n(), 3);
        assert_eq!(ds.d(), 3);
        assert_eq!(ds.points()[(0, 0)], 0.5);
        assert_eq!(ds.points()[(0, 1)], 0.0);
        assert_eq!(ds.points()[(0, 2)], 2.0);
        assert_eq!(ds.points()[(1, 1)], 1.5);
        // labels -1 and 1 remapped to 0-based ids, order of first appearance
        assert_eq!(ds.labels().unwrap(), &[0, 1, 0]);
        assert_eq!(ds.num_classes(), 2);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# comment\n\n1 1:1.0\n";
        let ds = parse_libsvm::<f32>("test", text, None).unwrap();
        assert_eq!(ds.n(), 1);
    }

    #[test]
    fn d_hint_expands_dimensions() {
        let text = "0 1:1.0\n";
        let ds = parse_libsvm::<f64>("test", text, Some(5)).unwrap();
        assert_eq!(ds.d(), 5);
        // a hint smaller than the data is ignored
        let ds = parse_libsvm::<f64>("test", "0 1:1.0 4:2.0\n", Some(2)).unwrap();
        assert_eq!(ds.d(), 4);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_libsvm::<f64>("t", "notanumber 1:1.0\n", None).is_err());
        assert!(parse_libsvm::<f64>("t", "1 1\n", None).is_err());
        assert!(parse_libsvm::<f64>("t", "1 0:1.0\n", None).is_err());
        assert!(parse_libsvm::<f64>("t", "1 2:1.0 1:2.0\n", None).is_err());
        assert!(parse_libsvm::<f64>("t", "1 a:1.0\n", None).is_err());
        assert!(parse_libsvm::<f64>("t", "1 1:xyz\n", None).is_err());
        assert!(parse_libsvm::<f64>("t", "\n\n", None).is_err());
        // A feature index whose dense row cannot be allocated.
        assert!(matches!(
            parse_libsvm::<f32>("t", "1 2305843009213693952:1.0\n", None),
            Err(DataError::Shape(_))
        ));
    }

    #[test]
    fn round_trip_through_string() {
        let text = "0 1:1.5 2:-2.0\n1 3:4.0\n";
        let ds = parse_libsvm::<f64>("rt", text, None).unwrap();
        let serialised = to_libsvm_string(&ds);
        let ds2 = parse_libsvm::<f64>("rt", &serialised, Some(ds.d())).unwrap();
        assert_eq!(ds.points(), ds2.points());
        assert_eq!(ds.labels(), ds2.labels());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("popcorn_libsvm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.libsvm");
        let ds = parse_libsvm::<f64>("toy", "0 1:1.0 2:2.0\n1 2:3.0\n", None).unwrap();
        write_libsvm(&ds, &path).unwrap();
        let back = read_libsvm::<f64>(&path, None).unwrap();
        assert_eq!(back.n(), 2);
        assert_eq!(back.points(), ds.points());
        assert_eq!(back.name(), "toy");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = read_libsvm::<f64>("/nonexistent/path/file.libsvm", None).unwrap_err();
        assert!(matches!(e, DataError::Io(_)));
        let e = read_libsvm_sparse::<f64>("/nonexistent/path/file.libsvm", None).unwrap_err();
        assert!(matches!(e, DataError::Io(_)));
    }

    #[test]
    fn sparse_parse_agrees_with_dense_parse() {
        let text = "1 1:0.5 3:2.0\n-1 2:1.5\n1 1:1.0 2:1.0 3:1.0\n";
        let dense = parse_libsvm::<f64>("t", text, None).unwrap();
        let sparse = parse_libsvm_sparse::<f64>("t", text, None).unwrap();
        assert_eq!(sparse.n(), dense.n());
        assert_eq!(sparse.d(), dense.d());
        assert_eq!(sparse.nnz(), 6);
        assert_eq!(sparse.labels(), dense.labels());
        assert_eq!(&sparse.points().to_dense(), dense.points());
        // No dense intermediate: density reflects only stored entries.
        assert!((sparse.density() - 6.0 / 9.0).abs() < 1e-12);
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
}
