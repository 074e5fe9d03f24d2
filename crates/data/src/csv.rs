//! Minimal CSV reader for dense numeric data.
//!
//! The original artifact's `-i` flag also accepts "standard CSV": one point
//! per line, comma-separated feature values, optionally with a trailing
//! integer label column (enabled with `has_labels`). No external CSV crate is
//! used; the dialect here is the plain numeric one the artifact consumes.

use crate::dataset::Dataset;
use crate::{DataError, Result};
use popcorn_dense::{DenseMatrix, Scalar};

/// Parse CSV text into a dataset. When `has_labels` is true the last column
/// is interpreted as an integer class label.
pub fn parse_csv<T: Scalar>(
    name: impl Into<String>,
    text: &str,
    has_labels: bool,
) -> Result<Dataset<T>> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut width: Option<usize> = None;

    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut values: Vec<f64> = Vec::new();
        for tok in line.split(',') {
            let tok = tok.trim();
            let v: f64 = tok.parse().map_err(|_| DataError::Parse {
                line: line_no + 1,
                reason: format!("'{tok}' is not a number"),
            })?;
            values.push(v);
        }
        if has_labels {
            let label = values.pop().ok_or_else(|| DataError::Parse {
                line: line_no + 1,
                reason: "row has no columns".into(),
            })?;
            if label < 0.0 || label.fract() != 0.0 {
                return Err(DataError::Parse {
                    line: line_no + 1,
                    reason: format!("label '{label}' is not a non-negative integer"),
                });
            }
            labels.push(label as usize);
        }
        match width {
            None => width = Some(values.len()),
            Some(w) if w != values.len() => {
                return Err(DataError::Parse {
                    line: line_no + 1,
                    reason: format!("expected {w} feature columns, found {}", values.len()),
                })
            }
            _ => {}
        }
        rows.push(values);
    }

    if rows.is_empty() {
        return Err(DataError::Shape("CSV input contains no data rows".into()));
    }
    let d = width.unwrap_or(0);
    if d == 0 {
        return Err(DataError::Shape(
            "CSV rows contain no feature columns".into(),
        ));
    }
    let n = rows.len();
    let mut points = DenseMatrix::<T>::zeros(n, d);
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            points[(i, j)] = T::from_f64(v);
        }
    }
    if has_labels {
        Dataset::with_labels(name, points, labels)
    } else {
        Ok(Dataset::new(name, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_unlabelled_csv() {
        let ds = parse_csv::<f64>("t", "1.0, 2.0\n3.0, 4.0\n", false).unwrap();
        assert_eq!(ds.n(), 2);
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.points()[(1, 0)], 3.0);
        assert!(ds.labels().is_none());
    }

    #[test]
    fn parses_labelled_csv() {
        let ds = parse_csv::<f64>("t", "1.0,2.0,0\n3.0,4.0,1\n", true).unwrap();
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.labels().unwrap(), &[0, 1]);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let ds = parse_csv::<f32>("t", "# header-ish comment\n\n5.0,6.0\n", false).unwrap();
        assert_eq!(ds.n(), 1);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_csv::<f64>("t", "1.0,abc\n", false).is_err());
        assert!(parse_csv::<f64>("t", "1.0,2.0\n1.0\n", false).is_err());
        assert!(parse_csv::<f64>("t", "1.0,2.0,1.5\n", true).is_err());
        assert!(parse_csv::<f64>("t", "1.0,2.0,-1\n", true).is_err());
        assert!(parse_csv::<f64>("t", "", false).is_err());
    }
}
