//! Univariate and multivariate time-series containers.
//!
//! A [`Series`] is a plain vector of `f64` observations at uniform time
//! steps. A [`MultiSeries`] holds `d` co-evolving variables of equal
//! length, stored variable-major (one contiguous row per variable) so that
//! the univariate algorithms and the per-variable voting adapter can borrow
//! single channels without copying.

use crate::error::DataError;

/// A univariate time-series: observations at uniform time steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// Creates a series from raw observations.
    pub fn new(values: Vec<f64>) -> Self {
        Series { values }
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw observations.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The first `l` observations as a slice.
    ///
    /// # Errors
    /// [`DataError::PrefixOutOfRange`] when `l > self.len()`.
    pub fn prefix(&self, l: usize) -> Result<&[f64], DataError> {
        if l > self.values.len() {
            return Err(DataError::PrefixOutOfRange {
                requested: l,
                len: self.values.len(),
            });
        }
        Ok(&self.values[..l])
    }

    /// Arithmetic mean; 0.0 for an empty series.
    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// Population standard deviation; 0.0 for an empty series.
    pub fn std(&self) -> f64 {
        std(&self.values)
    }

    /// Z-normalised copy: zero mean, unit variance.
    ///
    /// A series with (near-)zero variance maps to all zeros instead of
    /// dividing by ~0, matching the convention of the reference WEASEL and
    /// TEASER implementations.
    pub fn z_normalized(&self) -> Series {
        Series::new(z_normalize(&self.values))
    }

    /// First-difference series (`x[t+1] - x[t]`), one element shorter;
    /// used by WEASEL+MUSE's derivative channels.
    pub fn derivative(&self) -> Series {
        Series::new(derivative(&self.values))
    }
}

impl From<Vec<f64>> for Series {
    fn from(values: Vec<f64>) -> Self {
        Series::new(values)
    }
}

impl std::ops::Index<usize> for Series {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

/// A multivariate time-series: `d` variables observed over `len` uniform
/// time steps, stored variable-major.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeries {
    /// Flat storage: variable v at time t lives at `v * len + t`.
    data: Vec<f64>,
    vars: usize,
    len: usize,
}

impl MultiSeries {
    /// Builds a multivariate series from per-variable rows.
    ///
    /// # Errors
    /// * [`DataError::Empty`] when no variables are given;
    /// * [`DataError::ShapeMismatch`] when rows differ in length.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DataError> {
        let first = rows.first().ok_or(DataError::Empty("variable set"))?;
        let len = first.len();
        for row in &rows {
            if row.len() != len {
                return Err(DataError::ShapeMismatch {
                    what: "time points per variable",
                    expected: len,
                    got: row.len(),
                });
            }
        }
        let vars = rows.len();
        let mut data = Vec::with_capacity(vars * len);
        for row in rows {
            data.extend_from_slice(&row);
        }
        Ok(MultiSeries { data, vars, len })
    }

    /// Wraps a single univariate series.
    pub fn univariate(series: Series) -> Self {
        let len = series.len();
        MultiSeries {
            data: series.values,
            vars: 1,
            len,
        }
    }

    /// Number of variables (channels).
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the series has no time points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow one variable's full row.
    ///
    /// # Panics
    /// When `v >= self.vars()`.
    pub fn var(&self, v: usize) -> &[f64] {
        assert!(v < self.vars, "variable {v} out of range ({})", self.vars);
        &self.data[v * self.len..(v + 1) * self.len]
    }

    /// The observation of variable `v` at time `t`.
    ///
    /// # Panics
    /// When either index is out of range.
    pub fn at(&self, v: usize, t: usize) -> f64 {
        assert!(t < self.len, "time {t} out of range ({})", self.len);
        self.var(v)[t]
    }

    /// A copied prefix of the first `l` time points of every variable.
    ///
    /// # Errors
    /// [`DataError::PrefixOutOfRange`] when `l > self.len()`.
    pub fn prefix(&self, l: usize) -> Result<MultiSeries, DataError> {
        if l > self.len {
            return Err(DataError::PrefixOutOfRange {
                requested: l,
                len: self.len,
            });
        }
        let mut data = Vec::with_capacity(self.vars * l);
        for v in 0..self.vars {
            data.extend_from_slice(&self.var(v)[..l]);
        }
        Ok(MultiSeries {
            data,
            vars: self.vars,
            len: l,
        })
    }

    /// Extract one variable as an owned univariate [`Series`].
    pub fn to_univariate(&self, v: usize) -> Series {
        Series::new(self.var(v).to_vec())
    }

    /// Z-normalise every variable independently.
    pub fn z_normalized(&self) -> MultiSeries {
        let rows = (0..self.vars)
            .map(|v| z_normalize(self.var(v)))
            .collect::<Vec<_>>();
        MultiSeries::from_rows(rows).expect("shape preserved by construction")
    }

    /// Append per-variable first-difference channels (padded with a leading
    /// repeat so lengths match), doubling the variable count. Used by
    /// WEASEL+MUSE.
    pub fn with_derivatives(&self) -> MultiSeries {
        let mut rows = Vec::with_capacity(self.vars * 2);
        for v in 0..self.vars {
            rows.push(self.var(v).to_vec());
        }
        for v in 0..self.vars {
            let d = derivative(self.var(v));
            let mut padded = Vec::with_capacity(self.len);
            padded.push(*d.first().unwrap_or(&0.0));
            padded.extend_from_slice(&d);
            // Degenerate single-point series: derivative is empty, keep len.
            padded.truncate(self.len.max(1));
            while padded.len() < self.len {
                padded.push(0.0);
            }
            rows.push(padded);
        }
        MultiSeries::from_rows(rows).expect("rows constructed with equal length")
    }

    /// Flat concatenation of all variables (variable-major); handy as a raw
    /// feature vector for tabular classifiers.
    pub fn flat(&self) -> &[f64] {
        &self.data
    }
}

/// A multivariate series that grows one observation at a time: the
/// prefix a streaming classifier has seen so far. Appending a row costs
/// amortised O(vars); a [`MultiSeries`] is copied out only when a caller
/// asks for one ([`PrefixBuffer::prefix`], [`PrefixBuffer::padded`]).
#[derive(Debug, Clone, Default)]
pub struct PrefixBuffer {
    /// One growing row per variable; empty until the first push fixes
    /// the variable count.
    vars: Vec<Vec<f64>>,
}

impl PrefixBuffer {
    /// An empty buffer; the first pushed row fixes the variable count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observation, one value per variable.
    ///
    /// # Errors
    /// * [`DataError::Empty`] for a row with no variables;
    /// * [`DataError::ShapeMismatch`] when the row's variable count
    ///   differs from the first row's.
    pub fn push(&mut self, row: &[f64]) -> Result<(), DataError> {
        if row.is_empty() {
            return Err(DataError::Empty("observation"));
        }
        if self.vars.is_empty() {
            self.vars = vec![Vec::new(); row.len()];
        } else if row.len() != self.vars.len() {
            return Err(DataError::ShapeMismatch {
                what: "variables per observation",
                expected: self.vars.len(),
                got: row.len(),
            });
        }
        for (var, &x) in self.vars.iter_mut().zip(row) {
            var.push(x);
        }
        Ok(())
    }

    /// Number of observations pushed.
    pub fn len(&self) -> usize {
        self.vars.first().map_or(0, Vec::len)
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the first `l` observations of every variable.
    ///
    /// # Errors
    /// * [`DataError::Empty`] before the first push;
    /// * [`DataError::PrefixOutOfRange`] when `l > self.len()`.
    pub fn prefix(&self, l: usize) -> Result<MultiSeries, DataError> {
        if l > self.len() {
            return Err(DataError::PrefixOutOfRange {
                requested: l,
                len: self.len(),
            });
        }
        self.padded(l)
    }

    /// A copy of the first `l` points of every variable, each repeating
    /// its last observation past the end of the buffer: the degenerate
    /// but total window for scoring an instance shorter than a model's
    /// input length.
    ///
    /// # Errors
    /// [`DataError::Empty`] before the first push.
    pub fn padded(&self, l: usize) -> Result<MultiSeries, DataError> {
        if self.vars.is_empty() {
            return Err(DataError::Empty("variable set"));
        }
        let mut data = Vec::with_capacity(self.vars.len() * l);
        for var in &self.vars {
            let kept = var.len().min(l);
            data.extend_from_slice(&var[..kept]);
            let last = var.last().copied().unwrap_or(0.0);
            data.resize(data.len() + (l - kept), last);
        }
        Ok(MultiSeries {
            data,
            vars: self.vars.len(),
            len: l,
        })
    }
}

/// Arithmetic mean of a slice; 0.0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice; 0.0 when empty.
pub fn std(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Z-normalise a slice into a fresh vector; constant slices map to zeros.
pub fn z_normalize(xs: &[f64]) -> Vec<f64> {
    let m = mean(xs);
    let s = std(xs);
    if s < 1e-12 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| (x - m) / s).collect()
}

/// First differences of a slice (one element shorter).
pub fn derivative(xs: &[f64]) -> Vec<f64> {
    xs.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// When lengths differ (programming error in the caller).
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance between unequal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basics() {
        let s = Series::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s[1], 2.0);
        assert_eq!(s.prefix(2).unwrap(), &[1.0, 2.0]);
        assert!(s.prefix(4).is_err());
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_znorm_has_zero_mean_unit_std() {
        let s = Series::new(vec![3.0, 7.0, 5.0, 1.0, 9.0]);
        let z = s.z_normalized();
        assert!(z.mean().abs() < 1e-12);
        assert!((z.std() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_znorm_is_zeros() {
        let s = Series::new(vec![4.0; 6]);
        assert_eq!(s.z_normalized().values(), &[0.0; 6]);
    }

    #[test]
    fn derivative_shortens_by_one() {
        let s = Series::new(vec![1.0, 4.0, 2.0]);
        assert_eq!(s.derivative().values(), &[3.0, -2.0]);
    }

    #[test]
    fn multiseries_rows_and_access() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]).unwrap();
        assert_eq!(ms.vars(), 2);
        assert_eq!(ms.len(), 3);
        assert_eq!(ms.var(1), &[10.0, 20.0, 30.0]);
        assert_eq!(ms.at(0, 2), 3.0);
    }

    #[test]
    fn multiseries_rejects_ragged_rows() {
        let err = MultiSeries::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, DataError::ShapeMismatch { .. }));
    }

    #[test]
    fn multiseries_rejects_empty() {
        assert!(matches!(
            MultiSeries::from_rows(vec![]).unwrap_err(),
            DataError::Empty(_)
        ));
    }

    #[test]
    fn multiseries_prefix_copies_all_variables() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let p = ms.prefix(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.var(0), &[1.0, 2.0]);
        assert_eq!(p.var(1), &[4.0, 5.0]);
        assert!(ms.prefix(4).is_err());
    }

    #[test]
    fn with_derivatives_doubles_vars_and_keeps_len() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 3.0, 6.0]]).unwrap();
        let d = ms.with_derivatives();
        assert_eq!(d.vars(), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.var(1), &[2.0, 2.0, 3.0]);
    }

    #[test]
    fn univariate_wrapper_roundtrip() {
        let ms = MultiSeries::univariate(Series::new(vec![1.0, 2.0]));
        assert_eq!(ms.vars(), 1);
        assert_eq!(ms.to_univariate(0).values(), &[1.0, 2.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_euclidean(&[0.0, 3.0], &[4.0, 3.0]), 16.0);
        assert_eq!(euclidean(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
    }

    #[test]
    #[should_panic]
    fn distance_panics_on_mismatch() {
        let _ = sq_euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn prefix_buffer_grows_row_by_row_and_copies_like_prefix() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let mut buf = PrefixBuffer::new();
        assert!(buf.is_empty());
        assert!(buf.prefix(0).is_err(), "no variables before the first push");
        for t in 0..ms.len() {
            buf.push(&[ms.at(0, t), ms.at(1, t)]).unwrap();
            assert_eq!(buf.len(), t + 1);
            assert_eq!(buf.prefix(t + 1).unwrap(), ms.prefix(t + 1).unwrap());
        }
        assert_eq!(buf.prefix(1).unwrap(), ms.prefix(1).unwrap());
        assert!(buf.prefix(4).is_err());
        assert!(buf.push(&[1.0]).is_err(), "arity is fixed by the first row");
        assert!(buf.push(&[]).is_err());
        assert_eq!(buf.len(), 3);
        let padded = buf.padded(5).unwrap();
        assert_eq!(padded.var(0), &[1.0, 2.0, 3.0, 3.0, 3.0]);
        assert_eq!(padded.var(1), &[4.0, 5.0, 6.0, 6.0, 6.0]);
        assert_eq!(buf.padded(2).unwrap(), ms.prefix(2).unwrap());
    }
}
