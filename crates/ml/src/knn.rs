//! 1-nearest-neighbour primitives with incremental prefix distances.
//!
//! ECTS needs, for *every* prefix length `l`, the nearest neighbour of
//! every training series among the others. Recomputing distances per
//! prefix would cost `O(N² L²)`; accumulating squared distances one
//! time-point at a time gives the whole table in `O(N² L)`.

// Indexed loops keep the gradient/index math readable here.
#![allow(clippy::needless_range_loop)]
use crate::error::MlError;

/// Per-prefix-length nearest-neighbour table over a training set.
#[derive(Debug, Clone)]
pub struct PrefixNnTable {
    /// `nn[l-1][i]` = index of the 1-NN of series `i` at prefix length `l`.
    nn: Vec<Vec<usize>>,
    n: usize,
    len: usize,
}

impl PrefixNnTable {
    /// Builds the table for equal-length univariate series.
    ///
    /// # Errors
    /// * [`MlError::EmptyTrainingSet`] with fewer than 2 series or empty
    ///   series;
    /// * [`MlError::DimensionMismatch`] on ragged lengths.
    pub fn build(series: &[&[f64]]) -> Result<PrefixNnTable, MlError> {
        let n = series.len();
        if n < 2 {
            return Err(MlError::EmptyTrainingSet);
        }
        let len = series[0].len();
        if len == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        for s in series {
            if s.len() != len {
                return Err(MlError::DimensionMismatch {
                    expected: len,
                    got: s.len(),
                });
            }
        }
        // acc[i*n + j] accumulates the squared distance of the prefix so far.
        let mut acc = vec![0.0f64; n * n];
        let mut nn = Vec::with_capacity(len);
        for t in 0..len {
            for i in 0..n {
                let xi = series[i][t];
                // Only the upper triangle is computed; mirror on read.
                for j in (i + 1)..n {
                    let d = xi - series[j][t];
                    acc[i * n + j] += d * d;
                }
            }
            let mut nn_t = vec![0usize; n];
            for (i, slot) in nn_t.iter_mut().enumerate() {
                let mut best = usize::MAX;
                let mut best_d = f64::INFINITY;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let d = if i < j {
                        acc[i * n + j]
                    } else {
                        acc[j * n + i]
                    };
                    // NaN distances (NaN/Inf in the input) rank worst
                    // instead of poisoning every comparison and leaving
                    // `best` unset.
                    let d = if d.is_nan() { f64::INFINITY } else { d };
                    // Strict < keeps the lowest index on ties, matching the
                    // deterministic tie-break used throughout the framework.
                    if best == usize::MAX || d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
                *slot = best;
            }
            nn.push(nn_t);
            let _ = t;
        }
        Ok(PrefixNnTable { nn, n, len })
    }

    /// Number of series.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Full series length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table covers no time points (impossible after
    /// construction; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// 1-NN of series `i` at prefix length `l` (1-based length).
    ///
    /// # Panics
    /// When `l` is 0, `l > len`, or `i >= n` (programming errors).
    pub fn nn(&self, l: usize, i: usize) -> usize {
        assert!(l >= 1 && l <= self.len, "prefix length {l} out of range");
        self.nn[l - 1][i]
    }

    /// Reverse-nearest-neighbour sets at prefix length `l`:
    /// `rnn[i]` lists every series whose 1-NN is `i`.
    pub fn rnn_sets(&self, l: usize) -> Vec<Vec<usize>> {
        let mut rnn = vec![Vec::new(); self.n];
        for (j, &target) in self.nn[l - 1].iter().enumerate() {
            rnn[target].push(j);
        }
        rnn
    }
}

/// Nearest training series to `query` when both are truncated to
/// `query.len()` points. Returns `(index, squared distance)`. ECTS
/// streams keep these sums row by row instead; this whole-prefix scan
/// is the reference their equivalence test checks them against.
///
/// # Errors
/// * [`MlError::EmptyTrainingSet`] with no training series or empty query;
/// * [`MlError::DimensionMismatch`] when some training series is shorter
///   than the query.
pub fn nearest_prefix(train: &[&[f64]], query: &[f64]) -> Result<(usize, f64), MlError> {
    if train.is_empty() || query.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    let l = query.len();
    let mut best = (0usize, f64::INFINITY);
    for (i, s) in train.iter().enumerate() {
        if s.len() < l {
            return Err(MlError::DimensionMismatch {
                expected: l,
                got: s.len(),
            });
        }
        let mut d = 0.0;
        for (a, b) in s[..l].iter().zip(query) {
            d += (a - b) * (a - b);
            if d >= best.1 {
                break; // early abandon
            }
        }
        if d < best.1 {
            best = (i, d);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nn_table_matches_brute_force() {
        let series: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0, 0.0, 9.0],
            vec![0.1, 0.1, 0.1, 0.1],
            vec![5.0, 5.0, 5.0, 5.0],
            vec![5.1, 4.9, 5.2, 5.0],
        ];
        let refs: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let table = PrefixNnTable::build(&refs).unwrap();
        for l in 1..=4 {
            for i in 0..4 {
                // Brute force.
                let mut best = (usize::MAX, f64::INFINITY);
                for j in 0..4 {
                    if j == i {
                        continue;
                    }
                    let d: f64 = (0..l).map(|t| (series[i][t] - series[j][t]).powi(2)).sum();
                    if d < best.1 {
                        best = (j, d);
                    }
                }
                assert_eq!(table.nn(l, i), best.0, "l={l} i={i}");
            }
        }
    }

    #[test]
    fn nn_flips_as_prefix_grows() {
        // Series 0 starts near series 1 but ends near series 2.
        let s0 = vec![0.0, 0.0, 10.0, 10.0];
        let s1 = vec![0.1, 0.1, 0.1, 0.1];
        let s2 = vec![9.0, 9.0, 10.0, 10.0];
        let refs: Vec<&[f64]> = vec![&s0, &s1, &s2];
        let table = PrefixNnTable::build(&refs).unwrap();
        assert_eq!(table.nn(1, 0), 1);
        assert_eq!(table.nn(4, 0), 2);
    }

    #[test]
    fn rnn_sets_invert_nn() {
        let s0 = vec![0.0, 0.0];
        let s1 = vec![0.1, 0.1];
        let s2 = vec![9.0, 9.0];
        let refs: Vec<&[f64]> = vec![&s0, &s1, &s2];
        let table = PrefixNnTable::build(&refs).unwrap();
        let rnn = table.rnn_sets(2);
        // 0 and 1 are each other's NN; 2's NN is 1 (closer than 0).
        assert!(rnn[0].contains(&1));
        assert!(rnn[1].contains(&0));
        // Membership count equals n (every series has exactly one NN).
        assert_eq!(rnn.iter().map(|r| r.len()).sum::<usize>(), 3);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let s0 = vec![1.0];
        let refs: Vec<&[f64]> = vec![&s0];
        assert!(PrefixNnTable::build(&refs).is_err());
        let a: Vec<f64> = vec![];
        let b: Vec<f64> = vec![];
        let refs: Vec<&[f64]> = vec![&a, &b];
        assert!(PrefixNnTable::build(&refs).is_err());
        let c = vec![1.0, 2.0];
        let d = vec![1.0];
        let refs: Vec<&[f64]> = vec![&c, &d];
        assert!(PrefixNnTable::build(&refs).is_err());
    }

    #[test]
    fn nan_series_rank_worst_instead_of_breaking_the_table() {
        // A NaN anywhere used to leave `best` unset (every comparison
        // false), making rnn_sets index out of bounds.
        let a = vec![0.0, 1.0, 2.0];
        let b = vec![0.1, 1.1, 2.1];
        let c = vec![0.0, f64::NAN, 2.0];
        let refs: Vec<&[f64]> = vec![&a, &b, &c];
        let table = PrefixNnTable::build(&refs).unwrap();
        for l in 1..=3 {
            for i in 0..3 {
                assert!(table.nn(l, i) < 3, "nn must be a valid index");
            }
            let rnn = table.rnn_sets(l);
            assert_eq!(rnn.iter().map(Vec::len).sum::<usize>(), 3);
        }
        // The clean pair prefers each other once the NaN taints c's
        // distances (from t=2 on, c's accumulated distance is NaN).
        assert_eq!(table.nn(3, 0), 1);
        assert_eq!(table.nn(3, 1), 0);
    }

    #[test]
    fn nearest_prefix_truncates_training_series() {
        let t0 = vec![0.0, 0.0, 99.0];
        let t1 = vec![5.0, 5.0, 5.0];
        let train: Vec<&[f64]> = vec![&t0, &t1];
        // Query of length 2 ignores the diverging 3rd point of t0.
        let (idx, d) = nearest_prefix(&train, &[0.1, 0.1]).unwrap();
        assert_eq!(idx, 0);
        assert!((d - 0.02).abs() < 1e-12);
    }

    #[test]
    fn nearest_prefix_tie_prefers_lowest_index() {
        let t0 = vec![1.0];
        let t1 = vec![1.0];
        let train: Vec<&[f64]> = vec![&t0, &t1];
        assert_eq!(nearest_prefix(&train, &[1.0]).unwrap().0, 0);
    }

    #[test]
    fn nearest_prefix_error_paths() {
        let train: Vec<&[f64]> = vec![];
        assert!(nearest_prefix(&train, &[1.0]).is_err());
        let t0 = vec![1.0];
        let train: Vec<&[f64]> = vec![&t0];
        assert!(nearest_prefix(&train, &[]).is_err());
        assert!(nearest_prefix(&train, &[1.0, 2.0]).is_err());
    }
}
