//! The evaluated ETSC algorithms (Section 3) and the proposed STRUT
//! baseline (Section 4).

pub mod ecec;
pub mod economy_k;
pub mod ects;
pub mod edsc;
pub mod strut;
pub mod teaser;

use etsc_data::Dataset;

use crate::error::EtscError;

/// Shared guard for the univariate-only algorithms: ECEC, ECONOMY-K,
/// ECTS, EDSC and TEASER reject multivariate datasets and point the
/// caller at the voting adapter (Section 6.1).
pub(crate) fn require_univariate(data: &Dataset) -> Result<(), EtscError> {
    if data.vars() != 1 {
        return Err(EtscError::UnivariateOnly { vars: data.vars() });
    }
    Ok(())
}

/// The value a univariate stream reads from a pushed row: its first
/// variable.
pub(crate) fn first_value(row: &[f64]) -> Result<f64, EtscError> {
    row.first()
        .copied()
        .ok_or_else(|| EtscError::IncompatibleInstance("observation has no variables".into()))
}

/// Equal-length view used by the prefix-indexed algorithms: every
/// instance truncated to the shortest instance length.
pub(crate) fn equalized(data: &Dataset) -> Result<(Dataset, usize), EtscError> {
    let len = data.min_len();
    if len == 0 {
        return Err(EtscError::Config("dataset contains empty instances".into()));
    }
    Ok((data.truncated(len)?, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, MultiSeries, Series};

    #[test]
    fn univariate_guard() {
        let mut b = DatasetBuilder::new("mv");
        b.push_named(
            MultiSeries::from_rows(vec![vec![1.0], vec![2.0]]).unwrap(),
            "a",
        );
        let d = b.build().unwrap();
        assert!(matches!(
            require_univariate(&d),
            Err(EtscError::UnivariateOnly { vars: 2 })
        ));
    }

    #[test]
    fn equalize_truncates_to_shortest() {
        let mut b = DatasetBuilder::new("ragged");
        b.push_named(
            MultiSeries::univariate(Series::new(vec![1.0, 2.0, 3.0])),
            "a",
        );
        b.push_named(MultiSeries::univariate(Series::new(vec![1.0, 2.0])), "a");
        let d = b.build().unwrap();
        let (eq, len) = equalized(&d).unwrap();
        assert_eq!(len, 2);
        assert!(eq.instances().iter().all(|s| s.len() == 2));
    }
}
