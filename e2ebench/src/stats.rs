//! Percentiles that carry their sample count.

/// A timing distribution summarised by its median and 90th percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// How many samples the percentiles rest on.
    pub samples: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Median and 90th percentile with their sample count; `None` for an
/// empty slice.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    Some(Summary {
        p50: percentile(values, 0.5)?,
        p90: percentile(values, 0.9)?,
        samples: values.len(),
    })
}
