//! Order statistics over the latency samples of one run.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, 0.5)
}

/// The latency samples of one kind of request.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn median(&self) -> f64 {
        median(&mut self.values.clone())
    }

    /// The `q` quantile, only where at least ten samples lie strictly
    /// above it (so a tail figure never rests on a handful of points).
    pub fn tail(&self, q: f64) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let value = quantile_sorted(&sorted, q);
        let beyond = sorted.iter().filter(|&&v| v > value).count();
        (beyond >= 10).then_some(value)
    }
}
