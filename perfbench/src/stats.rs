//! Sample summaries: the median, and the tail as the highest
//! percentile that still has at least ten samples beyond it.

use std::time::Instant;

/// Samples needed beyond a percentile before it may be reported.
pub const TAIL_MARGIN: usize = 10;

/// Times `f`, returning its value and the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// One timing (or any quantity) sampled repeatedly.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Records every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle pair for an even count); 0 when
    /// empty.
    #[must_use]
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The value at the highest percentile with at least
    /// [`TAIL_MARGIN`] samples beyond it (sorted index `n - 11`), or the
    /// median where that percentile would lie below it (fewer than 22
    /// samples).
    #[must_use]
    pub fn tail(&self) -> f64 {
        let v = self.sorted();
        match v.len().checked_sub(TAIL_MARGIN + 1) {
            Some(i) => v[i].max(self.median()),
            None => self.median(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let mut s = Samples::default();
        assert_eq!(s.median(), 0.0);
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.tail(), 2.0, "too few samples: the median stands in");
        for v in 4..=15 {
            s.push(f64::from(v));
        }
        assert_eq!(s.tail(), s.median(), "never below the median");
        let mut s = Samples::default();
        for v in 0..40 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 19.5);
        // 29 has exactly ten samples (30..=39) beyond it.
        assert_eq!(s.tail(), 29.0);
    }
}
