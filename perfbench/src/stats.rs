//! Host-time samples and their order statistics.

use std::time::Duration;

/// Durations of individual calls, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Total time of all samples, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile `q` in `(0, 1]`, in seconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(&self.0, q)
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile(0.5) * 1e6
    }
}

/// Whether the second half of a series of host times took at least
/// half as long as the first half: work that the optimizer deleted, or
/// that stopped costing time partway, fails this.
pub fn grows(times: &[f64]) -> bool {
    let half = times.len() / 2;
    let first: f64 = times[..half].iter().sum();
    let second: f64 = times[half..].iter().sum();
    half > 0 && first > 0.0 && second >= 0.5 * first
}

/// Nearest-rank quantile of unsorted values (0 when empty).
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Smallest value (infinity when empty).
pub fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 0.5)
}

/// Peak resident set size (`VmHWM`) of this process in MiB, if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&v, 0.5), 3.0);
        assert_eq!(nearest_rank(&v, 0.99), 5.0);
        assert_eq!(nearest_rank(&v, 0.2), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn growth_check_rejects_vanishing_work() {
        let vanishing: Vec<f64> = (0..10).map(|i| if i < 5 { 1e-4 } else { 0.0 }).collect();
        assert!(!grows(&vanishing));
        assert!(grows(&[1e-4; 10]));
        assert!(!grows(&[1e-4]));
    }
}
