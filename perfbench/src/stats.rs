//! Order statistics with the sample-size rule the benchmark reports by:
//! a tail percentile is only quoted when at least [`MIN_BEYOND`]
//! samples lie beyond it.

/// Samples that must lie strictly beyond a quoted percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `sorted` (ascending),
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let k = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - k >= MIN_BEYOND).then(|| sorted[k])
}

/// Median of `values` (any order); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail latency a run reports as its p99: the 99th percentile when
/// the sample supports it, otherwise the slowest sample (the only tail
/// statistic a short run of long jobs has). The flag says which.
pub fn p99_or_max(values: &[f64]) -> (f64, bool) {
    let s = sorted(values);
    match percentile(&s, 0.99) {
        Some(v) => (v, true),
        None => (s.last().copied().unwrap_or(0.0), false),
    }
}

/// Geometric mean of positive values; 0 when any is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Slices a run is cut into by job start time; rates and medians are
/// reported as the median over slices, so a disturbance confined to
/// part of a run moves the result less.
pub const SLICES: usize = 5;

/// Median over the non-empty slices of `f(jobs in the slice)`, where
/// job `i` started at `start[i]` seconds into a run of `span` seconds
/// cut into `k` equal slices.
pub fn slice_median(start: &[f64], span: f64, k: usize, f: impl Fn(&[usize]) -> f64) -> f64 {
    let k = k.max(1);
    let mut groups = vec![Vec::new(); k];
    for (i, &t) in start.iter().enumerate() {
        let s = ((t / span.max(1e-9)) * k as f64) as usize;
        groups[s.min(k - 1)].push(i);
    }
    let per: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| f(g))
        .collect();
    median(&per)
}
