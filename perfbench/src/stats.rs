//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two nearest ranks (the "type 7" estimator), `0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean, `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// A latency summary line: median, p90, and the tail percentiles with the
/// number of samples beyond each, so a reader can tell which ones the
/// sample supports.
pub fn describe(label: &str, values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = |q: f64| n - (q * n as f64).ceil().min(n as f64) as usize;
    format!(
        "{label}: n={n} p50={:.3} p90={:.3} p99={:.3} ({} beyond) p999={:.3} ({} beyond) max={:.3}",
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, 0.9),
        quantile_sorted(&sorted, 0.99),
        beyond(0.99),
        quantile_sorted(&sorted, 0.999),
        beyond(0.999),
        sorted.last().copied().unwrap_or(0.0),
    )
}

/// Host noise only ever adds latency and removes throughput, and on a
/// shared VM it comes in bursts of seconds: a run-level figure is therefore
/// the quartile of its per-window values on the good side — the lower
/// quartile for times, the upper for rates — which a burst covering up to
/// three quarters of the run cannot move, while a slower program moves
/// every window.
pub const CALM_LOW: f64 = 0.25;
/// The rate counterpart of [`CALM_LOW`].
pub const CALM_HIGH: f64 = 0.75;

/// The `q`-quantile over `windows` equal slices of `[0, span)` seconds of
/// `stat` applied to the values timed in each slice (empty slices
/// skipped).
pub fn windowed(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    q: f64,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    quantile(&per_window(samples, span, windows, stat), q)
}

/// `stat` of the values timed in each of `windows` equal slices of
/// `[0, span)` seconds, empty slices skipped.
pub fn per_window(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut slices = vec![Vec::new(); windows.max(1)];
    for &(t, v) in samples {
        if let Some(slice) = slice_of(t, span, slices.len()) {
            slices[slice].push(v);
        }
    }
    slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stat(s))
        .collect()
}

/// The `q`-quantile over `windows` equal slices of `[0, span)` seconds of
/// the event rate (events per second) in each slice, empty slices counting
/// as 0.
pub fn windowed_rate(times: &[f64], span: f64, windows: usize, q: f64) -> f64 {
    let rates = window_rates(times, span, windows);
    quantile(&rates, q)
}

/// The event rate (events per second) in each of `windows` equal slices of
/// `[0, span)` seconds, empty slices counting as 0.
pub fn window_rates(times: &[f64], span: f64, windows: usize) -> Vec<f64> {
    let windows = windows.max(1);
    let mut counts = vec![0.0; windows];
    for &t in times {
        if let Some(slice) = slice_of(t, span, windows) {
            counts[slice] += 1.0;
        }
    }
    counts.iter().map(|c| c * windows as f64 / span).collect()
}

fn slice_of(t: f64, span: f64, windows: usize) -> Option<usize> {
    (t >= 0.0 && t < span).then(|| ((t / span * windows as f64) as usize).min(windows - 1))
}

/// The number of one-second windows in `span` seconds (at least one).
pub fn seconds_windows(span: f64) -> usize {
    (span.round() as usize).max(1)
}
