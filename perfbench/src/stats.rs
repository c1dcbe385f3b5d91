//! Order statistics and the coefficient digest.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` within each of `values.len() / window` runs of consecutive
/// `values` (near-equal lengths, each at least `window`), then the median
/// over those runs; fewer than two windows' worth of values give the plain
/// quantile. A slow spell of
/// the host lifts the tail of the windows it covers, not the median window,
/// while a cost every op pays lifts every window.
pub fn windowed_quantile(values: &[f64], q: f64, window: usize) -> f64 {
    let windows = values.len() / window.max(1);
    if windows < 2 {
        return quantile(values, q);
    }
    let n = values.len();
    let per_window: Vec<f64> = (0..windows)
        .map(|i| quantile(&values[i * n / windows..(i + 1) * n / windows], q))
        .collect();
    median(&per_window)
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
