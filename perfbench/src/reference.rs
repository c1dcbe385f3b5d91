//! An independent, deliberately plain recomputation of the correlation
//! process: per-sample sums in index order, then a two-pass Pearson
//! coefficient. It shares no kernel with the library, so agreement within
//! rounding shows the library's outputs are right, not merely repeatable.

use ipmark_core::pipeline::AcquireStage;
use ipmark_traces::TraceSource;

use crate::Res;

/// Largest accepted difference between a library value and its
/// recomputation, relative to the value's magnitude (floor 1).
const TOLERANCE: f64 = 1e-9;

fn trace(source: &dyn TraceSource, index: usize, out: &mut [f64]) -> Res<()> {
    out.fill(0.0);
    source.accumulate(index, out)?;
    Ok(())
}

fn average(source: &dyn TraceSource, selection: &[usize]) -> Res<Vec<f64>> {
    let len = source.trace_len();
    let mut sum = vec![0.0; len];
    let mut t = vec![0.0; len];
    for &i in selection {
        trace(source, i, &mut t)?;
        for (s, v) in sum.iter_mut().zip(&t) {
            *s += v;
        }
    }
    let k = selection.len() as f64;
    Ok(sum.into_iter().map(|s| s / k).collect())
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    sxy / (sxx * syy).sqrt()
}

/// The `m` coefficients of one correlation process with the selections
/// `plan` drew.
pub fn coefficients(
    refd: &dyn TraceSource,
    dut: &dyn TraceSource,
    plan: &AcquireStage,
) -> Res<Vec<f64>> {
    let reference = average(refd, plan.refd_selection())?;
    plan.dut_selections()
        .iter()
        .map(|selection| Ok(pearson(&reference, &average(dut, selection)?)))
        .collect()
}

/// Mean and population variance, computed plainly.
pub fn mean_variance(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, variance)
}

/// Fails unless every library value (as stored bits) matches its
/// recomputation within [`TOLERANCE`].
pub fn compare(id: u64, library_bits: &[u64], expected: &[f64]) -> Result<(), String> {
    if library_bits.len() != expected.len() {
        return Err(format!(
            "op {id}: {} values from the library, {} recomputed",
            library_bits.len(),
            expected.len()
        ));
    }
    for (i, (&bits, &want)) in library_bits.iter().zip(expected).enumerate() {
        let got = f64::from_bits(bits);
        if (got - want).abs() > TOLERANCE * want.abs().max(1.0) {
            return Err(format!("op {id}: value {i} is {got}, recomputed {want}"));
        }
    }
    Ok(())
}
