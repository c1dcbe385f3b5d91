//! Attribution passes of the traced run: single-threaded timings of the
//! synthesis sub-layers that are too fine-grained to wrap in spans inside
//! the library (noise, measurement chain, ChaCha words) and of the block
//! accumulate kernel, each on the workload's own trace shape.

use std::hint::black_box;

use ipmark_power::chain::MeasurementChain;
use ipmark_traces::{TraceBlock, TraceSource};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::median;
use crate::trace::now_ns;
use crate::Res;

const BATCHES: usize = 9;

/// Median over [`BATCHES`] batches of the nanoseconds one of `per_batch`
/// calls of `f` takes.
fn per_call_ns(per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let start = now_ns();
        for i in 0..per_batch {
            f(batch * per_batch + i);
        }
        samples.push((now_ns() - start) as f64 / per_batch as f64);
    }
    median(&samples)
}

pub struct Attribution {
    pub noise_us_per_trace: f64,
    pub chain_us_per_trace: f64,
    pub chacha_ns_per_word: f64,
    pub block_accumulate_ns_per_row: f64,
}

/// Times `NoiseProfile::add_into`, the chain's filter and AC coupling,
/// `ChaCha8Rng::next_u64` and `TraceBlock` accumulation on traces shaped
/// like `clean`.
pub fn run(chain: &MeasurementChain, clean: &[f64], seed: u64) -> Res<Attribution> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut buf = clean.to_vec();
    let noise = chain.noise_profile();
    let noise_ns = per_call_ns(24, |_| {
        buf.copy_from_slice(clean);
        noise.add_into(&mut buf, &mut rng);
        black_box(&mut buf);
    });
    let chain_ns = per_call_ns(256, |_| {
        chain.filter_in_place(&mut buf);
        chain.ac_couple_in_place(&mut buf);
        black_box(&mut buf);
    });
    let chacha_ns = per_call_ns(1 << 16, |_| {
        black_box(rng.next_u64());
    });
    let rows = 64;
    let data: Vec<f64> = (0..rows * clean.len())
        .map(|i| (i as f64 * 0.618).sin())
        .collect();
    let block = TraceBlock::from_data("attribution", clean.len(), data)?;
    let mut acc = vec![0.0; clean.len()];
    let mut failed = None;
    let block_ns = per_call_ns(1024, |i| {
        if let Err(e) = block.accumulate(i % rows, &mut acc) {
            failed = Some(e);
        }
        black_box(&mut acc);
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    Ok(Attribution {
        noise_us_per_trace: noise_ns / 1e3,
        chain_us_per_trace: chain_ns / 1e3,
        chacha_ns_per_word: chacha_ns,
        block_accumulate_ns_per_row: block_ns,
    })
}
