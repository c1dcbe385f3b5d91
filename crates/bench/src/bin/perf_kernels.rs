//! Blocked-kernel and batched-correlation benchmark (experiment X9).
//!
//! Measures, on this machine:
//!
//! * raw throughput of the canonical blocked reductions
//!   (`ipmark_traces::kernels`): `sum`, `dot` and the fused `sxy_syy`
//!   sweep, in GiB/s of trace data consumed — for the baseline-ISA
//!   `kernels::scalar` reference and the public ISA-dispatched kernels
//!   side by side in one run, so the effect of the dispatched instruction
//!   set (recorded as `dispatch`) is visible in one JSON;
//! * the batched arena sweep `PearsonRef::correlate_rows` over a
//!   `TraceBlock` against the baseline of `m` independent per-row
//!   `correlate` calls — the ISSUE-5 acceptance comparison
//!   (`trace_len >= 5000`, `m = 20`);
//! * peak RSS via `VmHWM` from `/proc/self/status`.
//!
//! The two correlation paths are asserted bit-identical before any timing
//! is reported. Results go to stdout and to `BENCH_5.json` in the current
//! directory. Set `IPMARK_QUICK=1` to shrink the repetition counts.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ipmark_traces::kernels;
use ipmark_traces::stats::PearsonRef;
use ipmark_traces::TraceBlock;

/// The acceptance configuration from ISSUE 5.
const TRACE_LEN: usize = 8192;
const M: usize = 20;

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Deterministic pseudo-noise series; no RNG needed for throughput work.
fn series(len: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (i as f64 * 0.173).sin() + (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns<F: FnMut() -> f64>(reps: usize, mut f: F) -> (f64, f64) {
    let mut sink = 0.0;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            sink += f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], sink)
}

fn gibps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1 << 30) as f64 / (ns * 1e-9)
}

/// One measured entry point of the kernels: the baseline-ISA `scalar`
/// reference, or the public fronts that run the same bodies in the ISA
/// instantiation the one-time probe selected.
#[allow(clippy::type_complexity)]
struct BackendFns {
    name: &'static str,
    sum: fn(&[f64]) -> f64,
    dot: fn(&[f64], &[f64]) -> f64,
    sxy_syy: fn(&[f64], &[f64], f64) -> (f64, f64),
    centered_sum_sq: fn(&[f64], f64) -> f64,
}

const BACKENDS: [BackendFns; 2] = [
    BackendFns {
        name: "scalar",
        sum: kernels::scalar::sum,
        dot: kernels::scalar::dot,
        sxy_syy: kernels::scalar::sxy_syy,
        centered_sum_sq: kernels::scalar::centered_sum_sq,
    },
    BackendFns {
        name: "dispatched",
        sum: kernels::sum,
        dot: kernels::dot,
        sxy_syy: kernels::sxy_syy,
        centered_sum_sq: kernels::centered_sum_sq,
    },
];

fn main() {
    let quick = std::env::var("IPMARK_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 11 } else { 201 };
    let dispatch = kernels::dispatch_label();
    eprintln!(
        "kernel benchmark: dispatch = {dispatch}, trace_len = {TRACE_LEN}, m = {M}, \
         {reps} repetitions (median reported)"
    );

    // --- Raw kernel throughput over one trace-sized series, both fronts. ---
    let x = series(TRACE_LEN, 1);
    let y = series(TRACE_LEN, 2);
    let mx = kernels::sum(&x) / TRACE_LEN as f64;
    let my = kernels::sum(&y) / TRACE_LEN as f64;
    let bytes_one = 8 * TRACE_LEN;
    let centered: Vec<f64> = x.iter().map(|v| v - mx).collect();

    let mut throughput: Vec<(String, serde_json::Value)> = Vec::new();
    for b in &BACKENDS {
        let (sum_ns, _) = median_ns(reps, || (b.sum)(std::hint::black_box(&x)));
        let (dot_ns, _) = median_ns(reps, || {
            (b.dot)(std::hint::black_box(&x), std::hint::black_box(&y))
        });
        let (sxy_ns, _) = median_ns(reps, || {
            let (sxy, syy) = (b.sxy_syy)(std::hint::black_box(&x), std::hint::black_box(&y), my);
            sxy + syy
        });
        let (css_ns, _) = median_ns(reps, || {
            (b.centered_sum_sq)(std::hint::black_box(&centered), 0.0)
        });

        let sum_gibps = gibps(bytes_one, sum_ns);
        let dot_gibps = gibps(2 * bytes_one, dot_ns);
        let sxy_gibps = gibps(2 * bytes_one, sxy_ns);
        let css_gibps = gibps(bytes_one, css_ns);
        println!(
            "kernel throughput [{}] ({TRACE_LEN} samples/series):",
            b.name
        );
        println!("  sum              {sum_ns:>10.0} ns   {sum_gibps:>6.2} GiB/s");
        println!("  dot              {dot_ns:>10.0} ns   {dot_gibps:>6.2} GiB/s");
        println!("  sxy_syy (fused)  {sxy_ns:>10.0} ns   {sxy_gibps:>6.2} GiB/s");
        println!("  centered_sum_sq  {css_ns:>10.0} ns   {css_gibps:>6.2} GiB/s");
        throughput.push((
            b.name.to_owned(),
            serde_json::json!({
                "sum": { "median_ns": sum_ns, "gib_per_s": sum_gibps },
                "dot": { "median_ns": dot_ns, "gib_per_s": dot_gibps },
                "sxy_syy": { "median_ns": sxy_ns, "gib_per_s": sxy_gibps },
                "centered_sum_sq": { "median_ns": css_ns, "gib_per_s": css_gibps },
            }),
        ));
    }

    // --- Acceptance comparison: per-row loop vs the batched arena sweep. --
    let reference = series(TRACE_LEN, 100);
    let mut block = TraceBlock::zeros("bench", M, TRACE_LEN).expect("arena");
    for (i, mut row) in block.rows_mut().enumerate() {
        let data = series(TRACE_LEN, 200 + i as u64);
        row.copy_from_slice(&data).expect("row length");
    }
    let kernel = PearsonRef::new(&reference).expect("non-degenerate reference");

    // Correctness gate before timing: both paths bit-identical.
    let batched: Vec<f64> = kernel
        .correlate_rows(&block)
        .into_iter()
        .map(|r| r.expect("well-formed rows"))
        .collect();
    for (row, want) in block.rows().zip(&batched) {
        let got = kernel.correlate(row.samples()).expect("per-row");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "batched sweep diverged from the per-row kernel"
        );
    }

    let (per_row_ns, s1) = median_ns(reps, || {
        block
            .rows()
            .map(|row| kernel.correlate(row.samples()).expect("per-row"))
            .sum::<f64>()
    });
    let (batched_ns, s2) = median_ns(reps, || {
        kernel
            .correlate_rows(&block)
            .into_iter()
            .map(|r| r.expect("well-formed rows"))
            .sum::<f64>()
    });
    std::hint::black_box((s1, s2));
    let speedup = per_row_ns / batched_ns;
    println!("batched correlation (trace_len = {TRACE_LEN}, m = {M}):");
    println!("  per-row correlate x{M}   {per_row_ns:>10.0} ns");
    println!("  correlate_rows (batch)  {batched_ns:>10.0} ns");
    println!("  speedup                 {speedup:>10.2}x");

    let peak_rss_kib = vm_hwm_kib();
    if let Some(kib) = peak_rss_kib {
        println!("peak RSS (VmHWM): {kib} KiB");
    }

    let json = serde_json::json!({
        "experiment": "X9-blocked-kernels",
        "backends": ["scalar", "dispatched"],
        "dispatch": dispatch,
        "config": {
            "trace_len": TRACE_LEN,
            "m": M,
            "repetitions": reps,
            "quick": quick,
        },
        "kernel_throughput": serde_json::Value::Object(throughput),
        "batched_correlation": {
            "per_row_median_ns": per_row_ns,
            "batched_median_ns": batched_ns,
            "speedup": speedup,
            "bit_identical": true,
        },
        "peak_rss_kib": peak_rss_kib,
    });
    let out_path = "BENCH_5.json";
    match std::fs::write(
        out_path,
        serde_json::to_string_pretty(&json).expect("finite data"),
    ) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
