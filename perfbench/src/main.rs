//! End-to-end benchmark of ipmark's paper-scale verification and of its
//! campaign engine, with a traced per-layer split.
//!
//! ```text
//! perfbench --workload <verify-files|verify-lazy|verify-memory|campaign-slice>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this one process. The last
//! line of standard output is the result object; the line before it
//! records the run's setup (machine, kernel dispatch, workers, seed) and
//! the digest of the ops' coefficients. See `perfbench/README.md`.

mod alloc;
mod attrib;
mod campaign;
mod layers;
mod reference;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ipmark_power::chain::MeasurementChain;
use ipmark_power::device::splitmix64;

use crate::trace::{now_ns, Tracer};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_NS: u64 = 500_000_000;
const SETUP_MAX_REPEATS: usize = 2000;
/// Untimed ops before the measured phase, for at least this long.
const WARMUP_S: f64 = 1.0;
/// Ops per window of `latency_p90_ms`.
const P90_WINDOW: usize = 50;

/// Per-role salts for deriving every seed from the workload seed.
pub mod stream {
    pub const REFD_DIE: u64 = 1;
    pub const DUT_DIE: u64 = 2;
    pub const REFD_CAMPAIGN: u64 = 3;
    pub const DUT_CAMPAIGN: u64 = 4;
    pub const OP: u64 = 5;
    pub const CAMPAIGN: u64 = 6;
    pub const CELL_ORDER: u64 = 7;
    pub const ATTRIBUTION: u64 = 8;
}

/// The seed of item `index` of role `role` under workload seed `seed`.
pub fn derive(seed: u64, role: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(role)) ^ index)
}

/// Deterministic work counts of one op. Each must repeat exactly for a
/// given seed; the benchmark refuses to report when one does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub synthesized: u64,
    pub decoded: u64,
    pub accumulated: u64,
    pub sweeps: u64,
    pub devices: u64,
    pub threads: u64,
    pub read_bytes: u64,
}

/// The outcome of one op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub id: u64,
    pub wall_ns: u64,
    /// Candidate verdicts the op produced.
    pub verdicts: u64,
    /// Whether the variance distinguisher matched ground truth.
    pub verdict_ok: bool,
    /// Bits of every coefficient (or cell statistic) the op produced.
    pub bits: Vec<u64>,
    /// Whether `counts` were observed (ops that run the campaign engine
    /// untraced have no probe inside).
    pub probed: bool,
    pub counts: Counts,
    /// Distinct trace rows the op's selections touched (traced ops).
    pub rows_touched: Option<u64>,
    /// The first failed output check.
    pub failure: Option<String>,
}

impl OpRecord {
    pub fn new(id: u64, verdicts: u64) -> Self {
        Self {
            id,
            wall_ns: 0,
            verdicts,
            verdict_ok: false,
            bits: Vec::new(),
            probed: true,
            counts: Counts::default(),
            rows_touched: None,
            failure: None,
        }
    }

    /// Output check: `values` has length `len` and is all finite.
    pub fn check_set(&mut self, values: &[f64], len: usize) {
        if self.failure.is_none() && (values.len() != len || !values.iter().all(|v| v.is_finite()))
        {
            self.failure = Some(format!(
                "op {}: expected {len} finite values, got {values:?}",
                self.id
            ));
        }
    }
}

/// Wall-clock parts of one setup.
#[derive(Debug, Clone, Default)]
pub struct SetupStats {
    pub wall_ns: u64,
    pub devices: u64,
    /// Per-device fabricate + campaign preparation time.
    pub prepare_ns: Vec<u64>,
    pub synthesized: u64,
    pub synth_ns: u64,
    pub synth_allocs: u64,
    pub write_ns: u64,
}

pub trait Workload: Sync {
    /// Ops every run completes, however long they take; accuracy and the
    /// digest cover exactly these.
    fn min_ops(&self) -> u64;
    /// Closed-loop clients.
    fn workers(&self) -> usize;
    fn op(&self, id: u64) -> Res<OpRecord>;
    fn op_traced(&self, id: u64, tracer: &Tracer) -> Res<OpRecord>;
    /// Op `id`'s values (as in [`OpRecord::bits`]) recomputed by
    /// [`reference`], independently of the library's kernels.
    fn reference(&self, id: u64) -> Res<Vec<f64>>;
    /// The counts every probed op must report.
    fn expected(&self) -> Counts;
    /// The measurement chain and clean waveform of the workload's traces.
    fn shape(&self) -> (&MeasurementChain, &[f64]);
    /// `campaign.scenario_us_per_trace` and `campaign.allocs_per_cell`,
    /// for the workload that runs the campaign engine.
    fn campaign_layers(&self) -> Res<(f64, f64)> {
        Ok((0.0, 0.0))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    Files,
    Lazy,
    Memory,
    Campaign,
}

impl Name {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "verify-files" => Some(Self::Files),
            "verify-lazy" => Some(Self::Lazy),
            "verify-memory" => Some(Self::Memory),
            "campaign-slice" => Some(Self::Campaign),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::Files => "verify-files",
            Self::Lazy => "verify-lazy",
            Self::Memory => "verify-memory",
            Self::Campaign => "campaign-slice",
        }
    }
}

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Name::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Scratch directory for the `verify-files` trace files, removed on drop.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        // Best effort: a missing directory is already clean.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(args: &Args, dir: &DataDir) -> Res<(Box<dyn Workload>, SetupStats)> {
    let kind = match args.workload {
        Name::Files => verify::Kind::Files,
        Name::Lazy => verify::Kind::Lazy,
        Name::Memory => verify::Kind::Memory,
        Name::Campaign => {
            let (w, s) = campaign::setup(args.seed)?;
            return Ok((Box::new(w), s));
        }
    };
    let (w, s) = verify::setup(kind, args.seed, &dir.0)?;
    Ok((Box::new(w), s))
}

/// Runs ops `0, 1, 2, ...` in a closed loop on `workload.workers()`
/// clients until `seconds` have passed and at least `min_ops` ops are
/// done. Returns the records in op order and the loop's wall time.
fn measure(
    workload: &dyn Workload,
    seconds: f64,
    min_ops: u64,
    tracer: Option<&Tracer>,
) -> (Vec<OpRecord>, u64) {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let start = now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    let client = || loop {
        let id = next.fetch_add(1, Ordering::SeqCst);
        if id >= min_ops && now_ns() >= deadline {
            break;
        }
        let rec = match tracer {
            None => workload.op(id),
            Some(t) => workload.op_traced(id, t),
        }
        .unwrap_or_else(|e| {
            let mut rec = OpRecord::new(id, 0);
            rec.failure = Some(format!("op {id} failed: {e}"));
            rec
        });
        records.lock().expect("record store poisoned").push(rec);
    };
    let workers = workload.workers();
    if workers <= 1 {
        client();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(client);
            }
        });
    }
    let wall = now_ns() - start;
    let mut records = records.into_inner().expect("record store poisoned");
    records.sort_by_key(|r| r.id);
    (records, wall)
}

fn reset_peak_rss() -> Res<()> {
    // "5" resets the VmHWM high-water mark to the current RSS.
    std::fs::write("/proc/self/clear_refs", "5")?;
    Ok(())
}

fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the library spawns for one k-average fill of `rows` rows.
pub fn threads_per_fill(rows: usize) -> u64 {
    let threads = ipmark_parallel::max_threads();
    if threads <= 1 || rows <= 1 {
        0
    } else {
        threads.min(rows) as u64
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Refuses a run whose probed ops did not all do the expected work.
fn check_counts(records: &[OpRecord], expected: Counts) -> Res<()> {
    for rec in records.iter().filter(|r| r.probed && r.failure.is_none()) {
        if rec.counts != expected {
            return Err(format!(
                "refusing to report: op {} work counts {:?} differ from the expected {:?}",
                rec.id, rec.counts, expected
            )
            .into());
        }
    }
    Ok(())
}

/// Marks op 0 failed unless its values match the independent
/// recomputation.
fn check_reference(workload: &dyn Workload, records: &mut [OpRecord]) -> Res<()> {
    if let Some(first) = records
        .first_mut()
        .filter(|r| r.id == 0 && r.failure.is_none())
    {
        if let Err(f) = reference::compare(0, &first.bits, &workload.reference(0)?) {
            first.failure = Some(f);
        }
    }
    Ok(())
}

/// Marks each traced op whose bits differ from the untraced op of the
/// same id; refuses the run when their counts differ.
fn compare_passes(plain: &[OpRecord], traced: &mut [OpRecord]) -> Res<()> {
    for t in traced.iter_mut() {
        let Some(p) = plain.iter().find(|p| p.id == t.id) else {
            continue;
        };
        if p.probed && p.failure.is_none() && t.failure.is_none() && p.counts != t.counts {
            return Err(format!(
                "refusing to report: op {} counts differ between passes",
                t.id
            )
            .into());
        }
        if t.failure.is_none() && p.bits != t.bits {
            t.failure = Some(format!(
                "op {}: traced coefficients differ from untraced",
                t.id
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = DataDir(PathBuf::from(".perfbench_data"));
    match run(&args, &dir) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, dir: &DataDir) -> Res<ExitCode> {
    reset_peak_rss()?;
    let mut setups = Vec::new();
    let mut built = None;
    let start = now_ns();
    // Untraced runs set up at least SETUP_REPEATS times, and keep going
    // until SETUP_MIN_S has passed, so a setup of a few milliseconds is
    // still reported as a steady median.
    while setups.is_empty()
        || (!args.trace
            && (setups.len() < SETUP_REPEATS
                || (now_ns() - start < SETUP_MIN_NS && setups.len() < SETUP_MAX_REPEATS)))
    {
        // Free the previous setup's traces and files first, so only one
        // setup's data exists at a time.
        drop(built.take());
        let _ = std::fs::remove_dir_all(&dir.0);
        let (w, s) = setup(args, dir)?;
        setups.push(s);
        built = Some(w);
    }
    let repeats = setups.len();
    let workload = built.ok_or("no setup ran")?;
    let workload = workload.as_ref();
    let expected = workload.expected();
    let digest_ops = workload.min_ops();

    // The digest covers the library's own results for the first
    // `min_ops` ops of the untraced pass.
    let digest_of = |plain: &[OpRecord]| {
        stats::fnv1a(
            plain
                .iter()
                .filter(|r| r.id < digest_ops)
                .flat_map(|r| r.bits.iter().copied()),
        )
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut records;
    let digest: u64;
    // Warm-up: the first ops after setup are often slower than the rest.
    // They run untimed, their results are discarded, and the measured
    // phase starts again at op 0.
    measure(workload, WARMUP_S, 1, None);
    if args.trace {
        let (mut plain, _) = measure(workload, args.seconds / 2.0, digest_ops, None);
        digest = digest_of(&plain);
        check_reference(workload, &mut plain)?;
        let tracer = Tracer::default();
        let (mut traced, _) = measure(workload, args.seconds / 2.0, digest_ops, Some(&tracer));
        let spans = tracer.take();
        check_counts(&plain, expected)?;
        check_counts(&traced, expected)?;
        compare_passes(&plain, &mut traced)?;
        metrics = layers::compute(args.workload, workload, &plain, &traced, &spans, &setups[0])?;
        layers::write_spans(args.workload.label(), args.seed, &spans)?;
        records = plain;
        records.extend(traced);
    } else {
        reset_peak_rss()?;
        let (plain, wall_ns) = measure(workload, args.seconds, digest_ops, None);
        let peak = peak_rss_mib()?;
        digest = digest_of(&plain);
        check_counts(&plain, expected)?;
        records = plain;
        if records.iter().any(|r| !r.probed) {
            // Ops without a probe inside: rebuild op 0 from the library's
            // public steps and check its bits and counts against it.
            let mut twin = vec![workload.op_traced(0, &Tracer::default())?];
            check_counts(&twin, expected)?;
            compare_passes(&records, &mut twin)?;
            if let Some(f) = twin.pop().and_then(|t| t.failure) {
                if let Some(r) = records.first_mut() {
                    r.failure.get_or_insert(f);
                }
            }
        }
        check_reference(workload, &mut records)?;
        let setup_s: Vec<f64> = setups.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
        let walls: Vec<f64> = records.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
        let verdicts: u64 = records.iter().map(|r| r.verdicts).sum();
        let scored: Vec<&OpRecord> = records.iter().filter(|r| r.id < digest_ops).collect();
        let accuracy =
            scored.iter().filter(|r| r.verdict_ok).count() as f64 / scored.len().max(1) as f64;
        let failed = records.iter().filter(|r| r.failure.is_some()).count();
        metrics.push(("setup_s", stats::median(&setup_s), "s"));
        metrics.push(("latency_p50_ms", stats::median(&walls), "ms"));
        metrics.push((
            "latency_p90_ms",
            stats::windowed_quantile(&walls, 0.9, P90_WINDOW),
            "ms",
        ));
        metrics.push((
            "verdicts_per_s",
            verdicts as f64 / (wall_ns as f64 / 1e9),
            "1/s",
        ));
        metrics.push(("peak_rss_mb", peak, "MiB"));
        metrics.push(("verdict_accuracy", accuracy, "fraction"));
        metrics.push((
            "ops_ok_frac",
            1.0 - failed as f64 / records.len().max(1) as f64,
            "fraction",
        ));
    }

    let failed = records.iter().filter(|r| r.failure.is_some()).count();
    for f in records.iter().filter_map(|r| r.failure.as_ref()) {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{{\"info\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"workers\":{},\"clients\":{},\"cpu\":{},\"kernel_dispatch\":{},\"kernel_backend\":{},\"features\":{},\"page_cache\":{},\"setup_repeats\":{},\"ops\":{},\"digest_ops\":{},\"digest\":\"{:016x}\",\"expected_counts_per_op\":{}}}}}",
        json_str(args.workload.label()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        ipmark_parallel::max_threads(),
        workload.workers(),
        json_str(&cpu_model()),
        json_str(&ipmark_traces::kernels::dispatch_label()),
        json_str(ipmark_traces::kernels::backend_name()),
        json_str("ipmark crates with default features (parallel)"),
        json_str(if args.workload == Name::Files {
            "warm: files written in setup, read back from the page cache"
        } else {
            "not used"
        }),
        repeats,
        records.len(),
        digest_ops,
        digest,
        json_str(&format!("{expected:?}")),
    );
    let metric_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        records.len(),
        failed,
        metric_json.join(",")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
