//! Per-layer metrics of a traced run, computed from its spans, its op
//! records, the setup's timings and the attribution passes.

use std::collections::BTreeMap;
use std::io::Write;

use crate::stats::median;
use crate::trace::Span;
use crate::{attrib, derive, stream, Name, OpRecord, Res, SetupStats, Workload};

/// Spans of one op, indexed for self-time computation.
struct OpSpans<'a> {
    root: &'a Span,
    children: BTreeMap<u64, Vec<&'a Span>>,
}

impl<'a> OpSpans<'a> {
    /// A span's duration minus its children's: children on its own thread
    /// count in full; children on other threads (the library's workers)
    /// ran in parallel, so they count as their mean busy time.
    fn self_ns(&self, span: &Span) -> f64 {
        let children = self
            .children
            .get(&span.id)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let own: u64 = children
            .iter()
            .filter(|c| c.thread == span.thread)
            .map(|c| c.busy)
            .sum();
        let others: Vec<u64> = children
            .iter()
            .filter(|c| c.thread != span.thread)
            .map(|c| c.busy)
            .collect();
        let parallel = others.iter().sum::<u64>() as f64 / others.len().max(1) as f64;
        span.busy as f64 - own as f64 - parallel
    }

    fn workers_of(&self, span: &Span) -> Vec<&'a Span> {
        self.children
            .get(&span.id)
            .map(|c| {
                c.iter()
                    .copied()
                    .filter(|c| c.thread != span.thread)
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn group(spans: &[Span]) -> Res<Vec<OpSpans<'_>>> {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut ops = Vec::new();
    for (op, spans) in by_op {
        let root = *spans
            .iter()
            .find(|s| s.parent == 0)
            .ok_or(format!("op {op} has no root span"))?;
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push(s);
        }
        ops.push(OpSpans { root, children });
    }
    Ok(ops)
}

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// Median over ops of the summed busy time of the spans named `names`.
fn per_op_sum(ops: &[OpSpans], spans: &[Span], names: &[&str]) -> f64 {
    median_of(ops.iter().map(|o| {
        spans
            .iter()
            .filter(|s| s.op == o.root.op && names.contains(&s.name))
            .map(|s| s.busy as f64)
            .sum::<f64>()
    }))
}

/// Largest number of threads alive at once: op threads while an op runs
/// plus library workers while they serve a probe.
fn threads_peak(ops: &[OpSpans], spans: &[Span]) -> f64 {
    let op_threads: Vec<u64> = ops.iter().map(|o| o.root.thread).collect();
    let mut events: Vec<(u64, i64)> = Vec::new();
    for o in ops {
        events.push((o.root.start, 1));
        events.push((o.root.end, -1));
    }
    for s in spans
        .iter()
        .filter(|s| s.parent != 0 && !op_threads.contains(&s.thread))
    {
        events.push((s.start, 1));
        events.push((s.end, -1));
    }
    events.sort_unstable();
    let (mut alive, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        alive += delta;
        peak = peak.max(alive);
    }
    peak as f64
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise report 0.
pub fn compute(
    name: Name,
    workload: &dyn Workload,
    plain: &[OpRecord],
    traced: &[OpRecord],
    spans: &[Span],
    setup: &SetupStats,
) -> Res<Vec<(&'static str, f64, &'static str)>> {
    let ops = group(spans)?;
    for o in &ops {
        for s in std::iter::once(o.root).chain(o.children.values().flatten().copied()) {
            if o.self_ns(s) < -(s.busy as f64 * 0.01 + 1e4) {
                return Err(format!(
                    "span {} of op {} is shorter than its children",
                    s.name, s.op
                )
                .into());
            }
        }
    }
    let ok: Vec<&OpRecord> = traced.iter().filter(|r| r.failure.is_none()).collect();
    let counts = |f: fn(&OpRecord) -> u64| median_of(ok.iter().map(|r| f(r) as f64));
    let workers = ipmark_parallel::max_threads() as f64;
    let (chain, clean) = workload.shape();
    let attribution = attrib::run(chain, clean, derive(0, stream::ATTRIBUTION, 0))?;

    // Where synthesis happens: inside the ops, or only in setup.
    let synth_in_ops = matches!(name, Name::Lazy | Name::Campaign);
    let blocks = matches!(name, Name::Files | Name::Memory);
    let synth: Vec<&Span> = named(spans, "power.synth").collect();
    let synth_calls: u64 = synth.iter().map(|s| s.calls).sum::<u64>().max(1);
    let synth_busy: u64 = synth.iter().map(|s| s.busy).sum();
    let acc: Vec<&Span> = named(spans, "traces.block.accumulate").collect();
    let kaverage: Vec<(&OpSpans, &Span)> = ops
        .iter()
        .flat_map(|o| {
            o.children
                .values()
                .flatten()
                .filter(|s| s.name == "pipeline.kaverage")
                .map(move |s| (o, *s))
        })
        .collect();
    let fill_rows = |o: &OpSpans, s: &Span| -> u64 {
        o.children
            .get(&s.id)
            .map(|c| c.iter().map(|c| c.calls).sum())
            .unwrap_or(0)
    };
    let trace_bytes = clean.len() as f64 * 8.0;
    let (worker_busy, worker_capacity) = kaverage.iter().fold((0.0, 0.0), |(b, c), (o, s)| {
        let w = o.workers_of(s);
        (
            b + w.iter().map(|w| w.busy as f64).sum::<f64>(),
            c + s.busy as f64 * w.len() as f64,
        )
    });
    let plain_p50 = median_of(
        plain
            .iter()
            .filter(|r| r.failure.is_none())
            .map(|r| r.wall_ns as f64),
    );
    let traced_p50 = median_of(ok.iter().map(|r| r.wall_ns as f64));
    let (scenario_us, allocs_per_cell) = workload.campaign_layers()?;
    // Thread-time spent working: attributed times, except a fill's own
    // time on the op thread, which is mostly waiting for its workers, and
    // with workers counted at their full busy time.
    let work_ns: f64 = ops
        .iter()
        .flat_map(|o| {
            let root_thread = o.root.thread;
            attributed(o)
                .into_iter()
                .map(move |(s, v)| match (s.thread == root_thread, s.name) {
                    (true, "pipeline.kaverage") => 0.0,
                    (true, _) => v,
                    (false, _) => s.busy as f64,
                })
        })
        .sum();

    let mut m: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "traces.io.read_ms",
            per_op_sum(&ops, spans, &["traces.io.read"]) / 1e6,
            "ms",
        ),
        (
            "traces.io.read_mb",
            counts(|r| r.counts.read_bytes) / 1e6,
            "MB",
        ),
        (
            "traces.io.rows_used_ratio",
            median_of(
                ok.iter()
                    .filter(|r| r.counts.decoded > 0)
                    .map(|r| r.rows_touched.unwrap_or(0) as f64 / r.counts.decoded as f64),
            ),
            "fraction",
        ),
        ("traces.io.write_ms", setup.write_ns as f64 / 1e6, "ms"),
    ];
    let synthesized = setup.synthesized.max(1) as f64;
    if synth_in_ops {
        m.push((
            "power.synth.traces",
            counts(|r| r.counts.synthesized),
            "count",
        ));
        m.push((
            "power.synth.us_per_trace",
            synth_busy as f64 / synth_calls as f64 / 1e3,
            "us",
        ));
        m.push((
            "power.synth.share",
            synth_busy as f64 / work_ns.max(1.0),
            "fraction",
        ));
        m.push((
            "power.synth.allocs_per_trace",
            synth.iter().map(|s| s.allocs).sum::<u64>() as f64 / synth_calls as f64,
            "count",
        ));
    } else {
        m.push(("power.synth.traces", setup.synthesized as f64, "count"));
        m.push((
            "power.synth.us_per_trace",
            setup.synth_ns as f64 * workers / synthesized / 1e3,
            "us",
        ));
        m.push((
            "power.synth.share",
            setup.synth_ns as f64 / setup.wall_ns.max(1) as f64,
            "fraction",
        ));
        m.push((
            "power.synth.allocs_per_trace",
            setup.synth_allocs as f64 / synthesized,
            "count",
        ));
    }
    m.push((
        "power.noise.us_per_trace",
        attribution.noise_us_per_trace,
        "us",
    ));
    m.push((
        "power.chain.us_per_trace",
        attribution.chain_us_per_trace,
        "us",
    ));
    m.push((
        "rng.chacha.ns_per_word",
        attribution.chacha_ns_per_word,
        "ns",
    ));
    if name == Name::Campaign {
        m.push((
            "netlist.prepare_ms",
            median_of(named(spans, "netlist.prepare").map(|s| s.busy as f64)) / 1e6,
            "ms",
        ));
        m.push(("netlist.devices", counts(|r| r.counts.devices), "count"));
    } else {
        m.push((
            "netlist.prepare_ms",
            median_of(setup.prepare_ns.iter().map(|&n| n as f64)) / 1e6,
            "ms",
        ));
        m.push(("netlist.devices", setup.devices as f64, "count"));
    }
    m.push((
        "pipeline.plan_us",
        median_of(named(spans, "pipeline.plan").map(|s| s.busy as f64)) / 1e3,
        "us",
    ));
    m.push((
        "pipeline.kaverage_ms",
        median_of(kaverage.iter().map(|(_, s)| s.busy as f64)) / 1e6,
        "ms",
    ));
    m.push((
        "pipeline.kaverage_self_ms",
        median_of(kaverage.iter().map(|(o, s)| o.self_ns(s))) / 1e6,
        "ms",
    ));
    m.push((
        "pipeline.kaverage.rows",
        median_of(kaverage.iter().map(|(o, s)| fill_rows(o, s) as f64)),
        "count",
    ));
    m.push((
        "pipeline.kaverage.gib_per_s",
        median_of(kaverage.iter().map(|(o, s)| {
            fill_rows(o, s) as f64 * trace_bytes
                / (s.busy.max(1) as f64 / 1e9)
                / (1u64 << 30) as f64
        })),
        "GiB/s",
    ));
    let block_ns = if blocks {
        acc.iter().map(|s| s.busy).sum::<u64>() as f64
            / acc.iter().map(|s| s.calls).sum::<u64>().max(1) as f64
    } else {
        attribution.block_accumulate_ns_per_row
    };
    m.push(("traces.block.accumulate_ns_per_row", block_ns, "ns"));
    m.push((
        "pipeline.correlate_us",
        median_of(named(spans, "pipeline.correlate").map(|s| s.busy as f64)) / 1e3,
        "us",
    ));
    m.push((
        "pipeline.correlate.row_sweeps",
        counts(|r| r.counts.sweeps),
        "count",
    ));
    m.push((
        "pipeline.decide_us",
        per_op_sum(&ops, spans, &["pipeline.decide", "core.report"]) / 1e3,
        "us",
    ));
    m.push((
        "parallel.busy_frac",
        worker_busy / worker_capacity.max(1.0),
        "fraction",
    ));
    m.push((
        "parallel.threads_per_op",
        counts(|r| r.counts.threads),
        "count",
    ));
    m.push(("parallel.threads_peak", threads_peak(&ops, spans), "count"));
    m.push((
        "campaign.cell_ms",
        median_of(named(spans, "campaign.cell").map(|s| s.busy as f64)) / 1e6,
        "ms",
    ));
    m.push((
        "campaign.build_ms",
        median_of(named(spans, "campaign.build").map(|s| s.busy as f64)) / 1e6,
        "ms",
    ));
    m.push(("campaign.scenario_us_per_trace", scenario_us, "us"));
    m.push(("campaign.allocs_per_cell", allocs_per_cell, "count"));
    m.push((
        "trace.overhead_frac",
        traced_p50 / plain_p50.max(1.0) - 1.0,
        "fraction",
    ));

    summarize(&ops, spans);
    Ok(m)
}

/// Each span's share of its op's wall time: self time for spans on the
/// op's thread; for the library's workers, their busy time divided by the
/// number of workers that served the same fill.
fn attributed<'a>(o: &OpSpans<'a>) -> Vec<(&'a Span, f64)> {
    let mut out = vec![(o.root, o.self_ns(o.root))];
    for (parent_id, children) in &o.children {
        let parent_thread = std::iter::once(o.root)
            .chain(o.children.values().flatten().copied())
            .find(|s| s.id == *parent_id)
            .map(|s| s.thread);
        let workers = children
            .iter()
            .filter(|c| Some(c.thread) != parent_thread)
            .count()
            .max(1);
        for c in children {
            let share = if c.thread == o.root.thread {
                o.self_ns(c)
            } else {
                c.busy as f64 / workers as f64
            };
            out.push((*c, share));
        }
    }
    out
}

/// Prints, to standard error, each layer's median attributed time per op
/// and its share of the median op wall time.
fn summarize(ops: &[OpSpans], spans: &[Span]) {
    let mut per_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut sum_error: f64 = 0.0;
    for o in ops {
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        let parts = attributed(o);
        let total: f64 = parts.iter().map(|(_, v)| v).sum();
        sum_error = sum_error.max((total - o.root.busy as f64).abs() / o.root.busy.max(1) as f64);
        for (s, v) in parts {
            let name = if s.thread == o.root.thread {
                s.name.to_owned()
            } else {
                format!("{} (workers)", s.name)
            };
            *sums.entry(name).or_default() += v;
        }
        for (name, v) in sums {
            per_name.entry(name).or_default().push(v);
        }
    }
    let wall = median_of(ops.iter().map(|o| o.root.busy as f64));
    eprintln!(
        "perfbench: {} traced ops, {} spans, median op wall {:.3} ms; attributed time per op (median):",
        ops.len(),
        spans.len(),
        wall / 1e6
    );
    for (name, values) in per_name {
        let v = median(&values);
        eprintln!(
            "  {name:<36} {:>12.3} ms {:>6.1} %",
            v / 1e6,
            100.0 * v / wall.max(1.0)
        );
    }
    eprintln!("perfbench: largest |sum of attributed times - op wall| / op wall: {sum_error:.2e}");
}

/// Writes every span, one JSON object per line, to
/// `.perfbench_out/trace-<workload>-seed<seed>.jsonl`.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> Res<()> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(out, "{}", s.json())?;
    }
    out.flush()?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}
