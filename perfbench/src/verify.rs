//! The three paper-scale verification workloads: `verify-files`,
//! `verify-lazy` and `verify-memory`.
//!
//! All three use the four reference IPs under `ExperimentConfig::paper()`
//! with one RefD die and one DUT die per IP, derived from the workload
//! seed. Op `i` is one row of the paper's Table II: RefD `i mod 4` against
//! the four DUTs, with selections drawn from a per-op seed, so op `i`
//! draws the same selections, and yields the same coefficients, in all
//! three workloads.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use ipmark_core::ip::{reference_ips, FabricatedDevice};
use ipmark_core::pipeline::{default_backend, CorrelateStage, DecideStage, KAverageStage, Plan};
use ipmark_core::{
    correlation_process, CorrelationParams, CorrelationSet, ExperimentConfig, VerificationReport,
};
use ipmark_power::SimulatedAcquisition;
use ipmark_traces::io as trace_io;
use ipmark_traces::{TraceBlock, TraceSource};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::reference;
use crate::trace::{now_ns, Ctx, Probe, Probed, Tracer};
use crate::{alloc, derive, stream, threads_per_fill, Counts, OpRecord, Res, SetupStats, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Files,
    Lazy,
    Memory,
}

enum Data {
    Lazy {
        refd: Vec<SimulatedAcquisition>,
        duts: Vec<SimulatedAcquisition>,
    },
    Memory {
        refd: Vec<TraceBlock>,
        duts: Vec<TraceBlock>,
    },
    Files {
        refd: Vec<PathBuf>,
        duts: Vec<PathBuf>,
    },
}

pub struct Verify {
    kind: Kind,
    seed: u64,
    params: CorrelationParams,
    data: Data,
    /// One prepared campaign kept for the attribution pass.
    sample: SimulatedAcquisition,
    chain: ipmark_power::MeasurementChain,
    /// File bytes one `verify-files` op reads (0 for the other workloads).
    read_bytes: u64,
}

/// Builds the workload: fabricates the eight dies and prepares their
/// campaigns, then materializes them (`verify-memory`) or writes them as
/// IPMKTRC2 files into `dir` (`verify-files`).
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Res<(Verify, SetupStats)> {
    let start = now_ns();
    let mut stats = SetupStats::default();
    let config = ExperimentConfig::paper()?;
    let params = config.params;
    let mut prepare =
        |spec, die_stream, campaign_stream, j: u64, traces| -> Res<SimulatedAcquisition> {
            let t0 = now_ns();
            let mut die =
                FabricatedDevice::fabricate(spec, &config.variation, derive(seed, die_stream, j))?;
            let acq = die.acquisition(
                &config.chain,
                config.cycles,
                traces,
                derive(seed, campaign_stream, j),
            )?;
            stats.prepare_ns.push(now_ns() - t0);
            stats.devices += 1;
            Ok(acq)
        };
    let mut refd = Vec::new();
    let mut duts = Vec::new();
    for (j, spec) in reference_ips().iter().enumerate() {
        let j = j as u64;
        refd.push(prepare(
            spec,
            stream::REFD_DIE,
            stream::REFD_CAMPAIGN,
            j,
            params.n1,
        )?);
        duts.push(prepare(
            spec,
            stream::DUT_DIE,
            stream::DUT_CAMPAIGN,
            j,
            params.n2,
        )?);
    }
    let sample = refd[0].clone();
    let data = match kind {
        Kind::Lazy => Data::Lazy { refd, duts },
        Kind::Memory => Data::Memory {
            refd: refd
                .iter()
                .map(|a| materialize(a, &mut stats))
                .collect::<Res<_>>()?,
            duts: duts
                .iter()
                .map(|a| materialize(a, &mut stats))
                .collect::<Res<_>>()?,
        },
        Kind::Files => {
            std::fs::create_dir_all(dir)?;
            let mut write = |acqs: &[SimulatedAcquisition]| -> Res<Vec<PathBuf>> {
                acqs.iter()
                    .map(|a| {
                        // One block at a time: write it, then free it.
                        let block = materialize(a, &mut stats)?;
                        let path = dir.join(format!("{}.trc2", a.device_name()));
                        let t0 = now_ns();
                        let mut writer = BufWriter::new(File::create(&path)?);
                        trace_io::write_block(&block, &mut writer)?;
                        writer.flush()?;
                        stats.write_ns += now_ns() - t0;
                        Ok(path)
                    })
                    .collect()
            };
            Data::Files {
                refd: write(&refd)?,
                duts: write(&duts)?,
            }
        }
    };
    let read_bytes = match &data {
        Data::Files { refd, duts } => {
            let mut bytes = std::fs::metadata(&refd[0])?.len();
            for path in duts {
                bytes += std::fs::metadata(path)?.len();
            }
            bytes
        }
        Data::Lazy { .. } | Data::Memory { .. } => 0,
    };
    stats.wall_ns = now_ns() - start;
    let workload = Verify {
        kind,
        seed,
        params,
        data,
        sample,
        chain: config.chain,
        read_bytes,
    };
    Ok((workload, stats))
}

fn materialize(acq: &SimulatedAcquisition, stats: &mut SetupStats) -> Res<TraceBlock> {
    let allocs = alloc::total();
    let t0 = now_ns();
    let block = acq.acquire_block()?;
    stats.synth_ns += now_ns() - t0;
    stats.synth_allocs += alloc::total() - allocs;
    stats.synthesized += block.len() as u64;
    Ok(block)
}

fn read(path: &Path) -> Res<TraceBlock> {
    let device = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("device");
    Ok(trace_io::read_block_any(
        device,
        BufReader::new(File::open(path)?),
    )?)
}

/// The correlation process as the operator graph's stages, each in its own
/// span — the traced twin of `correlation_process`, which draws the same
/// selections from `rng` and so yields the same bits.
pub fn staged<SR, SD, R>(
    tracer: &Tracer,
    ctx: Ctx,
    probe: &Probe,
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
    rng: &mut R,
) -> Res<(CorrelationSet, Plan)>
where
    SR: TraceSource + ?Sized,
    SD: TraceSource + Sync + ?Sized,
    R: Rng + ?Sized,
{
    let span = tracer.open("pipeline.plan", ctx);
    let plan = Plan::correlation(params, rng)?;
    tracer.close(span);

    let span = tracer.open("pipeline.kaverage", ctx);
    let mut stage = KAverageStage::allocate(params.m, refd.trace_len())?;
    stage.fill(refd, dut, plan.acquire(), &default_backend())?;
    tracer.record_fill(probe, span.ctx());
    tracer.close(span);

    let span = tracer.open("pipeline.correlate", ctx);
    let coefficients = CorrelateStage::center(stage.reference())?
        .rows_with_sums(stage.duts(), stage.dut_sums())?;
    tracer.close(span);

    let span = tracer.open("pipeline.decide", ctx);
    let set = DecideStage.finish(coefficients)?;
    tracer.close(span);
    Ok((set, plan))
}

impl Verify {
    fn probe_name(&self) -> &'static str {
        match self.kind {
            Kind::Lazy => "power.synth",
            Kind::Files | Kind::Memory => "traces.block.accumulate",
        }
    }

    /// Correlates `refd` against every DUT, through `correlation_process`
    /// untraced or through [`staged`] when `tracer` is given.
    fn correlate_all<S: TraceSource + Sync>(
        &self,
        id: u64,
        refd: &S,
        duts: &[&S],
        tracer: Option<(&Tracer, Ctx)>,
        rec: &mut OpRecord,
    ) -> Res<Vec<CorrelationSet>> {
        let probe = Probe::new(self.probe_name(), tracer.is_some());
        let mut rng = ChaCha8Rng::seed_from_u64(derive(self.seed, stream::OP, id));
        let mut sets = Vec::with_capacity(duts.len());
        let mut refd_rows = Vec::new();
        let mut dut_rows = 0;
        for dut in duts {
            probe.begin();
            let (r, d) = (Probed::new(refd, &probe), Probed::new(*dut, &probe));
            let set = match tracer {
                None => correlation_process(&r, &d, &self.params, &mut rng)?,
                Some((tracer, ctx)) => {
                    let (set, plan) = staged(tracer, ctx, &probe, &r, &d, &self.params, &mut rng)?;
                    refd_rows.extend_from_slice(plan.acquire().refd_selection());
                    dut_rows += distinct(plan.acquire().dut_selections().iter().flatten().copied());
                    set
                }
            };
            rec.counts.accumulated += probe.calls();
            rec.counts.threads += probe.spawned().ok_or("more probe threads than slots")?;
            rec.counts.sweeps += set.len() as u64 + 1;
            sets.push(set);
        }
        if self.kind == Kind::Lazy {
            rec.counts.synthesized = rec.counts.accumulated;
        }
        if tracer.is_some() {
            rec.rows_touched = Some(dut_rows + distinct(refd_rows.into_iter()));
        }
        Ok(sets)
    }

    fn run(&self, id: u64, tracer: Option<&Tracer>) -> Res<OpRecord> {
        let mut rec = OpRecord::new(id, 4);
        let start = now_ns();
        let root = tracer.map(|t| t.open("op", Ctx::root(id)));
        let ctx = root.as_ref().map(|r| r.ctx());
        let traced = tracer.zip(ctx);
        let r = (id % 4) as usize;
        let (sets, reference, names) = match &self.data {
            Data::Lazy { refd, duts } => {
                let duts: Vec<_> = duts.iter().collect();
                let names: Vec<String> = duts.iter().map(|d| d.device_name().to_owned()).collect();
                let sets = self.correlate_all(id, &refd[r], &duts, traced, &mut rec)?;
                (sets, refd[r].device_name().to_owned(), names)
            }
            Data::Memory { refd, duts } => {
                let duts: Vec<_> = duts.iter().collect();
                let names: Vec<String> = duts.iter().map(|d| d.device().to_owned()).collect();
                let sets = self.correlate_all(id, &refd[r], &duts, traced, &mut rec)?;
                (sets, refd[r].device().to_owned(), names)
            }
            Data::Files { refd, duts } => {
                let mut blocks = Vec::with_capacity(duts.len() + 1);
                for path in std::iter::once(&refd[r]).chain(duts) {
                    let block = in_span(traced, "traces.io.read", || read(path))?;
                    rec.counts.decoded += block.len() as u64;
                    rec.counts.read_bytes += std::fs::metadata(path)?.len();
                    blocks.push(block);
                }
                let (refd, duts) = blocks.split_first().ok_or("no blocks read")?;
                let duts: Vec<_> = duts.iter().collect();
                let names: Vec<String> = duts.iter().map(|d| d.device().to_owned()).collect();
                let sets = self.correlate_all(id, refd, &duts, traced, &mut rec)?;
                (sets, refd.device().to_owned(), names)
            }
        };
        let report = in_span(traced, "core.report", || {
            VerificationReport::new(reference, self.params, &names, &sets)
        })?;
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        rec.wall_ns = now_ns() - start;
        rec.verdict_ok = report.variance_decision.best == r;
        for set in &sets {
            rec.check_set(set.coefficients(), self.params.m);
            rec.bits
                .extend(set.coefficients().iter().map(|c| c.to_bits()));
        }
        Ok(rec)
    }
}

/// Runs `f` inside a span named `name` when the op is traced.
fn in_span<T>(traced: Option<(&Tracer, Ctx)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = traced.map(|(t, c)| (t, t.open(name, c)));
    let out = f();
    if let Some((t, span)) = span {
        t.close(span);
    }
    out
}

fn distinct(indices: impl Iterator<Item = usize>) -> u64 {
    let mut v: Vec<usize> = indices.collect();
    v.sort_unstable();
    v.dedup();
    v.len() as u64
}

impl Workload for Verify {
    fn min_ops(&self) -> u64 {
        8
    }

    fn workers(&self) -> usize {
        1
    }

    fn op(&self, id: u64) -> Res<OpRecord> {
        self.run(id, None)
    }

    fn op_traced(&self, id: u64, tracer: &Tracer) -> Res<OpRecord> {
        self.run(id, Some(tracer))
    }

    fn reference(&self, id: u64) -> Res<Vec<f64>> {
        let r = (id % 4) as usize;
        let read_blocks;
        let (refd, duts): (&dyn TraceSource, Vec<&dyn TraceSource>) = match &self.data {
            Data::Lazy { refd, duts } => (
                &refd[r],
                duts.iter().map(|d| d as &dyn TraceSource).collect(),
            ),
            Data::Memory { refd, duts } => (
                &refd[r],
                duts.iter().map(|d| d as &dyn TraceSource).collect(),
            ),
            Data::Files { refd, duts } => {
                read_blocks = std::iter::once(&refd[r])
                    .chain(duts)
                    .map(|p| read(p))
                    .collect::<Res<Vec<_>>>()?;
                let (refd, duts) = read_blocks.split_first().ok_or("no blocks read")?;
                (refd, duts.iter().map(|d| d as &dyn TraceSource).collect())
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(derive(self.seed, stream::OP, id));
        let mut out = Vec::new();
        for dut in duts {
            let plan = Plan::correlation(&self.params, &mut rng)?;
            out.extend(reference::coefficients(refd, dut, plan.acquire())?);
        }
        Ok(out)
    }

    fn expected(&self) -> Counts {
        let p = self.params;
        let candidates = 4;
        let rows = candidates * (p.k * (p.m + 1)) as u64;
        Counts {
            synthesized: if self.kind == Kind::Lazy { rows } else { 0 },
            decoded: if self.kind == Kind::Files {
                (p.n1 + candidates as usize * p.n2) as u64
            } else {
                0
            },
            accumulated: rows,
            sweeps: candidates * (p.m as u64 + 1),
            devices: 0,
            threads: candidates * threads_per_fill(p.m),
            read_bytes: self.read_bytes,
        }
    }

    fn shape(&self) -> (&ipmark_power::MeasurementChain, &[f64]) {
        (&self.chain, self.sample.clean_waveform())
    }
}
