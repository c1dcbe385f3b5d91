//! The `campaign-slice` workload: `Campaign::full()` restricted to the
//! default noise σ (270 cells per replica, 1080 in all), with a
//! seed-derived master seed and cell order. Each op is one
//! `Campaign::run_cell`.

use ipmark_attacks::DutBuild;
use ipmark_bench::campaign::{chain_with_noise, Campaign, ScenarioSource};
use ipmark_core::campaign::{CellCoord, CellSeeds};
use ipmark_core::ip::DEFAULT_NOISE_SIGMA;
use ipmark_power::chain::MeasurementChain;
use ipmark_power::device::{DeviceModel, ProcessVariation};
use ipmark_power::{SimulatedAcquisition, ThermalDrift};
use ipmark_traces::align::{jitter_offset, shift_in_place};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

use crate::reference;
use crate::trace::{now_ns, Ctx, Probe, Probed, Tracer};
use crate::verify::staged;
use crate::{
    alloc, derive, stats, stream, threads_per_fill, Counts, OpRecord, Res, SetupStats, Workload,
};
use ipmark_core::Plan;

struct CellSources {
    refd: SimulatedAcquisition,
    /// (selection seed, scenario source) of the positive and the negative
    /// DUT, in that order.
    legs: [(u64, ScenarioSource); 2],
}

pub struct Slice {
    campaign: Campaign,
    cells: Vec<CellCoord>,
    /// Op `i` runs `cells[order[i % cells.len()]]`.
    order: Vec<usize>,
    chain: MeasurementChain,
    sample: SimulatedAcquisition,
}

pub fn setup(seed: u64) -> Res<(Slice, SetupStats)> {
    let start = now_ns();
    let mut campaign = Campaign::full();
    campaign.grid_mut().noise_sigmas = vec![DEFAULT_NOISE_SIGMA];
    campaign.config_mut().master_seed = derive(seed, stream::CAMPAIGN, 0);
    campaign.validate()?;
    let cells = campaign.grid().cells()?;
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(derive(seed, stream::CELL_ORDER, 0));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let stats = SetupStats {
        wall_ns: now_ns() - start,
        ..SetupStats::default()
    };
    // Outside setup time: the attribution pass needs one prepared campaign
    // of the cells' trace shape.
    let chain = chain_with_noise(DEFAULT_NOISE_SIGMA)?;
    let genuine = DutBuild::genuine(campaign.ip())?;
    let sample = prepare(
        &genuine,
        &ProcessVariation::none(),
        &chain,
        campaign.config().cycles,
        1,
        0,
        0,
    )?;
    let slice = Slice {
        campaign,
        cells,
        order,
        chain,
        sample,
    };
    Ok((slice, stats))
}

/// Fabricates one die of `build` and prepares its campaign — the steps of
/// the engine's per-cell die build.
fn prepare(
    build: &DutBuild,
    corner: &ProcessVariation,
    chain: &MeasurementChain,
    cycles: usize,
    traces: usize,
    die_seed: u64,
    campaign_seed: u64,
) -> Res<SimulatedAcquisition> {
    let spec = build.spec();
    let mut circuit = spec.circuit()?;
    let device = DeviceModel::sample(
        format!("{}@die{die_seed}", spec.name()),
        &build.nominal_model()?,
        corner,
        die_seed,
    )?;
    Ok(SimulatedAcquisition::prepare(
        &mut circuit,
        &device,
        chain,
        cycles,
        traces,
        campaign_seed,
    )?)
}

impl Slice {
    fn cell(&self, id: u64) -> &CellCoord {
        &self.cells[self.order[(id % self.cells.len() as u64) as usize]]
    }

    fn record(id: u64, stats: [f64; 4], wall_ns: u64) -> OpRecord {
        let mut rec = OpRecord::new(id, 2);
        rec.wall_ns = wall_ns;
        rec.check_set(&stats, 4);
        rec.verdict_ok = stats[1] < stats[3];
        rec.bits = stats.iter().map(|s| s.to_bits()).collect();
        rec
    }

    /// The cell's reference campaign and its two scenario DUT sources,
    /// built the way `Campaign::run_cell` builds them, each die in its own
    /// span.
    fn sources(&self, coord: &CellCoord, tracer: &Tracer, ctx: Ctx) -> Res<CellSources> {
        let grid = self.campaign.grid();
        let config = self.campaign.config();
        let ip = self.campaign.ip();
        let seeds = CellSeeds::derive(config.master_seed, coord.index);
        let corner = &grid.corners[coord.corner];
        let max_jitter = grid.jitters[coord.jitter];
        let adversary = &grid.adversaries[coord.adversary];
        let params = &config.params;

        let build = tracer.open("campaign.build", ctx);
        let chain = chain_with_noise(grid.noise_sigmas[coord.noise])?;
        let drift = ThermalDrift::new(grid.drift_slopes[coord.drift])?;
        let die = |b: &DutBuild, traces, die_seed, campaign_seed| -> Res<SimulatedAcquisition> {
            let span = tracer.open("netlist.prepare", build.ctx());
            let acq = prepare(
                b,
                corner,
                &chain,
                config.cycles,
                traces,
                die_seed,
                campaign_seed,
            )?;
            tracer.close(span);
            Ok(acq)
        };
        let refd = die(
            &DutBuild::genuine(ip)?,
            params.n1,
            seeds.refd_die,
            seeds.refd_campaign,
        )?;
        let positive = ScenarioSource::new(
            die(
                &adversary.positive_build(ip)?,
                params.n2,
                seeds.positive_die,
                seeds.positive_campaign,
            )?,
            drift,
            seeds.positive_jitter,
            max_jitter,
        );
        let negative = ScenarioSource::new(
            die(
                &adversary.negative_build(ip)?,
                params.n2,
                seeds.negative_die,
                seeds.negative_campaign,
            )?,
            drift,
            seeds.negative_jitter,
            max_jitter,
        );
        tracer.close(build);
        Ok(CellSources {
            refd,
            legs: [
                (seeds.positive_selection, positive),
                (seeds.negative_selection, negative),
            ],
        })
    }

    /// `Campaign::run_cell` rebuilt from the engine's public steps, each in
    /// its own span. The run compares its statistics bit for bit with the
    /// engine's for the same op.
    fn twin(&self, id: u64, tracer: &Tracer) -> Res<OpRecord> {
        let start = now_ns();
        let root = tracer.open("campaign.cell", Ctx::root(id));
        let ctx = root.ctx();
        let cell = self.sources(self.cell(id), tracer, ctx)?;
        let probe = Probe::new("power.synth", true);
        let mut counts = Counts {
            devices: 3,
            ..Counts::default()
        };
        let mut stats = Vec::with_capacity(4);
        for (selection, dut) in &cell.legs {
            probe.begin();
            let mut rng = ChaCha8Rng::seed_from_u64(*selection);
            let (r, d) = (Probed::new(&cell.refd, &probe), Probed::new(dut, &probe));
            let (set, _) = staged(
                tracer,
                ctx,
                &probe,
                &r,
                &d,
                &self.campaign.config().params,
                &mut rng,
            )?;
            counts.accumulated += probe.calls();
            counts.threads += probe.spawned().ok_or("more probe threads than slots")?;
            counts.sweeps += set.len() as u64 + 1;
            stats.extend([set.mean(), set.variance()]);
        }
        counts.synthesized = counts.accumulated;
        tracer.close(root);
        let stats: [f64; 4] = stats
            .try_into()
            .map_err(|_| "two legs give four statistics")?;
        let mut rec = Self::record(id, stats, now_ns() - start);
        rec.counts = counts;
        Ok(rec)
    }

    /// Median µs per trace of the drift and jitter decorations of the
    /// first `cells` ops' scenarios, on the cells' trace shape.
    fn scenario_us_per_trace(&self, cells: u64) -> Res<f64> {
        let grid = self.campaign.grid();
        let clean = self.sample.clean_waveform();
        let mut buf = clean.to_vec();
        let mut per_trace = Vec::new();
        for id in 0..cells {
            let coord = self.cell(id);
            let drift = ThermalDrift::new(grid.drift_slopes[coord.drift])?;
            let max_jitter = grid.jitters[coord.jitter];
            let start = now_ns();
            for i in 0..32u64 {
                buf.copy_from_slice(clean);
                drift.apply_in_place(&mut buf);
                shift_in_place(&mut buf, jitter_offset(coord.index, i, max_jitter));
                black_box(&mut buf);
            }
            per_trace.push((now_ns() - start) as f64 / 32.0 / 1e3);
        }
        Ok(stats::median(&per_trace))
    }

    /// Heap allocations of one `Campaign::run_cell`, averaged over the
    /// first `cells` ops run one at a time (library worker threads
    /// included).
    fn allocs_per_cell(&self, cells: u64) -> Res<f64> {
        let before = alloc::total();
        for id in 0..cells {
            black_box(self.campaign.run_cell(self.cell(id))?);
        }
        Ok((alloc::total() - before) as f64 / cells as f64)
    }
}

impl Workload for Slice {
    fn min_ops(&self) -> u64 {
        self.cells.len() as u64
    }

    fn workers(&self) -> usize {
        ipmark_parallel::max_threads()
    }

    fn op(&self, id: u64) -> Res<OpRecord> {
        let start = now_ns();
        let outcome = self.campaign.run_cell(self.cell(id))?;
        let mut rec = Self::record(id, outcome.stats(), now_ns() - start);
        rec.probed = false;
        Ok(rec)
    }

    fn op_traced(&self, id: u64, tracer: &Tracer) -> Res<OpRecord> {
        self.twin(id, tracer)
    }

    fn reference(&self, id: u64) -> Res<Vec<f64>> {
        let cell = self.sources(self.cell(id), &Tracer::default(), Ctx::root(id))?;
        let mut out = Vec::with_capacity(4);
        for (selection, dut) in &cell.legs {
            let mut rng = ChaCha8Rng::seed_from_u64(*selection);
            let plan = Plan::correlation(&self.campaign.config().params, &mut rng)?;
            let (mean, variance) = reference::mean_variance(&reference::coefficients(
                &cell.refd,
                dut,
                plan.acquire(),
            )?);
            out.extend([mean, variance]);
        }
        Ok(out)
    }

    fn expected(&self) -> Counts {
        let p = self.campaign.config().params;
        let rows = 2 * (p.k * (p.m + 1)) as u64;
        Counts {
            synthesized: rows,
            decoded: 0,
            accumulated: rows,
            sweeps: 2 * (p.m as u64 + 1),
            devices: 3,
            threads: 2 * threads_per_fill(p.m),
            read_bytes: 0,
        }
    }

    fn shape(&self) -> (&MeasurementChain, &[f64]) {
        (&self.chain, self.sample.clean_waveform())
    }

    fn campaign_layers(&self) -> Res<(f64, f64)> {
        Ok((self.scenario_us_per_trace(64)?, self.allocs_per_cell(4)?))
    }
}
