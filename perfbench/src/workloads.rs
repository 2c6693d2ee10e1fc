//! The four workloads, generated from the run's seed, and one repetition of
//! each (a "rep"): the benchmark drives the program through its public API,
//! timing each call, and checks what comes back.
//!
//! | workload | what it runs | layers it loads |
//! |---|---|---|
//! | `geo-torus` | geographic gossip on a uniform torus, once at `nproc` engine threads and once at 1 | routing, the parallel engine's draw → resolve → commit |
//! | `build-clustered` | pairwise gossip on a large clustered placement | sampling, graph build, the engine loop itself |
//! | `affine-campaign` | a lab sweep: geographic and both round-based affine protocols over three sizes | hierarchy, trial-parallel `Runner`, log, aggregation, verdicts |
//! | `net-lossy` | geographic and pairwise gossip on the lossy message-passing runtime | the net scheduler, wire drops, duplicates, retries |

use crate::checks::{fingerprint, Checks, Ledger};
use crate::sys::cpu_ticks;
use crate::trace::Tracer;
use geogossip::core::affine::Hierarchy;
use geogossip::core::ProtocolRegistry;
use geogossip::geometry::point::NodeId;
use geogossip::geometry::{PartitionConfig, Point, SquarePartition};
use geogossip::graph::GeometricGraph;
use geogossip::lab::{
    run_sweep, run_sweep_probed, CellRecord, ResultsLog, SweepAggregator, SweepOptions,
    SweepProgress,
};
use geogossip::net::NetRuntime;
use geogossip::routing::route_terminus;
use geogossip::sim::batch::{resolve_plan, ParallelSpec, ResolvedPlan, WavePartitioner};
use geogossip::sim::clock::{BatchedPoissonClock, Tick};
use geogossip::sim::engine::{Activation, AsyncEngine};
use geogossip::sim::fault::FAULT_STREAM_LABEL;
use geogossip::sim::scenario::{ProtocolFactory, Runner, ScenarioSpec, SweepSpec};
use geogossip::sim::transport::{TransportRuntime, NET_STREAM_LABEL};
use geogossip::sim::{SeedStream, TransmissionCounter};
use geogossip::telemetry::Probe;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Geographic gossip on a uniform torus at `nproc` and at 1 thread.
    GeoTorus,
    /// Pairwise gossip on a large clustered placement.
    BuildClustered,
    /// The paper's own protocol comparison, run as a lab campaign.
    AffineCampaign,
    /// Gossip on the lossy message-passing runtime.
    NetLossy,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::GeoTorus,
        Workload::BuildClustered,
        Workload::AffineCampaign,
        Workload::NetLossy,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GeoTorus => "geo-torus",
            Workload::BuildClustered => "build-clustered",
            Workload::AffineCampaign => "affine-campaign",
            Workload::NetLossy => "net-lossy",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the measured ones, or a seconds-scale smoke size for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny sizes that finish in about a second.
    Smoke,
}

/// What one repetition of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// The whole repetition.
    pub wall_s: f64,
    /// Placement, graph, field and protocol construction, summed over trials.
    pub setup_s: f64,
    /// Engine time to ε, summed over trials (`geo-torus`: the `nproc` run).
    pub solve_s: f64,
    /// Transmissions charged to ε over the trials `solve_s` covers.
    pub transmissions: u64,
    /// Sum of `n` over the same trials.
    pub nodes: u64,
    /// Digest of every outcome; must repeat exactly for a given seed.
    pub fingerprint: String,
    /// Single-threaded engine time and its ticks, where the workload runs
    /// the shared-memory engine on one thread.
    pub serial: Option<(f64, u64)>,
}

/// A workload with its inputs generated from one seed.
pub struct Prepared {
    workload: Workload,
    scale: Scale,
    seed: u64,
    scenarios: Vec<ScenarioSpec>,
    campaign: Option<SweepSpec>,
    registry: ProtocolRegistry,
    runner: Runner,
    log_path: PathBuf,
}

const STOP: &str = r#""max-ticks":200000000,"max-transmissions":1000000000"#;
const RADIUS: &str = r#"{"connectivity-constant":1.5}"#;
const LOSSY_WIRE: &str =
    r#"{"latency":{"exp":{"mean":0.004}},"reliability":{"drop":0.1,"duplicate":0.05}}"#;

/// One scenario of the benchmark, written in the program's own spec format.
#[allow(clippy::too_many_arguments)]
fn scenario(
    name: &str,
    n: usize,
    placement: &str,
    surface: &str,
    field: &str,
    protocol: &str,
    epsilon: f64,
    trials: u64,
    seed: u64,
    transport: Option<&str>,
) -> ScenarioSpec {
    let transport = transport.map_or(String::new(), |t| format!(r#","transport":{t}"#));
    let text = format!(
        r#"{{"name":"{name}","topology":{{"n":{n},"placement":{placement},"radius":{RADIUS},"surface":"{surface}"}},"field":"{field}","protocol":{{"name":"{protocol}","params":{{}}}},"stop":{{"epsilon":{epsilon},{STOP}}},"trials":{trials},"seed":{seed}{transport}}}"#
    );
    ScenarioSpec::from_json(&text).expect("the benchmark's own scenario specs are valid")
}

impl Prepared {
    /// Generates the workload's inputs from `seed`. The lab campaign's
    /// results log goes under `out_dir`.
    pub fn new(workload: Workload, scale: Scale, seed: u64, out_dir: &Path) -> Self {
        let full = scale == Scale::Full;
        let mut scenarios = Vec::new();
        let mut campaign = None;
        match workload {
            Workload::GeoTorus => scenarios.push(scenario(
                "geo-torus",
                if full { 65_536 } else { 4096 },
                r#""uniform-square""#,
                "torus",
                "spatial-gradient",
                "geographic",
                0.5,
                1,
                seed,
                None,
            )),
            Workload::BuildClustered => scenarios.push(scenario(
                "build-clustered",
                if full { 262_144 } else { 16_384 },
                r#"{"clustered":{"clusters":256,"spread":0.03}}"#,
                "unit-square",
                "bimodal",
                "pairwise",
                0.5,
                1,
                seed,
                None,
            )),
            Workload::AffineCampaign => {
                // Below n = 512 the fitted exponents are too noisy for the
                // verdicts to hold reliably, so the smoke size keeps the sizes
                // and halves the trials.
                let sizes = "512, 1024, 2048";
                let trials = if full { 4 } else { 2 };
                let text = format!(
                    r#"{{"sweep":"affine-campaign","axes":{{"n":[{sizes}],"protocol":[{{"name":"geographic","params":{{}}}},{{"name":"affine-idealized","params":{{}}}},{{"name":"affine-recursive","params":{{}}}}],"epsilon":[0.05]}},"field":"spatial-gradient","stop":{{{STOP}}},"trials":{trials},"seed":{seed}}}"#
                );
                campaign = Some(
                    SweepSpec::from_json(&text).expect("the benchmark's own sweep spec is valid"),
                );
            }
            Workload::NetLossy => {
                let (geo_n, pair_n) = if full { (8192, 2048) } else { (1024, 256) };
                for (protocol, n) in [("geographic", geo_n), ("pairwise", pair_n)] {
                    scenarios.push(scenario(
                        &format!("net-lossy-{protocol}"),
                        n,
                        r#""uniform-square""#,
                        "unit-square",
                        "spatial-gradient",
                        protocol,
                        0.1,
                        2,
                        seed,
                        Some(LOSSY_WIRE),
                    ));
                }
            }
        }
        let scale_tag = if full { "" } else { "-smoke" };
        Prepared {
            workload,
            scale,
            seed,
            scenarios,
            campaign,
            registry: ProtocolRegistry::builtin(),
            runner: geogossip::builtin_runner(),
            log_path: out_dir.join(format!(
                "{}{scale_tag}-seed{seed}-cells.jsonl",
                workload.name()
            )),
        }
    }

    /// Runs the workload once. With `tr` enabled, every call is a span, the
    /// program's probed entry points feed `tr.probe`, and layer counters are
    /// kept; the work and the outcome are the same either way.
    pub fn rep(&self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let campaign_setup_s =
            (self.workload == Workload::AffineCampaign).then(|| self.campaign_setup_s());
        let start = Instant::now();
        let mut rep = match self.workload {
            Workload::GeoTorus => self.geo_torus(tr, checks),
            Workload::BuildClustered => self.build_clustered(tr, checks),
            Workload::AffineCampaign => self.affine_campaign(tr, checks),
            Workload::NetLossy => self.net_lossy(tr, checks),
        };
        rep.wall_s = start.elapsed().as_secs_f64();
        if let Some(setup_s) = campaign_setup_s {
            rep.setup_s = setup_s;
        }
        rep
    }

    /// The campaign's set-up time. The lab builds each trial inside the
    /// runner's parallel trial map, where one trial's wall-clock laps can
    /// include another's work, so set-up is timed here instead: a
    /// sequential pass over the same trials with the same streams, kept out
    /// of the campaign's wall time. The pass is cheap and its first runs
    /// after a sweep are slow, so it runs nine times and the median counts.
    fn campaign_setup_s(&self) -> f64 {
        let campaign = self.campaign.as_ref().expect("campaign workload");
        let cells = campaign.expand();
        let mut quiet = Tracer::new(false);
        let passes: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                for cell in &cells {
                    for trial in 0..cell.spec.trials {
                        let inst = Instance::new(&cell.spec, trial, &mut quiet);
                        let mut rng = run_stream(&self.registry, &cell.spec, trial);
                        black_box(
                            self.build(&cell.spec, &inst, &mut rng, &mut quiet)
                                .name()
                                .len(),
                        );
                    }
                }
                start.elapsed().as_secs_f64()
            })
            .collect();
        crate::run::median(&passes)
    }

    /// Per-layer measurements that need calls of their own (a routing
    /// sample, bare protocol ticks, the parallel engine's stages one at a
    /// time, the hierarchy build). Run once per traced run, outside the
    /// repetitions whose wall time is compared with the untraced ones.
    pub fn probe_layers(&self, tr: &mut Tracer) {
        let full = self.scale == Scale::Full;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x7072_6f62_6573);
        match self.workload {
            Workload::GeoTorus => {
                let spec = &self.scenarios[0];
                let inst = Instance::new(spec, 0, &mut Tracer::new(false));
                probe_routes(tr, &inst.graph, if full { 20_000 } else { 500 }, &mut rng);
                let mut protocol = self.build(spec, &inst, &mut rng, &mut Tracer::new(false));
                probe_ticks(
                    tr,
                    "core.geo_tick",
                    &mut *protocol,
                    inst.graph.len(),
                    if full { 10_000 } else { 500 },
                    &mut rng,
                );
                let mut protocol = self.build(spec, &inst, &mut rng, &mut Tracer::new(false));
                let batch = protocol
                    .as_batch()
                    .expect("geographic gossip has a batched form");
                probe_stages(tr, batch, &inst.graph, if full { 16 } else { 2 }, &mut rng);
            }
            Workload::BuildClustered | Workload::NetLossy => {
                let spec = self
                    .scenarios
                    .iter()
                    .find(|s| s.protocol.name == "pairwise")
                    .expect("the workload runs pairwise gossip");
                // The shared-memory protocol on the same network: its bare
                // tick is what the engine (or the net actors) wrap.
                let inst = Instance::new(spec, 0, &mut Tracer::new(false));
                let mut protocol = self.build(spec, &inst, &mut rng, &mut Tracer::new(false));
                probe_ticks(
                    tr,
                    "core.pair_tick",
                    &mut *protocol,
                    inst.graph.len(),
                    if full { 1_000_000 } else { 10_000 },
                    &mut rng,
                );
            }
            Workload::AffineCampaign => {
                let campaign = self.campaign.as_ref().expect("campaign workload");
                for cell in campaign.expand() {
                    if !cell.spec.protocol.name.starts_with("affine") {
                        continue;
                    }
                    for trial in 0..cell.spec.trials {
                        let inst = Instance::new(&cell.spec, trial, &mut Tracer::new(false));
                        let config = PartitionConfig::practical(inst.graph.len());
                        let s = tr.begin("geometry.partition");
                        black_box(SquarePartition::build(inst.graph.positions(), config));
                        tr.end(s);
                        let s = tr.begin("core.hierarchy_build");
                        let hierarchy = Hierarchy::build(&inst.graph, config);
                        tr.end(s);
                        black_box(hierarchy.is_ok());
                    }
                }
            }
        }
    }

    /// The protocol for one trial, built through the registry as the
    /// scenario runner builds it: `rng` is the trial's run stream, which the
    /// engine then continues.
    fn build<'g>(
        &self,
        spec: &ScenarioSpec,
        inst: &'g Instance,
        rng: &mut ChaCha8Rng,
        tr: &mut Tracer,
    ) -> Box<dyn Activation + 'g> {
        let s = tr.begin("core.build");
        let protocol = self
            .registry
            .build(
                &spec.protocol,
                &inst.graph,
                inst.values.clone(),
                spec.stop.epsilon,
                rng,
            )
            .expect("the benchmark's protocols build on its networks");
        tr.end(s);
        protocol
    }

    fn geo_torus(&self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let spec = &self.scenarios[0];
        let inst = Instance::new(spec, 0, tr);
        let mut setup_s = inst.setup_s;
        let nproc = crate::sys::nproc();
        let mut runs = Vec::new();
        for (threads, span) in [(nproc, "sim.engine_nproc"), (1, "sim.engine_1t")] {
            let start = Instant::now();
            let mut rng = run_stream(&self.registry, spec, 0);
            let mut protocol = self.build(spec, &inst, &mut rng, tr);
            setup_s += start.elapsed().as_secs_f64();
            let batch = protocol
                .as_batch()
                .expect("geographic gossip has a batched form");
            let par = ParallelSpec::with_threads(threads);
            let mut engine = AsyncEngine::new(inst.graph.len());
            let s = tr.begin(span);
            let report = if tr.enabled() {
                engine.run_parallel_probed(batch, spec.stop, &mut rng, par, &mut tr.probe)
            } else {
                engine.run_parallel(batch, spec.stop, &mut rng, par)
            };
            let solve_s = tr.end(s);
            checks.converged(&format!("geo-torus at {threads} thread(s)"), &report);
            let print = fingerprint(&report, &protocol.metrics());
            runs.push((solve_s, report, print));
        }
        let (serial_s, serial_report, serial_print) = runs.pop().expect("two runs");
        let (solve_s, report, print) = runs.pop().expect("two runs");
        checks.identical(
            &format!("geo-torus at {nproc} thread(s) vs 1 thread"),
            &print,
            &serial_print,
        );
        Rep {
            wall_s: 0.0,
            setup_s,
            solve_s,
            transmissions: report.transmissions.total(),
            nodes: inst.graph.len() as u64,
            fingerprint: print,
            serial: Some((serial_s, serial_report.ticks)),
        }
    }

    fn build_clustered(&self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let spec = &self.scenarios[0];
        let inst = Instance::new(spec, 0, tr);
        let start = Instant::now();
        let mut rng = run_stream(&self.registry, spec, 0);
        let mut protocol = self.build(spec, &inst, &mut rng, tr);
        let setup_s = inst.setup_s + start.elapsed().as_secs_f64();
        let mut engine = AsyncEngine::new(inst.graph.len());
        let s = tr.begin("sim.engine_1t");
        let report = if tr.enabled() {
            engine.run_probed(&mut *protocol, spec.stop, &mut rng, &mut tr.probe)
        } else {
            engine.run(&mut *protocol, spec.stop, &mut rng)
        };
        let solve_s = tr.end(s);
        checks.converged("build-clustered", &report);
        Rep {
            wall_s: 0.0,
            setup_s,
            solve_s,
            transmissions: report.transmissions.total(),
            nodes: inst.graph.len() as u64,
            fingerprint: fingerprint(&report, &protocol.metrics()),
            serial: Some((solve_s, report.ticks)),
        }
    }

    fn affine_campaign(&self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let campaign = self.campaign.as_ref().expect("campaign workload");
        let _ = std::fs::remove_file(&self.log_path);
        let mut appends: Vec<(Instant, Instant, bool)> = Vec::new();
        let mut cell_times: Vec<(Instant, f64)> = Vec::new();
        let log_path = self.log_path.as_path();
        let progress = |event: SweepProgress<'_>| {
            if let SweepProgress::Completed(record, seconds) = event {
                cell_times.push((Instant::now(), seconds));
                let start = Instant::now();
                let ok = ResultsLog::append(log_path, record).is_ok();
                appends.push((start, Instant::now(), ok));
            }
        };
        let options = SweepOptions::default();
        let s = tr.begin("lab.run_sweep");
        let outcome = if tr.enabled() {
            run_sweep_probed(
                &self.runner,
                campaign,
                None,
                &options,
                progress,
                &mut tr.probe,
            )
        } else {
            run_sweep(&self.runner, campaign, None, &options, progress)
        };
        tr.end(s);
        let records = match outcome {
            Ok(outcome) => outcome.records,
            Err(err) => {
                checks.check(false, || {
                    format!("affine-campaign: the sweep failed: {err}")
                });
                Vec::new()
            }
        };
        for (end, seconds) in cell_times {
            let start = end - std::time::Duration::from_secs_f64(seconds);
            tr.record("lab.cell", start, end);
            tr.sample("lab.cell_s", seconds);
        }
        for (start, end, ok) in appends {
            tr.record("lab.log_append", start, end);
            tr.add("lab.log_appends", 1.0);
            checks.check(ok, || {
                format!(
                    "affine-campaign: appending to {} failed",
                    log_path.display()
                )
            });
        }
        let _ = std::fs::remove_file(&self.log_path);

        let s = tr.begin("lab.aggregate");
        let mut aggregator = SweepAggregator::new();
        for record in &records {
            aggregator.push(record);
        }
        let aggregate = aggregator.finish();
        tr.end(s);
        let cells = campaign.cell_count() as usize;
        checks.check(
            records.len() == cells && aggregate.verdicts.len() == 3,
            || {
                format!(
                    "affine-campaign: {} of {cells} cells and {} of 3 verdicts",
                    records.len(),
                    aggregate.verdicts.len()
                )
            },
        );
        for verdict in &aggregate.verdicts {
            checks.verdict(verdict);
            tr.add("lab.verdicts_failed", f64::from(u8::from(!verdict.holds)));
        }

        let mut rep = Rep::default();
        for record in &records {
            fold_cell(record, &mut rep, tr, checks);
        }
        let verdicts: Vec<String> = aggregate
            .verdicts
            .iter()
            .map(|v| format!("{}:{}", v.holds, v.details))
            .collect();
        rep.fingerprint.push_str(&verdicts.join(";"));
        rep
    }

    fn net_lossy(&self, tr: &mut Tracer, checks: &mut Checks) -> Rep {
        let mut rep = Rep::default();
        for spec in &self.scenarios {
            let transport = spec
                .transport
                .as_ref()
                .expect("net-lossy scenarios carry a transport");
            for trial in 0..spec.trials {
                let inst = Instance::new(spec, trial, tr);
                rep.setup_s += inst.setup_s;
                let seeds = SeedStream::new(spec.seed);
                let mut rng = run_stream(&self.registry, spec, trial);
                let mut net_rng = seeds.trial(NET_STREAM_LABEL, trial);
                let fault_rng = seeds.trial(FAULT_STREAM_LABEL, trial);
                let n = inst.graph.len();
                let s = tr.begin("net.run_trial");
                let before = MessageEvents::count(tr);
                let outcome = NetRuntime.run_trial(
                    &spec.protocol,
                    transport,
                    &spec.faults,
                    &inst.graph,
                    inst.values,
                    spec.stop,
                    &mut rng,
                    &mut net_rng,
                    fault_rng,
                    if tr.enabled() {
                        Some(&mut tr.probe as &mut dyn Probe)
                    } else {
                        None
                    },
                );
                let solve_s = tr.end(s);
                let what = format!("{} trial {trial}", spec.name);
                let outcome = match outcome {
                    Ok(outcome) => outcome,
                    Err(err) => {
                        checks.check(false, || format!("{what}: {err}"));
                        continue;
                    }
                };
                checks.converged(&what, &outcome.report);
                let ledger = Ledger::from_metrics(&outcome.metrics);
                checks.ledger(&what, &ledger);
                if tr.enabled() {
                    // The probe saw every wire event; its counts must match
                    // the ledger the runtime reports.
                    let seen = MessageEvents::count(tr).minus(before);
                    let booked = MessageEvents {
                        dispatched: ledger.sent,
                        delivered: ledger.delivered,
                        dropped: ledger.dropped,
                        retried: ledger.retried,
                    };
                    checks.check(seen == booked, || {
                        format!("{what}: events {seen:?} disagree with ledger {booked:?}")
                    });
                    tr.add("net.sent", ledger.sent as f64);
                    tr.add("net.delivered", ledger.delivered as f64);
                    tr.add("net.dropped", ledger.dropped as f64);
                    tr.add("net.duplicated", ledger.duplicated as f64);
                    tr.add("net.retried", ledger.retried as f64);
                    tr.sample("net.in_flight_peak", ledger.in_flight_peak as f64);
                }
                rep.solve_s += solve_s;
                rep.transmissions += outcome.report.transmissions.total();
                rep.nodes += n as u64;
                rep.fingerprint
                    .push_str(&fingerprint(&outcome.report, &outcome.metrics));
                rep.fingerprint.push(';');
            }
        }
        rep
    }
}

/// Folds one lab cell into the rep's totals, checks its trials and
/// keeps the affine rounds' counters.
fn fold_cell(record: &CellRecord, rep: &mut Rep, tr: &mut Tracer, checks: &mut Checks) {
    let affine = record.protocol.starts_with("affine");
    let mut slowest: f64 = 0.0;
    let mut total = 0.0;
    for (trial, t) in record.trials.iter().enumerate() {
        checks.check(t.converged, || {
            format!(
                "{} trial {trial}: did not converge (final error {:e})",
                record.name, t.final_error
            )
        });
        rep.solve_s += t.engine_seconds;
        rep.transmissions += t.transmissions;
        rep.nodes += record.n as u64;
        rep.fingerprint.push_str(&format!(
            "{}/{trial}:{}:{}:{}:{}:{}:{}:{:?};",
            record.index,
            t.converged,
            t.routing,
            t.local,
            t.control,
            t.rounds,
            t.ticks,
            t.final_error
        ));
        slowest = slowest.max(t.seconds);
        total += t.seconds;
        if affine {
            tr.add("core.affine_engine_s", t.engine_seconds);
            tr.add("core.affine_rounds", t.rounds as f64);
            tr.add("core.affine_local", t.local as f64);
        }
    }
    if total > 0.0 {
        tr.sample(
            "sim.trial_imbalance",
            slowest / (total / record.trials.len() as f64),
        );
    }
}

/// Wire events counted by the traced run's probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MessageEvents {
    dispatched: u64,
    delivered: u64,
    dropped: u64,
    retried: u64,
}

impl MessageEvents {
    fn count(tr: &Tracer) -> Self {
        let probe = &tr.probe;
        MessageEvents {
            dispatched: probe.count("message-dispatched"),
            delivered: probe.count("message-delivered"),
            dropped: probe.count("message-dropped"),
            retried: probe.count("message-retried"),
        }
    }

    fn minus(self, earlier: Self) -> Self {
        MessageEvents {
            dispatched: self.dispatched - earlier.dispatched,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            retried: self.retried - earlier.retried,
        }
    }
}

/// One trial's network and initial values, with the time it took to make
/// them.
struct Instance {
    graph: GeometricGraph,
    values: Vec<f64>,
    setup_s: f64,
}

impl Instance {
    /// Samples the placement, builds the graph and materialises the field,
    /// drawing from the same streams as the scenario runner.
    fn new(spec: &ScenarioSpec, trial: u64, tr: &mut Tracer) -> Self {
        let seeds = SeedStream::new(spec.seed);
        let topology = &spec.topology;
        let s = tr.begin("geometry.sample");
        let positions = topology
            .placement
            .sample(topology.n, &mut seeds.trial("placement", trial));
        let mut setup_s = tr.end(s);
        let cpu_before = tr.enabled().then(cpu_ticks);
        let s = tr.begin("graph.build");
        let graph = GeometricGraph::build_with_topology(
            positions,
            topology.radius.radius(topology.n),
            topology.surface,
        );
        setup_s += tr.end(s);
        if let Some((user0, sys0)) = cpu_before {
            let (user1, sys1) = cpu_ticks();
            tr.add("graph.cpu_user_ticks", (user1 - user0) as f64);
            tr.add("graph.cpu_sys_ticks", (sys1 - sys0) as f64);
            tr.add("graph.edges", graph.edge_count() as f64);
            // The CSR offsets and neighbor rows, the f64 coordinate mirrors
            // and the 12-byte scan mirror, computed from the array lengths.
            let entries = graph.adjacency().entry_count() as f64;
            tr.add(
                "graph.csr_bytes",
                4.0 * (graph.len() + 1) as f64 + 32.0 * entries,
            );
        }
        let s = tr.begin("sim.field");
        let values = spec.field.values(&graph, &mut seeds.trial("values", trial));
        setup_s += tr.end(s);
        Instance {
            graph,
            values,
            setup_s,
        }
    }
}

/// The run stream the scenario runner hands a protocol for `trial`.
fn run_stream(registry: &ProtocolRegistry, spec: &ScenarioSpec, trial: u64) -> ChaCha8Rng {
    let tag = registry
        .seed_tag(&spec.protocol.name)
        .expect("the benchmark's protocols are registered");
    SeedStream::new(spec.seed).trial("run", trial ^ (tag << 32))
}

/// Greedy routes from uniform nodes to uniform positions — the geographic
/// gossip round's outbound leg — timed as one block.
fn probe_routes(tr: &mut Tracer, graph: &GeometricGraph, routes: usize, rng: &mut ChaCha8Rng) {
    let n = graph.len();
    let plan: Vec<(NodeId, Point)> = (0..routes)
        .map(|_| {
            let source = NodeId(rng.gen_range(0..n));
            (source, Point::new(rng.gen(), rng.gen()))
        })
        .collect();
    let s = tr.begin("routing.route_terminus");
    let walks: Vec<_> = plan
        .iter()
        .map(|&(source, target)| route_terminus(graph, source, target))
        .collect();
    tr.end(s);
    for (walk, &(_, target)) in walks.iter().zip(&plan) {
        tr.add("routing.hops", walk.hops as f64);
        tr.sample("routing.hops_per_route", walk.hops as f64);
        // A greedy walk that stops anywhere but the node nearest its target
        // dead-ended in a local minimum.
        let failed = graph.nearest_node(target) != Some(walk.terminus);
        tr.add("routing.failed_routes", f64::from(u8::from(failed)));
        tr.add("routing.routes", 1.0);
    }
}

/// Bare protocol ticks: `Activation::on_tick` on pre-drawn ticks, with no
/// engine around it.
fn probe_ticks(
    tr: &mut Tracer,
    span: &'static str,
    protocol: &mut dyn Activation,
    n: usize,
    ticks: usize,
    rng: &mut ChaCha8Rng,
) {
    let mut clock = BatchedPoissonClock::new(n);
    let drawn: Vec<Tick> = (0..ticks).map(|_| clock.next_tick(rng)).collect();
    let mut tx = TransmissionCounter::new();
    let s = tr.begin(span);
    for &tick in &drawn {
        protocol.on_tick(tick, &mut tx, &mut *rng);
    }
    tr.end(s);
    black_box(tx.total());
    tr.add(span, ticks as f64);
}

/// The parallel engine's stages driven one at a time: draw a batch of
/// ticks and their plans, partition it into conflict-free waves, resolve
/// the routes on `nproc` threads, and commit in draw order.
fn probe_stages(
    tr: &mut Tracer,
    protocol: &mut dyn geogossip::sim::batch::BatchActivation,
    graph: &GeometricGraph,
    batches: usize,
    rng: &mut ChaCha8Rng,
) {
    let batch = geogossip::sim::DEFAULT_TICK_BATCH;
    let threads = crate::sys::nproc();
    let mut clock = BatchedPoissonClock::new(graph.len());
    let mut partitioner = WavePartitioner::new(graph);
    let mut tx = TransmissionCounter::new();
    let mut planned = Vec::with_capacity(batch);
    for _ in 0..batches {
        let s = tr.begin("sim.draw");
        planned.clear();
        for _ in 0..batch {
            let tick = clock.next_tick(&mut *rng);
            planned.push((tick, protocol.draw_plan(tick, &mut *rng)));
        }
        tr.end(s);
        let s = tr.begin("sim.partition");
        let waves = partitioner.partition(graph, &planned);
        tr.end(s);
        let s = tr.begin("sim.resolve");
        let plans = &planned;
        let resolved: Vec<ResolvedPlan> = rayon::with_max_threads(threads, || {
            (0..plans.len())
                .into_par_iter()
                .map(|i| resolve_plan(graph, plans[i].0.node, &plans[i].1))
                .collect()
        });
        tr.end(s);
        let s = tr.begin("sim.commit");
        for wave in waves {
            for i in wave {
                protocol.commit_plan(planned[i].0, &resolved[i], &mut tx);
            }
        }
        tr.end(s);
        tr.add("sim.stage_ticks", batch as f64);
    }
    black_box(tx.total());
}
