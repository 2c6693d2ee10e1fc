//! One benchmark run: repetitions of a workload for a time budget, then the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced run).

use crate::checks::Checks;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{Prepared, Rep, Scale, Workload};
use geogossip::analysis::json::JsonValue;
use std::path::Path;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by the untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("tx_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("tx_per_node", "tx/node"),
];

/// Per-layer metrics, reported by the traced run: name and unit. A layer
/// that a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("geometry.sample_s", "s"),
    ("geometry.partition_s", "s"),
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("graph.build_ns_per_edge", "ns"),
    ("graph.build_sys_frac", "ratio"),
    ("graph.csr_bytes", "bytes"),
    ("routing.hop_ns", "ns"),
    ("routing.hops_per_route.p50", "hops"),
    ("routing.hops_per_route.p99", "hops"),
    ("routing.failed_route_frac", "ratio"),
    ("core.geo_tick_ns", "ns"),
    ("core.pair_tick_ns", "ns"),
    ("core.hierarchy_build_s", "s"),
    ("core.affine_round_ms", "ms"),
    ("core.local_exchanges_per_round", "count"),
    ("sim.tick_ns", "ns"),
    ("sim.loop_overhead_ns", "ns"),
    ("sim.draw_ns", "ns"),
    ("sim.partition_ns", "ns"),
    ("sim.resolve_ns", "ns"),
    ("sim.commit_ns", "ns"),
    ("sim.serial_frac", "ratio"),
    ("sim.thread_speedup", "x"),
    ("sim.trial_imbalance", "ratio"),
    ("net.msg_ns", "ns"),
    ("net.sent", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("net.duplicated", "count"),
    ("net.retried", "count"),
    ("net.in_flight_peak", "count"),
    ("net.delivery_ratio", "ratio"),
    ("lab.cell_s.p50", "s"),
    ("lab.cell_s.max", "s"),
    ("lab.log_append_ms", "ms"),
    ("lab.aggregate_ms", "ms"),
    ("lab.verdicts_failed", "count"),
    ("telemetry.events", "count"),
    ("telemetry.trace_overhead_pct", "%"),
];

/// What a run reports.
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric name, value and unit, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The machine context of the run.
    pub context: JsonValue,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn result_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    JsonValue::object(vec![
                        ("value", value.into()),
                        ("unit", JsonValue::string(unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::object(vec![
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

/// Runs `workload` for about `seconds`: repetitions until the next one
/// would overrun the budget (at least two untraced ones, or one untraced and
/// one traced). The traced run alternates untraced and traced repetitions,
/// so the tracing overhead compares like with like, then takes the
/// per-layer measurements and writes the trace under `out_dir`.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(out_dir)?;
    let context = sys::context(workload.name(), seed, seconds, trace);
    let prepared = Prepared::new(workload, scale, seed, out_dir);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut untraced_tr = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let round = Instant::now();
        untraced.push(prepared.rep(&mut untraced_tr, &mut checks));
        log_rep("untraced", untraced.last());
        if trace {
            traced.push(prepared.rep(&mut tr, &mut checks));
            log_rep("traced", traced.last());
        }
        let rounds = untraced.len();
        let enough = if trace { rounds >= 1 } else { rounds >= 2 };
        if enough && start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let first = untraced[0].fingerprint.clone();
    for (i, rep) in untraced.iter().chain(&traced).enumerate().skip(1) {
        checks.identical(
            &format!("{} repetition {i}", workload.name()),
            &first,
            &rep.fingerprint,
        );
    }

    let metrics = if trace {
        prepared.probe_layers(&mut tr);
        let metrics = per_layer(workload, &tr, &untraced, &traced);
        let name = format!(
            "trace-{}{}-seed{seed}.json",
            workload.name(),
            if scale == Scale::Smoke { "-smoke" } else { "" }
        );
        let doc = tr.to_json(context.clone(), metrics_json(&metrics));
        std::fs::write(out_dir.join(name), doc.pretty())?;
        metrics
    } else {
        end_to_end(&untraced)
    };
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics,
        context,
    })
}

/// One line per repetition on standard error, for reading a run's noise.
fn log_rep(kind: &str, rep: Option<&Rep>) {
    if let Some(r) = rep {
        eprintln!(
            "{kind} rep: wall {:.4} s, setup {:.4} s, solve {:.4} s",
            r.wall_s, r.setup_s, r.solve_s
        );
    }
}

/// The repetitions that count: the first one warms the allocator, the page
/// cache and the thread pool, and is dropped once there are three or more.
fn measured(reps: &[Rep]) -> &[Rep] {
    if reps.len() >= 3 {
        &reps[1..]
    } else {
        reps
    }
}

fn end_to_end(reps: &[Rep]) -> Vec<(&'static str, f64, &'static str)> {
    let reps = measured(reps);
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let first = &reps[0];
    let values = [
        med(&|r| r.wall_s),
        med(&|r| r.setup_s),
        med(&|r| r.solve_s),
        med(&|r| ratio(r.transmissions as f64, r.solve_s)),
        sys::peak_rss_mb().unwrap_or(0.0),
        ratio(first.transmissions as f64, first.nodes as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

fn per_layer(
    workload: Workload,
    tr: &Tracer,
    untraced: &[Rep],
    traced: &[Rep],
) -> Vec<(&'static str, f64, &'static str)> {
    let reps = traced.len() as f64;
    // The first untraced-traced pair warms up and is dropped once there are
    // two or more, so the overhead compares warm repetitions on both sides.
    let skip = usize::from(traced.len() >= 2);
    let (untraced, warm_traced) = (&untraced[skip..], &traced[skip..]);
    let totals = tr.span_totals();
    let span = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let count = |name: &str| tr.counter(name);
    let per_tick_ns = |name: &str, ticks: f64| ratio(span(name) * 1e9, ticks);

    let geo_tick_ns = per_tick_ns("core.geo_tick", count("core.geo_tick"));
    let pair_tick_ns = per_tick_ns("core.pair_tick", count("core.pair_tick"));
    let tick_ns = median(
        &untraced
            .iter()
            .filter_map(|r| r.serial)
            .map(|(s, ticks)| ratio(s * 1e9, ticks as f64))
            .collect::<Vec<_>>(),
    );
    // Only `build-clustered` runs the sequential loop around `on_tick`; the
    // 1-thread `geo-torus` engine runs the batched stages instead.
    let loop_overhead_ns = if workload == Workload::BuildClustered {
        tick_ns - pair_tick_ns
    } else {
        0.0
    };
    let stage_ticks = count("sim.stage_ticks");
    let stages: f64 = ["sim.draw", "sim.partition", "sim.resolve", "sim.commit"]
        .iter()
        .map(|s| span(s))
        .sum();
    let speedup = if workload == Workload::GeoTorus {
        median(
            &untraced
                .iter()
                .filter_map(|r| r.serial.map(|(s, _)| ratio(s, r.solve_s)))
                .collect::<Vec<_>>(),
        )
    } else {
        0.0
    };
    let mut hops = tr.samples("routing.hops_per_route").to_vec();
    hops.sort_by(f64::total_cmp);
    let mut cells = tr.samples("lab.cell_s").to_vec();
    cells.sort_by(f64::total_cmp);
    let imbalance = tr.samples("sim.trial_imbalance");
    let wall_traced = median(&warm_traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let wall_untraced = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let values: [(&str, f64); 40] = [
        ("geometry.sample_s", span("geometry.sample") / reps),
        ("geometry.partition_s", span("geometry.partition")),
        ("graph.build_s", span("graph.build") / reps),
        ("graph.edges", count("graph.edges") / reps),
        (
            "graph.build_ns_per_edge",
            ratio(span("graph.build") * 1e9, count("graph.edges")),
        ),
        (
            "graph.build_sys_frac",
            ratio(
                count("graph.cpu_sys_ticks"),
                count("graph.cpu_user_ticks") + count("graph.cpu_sys_ticks"),
            ),
        ),
        ("graph.csr_bytes", count("graph.csr_bytes") / reps),
        (
            "routing.hop_ns",
            ratio(span("routing.route_terminus") * 1e9, count("routing.hops")),
        ),
        ("routing.hops_per_route.p50", quantile(&hops, 0.50)),
        ("routing.hops_per_route.p99", quantile(&hops, 0.99)),
        (
            "routing.failed_route_frac",
            ratio(count("routing.failed_routes"), count("routing.routes")),
        ),
        ("core.geo_tick_ns", geo_tick_ns),
        ("core.pair_tick_ns", pair_tick_ns),
        ("core.hierarchy_build_s", span("core.hierarchy_build")),
        (
            "core.affine_round_ms",
            ratio(
                count("core.affine_engine_s") * 1e3,
                count("core.affine_rounds"),
            ),
        ),
        (
            "core.local_exchanges_per_round",
            ratio(count("core.affine_local"), count("core.affine_rounds")),
        ),
        ("sim.tick_ns", tick_ns),
        ("sim.loop_overhead_ns", loop_overhead_ns),
        ("sim.draw_ns", per_tick_ns("sim.draw", stage_ticks)),
        (
            "sim.partition_ns",
            per_tick_ns("sim.partition", stage_ticks),
        ),
        ("sim.resolve_ns", per_tick_ns("sim.resolve", stage_ticks)),
        ("sim.commit_ns", per_tick_ns("sim.commit", stage_ticks)),
        (
            "sim.serial_frac",
            ratio(stages - span("sim.resolve"), stages),
        ),
        ("sim.thread_speedup", speedup),
        (
            "sim.trial_imbalance",
            ratio(imbalance.iter().sum(), imbalance.len() as f64),
        ),
        (
            "net.msg_ns",
            ratio(span("net.run_trial") * 1e9, count("net.sent")),
        ),
        ("net.sent", count("net.sent") / reps),
        ("net.delivered", count("net.delivered") / reps),
        ("net.dropped", count("net.dropped") / reps),
        ("net.duplicated", count("net.duplicated") / reps),
        ("net.retried", count("net.retried") / reps),
        (
            "net.in_flight_peak",
            tr.samples("net.in_flight_peak")
                .iter()
                .copied()
                .fold(0.0, f64::max),
        ),
        (
            "net.delivery_ratio",
            ratio(count("net.delivered"), count("net.sent")),
        ),
        ("lab.cell_s.p50", quantile(&cells, 0.5)),
        ("lab.cell_s.max", cells.last().copied().unwrap_or(0.0)),
        (
            "lab.log_append_ms",
            ratio(span("lab.log_append") * 1e3, count("lab.log_appends")),
        ),
        ("lab.aggregate_ms", span("lab.aggregate") * 1e3 / reps),
        ("lab.verdicts_failed", count("lab.verdicts_failed") / reps),
        ("telemetry.events", tr.probe.total() as f64 / reps),
        (
            "telemetry.trace_overhead_pct",
            (ratio(wall_traced, wall_untraced) - 1.0) * 100.0,
        ),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (computed, value))| {
            assert_eq!(name, computed, "per-layer values follow PER_LAYER's order");
            (name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect()
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    JsonValue::object(vec![
                        ("value", value.into()),
                        ("unit", JsonValue::string(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median (mean of the middle two for an even count); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted values; 0 for no values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
    }
}
