//! Golden pins for the affine protocol's local averaging.
//!
//! No committed campaign runs `affine-recursive` (the headline sweep uses
//! `affine-idealized`, whose exact averaging never reaches leaf gossip), so
//! these literals are the record of what the recursive protocol and the
//! asynchronous state machine compute. Each row is one trial, driven exactly
//! as `Runner::run_trial` drives it (placement, field, run stream with the
//! protocol's seed tag, factory build, engine), and pins the whole outcome:
//! stop reason, ticks, transmissions by kind, final error bits, the metrics
//! vector, a digest of the trace, and the run stream's end state. A
//! performance change to leaf gossip, `Near`, or the hierarchy queries must
//! leave every row untouched; a change that moves one has moved a draw.

use geogossip::core::registry::builtin_runner;
use geogossip::core::InitialCondition;
use geogossip::sim::field::Field;
use geogossip::sim::scenario::{PlacementSpec, ScenarioSpec};
use geogossip::sim::{AsyncEngine, SeedStream, StopCondition};
use geogossip_geometry::Topology;
use rand::RngCore;

/// One pinned trial outcome.
#[derive(Debug, PartialEq)]
struct Golden {
    reason: &'static str,
    ticks: u64,
    local: u64,
    routing: u64,
    control: u64,
    error_bits: u64,
    metrics: Vec<(String, u64)>,
    trace_points: usize,
    trace_digest: u64,
    rng_end: [u64; 2],
}

impl Golden {
    /// Renders the outcome as the Rust literal the tables below hold, so a
    /// failing pin prints its replacement.
    fn literal(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, bits)| format!("(\"{k}\", {:?})", f64::from_bits(*bits)))
            .collect();
        format!(
            "row(\"{}\", {}, [{}, {}, {}], {:#018x}, &[{}], {}, {:#018x}, [{:#018x}, {:#018x}])",
            self.reason,
            self.ticks,
            self.local,
            self.routing,
            self.control,
            self.error_bits,
            metrics.join(", "),
            self.trace_points,
            self.trace_digest,
            self.rng_end[0],
            self.rng_end[1],
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn row(
    reason: &'static str,
    ticks: u64,
    [local, routing, control]: [u64; 3],
    error_bits: u64,
    metrics: &[(&str, f64)],
    trace_points: usize,
    trace_digest: u64,
    rng_end: [u64; 2],
) -> Golden {
    Golden {
        reason,
        ticks,
        local,
        routing,
        control,
        error_bits,
        metrics: metrics
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_bits()))
            .collect(),
        trace_points,
        trace_digest,
        rng_end,
    }
}

/// FNV-1a over every trace point's transmissions, ticks and error bits.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Runs every trial of `spec` the way the runner does and records it, then
/// checks the runner's own report agrees on everything it exposes.
fn record(spec: &ScenarioSpec) -> Vec<Golden> {
    let runner = builtin_runner();
    let factory = runner.factory();
    let tag = factory.seed_tag(&spec.protocol.name).expect("builtin name");
    let seeds = SeedStream::new(spec.seed);
    let rows: Vec<Golden> = (0..spec.trials)
        .map(|trial| {
            let graph = spec.topology.build(&seeds, trial);
            let values = spec.field.values(&graph, &mut seeds.trial("values", trial));
            let mut rng = seeds.trial("run", trial ^ (tag << 32));
            let mut protocol = factory
                .build(&spec.protocol, &graph, values, spec.stop.epsilon, &mut rng)
                .expect("valid instance");
            let report = AsyncEngine::new(graph.len()).run(&mut *protocol, spec.stop, &mut rng);
            let points = report.trace.points();
            Golden {
                reason: report.reason.token(),
                ticks: report.ticks,
                local: report.transmissions.local(),
                routing: report.transmissions.routing(),
                control: report.transmissions.control(),
                error_bits: report.final_error.to_bits(),
                metrics: protocol
                    .metrics()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_bits()))
                    .collect(),
                trace_points: points.len(),
                trace_digest: digest(
                    points
                        .iter()
                        .flat_map(|p| [p.transmissions, p.ticks, p.relative_error.to_bits()]),
                ),
                rng_end: [rng.next_u64(), rng.next_u64()],
            }
        })
        .collect();

    let report = runner.run(spec).expect("spec runs");
    for (cost, golden) in report.trials.iter().zip(&rows) {
        assert_eq!(cost.ticks, golden.ticks, "{}: runner ticks", spec.name);
        assert_eq!(
            cost.final_error.to_bits(),
            golden.error_bits,
            "{}: runner error",
            spec.name
        );
        assert_eq!(
            cost.transmissions.total(),
            golden.local + golden.routing + golden.control,
            "{}: runner transmissions",
            spec.name
        );
    }
    rows
}

fn assert_golden(spec: &ScenarioSpec, expected: &[Golden]) {
    let actual = record(spec);
    let literals: Vec<String> = actual.iter().map(Golden::literal).collect();
    assert_eq!(
        actual,
        expected,
        "{} moved; the recorded trials are now:\n{}",
        spec.name,
        literals.join(",\n")
    );
}

fn recursive(name: &str, n: usize, epsilon: f64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard("affine-recursive", n, epsilon)
        .with_trials(2)
        .with_seed(16);
    spec.name = name.into();
    spec
}

#[test]
fn affine_recursive_uniform_square_is_pinned() {
    let spec = recursive("golden-recursive-square", 384, 0.1);
    assert_golden(
        &spec,
        &[
            row(
                "converged",
                83,
                [254086, 6249, 0],
                0x3fb96578a82100cb,
                &[
                    ("top_rounds", 82.0),
                    ("long_range_exchanges", 2495.0),
                    ("local_exchanges", 127043.0),
                    ("failed_routes", 0.0),
                    ("stalled_local_passes", 0.0),
                    ("effective_alpha_top", 10.4),
                ],
                85,
                0x0f0cdb04af362d62,
                [0xbbd895a594051575, 0x93e18b6817d5a0db],
            ),
            row(
                "converged",
                71,
                [266692, 6086, 0],
                0x3fb82d7034e7f833,
                &[
                    ("top_rounds", 70.0),
                    ("long_range_exchanges", 2475.0),
                    ("local_exchanges", 133346.0),
                    ("failed_routes", 0.0),
                    ("stalled_local_passes", 0.0),
                    ("effective_alpha_top", 10.4),
                ],
                73,
                0x87f31546028d4213,
                [0x83936446ee7e0d75, 0xe310320696a0e37f],
            ),
        ],
    );
}

#[test]
fn affine_recursive_torus_is_pinned() {
    let mut spec = recursive("golden-recursive-torus", 256, 0.1)
        .with_field(Field::Condition(InitialCondition::Bimodal));
    spec.topology.surface = Topology::Torus;
    assert_golden(
        &spec,
        &[
            row(
                "converged",
                18,
                [13636, 78, 0],
                0x3fb848bb99bad3b4,
                &[
                    ("top_rounds", 17.0),
                    ("long_range_exchanges", 17.0),
                    ("local_exchanges", 6818.0),
                    ("failed_routes", 0.0),
                    ("stalled_local_passes", 0.0),
                    ("effective_alpha_top", 5.6000000000000005),
                ],
                20,
                0xdec3e5747e42fb29,
                [0x3eed392f9a58454d, 0xfc12fff6f26541c9],
            ),
            row(
                "converged",
                42,
                [26002, 200, 0],
                0x3fb85e2626dba608,
                &[
                    ("top_rounds", 41.0),
                    ("long_range_exchanges", 41.0),
                    ("local_exchanges", 13001.0),
                    ("failed_routes", 0.0),
                    ("stalled_local_passes", 0.0),
                    ("effective_alpha_top", 6.4),
                ],
                44,
                0x8f3b114be178b06f,
                [0x56686914b9550b8d, 0x5abed3919f86e1d4],
            ),
        ],
    );
}

#[test]
fn affine_recursive_clustered_is_pinned() {
    // Tight clusters at a tighter target: the first trial records stalled
    // local passes, so the pin covers the exchange-cap exits too.
    let mut spec = recursive("golden-recursive-clustered", 320, 0.05)
        .with_field(Field::Condition(InitialCondition::Spike));
    spec.topology.placement = PlacementSpec::Clustered {
        clusters: 8,
        spread: 0.05,
    };
    assert_golden(
        &spec,
        &[
            row(
                "converged",
                35,
                [17680, 106, 0],
                0x3fa7a5df042606cf,
                &[
                    ("top_rounds", 34.0),
                    ("long_range_exchanges", 34.0),
                    ("local_exchanges", 8840.0),
                    ("failed_routes", 54.0),
                    ("stalled_local_passes", 4.0),
                    ("effective_alpha_top", 33.2),
                ],
                37,
                0xc464462cde218b8c,
                [0x85dfbe6911d44796, 0x149521dc792c0517],
            ),
            row(
                "converged",
                36,
                [10390, 178, 0],
                0x3fa569051fcb3dcc,
                &[
                    ("top_rounds", 35.0),
                    ("long_range_exchanges", 35.0),
                    ("local_exchanges", 5195.0),
                    ("failed_routes", 26.0),
                    ("stalled_local_passes", 0.0),
                    ("effective_alpha_top", 1.6),
                ],
                38,
                0x1e2b8d0defe12b58,
                [0xa7d8ddef4cdbf8bd, 0x0e3620129483ce7b],
            ),
        ],
    );
}

#[test]
fn affine_state_machine_is_pinned() {
    let mut spec = ScenarioSpec::standard("affine-state-machine", 224, 0.2)
        .with_trials(2)
        .with_seed(16)
        .with_field(Field::Condition(InitialCondition::Spike));
    spec.name = "golden-state-machine".into();
    spec.stop = StopCondition::at_epsilon(0.2).with_max_ticks(3_000_000);
    assert_golden(
        &spec,
        &[
            row(
                "converged",
                39561,
                [43904, 98, 1172],
                0x3fc9783774838077,
                &[
                    ("far_exchanges", 15.0),
                    ("near_exchanges", 21952.0),
                    ("activations", 47.0),
                    ("deactivations", 35.0),
                    ("failed_routes", 0.0),
                ],
                178,
                0x87fd85cda2bd0f40,
                [0x51b74e8682a951d7, 0xfaa5c05558b316b8],
            ),
            row(
                "converged",
                15298,
                [18744, 27, 599],
                0x3fc9555ff49c31f6,
                &[
                    ("far_exchanges", 4.0),
                    ("near_exchanges", 9372.0),
                    ("activations", 25.0),
                    ("deactivations", 16.0),
                    ("failed_routes", 0.0),
                ],
                70,
                0x36f4d4958134ff41,
                [0x8eb3056633c3424b, 0x4c44d07643b3270d],
            ),
        ],
    );
}
