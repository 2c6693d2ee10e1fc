//! Seconds-scale runs of every workload, and the output checks made to fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use geogossip::analysis::json::JsonValue;
use geogossip::lab::Verdict;
use geogossip::sim::engine::{EngineReport, StopReason};
use geogossip::sim::{ConvergenceTrace, TransmissionCounter};
use geogossip_perfbench::checks::{fingerprint, Checks, Ledger};
use geogossip_perfbench::run::{run, Outcome, END_TO_END, PER_LAYER};
use geogossip_perfbench::workloads::{Scale, Workload};
use std::path::Path;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn out_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = JsonValue::parse(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|&(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn the_metric_tables_are_the_ones_benchmark_json_declares() {
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(own(&END_TO_END), declared("end_to_end"));
    assert_eq!(own(&PER_LAYER), declared("per_layer"));
    let doc = JsonValue::parse(BENCHMARK).unwrap();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn smoke(workload: Workload, seed: u64) {
    let plain = run(workload, Scale::Smoke, seed, 0.1, false, out_dir()).expect("untraced run");
    assert_eq!(plain.failures, Vec::<String>::new(), "{}", workload.name());
    assert!(plain.attempted >= 2 && plain.failed == 0);
    assert_eq!(emitted(&plain), declared("end_to_end"));
    for &(name, value, _) in &plain.metrics {
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
    let result = plain.result_json();
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    let line = result.render();
    assert_eq!(
        JsonValue::parse(&line).unwrap(),
        result,
        "one parseable line"
    );
    assert!(!line.contains('\n'));

    let traced = run(workload, Scale::Smoke, seed, 0.1, true, out_dir()).expect("traced run");
    assert_eq!(traced.failures, Vec::<String>::new(), "{}", workload.name());
    assert_eq!(emitted(&traced), declared("per_layer"));
    for &(name, value, _) in &traced.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let value = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap()
    };
    assert!(value("telemetry.events") > 0.0);
    let trace = out_dir().join(format!("trace-{}-smoke-seed{seed}.json", workload.name()));
    let doc = JsonValue::parse(&std::fs::read_to_string(trace).expect("trace written"))
        .expect("trace parses");
    let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
    assert!(!spans.is_empty());
    assert!(spans.iter().all(|s| s.get("parent").is_some()));
}

#[test]
fn geo_torus_smoke() {
    smoke(Workload::GeoTorus, 101);
}

#[test]
fn build_clustered_smoke() {
    smoke(Workload::BuildClustered, 102);
}

#[test]
fn affine_campaign_smoke() {
    smoke(Workload::AffineCampaign, 103);
}

#[test]
fn net_lossy_smoke() {
    smoke(Workload::NetLossy, 104);
}

fn report(reason: StopReason, final_error: f64) -> EngineReport {
    EngineReport {
        reason,
        transmissions: TransmissionCounter::new(),
        ticks: 10,
        time: 1.0,
        final_error,
        trace: ConvergenceTrace::new(),
    }
}

#[test]
fn a_trial_that_did_not_converge_fails_its_check() {
    let mut checks = Checks::default();
    checks.converged("ok", &report(StopReason::Converged, 0.01));
    checks.converged("capped", &report(StopReason::TickBudgetExhausted, 0.7));
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    assert!(checks.failures[0].contains("capped"));
}

#[test]
fn a_failed_verdict_fails_its_check() {
    let mut checks = Checks::default();
    for holds in [true, false] {
        checks.verdict(&Verdict {
            claim: "affine scales below geographic".into(),
            holds,
            details: String::new(),
        });
    }
    assert_eq!((checks.attempted, checks.failed), (2, 1));
}

#[test]
fn an_unbalanced_ledger_fails_its_check() {
    let balanced = Ledger {
        sent: 100,
        delivered: 85,
        dropped: 10,
        duplicated: 5,
        retried: 9,
        in_flight_peak: 7,
    };
    let mut checks = Checks::default();
    checks.ledger("balanced", &balanced);
    checks.ledger(
        "over-delivered",
        &Ledger {
            delivered: 95,
            ..balanced
        },
    );
    checks.ledger(
        "retried-unseen",
        &Ledger {
            retried: 11,
            ..balanced
        },
    );
    assert_eq!((checks.attempted, checks.failed), (3, 2));
    let metrics = vec![
        ("messages_sent".to_string(), 100.0),
        ("messages_delivered".to_string(), 85.0),
        ("messages_in_flight_peak".to_string(), 7.0),
        ("messages_dropped".to_string(), 10.0),
        ("messages_duplicated".to_string(), 5.0),
        ("messages_retried".to_string(), 9.0),
    ];
    assert_eq!(Ledger::from_metrics(&metrics), balanced);
}

#[test]
fn outcomes_that_differ_in_one_bit_fail_the_identity_check() {
    let a = fingerprint(&report(StopReason::Converged, 0.25), &[]);
    let b = fingerprint(
        &report(StopReason::Converged, f64::from_bits(0.25f64.to_bits() + 1)),
        &[],
    );
    let mut checks = Checks::default();
    checks.identical("same", &a, &a.clone());
    checks.identical("one ulp apart", &a, &b);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
}
