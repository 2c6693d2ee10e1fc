//! Output checks. Every checked operation counts as attempted; every failure
//! counts against `failed`, so `failed / attempted` is the run's failed
//! fraction.

use geogossip::lab::Verdict;
use geogossip::sim::engine::EngineReport;

/// Attempted and failed operations of one run, with the failures' reasons.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; a failed one is recorded with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// A trial must reach its accuracy target.
    pub fn converged(&mut self, what: &str, report: &EngineReport) {
        self.check(report.converged(), || {
            format!(
                "{what}: stopped by {} at relative error {:e} after {} ticks",
                report.reason.token(),
                report.final_error,
                report.ticks
            )
        });
    }

    /// Every lab verdict must hold.
    pub fn verdict(&mut self, verdict: &Verdict) {
        self.check(verdict.holds, || {
            format!("verdict failed: {} — {}", verdict.claim, verdict.details)
        });
    }

    /// Two runs that must agree bit for bit (same seed, different thread
    /// count, repetition or probe) produced the same fingerprint.
    pub fn identical(&mut self, what: &str, expected: &str, got: &str) {
        self.check(expected == got, || {
            format!("{what}: outcome differs\n  expected {expected}\n  got      {got}")
        });
    }

    /// A message-passing trial's ledger must balance: nothing is delivered
    /// or dropped that was not sent, duplicates and retries are sends of
    /// their own, and the in-flight peak never exceeds what was sent.
    pub fn ledger(&mut self, what: &str, ledger: &Ledger) {
        let Ledger {
            sent,
            delivered,
            dropped,
            duplicated,
            retried,
            in_flight_peak,
        } = *ledger;
        let ok = sent > 0
            && delivered + dropped <= sent
            && duplicated + retried <= sent
            && retried <= dropped
            && in_flight_peak >= 1
            && in_flight_peak <= sent;
        self.check(ok, || {
            format!("{what}: inconsistent message ledger {ledger:?}")
        });
    }
}

/// The message ledger a net trial reports among its metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Messages handed to the wire (duplicates and retries included).
    pub sent: u64,
    /// Messages that left the wire at their recipient.
    pub delivered: u64,
    /// Transmission attempts the wire dropped.
    pub dropped: u64,
    /// Duplicate copies the wire injected.
    pub duplicated: u64,
    /// Retransmissions of dropped messages.
    pub retried: u64,
    /// Most messages in flight at once.
    pub in_flight_peak: u64,
}

impl Ledger {
    /// Reads the ledger from a trial's metric list; a missing key reads 0
    /// (and then fails [`Checks::ledger`]).
    pub fn from_metrics(metrics: &[(String, f64)]) -> Self {
        let get = |key: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v as u64)
        };
        Ledger {
            sent: get("messages_sent"),
            delivered: get("messages_delivered"),
            dropped: get("messages_dropped"),
            duplicated: get("messages_duplicated"),
            retried: get("messages_retried"),
            in_flight_peak: get("messages_in_flight_peak"),
        }
    }
}

/// A deterministic digest of a run's outcome: stop reason, tick count,
/// transmission split, exact final error and trace, and the protocol's
/// metrics. Floats print in their shortest round-trip form, so equal
/// fingerprints mean bit-identical values.
pub fn fingerprint(report: &EngineReport, metrics: &[(String, f64)]) -> String {
    let tx = &report.transmissions;
    let trace: Vec<String> = report
        .trace
        .points()
        .iter()
        .map(|p| format!("{}:{}:{:?}", p.ticks, p.transmissions, p.relative_error))
        .collect();
    let metrics: Vec<String> = metrics.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!(
        "{} ticks={} time={:?} tx={}/{}/{} err={:?} trace={} [{}]",
        report.reason.token(),
        report.ticks,
        report.time,
        tx.routing(),
        tx.local(),
        tx.control(),
        report.final_error,
        fnv1a(trace.join(",").as_bytes()),
        metrics.join(",")
    )
}

/// 64-bit FNV-1a, to keep long traces out of failure messages.
fn fnv1a(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}
