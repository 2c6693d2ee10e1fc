//! Process and machine facts read from the operating system: peak resident
//! memory, process CPU time split into user and kernel time, and the machine
//! context every run records next to its numbers.

use geogossip::analysis::json::JsonValue;
use std::time::{SystemTime, UNIX_EPOCH};

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Process CPU time consumed so far, as `(user, kernel)` clock ticks summed
/// over every thread (`/proc/self/stat` fields 14 and 15). Only ratios of
/// these are reported, so the tick rate never matters.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0);
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    (field(14 - 3), field(15 - 3))
}

/// Logical cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout the benchmark runs in, read from `.git` when
/// present (a plain source export has none and reports `unknown`).
pub fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), valid for any date after
    // the epoch.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The machine context of one run: what the numbers were measured on.
pub fn context(workload: &str, seed: u64, seconds: f64, trace: bool) -> JsonValue {
    JsonValue::object(vec![
        ("workload", JsonValue::string(workload)),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", trace.into()),
        ("commit", JsonValue::string(commit())),
        ("date", JsonValue::string(utc_now())),
        ("nproc", nproc().into()),
        ("threads", geogossip::sim::batch::available_threads().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_now_is_well_formed() {
        let now = utc_now();
        assert_eq!(now.len(), 20, "{now}");
        assert!(now.starts_with("20") && now.ends_with('Z'), "{now}");
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let (user, sys) = cpu_ticks();
        assert!(user + sys > 0);
    }
}
