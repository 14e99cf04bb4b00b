//! `bench-v2` trajectory documents and the in-process bench
//! snapshotter.
//!
//! `bench-v2` is a strict superset of `bench-v1`: the `runs` array (one
//! `--stats-json` tree per (pair, engine, threads) cell of the t7
//! mixed-hardness zoo) keeps its exact shape, so `bench-v1`-era
//! tooling keeps working, and a `scenarios` array is added with the
//! ramping-load results of [`crate::ramp`] — each with its embedded
//! `metrics-v1` snapshot series.
//!
//! The snapshotter here replaces the Python fold-up that
//! `scripts/bench_snapshot.sh` used to carry. Besides dropping the
//! Python dependency, it fixes the host census: the old path recorded
//! `os.cpu_count()` as seen by a sandboxed interpreter, which produced
//! `"cpus": 1` on multi-core CI hosts (see `BENCH_2026-08-09.json`);
//! this one asks [`std::thread::available_parallelism`] in-process.

use obs::json::Value;

/// Schema tag stamped on trajectory documents produced here.
pub const SCHEMA: &str = "bench-v2";

/// The t7 mixed-hardness zoo: the same (family, width) spread
/// `scripts/bench_snapshot.sh` has always run — easy tree-shaped pairs
/// through the multiplier wall.
pub const ZOO: &[(&str, usize)] = &[
    ("adder", 16),
    ("bk", 24),
    ("parity", 24),
    ("popcount", 12),
    ("cmp", 12),
    ("penc", 16),
    ("mul", 4),
];

/// Host census for the trajectory header. `cpus` comes from
/// [`std::thread::available_parallelism`] — the satellite fix for the
/// `"cpus": 1` bug baked into the seeded bench snapshot.
pub fn host_json() -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Value::Object(vec![
        ("os".into(), Value::str(std::env::consts::OS)),
        ("machine".into(), Value::str(std::env::consts::ARCH)),
        ("cpus".into(), Value::U64(cpus as u64)),
    ])
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock via the
/// classical days-to-civil conversion (no date dependency).
pub fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian civil date from days since 1970-01-01
/// (Howard Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    #[allow(clippy::cast_sign_loss)]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    #[allow(clippy::cast_sign_loss)]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Runs the t7 zoo in-process — every pair × {static, adaptive} ×
/// {1, 4} threads — and returns the `bench-v1`-shaped `runs` array
/// (`{pair, engine, threads, stats}`), sorted the way the Python
/// fold-up sorted its stats files. `progress` is called once per cell
/// with a label like `mul-4 adaptive t4`.
///
/// # Panics
///
/// If any zoo pair fails to prove equivalent — the zoo is a fixed set
/// of known-equivalent pairs, so a failure here is an engine bug.
pub fn snapshot_runs(progress: &mut dyn FnMut(&str)) -> Vec<Value> {
    snapshot_runs_with(false, progress)
}

/// [`snapshot_runs`] with worker-to-worker learnt-clause sharing
/// switched on or off for the multi-threaded cells — the knob behind
/// `rbench snapshot --share-learnts`, so a before/after pair of
/// snapshots isolates the effect of sharing on the same host.
///
/// # Panics
///
/// As [`snapshot_runs`].
pub fn snapshot_runs_with(share_learnts: bool, progress: &mut dyn FnMut(&str)) -> Vec<Value> {
    let mut runs = Vec::new();
    for &(family, width) in ZOO {
        let (a, b) = aig::gen::family_pair(family, width).expect("zoo families are known");
        let pair = format!("{family}-{width}");
        for engine in ["adaptive", "static"] {
            for threads in [1usize, 4] {
                progress(&format!("{pair} {engine} t{threads}"));
                let select = if engine == "adaptive" {
                    cec::EngineSelect::Adaptive
                } else {
                    cec::EngineSelect::Static
                };
                let config = cec::EngineConfig {
                    engine: select,
                    threads,
                    share_learnts,
                    ..cec::EngineConfig::default()
                };
                let outcome = cec::Session::new(config, &cec::SharedContext::disabled())
                    .check(&a, &b)
                    .unwrap_or_else(|e| panic!("{pair}: {e}"));
                assert!(outcome.is_equivalent(), "{pair}: zoo pair not equivalent");
                runs.push(Value::Object(vec![
                    ("pair".into(), Value::str(&pair)),
                    ("engine".into(), Value::str(engine)),
                    ("threads".into(), Value::U64(threads as u64)),
                    ("stats".into(), outcome.stats().to_json()),
                ]));
            }
        }
    }
    // The shell pipeline sorted by stats-file name
    // (`{pair}.{engine}.t{threads}.json`); match it so diffs against
    // seeded snapshots stay aligned.
    runs.sort_by_key(|r| {
        format!(
            "{}.{}.t{}",
            r.get("pair").and_then(Value::as_str).unwrap_or(""),
            r.get("engine").and_then(Value::as_str).unwrap_or(""),
            r.get("threads").and_then(Value::as_u64).unwrap_or(0)
        )
    });
    runs
}

/// Assembles a `bench-v2` document. `runs` is the `bench-v1`-shaped
/// cell array (possibly empty when only ramps were run), `scenarios`
/// the [`crate::RampResult::to_json`] array (possibly empty for a
/// plain snapshot).
pub fn bench_doc(date: &str, workload: &str, runs: Vec<Value>, scenarios: Vec<Value>) -> Value {
    Value::Object(vec![
        ("schema".into(), Value::str(SCHEMA)),
        ("date".into(), Value::str(date)),
        ("workload".into(), Value::str(workload)),
        ("host".into(), host_json()),
        ("runs".into(), Value::Array(runs)),
        ("scenarios".into(), Value::Array(scenarios)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_674), (2026, 8, 9));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn utc_date_is_iso_shaped() {
        let d = utc_date();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    #[test]
    fn host_census_reports_real_parallelism() {
        let host = host_json();
        let cpus = host.get("cpus").and_then(Value::as_u64).unwrap();
        assert_eq!(
            cpus,
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
        );
        assert!(host.get("os").and_then(Value::as_str).is_some());
    }

    #[test]
    fn bench_doc_is_v2_superset() {
        let doc = bench_doc("2026-08-09", "t7-mixed-zoo", Vec::new(), Vec::new());
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert!(doc.get("runs").and_then(Value::as_array).is_some());
        assert!(doc.get("scenarios").and_then(Value::as_array).is_some());
        assert!(doc.get("host").and_then(|h| h.get("cpus")).is_some());
    }
}
