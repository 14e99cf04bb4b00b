//! Trajectory diffing for CI gating.
//!
//! [`compare`] takes two trajectory documents — `bench-v1` or
//! `bench-v2`, mixed freely — and diffs them cell by cell:
//!
//! - **run cells**, keyed `(pair, engine, threads)`, compare on
//!   `stats.elapsed_us` (lower is better);
//! - **scenario cells** (`bench-v2` only), keyed `(name, threads)`,
//!   compare on `max_sustainable_rps` (higher is better).
//!
//! Each cell's relative delta is normalized so that **positive means
//! better**, and is taken over the better-of-the-two-sides value: a
//! latency's over the old value, `(old - new) / old`, and a rate's over
//! the new value, `(new - old) / new`. A 100x slowdown and a 100x rate
//! drop then both read -9900 %, so one threshold gates both kinds; a
//! rate's delta over the old value could never fall below -100 %. A
//! cell regresses when its delta drops below `-threshold`.
//! Cells present on only one side are reported as new/removed but
//! never fail the gate — adding a scenario to the workload must not
//! break CI.

use obs::json::Value;
use std::fmt;

/// How one cell moved between the old and new trajectories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareOutcome {
    /// Better by more than the threshold.
    Improved,
    /// Within the threshold either way.
    Unchanged,
    /// Worse by more than the threshold — fails the gate.
    Regressed,
    /// Present only in the new trajectory.
    New,
    /// Present only in the old trajectory.
    Removed,
}

impl fmt::Display for CompareOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompareOutcome::Improved => "improved",
            CompareOutcome::Unchanged => "unchanged",
            CompareOutcome::Regressed => "REGRESSED",
            CompareOutcome::New => "new",
            CompareOutcome::Removed => "removed",
        })
    }
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct CellDiff {
    /// Cell key, e.g. `run adder-16/static/t4` or `scenario adder8/t1`.
    pub key: String,
    /// Metric name the cell compares on.
    pub metric: &'static str,
    /// Old metric value, if the cell existed in the old trajectory.
    pub old: Option<f64>,
    /// New metric value, if the cell exists in the new trajectory.
    pub new: Option<f64>,
    /// Relative change normalized so positive = better; `None` when
    /// either side is missing or the value it is taken over (the old
    /// latency, the new rate) is zero.
    pub delta: Option<f64>,
    /// Classification under the gate threshold.
    pub outcome: CompareOutcome,
}

/// The full diff of two trajectories.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// The regression threshold the gate ran under (fraction, e.g.
    /// `0.25` = 25 %).
    pub threshold: f64,
    /// All cells, old-trajectory order first, then new-only cells.
    pub cells: Vec<CellDiff>,
}

impl CompareReport {
    /// Cells classified [`CompareOutcome::Regressed`].
    pub fn regressions(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome == CompareOutcome::Regressed)
            .count()
    }

    /// `true` when no cell regressed — the CI gate passes.
    pub fn gate_passes(&self) -> bool {
        self.regressions() == 0
    }
}

impl fmt::Display for CompareReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compared {} cells at threshold {:.1}%",
            self.cells.len(),
            self.threshold * 100.0
        )?;
        for c in &self.cells {
            let fmt_side = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.1}"));
            let delta = c
                .delta
                .map_or_else(String::new, |d| format!(" ({:+.1}%)", d * 100.0));
            writeln!(
                f,
                "  {:<10} {} [{}] {} -> {}{delta}",
                c.outcome.to_string(),
                c.key,
                c.metric,
                fmt_side(c.old),
                fmt_side(c.new),
            )?;
        }
        let n = self.regressions();
        if n == 0 {
            writeln!(f, "gate: PASS")
        } else {
            writeln!(f, "gate: FAIL ({n} regressed)")
        }
    }
}

/// One comparable cell pulled out of a trajectory document.
struct Cell {
    key: String,
    metric: &'static str,
    value: f64,
    /// `true` for latencies, `false` for rates.
    lower_is_better: bool,
}

/// Diffs two trajectory documents. `threshold` is the tolerated
/// relative worsening (e.g. `0.25` allows 25 % before a cell counts
/// as regressed).
///
/// # Errors
///
/// A diagnostic when either document is not a recognizable trajectory
/// (no `runs` array, or a cell missing its key or metric fields) —
/// the CLI maps this to exit code 2, distinct from the gate's 1.
pub fn compare(old: &Value, new: &Value, threshold: f64) -> Result<CompareReport, String> {
    let old_cells = extract_cells(old).map_err(|e| format!("old trajectory: {e}"))?;
    let new_cells = extract_cells(new).map_err(|e| format!("new trajectory: {e}"))?;

    let mut cells = Vec::new();
    for o in &old_cells {
        match new_cells.iter().find(|n| n.key == o.key) {
            Some(n) => {
                // Normalize so positive delta = better, over the better
                // side's value: the old latency, the new rate.
                let (better, worse) = if o.lower_is_better {
                    (o.value, n.value)
                } else {
                    (n.value, o.value)
                };
                let delta = (better.abs() > f64::EPSILON).then(|| (better - worse) / better);
                let outcome = match delta {
                    Some(d) if d < -threshold => CompareOutcome::Regressed,
                    Some(d) if d > threshold => CompareOutcome::Improved,
                    Some(_) => CompareOutcome::Unchanged,
                    // A zero better side: a latency up from zero or a
                    // rate down to zero regressed without bound; zero on
                    // both sides is unchanged.
                    None if worse.abs() > f64::EPSILON => CompareOutcome::Regressed,
                    None => CompareOutcome::Unchanged,
                };
                cells.push(CellDiff {
                    key: o.key.clone(),
                    metric: o.metric,
                    old: Some(o.value),
                    new: Some(n.value),
                    delta,
                    outcome,
                });
            }
            None => cells.push(CellDiff {
                key: o.key.clone(),
                metric: o.metric,
                old: Some(o.value),
                new: None,
                delta: None,
                outcome: CompareOutcome::Removed,
            }),
        }
    }
    for n in &new_cells {
        if !old_cells.iter().any(|o| o.key == n.key) {
            cells.push(CellDiff {
                key: n.key.clone(),
                metric: n.metric,
                old: None,
                new: Some(n.value),
                delta: None,
                outcome: CompareOutcome::New,
            });
        }
    }
    Ok(CompareReport { threshold, cells })
}

fn extract_cells(doc: &Value) -> Result<Vec<Cell>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("missing `runs` array (not a bench-v1/bench-v2 document)")?;
    let mut cells = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let field = |k: &str| r.get(k).ok_or_else(|| format!("runs[{i}]: missing `{k}`"));
        let pair = field("pair")?.as_str().ok_or("bad pair")?;
        let engine = field("engine")?.as_str().ok_or("bad engine")?;
        let threads = field("threads")?.as_u64().ok_or("bad threads")?;
        let elapsed = field("stats")?
            .get("elapsed_us")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("runs[{i}]: missing `stats.elapsed_us`"))?;
        cells.push(Cell {
            key: format!("run {pair}/{engine}/t{threads}"),
            metric: "elapsed_us",
            value: elapsed,
            lower_is_better: true,
        });
    }
    // `scenarios` is bench-v2 only; absent on bench-v1 documents.
    for (i, s) in doc
        .get("scenarios")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let name = s
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("scenarios[{i}]: missing `name`"))?;
        let threads = s
            .get("threads")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("scenarios[{i}]: missing `threads`"))?;
        let rps = s
            .get("max_sustainable_rps")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("scenarios[{i}]: missing `max_sustainable_rps`"))?;
        cells.push(Cell {
            key: format!("scenario {name}/t{threads}"),
            metric: "max_sustainable_rps",
            value: rps,
            lower_is_better: false,
        });
    }
    if cells.is_empty() {
        return Err("trajectory has no comparable cells".into());
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    fn doc(runs: &str, scenarios: &str) -> Value {
        parse(&format!(
            r#"{{"schema": "bench-v2", "runs": [{runs}], "scenarios": [{scenarios}]}}"#
        ))
        .unwrap()
    }

    fn run_cell(pair: &str, elapsed: u64) -> String {
        format!(
            r#"{{"pair": "{pair}", "engine": "static", "threads": 1, "stats": {{"elapsed_us": {elapsed}}}}}"#
        )
    }

    fn scen_cell(name: &str, rps: f64) -> String {
        format!(r#"{{"name": "{name}", "threads": 1, "max_sustainable_rps": {rps}}}"#)
    }

    #[test]
    fn improvement_and_regression_classified() {
        let old = doc(&run_cell("a", 1000), &scen_cell("s", 10.0));
        let new = doc(&run_cell("a", 2000), &scen_cell("s", 20.0));
        let rep = compare(&old, &new, 0.25).unwrap();
        assert_eq!(rep.cells.len(), 2);
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Regressed); // 2x slower
        assert_eq!(rep.cells[1].outcome, CompareOutcome::Improved); // 2x rate
        assert!(!rep.gate_passes());
        let text = rep.to_string();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("gate: FAIL (1 regressed)"), "{text}");
    }

    #[test]
    fn within_threshold_is_unchanged() {
        let old = doc(&run_cell("a", 1000), "");
        let new = doc(&run_cell("a", 1100), ""); // 10% slower, 25% allowed
        let rep = compare(&old, &new, 0.25).unwrap();
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Unchanged);
        assert!(rep.gate_passes());
        assert!(rep.to_string().contains("gate: PASS"));
    }

    #[test]
    fn new_and_removed_cells_never_fail_the_gate() {
        let old = doc(&run_cell("gone", 500), "");
        let new = doc(&run_cell("fresh", 500), "");
        let rep = compare(&old, &new, 0.1).unwrap();
        assert_eq!(rep.cells.len(), 2);
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Removed);
        assert_eq!(rep.cells[1].outcome, CompareOutcome::New);
        assert!(rep.gate_passes());
    }

    #[test]
    fn bench_v1_documents_compare_fine() {
        let v1 = parse(&format!(
            r#"{{"schema": "bench-v1", "runs": [{}]}}"#,
            run_cell("a", 100)
        ))
        .unwrap();
        let rep = compare(&v1, &v1, 0.1).unwrap();
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Unchanged);
    }

    #[test]
    fn malformed_documents_are_errors() {
        let bad = parse(r#"{"schema": "bench-v2"}"#).unwrap();
        let good = doc(&run_cell("a", 100), "");
        assert!(compare(&bad, &good, 0.1).unwrap_err().contains("runs"));
        let empty = parse(r#"{"runs": []}"#).unwrap();
        assert!(compare(&empty, &good, 0.1)
            .unwrap_err()
            .contains("no comparable cells"));
    }

    #[test]
    fn zero_old_rate_counts_gain_as_improvement() {
        let old = doc("", &scen_cell("s", 0.0));
        let new = doc("", &scen_cell("s", 5.0));
        let rep = compare(&old, &new, 0.1).unwrap();
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Improved);
        assert_eq!(rep.cells[0].delta, Some(1.0));
    }

    #[test]
    fn a_rate_drop_reads_like_the_same_slowdown() {
        // 100x worse either way: -9900 %, regressed even at CI's 9.0.
        let old = doc(&run_cell("a", 1000), &scen_cell("s", 25.0));
        let new = doc(&run_cell("a", 100_000), &scen_cell("s", 0.25));
        let rep = compare(&old, &new, 9.0).unwrap();
        for cell in &rep.cells {
            assert_eq!(cell.outcome, CompareOutcome::Regressed, "{}", cell.key);
            assert!((cell.delta.unwrap() + 99.0).abs() < 1e-9, "{cell:?}");
        }
        assert!(rep.to_string().contains("(-9900.0%)"), "{rep}");
        assert!(
            rep.to_string().contains("gate: FAIL (2 regressed)"),
            "{rep}"
        );
        // 100x better either way: +99 %, improved under a 0.5 threshold.
        let rep = compare(&new, &old, 0.5).unwrap();
        for cell in &rep.cells {
            assert_eq!(cell.outcome, CompareOutcome::Improved, "{}", cell.key);
            assert!((cell.delta.unwrap() - 0.99).abs() < 1e-9, "{cell:?}");
        }
    }

    #[test]
    fn a_rate_that_drops_to_zero_regresses() {
        let old = doc("", &scen_cell("s", 25.0));
        let zero = doc("", &scen_cell("s", 0.0));
        let rep = compare(&old, &zero, 9.0).unwrap();
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Regressed);
        assert!(rep.cells[0].delta.is_none());
        let rep = compare(&zero, &zero, 9.0).unwrap();
        assert_eq!(rep.cells[0].outcome, CompareOutcome::Unchanged);
    }
}
