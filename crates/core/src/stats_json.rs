//! Machine-readable serialization of the engine's run counters.
//!
//! [`EngineStats::to_json`] renders the full stats tree — engine
//! counters, per-phase wall-clock breakdown, per-call histograms,
//! and solver / proof counters — as an
//! [`obs::json::Value`] for the CLI's `--stats-json` flag and the
//! bench harness. Durations are integer microseconds (`*_us` keys):
//! lossless, deterministic, and diffable across runs.

use crate::outcome::{EngineStats, PhaseTimes};
use obs::json::Value;
use proof::ProofStats;
use sat::SolverStats;
use std::time::Duration;

fn us(d: Duration) -> Value {
    Value::U64(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn phases_json(p: &PhaseTimes) -> Value {
    obj(vec![
        ("miter_us", us(p.miter)),
        ("sim_us", us(p.sim)),
        ("sweep_us", us(p.sweep)),
        ("final_solve_us", us(p.final_solve)),
        ("trim_us", us(p.trim)),
        ("check_us", us(p.check)),
        ("sum_us", us(p.sum())),
    ])
}

fn solver_json(s: &SolverStats) -> Value {
    obj(vec![
        ("conflicts", Value::U64(s.conflicts)),
        ("decisions", Value::U64(s.decisions)),
        ("propagations", Value::U64(s.propagations)),
        ("restarts", Value::U64(s.restarts)),
        ("learnt", Value::U64(s.learnt)),
        ("deleted", Value::U64(s.deleted)),
        ("solves", Value::U64(s.solves)),
    ])
}

fn proof_json(p: &ProofStats) -> Value {
    obj(vec![
        ("original", Value::U64(p.original as u64)),
        ("derived", Value::U64(p.derived as u64)),
        ("resolutions", Value::U64(p.resolutions)),
        ("max_width", Value::U64(p.max_width as u64)),
        ("total_literals", Value::U64(p.total_literals)),
        ("max_chain", Value::U64(p.max_chain as u64)),
    ])
}

impl EngineStats {
    /// The full stats tree as a JSON object — the payload of the CLI's
    /// `--stats-json` flag.
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("schema", Value::str("stats-v1")),
            ("miter_nodes", Value::U64(self.miter_nodes as u64)),
            ("circuit_nodes", Value::U64(self.circuit_nodes as u64)),
            ("initial_classes", Value::U64(self.initial_classes as u64)),
            (
                "initial_candidates",
                Value::U64(self.initial_candidates as u64),
            ),
            ("sat_calls", Value::U64(self.sat_calls)),
            ("sat_unsat", Value::U64(self.sat_unsat)),
            ("sat_cex", Value::U64(self.sat_cex)),
            ("refinements", Value::U64(self.refinements)),
            ("structural_merges", Value::U64(self.structural_merges)),
            ("pairs_skipped", Value::U64(self.pairs_skipped)),
            ("lemmas", Value::U64(self.lemmas)),
            ("elapsed_us", us(self.elapsed)),
            ("phases", phases_json(&self.phases)),
            ("sat_conflict_hist", self.sat_conflict_hist.to_json()),
            ("lemma_chain_hist", self.lemma_chain_hist.to_json()),
            ("solver", solver_json(&self.solver)),
        ];
        if let Some(p) = &self.proof {
            members.push(("proof", proof_json(p)));
        }
        if let Some(t) = &self.trimmed {
            members.push(("trimmed", proof_json(t)));
        }
        obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    #[test]
    fn engine_stats_display_golden() {
        let s = EngineStats {
            miter_nodes: 12,
            initial_classes: 3,
            sat_calls: 7,
            sat_unsat: 6,
            sat_cex: 1,
            structural_merges: 2,
            lemmas: 6,
            ..EngineStats::default()
        };
        assert_eq!(
            format!("{s}"),
            "nodes=12 classes=3 sat=7(6u/1c) struct=2 lemmas=6"
        );
    }

    #[test]
    fn phase_times_display_golden() {
        let p = PhaseTimes {
            miter: Duration::from_millis(1),
            sim: Duration::from_millis(2),
            sweep: Duration::from_millis(500),
            final_solve: Duration::from_millis(40),
            ..PhaseTimes::default()
        };
        assert_eq!(
            format!("{p}"),
            "miter=0.001s sim=0.002s sweep=0.500s final=0.040s trim=0.000s check=0.000s"
        );
        assert_eq!(p.sum(), Duration::from_millis(543));
    }

    #[test]
    fn stats_json_round_trips_with_phase_keys() {
        let mut s = EngineStats {
            sat_calls: 3,
            elapsed: Duration::from_micros(1234),
            phases: PhaseTimes {
                miter: Duration::from_micros(200),
                sweep: Duration::from_micros(900),
                check: Duration::from_micros(55),
                ..PhaseTimes::default()
            },
            ..EngineStats::default()
        };
        s.sat_conflict_hist.record(0);
        s.sat_conflict_hist.record(9);

        let text = s.to_json().to_string();
        let v = parse(&text).expect("stats JSON parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("stats-v1"));
        assert_eq!(v.get("sat_calls").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("elapsed_us").and_then(Value::as_u64), Some(1234));
        let phases = v.get("phases").expect("phase breakdown present");
        let keys: Vec<&str> = phases
            .as_object()
            .expect("phases is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "miter_us",
                "sim_us",
                "sweep_us",
                "final_solve_us",
                "trim_us",
                "check_us",
                "sum_us",
            ]
        );
        assert_eq!(phases.get("miter_us").and_then(Value::as_u64), Some(200));
        assert_eq!(phases.get("check_us").and_then(Value::as_u64), Some(55));
        assert_eq!(phases.get("sum_us").and_then(Value::as_u64), Some(1155));
        assert_eq!(
            v.get("sat_conflict_hist")
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            Some(2)
        );
        // The proof block is absent when the run had none; the lint
        // counts and the deleted engines' keys are gone.
        for key in [
            "proof",
            "lints",
            "dispatch",
            "rounds",
            "workers",
            "stitch_boundaries",
            "pair_windows",
        ] {
            assert!(v.get(key).is_none(), "unexpected key {key}");
        }
    }
}
