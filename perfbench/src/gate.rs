//! The exact-count determinism gate.
//!
//! At one thread the engine is deterministic per input: SAT calls,
//! conflicts, propagations and the proof bytes of a pair repeat exactly.
//! The gate records them per pair name, compares every later sighting
//! (within the run, and against earlier runs of the same executable in
//! the same build directory), and reports any difference as a
//! determinism bug. The warm-up pass records the engine counts only;
//! every timed verdict adds the size and hash of its certificate.

use cec::{CecOutcome, EngineStats};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Default)]
pub struct Gate {
    counts: BTreeMap<String, BTreeMap<String, u64>>,
    path: Option<PathBuf>,
}

impl Gate {
    /// A gate that also compares against, and later saves to, `path`.
    pub fn load(path: PathBuf) -> Result<Gate, String> {
        let mut gate = Gate::default();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                let mut it = line.split(' ');
                let (Some(pair), Some(field), Some(value), None) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(format!("{}: malformed line {line:?}", path.display()));
                };
                let value = value
                    .parse()
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                gate.record(pair, field, value)?;
            }
        }
        gate.path = Some(path);
        Ok(gate)
    }

    fn record(&mut self, pair: &str, field: &str, value: u64) -> Result<(), String> {
        let fields = self.counts.entry(pair.to_string()).or_default();
        match fields.get(field) {
            Some(&old) if old != value => Err(format!(
                "determinism: {pair} {field} was {old}, now {value}"
            )),
            Some(_) => Ok(()),
            None => {
                fields.insert(field.to_string(), value);
                Ok(())
            }
        }
    }

    /// The exact engine counts of one check of `pair`.
    pub fn engine(&mut self, pair: &str, stats: &EngineStats) -> Result<(), String> {
        self.record(pair, "sat_calls", stats.sat_calls)?;
        self.record(pair, "conflicts", stats.solver.conflicts)?;
        self.record(pair, "propagations", stats.solver.propagations)
    }

    /// The counts of a verdict, plus the size and hash of its TraceCheck
    /// certificate.
    pub fn verdict(&mut self, pair: &str, outcome: &CecOutcome) -> Result<(), String> {
        self.engine(pair, outcome.stats())?;
        if let Some(p) = outcome.certificate().and_then(|c| c.proof.as_ref()) {
            let mut bytes = Vec::new();
            proof::export::write_tracecheck(p, &mut bytes).map_err(|e| e.to_string())?;
            self.certificate(pair, &bytes)?;
        }
        Ok(())
    }

    /// The size and hash of a TraceCheck certificate of `pair`.
    pub fn certificate(&mut self, pair: &str, bytes: &[u8]) -> Result<(), String> {
        self.record(pair, "tracecheck_bytes", bytes.len() as u64)?;
        self.record(pair, "tracecheck_fnv", obs::hash::fnv1a64(bytes))
    }

    /// Writes every count seen so far for the next run to compare with.
    pub fn save(&self) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut text = String::new();
        for (pair, fields) in &self.counts {
            for (field, value) in fields {
                text.push_str(&format!("{pair} {field} {value}\n"));
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}
