//! Results of an equivalence check.

use aig::Aig;
use obs::LogHistogram;
use proof::{ClauseId, Proof, ProofStats};
use sat::SolverStats;
use std::fmt;
use std::time::Duration;

/// Wall-clock breakdown of one engine run by pipeline phase. Phases are
/// disjoint (sweeping time excludes the simulation that seeded it), so
/// [`PhaseTimes::sum`] never exceeds [`EngineStats::elapsed`]. It
/// covers nearly all of it: about 98.5% on a 16-bit adder pair and
/// 99.7% on a 5-bit multiplier pair. Assembling the verdict and, in a
/// journaled run, fingerprinting its proof are not timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Miter construction and loading its clauses into the solver (or
    /// monolithic CNF encoding and loading).
    pub miter: Duration,
    /// Random simulation seeding the candidate classes.
    pub sim: Duration,
    /// The sweeping loop: structural merges, candidate SAT calls and
    /// refinements.
    pub sweep: Duration,
    /// The final solve of the asserted miter output.
    pub final_solve: Duration,
    /// Backward trimming of the recorded refutation.
    pub trim: Duration,
    /// Independent proof checking ([`crate::EngineConfig::verify`]).
    pub check: Duration,
}

impl PhaseTimes {
    /// Total time attributed to a phase.
    pub fn sum(&self) -> Duration {
        self.miter + self.sim + self.sweep + self.final_solve + self.trim + self.check
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "miter={:.3}s sim={:.3}s sweep={:.3}s final={:.3}s trim={:.3}s check={:.3}s",
            self.miter.as_secs_f64(),
            self.sim.as_secs_f64(),
            self.sweep.as_secs_f64(),
            self.final_solve.as_secs_f64(),
            self.trim.as_secs_f64(),
            self.check.as_secs_f64()
        )
    }
}

/// Counters describing one run of the equivalence checker, as printed in
/// the experiment tables.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Nodes in the combined miter graph (including difference logic).
    pub miter_nodes: usize,
    /// Nodes belonging to the two circuit cones only.
    pub circuit_nodes: usize,
    /// Initial candidate equivalence classes from simulation.
    pub initial_classes: usize,
    /// Initial candidate nodes (members of live classes).
    pub initial_candidates: usize,
    /// SAT calls issued by the sweeper.
    pub sat_calls: u64,
    /// SAT calls that returned UNSAT (a lemma).
    pub sat_unsat: u64,
    /// SAT calls that returned a counterexample.
    pub sat_cex: u64,
    /// Class refinement rounds triggered by counterexamples.
    pub refinements: u64,
    /// Merges discharged purely by structural-hash resolution.
    pub structural_merges: u64,
    /// Candidate pairs skipped because the per-pair conflict budget
    /// ran out (always zero without a budget).
    pub pairs_skipped: u64,
    /// Equivalence lemmas committed to the clause database.
    pub lemmas: u64,
    /// Proof size before trimming (if proofs were recorded).
    pub proof: Option<ProofStats>,
    /// Proof size after backward trimming (if a refutation was trimmed).
    pub trimmed: Option<ProofStats>,
    /// SAT-solver counters, aggregated over all calls.
    pub solver: SolverStats,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
    /// Per-phase wall-clock breakdown of [`EngineStats::elapsed`].
    pub phases: PhaseTimes,
    /// Distribution of CDCL conflicts per sweeping SAT call.
    pub sat_conflict_hist: LogHistogram,
    /// Distribution of resolution-chain lengths per committed
    /// equivalence lemma (empty with proof logging off).
    pub lemma_chain_hist: LogHistogram,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} classes={} sat={}({}u/{}c) struct={} lemmas={}",
            self.miter_nodes,
            self.initial_classes,
            self.sat_calls,
            self.sat_unsat,
            self.sat_cex,
            self.structural_merges,
            self.lemmas
        )
    }
}

/// A proof-carrying "equivalent" verdict.
#[derive(Debug)]
pub struct Certificate {
    /// The recorded resolution refutation of the miter (present when
    /// proof logging was enabled). Contains the empty clause.
    pub proof: Option<Proof>,
    /// The empty clause's step id inside [`Certificate::proof`].
    pub empty_clause: Option<ClauseId>,
    /// Craig-interpolation partition of the original proof clauses:
    /// which side of the miter each input clause encodes. Always present
    /// for a [`crate::Session::check_monolithic`] check with proofs on;
    /// the sweeping engine has it only when it ran with proofs on and
    /// *without* cross-circuit structural sharing (shared nodes would
    /// make sides ambiguous).
    pub partition: Option<Vec<(ClauseId, cnf::tseitin::Partition)>>,
    /// Run counters.
    pub stats: EngineStats,
}

impl Certificate {
    /// Extracts a Craig interpolant between the two circuits from the
    /// recorded refutation (McMillan's construction): a circuit over the
    /// shared proof variables implied by circuit A's encoding and
    /// inconsistent with circuit B's side of the miter.
    ///
    /// Returns `None` when the certificate has no proof or no clause
    /// partition (the engine must run with proofs on and, for the
    /// sweeping engine, with `share_structure = false`).
    ///
    /// # Errors
    ///
    /// Forwards [`proof::check::CheckError`] if the recorded proof does
    /// not replay (an engine bug).
    pub fn interpolant(
        &self,
    ) -> Option<Result<proof::interpolate::Interpolant, proof::check::CheckError>> {
        let p = self.proof.as_ref()?;
        let partition = self.partition.as_ref()?;
        let root = self.empty_clause?;
        let a_side: std::collections::HashSet<ClauseId> = partition
            .iter()
            .filter(|(_, side)| *side == cnf::tseitin::Partition::A)
            .map(|(id, _)| *id)
            .collect();
        Some(proof::interpolate::interpolant(p, root, |id| {
            !a_side.contains(&id)
        }))
    }

    /// The certificate's metadata in the artifact-neutral form consumed
    /// by `lint::lint_bundle` and serialized as a `.cert` file: the
    /// empty-clause step id and the proof's step counts.
    pub fn info(&self) -> lint::CertificateInfo {
        lint::CertificateInfo {
            empty_clause: self.empty_clause.map(ClauseId::index),
            original: self.proof.as_ref().map(Proof::num_original),
            derived: self.proof.as_ref().map(Proof::num_derived),
            resolutions: self.proof.as_ref().map(Proof::num_resolutions),
        }
    }
}

/// A concrete input pattern on which the two circuits differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The distinguishing input pattern (one bool per primary input).
    pub pattern: Vec<bool>,
    /// Circuit A's outputs on the pattern.
    pub outputs_a: Vec<bool>,
    /// Circuit B's outputs on the pattern.
    pub outputs_b: Vec<bool>,
}

/// Outcome of an equivalence check.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // the hot variant is boxed; stats stay inline for ergonomics
pub enum CecOutcome {
    /// The circuits are equivalent; the certificate carries the proof.
    Equivalent(Box<Certificate>),
    /// The circuits differ; here is a witness.
    Inequivalent {
        /// The distinguishing assignment.
        counterexample: Counterexample,
        /// Run counters.
        stats: EngineStats,
    },
}

impl CecOutcome {
    /// Whether the verdict is "equivalent".
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecOutcome::Equivalent(_))
    }

    /// The run counters of either verdict.
    pub fn stats(&self) -> &EngineStats {
        match self {
            CecOutcome::Equivalent(c) => &c.stats,
            CecOutcome::Inequivalent { stats, .. } => stats,
        }
    }

    /// The certificate, if equivalent.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            CecOutcome::Equivalent(c) => Some(c),
            CecOutcome::Inequivalent { .. } => None,
        }
    }

    /// The counterexample, if inequivalent.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            CecOutcome::Equivalent(_) => None,
            CecOutcome::Inequivalent { counterexample, .. } => Some(counterexample),
        }
    }
}

/// Why an equivalence check could not run or could not be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CecError {
    /// The circuits do not have the same interface.
    InterfaceMismatch {
        /// `(inputs, outputs)` of circuit A.
        a: (usize, usize),
        /// `(inputs, outputs)` of circuit B.
        b: (usize, usize),
    },
    /// The circuits have no outputs to compare.
    NoOutputs,
    /// The emitted proof failed independent checking — an engine bug,
    /// never the caller's fault.
    ProofRejected(proof::check::CheckError),
    /// The claimed counterexample does not distinguish the circuits —
    /// an engine bug, never the caller's fault.
    BogusCounterexample(Counterexample),
    /// An injected crash fired at the named phase checkpoint. Only ever
    /// produced when the caller armed a [`crate::journal::CrashPoint`];
    /// the write-ahead journal is synced up to this checkpoint, so a
    /// subsequent resume continues from it.
    CrashInjected {
        /// The phase whose checkpoint fired (`"miter"`, `"sim"`,
        /// `"sweep"`, `"final_solve"`, `"trim"`).
        phase: String,
    },
    /// The write-ahead journal could not be written, read, or trusted
    /// (I/O failure, mid-file corruption, or a header that does not
    /// match the inputs/options being resumed).
    Journal(String),
    /// During resume, deterministic re-execution produced a checkpoint
    /// that differs from the journaled record with the same sequence
    /// number — the inputs, options, or journal are not what they claim
    /// to be.
    ReplayDivergence {
        /// Sequence number of the mismatching journal record.
        seq: u64,
        /// Human-readable account of the mismatch.
        detail: String,
    },
}

impl CecError {
    /// Rejects a pair that cannot be compared: different input or
    /// output counts, or no outputs at all.
    pub(crate) fn check_interface(a: &Aig, b: &Aig) -> Result<(), CecError> {
        if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
            return Err(CecError::InterfaceMismatch {
                a: (a.num_inputs(), a.num_outputs()),
                b: (b.num_inputs(), b.num_outputs()),
            });
        }
        if a.num_outputs() == 0 {
            return Err(CecError::NoOutputs);
        }
        Ok(())
    }
}

impl fmt::Display for CecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CecError::InterfaceMismatch { a, b } => write!(
                f,
                "interface mismatch: a has {}i/{}o, b has {}i/{}o",
                a.0, a.1, b.0, b.1
            ),
            CecError::NoOutputs => write!(f, "circuits have no outputs to compare"),
            CecError::ProofRejected(e) => write!(f, "emitted proof rejected by checker: {e}"),
            CecError::BogusCounterexample(_) => {
                write!(
                    f,
                    "claimed counterexample does not distinguish the circuits"
                )
            }
            CecError::CrashInjected { phase } => write!(f, "injected crash at phase `{phase}`"),
            CecError::Journal(msg) => write!(f, "journal error: {msg}"),
            CecError::ReplayDivergence { seq, detail } => {
                write!(f, "resume diverged from journal at seq {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for CecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CecError::ProofRejected(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages() {
        let e = CecError::InterfaceMismatch {
            a: (2, 1),
            b: (3, 1),
        };
        assert!(format!("{e}").contains("2i/1o"));
        assert!(format!("{}", CecError::NoOutputs).contains("no outputs"));
    }

    #[test]
    fn outcome_accessors() {
        let stats = EngineStats::default();
        let cex = Counterexample {
            pattern: vec![true],
            outputs_a: vec![true],
            outputs_b: vec![false],
        };
        let o = CecOutcome::Inequivalent {
            counterexample: cex.clone(),
            stats,
        };
        assert!(!o.is_equivalent());
        assert_eq!(o.counterexample(), Some(&cex));
        assert!(o.certificate().is_none());
    }

    #[test]
    fn stats_display_compact() {
        let s = EngineStats::default();
        let text = format!("{s}");
        assert!(text.contains("sat=0"));
    }
}
