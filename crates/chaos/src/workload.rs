//! Randomized long-horizon workload driver.
//!
//! One *op* is the full durability loop: generate an equivalent circuit
//! pair → prove it with a journaled engine run → emit and check the
//! bundle → mutate one circuit → re-prove → check that the verdict
//! matches exhaustive ground truth and that the mutant's bundle checks
//! clean too. Everything is a pure function of the workload seed, so a
//! failing op replays exactly; `crash_every` additionally interrupts
//! every n-th op at a random phase and resumes it, folding the
//! crash-recovery path into the same stream.

use crate::bundle::{check_bundle, prove_and_emit, EmitError};
use aig::{gen, Aig};
use cec::{CecError, CecOutcome, CrashMode, CrashPoint, EngineConfig};
use lint::LintOptions;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::Path;

/// Circuit-pair families the generator draws from. Each name yields two
/// structurally different implementations of the same function.
pub const PAIR_NAMES: &[&str] = &[
    "adder",
    "parity",
    "popcount",
    "comparator",
    "decoder",
    "shifter",
    "priority",
];

/// Largest input count the ground-truth oracle will exhaustively sweep.
const ORACLE_MAX_INPUTS: u32 = 14;

/// Builds the named equivalent pair at (a family-clamped) `width`.
/// Returns `None` for unknown names.
#[must_use]
pub fn generate_pair(name: &str, width: usize) -> Option<(Aig, Aig)> {
    let w = |lo: usize, hi: usize| width.clamp(lo, hi);
    Some(match name {
        "adder" => {
            let w = w(2, 6);
            (gen::ripple_carry_adder(w), gen::kogge_stone_adder(w))
        }
        "parity" => {
            let w = w(2, 12);
            (gen::parity_chain(w), gen::parity_tree(w))
        }
        "popcount" => {
            let w = w(2, 8);
            (gen::popcount_serial(w), gen::popcount_csa(w))
        }
        "comparator" => {
            let w = w(2, 6);
            (gen::comparator_ripple(w), gen::comparator_subtract(w))
        }
        "decoder" => {
            let w = w(2, 4);
            (gen::decoder_flat(w), gen::decoder_split(w))
        }
        "shifter" => {
            // Barrel shifters want a power-of-two width.
            let w = if width <= 4 { 4 } else { 8 };
            (gen::barrel_shifter_mux(w), gen::barrel_shifter_log(w))
        }
        "priority" => {
            let w = w(2, 10);
            (
                gen::priority_encoder_chain(w),
                gen::priority_encoder_onehot(w),
            )
        }
        _ => return None,
    })
}

/// Knobs for [`run_workload`].
#[derive(Clone, Debug)]
pub struct WorkloadOptions {
    /// Master seed; every op derives its own generator/mutation seeds
    /// from it.
    pub seed: u64,
    /// Number of ops to execute.
    pub ops: usize,
    /// Engine thread count (1 = sequential sweep).
    pub threads: usize,
    /// Interrupt every n-th op (1-based) with an injected crash at a
    /// random phase, then resume it. `0` disables crash injection.
    pub crash_every: usize,
    /// Keep every op's bundle directories on disk. By default only
    /// failing ops are kept (for post-mortem).
    pub keep: bool,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        WorkloadOptions {
            seed: 1,
            ops: 10,
            threads: 1,
            crash_every: 0,
            keep: false,
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct WorkloadReport {
    /// Ops executed.
    pub ops: usize,
    /// Equivalent verdicts observed (baseline runs plus no-op mutants).
    pub equivalent: usize,
    /// Inequivalent verdicts observed (effective mutants).
    pub inequivalent: usize,
    /// Injected crashes that fired and were resumed.
    pub crashes: usize,
    /// Human-readable failure accounts, empty on success.
    pub failures: Vec<String>,
}

impl WorkloadReport {
    /// True when every op survived every check.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One proved-and-checked bundle, optionally via a crash + resume.
fn prove_checked(
    dir: &Path,
    a: &Aig,
    b: &Aig,
    config: &EngineConfig,
    crash: Option<&CrashPoint>,
    report: &mut WorkloadReport,
    what: &str,
) -> Option<CecOutcome> {
    let outcome = match prove_and_emit(dir, a, b, config, crash.cloned(), false) {
        Ok(outcome) => {
            // The crash phase may simply not occur on this run (e.g.
            // `trim` on an inequivalent pair); completing is fine.
            outcome
        }
        Err(EmitError::Engine(CecError::CrashInjected { .. })) => {
            report.crashes += 1;
            match prove_and_emit(dir, a, b, config, None, true) {
                Ok(outcome) => outcome,
                Err(e) => {
                    report.failures.push(format!("{what}: resume failed: {e}"));
                    return None;
                }
            }
        }
        Err(e) => {
            report.failures.push(format!("{what}: prove failed: {e}"));
            return None;
        }
    };
    let lint = check_bundle(dir, &LintOptions::default());
    if !lint.is_clean() {
        report.failures.push(format!(
            "{what}: emitted bundle rejected by its own checker: {:?}",
            lint.diagnostics()
        ));
        return None;
    }
    Some(outcome)
}

/// Runs `options.ops` randomized durability ops under `dir`.
///
/// Never panics on workload failures — every violated expectation is a
/// line in [`WorkloadReport::failures`]. Bundles of clean ops are
/// removed unless [`WorkloadOptions::keep`] is set; failing ops leave
/// their directories behind.
#[must_use]
pub fn run_workload(dir: &Path, options: &WorkloadOptions) -> WorkloadReport {
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let mut report = WorkloadReport::default();
    for op in 0..options.ops {
        report.ops += 1;
        let failures_before = report.failures.len();
        let name = PAIR_NAMES.choose(&mut rng).expect("non-empty");
        let width = rng.gen_range(2..=8);
        let (a, b) = generate_pair(name, width).expect("registered pair");
        let what = format!("op {op} ({name}/{width})");
        let config = EngineConfig {
            threads: options.threads,
            seed: rng.gen(),
            ..EngineConfig::default()
        };
        let crash = if options.crash_every > 0 && (op + 1) % options.crash_every == 0 {
            let phase = *cec::journal::PHASES.choose(&mut rng).expect("non-empty");
            // "round" checkpoints only exist in parallel sweeps.
            let phase = if phase == "round" && options.threads <= 1 {
                "sweep"
            } else {
                phase
            };
            Some(CrashPoint {
                phase: phase.to_string(),
                hit: 1,
                mode: CrashMode::Error,
            })
        } else {
            None
        };

        let base_dir = dir.join(format!("op{op:04}"));
        if let Some(outcome) = prove_checked(
            &base_dir,
            &a,
            &b,
            &config,
            crash.as_ref(),
            &mut report,
            &what,
        ) {
            if outcome.is_equivalent() {
                report.equivalent += 1;
            } else {
                report
                    .failures
                    .push(format!("{what}: equivalent pair proved inequivalent"));
            }
        }

        // Mutate one side and re-prove; the verdict must match the
        // exhaustive oracle (mutations can be semantic no-ops).
        let mutant_dir = dir.join(format!("op{op:04}-mut"));
        if let Some(mutant) = gen::mutate(&b, rng.gen()) {
            if let Some(outcome) = prove_checked(
                &mutant_dir,
                &a,
                &mutant,
                &config,
                None,
                &mut report,
                &format!("{what} mutant"),
            ) {
                if outcome.is_equivalent() {
                    report.equivalent += 1;
                } else {
                    report.inequivalent += 1;
                }
                if a.num_inputs() as u32 <= ORACLE_MAX_INPUTS {
                    let truth = aig::sim::exhaustive_diff(&a, &mutant, ORACLE_MAX_INPUTS);
                    if truth.is_none() != outcome.is_equivalent() {
                        report.failures.push(format!(
                            "{what} mutant: engine verdict {} but ground truth {}",
                            if outcome.is_equivalent() {
                                "equivalent"
                            } else {
                                "inequivalent"
                            },
                            if truth.is_none() {
                                "equivalent"
                            } else {
                                "inequivalent"
                            },
                        ));
                    }
                }
            }
        }

        if !options.keep && report.failures.len() == failures_before {
            let _ = fs::remove_dir_all(&base_dir);
            let _ = fs::remove_dir_all(&mutant_dir);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chaos-workload-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn every_pair_family_generates_an_equivalent_pair() {
        for name in PAIR_NAMES {
            for width in [2, 5, 9] {
                let (a, b) = generate_pair(name, width).expect("registered");
                assert_eq!(a.num_inputs(), b.num_inputs(), "{name}/{width}");
                assert!(a.num_inputs() as u32 <= ORACLE_MAX_INPUTS, "{name}/{width}");
                assert!(
                    aig::sim::exhaustive_diff(&a, &b, ORACLE_MAX_INPUTS).is_none(),
                    "{name}/{width} pair is not equivalent"
                );
            }
        }
        assert!(generate_pair("warp", 4).is_none());
    }

    #[test]
    fn short_workload_is_clean_and_deterministic() {
        let dir = tmp("short");
        let options = WorkloadOptions {
            seed: 7,
            ops: 3,
            crash_every: 2,
            ..WorkloadOptions::default()
        };
        let r1 = run_workload(&dir, &options);
        assert!(r1.is_clean(), "{:?}", r1.failures);
        assert_eq!(r1.ops, 3);
        assert!(r1.crashes >= 1, "crash_every=2 over 3 ops must fire");
        // Clean ops clean up after themselves.
        let leftovers = fs::read_dir(&dir).map_or(0, Iterator::count);
        assert_eq!(leftovers, 0);

        let r2 = run_workload(&dir, &options);
        assert_eq!(r1.equivalent, r2.equivalent);
        assert_eq!(r1.inequivalent, r2.inequivalent);
        assert_eq!(r1.crashes, r2.crashes);
        let _ = fs::remove_dir_all(&dir);
    }
}
