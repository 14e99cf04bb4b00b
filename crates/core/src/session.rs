//! The engine's entry point: one equivalence check, or one FRAIG
//! reduction, as an object over shared state.
//!
//! A run takes two different kinds of input: the *knobs* (seeds,
//! budgets, thread counts — plain data, cheap to clone) and the
//! *process-wide handles* it reports into (the trace recorder and the
//! live metrics registry — shared, reference-counted state). A
//! long-running service that checks many pairs concurrently wants to
//! build the handles once and the knobs once, then spin up an arbitrary
//! number of independent checks against them without re-initializing
//! either. This module keeps the two apart:
//!
//! - [`EngineConfig`] is the pure-knob half: `Clone + Send + Sync`
//!   plain data with no interior state, so a server can stamp out one
//!   per request (or share one behind an `Arc`) for free.
//! - [`SharedContext`] is the handle half: the recorder and metrics
//!   registry every check of a process reports into. Cloning it clones
//!   `Arc`s, and *all* clones observe the same registry — which is
//!   exactly what a metrics sampler wants.
//! - [`Session`] borrows a context and owns a config; its
//!   [`check`](Session::check) is one equivalence query and its
//!   [`reduce`](Session::reduce) one FRAIG reduction. Sessions are cheap
//!   (two pointers and a config struct) and independent: many can run
//!   concurrently over one context from different threads.
//!
//! A one-shot caller runs a single session over
//! [`SharedContext::disabled`] (or a context built from its flags).
//! Anything that checks many pairs per process — the `rcecd` daemon,
//! the load generator's in-process mode, batch drivers — holds one
//! [`SharedContext`] and creates a session per check.

use crate::engine::{miter_cnf, node_lit, EngineSelect, Sweep};
use crate::journal::Durable;
use crate::miter::Miter;
use crate::outcome::{CecError, CecOutcome, Certificate, Counterexample, EngineStats};
use aig::Aig;
use cnf::tseitin::Partition;
use obs::json::Value;
use obs::metrics::Metrics;
use obs::{Recorder, TID_COORDINATOR};
use proof::ClauseId;
use sat::SolveResult;
use std::time::Instant;

/// The pure-knob half of a check: everything that decides *what the
/// engine does*, nothing that decides *where it reports*. Plain data —
/// clone freely, send across threads, share one per service.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// 64-bit random simulation words used to seed the candidate
    /// classes.
    pub sim_words: usize,
    /// Seed for the simulation patterns.
    pub seed: u64,
    /// Share the structural hash table across the two circuits when
    /// building the miter.
    pub share_structure: bool,
    /// Merge nodes whose fanins are proven equivalent by pure
    /// resolution (no SAT call).
    pub structural_merging: bool,
    /// Run SAT sweeping at all; with `false` the engine degenerates to
    /// a monolithic solve of the miter (the baseline of experiment T2).
    pub sweep: bool,
    /// Conflict budget per sweeping SAT call. Candidate pairs whose
    /// calls run out are *skipped* (left unmerged), which is always
    /// sound; the final miter solve runs unbudgeted. `None` = complete
    /// sweeping.
    pub pair_conflict_limit: Option<u64>,
    /// Worker threads for the sweeping phase. `1` (the default) runs the
    /// classical sequential sweep; `> 1` deals windows of candidate
    /// pairs round-robin onto persistent worker threads, each with a
    /// private incremental solver kept in sync with the shared clause
    /// database by replaying its clause feed, and stitches the workers'
    /// derivations back into the one global proof in a fixed
    /// worker-then-discovery order — so the verdict *and* the proof are
    /// byte-for-byte deterministic for a given seed and thread count.
    pub threads: usize,
    /// Candidate pairs dealt to each worker per parallel round. The
    /// window trades per-round synchronization cost against lemma
    /// locality: pairs are discharged in topological order, so a small
    /// window means a pair's fanin-cone equivalences were almost always
    /// merged in an earlier round and reach the worker as unit-strength
    /// lemma clauses — keeping per-pair conflict work near the
    /// sequential level — while a large window forces workers to
    /// re-derive in-flight predecessors from scratch.
    ///
    /// `None` (the default) auto-tunes the window between rounds from
    /// the observed per-worker conflict imbalance — a deterministic
    /// signal, so proofs stay byte-reproducible per (seed, threads).
    /// `Some(n)` pins the window.
    pub pairs_per_worker: Option<usize>,
    /// Discharge-scheduling policy; see [`EngineSelect`].
    pub engine: EngineSelect,
    /// Share worker learnt (non-lemma) clauses between parallel-sweep
    /// workers through the clause feed. Every drained learnt clause is
    /// implied by the shared formula alone, and in proof mode its
    /// derivation is stitched into the global proof before the clause
    /// is served to other workers — so sharing never weakens
    /// certification, it only changes which (still fully checked)
    /// proof the run produces. Off by default: proofs then stay
    /// byte-identical to pre-sharing builds.
    pub share_learnts: bool,
    /// Record a resolution proof.
    pub proof: bool,
    /// Run the static-analysis lint pass over the recorded proof before
    /// returning: lint counts land in [`EngineStats::lints`] and the
    /// full report in [`crate::Certificate::lint_report`]. Much cheaper
    /// than [`EngineConfig::verify`]'s full replay, and localizes
    /// defects instead of rejecting wholesale.
    pub lint_proof: bool,
    /// Run the cross-artifact bundle lint on top of the proof lint: the
    /// engine re-derives its own miter CNF via [`miter_cnf`] and checks
    /// AIG↔CNF↔proof↔certificate binding with [`lint::lint_bundle`].
    /// Implies the proof lint; counts and report land in the same
    /// places.
    pub lint_bundle: bool,
    /// Re-check the recorded proof with the independent checker before
    /// returning, and validate counterexamples by evaluation. Failures
    /// become [`CecError`]s instead of silently wrong verdicts.
    pub verify: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sim_words: 16,
            seed: 0xC0FFEE,
            share_structure: true,
            structural_merging: true,
            sweep: true,
            pair_conflict_limit: None,
            threads: 1,
            pairs_per_worker: None,
            engine: EngineSelect::Static,
            share_learnts: false,
            proof: true,
            lint_proof: false,
            lint_bundle: false,
            verify: false,
        }
    }
}

/// The shared-handle half of a check: the read-only context every
/// session of a process borrows. Both members are `Arc`-backed handles
/// whose disabled forms cost one branch per use, so a default context
/// is free; an enabled one is built once (CLI flags, server startup)
/// and observed by every concurrent session.
#[derive(Clone, Debug)]
pub struct SharedContext {
    /// Trace recorder. The default is [`obs::Recorder::disabled`] — no
    /// events, near-zero overhead. Attach an enabled recorder to capture
    /// per-phase spans, per-call SAT telemetry, and solver restart /
    /// reduce-DB events, then export with [`obs::export`]. Parallel
    /// workers record on logical thread ids `1..=threads`; the
    /// coordinator records on `0`.
    pub recorder: Recorder,
    /// Live metrics registry. The default is
    /// [`obs::metrics::Metrics::disabled`] — every update costs one
    /// branch. Attach an enabled registry (and typically an
    /// [`obs::metrics::Sampler`]) to watch the engine's `cec.*`
    /// counters, queue depths, per-worker rates and cache counters as a
    /// `metrics-v1` time series while it runs. Metric names are listed
    /// in DESIGN.md.
    pub metrics: Metrics,
}

impl Default for SharedContext {
    fn default() -> Self {
        SharedContext::disabled()
    }
}

impl SharedContext {
    /// A context with both handles enabled as given.
    pub fn new(recorder: Recorder, metrics: Metrics) -> Self {
        SharedContext { recorder, metrics }
    }

    /// The no-observability context: disabled recorder and metrics.
    pub fn disabled() -> Self {
        SharedContext {
            recorder: Recorder::disabled(),
            metrics: Metrics::disabled(),
        }
    }
}

/// One equivalence check bound to a [`SharedContext`]. Create one per
/// query; run it with [`check`](Session::check) (or
/// [`check_durable`](Session::check_durable) for journaled runs), or
/// reduce a single circuit with [`reduce`](Session::reduce).
///
/// # Example
///
/// ```
/// use aig::gen::{kogge_stone_adder, ripple_carry_adder};
/// use cec::{EngineConfig, Session, SharedContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = SharedContext::disabled();
/// let config = EngineConfig::default();
/// let a = ripple_carry_adder(8);
/// let b = kogge_stone_adder(8);
/// // Many sessions can borrow the same context concurrently.
/// let outcome = Session::new(config, &ctx).check(&a, &b)?;
/// assert!(outcome.is_equivalent());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Session<'c> {
    config: EngineConfig,
    ctx: &'c SharedContext,
}

impl<'c> Session<'c> {
    /// Binds a config to a shared context.
    pub fn new(config: EngineConfig, ctx: &'c SharedContext) -> Self {
        Session { config, ctx }
    }

    /// The knobs this session runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared context this session reports into.
    pub fn context(&self) -> &SharedContext {
        self.ctx
    }

    /// Checks whether `a` and `b` are combinationally equivalent.
    ///
    /// # Errors
    ///
    /// [`CecError::InterfaceMismatch`] / [`CecError::NoOutputs`] for
    /// malformed inputs; with [`EngineConfig::verify`] also
    /// [`CecError::ProofRejected`] / [`CecError::BogusCounterexample`]
    /// if the engine's own output fails independent validation.
    pub fn check(&self, a: &Aig, b: &Aig) -> Result<CecOutcome, CecError> {
        self.check_durable(a, b, &mut Durable::disabled())
    }

    /// [`Session::check`] with a [`Durable`] run-state handle: phase
    /// checkpoints are journaled (or, on resume, validated against the
    /// journal's prefix) and any armed crash point fires at its phase.
    /// With [`Durable::disabled`] this is exactly `check`.
    ///
    /// # Errors
    ///
    /// Everything [`Session::check`] reports, plus
    /// [`CecError::CrashInjected`] / [`CecError::Journal`] /
    /// [`CecError::ReplayDivergence`] from the durability machinery.
    pub fn check_durable(
        &self,
        a: &Aig,
        b: &Aig,
        durable: &mut Durable,
    ) -> Result<CecOutcome, CecError> {
        if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
            return Err(CecError::InterfaceMismatch {
                a: (a.num_inputs(), a.num_outputs()),
                b: (b.num_inputs(), b.num_outputs()),
            });
        }
        if a.num_outputs() == 0 {
            return Err(CecError::NoOutputs);
        }
        let start = Instant::now();
        let m = &self.ctx.metrics;
        m.counter("cec.checks_started").inc();
        durable.bind_metrics(m);
        let rec = &self.ctx.recorder;
        let miter = Miter::build(a, b, self.config.share_structure);
        let miter_time = start.elapsed();
        rec.complete("miter", TID_COORDINATOR, start, miter_time);
        durable.checkpoint(
            "miter",
            &[
                ("nodes", Value::U64(miter.graph.len() as u64)),
                ("output", Value::U64(u64::from(miter.output.raw()))),
            ],
        )?;
        // Clause-side labels for interpolation are only meaningful when
        // no logic is shared across the two circuits.
        let boundary = (!self.config.share_structure).then_some(miter.a_boundary);
        let mut sweep = Sweep::new(&miter.graph, &self.config, self.ctx, boundary);
        sweep.stats.miter_nodes = miter.graph.len();
        sweep.stats.circuit_nodes = miter.circuit_nodes;
        sweep.stats.phases.miter = miter_time;
        sweep.run(durable)?;

        // Assert the miter output and ask for the final verdict.
        let solver = &mut sweep.discharger.solver;
        let out_id = solver.add_clause(&[node_lit(miter.output)]);
        if let (Some(sides), Some(id)) = (&mut sweep.sides, out_id) {
            sides.push((id, Partition::B));
        }
        let final_start = Instant::now();
        let result = solver.solve();
        sweep.stats.phases.final_solve = final_start.elapsed();
        rec.complete(
            "final_solve",
            TID_COORDINATOR,
            final_start,
            sweep.stats.phases.final_solve,
        );
        durable.checkpoint(
            "final_solve",
            &[(
                "result",
                Value::str(match result {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                }),
            )],
        )?;
        let mut stats = sweep.finish();

        match result {
            SolveResult::Unknown => unreachable!("final solve runs without a budget"),
            SolveResult::Unsat => {
                let empty = sweep.discharger.solver.empty_clause_id();
                let partition = sweep.sides.take();
                let proof = sweep.discharger.solver.into_proof();
                let mut lint_report = None;
                if let Some(p) = &proof {
                    stats.proof = Some(p.stats());
                    if self.config.verify {
                        let check_start = Instant::now();
                        proof::check::check_refutation(p).map_err(CecError::ProofRejected)?;
                        stats.phases.check = check_start.elapsed();
                        stats.check_elapsed = Some(stats.phases.check);
                        rec.complete("check", TID_COORDINATOR, check_start, stats.phases.check);
                    }
                    let trim_start = Instant::now();
                    let t = proof::trim_refutation(p);
                    stats.trimmed = Some(t.proof.stats());
                    stats.phases.trim = trim_start.elapsed();
                    rec.complete("trim", TID_COORDINATOR, trim_start, stats.phases.trim);
                    durable.checkpoint("trim", &[("steps", Value::U64(t.proof.len() as u64))])?;
                    if self.config.lint_proof || self.config.lint_bundle {
                        let lint_start = Instant::now();
                        let lint_opts = lint::LintOptions {
                            expect_refutation: true,
                            stitch_boundaries: stats.stitch_boundaries.clone(),
                            ..lint::LintOptions::default()
                        };
                        let mut report = lint::lint_proof(p, &lint_opts);
                        if self.config.lint_bundle {
                            let bundle_cnf = miter_cnf(&miter);
                            let info = lint::CertificateInfo {
                                empty_clause: empty.map(ClauseId::index),
                                rounds: Some(stats.rounds),
                                stitch_boundaries: stats.stitch_boundaries.clone(),
                                original: Some(p.num_original()),
                                derived: Some(p.num_derived()),
                                resolutions: Some(p.num_resolutions()),
                            };
                            let mut bundle = lint::lint_bundle(
                                &lint::Bundle {
                                    aig: Some(&miter.graph),
                                    cnf: Some(&bundle_cnf),
                                    proof: Some(p),
                                    certificate: Some(&info),
                                },
                                &lint_opts,
                            );
                            bundle.absorb(report);
                            report = bundle;
                        }
                        stats.lints = Some(report.counts());
                        lint_report = Some(report);
                        stats.phases.lint = lint_start.elapsed();
                        rec.complete("lint", TID_COORDINATOR, lint_start, stats.phases.lint);
                    }
                }
                let proof_hash = proof.as_ref().map(|p| {
                    let mut bytes = Vec::new();
                    proof::export::write_tracecheck(p, &mut bytes)
                        .expect("write to Vec cannot fail");
                    obs::hash::fnv1a64_hex(&bytes)
                });
                durable.verdict(true, proof_hash.as_deref(), None)?;
                m.counter("cec.checks_completed").inc();
                m.counter("cec.certificates_emitted").inc();
                stats.elapsed = start.elapsed();
                Ok(CecOutcome::Equivalent(Box::new(Certificate {
                    proof,
                    empty_clause: empty,
                    partition,
                    stats,
                    lint_report,
                })))
            }
            SolveResult::Sat => {
                let pattern = sweep.discharger.model_pattern(&miter.graph);
                let outputs_a = a.evaluate(&pattern);
                let outputs_b = b.evaluate(&pattern);
                let counterexample = Counterexample {
                    pattern,
                    outputs_a,
                    outputs_b,
                };
                if self.config.verify && counterexample.outputs_a == counterexample.outputs_b {
                    return Err(CecError::BogusCounterexample(counterexample));
                }
                durable.verdict(false, None, Some(&counterexample.pattern))?;
                m.counter("cec.checks_completed").inc();
                m.counter("cec.counterexamples").inc();
                stats.elapsed = start.elapsed();
                Ok(CecOutcome::Inequivalent {
                    counterexample,
                    stats,
                })
            }
        }
    }

    /// Functionally reduces a circuit by SAT sweeping (FRAIG): nodes
    /// proven equivalent (up to complement) are merged onto one
    /// representative and the graph is rebuilt over the survivors.
    ///
    /// This is the classical dual use of the equivalence-checking
    /// engine — the same simulation / SAT / structural-merge machinery,
    /// pointed at a single circuit instead of a miter. The result is
    /// functionally equivalent to the input on every output (verify
    /// with [`Session::check`] if desired) and never larger after
    /// cleanup. Returns the sweep's counters with it: SAT calls, merges,
    /// refinements, per-phase times, and (in parallel mode) per-worker
    /// stats; `elapsed` covers the sweep and the rebuild.
    ///
    /// Proof logging is disabled internally: there is no refutation to
    /// certify, only a rewritten circuit. The config's `proof` and
    /// `verify` fields are ignored.
    ///
    /// # Example
    ///
    /// ```
    /// use aig::Aig;
    /// use cec::{EngineConfig, Session, SharedContext};
    ///
    /// // Build a graph with two structurally different copies of x XOR y:
    /// // !((x&y) | (!x&!y)) and (x&!y) | (!x&y).
    /// let mut g = Aig::new();
    /// let x = g.add_input();
    /// let y = g.add_input();
    /// let a = g.xor(x, y);
    /// let b = {
    ///     let t0 = g.and(x, !y);
    ///     let t1 = g.and(!x, y);
    ///     g.or(t0, t1)
    /// };
    /// g.add_output(a);
    /// g.add_output(b);
    ///
    /// let ctx = SharedContext::disabled();
    /// let (reduced, _stats) = Session::new(EngineConfig::default(), &ctx).reduce(&g);
    /// assert!(reduced.num_ands() < g.num_ands());
    /// assert_eq!(aig::sim::exhaustive_diff(&g, &reduced, 4), None);
    /// ```
    pub fn reduce(&self, graph: &Aig) -> (Aig, EngineStats) {
        let start = Instant::now();
        let config = EngineConfig {
            proof: false,
            verify: false,
            ..self.config.clone()
        };
        let mut sweep = Sweep::new(graph, &config, self.ctx, None);
        sweep.stats.miter_nodes = graph.len();
        sweep.stats.circuit_nodes = graph.len();
        // A disabled durable never journals and never crashes, so the
        // sweep cannot fail here.
        sweep
            .run(&mut Durable::disabled())
            .expect("disabled durable cannot fail");
        let reduced = sweep.rebuild();
        let mut stats = sweep.finish();
        stats.elapsed = start.elapsed();
        (reduced, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::gen::{kogge_stone_adder, mutate, ripple_carry_adder};

    #[test]
    fn sessions_share_one_context() {
        let ctx = SharedContext::new(Recorder::disabled(), Metrics::new());
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let s1 = Session::new(EngineConfig::default(), &ctx);
        let s2 = Session::new(
            EngineConfig {
                verify: true,
                ..EngineConfig::default()
            },
            &ctx,
        );
        assert!(s1.check(&a, &b).unwrap().is_equivalent());
        assert!(s2.check(&a, &b).unwrap().is_equivalent());
        // Both sessions ticked the same registry.
        let v = ctx.metrics.snapshot(0).expect("metrics enabled");
        let completed = v
            .get("counters")
            .and_then(|c| c.get("cec.checks_completed"))
            .and_then(Value::as_u64);
        assert_eq!(completed, Some(2));
    }

    #[test]
    fn concurrent_sessions_over_one_context() {
        let ctx = SharedContext::disabled();
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let mutant = (0..40)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 12).is_some())
            .expect("differing mutant");
        std::thread::scope(|scope| {
            let eq = scope.spawn(|| {
                Session::new(EngineConfig::default(), &ctx)
                    .check(&a, &b)
                    .unwrap()
                    .is_equivalent()
            });
            let ne = scope.spawn(|| {
                Session::new(EngineConfig::default(), &ctx)
                    .check(&a, &mutant)
                    .unwrap()
                    .is_equivalent()
            });
            assert!(eq.join().unwrap());
            assert!(!ne.join().unwrap());
        });
    }
}
