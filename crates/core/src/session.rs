//! The engine's entry point: one equivalence check, or one FRAIG
//! reduction, as an object over shared state.
//!
//! A run takes two different kinds of input: the *knobs* (seeds,
//! budgets, ablation switches — plain data, cheap to clone) and the
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
//!   [`check`](Session::check) is one equivalence query (and
//!   [`check_monolithic`](Session::check_monolithic) the same query by
//!   the single-SAT-call baseline) and its
//!   [`reduce`](Session::reduce) one FRAIG reduction. Sessions are cheap
//!   (two pointers and a config struct) and independent: many can run
//!   concurrently over one context from different threads.
//!
//! A one-shot caller runs a single session over
//! [`SharedContext::disabled`] (or a context built from its flags).
//! Anything that checks many pairs per process — the `rcecd` daemon,
//! the load generator's in-process mode, batch drivers — holds one
//! [`SharedContext`] and creates a session per check.

use crate::engine::{node_lit, Sweep};
use crate::journal::Durable;
use crate::miter::Miter;
use crate::outcome::{CecError, CecOutcome, Certificate, Counterexample, EngineStats};
use aig::Aig;
use cnf::tseitin::{self, Partition};
use cnf::Var;
use obs::json::Value;
use obs::metrics::Metrics;
use obs::{Recorder, TID_COORDINATOR};
use proof::ClauseId;
use sat::{SolveResult, Solver, SolverConfig};
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
    /// Run SAT sweeping at all; with `false` the engine goes straight
    /// from the structurally hashed miter to its final solve — the
    /// `-sweep` ablation of experiment T4. (T2's monolithic baseline is
    /// [`Session::check_monolithic`], which encodes the miter
    /// differently.)
    pub sweep: bool,
    /// Conflict budget per sweeping SAT call. Candidate pairs whose
    /// calls run out are *skipped* (left unmerged), which is always
    /// sound; the final miter solve runs unbudgeted. `None` = complete
    /// sweeping.
    pub pair_conflict_limit: Option<u64>,
    /// Record a resolution proof.
    pub proof: bool,
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
            proof: true,
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
    /// reduce-DB events, then export with [`obs::export`]. A check
    /// records on logical thread id [`obs::TID_COORDINATOR`].
    pub recorder: Recorder,
    /// Live metrics registry. The default is
    /// [`obs::metrics::Metrics::disabled`] — every update costs one
    /// branch. Attach an enabled registry (and typically an
    /// [`obs::metrics::Sampler`]) to watch the engine's `cec.*`
    /// counters, queue depths and cache counters as a
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
/// [`check_durable`](Session::check_durable) for journaled runs, or
/// [`check_monolithic`](Session::check_monolithic) for the
/// single-SAT-call baseline), or reduce a single circuit with
/// [`reduce`](Session::reduce).
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
        CecError::check_interface(a, b)?;
        let start = Instant::now();
        let m = &self.ctx.metrics;
        m.counter("cec.checks_started").inc();
        durable.bind_metrics(m);
        let rec = &self.ctx.recorder;
        let miter = Miter::build(a, b, self.config.share_structure);
        // Clause-side labels for interpolation are only meaningful when
        // no logic is shared across the two circuits.
        let boundary = (!self.config.share_structure).then_some(miter.a_boundary);
        // Recording the miter's clauses counts in the miter phase, as
        // loading them does in `check_monolithic`; the journal write
        // after it does not.
        let mut sweep = Sweep::new(&miter.graph, &self.config, self.ctx, boundary);
        let miter_time = start.elapsed();
        rec.complete("miter", TID_COORDINATOR, start, miter_time);
        durable.checkpoint(
            "miter",
            &[
                ("nodes", Value::U64(miter.graph.len() as u64)),
                ("output", Value::U64(u64::from(miter.output.raw()))),
            ],
        )?;
        sweep.stats.miter_nodes = miter.graph.len();
        sweep.stats.circuit_nodes = miter.circuit_nodes;
        sweep.stats.phases.miter = miter_time;
        sweep.run(durable)?;
        // The final-solve phase attaches the cone of the miter output
        // (the sweep attached only the cones it checked), asserts the
        // output and solves.
        let final_start = Instant::now();
        sweep.load_cones([miter.output.node()]);
        let (mut solver, stats, mut sides) = sweep.into_parts();

        // Assert the miter output; the final solve asks for the verdict.
        let out_id = solver.add_clause(&[node_lit(miter.output)]);
        if let (Some(sides), Some(id)) = (&mut sides, out_id) {
            sides.push((id, Partition::B));
        }
        let inputs: Vec<Var> = miter
            .graph
            .inputs()
            .iter()
            .map(|node| Var::new(node.index()))
            .collect();
        let outcome = self.certify(a, b, solver, final_start, &inputs, stats, sides, durable)?;
        durable.verdict(&outcome)?;
        Ok(self.deliver(outcome, start))
    }

    /// Decides equivalence with the monolithic baseline of experiment
    /// T2: one SAT call on the Tseitin encoding of the whole miter
    /// ([`cnf::tseitin::encode_miter`]), with no structural hashing
    /// across the circuits, no simulation and no intermediate lemmas.
    /// The verdict passes the same checks as [`Session::check`]'s, and
    /// an equivalent verdict always carries the interpolation
    /// partition when proofs are on.
    ///
    /// Reads [`EngineConfig::proof`] and [`EngineConfig::verify`].
    /// Ignores every simulation and sweep field: `sim_words`, `seed`,
    /// `share_structure`, `structural_merging`, `sweep` and
    /// `pair_conflict_limit`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::check`].
    ///
    /// # Example
    ///
    /// ```
    /// use aig::gen::{brent_kung_adder, ripple_carry_adder};
    /// use cec::{EngineConfig, Session, SharedContext};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = ripple_carry_adder(6);
    /// let b = brent_kung_adder(6);
    /// let ctx = SharedContext::disabled();
    /// let outcome = Session::new(EngineConfig::default(), &ctx).check_monolithic(&a, &b)?;
    /// assert!(outcome.is_equivalent());
    /// # Ok(())
    /// # }
    /// ```
    pub fn check_monolithic(&self, a: &Aig, b: &Aig) -> Result<CecOutcome, CecError> {
        CecError::check_interface(a, b)?;
        let start = Instant::now();
        self.ctx.metrics.counter("cec.checks_started").inc();
        let rec = &self.ctx.recorder;
        let enc = tseitin::encode_miter(a, b);
        let mut solver = Solver::with_config(SolverConfig {
            proof_logging: self.config.proof,
            ..SolverConfig::default()
        });
        solver.set_recorder(rec.clone(), TID_COORDINATOR);
        solver.ensure_vars(enc.cnf.num_vars());
        let mut sides = Vec::new();
        for (clause, side) in enc.cnf.clauses().iter().zip(&enc.partition) {
            if let Some(id) = solver.add_clause(clause) {
                sides.push((id, *side));
            }
        }
        let mut stats = EngineStats {
            miter_nodes: a.len() + b.len(),
            circuit_nodes: a.len() + b.len(),
            ..EngineStats::default()
        };
        stats.phases.miter = start.elapsed();
        rec.complete("miter", TID_COORDINATOR, start, stats.phases.miter);
        // Original clauses were added in `enc.cnf` order; ids and labels
        // line up one-to-one (a Tseitin encoding has no tautologies).
        let sides = self.config.proof.then_some(sides);
        let outcome = self.certify(
            a,
            b,
            solver,
            Instant::now(),
            &enc.shared_inputs,
            stats,
            sides,
            &mut Durable::disabled(),
        )?;
        Ok(self.deliver(outcome, start))
    }

    /// The end of every SAT-decided check: the final solve of the
    /// asserted `solver`, then every check its verdict passes before it
    /// leaves. The final-solve phase is timed from `final_start`, which
    /// the caller takes before it finishes loading the solver. UNSAT
    /// records the proof's size, replays it under
    /// [`EngineConfig::verify`] and trims it. SAT reads the
    /// counterexample off the model of the primary-input variables
    /// `inputs` and, under `verify`, rejects one that does not separate
    /// `a` from `b`. `sides` labels the original clauses for
    /// interpolation.
    #[allow(clippy::too_many_arguments)]
    fn certify(
        &self,
        a: &Aig,
        b: &Aig,
        mut solver: Solver,
        final_start: Instant,
        inputs: &[Var],
        mut stats: EngineStats,
        sides: Option<Vec<(ClauseId, Partition)>>,
        durable: &mut Durable,
    ) -> Result<CecOutcome, CecError> {
        let rec = &self.ctx.recorder;
        let result = solver.solve();
        stats.phases.final_solve = final_start.elapsed();
        rec.complete(
            "final_solve",
            TID_COORDINATOR,
            final_start,
            stats.phases.final_solve,
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
        stats.solver = *solver.stats();

        match result {
            SolveResult::Unknown => unreachable!("the final solve runs without a budget"),
            SolveResult::Sat => {
                let pattern: Vec<bool> = inputs.iter().map(|&v| solver.model_value(v)).collect();
                let counterexample = Counterexample {
                    outputs_a: a.evaluate(&pattern),
                    outputs_b: b.evaluate(&pattern),
                    pattern,
                };
                if self.config.verify && counterexample.outputs_a == counterexample.outputs_b {
                    return Err(CecError::BogusCounterexample(counterexample));
                }
                Ok(CecOutcome::Inequivalent {
                    counterexample,
                    stats,
                })
            }
            SolveResult::Unsat => {
                let mut cert = Certificate {
                    empty_clause: solver.empty_clause_id(),
                    proof: solver.into_proof(),
                    partition: sides,
                    stats,
                };
                let Some(p) = &cert.proof else {
                    return Ok(CecOutcome::Equivalent(Box::new(cert)));
                };
                cert.stats.proof = Some(p.stats());
                if self.config.verify {
                    let check_start = Instant::now();
                    proof::check::check_refutation(p).map_err(CecError::ProofRejected)?;
                    cert.stats.phases.check = check_start.elapsed();
                    rec.complete(
                        "check",
                        TID_COORDINATOR,
                        check_start,
                        cert.stats.phases.check,
                    );
                }
                let trim_start = Instant::now();
                let t = proof::trim_refutation(p);
                cert.stats.trimmed = Some(t.proof.stats());
                cert.stats.phases.trim = trim_start.elapsed();
                rec.complete("trim", TID_COORDINATOR, trim_start, cert.stats.phases.trim);
                durable.checkpoint("trim", &[("steps", Value::U64(t.proof.len() as u64))])?;
                Ok(CecOutcome::Equivalent(Box::new(cert)))
            }
        }
    }

    /// Counts a verdict that passed its checks as delivered, and stamps
    /// the check's wall-clock time on it.
    fn deliver(&self, mut outcome: CecOutcome, start: Instant) -> CecOutcome {
        let m = &self.ctx.metrics;
        m.counter("cec.checks_completed").inc();
        let stats = match &mut outcome {
            CecOutcome::Equivalent(cert) => {
                m.counter("cec.certificates_emitted").inc();
                &mut cert.stats
            }
            CecOutcome::Inequivalent { stats, .. } => {
                m.counter("cec.counterexamples").inc();
                stats
            }
        };
        stats.elapsed = start.elapsed();
        outcome
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
    /// refinements and per-phase times; `elapsed` covers the sweep and
    /// the rebuild.
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
        let (solver, mut stats, _) = sweep.into_parts();
        stats.solver = *solver.stats();
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

    fn monolithic(a: &Aig, b: &Aig, config: EngineConfig) -> CecOutcome {
        Session::new(config, &SharedContext::disabled())
            .check_monolithic(a, b)
            .unwrap()
    }

    #[test]
    fn monolithic_equivalent_adders_unsat_with_proof() {
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let config = EngineConfig {
            verify: true,
            ..EngineConfig::default()
        };
        let outcome = monolithic(&a, &b, config);
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn monolithic_mutant_found_sat() {
        let a = ripple_carry_adder(3);
        let b = (0..30)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
            .expect("differing mutant");
        let outcome = monolithic(&a, &b, EngineConfig::default());
        let cex = outcome.counterexample().expect("inequivalent");
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn monolithic_agrees_with_sweeping_engine() {
        let ctx = SharedContext::disabled();
        let pairs: Vec<(Aig, Aig)> = vec![
            (ripple_carry_adder(3), kogge_stone_adder(3)),
            (aig::gen::parity_chain(5), aig::gen::parity_tree(5)),
        ];
        for (a, b) in &pairs {
            let mono = monolithic(a, b, EngineConfig::default());
            let sweep = Session::new(EngineConfig::default(), &ctx)
                .check(a, b)
                .unwrap();
            assert_eq!(mono.is_equivalent(), sweep.is_equivalent());
        }
    }
}
