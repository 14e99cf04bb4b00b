//! The proof-producing SAT-sweeping equivalence checker — the paper's
//! primary contribution.
//!
//! The engine combines the three reasoning mechanisms of a modern CEC
//! tool, and makes *each of them* contribute resolution inferences to a
//! single proof:
//!
//! 1. **Structural hashing.** Building the miter with a shared hash
//!    table merges syntactically identical logic up front; during the
//!    sweep, nodes whose fanins have been *proven* equivalent are merged
//!    by a short, fixed resolution derivation over their Tseitin
//!    definition clauses — no SAT call at all.
//! 2. **Random simulation** partitions nodes into candidate equivalence
//!    classes and re-partitions them with every counterexample, so the
//!    solver only ever sees plausible equivalences.
//! 3. **Incremental SAT** discharges each candidate pair under
//!    assumptions; the solver's final-conflict analysis yields the
//!    equivalence lemma clauses *with their derivations*, and the lemmas
//!    are committed to the same clause database, so later pairs (and the
//!    final miter refutation) resolve against them.
//!
//! Because every lemma lives in one monotone proof store, the sweep's
//! last step — asserting the miter output and deriving the empty
//! clause — completes a single resolution refutation of the whole miter,
//! checkable by `proof::check::check_refutation` with no knowledge of
//! the engine.

use crate::journal::Durable;
use crate::miter::Miter;
use crate::outcome::{CecError, EngineStats};
use crate::session::{EngineConfig, SharedContext};
use crate::sim::{neighbourhood, SimClasses};
use aig::{Aig, NodeId};
use cnf::tseitin::Partition;
use cnf::{Lit, Var};
use obs::json::Value;
use obs::metrics::{Gauge, Mirror};
use obs::{ArgVal, TID_COORDINATOR};
use proof::{ClauseId, StepRole};
use sat::{SolveResult, Solver, SolverConfig};
use std::collections::HashMap;
use std::time::Instant;

/// The sweep's verdict on one candidate pair.
enum PairVerdict {
    /// Both implications proven; the canonical lemma steps.
    Proved {
        fwd: Option<ClauseId>,
        bwd: Option<ClauseId>,
    },
    /// A model distinguished the pair; refine the classes with this
    /// pattern.
    Refuted { pattern: Vec<bool> },
    /// The per-pair conflict budget ran out. Leaving the pair unmerged
    /// is always sound: the final miter solve does not depend on it.
    Skipped,
}

/// A candidate pair `(node, root, phase)`: the claim `node ≡ root ^
/// phase`.
type Pair = (NodeId, NodeId, bool);

/// A node's merge link: `node ≡ parent ^ phase`, with the two lemma
/// clauses recording the equivalence in the proof (absent when proof
/// logging is off).
#[derive(Clone, Copy, Debug)]
struct MergeLink {
    parent: NodeId,
    phase: bool,
    fwd: Option<ClauseId>, // (¬v_node ∨ v_parent^phase)
    bwd: Option<ClauseId>, // (v_node ∨ ¬v_parent^phase)
}

impl MergeLink {
    /// Node `n`'s two lemma clauses under this link, with their proof
    /// ids: `fwd` then `bwd`.
    fn clauses(&self, n: NodeId) -> [([Lit; 2], Option<ClauseId>); 2] {
        let vn = Var::new(n.index());
        let parent = Var::new(self.parent.index()).lit(self.phase);
        [
            ([vn.negative(), parent], self.fwd),
            ([vn.positive(), !parent], self.bwd),
        ]
    }
}

/// A live counter's name and its source in the run's stats.
type CounterSource = (&'static str, fn(&EngineStats) -> u64);

/// The engine's live counters, each with its source in the run's
/// stats.
const ENGINE_COUNTERS: [CounterSource; 5] = [
    ("cec.sat_calls", |s| s.sat_calls),
    ("cec.conflicts", |s| s.sat_conflict_hist.sum()),
    ("cec.lemmas", |s| s.lemmas),
    ("cec.structural_merges", |s| s.structural_merges),
    ("cec.refinements", |s| s.refinements),
];

pub(crate) struct Sweep<'g> {
    graph: &'g Aig,
    config: &'g EngineConfig,
    ctx: &'g SharedContext,
    /// The one incremental solver: it holds the clause database and the
    /// proof, and discharges every candidate pair.
    solver: Solver,
    /// Tseitin definition clause ids per AND node: `[t1, t2, t3]` for
    /// `(¬x∨a) (¬x∨b) (x∨¬a∨¬b)`. Slot 0 holds the constant's unit
    /// clause `(¬x₀)` three times.
    and_defs: Vec<Option<[Option<ClauseId>; 3]>>,
    /// Nodes whose Tseitin clauses are attached to the solver and whose
    /// variables it may decide; fanin-closed (see
    /// [`Sweep::load_cones`]).
    loaded: Vec<bool>,
    rep: Vec<Option<MergeLink>>,
    /// Structural table: canonical rep-normalized fanin pair → node.
    struct_table: HashMap<(u64, u64), NodeId>,
    /// Interpolation partition of the original clauses (tracked when a
    /// circuit-A boundary is given and proofs are on).
    sides: Option<Vec<(ClauseId, Partition)>>,
    pub(crate) stats: EngineStats,
    /// Publishes the live counters from the stats.
    mirror: Mirror,
    /// Live candidate pairs remaining in the simulation classes.
    queue_candidates: Gauge,
}

impl<'g> Sweep<'g> {
    /// Records every Tseitin clause of `graph` as an original proof
    /// step, in node order, and attaches none: each SAT query attaches
    /// the cones it needs first ([`Sweep::load_cones`]). Until then no
    /// variable is a decision variable.
    ///
    /// `a_boundary`: first node index holding circuit-B-only logic, when
    /// the caller wants original clauses labeled for interpolation.
    pub(crate) fn new(
        graph: &'g Aig,
        config: &'g EngineConfig,
        ctx: &'g SharedContext,
        a_boundary: Option<usize>,
    ) -> Self {
        // The pair budget reaches this solver only while `run` sweeps:
        // the final miter solve on it must run unbudgeted.
        let mut solver = Solver::with_config(SolverConfig {
            proof_logging: config.proof,
            ..SolverConfig::default()
        });
        solver.ensure_vars(graph.len() as u32);
        solver.set_recorder(ctx.recorder.clone(), TID_COORDINATOR);
        let mut sides = a_boundary.filter(|_| config.proof).map(|b| (b, Vec::new()));
        let mut record = |id: Option<ClauseId>, node: usize| {
            if let (Some((boundary, sides)), Some(id)) = (&mut sides, id) {
                let side = if node < *boundary {
                    Partition::A
                } else {
                    Partition::B
                };
                sides.push((id, side));
            }
        };
        // Variable i is AIG node i; the constant node is pinned false.
        let const_id = solver.record_clause(&CONST_CLAUSE);
        record(const_id, 0);
        let mut and_defs: Vec<Option<[Option<ClauseId>; 3]>> = vec![None; graph.len()];
        and_defs[0] = Some([const_id; 3]);
        for (id, fa, fb) in graph.iter_ands() {
            let ids = and_clauses(id, fa, fb).map(|lits| solver.record_clause(&lits));
            for t in ids {
                record(t, id.as_usize());
            }
            and_defs[id.as_usize()] = Some(ids);
        }
        for v in 0..graph.len() {
            solver.set_decision_var(Var::new(v as u32), false);
        }
        let mut mirror = Mirror::default();
        mirror.register(&ctx.metrics, ENGINE_COUNTERS.iter().map(|(name, _)| name));
        Sweep {
            graph,
            config,
            ctx,
            solver,
            and_defs,
            loaded: vec![false; graph.len()],
            rep: vec![None; graph.len()],
            struct_table: HashMap::new(),
            sides: sides.map(|(_, v)| v),
            stats: EngineStats::default(),
            mirror,
            queue_candidates: ctx.metrics.gauge("cec.queue.candidates"),
        }
    }

    /// Attaches the Tseitin clauses of every node in the fanin cones of
    /// `roots` that is not loaded yet, in node order, and makes those
    /// nodes decision variables. The loaded set stays fanin-closed, so
    /// every model the solver returns evaluates each loaded node from
    /// the loaded inputs: a query over loaded nodes gets a genuine
    /// counterexample, and the nodes outside its cones cost it no
    /// propagation and no decision.
    pub(crate) fn load_cones(&mut self, roots: impl IntoIterator<Item = NodeId>) {
        let mut stack: Vec<NodeId> = Vec::new();
        let mut fresh: Vec<NodeId> = Vec::new();
        let loaded = &mut self.loaded;
        let mut visit = |n: NodeId, stack: &mut Vec<NodeId>| {
            if !loaded[n.as_usize()] {
                loaded[n.as_usize()] = true;
                stack.push(n);
            }
        };
        for root in roots {
            visit(root, &mut stack);
            while let Some(n) = stack.pop() {
                fresh.push(n);
                if let Some((fa, fb)) = self.graph.node(n).fanins() {
                    visit(fa.node(), &mut stack);
                    visit(fb.node(), &mut stack);
                }
            }
        }
        fresh.sort_unstable();
        let solver = &mut self.solver;
        for n in fresh {
            let defs = self.and_defs[n.as_usize()];
            match *self.graph.node(n) {
                aig::Node::Const => {
                    solver.attach_clause(&CONST_CLAUSE, defs.expect("constant slot")[0]);
                }
                aig::Node::Input { .. } => {}
                aig::Node::And { a, b } => {
                    let ids = defs.expect("AND node has definitions");
                    for (lits, id) in and_clauses(n, a, b).iter().zip(ids) {
                        solver.attach_clause(lits, id);
                    }
                }
            }
            solver.set_decision_var(Var::new(n.index()), true);
        }
    }

    /// Follows merge links to the root, path-compressing and composing
    /// lemmas. Returns `(root, phase, lemma)` with
    /// `node ≡ root ^ phase`.
    fn find(&mut self, n: NodeId) -> (NodeId, bool, Option<(ClauseId, ClauseId)>) {
        let Some(link) = self.rep[n.as_usize()] else {
            return (n, false, None);
        };
        let (root, pphase, _plemma) = self.find(link.parent);
        if root == link.parent {
            debug_assert!(!pphase);
            let lemma = link.fwd.zip(link.bwd);
            return (root, link.phase, lemma);
        }
        // Compose node ≡ parent^phase with parent ≡ root^pphase.
        let plink = self.rep[link.parent.as_usize()].expect("parent has a link after find");
        debug_assert_eq!(plink.parent, root);
        let phase = link.phase ^ plink.phase;
        let lemma = if self.config.proof {
            let (pf, pb) = (
                plink.fwd.expect("proof mode lemma"),
                plink.bwd.expect("proof mode lemma"),
            );
            let (lf, lb) = (
                link.fwd.expect("proof mode lemma"),
                link.bwd.expect("proof mode lemma"),
            );
            let (fwd_ants, bwd_ants) = if !link.phase {
                ([lf, pf], [lb, pb])
            } else {
                ([lf, pb], [lb, pf])
            };
            Some(self.compose(n, root, phase, fwd_ants, bwd_ants))
        } else {
            None
        };
        self.rep[n.as_usize()] = Some(MergeLink {
            parent: root,
            phase,
            fwd: lemma.map(|l| l.0),
            bwd: lemma.map(|l| l.1),
        });
        (root, phase, lemma)
    }

    /// Derives the two [`StepRole::Composition`] clauses of
    /// `n ≡ root ^ phase`: `(¬v_n ∨ R)` from `fwd_ants` and
    /// `(v_n ∨ ¬R)` from `bwd_ants`, where `R` is `root`'s literal at
    /// `phase`.
    fn compose(
        &mut self,
        n: NodeId,
        root: NodeId,
        phase: bool,
        fwd_ants: [ClauseId; 2],
        bwd_ants: [ClauseId; 2],
    ) -> (ClauseId, ClauseId) {
        let vn = Var::new(n.index());
        let root_lit = Var::new(root.index()).lit(phase);
        let fwd = self
            .solver
            .add_derived_clause(&[vn.negative(), root_lit], &fwd_ants);
        let bwd = self
            .solver
            .add_derived_clause(&[vn.positive(), !root_lit], &bwd_ants);
        self.solver.tag_proof_step(fwd, StepRole::Composition);
        self.solver.tag_proof_step(bwd, StepRole::Composition);
        (fwd, bwd)
    }

    /// Rep-normalized solver literal of an AIG edge, with the edge-level
    /// lemma clauses `(¬A ∨ RA)` / `(A ∨ ¬RA)` where `A` is the edge's
    /// solver literal and `RA` the rep's.
    fn find_edge(&mut self, e: aig::Lit) -> (Lit, Option<(ClauseId, ClauseId)>) {
        let (root, phase, lemma) = self.find(e.node());
        let r = Var::new(root.index()).lit(phase ^ e.is_complemented());
        // Complementing both sides swaps the two lemma clauses.
        let lemma = lemma.map(|(f, b)| if e.is_complemented() { (b, f) } else { (f, b) });
        (r, lemma)
    }

    /// Seeds the candidate classes by random simulation, timing the
    /// phase into [`PhaseTimes::sim`](crate::outcome::PhaseTimes::sim).
    fn simulate_classes(&mut self) -> SimClasses {
        let sim_start = Instant::now();
        let classes =
            SimClasses::from_random_simulation(self.graph, self.config.sim_words, self.config.seed);
        self.stats.phases.sim = sim_start.elapsed();
        self.ctx.recorder.complete(
            "simulation",
            TID_COORDINATOR,
            sim_start,
            self.stats.phases.sim,
        );
        self.stats.initial_classes = classes.num_classes();
        self.stats.initial_candidates = classes.num_candidates();
        classes
    }

    /// Marks one class refinement in the stats and the trace.
    fn record_refinement(&mut self, n: NodeId) {
        self.stats.refinements += 1;
        self.ctx.recorder.instant(
            "refine",
            TID_COORDINATOR,
            &[
                ("node", ArgVal::U64(u64::from(n.index()))),
                ("refinements", ArgVal::U64(self.stats.refinements)),
            ],
        );
    }

    /// Checkpoints the seeded simulation classes.
    fn sim_checkpoint(&self, classes: &SimClasses, durable: &mut Durable) -> Result<(), CecError> {
        durable.checkpoint(
            "sim",
            &[
                ("classes", Value::U64(classes.num_classes() as u64)),
                ("candidates", Value::U64(classes.num_candidates() as u64)),
            ],
        )
    }

    /// Checkpoints the end-of-sweep state.
    fn sweep_checkpoint(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        let proof_len = self.solver.proof().map_or(0, |p| p.len() as u64);
        durable.checkpoint(
            "sweep",
            &[
                ("lemmas", Value::U64(self.stats.lemmas)),
                ("sat_calls", Value::U64(self.stats.sat_calls)),
                ("refinements", Value::U64(self.stats.refinements)),
                ("proof_len", Value::U64(proof_len)),
            ],
        )
    }

    /// Runs the sweep if the config asks for one, timed into the `sweep`
    /// phase and span. The solver holds the pair budget only for the
    /// sweep, so the final miter solve runs unbudgeted.
    pub(crate) fn run(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        if !self.config.sweep {
            return Ok(());
        }
        let start = Instant::now();
        self.solver
            .set_conflict_budget(self.config.pair_conflict_limit);
        let swept = self.sweep_nodes(durable);
        self.solver.set_conflict_budget(None);
        self.publish();
        swept?;
        let time = start.elapsed();
        self.ctx
            .recorder
            .complete("sweep", TID_COORDINATOR, start, time);
        // Simulation was timed inside the run; keep the phases disjoint.
        self.stats.phases.sweep = time.saturating_sub(self.stats.phases.sim);
        Ok(())
    }

    /// Adds each live counter's growth since the last publish.
    fn publish(&mut self) {
        let stats = &self.stats;
        self.mirror
            .publish(ENGINE_COUNTERS.iter().map(|(_, count)| count(stats)));
    }

    /// Records a proven merge: the node's rep link and its two lemmas.
    fn record_merge(&mut self, n: NodeId, link: MergeLink) {
        self.rep[n.as_usize()] = Some(link);
        self.stats.lemmas += 2;
    }

    /// Attaches the pair's two cones and tries to prove `n ≡ root ^
    /// phase` with two incremental SAT calls, one per lemma clause
    /// `(¬v_n ∨ target)` and `(v_n ∨ ¬target)`: each is proven by
    /// refuting its negation under assumptions, then committed in
    /// canonical form (so later pairs reuse it).
    fn prove_pair(&mut self, (n, root, phase): Pair) -> PairVerdict {
        self.load_cones([n, root]);
        let vn = Var::new(n.index());
        let target = Var::new(root.index()).lit(phase);
        let mut lemmas = [None; 2];
        for (lemma, canonical) in lemmas
            .iter_mut()
            .zip([[vn.negative(), target], [vn.positive(), !target]])
        {
            match self.traced_solve(&[!canonical[0], !canonical[1]], n) {
                SolveResult::Sat => {
                    self.stats.sat_cex += 1;
                    return PairVerdict::Refuted {
                        pattern: self.model_pattern(),
                    };
                }
                SolveResult::Unknown => return PairVerdict::Skipped,
                SolveResult::Unsat => self.stats.sat_unsat += 1,
            }
            *lemma = self.commit_lemma(&canonical);
        }
        let [fwd, bwd] = lemmas;
        PairVerdict::Proved { fwd, bwd }
    }

    /// One sweeping SAT call with per-call telemetry: the conflict delta
    /// is always recorded into the run's histogram (cheap); a `sat_call`
    /// span with node / verdict / conflict / decision / propagation args
    /// is recorded when tracing is enabled.
    fn traced_solve(&mut self, assumptions: &[Lit], n: NodeId) -> SolveResult {
        self.stats.sat_calls += 1;
        let before = *self.solver.stats();
        let mut span = self.ctx.recorder.span("sat_call", TID_COORDINATOR);
        let result = self.solver.solve_with(assumptions);
        let after = self.solver.stats();
        let conflicts = after.conflicts - before.conflicts;
        self.stats.sat_conflict_hist.record(conflicts);
        if span.is_enabled() {
            span.arg("node", u64::from(n.index()));
            span.arg(
                "verdict",
                match result {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                },
            );
            span.arg("conflicts", conflicts);
            span.arg("decisions", after.decisions - before.decisions);
            span.arg("propagations", after.propagations - before.propagations);
        }
        result
    }

    /// Commits the solver's final conflict clause and records the
    /// canonical two-literal lemma, derived from it by weakening, as a
    /// proof step. The final clause is over the negations of the pair's
    /// two assumptions, so it is the lemma or a unit that subsumes it:
    /// the lemma is not attached a second time.
    fn commit_lemma(&mut self, canonical: &[Lit]) -> Option<ClauseId> {
        let committed = self.solver.commit_final_clause();
        let p = self.solver.proof()?;
        let id = committed.expect("proof mode final clause id");
        self.stats
            .lemma_chain_hist
            .record(p.step(id).antecedents.len() as u64);
        let lemma = self.solver.record_derived_clause(canonical, &[id]);
        self.solver.tag_proof_step(lemma, StepRole::Lemma);
        Some(lemma)
    }

    /// The input pattern of the solver's current model.
    fn model_pattern(&self) -> Vec<bool> {
        self.graph
            .inputs()
            .iter()
            .map(|node| self.solver.model_value(Var::new(node.index())))
            .collect()
    }

    /// Applies one pair's verdict. A proof merges the node into the
    /// pair's root; a refutation refines the classes with the
    /// counterexample and its distance-1 neighbourhood; a skip counts the
    /// pair as skipped. Merged and skipped nodes leave their class.
    fn apply_verdict(
        &mut self,
        classes: &mut SimClasses,
        (n, root, phase): Pair,
        verdict: PairVerdict,
    ) {
        match verdict {
            PairVerdict::Proved { fwd, bwd } => {
                let link = MergeLink {
                    parent: root,
                    phase,
                    fwd,
                    bwd,
                };
                self.record_merge(n, link);
                classes.remove(n);
            }
            PairVerdict::Refuted { pattern } => {
                // A pattern that does not split the pair would leave it
                // in its class and the sweep would retry it forever. Bit
                // 0 of every neighbourhood word is the pattern itself.
                debug_assert!(
                    separates(self.graph, (n, root, phase), &pattern),
                    "counterexample does not separate node {} from {}",
                    n.index(),
                    root.index()
                );
                self.record_refinement(n);
                for words in neighbourhood(&pattern) {
                    classes.refine(self.graph, &words);
                }
            }
            PairVerdict::Skipped => {
                self.stats.pairs_skipped += 1;
                classes.remove(n);
            }
        }
    }

    /// The single-pass sweep: every node in topological order,
    /// discharged against its class leader.
    fn sweep_nodes(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        let mut classes = self.simulate_classes();
        self.sim_checkpoint(&classes, durable)?;
        let watch_queues = self.ctx.metrics.is_enabled();
        if watch_queues {
            #[allow(clippy::cast_possible_wrap)]
            self.queue_candidates.set(classes.num_candidates() as i64);
        }

        for idx in 1..self.graph.len() {
            let n = NodeId::new(idx as u32);
            // Refresh the live queue-depth gauge at a stride that keeps
            // the class scan off the hot path.
            if watch_queues && idx % 256 == 0 {
                #[allow(clippy::cast_possible_wrap)]
                self.queue_candidates.set(classes.num_candidates() as i64);
                self.publish();
            }
            // Structural merging first: free if the fanins' reps match a
            // previously processed node.
            if self.config.structural_merging && self.try_structural_merge(n).is_some() {
                classes.remove(n);
            }
            // Sweeping against the class leader. A merged or skipped node
            // has left its class; after a refutation the class of `n`
            // necessarily split, so this loop terminates.
            while let Some((leader, compl)) = classes.candidate(n) {
                let (root, pm, _) = self.find(leader);
                debug_assert!(root < n, "roots precede the node being processed");
                let pair = (n, root, pm ^ compl);
                let verdict = self.prove_pair(pair);
                self.apply_verdict(&mut classes, pair, verdict);
                self.publish();
            }
            self.register_structure(n);
        }
        self.sweep_checkpoint(durable)
    }

    /// If `n`'s rep-normalized structure matches an already-processed
    /// node, merges `n` into it by pure resolution.
    fn try_structural_merge(&mut self, n: NodeId) -> Option<()> {
        let (fa, fb) = self.graph.node(n).fanins()?;
        let (ra, lemma_a) = self.find_edge(fa);
        let (rb, lemma_b) = self.find_edge(fb);
        if ra.var() == rb.var() {
            // Degenerate rep structure (x∧x or x∧¬x): leave to the SAT
            // path, which handles it uniformly.
            return None;
        }
        let key = structure_key(ra, rb);
        let &m = self.struct_table.get(&key)?;
        debug_assert_ne!(m, n);
        // n ≡ m exactly (phases are part of the key).
        let lemma = if self.config.proof {
            Some(self.derive_structural(n, m, (fa, ra, lemma_a), (fb, rb, lemma_b)))
        } else {
            None
        };
        // Compose with m's own root.
        let (root, pm, _) = self.find(m);
        let (fwd, bwd) = match lemma {
            Some((nf, nb)) if root != m => {
                let mlink = self.rep[m.as_usize()].expect("m has a link");
                let (mf, mb) = (
                    mlink.fwd.expect("proof mode lemma"),
                    mlink.bwd.expect("proof mode lemma"),
                );
                let (fwd, bwd) = self.compose(n, root, pm, [nf, mf], [nb, mb]);
                (Some(fwd), Some(bwd))
            }
            Some((nf, nb)) => (Some(nf), Some(nb)),
            None => (None, None),
        };
        let link = MergeLink {
            parent: root,
            phase: pm,
            fwd,
            bwd,
        };
        if !self.config.proof {
            // Without proofs we still need the lemma clauses in the
            // database for later calls to use.
            for (lits, _) in link.clauses(n) {
                self.solver.add_clause(&lits);
            }
        }
        self.record_merge(n, link);
        self.stats.structural_merges += 1;
        self.ctx.recorder.instant(
            "structural_merge",
            TID_COORDINATOR,
            &[
                ("node", ArgVal::U64(u64::from(n.index()))),
                ("root", ArgVal::U64(u64::from(root.index()))),
            ],
        );
        Some(())
    }

    /// Derives `(¬v_n ∨ v_m)` and `(v_n ∨ ¬v_m)` by resolution from the
    /// two nodes' Tseitin definitions and the fanin equivalence lemmas.
    /// `n` and `m` are AND nodes whose rep-normalized fanins coincide.
    fn derive_structural(
        &mut self,
        n: NodeId,
        m: NodeId,
        fan_a: (aig::Lit, Lit, Option<(ClauseId, ClauseId)>),
        fan_b: (aig::Lit, Lit, Option<(ClauseId, ClauseId)>),
    ) -> (ClauseId, ClauseId) {
        let vn = Var::new(n.index());
        let vm = Var::new(m.index());
        let [t1, t2, t3] = self.and_defs[n.as_usize()].expect("n is an AND");
        let [u1, u2, u3] = self.and_defs[m.as_usize()].expect("m is an AND");
        let (t1, t2, t3) = (t1.unwrap(), t2.unwrap(), t3.unwrap());
        let (u1, u2, u3) = (u1.unwrap(), u2.unwrap(), u3.unwrap());

        // m's fanins and their edge lemmas, matched against n's rep lits.
        let (mfa, mfb) = self.graph.node(m).fanins().expect("m is an AND");
        let (mra, mlemma_a) = self.find_edge(mfa);
        let (mrb, mlemma_b) = self.find_edge(mfb);
        let (a_n, ra, la) = fan_a;
        let (b_n, rb, lb) = fan_b;
        // Align m's fanins with n's: the keys match as unordered pairs.
        let ((a_m, mla), (b_m, mlb)) = if mra == ra && mrb == rb {
            ((mfa, mlemma_a), (mfb, mlemma_b))
        } else {
            debug_assert!(mra == rb && mrb == ra, "structure keys must match");
            ((mfb, mlemma_b), (mfa, mlemma_a))
        };

        let an = node_lit(a_n);
        let bn = node_lit(b_n);
        let am = node_lit(a_m);
        let bm = node_lit(b_m);

        // fwd: (¬v_n ∨ v_m) from u3 = (v_m ∨ ¬a_m ∨ ¬b_m):
        //   a_m → ra → a_n, b_m → rb → b_n, then t1, t2.
        let mut chain = vec![u3];
        if am != ra {
            chain.push(mla.expect("edge differs from rep, lemma exists").1); // (a_m ∨ ¬ra)
        }
        if an != ra {
            chain.push(la.expect("edge differs from rep, lemma exists").0); // (¬a_n ∨ ra)
        }
        if bm != rb {
            chain.push(mlb.expect("edge differs from rep, lemma exists").1);
        }
        if bn != rb {
            chain.push(lb.expect("edge differs from rep, lemma exists").0);
        }
        chain.push(t1);
        chain.push(t2);
        let fwd = self
            .solver
            .add_derived_clause(&[vn.negative(), vm.positive()], &chain);
        self.solver.tag_proof_step(fwd, StepRole::Structural);

        // bwd: (v_n ∨ ¬v_m) from t3 = (v_n ∨ ¬a_n ∨ ¬b_n):
        //   a_n → ra → a_m, b_n → rb → b_m, then u1, u2.
        let mut chain = vec![t3];
        if an != ra {
            chain.push(la.expect("edge lemma").1); // (a_n ∨ ¬ra)
        }
        if am != ra {
            chain.push(mla.expect("edge lemma").0); // (¬a_m ∨ ra)
        }
        if bn != rb {
            chain.push(lb.expect("edge lemma").1);
        }
        if bm != rb {
            chain.push(mlb.expect("edge lemma").0);
        }
        chain.push(u1);
        chain.push(u2);
        let bwd = self
            .solver
            .add_derived_clause(&[vn.positive(), vm.negative()], &chain);
        self.solver.tag_proof_step(bwd, StepRole::Structural);

        (fwd, bwd)
    }

    /// Registers `n`'s rep-normalized structure for future merges.
    fn register_structure(&mut self, n: NodeId) {
        if !self.config.structural_merging {
            return;
        }
        if self.rep[n.as_usize()].is_some() {
            return; // merged nodes keep their leader's registration
        }
        let Some((fa, fb)) = self.graph.node(n).fanins() else {
            return;
        };
        let (ra, _) = self.find_edge(fa);
        let (rb, _) = self.find_edge(fb);
        if ra.var() == rb.var() {
            return;
        }
        self.struct_table.entry(structure_key(ra, rb)).or_insert(n);
    }

    /// Rebuilds the graph over the merge representatives: every merged
    /// node is replaced by its root, then dangling logic is cleaned up.
    pub(crate) fn rebuild(&mut self) -> Aig {
        let graph = self.graph;
        let mut out = Aig::with_capacity(graph.len());
        let mut map: Vec<aig::Lit> = vec![aig::Lit::FALSE; graph.len()];
        for (id, node) in graph.iter() {
            match *node {
                aig::Node::Const => {}
                aig::Node::Input { .. } => map[id.as_usize()] = out.add_input(),
                aig::Node::And { a, b } => {
                    let (root, phase, _) = self.find(id);
                    if root != id {
                        map[id.as_usize()] = map[root.as_usize()].xor_complement(phase);
                    } else {
                        let la = map[a.node().as_usize()].xor_complement(a.is_complemented());
                        let lb = map[b.node().as_usize()].xor_complement(b.is_complemented());
                        map[id.as_usize()] = out.and(la, lb);
                    }
                }
            }
        }
        for o in graph.outputs() {
            out.add_output(map[o.node().as_usize()].xor_complement(o.is_complemented()));
        }
        out.cleanup()
    }

    /// Hands over the solver (the clause database and proof), the run's
    /// counters and the interpolation labels.
    pub(crate) fn into_parts(self) -> (Solver, EngineStats, Option<Vec<(ClauseId, Partition)>>) {
        (self.solver, self.stats, self.sides)
    }
}

/// Solver literal of an AIG edge: variable `i` is AIG node `i`.
#[inline]
pub(crate) fn node_lit(l: aig::Lit) -> Lit {
    Var::new(l.node().index()).lit(l.is_complemented())
}

/// The constant node's unit clause `(¬x₀)`.
const CONST_CLAUSE: [Lit; 1] = [Var::new(0).negative()];

/// The Tseitin definition clauses of AND node `x = a ∧ b`:
/// `(¬x∨a) (¬x∨b) (x∨¬a∨¬b)`. A two-literal clause repeats its last
/// literal, which the solver deduplicates.
fn and_clauses(x: NodeId, a: aig::Lit, b: aig::Lit) -> [[Lit; 3]; 3] {
    let x = Var::new(x.index()).positive();
    let (a, b) = (node_lit(a), node_lit(b));
    [[!x, a, a], [!x, b, b], [x, !a, !b]]
}

/// Whether simulating `pattern` tells node `n` from `root ^ phase`.
fn separates(graph: &Aig, (n, root, phase): Pair, pattern: &[bool]) -> bool {
    let values = graph.evaluate_nodes(pattern);
    values[n.as_usize()] != values[root.as_usize()] ^ phase
}

/// The CNF a [`Session`](crate::Session) check refutes for this miter:
/// the Tseitin encoding of the miter graph under the identity
/// node-to-variable map, plus the unit clause asserting the miter
/// output — exactly the clauses the sweep records as original proof
/// steps, in the same order. This is the formula to hand to
/// `lint::lint_bundle` or to export as DIMACS next to the proof so a
/// third party can audit the whole pipeline.
pub fn miter_cnf(miter: &Miter) -> cnf::Cnf {
    let mut f = cnf::tseitin::encode(&miter.graph).cnf;
    f.add_clause(vec![node_lit(miter.output)]);
    f
}

#[inline]
fn structure_key(a: Lit, b: Lit) -> (u64, u64) {
    let (x, y) = (a.code() as u64, b.code() as u64);
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::gen::{
        carry_select_adder, kogge_stone_adder, mutate, parity_chain, parity_tree,
        ripple_carry_adder,
    };
    use std::collections::HashSet;

    use crate::outcome::CecOutcome;
    use crate::Session;
    use obs::metrics::Metrics;
    use obs::Recorder;

    fn prove(a: &Aig, b: &Aig, config: EngineConfig) -> CecOutcome {
        Session::new(config, &SharedContext::disabled())
            .check(a, b)
            .expect("prove runs")
    }

    fn reduce(g: &Aig, config: EngineConfig) -> Aig {
        Session::new(config, &SharedContext::disabled()).reduce(g).0
    }

    fn verified() -> EngineConfig {
        EngineConfig {
            verify: true,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn adders_equivalent_with_checked_proof() {
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let outcome = prove(&a, &b, verified());
        let cert = outcome.certificate().expect("equivalent");
        let p = cert.proof.as_ref().expect("proof recorded");
        proof::check::check_refutation(p).expect("refutation checks");
        assert!(cert.stats.sat_calls > 0);
        assert!(cert.stats.lemmas > 0);
    }

    #[test]
    fn identical_circuits_fold_to_trivial_proof() {
        let a = ripple_carry_adder(3);
        let outcome = prove(&a, &a.clone(), verified());
        let cert = outcome.certificate().expect("equivalent");
        // Sharing folds the miter to constant false; no SAT pair calls
        // should be needed at all.
        assert_eq!(cert.stats.sat_cex, 0);
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn mutant_detected_with_counterexample() {
        let a = ripple_carry_adder(3);
        let b = (0..30)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
            .expect("differing mutant");
        let outcome = prove(&a, &b, verified());
        let cex = outcome.counterexample().expect("inequivalent");
        assert_ne!(cex.outputs_a, cex.outputs_b);
        assert_eq!(a.evaluate(&cex.pattern), cex.outputs_a);
        assert_eq!(b.evaluate(&cex.pattern), cex.outputs_b);
    }

    #[test]
    fn structural_merging_fires_on_parity_pair() {
        // Chain and tree parity share rep-normalized XOR structure as
        // soon as the shared subterms are proven equal.
        let a = parity_chain(6);
        let b = parity_tree(6);
        let outcome = prove(&a, &b, verified());
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn no_sweep_mode_still_correct() {
        let opts = EngineConfig {
            sweep: false,
            verify: true,
            ..EngineConfig::default()
        };
        let a = ripple_carry_adder(3);
        let b = carry_select_adder(3, 2);
        let outcome = prove(&a, &b, opts.clone());
        let cert = outcome.certificate().expect("equivalent");
        assert_eq!(cert.stats.sat_calls, 0, "no sweeping SAT pair calls");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
        // Without a sweep only the final solve's load of the output cone
        // stands between its model and a bogus counterexample, which
        // `verify` would reject.
        assert_counterexample(&a, &differing_mutant(&b), opts);
    }

    /// The first mutant of `g` that differs from it on some input.
    fn differing_mutant(g: &Aig) -> Aig {
        (0..)
            .filter_map(|s| mutate(g, s))
            .find(|m| aig::sim::exhaustive_diff(g, m, 8).is_some())
            .expect("differing mutant")
    }

    /// Checks an inequivalent pair and asserts the counterexample holds.
    fn assert_counterexample(a: &Aig, b: &Aig, config: EngineConfig) {
        let outcome = prove(a, b, config);
        let cex = outcome.counterexample().expect("inequivalent");
        assert_eq!(a.evaluate(&cex.pattern), cex.outputs_a);
        assert_eq!(b.evaluate(&cex.pattern), cex.outputs_b);
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn no_proof_mode_answers_without_proof() {
        let opts = EngineConfig {
            proof: false,
            ..EngineConfig::default()
        };
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let outcome = prove(&a, &b, opts);
        let cert = outcome.certificate().expect("equivalent");
        assert!(cert.proof.is_none());
    }

    #[test]
    fn no_structural_merging_ablation() {
        let opts = EngineConfig {
            structural_merging: false,
            verify: true,
            ..EngineConfig::default()
        };
        let a = parity_chain(5);
        let b = parity_tree(5);
        let outcome = prove(&a, &b, opts);
        let cert = outcome.certificate().expect("equivalent");
        assert_eq!(cert.stats.structural_merges, 0);
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn unshared_miter_ablation() {
        let opts = EngineConfig {
            share_structure: false,
            verify: true,
            ..EngineConfig::default()
        };
        // Same circuit twice: without sharing, everything must be proven.
        let a = ripple_carry_adder(3);
        let outcome = prove(&a, &a.clone(), opts);
        let cert = outcome.certificate().expect("equivalent");
        assert!(
            cert.stats.sat_calls > 0 || cert.stats.structural_merges > 0,
            "unshared copies require real work"
        );
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn pair_budget_skips_but_stays_sound() {
        use aig::gen::{array_multiplier, carry_save_multiplier};
        // A brutal 1-conflict budget forces most multiplier pairs to be
        // skipped, yet the final (unbudgeted) solve must still reach the
        // correct verdict with a checkable proof. Without a sweep the
        // budget must not reach the final solve at all.
        let a = array_multiplier(3);
        let b = carry_save_multiplier(3);
        for sweep in [true, false] {
            let opts = EngineConfig {
                sweep,
                pair_conflict_limit: Some(1),
                verify: true,
                ..EngineConfig::default()
            };
            let outcome = prove(&a, &b, opts.clone());
            let cert = outcome.certificate().expect("equivalent");
            proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
            // With the pairs skipped, the final solve's load of the
            // output cone still yields a genuine counterexample.
            assert_counterexample(&a, &differing_mutant(&b), opts);
        }
        // And the default engine (no budget) skips nothing.
        let unbudgeted = prove(&a, &b, verified());
        assert_eq!(unbudgeted.stats().pairs_skipped, 0);
    }

    #[test]
    fn sweep_attaches_only_the_cones_it_checks() {
        // One output: a 4-bit parity (a tree in `a`, a chain in `b`: the
        // sweep's work) AND an 8-input parity chain over other inputs
        // whose last input differs between the two. Nothing in the chain
        // or above it has a candidate partner, so no checked cone reaches
        // it, while the output reads all of it.
        let circuit = |tree: bool, last: usize| {
            let mut g = Aig::new();
            let x = g.add_inputs(4);
            let y = g.add_inputs(9);
            let p = if tree {
                g.xor_all(&x)
            } else {
                x[1..].iter().fold(x[0], |acc, &l| g.xor(acc, l))
            };
            let chain = y[1..7].iter().fold(y[0], |acc, &l| g.xor(acc, l));
            let r = g.xor(chain, y[last]);
            let o = g.and(p, r);
            g.add_output(o);
            g
        };
        let miter = Miter::build(&circuit(true, 7), &circuit(false, 8), true);
        let (config, ctx) = (verified(), SharedContext::disabled());
        let mut sweep = Sweep::new(&miter.graph, &config, &ctx, None);
        // Attached up front, as the sweep once did: the constant's unit
        // clause and three definition clauses per AND.
        let eager = 1 + 3 * miter.graph.num_ands();
        assert_eq!(sweep.solver.num_clauses(), 0);
        sweep.run(&mut Durable::disabled()).expect("sweep runs");
        assert!(sweep.stats.lemmas > 0, "the parities merge");
        let swept = sweep.solver.num_clauses();
        assert!(swept < eager, "{swept} clauses attached, eagerly {eager}");
        sweep.load_cones([miter.output.node()]);
        let solver = &mut sweep.solver;
        assert!(
            solver.num_clauses() >= eager,
            "the output cone is the miter"
        );
        solver.add_clause(&[node_lit(miter.output)]);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let pattern: Vec<bool> = miter
            .graph
            .inputs()
            .iter()
            .map(|n| solver.model_value(Var::new(n.index())))
            .collect();
        assert!(
            miter.evaluate(&pattern).2,
            "the model separates the outputs"
        );
    }

    #[test]
    fn constant_circuits_without_inputs() {
        use aig::Lit;
        // Two input-free circuits: outputs (T, F) vs (T, F) — equivalent.
        let mut a = Aig::new();
        a.add_output(Lit::TRUE);
        a.add_output(Lit::FALSE);
        let b = a.clone();
        let outcome = prove(&a, &b, verified());
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();

        // Outputs (T, F) vs (T, T) — inequivalent, witnessed by the
        // empty input pattern.
        let mut c = Aig::new();
        c.add_output(Lit::TRUE);
        c.add_output(Lit::TRUE);
        let outcome = prove(&a, &c, verified());
        let cex = outcome.counterexample().expect("inequivalent");
        assert!(cex.pattern.is_empty());
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn gate_free_identities_and_inversions() {
        // Pass-through wires vs themselves and vs their complements.
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        a.add_output(x);
        a.add_output(!y);
        let b = a.clone();
        assert!(prove(&a, &b, verified()).is_equivalent());

        let mut c = Aig::new();
        let x = c.add_input();
        let y = c.add_input();
        c.add_output(x);
        c.add_output(y); // second output not inverted
        let outcome = prove(&a, &c, verified());
        let cex = outcome.counterexample().expect("inequivalent");
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn output_repeated_from_same_node() {
        // One node fanning out to several outputs, against a rebuilt copy.
        let mut a = Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let n = a.and(x, y);
        a.add_output(n);
        a.add_output(n);
        a.add_output(!n);
        let b = a.shuffle_rebuild(3);
        let outcome = prove(&a, &b, verified());
        assert!(outcome.is_equivalent());
    }

    #[test]
    fn interface_mismatch_reported() {
        let a = ripple_carry_adder(2);
        let b = ripple_carry_adder(3);
        match Session::new(EngineConfig::default(), &SharedContext::disabled()).check(&a, &b) {
            Err(CecError::InterfaceMismatch { .. }) => {}
            other => panic!("expected interface mismatch, got {other:?}"),
        }
    }

    #[test]
    fn reduce_shrinks_redundant_graphs() {
        use aig::gen::random_aig;
        // Plant redundancy: a graph plus a reshuffled copy of itself,
        // outputs from both copies.
        let base = random_aig(8, 80, 4, 3);
        let copy = base.shuffle_rebuild(17);
        let mut g = Aig::new();
        let inputs = g.add_inputs(8);
        let import = |src: &Aig, g: &mut Aig| -> Vec<aig::Lit> {
            let mut map = vec![aig::Lit::FALSE; src.len()];
            for (id, node) in src.iter() {
                match *node {
                    aig::Node::Const => {}
                    aig::Node::Input { index } => map[id.as_usize()] = inputs[index as usize],
                    aig::Node::And { a, b } => {
                        let la = map[a.node().as_usize()].xor_complement(a.is_complemented());
                        let lb = map[b.node().as_usize()].xor_complement(b.is_complemented());
                        map[id.as_usize()] = g.and_unshared(la, lb);
                    }
                }
            }
            src.outputs()
                .iter()
                .map(|o| map[o.node().as_usize()].xor_complement(o.is_complemented()))
                .collect()
        };
        for l in import(&base, &mut g) {
            g.add_output(l);
        }
        for l in import(&copy, &mut g) {
            g.add_output(l);
        }

        let reduced = reduce(&g, EngineConfig::default());
        reduced.check().unwrap();
        assert!(
            reduced.num_ands() < g.num_ands(),
            "redundant graph must shrink: {} -> {}",
            g.num_ands(),
            reduced.num_ands()
        );
        assert_eq!(aig::sim::exhaustive_diff(&g, &reduced, 8), None);
        // Both output copies now reference shared logic: the reduced
        // graph should be close to a single copy's size.
        assert!(reduced.num_ands() <= base.cleanup().num_ands() + base.num_ands() / 2);
    }

    #[test]
    fn reduce_is_identity_on_already_reduced_graphs() {
        use aig::gen::kogge_stone_adder;
        let g = kogge_stone_adder(6);
        let r1 = reduce(&g, EngineConfig::default());
        let r2 = reduce(&r1, EngineConfig::default());
        assert_eq!(aig::sim::exhaustive_diff(&g, &r1, 12), None);
        assert!(r2.num_ands() <= r1.num_ands());
        // Idempotence up to a couple of nodes (sim seeds differ).
        assert!(r1.num_ands() - r2.num_ands() <= r1.num_ands() / 10 + 1);
    }

    #[test]
    fn trimmed_proof_is_smaller_and_checks() {
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let outcome = prove(&a, &b, verified());
        let cert = outcome.certificate().unwrap();
        let p = cert.proof.as_ref().unwrap();
        let t = proof::trim_refutation(p);
        assert!(t.proof.len() < p.len());
        proof::check::check_refutation(&t.proof).unwrap();
    }

    #[test]
    fn recorder_captures_phases_and_sat_calls() {
        let recorder = Recorder::new();
        let ctx = SharedContext::new(recorder.clone(), Metrics::disabled());
        let config = EngineConfig {
            verify: true,
            ..EngineConfig::default()
        };
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let outcome = Session::new(config, &ctx)
            .check(&a, &b)
            .expect("prove runs");
        let cert = outcome.certificate().expect("equivalent");

        let events = recorder.take_events();
        assert!(!events.is_empty());
        let names: HashSet<&str> = events.iter().map(|e| e.name).collect();
        for phase in [
            "miter",
            "simulation",
            "sweep",
            "final_solve",
            "trim",
            "check",
        ] {
            assert!(names.contains(phase), "missing phase span {phase}");
        }
        assert!(!names.contains("lint"), "the engine runs no lint");
        // One SAT-call span per sweeping call, all on the engine's tid.
        let sat_spans: Vec<u32> = events
            .iter()
            .filter(|e| e.name == "sat_call")
            .map(|e| e.tid)
            .collect();
        assert_eq!(sat_spans.len() as u64, cert.stats.sat_calls);
        assert!(sat_spans.iter().all(|&t| t == TID_COORDINATOR));

        // Phase breakdown: disjoint sub-intervals of the run, so the sum
        // never exceeds the elapsed wall-clock (plus timer noise).
        let sum = cert.stats.phases.sum();
        let elapsed = cert.stats.elapsed;
        assert!(
            sum <= elapsed + std::time::Duration::from_millis(5),
            "phase sum {sum:?} exceeds elapsed {elapsed:?}"
        );
        // Histograms were fed by the run: one chain per lemma a SAT call
        // proved; a structural merge's two lemmas come from no call.
        assert_eq!(cert.stats.sat_conflict_hist.count(), cert.stats.sat_calls);
        assert!(cert.stats.structural_merges > 0);
        assert_eq!(
            cert.stats.lemma_chain_hist.count(),
            cert.stats.lemmas - 2 * cert.stats.structural_merges
        );

        // The sweep's solver records its restarts too: a multiplier
        // check restarts on the coordinator's tid.
        let (a, b) = aig::gen::family_pair("mul", 5).expect("known family");
        let outcome = Session::new(EngineConfig::default(), &ctx)
            .check(&a, &b)
            .expect("prove runs");
        assert!(outcome.is_equivalent());
        let restarts = recorder
            .take_events()
            .iter()
            .filter(|e| e.name == "restart" && e.tid == TID_COORDINATOR)
            .count();
        assert!(restarts > 0, "the check recorded no solver restarts");
    }
}
