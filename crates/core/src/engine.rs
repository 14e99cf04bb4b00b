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
use crate::outcome::{CecError, DispatchStats, EngineStats, WorkerStats};
use crate::session::{EngineConfig, SharedContext};
use crate::sim::SimClasses;
use aig::{Aig, NodeId};
use cnf::tseitin::Partition;
use cnf::{Lit, Var};
use obs::json::Value;
use obs::metrics::{self, Metrics};
use obs::{worker_tid, ArgVal, Recorder, TID_COORDINATOR};
use proof::{ClauseId, StepRole};
use sat::{SolveResult, Solver};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Which discharge-scheduling policy the sweeping engine uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineSelect {
    /// One engine for every candidate pair: SAT, budgeted uniformly by
    /// [`EngineConfig::pair_conflict_limit`] (or not at all).
    #[default]
    Static,
    /// Per-pair dispatch from static hardness analysis plus the
    /// observed conflict histogram: easy small-support pairs get a
    /// cone-bounded BDD probe first (a refutation refines the classes
    /// with no SAT call; a confirmation unlocks an unbudgeted lemma
    /// extraction), every SAT call gets a conflict budget scaled by the
    /// pair's static score, and over-budget pairs are *deferred* to an
    /// end-of-round hard queue and retried unbudgeted after the main
    /// sweep instead of stalling a worker. Verdicts and proof
    /// certification are identical to [`EngineSelect::Static`]: merges
    /// only ever come from SAT-derived lemmas, and the final miter
    /// solve is unbudgeted either way.
    Adaptive,
}

/// A [`Discharger`]'s verdict on one candidate pair. Clause ids are in
/// the proof id space of the solver that discharged it.
enum PairVerdict {
    /// Both implications proven; the canonical lemma steps (the roots a
    /// parallel worker's proof is stitched from).
    Proved {
        fwd: Option<ClauseId>,
        bwd: Option<ClauseId>,
    },
    /// A model or a BDD probe distinguished the pair; refine the classes
    /// with this pattern.
    Refuted { pattern: Vec<bool> },
    /// The per-pair conflict budget ran out. Leaving the pair unmerged
    /// is always sound: the final miter solve does not depend on it.
    Skipped,
}

/// The live counters a [`Discharger`] ticks: per SAT call, per conflict,
/// and per committed lemma.
struct LiveCounters {
    sat_calls: metrics::Counter,
    conflicts: metrics::Counter,
    lemmas: metrics::Counter,
}

impl LiveCounters {
    /// The sequential sweep's engine-wide `cec.sat_calls` /
    /// `cec.conflicts`. Its lemma counter stays disconnected:
    /// `cec.lemmas` counts the lemmas of merged pairs, ticked by
    /// [`Sweep::record_merge`].
    fn coordinator(m: &Metrics) -> Self {
        LiveCounters {
            sat_calls: m.counter("cec.sat_calls"),
            conflicts: m.counter("cec.conflicts"),
            lemmas: metrics::Counter::default(),
        }
    }

    /// Parallel worker `w`'s own `cec.worker<w>.*` cells, ticked from the
    /// worker thread so the sampler sees intra-round progress.
    fn worker(m: &Metrics, w: usize) -> Self {
        LiveCounters {
            sat_calls: m.counter(&format!("cec.worker{w}.sat_calls")),
            conflicts: m.counter(&format!("cec.worker{w}.conflicts")),
            lemmas: m.counter(&format!("cec.worker{w}.lemmas")),
        }
    }
}

/// Discharges candidate pairs on one incremental solver: the optional
/// BDD probe, the pair's conflict budget, two SAT calls under
/// assumptions, and the commit of each proven direction as a canonical
/// lemma clause that later calls resolve against. The sequential sweep
/// owns one on the coordinator's solver; each parallel worker owns one
/// on its private solver.
pub(crate) struct Discharger {
    pub(crate) solver: Solver,
    /// Trace recorder and this solver's logical thread id in the trace.
    recorder: Recorder,
    tid: u32,
    /// Counters of the calls made since the owner last took them
    /// ([`Discharger::take_tally`]). `conflicts` and `elapsed` are left
    /// to the owner.
    tally: WorkerStats,
    /// BDD-probe and budget counters since the last take.
    dispatch: DispatchStats,
    live: LiveCounters,
}

impl Discharger {
    /// A discharger on a fresh solver over `num_vars` variables, with
    /// the recorder attached so the solver's restart / reduce-DB events
    /// land in the trace.
    fn new(
        proof_mode: bool,
        num_vars: u32,
        recorder: &Recorder,
        tid: u32,
        live: LiveCounters,
    ) -> Self {
        let mut solver = if proof_mode {
            Solver::with_proof()
        } else {
            Solver::new()
        };
        solver.ensure_vars(num_vars);
        solver.set_recorder(recorder.clone(), tid);
        Discharger {
            solver,
            recorder: recorder.clone(),
            tid,
            tally: WorkerStats::default(),
            dispatch: DispatchStats::default(),
            live,
        }
    }

    /// Hands over the counters accumulated since the last take.
    fn take_tally(&mut self) -> (WorkerStats, DispatchStats) {
        (
            std::mem::take(&mut self.tally),
            std::mem::take(&mut self.dispatch),
        )
    }

    /// Discharges `v_n ≡ target` as routed: optional BDD probe, the
    /// pair's conflict budget, then the two-call SAT proof.
    fn dispatch_pair(&mut self, graph: &Aig, n: NodeId, target: Lit, d: Dispatch) -> PairVerdict {
        let budget = if d.try_bdd {
            self.dispatch.bdd_calls += 1;
            match bdd_probe(graph, n, target, BDD_PROBE_NODE_LIMIT) {
                BddProbe::Refuted(pattern) => {
                    self.dispatch.bdd_refuted += 1;
                    return PairVerdict::Refuted { pattern };
                }
                BddProbe::Confirmed => {
                    // The pair is equivalent; extract the lemmas
                    // unbudgeted so the confirmation cannot be wasted.
                    self.dispatch.bdd_confirmed += 1;
                    None
                }
                BddProbe::Inconclusive => {
                    self.dispatch.bdd_overflow += 1;
                    d.budget
                }
            }
        } else {
            d.budget
        };
        record_budget(&mut self.dispatch, budget);
        self.solver.set_conflict_budget(budget);
        self.prove_pair(graph, n, target)
    }

    /// Attempts to prove `v_n ≡ target` with two incremental SAT calls,
    /// one per lemma clause `(¬v_n ∨ target)` and `(v_n ∨ ¬target)`:
    /// each is proven by refuting its negation under assumptions, then
    /// committed in canonical form (so later pairs reuse it).
    fn prove_pair(&mut self, graph: &Aig, n: NodeId, target: Lit) -> PairVerdict {
        let vn = Var::new(n.index());
        let mut lemmas = [None; 2];
        for (lemma, canonical) in lemmas
            .iter_mut()
            .zip([[vn.negative(), target], [vn.positive(), !target]])
        {
            match self.traced_solve(&[!canonical[0], !canonical[1]], n) {
                SolveResult::Sat => {
                    self.tally.sat_cex += 1;
                    return PairVerdict::Refuted {
                        pattern: self.model_pattern(graph),
                    };
                }
                SolveResult::Unknown => return PairVerdict::Skipped,
                SolveResult::Unsat => self.tally.sat_unsat += 1,
            }
            *lemma = self.commit_lemma(&canonical);
        }
        self.tally.merges += 1;
        let [fwd, bwd] = lemmas;
        PairVerdict::Proved { fwd, bwd }
    }

    /// One sweeping SAT call with per-call telemetry: the conflict delta
    /// is always recorded into the tally's histogram (cheap) and into
    /// the live call/conflict counters (one branch each when metrics are
    /// off); a `sat_call` span with node / verdict / conflict / decision
    /// / propagation args is recorded when tracing is enabled.
    fn traced_solve(&mut self, assumptions: &[Lit], n: NodeId) -> SolveResult {
        self.tally.sat_calls += 1;
        let before = *self.solver.stats();
        let mut span = self.recorder.span("sat_call", self.tid);
        let result = self.solver.solve_with(assumptions);
        let after = self.solver.stats();
        let conflicts = after.conflicts - before.conflicts;
        self.tally.conflict_hist.record(conflicts);
        self.live.sat_calls.inc();
        self.live.conflicts.add(conflicts);
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

    /// Commits the solver's final conflict clause and derives the
    /// canonical two-literal lemma from it by weakening.
    fn commit_lemma(&mut self, canonical: &[Lit]) -> Option<ClauseId> {
        let committed = self.solver.commit_final_clause();
        self.tally.lemmas += 1;
        self.live.lemmas.inc();
        if self.solver.proof_logging() {
            let id = committed.expect("proof mode final clause id");
            if let Some(p) = self.solver.proof() {
                self.tally
                    .lemma_chain_hist
                    .record(p.step(id).antecedents.len() as u64);
            }
            let lemma = self.solver.add_derived_clause(canonical, &[id]);
            self.solver.tag_proof_step(lemma, StepRole::Lemma);
            Some(lemma)
        } else {
            // Still add the canonical form for propagation strength.
            self.solver.add_clause(canonical);
            None
        }
    }

    /// The input pattern of the solver's current model.
    pub(crate) fn model_pattern(&self, graph: &Aig) -> Vec<bool> {
        graph
            .inputs()
            .iter()
            .map(|node| self.solver.model_value(Var::new(node.index())))
            .collect()
    }
}

/// One clause of the shared database feed: the global clause stream
/// (initial snapshot, then every lemma in merge order) that workers
/// replay incrementally to stay in sync between rounds.
#[derive(Clone)]
struct FeedClause {
    lits: Vec<Lit>,
    /// Global proof step id (proof mode only).
    id: Option<ClauseId>,
    /// The worker whose proved pair produced this clause; that worker
    /// already committed the canonical lemma locally and skips the
    /// entry. `None` for snapshot and structural-merge clauses.
    origin: Option<usize>,
    /// The clause is a shared worker learnt (not a lemma or an original
    /// snapshot clause); counted separately on import.
    learnt: bool,
}

/// Maximum literal count of a learnt clause exported for cross-worker
/// sharing: short clauses prune the most search per byte shipped.
const SHARE_LEARNT_MAX_LEN: usize = 8;

/// Maximum learnt clauses one worker exports per round, bounding feed
/// growth (every export is replayed by every other worker).
const SHARE_LEARNT_MAX_PER_ROUND: usize = 32;

/// One round's work order for a parallel-sweep worker thread: the
/// worker's own state (shipped back and forth so the sequential merge
/// phase can read its proof), the feed entries added since the last
/// round, and the shard of pairs to discharge.
struct WorkerJob {
    state: WorkerState,
    delta: std::sync::Arc<[FeedClause]>,
    shard: Vec<(usize, NodeId, Lit, Dispatch)>,
}

/// What a worker thread sends back after a round.
struct WorkerReport {
    state: WorkerState,
    /// Verdicts in discovery order, keyed by index into the round's
    /// pair list.
    results: Vec<(usize, PairVerdict)>,
    stats: WorkerStats,
    /// BDD-probe and budget counters of this round, plus its learnt
    /// import count.
    dispatch: DispatchStats,
    /// Learnt clauses drained from the worker's solver this round for
    /// cross-worker sharing, as `(literals, local proof id)`. Empty
    /// unless [`EngineConfig::share_learnts`] is on.
    learnts: Vec<(Vec<Lit>, Option<ClauseId>)>,
}

/// A persistent parallel-sweep worker: a [`Discharger`] whose private
/// incremental solver lives across rounds (keeping its learnt clauses
/// and saved phases), synced with the shared clause database by
/// replaying the feed, plus the local→global proof id translation
/// accumulated over all merges so far. Fully deterministic given its
/// shard and feed history.
struct WorkerState {
    discharger: Discharger,
    /// Local proof step id → global proof id. Originals are filled on
    /// sync; derived steps are filled by [`proof::Proof::merge_cone`].
    translation: Vec<Option<ClauseId>>,
    /// Export learnt clauses for cross-worker sharing each round.
    share_learnts: bool,
}

impl WorkerState {
    /// Replays the feed entries added since the last round, skipping
    /// the clauses this worker proved itself (already present locally;
    /// their proof steps are translated at merge time instead), and
    /// counts the learnt-flagged clauses imported.
    fn sync(&mut self, me: usize, delta: &[FeedClause]) {
        let d = &mut self.discharger;
        for fc in delta {
            if fc.origin == Some(me) {
                continue;
            }
            if fc.learnt {
                d.dispatch.learnts_imported += 1;
            }
            let local = d.solver.add_clause(&fc.lits);
            if d.solver.proof_logging() {
                let local = local.expect("feed holds no tautologies").as_usize();
                if self.translation.len() <= local {
                    self.translation.resize(local + 1, None);
                }
                debug_assert!(self.translation[local].is_none());
                self.translation[local] = fc.id;
            }
        }
    }

    /// Runs one round: catches up with the feed, then discharges the
    /// shard of `(index into the round's pair list, node, target,
    /// dispatch)` entries.
    fn round(
        mut self,
        me: usize,
        graph: &Aig,
        delta: &[FeedClause],
        shard: &[(usize, NodeId, Lit, Dispatch)],
    ) -> WorkerReport {
        let start = Instant::now();
        let mut span = self
            .discharger
            .recorder
            .span("worker_round", self.discharger.tid);
        span.arg("pairs", shard.len());
        span.arg("feed_delta", delta.len());
        let conflicts_before = self.discharger.solver.stats().conflicts;
        self.sync(me, delta);
        let results = shard
            .iter()
            .map(|&(pair_idx, n, target, d)| {
                (pair_idx, self.discharger.dispatch_pair(graph, n, target, d))
            })
            .collect();
        // Offer this round's freshly learnt clauses for cross-worker
        // sharing. The drain cursor is monotone, so a clause is only
        // ever offered once; short clauses first-come (insertion order),
        // which is deterministic given the shard and feed history.
        let learnts = if self.share_learnts {
            self.discharger
                .solver
                .drain_new_learnts(SHARE_LEARNT_MAX_LEN, SHARE_LEARNT_MAX_PER_ROUND)
        } else {
            Vec::new()
        };
        let (mut stats, dispatch) = self.discharger.take_tally();
        stats.conflicts = self.discharger.solver.stats().conflicts - conflicts_before;
        stats.elapsed = start.elapsed();
        WorkerReport {
            state: self,
            results,
            stats,
            dispatch,
            learnts,
        }
    }
}

/// How one candidate pair is to be discharged, decided by the
/// coordinator (the [`AdaptivePolicy`] in adaptive mode, a constant in
/// static mode) and shipped to workers alongside the pair.
#[derive(Clone, Copy, Debug)]
struct Dispatch {
    /// Conflict budget for this pair's SAT calls (`None` = unbudgeted).
    budget: Option<u64>,
    /// Try a cone-bounded BDD probe before SAT.
    try_bdd: bool,
}

impl Dispatch {
    /// Static-mode dispatch: uniform budget, SAT only.
    fn fixed(budget: Option<u64>) -> Dispatch {
        Dispatch {
            budget,
            try_bdd: false,
        }
    }
}

/// Node limit of a per-pair BDD probe. Probes are gated to small
/// supports, so this is generous; an overflow just falls back to SAT.
const BDD_PROBE_NODE_LIMIT: usize = 20_000;

/// Outcome of a cone-bounded BDD probe of one candidate pair.
enum BddProbe {
    /// The cones differ; this full-input pattern distinguishes them.
    /// Sound to refine the classes with — no proof obligation, since
    /// refinements never enter the proof.
    Refuted(Vec<bool>),
    /// The cones are extensionally equal. Advisory only: the merge
    /// lemma still comes from SAT so the proof stays self-contained.
    Confirmed,
    /// Node limit exceeded; decide by SAT.
    Inconclusive,
}

/// Probes `v_n ≡ target` by building both cones' BDDs under the natural
/// cone-input order.
fn bdd_probe(graph: &Aig, n: NodeId, target: Lit, node_limit: usize) -> BddProbe {
    let t_lit = NodeId::new(target.var().index()).lit(target.is_negative());
    let (cone, input_map) = graph.extract_cone(&[n.pos(), t_lit]);
    let mut mgr = bdd::Manager::new(node_limit);
    let Ok(outs) = mgr.from_aig(&cone, &bdd::natural_ordering(cone.num_inputs())) else {
        return BddProbe::Inconclusive;
    };
    let (f, g) = (outs[0], outs[1]);
    if f == g {
        return BddProbe::Confirmed;
    }
    let Ok(diff) = mgr.xor(f, g) else {
        return BddProbe::Inconclusive;
    };
    let Some(assign) = mgr.one_sat(diff) else {
        // XOR reduced to FALSE: equal after all (distinct refs can only
        // disagree here if reduction was cut short, which xor() was not).
        return BddProbe::Confirmed;
    };
    // Map the cone assignment back onto the full input vector. Cone
    // input k is the k-th used original input in ascending order, and
    // the natural ordering makes BDD level == cone input index.
    let cone_inputs: Vec<usize> = input_map
        .iter()
        .enumerate()
        .filter_map(|(orig, l)| l.map(|_| orig))
        .collect();
    let mut pattern = vec![false; graph.num_inputs()];
    for (level, value) in assign {
        pattern[cone_inputs[level as usize]] = value;
    }
    BddProbe::Refuted(pattern)
}

/// The adaptive scheduler: static per-node hardness signals computed
/// once per miter, combined with the engine's live conflict histogram
/// to route each candidate pair and size its budget. All inputs are
/// deterministic (structural features and conflict *counts*, never
/// wall-clock), so adaptive runs are as reproducible as static ones.
struct AdaptivePolicy {
    scores: analysis::NodeScores,
    /// Explicit user budget; caps adaptive budgets and bounds retries.
    user_limit: Option<u64>,
}

impl AdaptivePolicy {
    /// Budget floor: below this, budgeted and unbudgeted SAT behave
    /// identically on trivial pairs and the budget is pure overhead.
    const MIN_BUDGET: u64 = 256;
    /// Support-size gate for BDD probes.
    const BDD_SUPPORT_CAP: u32 = 24;
    /// Observed-cost gate for BDD probes: a probe costs on the order of
    /// a millisecond, so it only pays when the p95 SAT call is burning
    /// real conflicts. Below this, SAT alone is already faster.
    const BDD_CONFLICT_FLOOR: u64 = 128;

    fn new(graph: &Aig, user_limit: Option<u64>) -> (AdaptivePolicy, f64) {
        let score = analysis::HardnessReport::of_aig(graph).score;
        (
            AdaptivePolicy {
                scores: analysis::NodeScores::compute(graph),
                user_limit,
            },
            score,
        )
    }

    /// Routes one candidate pair given the conflicts observed so far.
    fn dispatch(&self, n: NodeId, root: NodeId, hist: &obs::LogHistogram) -> Dispatch {
        let score = self.scores.pair_score(n, root);
        // Scale the budget window to what sweeping calls have actually
        // cost so far (p95 of the conflict histogram), then spread it
        // by the pair's static score: easy pairs get cut off early and
        // deferred, hard pairs get room before joining the hard queue.
        let p95 = hist.quantile(0.95);
        let try_bdd = score <= 0.35
            && p95.is_some_and(|c| c >= Self::BDD_CONFLICT_FLOOR)
            && self
                .scores
                .pair_support(n, root)
                .is_some_and(|s| s <= Self::BDD_SUPPORT_CAP);
        let base = p95.unwrap_or(64).max(32).saturating_mul(8);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        let budget = ((base as f64) * (0.25 + 1.75 * score)).ceil() as u64;
        let budget = budget.max(Self::MIN_BUDGET);
        let budget = self.user_limit.map_or(budget, |l| budget.min(l));
        Dispatch {
            budget: Some(budget),
            try_bdd,
        }
    }

    /// Dispatch for a hard-queue retry: unbudgeted, unless the user set
    /// an explicit pair limit (which then still bounds the retry).
    fn retry_dispatch(&self) -> Dispatch {
        Dispatch {
            budget: self.user_limit,
            try_bdd: false,
        }
    }
}

/// Records an issued budget into the dispatch stats' observed range.
fn record_budget(ds: &mut DispatchStats, budget: Option<u64>) {
    match budget {
        Some(b) => {
            ds.sat_budgeted += 1;
            if ds.budget_min == 0 || b < ds.budget_min {
                ds.budget_min = b;
            }
            ds.budget_max = ds.budget_max.max(b);
        }
        None => ds.sat_unbudgeted += 1,
    }
}

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

/// Live-metrics handles resolved once per sweep run. Every handle is
/// disconnected (one branch per update) when the registry is disabled,
/// so the engine updates them unconditionally.
struct SweepMetrics {
    lemmas: metrics::Counter,
    structural_merges: metrics::Counter,
    refinements: metrics::Counter,
    rounds: metrics::Counter,
    deferred: metrics::Counter,
    retried: metrics::Counter,
    bdd_calls: metrics::Counter,
    /// Learnt clauses exported to the feed for cross-worker sharing.
    learnts_shared: metrics::Counter,
    /// Live candidate pairs remaining in the simulation classes.
    queue_candidates: metrics::Gauge,
    /// Budget-exhausted pairs parked in the adaptive hard queue.
    queue_hard: metrics::Gauge,
}

impl SweepMetrics {
    fn new(m: &Metrics) -> Self {
        SweepMetrics {
            lemmas: m.counter("cec.lemmas"),
            structural_merges: m.counter("cec.structural_merges"),
            refinements: m.counter("cec.refinements"),
            rounds: m.counter("cec.rounds"),
            deferred: m.counter("cec.dispatch.deferred"),
            retried: m.counter("cec.dispatch.retried"),
            bdd_calls: m.counter("cec.dispatch.bdd_calls"),
            learnts_shared: m.counter("cec.learnts_shared"),
            queue_candidates: m.gauge("cec.queue.candidates"),
            queue_hard: m.gauge("cec.queue.hard"),
        }
    }
}

pub(crate) struct Sweep<'g> {
    graph: &'g Aig,
    config: &'g EngineConfig,
    ctx: &'g SharedContext,
    /// The coordinator's discharger: its solver holds the global clause
    /// database and proof, and discharges every pair of the sequential
    /// sweep.
    pub(crate) discharger: Discharger,
    /// Tseitin definition clause ids per AND node: `[t1, t2, t3]` for
    /// `(¬x∨a) (¬x∨b) (x∨¬a∨¬b)`.
    and_defs: Vec<Option<[Option<ClauseId>; 3]>>,
    rep: Vec<Option<MergeLink>>,
    /// Structural table: canonical rep-normalized fanin pair → node.
    struct_table: HashMap<(u64, u64), NodeId>,
    /// Interpolation partition of the original clauses (tracked when a
    /// circuit-A boundary is given and proofs are on).
    pub(crate) sides: Option<Vec<(ClauseId, Partition)>>,
    pub(crate) stats: EngineStats,
    metrics: SweepMetrics,
}

impl<'g> Sweep<'g> {
    /// `a_boundary`: first node index holding circuit-B-only logic, when
    /// the caller wants original clauses labeled for interpolation.
    pub(crate) fn new(
        graph: &'g Aig,
        config: &'g EngineConfig,
        ctx: &'g SharedContext,
        a_boundary: Option<usize>,
    ) -> Self {
        let mut discharger = Discharger::new(
            config.proof,
            graph.len() as u32,
            &ctx.recorder,
            TID_COORDINATOR,
            LiveCounters::coordinator(&ctx.metrics),
        );
        let solver = &mut discharger.solver;
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
        let const_id = solver.add_clause(&[Var::new(0).negative()]);
        record(const_id, 0);
        let mut and_defs: Vec<Option<[Option<ClauseId>; 3]>> = vec![None; graph.len()];
        and_defs[0] = Some([const_id, const_id, const_id]); // unused slot
        for (id, fa, fb) in graph.iter_ands() {
            let x = Var::new(id.index()).positive();
            let a = node_lit(fa);
            let b = node_lit(fb);
            let t1 = solver.add_clause(&[!x, a]);
            let t2 = solver.add_clause(&[!x, b]);
            let t3 = solver.add_clause(&[x, !a, !b]);
            record(t1, id.as_usize());
            record(t2, id.as_usize());
            record(t3, id.as_usize());
            and_defs[id.as_usize()] = Some([t1, t2, t3]);
        }
        Sweep {
            graph,
            config,
            ctx,
            discharger,
            and_defs,
            rep: vec![None; graph.len()],
            struct_table: HashMap::new(),
            sides: sides.map(|(_, v)| v),
            stats: EngineStats::default(),
            metrics: SweepMetrics::new(&ctx.metrics),
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
        let vn = Var::new(n.index());
        let root_lit = Var::new(root.index()).lit(phase);
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
            let fwd = self
                .discharger
                .solver
                .add_derived_clause(&[vn.negative(), root_lit], &fwd_ants);
            let bwd = self
                .discharger
                .solver
                .add_derived_clause(&[vn.positive(), !root_lit], &bwd_ants);
            self.discharger
                .solver
                .tag_proof_step(fwd, StepRole::Composition);
            self.discharger
                .solver
                .tag_proof_step(bwd, StepRole::Composition);
            Some((fwd, bwd))
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

    /// Marks one class refinement in the stats, the metrics, and the
    /// trace.
    fn record_refinement(&mut self, n: NodeId) {
        self.stats.refinements += 1;
        self.metrics.refinements.inc();
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

    /// Checkpoints the end-of-sweep state shared by both sweep modes.
    fn sweep_checkpoint(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        let proof_len = self.discharger.solver.proof().map_or(0, |p| p.len() as u64);
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

    /// Builds the adaptive policy (and seeds [`EngineStats::dispatch`]
    /// with the whole-instance hardness score) when adaptive mode is
    /// selected; `None` in static mode.
    fn adaptive_policy(&mut self) -> Option<AdaptivePolicy> {
        if self.config.engine != EngineSelect::Adaptive {
            return None;
        }
        let analysis_start = Instant::now();
        let (policy, score) = AdaptivePolicy::new(self.graph, self.config.pair_conflict_limit);
        self.stats.dispatch = Some(DispatchStats {
            score,
            ..DispatchStats::default()
        });
        self.ctx.recorder.complete(
            "analysis",
            TID_COORDINATOR,
            analysis_start,
            analysis_start.elapsed(),
        );
        Some(policy)
    }

    /// Runs the sweep the config asks for, if any: the single-pass
    /// sequential sweep at one thread, the round engine at more. Times
    /// it into the `sweep` phase and span, then lifts the pair budget
    /// off the coordinator's solver for the final miter solve.
    pub(crate) fn run(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        if !self.config.sweep {
            return Ok(());
        }
        let start = Instant::now();
        if self.config.threads > 1 {
            self.run_parallel(durable)?;
        } else {
            self.run_sequential(durable)?;
        }
        self.discharger.solver.set_conflict_budget(None);
        let time = start.elapsed();
        self.ctx
            .recorder
            .complete("sweep", TID_COORDINATOR, start, time);
        // Simulation was timed inside the run; keep the phases disjoint.
        self.stats.phases.sweep = time.saturating_sub(self.stats.phases.sim);
        Ok(())
    }

    /// Records a proven merge: the node's rep link and its two lemmas.
    fn record_merge(&mut self, n: NodeId, link: MergeLink) {
        self.rep[n.as_usize()] = Some(link);
        self.stats.lemmas += 2;
        self.metrics.lemmas.add(2);
    }

    /// Folds a discharger's tally into the run's counters.
    fn absorb(&mut self, calls: &WorkerStats, dispatch: &DispatchStats) {
        self.stats.sat_calls += calls.sat_calls;
        self.stats.sat_unsat += calls.sat_unsat;
        self.stats.sat_cex += calls.sat_cex;
        self.stats.sat_conflict_hist.merge(&calls.conflict_hist);
        self.stats.lemma_chain_hist.merge(&calls.lemma_chain_hist);
        if let Some(ds) = self.stats.dispatch.as_mut() {
            self.metrics.bdd_calls.add(dispatch.bdd_calls);
            ds.absorb(dispatch);
        }
    }

    /// The single-pass sequential sweep: every node in topological
    /// order, discharged against its class leader on the coordinator's
    /// solver.
    fn run_sequential(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        let mut classes = self.simulate_classes();
        self.sim_checkpoint(&classes, durable)?;
        let policy = self.adaptive_policy();
        // Adaptive hard queue: `(node, root, phase)` pairs whose budget
        // ran out, retried after the main sweep instead of being lost.
        let mut deferred: Vec<(NodeId, NodeId, bool)> = Vec::new();
        let watch_queues = self.ctx.metrics.is_enabled();
        if watch_queues {
            #[allow(clippy::cast_possible_wrap)]
            self.metrics
                .queue_candidates
                .set(classes.num_candidates() as i64);
        }

        for idx in 1..self.graph.len() {
            let n = NodeId::new(idx as u32);
            // Refresh the live queue-depth gauge at a stride that keeps
            // the class scan off the hot path.
            if watch_queues && idx % 256 == 0 {
                #[allow(clippy::cast_possible_wrap)]
                self.metrics
                    .queue_candidates
                    .set(classes.num_candidates() as i64);
            }
            // Structural merging first: free if the fanins' reps match a
            // previously processed node.
            if self.config.structural_merging {
                if let Some(()) = self.try_structural_merge(n) {
                    classes.remove(n);
                    continue;
                }
            }
            // Sweeping against the class leader.
            while let Some((leader, compl)) = classes.candidate(n) {
                let (root, pm, _) = self.find(leader);
                debug_assert!(root < n, "roots precede the node being processed");
                let phase = pm ^ compl;
                let target = Var::new(root.index()).lit(phase);
                // The conflicts observed so far are this run's tally.
                let dispatch = policy.as_ref().map_or_else(
                    || Dispatch::fixed(self.config.pair_conflict_limit),
                    |p| p.dispatch(n, root, &self.discharger.tally.conflict_hist),
                );
                match self
                    .discharger
                    .dispatch_pair(self.graph, n, target, dispatch)
                {
                    PairVerdict::Proved { fwd, bwd } => {
                        let link = MergeLink {
                            parent: root,
                            phase,
                            fwd,
                            bwd,
                        };
                        self.record_merge(n, link);
                        classes.remove(n);
                        break;
                    }
                    PairVerdict::Refuted { pattern } => {
                        self.record_refinement(n);
                        classes.refine_with_pattern(self.graph, &pattern);
                        // The candidate is recomputed; the class of `n`
                        // necessarily split, so this loop terminates.
                    }
                    PairVerdict::Skipped => {
                        // In adaptive mode the pair gets one more shot.
                        if let Some(ds) = self.stats.dispatch.as_mut() {
                            ds.deferred += 1;
                            self.metrics.deferred.inc();
                            self.metrics.queue_hard.add(1);
                            deferred.push((n, root, phase));
                        } else {
                            self.stats.pairs_skipped += 1;
                        }
                        classes.remove(n);
                        break;
                    }
                }
            }
            self.register_structure(n);
        }

        // Hard-queue retries: every merge already committed feeds these
        // solves as lemma clauses, so the retry usually finishes where
        // the budgeted attempt could not.
        if let Some(policy) = &policy {
            let dispatch = policy.retry_dispatch();
            for (n, root, phase) in deferred {
                // The root may itself have merged since; re-resolve.
                let (r, pm, _) = self.find(root);
                let phase = pm ^ phase;
                let target = Var::new(r.index()).lit(phase);
                if let Some(ds) = self.stats.dispatch.as_mut() {
                    ds.retried += 1;
                    self.metrics.retried.inc();
                    self.metrics.queue_hard.add(-1);
                }
                match self
                    .discharger
                    .dispatch_pair(self.graph, n, target, dispatch)
                {
                    PairVerdict::Proved { fwd, bwd } => {
                        let link = MergeLink {
                            parent: r,
                            phase,
                            fwd,
                            bwd,
                        };
                        self.record_merge(n, link);
                    }
                    PairVerdict::Refuted { .. } => {
                        // Genuinely inequivalent; the node already left
                        // its class, so there is nothing to refine.
                        self.record_refinement(n);
                    }
                    PairVerdict::Skipped => {
                        // Only reachable under an explicit user limit.
                        self.stats.pairs_skipped += 1;
                    }
                }
            }
        }
        let (calls, dispatch) = self.discharger.take_tally();
        self.absorb(&calls, &dispatch);
        self.sweep_checkpoint(durable)
    }

    /// The round-based parallel sweep.
    ///
    /// Each round:
    ///
    /// 1. **Structural phase** (sequential): one topological pass of
    ///    resolution-only merges over a freshly rebuilt structure table
    ///    (reps move between rounds, so stale keys must not survive).
    /// 2. **Collect**: a *window* of the topologically first candidate
    ///    pairs `(n, root, phase)` of the live classes —
    ///    [`EngineConfig::pairs_per_worker`] per worker. Class members
    ///    always have `rep = None` (merged nodes are removed from their
    ///    class), so targets are class leaders and no node is sharded
    ///    twice. The small window preserves lemma locality: a pair's
    ///    fanin-cone equivalences were usually merged in an earlier
    ///    round and have already reached every worker.
    /// 3. **Discharge**: the window is dealt round-robin onto the
    ///    persistent workers; each scoped worker thread first replays
    ///    the shared clause feed (the snapshot at start, then every
    ///    merged lemma) into its private incremental solver, then
    ///    proves / refutes / skips its pairs independently, logging
    ///    into a private proof with worker-local clause ids.
    /// 4. **Merge** (sequential, fixed worker-then-discovery order):
    ///    each worker's new derivation cone is stitched into the global
    ///    proof with remapped ids (the per-worker translation table
    ///    persists, so later rounds reuse earlier stitches), proved
    ///    lemmas join the global clause database and the feed,
    ///    refutation patterns refine the classes.
    ///
    /// Every worker is deterministic given its shard and feed history,
    /// and the merge order is fixed, so the run is reproducible for a
    /// given seed and thread count. Each round strictly shrinks the
    /// candidate work (merged/skipped nodes leave their classes; each
    /// applied refutation either splits a class or was subsumed by an
    /// earlier split this round), so the loop terminates.
    fn run_parallel(&mut self, durable: &mut Durable) -> Result<(), CecError> {
        let threads = self.config.threads;
        let mut classes = self.simulate_classes();
        self.sim_checkpoint(&classes, durable)?;
        self.stats.workers = vec![WorkerStats::default(); threads];

        let num_vars = self.discharger.solver.num_vars();
        let proof_mode = self.config.proof;
        let share_learnts = self.config.share_learnts;
        let graph = self.graph;
        let policy = self.adaptive_policy();
        if share_learnts {
            // Sharing counters live in the dispatch stats; make sure the
            // block exists even in static mode.
            self.stats
                .dispatch
                .get_or_insert_with(DispatchStats::default);
        }
        // Canonical literal sets of learnt clauses already shared, so
        // the same clause (re-derived by several workers) enters the
        // feed only once.
        let mut shared_learnt_set: HashSet<Vec<Lit>> = HashSet::new();
        // Per-worker window: pinned by the flag, else auto-tuned between
        // rounds from the observed conflict imbalance.
        let pinned = self.config.pairs_per_worker;
        let mut per_worker = pinned.unwrap_or(8).max(1);
        if let Some(p) = self.discharger.solver.proof() {
            // Anchor of the stitch segments: everything appended between
            // here and the end of the last round is parallel-merge
            // output, which the RP007 lint cross-checks.
            self.stats
                .stitch_boundaries
                .push(u32::try_from(p.len()).expect("proof fits u32 ids"));
        }

        let mut feed: Vec<FeedClause> = self
            .discharger
            .solver
            .live_clauses()
            .map(|(ls, id)| FeedClause {
                lits: ls.to_vec(),
                id,
                origin: None,
                learnt: false,
            })
            .collect();
        // Feed entries already shipped to the workers (all workers stay
        // in lock-step because every round sends every worker a job).
        let mut synced = 0usize;
        // Worker states live here between rounds so the sequential
        // merge phase can read their proofs; they ride along in the job
        // and report of each round.
        let mut states: Vec<Option<WorkerState>> = (0..threads)
            .map(|w| {
                Some(WorkerState {
                    discharger: Discharger::new(
                        proof_mode,
                        num_vars,
                        &self.ctx.recorder,
                        worker_tid(w),
                        LiveCounters::worker(&self.ctx.metrics, w),
                    ),
                    translation: Vec::new(),
                    share_learnts,
                })
            })
            .collect();

        // The worker threads are spawned once and fed one job per round
        // (thread creation is far too slow to pay per round). An early
        // return (injected crash, journal failure) drops the job senders
        // on the way out, so the scope still joins the workers cleanly.
        let rounds: Result<(), CecError> = std::thread::scope(|scope| {
            let mut to_worker = Vec::with_capacity(threads);
            let mut from_worker = Vec::with_capacity(threads);
            for w in 0..threads {
                let (job_tx, job_rx) = std::sync::mpsc::channel::<WorkerJob>();
                let (report_tx, report_rx) = std::sync::mpsc::channel::<WorkerReport>();
                to_worker.push(job_tx);
                from_worker.push(report_rx);
                scope.spawn(move || {
                    for job in job_rx {
                        let report = job.state.round(w, graph, &job.delta, &job.shard);
                        if report_tx.send(report).is_err() {
                            return;
                        }
                    }
                });
            }

            // Adaptive hard queue: over-budget pairs wait here and are
            // retried in dedicated rounds once the candidate classes
            // run dry.
            let mut deferred: Vec<(NodeId, NodeId, bool)> = Vec::new();
            loop {
                // Phase 1: structural merges over a rebuilt table.
                if self.config.structural_merging {
                    let structural_start = Instant::now();
                    self.struct_table.clear();
                    for idx in 1..self.graph.len() {
                        let n = NodeId::new(idx as u32);
                        if self.rep[n.as_usize()].is_some() {
                            continue;
                        }
                        if self.try_structural_merge(n).is_some() {
                            classes.remove(n);
                            let link = self.rep[n.as_usize()].expect("merged just now");
                            feed.extend(link.clauses(n).map(|(lits, id)| FeedClause {
                                lits: lits.to_vec(),
                                id,
                                origin: None,
                                learnt: false,
                            }));
                        } else {
                            self.register_structure(n);
                        }
                    }
                    self.ctx.recorder.complete(
                        "structural_pass",
                        TID_COORDINATOR,
                        structural_start,
                        structural_start.elapsed(),
                    );
                }

                // Phase 2: collect this round's window of candidate pairs.
                let window = threads * per_worker;
                let mut pairs: Vec<(NodeId, NodeId, bool)> = Vec::new();
                for idx in 1..self.graph.len() {
                    let n = NodeId::new(idx as u32);
                    if self.rep[n.as_usize()].is_some() {
                        continue;
                    }
                    if let Some((leader, compl)) = classes.candidate(n) {
                        let (root, pm, _) = self.find(leader);
                        debug_assert!(root < n, "roots precede the node being processed");
                        pairs.push((n, root, pm ^ compl));
                        if pairs.len() == window {
                            break;
                        }
                    }
                }
                // Hard-queue retry rounds: once the classes run dry,
                // deferred pairs go through the same round machinery,
                // unbudgeted. Their stored roots may have merged since,
                // so re-resolve them.
                let retry_round = pairs.is_empty() && !deferred.is_empty();
                if retry_round {
                    let take = deferred.len().min(window.max(1));
                    for (n, root, phase) in deferred.drain(..take) {
                        let (r, pm, _) = self.find(root);
                        pairs.push((n, r, pm ^ phase));
                    }
                    if let Some(ds) = self.stats.dispatch.as_mut() {
                        ds.retried += pairs.len() as u64;
                        self.metrics.retried.add(pairs.len() as u64);
                    }
                }
                if pairs.is_empty() {
                    break;
                }
                self.stats.rounds += 1;
                self.metrics.rounds.inc();
                if self.ctx.metrics.is_enabled() {
                    // num_candidates is a class scan; only pay it when
                    // someone is watching.
                    #[allow(clippy::cast_possible_wrap)]
                    self.metrics
                        .queue_candidates
                        .set(classes.num_candidates() as i64);
                    #[allow(clippy::cast_possible_wrap)]
                    self.metrics.queue_hard.set(deferred.len() as i64);
                }
                self.stats.pair_windows.push(per_worker as u32);
                let mut round_span = self.ctx.recorder.span("round", TID_COORDINATOR);
                round_span.arg("round", self.stats.rounds);
                round_span.arg("pairs", pairs.len());

                // Route every pair before sharding so the decisions see
                // one consistent conflict-histogram snapshot.
                let dispatches: Vec<Dispatch> = pairs
                    .iter()
                    .map(|&(n, root, _)| match &policy {
                        Some(p) if retry_round => p.retry_dispatch(),
                        Some(p) => p.dispatch(n, root, &self.stats.sat_conflict_hist),
                        None => Dispatch::fixed(self.config.pair_conflict_limit),
                    })
                    .collect();

                // Phase 3: discharge shards on the persistent workers.
                let delta: std::sync::Arc<[FeedClause]> = feed[synced..].to_vec().into();
                for (w, job_tx) in to_worker.iter().enumerate() {
                    let shard: Vec<(usize, NodeId, Lit, Dispatch)> = pairs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % threads == w)
                        .map(|(i, &(n, root, phase))| {
                            (i, n, Var::new(root.index()).lit(phase), dispatches[i])
                        })
                        .collect();
                    job_tx
                        .send(WorkerJob {
                            state: states[w].take().expect("state parked between rounds"),
                            delta: delta.clone(),
                            shard,
                        })
                        .expect("sweep worker alive");
                }
                synced = feed.len();
                let reports: Vec<WorkerReport> = from_worker
                    .iter()
                    .map(|report_rx| report_rx.recv().expect("sweep worker alive"))
                    .collect();

                // Phase 4: merge results in worker-then-discovery order.
                let stitch_span = self.ctx.recorder.span("stitch", TID_COORDINATOR);
                let mut round_conflicts: Vec<u64> = Vec::with_capacity(threads);
                for (w, report) in reports.into_iter().enumerate() {
                    let WorkerReport {
                        state,
                        results,
                        stats: round_stats,
                        dispatch: wd,
                        learnts,
                    } = report;
                    states[w] = Some(state);
                    round_conflicts.push(round_stats.conflicts);
                    self.absorb(&round_stats, &wd);
                    self.stats.workers[w].absorb(&round_stats);
                    // Workers tick only their own cec.worker{w}.* cells
                    // live; fold this round into the engine-wide
                    // aggregates (the coordinator's live counters) so
                    // cec.sat_calls / cec.conflicts mean the same thing
                    // under both sweep modes.
                    let live = &self.discharger.live;
                    live.sat_calls.add(round_stats.sat_calls);
                    live.conflicts.add(round_stats.conflicts);

                    if proof_mode {
                        let mut roots: Vec<ClauseId> = results
                            .iter()
                            .filter_map(|(_, verdict)| match verdict {
                                PairVerdict::Proved { fwd, bwd } => Some([*fwd, *bwd]),
                                _ => None,
                            })
                            .flatten()
                            .flatten()
                            .collect();
                        // Shared learnt clauses are stitched exactly like
                        // lemmas: their whole derivation cone joins the
                        // global proof before the clause is fed onward.
                        roots.extend(learnts.iter().filter_map(|(_, id)| *id));
                        let WorkerState {
                            discharger,
                            translation,
                            ..
                        } = states[w].as_mut().expect("report returned the state");
                        let local = discharger.solver.proof().expect("proof-mode worker logs");
                        self.discharger
                            .solver
                            .merge_proof_cone(local, &roots, translation);
                    }
                    let translation = &states[w].as_ref().expect("state parked").translation;
                    for (pair_idx, verdict) in results {
                        let (n, root, phase) = pairs[pair_idx];
                        match verdict {
                            PairVerdict::Proved { fwd, bwd } => {
                                let translate = |id: Option<ClauseId>| {
                                    id.map(|id| {
                                        translation[id.as_usize()]
                                            .expect("proved lemma is a merge root")
                                    })
                                };
                                let link = MergeLink {
                                    parent: root,
                                    phase,
                                    fwd: translate(fwd),
                                    bwd: translate(bwd),
                                };
                                for (lits, id) in link.clauses(n) {
                                    self.discharger.solver.add_proved_clause(&lits, id);
                                    feed.push(FeedClause {
                                        lits: lits.to_vec(),
                                        id,
                                        origin: Some(w),
                                        learnt: false,
                                    });
                                }
                                self.record_merge(n, link);
                                classes.remove(n);
                            }
                            PairVerdict::Refuted { pattern } => {
                                self.record_refinement(n);
                                classes.refine_with_pattern(self.graph, &pattern);
                            }
                            PairVerdict::Skipped => {
                                if policy.is_some() && !retry_round {
                                    if let Some(ds) = self.stats.dispatch.as_mut() {
                                        ds.deferred += 1;
                                        self.metrics.deferred.inc();
                                    }
                                    deferred.push((n, root, phase));
                                } else {
                                    self.stats.pairs_skipped += 1;
                                }
                                classes.remove(n);
                            }
                        }
                    }
                    // Publish this worker's drained learnt clauses: the
                    // derivations were already stitched above (the ids
                    // were merge roots), so the translated global step
                    // backs each clause in the global database and feed.
                    if share_learnts && !learnts.is_empty() {
                        let mut shared_now = 0u64;
                        for (lits, local_id) in learnts {
                            let mut key = lits.clone();
                            key.sort_unstable();
                            if !shared_learnt_set.insert(key) {
                                continue;
                            }
                            let gid = if proof_mode {
                                Some(
                                    local_id
                                        .and_then(|id| translation[id.as_usize()])
                                        .expect("drained learnt is a merge root"),
                                )
                            } else {
                                None
                            };
                            self.discharger.solver.add_proved_clause(&lits, gid);
                            feed.push(FeedClause {
                                lits,
                                id: gid,
                                origin: Some(w),
                                learnt: true,
                            });
                            shared_now += 1;
                        }
                        if shared_now > 0 {
                            if let Some(ds) = self.stats.dispatch.as_mut() {
                                ds.learnts_shared += shared_now;
                            }
                            self.metrics.learnts_shared.add(shared_now);
                        }
                    }
                }
                drop(stitch_span);

                // Auto-tune the next round's window from this round's
                // per-worker conflict imbalance (a deterministic signal):
                // heavy imbalance → deal finer; balanced → deal coarser.
                if pinned.is_none() && threads > 1 {
                    let max = round_conflicts.iter().copied().max().unwrap_or(0);
                    let min = round_conflicts.iter().copied().min().unwrap_or(0);
                    let sum: u64 = round_conflicts.iter().sum();
                    #[allow(clippy::cast_precision_loss)]
                    let mean = sum as f64 / threads as f64;
                    if mean > 0.0 {
                        #[allow(clippy::cast_precision_loss)]
                        let imbalance = (max - min) as f64 / mean;
                        if imbalance > 1.0 {
                            per_worker = (per_worker / 2).max(2);
                        } else if imbalance < 0.25 {
                            per_worker = (per_worker * 2).min(64);
                        }
                    }
                }
                if let Some(p) = self.discharger.solver.proof() {
                    self.stats
                        .stitch_boundaries
                        .push(u32::try_from(p.len()).expect("proof fits u32 ids"));
                }
                let proof_len = self.discharger.solver.proof().map_or(0, |p| p.len() as u64);
                durable.checkpoint(
                    "round",
                    &[
                        ("round", Value::U64(self.stats.rounds)),
                        ("pairs", Value::U64(pairs.len() as u64)),
                        ("lemmas", Value::U64(self.stats.lemmas)),
                        ("refinements", Value::U64(self.stats.refinements)),
                        ("proof_len", Value::U64(proof_len)),
                        ("feed_len", Value::U64(feed.len() as u64)),
                    ],
                )?;
            }
            // Dropping the job senders ends the worker loops; the scope
            // joins the threads.
            drop(to_worker);
            Ok(())
        });
        rounds?;
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
                let vn = Var::new(n.index());
                let root_lit = Var::new(root.index()).lit(pm);
                let fwd = self
                    .discharger
                    .solver
                    .add_derived_clause(&[vn.negative(), root_lit], &[nf, mf]);
                let bwd = self
                    .discharger
                    .solver
                    .add_derived_clause(&[vn.positive(), !root_lit], &[nb, mb]);
                self.discharger
                    .solver
                    .tag_proof_step(fwd, StepRole::Composition);
                self.discharger
                    .solver
                    .tag_proof_step(bwd, StepRole::Composition);
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
                self.discharger.solver.add_clause(&lits);
            }
        }
        self.record_merge(n, link);
        self.stats.structural_merges += 1;
        self.metrics.structural_merges.inc();
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
            .discharger
            .solver
            .add_derived_clause(&[vn.negative(), vm.positive()], &chain);
        self.discharger
            .solver
            .tag_proof_step(fwd, StepRole::Structural);

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
            .discharger
            .solver
            .add_derived_clause(&[vn.positive(), vm.negative()], &chain);
        self.discharger
            .solver
            .tag_proof_step(bwd, StepRole::Structural);

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

    /// Hands over the run's counters, with the coordinator solver's.
    pub(crate) fn finish(&mut self) -> EngineStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.solver = *self.discharger.solver.stats();
        stats
    }
}

/// Solver literal of an AIG edge: variable `i` is AIG node `i`.
#[inline]
pub(crate) fn node_lit(l: aig::Lit) -> Lit {
    Var::new(l.node().index()).lit(l.is_complemented())
}

/// The CNF a [`Session`](crate::Session) check refutes for this miter:
/// the Tseitin encoding of the miter graph under the identity
/// node-to-variable map, plus the unit clause asserting the miter
/// output — exactly the clauses the sweep feeds its solver, in the same
/// order. This is the formula to hand to `lint::lint_bundle` or to
/// export as DIMACS next to the proof so a third party can audit the
/// whole pipeline.
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

    use crate::outcome::CecOutcome;
    use crate::Session;

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
        let outcome = prove(&a, &b, opts);
        let cert = outcome.certificate().expect("equivalent");
        assert_eq!(cert.stats.sat_calls, 0, "no sweeping SAT pair calls");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
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
        // correct verdict with a checkable proof.
        let opts = EngineConfig {
            pair_conflict_limit: Some(1),
            verify: true,
            ..EngineConfig::default()
        };
        let a = array_multiplier(3);
        let b = carry_save_multiplier(3);
        let outcome = prove(&a, &b, opts);
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
        // And the default engine (no budget) skips nothing.
        let unbudgeted = prove(&a, &b, verified());
        assert_eq!(unbudgeted.stats().pairs_skipped, 0);
    }

    fn tracecheck_bytes(p: &proof::Proof) -> Vec<u8> {
        let mut buf = Vec::new();
        proof::export::write_tracecheck(p, &mut buf).unwrap();
        buf
    }

    #[test]
    fn parallel_sweep_proof_checks() {
        let a = ripple_carry_adder(6);
        let b = kogge_stone_adder(6);
        for threads in [2, 4] {
            let opts = EngineConfig {
                threads,
                verify: true,
                ..EngineConfig::default()
            };
            let outcome = prove(&a, &b, opts);
            let cert = outcome.certificate().expect("equivalent");
            proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
            proof::check::check_rup(cert.proof.as_ref().unwrap()).unwrap();
            assert!(cert.stats.rounds > 0, "parallel engine ran rounds");
            assert_eq!(cert.stats.workers.len(), threads);
            let worker_calls: u64 = cert.stats.workers.iter().map(|w| w.sat_calls).sum();
            assert_eq!(worker_calls, cert.stats.sat_calls);
        }
    }

    #[test]
    fn parallel_sweep_is_deterministic() {
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let opts = EngineConfig {
            threads: 3,
            ..EngineConfig::default()
        };
        let run = || {
            let outcome = prove(&a, &b, opts.clone());
            let cert = outcome.certificate().expect("equivalent");
            tracecheck_bytes(cert.proof.as_ref().unwrap())
        };
        assert_eq!(run(), run(), "same seed + threads → identical proof");
    }

    #[test]
    fn parallel_sweep_finds_counterexamples() {
        let a = ripple_carry_adder(4);
        let b = (0..40)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
            .expect("differing mutant");
        let opts = EngineConfig {
            threads: 2,
            verify: true,
            ..EngineConfig::default()
        };
        let outcome = prove(&a, &b, opts);
        let cex = outcome.counterexample().expect("inequivalent");
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn parallel_sweep_respects_pair_budget() {
        use aig::gen::{array_multiplier, carry_save_multiplier};
        let opts = EngineConfig {
            threads: 2,
            pair_conflict_limit: Some(1),
            verify: true,
            ..EngineConfig::default()
        };
        let a = array_multiplier(3);
        let b = carry_save_multiplier(3);
        let outcome = prove(&a, &b, opts);
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn parallel_learnt_sharing_proof_checks() {
        use aig::gen::{array_multiplier, carry_save_multiplier};
        let a = array_multiplier(4);
        let b = carry_save_multiplier(4);
        let opts = EngineConfig {
            threads: 3,
            share_learnts: true,
            verify: true,
            lint_bundle: true,
            ..EngineConfig::default()
        };
        let outcome = prove(&a, &b, opts);
        let cert = outcome.certificate().expect("equivalent");
        proof::check::check_refutation(cert.proof.as_ref().unwrap()).unwrap();
        let lints = cert.stats.lints.as_ref().expect("bundle lint ran");
        assert_eq!(lints.errors, 0, "shared-learnt proof is lint-clean");
        let ds = cert
            .stats
            .dispatch
            .as_ref()
            .expect("sharing seeds the dispatch stats block");
        assert!(
            ds.learnts_shared > 0,
            "multiplier sweep shares learnt clauses: {ds}"
        );
        assert!(
            ds.learnts_imported > 0,
            "other workers import shared clauses: {ds}"
        );
    }

    #[test]
    fn parallel_learnt_sharing_is_deterministic() {
        use aig::gen::{array_multiplier, carry_save_multiplier};
        let a = array_multiplier(3);
        let b = carry_save_multiplier(3);
        let opts = EngineConfig {
            threads: 2,
            share_learnts: true,
            ..EngineConfig::default()
        };
        let run = || {
            let outcome = prove(&a, &b, opts.clone());
            let cert = outcome.certificate().expect("equivalent");
            tracecheck_bytes(cert.proof.as_ref().unwrap())
        };
        assert_eq!(run(), run(), "sharing preserves per-config determinism");
    }

    #[test]
    fn parallel_learnt_sharing_finds_counterexamples() {
        let a = ripple_carry_adder(4);
        let b = (0..40)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 8).is_some())
            .expect("differing mutant");
        let opts = EngineConfig {
            threads: 2,
            share_learnts: true,
            verify: true,
            ..EngineConfig::default()
        };
        let outcome = prove(&a, &b, opts);
        let cex = outcome.counterexample().expect("inequivalent");
        assert_ne!(cex.outputs_a, cex.outputs_b);
    }

    #[test]
    fn parallel_reduce_matches_sequential_semantics() {
        use aig::gen::random_aig;
        let base = random_aig(8, 60, 4, 9);
        let copy = base.shuffle_rebuild(23);
        let mut g = Aig::new();
        let inputs = g.add_inputs(8);
        for src in [&base, &copy] {
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
            for o in src.outputs() {
                g.add_output(map[o.node().as_usize()].xor_complement(o.is_complemented()));
            }
        }
        let opts = EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        };
        let reduced = reduce(&g, opts);
        reduced.check().unwrap();
        assert!(reduced.num_ands() < g.num_ands());
        assert_eq!(aig::sim::exhaustive_diff(&g, &reduced, 8), None);
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
    fn recorder_captures_phases_and_worker_tids() {
        let recorder = Recorder::new();
        let ctx = SharedContext::new(recorder.clone(), Metrics::disabled());
        let config = EngineConfig {
            threads: 2,
            verify: true,
            lint_proof: true,
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
            "lint",
        ] {
            assert!(names.contains(phase), "missing phase span {phase}");
        }
        // SAT-call spans from both workers, on distinct nonzero tids.
        let worker_tids: HashSet<u32> = events
            .iter()
            .filter(|e| e.name == "sat_call" && e.tid != TID_COORDINATOR)
            .map(|e| e.tid)
            .collect();
        assert_eq!(cert.stats.workers.len(), 2);
        assert!(
            worker_tids
                .iter()
                .all(|&t| t == worker_tid(0) || t == worker_tid(1)),
            "unexpected worker tids: {worker_tids:?}"
        );

        // Phase breakdown: disjoint sub-intervals of the run, so the sum
        // never exceeds the elapsed wall-clock (plus timer noise).
        let sum = cert.stats.phases.sum();
        let elapsed = cert.stats.elapsed;
        assert!(
            sum <= elapsed + std::time::Duration::from_millis(5),
            "phase sum {sum:?} exceeds elapsed {elapsed:?}"
        );
        // Histograms were fed by the run.
        assert_eq!(cert.stats.sat_conflict_hist.count(), cert.stats.sat_calls);
        assert_eq!(cert.stats.lemma_chain_hist.count(), cert.stats.lemmas);

        // The sequential sweep's solver records its restarts too: a t1
        // multiplier check restarts on the coordinator's tid.
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
        assert!(restarts > 0, "t1 run recorded no solver restarts");
    }
}
