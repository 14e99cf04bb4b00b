//! A CDCL SAT solver with resolution-proof logging.
//!
//! The solver is a conventional conflict-driven clause-learning engine
//! (two-watched-literal propagation, VSIDS decisions with phase saving,
//! first-UIP learning with recursive clause minimization, Luby restarts,
//! LBD-guided learnt-clause reduction, incremental solving under
//! assumptions) with one addition that the paper requires: **every clause
//! it ever holds carries a step in a [`proof::Proof`]**, and every learnt
//! clause, every level-0 consequence, and every final conflict under
//! assumptions records the antecedent chain by which it follows by chain
//! resolution.
//!
//! The chain for a learnt clause is reconstructed after conflict
//! analysis by *replaying* the implication trail: starting from the
//! conflicting clause, literals not in the learnt clause are resolved
//! out against their reason clauses in reverse trail order. This yields
//! a regular input-resolution derivation that the independent checker in
//! the `proof` crate verifies literally — including the effects of
//! clause minimization, which only changes *which* literals get resolved
//! out.

use crate::db::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::luby::luby;
use cnf::{Lit, Var};
use proof::{ClauseId, Proof, StepRole};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; see [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; see
    /// [`Solver::final_clause`].
    Unsat,
    /// The conflict budget (see [`Solver::set_conflict_budget`]) was
    /// exhausted before a verdict. Learnt clauses are kept, so retrying
    /// (or solving a different query) resumes from the progress made.
    Unknown,
}

/// Multiplicative VSIDS decay applied after each conflict.
const VAR_DECAY: f64 = 0.95;
/// Multiplicative clause-activity decay applied after each conflict.
const CLAUSE_DECAY: f32 = 0.999;

/// Tuning knobs for the solver.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Record resolution proofs for every clause (the paper's mode).
    pub proof_logging: bool,
    /// Base number of conflicts between restarts (scaled by Luby).
    pub restart_base: u64,
    /// Initial learnt-clause limit as a fraction of problem clauses.
    pub learnt_size_factor: f64,
    /// Growth factor of the learnt-clause limit at each reduction.
    pub learnt_size_inc: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            proof_logging: false,
            restart_base: 100,
            learnt_size_factor: 1.0 / 3.0,
            learnt_size_inc: 1.1,
        }
    }
}

/// Run counters, exposed for the experiment tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses (including later-deleted ones).
    pub learnt: u64,
    /// Number of learnt clauses deleted by reduction.
    pub deleted: u64,
    /// Number of `solve` calls.
    pub solves: u64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

const UNDEF: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// A proof-logging CDCL solver.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use sat::{SolveResult, Solver};
///
/// let mut s = Solver::with_proof();
/// let x = s.new_var();
/// let y = s.new_var();
/// s.add_clause(&[x.positive(), y.positive()]);
/// s.add_clause(&[x.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert!(s.model_value(y));
///
/// s.add_clause(&[y.negative()]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// let proof = s.proof().expect("logging enabled");
/// assert!(proof::check::check_refutation(proof).is_ok());
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    // Per literal (indexed by code), so a literal's value is one load:
    assigns: Vec<u8>,
    // Per variable:
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    activity: Vec<f64>,
    polarity: Vec<bool>,
    // Whether the variable may be picked as a decision (see
    // [`Solver::set_decision_var`]):
    decision: Vec<bool>,
    seen: Vec<bool>,
    // Trail:
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Decision order:
    order: VarHeap,
    var_inc: f64,
    cla_inc: f32,
    // Learnt DB sizing:
    max_learnt: f64,
    num_problem_clauses: usize,
    // Analysis scratch; `learnt` holds the last learnt clause, and
    // `level_stamp[l] == lbd_stamp` marks level `l` as counted.
    learnt: Vec<Lit>,
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    level_stamp: Vec<u64>,
    lbd_stamp: u64,
    // Chain-replay scratch:
    chain: ChainReplay,
    // The `add_*clause` paths' copy of the clause being added:
    clause_buf: Vec<Lit>,
    // Proof and outcome:
    proof: Option<Proof>,
    conflict_budget: Option<u64>,
    unsat: bool,
    empty_id: Option<ClauseId>,
    final_clause: Option<(Vec<Lit>, Option<ClauseId>)>,
    saved_model: Option<Vec<bool>>,
    stats: SolverStats,
    // Tracing (free when the recorder is disabled, the default):
    recorder: obs::Recorder,
    recorder_tid: u32,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver without proof logging.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with resolution-proof logging enabled.
    pub fn with_proof() -> Self {
        Solver::with_config(SolverConfig {
            proof_logging: true,
            ..SolverConfig::default()
        })
    }

    /// Creates a solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let proof = config.proof_logging.then(Proof::new);
        Solver {
            config,
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            polarity: Vec::new(),
            decision: Vec::new(),
            seen: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnt: 0.0,
            num_problem_clauses: 0,
            learnt: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            level_stamp: Vec::new(),
            lbd_stamp: 0,
            chain: ChainReplay::default(),
            clause_buf: Vec::new(),
            proof,
            conflict_budget: None,
            unsat: false,
            empty_id: None,
            final_clause: None,
            saved_model: None,
            stats: SolverStats::default(),
            recorder: obs::Recorder::disabled(),
            recorder_tid: obs::TID_COORDINATOR,
        }
    }

    /// Attaches a trace recorder; the solver emits `restart` and
    /// `reduce_db` instant events on logical thread `tid`. The default
    /// is a disabled recorder (no events, no overhead).
    pub fn set_recorder(&mut self, recorder: obs::Recorder, tid: u32) {
        self.recorder = recorder;
        self.recorder_tid = tid;
    }

    /// Whether proof logging is enabled.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// Limits each subsequent `solve` call to at most `budget` conflicts;
    /// `None` removes the limit. A budgeted call that runs out returns
    /// [`SolveResult::Unknown`] and keeps all learnt clauses.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// The proof recorded so far, if logging is enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// Consumes the solver and returns its proof, if logging.
    pub fn into_proof(self) -> Option<Proof> {
        self.proof
    }

    /// Tags a proof step with an advisory role (reporting metadata; see
    /// [`proof::StepRole`]). No-op when logging is off.
    pub fn tag_proof_step(&mut self, id: ClauseId, role: StepRole) {
        if let Some(p) = &mut self.proof {
            p.set_role(id, role);
        }
    }

    /// Run counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Number of live (non-deleted) clauses in the database.
    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Whether the clause set has been refuted outright (the proof
    /// contains the empty clause); subsequent solves return `Unsat`
    /// regardless of assumptions.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// The proof step of the empty clause, once derived.
    pub fn empty_clause_id(&self) -> Option<ClauseId> {
        self.empty_id
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars());
        self.assigns.extend([UNDEF; 2]);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.decision.push(true);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.chain.grow();
        self.order.grow_to(self.level.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: u32) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> u8 {
        self.assigns[l.code() as usize]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds an input clause: [`Solver::record_clause`] followed by
    /// [`Solver::attach_clause`]. Returns the original proof step's id
    /// (if logging); `None` for tautologies (which are skipped) or when
    /// logging is off.
    ///
    /// Adding a clause may immediately derive the empty clause (making
    /// the solver permanently [`Solver::is_unsat`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable has not been allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> Option<ClauseId> {
        let id = self.record_clause(lits);
        self.attach_clause(lits, id);
        id
    }

    /// Records an input clause without attaching it: an *original* proof
    /// step (if logging), and one more problem clause in the count that
    /// sizes the learnt-clause limit at the first solve. The search does
    /// not see the clause until [`Solver::attach_clause`] hands it over,
    /// so a client can number a whole formula up front and attach each
    /// part when a query first needs it. Returns the step id; `None` for
    /// tautologies (which are neither recorded nor counted) or when
    /// logging is off.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable has not been allocated.
    pub fn record_clause(&mut self, lits: &[Lit]) -> Option<ClauseId> {
        self.with_sorted_copy(lits, |s, ls| {
            if !s.checked_non_tautology(ls) {
                return None;
            }
            s.num_problem_clauses += 1;
            s.proof.as_mut().map(|p| p.add_original(ls.iter().copied()))
        })
    }

    /// Attaches a clause recorded by [`Solver::record_clause`], whose
    /// returned `id` it takes: the clause joins the database and is
    /// propagated at decision level 0. No proof step is recorded and the
    /// problem-clause count does not change. Tautologies are skipped.
    ///
    /// Attaching may immediately derive the empty clause (making the
    /// solver permanently [`Solver::is_unsat`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable has not been allocated.
    pub fn attach_clause(&mut self, lits: &[Lit], id: Option<ClauseId>) {
        self.cancel_until(0);
        self.with_sorted_copy(lits, |s, ls| {
            if s.checked_non_tautology(ls) {
                s.insert_clause(ls, false, id);
            }
        });
    }

    /// Whether the sorted, deduplicated clause `ls` is free of
    /// complementary literals.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable has not been allocated.
    fn checked_non_tautology(&self, ls: &[Lit]) -> bool {
        for l in ls {
            assert!(
                l.var().index() < self.num_vars(),
                "literal variable not allocated"
            );
        }
        ls.windows(2).all(|w| w[0].var() != w[1].var())
    }

    /// Sets whether `v` may be picked as a decision. Every variable is a
    /// decision variable when allocated. A variable that is not one is
    /// assigned only by propagation, so a `Sat` answer may leave it
    /// unassigned (see [`Solver::model_value`]); the engine keeps the
    /// variables of clauses not yet attached out of the search this way.
    /// Turning a variable back on returns it to the decision order.
    ///
    /// # Panics
    ///
    /// Panics if `v` has not been allocated.
    pub fn set_decision_var(&mut self, v: Var, on: bool) {
        self.decision[v.as_usize()] = on;
        if on {
            self.order.insert(v, &self.activity);
        }
    }

    /// Runs `f` on a sorted, deduplicated copy of `lits` held in the
    /// solver's reused clause buffer, so adding a clause allocates
    /// nothing beyond the database's own growth.
    fn with_sorted_copy<R>(
        &mut self,
        lits: &[Lit],
        f: impl FnOnce(&mut Self, &mut [Lit]) -> R,
    ) -> R {
        let mut ls = std::mem::take(&mut self.clause_buf);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        let out = f(self, &mut ls);
        self.clause_buf = ls;
        out
    }

    /// Adds a clause *derived outside the solver* — the structural-hash
    /// equivalence lemmas of the CEC engine:
    /// [`Solver::record_derived_clause`] followed by
    /// [`Solver::attach_clause`], so the clause is both a derived proof
    /// step with the given antecedents and a permanent database clause.
    ///
    /// # Panics
    ///
    /// Panics if proof logging is disabled, a variable is unallocated,
    /// or the clause is empty or tautological.
    pub fn add_derived_clause(&mut self, lits: &[Lit], antecedents: &[ClauseId]) -> ClauseId {
        let id = self.record_derived_clause(lits, antecedents);
        self.attach_clause(lits, Some(id));
        id
    }

    /// Records a clause derived outside the solver as a proof step with
    /// the given antecedents, without attaching it: the search never
    /// sees the clause. This is for a clause that an attached clause
    /// already subsumes, such as the CEC engine's canonical equivalence
    /// lemma weakened from a committed final conflict clause; attaching
    /// it would only lengthen two watch lists.
    ///
    /// The derivation is not checked here; the independent checker will
    /// reject an invalid chain.
    ///
    /// # Panics
    ///
    /// Panics if proof logging is disabled, or the clause is empty or
    /// tautological.
    pub fn record_derived_clause(&mut self, lits: &[Lit], antecedents: &[ClauseId]) -> ClauseId {
        assert!(
            self.proof.is_some(),
            "derived clauses require proof logging"
        );
        self.with_sorted_copy(lits, |s, ls| {
            assert!(
                !ls.is_empty(),
                "empty derived clause must come from solving"
            );
            assert!(
                ls.windows(2).all(|w| w[0].var() != w[1].var()),
                "tautological derived clause"
            );
            s.proof
                .as_mut()
                .expect("checked above")
                .add_derived(ls.iter().copied(), antecedents.iter().copied())
        })
    }

    /// Core clause insertion at decision level 0 (watch setup, unit
    /// propagation, level-0 conflict handling).
    fn insert_clause(&mut self, ls: &mut [Lit], learnt: bool, id: Option<ClauseId>) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.unsat {
            return;
        }
        if ls.is_empty() {
            self.unsat = true;
            self.empty_id = id;
            return;
        }
        // Order literals: non-false first.
        ls.sort_by_key(|&l| match self.lit_value(l) {
            UNDEF => 0u8,
            TRUE => 1,
            _ => 2,
        });
        if self.lit_value(ls[0]) == FALSE {
            // Entire clause false at level 0: resolve it to the empty clause.
            if let Some(proof) = self.proof.as_mut() {
                let chain = self
                    .chain
                    .replay(ls, id, &[], &self.trail, &self.reason, &self.db);
                self.empty_id = Some(log_learned(proof, &[], chain));
            }
            self.unsat = true;
            return;
        }
        let first = ls[0];
        let unit = ls.len() == 1 || self.lit_value(ls[1]) == FALSE;
        let r = self.db.add(ls, learnt, id);
        if ls.len() >= 2 {
            self.attach(r);
        }
        if unit && self.lit_value(first) == UNDEF {
            self.assign(first, Some(r));
            if let Some(confl) = self.propagate() {
                self.empty_id = self.build_chain_from(confl, &[]);
                self.unsat = true;
            }
        }
    }

    fn attach(&mut self, r: ClauseRef) {
        let lits = self.db.lits(r);
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code() as usize].push(Watcher {
            clause: r,
            blocker: l1,
        });
        self.watches[(!l1).code() as usize].push(Watcher {
            clause: r,
            blocker: l0,
        });
    }

    /// Makes the unassigned literal `l` true at the current level.
    fn assign(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        self.assigns[l.code() as usize] = TRUE;
        self.assigns[(!l).code() as usize] = FALSE;
        let v = l.var().as_usize();
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let false_lit = !p;
            let mut i = 0;
            let mut j = 0;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.assigns[w.blocker.code() as usize] == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let Some(lits) = self.db.live_lits_mut(w.clause) else {
                    continue; // drop watcher of deleted clause
                };
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let w2 = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                let first_value = self.assigns[first.code() as usize];
                if first != w.blocker && first_value == TRUE {
                    ws[j] = w2;
                    j += 1;
                    continue;
                }
                // Search for a replacement watch.
                let assigns = &self.assigns;
                if let Some(k) = lits[2..]
                    .iter()
                    .position(|l| assigns[l.code() as usize] != FALSE)
                {
                    lits.swap(1, k + 2);
                    self.watches[(!lits[1]).code() as usize].push(w2);
                    continue;
                }
                // Unit or conflicting.
                ws[j] = w2;
                j += 1;
                if first_value == FALSE {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    break;
                }
                self.assign(first, Some(w.clause));
            }
            ws.truncate(j);
            self.watches[p.code() as usize] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn new_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            self.assigns[l.code() as usize] = UNDEF;
            self.assigns[(!l).code() as usize] = UNDEF;
            self.polarity[v.as_usize()] = l.is_negative();
            if self.decision[v.as_usize()] {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = bound;
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.as_usize()] += self.var_inc;
        if self.activity[v.as_usize()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    /// First-UIP conflict analysis with recursive minimization. Leaves
    /// the learnt clause in `self.learnt`, with the asserting literal
    /// first, and returns `(backtrack_level, lbd)`.
    fn analyze(&mut self, confl: ClauseRef) -> (u32, u32) {
        self.learnt.clear();
        self.learnt.push(Lit::from_code(0)); // slot for UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut clause = confl;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            if self.db.is_learnt(clause) {
                self.bump_clause(clause);
            }
            let start = if p.is_some() { 1 } else { 0 };
            for k in start..self.db.lits(clause).len() {
                let q = self.db.lit(clause, k);
                let v = q.var();
                if !self.seen[v.as_usize()] && self.level[v.as_usize()] > 0 {
                    self.seen[v.as_usize()] = true;
                    self.bump_var(v);
                    if self.level[v.as_usize()] >= current {
                        counter += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            // Next clause to look at.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().as_usize()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().as_usize()] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt[0] = !pl;
                break;
            }
            clause = self.reason[pl.var().as_usize()].expect("non-UIP literal has a reason");
            p = Some(pl);
        }

        // Recursive minimization, filtering `learnt` in place.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&self.learnt);
        let abstract_levels = self.learnt[1..].iter().fold(0u32, |acc, l| {
            acc | 1 << (self.level[l.var().as_usize()] & 31)
        });
        let mut kept = 1;
        for i in 1..self.learnt.len() {
            let l = self.learnt[i];
            if self.reason[l.var().as_usize()].is_none() || !self.lit_redundant(l, abstract_levels)
            {
                self.learnt[kept] = l;
                kept += 1;
            }
        }
        self.learnt.truncate(kept);
        for l in self.analyze_toclear.drain(..) {
            self.seen[l.var().as_usize()] = false;
        }

        // Backtrack level: highest level among learnt[1..].
        let learnt = &mut self.learnt;
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().as_usize()]
                    > self.level[learnt[max_i].var().as_usize()]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().as_usize()]
        };

        // LBD: number of distinct decision levels.
        if self.level_stamp.len() <= current as usize {
            self.level_stamp.resize(current as usize + 1, 0);
        }
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in &self.learnt {
            let stamp = &mut self.level_stamp[self.level[l.var().as_usize()] as usize];
            if *stamp != self.lbd_stamp {
                *stamp = self.lbd_stamp;
                lbd += 1;
            }
        }

        (bt, lbd)
    }

    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let r = self.reason[q.var().as_usize()].expect("stacked literal has a reason");
            for &x in &self.db.lits(r)[1..] {
                let v = x.var();
                if !self.seen[v.as_usize()] && self.level[v.as_usize()] > 0 {
                    if self.reason[v.as_usize()].is_some()
                        && (1u32 << (self.level[v.as_usize()] & 31)) & abstract_levels != 0
                    {
                        self.seen[v.as_usize()] = true;
                        self.analyze_stack.push(x);
                        self.analyze_toclear.push(x);
                    } else {
                        for &y in &self.analyze_toclear[top..] {
                            self.seen[y.var().as_usize()] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    fn bump_clause(&mut self, r: ClauseRef) {
        if self.db.bump(r, self.cla_inc) {
            self.db.rescale(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// Reconstructs a chain-resolution derivation of `target` from the
    /// database clause `start` and the reason clauses on the trail, and
    /// records it in the proof. Returns the new step id (or `None` when
    /// logging is off).
    ///
    /// Precondition: every literal of `start` is false under the current
    /// assignment, and every literal that must be resolved out has a
    /// reason clause.
    fn build_chain_from(&mut self, start: ClauseRef, target: &[Lit]) -> Option<ClauseId> {
        let proof = self.proof.as_mut()?;
        let chain = self.chain.replay(
            self.db.lits(start),
            self.db.proof_id(start),
            target,
            &self.trail,
            &self.reason,
            &self.db,
        );
        Some(log_learned(proof, target, chain))
    }

    /// Computes the final conflict clause when assumption `failed` is
    /// falsified, together with its derivation.
    fn analyze_final(&mut self, failed: Lit) -> (Vec<Lit>, Option<ClauseId>) {
        let Some(r0) = self.reason[failed.var().as_usize()] else {
            // ¬failed is itself an assumption decision: the conflict
            // clause is the tautology (failed ∨ ¬failed), which has no
            // resolution derivation. This only happens with
            // contradictory assumption lists.
            return (vec![failed, !failed], None);
        };
        // Collect the involved assumption negations.
        let mut out = vec![!failed];
        if self.decision_level() > 0 {
            self.seen[failed.var().as_usize()] = true;
            for idx in (self.trail_lim[0]..self.trail.len()).rev() {
                let x = self.trail[idx];
                let v = x.var();
                if !self.seen[v.as_usize()] {
                    continue;
                }
                self.seen[v.as_usize()] = false;
                match self.reason[v.as_usize()] {
                    None => {
                        if x != !failed {
                            out.push(!x);
                        }
                    }
                    Some(r) => {
                        for &q in &self.db.lits(r)[1..] {
                            if self.level[q.var().as_usize()] > 0 {
                                self.seen[q.var().as_usize()] = true;
                            }
                        }
                    }
                }
            }
            self.seen[failed.var().as_usize()] = false;
        }
        out.sort_unstable();
        out.dedup();
        let id = self.build_chain_from(r0, &out);
        if let Some(id) = id {
            self.tag_proof_step(id, StepRole::FinalConflict);
        }
        (out, id)
    }

    /// The conflict clause of the last `Unsat` answer: a clause over the
    /// negations of the failed assumptions (empty for an outright
    /// refutation), plus its proof step when logging.
    pub fn final_clause(&self) -> Option<(&[Lit], Option<ClauseId>)> {
        self.final_clause
            .as_ref()
            .map(|(c, id)| (c.as_slice(), *id))
    }

    /// Adds the last final conflict clause permanently to the clause
    /// database (no new proof step — it is already derived). This is how
    /// the CEC engine turns a per-pair UNSAT answer into a reusable
    /// equivalence lemma. Returns its proof id.
    ///
    /// # Panics
    ///
    /// Panics if there is no final clause (last solve was SAT or never
    /// ran) or if the final clause is the unusable tautology produced by
    /// contradictory assumptions.
    pub fn commit_final_clause(&mut self) -> Option<ClauseId> {
        let (lits, id) = self
            .final_clause
            .take()
            .expect("no final conflict clause available");
        assert!(
            lits.windows(2).all(|w| w[0].var() != w[1].var()),
            "cannot commit a tautological final clause"
        );
        self.cancel_until(0);
        if !lits.is_empty() {
            // The final clause is sorted and free of duplicates already.
            self.with_sorted_copy(&lits, |s, ls| s.insert_clause(ls, false, id));
        }
        self.final_clause = Some((lits, id));
        id
    }

    /// Value of `v` in the last satisfying model. A variable that was
    /// neither decided nor implied (one turned off by
    /// [`Solver::set_decision_var`] and forced by no clause) reads
    /// `false`.
    ///
    /// # Panics
    ///
    /// Panics if the last solve did not return [`SolveResult::Sat`].
    pub fn model_value(&self, v: Var) -> bool {
        self.saved_model
            .as_ref()
            .expect("no model: last solve was not SAT")[v.as_usize()]
    }

    /// The last satisfying model (indexed by variable), if any; read as
    /// [`Solver::model_value`] reads it.
    pub fn model(&self) -> Option<&[bool]> {
        self.saved_model.as_deref()
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::final_clause`] holds a clause over the
    /// negations of the assumptions actually used (empty if the formula
    /// is unsatisfiable outright).
    ///
    /// # Panics
    ///
    /// Panics if an assumption variable has not been allocated.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.saved_model = None;
        self.final_clause = None;
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption variable not allocated"
            );
        }
        self.cancel_until(0);
        if self.unsat {
            self.final_clause = Some((Vec::new(), self.empty_id));
            return SolveResult::Unsat;
        }
        if self.max_learnt == 0.0 {
            self.max_learnt =
                (self.num_problem_clauses as f64 * self.config.learnt_size_factor).max(100.0);
        }

        let mut restart_count = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut conflicts_this_call = 0u64;
        let mut budget = self.config.restart_base * luby(1);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.empty_id = self.build_chain_from(confl, &[]);
                    self.unsat = true;
                    self.final_clause = Some((Vec::new(), self.empty_id));
                    return SolveResult::Unsat;
                }
                let (bt, lbd) = self.analyze(confl);
                let learnt = std::mem::take(&mut self.learnt);
                // Record the derivation before unwinding the trail.
                let id = self.build_chain_from(confl, &learnt);
                self.cancel_until(bt);
                self.stats.learnt += 1;
                let r = self.db.add(&learnt, true, id);
                self.db.set_lbd(r, lbd);
                // A unit learnt clause is asserted at level 0, unwatched.
                if learnt.len() > 1 {
                    self.attach(r);
                }
                self.assign(learnt[0], Some(r));
                self.learnt = learnt;
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLAUSE_DECAY;
            } else {
                // No conflict.
                if let Some(limit) = self.conflict_budget {
                    if conflicts_this_call >= limit {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if conflicts_since_restart >= budget {
                    self.stats.restarts += 1;
                    restart_count += 1;
                    conflicts_since_restart = 0;
                    budget = self.config.restart_base * luby(restart_count + 1);
                    self.recorder.instant(
                        "restart",
                        self.recorder_tid,
                        &[
                            ("restarts", obs::ArgVal::U64(self.stats.restarts)),
                            ("conflicts", obs::ArgVal::U64(self.stats.conflicts)),
                            ("next_budget", obs::ArgVal::U64(budget)),
                        ],
                    );
                    self.cancel_until(0);
                    continue;
                }
                if self.db.num_learnt() as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= self.config.learnt_size_inc;
                }
                let lvl = self.decision_level() as usize;
                if lvl < assumptions.len() {
                    let p = assumptions[lvl];
                    match self.lit_value(p) {
                        TRUE => {
                            self.new_level();
                        }
                        FALSE => {
                            let (clause, id) = self.analyze_final(p);
                            self.cancel_until(0);
                            self.final_clause = Some((clause, id));
                            return SolveResult::Unsat;
                        }
                        _ => {
                            self.new_level();
                            self.assign(p, None);
                        }
                    }
                } else {
                    // Regular decision.
                    let next = loop {
                        match self.order.pop(&self.activity) {
                            None => break None,
                            Some(v) => {
                                // A variable turned off while in the
                                // heap leaves it here.
                                if self.decision[v.as_usize()]
                                    && self.lit_value(v.positive()) == UNDEF
                                {
                                    break Some(v);
                                }
                            }
                        }
                    };
                    match next {
                        None => {
                            // Every decision variable assigned: model
                            // found.
                            let model: Vec<bool> =
                                self.assigns.iter().step_by(2).map(|&v| v == TRUE).collect();
                            self.saved_model = Some(model);
                            self.cancel_until(0);
                            return SolveResult::Sat;
                        }
                        Some(v) => {
                            self.stats.decisions += 1;
                            let l = v.lit(self.polarity[v.as_usize()]);
                            self.new_level();
                            self.assign(l, None);
                        }
                    }
                }
            }
        }
    }

    fn reduce_db(&mut self) {
        let mut refs = self.db.learnt_refs();
        // Delete the worst half: high LBD first, then low activity.
        refs.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut deleted = 0;
        for &r in &refs {
            if deleted >= target {
                break;
            }
            if self.db.lbd(r) <= 2 || self.is_locked(r) {
                continue;
            }
            self.db.delete(r);
            deleted += 1;
            self.stats.deleted += 1;
        }
        self.recorder.instant(
            "reduce_db",
            self.recorder_tid,
            &[
                ("deleted", obs::ArgVal::U64(deleted as u64)),
                ("learnt_live", obs::ArgVal::U64(self.db.num_learnt() as u64)),
            ],
        );
        if self.db.wasted() > self.db.len() / 2 {
            self.compact_db();
        }
    }

    /// Compacts the clause arena and rewrites every clause reference the
    /// solver holds. The search does not change: watchers of deleted
    /// clauses, which `propagate` would only drop, go now, and live
    /// watchers, learnt clauses and live clauses keep their order.
    fn compact_db(&mut self) {
        let moved = self.db.compact();
        for ws in &mut self.watches {
            ws.retain_mut(|w| match moved.get(w.clause) {
                Some(r) => {
                    w.clause = r;
                    true
                }
                None => false,
            });
        }
        // Reasons of unassigned variables are stale and never read.
        for l in &self.trail {
            let reason = &mut self.reason[l.var().as_usize()];
            if let Some(r) = reason {
                *r = moved.get(*r).expect("a reason clause is locked");
            }
        }
    }

    fn is_locked(&self, r: ClauseRef) -> bool {
        let l0 = self.db.lit(r, 0);
        self.lit_value(l0) == TRUE && self.reason[l0.var().as_usize()] == Some(r)
    }
}

/// Records `target` as a learned proof step derived by `chain`.
fn log_learned(proof: &mut Proof, target: &[Lit], chain: &[ClauseId]) -> ClauseId {
    let id = proof.add_derived(target.iter().copied(), chain.iter().copied());
    proof.set_role(id, StepRole::Learned);
    id
}

/// Scratch state of chain replay (see [`Solver::build_chain_from`]),
/// kept between replays so that none allocates.
#[derive(Debug, Default)]
struct ChainReplay {
    // Literal-indexed marks: literals of the running resolvent, and
    // literals of the target clause.
    in_resolvent: Vec<bool>,
    in_target: Vec<bool>,
    touched: Vec<Lit>,
    antecedents: Vec<ClauseId>,
}

impl ChainReplay {
    /// Makes room for the two literals of one more variable.
    fn grow(&mut self) {
        self.in_resolvent.extend([false; 2]);
        self.in_target.extend([false; 2]);
    }

    /// Resolves the literals of `start` that `target` lacks against
    /// their reason clauses, in reverse trail order, and returns the
    /// antecedent chain: `start_id`, then each reason's proof id.
    ///
    /// # Panics
    ///
    /// Panics if `start` or a reason clause has no proof id, or a
    /// literal to resolve out has no reason.
    fn replay(
        &mut self,
        start: &[Lit],
        start_id: Option<ClauseId>,
        target: &[Lit],
        trail: &[Lit],
        reason: &[Option<ClauseRef>],
        db: &ClauseDb,
    ) -> &[ClauseId] {
        self.antecedents.clear();
        self.antecedents
            .push(start_id.expect("proof id missing on start clause"));
        debug_assert!(self.touched.is_empty());
        for &l in target {
            self.in_target[l.code() as usize] = true;
        }
        let mut remaining = 0usize;
        for &l in start {
            remaining += self.add_to_resolvent(l);
        }
        for &p in trail.iter().rev() {
            if remaining == 0 {
                break;
            }
            let np = !p;
            if !self.in_resolvent[np.code() as usize] || self.in_target[np.code() as usize] {
                continue;
            }
            let r = reason[p.var().as_usize()]
                .expect("chain replay: resolved literal must have a reason");
            self.antecedents
                .push(db.proof_id(r).expect("proof id missing on reason clause"));
            self.in_resolvent[np.code() as usize] = false;
            remaining -= 1;
            let lits = db.lits(r);
            debug_assert_eq!(lits[0], p, "reason clause invariant");
            for &q in &lits[1..] {
                remaining += self.add_to_resolvent(q);
            }
        }
        debug_assert_eq!(remaining, 0, "chain replay left unresolved literals");
        for l in self.touched.drain(..) {
            self.in_resolvent[l.code() as usize] = false;
        }
        for &l in target {
            self.in_target[l.code() as usize] = false;
        }
        &self.antecedents
    }

    /// Adds `l` to the resolvent; returns 1 if it is new and must be
    /// resolved out (it is not in the target), else 0.
    #[inline]
    fn add_to_resolvent(&mut self, l: Lit) -> usize {
        let mark = &mut self.in_resolvent[l.code() as usize];
        if *mark {
            return 0;
        }
        *mark = true;
        self.touched.push(l);
        usize::from(!self.in_target[l.code() as usize])
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // test builders index parallel tables
mod tests {
    use super::*;

    fn lits(solver_vars: &[Var], xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&v| solver_vars[(v.unsigned_abs() - 1) as usize].lit(v < 0))
            .collect()
    }

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&lits(&v, &[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        let m = s.model().unwrap();
        assert!(m[0] || m[1]);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        s.add_clause(&lits(&v, &[1]));
        s.add_clause(&lits(&v, &[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.is_unsat());
        let p = s.proof().unwrap();
        assert!(proof::check::check_refutation(p).is_ok());
    }

    #[test]
    fn empty_clause_input() {
        let mut s = Solver::with_proof();
        s.add_clause(&[]);
        assert!(s.is_unsat());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unsat_without_assumptions_has_empty_final() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 2);
        s.add_clause(&lits(&v, &[1, 2]));
        s.add_clause(&lits(&v, &[1, -2]));
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-1, -2]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let (fc, id) = s.final_clause().unwrap();
        assert!(fc.is_empty());
        assert!(id.is_some());
        assert!(proof::check::check_refutation(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 2);
        // x -> y
        s.add_clause(&lits(&v, &[-1, 2]));
        assert_eq!(s.solve_with(&lits(&v, &[1])), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        assert_eq!(s.solve_with(&lits(&v, &[1, -2])), SolveResult::Unsat);
        let (fc, id) = s.final_clause().unwrap();
        // Final clause over negated assumptions: ¬x ∨ y.
        assert_eq!(fc.len(), 2);
        assert!(id.is_some());
        // Formula itself still satisfiable.
        assert!(!s.is_unsat());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn committed_final_clause_is_usable() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-2, 3]));
        // x ∧ ¬z is contradictory.
        assert_eq!(s.solve_with(&lits(&v, &[1, -3])), SolveResult::Unsat);
        let id = s.commit_final_clause();
        assert!(id.is_some());
        // The lemma (¬x ∨ z) is now in the database: asserting x forces z.
        assert_eq!(s.solve_with(&lits(&v, &[1])), SolveResult::Sat);
        assert!(s.model_value(v[2]));
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        assert_eq!(s.solve_with(&lits(&v, &[1, -1])), SolveResult::Unsat);
        let (fc, id) = s.final_clause().unwrap();
        assert_eq!(fc.len(), 2);
        assert!(id.is_none(), "tautology has no resolution derivation");
    }

    #[test]
    fn derived_clause_round_trip() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 2);
        let c1 = s.add_clause(&lits(&v, &[1, 2])).unwrap();
        let c2 = s.add_clause(&lits(&v, &[1, -2])).unwrap();
        // (x) follows by resolution on y.
        s.add_derived_clause(&lits(&v, &[1]), &[c1, c2]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[0]));
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
        assert!(proof::check::check_rup(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn recorded_derived_clause_is_not_attached() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-2, 3]));
        assert_eq!(s.solve_with(&lits(&v, &[1, -3])), SolveResult::Unsat);
        let fc = s.commit_final_clause().unwrap();
        let weakened = lits(&v, &[-1, 3, 2]);
        let id = s.record_derived_clause(&weakened, &[fc]);
        let proof = s.proof().unwrap();
        assert_eq!(proof.step(id).antecedents, [fc]);
        assert_eq!(proof.step(id).clause, lits(&v, &[-1, 2, 3]));
        assert!(proof::check::check_strict(proof).is_ok());
        assert_eq!(s.num_clauses(), 3, "two originals and the final clause");
    }

    #[test]
    fn tautology_skipped() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&lits(&v, &[1, -1])).is_none());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 1);
        s.add_clause(&lits(&v, &[1, 1, 1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[0]));
    }

    /// Pigeonhole principle PHP(n+1, n): n+1 pigeons, n holes — UNSAT,
    /// requires real conflict analysis and learning.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let mut var = vec![vec![Var::new(0); holes]; pigeons];
        for p in 0..pigeons {
            for h in 0..holes {
                var[p][h] = s.new_var();
            }
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| var[p][h].positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[var[p1][h].negative(), var[p2][h].negative()]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat_with_checked_proof() {
        for n in 2..=5 {
            let mut s = Solver::with_proof();
            pigeonhole(&mut s, n + 1, n);
            assert_eq!(s.solve(), SolveResult::Unsat, "php({}, {})", n + 1, n);
            let p = s.proof().unwrap();
            proof::check::check_refutation(p).expect("proof must check");
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn stats_progress() {
        let mut s = Solver::with_proof();
        pigeonhole(&mut s, 5, 4);
        s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
        assert_eq!(st.solves, 1);
    }

    #[test]
    fn incremental_reuse_after_unsat_assumptions() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 4);
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[-2, 3]));
        s.add_clause(&lits(&v, &[-3, 4]));
        for _ in 0..3 {
            assert_eq!(s.solve_with(&lits(&v, &[1, -4])), SolveResult::Unsat);
            assert_eq!(s.solve_with(&lits(&v, &[1, 4])), SolveResult::Sat);
        }
        assert!(proof::check::check_strict(s.proof().unwrap()).is_ok());
    }

    #[test]
    fn clause_db_reduction_fires_and_stays_sound() {
        // Force aggressive reduction with a tiny learnt limit, then make
        // sure the verdict and the proof are still right.
        let mut s = Solver::with_config(SolverConfig {
            proof_logging: true,
            learnt_size_factor: 0.001,
            learnt_size_inc: 1.01,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().deleted > 0, "reduction never fired");
        proof::check::check_refutation(s.proof().unwrap()).unwrap();
    }

    #[test]
    fn restarts_fire_with_small_base() {
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 2,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().restarts > 0, "restarts never fired");
    }

    #[test]
    fn restarts_and_learnt_counters_nonzero_on_hard_instance() {
        // php(8,7) is hard enough that a default-configured solver must
        // both learn clauses and restart; the telemetry layer depends on
        // these counters being live.
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().restarts > 0, "no restarts counted");
        assert!(s.stats().learnt > 0, "no learnt clauses counted");
        assert!(s.stats().learnt >= s.stats().restarts);
    }

    #[test]
    fn recorder_captures_restart_and_reduce_db_events() {
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 2,
            learnt_size_factor: 0.001,
            learnt_size_inc: 1.01,
            ..SolverConfig::default()
        });
        let rec = obs::Recorder::new();
        s.set_recorder(rec.clone(), 5);
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let events = rec.take_events();
        let restarts = events.iter().filter(|e| e.name == "restart").count();
        let reductions = events.iter().filter(|e| e.name == "reduce_db").count();
        assert_eq!(restarts as u64, s.stats().restarts);
        assert!(reductions > 0, "no reduce_db events");
        assert!(events.iter().all(|e| e.tid == 5));
    }

    #[test]
    fn adding_clauses_after_solving_works() {
        let mut s = Solver::with_proof();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&lits(&v, &[-1]));
        s.add_clause(&lits(&v, &[-2, 3]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(v[1]));
        assert!(s.model_value(v[2]));
        s.add_clause(&lits(&v, &[-3]));
        assert_eq!(s.solve(), SolveResult::Unsat);
        proof::check::check_refutation(s.proof().unwrap()).unwrap();
    }

    #[test]
    fn conflict_budget_yields_unknown_then_resumes() {
        let mut s = Solver::with_proof();
        pigeonhole(&mut s, 7, 6);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(!s.is_unsat(), "unknown must not claim a verdict");
        // Remove the budget: the verdict is reached and the proof —
        // including clauses learnt during the budgeted attempt — checks.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        proof::check::check_refutation(s.proof().unwrap()).unwrap();
    }

    #[test]
    fn generous_budget_does_not_change_verdict() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 4);
        s.set_conflict_budget(Some(1_000_000));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn non_decision_vars_are_assigned_only_when_implied() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // x → y, and (z ∨ w), with only x a decision variable.
        s.add_clause(&lits(&v, &[-1, 2]));
        s.add_clause(&lits(&v, &[3, 4]));
        for &u in &v[1..] {
            s.set_decision_var(u, false);
        }
        s.add_clause(&lits(&v, &[1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().decisions, 0);
        // y is implied; z and w are neither decided nor implied, so both
        // read false although (z ∨ w) is attached.
        assert!(s.model_value(v[0]) && s.model_value(v[1]));
        assert!(!s.model_value(v[2]) && !s.model_value(v[3]));
    }

    #[test]
    fn re_enabled_var_returns_to_the_decision_order() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&lits(&v, &[1, 2]));
        s.set_decision_var(v[1], false);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Only x is decided, true (the default phase), which satisfies
        // (x ∨ y) and leaves y unassigned.
        assert_eq!(s.stats().decisions, 1);
        assert!(s.model_value(v[0]) && !s.model_value(v[1]));
        s.set_decision_var(v[0], false);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().decisions, 1, "nothing left to decide");
        assert!(!s.model_value(v[0]) && !s.model_value(v[1]));
        s.set_decision_var(v[1], true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().decisions, 2, "y is decided again");
        assert!(!s.model_value(v[0]) && s.model_value(v[1]));
    }

    #[test]
    fn record_then_attach_matches_add_clause() {
        let clauses: [&[i32]; 5] = [&[-1, 2], &[-2, 3, 3], &[1, -1], &[-3, 4], &[-1, -4]];
        let mut added = Solver::with_proof();
        let v = vars(&mut added, 4);
        let added_ids: Vec<_> = clauses
            .iter()
            .map(|c| added.add_clause(&lits(&v, c)))
            .collect();
        let mut split = Solver::with_proof();
        vars(&mut split, 4);
        let split_ids: Vec<_> = clauses
            .iter()
            .map(|c| split.record_clause(&lits(&v, c)))
            .collect();
        assert_eq!(split_ids, added_ids, "the same original steps");
        assert!(split_ids[2].is_none(), "a tautology is not recorded");
        assert_eq!(split.num_clauses(), 0, "recording attaches nothing");
        for (c, &id) in clauses.iter().zip(&split_ids) {
            split.attach_clause(&lits(&v, c), id);
        }
        assert_eq!(split.num_clauses(), added.num_clauses());
        for s in [&mut added, &mut split] {
            assert_eq!(s.solve_with(&lits(&v, &[1])), SolveResult::Unsat);
        }
        assert_eq!(split.stats(), added.stats(), "the same propagation");
        let bytes = |s: &Solver| {
            let mut out = Vec::new();
            proof::export::write_tracecheck(s.proof().unwrap(), &mut out).unwrap();
            out
        };
        assert_eq!(bytes(&split), bytes(&added));
    }

    #[test]
    fn model_covers_all_vars() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&lits(&v, &[1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model().unwrap().len(), 3);
    }
}
