//! Experiment runners for every table and figure (see `EXPERIMENTS.md`).

use crate::workloads::Pair;
use cec::{CecOutcome, EngineConfig, Miter, Session, SharedContext, SimClasses};
use cnf::tseitin::{self, Partition};
use proof::{ClauseId, Proof};
use sat::{SolveResult, Solver};
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the sweeping engine with default (proof-recording) options.
pub fn sweep_prove(pair: &Pair) -> CecOutcome {
    Session::new(EngineConfig::default(), &SharedContext::disabled())
        .check(&pair.a, &pair.b)
        .expect("well-formed pair")
}

/// Runs the monolithic baseline with proof recording.
pub fn mono_prove(pair: &Pair) -> CecOutcome {
    Session::new(EngineConfig::default(), &SharedContext::disabled())
        .check_monolithic(&pair.a, &pair.b)
        .expect("well-formed pair")
}

// --------------------------------------------------------- selections --
//
// What each table runs on. T1–T3 and T8 take the whole suite; the
// `tables` binary and the tables golden read the rest from here.

/// Suite pairs of T4.
pub const T4_PAIRS: &[&str] = &[
    "add-rca/ks-16",
    "mul-arr/csa-5",
    "parity-ch/tr-32",
    "rewrite-rand-400",
];
/// Suite families of T5.
pub const T5_FAMILIES: &[&str] = &["adder", "parity", "comparator"];
/// Suite pairs of T6.
pub const T6_PAIRS: &[&str] = &[
    "add-rca/ks-16",
    "add-rca/ks-32",
    "mul-arr/csa-5",
    "alu-rca/ks-8",
    "rewrite-rand-400",
];
/// Suite pairs whose unions T7 reduces.
pub const T7_PAIRS: &[&str] = &[
    "add-rca/ks-16",
    "add-rca/bk-32",
    "mul-arr/csa-5",
    "alu-rca/ks-8",
    "parity-ch/tr-32",
    "pop-ser/csa-24",
];
/// BDD node limit of T8 and F3.
pub const BDD_NODE_LIMIT: usize = 1 << 21;
/// Adder widths of F1.
pub const F1_WIDTHS: &[usize] = &[4, 8, 16, 24, 32, 48, 64];
/// Suite pairs of F2.
pub const F2_PAIRS: &[&str] = &["add-rca/ks-16", "mul-arr/csa-5", "alu-rca/ks-8"];
/// Simulation efforts of F2, in 64-bit words.
pub const F2_WORDS: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// The suite pairs named in `names` or of a family in `families`, in
/// suite order.
pub fn select(names: &[&str], families: &[&str]) -> Vec<Pair> {
    crate::suite()
        .into_iter()
        .filter(|p| names.contains(&p.name.as_str()) || families.contains(&p.family))
        .collect()
}

// ---------------------------------------------------------------- T1 --

/// One row of table T1 (benchmark characteristics).
#[derive(Clone, Debug)]
pub struct T1Row {
    /// Pair name.
    pub name: String,
    /// Workload family.
    pub family: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// AND gates in circuit A / circuit B.
    pub ands: (usize, usize),
    /// Logic depth of circuit A / circuit B.
    pub depth: (u32, u32),
    /// Nodes in the shared miter graph.
    pub miter_nodes: usize,
    /// Nodes in the miter graph without cross-circuit sharing.
    pub miter_nodes_unshared: usize,
}

/// Table T1: characteristics of every benchmark pair.
pub fn run_t1(pairs: &[Pair]) -> Vec<T1Row> {
    pairs
        .iter()
        .map(|p| T1Row {
            name: p.name.clone(),
            family: p.family,
            inputs: p.a.num_inputs(),
            outputs: p.a.num_outputs(),
            ands: (p.a.num_ands(), p.b.num_ands()),
            depth: (p.a.depth(), p.b.depth()),
            miter_nodes: Miter::build(&p.a, &p.b, true).graph.len(),
            miter_nodes_unshared: Miter::build(&p.a, &p.b, false).graph.len(),
        })
        .collect()
}

// ---------------------------------------------------------------- T2 --

/// One engine's measurements within a T2 row.
#[derive(Clone, Copy, Debug)]
pub struct EngineMeasurement {
    /// Wall-clock solve time (ms).
    pub solve_ms: f64,
    /// Resolution steps in the recorded proof.
    pub resolutions: u64,
    /// Resolution steps after backward trimming.
    pub trimmed_resolutions: u64,
    /// Time to re-check the (untrimmed) proof with the strict checker (ms).
    pub check_ms: f64,
}

/// One row of table T2 (headline comparison).
#[derive(Clone, Debug)]
pub struct T2Row {
    /// Pair name.
    pub name: String,
    /// Workload family.
    pub family: &'static str,
    /// Sweeping engine measurements.
    pub sweep: EngineMeasurement,
    /// Monolithic baseline measurements.
    pub mono: EngineMeasurement,
}

impl T2Row {
    /// Monolithic-to-sweeping proof-size ratio (>1 means sweeping wins).
    pub fn proof_ratio(&self) -> f64 {
        self.mono.resolutions.max(1) as f64 / self.sweep.resolutions.max(1) as f64
    }
}

fn measure(outcome: &CecOutcome, solve_ms: f64) -> EngineMeasurement {
    let cert = outcome.certificate().expect("equivalent pair");
    let p = cert.proof.as_ref().expect("proof recorded");
    let t = Instant::now();
    proof::check::check_refutation(p).expect("proof must check");
    let check_ms = ms(t.elapsed());
    EngineMeasurement {
        solve_ms,
        resolutions: p.stats().resolutions,
        trimmed_resolutions: cert
            .stats
            .trimmed
            .map(|s| s.resolutions)
            .unwrap_or_default(),
        check_ms,
    }
}

/// Table T2: sweeping vs monolithic — time, proof size, checking time.
pub fn run_t2(pairs: &[Pair]) -> Vec<T2Row> {
    pairs
        .iter()
        .map(|p| {
            let t = Instant::now();
            let sweep = sweep_prove(p);
            let sweep_ms = ms(t.elapsed());
            let t = Instant::now();
            let mono = mono_prove(p);
            let mono_ms = ms(t.elapsed());
            T2Row {
                name: p.name.clone(),
                family: p.family,
                sweep: measure(&sweep, sweep_ms),
                mono: measure(&mono, mono_ms),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- T3 --

/// One row of table T3 (proof trimming).
#[derive(Clone, Debug)]
pub struct T3Row {
    /// Pair name.
    pub name: String,
    /// Steps recorded by the sweeping engine.
    pub recorded: usize,
    /// Steps surviving backward trimming.
    pub trimmed: usize,
    /// Original clauses kept (the unsat core).
    pub core_originals: usize,
    /// Original clauses recorded.
    pub originals: usize,
    /// Steps after compaction (clause dedup) + trimming.
    pub compacted: usize,
    /// Trimming time (ms).
    pub trim_ms: f64,
}

impl T3Row {
    /// Fraction of recorded steps removed by trimming.
    pub fn removed_fraction(&self) -> f64 {
        1.0 - self.trimmed as f64 / self.recorded.max(1) as f64
    }
}

/// Table T3: effect of backward trimming on the sweeping engine's proofs.
pub fn run_t3(pairs: &[Pair]) -> Vec<T3Row> {
    pairs
        .iter()
        .map(|p| {
            let outcome = sweep_prove(p);
            let cert = outcome.certificate().expect("equivalent pair");
            let proof = cert.proof.as_ref().expect("proof recorded");
            let t = Instant::now();
            let trimmed = proof::trim_refutation(proof);
            let trim_ms = ms(t.elapsed());
            proof::check::check_refutation(&trimmed.proof).expect("trimmed proof checks");
            let compacted = proof::compact_refutation(proof);
            proof::check::check_refutation(&compacted.proof).expect("compacted proof checks");
            T3Row {
                name: p.name.clone(),
                recorded: proof.len(),
                trimmed: trimmed.proof.len(),
                core_originals: trimmed.proof.num_original(),
                originals: proof.num_original(),
                compacted: compacted.proof.len(),
                trim_ms,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- T4 --

/// Engine configuration under ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// Everything on (the default engine).
    Full,
    /// No structural-merge resolution rules.
    NoStructuralMerge,
    /// No cross-circuit structural hashing in the miter.
    NoSharing,
    /// Neither sharing nor structural merging.
    NoSharingNoMerge,
    /// No sweeping at all (monolithic on the shared miter).
    NoSweep,
}

impl Ablation {
    /// All ablation configurations, in presentation order.
    pub fn all() -> [Ablation; 5] {
        [
            Ablation::Full,
            Ablation::NoStructuralMerge,
            Ablation::NoSharing,
            Ablation::NoSharingNoMerge,
            Ablation::NoSweep,
        ]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::Full => "full",
            Ablation::NoStructuralMerge => "-struct",
            Ablation::NoSharing => "-share",
            Ablation::NoSharingNoMerge => "-share-struct",
            Ablation::NoSweep => "-sweep",
        }
    }

    /// The engine config of this ablation.
    pub fn options(self) -> EngineConfig {
        let mut o = EngineConfig::default();
        match self {
            Ablation::Full => {}
            Ablation::NoStructuralMerge => o.structural_merging = false,
            Ablation::NoSharing => o.share_structure = false,
            Ablation::NoSharingNoMerge => {
                o.share_structure = false;
                o.structural_merging = false;
            }
            Ablation::NoSweep => o.sweep = false,
        }
        o
    }
}

/// One row of table T4 (ablation).
#[derive(Clone, Debug)]
pub struct T4Row {
    /// Pair name.
    pub name: String,
    /// Configuration.
    pub config: Ablation,
    /// SAT calls issued by the sweep.
    pub sat_calls: u64,
    /// SAT calls refuted by counterexample.
    pub sat_cex: u64,
    /// Structural merges (no SAT call needed).
    pub structural_merges: u64,
    /// Resolution steps in the proof.
    pub resolutions: u64,
    /// Solve time (ms).
    pub solve_ms: f64,
}

/// Table T4: contribution of structural hashing and structural merging.
pub fn run_t4(pairs: &[Pair]) -> Vec<T4Row> {
    let mut rows = Vec::new();
    for p in pairs {
        for config in Ablation::all() {
            let t = Instant::now();
            let outcome = Session::new(config.options(), &SharedContext::disabled())
                .check(&p.a, &p.b)
                .expect("well-formed pair");
            let solve_ms = ms(t.elapsed());
            let stats = outcome.stats();
            rows.push(T4Row {
                name: p.name.clone(),
                config,
                sat_calls: stats.sat_calls,
                sat_cex: stats.sat_cex,
                structural_merges: stats.structural_merges,
                resolutions: stats.proof.map(|s| s.resolutions).unwrap_or_default(),
                solve_ms,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- T5 --

/// One row of table T5 (interpolation).
#[derive(Clone, Debug)]
pub struct T5Row {
    /// Pair name.
    pub name: String,
    /// Resolutions in the raw refutation.
    pub raw_resolutions: u64,
    /// Interpolant size (AND gates) from the raw proof.
    pub raw_itp_gates: usize,
    /// Resolutions after trimming.
    pub trimmed_resolutions: u64,
    /// Interpolant size (AND gates) from the trimmed proof.
    pub trimmed_itp_gates: usize,
    /// Shared variables the interpolant mentions.
    pub itp_inputs: usize,
    /// Interpolant size (AND gates) from the *sweeping* engine's proof
    /// (run without cross-circuit sharing so sides are well defined).
    pub sweep_itp_gates: usize,
}

/// Table T5: Craig interpolants extracted from miter refutations, from
/// the raw proof vs the trimmed proof.
pub fn run_t5(pairs: &[Pair]) -> Vec<T5Row> {
    pairs
        .iter()
        .map(|p| {
            let miter = tseitin::encode_miter(&p.a, &p.b);
            let mut solver = Solver::with_proof();
            solver.ensure_vars(miter.cnf.num_vars());
            let mut sides: Vec<Partition> = Vec::new();
            for (clause, side) in miter.cnf.clauses().iter().zip(&miter.partition) {
                if let Some(id) = solver.add_clause(clause) {
                    while sides.len() <= id.as_usize() {
                        sides.push(Partition::B);
                    }
                    sides[id.as_usize()] = *side;
                }
            }
            assert_eq!(solver.solve(), SolveResult::Unsat, "{}", p.name);
            let raw: &Proof = solver.proof().expect("proof recorded");
            let root = raw.empty_clause().expect("refutation");
            let is_b = |id: ClauseId| sides.get(id.as_usize()).copied() != Some(Partition::A);
            let raw_itp = proof::interpolate::interpolant(raw, root, is_b)
                .expect("interpolation from solver proof");

            let trimmed = proof::trim_refutation(raw);
            let t_is_b = |id: ClauseId| {
                let old = trimmed.original_ids[id.as_usize()];
                sides.get(old.as_usize()).copied() != Some(Partition::A)
            };
            let t_root = trimmed.proof.empty_clause().expect("refutation");
            let trimmed_itp = proof::interpolate::interpolant(&trimmed.proof, t_root, t_is_b)
                .expect("interpolation from trimmed proof");

            // Sweeping-proof interpolant (unshared miter).
            let sweep_outcome = Session::new(
                EngineConfig {
                    share_structure: false,
                    ..EngineConfig::default()
                },
                &SharedContext::disabled(),
            )
            .check(&p.a, &p.b)
            .expect("well-formed pair");
            let sweep_itp_gates = sweep_outcome
                .certificate()
                .expect("equivalent")
                .interpolant()
                .expect("partition present")
                .expect("proof replays")
                .graph
                .num_ands();

            T5Row {
                name: p.name.clone(),
                raw_resolutions: raw.stats().resolutions,
                raw_itp_gates: raw_itp.graph.num_ands(),
                trimmed_resolutions: trimmed.proof.stats().resolutions,
                trimmed_itp_gates: trimmed_itp.graph.num_ands(),
                itp_inputs: trimmed_itp.inputs.len(),
                sweep_itp_gates,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- T6 --

/// One row of table T6 (proof composition breakdown by step role).
#[derive(Clone, Debug)]
pub struct T6Row {
    /// Pair name.
    pub name: String,
    /// `(role, steps, resolutions)` per role, over the *trimmed* proof.
    pub breakdown: Vec<(proof::StepRole, usize, u64)>,
    /// Total steps in the trimmed proof.
    pub total: usize,
}

impl T6Row {
    /// Steps of a given role.
    pub fn steps(&self, role: proof::StepRole) -> usize {
        self.breakdown
            .iter()
            .find(|(r, ..)| *r == role)
            .map_or(0, |(_, s, _)| *s)
    }
}

/// Table T6: which reasoning mechanism contributed which share of the
/// final (trimmed) refutation.
pub fn run_t6(pairs: &[Pair]) -> Vec<T6Row> {
    pairs
        .iter()
        .map(|p| {
            let outcome = sweep_prove(p);
            let cert = outcome.certificate().expect("equivalent pair");
            let raw = cert.proof.as_ref().expect("proof recorded");
            let trimmed = proof::trim_refutation(raw);
            T6Row {
                name: p.name.clone(),
                breakdown: trimmed.proof.role_histogram(),
                total: trimmed.proof.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- T7 --

/// One row of table T7 (FRAIG reduction).
#[derive(Clone, Debug)]
pub struct T7Row {
    /// Workload name.
    pub name: String,
    /// AND gates before reduction.
    pub before: usize,
    /// AND gates after reduction.
    pub after: usize,
    /// Reduction time (ms).
    pub reduce_ms: f64,
}

impl T7Row {
    /// Fraction of gates removed.
    pub fn removed_fraction(&self) -> f64 {
        1.0 - self.after as f64 / self.before.max(1) as f64
    }
}

/// Builds a redundancy-rich graph: both circuits of the pair imported
/// into one AIG *without* cross-copy sharing, all outputs kept.
fn redundant_union(pair: &Pair) -> aig::Aig {
    let mut g = aig::Aig::new();
    let inputs: Vec<aig::Lit> = (0..pair.a.num_inputs()).map(|_| g.add_input()).collect();
    for src in [&pair.a, &pair.b] {
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
    g
}

/// Table T7: SAT sweeping as an optimizer — gates removed from
/// redundancy-rich graphs (both architectures of each pair unioned).
pub fn run_t7(pairs: &[Pair]) -> Vec<T7Row> {
    pairs
        .iter()
        .map(|p| {
            let g = redundant_union(p);
            let t = Instant::now();
            let (reduced, _) =
                Session::new(EngineConfig::default(), &SharedContext::disabled()).reduce(&g);
            let reduce_ms = ms(t.elapsed());
            T7Row {
                name: p.name.clone(),
                before: g.num_ands(),
                after: reduced.num_ands(),
                reduce_ms,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- T8 --

/// One row of table T8 (BDD baseline vs SAT sweeping).
#[derive(Clone, Debug)]
pub struct T8Row {
    /// Pair name.
    pub name: String,
    /// Workload family.
    pub family: &'static str,
    /// BDD verdict reached (false = node-limit overflow).
    pub bdd_decided: bool,
    /// Peak BDD nodes (when decided).
    pub bdd_nodes: Option<usize>,
    /// BDD time (ms) including a failed (overflowing) attempt.
    pub bdd_ms: f64,
    /// Sweeping engine time (ms).
    pub sweep_ms: f64,
}

/// Table T8: the canonical-form baseline vs the proof-producing engine.
/// BDDs decide adder-like pairs instantly but hit the node limit on
/// multipliers under any variable order — and never produce a proof.
pub fn run_t8(pairs: &[Pair], node_limit: usize) -> Vec<T8Row> {
    use cec::bdd_baseline::{prove_bdd, BddVerdict};
    pairs
        .iter()
        .map(|p| {
            let t = Instant::now();
            let verdict = prove_bdd(&p.a, &p.b, node_limit).expect("well-formed pair");
            let bdd_ms = ms(t.elapsed());
            let (bdd_decided, bdd_nodes) = match &verdict {
                BddVerdict::Equivalent { nodes, .. } => (true, Some(*nodes)),
                BddVerdict::Inequivalent { nodes, .. } => (true, Some(*nodes)),
                BddVerdict::Overflow(_) => (false, None),
            };
            let t = Instant::now();
            let sweep = sweep_prove(p);
            let sweep_ms = ms(t.elapsed());
            assert!(
                sweep.is_equivalent(),
                "{}: suite pairs are equivalent",
                p.name
            );
            if bdd_decided {
                assert!(
                    matches!(verdict, BddVerdict::Equivalent { .. }),
                    "{}: baselines must agree",
                    p.name
                );
            }
            T8Row {
                name: p.name.clone(),
                family: p.family,
                bdd_decided,
                bdd_nodes,
                bdd_ms,
                sweep_ms,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- F1 --

/// One point of figure F1 (scaling with adder width).
#[derive(Clone, Debug)]
pub struct F1Point {
    /// Adder width in bits.
    pub width: usize,
    /// Sweeping engine solve time (ms) and proof resolutions.
    pub sweep: (f64, u64),
    /// Monolithic baseline solve time (ms) and proof resolutions.
    pub mono: (f64, u64),
}

/// Figure F1: proof size and time vs adder width, both engines.
pub fn run_f1(widths: &[usize]) -> Vec<F1Point> {
    crate::workloads::adder_scaling_pairs(widths)
        .iter()
        .zip(widths)
        .map(|(p, &width)| {
            let t = Instant::now();
            let sweep = sweep_prove(p);
            let sweep_ms = ms(t.elapsed());
            let t = Instant::now();
            let mono = mono_prove(p);
            let mono_ms = ms(t.elapsed());
            let res = |o: &CecOutcome| {
                o.certificate()
                    .expect("equivalent")
                    .stats
                    .proof
                    .map(|s| s.resolutions)
                    .unwrap_or_default()
            };
            F1Point {
                width,
                sweep: (sweep_ms, res(&sweep)),
                mono: (mono_ms, res(&mono)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- F3 --

/// One point of figure F3 (the BDD multiplier cliff).
#[derive(Clone, Debug)]
pub struct F3Point {
    /// Multiplier width in bits.
    pub width: usize,
    /// Peak BDD nodes, or `None` on node-limit overflow.
    pub bdd_nodes: Option<usize>,
    /// BDD time (ms), including failed attempts.
    pub bdd_ms: f64,
    /// Sweeping engine time (ms); `None` where the point was skipped
    /// (documented in the table output).
    pub sweep_ms: Option<f64>,
}

/// Figure F3: heterogeneous multipliers, BDD baseline vs sweeping.
/// The BDD series is exponential in the width and falls off a cliff at
/// the node limit; the SAT series degrades smoothly. `max_sweep_width`
/// bounds the (expensive) SAT points so the harness stays interactive —
/// the skipped points are reported as skipped, never silently dropped.
pub fn run_f3(widths: &[usize], node_limit: usize, max_sweep_width: usize) -> Vec<F3Point> {
    use cec::bdd_baseline::{prove_bdd, BddVerdict};
    widths
        .iter()
        .map(|&width| {
            let a = aig::gen::array_multiplier(width);
            let b = aig::gen::carry_save_multiplier(width);
            let t = Instant::now();
            let verdict = prove_bdd(&a, &b, node_limit).expect("well-formed pair");
            let bdd_ms = ms(t.elapsed());
            let bdd_nodes = match verdict {
                BddVerdict::Equivalent { nodes, .. } => Some(nodes),
                BddVerdict::Inequivalent { nodes, .. } => Some(nodes),
                BddVerdict::Overflow(_) => None,
            };
            let sweep_ms = (width <= max_sweep_width).then(|| {
                let t = Instant::now();
                let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
                    .check(&a, &b)
                    .expect("well-formed pair");
                assert!(outcome.is_equivalent());
                ms(t.elapsed())
            });
            F3Point {
                width,
                bdd_nodes,
                bdd_ms,
                sweep_ms,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- F2 --

/// One point of figure F2 (simulation effectiveness).
#[derive(Clone, Debug)]
pub struct F2Point {
    /// Pair name.
    pub name: String,
    /// Number of 64-bit random words simulated.
    pub words: usize,
    /// Candidate equivalence classes surviving.
    pub classes: usize,
    /// Candidate nodes surviving.
    pub candidates: usize,
}

/// Figure F2: surviving candidates vs simulation effort.
pub fn run_f2(pairs: &[Pair], word_counts: &[usize]) -> Vec<F2Point> {
    let mut points = Vec::new();
    for p in pairs {
        let miter = Miter::build(&p.a, &p.b, true);
        for &words in word_counts {
            let classes = SimClasses::from_random_simulation(&miter.graph, words, 0xC0FFEE);
            points.push(F2Point {
                name: p.name.clone(),
                words,
                classes: classes.num_classes(),
                candidates: classes.num_candidates(),
            });
        }
    }
    points
}

// ------------------------------------------------------------ timing --

/// Best and median of a series of wall times.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Fastest run (ms).
    pub best_ms: f64,
    /// Median run (ms).
    pub median_ms: f64,
}

impl Timing {
    fn of(times: impl IntoIterator<Item = f64>) -> Timing {
        let mut t: Vec<f64> = times.into_iter().collect();
        t.sort_by(f64::total_cmp);
        let n = t.len();
        Timing {
            best_ms: t[0],
            median_ms: (t[(n - 1) / 2] + t[n / 2]) / 2.0,
        }
    }
}

/// Runs `run` on every config in turn, `rounds` times over, and returns
/// per config the wall time (ms) and result of each run. Taking the
/// configs in turn makes warm-up and drift hit all of them alike.
fn interleave<C, T>(
    configs: &[C],
    rounds: usize,
    mut run: impl FnMut(&C) -> T,
) -> Vec<Vec<(f64, T)>> {
    let mut out: Vec<Vec<(f64, T)>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        for (config, runs) in configs.iter().zip(&mut out) {
            let t = Instant::now();
            let result = std::hint::black_box(run(config));
            runs.push((ms(t.elapsed()), result));
        }
    }
    out
}

// ---------------------------------------------------- trace-overhead --

/// One row of the `trace-overhead` table (one recorder setting).
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Recorder setting: `disabled`, `enabled` (events recorded and
    /// drained) or `enabled+jsonl` (drained events also exported as
    /// JSONL to a sink).
    pub setting: &'static str,
    /// Wall time of one check, including the drain and export.
    pub time: Timing,
    /// Relative change of the median against the disabled setting.
    pub vs_disabled: f64,
    /// Events recorded per check.
    pub events: usize,
}

/// The `trace-overhead` table: the 32-bit rca/Kogge-Stone pair checked
/// under three recorder settings, each of `rounds` rounds running all
/// three in turn. The disabled setting is what every untraced check
/// pays.
pub fn run_trace_overhead(rounds: usize) -> Vec<TraceRow> {
    let pair = crate::workloads::adder_scaling_pairs(&[32]).remove(0);
    let recorder = obs::Recorder::new();
    let traced = SharedContext::new(recorder.clone(), obs::metrics::Metrics::disabled());
    let untraced = SharedContext::disabled();
    let settings = [
        ("disabled", &untraced, false),
        ("enabled", &traced, false),
        ("enabled+jsonl", &traced, true),
    ];
    let runs = interleave(&settings, rounds, |&(_, ctx, jsonl)| {
        let outcome = Session::new(EngineConfig::default(), ctx)
            .check(&pair.a, &pair.b)
            .expect("well-formed pair");
        assert!(outcome.is_equivalent());
        let events = recorder.take_events();
        if jsonl {
            obs::export::write_jsonl(&events, &mut std::io::sink()).expect("sink write");
        }
        events.len()
    });
    let timings: Vec<Timing> = runs
        .iter()
        .map(|r| Timing::of(r.iter().map(|&(t, _)| t)))
        .collect();
    settings
        .iter()
        .zip(&runs)
        .zip(&timings)
        .map(|((&(setting, ..), runs), &time)| TraceRow {
            setting,
            time,
            vs_disabled: time.median_ms / timings[0].median_ms - 1.0,
            events: runs[0].1,
        })
        .collect()
}

// --------------------------------------------------------- lint-cost --

/// One row of the `lint-cost` table.
#[derive(Clone, Debug)]
pub struct LintCostRow {
    /// The pass timed.
    pub pass: &'static str,
    /// Best wall time (ms).
    pub best_ms: f64,
}

/// The `lint-cost` table: on the 64-bit adder pair's sweeping proof,
/// the bundle lint (miter AIG, CNF, proof and certificate), the bundle
/// lint with the miter CNF re-derived first (as `rcec --lint-bundle`
/// and `rplint <aig> <proof>` must), and strict proof replay
/// (`check_refutation`); best of `samples`, the passes taken in turn.
pub fn run_lint_cost(samples: usize) -> Vec<LintCostRow> {
    use lint::Bundle;
    let pair = crate::workloads::adder_scaling_pairs(&[64]).remove(0);
    let outcome = sweep_prove(&pair);
    let cert = outcome.certificate().expect("equivalent pair");
    let p = cert.proof.as_ref().expect("proof recorded");
    let info = cert.info();
    let miter = Miter::build(&pair.a, &pair.b, true);
    let formula = cec::miter_cnf(&miter);
    let bundle = Bundle {
        aig: Some(&miter.graph),
        cnf: Some(&formula),
        proof: Some(p),
        certificate: Some(&info),
    };
    let report = lint::lint_bundle(&bundle);
    assert_eq!(report.counts().errors, 0, "{:?}", report.diagnostics());
    let passes: [(&str, &dyn Fn() -> usize); 3] = [
        ("lint_bundle", &|| {
            lint::lint_bundle(&bundle).counts().errors
        }),
        ("lint_bundle+cnf", &|| {
            let cnf = cec::miter_cnf(&miter);
            let with_cnf = Bundle {
                cnf: Some(&cnf),
                ..bundle
            };
            lint::lint_bundle(&with_cnf).counts().errors
        }),
        ("check_refutation", &|| {
            proof::check::check_refutation(p)
                .expect("proof checks")
                .as_usize()
        }),
    ];
    let runs = interleave(&passes, samples, |(_, pass)| pass());
    passes
        .iter()
        .zip(runs)
        .map(|(&(pass, _), runs)| LintCostRow {
            pass,
            best_ms: Timing::of(runs.iter().map(|&(t, _)| t)).best_ms,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn adder_pair() -> Pair {
        workloads::adder_scaling_pairs(&[8]).remove(0)
    }

    #[test]
    fn t2_sweeping_beats_monolithic_on_adders() {
        let rows = run_t2(&[adder_pair()]);
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].proof_ratio() > 2.0,
            "expected sweeping to win by >2x, got {:.2}",
            rows[0].proof_ratio()
        );
    }

    #[test]
    fn t3_trimming_removes_steps() {
        let rows = run_t3(&[adder_pair()]);
        assert!(rows[0].removed_fraction() > 0.05);
        assert!(rows[0].core_originals <= rows[0].originals);
        assert!(rows[0].compacted <= rows[0].trimmed);
    }

    #[test]
    fn t4_covers_all_configs() {
        let rows = run_t4(&[adder_pair()]);
        assert_eq!(rows.len(), Ablation::all().len());
        let full = rows.iter().find(|r| r.config == Ablation::Full).unwrap();
        let nosweep = rows.iter().find(|r| r.config == Ablation::NoSweep).unwrap();
        assert!(full.sat_calls > 0);
        assert_eq!(nosweep.sat_calls, 0);
    }

    #[test]
    fn t5_interpolants_extract() {
        let rows = run_t5(&[adder_pair()]);
        assert!(rows[0].raw_itp_gates > 0 || rows[0].trimmed_itp_gates > 0);
        assert!(rows[0].trimmed_resolutions <= rows[0].raw_resolutions);
        // The sweeping proof also yields an interpolant, and it should be
        // far smaller than the monolithic one (lemma-level granularity).
        assert!(rows[0].sweep_itp_gates > 0);
        assert!(rows[0].sweep_itp_gates < rows[0].raw_itp_gates);
    }

    #[test]
    fn t6_breakdown_sums_to_total() {
        let rows = run_t6(&[adder_pair()]);
        let sum: usize = rows[0].breakdown.iter().map(|(_, s, _)| *s).sum();
        assert_eq!(sum, rows[0].total);
        // The stitched proof genuinely mixes mechanisms.
        assert!(rows[0].steps(proof::StepRole::Input) > 0);
        assert!(rows[0].steps(proof::StepRole::Learned) > 0);
        assert!(rows[0].steps(proof::StepRole::Lemma) > 0);
    }

    #[test]
    fn t7_reduction_removes_redundancy() {
        let rows = run_t7(&[adder_pair()]);
        assert!(
            rows[0].removed_fraction() > 0.3,
            "unioned adder pair should lose >30% of gates, lost {:.0}%",
            100.0 * rows[0].removed_fraction()
        );
    }

    #[test]
    fn t8_bdd_decides_adders_but_not_big_multipliers() {
        let pairs = vec![
            workloads::adder_scaling_pairs(&[8]).remove(0),
            workloads::suite()
                .into_iter()
                .find(|p| p.name == "mul-arr/csa-6")
                .unwrap(),
        ];
        let rows = run_t8(&pairs, 20_000);
        assert!(rows[0].bdd_decided, "adder fits easily");
        assert!(!rows[1].bdd_decided, "6-bit multiplier blows 20k nodes");
    }

    #[test]
    fn f1_is_monotone_in_width() {
        let points = run_f1(&[4, 8]);
        assert_eq!(points.len(), 2);
        assert!(points[1].mono.1 >= points[0].mono.1);
    }

    #[test]
    fn f3_bdd_cliff_appears() {
        let points = run_f3(&[4, 10], 20_000, 4);
        assert!(points[0].bdd_nodes.is_some(), "4-bit multiplier fits");
        assert!(points[1].bdd_nodes.is_none(), "10-bit multiplier overflows");
        assert!(points[0].sweep_ms.is_some());
        assert!(
            points[1].sweep_ms.is_none(),
            "sweep point skipped as configured"
        );
    }

    #[test]
    fn trace_overhead_records_events_only_when_enabled() {
        let rows = run_trace_overhead(1);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].events, rows[0].vs_disabled), (0, 0.0));
        assert!(rows[1].events > 0);
        assert_eq!(rows[1].events, rows[2].events);
    }

    #[test]
    fn lint_cost_times_every_pass() {
        let rows = run_lint_cost(1);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.best_ms > 0.0));
    }

    #[test]
    fn f2_candidates_shrink_with_more_words() {
        let points = run_f2(&[adder_pair()], &[1, 16]);
        let c1 = points.iter().find(|p| p.words == 1).unwrap().candidates;
        let c16 = points.iter().find(|p| p.words == 16).unwrap().candidates;
        assert!(c16 <= c1);
    }
}
