//! Static analysis for the proof-producing CEC pipeline.
//!
//! Where `proof::check` *replays* every resolution chain literally, this
//! crate inspects the **structure** of an artifact — a resolution proof,
//! a CNF formula, or an AIG netlist — and reports defects as
//! [`Diagnostic`]s with stable codes and severities, the way a compiler
//! lints source code. Structure-only passes are far cheaper than replay
//! and localize problems (``error[RP101] step c42: …``) instead of
//! failing with a single opaque verdict, which makes them the right
//! first tool when triaging a corrupted or hand-edited proof.
//!
//! Entry points, one per artifact kind plus one cross-artifact pass:
//!
//! - [`lint_proof`] — a [`proof::Proof`] already in memory;
//! - [`lint_tracecheck`] — a TraceCheck file, parsed leniently so that
//!   defects the strict importer rejects (forward references, id-order
//!   violations) surface as diagnostics rather than hard errors;
//! - [`lint_cnf`] / [`lint_aig`] — DIMACS formulas and AIG netlists;
//! - [`lint_drat`] — a DRAT clausal proof file, optionally checked
//!   against the formula it refutes;
//! - [`lint_journal`] — a durability run-state journal (checksummed
//!   JSONL), triaged leniently so a crashed run's journal reads as
//!   healthy-but-unfinished while real corruption gets an error;
//! - [`lint_bundle`] — the *cross-artifact* pass: an AIG, its Tseitin
//!   CNF, the recorded proof, and the certificate metadata together,
//!   checking that each layer actually binds to the next.
//!
//! [`fix_proof`] complements the read-only passes: it mechanically
//! repairs what the proof lints report (duplicate derivations, dead
//! steps, unreferenced tautologies) and is idempotent by construction.
//!
//! Every lint is registered in [`REGISTRY`] with a stable code (`RPxxx`
//! for proofs, `CFxxx` for CNF, `AGxxx` for AIG, `XBxxx` for bundles,
//! `DRxxx` for DRAT files, `JNxxx` for journals). A code is never
//! reused: `RP007` and `XB008`, which checked the stitch boundaries of
//! a parallel sweep that no longer exists, stay unassigned. Codes in
//! the `RP1xx` range perform *chain
//! analysis* — they gather antecedent clause literals — while `RP0xx`
//! codes are purely structural; the [`LintOptions::chain`] switch
//! selects between the fast structural pass and the full set (for DRAT
//! it gates the expensive RUP replay of `DR002`). Reports render as
//! text or JSON.

#![warn(missing_docs)]

mod aig_lints;
mod bundle_lints;
mod cnf_lints;
mod drat;
mod fix;
mod journal_lints;
mod proof_lints;
mod trace;

pub use aig_lints::lint_aig;
pub use bundle_lints::{lint_bundle, Bundle, CertificateInfo};
pub use cnf_lints::lint_cnf;
pub use drat::lint_drat;
pub use fix::{fix_proof, FixResult, FixSummary};
pub use journal_lints::lint_journal;
pub use proof_lints::lint_proof;
pub use trace::{lint_tracecheck, read_tracecheck};

use obs::json::Value;
use std::fmt;
use std::io::{self, Write};

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: expected in healthy artifacts (e.g. dead proof
    /// steps before trimming) but worth surfacing.
    Info,
    /// Suspicious: sound but wasteful or fragile (duplicate
    /// derivations, dangling AIG nodes).
    Warn,
    /// The artifact is defective: a checker or consumer will reject it.
    Error,
}

impl Severity {
    /// Lower-case label, as printed in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The kind of artifact a lint (or report) applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// A resolution proof (in memory or as a TraceCheck file).
    Proof,
    /// A CNF formula.
    Cnf,
    /// An And-Inverter Graph netlist.
    Aig,
    /// A cross-artifact certification bundle (AIG + CNF + proof +
    /// certificate metadata, any subset of which may be present).
    Bundle,
    /// A DRAT clausal proof file.
    Drat,
    /// A durability run-state journal (checksummed JSONL).
    Journal,
    /// A static hardness-analysis report over an instance (AIG and/or
    /// CNF). Analysis lints are advisory scheduling signals, not
    /// soundness findings.
    Analysis,
}

impl Artifact {
    /// Lower-case label, as printed in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Artifact::Proof => "proof",
            Artifact::Cnf => "cnf",
            Artifact::Aig => "aig",
            Artifact::Bundle => "bundle",
            Artifact::Drat => "drat",
            Artifact::Journal => "journal",
            Artifact::Analysis => "analysis",
        }
    }
}

/// A registered lint: stable code, human name, default severity.
#[derive(Debug)]
pub struct Lint {
    /// Stable code, e.g. `"RP001"`. Never reused once published.
    pub code: &'static str,
    /// Short kebab-case name, e.g. `"forward-reference"`.
    pub name: &'static str,
    /// Default severity of this lint's diagnostics.
    pub severity: Severity,
    /// Artifact kind this lint inspects.
    pub artifact: Artifact,
    /// Whether the lint gathers antecedent clause literals (chain
    /// analysis, `RP1xx`) rather than step metadata only. Chain lints
    /// are skipped by the fast structural pass.
    pub chain: bool,
    /// One-line description, shown by `rplint --list`.
    pub summary: &'static str,
}

macro_rules! lints {
    ($($ident:ident = ($code:literal, $name:literal, $sev:ident, $artifact:ident, $chain:literal, $summary:literal);)*) => {
        $(
            #[doc = $summary]
            pub const $ident: &Lint = &Lint {
                code: $code,
                name: $name,
                severity: Severity::$sev,
                artifact: Artifact::$artifact,
                chain: $chain,
                summary: $summary,
            };
        )*
        /// Every registered lint, in code order.
        pub const REGISTRY: &[&Lint] = &[$($ident),*];
    };
}

lints! {
    RP001 = ("RP001", "forward-reference", Error, Proof, false,
        "a derived step cites itself, a later step, or an undefined step");
    RP002 = ("RP002", "no-refutation", Error, Proof, false,
        "the proof claims to refute but contains no empty clause");
    RP003 = ("RP003", "tautological-clause", Error, Proof, false,
        "a recorded clause contains a variable in both polarities");
    RP004 = ("RP004", "duplicate-derivation", Warn, Proof, false,
        "a derived clause repeats an earlier step's clause verbatim");
    RP005 = ("RP005", "dead-step", Info, Proof, false,
        "a derived step lies outside the empty clause's antecedent cone");
    RP006 = ("RP006", "unused-input", Info, Proof, false,
        "an input clause is never used by the refutation cone");
    RP008 = ("RP008", "parse-error", Error, Proof, false,
        "the TraceCheck file violates the step grammar");
    RP009 = ("RP009", "id-order", Error, Proof, false,
        "TraceCheck step ids are not the dense sequence 1, 2, 3, …");
    RP101 = ("RP101", "chain-pivot-count", Error, Proof, true,
        "an antecedent chain has fewer clashing variable pairs than resolutions");
    RP102 = ("RP102", "unresolvable-literal", Error, Proof, true,
        "a literal no resolution can cancel is missing from the recorded clause");
    RP103 = ("RP103", "chain-order", Error, Proof, true,
        "replaying the chain in its recorded order keeps a literal the recorded clause lacks");
    RP104 = ("RP104", "ambiguous-pivot", Error, Proof, true,
        "an antecedent clashes with the running resolvent on more than one variable");
    RP105 = ("RP105", "missing-pivot", Error, Proof, true,
        "an antecedent shares no clashing variable with the running resolvent");
    RP106 = ("RP106", "irregular-chain", Warn, Proof, true,
        "a chain resolves on the same pivot variable more than once");
    CF001 = ("CF001", "unused-variable", Warn, Cnf, false,
        "a variable inside the declared range occurs in no clause");
    CF002 = ("CF002", "duplicate-clause", Warn, Cnf, false,
        "a clause repeats an earlier clause verbatim (up to literal order)");
    CF003 = ("CF003", "tautological-clause", Warn, Cnf, false,
        "a clause contains a variable in both polarities");
    CF004 = ("CF004", "variable-gap", Info, Cnf, false,
        "a contiguous run of declared variables is entirely unused (Tseitin range gap)");
    AG001 = ("AG001", "dangling-node", Warn, Aig, false,
        "an AND node is not in the fanin cone of any output");
    AG002 = ("AG002", "duplicate-and", Warn, Aig, false,
        "two AND nodes have the same normalized fanin pair (missed structural hashing)");
    AG003 = ("AG003", "constant-and", Warn, Aig, false,
        "an AND gate is constant-propagatable (constant or repeated/opposed fanins)");
    AG004 = ("AG004", "unused-input", Info, Aig, false,
        "a primary input feeds no output cone");
    XB001 = ("XB001", "variable-map", Error, Bundle, false,
        "the CNF's variable range cannot host the AIG's node-to-variable map");
    XB002 = ("XB002", "missing-gate-clause", Error, Bundle, false,
        "a Tseitin definition clause of an AND gate is absent from the CNF");
    XB003 = ("XB003", "corrupt-gate-clause", Error, Bundle, false,
        "a CNF clause matches a gate definition's variables but not its polarities");
    XB004 = ("XB004", "unexplained-clause", Warn, Bundle, false,
        "a non-unit CNF clause corresponds to no Tseitin definition clause");
    XB005 = ("XB005", "foreign-input-clause", Error, Bundle, false,
        "a proof input step's clause occurs nowhere in the CNF");
    XB006 = ("XB006", "input-near-miss", Error, Bundle, false,
        "a proof input step matches a CNF clause's variables but not its polarities");
    XB007 = ("XB007", "certificate-empty-clause", Error, Bundle, false,
        "the certificate's empty-clause step id disagrees with the proof");
    XB009 = ("XB009", "certificate-stats", Error, Bundle, false,
        "the certificate's step counts disagree with the proof");
    XB010 = ("XB010", "artifact-hash", Error, Bundle, false,
        "a bundle artifact's content hash disagrees with the manifest");
    XB011 = ("XB011", "manifest", Error, Bundle, false,
        "the bundle manifest is missing, malformed, or names absent files");
    DR001 = ("DR001", "parse-error", Error, Drat, false,
        "the DRAT file violates the clause-line grammar");
    DR002 = ("DR002", "non-rup-addition", Error, Drat, true,
        "an added clause is not a reverse-unit-propagation consequence of the accumulated formula");
    DR003 = ("DR003", "delete-unknown-clause", Warn, Drat, false,
        "a deletion names a clause that is neither in the formula nor currently added");
    DR004 = ("DR004", "duplicate-addition", Warn, Drat, false,
        "an added clause is already active verbatim (up to literal order)");
    DR005 = ("DR005", "no-refutation", Error, Drat, false,
        "the DRAT file claims to refute but never adds the empty clause");
    JN001 = ("JN001", "parse-error", Error, Journal, false,
        "a journal line is not a well-formed record (JSON damage or unknown record type)");
    JN002 = ("JN002", "checksum-mismatch", Error, Journal, false,
        "a record's body does not hash to its recorded checksum");
    JN003 = ("JN003", "sequence-gap", Error, Journal, false,
        "record sequence numbers are not the dense sequence 0, 1, 2, …");
    JN004 = ("JN004", "missing-header", Error, Journal, false,
        "the journal does not begin with a header record");
    JN005 = ("JN005", "truncated-tail", Warn, Journal, false,
        "the final line is torn (incomplete write) — consistent with a crash mid-record");
    JN006 = ("JN006", "no-verdict", Info, Journal, false,
        "the journal records no verdict — the run has not (yet) completed");
    JN007 = ("JN007", "duplicate-header", Error, Journal, false,
        "a header record appears after the first record");
    AN001 = ("AN001", "deep-xor-chain", Info, Analysis, false,
        "a long XOR chain (carry-save / parity reduction structure) dominates a cone");
    AN002 = ("AN002", "carry-chain", Info, Analysis, false,
        "a majority/carry chain was detected — adder-like ripple datapath");
    AN003 = ("AN003", "multiplier-grid", Warn, Analysis, false,
        "multiplier-like array of full-adder cells — expect hard SAT sweeping");
    AN004 = ("AN004", "high-fanout", Info, Analysis, false,
        "a node's fanout is extreme relative to the graph size");
    AN005 = ("AN005", "wide-frontier", Info, Analysis, false,
        "the topological cut frontier is wide relative to the circuit size");
    AN006 = ("AN006", "dense-vig", Info, Analysis, false,
        "the CNF variable-incidence graph is unusually dense");
    AN007 = ("AN007", "low-modularity", Info, Analysis, false,
        "the community-modularity proxy is low — the instance partitions poorly");
    AN008 = ("AN008", "hard-instance", Warn, Analysis, false,
        "the combined static hardness score marks this instance as hard");
    AN009 = ("AN009", "easy-instance", Info, Analysis, false,
        "the combined static hardness score marks this instance as easy (BDD/structural-friendly)");
}

/// Looks up a lint by its stable code (e.g. `"RP101"`).
pub fn find(code: &str) -> Option<&'static Lint> {
    REGISTRY.iter().find(|l| l.code == code).copied()
}

/// Where in the artifact a diagnostic points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// A proof step (0-based step index, printed as `c<n>` like
    /// [`proof::ClauseId`]).
    Step(u32),
    /// A CNF or proof variable (0-based).
    Var(u32),
    /// A CNF clause (0-based position in the formula).
    Clause(u32),
    /// An AIG node.
    Node(u32),
    /// A line of an input file (1-based).
    Line(u32),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Step(i) => write!(f, "step c{i}"),
            Location::Var(v) => write!(f, "var {}", v + 1),
            Location::Clause(c) => write!(f, "clause {c}"),
            Location::Node(n) => write!(f, "node n{n}"),
            Location::Line(l) => write!(f, "line {l}"),
        }
    }
}

/// One finding: a lint, a severity, an optional anchor, and a message.
#[derive(Debug)]
pub struct Diagnostic {
    /// The lint that produced this finding.
    pub lint: &'static Lint,
    /// Severity (usually the lint's default; a tautological *input*
    /// clause no chain cites, for example, downgrades to a warning).
    pub severity: Severity,
    /// Anchor inside the artifact, when one exists.
    pub location: Option<Location>,
    /// Human-readable explanation.
    pub message: String,
}

/// Aggregated diagnostic counts by severity, cheap to embed in engine
/// statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintCounts {
    /// Number of error-severity diagnostics.
    pub errors: usize,
    /// Number of warning-severity diagnostics.
    pub warnings: usize,
    /// Number of info-severity diagnostics.
    pub infos: usize,
}

impl LintCounts {
    /// True when no error-severity diagnostic was recorded.
    pub fn is_clean(&self) -> bool {
        self.errors == 0
    }
}

impl fmt::Display for LintCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} errors, {} warnings, {} infos",
            self.errors, self.warnings, self.infos
        )
    }
}

/// Knobs for a lint run.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Run the chain-analysis lints (`RP1xx`), which gather antecedent
    /// clause literals per derived step. `false` selects the fast
    /// structural-only pass.
    pub chain: bool,
    /// Require the proof to contain an empty clause ([`RP002`]).
    pub expect_refutation: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            chain: true,
            expect_refutation: false,
        }
    }
}

impl LintOptions {
    /// The fast structural-only configuration: every lint that does not
    /// gather antecedent chain literals.
    pub fn structural() -> Self {
        LintOptions {
            chain: false,
            ..LintOptions::default()
        }
    }
}

/// Per-lint tally inside a [`Report`].
#[derive(Debug)]
struct LintTally {
    lint: &'static Lint,
    total: usize,
    shown: usize,
}

/// Materialized diagnostics per lint; further findings are still
/// *counted* but carry no message (shown as "N total" in output).
const MAX_PER_LINT: usize = 20;

/// The outcome of linting one artifact: materialized diagnostics plus
/// complete per-lint and per-severity tallies (diagnostics beyond the
/// first 20 of a lint are counted but not materialized).
#[derive(Debug)]
pub struct Report {
    /// What kind of artifact was linted.
    pub artifact: Artifact,
    diags: Vec<Diagnostic>,
    tallies: Vec<LintTally>,
    counts: LintCounts,
}

impl Report {
    /// An empty report for the given artifact kind.
    pub fn new(artifact: Artifact) -> Self {
        Report {
            artifact,
            diags: Vec::new(),
            tallies: Vec::new(),
            counts: LintCounts::default(),
        }
    }

    /// Records a finding at the lint's default severity. The message
    /// closure runs only if the finding is materialized (one of the
    /// lint's first 20).
    pub fn emit(
        &mut self,
        lint: &'static Lint,
        location: Option<Location>,
        message: impl FnOnce() -> String,
    ) {
        self.emit_severity(lint, lint.severity, location, message);
    }

    /// Records a finding with an explicit severity override.
    pub fn emit_severity(
        &mut self,
        lint: &'static Lint,
        severity: Severity,
        location: Option<Location>,
        message: impl FnOnce() -> String,
    ) {
        match severity {
            Severity::Error => self.counts.errors += 1,
            Severity::Warn => self.counts.warnings += 1,
            Severity::Info => self.counts.infos += 1,
        }
        let tally = match self.tallies.iter_mut().find(|t| t.lint.code == lint.code) {
            Some(t) => t,
            None => {
                self.tallies.push(LintTally {
                    lint,
                    total: 0,
                    shown: 0,
                });
                self.tallies.last_mut().expect("just pushed")
            }
        };
        tally.total += 1;
        if tally.shown < MAX_PER_LINT {
            tally.shown += 1;
            self.diags.push(Diagnostic {
                lint,
                severity,
                location,
                message: message(),
            });
        }
    }

    /// The materialized diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Complete per-severity tallies (including unmaterialized findings).
    pub fn counts(&self) -> LintCounts {
        self.counts
    }

    /// Total findings for one lint code, materialized or not.
    pub fn total(&self, code: &str) -> usize {
        self.tallies
            .iter()
            .find(|t| t.lint.code == code)
            .map_or(0, |t| t.total)
    }

    /// Whether any finding with this lint code was recorded.
    pub fn has(&self, code: &str) -> bool {
        self.total(code) > 0
    }

    /// True when no error-severity finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.counts.is_clean()
    }

    /// Folds another report's findings into this one (used by the
    /// TraceCheck front-end to combine file-level and proof-level
    /// passes).
    pub fn absorb(&mut self, other: Report) {
        self.counts.errors += other.counts.errors;
        self.counts.warnings += other.counts.warnings;
        self.counts.infos += other.counts.infos;
        for t in other.tallies {
            match self
                .tallies
                .iter_mut()
                .find(|mine| mine.lint.code == t.lint.code)
            {
                Some(mine) => {
                    mine.total += t.total;
                    mine.shown += t.shown;
                }
                None => self.tallies.push(t),
            }
        }
        self.diags.extend(other.diags);
    }

    /// Renders the report as human-readable text: one line per
    /// materialized diagnostic, per-lint totals for truncated lints,
    /// and a summary line.
    ///
    /// # Errors
    ///
    /// Forwards I/O errors from `w`.
    pub fn write_text(&self, w: &mut impl Write) -> io::Result<()> {
        for d in &self.diags {
            match d.location {
                Some(loc) => writeln!(
                    w,
                    "{}[{}] {}: {}",
                    d.severity.label(),
                    d.lint.code,
                    loc,
                    d.message
                )?,
                None => writeln!(w, "{}[{}] {}", d.severity.label(), d.lint.code, d.message)?,
            }
        }
        for t in &self.tallies {
            if t.total > t.shown {
                writeln!(
                    w,
                    "{}[{}] {}: {} findings total ({} shown)",
                    t.lint.severity.label(),
                    t.lint.code,
                    t.lint.name,
                    t.total,
                    t.shown
                )?;
            }
        }
        writeln!(w, "{}: {}", self.artifact.label(), self.counts)
    }

    /// Renders the report as a single JSON object (schema documented in
    /// DESIGN.md).
    pub fn to_json(&self) -> String {
        let obj = |members: Vec<(&str, Value)>| {
            Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        let count = |n: usize| Value::U64(n as u64);
        let lints = self.tallies.iter().map(|t| {
            obj(vec![
                ("code", Value::str(t.lint.code)),
                ("name", Value::str(t.lint.name)),
                ("total", count(t.total)),
                ("shown", count(t.shown)),
            ])
        });
        let diagnostics = self.diags.iter().map(|d| {
            let mut members = vec![
                ("code", Value::str(d.lint.code)),
                ("name", Value::str(d.lint.name)),
                ("severity", Value::str(d.severity.label())),
            ];
            if let Some(loc) = d.location {
                let (kind, index) = match loc {
                    Location::Step(i) => ("step", i),
                    Location::Var(i) => ("var", i),
                    Location::Clause(i) => ("clause", i),
                    Location::Node(i) => ("node", i),
                    Location::Line(i) => ("line", i),
                };
                members.push((
                    "location",
                    obj(vec![
                        ("kind", Value::str(kind)),
                        ("index", Value::U64(index.into())),
                    ]),
                ));
            }
            members.push(("message", Value::str(d.message.as_str())));
            obj(members)
        });
        obj(vec![
            ("artifact", Value::str(self.artifact.label())),
            (
                "summary",
                obj(vec![
                    ("errors", count(self.counts.errors)),
                    ("warnings", count(self.counts.warnings)),
                    ("infos", count(self.counts.infos)),
                ]),
            ),
            ("lints", Value::Array(lints.collect())),
            ("diagnostics", Value::Array(diagnostics.collect())),
        ])
        .to_string()
    }
}

/// Sorts by literal code and removes duplicates — the normal form used
/// for clause comparisons across artifacts (matches how
/// [`proof::Proof`] stores step clauses).
pub(crate) fn normalize_clause(mut lits: Vec<cnf::Lit>) -> Vec<cnf::Lit> {
    lits.sort_unstable_by_key(|l| l.code());
    lits.dedup();
    lits
}

/// The sorted, deduplicated variable indices of a normalized clause —
/// the key used for polarity-blind near-miss matching.
pub(crate) fn clause_vars(sorted: &[cnf::Lit]) -> Vec<u32> {
    let mut vars: Vec<u32> = sorted.iter().map(|l| l.var().index()).collect();
    vars.dedup();
    vars
}

/// Whether a normalized clause contains some variable in both
/// polarities.
pub(crate) fn is_tautology(sorted: &[cnf::Lit]) -> bool {
    sorted.windows(2).any(|w| w[0].var() == w[1].var())
}

/// Per step of `p`, whether some derived step cites it as an
/// antecedent.
pub(crate) fn cited_steps(p: &proof::Proof) -> Vec<bool> {
    let mut cited = vec![false; p.len()];
    for a in p.iter().flat_map(|(_, step)| step.antecedents) {
        if let Some(c) = cited.get_mut(a.as_usize()) {
            *c = true;
        }
    }
    cited
}

/// A literal's DIMACS value, widened so that the positive literal of
/// variable index `i32::MAX` (2^31, which [`cnf::Lit::to_dimacs`] cannot
/// return) renders too.
pub(crate) fn dimacs(l: cnf::Lit) -> i64 {
    let v = i64::from(l.var().index()) + 1;
    if l.is_negative() {
        -v
    } else {
        v
    }
}

/// Renders a clause as DIMACS literals, e.g. `(1 -2 3)`.
pub(crate) fn clause_dimacs(lits: &[cnf::Lit]) -> String {
    let mut s = String::from("(");
    for (i, &l) in lits.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&dimacs(l).to_string());
    }
    s.push(')');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_sorted_per_artifact() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].code < pair[1].code || pair[0].artifact != pair[1].artifact,
                "{} vs {}",
                pair[0].code,
                pair[1].code
            );
        }
        let mut codes: Vec<&str> = REGISTRY.iter().map(|l| l.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), REGISTRY.len());
    }

    #[test]
    fn find_resolves_codes() {
        assert_eq!(find("RP101").unwrap().name, "chain-pivot-count");
        assert!(find("XX999").is_none());
    }

    #[test]
    fn report_caps_but_counts_everything() {
        let mut r = Report::new(Artifact::Proof);
        for i in 0..30 {
            r.emit(RP005, Some(Location::Step(i)), || format!("dead {i}"));
        }
        assert_eq!(r.diagnostics().len(), 20);
        assert_eq!(r.total("RP005"), 30);
        assert_eq!(r.counts().infos, 30);
        assert!(r.is_clean());
        let mut buf = Vec::new();
        r.write_text(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("30 findings total (20 shown)"), "{text}");
        assert!(text.contains("proof: 0 errors, 0 warnings, 30 infos"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report::new(Artifact::Cnf);
        r.emit(CF002, Some(Location::Clause(4)), || {
            "dup of \"clause\"\n0\tand \u{1} \\ état".into()
        });
        r.emit(CF003, None, || "x ∨ ¬x".into());
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"artifact":"cnf","summary":{"errors":0,"warnings":2,"infos":0},"#,
                r#""lints":[{"code":"CF002","name":"duplicate-clause","total":1,"shown":1},"#,
                r#"{"code":"CF003","name":"tautological-clause","total":1,"shown":1}],"#,
                r#""diagnostics":[{"code":"CF002","name":"duplicate-clause","severity":"warning","#,
                r#""location":{"kind":"clause","index":4},"#,
                r#""message":"dup of \"clause\"\n0\tand \u0001 \\ état"},"#,
                r#"{"code":"CF003","name":"tautological-clause","severity":"warning","#,
                r#""message":"x ∨ ¬x"}]}"#,
            )
        );
    }

    #[test]
    fn absorb_merges_tallies() {
        let mut a = Report::new(Artifact::Proof);
        a.emit(RP001, Some(Location::Step(1)), || "fwd".into());
        let mut b = Report::new(Artifact::Proof);
        b.emit(RP001, Some(Location::Step(2)), || "fwd2".into());
        b.emit(RP004, None, || "dup".into());
        a.absorb(b);
        assert_eq!(a.total("RP001"), 2);
        assert_eq!(a.total("RP004"), 1);
        assert_eq!(a.counts().errors, 2);
        assert_eq!(a.counts().warnings, 1);
    }
}
