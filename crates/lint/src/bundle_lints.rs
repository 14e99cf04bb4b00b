//! Cross-artifact bundle lints (`XB` codes).
//!
//! A proof-carrying CEC run produces a *chain* of artifacts: the miter
//! AIG, its Tseitin CNF, the resolution proof over that CNF, and the
//! certificate metadata describing the proof. Each per-artifact lint
//! pass can be clean while the chain is broken — the CNF encodes a
//! *different* circuit, the proof's input clauses come from a *different*
//! formula, or the certificate points at the wrong step. [`lint_bundle`]
//! closes that trust gap statically:
//!
//! - **AIG ↔ CNF** (`XB001`–`XB004`): the expected Tseitin definition
//!   clauses are reconstructed per AND gate via [`cnf::tseitin`] under
//!   the identity node-to-variable map (variable *i* is AIG node *i*,
//!   exactly the convention of `cnf::tseitin::encode` and the sweeping
//!   engine) and diffed against the actual CNF. Unit clauses beyond the
//!   constant pin are accepted as assertions/assumptions — asserting the
//!   miter output is the whole point of the encoding.
//! - **CNF ↔ proof** (`XB005`–`XB006`): every input step's clause must
//!   literally occur in the CNF. Lookups are hash-indexed over
//!   normalized clauses; a clause whose *variables* match a CNF clause
//!   but whose signs differ is reported as a near miss (literal order is
//!   normalized away, so permutation errors cannot arise).
//! - **certificate ↔ proof** (`XB007`, `XB009`): the recorded
//!   empty-clause id and step counts must agree with what the proof
//!   actually contains.

use crate::{
    clause_dimacs, clause_vars, normalize_clause, Artifact, Location, Report, XB001, XB002, XB003,
    XB004, XB005, XB006, XB007, XB009,
};
use aig::Aig;
use cnf::tseitin::and_clauses;
use cnf::{Cnf, Lit, Var};
use proof::Proof;
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{self, Write};
use std::str::FromStr;

/// Certificate metadata in artifact-neutral form, as consumed by
/// [`lint_bundle`]'s `XB007` and `XB009` checks.
///
/// The engine's `Certificate` type lives above this crate in the
/// dependency graph, so it mirrors itself into this struct (and into the
/// `.cert` key–value text format via [`CertificateInfo::write`] /
/// [`CertificateInfo::parse`]) for static auditing. Every field is
/// optional: absent fields are simply not checked.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CertificateInfo {
    /// Step id of the empty clause inside the proof.
    pub empty_clause: Option<u32>,
    /// Number of input (original) steps in the proof.
    pub original: Option<usize>,
    /// Number of derived steps in the proof.
    pub derived: Option<usize>,
    /// Total resolutions (antecedent count minus one, summed).
    pub resolutions: Option<u64>,
}

impl CertificateInfo {
    /// Writes the `.cert` text form: one `key value...` line per present
    /// field, with a leading comment identifying the format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "c resolution-cec certificate v1")?;
        if let Some(e) = self.empty_clause {
            writeln!(w, "empty-clause {e}")?;
        }
        if let Some(n) = self.original {
            writeln!(w, "original {n}")?;
        }
        if let Some(n) = self.derived {
            writeln!(w, "derived {n}")?;
        }
        if let Some(n) = self.resolutions {
            writeln!(w, "resolutions {n}")?;
        }
        Ok(())
    }

    /// Parses the `.cert` text form written by [`CertificateInfo::write`].
    /// Comment lines (`c ...`) and blank lines are ignored. A `rounds 0`
    /// line, which certificates of the one-thread sweep used to carry,
    /// is accepted and ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on unknown keys,
    /// malformed or out-of-range values, and the parallel-sweep records
    /// no certificate can carry any more: a non-zero `rounds` count and
    /// a `boundaries` line.
    pub fn parse(text: &str) -> Result<CertificateInfo, String> {
        let mut info = CertificateInfo::default();
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let at = line_no + 1;
            let mut tokens = line.split_whitespace();
            let key = tokens.next().expect("non-empty line has a token");
            let mut value = || {
                tokens
                    .next()
                    .ok_or_else(|| format!("line {at}: `{key}` needs a value"))
            };
            match key {
                "empty-clause" => info.empty_clause = Some(number(at, "step id", value()?)?),
                "rounds" => {
                    let rounds: u64 = number(at, "round count", value()?)?;
                    if rounds != 0 {
                        return Err(format!(
                            "line {at}: `rounds {rounds}` certifies a parallel sweep, \
                             which no longer exists; only `rounds 0` is accepted"
                        ));
                    }
                }
                "original" => info.original = Some(number(at, "step count", value()?)?),
                "derived" => info.derived = Some(number(at, "step count", value()?)?),
                "resolutions" => {
                    info.resolutions = Some(number(at, "resolution count", value()?)?);
                }
                "boundaries" => {
                    return Err(format!(
                        "line {at}: `boundaries` records the stitch boundaries of a \
                         parallel sweep, which no longer exists"
                    ))
                }
                other => return Err(format!("line {at}: unknown key `{other}`")),
            }
            if tokens.next().is_some() {
                return Err(format!("line {at}: trailing tokens after `{key}`"));
            }
        }
        Ok(info)
    }
}

/// Parses one `.cert` value, naming line `at` and the value's meaning
/// on failure (a malformed number or one out of `T`'s range).
fn number<T: FromStr>(at: usize, what: &str, tok: &str) -> Result<T, String>
where
    T::Err: Display,
{
    tok.parse()
        .map_err(|e| format!("line {at}: bad {what} `{tok}`: {e}"))
}

/// The artifacts of one certification bundle. Any subset may be present;
/// each pairwise check runs only when both of its artifacts are.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bundle<'a> {
    /// The (miter) circuit the CNF is supposed to encode.
    pub aig: Option<&'a Aig>,
    /// The Tseitin CNF the proof is supposed to refute.
    pub cnf: Option<&'a Cnf>,
    /// The recorded resolution proof.
    pub proof: Option<&'a Proof>,
    /// The certificate metadata describing the proof.
    pub certificate: Option<&'a CertificateInfo>,
}

/// Statically checks that the bundle's artifacts bind to each other.
/// All `XB` checks are structural (hash-indexed set comparisons), so the
/// pass takes no [`LintOptions`](crate::LintOptions).
pub fn lint_bundle(bundle: &Bundle<'_>) -> Report {
    let mut report = Report::new(Artifact::Bundle);
    if let (Some(g), Some(f)) = (bundle.aig, bundle.cnf) {
        lint_aig_cnf(g, f, &mut report);
    }
    if let (Some(f), Some(p)) = (bundle.cnf, bundle.proof) {
        lint_cnf_proof(f, p, &mut report);
    }
    if let (Some(c), Some(p)) = (bundle.certificate, bundle.proof) {
        lint_cert_proof(c, p, &mut report);
    }
    report
}

/// One reconstructed Tseitin definition clause awaiting its CNF match.
struct ExpectedClause {
    lits: Vec<Lit>,
    node: u32,
    which: usize,
}

/// Consumes (marks matched) the first unmatched expected clause among
/// `idxs`, returning its index.
fn take(idxs: Option<&Vec<usize>>, matched: &mut [bool]) -> Option<usize> {
    let i = *idxs?.iter().find(|&&i| !matched[i])?;
    matched[i] = true;
    Some(i)
}

/// AIG ↔ CNF: diff the actual CNF against the Tseitin reconstruction.
fn lint_aig_cnf(g: &Aig, f: &Cnf, report: &mut Report) {
    if (f.num_vars() as usize) < g.len() {
        report.emit(XB001, None, || {
            format!(
                "the CNF declares {} variables but the AIG has {} nodes \
                 (node i must map to variable i)",
                f.num_vars(),
                g.len()
            )
        });
    }

    // Reconstruct the expected definition clauses: the constant pin plus
    // three clauses per AND gate, all normalized.
    let mut expected: Vec<ExpectedClause> = Vec::with_capacity(1 + 3 * g.num_ands());
    expected.push(ExpectedClause {
        lits: vec![Var::new(0).negative()],
        node: 0,
        which: 0,
    });
    for (id, fa, fb) in g.iter_ands() {
        let x = Var::new(id.index()).positive();
        let a = aig_lit(fa);
        let b = aig_lit(fb);
        for (which, clause) in and_clauses(x, a, b).into_iter().enumerate() {
            expected.push(ExpectedClause {
                lits: normalize_clause(clause),
                node: id.index(),
                which,
            });
        }
    }
    let mut by_lits: HashMap<&[Lit], Vec<usize>> = HashMap::new();
    let mut by_vars: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for (i, e) in expected.iter().enumerate() {
        by_lits.entry(&e.lits).or_default().push(i);
        by_vars.entry(clause_vars(&e.lits)).or_default().push(i);
    }

    // Match every actual clause against the reconstruction.
    let mut matched = vec![false; expected.len()];
    let mut near: Vec<(usize, usize)> = Vec::new(); // (clause index, expected index)
    let mut unexplained: Vec<usize> = Vec::new();
    for (ci, clause) in f.clauses().iter().enumerate() {
        let norm = normalize_clause(clause.clone());
        if take(by_lits.get(norm.as_slice()), &mut matched).is_some() {
            continue;
        }
        if norm.len() == 1 {
            // A unit beyond the constant pin is an assertion or an
            // assumption-strength clause; the output unit of a miter
            // encoding lands here.
            continue;
        }
        match take(by_vars.get(&clause_vars(&norm)), &mut matched) {
            Some(i) => near.push((ci, i)),
            None => unexplained.push(ci),
        }
    }
    for (ci, i) in near {
        let e = &expected[i];
        report.emit(XB003, Some(Location::Clause(ci as u32)), || {
            format!(
                "clause {} matches the Tseitin definition clause {} of gate n{} \
                 ({}) on variables but differs in polarity",
                clause_dimacs(&f.clauses()[ci]),
                e.which + 1,
                e.node,
                clause_dimacs(&e.lits)
            )
        });
    }
    for ci in unexplained {
        report.emit(XB004, Some(Location::Clause(ci as u32)), || {
            format!(
                "clause {} is not a Tseitin definition clause of any AND gate",
                clause_dimacs(&f.clauses()[ci])
            )
        });
    }
    for (i, e) in expected.iter().enumerate() {
        if !matched[i] {
            report.emit(XB002, Some(Location::Node(e.node)), || {
                if e.node == 0 {
                    format!(
                        "the constant-pin unit clause {} is missing from the CNF",
                        clause_dimacs(&e.lits)
                    )
                } else {
                    format!(
                        "Tseitin definition clause {} of gate n{} ({}) is missing from the CNF",
                        e.which + 1,
                        e.node,
                        clause_dimacs(&e.lits)
                    )
                }
            });
        }
    }
}

/// Solver literal of an AIG edge under the identity node-to-variable map.
fn aig_lit(l: aig::Lit) -> Lit {
    Var::new(l.node().index()).lit(l.is_complemented())
}

/// CNF ↔ proof: every input step's clause must occur in the CNF.
fn lint_cnf_proof(f: &Cnf, p: &Proof, report: &mut Report) {
    let mut clauses: HashMap<Vec<Lit>, usize> = HashMap::with_capacity(f.num_clauses());
    let mut vars: HashMap<Vec<u32>, usize> = HashMap::with_capacity(f.num_clauses());
    for (ci, clause) in f.clauses().iter().enumerate() {
        let norm = normalize_clause(clause.clone());
        vars.entry(clause_vars(&norm)).or_insert(ci);
        clauses.entry(norm).or_insert(ci);
    }
    for (id, step) in p.iter() {
        if !step.is_original() {
            continue;
        }
        // Step clauses are already sorted and deduplicated.
        if clauses.contains_key(step.clause) {
            continue;
        }
        let loc = Some(Location::Step(id.index()));
        match vars.get(&clause_vars(step.clause)) {
            Some(&ci) => report.emit(XB006, loc, || {
                format!(
                    "input step records {} but the CNF's clause {ci} over the same \
                     variables is {} (sign flip; literal order is normalized)",
                    clause_dimacs(step.clause),
                    clause_dimacs(&f.clauses()[ci])
                )
            }),
            None => report.emit(XB005, loc, || {
                format!(
                    "input step records {}, which occurs nowhere in the CNF",
                    clause_dimacs(step.clause)
                )
            }),
        }
    }
}

/// Certificate ↔ proof: recorded metadata must describe this proof.
fn lint_cert_proof(c: &CertificateInfo, p: &Proof, report: &mut Report) {
    let actual = p.empty_clause().map(proof::ClauseId::index);
    match (c.empty_clause, actual) {
        (Some(claimed), Some(real)) if claimed != real => {
            report.emit(XB007, Some(Location::Step(claimed)), || {
                format!(
                    "certificate points at step c{claimed} as the empty clause, \
                     but the proof's empty clause is c{real}"
                )
            });
        }
        (Some(claimed), None) => {
            report.emit(XB007, Some(Location::Step(claimed)), || {
                format!(
                    "certificate points at step c{claimed} as the empty clause, \
                     but the proof contains none"
                )
            });
        }
        (None, Some(real)) => {
            report.emit(XB007, Some(Location::Step(real)), || {
                format!("the proof refutes at step c{real} but the certificate records no empty-clause id")
            });
        }
        _ => {}
    }

    let counts = [
        (
            "input",
            c.original.map(|n| n as u64),
            p.num_original() as u64,
        ),
        (
            "derived",
            c.derived.map(|n| n as u64),
            p.num_derived() as u64,
        ),
        ("resolution", c.resolutions, p.num_resolutions()),
    ];
    for (what, claimed, real) in counts {
        if let Some(n) = claimed {
            if n != real {
                report.emit(XB009, None, || {
                    format!("certificate claims {n} {what} steps, the proof has {real}")
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x2 = x0 ∧ x1 over inputs n1, n2 with the AND at n3 — wait, node 0
    /// is the constant, so inputs are n1/n2 and the gate is n3.
    fn gate() -> Aig {
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let n = g.and(x, y);
        g.add_output(n);
        g
    }

    fn encoding(g: &Aig) -> Cnf {
        cnf::tseitin::encode(g).cnf
    }

    fn proof_of(f: &Cnf) -> Proof {
        let mut p = Proof::new();
        for c in f.clauses() {
            p.add_original(c.iter().copied());
        }
        p
    }

    #[test]
    fn clean_bundle_is_clean() {
        let g = gate();
        let mut f = encoding(&g);
        // Assert the output, the way an engine would.
        f.add_clause(vec![Var::new(3).positive()]);
        let p = proof_of(&f);
        let info = CertificateInfo {
            original: Some(p.num_original()),
            derived: Some(0),
            resolutions: Some(0),
            ..CertificateInfo::default()
        };
        let r = lint_bundle(&Bundle {
            aig: Some(&g),
            cnf: Some(&f),
            proof: Some(&p),
            certificate: Some(&info),
        });
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert_eq!(r.counts().warnings, 0, "{:?}", r.diagnostics());
    }

    #[test]
    fn missing_gate_clause_is_xb002() {
        let g = gate();
        let mut f = encoding(&g);
        f.clauses_mut().remove(2);
        let r = lint_bundle(&Bundle {
            aig: Some(&g),
            cnf: Some(&f),
            ..Bundle::default()
        });
        assert!(r.has("XB002"), "{:?}", r.diagnostics());
        assert!(!r.is_clean());
    }

    #[test]
    fn sign_flip_is_xb003_not_xb002() {
        let g = gate();
        let mut f = encoding(&g);
        // Flip the first literal of the three-literal clause (x ∨ ¬a ∨ ¬b).
        let victim = f
            .clauses_mut()
            .iter_mut()
            .find(|c| c.len() == 3)
            .expect("t3 present");
        victim[0] = !victim[0];
        let r = lint_bundle(&Bundle {
            aig: Some(&g),
            cnf: Some(&f),
            ..Bundle::default()
        });
        assert!(r.has("XB003"), "{:?}", r.diagnostics());
        assert!(!r.has("XB002"), "{:?}", r.diagnostics());
        assert!(!r.has("XB004"), "{:?}", r.diagnostics());
    }

    #[test]
    fn alien_clause_is_xb004_warning() {
        let g = gate();
        let mut f = encoding(&g);
        f.add_clause(vec![Var::new(1).positive(), Var::new(4).positive()]);
        let r = lint_bundle(&Bundle {
            aig: Some(&g),
            cnf: Some(&f),
            ..Bundle::default()
        });
        assert!(r.has("XB004"), "{:?}", r.diagnostics());
        assert!(r.is_clean(), "XB004 is a warning");
    }

    #[test]
    fn narrow_cnf_is_xb001() {
        let g = gate();
        let f = Cnf::with_vars(2); // 4 nodes need 4 variables
        let r = lint_bundle(&Bundle {
            aig: Some(&g),
            cnf: Some(&f),
            ..Bundle::default()
        });
        assert!(r.has("XB001"), "{:?}", r.diagnostics());
    }

    #[test]
    fn foreign_and_near_miss_inputs_are_xb005_xb006() {
        let g = gate();
        let f = encoding(&g);
        let mut p = proof_of(&f);
        // Same variables as t1 of the gate but flipped signs: near miss.
        p.add_original([Var::new(3).positive(), Var::new(1).negative()]);
        // Variables no CNF clause has together: foreign.
        p.add_original([Var::new(0).positive(), Var::new(2).positive()]);
        let r = lint_bundle(&Bundle {
            cnf: Some(&f),
            proof: Some(&p),
            ..Bundle::default()
        });
        assert_eq!(r.total("XB006"), 1, "{:?}", r.diagnostics());
        assert_eq!(r.total("XB005"), 1, "{:?}", r.diagnostics());
    }

    #[test]
    fn certificate_mismatches_are_distinct_codes() {
        let mut p = Proof::new();
        let a = p.add_original([Var::new(0).positive()]);
        let b = p.add_original([Var::new(0).negative()]);
        let e = p.add_derived([], [a, b]);
        let good = CertificateInfo {
            empty_clause: Some(e.index()),
            original: Some(2),
            derived: Some(1),
            resolutions: Some(1),
        };
        let clean = lint_bundle(&Bundle {
            proof: Some(&p),
            certificate: Some(&good),
            ..Bundle::default()
        });
        assert!(clean.is_clean(), "{:?}", clean.diagnostics());

        let wrong_empty = CertificateInfo {
            empty_clause: Some(0),
            ..good.clone()
        };
        let wrong_stats = CertificateInfo {
            resolutions: Some(7),
            ..good.clone()
        };
        for (cert, code) in [(&wrong_empty, "XB007"), (&wrong_stats, "XB009")] {
            let r = lint_bundle(&Bundle {
                proof: Some(&p),
                certificate: Some(cert),
                ..Bundle::default()
            });
            assert!(r.has(code), "{code}: {:?}", r.diagnostics());
            assert_eq!(r.counts().errors, 1, "{code}: {:?}", r.diagnostics());
        }
    }

    #[test]
    fn cert_text_round_trips() {
        let info = CertificateInfo {
            empty_clause: Some(42),
            original: Some(7),
            derived: Some(35),
            resolutions: Some(99),
        };
        let mut buf = Vec::new();
        info.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("rounds") && !text.contains("boundaries"));
        assert_eq!(CertificateInfo::parse(&text).unwrap(), info);
        assert!(CertificateInfo::parse("bogus 1\n").is_err());
        assert!(CertificateInfo::parse("empty-clause\n").is_err());
        assert!(CertificateInfo::parse("derived 1 2\n").is_err());
        assert!(CertificateInfo::parse("c comment\n\n").is_ok());
    }

    #[test]
    fn one_thread_round_count_parses_and_parallel_records_are_refused() {
        // Every certificate of a one-thread sweep carries `rounds 0`.
        let old = "c resolution-cec certificate v1\nempty-clause 9\nrounds 0\nderived 3\n";
        let info = CertificateInfo::parse(old).unwrap();
        assert_eq!((info.empty_clause, info.derived), (Some(9), Some(3)));
        for (text, line) in [
            ("empty-clause 9\nrounds 2\n", "line 2"),
            ("c v1\nempty-clause 9\nboundaries 4 7 9\n", "line 3"),
            ("boundaries\n", "line 1"),
            ("rounds\n", "line 1"),
            ("rounds 0 1\n", "line 1"),
        ] {
            let err = CertificateInfo::parse(text).unwrap_err();
            assert!(err.starts_with(line), "{text:?}: {err}");
        }
    }

    #[test]
    fn empty_clause_id_past_u32_is_a_line_numbered_error() {
        // 7946 + 2^32 once wrapped to c7946 and passed XB007.
        let err = CertificateInfo::parse("c v1\nempty-clause 4294975242\n").unwrap_err();
        assert!(err.starts_with("line 2: bad step id `4294975242`"), "{err}");
        let max = CertificateInfo::parse("empty-clause 4294967295\n").unwrap();
        assert_eq!(max.empty_clause, Some(u32::MAX));
    }
}
