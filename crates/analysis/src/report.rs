//! The [`HardnessReport`]: features folded into a scalar score, an
//! instance classification, and stable `AN` diagnostics.

use crate::{AigFeatures, CnfFeatures};
use lint::{Artifact, Location, Report};
use obs::json::Value;
use std::io::{self, Write};

/// Coarse structural classification of an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceClass {
    /// An array of full-adder cells with deep XOR chains *and* carry
    /// cells — multiplier-like datapath, the hard case for sweeping.
    MultiplierGrid,
    /// Carry chains with shallow XOR trees — adder-like datapath.
    AdderChain,
    /// Deep XOR chains without carry cells — parity-like structure.
    XorLadder,
    /// No dominant arithmetic pattern.
    Unstructured,
}

impl InstanceClass {
    /// Stable lower-case label, used in text and JSON reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InstanceClass::MultiplierGrid => "multiplier-grid",
            InstanceClass::AdderChain => "adder-chain",
            InstanceClass::XorLadder => "xor-ladder",
            InstanceClass::Unstructured => "unstructured",
        }
    }
}

fn classify(f: &AigFeatures) -> InstanceClass {
    if f.xor_chain_max >= 4 && f.xor_roots >= 12 && f.or_of_ands >= 8 {
        InstanceClass::MultiplierGrid
    } else if f.maj_chain_max >= 4 && f.xor_roots >= 2 {
        InstanceClass::AdderChain
    } else if f.xor_chain_max >= 4 {
        InstanceClass::XorLadder
    } else {
        InstanceClass::Unstructured
    }
}

/// The hardness score from AIG features alone (see DESIGN.md §"Static
/// hardness analysis" for the rationale): XOR-chain depth is the
/// dominant term, XOR density gates the generic structure terms so
/// unstructured graphs cannot collect them.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn aig_score(f: &AigFeatures) -> f64 {
    let ands = f.ands.max(1) as f64;
    let density = (4.0 * f.xor_roots as f64 / ands).min(1.0);
    let chain = (f64::from(f.xor_chain_max) / 8.0).min(1.0);
    let cut = (f64::from(f.max_cut) / ands.sqrt()).min(1.0);
    let span = f.mean_fanin_span.clamp(0.0, 1.0);
    let structure = 0.5 * cut + 0.5 * span;
    (0.5 * chain + 0.25 * density + 0.25 * density * structure).clamp(0.0, 1.0)
}

/// The hardness score from CNF features alone, used when no AIG is
/// available: clause locality, incidence density, fragmentation, and
/// the clause/variable ratio.
#[must_use]
pub fn cnf_score(c: &CnfFeatures) -> f64 {
    let span = c.mean_span.clamp(0.0, 1.0);
    let density = (c.vig_mean_degree / 16.0).min(1.0);
    let frag = 1.0 - c.modularity.clamp(0.0, 1.0);
    let ratio = (c.clause_var_ratio / 8.0).min(1.0);
    (0.35 * span + 0.25 * density + 0.2 * frag + 0.2 * ratio).clamp(0.0, 1.0)
}

/// A deterministic static-analysis report over an instance: whatever
/// artifacts were available, their features, a classification, and the
/// combined scalar hardness score in `[0, 1]`.
#[derive(Clone, Debug)]
pub struct HardnessReport {
    /// AIG features, when a netlist was analyzed.
    pub aig: Option<AigFeatures>,
    /// CNF features, when a formula was analyzed.
    pub cnf: Option<CnfFeatures>,
    /// Structural classification (Unstructured when no AIG).
    pub class: InstanceClass,
    /// Scalar hardness score in `[0, 1]`. AIG-derived when an AIG is
    /// present (the structural signal dominates), CNF-derived otherwise.
    pub score: f64,
}

impl HardnessReport {
    /// Analyzes whatever artifacts are present. At least one of `aig`
    /// and `cnf` should be `Some` for a meaningful report.
    #[must_use]
    pub fn of(aig: Option<&aig::Aig>, cnf: Option<&cnf::Cnf>) -> HardnessReport {
        let aig = aig.map(crate::aig_features);
        let cnf = cnf.map(crate::cnf_features);
        let class = aig.as_ref().map_or(InstanceClass::Unstructured, classify);
        let score = match (&aig, &cnf) {
            (Some(a), _) => aig_score(a),
            (None, Some(c)) => cnf_score(c),
            (None, None) => 0.0,
        };
        HardnessReport {
            aig,
            cnf,
            class,
            score,
        }
    }

    /// Analyzes a netlist.
    #[must_use]
    pub fn of_aig(g: &aig::Aig) -> HardnessReport {
        HardnessReport::of(Some(g), None)
    }

    /// Analyzes a formula.
    #[must_use]
    pub fn of_cnf(f: &cnf::Cnf) -> HardnessReport {
        HardnessReport::of(None, Some(f))
    }

    /// Advisory `AN` diagnostics derived from the report.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn diagnostics(&self) -> Report {
        let mut r = Report::new(Artifact::Analysis);
        if let Some(f) = &self.aig {
            let ands = f.ands.max(1) as f64;
            if f.xor_chain_max >= 4 {
                let depth = f.xor_chain_max;
                r.emit(lint::AN001, None, || {
                    format!("xor chain of depth {depth} (carry-save / parity reduction)")
                });
            }
            if f.maj_chain_max >= 4 {
                let depth = f.maj_chain_max;
                r.emit(lint::AN002, None, || {
                    format!("carry chain of length {depth} (ripple datapath)")
                });
            }
            if self.class == InstanceClass::MultiplierGrid {
                let (x, o) = (f.xor_roots, f.or_of_ands);
                r.emit(lint::AN003, None, || {
                    format!("multiplier-like grid: {x} xor cells, {o} carry cells")
                });
            }
            if f.max_fanout >= 16 && f64::from(f.max_fanout) >= 8.0 * f.mean_fanout.max(1.0) {
                let (fo, mean) = (f.max_fanout, f.mean_fanout);
                r.emit(lint::AN004, Some(Location::Node(f.max_fanout_node)), || {
                    format!("fanout {fo} vs mean {mean:.2}")
                });
            }
            if f64::from(f.max_cut) >= ands.sqrt().max(8.0) {
                let (cut, n) = (f.max_cut, f.ands);
                r.emit(lint::AN005, None, || {
                    format!("interior frontier reaches {cut} live nodes over {n} ANDs")
                });
            }
        }
        if let Some(c) = &self.cnf {
            if c.vig_mean_degree >= 12.0 {
                let d = c.vig_mean_degree;
                r.emit(lint::AN006, None, || {
                    format!("mean variable incidence {d:.2} clauses per variable")
                });
            }
            if c.modularity < 0.3 && c.clauses > 0 {
                let q = c.modularity;
                r.emit(lint::AN007, None, || {
                    format!("block-partition modularity {q:.3}")
                });
            }
        }
        let score = self.score;
        if score >= 0.6 {
            r.emit(lint::AN008, None, || {
                format!("hardness score {score:.3} >= 0.6")
            });
        } else if score <= 0.2 {
            r.emit(lint::AN009, None, || {
                format!("hardness score {score:.3} <= 0.2")
            });
        }
        r
    }

    /// The report as a JSON value (schema `analysis-v1`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("schema".into(), Value::str("analysis-v1")),
            ("class".into(), Value::str(self.class.label())),
            ("score".into(), Value::F64(self.score)),
        ];
        if let Some(f) = &self.aig {
            members.push((
                "aig".into(),
                Value::Object(vec![
                    ("inputs".into(), Value::U64(f.inputs as u64)),
                    ("outputs".into(), Value::U64(f.outputs as u64)),
                    ("ands".into(), Value::U64(f.ands as u64)),
                    ("depth".into(), Value::U64(u64::from(f.depth))),
                    ("max_fanout".into(), Value::U64(u64::from(f.max_fanout))),
                    ("mean_fanout".into(), Value::F64(f.mean_fanout)),
                    ("max_cut".into(), Value::U64(u64::from(f.max_cut))),
                    ("mean_cut".into(), Value::F64(f.mean_cut)),
                    ("xor_roots".into(), Value::U64(f.xor_roots as u64)),
                    ("or_of_ands".into(), Value::U64(f.or_of_ands as u64)),
                    ("mux_roots".into(), Value::U64(f.mux_roots as u64)),
                    (
                        "xor_chain_max".into(),
                        Value::U64(u64::from(f.xor_chain_max)),
                    ),
                    (
                        "maj_chain_max".into(),
                        Value::U64(u64::from(f.maj_chain_max)),
                    ),
                    ("mean_fanin_span".into(), Value::F64(f.mean_fanin_span)),
                ]),
            ));
        }
        if let Some(c) = &self.cnf {
            members.push((
                "cnf".into(),
                Value::Object(vec![
                    ("vars".into(), Value::U64(u64::from(c.vars))),
                    ("clauses".into(), Value::U64(c.clauses as u64)),
                    ("literals".into(), Value::U64(c.literals as u64)),
                    ("clause_var_ratio".into(), Value::F64(c.clause_var_ratio)),
                    ("vig_mean_degree".into(), Value::F64(c.vig_mean_degree)),
                    (
                        "vig_max_degree".into(),
                        Value::U64(u64::from(c.vig_max_degree)),
                    ),
                    ("mean_span".into(), Value::F64(c.mean_span)),
                    ("modularity".into(), Value::F64(c.modularity)),
                ]),
            ));
        }
        let diags = self.diagnostics();
        members.push((
            "diagnostics".into(),
            Value::Array(
                diags
                    .diagnostics()
                    .iter()
                    .map(|d| {
                        Value::Object(vec![
                            ("code".into(), Value::str(d.lint.code)),
                            ("message".into(), Value::Str(d.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        Value::Object(members)
    }

    /// Human-readable report.
    ///
    /// # Errors
    ///
    /// Forwards write failures.
    pub fn write_text(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "class: {}", self.class.label())?;
        writeln!(w, "score: {:.3}", self.score)?;
        if let Some(f) = &self.aig {
            writeln!(
                w,
                "aig: {} inputs, {} outputs, {} ands, depth {}",
                f.inputs, f.outputs, f.ands, f.depth
            )?;
            writeln!(
                w,
                "  fanout max {} (node {}) mean {:.2}; frontier max {} mean {:.2}",
                f.max_fanout, f.max_fanout_node, f.mean_fanout, f.max_cut, f.mean_cut
            )?;
            writeln!(
                w,
                "  census: {} xor roots (chain {}), {} or-of-ands (chain {}), {} mux; span {:.3}",
                f.xor_roots,
                f.xor_chain_max,
                f.or_of_ands,
                f.maj_chain_max,
                f.mux_roots,
                f.mean_fanin_span
            )?;
        }
        if let Some(c) = &self.cnf {
            writeln!(
                w,
                "cnf: {} vars, {} clauses, {} literals (ratio {:.2})",
                c.vars, c.clauses, c.literals, c.clause_var_ratio
            )?;
            writeln!(
                w,
                "  vig degree mean {:.2} max {}; span {:.3}; modularity {:.3}",
                c.vig_mean_degree, c.vig_max_degree, c.mean_span, c.modularity
            )?;
        }
        self.diagnostics().write_text(w)
    }
}
