//! Structural feature extraction over AIGs.
//!
//! Everything here is a single deterministic pass (or a constant number
//! of passes) over the graph in node-id order, so the same graph always
//! produces byte-identical features regardless of host or thread count.

use aig::{Aig, Lit, Node};

/// Whole-graph structural features, as reported by `ranalyze` and used
/// by the hardness score (see [`crate::HardnessReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct AigFeatures {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// AND gates.
    pub ands: usize,
    /// Maximum logic level over the outputs.
    pub depth: u32,
    /// Largest fanout of any node.
    pub max_fanout: u32,
    /// Node with the largest fanout.
    pub max_fanout_node: u32,
    /// Mean fanout over all non-constant nodes.
    pub mean_fanout: f64,
    /// Widest interior frontier: the maximum number of AND nodes that
    /// are live (defined but not yet fully consumed by later ANDs) at
    /// any point of the topological sweep. Inputs and output-only uses
    /// are excluded, so a ripple chain scores low and a wide reduction
    /// tree scores high.
    pub max_cut: u32,
    /// Mean interior frontier width over the sweep.
    pub mean_cut: f64,
    /// AND nodes that are roots of a two-level XOR/XNOR pattern.
    pub xor_roots: usize,
    /// AND nodes of the form `AND(!p, !q)` with `p`, `q` ANDs — an OR
    /// of conjunctions (carry cells, mux cells, clause-like gates).
    pub or_of_ands: usize,
    /// The subset of [`AigFeatures::or_of_ands`] whose two conjunction
    /// legs share a select node in opposite polarity (mux/majority).
    pub mux_roots: usize,
    /// Longest chain of nested XOR roots (carry-save and parity
    /// reduction structure).
    pub xor_chain_max: u32,
    /// Longest chain of nested OR-of-AND cells (ripple carry chains).
    pub maj_chain_max: u32,
    /// Mean over fanin edges of `log2(1 + id distance) / log2(len)` —
    /// a locality proxy in `[0, 1]`: chains score near 0, graphs whose
    /// edges span the whole id range score near 1.
    pub mean_fanin_span: f64,
}

/// Gate-pattern census behind [`aig_features`].
struct Census {
    xor_roots: usize,
    or_of_ands: usize,
    mux_roots: usize,
    xchain: Vec<u32>,
    machain: Vec<u32>,
}

fn census(g: &Aig) -> Census {
    let mut c = Census {
        xor_roots: 0,
        or_of_ands: 0,
        mux_roots: 0,
        xchain: vec![0; g.len()],
        machain: vec![0; g.len()],
    };
    let neg = |l: Lit| l.xor_complement(true);
    for (id, a, b) in g.iter_ands() {
        if !(a.is_complemented() && b.is_complemented()) {
            continue;
        }
        let (Node::And { a: pa, b: pb }, Node::And { a: qa, b: qb }) =
            (*g.node(a.node()), *g.node(b.node()))
        else {
            continue;
        };
        let i = id.as_usize();
        if (pa == neg(qa) && pb == neg(qb)) || (pa == neg(qb) && pb == neg(qa)) {
            // XOR/XNOR over the operand nodes of either conjunction.
            c.xor_roots += 1;
            c.xchain[i] = 1 + c.xchain[pa.node().as_usize()].max(c.xchain[pb.node().as_usize()]);
        } else {
            c.or_of_ands += 1;
            let m = [pa, pb, qa, qb]
                .iter()
                .map(|l| c.machain[l.node().as_usize()])
                .max()
                .unwrap_or(0);
            c.machain[i] = 1 + m;
            let shared = [pa, pb]
                .iter()
                .any(|x| [qa, qb].iter().any(|y| *x == neg(*y)));
            if shared {
                c.mux_roots += 1;
            }
        }
    }
    c
}

/// Interior frontier widths: max and mean number of AND nodes live at
/// any point of the id-order sweep.
fn frontier(g: &Aig) -> (u32, f64) {
    let mut and_uses = vec![0u32; g.len()];
    for (_, a, b) in g.iter_ands() {
        and_uses[a.node().as_usize()] += 1;
        and_uses[b.node().as_usize()] += 1;
    }
    let mut live: u32 = 0;
    let mut max_cut: u32 = 0;
    let mut sum_cut: u64 = 0;
    let mut steps: u64 = 0;
    for (id, a, b) in g.iter_ands() {
        for f in [a, b] {
            let u = f.node().as_usize();
            if matches!(g.node(f.node()), Node::And { .. }) {
                and_uses[u] -= 1;
                if and_uses[u] == 0 {
                    live -= 1;
                }
            }
        }
        if and_uses[id.as_usize()] > 0 {
            live += 1;
        }
        max_cut = max_cut.max(live);
        sum_cut += u64::from(live);
        steps += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean = if steps == 0 {
        0.0
    } else {
        sum_cut as f64 / steps as f64
    };
    (max_cut, mean)
}

/// Computes the whole-graph features in a handful of linear passes.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn aig_features(g: &Aig) -> AigFeatures {
    let fanout = g.fanout_counts();
    let (max_fanout_node, max_fanout) = fanout
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
        .map_or((0, 0), |(i, c)| (i as u32, *c));
    let nodes = g.len().saturating_sub(1).max(1);
    let mean_fanout =
        fanout.iter().skip(1).map(|&c| u64::from(c)).sum::<u64>() as f64 / nodes as f64;
    let (max_cut, mean_cut) = frontier(g);
    let c = census(g);
    let len = g.len().max(2) as f64;
    let mut span_sum = 0.0;
    let mut span_edges = 0u64;
    for (id, a, b) in g.iter_ands() {
        for f in [a, b] {
            let dist = (id.as_usize() - f.node().as_usize()).max(1) as f64;
            span_sum += (1.0 + dist).log2() / len.log2();
            span_edges += 1;
        }
    }
    AigFeatures {
        inputs: g.num_inputs(),
        outputs: g.num_outputs(),
        ands: g.num_ands(),
        depth: g.depth(),
        max_fanout,
        max_fanout_node,
        mean_fanout,
        max_cut,
        mean_cut,
        xor_roots: c.xor_roots,
        or_of_ands: c.or_of_ands,
        mux_roots: c.mux_roots,
        xor_chain_max: c.xchain.iter().copied().max().unwrap_or(0),
        maj_chain_max: c.machain.iter().copied().max().unwrap_or(0),
        mean_fanin_span: if span_edges == 0 {
            0.0
        } else {
            span_sum / span_edges as f64
        },
    }
}
