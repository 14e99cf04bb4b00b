//! Structural analysis: levels, fanout counts, cones, and support.

use crate::{Aig, Lit, Node, NodeId};

impl Aig {
    /// Logic level of every node (inputs and the constant are level 0, an
    /// AND is one more than its deepest fanin). Indexed by node id.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.len()];
        for (id, a, b) in self.iter_ands() {
            let la = level[a.node().as_usize()];
            let lb = level[b.node().as_usize()];
            level[id.as_usize()] = la.max(lb) + 1;
        }
        level
    }

    /// Maximum logic level over all outputs (0 for constant/PI outputs).
    pub fn depth(&self) -> u32 {
        let level = self.levels();
        self.outputs()
            .iter()
            .map(|o| level[o.node().as_usize()])
            .max()
            .unwrap_or(0)
    }

    /// Number of fanout edges of every node (output edges count).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut count = vec![0u32; self.len()];
        for (_, a, b) in self.iter_ands() {
            count[a.node().as_usize()] += 1;
            count[b.node().as_usize()] += 1;
        }
        for o in self.outputs() {
            count[o.node().as_usize()] += 1;
        }
        count
    }

    /// Node ids in the transitive fanin cone of `roots` (including the
    /// roots), in topological order.
    pub fn cone(&self, roots: &[Lit]) -> Vec<NodeId> {
        let mut mark = vec![false; self.len()];
        for r in roots {
            mark[r.node().as_usize()] = true;
        }
        // Sweep backwards: a marked AND marks its fanins.
        for idx in (1..self.len()).rev() {
            if !mark[idx] {
                continue;
            }
            if let Node::And { a, b } = self.node(NodeId::new(idx as u32)) {
                mark[a.node().as_usize()] = true;
                mark[b.node().as_usize()] = true;
            }
        }
        (0..self.len())
            .filter(|&i| mark[i] && i != 0)
            .map(|i| NodeId::new(i as u32))
            .collect()
    }

    /// Primary-input indices in the structural support of `root`.
    pub fn support(&self, root: Lit) -> Vec<u32> {
        self.cone(&[root])
            .into_iter()
            .filter_map(|id| match *self.node(id) {
                Node::Input { index } => Some(index),
                _ => None,
            })
            .collect()
    }

    /// Structural statistics used in reports.
    pub fn stats(&self) -> AigStats {
        AigStats {
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            ands: self.num_ands(),
            depth: self.depth(),
        }
    }
}

/// Summary counters for an [`Aig`], as printed in experiment tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AigStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of AND gates.
    pub ands: usize,
    /// Maximum logic level over the outputs.
    pub depth: u32,
}

impl std::fmt::Display for AigStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "i={} o={} and={} depth={}",
            self.inputs, self.outputs, self.ands, self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Aig, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let z = g.add_input();
        let xy = g.and(x, y);
        let out = g.and(xy, z);
        g.add_output(out);
        (g, x, y, out)
    }

    #[test]
    fn levels_and_depth() {
        let (g, ..) = small();
        let lv = g.levels();
        assert_eq!(lv[0], 0);
        assert_eq!(g.depth(), 2);
        assert_eq!(*lv.iter().max().unwrap(), 2);
    }

    #[test]
    fn fanout_counts_sum() {
        let (g, ..) = small();
        let fo = g.fanout_counts();
        // 2 ANDs * 2 fanin edges + 1 output edge = 5 edges total.
        assert_eq!(fo.iter().sum::<u32>(), 5);
    }

    #[test]
    fn cone_of_output_covers_graph() {
        let (g, _, _, out) = small();
        let cone = g.cone(&[out]);
        // 3 inputs + 2 ands.
        assert_eq!(cone.len(), 5);
    }

    #[test]
    fn support_of_inner_node() {
        let (g, x, y, _) = small();
        let mut gm = g.clone();
        let inner = gm.and(x, y);
        let sup = gm.support(inner);
        assert_eq!(sup, vec![0, 1]);
    }

    #[test]
    fn stats_display() {
        let (g, ..) = small();
        let s = g.stats();
        assert_eq!(s.ands, 2);
        assert_eq!(format!("{s}"), "i=3 o=1 and=2 depth=2");
    }
}
