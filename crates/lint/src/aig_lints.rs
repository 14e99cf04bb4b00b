//! Lints for And-Inverter Graph netlists (`AGxxx`).

use crate::{Artifact, Location, Report, AG001, AG002, AG003, AG004};
use aig::{Aig, Node};
use std::collections::HashMap;

/// Lints an AIG: AND nodes outside every output cone ([`AG001`]),
/// duplicate AND gates a structural-hashing pass would merge
/// ([`AG002`]), constant-propagatable gates ([`AG003`]), and primary
/// inputs that feed no output ([`AG004`]).
///
/// Graphs built through [`Aig::and`] are hashed and folded on
/// construction, so `AG002`/`AG003` fire only on netlists read from
/// files or built with [`Aig::and_unshared`] — exactly the external
/// artifacts `rplint` is for.
pub fn lint_aig(g: &Aig) -> Report {
    let mut r = Report::new(Artifact::Aig);

    // Backward reachability from the outputs. Fanins always precede
    // their gates, so one reverse sweep settles the whole graph.
    let mut live = vec![false; g.len()];
    for o in g.outputs() {
        live[o.node().as_usize()] = true;
    }
    for id in (0..g.len() as u32).rev() {
        let id = aig::NodeId::new(id);
        if !live[id.as_usize()] {
            continue;
        }
        if let Some((a, b)) = g.node(id).fanins() {
            live[a.node().as_usize()] = true;
            live[b.node().as_usize()] = true;
        }
    }

    let mut seen: HashMap<(u32, u32), aig::NodeId> = HashMap::new();
    for (id, node) in g.iter() {
        match *node {
            Node::Const => {}
            Node::Input { .. } => {
                if !live[id.as_usize()] {
                    r.emit(AG004, Some(Location::Node(id.index())), || {
                        "primary input feeds no output cone".into()
                    });
                }
            }
            Node::And { a, b } => {
                if !live[id.as_usize()] {
                    r.emit(AG001, Some(Location::Node(id.index())), || {
                        "AND node is not in the fanin cone of any output".into()
                    });
                }
                if a.is_const() || b.is_const() {
                    r.emit(AG003, Some(Location::Node(id.index())), || {
                        "AND gate has a constant fanin".into()
                    });
                } else if a.node() == b.node() {
                    r.emit(AG003, Some(Location::Node(id.index())), || {
                        let what = if a == b {
                            "identical fanins (x AND x = x)"
                        } else {
                            "opposed fanins (x AND NOT x = false)"
                        };
                        format!("AND gate has {what}")
                    });
                }
                // Fanins are normalized (a.raw() <= b.raw()) on
                // construction, so the raw pair is a canonical key.
                let key = if a.raw() <= b.raw() {
                    (a.raw(), b.raw())
                } else {
                    (b.raw(), a.raw())
                };
                match seen.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let first = *e.get();
                        r.emit(AG002, Some(Location::Node(id.index())), || {
                            format!(
                                "AND gate duplicates node n{} (same fanin pair; \
                                 structural hashing would merge them)",
                                first.index()
                            )
                        });
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(id);
                    }
                }
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_graph_is_clean() {
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let f = g.xor(x, y);
        g.add_output(f);
        let r = lint_aig(&g);
        assert!(r.is_clean());
        assert_eq!(r.counts().warnings, 0);
        assert_eq!(r.counts().infos, 0);
    }

    #[test]
    fn dangling_and_and_unused_input() {
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let _dangling = g.and_unshared(x, y);
        g.add_output(x);
        let r = lint_aig(&g);
        assert_eq!(r.total("AG001"), 1);
        assert_eq!(r.total("AG004"), 1, "{:?}", r.diagnostics());
        let _ = y;
    }

    #[test]
    fn duplicate_and_constant_gates() {
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let a = g.and_raw(x, y);
        let b = g.and_raw(x, y);
        let c = g.and_raw(x, aig::Lit::TRUE);
        let d = g.and_raw(x, !x);
        let e = g.and_raw(a, b);
        let f = g.and_raw(c, d);
        let all = g.and_raw(e, f);
        g.add_output(all);
        let r = lint_aig(&g);
        assert_eq!(r.total("AG002"), 1);
        assert_eq!(r.total("AG003"), 2);
    }
}
