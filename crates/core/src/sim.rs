//! Simulation-guided candidate equivalence classes.
//!
//! Random bit-parallel simulation partitions the miter's nodes into
//! classes of equal (up to complement) signatures. The classes are the
//! SAT sweeper's worklist: only nodes sharing a class are ever submitted
//! to the solver. Each counterexample the solver returns feeds back,
//! with its distance-1 [`neighbourhood`], as more simulation patterns
//! that *refine* the classes, so one failed SAT call also splits the
//! false candidates that a neighbouring pattern tells apart.

use aig::{Aig, NodeId};

/// Neighbours of a counterexample per 64-pattern word: bit 0 holds the
/// counterexample itself, each other bit flips one input.
const NEIGHBOURS_PER_WORD: usize = 63;

/// Candidate equivalence classes over the nodes of one AIG.
///
/// Each class holds nodes in topological (index) order; the first member
/// is the class *leader*. Each member carries a phase bit: `phase`
/// distinguishes candidates for `n ≡ leader` from `n ≡ ¬leader`.
#[derive(Clone, Debug)]
pub struct SimClasses {
    classes: Vec<Vec<NodeId>>,
    /// `membership[node] = Some((class, phase))`.
    membership: Vec<Option<(u32, bool)>>,
    /// Normalization phase per node: LSB of the node's first signature
    /// word. Two nodes are candidates iff their phase-normalized
    /// signatures agree; `phase(n) ^ phase(m)` is the complement bit of
    /// the candidate equivalence.
    phase: Vec<bool>,
}

impl SimClasses {
    /// Builds initial classes from `words` random simulation words: one
    /// class of every node, split by each word in turn.
    ///
    /// Only classes with at least two members are kept; the constant
    /// node participates like any other node, so "equivalent to
    /// constant" candidates are ordinary class members.
    pub fn from_random_simulation(graph: &Aig, words: usize, seed: u64) -> SimClasses {
        let sigs = graph.simulate_random(words.max(1), seed);
        let phase: Vec<bool> = sigs.iter().map(|sig| sig[0] & 1 == 1).collect();
        let mut classes = SimClasses {
            classes: vec![(0..graph.len() as u32).map(NodeId::new).collect()],
            membership: phase.iter().map(|&p| Some((0, p))).collect(),
            phase,
        };
        let mut column = vec![0; graph.len()];
        for w in 0..words.max(1) {
            for (value, sig) in column.iter_mut().zip(&sigs) {
                *value = sig[w];
            }
            classes.split(&column);
        }
        classes
    }

    /// Number of (live, ≥2 member) classes.
    pub fn num_classes(&self) -> usize {
        self.classes.iter().filter(|c| c.len() >= 2).count()
    }

    /// Total number of nodes in live classes.
    pub fn num_candidates(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.len() >= 2)
            .map(Vec::len)
            .sum()
    }

    /// The class and phase of `n`, if it is in a live class.
    pub fn class_of(&self, n: NodeId) -> Option<(u32, bool)> {
        let (c, p) = self.membership[n.as_usize()]?;
        if self.classes[c as usize].len() >= 2 {
            Some((c, p))
        } else {
            None
        }
    }

    /// The leader (topologically first member) of class `c`.
    ///
    /// # Panics
    ///
    /// Panics if the class index is out of range or the class is empty.
    pub fn leader(&self, c: u32) -> NodeId {
        self.classes[c as usize][0]
    }

    /// The phase bit of node `n` (complement normalization).
    pub fn phase(&self, n: NodeId) -> bool {
        self.phase[n.as_usize()]
    }

    /// Candidate target for `n`: the leader `m` of `n`'s class and the
    /// complement bit `c` such that the candidate equivalence is
    /// `n ≡ m ^ c`. Returns `None` if `n` is a leader or unclassed.
    pub fn candidate(&self, n: NodeId) -> Option<(NodeId, bool)> {
        let (c, pn) = self.class_of(n)?;
        let m = self.leader(c);
        if m == n {
            return None;
        }
        Some((m, pn ^ self.phase[m.as_usize()]))
    }

    /// Removes `n` from its class (after it has been merged or refuted
    /// for good). Classes shrinking below two members become inert.
    pub fn remove(&mut self, n: NodeId) {
        if let Some((c, _)) = self.membership[n.as_usize()].take() {
            self.classes[c as usize].retain(|&m| m != n);
        }
    }

    /// Refines every class with the 64 input patterns of `words`
    /// (`words[i]` holds input `i`'s value in each bit, as for
    /// [`Aig::simulate_word`]): a class splits into one class per
    /// phase-normalized value its members take on the patterns.
    ///
    /// Returns the number of classes that were split.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != graph.num_inputs()`.
    pub fn refine(&mut self, graph: &Aig, words: &[u64]) -> usize {
        self.split(&graph.simulate_word(words))
    }

    /// Splits every class by the phase-normalized word `sig` gives each
    /// member (`sig[node]`). The group holding the leader keeps the
    /// class; every other group of two or more becomes a new class and
    /// a group of one leaves the classes. Groups keep node order, so
    /// each leader is its class's smallest member. A class that does
    /// not split costs one scan and no allocation.
    fn split(&mut self, sig: &[u64]) -> usize {
        let phase = &self.phase;
        let key = |n: NodeId| sig[n.as_usize()] ^ u64::from(phase[n.as_usize()]).wrapping_neg();
        let mut keyed: Vec<(u64, NodeId)> = Vec::new();
        let mut splits = 0;
        for ci in 0..self.classes.len() {
            let class = &self.classes[ci];
            if class.len() < 2 {
                continue;
            }
            let lead = key(class[0]);
            if class.iter().all(|&n| key(n) == lead) {
                continue;
            }
            splits += 1;
            keyed.clear();
            keyed.extend(class.iter().map(|&n| (key(n), n)));
            keyed.sort_unstable();
            let mut stay = std::mem::take(&mut self.classes[ci]);
            stay.clear();
            for group in keyed.chunk_by(|x, y| x.0 == y.0) {
                let members = group.iter().map(|&(_, n)| n);
                if group[0].0 == lead {
                    stay.extend(members);
                } else if group.len() == 1 {
                    self.membership[group[0].1.as_usize()] = None;
                } else {
                    let new_ci = self.classes.len() as u32;
                    for n in members.clone() {
                        if let Some(m) = &mut self.membership[n.as_usize()] {
                            m.0 = new_ci;
                        }
                    }
                    self.classes.push(members.collect());
                }
            }
            self.classes[ci] = stay;
        }
        splits
    }
}

/// The distance-1 neighbourhood of the input `pattern` as 64-pattern
/// input words for [`SimClasses::refine`]: in each word bit 0 is
/// `pattern` itself and bit `k` is `pattern` with one input flipped, 63
/// inputs per word, so ⌈inputs/63⌉ words (at least one) flip every
/// input once. Bits past the last input repeat `pattern`.
pub(crate) fn neighbourhood(pattern: &[bool]) -> impl Iterator<Item = Vec<u64>> + '_ {
    (0..pattern.len().max(1))
        .step_by(NEIGHBOURS_PER_WORD)
        .map(move |first| {
            let flipped = first..first + NEIGHBOURS_PER_WORD;
            pattern
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let flip = if flipped.contains(&i) {
                        2 << (i - first)
                    } else {
                        0
                    };
                    u64::from(v).wrapping_neg() ^ flip
                })
                .collect()
        })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::miter::Miter;
    use aig::gen::{kogge_stone_adder, ripple_carry_adder};

    fn adder_miter() -> Miter {
        Miter::build(&ripple_carry_adder(4), &kogge_stone_adder(4), true)
    }

    #[test]
    fn adder_miter_has_many_candidates() {
        let m = adder_miter();
        let classes = SimClasses::from_random_simulation(&m.graph, 8, 1);
        // Adders in different architectures share many internal signals.
        assert!(classes.num_classes() > 4, "{}", classes.num_classes());
        assert!(classes.num_candidates() > 10);
    }

    #[test]
    fn candidates_are_simulation_consistent() {
        let m = adder_miter();
        let classes = SimClasses::from_random_simulation(&m.graph, 8, 2);
        // Every candidate pair must agree on fresh patterns too
        // (they are *functionally* equivalent for adders, which the
        // sweeping engine will prove).
        let fresh = m.graph.simulate_random(4, 999);
        for idx in 0..m.graph.len() {
            let n = NodeId::new(idx as u32);
            if let Some((leader, compl)) = classes.candidate(n) {
                let mask = if compl { !0u64 } else { 0 };
                for w in 0..4 {
                    assert_eq!(
                        fresh[n.as_usize()][w],
                        fresh[leader.as_usize()][w] ^ mask,
                        "node {n} vs leader {leader}"
                    );
                }
            }
        }
    }

    #[test]
    fn refinement_splits_on_distinguishing_pattern() {
        // x&y and x|y agree on patterns 00 and 11 only.
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let and = g.and(x, y);
        let or = g.or(x, y);
        g.add_output(and);
        g.add_output(or);
        let mut classes = SimClasses::from_random_simulation(&g, 1, 0);
        // Whatever the initial classes, refining with a distinguishing
        // pattern must never leave `and` and `or` in the same class.
        classes.refine(&g, &[!0, 0]);
        let ca = classes.class_of(and.node());
        let co = classes.class_of(or.node());
        if let (Some((ca, _)), Some((co, _))) = (ca, co) {
            assert_ne!(ca, co, "x&y and x|y distinguished by pattern 10");
        }
    }

    #[test]
    fn neighbourhood_splits_what_the_counterexample_alone_does_not() {
        // A 12-input AND and the constant agree on all but one of the
        // 4096 patterns, so random simulation leaves them one class.
        let mut g = Aig::new();
        let inputs = g.add_inputs(12);
        let all = inputs[1..].iter().fold(inputs[0], |acc, &l| g.and(acc, l));
        g.add_output(all);
        let mut classes = SimClasses::from_random_simulation(&g, 1, 7);
        let same = |c: &SimClasses| {
            c.class_of(all.node()).map(|(ci, _)| ci) == c.class_of(NodeId::new(0)).map(|(ci, _)| ci)
        };
        assert!(classes.class_of(all.node()).is_some() && same(&classes));
        // All ones but input 5: the AND is still 0 there.
        let cex: Vec<bool> = (0..12).map(|i| i != 5).collect();
        let repeated: Vec<u64> = cex.iter().map(|&v| u64::from(v).wrapping_neg()).collect();
        assert_eq!(classes.refine(&g, &repeated), 0);
        assert!(same(&classes), "the counterexample alone splits nothing");
        let words: Vec<Vec<u64>> = neighbourhood(&cex).collect();
        assert_eq!(words.len(), 1, "12 inputs fit one word");
        assert!(classes.refine(&g, &words[0]) > 0);
        assert!(!same(&classes), "flipping input 5 sets the AND");
    }

    #[test]
    fn neighbourhood_flips_each_input_once() {
        for n in [0usize, 1, 62, 63, 64, 130] {
            let cex: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let words: Vec<Vec<u64>> = neighbourhood(&cex).collect();
            assert_eq!(words.len(), n.div_ceil(63).max(1), "{n} inputs");
            for bit in 0..64 {
                for w in &words {
                    let pattern: Vec<bool> = w.iter().map(|&v| v >> bit & 1 == 1).collect();
                    let flips = (0..n).filter(|&i| pattern[i] != cex[i]).count();
                    assert!(flips <= 1 && (bit > 0 || flips == 0));
                }
            }
            let mut flipped = vec![0; n];
            for w in &words {
                for (i, &v) in w.iter().enumerate() {
                    flipped[i] += (v ^ u64::from(cex[i]).wrapping_neg()).count_ones();
                }
            }
            assert!(flipped.iter().all(|&f| f == 1), "{n} inputs: {flipped:?}");
        }
    }

    #[test]
    fn remove_disbands_small_classes() {
        let m = adder_miter();
        let mut classes = SimClasses::from_random_simulation(&m.graph, 8, 3);
        // Find a live class of exactly two members and remove one.
        let two: Vec<NodeId> = (0..m.graph.len() as u32)
            .map(NodeId::new)
            .filter(|&n| classes.class_of(n).is_some())
            .collect();
        let victim = *two.last().unwrap();
        classes.remove(victim);
        assert!(classes.class_of(victim).is_none());
    }

    #[test]
    fn candidate_of_leader_is_none() {
        let m = adder_miter();
        let classes = SimClasses::from_random_simulation(&m.graph, 8, 4);
        for idx in 0..m.graph.len() as u32 {
            let n = NodeId::new(idx);
            if let Some((c, _)) = classes.class_of(n) {
                if classes.leader(c) == n {
                    assert!(classes.candidate(n).is_none());
                }
            }
        }
    }
}
