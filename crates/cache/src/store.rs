//! The certificate store: an in-memory LRU over proven verdicts with an
//! optional on-disk spill tier, every hit replay-validated before it is
//! served.

use crate::canon::{CacheKey, CanonicalPair};
use cec::{miter_cnf, EngineConfig, Miter};
use obs::metrics::{self, Metrics, Mirror};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

/// Configuration of a [`CertCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum in-memory entries; least-recently-used entries beyond
    /// this spill to disk (if a spill dir is set) or are dropped.
    pub capacity: usize,
    /// Second-tier directory: evicted entries are written here and
    /// promoted back on lookup. `None` disables the disk tier.
    pub spill_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 256,
            spill_dir: None,
        }
    }
}

/// A cached, *proven* verdict. Holding one of these means validation
/// succeeded against the querying pair at lookup time or the verdict
/// was just proven by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The pair is equivalent; `tracecheck` is the serialized
    /// refutation, byte-identical to what a fresh proof of the
    /// canonical pair produces.
    Equivalent {
        /// TraceCheck bytes of the refutation.
        tracecheck: Vec<u8>,
    },
    /// The pair is inequivalent under this input pattern.
    Inequivalent {
        /// Distinguishing input pattern, one bool per circuit input.
        pattern: Vec<bool>,
    },
}

/// Verdict counters. The cache publishes each field as the live
/// counter `cec.cache.<field>`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache (after successful replay validation).
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// In-memory entries pushed out by the LRU policy.
    pub evictions: u64,
    /// Entries found but rejected by replay validation (and dropped).
    pub replay_rejects: u64,
    /// Entries inserted (fresh proofs recorded).
    pub insertions: u64,
}

/// The live counter of each [`CacheStats`] field, in field order.
const COUNTERS: [&str; 5] = [
    "cec.cache.hits",
    "cec.cache.misses",
    "cec.cache.evictions",
    "cec.cache.replay_rejects",
    "cec.cache.insertions",
];

struct Entry {
    verdict: CachedVerdict,
    last_used: u64,
}

/// The cross-query certificate cache.
///
/// Keys are structural ([`CanonicalPair::key`]); values are proven
/// verdicts. The cache never serves trust: [`CertCache::lookup`]
/// replays every candidate against the querying pair and converts
/// validation failures into misses, so a corrupted or poisoned entry
/// (wrong bytes on disk, an entry inserted for the wrong pair) is
/// dropped, counted in [`CacheStats::replay_rejects`], and the caller
/// re-proves.
pub struct CertCache {
    config: CacheConfig,
    map: HashMap<String, Entry>,
    tick: u64,
    stats: CacheStats,
    /// Publishes `stats` as the `cec.cache.*` counters.
    mirror: Mirror,
    m_entries: metrics::Gauge,
}

impl CertCache {
    /// Creates a cache reporting into `metrics` (`cec.cache.*` cells;
    /// pass `Metrics::disabled()` for none). If a spill dir is
    /// configured it is created eagerly so later evictions cannot fail
    /// on a missing path.
    pub fn new(config: CacheConfig, metrics: &Metrics) -> std::io::Result<Self> {
        if let Some(dir) = &config.spill_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut mirror = Mirror::default();
        mirror.register(metrics, COUNTERS);
        Ok(CertCache {
            config,
            map: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            mirror,
            m_entries: metrics.gauge("cec.cache.entries"),
        })
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// In-memory entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a verdict for `pair`, validating before serving.
    ///
    /// Returns `None` (a miss) when no entry exists *or* when the
    /// stored entry fails replay validation — the caller cannot
    /// distinguish a poisoned entry from an absent one, which is the
    /// point: both mean "prove it yourself".
    pub fn lookup(&mut self, pair: &CanonicalPair) -> Option<CachedVerdict> {
        self.tick += 1;
        let key = pair.key.as_hex().to_string();
        let candidate = if let Some(e) = self.map.get_mut(&key) {
            e.last_used = self.tick;
            Some(e.verdict.clone())
        } else {
            self.read_spill(&pair.key)
        };
        let served = match candidate {
            Some(verdict) if validate(pair, &verdict) => {
                // A disk-tier hit is promoted into memory.
                if !self.map.contains_key(&key) {
                    self.install(key, verdict.clone());
                }
                Some(verdict)
            }
            Some(_) => {
                // Poisoned or stale: drop both tiers, report a miss.
                self.map.remove(&key);
                self.remove_spill(&pair.key);
                self.update_entries_gauge();
                self.stats.replay_rejects += 1;
                None
            }
            None => None,
        };
        if served.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.publish();
        served
    }

    /// Records a freshly proven verdict for `pair`.
    pub fn insert(&mut self, pair: &CanonicalPair, verdict: CachedVerdict) {
        self.tick += 1;
        self.stats.insertions += 1;
        self.install(pair.key.as_hex().to_string(), verdict);
        self.publish();
    }

    /// Publishes `stats` to the live counters, in `COUNTERS` order.
    fn publish(&mut self) {
        let s = self.stats;
        self.mirror.publish([
            s.hits,
            s.misses,
            s.evictions,
            s.replay_rejects,
            s.insertions,
        ]);
    }

    fn install(&mut self, key: String, verdict: CachedVerdict) {
        let tick = self.tick;
        self.map.insert(
            key,
            Entry {
                verdict,
                last_used: tick,
            },
        );
        while self.map.len() > self.config.capacity.max(1) {
            self.evict_lru();
        }
        self.update_entries_gauge();
    }

    fn evict_lru(&mut self) {
        let Some(victim) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        let entry = self.map.remove(&victim).expect("victim present");
        self.write_spill(&victim, &entry.verdict);
        self.stats.evictions += 1;
    }

    #[allow(clippy::cast_possible_wrap)]
    fn update_entries_gauge(&self) {
        self.m_entries.set(self.map.len() as i64);
    }

    fn spill_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.config
            .spill_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.cert")))
    }

    /// Spill format: one header line (`eq` or `ne <pattern>`), then the
    /// tracecheck bytes for `eq`. Deliberately trivial — corruption is
    /// caught by replay validation, not by the format.
    fn write_spill(&self, key: &str, verdict: &CachedVerdict) {
        let Some(dir) = &self.config.spill_dir else {
            return;
        };
        let path = dir.join(format!("{key}.cert"));
        let bytes = match verdict {
            CachedVerdict::Equivalent { tracecheck } => {
                let mut v = b"eq\n".to_vec();
                v.extend_from_slice(tracecheck);
                v
            }
            CachedVerdict::Inequivalent { pattern } => {
                let mut v = b"ne ".to_vec();
                v.extend(pattern.iter().map(|&b| if b { b'1' } else { b'0' }));
                v.push(b'\n');
                v
            }
        };
        // Spill failures are not errors: the disk tier is best-effort
        // and a lost entry just means a future re-prove.
        let _ = std::fs::File::create(&path).and_then(|mut f| f.write_all(&bytes));
    }

    fn read_spill(&self, key: &CacheKey) -> Option<CachedVerdict> {
        let path = self.spill_path(key)?;
        let bytes = std::fs::read(path).ok()?;
        if let Some(rest) = bytes.strip_prefix(b"eq\n") {
            return Some(CachedVerdict::Equivalent {
                tracecheck: rest.to_vec(),
            });
        }
        let rest = bytes.strip_prefix(b"ne ")?;
        let line = rest.strip_suffix(b"\n").unwrap_or(rest);
        let mut pattern = Vec::with_capacity(line.len());
        for &c in line {
            match c {
                b'0' => pattern.push(false),
                b'1' => pattern.push(true),
                _ => return None,
            }
        }
        Some(CachedVerdict::Inequivalent { pattern })
    }

    fn remove_spill(&self, key: &CacheKey) {
        if let Some(path) = self.spill_path(key) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Replay-validates a candidate verdict against the pair it is about to
/// be served for. This is the cache's trust boundary: everything read
/// from memory or disk passes through here, and only `true` lets a
/// verdict out.
///
/// - An equivalence certificate must parse, its resolution steps must
///   replay (`proof::check::check_refutation`), and every original
///   clause it builds on must be a clause of *this pair's* miter CNF —
///   so a certificate for some other pair (or a tampered one) cannot
///   re-bind.
/// - A counterexample must actually distinguish the two circuits when
///   re-evaluated.
fn validate(pair: &CanonicalPair, verdict: &CachedVerdict) -> bool {
    match verdict {
        CachedVerdict::Equivalent { tracecheck } => {
            let Ok(p) = proof::import::read_tracecheck(tracecheck.as_slice()) else {
                return false;
            };
            if proof::check::check_refutation(&p).is_err() {
                return false;
            }
            originals_bind_to_miter(pair, &p)
        }
        CachedVerdict::Inequivalent { pattern } => {
            if pattern.len() != pair.a.num_inputs() {
                return false;
            }
            pair.a.evaluate(pattern) != pair.b.evaluate(pattern)
        }
    }
}

/// Every original step of `p` must occur (as a literal multiset) among
/// the clauses of the pair's miter CNF, each occurrence of a miter
/// clause serving at most one original. The miter is built as the
/// default engine configuration builds it, the one every cached proof
/// was recorded under.
fn originals_bind_to_miter(pair: &CanonicalPair, p: &proof::Proof) -> bool {
    let miter = Miter::build(&pair.a, &pair.b, EngineConfig::default().share_structure);
    let formula = miter_cnf(&miter);
    // The miter's clauses, copied into one arena and each sorted in
    // place: a sorted clause is its multiset, and a proof step's clause
    // is already sorted (and free of duplicates).
    let clauses = formula.clauses();
    let mut lits = Vec::with_capacity(clauses.iter().map(Vec::len).sum());
    let mut ends = Vec::with_capacity(clauses.len());
    for c in clauses {
        let start = lits.len();
        lits.extend_from_slice(c);
        lits[start..].sort_unstable();
        ends.push(lits.len());
    }
    let mut available: HashMap<&[cnf::Lit], usize> = HashMap::with_capacity(ends.len());
    let mut start = 0;
    for end in ends {
        *available.entry(&lits[start..end]).or_insert(0) += 1;
        start = end;
    }
    p.iter()
        .filter(|(_, step)| step.is_original())
        .all(|(_, step)| match available.get_mut(step.clause) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::CanonicalPair;
    use aig::gen::{kogge_stone_adder, mutate, ripple_carry_adder};
    use cec::{EngineConfig, Session, SharedContext};

    fn prove_verdict(pair: &CanonicalPair) -> CachedVerdict {
        let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
            .check(&pair.a, &pair.b)
            .unwrap();
        match outcome {
            cec::CecOutcome::Equivalent(cert) => {
                let mut bytes = Vec::new();
                proof::export::write_tracecheck(cert.proof.as_ref().unwrap(), &mut bytes).unwrap();
                CachedVerdict::Equivalent { tracecheck: bytes }
            }
            cec::CecOutcome::Inequivalent { counterexample, .. } => CachedVerdict::Inequivalent {
                pattern: counterexample.pattern,
            },
        }
    }

    #[test]
    fn isomorphic_hit_with_byte_identical_certificate() {
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();

        let pair = CanonicalPair::new(&a, &b);
        assert_eq!(cache.lookup(&pair), None, "cold cache misses");
        let fresh = prove_verdict(&pair);
        cache.insert(&pair, fresh.clone());

        // The same pair under a different node numbering: same key,
        // and the served certificate equals a fresh proof byte for
        // byte (the engine proves canonical forms).
        let iso = CanonicalPair::new(&a.permute_rebuild(7), &b.permute_rebuild(19));
        assert_eq!(iso.key, pair.key);
        let served = cache.lookup(&iso).expect("isomorphic query hits");
        assert_eq!(served, fresh, "hit and miss agree byte for byte");
        assert_eq!(served, prove_verdict(&iso));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn near_miss_mutant_misses() {
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        let pair = CanonicalPair::new(&a, &b);
        cache.insert(&pair, prove_verdict(&pair));

        let mutant = (0..40)
            .filter_map(|s| mutate(&b, s))
            .find(|m| aig::sim::exhaustive_diff(&b, m, 11).is_some())
            .expect("differing mutant");
        let near = CanonicalPair::new(&a, &mutant);
        assert_ne!(near.key, pair.key, "one-gate mutant gets its own key");
        assert_eq!(cache.lookup(&near), None, "near miss is a miss");
    }

    #[test]
    fn counterexample_verdicts_cache_and_validate() {
        let a = ripple_carry_adder(4);
        let b = (0..40)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 9).is_some())
            .expect("differing mutant");
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        let pair = CanonicalPair::new(&a, &b);
        let verdict = prove_verdict(&pair);
        assert!(matches!(verdict, CachedVerdict::Inequivalent { .. }));
        cache.insert(&pair, verdict.clone());
        assert_eq!(cache.lookup(&pair).as_ref(), Some(&verdict));
        // A pattern that does NOT distinguish must be rejected.
        let bogus = CachedVerdict::Inequivalent {
            pattern: vec![false; a.num_inputs()],
        };
        let distinguishes = pair.a.evaluate(&vec![false; a.num_inputs()])
            != pair.b.evaluate(&vec![false; a.num_inputs()]);
        if !distinguishes {
            cache.insert(&pair, bogus);
            assert_eq!(cache.lookup(&pair), None, "bogus pattern rejected");
            assert_eq!(cache.stats().replay_rejects, 1);
        }
    }

    #[test]
    fn certificate_for_wrong_pair_is_rejected() {
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let other_a = ripple_carry_adder(5);
        let other_b = kogge_stone_adder(5);
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        let pair = CanonicalPair::new(&a, &b);
        let other = CanonicalPair::new(&other_a, &other_b);
        // Poison: store the OTHER pair's certificate under this key.
        cache.insert(&pair, prove_verdict(&other));
        assert_eq!(cache.lookup(&pair), None, "foreign certificate rejected");
        assert_eq!(cache.stats().replay_rejects, 1);
    }

    #[test]
    fn an_original_cited_more_often_than_the_miter_holds_it_is_rejected() {
        let pair = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let CachedVerdict::Equivalent { mut tracecheck } = prove_verdict(&pair) else {
            panic!("adders are equivalent");
        };
        let p = proof::import::read_tracecheck(tracecheck.as_slice()).unwrap();
        let formula = miter_cnf(&Miter::build(&pair.a, &pair.b, true));
        let held = |clause: &[cnf::Lit]| {
            let sorted = |c: &cnf::Clause| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            };
            formula
                .clauses()
                .iter()
                .filter(|&c| sorted(c) == clause)
                .count()
        };
        let (_, once) = p
            .iter()
            .find(|(_, s)| s.is_original() && held(s.clause) == 1)
            .expect("an original the miter holds once");
        // A second copy of it: every step still replays, so only the
        // multiplicity count can reject the certificate.
        let lits: String = once
            .clause
            .iter()
            .map(|l| format!("{} ", l.to_dimacs()))
            .collect();
        writeln!(tracecheck, "{} {lits}0 0", p.len() + 1).unwrap();
        let doubled = proof::import::read_tracecheck(tracecheck.as_slice()).unwrap();
        assert!(proof::check::check_refutation(&doubled).is_ok());

        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        cache.insert(&pair, CachedVerdict::Equivalent { tracecheck });
        assert_eq!(cache.lookup(&pair), None, "original cited twice, held once");
        assert_eq!(cache.stats().replay_rejects, 1);
    }

    /// Each live `cec.cache.*` counter equals its `CacheStats` field.
    fn assert_counters_mirror(metrics: &Metrics, stats: CacheStats) {
        let counter = |name: &str| metrics.counter(name).get();
        assert_eq!(counter("cec.cache.hits"), stats.hits);
        assert_eq!(counter("cec.cache.misses"), stats.misses);
        assert_eq!(counter("cec.cache.evictions"), stats.evictions);
        assert_eq!(counter("cec.cache.replay_rejects"), stats.replay_rejects);
        assert_eq!(counter("cec.cache.insertions"), stats.insertions);
    }

    #[test]
    fn lru_evicts_to_spill_and_promotes_back() {
        let dir = std::env::temp_dir().join(format!("rcec-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            capacity: 1,
            spill_dir: Some(dir.clone()),
        };
        let metrics = Metrics::new();
        let mut cache = CertCache::new(config, &metrics).unwrap();
        let p1 = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let p2 = CanonicalPair::new(&ripple_carry_adder(5), &kogge_stone_adder(5));
        let v1 = prove_verdict(&p1);
        cache.insert(&p1, v1.clone());
        cache.insert(&p2, prove_verdict(&p2)); // evicts p1 to disk
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1);
        let spilled = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(spilled, 1, "evicted entry landed on disk");
        // Disk-tier hit, validated and promoted (evicting p2).
        assert_eq!(cache.lookup(&p1).as_ref(), Some(&v1));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().insertions, 2);
        assert_counters_mirror(&metrics, cache.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_spill_entry_is_rejected_not_served() {
        let dir = std::env::temp_dir().join(format!("rcec-cache-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            capacity: 1,
            spill_dir: Some(dir.clone()),
        };
        let metrics = Metrics::new();
        let mut cache = CertCache::new(config, &metrics).unwrap();
        let p1 = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let p2 = CanonicalPair::new(&ripple_carry_adder(5), &kogge_stone_adder(5));
        cache.insert(&p1, prove_verdict(&p1));
        cache.insert(&p2, prove_verdict(&p2)); // p1 spills to disk

        // Corrupt the spilled certificate with each chaos fault mode.
        let path = dir.join(format!("{}.cert", p1.key));
        let pristine = std::fs::read(&path).unwrap();
        for (i, &mode) in chaos::FAULT_MODES.iter().enumerate() {
            let mut bytes = pristine.clone();
            let what = chaos::corrupt(&mut bytes, mode, 0xBAD5EED + i as u64);
            std::fs::write(&path, &bytes).unwrap();
            let before = cache.stats().replay_rejects;
            assert_eq!(
                cache.lookup(&p1),
                None,
                "corrupted entry ({what}) must be rejected, not served"
            );
            assert_eq!(cache.stats().replay_rejects, before + 1);
            // The reject dropped the spill file; restore for next mode.
            std::fs::write(&path, &pristine).unwrap();
        }
        let modes = chaos::FAULT_MODES.len() as u64;
        assert_eq!(cache.stats().misses, modes);
        assert_counters_mirror(&metrics, cache.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
