//! Hardness-score behavior on known circuit families: the score must
//! order multiplier-class above adder-class above unstructured random
//! graphs at comparable sizes, classification must recognize the
//! canonical datapaths, and reports must be byte-identical across runs.

use aig::gen;
use analysis::{cnf_features, HardnessReport, InstanceClass};
use cnf::{Cnf, Var};

#[test]
fn score_orders_multiplier_above_adder_above_random() {
    // Comparable sizes: mul-4 (84 ANDs) vs rca-8 (52) vs random (~100);
    // mul-5 (145) vs bk-16 (163) / ks-16 (239) / rca-32 (220) vs
    // random (~300). The ordering must hold within each size band.
    let mul4 = HardnessReport::of_aig(&gen::array_multiplier(4)).score;
    let mul5 = HardnessReport::of_aig(&gen::array_multiplier(5)).score;
    let rca8 = HardnessReport::of_aig(&gen::ripple_carry_adder(8)).score;
    let rca32 = HardnessReport::of_aig(&gen::ripple_carry_adder(32)).score;
    let ks16 = HardnessReport::of_aig(&gen::kogge_stone_adder(16)).score;
    let bk16 = HardnessReport::of_aig(&gen::brent_kung_adder(16)).score;
    let rand_small = HardnessReport::of_aig(&gen::random_aig(16, 100, 2, 0xA5)).score;
    let rand_big = HardnessReport::of_aig(&gen::random_aig(16, 300, 2, 0xA5)).score;
    let adder_max = rca8.max(rca32).max(ks16).max(bk16);
    let adder_min = rca8.min(rca32).min(ks16).min(bk16);
    assert!(
        mul4.min(mul5) > adder_max,
        "multiplier ({mul4:.3}/{mul5:.3}) must outscore adders (max {adder_max:.3})"
    );
    assert!(
        adder_min > rand_small.max(rand_big),
        "adders (min {adder_min:.3}) must outscore random ({rand_small:.3}/{rand_big:.3})"
    );
}

#[test]
fn classification_recognizes_datapaths() {
    let mul = HardnessReport::of_aig(&gen::array_multiplier(4));
    assert_eq!(mul.class, InstanceClass::MultiplierGrid);
    let rca = HardnessReport::of_aig(&gen::ripple_carry_adder(8));
    assert_eq!(rca.class, InstanceClass::AdderChain);
    let par = HardnessReport::of_aig(&gen::parity_chain(16));
    assert_eq!(par.class, InstanceClass::XorLadder);
    let rnd = HardnessReport::of_aig(&gen::random_aig(16, 100, 2, 0xA5));
    assert_eq!(rnd.class, InstanceClass::Unstructured);
}

#[test]
fn hard_and_easy_diagnostics_fire() {
    let mul = HardnessReport::of_aig(&gen::array_multiplier(5));
    let diags = mul.diagnostics();
    assert!(diags.has("AN003"), "multiplier grid must be flagged");
    assert!(diags.has("AN008"), "score {:.3} must flag hard", mul.score);
    let rnd = HardnessReport::of_aig(&gen::random_aig(16, 100, 2, 0xA5));
    assert!(rnd.diagnostics().has("AN009"), "random must flag easy");
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let g = gen::array_multiplier(4);
    let a = HardnessReport::of_aig(&g).to_json().to_string();
    let b = HardnessReport::of_aig(&g).to_json().to_string();
    assert_eq!(a, b);
    // And a full text render round.
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    HardnessReport::of_aig(&g).write_text(&mut ta).unwrap();
    HardnessReport::of_aig(&g).write_text(&mut tb).unwrap();
    assert_eq!(ta, tb);
}

#[test]
fn cnf_features_are_sane_and_deterministic() {
    let mut f = Cnf::with_vars(6);
    for i in 0..5u32 {
        f.add_clause(vec![Var::new(i).positive(), Var::new(i + 1).negative()]);
    }
    f.add_clause(vec![Var::new(0).positive(), Var::new(5).positive()]);
    let a = cnf_features(&f);
    let b = cnf_features(&f);
    assert_eq!(a, b);
    assert_eq!(a.vars, 6);
    assert_eq!(a.clauses, 6);
    assert_eq!(a.literals, 12);
    assert!(a.vig_max_degree >= 2);
    assert!(a.mean_span > 0.0 && a.mean_span <= 1.0);
    let r = HardnessReport::of_cnf(&f);
    assert!(r.score > 0.0 && r.score < 1.0);
}
