//! Proofs that name variable 2^31−1 go through every reader, checker,
//! interpolator, lint and rewrite without a table sized by that index.
//!
//! The test binary's global allocator refuses any single request over
//! 64 MiB, so such a table aborts the run with "memory allocation of N
//! bytes failed". It forwards zeroed allocations and reallocations to
//! the system allocator, so a large zeroed table that stays under the
//! bound also stays lazy, as it would in a real run.

use resolution_cec::cnf;
use resolution_cec::proof::{self, interpolate, ClauseId, Proof};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr::null_mut;

/// The largest single request the allocator grants.
const BOUND: usize = 64 << 20;

struct Bounded;

// SAFETY: every method either hands its layout, pointer and size to
// `System` unchanged, which then keeps `GlobalAlloc`'s contract, or
// returns null, which the contract allows as the report of a failed
// allocation.
unsafe impl GlobalAlloc for Bounded {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > BOUND {
            return null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > BOUND {
            return null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > BOUND {
            return null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Bounded = Bounded;

/// `-2147483648` is the negative literal of variable 2^31−1: a chain
/// resolves it through, and no step refutes anything.
const NAMES_LARGEST: &str = "1 1 -2147483648 0 0\n2 -1 0 0\n3 -2147483648 0 1 2 0\n";

/// The same chain inside a refutation of `(x1)(¬x1)`.
const REFUTES_WITH_LARGEST: &str =
    "1 1 -2147483648 0 0\n2 -1 0 0\n3 -2147483648 0 1 2 0\n4 1 0 0\n5 0 2 4 0\n";

fn read(text: &str) -> Proof {
    proof::import::read_tracecheck(text.as_bytes()).expect("well-formed proof")
}

#[test]
fn the_checkers_size_no_table_by_the_largest_variable() {
    let p = read(NAMES_LARGEST);
    assert_eq!(proof::check::check_strict(&p), Ok(()));
    assert_eq!(proof::check::check_rup(&p), Ok(()));
    let p = read(REFUTES_WITH_LARGEST);
    assert_eq!(proof::check::check_refutation(&p), Ok(ClauseId::new(4)));
    assert_eq!(proof::check::check_rup(&p), Ok(()));
}

#[test]
fn the_interpolator_sizes_no_table_by_the_largest_variable() {
    let p = read(REFUTES_WITH_LARGEST);
    // A = every clause but (x1), B = (x1): the interpolant is ¬x1.
    let itp = interpolate::interpolant(&p, ClauseId::new(4), |id| id == ClauseId::new(3))
        .expect("the refutation replays");
    assert_eq!(itp.inputs, [cnf::Var::new(0)]);
}

#[test]
fn the_proof_lints_and_rewrites_size_no_table_by_the_largest_variable() {
    let opts = lint::LintOptions::default();
    for text in [NAMES_LARGEST, REFUTES_WITH_LARGEST] {
        let report = lint::lint_tracecheck(text.as_bytes(), &opts).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics());
        let p = read(text);
        assert!(lint::lint_proof(&p, &opts).is_clean());
        let fixed = lint::fix_proof(&p);
        assert!(lint::lint_proof(&fixed.proof, &opts).is_clean());
        let mut out = Vec::new();
        proof::export::write_tracecheck(&fixed.proof, &mut out).unwrap();
        assert_eq!(
            proof::check::check_strict(&read(std::str::from_utf8(&out).unwrap())),
            Ok(())
        );
    }
    let p = read(REFUTES_WITH_LARGEST);
    let root = ClauseId::new(4);
    for t in [proof::trim(&p, root), proof::compact(&p, root)] {
        assert!(proof::check::check_refutation(&t.proof).is_ok());
        let mut out = Vec::new();
        proof::export::write_tracecheck(&t.proof, &mut out).unwrap();
    }
}

#[test]
fn the_drat_lint_sizes_no_table_by_the_largest_variable() {
    let mut formula = cnf::Cnf::new();
    formula.add_clause(vec![cnf::Var::new(0).positive()]);
    for text in ["2147483647 0\n", "-2147483648 0\n-2147483648 0\n"] {
        for f in [None, Some(&formula)] {
            let report = lint::lint_drat(text.as_bytes(), f, &lint::LintOptions::default())
                .expect("reading from memory");
            // Without a formula there is nothing to RUP-check.
            assert_eq!(report.counts().errors > 0, f.is_some(), "{text:?}");
        }
    }
}
