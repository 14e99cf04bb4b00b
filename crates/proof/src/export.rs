//! Proof export in standard textual formats.
//!
//! - **TraceCheck** (`%RESL` traces as consumed by `tracecheck`): every
//!   step lists its clause and its antecedent ids. Original clauses have
//!   empty antecedent lists.
//! - **DRAT** (clausal): derived clauses only, in order; deletions are
//!   not emitted (the proofs here are already trimmed when it matters).
//!
//! Both use DIMACS literal conventions (1-based, sign = polarity), and
//! both format their numbers into one buffer that the sink receives in
//! chunks of at least 32 KiB.

use crate::Proof;
use std::io::{self, Write};

/// Writes the proof in TraceCheck format.
///
/// Step ids are 1-based in the output, matching the format's convention.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Example
///
/// ```
/// use cnf::Var;
/// use proof::{export, Proof};
///
/// # fn main() -> std::io::Result<()> {
/// let mut p = Proof::new();
/// let x = Var::new(0);
/// let a = p.add_original([x.positive()]);
/// let b = p.add_original([x.negative()]);
/// p.add_derived([], [a, b]);
/// let mut out = Vec::new();
/// export::write_tracecheck(&p, &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert_eq!(text.lines().count(), 3);
/// assert!(text.lines().last().unwrap().starts_with("3 "));
/// # Ok(())
/// # }
/// ```
pub fn write_tracecheck<W: Write>(proof: &Proof, w: W) -> io::Result<()> {
    let mut out = Decimals::new(w);
    for (id, step) in proof.iter() {
        out.number(i64::from(id.index()) + 1, b' ');
        for l in step.clause {
            out.number(l.to_dimacs().into(), b' ');
        }
        out.number(0, b' ');
        for a in step.antecedents {
            out.number(i64::from(a.index()) + 1, b' ');
        }
        out.end_line()?;
    }
    out.finish()
}

/// Writes the derived clauses of the proof in DRAT format (additions
/// only, no deletions).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_drat<W: Write>(proof: &Proof, w: W) -> io::Result<()> {
    let mut out = Decimals::new(w);
    for (_, step) in proof.iter() {
        if step.is_original() {
            continue;
        }
        for l in step.clause {
            out.number(l.to_dimacs().into(), b' ');
        }
        out.end_line()?;
    }
    out.finish()
}

/// The sink receives the buffer once a line ends with at least this
/// many bytes in it. The buffer holds twice as much, so a line of up to
/// `CHUNK` bytes never makes it grow.
const CHUNK: usize = 1 << 15;

/// Decimal numbers and separators, buffered for a sink.
struct Decimals<W> {
    sink: W,
    buf: Vec<u8>,
}

impl<W: Write> Decimals<W> {
    fn new(sink: W) -> Self {
        Decimals {
            sink,
            buf: Vec::with_capacity(2 * CHUNK),
        }
    }

    /// Appends `v` in decimal, then `sep`.
    fn number(&mut self, v: i64, sep: u8) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut n = v.unsigned_abs();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            self.buf.push(b'-');
        }
        self.buf.extend_from_slice(&digits[start..]);
        self.buf.push(sep);
    }

    /// Ends the line with its terminating `0`, and hands the sink the
    /// buffer once it holds a chunk.
    fn end_line(&mut self) -> io::Result<()> {
        self.number(0, b'\n');
        if self.buf.len() >= CHUNK {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn sample() -> Proof {
        let mut p = Proof::new();
        let x = Var::new(0);
        let y = Var::new(1);
        let c1 = p.add_original([x.positive(), y.positive()]);
        let c2 = p.add_original([x.negative()]);
        let d = p.add_derived([y.positive()], [c1, c2]);
        let c3 = p.add_original([y.negative()]);
        p.add_derived([], [d, c3]);
        p
    }

    #[test]
    fn tracecheck_layout() {
        let p = sample();
        let mut out = Vec::new();
        write_tracecheck(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // Original clause: `id lits 0 0`.
        assert_eq!(lines[0], "1 1 2 0 0");
        assert_eq!(lines[1], "2 -1 0 0");
        // Derived clause: `id lits 0 antecedents 0`.
        assert_eq!(lines[2], "3 2 0 1 2 0");
        // Empty clause line.
        assert_eq!(lines[4], "5 0 3 4 0");
    }

    #[test]
    fn drat_contains_only_derived() {
        let p = sample();
        let mut out = Vec::new();
        write_drat(&p, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["2 0", "0"]);
    }
}
