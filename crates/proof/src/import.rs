//! TraceCheck proof import.
//!
//! Together with [`crate::export::write_tracecheck`] this makes proofs
//! first-class artifacts: an engine can emit a trace to disk and any
//! later process (or a different tool entirely) can re-load and re-check
//! it. The format is one step per line:
//!
//! ```text
//! <id> <lit>* 0 <antecedent-id>* 0
//! ```
//!
//! with 1-based step ids and DIMACS literals. [`read_tracecheck`]
//! requires the ids to count up from 1 with no gap, as the writer emits
//! them, and every antecedent to cite an earlier step.
//!
//! [`parse_step`] reads one such line and [`parse_clause`] its clause;
//! they are the one grammar, and the lenient `lint` front-ends call them
//! too. [`read_tracecheck`] reads each line into one reused byte buffer
//! and parses a line in the writer's own form (single spaces, unsigned
//! ids and antecedents, literals within `i32`, no leading zeros) straight
//! into reused clause and antecedent buffers. Every other line goes to
//! [`parse_step`]: comments, blank lines, other whitespace, signs such
//! as `+5` or `-0`, out-of-range numbers and every error, so an error
//! message is always its message.

use crate::{ClauseId, Proof};
use cnf::{Lit, Var};
use std::fmt;
use std::io::{self, BufRead};
use std::num::NonZeroI32;

/// Error produced while reading a TraceCheck file.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file violates the format; the message says how.
    Format(String),
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ParseTraceError::Format(m) => write!(f, "invalid tracecheck file: {m}"),
        }
    }
}

impl std::error::Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            ParseTraceError::Format(_) => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

/// One TraceCheck step line, as [`parse_step`] reads it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The 1-based step id the line declares.
    pub id: u64,
    /// The step's clause.
    pub clause: Vec<Lit>,
    /// The antecedents that cite earlier steps.
    pub antecedents: Vec<ClauseId>,
    /// The antecedents that do not: the step itself, a later step, or
    /// an id below 1. Whether they are fatal is the caller's decision.
    pub dangling: Vec<i64>,
}

impl TraceStep {
    /// Appends the step to `proof`, as an original clause when it cites
    /// no earlier step and as a derived one otherwise.
    pub fn add_to(self, proof: &mut Proof) -> ClauseId {
        if self.antecedents.is_empty() {
            proof.add_original(self.clause)
        } else {
            proof.add_derived(self.clause, self.antecedents)
        }
    }
}

/// A TraceCheck line that breaks the grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepError {
    /// The step id the line declares, when that much of it is readable.
    pub id: Option<u64>,
    /// What is wrong with the line.
    pub message: String,
}

/// Parses one TraceCheck line, `<id> <lit>* 0 <antecedent-id>* 0`.
///
/// Returns `Ok(None)` for a blank line or a `c` comment.
///
/// # Errors
///
/// Returns a [`StepError`] when the line breaks the grammar.
pub fn parse_step(line: &str) -> Result<Option<TraceStep>, StepError> {
    let mut tokens = line.split_whitespace();
    let Some(id_tok) = tokens.next().filter(|t| !t.starts_with('c')) else {
        return Ok(None);
    };
    let id = id_tok.parse::<u64>().ok().filter(|&id| id >= 1);
    let err = |message: String| StepError { id, message };
    let Some(id) = id else {
        return Err(err(format!("bad step id `{id_tok}`")));
    };
    let clause = parse_clause(&mut tokens).map_err(err)?;
    let mut antecedents = Vec::new();
    let mut dangling = Vec::new();
    loop {
        let Some(tok) = tokens.next() else {
            return Err(err("antecedent list not terminated by 0".into()));
        };
        let v: i64 = tok
            .parse()
            .map_err(|e| err(format!("bad antecedent `{tok}`: {e}")))?;
        match v {
            0 => break,
            1.. if v.unsigned_abs() < id => antecedents.push(ClauseId::new((v - 1) as u32)),
            _ => dangling.push(v),
        }
    }
    if tokens.next().is_some() {
        return Err(err("trailing tokens after antecedent terminator".into()));
    }
    Ok(Some(TraceStep {
        id,
        clause,
        antecedents,
        dangling,
    }))
}

/// Parses the DIMACS clause `<lit>* 0` at the front of `tokens`, the
/// part a TraceCheck step shares with a DRAT line. Consumes the
/// terminating `0` and nothing after it.
///
/// # Errors
///
/// Returns a message when a token is not a 32-bit integer or the
/// terminating `0` is missing.
pub fn parse_clause<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<Vec<Lit>, String> {
    let mut lits = Vec::new();
    for tok in tokens {
        let v: i32 = tok
            .parse()
            .map_err(|e| format!("bad literal `{tok}`: {e}"))?;
        match NonZeroI32::new(v) {
            None => return Ok(lits),
            Some(nz) => lits.push(Lit::from_dimacs(nz)),
        }
    }
    Err("clause not terminated by 0".into())
}

/// Reads a TraceCheck proof.
///
/// Step ids must be 1-based, strictly increasing, and antecedents must
/// reference earlier steps. The resulting proof is *not* checked; run
/// [`crate::check::check_strict`] (or `check_rup`) afterwards.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed input or I/O failure.
///
/// # Example
///
/// ```
/// use proof::import::read_tracecheck;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "1 1 0 0\n2 -1 0 0\n3 0 1 2 0\n";
/// let p = read_tracecheck(text.as_bytes())?;
/// assert_eq!(p.len(), 3);
/// assert!(proof::check::check_refutation(&p).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn read_tracecheck<R: BufRead>(mut r: R) -> Result<Proof, ParseTraceError> {
    let mut proof = Proof::new();
    let (mut line, mut clause, mut antecedents) = (Vec::new(), Vec::new(), Vec::new());
    let mut line_no = 0;
    loop {
        line.clear();
        if r.read_until(b'\n', &mut line)? == 0 {
            return Ok(proof);
        }
        line_no += 1;
        // What `BufRead::lines` drops: the `\n`, and one `\r` before it.
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        let next = proof.len() as u64 + 1;
        if read_plain_step(&line, next, &mut clause, &mut antecedents) {
            if antecedents.is_empty() {
                proof.add_original(clause.iter().copied());
            } else {
                proof.add_derived(clause.iter().copied(), antecedents.iter().copied());
            }
            continue;
        }
        let err = |m: String| ParseTraceError::Format(format!("line {line_no}: {m}"));
        let text = std::str::from_utf8(&line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let Some(step) = parse_step(text).map_err(|e| err(e.message))? else {
            continue;
        };
        let id = step.id;
        if id != next {
            return Err(err(format!("expected step id {next}, found {id}")));
        }
        if let Some(v) = step.dangling.first() {
            return Err(err(format!("antecedent {v} out of range for step {id}")));
        }
        step.add_to(&mut proof);
    }
}

/// Reads `line` into `clause` and `antecedents` when it is step `id` in
/// the form the writer emits, `<id> <lit>* 0 <antecedent>* 0` with
/// single spaces, and every antecedent cites an earlier step. Returns
/// `false` for any other line, which [`parse_step`] then reads.
fn read_plain_step(
    line: &[u8],
    id: u64,
    clause: &mut Vec<Lit>,
    antecedents: &mut Vec<ClauseId>,
) -> bool {
    clause.clear();
    antecedents.clear();
    let mut tokens = line.split(|&b| b == b' ');
    if tokens.next().and_then(plain_number) != Some(id) {
        return false;
    }
    loop {
        let Some(tok) = tokens.next() else {
            return false;
        };
        let (negative, digits) = match tok.strip_prefix(b"-") {
            Some(digits) => (true, digits),
            None => (false, tok),
        };
        match plain_number(digits) {
            Some(0) if !negative => break,
            Some(v @ 1..=0x7fff_ffff) => clause.push(Var::new(v as u32 - 1).lit(negative)),
            _ => return false,
        }
    }
    loop {
        match tokens.next().and_then(plain_number) {
            Some(0) => return tokens.next().is_none(),
            Some(v) if v < id => antecedents.push(ClauseId::new((v - 1) as u32)),
            _ => return false,
        }
    }
}

/// An unsigned decimal of at most 19 digits with no leading zero, so it
/// cannot overflow; `None` for anything else.
fn plain_number(tok: &[u8]) -> Option<u64> {
    if tok.is_empty() || tok.len() > 19 || (tok[0] == b'0' && tok.len() > 1) {
        return None;
    }
    tok.iter().try_fold(0u64, |n, &b| {
        b.is_ascii_digit().then(|| n * 10 + u64::from(b - b'0'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::write_tracecheck;
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
    fn round_trip_preserves_everything_checkable() {
        let p = sample();
        let mut buf = Vec::new();
        write_tracecheck(&p, &mut buf).unwrap();
        let q = read_tracecheck(&buf[..]).unwrap();
        assert_eq!(p.len(), q.len());
        assert_eq!(p.num_original(), q.num_original());
        assert_eq!(p.num_resolutions(), q.num_resolutions());
        for (id, step) in p.iter() {
            assert_eq!(step.clause, q.clause(id));
        }
        crate::check::check_refutation(&q).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "c header\n\n1 1 0 0\nc mid\n2 -1 0 0\n3 0 1 2 0\n";
        let p = read_tracecheck(text.as_bytes()).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn rejects_gap_in_ids() {
        assert!(read_tracecheck("1 1 0 0\n3 -1 0 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_forward_antecedent() {
        assert!(read_tracecheck("1 1 0 0\n2 0 1 5 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_missing_terminators() {
        assert!(read_tracecheck("1 1 0\n".as_bytes()).is_err());
        assert!(read_tracecheck("1 1\n".as_bytes()).is_err());
        assert!(read_tracecheck("1 1 0 0 7\n".as_bytes()).is_err());
    }

    #[test]
    fn near_misses_of_the_writers_form_read_as_parse_step_reads_them() {
        for (text, error) in [
            (
                "1 1 0 0\n2 -1 0 2 0\n",
                "line 2: antecedent 2 out of range for step 2",
            ),
            ("1 2147483648 0 0\n", "line 1: bad literal `2147483648`"),
            (
                "1 1 0 0 7\n",
                "line 1: trailing tokens after antecedent terminator",
            ),
            ("1 1 0 0\n3 -1 0 0\n", "line 2: expected step id 2, found 3"),
        ] {
            let e = read_tracecheck(text.as_bytes()).unwrap_err().to_string();
            assert!(e.contains(error), "{text:?}: {e}");
        }
        let p =
            read_tracecheck("1 -2147483648 0 0\n02 +1 -0 0\n3  0 1  2 0 \n".as_bytes()).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.clause(ClauseId::new(1)), [Var::new(0).positive()]);
        assert_eq!(
            p.step(ClauseId::new(2)).antecedents,
            [ClauseId::new(0), ClauseId::new(1)]
        );
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let e = read_tracecheck("1 1 0 0\nx\n".as_bytes()).unwrap_err();
        assert!(format!("{e}").contains("line 2"));
    }
}
