//! The wire protocol: JSON Lines over TCP, one request object in, one
//! response object out, in order, per connection.
//!
//! Circuits travel as ASCII AIGER text inside JSON strings; equivalence
//! certificates travel back the same way as TraceCheck text. Both
//! formats are line-oriented ASCII, so JSON string escaping (`\n`) is
//! the only encoding layer — no base64, no binary framing, and every
//! exchange is reproducible with a text editor and `nc`.
//!
//! Requests (the `op` member selects the operation):
//!
//! | op         | members                         | response |
//! |------------|---------------------------------|----------|
//! | `ping`     | —                               | `{"ok":true}` |
//! | `check`    | `a`, `b` (AIGER), optional `id` | one [`CheckReply`] object |
//! | `batch`    | `pairs`: array of `{a, b}`      | `{"results": [CheckReply…]}` in input order |
//! | `metrics`  | —                               | the registry's `metrics-v1` snapshot |
//! | `shutdown` | —                               | `{"ok":true}`, then the server stops |
//!
//! Malformed input, a line that is not UTF-8 included, produces
//! `{"error": "…"}` and the connection stays usable; a failed individual
//! check inside a batch reports its error in that slot without poisoning
//! its neighbours. A request line longer than [`MAX_REQUEST_BYTES`] is
//! the exception: it is answered with an error and the connection is
//! closed.

use obs::json::Value;

/// The longest request line the server reads, its newline excluded:
/// 64 MiB. A pair of million-gate circuits in ASCII AIGER is about
/// 50 MB.
pub const MAX_REQUEST_BYTES: usize = 64 << 20;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One equivalence query: ASCII AIGER text for each side.
    Check {
        /// Client-chosen correlation id, echoed in the reply.
        id: Option<u64>,
        /// Circuit A, ASCII AIGER.
        a: String,
        /// Circuit B, ASCII AIGER.
        b: String,
    },
    /// A batch of queries answered as one response array (each pair is
    /// dispatched to the worker pool; results come back in input
    /// order).
    Batch {
        /// The `(a, b)` AIGER text pairs.
        pairs: Vec<(String, String)>,
    },
    /// Returns the server metrics registry's current snapshot.
    Metrics,
    /// Asks the server to stop accepting connections and exit `run`.
    Shutdown,
}

impl Request {
    /// Parses one JSONL request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a missing
    /// or unknown `op`, or missing operands.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = obs::json::parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\" member")?;
        match op {
            "ping" => Ok(Request::Ping),
            "check" => {
                let text = |k: &str| {
                    v.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("check: missing \"{k}\" member"))
                };
                Ok(Request::Check {
                    id: v.get("id").and_then(Value::as_u64),
                    a: text("a")?,
                    b: text("b")?,
                })
            }
            "batch" => {
                let pairs = v
                    .get("pairs")
                    .and_then(Value::as_array)
                    .ok_or("batch: missing \"pairs\" array")?;
                let mut out = Vec::with_capacity(pairs.len());
                for (i, p) in pairs.iter().enumerate() {
                    let text = |k: &str| {
                        p.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or(format!("batch: pair {i} missing \"{k}\""))
                    };
                    out.push((text("a")?, text("b")?));
                }
                Ok(Request::Batch { pairs: out })
            }
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op \"{other}\"")),
        }
    }

    /// Renders the request as its JSONL line (without the newline).
    pub fn to_value(&self) -> Value {
        match self {
            Request::Ping => op_only("ping"),
            Request::Metrics => op_only("metrics"),
            Request::Shutdown => op_only("shutdown"),
            Request::Check { id, a, b } => {
                let mut m = vec![("op".to_string(), Value::str("check"))];
                if let Some(id) = id {
                    m.push(("id".to_string(), Value::U64(*id)));
                }
                m.push(("a".to_string(), Value::str(a.clone())));
                m.push(("b".to_string(), Value::str(b.clone())));
                Value::Object(m)
            }
            Request::Batch { pairs } => Value::Object(vec![
                ("op".to_string(), Value::str("batch")),
                (
                    "pairs".to_string(),
                    Value::Array(
                        pairs
                            .iter()
                            .map(|(a, b)| {
                                Value::Object(vec![
                                    ("a".to_string(), Value::str(a.clone())),
                                    ("b".to_string(), Value::str(b.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

fn op_only(op: &str) -> Value {
    Value::Object(vec![("op".to_string(), Value::str(op))])
}

/// The server's answer to one `check` (alone or as a batch slot).
#[derive(Clone, Debug, PartialEq)]
pub struct CheckReply {
    /// Echo of the request's correlation id.
    pub id: Option<u64>,
    /// `true` when the pair proved equivalent.
    pub equivalent: bool,
    /// Whether the verdict came out of the certificate cache (after
    /// replay validation) rather than a fresh engine run.
    pub cache_hit: bool,
    /// TraceCheck text of the refutation (equivalent verdicts).
    pub certificate: Option<String>,
    /// Distinguishing input pattern as `0`/`1` chars, LSB first
    /// (inequivalent verdicts).
    pub pattern: Option<String>,
    /// Server-side wall-clock for this check, microseconds.
    pub elapsed_us: u64,
}

impl CheckReply {
    /// Renders the reply as a JSON object.
    pub fn to_value(&self) -> Value {
        let mut m = Vec::with_capacity(6);
        if let Some(id) = self.id {
            m.push(("id".to_string(), Value::U64(id)));
        }
        m.push((
            "verdict".to_string(),
            Value::str(if self.equivalent {
                "equivalent"
            } else {
                "inequivalent"
            }),
        ));
        m.push(("cache_hit".to_string(), Value::Bool(self.cache_hit)));
        if let Some(c) = &self.certificate {
            m.push(("certificate".to_string(), Value::str(c.clone())));
        }
        if let Some(p) = &self.pattern {
            m.push(("pattern".to_string(), Value::str(p.clone())));
        }
        m.push(("elapsed_us".to_string(), Value::U64(self.elapsed_us)));
        Value::Object(m)
    }

    /// Parses a reply object (client side).
    ///
    /// # Errors
    ///
    /// Returns the server's `error` member verbatim if present, or a
    /// description of a malformed reply.
    pub fn from_value(v: &Value) -> Result<CheckReply, String> {
        if let Some(e) = v.get("error").and_then(Value::as_str) {
            return Err(e.to_string());
        }
        let verdict = v
            .get("verdict")
            .and_then(Value::as_str)
            .ok_or("reply missing \"verdict\"")?;
        let equivalent = match verdict {
            "equivalent" => true,
            "inequivalent" => false,
            other => return Err(format!("unknown verdict \"{other}\"")),
        };
        Ok(CheckReply {
            id: v.get("id").and_then(Value::as_u64),
            equivalent,
            cache_hit: v.get("cache_hit") == Some(&Value::Bool(true)),
            certificate: v
                .get("certificate")
                .and_then(Value::as_str)
                .map(str::to_string),
            pattern: v.get("pattern").and_then(Value::as_str).map(str::to_string),
            elapsed_us: v.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// Renders an error response line.
pub fn error_value(message: &str) -> Value {
    Value::Object(vec![("error".to_string(), Value::str(message))])
}

/// Renders the `{"ok":true}` acknowledgement.
pub fn ok_value() -> Value {
    Value::Object(vec![("ok".to_string(), Value::Bool(true))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for r in [
            Request::Ping,
            Request::Metrics,
            Request::Shutdown,
            Request::Check {
                id: Some(7),
                a: "aag 0 0 0 0 0\n".to_string(),
                b: "aag 0 0 0 0 0\n".to_string(),
            },
            Request::Batch {
                pairs: vec![("x\n".to_string(), "y\n".to_string())],
            },
        ] {
            let line = r.to_value().to_string();
            assert!(!line.contains('\n'), "JSONL line stays one line");
            assert_eq!(Request::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn replies_round_trip() {
        let r = CheckReply {
            id: Some(3),
            equivalent: true,
            cache_hit: true,
            certificate: Some("1 2 0 0\n".to_string()),
            pattern: None,
            elapsed_us: 1234,
        };
        assert_eq!(CheckReply::from_value(&r.to_value()).unwrap(), r);
        let ne = CheckReply {
            id: None,
            equivalent: false,
            cache_hit: false,
            certificate: None,
            pattern: Some("0110".to_string()),
            elapsed_us: 9,
        };
        assert_eq!(CheckReply::from_value(&ne.to_value()).unwrap(), ne);
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"op":"check","a":"x"}"#).is_err());
        let e = CheckReply::from_value(&error_value("boom")).unwrap_err();
        assert_eq!(e, "boom");
    }
}
