//! The matching client: one TCP connection, blocking request/response.
//! Used by `rcec query`, the load generator's daemon mode, and the CI
//! smoke checks.

use crate::protocol::{CheckReply, Request};
use aig::Aig;
use obs::json::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// A connected `rcecd` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Connection failures, as strings (every method of this client
    /// reports `String` errors so CLI and load-generator call sites can
    /// surface them uniformly).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        // Large requests leave in several writes; see the server's
        // `handle_connection` for why Nagle's algorithm must be off.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Value, String> {
        writeln!(self.writer, "{}", request.to_value()).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        let v = obs::json::parse(line.trim_end()).map_err(|e| e.to_string())?;
        if let Some(e) = v.get("error").and_then(Value::as_str) {
            return Err(e.to_string());
        }
        Ok(v)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O or protocol failures.
    pub fn ping(&mut self) -> Result<(), String> {
        self.round_trip(&Request::Ping).map(|_| ())
    }

    /// Checks one pair of circuits, serialized as ASCII AIGER on the
    /// wire.
    ///
    /// # Errors
    ///
    /// I/O failures or a server-side check error.
    pub fn check(&mut self, a: &Aig, b: &Aig) -> Result<CheckReply, String> {
        let v = self.round_trip(&Request::Check {
            id: None,
            a: ascii(a)?,
            b: ascii(b)?,
        })?;
        CheckReply::from_value(&v)
    }

    /// Checks a batch of pairs; replies come back in input order. Check
    /// failures occupy their slot as `Err` without failing the batch.
    ///
    /// # Errors
    ///
    /// I/O failures or a malformed batch response.
    #[allow(clippy::type_complexity)]
    pub fn check_batch(
        &mut self,
        pairs: &[(&Aig, &Aig)],
    ) -> Result<Vec<Result<CheckReply, String>>, String> {
        let mut wire = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            wire.push((ascii(a)?, ascii(b)?));
        }
        let v = self.round_trip(&Request::Batch { pairs: wire })?;
        let results = v
            .get("results")
            .and_then(Value::as_array)
            .ok_or("batch reply missing \"results\"")?;
        Ok(results.iter().map(CheckReply::from_value).collect())
    }

    /// Fetches the server's current metrics snapshot (a `metrics-v1`
    /// object; empty object when the server runs without metrics).
    ///
    /// # Errors
    ///
    /// I/O or protocol failures.
    pub fn metrics(&mut self) -> Result<Value, String> {
        self.round_trip(&Request::Metrics)
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// I/O or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.round_trip(&Request::Shutdown).map(|_| ())
    }
}

fn ascii(g: &Aig) -> Result<String, String> {
    let mut v = Vec::new();
    aig::aiger::write_ascii(g, &mut v).map_err(|e| e.to_string())?;
    String::from_utf8(v).map_err(|e| e.to_string())
}
