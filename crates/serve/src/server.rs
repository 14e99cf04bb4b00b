//! The threaded TCP server: connection handlers parse JSONL requests
//! and dispatch checks onto a fixed worker pool; workers run engine
//! sessions over one shared context and consult the certificate cache.

use crate::protocol::{self, CheckReply, Request, MAX_REQUEST_BYTES};
use cache::{CacheConfig, CachedVerdict, CanonicalPair, CertCache};
use cec::{CecOutcome, EngineConfig, Session, SharedContext};
use obs::json::Value;
use obs::metrics::{self, Metrics};
use obs::Recorder;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Everything `rcecd` needs to come up: where to listen, how many
/// workers, and the cache shape. Every check runs at
/// [`EngineConfig::default`], the configuration `rcec` runs without
/// flags, so a fresh answer carries the proof `rcec` writes.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7163` (port 0 picks a free one).
    pub addr: String,
    /// Worker-pool size: how many checks run concurrently. Each worker
    /// runs one engine session, one sequential sweep, at a time.
    pub workers: usize,
    /// Certificate-cache shape.
    pub cache: CacheConfig,
    /// Metrics registry the engine, cache, and server all report into.
    pub metrics: Metrics,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7163".to_string(),
            workers: 2,
            cache: CacheConfig::default(),
            metrics: Metrics::disabled(),
        }
    }
}

struct Shared {
    ctx: SharedContext,
    cache: Mutex<CertCache>,
    snapshot_seq: AtomicU64,
    connections: metrics::Counter,
    requests: metrics::Counter,
    checks: metrics::Counter,
}

struct Job {
    index: usize,
    a: String,
    b: String,
    reply: Sender<(usize, Result<CheckReply, String>)>,
}

/// A bound, worker-pooled CEC service. Create with [`Server::bind`],
/// serve with [`Server::run`] (blocks until a `shutdown` request).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: Sender<Job>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listen socket and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Socket bind or cache spill-directory creation failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = CertCache::new(config.cache, &config.metrics)?;
        let ctx = SharedContext::new(Recorder::disabled(), config.metrics.clone());
        let shared = Arc::new(Shared {
            ctx,
            cache: Mutex::new(cache),
            snapshot_seq: AtomicU64::new(0),
            connections: config.metrics.counter("serve.connections"),
            requests: config.metrics.counter("serve.requests"),
            checks: config.metrics.counter("serve.checks"),
        });
        let (jobs, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        // Workers are detached: they exit when the job sender closes
        // (server drop) or with the process.
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker_loop(&shared, &rx));
        }
        Ok(Server {
            listener,
            shared,
            jobs,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Forwards the socket's address query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a client sends `shutdown`.
    /// Each connection gets its own handler thread; checks from all
    /// connections share the one worker pool.
    ///
    /// Returns as soon as the shutdown request is acknowledged: the
    /// listener closes (no new connections), but handler threads for
    /// connections that are still open are *not* joined — they run
    /// until their client disconnects and die with the process. Joining
    /// them here would make shutdown wait on every idle client.
    ///
    /// # Errors
    ///
    /// Fatal accept errors only; per-connection I/O errors terminate
    /// that connection silently.
    pub fn run(self) -> io::Result<()> {
        let local = self.local_addr()?;
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            self.shared.connections.inc();
            let shared = Arc::clone(&self.shared);
            let jobs = self.jobs.clone();
            let stop = Arc::clone(&self.stop);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &shared, &jobs, &stop, local);
            });
        }
        Ok(())
    }
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    jobs: &Sender<Job>,
    stop: &AtomicBool,
    local: std::net::SocketAddr,
) -> io::Result<()> {
    // A reply over the buffer size leaves in several writes; with
    // Nagle's algorithm on, each write after the first would wait for
    // the client's delayed ACK (about 40 ms).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // One byte past the cap tells an over-long line from one that fits
    // exactly.
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.by_ref().take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_BYTES {
            let message = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
            writeln!(writer, "{}", protocol::error_value(&message))?;
            return writer.flush();
        }
        let line = std::str::from_utf8(&buf);
        if line.is_ok_and(|line| line.trim().is_empty()) {
            continue;
        }
        shared.requests.inc();
        let request = line
            .map_err(|e| format!("request line is not UTF-8: {e}"))
            .and_then(Request::parse);
        let response = match request {
            Err(e) => protocol::error_value(&e),
            Ok(Request::Ping) => protocol::ok_value(),
            Ok(Request::Metrics) => {
                let seq = shared.snapshot_seq.fetch_add(1, Ordering::Relaxed);
                shared
                    .ctx
                    .metrics
                    .snapshot(seq)
                    .unwrap_or(Value::Object(Vec::new()))
            }
            Ok(Request::Shutdown) => {
                writeln!(writer, "{}", protocol::ok_value())?;
                writer.flush()?;
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(local);
                return Ok(());
            }
            Ok(Request::Check { id, a, b }) => {
                let mut results = dispatch(jobs, vec![(a, b)]);
                match results.pop().expect("one result per job") {
                    Ok(mut reply) => {
                        reply.id = id;
                        reply.to_value()
                    }
                    Err(e) => protocol::error_value(&e),
                }
            }
            Ok(Request::Batch { pairs }) => {
                let results = dispatch(jobs, pairs);
                Value::Object(vec![(
                    "results".to_string(),
                    Value::Array(
                        results
                            .into_iter()
                            .map(|r| match r {
                                Ok(reply) => reply.to_value(),
                                Err(e) => protocol::error_value(&e),
                            })
                            .collect(),
                    ),
                )])
            }
        };
        writeln!(writer, "{response}")?;
        writer.flush()?;
    }
}

/// Fans `pairs` out to the worker pool and collects replies in input
/// order.
fn dispatch(jobs: &Sender<Job>, pairs: Vec<(String, String)>) -> Vec<Result<CheckReply, String>> {
    let n = pairs.len();
    let (tx, rx) = mpsc::channel();
    for (index, (a, b)) in pairs.into_iter().enumerate() {
        jobs.send(Job {
            index,
            a,
            b,
            reply: tx.clone(),
        })
        .expect("worker pool outlives connections");
    }
    drop(tx);
    let mut slots: Vec<Option<Result<CheckReply, String>>> = (0..n).map(|_| None).collect();
    for (index, result) in rx {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or(Err("worker dropped the job".to_string())))
        .collect()
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = rx.lock().expect("job queue lock");
            guard.recv()
        };
        let Ok(job) = job else {
            return; // sender closed: server shut down
        };
        let result = run_check(shared, &job.a, &job.b);
        let _ = job.reply.send((job.index, result));
    }
}

/// One end-to-end check: parse, canonicalize, consult the cache (hits
/// are already replay-validated by `CertCache::lookup`), otherwise run
/// a session over the *canonical* pair and record the fresh verdict.
///
/// Proving the canonical form rather than the raw text is what makes
/// hit and miss byte-identical: the engine is deterministic per
/// (config, input bytes), and every isomorphic restatement reaches it
/// as the same bytes.
fn run_check(shared: &Shared, a_text: &str, b_text: &str) -> Result<CheckReply, String> {
    let start = Instant::now();
    shared.checks.inc();
    let a = aig::aiger::read(a_text.as_bytes()).map_err(|e| format!("circuit a: {e}"))?;
    let b = aig::aiger::read(b_text.as_bytes()).map_err(|e| format!("circuit b: {e}"))?;
    let pair = CanonicalPair::new(&a, &b);
    let cached = shared.cache.lock().expect("cache lock").lookup(&pair);
    let (verdict, cache_hit) = match cached {
        Some(v) => (v, true),
        None => {
            let outcome = Session::new(EngineConfig::default(), &shared.ctx)
                .check(&pair.a, &pair.b)
                .map_err(|e| e.to_string())?;
            let v = match outcome {
                CecOutcome::Equivalent(cert) => {
                    let p = cert.proof.as_ref().ok_or("engine produced no proof")?;
                    let mut bytes = Vec::new();
                    proof::export::write_tracecheck(p, &mut bytes).map_err(|e| e.to_string())?;
                    CachedVerdict::Equivalent { tracecheck: bytes }
                }
                CecOutcome::Inequivalent { counterexample, .. } => CachedVerdict::Inequivalent {
                    pattern: counterexample.pattern,
                },
            };
            shared
                .cache
                .lock()
                .expect("cache lock")
                .insert(&pair, v.clone());
            (v, false)
        }
    };
    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    Ok(match verdict {
        CachedVerdict::Equivalent { tracecheck } => CheckReply {
            id: None,
            equivalent: true,
            cache_hit,
            certificate: Some(
                String::from_utf8(tracecheck).map_err(|_| "certificate is not UTF-8")?,
            ),
            pattern: None,
            elapsed_us,
        },
        CachedVerdict::Inequivalent { pattern } => CheckReply {
            id: None,
            equivalent: false,
            cache_hit,
            certificate: None,
            pattern: Some(pattern.iter().map(|&b| if b { '1' } else { '0' }).collect()),
            elapsed_us,
        },
    })
}
