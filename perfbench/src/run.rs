//! Set-up, the timed closed loops, and the independent certification of
//! every verdict they produce.

use crate::gate::Gate;
use crate::pairs::{self, Pair, Workload};
use crate::trace::Tracer;
use aig::Aig;
use cec::{CecOutcome, EngineConfig, EngineStats, Session, SharedContext};
use obs::json::Value;
use obs::metrics::Metrics;
use serve::{CheckReply, Client, Server, ServerConfig};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many times a run sets up; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The fewest verdicts an end-to-end run measures, so that at least ten
/// lie beyond its p95.
pub const MIN_VERDICTS: usize = 200;

/// CPU time used so far by every thread of this process.
///
/// The end-to-end times are CPU times, not wall-clock times: on a shared
/// virtual machine the hypervisor steals a varying share of the CPU
/// (10-25% at times on the host this benchmark was sized on), which
/// moves wall-clock times by 30% between otherwise identical runs. CPU
/// time leaves stolen time and run-queue waits out.
pub fn cpu_now() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the pointer, which points to a live,
    // aligned local of that layout; the clock id is the constant Linux
    // defines for the calling process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

/// An in-process daemon, configured as `rcecd` starts it.
pub struct Daemon {
    pub addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics: Metrics::new(),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    /// A daemon that has proven `bases`, as a CI caller's first batch
    /// would leave it.
    fn proven(bases: &[Pair], gate: &mut Gate) -> Result<Daemon, String> {
        let daemon = Daemon::start()?;
        for p in bases {
            let reply = Client::connect(&daemon.addr)?.check(&p.a, &p.b)?;
            if let Some(cert) = &reply.certificate {
                gate.certificate(&p.name, cert.as_bytes())?;
            }
        }
        Ok(daemon)
    }

    /// The server's `metrics` snapshot.
    pub fn metrics(&self) -> Result<Value, String> {
        Client::connect(&self.addr)?.metrics()
    }

    /// Stops the accept loop with the protocol's `shutdown` and joins it.
    pub fn stop(self) -> Result<(), String> {
        Client::connect(&self.addr)?.shutdown()?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// A workload's inputs once set up.
pub enum Prepared {
    Batch {
        pairs: Vec<Pair>,
    },
    Serve {
        /// The pairs each daemon proves before it is queried.
        bases: Vec<Pair>,
        /// One pass of queries: hits and first-seen misses.
        stream: Vec<Pair>,
        daemon: Daemon,
    },
}

/// Sets the workload up: the seeded inputs, then either one untimed
/// warm-up pass whose exact counts seed the determinism gate (batch) or a
/// daemon that has proven the base pairs (serve).
pub fn setup(workload: Workload, seed: u64, gate: &mut Gate) -> Result<Prepared, String> {
    let config = EngineConfig::default();
    let ctx = SharedContext::disabled();
    match workload {
        Workload::BatchSweep | Workload::BatchHard => {
            let pairs = pairs::batch_pairs(workload, seed);
            for p in &pairs {
                let outcome = Session::new(config.clone(), &ctx)
                    .check(&p.a, &p.b)
                    .map_err(|e| format!("warm-up {}: {e}", p.name))?;
                gate.engine(&p.name, outcome.stats())?;
            }
            Ok(Prepared::Batch { pairs })
        }
        Workload::ServeReplay => {
            let bases = pairs::serve_pairs();
            let stream = pairs::serve_stream(seed);
            let daemon = Daemon::proven(&bases, gate)?;
            Ok(Prepared::Serve {
                bases,
                stream,
                daemon,
            })
        }
    }
}

/// What the engine reported for one batch verdict.
#[derive(Clone, Copy, Default)]
pub struct EngineSample {
    /// `miter`, `sim`, `sweep`, `final_solve`, `trim` phase times, ms.
    pub phases_ms: [f64; 5],
    pub propagations: u64,
}

/// What the daemon reported for one served verdict.
#[derive(Clone, Copy, Default)]
pub struct ServeSample {
    pub server_ms: f64,
    pub reply_bytes: usize,
    pub cache_hit: bool,
}

/// One timed verdict.
pub struct Sample {
    /// Index into [`Verdicts::names`].
    pub pair: usize,
    /// Wall-clock time from just before the call to the returned
    /// verdict.
    pub ms: f64,
    /// CPU time the process used over the same interval.
    pub cpu_ms: f64,
    pub engine: Option<EngineSample>,
    pub serve: Option<ServeSample>,
}

/// The timed verdicts of one loop.
#[derive(Default)]
pub struct Verdicts {
    pub names: Vec<String>,
    index: HashMap<String, usize>,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Request id of the first verdict, for the spans.
    first_req: u64,
    pub failures: Vec<String>,
    /// Completed passes over the inputs.
    pub passes: usize,
}

impl Verdicts {
    /// An empty record whose request ids start at `first_req`.
    pub fn starting_at(first_req: u64) -> Self {
        Verdicts {
            first_req,
            ..Verdicts::default()
        }
    }

    fn pair_index(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), self.names.len() - 1);
        self.names.len() - 1
    }

    /// Seconds of timed wall time: the sum of the verdict latencies.
    pub fn timed_s(&self) -> f64 {
        self.samples.iter().map(|s| s.ms).sum::<f64>() / 1e3
    }

    /// Whether verdicts keep failing, so that timed time may never
    /// accumulate.
    fn stuck(&self) -> bool {
        self.failures.len() > 100
    }

    fn fail(&mut self, pair: &str, why: String) {
        self.failures.push(format!("{pair}: {why}"));
    }
}

/// Runs the closed loop from one thread until at least `seconds` of
/// verdict time and `min_verdicts` verdicts have been measured, in whole
/// passes over the inputs, so every run checks the same mix.
/// Certification and the determinism gate run between verdicts, with the
/// clock stopped.
pub fn timed_loop(
    prepared: &mut Prepared,
    seconds: f64,
    min_verdicts: usize,
    tracer: &Tracer,
    gate: &mut Gate,
) -> Verdicts {
    let mut v = Verdicts::default();
    let more =
        |v: &Verdicts| (v.timed_s() < seconds || v.samples.len() < min_verdicts) && !v.stuck();
    match prepared {
        Prepared::Batch { pairs } => {
            let config = EngineConfig::default();
            let ctx = SharedContext::disabled();
            while more(&v) {
                for p in pairs.iter() {
                    batch_verdict(p, &config, &ctx, tracer, gate, &mut v);
                }
                v.passes += 1;
            }
        }
        Prepared::Serve {
            bases,
            stream,
            daemon,
        } => {
            while more(&v) {
                // A fresh daemon for every pass, brought up off the clock:
                // the misses are first-seen again, so every pass does the
                // same work and the cache does not grow with run speed.
                let fresh = Daemon::proven(bases, gate);
                if let Err(e) = fresh.and_then(|d| std::mem::replace(daemon, d).stop()) {
                    v.fail("daemon", e);
                    break;
                }
                for p in stream.iter() {
                    serve_verdict(p, &daemon.addr, tracer, gate, &mut v);
                }
                v.passes += 1;
            }
        }
    }
    v
}

fn batch_verdict(
    p: &Pair,
    config: &EngineConfig,
    ctx: &SharedContext,
    tracer: &Tracer,
    gate: &mut Gate,
    v: &mut Verdicts,
) {
    let req = v.first_req + v.attempted;
    v.attempted += 1;
    let pair = v.pair_index(&p.name);
    let (root, root_id) = tracer.span("verdict", req, 0);
    let (t0, c0) = (Instant::now(), cpu_now());
    let result = {
        let _s = tracer.span("cec.check", req, root_id);
        Session::new(config.clone(), ctx).check(&p.a, &p.b)
    };
    let (ms, cpu_ms) = (ms(t0.elapsed()), ms(cpu_now() - c0));
    drop(root);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => return v.fail(&p.name, e.to_string()),
    };
    if let Err(e) = certify_outcome(&p.a, &p.b, p.equivalent, &outcome)
        .and_then(|()| gate.verdict(&p.name, &outcome))
    {
        return v.fail(&p.name, e);
    }
    let stats = outcome.stats();
    v.samples.push(Sample {
        pair,
        ms,
        cpu_ms,
        engine: Some(engine_sample(stats)),
        serve: None,
    });
}

pub fn engine_sample(stats: &EngineStats) -> EngineSample {
    let ph = &stats.phases;
    EngineSample {
        phases_ms: [
            ms(ph.miter),
            ms(ph.sim),
            ms(ph.sweep),
            ms(ph.final_solve),
            ms(ph.trim),
        ],
        propagations: stats.solver.propagations,
    }
}

pub fn serve_verdict(p: &Pair, addr: &str, tracer: &Tracer, gate: &mut Gate, v: &mut Verdicts) {
    let req = v.first_req + v.attempted;
    v.attempted += 1;
    let pair = v.pair_index(&p.name);
    let (root, root_id) = tracer.span("verdict", req, 0);
    let (t0, c0) = (Instant::now(), cpu_now());
    let result = query(p, addr, tracer, req, root_id);
    let (ms, cpu_ms) = (ms(t0.elapsed()), ms(cpu_now() - c0));
    drop(root);
    let reply = match result {
        Ok(r) => r,
        Err(e) => return v.fail(&p.name, e),
    };
    let checked = certify_reply(p, &reply).and_then(|()| match &reply.certificate {
        Some(cert) => gate.certificate(&p.name, cert.as_bytes()),
        None => Ok(()),
    });
    if let Err(e) = checked {
        return v.fail(&p.name, e);
    }
    v.samples.push(Sample {
        pair,
        ms,
        cpu_ms,
        engine: None,
        serve: Some(ServeSample {
            server_ms: reply.elapsed_us as f64 / 1e3,
            reply_bytes: reply.to_value().to_string().len() + 1,
            cache_hit: reply.cache_hit,
        }),
    });
}

/// One `rcec query`-style request: a fresh connection per check.
pub fn query(
    p: &Pair,
    addr: &str,
    tracer: &Tracer,
    req: u64,
    parent: u64,
) -> Result<CheckReply, String> {
    let mut client = {
        let _s = tracer.span("serve.connect", req, parent);
        Client::connect(addr)?
    };
    let _s = tracer.span("serve.check", req, parent);
    client.check(&p.a, &p.b)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks an in-process verdict on `a` and `b` against the known answer
/// and certifies it independently of the engine.
pub fn certify_outcome(
    a: &Aig,
    b: &Aig,
    equivalent: bool,
    outcome: &CecOutcome,
) -> Result<(), String> {
    match outcome {
        CecOutcome::Equivalent(cert) if equivalent => {
            let proof = cert
                .proof
                .as_ref()
                .ok_or("equivalent verdict without a proof")?;
            certify_proof(a, b, proof)
        }
        CecOutcome::Inequivalent { counterexample, .. } if !equivalent => {
            certify_pattern(a, b, &counterexample.pattern)
        }
        _ => Err(format!("wrong verdict: expected equivalent = {equivalent}")),
    }
}

/// Checks a served verdict against the known answer; the certificate is
/// parsed from the reply text before it is replayed.
pub fn certify_reply(p: &Pair, reply: &CheckReply) -> Result<(), String> {
    if reply.equivalent != p.equivalent {
        return Err(format!(
            "wrong verdict: expected equivalent = {}",
            p.equivalent
        ));
    }
    if p.equivalent {
        let text = reply.certificate.as_ref().ok_or("no certificate")?;
        let proof = proof::import::read_tracecheck(text.as_bytes()).map_err(|e| e.to_string())?;
        // The daemon proves the canonical form of the pair, so that is
        // the miter its certificate must bind to.
        let canon = cache::CanonicalPair::new(&p.a, &p.b);
        certify_proof(&canon.a, &canon.b, &proof)
    } else {
        let text = reply.pattern.as_ref().ok_or("no counterexample")?;
        let pattern: Vec<bool> = text.chars().map(|c| c == '1').collect();
        certify_pattern(&p.a, &p.b, &pattern)
    }
}

/// A proof certifies `a ≡ b` when its resolution steps replay to the
/// empty clause and every clause it starts from is a clause of the miter
/// of `a` and `b`.
fn certify_proof(a: &Aig, b: &Aig, proof: &proof::Proof) -> Result<(), String> {
    proof::check::check_refutation(proof).map_err(|e| format!("proof rejected: {e}"))?;
    let miter = cec::Miter::build(a, b, EngineConfig::default().share_structure);
    let mut available: HashMap<Vec<i32>, usize> = HashMap::new();
    for c in cec::miter_cnf(&miter).clauses() {
        *available.entry(sorted_dimacs(c)).or_insert(0) += 1;
    }
    for (_, step) in proof.iter() {
        if !step.is_original() {
            continue;
        }
        match available.get_mut(&sorted_dimacs(step.clause)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => return Err("proof starts from a clause outside the miter".to_string()),
        }
    }
    Ok(())
}

fn sorted_dimacs(clause: &[cnf::Lit]) -> Vec<i32> {
    let mut k: Vec<i32> = clause.iter().map(|l| l.to_dimacs()).collect();
    k.sort_unstable();
    k
}

/// A counterexample certifies `a ≢ b` when re-simulation on both
/// circuits gives different outputs.
fn certify_pattern(a: &Aig, b: &Aig, pattern: &[bool]) -> Result<(), String> {
    if pattern.len() != a.num_inputs() {
        return Err("counterexample has the wrong width".to_string());
    }
    if a.evaluate(pattern) == b.evaluate(pattern) {
        return Err("counterexample does not separate the circuits".to_string());
    }
    Ok(())
}
