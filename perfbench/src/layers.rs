//! The traced run: per-layer numbers for one workload.
//!
//! It times the workload's loop twice, untraced and then traced, so the
//! difference is the tracing overhead. A post-timing layer pass then
//! calls each layer's public function on the workload's distinct pairs,
//! inside spans, and the layer times are the spans' self times. Layer
//! times are means per call, so they add up: the `cec` phases plus
//! `cec.unattributed_ms` equal `cec.check_ms`, and `serve.server_ms`
//! plus `serve.wire_ms` equal `serve.round_trip_ms`. Those two sums hold
//! by definition; what can break is a sample whose phases add up to more
//! than its check time, or whose server time exceeds its round trip,
//! and every sample is checked for that.

use crate::gate::Gate;
use crate::pairs::{Pair, Workload};
use crate::report::{quantile, Report, Sheet};
use crate::run::{self, ms, Daemon, EngineSample, Prepared, ServeSample, Verdicts};
use crate::trace::{self, Tracer};
use cache::{CacheConfig, CachedVerdict, CanonicalPair, CertCache};
use cec::{CecOutcome, EngineConfig, Session, SharedContext};
use obs::json::Value;
use sat::{SolveResult, Solver};
use serve::Client;
use std::path::Path;
use std::time::Instant;

/// Conflict budget of the monolithic solves; pairs that need more are
/// left out of `sat.mono_*`.
const MONO_BUDGET: u64 = 20_000;

/// Request ids of the layer pass start here, clear of the timed loops'.
const LAYER_REQ: u64 = 1 << 32;

/// Sums over engine checks; divided by `checks` they give per-check
/// means, which (unlike medians) add up across phases.
#[derive(Default)]
struct EngineAcc {
    checks: u64,
    check_ms: f64,
    phases_ms: [f64; 5],
    propagations: u64,
    /// Checks whose phases add up to more than the check time.
    overlong: u64,
}

/// Slack for rounding when a part is compared with its whole, in ms.
const SUM_SLACK_MS: f64 = 1e-6;

impl EngineAcc {
    fn add(&mut self, check_ms: f64, e: &EngineSample) {
        if e.phases_ms.iter().sum::<f64>() > check_ms + SUM_SLACK_MS {
            self.overlong += 1;
        }
        self.checks += 1;
        self.check_ms += check_ms;
        for (sum, ph) in self.phases_ms.iter_mut().zip(e.phases_ms) {
            *sum += ph;
        }
        self.propagations += e.propagations;
    }
}

/// Exact counts over one pass of the distinct pairs.
#[derive(Default)]
struct Counts {
    sat_calls: u64,
    structural_merges: u64,
    lemmas: u64,
    conflicts: u64,
    propagations: u64,
    steps: u64,
    trimmed_steps: u64,
    tracecheck_bytes: u64,
}

/// Propagations and solve time of the monolithic solves, with and
/// without proof logging.
#[derive(Default)]
struct Mono {
    pairs: u64,
    props: [u64; 2],
    ms: [f64; 2],
}

pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
    trace_out: &Path,
) -> Result<Report, String> {
    let mut prepared = run::setup(workload, seed, gate)?;
    let untraced = run::timed_loop(&mut prepared, seconds / 2.0, 0, &Tracer::new(false), gate);
    let tracer = Tracer::new(true);
    let traced = run::timed_loop(&mut prepared, seconds / 2.0, 0, &tracer, gate);

    let mut engine = EngineAcc::default();
    let mut served: Vec<(f64, ServeSample)> = Vec::new();
    for s in &traced.samples {
        if let Some(e) = &s.engine {
            engine.add(s.ms, e);
        }
        if let Some(sv) = s.serve {
            served.push((s.ms, sv));
        }
    }

    let inputs = layer_inputs(&prepared);
    let mut failures: Vec<String> = untraced
        .failures
        .iter()
        .chain(&traced.failures)
        .cloned()
        .collect();
    let mut counts = Counts::default();
    let mut mono = Mono::default();
    let mut cache = CertCache::new(CacheConfig::default(), &obs::metrics::Metrics::disabled())
        .map_err(|e| e.to_string())?;
    let layer_engine = if workload == Workload::ServeReplay {
        Some(&mut engine)
    } else {
        None
    };
    layer_pass(
        &inputs,
        workload,
        &tracer,
        gate,
        &mut cache,
        &mut counts,
        &mut mono,
        layer_engine,
        &mut failures,
    );

    // The serve layer: the workload's own daemon, or one brought up for
    // the layer pass of a batch workload.
    let daemon = match prepared {
        Prepared::Serve { daemon, .. } => daemon,
        Prepared::Batch { .. } => {
            let d = Daemon::start()?;
            // Each pair twice: a miss, then a hit. The certificates are of
            // canonical pairs, so they are gated apart from the batch's.
            let mut v = Verdicts::starting_at(2 * LAYER_REQ);
            let mut canonical = Gate::default();
            for p in inputs.iter().flat_map(|p| [p, p]) {
                run::serve_verdict(p, &d.addr, &tracer, &mut canonical, &mut v);
            }
            failures.extend(v.failures);
            served.extend(
                v.samples
                    .iter()
                    .filter_map(|s| s.serve.map(|sv| (s.ms, sv))),
            );
            d
        }
    };
    let snapshot = daemon.metrics()?;
    let persistent_wire = persistent(&inputs, &daemon.addr, &tracer)?;
    daemon.stop()?;

    let events = tracer.take();
    let mut out = Vec::new();
    obs::export::write_chrome_trace(&events, &mut out).map_err(|e| e.to_string())?;
    std::fs::write(trace_out, out).map_err(|e| format!("{}: {e}", trace_out.display()))?;
    let selfs = trace::self_times(&events);

    let mut sheet = Sheet::default();
    // core: per-check means, which add up.
    let n = engine.checks.max(1) as f64;
    let check_ms = engine.check_ms / n;
    let phases: Vec<f64> = engine.phases_ms.iter().map(|p| p / n).collect();
    let unattributed = check_ms - phases.iter().sum::<f64>();
    sheet.put("cec.check_ms", check_ms, "ms", engine.checks);
    let phase_names = ["miter", "sim", "sweep", "final_solve", "trim"];
    for (name, v) in phase_names.iter().zip(&phases) {
        sheet.put(&format!("cec.{name}_ms"), *v, "ms", engine.checks);
    }
    sheet.put("cec.unattributed_ms", unattributed, "ms", engine.checks);
    // Exact counts over one pass of the distinct pairs.
    let pairs = inputs.len() as u64;
    for (name, value, unit) in [
        ("cec.sat_calls", counts.sat_calls, "count"),
        ("cec.structural_merges", counts.structural_merges, "count"),
        ("cec.lemmas", counts.lemmas, "count"),
        ("sat.conflicts", counts.conflicts, "count"),
        ("sat.propagations", counts.propagations, "count"),
        ("proof.steps", counts.steps, "count"),
        ("proof.trimmed_steps", counts.trimmed_steps, "count"),
        ("proof.tracecheck_bytes", counts.tracecheck_bytes, "bytes"),
    ] {
        sheet.put(name, value as f64, unit, pairs);
    }
    // sat rates
    let search_ms = engine.phases_ms[2] + engine.phases_ms[3];
    let rate = |props: u64, ms: f64| props as f64 / ms.max(f64::MIN_POSITIVE);
    sheet.put(
        "sat.props_per_ms",
        rate(engine.propagations, search_ms),
        "1/ms",
        engine.checks,
    );
    sheet.put(
        "sat.mono_props_per_ms",
        rate(mono.props[0], mono.ms[0]),
        "1/ms",
        mono.pairs,
    );
    sheet.put(
        "sat.mono_props_per_ms_noproof",
        rate(mono.props[1], mono.ms[1]),
        "1/ms",
        mono.pairs,
    );
    // Self times of the layer pass's spans.
    for span in [
        "proof.export",
        "proof.trim",
        "proof.import",
        "proof.replay",
        "aig.write",
        "aig.read",
        "cache.canon",
        "cache.lookup_hit",
        "cache.lookup_miss",
        "cache.insert",
    ] {
        let (mean_ms, spans) = selfs.get(span).map_or((0.0, 0), |s| (s.mean_ms, s.spans));
        sheet.put(&format!("{span}_ms"), mean_ms, "ms", spans);
    }
    // cache, from the daemon's `metrics` op
    let counter = |key: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("cec.cache.hits"), counter("cec.cache.misses"));
    let lookups = hits + misses;
    sheet.put(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups,
    );
    sheet.put("cache.lookups", lookups as f64, "count", lookups);
    let rejects = counter("cec.cache.replay_rejects") + cache.stats().replay_rejects;
    sheet.put("cache.replay_rejects", rejects as f64, "count", lookups);
    if rejects != 0 {
        failures.push(format!("{rejects} cache replay rejects"));
    }
    // serve: per-request means, which add up.
    let count = served.len() as u64;
    let mean = |f: &dyn Fn(&(f64, ServeSample)) -> f64| {
        served.iter().map(f).sum::<f64>() / served.len().max(1) as f64
    };
    let round_trip = mean(&|(rt, _)| *rt);
    let server = mean(&|(_, s)| s.server_ms);
    let wire = round_trip - server;
    sheet.put("serve.round_trip_ms", round_trip, "ms", count);
    sheet.put("serve.server_ms", server, "ms", count);
    sheet.put("serve.wire_ms", wire, "ms", count);
    let connect = selfs.get("serve.connect").map_or(0.0, |s| s.mean_ms);
    sheet.put("serve.connect_ms", connect, "ms", count);
    sheet.put(
        "serve.reply_bytes",
        mean(&|(_, s)| s.reply_bytes as f64),
        "bytes",
        count,
    );
    let (persistent_ms, sent) = persistent_wire;
    sheet.put("serve.persistent_wire_ms", persistent_ms, "ms", sent);
    // tracing overhead
    let p50 = |v: &Verdicts| {
        let mut t: Vec<f64> = v.samples.iter().map(|s| s.ms).collect();
        t.sort_by(f64::total_cmp);
        quantile(&t, 0.5)
    };
    let mut wall: Vec<f64> = untraced.samples.iter().map(|s| s.ms).collect();
    wall.sort_by(f64::total_cmp);
    let n_wall = wall.len() as u64;
    sheet.put(
        "wall.checks_per_s",
        wall.len() as f64 / untraced.timed_s(),
        "1/s",
        n_wall,
    );
    sheet.put("wall.verdict_ms_p95", quantile(&wall, 0.95), "ms", n_wall);
    let (off, on) = (p50(&untraced), p50(&traced));
    let (n_off, n_on) = (untraced.samples.len() as u64, traced.samples.len() as u64);
    sheet.put("trace.untraced_verdict_ms_p50", off, "ms", n_off);
    sheet.put("trace.traced_verdict_ms_p50", on, "ms", n_on);
    sheet.put("trace.overhead_ms", on - off, "ms", n_on);
    sheet.put(
        "trace.spans",
        events.len() as f64,
        "count",
        events.len() as u64,
    );

    println!(
        "sums: cec phases {:.4} + unattributed {unattributed:.4} = check {check_ms:.4} ms; \
         serve server {server:.4} + wire {wire:.4} = round trip {round_trip:.4} ms",
        phases.iter().sum::<f64>()
    );
    // No part may exceed its whole in any sample: that would show up as
    // a negative `cec.unattributed_ms` or `serve.wire_ms` share.
    let server_over = served
        .iter()
        .filter(|(rt, s)| s.server_ms > rt + SUM_SLACK_MS)
        .count();
    println!(
        "parts: {} of {} checks with phases over the check time, {server_over} of {count} \
         requests with server time over the round trip",
        engine.overlong, engine.checks
    );
    if engine.overlong > 0 {
        failures.push(format!(
            "{} checks report phases longer than the check",
            engine.overlong
        ));
    }
    if server_over > 0 {
        failures.push(format!(
            "{server_over} replies report a server time longer than the round trip"
        ));
    }

    Ok(Report {
        attempted: untraced.attempted + traced.attempted + inputs.len() as u64,
        failures,
        sheet,
    })
}

/// The distinct pairs the layer pass calls each layer on.
fn layer_inputs(prepared: &Prepared) -> Vec<Pair> {
    match prepared {
        Prepared::Batch { pairs } => distinct(pairs),
        Prepared::Serve { stream, .. } => distinct(stream),
    }
}

/// The first pair of each name.
fn distinct(pairs: &[Pair]) -> Vec<Pair> {
    let mut out: Vec<Pair> = Vec::new();
    for p in pairs {
        if out.iter().all(|q| q.name != p.name) {
            out.push(p.clone());
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn layer_pass(
    inputs: &[Pair],
    workload: Workload,
    tracer: &Tracer,
    gate: &mut Gate,
    cache: &mut CertCache,
    counts: &mut Counts,
    mono: &mut Mono,
    mut engine: Option<&mut EngineAcc>,
    failures: &mut Vec<String>,
) {
    let config = EngineConfig::default();
    let ctx = SharedContext::disabled();
    for (i, p) in inputs.iter().enumerate() {
        let req = LAYER_REQ + i as u64;
        let (_root, id) = tracer.span("layer.pair", req, 0);
        let reps = 8;
        let (mut text_a, mut text_b) = (Vec::new(), Vec::new());
        {
            let _s = tracer.span_reps("aig.write", req, id, reps);
            for _ in 0..reps {
                text_a.clear();
                text_b.clear();
                aig::aiger::write_ascii(&p.a, &mut text_a).expect("write to Vec cannot fail");
                aig::aiger::write_ascii(&p.b, &mut text_b).expect("write to Vec cannot fail");
            }
        }
        {
            let _s = tracer.span_reps("aig.read", req, id, reps);
            for _ in 0..reps {
                let a = aig::aiger::read(text_a.as_slice());
                let b = aig::aiger::read(text_b.as_slice());
                std::hint::black_box((a.ok(), b.ok()));
            }
        }
        let canon = {
            let _s = tracer.span("cache.canon", req, id);
            CanonicalPair::new(&p.a, &p.b)
        };
        // The daemon proves the canonical form; a batch caller the pair.
        let (a, b) = if workload == Workload::ServeReplay {
            (&canon.a, &canon.b)
        } else {
            (&p.a, &p.b)
        };
        let t0 = Instant::now();
        let result = {
            let _s = tracer.span("cec.check", req, id);
            Session::new(config.clone(), &ctx).check(a, b)
        };
        let check_ms = ms(t0.elapsed());
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{}: {e}", p.name));
                continue;
            }
        };
        let checked = run::certify_outcome(a, b, p.equivalent, &outcome)
            .and_then(|()| gate.verdict(&p.name, &outcome));
        if let Err(e) = checked {
            failures.push(format!("{}: {e}", p.name));
            continue;
        }
        let stats = outcome.stats();
        if let Some(acc) = engine.as_deref_mut() {
            acc.add(check_ms, &run::engine_sample(stats));
        }
        counts.sat_calls += stats.sat_calls;
        counts.structural_merges += stats.structural_merges;
        counts.lemmas += stats.lemmas;
        counts.conflicts += stats.solver.conflicts;
        counts.propagations += stats.solver.propagations;
        let verdict = match &outcome {
            CecOutcome::Equivalent(cert) => {
                let proof = cert.proof.as_ref().expect("certified above");
                counts.steps += proof.len() as u64;
                let bytes = {
                    let _s = tracer.span("proof.export", req, id);
                    let mut bytes = Vec::new();
                    proof::export::write_tracecheck(proof, &mut bytes)
                        .expect("write to Vec cannot fail");
                    bytes
                };
                counts.tracecheck_bytes += bytes.len() as u64;
                let imported = {
                    let _s = tracer.span("proof.import", req, id);
                    proof::import::read_tracecheck(bytes.as_slice())
                };
                match imported {
                    Ok(q) => {
                        let _s = tracer.span("proof.replay", req, id);
                        if let Err(e) = proof::check::check_refutation(&q) {
                            failures.push(format!("{}: re-imported proof rejected: {e}", p.name));
                        }
                    }
                    Err(e) => failures.push(format!("{}: proof does not re-import: {e}", p.name)),
                }
                let trimmed = {
                    let _s = tracer.span("proof.trim", req, id);
                    proof::trim_refutation(proof)
                };
                counts.trimmed_steps += trimmed.proof.len() as u64;
                CachedVerdict::Equivalent { tracecheck: bytes }
            }
            CecOutcome::Inequivalent { counterexample, .. } => CachedVerdict::Inequivalent {
                pattern: counterexample.pattern.clone(),
            },
        };
        // The cache holds certificates of canonical pairs, which is what
        // a batch workload's engine run did not prove.
        let verdict = match verdict {
            CachedVerdict::Equivalent { .. } if workload != Workload::ServeReplay => {
                match canonical_certificate(&canon, &config, &ctx) {
                    Ok(v) => v,
                    Err(e) => {
                        failures.push(format!("{}: {e}", p.name));
                        continue;
                    }
                }
            }
            v => v,
        };
        let reps = 64;
        {
            let _s = tracer.span_reps("cache.lookup_miss", req, id, reps);
            for _ in 0..reps {
                if cache.lookup(&canon).is_some() {
                    failures.push(format!("{}: unexpected cache hit", p.name));
                }
            }
        }
        let reps = 16;
        {
            let _s = tracer.span_reps("cache.insert", req, id, reps);
            for _ in 0..reps {
                cache.insert(&canon, verdict.clone());
            }
        }
        {
            let _s = tracer.span("cache.lookup_hit", req, id);
            if cache.lookup(&canon).is_none() {
                failures.push(format!("{}: cached verdict not served", p.name));
            }
        }
        if let Some((with, without)) = mono_pair(p, tracer, req, id) {
            mono.pairs += 1;
            for (k, (props, t)) in [with, without].into_iter().enumerate() {
                mono.props[k] += props;
                mono.ms[k] += t;
            }
        }
    }
}

/// The certificate the daemon would cache for `canon`.
fn canonical_certificate(
    canon: &CanonicalPair,
    config: &EngineConfig,
    ctx: &SharedContext,
) -> Result<CachedVerdict, String> {
    let outcome = Session::new(config.clone(), ctx)
        .check(&canon.a, &canon.b)
        .map_err(|e| e.to_string())?;
    let proof = outcome
        .certificate()
        .and_then(|c| c.proof.as_ref())
        .ok_or("canonical pair not proven equivalent")?;
    let mut tracecheck = Vec::new();
    proof::export::write_tracecheck(proof, &mut tracecheck).map_err(|e| e.to_string())?;
    Ok(CachedVerdict::Equivalent { tracecheck })
}

/// Monolithic solves of the pair's miter CNF with and without proof
/// logging; `None` unless both finish within [`MONO_BUDGET`].
fn mono_pair(p: &Pair, tracer: &Tracer, req: u64, parent: u64) -> Option<((u64, f64), (u64, f64))> {
    let miter = cec::Miter::build(&p.a, &p.b, EngineConfig::default().share_structure);
    let formula = cec::miter_cnf(&miter);
    let solve = |proof: bool, name: &'static str| {
        let mut s = if proof {
            Solver::with_proof()
        } else {
            Solver::new()
        };
        s.ensure_vars(formula.num_vars());
        for c in formula.clauses() {
            s.add_clause(c);
        }
        s.set_conflict_budget(Some(MONO_BUDGET));
        let _span = tracer.span(name, req, parent);
        let t0 = Instant::now();
        let r = s.solve();
        let t = ms(t0.elapsed());
        (r != SolveResult::Unknown).then(|| (s.stats().propagations, t))
    };
    let with = solve(true, "sat.mono_proof")?;
    let without = solve(false, "sat.mono_noproof")?;
    Some((with, without))
}

/// Mean wire time (round trip minus server time) of the layer pass's
/// queries over one long-lived connection, and how many were sent.
fn persistent(inputs: &[Pair], addr: &str, tracer: &Tracer) -> Result<(f64, u64), String> {
    let mut client = Client::connect(addr)?;
    let mut wire = 0.0;
    for (i, p) in inputs.iter().enumerate() {
        let (_s, _) = tracer.span("serve.persistent", 3 * LAYER_REQ + i as u64, 0);
        let t0 = Instant::now();
        let reply = client.check(&p.a, &p.b)?;
        wire += ms(t0.elapsed()) - reply.elapsed_us as f64 / 1e3;
        run::certify_reply(p, &reply).map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok((wire / inputs.len().max(1) as f64, inputs.len() as u64))
}
