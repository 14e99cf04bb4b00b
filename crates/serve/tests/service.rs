//! End-to-end service tests: a real listener on a loopback port, real
//! client connections, repeated batches, and a cache-poisoning attack.

use aig::gen::{kogge_stone_adder, mutate, ripple_carry_adder};
use obs::json::Value;
use obs::metrics::Metrics;
use serve::protocol::MAX_REQUEST_BYTES;
use serve::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn loopback_config(metrics: &Metrics) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        metrics: metrics.clone(),
        ..ServerConfig::default()
    }
}

#[test]
fn repeated_batch_hits_cache_with_byte_identical_certificates() {
    let metrics = Metrics::new();
    let (addr, handle) = start(loopback_config(&metrics));
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");

    let a1 = ripple_carry_adder(5);
    let b1 = kogge_stone_adder(5);
    let a2 = ripple_carry_adder(4);
    let b2 = (0..40)
        .filter_map(|s| mutate(&a2, s))
        .find(|m| aig::sim::exhaustive_diff(&a2, m, 9).is_some())
        .expect("differing mutant");
    let pairs = [(&a1, &b1), (&a2, &b2)];

    let first = client.check_batch(&pairs).expect("first batch");
    let first: Vec<_> = first.into_iter().map(|r| r.expect("check ok")).collect();
    assert!(first[0].equivalent && first[0].certificate.is_some());
    assert!(!first[1].equivalent && first[1].pattern.is_some());
    assert!(first.iter().all(|r| !r.cache_hit), "cold cache");

    // Second pass: same pairs under fresh node numberings — every slot
    // must hit, and the equivalent slot's certificate must be the very
    // bytes the first pass produced.
    let a1p = a1.permute_rebuild(11);
    let b1p = b1.permute_rebuild(12);
    let a2p = a2.permute_rebuild(13);
    let b2p = b2.permute_rebuild(14);
    let second = client
        .check_batch(&[(&a1p, &b1p), (&a2p, &b2p)])
        .expect("second batch");
    let second: Vec<_> = second.into_iter().map(|r| r.expect("check ok")).collect();
    assert!(second.iter().all(|r| r.cache_hit), "warm cache hits");
    assert_eq!(second[0].certificate, first[0].certificate);
    assert_eq!(second[1].pattern, first[1].pattern);

    let snap = client.metrics().expect("metrics");
    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(counter("cec.cache.hits"), 2);
    assert_eq!(counter("cec.cache.misses"), 2);
    assert!(counter("serve.checks") >= 4);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn a_fresh_answer_carries_the_proof_a_local_check_writes() {
    // The daemon's engine knobs are a local check's: at the default
    // config it serves the proof `rcec` writes, that of `Session::check`
    // on the canonical pair.
    let (addr, handle) = start(loopback_config(&Metrics::disabled()));
    let mut client = Client::connect(&addr).expect("connect");
    let (a, b) = aig::gen::family_pair("adder", 12).expect("known family");
    let reply = client.check(&a, &b).expect("check");
    assert!(reply.equivalent && !reply.cache_hit);

    let pair = cache::CanonicalPair::new(&a, &b);
    let outcome = cec::Session::new(
        cec::EngineConfig::default(),
        &cec::SharedContext::disabled(),
    )
    .check(&pair.a, &pair.b)
    .expect("local check");
    let cert = outcome.certificate().expect("equivalent");
    let mut bytes = Vec::new();
    proof::export::write_tracecheck(cert.proof.as_ref().expect("proof on"), &mut bytes).unwrap();
    assert!(
        reply.certificate.as_deref().map(str::as_bytes) == Some(&bytes[..]),
        "the served certificate differs from the local proof"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn persistent_connection_round_trips_do_not_stall() {
    let (addr, handle) = start(loopback_config(&Metrics::disabled()));
    let mut client = Client::connect(&addr).expect("connect");
    let a = ripple_carry_adder(8);
    let b = kogge_stone_adder(8);
    assert!(!client.check(&a, &b).expect("cold check").cache_hit);
    // Each reply carries a certificate over 8 KiB, so it leaves the
    // server in several writes; with Nagle's algorithm on, every write
    // after the first waits for the client's delayed ACK (~40 ms).
    let mut times: Vec<Duration> = (0..11)
        .map(|_| {
            let start = Instant::now();
            assert!(client.check(&a, &b).expect("warm check").cache_hit);
            start.elapsed()
        })
        .collect();
    times.sort();
    assert!(
        times[5] < Duration::from_millis(20),
        "median round trip {:?} over one connection",
        times[5]
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn malformed_and_mismatched_queries_do_not_poison_the_connection() {
    let metrics = Metrics::disabled();
    let (addr, handle) = start(loopback_config(&metrics));
    let mut client = Client::connect(&addr).expect("connect");

    // A garbage circuit fails that check only.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&addr).expect("raw connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    w.write_all(b"\xff\xfe{\"op\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(
        line.contains("error"),
        "error reply to a non-UTF-8 line: {line}"
    );
    line.clear();
    writeln!(w, "this is not json").unwrap();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("error"), "error reply: {line}");
    line.clear();
    writeln!(w, r#"{{"op":"check","a":"garbage","b":"garbage"}}"#).unwrap();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("error"), "error reply: {line}");

    // The same connection still answers a well-formed query.
    let g = ripple_carry_adder(3);
    let reply = client.check(&g, &g).expect("self-check");
    assert!(reply.equivalent);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn over_long_request_line_gets_an_error_and_a_closed_connection() {
    let (addr, handle) = start(loopback_config(&Metrics::disabled()));
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&addr).expect("raw connect");
    // A server that keeps buffering never replies; fail instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    // One byte over the cap and no newline: the server must answer
    // without waiting for the end of the line.
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_REQUEST_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        w.write_all(&chunk[..n]).expect("send");
        left -= n;
    }
    let mut line = String::new();
    r.read_line(&mut line).expect("error reply");
    assert!(line.contains("error"), "error reply: {line}");
    line.clear();
    assert_eq!(r.read_line(&mut line).expect("read"), 0, "closed: {line}");

    // The server itself is unharmed.
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn poisoned_spill_entry_is_reproved_not_served() {
    let dir = std::env::temp_dir().join(format!("rcecd-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = Metrics::new();
    let mut config = loopback_config(&metrics);
    // Capacity 1 with a spill dir: the second insert evicts the first
    // verdict to disk, where we can corrupt it.
    config.cache.capacity = 1;
    config.cache.spill_dir = Some(dir.clone());
    let (addr, handle) = start(config);
    let mut client = Client::connect(&addr).expect("connect");

    let p1 = (ripple_carry_adder(4), kogge_stone_adder(4));
    let p2 = (ripple_carry_adder(5), kogge_stone_adder(5));
    let first = client.check(&p1.0, &p1.1).expect("prove p1");
    client.check(&p2.0, &p2.1).expect("prove p2 (evicts p1)");

    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(spilled.len(), 1, "p1's certificate on disk");
    let mut bytes = std::fs::read(&spilled[0]).expect("read spill");
    // Corrupt the certificate body (past the 3-byte "eq\n" header) so
    // the fault exercises replay validation rather than format parsing.
    let mut body = bytes.split_off(3);
    chaos::corrupt(&mut body, chaos::FaultMode::Flip, 0xDEAD);
    bytes.extend_from_slice(&body);
    std::fs::write(&spilled[0], &bytes).expect("write corrupted");

    // The corrupted entry must be rejected by replay and re-proved —
    // same verdict, same bytes, but NOT served from cache.
    let again = client.check(&p1.0, &p1.1).expect("re-check p1");
    assert!(!again.cache_hit, "poisoned entry must not be served");
    assert!(again.equivalent);
    assert_eq!(again.certificate, first.certificate);

    let snap = client.metrics().expect("metrics");
    let rejects = snap
        .get("counters")
        .and_then(|c| c.get("cec.cache.replay_rejects"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert_eq!(rejects, 1, "the corruption was observed and counted");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
