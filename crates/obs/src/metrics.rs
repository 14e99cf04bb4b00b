//! Live metrics: a sharded registry of named counters, gauges, and
//! histograms, plus a background sampler that turns the registry into a
//! `metrics-v1` JSONL time series.
//!
//! Where [`crate::Recorder`] answers *what happened* after a run (a
//! complete event journal, exported post-mortem), this module answers
//! *what is happening now*: instrumented code updates cheap shared
//! handles, and anyone holding the same [`Metrics`] registry — a
//! background [`Sampler`] thread, a load driver between ramp steps, a
//! future service endpoint — can take a consistent named snapshot at any
//! moment while the engine keeps running.
//!
//! The cost contract matches the recorder exactly:
//!
//! - A [`Metrics::disabled`] registry (the default everywhere) hands out
//!   disconnected handles whose update methods cost a single branch on
//!   an `Option` — no allocation, no atomics, no clock read.
//! - On an enabled registry, [`Counter`] and [`Gauge`] updates are one
//!   relaxed atomic op on a pre-resolved `Arc`; [`Histogram::record`]
//!   takes one uncontended mutex. Name resolution (the only hashing)
//!   happens once, at registration.
//!
//! # Sharding
//!
//! The name → metric map is split over [`SHARDS`] independently locked
//! shards keyed by FNV-1a of the name, so concurrent registration from
//! many worker threads does not serialize on one lock. Updates never
//! touch the shard locks at all — they go through the `Arc`ed cells.
//!
//! # Snapshots and `metrics-v1`
//!
//! [`Metrics::snapshot`] renders the whole registry as one JSON object
//! (schema `metrics-v1`), with metrics of every kind sorted by name so
//! the document is deterministic regardless of registration and shard
//! order. [`Sampler::start`] spawns a thread writing one snapshot per
//! period as a JSON line; [`Sampler::stop`] joins it — no leaked
//! threads, and a final snapshot is always written so even sub-period
//! runs produce a record.
//!
//! Timestamps come from the registry's clock: real (`Instant`-based) by
//! default, or a caller-driven [`FakeClock`] so tests can assert
//! byte-identical snapshots.
//!
//! # Example
//!
//! ```
//! use obs::metrics::Metrics;
//!
//! let (metrics, clock) = Metrics::with_fake_clock();
//! let checks = metrics.counter("cec.checks_completed");
//! let depth = metrics.gauge("cec.queue.depth");
//! let lat = metrics.histogram("rbench.latency_us");
//! checks.inc();
//! depth.set(3);
//! lat.record(250);
//! clock.advance_us(1_000);
//! let snap = metrics.snapshot(0).unwrap();
//! assert_eq!(snap.get("schema").and_then(obs::json::Value::as_str), Some("metrics-v1"));
//! assert_eq!(snap.get("ts_us").and_then(obs::json::Value::as_u64), Some(1_000));
//! ```

use crate::json::Value;
use crate::LogHistogram;
use std::io::{self, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Number of independently locked name-map shards.
pub const SHARDS: usize = 8;

/// Schema tag stamped on every snapshot object.
pub const SCHEMA: &str = "metrics-v1";

/// One registered metric cell.
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Mutex<LogHistogram>>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

/// One shard of the registry: an insertion-ordered name → cell list
/// (registries hold tens of metrics, not thousands — a `Vec` scan at
/// registration time beats a map's constant factors).
#[derive(Default)]
struct Shard {
    cells: Mutex<Vec<(String, Cell)>>,
}

/// The registry's time source: microseconds since registry creation.
enum Clock {
    Real(Instant),
    Fake(Arc<AtomicU64>),
}

impl Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Real(start) => u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
            Clock::Fake(us) => us.load(Ordering::Relaxed),
        }
    }
}

struct Inner {
    shards: [Shard; SHARDS],
    clock: Clock,
}

/// A driver handle for a registry created with
/// [`Metrics::with_fake_clock`]: snapshot timestamps advance only when
/// the test says so, making snapshots byte-reproducible.
#[derive(Clone)]
pub struct FakeClock(Arc<AtomicU64>);

impl FakeClock {
    /// Advances the registry's notion of now by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.0.fetch_add(us, Ordering::Relaxed);
    }
}

/// A cheap cloneable handle to a shared metrics registry.
///
/// All methods are no-ops returning disconnected handles on a
/// [`Metrics::disabled`] registry, so instrumented code can register and
/// update unconditionally.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => {
                let n: usize = inner
                    .shards
                    .iter()
                    .map(|s| s.cells.lock().map_or(0, |c| c.len()))
                    .sum();
                write!(f, "Metrics(enabled, {n} metrics)")
            }
            None => write!(f, "Metrics(disabled)"),
        }
    }
}

/// FNV-1a 64 over the metric name, for shard selection.
fn shard_of(name: &str) -> usize {
    (crate::hash::fnv1a64(name.as_bytes()) % SHARDS as u64) as usize
}

impl Metrics {
    /// Creates an *enabled* registry with a real clock; time zero is now.
    pub fn new() -> Self {
        Metrics {
            inner: Some(Arc::new(Inner {
                shards: Default::default(),
                clock: Clock::Real(Instant::now()),
            })),
        }
    }

    /// An enabled registry whose snapshot timestamps are driven by the
    /// returned [`FakeClock`] instead of the wall clock.
    pub fn with_fake_clock() -> (Self, FakeClock) {
        let us = Arc::new(AtomicU64::new(0));
        let metrics = Metrics {
            inner: Some(Arc::new(Inner {
                shards: Default::default(),
                clock: Clock::Fake(Arc::clone(&us)),
            })),
        };
        (metrics, FakeClock(us))
    }

    /// The default, free registry: hands out disconnected handles.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// Whether this registry records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Finds or creates the cell `name`, using `make` for a miss.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind — a
    /// programming error in the instrumented code, reported eagerly.
    fn resolve<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Cell,
        get: impl Fn(&Cell) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let mut cells = inner.shards[shard_of(name)]
            .cells
            .lock()
            .expect("metrics shard");
        if let Some((_, cell)) = cells.iter().find(|(n, _)| n == name) {
            let got = get(cell);
            assert!(
                got.is_some(),
                "metric `{name}` already registered as a {}",
                cell.kind()
            );
            return got;
        }
        let cell = make();
        let got = get(&cell);
        cells.push((name.to_string(), cell));
        got
    }

    /// Registers (or re-resolves) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.resolve(
            name,
            || Cell::Counter(Arc::new(AtomicU64::new(0))),
            |c| match c {
                Cell::Counter(v) => Some(Arc::clone(v)),
                _ => None,
            },
        ))
    }

    /// Registers (or re-resolves) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.resolve(
            name,
            || Cell::Gauge(Arc::new(AtomicI64::new(0))),
            |c| match c {
                Cell::Gauge(v) => Some(Arc::clone(v)),
                _ => None,
            },
        ))
    }

    /// Registers (or re-resolves) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.resolve(
            name,
            || Cell::Histogram(Arc::new(Mutex::new(LogHistogram::default()))),
            |c| match c {
                Cell::Histogram(v) => Some(Arc::clone(v)),
                _ => None,
            },
        ))
    }

    /// One consistent named snapshot of the whole registry as a
    /// `metrics-v1` JSON object, or `None` when disabled.
    ///
    /// Members: `schema`, `seq` (caller-supplied), `ts_us` (registry
    /// clock), `rss_bytes` (present when the platform exposes it), and
    /// `counters` / `gauges` / `hists` objects sorted by metric name —
    /// deterministic regardless of registration or shard order.
    pub fn snapshot(&self, seq: u64) -> Option<Value> {
        let inner = self.inner.as_ref()?;
        let mut counters: Vec<(String, Value)> = Vec::new();
        let mut gauges: Vec<(String, Value)> = Vec::new();
        let mut hists: Vec<(String, Value)> = Vec::new();
        for shard in &inner.shards {
            let cells = shard.cells.lock().expect("metrics shard");
            for (name, cell) in cells.iter() {
                match cell {
                    Cell::Counter(v) => {
                        counters.push((name.clone(), Value::U64(v.load(Ordering::Relaxed))));
                    }
                    Cell::Gauge(v) => {
                        gauges.push((name.clone(), Value::I64(v.load(Ordering::Relaxed))));
                    }
                    Cell::Histogram(h) => {
                        hists.push((name.clone(), h.lock().expect("metrics histogram").to_json()));
                    }
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let mut members = vec![
            ("schema".to_string(), Value::str(SCHEMA)),
            ("seq".to_string(), Value::U64(seq)),
            ("ts_us".to_string(), Value::U64(inner.clock.now_us())),
        ];
        if let Some(rss) = process_rss_bytes() {
            members.push(("rss_bytes".to_string(), Value::U64(rss)));
        }
        members.push(("counters".to_string(), Value::Object(counters)));
        members.push(("gauges".to_string(), Value::Object(gauges)));
        members.push(("hists".to_string(), Value::Object(hists)));
        Some(Value::Object(members))
    }
}

/// A monotonically increasing counter handle. Free when disconnected.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disconnected).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A point-in-time signed gauge handle. Free when disconnected.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disconnected).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A log-scale histogram handle (see [`LogHistogram`]). One uncontended
/// mutex per record; free when disconnected.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<Mutex<LogHistogram>>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().expect("metrics histogram").record(v);
        }
    }

    /// A copy of the current distribution (empty when disconnected).
    pub fn load(&self) -> LogHistogram {
        self.0.as_ref().map_or_else(LogHistogram::default, |h| {
            *h.lock().expect("metrics histogram")
        })
    }
}

/// Publishes counts kept elsewhere, such as a run's stats struct, as
/// registry counters. Each cell remembers the count it last published,
/// so [`Mirror::publish`] adds only the growth since then, and many
/// mirrors can feed one shared counter. On a disabled registry the
/// mirror holds no cells and publishing does nothing.
#[derive(Debug, Default)]
pub struct Mirror {
    cells: Vec<(Counter, u64)>,
}

impl Mirror {
    /// Appends one cell per name, registered on `metrics`. A disabled
    /// registry adds none and never evaluates `names`.
    pub fn register<S: AsRef<str>>(
        &mut self,
        metrics: &Metrics,
        names: impl IntoIterator<Item = S>,
    ) {
        if metrics.is_enabled() {
            let cells = names.into_iter().map(|n| (metrics.counter(n.as_ref()), 0));
            self.cells.extend(cells);
        }
    }

    /// Adds each count's growth since the last publish to its cell.
    /// `counts` come in registration order and never shrink.
    pub fn publish(&mut self, counts: impl IntoIterator<Item = u64>) {
        for ((counter, last), count) in self.cells.iter_mut().zip(counts) {
            if count != *last {
                counter.add(count - *last);
                *last = count;
            }
        }
    }
}

/// Resident set size of the current process in bytes, when the platform
/// exposes it (`/proc/self/statm` on Linux); `None` elsewhere.
pub fn process_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        Some(pages * 4096)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Shared state between a [`Sampler`] and its background thread.
struct SamplerShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// How a [`Sampler`] renders each tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SampleFormat {
    /// One `metrics-v1` JSON object per line — the machine-readable
    /// time series.
    #[default]
    Jsonl,
    /// One compact `key=value` status line per line — human-readable
    /// under `tail -f` while the process runs. Counters and gauges
    /// only (histograms don't fit on a line); same name order as the
    /// JSON snapshot.
    Status,
}

/// Renders a snapshot (as produced by [`Metrics::snapshot`]) as one
/// `key=value` status line: `seq` and `ts_us` first, then every counter
/// and gauge in name order.
pub fn status_line(snapshot: &Value) -> String {
    let mut out = String::new();
    let mut push = |k: &str, v: &Value| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
    };
    for k in ["seq", "ts_us", "rss_bytes"] {
        if let Some(v) = snapshot.get(k) {
            push(k, v);
        }
    }
    for section in ["counters", "gauges"] {
        if let Some(members) = snapshot.get(section).and_then(Value::as_object) {
            for (name, v) in members {
                push(name, v);
            }
        }
    }
    out
}

/// A background thread emitting one `metrics-v1` snapshot line per
/// period. Created by [`Sampler::start`]; joined (never leaked) by
/// [`Sampler::stop`] or on drop.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<std::thread::JoinHandle<io::Result<u64>>>,
}

impl Sampler {
    /// Spawns the sampler thread: every `period` it writes the current
    /// snapshot of `metrics` to `out` as one JSON line. A final snapshot
    /// is written when the sampler is stopped, so even runs shorter than
    /// one period produce at least one record.
    pub fn start(metrics: Metrics, period: Duration, out: impl Write + Send + 'static) -> Self {
        Sampler::start_with(metrics, period, out, SampleFormat::Jsonl)
    }

    /// [`Sampler::start`] with an explicit per-tick rendering; see
    /// [`SampleFormat`]. `Status` gives a `tail -f`-able line stream
    /// alongside (or instead of) the JSONL file.
    pub fn start_with(
        metrics: Metrics,
        period: Duration,
        mut out: impl Write + Send + 'static,
        format: SampleFormat,
    ) -> Self {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || -> io::Result<u64> {
            let mut seq = 0u64;
            let write_one = |seq: u64, out: &mut dyn Write| -> io::Result<()> {
                if let Some(snap) = metrics.snapshot(seq) {
                    match format {
                        SampleFormat::Jsonl => writeln!(out, "{snap}")?,
                        SampleFormat::Status => {
                            writeln!(out, "{}", status_line(&snap))?;
                            out.flush()?;
                        }
                    }
                }
                Ok(())
            };
            let mut stopped = thread_shared.stop.lock().expect("sampler flag");
            loop {
                if *stopped {
                    break;
                }
                let (guard, timeout) = thread_shared
                    .wake
                    .wait_timeout(stopped, period)
                    .expect("sampler flag");
                stopped = guard;
                if *stopped {
                    break;
                }
                if timeout.timed_out() {
                    write_one(seq, &mut out)?;
                    seq += 1;
                }
            }
            drop(stopped);
            // Final snapshot: the end-of-run state always lands.
            write_one(seq, &mut out)?;
            out.flush()?;
            Ok(seq + 1)
        });
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Stops and joins the sampler thread, returning how many snapshot
    /// lines it wrote.
    ///
    /// # Errors
    ///
    /// Forwards the thread's last write error, if any.
    pub fn stop(mut self) -> io::Result<u64> {
        self.signal();
        match self.handle.take().expect("sampler joined once").join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("sampler thread panicked")),
        }
    }

    fn signal(&self) {
        *self.shared.stop.lock().expect("sampler flag") = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.signal();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_registry_hands_out_free_handles() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        let c = m.counter("x");
        let g = m.gauge("y");
        let h = m.histogram("z");
        c.inc();
        g.set(5);
        h.record(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert!(h.load().is_empty());
        assert!(m.snapshot(0).is_none());
    }

    #[test]
    fn handles_share_cells_by_name() {
        let m = Metrics::new();
        let a = m.counter("cec.sat_calls");
        let b = m.counter("cec.sat_calls");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let g1 = m.gauge("depth");
        let g2 = m.gauge("depth");
        g1.add(2);
        g2.add(-1);
        assert_eq!(g1.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_is_reported_eagerly() {
        let m = Metrics::new();
        let _ = m.counter("same");
        let _ = m.gauge("same");
    }

    #[test]
    fn snapshot_is_sorted_and_parses() {
        let (m, clock) = Metrics::with_fake_clock();
        m.counter("b.count").inc();
        m.counter("a.count").add(7);
        m.gauge("q").set(-2);
        m.histogram("lat").record(100);
        clock.advance_us(42);
        let snap = m.snapshot(3).unwrap();
        let parsed = json::parse(&snap.to_string()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("metrics-v1")
        );
        assert_eq!(parsed.get("seq").and_then(Value::as_u64), Some(3));
        assert_eq!(parsed.get("ts_us").and_then(Value::as_u64), Some(42));
        let counters = parsed.get("counters").and_then(Value::as_object).unwrap();
        assert_eq!(counters[0].0, "a.count");
        assert_eq!(counters[1].0, "b.count");
        assert_eq!(
            parsed.get("gauges").and_then(|g| g.get("q")),
            Some(&Value::I64(-2))
        );
        assert_eq!(
            parsed
                .get("hists")
                .and_then(|h| h.get("lat"))
                .and_then(|l| l.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn status_line_is_one_compact_line() {
        let (m, clock) = Metrics::with_fake_clock();
        m.counter("cec.cache.hits").add(4);
        m.counter("cec.checks_completed").add(9);
        m.gauge("cec.queue.depth").set(-1);
        m.histogram("lat").record(5);
        clock.advance_us(42);
        let line = status_line(&m.snapshot(3).unwrap());
        assert!(!line.contains('\n'));
        assert!(line.starts_with("seq=3 ts_us=42"), "line: {line}");
        assert!(line.contains("cec.cache.hits=4"), "line: {line}");
        assert!(line.contains("cec.checks_completed=9"), "line: {line}");
        assert!(line.contains("cec.queue.depth=-1"), "line: {line}");
        assert!(!line.contains("lat"), "histograms stay off the line");
    }

    #[test]
    fn status_sampler_appends_parseable_lines() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let m = Metrics::new();
        m.counter("x").inc();
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sampler = Sampler::start_with(
            m.clone(),
            Duration::from_millis(5),
            SharedBuf(Arc::clone(&buf)),
            SampleFormat::Status,
        );
        std::thread::sleep(Duration::from_millis(30));
        let lines = sampler.stop().unwrap();
        assert!(lines >= 1, "at least the final snapshot");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        for line in text.lines() {
            assert!(line.contains("x=1"), "every tick reports x: {line}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_probe_reports_a_plausible_size() {
        let rss = process_rss_bytes().expect("linux exposes statm");
        assert!(rss > 64 * 1024, "rss {rss} implausibly small");
    }
}
