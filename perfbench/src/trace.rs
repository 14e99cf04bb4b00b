//! Spans recorded by the benchmark around each public call it makes, and
//! the self time of each layer computed from them.
//!
//! Every span carries three arguments: its own id (`span`), the id of
//! the span that caused it (`parent`, 0 for a root), and the id of the
//! request it belongs to (`req`). A span that times `reps` repetitions
//! of a call too short for the recorder's microsecond clock says so in a
//! fourth argument.

use obs::{ArgVal, Event, EventKind, Recorder, Span, TID_COORDINATOR};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

pub struct Tracer {
    rec: Recorder,
    next: Cell<u64>,
}

impl Tracer {
    /// An enabled tracer records; a disabled one costs a branch per span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            rec: if enabled {
                Recorder::new()
            } else {
                Recorder::disabled()
            },
            next: Cell::new(0),
        }
    }

    /// Opens a span; returns the guard and the span's id.
    pub fn span(&self, name: &'static str, req: u64, parent: u64) -> (Span, u64) {
        let id = self.next.get() + 1;
        self.next.set(id);
        let mut span = self.rec.span(name, TID_COORDINATOR);
        span.arg("span", id);
        span.arg("parent", parent);
        span.arg("req", req);
        (span, id)
    }

    /// A span around `reps` repetitions of one call.
    pub fn span_reps(&self, name: &'static str, req: u64, parent: u64, reps: u64) -> Span {
        let (mut span, _) = self.span(name, req, parent);
        span.arg("reps", reps);
        span
    }

    /// Drains the recorded spans.
    pub fn take(&self) -> Vec<Event> {
        self.rec.take_events()
    }
}

fn arg(e: &Event, key: &str) -> Option<u64> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgVal::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// Self time of one layer: its spans' durations minus the part their
/// child spans cover, per repetition.
pub struct SelfTime {
    pub spans: u64,
    pub mean_ms: f64,
}

/// Self time per span name.
pub fn self_times(events: &[Event]) -> BTreeMap<&'static str, SelfTime> {
    let spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for e in &spans {
        if let Some(parent) = arg(e, "parent").filter(|&p| p != 0) {
            *child_us.entry(parent).or_default() += e.dur_us;
        }
    }
    let mut sums: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for e in &spans {
        let children = arg(e, "span").and_then(|id| child_us.get(&id)).copied();
        let own_us = e.dur_us.saturating_sub(children.unwrap_or(0));
        let reps = arg(e, "reps").unwrap_or(1).max(1);
        let entry = sums.entry(e.name).or_default();
        entry.0 += 1;
        entry.1 += own_us as f64 / 1e3 / reps as f64;
    }
    sums.into_iter()
        .map(|(name, (n, total))| {
            (
                name,
                SelfTime {
                    spans: n,
                    mean_ms: total / n as f64,
                },
            )
        })
        .collect()
}
