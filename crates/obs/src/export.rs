//! Trace exporters: JSONL event journal and Chrome `trace_event` JSON.
//!
//! Both operate on the events drained from a [`Recorder`](crate::Recorder)
//! via [`Recorder::take_events`](crate::Recorder::take_events):
//!
//! - [`write_jsonl`] emits one JSON object per line — a grep/`jq`
//!   friendly journal of everything that happened, in start order.
//! - [`write_chrome_trace`] emits the Chrome `trace_event` array
//!   format (`[{"ph":"X",…},…]`), loadable in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev). Each logical thread id gets a
//!   `thread_name` metadata record (`coordinator` for
//!   [`TID_COORDINATOR`], `worker N` for tid N + 1), so each renders as
//!   its own timeline row.

use crate::json::{write_escaped, Value};
use crate::{ArgVal, Event, EventKind, TID_COORDINATOR};
use std::fmt::Write as _;
use std::io::{self, Write};

fn arg_value(v: ArgVal) -> Value {
    match v {
        ArgVal::U64(v) => Value::U64(v),
        ArgVal::I64(v) => Value::I64(v),
        ArgVal::Str(s) => Value::str(s),
    }
}

fn args_object(args: &[(&'static str, ArgVal)]) -> Value {
    Value::Object(
        args.iter()
            .map(|&(k, v)| (k.to_string(), arg_value(v)))
            .collect(),
    )
}

/// Writes the event journal as JSON Lines: one object per event, e.g.
/// `{"ts_us":12,"dur_us":340,"tid":1,"kind":"span","name":"sat_call","args":{…}}`.
/// Instants carry `"kind":"instant"` and no `dur_us` member.
pub fn write_jsonl(events: &[Event], out: &mut impl Write) -> io::Result<()> {
    let mut line = String::new();
    for e in events {
        line.clear();
        let _ = write!(line, "{{\"ts_us\":{}", e.ts_us);
        if e.kind == EventKind::Span {
            let _ = write!(line, ",\"dur_us\":{}", e.dur_us);
        }
        let _ = write!(
            line,
            ",\"tid\":{},\"kind\":\"{}\",\"name\":",
            e.tid,
            match e.kind {
                EventKind::Span => "span",
                EventKind::Instant => "instant",
            }
        );
        let _ = write_escaped(&mut line, e.name);
        if !e.args.is_empty() {
            let _ = write!(line, ",\"args\":{}", args_object(&e.args));
        }
        line.push('}');
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Human-readable name for a logical thread id.
fn thread_name(tid: u32) -> String {
    if tid == TID_COORDINATOR {
        "coordinator".to_string()
    } else {
        format!("worker {}", tid - 1)
    }
}

/// Writes a Chrome `trace_event`-format document: a JSON array of
/// `thread_name` metadata records (one per logical thread, so Perfetto
/// labels the timeline rows) followed by `"ph":"X"` complete events for
/// spans and `"ph":"i"` instants, timestamps in microseconds.
pub fn write_chrome_trace(events: &[Event], out: &mut impl Write) -> io::Result<()> {
    let mut records: Vec<Value> = Vec::new();

    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    records.push(Value::Object(vec![
        ("name".to_string(), Value::str("process_name")),
        ("ph".to_string(), Value::str("M")),
        ("pid".to_string(), Value::U64(1)),
        ("tid".to_string(), Value::U64(0)),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::str("cec"))]),
        ),
    ]));
    for &tid in &tids {
        records.push(Value::Object(vec![
            ("name".to_string(), Value::str("thread_name")),
            ("ph".to_string(), Value::str("M")),
            ("pid".to_string(), Value::U64(1)),
            ("tid".to_string(), Value::U64(u64::from(tid))),
            (
                "args".to_string(),
                Value::Object(vec![("name".to_string(), Value::Str(thread_name(tid)))]),
            ),
        ]));
    }

    for e in events {
        let mut members = vec![
            ("name".to_string(), Value::str(e.name)),
            (
                "ph".to_string(),
                Value::str(match e.kind {
                    EventKind::Span => "X",
                    EventKind::Instant => "i",
                }),
            ),
            ("pid".to_string(), Value::U64(1)),
            ("tid".to_string(), Value::U64(u64::from(e.tid))),
            ("ts".to_string(), Value::U64(e.ts_us)),
        ];
        match e.kind {
            EventKind::Span => members.push(("dur".to_string(), Value::U64(e.dur_us))),
            // Thread-scoped instant marker.
            EventKind::Instant => members.push(("s".to_string(), Value::str("t"))),
        }
        if !e.args.is_empty() {
            members.push(("args".to_string(), args_object(&e.args)));
        }
        records.push(Value::Object(members));
    }

    writeln!(out, "{}", Value::Array(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::Recorder;

    fn sample_events() -> Vec<Event> {
        let rec = Recorder::new();
        {
            let mut s = rec.span("sat_call", 1);
            s.arg("conflicts", 17u64);
            s.arg("verdict", "unsat");
        }
        rec.instant("restart", TID_COORDINATOR, &[("count", ArgVal::U64(2))]);
        rec.take_events()
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            parse(line).expect("each line parses");
        }
        let span = parse(lines[0]).unwrap();
        assert_eq!(span.get("kind").and_then(Value::as_str), Some("span"));
        assert_eq!(span.get("name").and_then(Value::as_str), Some("sat_call"));
        assert_eq!(span.get("tid").and_then(Value::as_u64), Some(1));
        assert!(span.get("dur_us").is_some());
        let args = span.get("args").unwrap();
        assert_eq!(args.get("conflicts").and_then(Value::as_u64), Some(17));
        assert_eq!(args.get("verdict").and_then(Value::as_str), Some("unsat"));
        let instant = parse(lines[1]).unwrap();
        assert_eq!(instant.get("kind").and_then(Value::as_str), Some("instant"));
        assert!(instant.get("dur_us").is_none());
    }

    #[test]
    fn chrome_trace_is_an_array_with_thread_names() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_chrome_trace(&events, &mut buf).unwrap();
        let doc = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let records = doc.as_array().expect("top level array");
        // process_name + 2 thread_name metadata + 2 events.
        assert_eq!(records.len(), 5);
        let names: Vec<&str> = records
            .iter()
            .filter(|r| r.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|r| r.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["cec", "coordinator", "worker 0"]);
        let span = records
            .iter()
            .find(|r| r.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one complete event");
        assert_eq!(span.get("name").and_then(Value::as_str), Some("sat_call"));
        assert!(span.get("dur").is_some());
        assert!(span.get("ts").is_some());
        let instant = records
            .iter()
            .find(|r| r.get("ph").and_then(Value::as_str) == Some("i"))
            .expect("one instant");
        assert_eq!(instant.get("s").and_then(Value::as_str), Some("t"));
    }

    #[test]
    fn empty_event_list_still_produces_valid_artifacts() {
        let mut buf = Vec::new();
        write_jsonl(&[], &mut buf).unwrap();
        assert!(buf.is_empty());
        buf.clear();
        write_chrome_trace(&[], &mut buf).unwrap();
        let doc = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        // Just the process_name metadata record.
        assert_eq!(doc.as_array().map(<[Value]>::len), Some(1));
    }
}
