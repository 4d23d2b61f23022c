//! Chrome `trace_event` export (and re-import, for validation).
//!
//! The exporter emits the JSON Object Format understood by
//! `chrome://tracing` and Perfetto: one complete (`"ph":"X"`) event
//! per span, `ts`/`dur` in microseconds, `pid` fixed at 1, `tid` = the
//! span's layer (as a stable index, so each layer gets its own track),
//! and span/parent/trace identities in `args`. Everything is
//! deterministically ordered (span-id order; layer index from the
//! sorted layer set), so two same-seed runs export byte-identical
//! documents.

use crate::json::{parse_json, JsonValue};
use crate::span::Trace;
use std::fmt::Write as _;

/// Formats virtual nanoseconds as microseconds with 3 decimals — the
/// unit Chrome's `ts`/`dur` fields expect — without going through
/// floating point (exact for all of `u64`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders a [`Trace`] as a Chrome `trace_event` JSON document.
///
/// Load the output in `chrome://tracing` or Perfetto; each layer is a
/// thread track, each span a complete event carrying its span id,
/// parent span id and trace id (hex) in `args`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut layers: Vec<&str> = trace.spans.iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let tid_of = |layer: &str| layers.iter().position(|l| *l == layer).unwrap() + 1;

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    // Name each layer track.
    for (i, layer) in layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"",
            i + 1
        );
        escape(layer, &mut out);
        out.push_str("\"}}");
    }
    for s in &trace.spans {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape(&s.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape(s.layer, &mut out);
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{}",
            us(s.start_ns),
            us(s.duration_ns()),
            tid_of(s.layer),
            s.id.0
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{}", p.0);
        }
        if let Some(t) = s.trace {
            let _ = write!(out, ",\"trace\":\"{:#x}\"", t.0);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// One event read back from an exported Chrome trace (metadata events
/// are skipped).
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name (span name).
    pub name: String,
    /// Category (the layer).
    pub cat: String,
    /// Start, microseconds.
    pub ts: f64,
    /// Duration, microseconds.
    pub dur: f64,
    /// Thread id (layer track).
    pub tid: u64,
    /// Span id from `args.span`.
    pub span: u64,
    /// Parent span id from `args.parent`, if present.
    pub parent: Option<u64>,
    /// Trace id from `args.trace` (hex string decoded), if present.
    pub trace: Option<u64>,
}

/// Parses a Chrome `trace_event` JSON document back into its complete
/// events — the validation path CI uses to prove an exported trace is
/// well-formed without external tooling.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("chrome trace: missing traceEvents array")?;
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("chrome trace: event {i} missing ph"))?;
        if ph != "X" {
            continue; // metadata
        }
        let field = |k: &str| {
            ev.get(k)
                .ok_or_else(|| format!("chrome trace: event {i} missing {k}"))
        };
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("chrome trace: event {i} field {k} not a number"))
        };
        let args = field("args")?;
        let span = args
            .get("span")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("chrome trace: event {i} missing args.span"))?
            as u64;
        let parent = args
            .get("parent")
            .and_then(JsonValue::as_f64)
            .map(|v| v as u64);
        let trace = match args.get("trace").and_then(JsonValue::as_str) {
            Some(hex) => Some(
                u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                    .map_err(|_| format!("chrome trace: event {i} bad args.trace"))?,
            ),
            None => None,
        };
        out.push(ChromeEvent {
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("chrome trace: event {i} name not a string"))?
                .to_string(),
            cat: field("cat")?
                .as_str()
                .ok_or_else(|| format!("chrome trace: event {i} cat not a string"))?
                .to_string(),
            ts: num("ts")?,
            dur: num("dur")?,
            tid: num("tid")? as u64,
            span,
            parent,
            trace,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Scope, TraceId};
    use std::cell::Cell;
    use std::rc::Rc;

    fn sample() -> Trace {
        let t = Rc::new(Cell::new(0));
        let t2 = t.clone();
        let s = Scope::enabled(move || t2.get());
        let a = s.open("kernel", "pass_commit");
        t.set(1_500);
        let b = s.open("dpapi", "dp_commit");
        s.bind_trace(TraceId((1 << 63) | 5));
        t.set(2_000);
        s.close(b);
        t.set(4_321);
        s.close(a);
        s.snapshot()
    }

    #[test]
    fn export_roundtrips_through_the_parser() {
        let trace = sample();
        let json = chrome_trace_json(&trace);
        let events = parse_chrome_trace(&json).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "pass_commit");
        assert_eq!(events[0].cat, "kernel");
        assert_eq!(events[0].span, 1);
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].cat, "dpapi");
        assert_eq!(events[1].parent, Some(1));
        assert_eq!(events[1].trace, Some((1 << 63) | 5));
        // µs formatting: 1500ns → 1.500µs, dur 4321ns → 4.321µs.
        assert_eq!(events[1].ts, 1.5);
        assert_eq!(events[0].dur, 4.321);
    }

    #[test]
    fn export_is_deterministic() {
        let trace = sample();
        assert_eq!(chrome_trace_json(&trace), chrome_trace_json(&trace));
    }

    #[test]
    fn layers_get_distinct_named_tracks() {
        let json = chrome_trace_json(&sample());
        let events = parse_chrome_trace(&json).unwrap();
        assert_ne!(events[0].tid, events[1].tid);
        // Track names present as metadata.
        assert!(json.contains("thread_name"));
        assert!(json.contains("\"kernel\""));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(parse_chrome_trace("not json").is_err());
    }

    #[test]
    fn empty_trace_exports_an_empty_event_list() {
        let json = chrome_trace_json(&Trace::default());
        let events = parse_chrome_trace(&json).unwrap();
        assert!(events.is_empty());
    }
}
