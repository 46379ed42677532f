//! Exporters of the span log: Chrome `trace_event` JSON and JSON-Lines.

use std::fmt::Write as _;

use crate::json::escape;
use crate::span::SpanEvent;

/// Renders spans as one Chrome `trace_event` document of complete
/// (`"ph": "X"`) events, loadable in `about:tracing` and Perfetto.
/// Every distinct `tid` gets an `"M"` `thread_name` metadata event so
/// trace viewers label the tracks: `tid` 1 is `"main"`, other tids are
/// `"thread {tid}"`.
pub(crate) fn render_chrome_trace(spans: &[SpanEvent]) -> String {
    let mut events: Vec<String> = Vec::new();
    // Thread-name metadata first: one "M" event per distinct track.
    let mut tids: Vec<u64> = spans.iter().map(|ev| ev.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if tid == 1 {
            "main".to_owned()
        } else {
            format!("thread {tid}")
        };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid,
            escape(&name)
        ));
    }
    for ev in spans {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
            escape(ev.name),
            ev.start_us,
            ev.dur_us,
            ev.tid,
            ev.depth
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", events.join(","))
}

/// Renders spans as one JSON object per line: a `phase` line per span
/// name (its count and total microseconds), then a `span` line per
/// event.
pub(crate) fn render_jsonl(spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    for p in crate::phase_totals_of(spans) {
        let _ = writeln!(
            out,
            "{{\"type\":\"phase\",\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
            escape(p.name),
            p.count,
            p.total.as_micros()
        );
    }
    for ev in spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"name\":\"{}\",\"tid\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{}}}",
            escape(ev.name),
            ev.tid,
            ev.depth,
            ev.start_us,
            ev.dur_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::json;
    use crate::SpanEvent;

    fn span(name: &'static str, tid: u64) -> SpanEvent {
        SpanEvent {
            name,
            tid,
            depth: 0,
            start_us: 0,
            dur_us: 100,
        }
    }

    /// With nothing recorded, the trace is a valid document with no
    /// events.
    #[test]
    fn chrome_trace_of_empty_registry_is_valid() {
        let doc = json::parse(&super::render_chrome_trace(&[])).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn chrome_trace_renders_thread_names() {
        let spans = [span("main_analysis", 1), span("main_analysis", 3), span("main_analysis", 3)];
        let doc = json::parse(&super::render_chrome_trace(&spans)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Two M (one per distinct tid), three span X.
        assert_eq!(events.len(), 5);
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, ["main", "thread 3"]);
    }

    #[test]
    fn jsonl_lines_parse_and_name_needs_escaping() {
        let dump = super::render_jsonl(&[span("weird \"name\"\n", 1), span("plain", 1)]);
        let kinds: Vec<String> = dump
            .lines()
            .map(|line| {
                let v = json::parse(line).unwrap();
                v.get("type").unwrap().as_str().unwrap().to_owned()
            })
            .collect();
        assert_eq!(kinds, ["phase", "phase", "span", "span"]);
        assert!(dump.contains("\\\"name\\\""));
    }
}
