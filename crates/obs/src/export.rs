//! Exporters: human-readable summary, Chrome `trace_event` JSON, and
//! JSON-Lines metrics.

use std::fmt::Write as _;

use crate::json::escape;
use crate::registry::Registry;
use crate::span::SpanEvent;

impl Registry {
    /// Renders a human-readable summary table: phases first, then
    /// counters, gauges, and histograms.
    pub fn export_summary(&self) -> String {
        let mut out = String::new();
        let phases = self.phase_totals();
        if !phases.is_empty() {
            out.push_str("phase                                   count      total\n");
            for p in &phases {
                let _ = writeln!(
                    out,
                    "{:<38} {:>6} {:>10.3}s",
                    p.name,
                    p.count,
                    p.total.as_secs_f64()
                );
            }
        }
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str("counter                                      value\n");
            for (name, v) in &counters {
                let _ = writeln!(out, "{:<38} {:>12}", name, v);
            }
        }
        let gauges = self.gauges();
        if !gauges.is_empty() {
            out.push_str("gauge                                        value\n");
            for (name, v) in &gauges {
                let _ = writeln!(out, "{:<38} {:>12}", name, v);
            }
        }
        let histograms = self.histograms();
        if !histograms.is_empty() {
            out.push_str(
                "histogram                                    count         mean     p50     p99     max\n",
            );
            for (name, s) in &histograms {
                let _ = writeln!(
                    out,
                    "{:<38} {:>12} {:>12.1} {:>7} {:>7} {:>7}",
                    name,
                    s.count,
                    s.mean(),
                    s.quantile(0.5),
                    s.quantile(0.99),
                    s.max
                );
            }
        }
        out
    }

    /// Renders the span log as a Chrome `trace_event` document using
    /// complete (`"ph": "X"`) events — loadable in `about:tracing` and
    /// Perfetto. Counters are attached as process-level metadata on a
    /// final summary event. The process-global exporter
    /// ([`crate::export_chrome_trace`]) renders the global registry
    /// the same way.
    pub fn export_chrome_trace(&self) -> String {
        render_chrome_trace(&self.spans(), &self.counters())
    }

    /// Renders every instrument as one JSON object per line:
    /// `{"type":"counter"|"gauge"|"histogram"|"phase"|"span", ...}`.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                escape(&name),
                v
            );
        }
        for (name, v) in self.gauges() {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                escape(&name),
                v
            );
        }
        for (name, s) in self.histograms() {
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                escape(&name),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.mean(),
                s.quantile(0.5),
                s.quantile(0.9),
                s.quantile(0.99)
            );
        }
        for p in self.phase_totals() {
            let _ = writeln!(
                out,
                "{{\"type\":\"phase\",\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
                escape(&p.name),
                p.count,
                p.total.as_micros()
            );
        }
        for ev in self.spans() {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":\"{}\",\"tid\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{}}}",
                escape(&ev.name),
                ev.tid,
                ev.depth,
                ev.start_us,
                ev.dur_us
            );
        }
        out
    }
}

/// Renders spans and counters as one Chrome `trace_event` document.
/// Every distinct `tid` gets an `"M"` `thread_name` metadata event so
/// trace viewers label the tracks: `tid` 1 is `"main"`, other tids are
/// `"thread {tid}"`.
pub(crate) fn render_chrome_trace(spans: &[SpanEvent], counters: &[(String, u64)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push_event = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };
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
        push_event(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid,
            escape(&name)
        );
    }
    for ev in spans {
        push_event(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
            escape(&ev.name),
            ev.start_us,
            ev.dur_us,
            ev.tid,
            ev.depth
        );
    }
    // A zero-duration instant event carrying the final counter values,
    // so the numbers travel with the trace.
    push_event(&mut out, &mut first);
    out.push_str("{\"name\":\"obs.counters\",\"cat\":\"obs\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{");
    let mut first_arg = true;
    for (name, v) in counters {
        if !first_arg {
            out.push(',');
        }
        first_arg = false;
        let _ = write!(out, "\"{}\":{}", escape(name), v);
    }
    out.push_str("}}]}");
    out
}

#[cfg(test)]
mod tests {
    use crate::json;
    use crate::registry::Registry;

    #[test]
    fn chrome_trace_of_empty_registry_is_valid() {
        let r = Registry::new();
        let doc = json::parse(&r.export_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Only the counters metadata event.
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
    }

    #[test]
    fn chrome_trace_renders_thread_names() {
        let span = |tid| crate::SpanEvent {
            name: "main_analysis".to_owned(),
            tid,
            depth: 0,
            start_us: 0,
            dur_us: 100,
        };
        let doc = json::parse(&super::render_chrome_trace(
            &[span(1), span(3), span(3)],
            &[("c.one".to_owned(), 3)],
        ))
        .unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Two M (one per distinct tid), three span X, one i.
        assert_eq!(events.len(), 6);
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, ["main", "thread 3"]);
    }

    #[test]
    fn summary_lists_all_instrument_kinds() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("c.one").add(5);
        r.gauge("g.one").set(-2);
        r.histogram("h.one").record(8);
        let s = r.export_summary();
        assert!(s.contains("c.one"));
        assert!(s.contains("g.one"));
        assert!(s.contains("h.one"));
        assert!(s.contains("-2"));
    }

    #[test]
    fn jsonl_lines_parse_and_name_needs_escaping() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let r = Registry::new();
        r.counter("weird \"name\"\n").add(1);
        let dump = r.export_jsonl();
        for line in dump.lines() {
            let v = json::parse(line).unwrap();
            assert!(v.get("type").is_some());
        }
        assert!(dump.contains("\\\"name\\\""));
    }
}
