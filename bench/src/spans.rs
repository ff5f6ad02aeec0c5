//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON when the run ends.
//!
//! The benchmark measures every layer from outside, so a span is always
//! "one call into a public function" (or the worker loop between the start
//! barrier and the join). Spans nest by call structure: each records the
//! span that was open when it began.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The repo module the call lands in (`session`, `gate`, `store`, …).
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Worker thread the span ran on (0 = the driving thread).
    pub lane: u32,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer records nothing, so the untraced run
/// pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on the driving thread, nested in whatever is open.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a span measured elsewhere (a worker thread's loop), as a
    /// child of whatever is open on the driving thread.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: &'static str,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            lane,
        };
        self.spans.push(span);
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every finished span called `name`, in order.
    #[must_use]
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, times in microseconds.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let self_times = self_times(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.layer,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                self_times[id] as f64 / 1e3,
            )
            .expect("writing to a String");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children on several lanes may overlap each
/// other; the covered part is the union of their intervals).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, lane: u32) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            lane,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 100, None, 0),
            span(10, 30, Some(0), 0),
            span(40, 90, Some(0), 0),
            span(50, 60, Some(2), 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_on_two_lanes_count_once() {
        let spans = vec![
            span(0, 100, None, 0),
            span(10, 60, Some(0), 1),
            span(20, 80, Some(0), 2),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", "a");
        let inner = t.begin("inner", "b");
        t.end(inner);
        t.add("worker", "c", 1, Instant::now(), Instant::now());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", "y");
        t.end(s);
        t.add("w", "y", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
