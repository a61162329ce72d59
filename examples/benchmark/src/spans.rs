//! In-memory spans recorded around calls into each layer's public
//! functions, their self times, and the spans file written at exit.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request (serve), cell (grid) or pass (figures) the span
    /// belongs to.
    pub request: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures,
/// so a workload has one code path for its traced and untraced runs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (calls, self time in ns). Self time is the span's
    /// duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":{},\"spans\":[", json::quoted(workload));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Cost of recording one span, in ns, measured on a throwaway tracer.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        t.span("calibrate", |t| t.set_request(std::hint::black_box(i)));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counts_calls() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.self_times();
        let (outer_calls, outer_ns) = times["outer"];
        let (inner_calls, inner_ns) = times["inner"];
        assert_eq!((outer_calls, inner_calls), (1, 2));
        assert!(inner_ns >= 10_000_000);
        assert!(outer_ns < inner_ns, "outer self time excludes its children");
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert_eq!(t.span_count(), 0);
    }
}
