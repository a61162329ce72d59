//! The metric registry (the names `BENCHMARK.json` lists), the result
//! line every run ends with, and the per-layer accounting of traced runs.

use crate::figures::EXHIBITS;
use crate::json;
use crate::spans::{span_cost_ns, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time a traced run reports as a share of the
/// workload's untraced operation time. Each name is a span name.
pub const LAYERS: [&str; 14] = [
    "trace.generate",
    "trace.precompute",
    "sim.engine",
    "critpath.analyze",
    "core.train",
    "core.digest",
    "core.cell_key",
    "predict.envelope",
    "client.request_encode",
    "serve.request_decode",
    "serve.cache",
    "serve.journal_append",
    "serve.response_encode",
    "client.response_decode",
];

/// Per-layer context: the unaccounted share, tracing cost, counters read
/// where the work happens, and the latency of `serve_miss`'s loaded
/// open-loop phase, where queue wait adds to the layers.
pub const CONTEXT: [(&str, &str); 11] = [
    ("residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.store_hit_pct", "%"),
    ("core.grid_cells", "count"),
    ("serve.cache_hit_pct", "%"),
    ("serve.queue_depth_peak", "count"),
    ("serve.admission_rejects", "count"),
    ("serve.approx_answered", "count"),
    ("loadgen.late_arrivals", "count"),
    ("serve.loaded_p50_ms", "ms"),
    ("serve.loaded_tail_ms", "ms"),
];

/// Every per-layer metric with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    LAYERS
        .iter()
        .map(|layer| (format!("{layer}_pct"), "%"))
        .chain(
            EXHIBITS
                .iter()
                .map(|(span, _)| (format!("{span}_pct"), "%")),
        )
        .chain(CONTEXT.iter().map(|(name, unit)| (name.to_string(), *unit)))
        .collect()
}

/// What one run found: the correctness verdict, operation counts, the
/// metric values, and human-readable lines printed before the result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
    traced: bool,
}

impl Report {
    /// An empty report. Traced reports start with every per-layer
    /// metric at 0: a layer off a workload's path reads 0 there.
    pub fn new(traced: bool) -> Report {
        let values = if traced {
            per_layer()
                .into_iter()
                .map(|(name, _)| (name, 0.0))
                .collect()
        } else {
            BTreeMap::new()
        };
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values,
            notes: Vec::new(),
            traced,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness gate.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.note(format!("CHECK FAILED: {}", why.into()));
    }

    /// Sets the end-to-end latency metrics from per-operation latencies
    /// in seconds (failed operations as infinity) and notes which
    /// percentile the tail is.
    pub fn set_latencies(&mut self, latencies_s: &[f64]) {
        let ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
        let (p50, tail) = crate::stats::latency_summary(&ms);
        self.set("latency_p50_ms", p50);
        self.set("latency_tail_ms", tail);
        self.note(format!(
            "latency over {} operations: p50 {p50:.4} ms, p{} {tail:.4} ms",
            ms.len(),
            crate::stats::tail_percentile(ms.len()) * 100.0
        ));
    }

    /// Sets each layer's share of `denominator_ns` (the untraced time
    /// of the operations the trace covers), the residual the layers
    /// leave, and the tracing overhead; prints the self-time table.
    pub fn set_layer_shares(&mut self, tracer: &Tracer, denominator_ns: f64) {
        let times = tracer.self_times();
        let mut table = format!(
            "{:<34} {:>9} {:>12} {:>8}\n",
            "layer (self time)", "calls", "ms", "share %"
        );
        let mut covered = 0.0;
        for (name, (calls, ns)) in &times {
            let metric = format!("{name}_pct");
            let counted = self.values.contains_key(&metric);
            let pct = 100.0 * *ns as f64 / denominator_ns;
            if counted {
                self.set(&metric, pct);
                covered += pct;
            }
            let _ = writeln!(
                table,
                "{:<34} {calls:>9} {:>12.3} {:>8}",
                name,
                *ns as f64 / 1e6,
                if counted {
                    format!("{pct:.2}")
                } else {
                    "residual".to_string()
                }
            );
        }
        let residual = 100.0 - covered;
        let overhead_ns = span_cost_ns() * tracer.span_count() as f64;
        let overhead = 100.0 * overhead_ns / denominator_ns;
        self.set("residual_pct", residual);
        self.set("trace.overhead_pct", overhead);
        let _ = writeln!(
            table,
            "{:<34} {:>9} {:>12.3} {residual:>8.2}\n\
             untraced operation time {:.3} ms; tracing overhead {:.3} ms ({overhead:.3}%, {} spans)",
            "residual (untraced time not in a layer)",
            "",
            residual / 100.0 * denominator_ns / 1e6,
            denominator_ns / 1e6,
            overhead_ns / 1e6,
            tracer.span_count()
        );
        self.note(table.trim_end().to_string());
    }

    /// The result line: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run), and nothing else.
    pub fn render(&self) -> Result<String, String> {
        let registry: Vec<(String, &str)> = if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !registry.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra:?} is not in the registry"));
        }
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name:?} was not measured"))?;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quoted(name),
                json::number(*value),
                json::quoted(unit)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Peak resident set size (`VmHWM`) in MB of the process whose
/// `/proc/<pid>/status` is at `status_path`.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{array_field, compact, str_field};

    fn is_metric_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn listed(doc: &str, section: &str) -> Vec<(String, String)> {
        array_field(doc, section)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| str_field(m, k).expect("string field");
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json_one_to_one() {
        let doc = compact(crate::BENCHMARK_JSON);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let mut all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
        assert!(all.iter().all(|n| is_metric_name(n)), "{all:?}");
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "metric names are unique");
        assert!(count - e2e.len() <= 128);
    }

    #[test]
    fn render_refuses_missing_and_unknown_metrics() {
        let mut r = Report::new(false);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.render().unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":0,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""setup_s":{"value":1.5,"unit":"s"}"#));
        r.set("bogus", 1.0);
        assert!(r.render().is_err());
        assert!(Report::new(false).render().is_err());
        assert!(
            Report::new(true).render().is_ok(),
            "traced reports start complete"
        );
    }
}
