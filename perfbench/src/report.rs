//! The two metric sets every workload reports: the end-to-end set
//! (untraced runs) and the per-layer set (traced runs). Every workload
//! prints every name of the set its mode asks for; a layer the workload
//! never enters reads 0.

use std::collections::BTreeMap;
use std::time::Duration;

use st_obs::PipelineReport;

use crate::measure::{attribute, mean_call_ms, per_op_ms, stage_totals, unaccounted_ms, Samples};
use crate::{metric, Metric, TAIL_MIN};

/// What a workload measured in an untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// The workload's primary operation.
    pub op: Samples,
    /// Its secondary operation.
    pub step: Samples,
    /// Events the workload processed in the timed phase.
    pub events: u64,
    /// Length of the timed phase.
    pub elapsed: Duration,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        for (name, s) in [("op", &self.op), ("step", &self.step)] {
            if !s.tail_supported(0.9, TAIL_MIN) {
                eprintln!(
                    "perfbench: warning: {name} p90 has fewer than {TAIL_MIN} samples beyond it ({} samples)",
                    s.len()
                );
            }
        }
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("op_p50_ms", self.op.quantile(0.5), "ms"),
            metric("op_p90_ms", self.op.quantile(0.9), "ms"),
            metric("step_p50_ms", self.step.quantile(0.5), "ms"),
            metric("step_p90_ms", self.step.quantile(0.9), "ms"),
            metric(
                "events_per_s",
                self.events as f64 / self.elapsed.as_secs_f64(),
                "1/s",
            ),
        ]
    }

    /// Sample counts for the info line.
    pub fn info(&self) -> String {
        format!(
            "{{\"op\": {}, \"step\": {}, \"events\": {}}}",
            self.op.len(),
            self.step.len(),
            self.events
        )
    }
}

/// The per-layer metric names and units, in report order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("strace.parse_ms", "ms"),
    ("strace.lines_per_s", "1/s"),
    ("strace.warnings", "count"),
    ("source.session_ms", "ms"),
    ("source.workers", "count"),
    ("core.map_ms", "ms"),
    ("core.dfg_ms", "ms"),
    ("core.stats_ms", "ms"),
    ("core.diff_ms", "ms"),
    ("core.render_ms", "ms"),
    ("query.plan_ms", "ms"),
    ("query.pruned_ratio", "ratio"),
    ("query.match_ratio", "ratio"),
    ("store.open_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.read_fraction", "ratio"),
    ("store.cache_hit_rate", "ratio"),
    ("store.cache_bytes", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.published_bytes_per_ingested_byte", "ratio"),
    ("serve.handler_ingest_ms", "ms"),
    ("serve.handler_query_ms", "ms"),
    ("serve.handler_dfg_ms", "ms"),
    ("serve.handler_conn_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.conns_rejected", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("unaccounted_ms", "ms"),
    ("host.cores", "count"),
    ("load.lateness_ms", "ms"),
];

/// Per-layer values of one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// The time split of a traced phase: each layer's attributed wall
    /// time per operation, mean wall per call of the stages that have a
    /// per-call meaning (session, checkpoint, handlers), and the wall no
    /// layer accounts for. `ops` operations of `op_wall_ns` total wall
    /// ran while `report` was collected.
    pub fn from_report(report: &PipelineReport, ops: u64, op_wall_ns: f64) -> Layers {
        let acc = attribute(report);
        let mut layers = Layers::default();
        for (name, bucket) in [
            ("strace.parse_ms", "strace"),
            ("core.map_ms", "core.map"),
            ("core.dfg_ms", "core.dfg"),
            ("core.stats_ms", "core.stats"),
            ("core.diff_ms", "core.diff"),
            ("core.render_ms", "core.render"),
            ("query.plan_ms", "query.plan"),
            ("store.open_ms", "store.open"),
            ("store.decode_ms", "store.decode"),
        ] {
            layers.set(
                name,
                per_op_ms(acc.get(bucket).copied().unwrap_or(0.0), ops),
            );
        }
        for (name, stage) in [
            ("source.session_ms", "source.session"),
            ("store.checkpoint_ms", "store.stream.checkpoint"),
            ("serve.handler_ingest_ms", "serve.ingest"),
            ("serve.handler_query_ms", "serve.query"),
            ("serve.handler_dfg_ms", "serve.dfg"),
            ("serve.handler_conn_ms", "serve.conn"),
        ] {
            layers.set(name, mean_call_ms(report, stage));
        }
        layers.set("unaccounted_ms", unaccounted_ms(op_wall_ns, &acc, ops));
        layers.set(
            "host.cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
        layers
    }

    /// Seconds the layers' attributed time covers for `bucket` (for
    /// rates such as lines per second of parse time).
    pub fn bucket_seconds(report: &PipelineReport, bucket: &str) -> f64 {
        attribute(report).get(bucket).copied().unwrap_or(0.0) / 1e9
    }

    /// Wall of the benchmark's `op` spans in a report, in ns.
    pub fn op_wall_ns(report: &PipelineReport) -> f64 {
        stage_totals(report, "op").1 as f64
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}
