//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step).

use crate::report::Summary;

/// End-to-end metrics, as `(name, unit)`, in reporting order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("fail_frac", "ratio"),
    ("goodput_frac", "ratio"),
    ("slo_p50_ms", "ms"),
    ("slo_p99_ms", "ms"),
    ("retry_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("nn.fit_s", "s"),
    ("registry.publish_s", "s"),
    ("core.build_s", "s"),
    ("loadgen.generate_s", "s"),
    ("gateway.admit_ns", "ns"),
    ("crypto.hmac_ns", "ns"),
    ("gateway.admitted", "count"),
    ("meter.audit_entries", "count"),
    ("gateway.shed.quota", "count"),
    ("gateway.shed.tenant_bp", "count"),
    ("gateway.shed.overload", "count"),
    ("gateway.shed.no_route", "count"),
    ("gateway.shed.deadline", "count"),
    ("gateway.shed.failover", "count"),
    ("meter.refunds", "count"),
    ("meter.verify_s", "s"),
    ("batcher.batches", "count"),
    ("batcher.mean_batch", "rows"),
    ("batcher.push_flush_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("router.route_ns", "ns"),
    ("router.devices_per_node", "count"),
    ("observe.hist_record_ns", "ns"),
    ("observe.trace_events", "count"),
    ("observe.alarms", "count"),
    ("closedloop.issued", "count"),
    ("closedloop.retries", "count"),
    ("closedloop.retry_denied", "count"),
    ("controller.actions", "count"),
    ("controller.migrate", "count"),
    ("controller.join", "count"),
    ("controller.drain", "count"),
    ("controller.brownout", "count"),
    ("exec.wall_s", "s"),
    ("exec.speedup_vs_sim", "x"),
    ("exec.handoff_ns", "ns"),
    ("exec.node_failures", "count"),
    ("exec.hung_runs", "count"),
    ("kernel.predictions", "count"),
    ("kernel.predict_ns_per_row.f32", "ns"),
    ("kernel.predict_ns_per_row.int8", "ns"),
    ("kernel.predict_ns_per_row.int4", "ns"),
    ("kernel.predict_ns_per_row.int2", "ns"),
    ("kernel.predict_ns_per_row.int1", "ns"),
    ("kernel.macs_per_row", "macs_computed"),
    ("kernel.weight_bytes", "bytes_computed"),
    ("share.gateway", "ratio"),
    ("share.batcher", "ratio"),
    ("share.router", "ratio"),
    ("share.kernel", "ratio"),
    ("share.handoff", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.serve_s", "s"),
    ("trace.untraced_serve_s", "s"),
    ("trace.probe_s", "s"),
];

/// The end-to-end values of a summary, in [`END_TO_END`] order.
#[must_use]
pub fn end_to_end_values(s: &Summary) -> [f64; 8] {
    [
        s.setup_s,
        s.throughput_rps,
        s.fail_frac,
        s.goodput_frac,
        s.slo_p50_ms,
        s.slo_p99_ms,
        s.retry_amp,
        s.peak_rss_mb,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
        bench[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let bench: Value = serde_json::from_str(&text).expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed(&bench, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = bench["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        for (w, listed) in crate::workloads::Workload::ALL
            .iter()
            .zip(bench["workloads"].as_array().expect("workloads"))
        {
            assert_eq!(listed["why"].as_str(), Some(w.why()));
        }
    }
}
