//! The metric names and units `BENCHMARK.json` declares, and the result
//! object a run prints as its last line.

use std::collections::BTreeMap;

/// Network slugs used in per-network metric names, in `NETWORK_NAMES` order.
pub const NET_SLUGS: [&str; 5] = [
    "lenet5-small",
    "lenet5-medium",
    "lenet5-large",
    "industrial",
    "squeezenet",
];

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ips", "1/s"),
    ("cpu_s_per_inference", "s"),
    ("peak_rss_mb", "MB"),
    ("compile_s", "s"),
];

const PER_LAYER_FIXED: [(&str, &str); 84] = [
    ("serve.start_ms", "ms"),
    ("serve.first_request_ms", "ms"),
    ("serve.shutdown_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.reported_latency_p50_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.overhead_pct", "%"),
    ("serve.queue_wait_est_p50_ms", "ms"),
    ("serve.cohort_size_mean", "count"),
    ("serve.batches_formed", "count"),
    ("serve.batched_requests", "count"),
    ("serve.backlog_max", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("serve.deduped", "count"),
    ("serve.dedup_lookup_p50_us", "us"),
    ("serve.journal_records", "count"),
    ("serve.journal_fsyncs_per_request", "ratio"),
    ("loadgen.lag_p50_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("runtime.encrypt_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("runtime.decrypt_ms", "ms"),
    ("runtime.infer_ms", "ms"),
    ("runtime.cold_run_ms", "ms"),
    ("runtime.run_nproc_ms", "ms"),
    ("runtime.thread_speedup", "ratio"),
    ("runtime.batch8_infer_ms", "ms"),
    ("runtime.batch8_max_abs_err", "abs"),
    ("runtime.node.conv2d_ms", "ms"),
    ("runtime.node.matmul_ms", "ms"),
    ("runtime.node.avg_pool2d_ms", "ms"),
    ("runtime.node.activation_ms", "ms"),
    ("runtime.node.other_ms", "ms"),
    ("runtime.node_residual_pct", "%"),
    ("ckks.keygen_ms", "ms"),
    ("ckks.encode_us", "us"),
    ("ckks.encrypt_us", "us"),
    ("ckks.decrypt_us", "us"),
    ("ckks.add_us", "us"),
    ("ckks.mul_plain_us", "us"),
    ("ckks.mul_scalar_us", "us"),
    ("ckks.mul_us", "us"),
    ("ckks.rescale_us", "us"),
    ("ckks.rotate_us", "us"),
    ("ckks.rotate_hoisted_us", "us"),
    ("ckks.pool_hit_rate", "ratio"),
    ("ckks.share.rotate_pct", "%"),
    ("ckks.share.mul_pct", "%"),
    ("ckks.share.plain_pct", "%"),
    ("ckks.share.rescale_pct", "%"),
    ("ckks.share.encode_pct", "%"),
    ("ckks.model_residual_pct", "%"),
    ("math.ntt_fwd_us", "us"),
    ("math.ntt_inv_us", "us"),
    ("math.ntt_fwd_32k_us", "us"),
    ("math.par_dispatch_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.extract_ir_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.compile_checked_reduced_ms", "ms"),
    ("core.ir_nodes", "count"),
    ("core.ir_rotations", "count"),
    ("core.ir_hoistable_groups", "count"),
    ("core.rotation_keys", "count"),
    ("core.chain_len_sum", "count"),
    ("core.p_findings", "count"),
    ("core.ir.rotate", "count"),
    ("core.ir.rotate_hoisted", "count"),
    ("core.ir.mul", "count"),
    ("core.ir.mul_plain", "count"),
    ("core.ir.mul_scalar", "count"),
    ("core.ir.add", "count"),
    ("core.ir.rescale", "count"),
    ("core.ir.encode", "count"),
    ("hisa.cost_predicted_ms", "ms"),
    ("hisa.cost_rel_err_pct", "%"),
    ("tensor.reference_eval_ms", "ms"),
    ("networks.build_full_ms", "ms"),
    ("benchmark.trace_overhead_pct", "%"),
    ("benchmark.max_abs_err", "abs"),
];

/// Per-layer metrics, printed by the traced run of every workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for prefix in ["runtime.sim_run_ms", "core.pipeline_ms"] {
        all.extend(
            NET_SLUGS
                .iter()
                .map(|slug| (format!("{prefix}.{slug}"), "ms")),
        );
    }
    all
}

/// Values measured so far, by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"))
    }
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The metrics a run of this trace mode prints.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

impl Outcome {
    /// The result object: exactly the declared metrics of this trace mode.
    pub fn to_json(&self, trace: bool) -> String {
        let body: Vec<String> = declared(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name);
                assert!(v.is_finite(), "metric `{name}` is not finite");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// One `name value unit` line per declared metric of this trace mode.
    pub fn render_text(&self, trace: bool) -> String {
        declared(trace)
            .iter()
            .map(|(name, unit)| format!("  {name:<36} {:>16.4} {unit}\n", self.metrics.get(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::json::{parse, Json};

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_declares_exactly_what_the_benchmark_prints() {
        let manifest =
            parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed(&manifest, "end_to_end"), own(declared(false)));
        assert_eq!(listed(&manifest, "per_layer"), own(declared(true)));
        let workloads: Vec<String> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_object_has_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (name, _) in END_TO_END {
            metrics.set(name, 1.25);
        }
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        };
        let json = parse(&out.to_json(false)).expect("result parses");
        assert_eq!(json.get("attempted").and_then(Json::as_num), Some(3.0));
        let setup = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_num), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
