//! The metric registry — the names `BENCHMARK.json` lists — and the
//! one JSON line a run ends with.

use std::collections::BTreeMap;

use crate::config::{variant_label, KERNEL_ORDER};
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count or ratio kept by a layer that some workloads do not
    /// run: it reads 0 there. Timed metrics are measured on every
    /// workload and have no such default.
    pub zero_when_off: bool,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        zero_when_off: false,
    }
}

fn off(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        zero_when_off: true,
        ..def(name, unit, better)
    }
}

/// What a user of the system sees; printed by an untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("throughput_mpx_s", "Mpx/s", Higher),
        def("req_per_s", "1/s", Higher),
        def("lat_p50_ms", "ms", Lower),
        def("peak_rss_mb", "MiB", Lower),
    ]
}

/// Single layers, layer = module name; printed by a traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = Vec::new();
    let variants: Vec<String> = KERNEL_ORDER
        .iter()
        .map(|&(bank, nt)| variant_label(bank, nt))
        .collect();
    for v in &variants {
        m.push(def(format!("dwt.mpx_s.{v}"), "Mpx/s", Higher));
    }
    for v in &variants {
        m.push(def(format!("dwt.copy_frac.{v}"), "ratio", Higher));
    }
    for bank in ["d4", "cdf53", "cdf97"] {
        m.push(def(format!("dwt.thread_scaling.{bank}"), "ratio", Higher));
    }
    m.extend([
        def("dwt.decompose_ms", "ms", Lower),
        def("dwt.reconstruct_ms", "ms", Lower),
        def("dwt.plan_build_ms", "ms", Lower),
        def("dwt.bytes_per_px_computed", "B/px", Lower),
        def("dwt.flops_per_px_computed", "flop/px", Lower),
        def("host.copy_gbps", "GB/s", Higher),
        def("host.nproc", "count", Higher),
        def("host.llc_mib", "MiB", Higher),
        def("wire.encode_request_ms", "ms", Lower),
        def("wire.decode_request_ms", "ms", Lower),
        def("wire.encode_response_ms", "ms", Lower),
        def("wire.decode_response_ms", "ms", Lower),
        def("wire.checksum_gbps", "GB/s", Higher),
        def("wire.codec_gbps", "GB/s", Higher),
        def("wire.encode_plane_ms", "ms", Lower),
        def("wire.decode_plane_ms", "ms", Lower),
        def("progressive.split_ms", "ms", Lower),
        def("progressive.reassemble_ms", "ms", Lower),
        off("progressive.planes_per_req", "count", Lower),
        off("progressive.cancel_share", "ratio", Higher),
        off("progressive.bytes_saved_share", "ratio", Higher),
        off("progressive.max_error_bound", "abs", Lower),
        def("transport.echo_rtt_ms.tcp", "ms", Lower),
        def("transport.echo_rtt_ms.mem", "ms", Lower),
        off("transport.frames_per_req", "count", Lower),
        off("transport.bytes_per_req", "B", Lower),
        off("transport.ser_share", "ratio", Lower),
        def("remote.call_solo_ms", "ms", Lower),
        def("remote.unattributed_ms", "ms", Lower),
        off("remote.retries", "count", Lower),
        off("remote.dedup_replays", "count", Lower),
        def("server.submit_wait_ms", "ms", Lower),
        def("server.overhead_ms", "ms", Lower),
        def("server.queue_wait_ms", "ms", Lower),
        def("server.service_ms", "ms", Lower),
        off("server.lane.useful_pct", "%", Higher),
        off("server.lane.duplication_pct", "%", Lower),
        off("server.lane.unique_redundancy_pct", "%", Lower),
        off("server.lane.communication_pct", "%", Lower),
        off("server.lane.wait_pct", "%", Lower),
        off("admission.accepted", "count", Higher),
        off("admission.rejected.queue_full", "count", Lower),
        off("admission.rejected.shed", "count", Lower),
        off("admission.rejected.deadline_expired", "count", Lower),
        def("admission.admit_pop_us", "us", Lower),
        off("batch.mean_occupancy", "count", Higher),
        off("batch.batches", "count", Lower),
        off("cache.hit_rate", "ratio", Higher),
        off("cache.evictions", "count", Lower),
        def("cache.ensure_hit_us", "us", Lower),
        def("cache.ensure_miss_us", "us", Lower),
        off("elastic.steals", "count", Lower),
        off("elastic.epoch", "count", Lower),
        off("elastic.imbalance_pct", "%", Lower),
        def("gen.blocks", "count", Higher),
        def("gen.samples", "count", Higher),
        def("gen.lat_p50_ms", "ms", Lower),
        def("gen.lat_tail_ms", "ms", Lower),
        def("gen.lat_tail_q", "ratio", Higher),
        def("gen.solo_p50_ms", "ms", Lower),
        def("trace.attributed_ms", "ms", Lower),
        def("trace.overhead_pct", "%", Lower),
    ]);
    m
}

/// The values one run measured, keyed by registry name.
pub struct Report {
    defs: Vec<MetricDef>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(defs: Vec<MetricDef>) -> Self {
        Report {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Record `name`. A name outside the registry is a harness bug and
    /// panics, so a typo cannot silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric {name} is not in the registry"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// `{"name": {"value": v, "unit": u}, …}` over the whole registry,
    /// in registry order.
    pub fn metrics_json(&self) -> Value {
        Value::Obj(
            self.defs
                .iter()
                .map(|d| {
                    let v = match self.values.get(&d.name) {
                        Some(v) => *v,
                        None if d.zero_when_off => 0.0,
                        None => panic!("metric {} was not measured", d.name),
                    };
                    (
                        d.name.clone(),
                        Value::obj([("value", Value::Num(v)), ("unit", Value::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn manifest() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(section: &json::Value) -> Vec<(String, String, String)> {
        section
            .as_arr()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn registry(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.label().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let m = manifest();
        assert_eq!(listed(m.get("end_to_end").unwrap()), registry(end_to_end()));
        assert_eq!(listed(m.get("per_layer").unwrap()), registry(per_layer()));
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::config::WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(seen.insert(d.name.clone()), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_report_prints_the_whole_registry_and_zero_fills_only_off_layers() {
        let mut r = Report::new(vec![
            def("a_ms", "ms", Better::Lower),
            off("b.count", "count", Better::Lower),
        ]);
        r.set("a_ms", 1.5);
        let text = result_line(true, 3, 0, r.metrics_json()).to_string();
        assert_eq!(
            text,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"b.count\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        let missing = Report::new(vec![def("a_ms", "ms", Better::Lower)]);
        assert!(std::panic::catch_unwind(|| missing.metrics_json()).is_err());
    }
}
