//! The metric names the benchmark emits, with their units. These two
//! lists are the same as `end_to_end` and `per_layer` in
//! `BENCHMARK.json`; the smoke test fails if they drift apart.

use crate::json::Json;

/// `(name, unit)`; emitted with `--trace 0`, for every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("recall10", "frac"),
    ("bytes_per_query", "B"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// `(name, unit)`; emitted with `--trace 1`. `_us` is µs per request. A
/// metric whose layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("engine.scope_us", "us"),
    ("engine.plan_us", "us"),
    ("engine.price_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.verify_us", "us"),
    ("engine.accounted_frac", "frac"),
    ("index.filter.dists_per_s", "1/s"),
    ("index.lut.tables", "count"),
    ("index.lut.us", "us"),
    ("index.lut.tables_per_s", "1/s"),
    ("index.scan.codes", "count"),
    ("index.scan.us", "us"),
    ("index.scan.codes_per_s", "1/s"),
    ("index.scan.gbps", "GB/s"),
    ("index.select.us", "us"),
    ("index.select.pruned_frac", "frac"),
    ("index.rerank.candidates", "count"),
    ("index.rerank.f32_frac", "frac"),
    ("index.rerank.us", "us"),
    ("index.rerank.vectors_per_s", "1/s"),
    ("index.tiered.hit_rate", "frac"),
    ("index.tiered.admissions", "count"),
    ("index.tiered.evictions", "count"),
    ("index.tiered.fetch_us_per_cluster", "us"),
    ("index.tiered.disk_bytes_per_query", "B"),
    ("index.probe_coverage", "frac"),
    ("index.add.vectors_per_s", "1/s"),
    ("quant.train_s", "s"),
    ("data.generate_s", "s"),
    ("data.ground_truth_s", "s"),
    ("index.threads2_speedup", "ratio"),
    ("host_cpus", "count"),
    ("plan.rounds", "count"),
    ("plan.clusters_fetched", "count"),
    ("plan.spill_bytes", "B"),
    ("serve.compose_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"),
    ("serve.shapes_priced", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.service_pred_err_p95", "frac"),
    ("telemetry.overhead_frac", "frac"),
];

/// Values for one of the lists above, in list order. Setting a name the
/// list does not hold is a bug in the benchmark and panics.
pub struct MetricSet {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            names,
            values: vec![None; names.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's list"));
        self.values[slot] = Some(value);
    }

    /// `(name, unit, value)` in list order; unset metrics read 0.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.names
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), value)| (name, unit, value.unwrap_or(0.0)))
    }

    /// The contract's `metrics` object.
    pub fn to_json(&self) -> Json {
        Json::obj(self.entries().map(|(name, unit, value)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }
}
