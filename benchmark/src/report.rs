//! The metrics of one run: collected by name, checked against
//! `BENCHMARK.json`, printed one per line and as the final JSON object.

use ncc_serve::ServeStats;
use serde::Value;

use crate::manifest::MetricDef;

struct Entry {
    name: String,
    value: f64,
    samples: usize,
    /// Measured by a fixed probe, not on the workload's own ops.
    fixed: bool,
}

#[derive(Default)]
pub struct Metrics {
    values: Vec<Entry>,
    fixed: bool,
}

/// What a line of a fixed probe's metric carries in place of a workload.
pub const PROBE: &str = "probe";

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.values.push(Entry {
            name: name.to_string(),
            value,
            samples,
            fixed: self.fixed,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        (self.values.iter())
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Metrics put from now on come from the fixed layer probes: the
    /// same inputs whatever the workload, printed as `probe/<metric>`.
    pub fn fixed_probes(&mut self) {
        self.fixed = true;
    }

    /// `serve.hit_ratio`, `serve.engine_reuse_ratio`, `serve.errors` from
    /// the counters a stream of requests accrued on its server.
    pub fn put_served(&mut self, d: &ServeStats) {
        let lookups = (d.cache.hits + d.cache.misses).max(1);
        let answered = (d.served + d.errors).max(1);
        self.put(
            "serve.hit_ratio",
            d.cache.hits as f64 / lookups as f64,
            lookups as usize,
        );
        self.put(
            "serve.engine_reuse_ratio",
            d.engine_reuses as f64 / answered as f64,
            answered as usize,
        );
        self.put("serve.errors", d.errors as f64, answered as usize);
    }

    /// The values in manifest order. Panics unless the run reported
    /// exactly the metrics `defs` lists: the driver wants every one of
    /// them from every run.
    fn in_order<'a>(&'a self, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, &'a Entry)> {
        for e in &self.values {
            assert!(
                defs.iter().any(|d| d.name == e.name),
                "metric {} is not in BENCHMARK.json",
                e.name
            );
        }
        defs.iter()
            .map(|d| {
                let e = (self.values.iter())
                    .find(|e| e.name == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                (d, e)
            })
            .collect()
    }

    /// One `workload/metric value unit (samples=N)` line per metric,
    /// `probe/metric …` for the fixed probes'.
    pub fn lines(&self, workload: &str, defs: &[MetricDef]) -> Vec<String> {
        self.in_order(defs)
            .into_iter()
            .map(|(d, e)| {
                let scope = if e.fixed { PROBE } else { workload };
                let (v, s) = (e.value, e.samples);
                format!("{scope}/{} {v} {} (samples={s})", d.name, d.unit)
            })
            .collect()
    }

    /// The result object the driver reads off the last line.
    pub fn result_json(&self, defs: &[MetricDef], attempted: u64, failed: u64) -> String {
        let metrics = self
            .in_order(defs)
            .into_iter()
            .map(|(d, e)| {
                let entry = Value::Map(vec![
                    ("value".to_string(), Value::F64(e.value)),
                    ("unit".to_string(), Value::Str(d.unit.clone())),
                ]);
                (d.name.clone(), entry)
            })
            .collect();
        let doc = Value::Map(vec![
            ("correct".to_string(), Value::Bool(failed == 0)),
            ("attempted".to_string(), Value::U64(attempted)),
            ("failed".to_string(), Value::U64(failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&doc).expect("result serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs() -> Vec<MetricDef> {
        ["op_ms", "setup_s"]
            .iter()
            .map(|n| MetricDef {
                name: n.to_string(),
                unit: n.rsplit('_').next().unwrap().to_string(),
                bound: Some(0.1),
            })
            .collect()
    }

    #[test]
    fn prints_in_manifest_order_with_units() {
        let mut m = Metrics::default();
        m.put("op_ms", 12.25, 40);
        m.fixed_probes();
        m.put("setup_s", 2.5, 3);
        assert_eq!(
            m.lines("w", &defs()),
            [
                "w/op_ms 12.25 ms (samples=40)",
                "probe/setup_s 2.5 s (samples=3)"
            ]
        );
        let json = m.result_json(&defs(), 40, 0);
        assert!(json.starts_with("{\"correct\":true,\"attempted\":40,\"failed\":0,"));
        assert!(json.contains("\"op_ms\":{\"value\":12.25,\"unit\":\"ms\"}"));
        assert!(m
            .result_json(&defs(), 40, 1)
            .starts_with("{\"correct\":false"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_listed_metric_that_was_not_measured_is_an_error() {
        let mut m = Metrics::default();
        m.put("op_ms", 1.0, 1);
        m.lines("w", &defs());
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn an_unlisted_metric_is_an_error() {
        let mut m = Metrics::default();
        m.put("op_ms", 1.0, 1);
        m.put("setup_s", 1.0, 1);
        m.put("extra", 1.0, 1);
        m.lines("w", &defs());
    }
}
