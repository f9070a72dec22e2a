//! `BENCHMARK.json`, read at compile time: the one place that names the
//! workloads, the metrics, their units and their bounds. The harness
//! prints exactly the metrics listed there and refuses to report a
//! metric that is missing or unlisted, so the two cannot drift apart.

use serde::Value;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the median by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}`")),
        _ => panic!("BENCHMARK.json: `{key}` looked up in a non-object"),
    }
}

fn text(v: &Value, key: &str) -> String {
    match field(v, key) {
        Value::Str(s) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` is {other:?}, not a string"),
    }
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match field(v, key) {
        Value::Seq(items) => items,
        other => panic!("BENCHMARK.json: `{key}` is {other:?}, not a list"),
    }
}

fn metric(v: &Value, bounded: bool) -> MetricDef {
    MetricDef {
        name: text(v, "name"),
        unit: text(v, "unit"),
        bound: bounded.then(|| match field(v, "bound") {
            Value::F64(b) => *b,
            Value::U64(b) => *b as f64,
            other => panic!("BENCHMARK.json: bound {other:?}"),
        }),
    }
}

impl Manifest {
    pub fn load() -> Manifest {
        let doc: Value = serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
        Manifest {
            run_seconds: match field(&doc, "run_seconds") {
                Value::U64(s) => *s,
                other => panic!("BENCHMARK.json: run_seconds {other:?}"),
            },
            workloads: items(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: items(&doc, "end_to_end")
                .iter()
                .map(|m| metric(m, true))
                .collect(),
            per_layer: items(&doc, "per_layer")
                .iter()
                .map(|m| metric(m, false))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_the_workload_table_and_bounded_metrics() {
        let m = Manifest::load();
        let table: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(m.workloads, table);
        assert!((1..=60).contains(&m.run_seconds));
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        for d in &m.end_to_end {
            let b = d.bound.unwrap();
            assert!((0.0..=0.25).contains(&b), "{} bound {b}", d.name);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
