//! `BENCHMARK.json`: the workload and metric names this benchmark may
//! print, compiled in so the binary can never drift from the file.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// The metrics a run prints: end-to-end ones untraced, per-layer ones
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Parse and validate the compiled-in `BENCHMARK.json`.
pub fn load() -> Result<BenchSpec, String> {
    parse(BENCHMARK_JSON)
}

fn parse(text: &str) -> Result<BenchSpec, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let root = root.as_object().ok_or("BENCHMARK.json is not an object")?;
    let list = |key: &str| -> Result<&[Value], String> {
        serde::field(root, key)
            .as_array()
            .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))
    };
    let str_field = |item: &Value, key: &str| -> Result<String, String> {
        item.as_object()
            .and_then(|o| serde::field(o, key).as_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json: an entry has no string {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: str_field(m, "name")?,
                    unit: str_field(m, "unit")?,
                })
            })
            .collect()
    };
    let spec = BenchSpec {
        workloads: list("workloads")?
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    };
    let names = spec
        .workloads
        .iter()
        .chain(spec.end_to_end.iter().map(|m| &m.name))
        .chain(spec.per_layer.iter().map(|m| &m.name));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !valid_name(name) {
            return Err(format!("BENCHMARK.json: bad name {name:?}"));
        }
        if !seen.insert(name.as_str()) {
            return Err(format!("BENCHMARK.json: name {name:?} is used twice"));
        }
    }
    if let Some(m) = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .find(|m| !valid_unit(&m.unit))
    {
        return Err(format!(
            "BENCHMARK.json: bad unit {:?} of {:?}",
            m.unit, m.name
        ));
    }
    Ok(spec)
}

/// A workload or metric name: a letter or digit, then at most 63 more of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["wall_s", "core.search.self_s", "table2-hid", "0day", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "ünïcode",
            "a/b",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_checked_in_file_is_valid() {
        let spec = load().expect("BENCHMARK.json parses and validates");
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!spec.per_layer.is_empty());
        assert!((2..=8).contains(&spec.workloads.len()));
    }

    #[test]
    fn duplicates_and_bad_names_are_refused() {
        let dup =
            r#"{"workloads":[{"name":"a"}],"end_to_end":[{"name":"a","unit":"s"}],"per_layer":[]}"#;
        assert!(parse(dup).unwrap_err().contains("twice"));
        let bad = r#"{"workloads":[{"name":"a b"}],"end_to_end":[],"per_layer":[]}"#;
        assert!(parse(bad).unwrap_err().contains("bad name"));
        let unit =
            r#"{"workloads":[],"end_to_end":[{"name":"x","unit":"per second"}],"per_layer":[]}"#;
        assert!(parse(unit).unwrap_err().contains("bad unit"));
    }
}
