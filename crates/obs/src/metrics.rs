//! The process-wide metrics registry.
//!
//! One flat namespace of named counters, gauges and summary histograms,
//! written at phase boundaries (never per record) and read by the sinks:
//! [`Metrics::render_prometheus`] for the serve `metrics` op and the
//! bench regression gate, [`Metrics::snapshot`] for tests. The registry
//! is the uniform facade over the engine's counter structs —
//! `SearchStats`, `DeltaStats` and `SessionCounters` each publish into
//! it after their phase completes, so the numbers here are exactly the
//! numbers those structs hold (asserted by `properties_obs` for
//! `SearchStats` and `SessionCounters`).
//!
//! Unlike span recording, the registry is always on: its writers run
//! once per phase, so there is nothing to gate.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One registered series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotone count (resettable only via [`Metrics::reset`]).
    Counter(u64),
    /// Last-write-wins level.
    Gauge(f64),
    /// Streaming summary of observed samples.
    Histogram {
        /// Samples observed.
        count: u64,
        /// Sum of all samples.
        sum: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
    },
}

/// The registry. Use the process-wide instance from [`metrics`]; fresh
/// instances exist for tests.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

/// The process-wide registry.
pub fn metrics() -> &'static Metrics {
    static REGISTRY: OnceLock<Metrics> = OnceLock::new();
    REGISTRY.get_or_init(Metrics::default)
}

impl Metrics {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, MetricValue>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add to a counter (creating it at zero first).
    pub fn add_counter(&self, name: &str, delta: u64) {
        let mut map = self.lock();
        let entry = map
            .entry(name.to_owned())
            .or_insert(MetricValue::Counter(0));
        if let MetricValue::Counter(v) = entry {
            *v += delta;
        }
    }

    /// Set a counter to an absolute value (for publishing a finished
    /// phase's legacy counter struct verbatim).
    pub fn set_counter(&self, name: &str, value: u64) {
        self.lock()
            .insert(name.to_owned(), MetricValue::Counter(value));
    }

    /// Set a gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock()
            .insert(name.to_owned(), MetricValue::Gauge(value));
    }

    /// Feed one sample into a histogram (creating it empty first).
    pub fn observe(&self, name: &str, sample: f64) {
        let mut map = self.lock();
        let entry = map
            .entry(name.to_owned())
            .or_insert(MetricValue::Histogram {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            });
        if let MetricValue::Histogram {
            count,
            sum,
            min,
            max,
        } = entry
        {
            *count += 1;
            *sum += sample;
            *min = min.min(sample);
            *max = max.max(sample);
        }
    }

    /// Read a counter (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.lock().get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Read a gauge (`None` when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.lock().get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Every series, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Drop every series (tests and bench runs isolate phases with this).
    pub fn reset(&self) {
        self.lock().clear();
    }

    /// Prometheus-style text exposition: `# TYPE` comment plus one
    /// sample line per series, sorted by name; histograms expose
    /// `_count`/`_sum`/`_min`/`_max` samples under a `summary` type.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.lock().iter() {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    out.push_str(&format!("{name}_count {count}\n"));
                    out.push_str(&format!("{name}_sum {sum}\n"));
                    if *count > 0 {
                        out.push_str(&format!("{name}_min {min}\n"));
                        out.push_str(&format!("{name}_max {max}\n"));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let m = Metrics::default();
        m.add_counter("search_polled", 3);
        m.add_counter("search_polled", 4);
        assert_eq!(m.counter("search_polled"), 7);
        m.set_counter("search_polled", 2);
        assert_eq!(m.counter("search_polled"), 2);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let m = Metrics::default();
        m.observe("job_micros", 10.0);
        m.observe("job_micros", 4.0);
        m.observe("job_micros", 6.0);
        match m.snapshot().as_slice() {
            [(
                name,
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                },
            )] => {
                assert_eq!(name, "job_micros");
                assert_eq!(*count, 3);
                assert_eq!(*sum, 20.0);
                assert_eq!(*min, 4.0);
                assert_eq!(*max, 10.0);
            }
            other => panic!("unexpected snapshot {other:?}"),
        }
    }

    #[test]
    fn prometheus_text_is_sorted_and_typed() {
        let m = Metrics::default();
        m.set_gauge("serve_inflight", 2.0);
        m.add_counter("serve_requests_total", 5);
        m.observe("request_micros", 8.5);
        let text = m.render_prometheus();
        let counter_at = text.find("serve_requests_total 5").unwrap();
        let gauge_at = text.find("serve_inflight 2").unwrap();
        assert!(text.find("request_micros_count 1").unwrap() < gauge_at);
        assert!(gauge_at < counter_at, "sorted by name:\n{text}");
        assert!(text.contains("# TYPE serve_requests_total counter"));
        assert!(text.contains("# TYPE serve_inflight gauge"));
        assert!(text.contains("# TYPE request_micros summary"));
        assert!(text.contains("request_micros_sum 8.5"));
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::default();
        m.add_counter("x", 1);
        m.reset();
        assert!(m.snapshot().is_empty());
    }
}
