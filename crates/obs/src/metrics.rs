//! The process-wide metrics registry (`piccolo-metrics/v1`).
//!
//! Typed counters, gauges and histograms keyed by name, aggregated per
//! campaign (per-*unit* values travel as fields on `unit` span events — see
//! `docs/observability.md`). Naming convention, enforced by tests rather than
//! types:
//!
//! * `sim/…` — deterministic quantities folded from simulation results
//!   (DRAM transactions, cache hits). **u64 counters only**, so aggregation is
//!   exact and order-independent: the values are identical for a fixed seed at
//!   any `--jobs` split.
//! * `campaign/…` — deterministic scheduler counts (units, builds, evictions,
//!   journal lines replayed).
//! * `io/…` — host-environment-dependent but clock-free counts
//!   (snapshot cache hits/misses).
//! * `host/…` — wall-clock and memory measurements (gauges, histograms).
//!   Nondeterministic by nature; never compared across runs.

use crate::json::{parse, Json};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// One exported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing exact count.
    Counter(u64),
    /// A last-write-wins measurement.
    Gauge(f64),
    /// An online summary of observed samples.
    Histogram {
        /// Number of samples observed.
        count: u64,
        /// Sum of all samples (saturating).
        sum: u64,
        /// Smallest sample.
        min: u64,
        /// Largest sample.
        max: u64,
    },
}

static METRICS: Mutex<BTreeMap<String, MetricValue>> = Mutex::new(BTreeMap::new());

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, MetricValue>) -> R) -> R {
    f(&mut METRICS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Adds `delta` to the counter `name` (creating it at zero).
///
/// A name's kind is fixed by its first writer; a kind-mismatched update
/// replaces the metric wholesale (callers keep kinds straight by the naming
/// convention above).
pub fn counter_add(name: &str, delta: u64) {
    with_registry(|m| match m.get_mut(name) {
        Some(MetricValue::Counter(v)) => *v = v.saturating_add(delta),
        Some(other) => *other = MetricValue::Counter(delta),
        None => {
            m.insert(name.to_string(), MetricValue::Counter(delta));
        }
    });
}

/// Sets the gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    with_registry(|m| {
        m.insert(name.to_string(), MetricValue::Gauge(value));
    });
}

/// Records one `sample` into the histogram `name`.
pub fn observe(name: &str, sample: u64) {
    with_registry(|m| match m.get_mut(name) {
        Some(MetricValue::Histogram {
            count,
            sum,
            min,
            max,
        }) => {
            *count += 1;
            *sum = sum.saturating_add(sample);
            *min = (*min).min(sample);
            *max = (*max).max(sample);
        }
        Some(other) => {
            *other = MetricValue::Histogram {
                count: 1,
                sum: sample,
                min: sample,
                max: sample,
            };
        }
        None => {
            m.insert(
                name.to_string(),
                MetricValue::Histogram {
                    count: 1,
                    sum: sample,
                    min: sample,
                    max: sample,
                },
            );
        }
    });
}

/// Clears the registry (campaign drivers call this once at startup so a
/// process running several campaigns — the bench harness — exports only the
/// final campaign's aggregates; tests use it for isolation).
pub fn reset_metrics() {
    with_registry(std::mem::take);
}

/// A sorted copy of the registry.
#[must_use]
pub fn metrics_snapshot() -> Vec<(String, MetricValue)> {
    with_registry(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
}

/// Renders the registry as a `piccolo-metrics/v1` document: counters under
/// `"counters"` (u64 as decimal strings — the lossless number codec), gauges
/// under `"gauges"` (JSON numbers) and histograms under `"histograms"`
/// (`count`/`sum`/`min`/`max`, u64 as strings). Keys are sorted, so the
/// document is deterministic for deterministic metric values.
#[must_use]
pub fn metrics_json() -> String {
    let snapshot = metrics_snapshot();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, value) in snapshot {
        match value {
            MetricValue::Counter(v) => counters.push((name, Json::Str(v.to_string()))),
            MetricValue::Gauge(v) => gauges.push((name, Json::Num(v))),
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
            } => histograms.push((
                name,
                Json::Obj(vec![
                    ("count".to_string(), Json::Str(count.to_string())),
                    ("sum".to_string(), Json::Str(sum.to_string())),
                    ("min".to_string(), Json::Str(min.to_string())),
                    ("max".to_string(), Json::Str(max.to_string())),
                ]),
            )),
        }
    }
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str(crate::METRICS_SCHEMA.to_string()),
        ),
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("histograms".to_string(), Json::Obj(histograms)),
    ])
    .to_string()
}

/// Writes [`metrics_json`] (plus a trailing newline) to `path`.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_metrics_file(path: &std::path::Path) -> std::io::Result<()> {
    let mut doc = metrics_json();
    doc.push('\n');
    std::fs::write(path, doc)
}

/// Parses a `piccolo-metrics/v1` document back into metric values, for tests
/// and tooling. Returns `None` on a schema mismatch or malformed document.
#[must_use]
pub fn parse_metrics_json(text: &str) -> Option<Vec<(String, MetricValue)>> {
    let doc = parse(text.trim_end()).ok()?;
    if doc.get("schema")?.as_str()? != crate::METRICS_SCHEMA {
        return None;
    }
    let mut out = Vec::new();
    if let Some(Json::Obj(fields)) = doc.get("counters") {
        for (name, v) in fields {
            out.push((name.clone(), MetricValue::Counter(v.as_u64()?)));
        }
    }
    if let Some(Json::Obj(fields)) = doc.get("gauges") {
        for (name, v) in fields {
            out.push((name.clone(), MetricValue::Gauge(v.as_f64()?)));
        }
    }
    if let Some(Json::Obj(fields)) = doc.get("histograms") {
        for (name, h) in fields {
            out.push((
                name.clone(),
                MetricValue::Histogram {
                    count: h.get("count")?.as_u64()?,
                    sum: h.get("sum")?.as_u64()?,
                    min: h.get("min")?.as_u64()?,
                    max: h.get("max")?.as_u64()?,
                },
            ));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metrics tests share the process-global registry with other obs tests;
    // the crate-wide TEST_LOCK in lib.rs serializes them.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn counters_gauges_histograms_roundtrip_through_the_document() {
        let _guard = locked();
        reset_metrics();
        counter_add("sim/cache_hits", 2);
        counter_add("sim/cache_hits", 3);
        gauge_set("host/peak_rss_kb", 1024.0);
        observe("host/unit_ns", 10);
        observe("host/unit_ns", 30);
        let doc = metrics_json();
        assert!(doc.starts_with(r#"{"schema":"piccolo-metrics/v1""#));
        let parsed = parse_metrics_json(&doc).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("sim/cache_hits".to_string(), MetricValue::Counter(5)),
                ("host/peak_rss_kb".to_string(), MetricValue::Gauge(1024.0)),
                (
                    "host/unit_ns".to_string(),
                    MetricValue::Histogram {
                        count: 2,
                        sum: 40,
                        min: 10,
                        max: 30
                    }
                ),
            ]
        );
        reset_metrics();
        assert!(metrics_snapshot().is_empty());
    }

    #[test]
    fn counter_aggregation_is_order_independent() {
        let _guard = locked();
        reset_metrics();
        // Exact u64 addition commutes: interleaving from worker threads in any
        // order yields the same totals — the basis of the `sim/*` determinism
        // guarantee.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        counter_add("sim/edges", 7);
                    }
                });
            }
        });
        assert_eq!(
            metrics_snapshot(),
            vec![("sim/edges".to_string(), MetricValue::Counter(5600))]
        );
        reset_metrics();
    }
}
