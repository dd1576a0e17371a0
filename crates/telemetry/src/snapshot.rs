//! The `hps-telemetry/v1` snapshot document.
//!
//! Folds the transport's reliability counters and the recorder's metrics
//! into one value with a stable hand-rolled JSON encoding, mirroring the
//! `hps-audit/v1` report pattern: a `schema` tag first, then
//! insertion-ordered fields, two-space indentation, byte-for-byte
//! reproducible. Golden snapshot tests and the `hps run --metrics-json`
//! CLI both emit exactly this document.

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::transport::TransportStats;

/// Schema tag carried by every serialized snapshot.
pub const SCHEMA: &str = "hps-telemetry/v1";

/// Everything one run's telemetry adds up to: reliability counters beside
/// (never inside) the logical metrics.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Snapshot {
    /// Transport reliability counters (retries, reconnects, faults).
    pub transport: TransportStats,
    /// Counters and histograms recorded during the run.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Builds a snapshot from its parts.
    pub fn new(transport: TransportStats, metrics: MetricsSnapshot) -> Snapshot {
        Snapshot { transport, metrics }
    }

    /// Folds `other` into `self`; all counters add, no observation is lost.
    pub fn merge(&mut self, other: &Snapshot) {
        self.transport.merge(&other.transport);
        self.metrics.merge(&other.metrics);
    }

    /// The snapshot as a JSON value (schema `hps-telemetry/v1`).
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.to_json();
        let (counters, histograms) = match metrics {
            Json::Object(mut fields) => {
                let histograms = fields.pop().expect("metrics has histograms").1;
                let counters = fields.pop().expect("metrics has counters").1;
                (counters, histograms)
            }
            _ => unreachable!("MetricsSnapshot::to_json returns an object"),
        };
        Json::object()
            .field("schema", SCHEMA)
            .field("transport", self.transport.to_json())
            .field("counters", counters)
            .field("histograms", histograms)
    }

    /// The serialized document (pretty-printed JSON, trailing newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    #[test]
    fn document_is_schema_tagged_and_stable() {
        let mut metrics = MetricsSnapshot::new();
        metrics.inc(names::CALLS);
        metrics.observe(names::CALL_ARGS, 2);
        let snap = Snapshot::new(
            TransportStats {
                retries: 1,
                ..TransportStats::default()
            },
            metrics,
        );
        let a = snap.to_json_string();
        let b = snap.to_json_string();
        assert_eq!(a, b, "serialization is deterministic");
        assert!(a.starts_with("{\n  \"schema\": \"hps-telemetry/v1\""));
        assert!(a.contains("\"retries\": 1"));
        assert!(a.contains("\"hps_calls_total\": 1"));
        assert!(a.contains("\"hps_call_args\""));
    }

    #[test]
    fn merge_folds_both_halves() {
        let mut a = Snapshot::default();
        a.transport.retries = 2;
        a.metrics.inc(names::CALLS);
        let mut b = Snapshot::default();
        b.transport.faults = 1;
        b.metrics.add(names::CALLS, 3);
        a.merge(&b);
        assert_eq!(a.transport.retries, 2);
        assert_eq!(a.transport.faults, 1);
        assert_eq!(a.metrics.counter(names::CALLS), 4);
    }
}
