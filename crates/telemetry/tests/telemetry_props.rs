//! Property tests for the telemetry primitives: the fixed bucket layout
//! tiles `u64` correctly, and snapshot merging is a lossless monoid —
//! associative, commutative, identity-respecting — so shard-and-merge
//! aggregation (CI matrix cells, per-connection recorders) can never
//! change what was observed.

use hps_telemetry::hist::{bucket_bounds, bucket_index, Histogram, NUM_BUCKETS};
use hps_telemetry::metrics::names;
use hps_telemetry::{MetricsSnapshot, Snapshot, TransportStats};
use proptest::prelude::*;

// ------------------------------------------------------------- bucket math

proptest! {
    /// Every value lands in a bucket whose bounds contain it.
    #[test]
    fn bucket_contains_its_value(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "value {v} outside [{lo}, {hi}] (bucket {idx})");
    }

    /// Bucketing is monotone: a larger value never maps to a smaller bucket.
    #[test]
    fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    /// Above the exact range the relative error stays within one
    /// sub-bucket: bucket width <= lo/4 + 1.
    #[test]
    fn bucket_relative_error_is_bounded(v in 4u64..u64::MAX) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        // hi - lo (not +1) to dodge overflow in the top bucket.
        prop_assert!(hi - lo <= lo / 4, "bucket [{lo}, {hi}] wider than 25% of lo");
    }

    /// A histogram never loses an observation: total bucket counts, count
    /// and (non-saturating regime) the sum all track the input exactly.
    #[test]
    fn histogram_is_lossless(values in proptest::collection::vec(0u64..1 << 40, 0..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let bucket_total: u64 = h.nonzero_buckets().map(|(_, _, c)| c).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.min(), values.iter().min().copied());
        prop_assert_eq!(h.max(), values.iter().max().copied());
    }

    /// Merging two histograms equals recording the concatenated stream.
    #[test]
    fn histogram_merge_equals_concatenation(
        xs in proptest::collection::vec(any::<u64>(), 0..100),
        ys in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut a = Histogram::new();
        for &v in &xs { a.record(v); }
        let mut b = Histogram::new();
        for &v in &ys { b.record(v); }
        a.merge(&b);

        let mut whole = Histogram::new();
        for &v in xs.iter().chain(&ys) { whole.record(v); }
        prop_assert_eq!(a, whole);
    }
}

// --------------------------------------------------------- snapshot monoid

/// Counters/histograms an arbitrary snapshot may touch (indexed by the
/// strategies below — the vendored proptest shim has no `sample::select`).
const COUNTER_NAMES: [&str; 4] = [
    names::CALLS,
    names::INTERACTIONS,
    names::FAULTS,
    names::RETRIES,
];
const HIST_NAMES: [&str; 2] = [names::BATCH_SIZE, names::CALL_ARGS];

/// An arbitrary snapshot touching a few registered counters/histograms.
fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    let adds = proptest::collection::vec((0..COUNTER_NAMES.len(), 0u64..1 << 32), 0..20);
    let obs = proptest::collection::vec((0..HIST_NAMES.len(), any::<u64>()), 0..20);
    (adds, obs).prop_map(|(adds, obs)| {
        let mut m = MetricsSnapshot::new();
        for (name, delta) in adds {
            m.add(COUNTER_NAMES[name], delta);
        }
        for (name, value) in obs {
            m.observe(HIST_NAMES[name], value);
        }
        m
    })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    ((0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20), arb_metrics()).prop_map(
        |((retries, reconnects, faults), metrics)| {
            Snapshot::new(
                TransportStats {
                    retries,
                    reconnects,
                    faults,
                },
                metrics,
            )
        },
    )
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): CI cells can fold in any grouping.
    #[test]
    fn snapshot_merge_is_associative(
        a in arb_snapshot(), b in arb_snapshot(), c in arb_snapshot(),
    ) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left.to_json_string(), right.to_json_string());
    }

    /// a ⊕ b == b ⊕ a: fold order doesn't matter either.
    #[test]
    fn snapshot_merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert_eq!(merged(&a, &b).to_json_string(), merged(&b, &a).to_json_string());
    }

    /// The empty snapshot is the identity: merging it changes nothing.
    #[test]
    fn empty_snapshot_is_identity(a in arb_snapshot()) {
        let empty = Snapshot::default();
        prop_assert_eq!(merged(&a, &empty).to_json_string(), a.to_json_string());
        prop_assert_eq!(merged(&empty, &a).to_json_string(), a.to_json_string());
    }

    /// Merging loses no counts: every registered counter adds exactly, and
    /// histogram observation totals add too.
    #[test]
    fn snapshot_merge_loses_nothing(a in arb_snapshot(), b in arb_snapshot()) {
        let m = merged(&a, &b);
        for &name in hps_telemetry::metrics::ALL_COUNTERS {
            prop_assert_eq!(
                m.metrics.counter(name),
                a.metrics.counter(name) + b.metrics.counter(name),
                "counter {} did not add", name
            );
        }
        for &name in hps_telemetry::metrics::ALL_HISTOGRAMS {
            let count = |s: &Snapshot| s.metrics.histogram(name).map_or(0, |h| h.count());
            prop_assert_eq!(count(&m), count(&a) + count(&b), "histogram {} lost observations", name);
        }
        prop_assert_eq!(m.transport.faults, a.transport.faults + b.transport.faults);
        prop_assert_eq!(m.transport.retries, a.transport.retries + b.transport.retries);
    }
}
