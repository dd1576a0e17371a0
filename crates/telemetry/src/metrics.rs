//! The metric name registry and the counters+histograms snapshot.
//!
//! Names form a *closed* registry: every metric the workspace can emit is a
//! constant in [`names`], listed in [`ALL_COUNTERS`] / [`ALL_HISTOGRAMS`],
//! documented in `docs/OBSERVABILITY.md` and mirrored one-per-line in
//! `docs/metrics-registry.txt` (the CI reliability matrix diffs a live
//! `hps serve --metrics` scrape against that file). Recording to a name
//! outside the registry panics in debug builds, so a new metric cannot ship
//! without updating the registry — and the registry-sync unit test keeps
//! the checked-in file honest.

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// Registered metric names. `*_total` names are monotonic counters; the
/// rest are histograms.
pub mod names {
    /// Batched round trips (a wire round trip carrying more than one call).
    pub const BATCHES: &str = "hps_batches_total";
    /// Logical hidden calls issued by the open side.
    pub const CALLS: &str = "hps_calls_total";
    /// Hidden calls buffered by the deferrable-call pass instead of sent.
    pub const DEFERRED_CALLS: &str = "hps_deferred_calls_total";
    /// Flushes triggered by a demanded (result-bearing) call.
    pub const DEMAND_FLUSHES: &str = "hps_demand_flushes_total";
    /// Transport faults (timeouts, resets, cut frames) seen by the TCP
    /// client.
    pub const FAULTS: &str = "hps_faults_total";
    /// Deferred-buffer flushes (demanded, forced or end-of-run).
    pub const FLUSHES: &str = "hps_flushes_total";
    /// Fragments executed on the secure side.
    pub const FRAGMENTS: &str = "hps_fragments_total";
    /// Wire round trips (the paper's "Component Interactions").
    pub const INTERACTIONS: &str = "hps_interactions_total";
    /// Statements executed by the open interpreter.
    pub const OPEN_STEPS: &str = "hps_open_steps_total";
    /// Client reconnects after a transport fault.
    pub const RECONNECTS: &str = "hps_reconnects_total";
    /// Activation/instance release notifications sent.
    pub const RELEASES: &str = "hps_releases_total";
    /// Round-trip attempts beyond the first.
    pub const RETRIES: &str = "hps_retries_total";
    /// Virtual cost units charged for round-trip latency.
    pub const RTT_COST_UNITS: &str = "hps_rtt_cost_units_total";
    /// Virtual cost units on the open side's critical path (total run cost).
    pub const RUN_COST_UNITS: &str = "hps_run_cost_units_total";
    /// Logical calls executed by a session server.
    pub const SERVER_CALLS: &str = "hps_server_calls_total";
    /// Connections killed by server-side chaos injection.
    pub const SERVER_CHAOS_KILLS: &str = "hps_server_chaos_kills_total";
    /// Connections accepted by a session server.
    pub const SERVER_CONNECTIONS: &str = "hps_server_connections_total";
    /// Virtual cost units spent executing fragments on the secure device.
    pub const SERVER_COST_UNITS: &str = "hps_server_cost_units_total";
    /// Sessions rebuilt by replaying their committed-call journal.
    pub const SERVER_JOURNAL_REPLAYS: &str = "hps_server_journal_replays_total";
    /// Fragment panics caught by per-request `catch_unwind` isolation.
    pub const SERVER_PANICS_CAUGHT: &str = "hps_server_panics_caught_total";
    /// Entries evicted from session replay caches by the capacity bound.
    pub const SERVER_REPLAY_EVICTIONS: &str = "hps_server_replay_evictions_total";
    /// Retransmits answered from a session server's replay cache.
    pub const SERVER_REPLAYS: &str = "hps_server_replays_total";
    /// Distinct sessions created on a session server.
    pub const SERVER_SESSIONS: &str = "hps_server_sessions_total";
    /// Shard deaths: kills, injected kills and poisoned shard locks.
    pub const SERVER_SHARD_RESTARTS: &str = "hps_server_shard_restarts_total";
    /// Fragment executions served from already-compiled bytecode.
    pub const SERVER_VM_CACHE_HITS: &str = "hps_server_vm_cache_hits_total";
    /// Fragments lowered to bytecode by the VM's compile-once cache.
    pub const SERVER_VM_COMPILES: &str = "hps_server_vm_compiles_total";
    /// Events captured by the adversary's wiretap.
    pub const TRACE_EVENTS: &str = "hps_trace_events_total";

    /// Histogram: logical calls carried per wire round trip.
    pub const BATCH_SIZE: &str = "hps_batch_size";
    /// Histogram: scalar arguments per hidden call.
    pub const CALL_ARGS: &str = "hps_call_args";
    /// Histogram: deferred-buffer length at each flush.
    pub const FLUSH_PENDING: &str = "hps_flush_pending";
    /// Histogram: virtual cost units per fragment execution.
    pub const FRAGMENT_COST_UNITS: &str = "hps_fragment_cost_units";
    /// Histogram: wall-clock microseconds per journal-replay session
    /// rebuild. **Wall-clock, not virtual**: live scrapes and crash-drill
    /// reports only — never part of deterministic snapshots.
    pub const SERVER_RECOVERY_LATENCY: &str = "hps_server_recovery_latency_micros";
    /// Histogram: shard queue depth observed at each enqueue.
    pub const SERVER_SHARD_QUEUE_DEPTH: &str = "hps_server_shard_queue_depth";
}

/// Every registered counter, in registry (lexicographic) order.
pub const ALL_COUNTERS: &[&str] = &[
    names::BATCHES,
    names::CALLS,
    names::DEFERRED_CALLS,
    names::DEMAND_FLUSHES,
    names::FAULTS,
    names::FLUSHES,
    names::FRAGMENTS,
    names::INTERACTIONS,
    names::OPEN_STEPS,
    names::RECONNECTS,
    names::RELEASES,
    names::RETRIES,
    names::RTT_COST_UNITS,
    names::RUN_COST_UNITS,
    names::SERVER_CALLS,
    names::SERVER_CHAOS_KILLS,
    names::SERVER_CONNECTIONS,
    names::SERVER_COST_UNITS,
    names::SERVER_JOURNAL_REPLAYS,
    names::SERVER_PANICS_CAUGHT,
    names::SERVER_REPLAY_EVICTIONS,
    names::SERVER_REPLAYS,
    names::SERVER_SESSIONS,
    names::SERVER_SHARD_RESTARTS,
    names::SERVER_VM_CACHE_HITS,
    names::SERVER_VM_COMPILES,
    names::TRACE_EVENTS,
];

/// Every registered histogram, in registry (lexicographic) order.
pub const ALL_HISTOGRAMS: &[&str] = &[
    names::BATCH_SIZE,
    names::CALL_ARGS,
    names::FLUSH_PENDING,
    names::FRAGMENT_COST_UNITS,
    names::SERVER_RECOVERY_LATENCY,
    names::SERVER_SHARD_QUEUE_DEPTH,
];

fn assert_registered(name: &'static str, registry: &[&str], kind: &str) {
    debug_assert!(
        registry.contains(&name),
        "`{name}` is not a registered {kind}; add it to hps-telemetry's \
         registry, docs/OBSERVABILITY.md and docs/metrics-registry.txt"
    );
}

/// A deterministic bag of counters and histograms.
///
/// Keys are `&'static str` registry constants and maps are ordered, so two
/// snapshots built from the same events render identically, and
/// [`MetricsSnapshot::merge`] is associative, commutative and lossless
/// (counter addition + bucket-wise histogram addition).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Increments a registered counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `delta` to a registered counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        assert_registered(name, ALL_COUNTERS, "counter");
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records one observation into a registered histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        assert_registered(name, ALL_HISTOGRAMS, "histogram");
        self.histograms.entry(name).or_default().record(value);
    }

    /// Folds a pre-aggregated histogram into a registered name (bucket-wise,
    /// lossless). Used by threaded servers that aggregate observations
    /// outside a recorder and expose them at scrape time.
    pub fn merge_histogram(&mut self, name: &'static str, h: &Histogram) {
        assert_registered(name, ALL_HISTOGRAMS, "histogram");
        self.histograms.entry(name).or_default().merge(h);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if it has recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// `true` if no counter or histogram has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise. No observation is lost, and the operation is
    /// associative and commutative.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// The snapshot as a JSON object: every registered counter (touched or
    /// not) under `"counters"`, every registered histogram under
    /// `"histograms"`. Emitting the full registry keeps golden files
    /// self-describing and makes a missing metric a visible diff.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for name in ALL_COUNTERS {
            counters = counters.field(name, self.counter(name));
        }
        let empty = Histogram::new();
        let mut histograms = Json::object();
        for name in ALL_HISTOGRAMS {
            let h = self.histogram(name).unwrap_or(&empty);
            let buckets: Vec<Json> = h
                .nonzero_buckets()
                .map(|(lo, hi, count)| {
                    Json::object()
                        .field("lo", lo)
                        .field("hi", hi)
                        .field("count", count)
                })
                .collect();
            histograms = histograms.field(
                name,
                Json::object()
                    .field("count", h.count())
                    .field("sum", h.sum())
                    .field("min", h.min().map_or(Json::Null, Json::Uint))
                    .field("max", h.max().map_or(Json::Null, Json::Uint))
                    .field("buckets", buckets),
            );
        }
        Json::object()
            .field("counters", counters)
            .field("histograms", histograms)
    }

    /// Prometheus text exposition of the full registry (untouched metrics
    /// render as zero, so a scrape always lists every registered name).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for name in ALL_COUNTERS {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", self.counter(name));
        }
        let empty = Histogram::new();
        for name in ALL_HISTOGRAMS {
            let h = self.histogram(name).unwrap_or(&empty);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (_, hi, count) in h.nonzero_buckets() {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_sorted_and_disjoint() {
        assert!(ALL_COUNTERS.windows(2).all(|w| w[0] < w[1]));
        assert!(ALL_HISTOGRAMS.windows(2).all(|w| w[0] < w[1]));
        assert!(ALL_COUNTERS.iter().all(|c| !ALL_HISTOGRAMS.contains(c)));
        assert!(ALL_COUNTERS.iter().all(|c| c.ends_with("_total")));
        assert!(ALL_HISTOGRAMS.iter().all(|h| !h.ends_with("_total")));
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let mut m = MetricsSnapshot::new();
        m.inc(names::CALLS);
        m.add(names::CALLS, 2);
        m.observe(names::BATCH_SIZE, 4);
        m.observe(names::BATCH_SIZE, 9);
        assert_eq!(m.counter(names::CALLS), 3);
        assert_eq!(m.counter(names::RETRIES), 0);
        let h = m.histogram(names::BATCH_SIZE).expect("recorded");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 13);
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = MetricsSnapshot::new();
        a.inc(names::CALLS);
        a.observe(names::CALL_ARGS, 1);
        let mut b = MetricsSnapshot::new();
        b.add(names::CALLS, 4);
        b.inc(names::RETRIES);
        b.observe(names::CALL_ARGS, 7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.counter(names::CALLS), 5);
        assert_eq!(ab.counter(names::RETRIES), 1);
        assert_eq!(ab.histogram(names::CALL_ARGS).unwrap().count(), 2);
    }

    #[test]
    fn json_lists_the_full_registry() {
        let text = crate::json::Json::pretty(&MetricsSnapshot::new().to_json());
        for name in ALL_COUNTERS.iter().chain(ALL_HISTOGRAMS) {
            assert!(text.contains(&format!("\"{name}\"")), "missing {name}");
        }
    }

    #[test]
    fn prometheus_lists_the_full_registry() {
        let mut m = MetricsSnapshot::new();
        m.observe(names::BATCH_SIZE, 3);
        m.observe(names::BATCH_SIZE, 3);
        let text = m.to_prometheus();
        for name in ALL_COUNTERS.iter().chain(ALL_HISTOGRAMS) {
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
        }
        assert!(text.contains("hps_batch_size_bucket{le=\"3\"} 2"));
        assert!(text.contains("hps_batch_size_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hps_batch_size_sum 6"));
    }

    #[test]
    #[should_panic(expected = "not a registered counter")]
    #[cfg(debug_assertions)]
    fn unregistered_names_panic_in_debug() {
        MetricsSnapshot::new().inc("hps_bogus_total");
    }
}
