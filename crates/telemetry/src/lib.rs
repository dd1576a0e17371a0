//! # hps-telemetry — deterministic observability for split execution
//!
//! The paper's evaluation (§4, Table 5) is a measurement story: interaction
//! counts and the runtime overhead of a split program talking across a LAN.
//! This crate is the measurement substrate the rest of the workspace hangs
//! off: counters and fixed-bucket latency histograms for every open↔hidden
//! interaction, batching flush, retry/reconnect, transport fault and
//! server lifecycle event.
//!
//! ## Design rules
//!
//! * **Zero-cost when disabled.** Instrumented code holds a
//!   [`RecorderHandle`]; when no recorder is installed, every hook is a
//!   single `Option` branch and no event is even constructed beyond a stack
//!   value.
//! * **Deterministic values only.** Recorded values are virtual-time cost
//!   units, counts and sizes — never wall-clock readings — so metric
//!   snapshots are byte-for-byte reproducible and can be pinned as golden
//!   files. Wall-clock timing stays quarantined in the repository
//!   benchmark (exposition), exactly as DESIGN.md prescribes.
//! * **Never perturbs the program.** Recording must not touch program
//!   output, interpreter cost/step accounting, interaction counts or the
//!   adversary-visible trace; the suite asserts byte-identical behaviour
//!   with the recorder on and off, including under injected faults.
//! * **Closed name registry.** Every metric name is a constant in
//!   [`metrics::names`], enumerated by [`metrics::ALL_COUNTERS`] /
//!   [`metrics::ALL_HISTOGRAMS`] and mirrored in `docs/metrics-registry.txt`
//!   (CI diffs a live scrape against that file). Recording to an
//!   unregistered name panics in debug builds.
//!
//! ## Pieces
//!
//! * [`Histogram`] — HDR-style fixed-bucket histogram over `u64` values
//!   (exact below 4, 25 % relative precision above; 252 buckets total).
//! * [`MetricsSnapshot`] — ordered counters + histograms with lossless
//!   [`MetricsSnapshot::merge`], Prometheus text rendering and a stable
//!   hand-rolled JSON encoding.
//! * [`MetricsRecorder`] / [`Event`] / [`RecorderHandle`] — the hook the
//!   runtime threads through its interpreter, channels and servers; the
//!   recorder folds events into counters and histograms.
//! * [`TransportStats`] — reliability counters (retries, reconnects,
//!   faults), reported *beside* — never inside — interaction
//!   counts. Lives here so transports and reports share one definition.
//! * [`Snapshot`] — the `hps-telemetry/v1` document: transport stats and
//!   metrics folded into one JSON-encodable value.

pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod snapshot;
pub mod transport;

pub use hist::Histogram;
pub use metrics::MetricsSnapshot;
pub use recorder::{Event, MetricsRecorder, RecorderHandle};
pub use snapshot::{Snapshot, SCHEMA};
pub use transport::TransportStats;
