//! # hps-runtime — execution substrate for split programs
//!
//! The paper evaluates its transformation by actually *running* the split
//! programs: "We generated the open and hidden components and ran them on
//! two separate linux based machines that communicated over the local area
//! network." This crate provides the equivalent substrate:
//!
//! * [`interp`] — the interpreter for `hps_ir::Program`s, with
//!   deterministic virtual-time cost accounting ([`cost::CostModel`]). It
//!   runs the program on the crate's register bytecode, compiled once per
//!   split by [`interp::SplitMeta::derive`] (or once per interpreter for
//!   an unsplit program). A plain tree-walk of both halves, compiled only
//!   for the crate's tests, is the reference the VM is differentially
//!   tested against.
//! * [`server`] — the secure-side executor: installs a
//!   [`hps_ir::HiddenProgram`], compiling every fragment once, keeps
//!   per-activation / per-instance hidden state, and runs every fragment
//!   on the same VM; the same tree-walk is its reference.
//! * [`channel`] — the open↔hidden transport abstraction; in-process with a
//!   configurable round-trip cost for deterministic experiments.
//! * [`tcp`] — a real TCP transport (length-prefixed frames of varint
//!   fields, [`wire`]) for running the two halves in separate
//!   processes/machines, with seeded fault injection on its wire.
//! * [`trace`] — the adversary's view: records every value crossing the
//!   channel, feeding the `hps-attack` crate.
//!
//! ## Round-trip batching
//!
//! Hidden calls marked `deferred` by the `hps-core` deferrable-call pass
//! can be buffered and shipped together with the next demanded call as one
//! [`channel::PendingCall`] batch ([`interp::Executor::batching`] /
//! [`interp::ExecConfig::batching`]). On the wire this is one
//! `Request::SeqBatch` frame (tag `0x07`) answered by one
//! `Response::Batch` frame (tag `0x12`) — see [`wire`]. Batching coalesces transport only:
//! the secure side still executes and meters every logical call in order,
//! and [`trace::TraceChannel`] still records each one, so the adversary's
//! view is unchanged.
//!
//! ## Fault tolerance
//!
//! The transport also survives flaky links (DESIGN.md §7b):
//!
//! * [`tcp::TcpChannel::connect_reliable`] opens a *session* and retries
//!   each round trip under a [`tcp::RetryPolicy`] (timeouts, reconnect
//!   with exponential backoff + jitter, sequenced retransmits).
//! * [`tcp::SessionServer`] accepts many clients and keeps each session's
//!   last reply frame — a retried call whose response was lost is
//!   answered with it again, never re-executed. Each connection thread
//!   executes its session's units inside the session's [`shard`]
//!   (`session_id % shards`), a lock around one record per session of
//!   the shard, so sessions on different shards run in parallel with no
//!   thread hand-off on the round trip.
//! * [`tcp::ChaosConfig`] injects seeded faults on the real wire of each
//!   connection — dropped requests, dropped, torn and late replies — and
//!   [`fault::CrashConfig`] kills shards and panics fragments; [`fault`]
//!   derives their per-connection and per-shard streams from one seed.
//! * Crash resilience (DESIGN.md §12): per-request `catch_unwind` panic
//!   isolation, shard deaths (kills, poisoned locks) that drop a shard's
//!   live sessions in one step, and a deterministic per-session
//!   [`journal`] of committed hidden calls — the request payloads as the
//!   server received them, in the one [`wire`] encoding — from which
//!   hidden state is rebuilt by replay — optionally persisted with
//!   `--journal-dir` so a restarted `hps serve` resumes sessions
//!   transparently, and exercised by [`fault::CrashConfig`] injection.
//!
//! Retries and replays are invisible to the adversary: interaction
//! counts, server-side call counts and [`trace::TraceChannel`] events all
//! match the fault-free run, with reliability counters reported separately
//! in [`channel::TransportStats`].
//!
//! ## Telemetry
//!
//! Every layer (interpreter, channels, server, wiretap) carries an
//! optional [`RecorderHandle`] and fires `hps-telemetry` events at its
//! seams — calls, round trips, flushes, retries, faults, fragments. With
//! no recorder attached the hook is a single branch on a `None`; with
//! one, events aggregate into a deterministic
//! [`MetricsSnapshot`] (counters + fixed-bucket histograms over *virtual*
//! quantities only, so snapshots are byte-for-byte reproducible).
//! [`interp::Executor`] is the assembled entry point:
//! `Executor::new(&open, &hidden).batching(true).rtt(10).recorder(r).run(&args)`
//! returns an [`ExecReport`] bundling outcome, transport counters and the
//! telemetry snapshot. Recording never changes results, costs, traces or
//! interaction counts.
//!
//! # Examples
//!
//! Run an ordinary program:
//!
//! ```
//! use hps_runtime::{run_program, RtValue};
//!
//! let program = hps_lang::parse(
//!     "fn main() { var i: int = 0; while (i < 3) { print(i); i = i + 1; } }",
//! )?;
//! let outcome = run_program(&program, &[])?;
//! assert_eq!(outcome.output, ["0", "1", "2"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytecode;
pub mod channel;
pub mod cost;
pub mod error;
pub mod fault;
pub mod interp;
pub mod journal;
#[cfg(test)]
mod open_vm_differential;
mod ops;
#[cfg(test)]
mod reference;
pub mod server;
pub mod shard;
pub mod tcp;
pub mod trace;
pub mod value;
#[cfg(test)]
mod vm_differential;
pub mod wire;

/// Telemetry primitives (recorders, metric names, snapshots) re-exported
/// for callers wiring up [`interp::Executor::recorder`] or the per-channel
/// `with_recorder` builders.
pub use hps_telemetry as telemetry;
pub use hps_telemetry::{MetricsRecorder, MetricsSnapshot, RecorderHandle};

pub use channel::{CallReply, Channel, InProcessChannel, PendingCall, TransportStats};
pub use cost::{CostModel, COST_MODEL};
pub use error::{FaultClass, RuntimeError};
pub use fault::CrashConfig;
pub use interp::{run_program, ExecConfig, ExecReport, Executor, Interp, Outcome, SplitMeta};
pub use journal::SessionJournal;
pub use server::SecureServer;
pub use shard::ShardStats;
pub use tcp::{ChaosConfig, RetryPolicy, ServerStats, SessionServer, SessionServerHandle};
pub use trace::{Trace, TraceChannel, TraceEvent};
pub use value::RtValue;
