//! The recording hook the runtime threads through itself.
//!
//! Instrumented code (interpreter, channels, servers) holds a
//! [`RecorderHandle`] and fires [`Event`]s at it. With no recorder
//! installed the handle is a `None` and every hook costs one branch — the
//! "zero-cost when disabled" contract the `channel_batching` bench guards.
//! With a recorder installed, events update counters and histograms but
//! must never feed back into program behaviour: recording takes `&self`
//! (interior mutability) precisely so a handle can be cloned into several
//! layers (interpreter + channel + fault wrapper) without threading any
//! mutable state through them.

use crate::metrics::{names, MetricsSnapshot};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One instrumentation event. Payloads are deterministic values only —
/// counts, sizes and virtual cost units; never wall-clock readings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// A logical hidden call left the open side.
    Call {
        /// Number of scalar arguments marshalled.
        args: u64,
        /// Virtual cost the secure device reported for this call.
        server_cost: u64,
    },
    /// One wire round trip completed.
    RoundTrip {
        /// Logical calls the round trip carried (1 unless batched).
        calls: u64,
        /// Virtual round-trip latency charged to the open side.
        rtt_cost: u64,
    },
    /// A deferrable hidden call was buffered instead of sent.
    Deferred,
    /// The deferred buffer was flushed.
    Flush {
        /// Buffered calls shipped by this flush.
        pending: u64,
        /// `true` when a demanded (result-bearing) call forced the flush.
        demanded: bool,
    },
    /// An activation/instance release notification was sent.
    Release,
    /// A round trip was attempted again after a fault.
    Retry,
    /// The client re-established its connection.
    Reconnect,
    /// A transport fault was observed.
    Fault,
    /// The secure side executed one fragment.
    Fragment {
        /// Virtual cost units the fragment execution took.
        cost: u64,
    },
    /// The adversary's wiretap captured one logical call.
    TraceEvent,
    /// The open interpreter finished a run.
    OpenRun {
        /// Statements the open side executed.
        steps: u64,
        /// Total virtual cost on the open side's critical path.
        cost: u64,
    },
}

/// The recorder: folds events into a [`MetricsSnapshot`]. Records through
/// `&self`, so one recorder can be shared (via [`RecorderHandle`] clones)
/// by every instrumented layer of a run.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    metrics: RefCell<MetricsSnapshot>,
}

impl MetricsRecorder {
    /// A recorder with empty metrics.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    /// A copy of the metrics accumulated so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.borrow().clone()
    }

    /// Records one event.
    pub fn record(&self, event: &Event) {
        let mut m = self.metrics.borrow_mut();
        match *event {
            Event::Call { args, server_cost } => {
                m.inc(names::CALLS);
                m.observe(names::CALL_ARGS, args);
                m.add(names::SERVER_COST_UNITS, server_cost);
            }
            Event::RoundTrip { calls, rtt_cost } => {
                m.inc(names::INTERACTIONS);
                m.observe(names::BATCH_SIZE, calls);
                m.add(names::RTT_COST_UNITS, rtt_cost);
                if calls > 1 {
                    m.inc(names::BATCHES);
                }
            }
            Event::Deferred => m.inc(names::DEFERRED_CALLS),
            Event::Flush { pending, demanded } => {
                m.inc(names::FLUSHES);
                m.observe(names::FLUSH_PENDING, pending);
                if demanded {
                    m.inc(names::DEMAND_FLUSHES);
                }
            }
            Event::Release => m.inc(names::RELEASES),
            Event::Retry => m.inc(names::RETRIES),
            Event::Reconnect => m.inc(names::RECONNECTS),
            Event::Fault => m.inc(names::FAULTS),
            Event::Fragment { cost } => {
                m.inc(names::FRAGMENTS);
                m.observe(names::FRAGMENT_COST_UNITS, cost);
            }
            Event::TraceEvent => m.inc(names::TRACE_EVENTS),
            Event::OpenRun { steps, cost } => {
                m.add(names::OPEN_STEPS, steps);
                m.add(names::RUN_COST_UNITS, cost);
            }
        }
    }
}

/// A cheap, cloneable, optional reference to a [`MetricsRecorder`].
///
/// This is what instrumented structs store: default (disabled) costs one
/// `Option` branch per hook and allocates nothing. `Rc` (not `Arc`)
/// because recording stays on the thread that runs the open program —
/// threaded servers aggregate through atomics instead (see
/// `hps-runtime::tcp::ServerStats`).
#[derive(Clone, Default)]
pub struct RecorderHandle(Option<Rc<MetricsRecorder>>);

impl RecorderHandle {
    /// The disabled handle: every [`RecorderHandle::record`] is a no-op.
    pub fn none() -> RecorderHandle {
        RecorderHandle(None)
    }

    /// A handle delivering events to `recorder`.
    pub fn new(recorder: Rc<MetricsRecorder>) -> RecorderHandle {
        RecorderHandle(Some(recorder))
    }

    /// `true` when a recorder is installed.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Delivers one event, or does nothing when disabled.
    #[inline]
    pub fn record(&self, event: Event) {
        if let Some(recorder) = &self.0 {
            recorder.record(&event);
        }
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "RecorderHandle(enabled)"
        } else {
            "RecorderHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_ignores_events() {
        let handle = RecorderHandle::none();
        assert!(!handle.is_enabled());
        handle.record(Event::Release); // must not panic or allocate state
    }

    #[test]
    fn events_map_to_registered_metrics() {
        let recorder = Rc::new(MetricsRecorder::new());
        let handle = RecorderHandle::new(recorder.clone());
        assert!(handle.is_enabled());
        handle.record(Event::Call {
            args: 2,
            server_cost: 40,
        });
        handle.record(Event::RoundTrip {
            calls: 3,
            rtt_cost: 3000,
        });
        handle.record(Event::Flush {
            pending: 2,
            demanded: true,
        });
        handle.record(Event::Fault);
        handle.record(Event::Fault);
        handle.record(Event::OpenRun {
            steps: 10,
            cost: 12345,
        });
        let m = recorder.snapshot();
        assert_eq!(m.counter(names::CALLS), 1);
        assert_eq!(m.counter(names::SERVER_COST_UNITS), 40);
        assert_eq!(m.counter(names::INTERACTIONS), 1);
        assert_eq!(m.counter(names::BATCHES), 1);
        assert_eq!(m.counter(names::RTT_COST_UNITS), 3000);
        assert_eq!(m.counter(names::DEMAND_FLUSHES), 1);
        assert_eq!(m.counter(names::FAULTS), 2);
        assert_eq!(m.counter(names::OPEN_STEPS), 10);
        assert_eq!(m.counter(names::RUN_COST_UNITS), 12345);
        assert_eq!(m.histogram(names::BATCH_SIZE).unwrap().max(), Some(3));
    }

    #[test]
    fn clones_share_one_recorder() {
        let recorder = Rc::new(MetricsRecorder::new());
        let a = RecorderHandle::new(recorder.clone());
        let b = a.clone();
        a.record(Event::Retry);
        b.record(Event::Retry);
        assert_eq!(recorder.snapshot().counter(names::RETRIES), 2);
        assert_eq!(format!("{a:?}"), "RecorderHandle(enabled)");
    }
}
