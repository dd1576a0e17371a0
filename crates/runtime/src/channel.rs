//! The open↔hidden transport abstraction.

use crate::error::RuntimeError;
use crate::server::SecureServer;
use hps_ir::{ComponentId, FragLabel, Value};
use hps_telemetry::{Event, RecorderHandle};

// `TransportStats` moved into `hps-telemetry` so transports, reports and
// serialized snapshots share one definition; re-exported here so existing
// `crate::channel::TransportStats` paths keep working.
pub use hps_telemetry::TransportStats;

/// Reply to a fragment call: the returned scalar plus the virtual cost the
/// secure device reported (the open side waits for the reply, so that cost
/// is on the critical path).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CallReply {
    /// The value returned by the fragment (`Int(0)` for "any").
    pub value: Value,
    /// Virtual cost units spent on the secure device.
    pub server_cost: u64,
}

/// One buffered fragment call awaiting transport, produced by the open
/// interpreter when it defers calls marked by the `hps-core` deferrable-call
/// pass. Arguments are already evaluated to scalars, so shipping a batch
/// later cannot change what the fragment observes.
#[derive(Clone, PartialEq, Debug)]
pub struct PendingCall {
    /// Which hidden component the fragment belongs to.
    pub component: ComponentId,
    /// Activation / instance key routing the call to its hidden state.
    pub key: u64,
    /// Which fragment to run.
    pub label: FragLabel,
    /// Evaluated scalar arguments.
    pub args: Vec<Value>,
}

/// Transport between the open component and the secure device.
///
/// Implementations: [`InProcessChannel`] (deterministic, used by tests and
/// the virtual-time experiments), [`crate::tcp::TcpChannel`] (real sockets),
/// [`crate::trace::TraceChannel`] (adversary's wiretap wrapper).
pub trait Channel {
    /// Runs fragment `label` of `component` for activation/instance `key`.
    ///
    /// # Errors
    ///
    /// Propagates secure-side execution errors and transport failures.
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError>;

    /// Runs a batch of logical fragment calls in order and returns one
    /// reply per call.
    ///
    /// Transports that understand batching serve the whole slice in a
    /// single round trip (one [`Channel::interactions`] tick); the default
    /// implementation degrades to one [`Channel::call`] per entry so
    /// existing channel implementations keep working unchanged.
    ///
    /// # Errors
    ///
    /// Propagates secure-side execution errors and transport failures; a
    /// failing call aborts the rest of the batch.
    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        calls
            .iter()
            .map(|c| self.call(c.component, c.key, c.label, &c.args))
            .collect()
    }

    /// Notifies the secure side that activation/instance `key` is finished
    /// and its hidden state may be freed.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError>;

    /// Number of round-trip interactions so far (fragment calls; release
    /// notifications are fire-and-forget and not counted, matching the
    /// paper's "Component Interactions").
    fn interactions(&self) -> u64;

    /// Virtual cost units one round trip adds to the open side's critical
    /// path (0 for cost-free test channels).
    fn rtt_cost(&self) -> u64;

    /// Reliability counters (retries, reconnects, faults, replays).
    /// Fault-free transports report all-zero; [`crate::tcp::TcpChannel`]
    /// overrides this.
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// A channel that delivers calls directly to an in-process
/// [`SecureServer`], charging a configurable virtual round-trip latency.
#[derive(Debug)]
pub struct InProcessChannel {
    server: SecureServer,
    rtt: u64,
    interactions: u64,
    recorder: RecorderHandle,
}

impl InProcessChannel {
    /// Creates a channel with zero round-trip cost.
    pub fn new(server: SecureServer) -> InProcessChannel {
        InProcessChannel {
            server,
            rtt: 0,
            interactions: 0,
            recorder: RecorderHandle::none(),
        }
    }

    /// Sets the virtual round-trip cost (builder style).
    pub fn with_rtt(mut self, rtt: u64) -> InProcessChannel {
        self.rtt = rtt;
        self
    }

    /// Attaches a telemetry recorder (builder style). Recording never
    /// changes replies, costs or interaction counts.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> InProcessChannel {
        self.recorder = recorder;
        self
    }

    /// Access to the wrapped server (e.g. to inspect state in tests).
    pub fn server(&self) -> &SecureServer {
        &self.server
    }
}

impl Channel for InProcessChannel {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        self.interactions += 1;
        let out = self.server.call(component, key, label, args)?;
        self.recorder.record(Event::Call {
            args: args.len() as u64,
            server_cost: out.cost,
        });
        self.recorder.record(Event::RoundTrip {
            calls: 1,
            rtt_cost: self.rtt,
        });
        Ok(CallReply {
            value: out.value,
            server_cost: out.cost,
        })
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        // One round trip carries the whole batch; the server still executes
        // (and meters) every logical call.
        self.interactions += 1;
        let outs = self.server.call_batch(calls)?;
        for (call, out) in calls.iter().zip(&outs) {
            self.recorder.record(Event::Call {
                args: call.args.len() as u64,
                server_cost: out.cost,
            });
        }
        self.recorder.record(Event::RoundTrip {
            calls: calls.len() as u64,
            rtt_cost: self.rtt,
        });
        Ok(outs
            .into_iter()
            .map(|out| CallReply {
                value: out.value,
                server_cost: out.cost,
            })
            .collect())
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        self.server.release(component, key);
        self.recorder.record(Event::Release);
        Ok(())
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn rtt_cost(&self) -> u64 {
        self.rtt
    }
}
