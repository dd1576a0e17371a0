//! The adversary's wiretap.
//!
//! The paper's threat model: "an adversary … must study the interactions
//! between the open and hidden components and attempt to construct the
//! missing hidden code", observing "the values being exchanged by `Of` and
//! `Hf` over a period of time". [`TraceChannel`] wraps any [`Channel`] and
//! records exactly that observable information — the label, arguments and
//! returned value of every call, in order — and nothing more (in
//! particular, no hidden state). The `hps-attack` crate consumes the
//! resulting [`Trace`].
//!
//! **Retries are invisible here.** The reliability layer
//! ([`crate::fault::FaultyChannel`], [`crate::tcp::TcpChannel`]) lives
//! *below* this wiretap: a retransmit re-delivers the
//! same logical call and a replay re-delivers its cached response, so a
//! faulty run produces exactly the event sequence of the fault-free run.
//! The adversary's view — and the paper's interaction counts (Table 5) —
//! are invariant under transport faults; turbulence shows up only in
//! [`Channel::transport_stats`].

use crate::channel::{CallReply, Channel, PendingCall, TransportStats};
use crate::error::RuntimeError;
use hps_ir::{ComponentId, FragLabel, Value};
use hps_telemetry::{Event, RecorderHandle};

/// One observed logical call (a batched round trip contributes one event
/// per call it carries — the payload is fully visible on the wire either
/// way, so transport coalescing never shrinks the adversary's view).
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// Position in the global interaction order.
    pub seq: u64,
    /// Addressed component.
    pub component: ComponentId,
    /// Activation / instance key (visible on the wire).
    pub key: u64,
    /// Fragment label.
    pub label: FragLabel,
    /// Scalars sent open → hidden.
    pub args: Vec<Value>,
    /// Scalar returned hidden → open.
    pub ret: Value,
}

/// Everything an adversary on the open machine can record.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Trace {
    /// Observed round trips, in order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Distinct `(component, label)` pairs observed.
    pub fn call_sites(&self) -> Vec<(ComponentId, FragLabel)> {
        let mut out: Vec<(ComponentId, FragLabel)> =
            self.events.iter().map(|e| (e.component, e.label)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Events belonging to one activation/instance of one component, in
    /// order — the adversary groups observations this way to correlate
    /// values sent earlier with values returned later.
    pub fn session(&self, component: ComponentId, key: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.component == component && e.key == key)
            .collect()
    }

    /// Distinct keys observed for a component.
    pub fn keys_of(&self, component: ComponentId) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.component == component)
            .map(|e| e.key)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A [`Channel`] wrapper that records every interaction.
pub struct TraceChannel<'a> {
    inner: &'a mut dyn Channel,
    trace: Trace,
    recorder: RecorderHandle,
}

impl<'a> TraceChannel<'a> {
    /// Wraps a channel.
    pub fn new(inner: &'a mut dyn Channel) -> TraceChannel<'a> {
        TraceChannel {
            inner,
            trace: Trace::default(),
            recorder: RecorderHandle::none(),
        }
    }

    /// Attaches a telemetry recorder that counts recorded wiretap events
    /// (builder style). Recording never changes the trace itself.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> TraceChannel<'a> {
        self.recorder = recorder;
        self
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the wrapper, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Channel for TraceChannel<'_> {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        let reply = self.inner.call(component, key, label, args)?;
        self.trace.events.push(TraceEvent {
            seq: self.trace.events.len() as u64,
            component,
            key,
            label,
            args: args.to_vec(),
            ret: reply.value,
        });
        self.recorder.record(Event::TraceEvent);
        Ok(reply)
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        let replies = self.inner.call_batch(calls)?;
        // One event per logical call: the batch frame spells out every
        // component/key/label/args tuple and every returned value.
        for (c, reply) in calls.iter().zip(&replies) {
            self.trace.events.push(TraceEvent {
                seq: self.trace.events.len() as u64,
                component: c.component,
                key: c.key,
                label: c.label,
                args: c.args.clone(),
                ret: reply.value,
            });
            self.recorder.record(Event::TraceEvent);
        }
        Ok(replies)
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        self.inner.release(component, key)
    }

    fn interactions(&self) -> u64 {
        self.inner.interactions()
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeChannel(u64);

    impl Channel for FakeChannel {
        fn call(
            &mut self,
            _c: ComponentId,
            _k: u64,
            _l: FragLabel,
            args: &[Value],
        ) -> Result<CallReply, RuntimeError> {
            self.0 += 1;
            let v = args.first().copied().unwrap_or(Value::Int(0));
            Ok(CallReply {
                value: v,
                server_cost: 1,
            })
        }

        fn release(&mut self, _c: ComponentId, _k: u64) -> Result<(), RuntimeError> {
            Ok(())
        }

        fn interactions(&self) -> u64 {
            self.0
        }

        fn rtt_cost(&self) -> u64 {
            3
        }
    }

    #[test]
    fn records_calls_in_order() {
        let mut inner = FakeChannel(0);
        let mut tc = TraceChannel::new(&mut inner);
        let c0 = ComponentId::new(0);
        let l0 = FragLabel::new(0);
        let l1 = FragLabel::new(1);
        tc.call(c0, 1, l0, &[Value::Int(5)]).unwrap();
        tc.call(c0, 1, l1, &[]).unwrap();
        tc.call(c0, 2, l0, &[Value::Int(7)]).unwrap();
        let trace = tc.into_trace();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events[0].ret, Value::Int(5));
        let site = |e: &&TraceEvent| e.component == c0 && e.label == l0;
        assert_eq!(trace.events.iter().filter(site).count(), 2);
        assert_eq!(trace.call_sites(), vec![(c0, l0), (c0, l1)]);
        assert_eq!(trace.keys_of(c0), vec![1, 2]);
        assert_eq!(trace.session(c0, 1).len(), 2);
    }

    #[test]
    fn batches_record_every_logical_call() {
        let mut inner = FakeChannel(0);
        let mut tc = TraceChannel::new(&mut inner);
        let c0 = ComponentId::new(0);
        let calls = vec![
            PendingCall {
                component: c0,
                key: 1,
                label: FragLabel::new(0),
                args: vec![Value::Int(5)],
            },
            PendingCall {
                component: c0,
                key: 2,
                label: FragLabel::new(1),
                args: vec![],
            },
        ];
        tc.call_batch(&calls).unwrap();
        let trace = tc.into_trace();
        assert_eq!(trace.events.len(), 2, "one event per logical call");
        assert_eq!(trace.events[0].ret, Value::Int(5));
        assert_eq!(trace.events[1].seq, 1);
        assert_eq!(trace.keys_of(c0), vec![1, 2]);
    }

    #[test]
    fn faulty_transport_leaves_the_trace_invariant() {
        use crate::fault::{FaultKind, FaultPlan, FaultyChannel};
        // The same workload through a clean channel and through a channel
        // under heavy injected faults: the adversary's recording must be
        // byte-for-byte identical, with turbulence visible only in the
        // transport stats.
        let workload = |chan: &mut dyn Channel| -> Trace {
            let mut tc = TraceChannel::new(chan);
            let c0 = ComponentId::new(0);
            for n in 0..12 {
                tc.call(c0, n % 3, FragLabel::new(0), &[Value::Int(n as i64)])
                    .unwrap();
            }
            tc.into_trace()
        };
        let mut clean = FakeChannel(0);
        let clean_trace = workload(&mut clean);
        let mut faulty = FaultyChannel::new(
            FakeChannel(0),
            FaultPlan::new(0xbad5eed, &FaultKind::ALL, 300),
        );
        let faulty_trace = workload(&mut faulty);
        assert_eq!(clean_trace, faulty_trace);
        assert_eq!(faulty.inner().0, clean.0, "same logical calls delivered");
        assert!(faulty.transport_stats().faults > 0, "faults must fire");
    }

    #[test]
    fn passthrough_preserves_costs() {
        let mut inner = FakeChannel(0);
        let mut tc = TraceChannel::new(&mut inner);
        assert_eq!(tc.rtt_cost(), 3);
        tc.call(ComponentId::new(0), 1, FragLabel::new(0), &[])
            .unwrap();
        assert_eq!(tc.interactions(), 1);
        tc.release(ComponentId::new(0), 1).unwrap();
    }
}
