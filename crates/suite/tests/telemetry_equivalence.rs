//! Recording must be a pure observation: across the whole benchmark
//! suite, runs with and without a recorder attached are byte-identical in
//! everything the program, the paper's measurements and the adversary can
//! see — output, virtual cost, step counts, interaction counts, transport
//! stats and the wiretap trace. The recorder only *adds* the snapshot.

use std::rc::Rc;

use hps_core::{split_program, SplitPlan};
use hps_runtime::{
    Channel, ExecConfig, Executor, InProcessChannel, Interp, MetricsRecorder, RecorderHandle,
    SecureServer, SplitMeta, Trace, TraceChannel,
};

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

#[test]
fn executor_reports_identical_with_and_without_recorder() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let split = split_program(&program, &paper_plan(&program)).expect("splits");
        for &batching in &[false, true] {
            let plain = Executor::new(&split.open, &split.hidden)
                .batching(batching)
                .rtt(10)
                .run(&[b.workload(600, 77)])
                .expect("plain run");
            let recorded = Executor::new(&split.open, &split.hidden)
                .batching(batching)
                .rtt(10)
                .recorder(MetricsRecorder::new())
                .run(&[b.workload(600, 77)])
                .expect("recorded run");
            let cell = format!("{} batching={batching}", b.name);
            assert_eq!(plain.outcome, recorded.outcome, "{cell}: outcome diverged");
            assert_eq!(
                plain.interactions, recorded.interactions,
                "{cell}: interactions diverged"
            );
            assert_eq!(
                plain.server_cost, recorded.server_cost,
                "{cell}: server cost diverged"
            );
            assert_eq!(
                plain.transport, recorded.transport,
                "{cell}: transport stats diverged"
            );
            // The only difference the recorder makes: the snapshot exists.
            assert!(plain.telemetry.is_empty(), "{cell}: phantom telemetry");
            assert!(
                !recorded.telemetry.is_empty(),
                "{cell}: recorder captured nothing"
            );
        }
    }
}

/// One wiretapped run; `recorder` optionally observes every layer.
fn traced_run(
    split: &hps_core::SplitResult,
    input: hps_runtime::RtValue,
    recorder: Option<&Rc<MetricsRecorder>>,
) -> (Vec<String>, Trace, u64) {
    let handle = match recorder {
        Some(r) => RecorderHandle::new(Rc::clone(r)),
        None => RecorderHandle::none(),
    };
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let server = SecureServer::new(split.hidden.clone()).with_recorder(handle.clone());
    let mut chan = InProcessChannel::new(server).with_recorder(handle.clone());
    let mut trace = TraceChannel::new(&mut chan).with_recorder(handle.clone());
    let outcome = {
        let mut interp = Interp::new(&split.open, ExecConfig::new())
            .with_channel(&mut trace, &meta)
            .with_recorder(handle);
        interp.run("main", &[input]).expect("split run")
    };
    let trace = trace.into_trace();
    (outcome.output, trace, chan.interactions())
}

#[test]
fn adversary_trace_is_identical_with_recorder_attached() {
    // The wiretap (what the attacker sees) must not notice telemetry: the
    // recorded run's trace is the same event-for-event, value-for-value.
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        if plan.targets.is_empty() {
            continue;
        }
        let split = split_program(&program, &plan).expect("splits");
        let (plain_out, plain_trace, plain_inter) = traced_run(&split, b.workload(600, 77), None);
        let recorder = Rc::new(MetricsRecorder::new());
        let (rec_out, rec_trace, rec_inter) =
            traced_run(&split, b.workload(600, 77), Some(&recorder));

        assert_eq!(plain_out, rec_out, "{}: output diverged", b.name);
        assert_eq!(plain_trace, rec_trace, "{}: wiretap diverged", b.name);
        assert_eq!(plain_inter, rec_inter, "{}: interactions diverged", b.name);

        // And the recorder saw the same world the wiretap did.
        use hps_runtime::telemetry::metrics::names;
        let m = recorder.snapshot();
        assert_eq!(
            m.counter(names::TRACE_EVENTS),
            plain_trace.events.len() as u64,
            "{}: trace-event counter drifted from the wiretap",
            b.name
        );
        assert_eq!(
            m.counter(names::INTERACTIONS),
            plain_inter,
            "{}: interaction counter drifted from the channel",
            b.name
        );
    }
}
