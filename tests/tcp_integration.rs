//! The two-machine deployment end to end: a benchmark split with the paper
//! pipeline, its hidden program served over real TCP, the open program
//! driving it through the wire protocol — output must match the unsplit
//! run exactly.

use hiding_program_slices as hps;
use hps::runtime::tcp::{ChaosConfig, RetryPolicy, SessionServer, SessionServerHandle, TcpChannel};
use hps::runtime::{run_program, Channel, ExecConfig, Interp, RuntimeError, SplitMeta};
use hps::security::{default_targets, SeedRule};
use hps::split::split_program;
use std::thread;
use std::time::Duration;

fn rulekit_split() -> (
    hps::suite::Benchmark,
    hps::ir::Program,
    hps::split::SplitResult,
) {
    let b = hps::suite::benchmark("rulekit").expect("exists");
    let program = b.program().expect("parses");
    let plan = default_targets(&program, SeedRule::CostRestricted);
    let split = split_program(&program, &plan).expect("splits");
    (b, program, split)
}

/// Serves `hidden` from a session server on its own thread.
fn serve(
    hidden: hps::ir::HiddenProgram,
) -> (
    SessionServerHandle,
    thread::JoinHandle<Result<(), RuntimeError>>,
) {
    let server = SessionServer::bind("127.0.0.1:0", hidden).expect("bind");
    let handle = server.handle().expect("handle");
    (handle, thread::spawn(move || server.serve(|_, _| {})))
}

#[test]
fn benchmark_split_runs_over_tcp() {
    let (b, program, split) = rulekit_split();
    let (handle, server) = serve(split.hidden.clone());

    let mut channel =
        TcpChannel::connect_reliable(handle.addr(), RetryPolicy::new()).expect("connect");
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let outcome = {
        let mut interp =
            Interp::new(&split.open, ExecConfig::new()).with_channel(&mut channel, &meta);
        interp
            .run("main", &[b.workload(300, 9)])
            .expect("split program runs over TCP")
    };
    let interactions = channel.interactions();
    channel.shutdown().expect("shutdown");
    handle.stop();
    server.join().expect("join").expect("serve");

    let original = run_program(&program, &[b.workload(300, 9)]).expect("original runs");
    assert_eq!(original.output, outcome.output);
    assert!(interactions > 0);
    assert_eq!(handle.stats().calls, interactions);
}

#[test]
fn tcp_channel_reports_server_side_failures() {
    // A client addressing a component the server does not have gets a
    // remote error, not a hang or a protocol break.
    let (handle, server) = serve(hps::ir::HiddenProgram::new());
    let mut channel =
        TcpChannel::connect_reliable(handle.addr(), RetryPolicy::new()).expect("connect");
    let err = channel
        .call(
            hps::ir::ComponentId::new(0),
            1,
            hps::ir::FragLabel::new(0),
            &[],
        )
        .expect_err("unknown component must fail");
    assert!(matches!(err, RuntimeError::Channel(msg) if msg.contains("remote:")));
    channel.shutdown().expect("shutdown");
    handle.stop();
    server.join().expect("join").expect("serve");
}

#[test]
fn benchmark_split_survives_chaos_over_sessions() {
    // The full deployment under fire: a real benchmark against a
    // multi-client session server that keeps killing connections. The
    // reliable channel must deliver the exact fault-free output, and the
    // server must execute each logical call exactly once.
    let (b, program, split) = rulekit_split();
    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
        .expect("bind")
        .with_chaos(ChaosConfig {
            seed: 3,
            kill_per_mille: 60,
        });
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = thread::spawn(move || server.serve(|_, _| {}));

    let policy = RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_max_attempts(16)
        .with_jitter_seed(11);
    let mut channel = TcpChannel::connect_reliable(addr, policy).expect("connect");
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let outcome = {
        let mut interp =
            Interp::new(&split.open, ExecConfig::new()).with_channel(&mut channel, &meta);
        interp
            .run("main", &[b.workload(300, 9)])
            .expect("split program survives chaos")
    };
    let interactions = channel.interactions();
    let stats = channel.transport_stats();
    channel.shutdown().expect("shutdown");

    let original = run_program(&program, &[b.workload(300, 9)]).expect("original runs");
    assert_eq!(original.output, outcome.output, "chaos changed behaviour");
    assert_eq!(
        handle.stats().calls,
        interactions,
        "server-side logical calls must match the client's count exactly"
    );
    assert!(
        handle.stats().chaos_kills == 0 || stats.reconnects > 0,
        "kills must surface as client reconnects"
    );
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn concurrent_clients_share_one_session_server() {
    let (b, program, split) = rulekit_split();
    let (handle, server) = serve(split.hidden.clone());
    let addr = handle.addr();

    let expected = run_program(&program, &[b.workload(200, 5)])
        .expect("original runs")
        .output;
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let (_, _, split) = rulekit_split();
            thread::spawn(move || {
                // Hidden-side values are not Send; build the workload on
                // this thread.
                let input = hps::suite::benchmark("rulekit")
                    .expect("exists")
                    .workload(200, 5);
                let policy = RetryPolicy::new()
                    .with_base_backoff(Duration::from_millis(1))
                    .with_jitter_seed(w);
                let mut channel = TcpChannel::connect_reliable(addr, policy).expect("connect");
                let meta = SplitMeta::derive(&split.open, &split.hidden);
                let outcome = {
                    let mut interp = Interp::new(&split.open, ExecConfig::new())
                        .with_channel(&mut channel, &meta);
                    interp.run("main", &[input]).expect("runs")
                };
                channel.shutdown().expect("shutdown");
                outcome.output
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().expect("worker"), expected);
    }
    assert_eq!(
        handle.stats().sessions,
        3,
        "one isolated session per client"
    );
    handle.stop();
    server.join().expect("join").expect("serve");
}
