//! Cross-shard equivalence over the whole benchmark suite: sharding is a
//! pure throughput knob. For every benchmark, a client running against a
//! real TCP [`SessionServer`] must observe byte-identical program output,
//! an identical adversary trace and identical interaction counts whether
//! the server runs one shard or four — and both must match the
//! in-process reference run. Server-side logical call counts must agree
//! with the in-process server too, so shard routing neither duplicates
//! nor drops work.

use hps_core::{split_program, SplitPlan};
use hps_runtime::tcp::TcpChannel;
use hps_runtime::{
    Channel, ExecConfig, InProcessChannel, Interp, RetryPolicy, SecureServer, SessionServer,
    SplitMeta, Trace, TraceChannel,
};
use std::time::Duration;

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

struct RunResult {
    output: Vec<String>,
    trace: Trace,
    interactions: u64,
    calls_served: u64,
}

/// Runs one split benchmark over `channel`, recording the adversary view.
fn run_traced(
    open: &hps_ir::Program,
    meta: &SplitMeta,
    input: hps_runtime::RtValue,
    channel: &mut dyn Channel,
) -> (Vec<String>, Trace) {
    let mut trace = TraceChannel::new(channel);
    let outcome = {
        let mut interp = Interp::new(open, ExecConfig::new()).with_channel(&mut trace, meta);
        interp.run("main", &[input]).expect("split run")
    };
    (outcome.output, trace.into_trace())
}

/// One client run against a TCP server at the given shard count.
fn run_sharded(
    b: &hps_suite::Benchmark,
    split: &hps_core::SplitResult,
    meta: &SplitMeta,
    shards: usize,
) -> RunResult {
    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
        .expect("bind")
        .with_shards(shards);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));

    let policy = RetryPolicy::new().with_base_backoff(Duration::from_millis(1));
    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, 1).expect("connect");
    let (output, trace) = run_traced(&split.open, meta, b.workload(600, 77), &mut chan);
    let interactions = chan.interactions();
    chan.shutdown().expect("shutdown");

    handle.stop();
    serve.join().expect("serve thread").expect("serve ok");
    let stats = handle.stats();
    let shard_stats = handle.shard_stats();
    assert_eq!(shard_stats.len(), shards, "{}: one entry per shard", b.name);
    assert_eq!(
        shard_stats.iter().map(|s| s.calls).sum::<u64>(),
        stats.calls,
        "{}: per-shard call counters must sum to the server total",
        b.name
    );
    // One execution path: every executed call compiled or hit the VM cache.
    assert_eq!(
        stats.vm_compiles + stats.vm_cache_hits,
        stats.calls,
        "{} shards={shards}: vm compiles + cache hits must equal calls",
        b.name
    );
    RunResult {
        output,
        trace,
        interactions,
        calls_served: stats.calls,
    }
}

#[test]
fn sharding_is_invisible_to_output_trace_and_counts() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        if plan.targets.is_empty() {
            continue;
        }
        let split = split_program(&program, &plan).expect("splits");
        let meta = SplitMeta::derive(&split.open, &split.hidden);

        let baseline = {
            let server = SecureServer::new(split.hidden.clone());
            let mut chan = InProcessChannel::new(server);
            let (output, trace) = run_traced(&split.open, &meta, b.workload(600, 77), &mut chan);
            RunResult {
                output,
                trace,
                interactions: chan.interactions(),
                calls_served: chan.server().calls_served(),
            }
        };

        for shards in [1usize, 4] {
            let run = run_sharded(&b, &split, &meta, shards);
            let cell = format!("{} shards={shards}", b.name);
            assert_eq!(
                baseline.output, run.output,
                "{cell}: program output diverged"
            );
            assert_eq!(
                baseline.trace, run.trace,
                "{cell}: adversary trace diverged"
            );
            assert_eq!(
                baseline.interactions, run.interactions,
                "{cell}: interaction count diverged"
            );
            assert_eq!(
                baseline.calls_served, run.calls_served,
                "{cell}: server-side logical call count diverged"
            );
        }
    }
}
