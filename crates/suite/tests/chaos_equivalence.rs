//! Adversary-view invariance under faults, over the whole benchmark
//! suite. Seeded faults on the real wire of a sharded [`SessionServer`]
//! (dropped requests, dropped, torn and late replies) and crash faults
//! (shard kills, fragment panics, torn journals) must leave program
//! output, server-side logical call counts, interaction counts and the
//! adversary trace byte-identical to the fault-free run — with the
//! turbulence visible only in the transport stats.
//!
//! CI pins one seed per job via `HPS_CHAOS_SEED` (and one crash fault via
//! `HPS_CRASH_FAULT`), and uploads the recovery logs written to
//! `target/chaos-logs/` when a recovery cell fails.

use hps_core::{split_program, SplitPlan};
use hps_runtime::journal::truncate_tail;
use hps_runtime::tcp::TcpChannel;
use hps_runtime::telemetry::metrics::names;
use hps_runtime::{
    Channel, ChaosConfig, CrashConfig, ExecConfig, InProcessChannel, Interp, MetricsRecorder,
    Recorder, RecorderHandle, RetryPolicy, SecureServer, SessionServer, SplitMeta, Trace,
    TraceChannel,
};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One kind of injectable *crash* fault, a cell of the chaos-recovery
/// matrix: these do not perturb wire frames but kill whole shards, panic
/// mid-fragment, or damage the on-disk journal. The recovery layer
/// (DESIGN.md §12) must survive all of them without changing the
/// adversary-visible trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CrashFault {
    /// A shard dies mid-stream, dropping its live sessions, which must be
    /// rebuilt from their journals.
    ShardKill,
    /// A fragment panics mid-execution; `catch_unwind` must contain the
    /// damage to the offending session.
    Panic,
    /// The tail of an on-disk journal is cut short (torn write at crash
    /// time); replay must stop at the last intact frame and the client's
    /// resume path must re-drive the missing suffix.
    Truncate,
}

impl CrashFault {
    const ALL: [CrashFault; 3] = [
        CrashFault::ShardKill,
        CrashFault::Panic,
        CrashFault::Truncate,
    ];

    /// The CI matrix cell label, also the `HPS_CRASH_FAULT` spelling.
    fn name(self) -> &'static str {
        match self {
            CrashFault::ShardKill => "shard-kill",
            CrashFault::Panic => "panic",
            CrashFault::Truncate => "truncate",
        }
    }
}

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

/// The seed selected by the environment, or every default seed.
fn seeds() -> Vec<u64> {
    match std::env::var("HPS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("HPS_CHAOS_SEED must be an integer")],
        Err(_) => vec![1, 2, 3, 4],
    }
}

/// Runs one split benchmark over `channel`, recording the adversary view.
fn run_traced(
    open: &hps_ir::Program,
    meta: &SplitMeta,
    input: hps_runtime::RtValue,
    config: ExecConfig,
    channel: &mut dyn Channel,
) -> (Vec<String>, Trace) {
    let mut trace = TraceChannel::new(channel);
    let outcome = {
        let mut interp = Interp::new(open, config).with_channel(&mut trace, meta);
        interp.run("main", &[input]).expect("split run")
    };
    (outcome.output, trace.into_trace())
}

fn chaos_log_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-logs");
    std::fs::create_dir_all(&dir).expect("create chaos log dir");
    dir
}

/// The reliability matrix over the whole suite: each benchmark, batched
/// and unbatched, runs against a real four-shard TCP [`SessionServer`]
/// whose wire [`ChaosConfig`] faults. None of it may leak into the
/// program output, the adversary trace, the interaction count or the
/// server's logical call count. The client carries a telemetry recorder:
/// recording must survive chaos without perturbing anything, and the
/// counters it aggregates must agree with the transport stats.
#[test]
fn chaos_matrix_holds_on_sharded_tcp_server() {
    let mut total_faults = 0u64;
    let mut total_kills = 0u64;
    for seed in seeds() {
        for b in hps_suite::benchmarks() {
            let program = b.program().expect("parses");
            let plan = paper_plan(&program);
            if plan.targets.is_empty() {
                continue;
            }
            let split = split_program(&program, &plan).expect("splits");
            let meta = SplitMeta::derive(&split.open, &split.hidden);
            for batching in [false, true] {
                let config = || ExecConfig::new().with_batching(batching);
                let baseline = {
                    let server = SecureServer::new(split.hidden.clone());
                    let mut chan = InProcessChannel::new(server);
                    let (output, trace) =
                        run_traced(&split.open, &meta, b.workload(300, 77), config(), &mut chan);
                    (
                        output,
                        trace,
                        chan.interactions(),
                        chan.server().calls_served(),
                    )
                };

                let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                    .expect("bind")
                    .with_shards(4)
                    .with_chaos(ChaosConfig {
                        seed,
                        per_mille: 150,
                    });
                let handle = server.handle().expect("handle");
                let addr = handle.addr();
                let serve = std::thread::spawn(move || server.serve(|_, _| {}));

                // A per-attempt timeout below the server's late-reply pause,
                // so late replies force retransmits.
                let policy = RetryPolicy::new()
                    .with_base_backoff(Duration::from_millis(1))
                    .with_timeout(Duration::from_millis(100))
                    .with_max_attempts(12)
                    .with_jitter_seed(seed);
                let recorder = Rc::new(MetricsRecorder::new());
                let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, seed)
                    .expect("connect")
                    .with_recorder(RecorderHandle::new(Rc::clone(&recorder) as Rc<dyn Recorder>));
                let (output, trace) =
                    run_traced(&split.open, &meta, b.workload(300, 77), config(), &mut chan);
                let interactions = chan.interactions();
                let transport = chan.transport_stats();
                chan.shutdown().expect("shutdown");

                handle.stop();
                serve.join().expect("serve thread").expect("serve ok");
                let stats = handle.stats();

                let cell = format!("{} seed={seed} batching={batching} shards=4", b.name);
                assert_eq!(baseline.0, output, "{cell}: program output diverged");
                assert_eq!(baseline.1, trace, "{cell}: adversary trace diverged");
                assert_eq!(
                    baseline.2, interactions,
                    "{cell}: interaction count diverged"
                );
                assert_eq!(
                    baseline.3, stats.calls,
                    "{cell}: server-side logical call count diverged"
                );
                let m = recorder.snapshot();
                for (name, count) in [
                    (names::RETRIES, transport.retries),
                    (names::RECONNECTS, transport.reconnects),
                    (names::FAULTS, transport.faults),
                    (names::INTERACTIONS, interactions),
                ] {
                    assert_eq!(
                        m.counter(name),
                        count,
                        "{cell}: telemetry {name} drifted from the channel"
                    );
                }
                total_faults += transport.faults;
                total_kills += stats.chaos_kills;
            }
        }
    }
    assert!(
        total_faults > 0,
        "a 15% wire fault rate across the suite must reach the client"
    );
    assert!(
        total_kills > 0,
        "a 15% wire fault rate across the suite must close a connection"
    );
}

/// The crash-recovery matrix cell selected by the environment
/// (`HPS_CHAOS_SEED` / `HPS_CRASH_FAULT`), or the full default matrix.
fn crash_matrix() -> Vec<(u64, CrashFault)> {
    let seeds: Vec<u64> = match std::env::var("HPS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("HPS_CHAOS_SEED must be an integer")],
        Err(_) => vec![1, 2],
    };
    let faults: Vec<CrashFault> = match std::env::var("HPS_CRASH_FAULT") {
        Ok(s) => {
            let fault = CrashFault::ALL.into_iter().find(|f| f.name() == s);
            vec![fault.expect("HPS_CRASH_FAULT must name a crash fault")]
        }
        Err(_) => CrashFault::ALL.to_vec(),
    };
    seeds
        .into_iter()
        .flat_map(|s| faults.iter().map(move |f| (s, *f)))
        .collect()
}

/// The crash-recovery matrix (DESIGN.md §12): for every suite benchmark
/// and every (seed, crash-fault) cell — shards killed mid-session,
/// injected mid-fragment panics, or a full server restart over a torn
/// `--journal-dir` journal — the client-observed program output, the
/// interaction count and the adversary's wiretap trace must be
/// byte-identical to the fault-free run. Recovery may spend wall-clock
/// time; it may never change what the adversary sees.
#[test]
fn recovery_matrix_is_invisible_to_the_adversary() {
    let matrix = crash_matrix();
    let mut total_restarts = 0u64;
    let mut total_panics = 0u64;
    let mut total_replays = 0u64;
    for &(seed, fault) in &matrix {
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
                let (output, trace) = run_traced(
                    &split.open,
                    &meta,
                    b.workload(300, 77),
                    ExecConfig::new(),
                    &mut chan,
                );
                (
                    output,
                    trace,
                    chan.interactions(),
                    chan.server().calls_served(),
                )
            };

            let session = seed.max(1);
            let policy = RetryPolicy::new()
                .with_base_backoff(Duration::from_millis(1))
                .with_max_attempts(20)
                .with_jitter_seed(seed);
            let cell = format!("{} seed={seed} crash={}", b.name, fault.name());

            let (output, trace, interactions, report) = match fault {
                CrashFault::ShardKill | CrashFault::Panic => {
                    let crash = if fault == CrashFault::ShardKill {
                        CrashConfig {
                            seed,
                            shard_kill_per_mille: 60,
                            panic_per_mille: 0,
                        }
                    } else {
                        CrashConfig {
                            seed,
                            shard_kill_per_mille: 0,
                            panic_per_mille: 30,
                        }
                    };
                    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                        .expect("bind")
                        .with_shards(2)
                        .with_crash(crash);
                    let handle = server.handle().expect("handle");
                    let addr = handle.addr();
                    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
                    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, session)
                        .expect("connect");
                    let (output, trace) = run_traced(
                        &split.open,
                        &meta,
                        b.workload(300, 77),
                        ExecConfig::new(),
                        &mut chan,
                    );
                    let interactions = chan.interactions();
                    let _ = chan.shutdown();
                    handle.stop();
                    serve.join().expect("serve thread").expect("serve ok");
                    let stats = handle.stats();
                    // One live server the whole run: exactly-once must hold
                    // across every shard death and rebuild.
                    assert_eq!(
                        baseline.3, stats.calls,
                        "{cell}: server-side logical call count diverged"
                    );
                    total_restarts += stats.shard_restarts;
                    total_panics += stats.panics_caught;
                    total_replays += stats.journal_replays;
                    (output, trace, interactions, stats)
                }
                CrashFault::Truncate => {
                    // Full restart over a torn disk journal, mid-run: a
                    // controller thread stops the server once the run is in
                    // flight, tears the journal tail, and rebinds the same
                    // address; the client rides through on reconnect +
                    // session resume.
                    let dir = std::env::temp_dir().join(format!(
                        "hps-crash-{}-{}-{seed}",
                        std::process::id(),
                        b.name
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                        .expect("bind")
                        .with_journal_dir(&dir);
                    let handle = server.handle().expect("handle");
                    let addr = handle.addr();
                    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
                    let controller = {
                        let hidden = split.hidden.clone();
                        let dir = dir.clone();
                        std::thread::spawn(move || {
                            // Strike once the run is demonstrably mid-flight
                            // (fast benchmarks may finish first; the cell
                            // then simply restarts an idle server).
                            let t0 = Instant::now();
                            while handle.stats().calls < 10
                                && t0.elapsed() < Duration::from_millis(500)
                            {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            handle.stop();
                            serve.join().expect("serve thread").expect("serve ok");
                            let _ = truncate_tail(&dir, session);
                            let deadline = Instant::now() + Duration::from_secs(5);
                            let server = loop {
                                match SessionServer::bind(addr, hidden.clone()) {
                                    Ok(s) => break s.with_journal_dir(&dir),
                                    Err(e) => {
                                        assert!(Instant::now() < deadline, "rebind: {e}");
                                        std::thread::sleep(Duration::from_millis(5));
                                    }
                                }
                            };
                            let handle = server.handle().expect("handle");
                            let serve = std::thread::spawn(move || server.serve(|_, _| {}));
                            (handle, serve)
                        })
                    };
                    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, session)
                        .expect("connect");
                    let (output, trace) = run_traced(
                        &split.open,
                        &meta,
                        b.workload(300, 77),
                        ExecConfig::new(),
                        &mut chan,
                    );
                    let interactions = chan.interactions();
                    let _ = chan.shutdown();
                    let (handle, serve) = controller.join().expect("controller");
                    handle.stop();
                    serve.join().expect("serve thread").expect("serve ok");
                    let stats = handle.stats();
                    total_replays += stats.journal_replays;
                    let _ = std::fs::remove_dir_all(&dir);
                    (output, trace, interactions, stats)
                }
            };

            // Persist the recovery telemetry for the CI artifact.
            let log_path = chaos_log_dir().join(format!(
                "recovery-{}-seed{seed}-{}.log",
                b.name,
                fault.name()
            ));
            std::fs::write(
                &log_path,
                format!(
                    "cell: {cell}\nshard_restarts: {}\npanics_caught: {}\njournal_replays: {}\n",
                    report.shard_restarts, report.panics_caught, report.journal_replays
                ),
            )
            .expect("write recovery log");

            assert_eq!(baseline.0, output, "{cell}: program output diverged");
            assert_eq!(baseline.1, trace, "{cell}: adversary trace diverged");
            assert_eq!(
                baseline.2, interactions,
                "{cell}: interaction count diverged"
            );
        }
    }
    // Each crash kind present in the matrix must actually have fired
    // somewhere across the suite — a recovery matrix that recovers from
    // nothing proves nothing.
    if matrix.iter().any(|(_, f)| *f == CrashFault::ShardKill) {
        assert!(total_restarts > 0, "shard-kill cells never killed a shard");
    }
    if matrix.iter().any(|(_, f)| *f == CrashFault::Panic) {
        assert!(total_panics > 0, "panic cells never panicked a fragment");
    }
    assert!(
        total_replays > 0,
        "no cell ever rebuilt a session from its journal"
    );
}
