//! The CI reliability matrix: seeded faults on the real wire of a
//! [`SessionServer`] (dropped requests, dropped, torn and late replies)
//! must stay invisible to a reliable [`TcpChannel`] client.
//!
//! CI runs this suite once per seed via the `HPS_CHAOS_SEED` environment
//! variable; without it every default seed runs.

use hps_core::{split_program, SplitPlan};
use hps_ir::{
    BinOp, Block, ComponentId, ComponentKind, Expr, FragLabel, Fragment, HiddenComponent,
    HiddenProgram, HiddenVar, LocalId, Place, Stmt, StmtKind, Ty, Value,
};
use hps_runtime::tcp::{ChaosConfig, RetryPolicy, SessionServer, TcpChannel};
use hps_runtime::{Channel, ExecConfig, Interp, SplitMeta};
use std::time::Duration;

/// One hidden accumulator component: L0(p) { acc = acc + p; return acc }.
/// Stateful on purpose — a duplicated or replayed execution would visibly
/// corrupt the running sum.
fn accumulator_program() -> HiddenProgram {
    let mut hp = HiddenProgram::new();
    hp.add(HiddenComponent {
        id: ComponentId::new(0),
        kind: ComponentKind::Function {
            func_name: "f".into(),
        },
        vars: vec![HiddenVar {
            name: "acc".into(),
            ty: Ty::Int,
            init: None,
        }],
        fragments: vec![Fragment {
            label: FragLabel::new(0),
            params: vec![("p".into(), Ty::Int)],
            body: Block::of(vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(0)),
                value: Expr::binary(
                    BinOp::Add,
                    Expr::local(LocalId::new(0)),
                    Expr::local(LocalId::new(1)),
                ),
            })]),
            ret: Some(Expr::local(LocalId::new(0))),
        }],
    });
    hp
}

/// The seed selected by the environment, or every default seed.
fn seeds() -> Vec<u64> {
    match std::env::var("HPS_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("HPS_CHAOS_SEED must be an integer")],
        Err(_) => vec![1, 2, 3, 4],
    }
}

/// A retry policy whose per-attempt timeout is shorter than the server's
/// late-reply pause, so late replies force retransmits.
fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_timeout(Duration::from_millis(100))
        .with_max_attempts(12)
        .with_jitter_seed(seed)
}

#[test]
fn tcp_chaos_matrix_round_trips_every_seed() {
    for seed in seeds() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed,
                per_mille: 200,
            });
        let handle = server.handle().expect("handle");
        let serve = std::thread::spawn(move || server.serve(|_, _| {}));
        let mut chan = TcpChannel::connect_reliable(handle.addr(), chaos_policy(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: connect: {e}"));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        for n in 1..=20i64 {
            let r = chan
                .call(c, 1, l, &[Value::Int(n)])
                .unwrap_or_else(|e| panic!("seed {seed}: call {n}: {e}"));
            assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "seed {seed}");
        }
        assert_eq!(chan.interactions(), 20);
        let stats = handle.stats();
        assert_eq!(stats.calls, 20, "seed {seed}: server executed a retransmit");
        assert!(stats.chaos_kills > 0, "seed {seed}: chaos never fired");
        chan.shutdown().expect("shutdown");
        handle.stop();
        serve.join().expect("join").expect("serve");
    }
}

/// A hidden local read before it is written: a run that starts from a
/// previous run's unreleased activation prints a wrong sum.
const UNINITIALISED_SUM: &str = "
fn f(n: int) -> int {
    var s: int;
    var i: int = 0;
    while (i < n) { s = s + i; i = i + 1; }
    return s;
}
fn main() { print(f(3)); print(f(4)); }
";

#[test]
fn lost_releases_never_leak_into_the_next_run() {
    // Every run is a fresh interpreter on one session, so activation keys
    // repeat from run to run: a release lost with its connection would
    // hand the next run the last one's hidden `s`.
    let program = hps_lang::parse(UNINITIALISED_SUM).expect("parses");
    let plan = SplitPlan::single(&program, "f", "s").expect("plan");
    let split = split_program(&program, &plan).expect("splits");
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    for seed in seeds() {
        let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed,
                per_mille: 100,
            });
        let handle = server.handle().expect("handle");
        let serve = std::thread::spawn(move || server.serve(|_, _| {}));
        let mut chan =
            TcpChannel::connect_reliable(handle.addr(), chaos_policy(seed)).expect("connect");
        for run in 0..80 {
            let outcome = Interp::new(&split.open, ExecConfig::new())
                .with_channel(&mut chan, &meta)
                .run("main", &[])
                .unwrap_or_else(|e| panic!("seed {seed} run {run}: {e}"));
            assert_eq!(outcome.output, ["3", "6"], "seed {seed} run {run}");
        }
        assert!(
            handle.stats().chaos_kills > 0,
            "seed {seed}: chaos never fired"
        );
        chan.shutdown().expect("shutdown");
        handle.stop();
        serve.join().expect("join").expect("serve");
    }
}
