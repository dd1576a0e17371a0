//! Crash-recovery suite (DESIGN.md §12): panic isolation, shard
//! supervision, journal replay, disk persistence across a full server
//! restart, and the client-transparent session-resume path.
//!
//! Every test asserts the robustness contract from the client's seat:
//! injected crashes may cost wall-clock time, but never change observed
//! values, interaction counts, or exactly-once execution.

use hps_ir::{
    BinOp, Block, ComponentId, ComponentKind, Expr, FragLabel, Fragment, HiddenComponent,
    HiddenProgram, HiddenVar, LocalId, Place, Stmt, StmtKind, Ty, Value,
};
use hps_runtime::journal::truncate_tail;
use hps_runtime::tcp::{RetryPolicy, SessionServer, TcpChannel};
use hps_runtime::wire::{read_frame, write_frame, Request, Response, WIRE_VERSION};
use hps_runtime::{Channel, CrashConfig, FaultClass, RuntimeError};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One hidden accumulator: L0(p) { acc = acc + p; return acc }. Stateful
/// on purpose — a lost, doubled or wrongly-rebuilt execution shows up as a
/// wrong running sum.
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

fn quick_policy() -> RetryPolicy {
    RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_timeout(Duration::from_secs(5))
        .with_max_attempts(10)
        .with_jitter_seed(7)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hps-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn injected_panics_are_invisible_to_the_client() {
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_crash(CrashConfig {
            seed: 11,
            shard_kill_per_mille: 0,
            panic_per_mille: 300,
        });
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    for n in 1..=30i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "call {n}");
    }
    assert_eq!(chan.interactions(), 30);
    let stats = handle.stats();
    assert!(stats.panics_caught > 0, "a 30% panic rate must fire");
    assert_eq!(
        stats.calls, 30,
        "rebuild-and-retry must not double-count logical calls"
    );
    assert!(
        stats.journal_replays >= stats.panics_caught,
        "every caught panic rebuilds from the journal"
    );
    // The recovery counters flow into the live metrics scrape.
    let m = handle.metrics();
    assert_eq!(
        m.counter("hps_server_panics_caught_total"),
        stats.panics_caught
    );
    assert_eq!(
        m.counter("hps_server_journal_replays_total"),
        stats.journal_replays
    );
    assert!(
        m.histogram("hps_server_recovery_latency_micros")
            .is_some_and(|h| h.count() == stats.journal_replays),
        "one recovery-latency sample per rebuild"
    );
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn unrecoverable_panic_poisons_only_the_session() {
    // journal_limit 1: by the third call the ring has dropped history, so
    // the second rebuild is impossible and the session must poison rather
    // than silently rebuild wrong state.
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_journal_limit(1)
        .with_crash(CrashConfig {
            seed: 5,
            shard_kill_per_mille: 0,
            panic_per_mille: 1000,
        });
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
    // Calls 1 and 2 panic once each, rebuild from the (still complete)
    // journal, and succeed transparently.
    assert_eq!(
        chan.call(c, 1, l, &[Value::Int(1)]).expect("call 1").value,
        Value::Int(1)
    );
    assert_eq!(
        chan.call(c, 1, l, &[Value::Int(2)]).expect("call 2").value,
        Value::Int(3)
    );
    // Call 3: the ring overflowed, rebuild fails, the session poisons.
    let err = chan
        .call(c, 1, l, &[Value::Int(3)])
        .expect_err("poisoned session must reject");
    assert!(
        matches!(
            &err,
            RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "panic",
                ..
            }
        ),
        "got {err:?}"
    );
    // Poisoning is sticky for the session...
    let again = chan
        .call(c, 1, l, &[Value::Int(4)])
        .expect_err("still poisoned");
    assert!(!again.is_retryable());
    // ...but the blast radius is one session: a different session on the
    // same (single) shard still works, panicking and rebuilding as usual.
    let mut other =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 2).expect("connect 2");
    assert_eq!(
        other.call(c, 1, l, &[Value::Int(9)]).expect("call").value,
        Value::Int(9)
    );
    other.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn killed_shard_is_respawned_and_sessions_rebuild() {
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
    for n in 1..=5i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
    }
    // Crash drill: kill the only shard. The death is one synchronous step.
    handle.kill_shard(0);
    assert_eq!(handle.stats().shard_restarts, 1);
    assert_eq!(handle.shard_stats()[0].restarts, 1);
    // The session's hidden accumulator survives via journal replay.
    for n in 6..=10i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "after the kill");
    }
    assert_eq!(chan.interactions(), 10);
    let stats = handle.stats();
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.journal_replays, 1, "rebuild must come from replay");
    assert_eq!(stats.calls, 10, "exactly-once across the kill");
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
}

/// Binds a fresh server on a *specific* addr, retrying briefly: the old
/// listener's port frees asynchronously after its serve thread joins.
fn rebind(addr: SocketAddr, dir: &PathBuf) -> SessionServer {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match SessionServer::bind(addr, accumulator_program()) {
            Ok(s) => return s.with_journal_dir(dir),
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn sessions_survive_a_full_server_restart_via_disk_journal() {
    let dir = fresh_dir("restart");
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_journal_dir(&dir);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 42).expect("connect");
    for n in 1..=10i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
    }
    // Full process-restart equivalent: stop the server, then bind a brand
    // new one on the same addr with the same journal directory.
    handle.stop();
    serve.join().expect("join").expect("serve");
    let server = rebind(addr, &dir);
    let handle = server.handle().expect("handle");
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    // The same channel keeps going: its next call reconnects, the new
    // server rebuilds session 42 from disk, sequences line up.
    for n in 11..=20i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "after restart");
    }
    assert_eq!(chan.interactions(), 20);
    let stats = handle.stats();
    assert!(stats.journal_replays >= 1, "restart must rebuild by replay");
    assert_eq!(stats.calls, 10, "only post-restart units execute anew");
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_re_driven_by_session_resume() {
    let dir = fresh_dir("truncate");
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_journal_dir(&dir);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 42).expect("connect");
    for n in 1..=10i64 {
        chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
    }
    handle.stop();
    serve.join().expect("join").expect("serve");
    // Tear the last committed frame off the disk journal: recovery now
    // comes up one unit short of what the client observed.
    truncate_tail(&dir, 42).expect("truncate fault");
    let server = rebind(addr, &dir);
    let handle = server.handle().expect("handle");
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    // The reconnect handshake detects the short server and re-drives the
    // missing frame from the client's resume window — transparently.
    for n in 11..=20i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "after torn tail");
    }
    assert_eq!(
        chan.interactions(),
        20,
        "the re-driven frame is a retransmit, not a logical interaction"
    );
    let stats = handle.stats();
    assert_eq!(
        stats.calls, 11,
        "the torn unit re-executes once, the rest are new"
    );
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stalled_reader_holds_back_only_its_own_connection() {
    // Two shards: sessions 1 and 3 hash to shard 1, session 2 to shard 0.
    // Session 1 pipelines batch frames without reading a reply, until its
    // connection thread blocks writing a reply larger than the socket
    // buffers. Replies are written after the shard is released, so the
    // stall holds no shard: every other session is still served.
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_shards(2);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    const BATCH: u64 = 4096;

    let stream = std::net::TcpStream::connect(addr).expect("connect stalled");
    let mut buf = Vec::new();
    Request::Hello {
        version: WIRE_VERSION,
        session: 1,
    }
    .encode_into(&mut buf);
    write_frame(&mut &stream, &buf).expect("hello");
    let ack = read_frame(&mut &stream).expect("read").expect("ack");
    assert!(matches!(
        Response::decode(&ack).expect("decode"),
        Response::HelloAck { next_seq: 1, .. }
    ));
    let calls: Vec<_> = (0..BATCH)
        .map(|_| hps_runtime::PendingCall {
            component: c,
            key: 1,
            label: l,
            args: vec![Value::Int(1)],
        })
        .collect();
    // Send until a write makes no progress for a second: the server has
    // stopped reading, which it does only while blocked on a reply.
    stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("write timeout");
    for seq in 1.. {
        Request::SeqBatch {
            seq,
            calls: calls.clone(),
        }
        .encode_into(&mut buf);
        if write_frame(&mut &stream, &buf).is_err() {
            break;
        }
    }

    // A kill of shard 1 does not wait on the stalled connection.
    handle.kill_shard(1);
    assert_eq!(handle.stats().shard_restarts, 1);
    // Session 3 shares shard 1 with the stalled client; session 2 is on
    // shard 0. Both are served.
    let mut same =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 3).expect("connect");
    let r = same
        .call(c, 1, l, &[Value::Int(7)])
        .expect("same-shard call");
    assert_eq!(r.value, Value::Int(7));
    same.shutdown().expect("shutdown");
    let mut other =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 2).expect("connect");
    for n in 1..=50i64 {
        let r = other
            .call(c, 1, l, &[Value::Int(n)])
            .expect("other-shard call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
    }
    other.shutdown().expect("shutdown");

    let shards = handle.shard_stats();
    assert_eq!(shards[0].calls, 50, "shard 0 served exactly session 2");
    assert_eq!(
        shards[1].calls % BATCH,
        1,
        "shard 1 served whole batches plus session 3's call"
    );
    assert!(shards[1].calls > BATCH);
    assert_eq!(
        shards[1].max_queue_depth, 1,
        "no connection ever waited for shard 1"
    );
    // Closing the stalled client with replies unread resets the
    // connection, which fails the server's blocked write.
    drop(stream);
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn call_deadline_fails_fast_against_a_hung_server() {
    // A hand-rolled server that completes the handshake and then never
    // answers another frame — the pathological hang --timeout exists for.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hang = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(&stream);
        let mut writer = std::io::BufWriter::new(&stream);
        let payload = read_frame(&mut reader).expect("read").expect("frame");
        let Request::Hello { session, .. } = Request::decode(&payload).expect("decode") else {
            panic!("expected Hello");
        };
        let mut buf = Vec::new();
        Response::HelloAck {
            version: WIRE_VERSION,
            session,
            next_seq: 1,
        }
        .encode_into(&mut buf);
        write_frame(&mut writer, &buf).expect("ack");
        // Hold the socket open without ever reading or replying again.
        std::thread::sleep(Duration::from_secs(10));
    });
    let policy = quick_policy()
        .with_max_attempts(50)
        .with_call_deadline(Some(Duration::from_millis(300)));
    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, 1).expect("connect");
    let started = Instant::now();
    let err = chan
        .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
        .expect_err("hung server must trip the deadline");
    let elapsed = started.elapsed();
    assert!(
        matches!(
            &err,
            RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "deadline",
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(!err.is_retryable());
    assert!(
        elapsed < Duration::from_secs(3),
        "deadline must beat the full backoff budget (took {elapsed:?})"
    );
    drop(chan);
    // The hang thread sleeps out its 10s on its own; don't join it.
    drop(hang);
}
