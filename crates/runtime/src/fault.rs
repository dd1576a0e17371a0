//! Deterministic fault injection for the open↔hidden transport.
//!
//! [`FaultyChannel`] wraps any [`Channel`] and emulates an unreliable link
//! *plus* the reliability protocol that tames it: every logical call gets a
//! session sequence number, each delivery leg (request and response) may be
//! dropped, delayed, duplicated or truncated according to a seeded
//! deterministic [`FaultPlan`], lost legs are retransmitted, and a
//! [`ReplayCache`] at the receiving end deduplicates — exactly the scheme
//! the TCP transport implements across real sockets (see
//! [`crate::tcp`] and DESIGN.md §7b).
//!
//! The crucial invariant, asserted by the chaos test suite: the wrapped
//! channel sees each logical call **exactly once**, in order, no matter
//! what the fault schedule does. Program output, server-side call counts
//! and [`crate::trace::TraceChannel`] event sequences are therefore
//! byte-identical to a fault-free run; only
//! [`Channel::transport_stats`] differs.

use crate::channel::{CallReply, Channel, PendingCall, TransportStats};
use crate::error::{FaultClass, RuntimeError};
use crate::server::{ReplayCache, SeqCheck};
use hps_ir::{ComponentId, FragLabel, Value};
use hps_telemetry::{Event, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injectable transport fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The frame vanishes on the wire.
    Drop,
    /// The frame arrives late (a slow link); delivery still succeeds.
    Delay,
    /// The frame arrives twice; the receiver must deduplicate.
    Duplicate,
    /// The frame arrives cut short and is rejected by the receiver —
    /// indistinguishable from a drop to the sender.
    Truncate,
}

impl FaultKind {
    /// Every kind, for building full-coverage schedules.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Duplicate,
        FaultKind::Truncate,
    ];

    /// Stable lowercase name (the `FromStr` spelling, also used as the
    /// telemetry fault-kind label).
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "dup",
            FaultKind::Truncate => "truncate",
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultKind, String> {
        match s {
            "drop" => Ok(FaultKind::Drop),
            "delay" => Ok(FaultKind::Delay),
            "dup" | "duplicate" => Ok(FaultKind::Duplicate),
            "truncate" => Ok(FaultKind::Truncate),
            other => Err(format!("unknown fault kind `{other}`")),
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One kind of injectable *crash* fault — unlike [`FaultKind`], these do
/// not perturb individual wire frames but kill whole shards, panic
/// mid-fragment, or damage the on-disk journal. The recovery layer
/// (DESIGN.md §12) must survive all of them without changing the
/// adversary-visible trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashFault {
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
    /// Every crash fault, for building full-coverage recovery matrices.
    pub const ALL: [CrashFault; 3] = [
        CrashFault::ShardKill,
        CrashFault::Panic,
        CrashFault::Truncate,
    ];

    /// Stable lowercase name (the `FromStr` spelling, also the CI matrix
    /// cell label).
    pub fn as_str(&self) -> &'static str {
        match self {
            CrashFault::ShardKill => "shard-kill",
            CrashFault::Panic => "panic",
            CrashFault::Truncate => "truncate",
        }
    }
}

impl std::str::FromStr for CrashFault {
    type Err = String;

    fn from_str(s: &str) -> Result<CrashFault, String> {
        match s {
            "shard-kill" | "kill" => Ok(CrashFault::ShardKill),
            "panic" => Ok(CrashFault::Panic),
            "truncate" => Ok(CrashFault::Truncate),
            other => Err(format!("unknown crash fault `{other}`")),
        }
    }
}

impl std::fmt::Display for CrashFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Seeded server-side crash-injection rates, consumed by the session
/// server's shards (`SessionServer::with_crash`). Draws are deterministic
/// per (seed, shard, incarnation, event index), so a failing crash run
/// reproduces exactly like a [`FaultPlan`] schedule does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashConfig {
    /// Seed for the per-shard crash schedule.
    pub seed: u64,
    /// Probability (per mille) that a request entering a shard kills the
    /// whole shard first, exercising journal rebuild of its sessions.
    pub shard_kill_per_mille: u32,
    /// Probability (per mille) that a fresh sequenced request panics
    /// mid-fragment, exercising `catch_unwind` + journal rebuild.
    pub panic_per_mille: u32,
}

/// A seeded deterministic fault schedule: on each delivery leg, inject one
/// of the enabled kinds with probability `per_mille`/1000. The same seed
/// always produces the same schedule, so chaos failures reproduce exactly.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: StdRng,
    kinds: Vec<FaultKind>,
    per_mille: u32,
    seed: u64,
    log: Vec<String>,
}

impl FaultPlan {
    /// A plan injecting `kinds` at `per_mille`/1000 per delivery leg,
    /// deterministically derived from `seed`.
    pub fn new(seed: u64, kinds: &[FaultKind], per_mille: u32) -> FaultPlan {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            kinds: kinds.to_vec(),
            per_mille: per_mille.min(1000),
            seed,
            log: Vec::new(),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The chaos log: one line per injected fault, for CI artifacts.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    fn draw(&mut self, seq: u64, leg: &str) -> Option<FaultKind> {
        if self.kinds.is_empty() || self.per_mille == 0 {
            return None;
        }
        if self.rng.gen_range(0u32..1000) >= self.per_mille {
            return None;
        }
        let kind = self.kinds[self.rng.gen_range(0..self.kinds.len())];
        self.log
            .push(format!("seed={} seq={seq} {leg}: {kind}", self.seed));
        Some(kind)
    }
}

/// A cached response: one reply for a sequenced call, a vector for a
/// sequenced batch (retransmitted atomically, like `Request::SeqBatch`).
#[derive(Clone, Debug)]
enum Cached {
    One(CallReply),
    Batch(Vec<CallReply>),
}

/// A [`Channel`] wrapper that subjects every round trip to a seeded fault
/// schedule while running the full retry + exactly-once-replay protocol.
///
/// See the module docs for the invariants it maintains.
#[derive(Debug)]
pub struct FaultyChannel<C: Channel> {
    inner: C,
    plan: FaultPlan,
    max_attempts: u32,
    next_seq: u64,
    replay: ReplayCache<Cached>,
    stats: TransportStats,
    recorder: RecorderHandle,
}

impl<C: Channel> FaultyChannel<C> {
    /// Wraps `inner` under `plan` with a default retry budget generous
    /// enough that seeded schedules at sane rates never exhaust it.
    pub fn new(inner: C, plan: FaultPlan) -> FaultyChannel<C> {
        FaultyChannel {
            inner,
            plan,
            max_attempts: 24,
            next_seq: 1,
            replay: ReplayCache::new(),
            stats: TransportStats::default(),
            recorder: RecorderHandle::none(),
        }
    }

    /// Overrides the retry budget (builder style).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> FaultyChannel<C> {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Attaches a telemetry recorder firing `Retry` / `Fault` / `Replay`
    /// events as the reliability protocol runs (builder style). Recording
    /// never changes the fault schedule, retries or replies.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> FaultyChannel<C> {
        self.recorder = recorder;
        self
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped channel.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// The chaos log accumulated so far (one line per injected fault).
    pub fn chaos_log(&self) -> &[String] {
        self.plan.log()
    }

    /// Runs one logical round trip under the fault schedule. `execute` is
    /// invoked at most once (on the Fresh delivery); retransmits after a
    /// lost response are answered from the replay cache.
    fn reliable_round_trip(
        &mut self,
        execute: impl Fn(&mut C) -> Result<Cached, RuntimeError>,
    ) -> Result<Cached, RuntimeError> {
        let seq = self.next_seq;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                self.recorder.record(Event::Retry);
            }
            // Request leg: the frame may never reach the receiver.
            let mut duplicated = false;
            if let Some(kind) = self.plan.draw(seq, "request") {
                self.stats.faults += 1;
                self.recorder.record(Event::Fault {
                    kind: kind.as_str(),
                });
                match kind {
                    FaultKind::Drop | FaultKind::Truncate => continue,
                    FaultKind::Delay => {}
                    FaultKind::Duplicate => duplicated = true,
                }
            }
            // Delivery through the receiver's dedup endpoint: execute on
            // the first arrival, replay the cached response on retransmits.
            let reply = match self.replay.check(seq) {
                SeqCheck::Fresh => {
                    let r = execute(&mut self.inner)?;
                    self.replay.store(seq, r.clone());
                    r
                }
                SeqCheck::Replay(r) => {
                    self.stats.replays += 1;
                    self.recorder.record(Event::Replay);
                    r.clone()
                }
                SeqCheck::Gap { expected } => {
                    return Err(RuntimeError::SequenceGap { got: seq, expected })
                }
            };
            if duplicated {
                // The second copy arrives and is suppressed by the cache.
                match self.replay.check(seq) {
                    SeqCheck::Replay(_) => {
                        self.stats.replays += 1;
                        self.recorder.record(Event::Replay);
                    }
                    _ => unreachable!("duplicate of a stored seq must replay"),
                }
            }
            // Response leg: the reply may be lost on its way back.
            if let Some(kind) = self.plan.draw(seq, "response") {
                self.stats.faults += 1;
                self.recorder.record(Event::Fault {
                    kind: kind.as_str(),
                });
                match kind {
                    FaultKind::Drop | FaultKind::Truncate => continue,
                    // A late or doubled reply still completes the round
                    // trip; the extra copy is discarded by the sender.
                    FaultKind::Delay | FaultKind::Duplicate => {}
                }
            }
            self.next_seq = seq + 1;
            return Ok(reply);
        }
        Err(RuntimeError::Transport {
            class: FaultClass::Terminal,
            op: "retry",
            detail: format!(
                "gave up on seq {seq} after {} attempts (seed {})",
                self.max_attempts,
                self.plan.seed()
            ),
        })
    }
}

impl<C: Channel> Channel for FaultyChannel<C> {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        let args = args.to_vec();
        let cached = self.reliable_round_trip(|inner| {
            inner.call(component, key, label, &args).map(Cached::One)
        })?;
        match cached {
            Cached::One(reply) => Ok(reply),
            Cached::Batch(_) => unreachable!("call seq cached a batch"),
        }
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        let cached =
            self.reliable_round_trip(|inner| inner.call_batch(calls).map(Cached::Batch))?;
        match cached {
            Cached::Batch(replies) => Ok(replies),
            Cached::One(_) => unreachable!("batch seq cached a single reply"),
        }
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        // Fire-and-forget and idempotent: a lost release is indistinguishable
        // from a slow one, so it passes straight through.
        self.inner.release(component, key)
    }

    fn interactions(&self) -> u64 {
        // Logical round trips only — retries and replays never reach the
        // wrapped channel, so its count equals the fault-free run's.
        self.inner.interactions()
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::InProcessChannel;
    use crate::server::SecureServer;
    use hps_ir::{
        BinOp, Block, ComponentKind, Expr, Fragment, HiddenComponent, HiddenProgram, HiddenVar,
        LocalId, Place, Stmt, StmtKind, Ty,
    };

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

    fn faulty(seed: u64, kinds: &[FaultKind], per_mille: u32) -> FaultyChannel<InProcessChannel> {
        let inner = InProcessChannel::new(SecureServer::new(accumulator_program()));
        FaultyChannel::new(inner, FaultPlan::new(seed, kinds, per_mille))
    }

    /// Drives a stateful accumulator through a faulty channel; any double
    /// execution or lost call changes the running sums.
    fn drive(chan: &mut FaultyChannel<InProcessChannel>) -> Vec<Value> {
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        (1..=20)
            .map(|n| chan.call(c, 1, l, &[Value::Int(n)]).expect("call").value)
            .collect()
    }

    #[test]
    fn heavy_faults_never_change_results() {
        let expected: Vec<Value> = (1..=20i64).map(|n| Value::Int(n * (n + 1) / 2)).collect();
        for seed in 0..50 {
            let mut chan = faulty(seed, &FaultKind::ALL, 300);
            assert_eq!(drive(&mut chan), expected, "seed {seed}");
            // Exactly 20 logical calls reached the server, regardless of
            // how many retransmits the schedule forced.
            assert_eq!(chan.interactions(), 20, "seed {seed}");
            assert_eq!(chan.inner().server().calls_served(), 20, "seed {seed}");
        }
    }

    #[test]
    fn faults_are_counted_and_deterministic() {
        let mut a = faulty(7, &FaultKind::ALL, 400);
        let mut b = faulty(7, &FaultKind::ALL, 400);
        drive(&mut a);
        drive(&mut b);
        let stats = a.transport_stats();
        assert!(stats.faults > 0, "rate 400\u{2030} must inject something");
        assert_eq!(stats, b.transport_stats(), "same seed, same schedule");
        assert_eq!(a.chaos_log(), b.chaos_log());
        assert!(!a.chaos_log().is_empty());
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut chan = faulty(3, &[], 0);
        drive(&mut chan);
        assert_eq!(chan.transport_stats(), TransportStats::default());
        assert!(chan.chaos_log().is_empty());
    }

    #[test]
    fn duplicates_are_suppressed_not_reexecuted() {
        let mut chan = faulty(11, &[FaultKind::Duplicate], 1000);
        drive(&mut chan);
        let stats = chan.transport_stats();
        assert!(stats.replays > 0, "every request was duplicated");
        assert_eq!(stats.retries, 0, "duplicates alone never force retries");
        assert_eq!(chan.inner().server().calls_served(), 20);
    }

    #[test]
    fn batches_retransmit_atomically() {
        let mut chan = faulty(5, &FaultKind::ALL, 300);
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let calls: Vec<PendingCall> = (1..=6)
            .map(|n| PendingCall {
                component: c,
                key: 1,
                label: l,
                args: vec![Value::Int(n)],
            })
            .collect();
        let replies = chan.call_batch(&calls).expect("batch");
        let values: Vec<Value> = replies.iter().map(|r| r.value).collect();
        let expected: Vec<Value> = (1..=6i64).map(|n| Value::Int(n * (n + 1) / 2)).collect();
        assert_eq!(values, expected);
        assert_eq!(chan.inner().server().calls_served(), 6);
        assert_eq!(chan.interactions(), 1, "one logical round trip");
    }

    #[test]
    fn exhausted_retries_are_terminal() {
        // 100% drop rate: nothing ever gets through.
        let mut chan = faulty(1, &[FaultKind::Drop], 1000).with_max_attempts(3);
        let err = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
            .expect_err("must give up");
        assert!(matches!(
            err,
            RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "retry",
                ..
            }
        ));
        assert!(!err.is_retryable());
        assert_eq!(chan.transport_stats().retries, 2);
    }

    #[test]
    fn fault_kind_parses() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.to_string().parse::<FaultKind>().unwrap(), kind);
        }
        assert!("lasers".parse::<FaultKind>().is_err());
    }

    #[test]
    fn crash_fault_parses() {
        for fault in CrashFault::ALL {
            assert_eq!(fault.to_string().parse::<CrashFault>().unwrap(), fault);
        }
        assert_eq!("kill".parse::<CrashFault>().unwrap(), CrashFault::ShardKill);
        assert!("meteor".parse::<CrashFault>().is_err());
    }

    #[test]
    fn gaps_surface_as_the_dedicated_variant() {
        // Force the injector's own replay cache out of sync by driving a
        // second channel sharing nothing; simplest here: a gap manufactured
        // by skipping next_seq forward.
        let mut chan = faulty(9, &[], 0);
        chan.next_seq = 5;
        let err = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
            .expect_err("gap");
        assert_eq!(
            err,
            RuntimeError::SequenceGap {
                got: 5,
                expected: 1
            }
        );
        assert!(!err.is_retryable());
    }
}
