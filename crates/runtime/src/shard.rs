//! The shard pool: multi-core execution of hidden session state, under
//! supervision.
//!
//! Hidden runtime values are built on `Rc<RefCell<…>>` ([`crate::value`])
//! and are deliberately **not `Send`** — sharing them across threads would
//! need locking on the interpreter's hot path. Instead of making values
//! thread-safe, the session server shards *ownership*: a pool of N
//! executor threads, each owning the complete state (one [`SecureServer`]
//! plus replay window per session) of every session hashed to it
//! (`session_id % shards`). A hidden value is created, mutated and dropped
//! on exactly one thread for its whole life, so the hot path stays
//! lock-free, while the requests and replies that *do* cross threads are
//! plain `Send` data: scalar [`hps_ir::Value`] arguments in, encoded
//! response frames (`Vec<u8>`) out.
//!
//! Connection threads feed the pool through **per-shard bounded channels**
//! ([`std::sync::mpsc::sync_channel`]): a shard running behind exerts
//! back-pressure on exactly the connections talking to it, never on other
//! shards. Enqueue depth is observed into the
//! `hps_server_shard_queue_depth` histogram and per-shard counters
//! ([`ShardStats`]) record how the load spread, so a saturated shard is
//! visible in telemetry rather than a mystery.
//!
//! ## Crash resilience (DESIGN.md §12)
//!
//! Executors are *supervised*: a dedicated supervisor thread detects a
//! dead executor (a crash fault, a bug, or a deliberate
//! `SessionServerHandle::kill_shard`) and respawns it behind the same
//! routing slot — senders waiting on the dead shard simply re-enqueue on
//! the replacement. Per-request fragment execution runs under
//! `catch_unwind`: a panic is contained, counted
//! (`hps_server_panics_caught_total`), and the offending session is
//! rebuilt from its [`SessionJournal`] and retried once; a second panic —
//! deterministic fragments fail deterministically — poisons only that
//! session, never the shard. Because fragments are deterministic, a
//! respawned executor rebuilds any session's hidden state by replaying
//! the journal of committed units, and the replay windows come back at
//! the same sequence numbers, so exactly-once semantics survive recovery
//! and the adversary-visible trace is unchanged.
//!
//! Because a session's calls are executed in order by a single owner
//! thread regardless of the shard count, the adversary-visible view —
//! program output, reply bytes, trace events, interaction counts — is
//! byte-identical for `--shards 1` and `--shards N`
//! (`crates/suite/tests/shard_equivalence.rs` pins this, chaos included).

use crate::bytecode::VmCache;
use crate::channel::{CallReply, PendingCall};
use crate::fault::CrashConfig;
use crate::journal::{journal_path, load_disk_journal, DiskJournal, JournalOp, SessionJournal};
use crate::server::{ReplayCache, SecureServer, SeqCheck};
use crate::wire::Response;
use hps_ir::{ComponentId, HiddenProgram};
use hps_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound of each per-shard request queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Default replay-window capacity per session (the protocol minimum: a
/// retransmit can only be of the last completed sequence).
pub const DEFAULT_REPLAY_CAPACITY: usize = 1;

/// How long a connection thread waits for the supervisor to respawn a
/// dead shard before giving up on an enqueue.
const RESPAWN_WAIT: Duration = Duration::from_secs(5);

/// Counters shared by every thread of a session server. Updated with
/// relaxed atomics (the histograms take a short mutex at enqueue /
/// recovery time only — never on the executor hot path).
#[derive(Default, Debug)]
pub(crate) struct StatsInner {
    pub(crate) connections: AtomicU64,
    pub(crate) sessions: AtomicU64,
    pub(crate) calls: AtomicU64,
    pub(crate) replays: AtomicU64,
    pub(crate) replay_evictions: AtomicU64,
    pub(crate) chaos_kills: AtomicU64,
    /// Fragment panics contained by `catch_unwind` (injected or genuine).
    pub(crate) panics_caught: AtomicU64,
    /// Dead executors respawned by the supervisor.
    pub(crate) shard_restarts: AtomicU64,
    /// Sessions rebuilt from a journal (respawn or process restart).
    pub(crate) journal_replays: AtomicU64,
    /// VM counters from *legacy* (sessionless) connections, whose private
    /// servers die with the connection; shard caches are read live instead.
    pub(crate) legacy_vm_compiles: AtomicU64,
    pub(crate) legacy_vm_cache_hits: AtomicU64,
    pub(crate) queue_depth: Mutex<Histogram>,
    /// Wall-clock microseconds per session rebuild. Live-scrape /
    /// `BENCH_*.json` exposition only — never part of a deterministic
    /// snapshot (see OBSERVABILITY.md).
    pub(crate) recovery_latency: Mutex<Histogram>,
    /// Shard indexes queued for a deliberate kill (`kill_shard`); the
    /// supervisor services these on its next tick.
    pub(crate) kill_requests: Mutex<Vec<usize>>,
    pub(crate) shards: Mutex<Vec<Arc<ShardCounters>>>,
}

impl StatsInner {
    pub(crate) fn queue_depth_histogram(&self) -> Histogram {
        self.queue_depth.lock().expect("queue depth lock").clone()
    }

    pub(crate) fn recovery_latency_histogram(&self) -> Histogram {
        self.recovery_latency
            .lock()
            .expect("recovery latency lock")
            .clone()
    }

    pub(crate) fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .lock()
            .expect("shard table lock")
            .iter()
            .enumerate()
            .map(|(shard, c)| ShardStats {
                shard,
                calls: c.calls.load(Ordering::Relaxed),
                fragments: c.fragments.load(Ordering::Relaxed),
                cost_units: c.cost.load(Ordering::Relaxed),
                sessions: c.sessions.load(Ordering::Relaxed),
                max_queue_depth: c.max_depth.load(Ordering::Relaxed),
                vm_compiles: c.vm.compiles(),
                vm_cache_hits: c.vm.cache_hits(),
                compile_nanos: c.vm.compile_nanos(),
                exec_nanos: c.exec_nanos.load(Ordering::Relaxed),
                restarts: c.restarts.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Per-shard live counters (internal; snapshot via [`ShardStats`]).
#[derive(Debug)]
pub(crate) struct ShardCounters {
    calls: AtomicU64,
    fragments: AtomicU64,
    cost: AtomicU64,
    sessions: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
    /// Wall-clock nanoseconds this shard spent executing sequenced units.
    exec_nanos: AtomicU64,
    /// Executor respawns the supervisor performed for this shard.
    restarts: AtomicU64,
    /// The shard's shared compile-once bytecode cache. Every session of
    /// the shard compiles into — and hits — this cache. `Send + Sync`
    /// atomics only, so it survives executor respawns.
    vm: Arc<VmCache>,
}

impl ShardCounters {
    /// Zeroed counters around an empty bytecode cache for `hidden`.
    fn new(hidden: &HiddenProgram) -> ShardCounters {
        ShardCounters {
            calls: AtomicU64::new(0),
            fragments: AtomicU64::new(0),
            cost: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            exec_nanos: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            vm: Arc::new(VmCache::for_program(hidden)),
        }
    }
}

/// Snapshot of one shard executor's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Shard index (`0..shards`).
    pub shard: usize,
    /// Logical calls this shard executed (batch entries count).
    pub calls: u64,
    /// Hidden fragments this shard ran (one per successful call).
    pub fragments: u64,
    /// Virtual cost units this shard's fragments spent.
    pub cost_units: u64,
    /// Sessions owned by this shard.
    pub sessions: u64,
    /// Deepest request queue observed at an enqueue.
    pub max_queue_depth: u64,
    /// Fragments lowered to bytecode by this shard's compile-once cache.
    pub vm_compiles: u64,
    /// Fragment executions this shard served from compiled bytecode.
    pub vm_cache_hits: u64,
    /// Wall-clock nanoseconds spent compiling fragments on this shard.
    /// Wall-clock fields feed load attribution (`BENCH_*.json`) only —
    /// they never enter deterministic metrics snapshots.
    pub compile_nanos: u64,
    /// Wall-clock nanoseconds spent executing sequenced units (includes
    /// compile time of first-touch fragments).
    pub exec_nanos: u64,
    /// Times this shard's executor died and was respawned (sums to
    /// `hps_server_shard_restarts_total` across shards).
    pub restarts: u64,
}

/// The shard a session is owned by. Pure function of the session id, so
/// every connection of a session — including reconnects — lands on the
/// same owner thread.
pub(crate) fn shard_of(session: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (session % shards as u64) as usize
}

/// A request forwarded from a connection thread to a shard executor. Only
/// `Send` data crosses: scalar call arguments in, encoded frames out.
/// Calls are `Arc`-shared so a connection thread can cheaply re-enqueue
/// the same unit after an executor died mid-stream.
pub(crate) enum ExecMsg {
    /// Ensure the session exists (rebuilding it from a journal if this
    /// shard — or process — is meeting it after a crash); reply with its
    /// next expected sequence.
    Hello { session: u64, reply: Sender<u64> },
    /// Execute-or-replay one sequenced unit; reply with the encoded
    /// `Response` frame to send (or cache).
    Seq {
        session: u64,
        seq: u64,
        calls: Arc<Vec<PendingCall>>,
        batch: bool,
        reply: Sender<Vec<u8>>,
    },
    /// Free one activation's hidden state (fire-and-forget).
    Release {
        session: u64,
        component: ComponentId,
        key: u64,
    },
    /// Deliberate executor suicide (kill-switch faults, `kill_shard`).
    /// The supervisor respawns the shard; sessions rebuild by replay.
    Crash,
}

/// The cloneable handle connection threads use to reach the pool. Routes
/// by session id and records queue-depth telemetry at every enqueue.
///
/// Senders live behind per-shard **slots**: when an executor dies the
/// supervisor swaps a fresh sender into its slot, so an enqueue that hit
/// the dead channel simply waits out the respawn and retries. A `None`
/// slot means the pool is draining and the send fails for good.
#[derive(Clone)]
pub(crate) struct ShardSenders {
    slots: Arc<Vec<Mutex<Option<SyncSender<ExecMsg>>>>>,
    counters: Vec<Arc<ShardCounters>>,
    stats: Arc<StatsInner>,
}

impl ShardSenders {
    /// Enqueues `msg` on the owning shard's bounded queue, blocking for
    /// back-pressure when the shard is `queue_capacity` deep and waiting
    /// out a supervisor respawn when the shard died. `Err` means the pool
    /// drained (or the respawn wait expired).
    pub(crate) fn send(&self, session: u64, msg: ExecMsg) -> Result<(), ()> {
        let shard = shard_of(session, self.slots.len());
        let c = &self.counters[shard];
        let depth = c.depth.fetch_add(1, Ordering::Relaxed) + 1;
        c.max_depth.fetch_max(depth, Ordering::Relaxed);
        self.stats
            .queue_depth
            .lock()
            .expect("queue depth lock")
            .record(depth);
        let deadline = Instant::now() + RESPAWN_WAIT;
        let mut msg = msg;
        loop {
            // Clone the sender out of the slot so the bounded (blocking)
            // send itself never holds the slot lock.
            let sender = self.slots[shard].lock().expect("shard slot lock").clone();
            let Some(sender) = sender else {
                depth_sub(c);
                return Err(());
            };
            match sender.send(msg) {
                Ok(()) => return Ok(()),
                Err(std::sync::mpsc::SendError(returned)) => {
                    // The executor died with our message unreceived. Wait
                    // for the supervisor to swap in its replacement.
                    if Instant::now() >= deadline {
                        depth_sub(c);
                        return Err(());
                    }
                    msg = returned;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

/// Saturating queue-depth decrement: a respawn resets the counter to zero
/// underneath in-flight accounting, so pairs can go missing — saturation
/// keeps the count approximately right instead of wrapping.
fn depth_sub(c: &ShardCounters) {
    let _ = c
        .depth
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
            Some(d.saturating_sub(1))
        });
}

/// Spawn-time configuration of a shard pool.
#[derive(Clone, Debug)]
pub(crate) struct ShardConfig {
    pub(crate) shards: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) replay_capacity: usize,
    /// Per-session cap on the in-memory journal ring.
    pub(crate) journal_limit: usize,
    /// Directory for checksummed on-disk journals (`--journal-dir`);
    /// `None` keeps journaling in-memory only.
    pub(crate) journal_dir: Option<PathBuf>,
    /// Seeded crash-injection schedule (kill / panic rates).
    pub(crate) crash: Option<CrashConfig>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            replay_capacity: DEFAULT_REPLAY_CAPACITY,
            journal_limit: crate::journal::DEFAULT_JOURNAL_LIMIT,
            journal_dir: None,
            crash: None,
        }
    }
}

/// Everything one executor incarnation needs — and everything the
/// supervisor needs to spawn the next incarnation of the same shard.
/// The journal map and counters are shared across incarnations; the
/// sessions' hidden state is not (it is rebuilt by replay).
#[derive(Clone)]
struct ShardContext {
    shard: usize,
    hidden: HiddenProgram,
    stats: Arc<StatsInner>,
    counters: Arc<ShardCounters>,
    replay_capacity: usize,
    journal_limit: usize,
    journal_dir: Option<PathBuf>,
    /// The shard's committed-op journals, one ring per session. Held
    /// *outside* the executor thread so it survives executor death.
    journal: Arc<Mutex<HashMap<u64, SessionJournal>>>,
}

/// The pool: N supervised shard executors plus the routing slots.
///
/// Lifecycle: connection threads clone [`ShardSenders`] and enqueue
/// through the slots; the supervisor respawns any executor that dies.
/// [`ShardPool::drain`] stops the supervisor, which withdraws every
/// slot's sender and joins the executors — each keeps serving until its
/// queue is empty, so no accepted request is abandoned.
pub(crate) struct ShardPool {
    senders: ShardSenders,
    stop: Arc<AtomicBool>,
    supervisor: JoinHandle<()>,
}

impl ShardPool {
    /// Spawns `config.shards` executor threads (min 1), each owning the
    /// sessions hashed to it, fed by a bounded queue, plus the supervisor
    /// that keeps them alive. Each shard gets one compile-once bytecode
    /// cache shared by all its sessions (and all its incarnations —
    /// compiled code is `Send + Sync`).
    pub(crate) fn spawn(
        config: ShardConfig,
        hidden: &HiddenProgram,
        stats: &Arc<StatsInner>,
    ) -> ShardPool {
        let shards = config.shards.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let mut slot_vec = Vec::with_capacity(shards);
        let mut counters = Vec::with_capacity(shards);
        let mut contexts = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards);
        for shard in 0..shards {
            let c = Arc::new(ShardCounters::new(hidden));
            let ctx = ShardContext {
                shard,
                hidden: hidden.clone(),
                stats: Arc::clone(stats),
                counters: Arc::clone(&c),
                replay_capacity: config.replay_capacity,
                journal_limit: config.journal_limit.max(1),
                journal_dir: config.journal_dir.clone(),
                journal: Arc::new(Mutex::new(HashMap::new())),
            };
            let (tx, thread) = spawn_executor(&ctx, queue_capacity, config.crash, 0);
            slot_vec.push(Mutex::new(Some(tx)));
            counters.push(c);
            contexts.push(ctx);
            threads.push(thread);
        }
        *stats.shards.lock().expect("shard table lock") = counters.clone();
        let slots = Arc::new(slot_vec);
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = std::thread::Builder::new()
            .name("hps-shard-supervisor".into())
            .spawn({
                let slots = Arc::clone(&slots);
                let stats = Arc::clone(stats);
                let stop = Arc::clone(&stop);
                let crash = config.crash;
                move || supervise(slots, contexts, threads, queue_capacity, crash, stats, stop)
            })
            .expect("spawn shard supervisor");
        ShardPool {
            senders: ShardSenders {
                slots,
                counters,
                stats: Arc::clone(stats),
            },
            stop,
            supervisor,
        }
    }

    /// A routing handle for a connection thread.
    pub(crate) fn senders(&self) -> ShardSenders {
        self.senders.clone()
    }

    /// Graceful drain: stops the supervisor, which withdraws every slot's
    /// sender and joins every executor after it finishes its queue.
    pub(crate) fn drain(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.supervisor.join();
    }
}

fn spawn_executor(
    ctx: &ShardContext,
    queue_capacity: usize,
    crash: Option<CrashConfig>,
    incarnation: u64,
) -> (SyncSender<ExecMsg>, JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(queue_capacity);
    let thread = std::thread::Builder::new()
        .name(format!("hps-shard-{}", ctx.shard))
        .spawn({
            let ctx = ctx.clone();
            move || run_shard_executor(rx, ctx, crash, incarnation)
        })
        .expect("spawn shard executor");
    (tx, thread)
}

/// The supervisor loop: services deliberate kill requests, respawns dead
/// executors behind their routing slots, and performs the graceful drain
/// when the pool stops.
fn supervise(
    slots: Arc<Vec<Mutex<Option<SyncSender<ExecMsg>>>>>,
    contexts: Vec<ShardContext>,
    mut threads: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    crash: Option<CrashConfig>,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
) {
    let mut incarnations: Vec<u64> = vec![0; threads.len()];
    while !stop.load(Ordering::Acquire) {
        // Deliberate kills (tests, `loadgen --crash`).
        let kills: Vec<usize> =
            std::mem::take(&mut *stats.kill_requests.lock().expect("kill requests lock"));
        for shard in kills {
            if shard >= threads.len() {
                continue;
            }
            let sender = slots[shard].lock().expect("shard slot lock").clone();
            if let Some(tx) = sender {
                if let Err(TrySendError::Full(_)) = tx.try_send(ExecMsg::Crash) {
                    // Queue saturated; retry on the next tick.
                    stats
                        .kill_requests
                        .lock()
                        .expect("kill requests lock")
                        .push(shard);
                }
            }
        }
        // Respawn any executor that died — killed, panicked, whatever.
        for shard in 0..threads.len() {
            if !threads[shard].is_finished() {
                continue;
            }
            let ctx = &contexts[shard];
            incarnations[shard] += 1;
            let (tx, thread) = spawn_executor(ctx, queue_capacity, crash, incarnations[shard]);
            let old = std::mem::replace(&mut threads[shard], thread);
            let _ = old.join();
            // Messages queued-but-unreceived died with the old channel;
            // their depth contributions are wiped with this reset.
            ctx.counters.depth.store(0, Ordering::Relaxed);
            *slots[shard].lock().expect("shard slot lock") = Some(tx);
            ctx.counters.restarts.fetch_add(1, Ordering::Relaxed);
            stats.shard_restarts.fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Drain: withdraw every sender so executors exit after finishing
    // their queues, then join them.
    for slot in slots.iter() {
        *slot.lock().expect("shard slot lock") = None;
    }
    for t in threads {
        let _ = t.join();
    }
}

/// One session's slot on its owner shard: live state, or a poisoned
/// tombstone after an unrecoverable panic. Poisoning is per-session by
/// design — the blast radius of a bad fragment is one session, never the
/// shard or its other sessions.
enum SessionSlot {
    Live(Box<SessionState>),
    Poisoned { reason: String, next_seq: u64 },
}

/// Per-session secure state: one [`SecureServer`], the replay window,
/// and the optional on-disk journal append handle.
struct SessionState {
    server: SecureServer,
    replay: ReplayCache<Vec<u8>>,
    disk: Option<DiskJournal>,
}

/// One shard's executor loop: owns the hidden state of every session
/// hashed here, applies the replay cache, journals committed units, and
/// hands encoded response frames back to the connection threads. Exits
/// when the last sender drops (drain), on [`ExecMsg::Crash`], or on an
/// injected kill — the supervisor respawns the latter two.
fn run_shard_executor(
    rx: Receiver<ExecMsg>,
    ctx: ShardContext,
    crash: Option<CrashConfig>,
    incarnation: u64,
) {
    let mut chaos = crash.map(|c| {
        if c.panic_per_mille > 0 {
            silence_injected_panics();
        }
        // Deterministic per (seed, shard, incarnation, event index).
        let seed = c.seed ^ ((ctx.shard as u64) << 32) ^ incarnation;
        (StdRng::seed_from_u64(seed), c)
    });
    let mut sessions: HashMap<u64, SessionSlot> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        depth_sub(&ctx.counters);
        if let Some((rng, c)) = &mut chaos {
            if c.shard_kill_per_mille > 0
                && !matches!(msg, ExecMsg::Crash)
                && rng.gen_range(0u32..1000) < c.shard_kill_per_mille
            {
                // The executor dies mid-stream, dropping its queue and
                // every pending reply sender; the supervisor respawns it
                // and sessions rebuild from their journals on demand.
                return;
            }
        }
        match msg {
            ExecMsg::Crash => return,
            ExecMsg::Hello { session, reply } => {
                let next = match open_session(&mut sessions, session, &ctx) {
                    SessionSlot::Live(state) => state.replay.next_seq(),
                    SessionSlot::Poisoned { next_seq, .. } => *next_seq,
                };
                let _ = reply.send(next);
            }
            ExecMsg::Seq {
                session,
                seq,
                calls,
                batch,
                reply,
            } => {
                let inject = match &mut chaos {
                    Some((rng, c)) if c.panic_per_mille > 0 => {
                        rng.gen_range(0u32..1000) < c.panic_per_mille
                    }
                    _ => false,
                };
                let bytes = serve_seq(&mut sessions, session, seq, &calls, batch, inject, &ctx);
                let _ = reply.send(bytes);
            }
            ExecMsg::Release {
                session,
                component,
                key,
            } => {
                if let Some(SessionSlot::Live(state)) = sessions.get_mut(&session) {
                    state.server.release(component, key);
                    // Journaled so replay frees exactly what the live
                    // session freed.
                    commit_op(&ctx, session, state, JournalOp::Release { component, key });
                }
            }
        }
    }
}

/// Serves one sequenced unit: replay-cache fast paths first, then fresh
/// execution under panic isolation with a single rebuild-and-retry.
fn serve_seq(
    sessions: &mut HashMap<u64, SessionSlot>,
    session: u64,
    seq: u64,
    calls: &Arc<Vec<PendingCall>>,
    batch: bool,
    inject_panic: bool,
    ctx: &ShardContext,
) -> Vec<u8> {
    match open_session(sessions, session, ctx) {
        SessionSlot::Poisoned { reason, .. } => {
            return encode_error(format!("session poisoned: {reason}"));
        }
        SessionSlot::Live(state) => match state.replay.check(seq) {
            SeqCheck::Fresh => {}
            SeqCheck::Replay(cached) => {
                ctx.stats.replays.fetch_add(1, Ordering::Relaxed);
                return cached.clone();
            }
            SeqCheck::Gap { expected } => {
                return encode_error(format!("sequence gap: got {seq}, expected {expected}"));
            }
        },
    }
    // Fresh: execute under `catch_unwind`. A first panic (injected or
    // genuine) leaves torn hidden state behind, so the session is rebuilt
    // from its journal and the unit retried once; a second panic —
    // deterministic fragments fail deterministically — poisons the
    // session. Only this session is affected either way.
    let mut attempt = 0u32;
    loop {
        let Some(SessionSlot::Live(state)) = sessions.get_mut(&session) else {
            unreachable!("session opened live above");
        };
        let inject = inject_panic && attempt == 0;
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_unit(&mut state.server, calls, batch, inject)
        }));
        ctx.counters
            .exec_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match outcome {
            Ok((resp, served, cost)) => {
                ctx.stats.calls.fetch_add(served, Ordering::Relaxed);
                ctx.counters.calls.fetch_add(served, Ordering::Relaxed);
                ctx.counters.fragments.fetch_add(served, Ordering::Relaxed);
                ctx.counters.cost.fetch_add(cost, Ordering::Relaxed);
                let mut buf = Vec::new();
                resp.encode_into(&mut buf);
                let evicted = state.replay.store(seq, buf.clone());
                ctx.stats
                    .replay_evictions
                    .fetch_add(evicted, Ordering::Relaxed);
                // The commit point: the journal sees the unit before the
                // reply leaves the shard (DESIGN.md §12), so recovery is
                // always at or one behind what the client observed.
                commit_op(
                    ctx,
                    session,
                    state,
                    JournalOp::Seq {
                        seq,
                        calls: Arc::clone(calls),
                        batch,
                    },
                );
                return buf;
            }
            Err(payload) => {
                ctx.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
                let reason = panic_reason(payload.as_ref());
                if attempt == 0 {
                    if let Some(rebuilt) = rebuild_session(session, ctx) {
                        sessions.insert(session, SessionSlot::Live(Box::new(rebuilt)));
                        attempt = 1;
                        continue;
                    }
                }
                let next_seq = ctx
                    .journal
                    .lock()
                    .expect("journal lock")
                    .get(&session)
                    .map_or(seq, |j| j.last_seq() + 1);
                let reason = format!("fragment panicked: {reason}");
                let msg = format!("session poisoned: {reason}");
                sessions.insert(session, SessionSlot::Poisoned { reason, next_seq });
                return encode_error(msg);
            }
        }
    }
}

/// Keeps the *scheduled* panics out of stderr: with a panic-injection
/// rate configured, every injected unwind would otherwise print a full
/// default-hook report. The filter is payload-exact, so genuine panics —
/// the ones `catch_unwind` exists for — still report normally.
fn silence_injected_panics() {
    static SILENCE: std::sync::Once = std::sync::Once::new();
    SILENCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected mid-fragment panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Runs one unit, optionally dying half-way through it first (the
/// injected mid-fragment panic fault): a prefix of the unit executes and
/// mutates hidden state, then the thread panics — recovery must rebuild,
/// not resume.
fn run_unit(
    server: &mut SecureServer,
    calls: &[PendingCall],
    batch: bool,
    inject_panic: bool,
) -> (Response, u64, u64) {
    if inject_panic {
        let torn = calls.len().div_ceil(2).max(1);
        for c in &calls[..torn] {
            let _ = server.call(c.component, c.key, c.label, &c.args);
        }
        panic!("injected mid-fragment panic (crash schedule)");
    }
    execute(server, calls, batch)
}

/// Best-effort human-readable panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn encode_error(msg: String) -> Vec<u8> {
    let mut buf = Vec::new();
    Response::Error(msg).encode_into(&mut buf);
    buf
}

/// Appends a committed op to the session's in-memory ring and (best
/// effort) its disk journal. Called at the commit point, before replying.
fn commit_op(ctx: &ShardContext, session: u64, state: &mut SessionState, op: JournalOp) {
    ctx.journal
        .lock()
        .expect("journal lock")
        .entry(session)
        .or_insert_with(|| SessionJournal::new(ctx.journal_limit))
        .append(op.clone());
    if let Some(disk) = &mut state.disk {
        // Best-effort: a failing disk leaves the in-memory ring as the
        // recovery source; the next restart simply recovers less.
        let _ = disk.append(&op);
    }
}

/// Looks a session up, creating it on first contact. A session this
/// executor has never seen but whose journal exists — in the shared ring
/// map (executor respawn) or on disk (process restart) — is rebuilt by
/// replay instead; an incomplete journal poisons it.
fn open_session<'a>(
    sessions: &'a mut HashMap<u64, SessionSlot>,
    session: u64,
    ctx: &ShardContext,
) -> &'a mut SessionSlot {
    sessions.entry(session).or_insert_with(|| {
        let known = ctx
            .journal
            .lock()
            .expect("journal lock")
            .contains_key(&session)
            || ctx
                .journal_dir
                .as_deref()
                .is_some_and(|d| journal_path(d, session).exists());
        if known {
            match rebuild_session(session, ctx) {
                Some(state) => SessionSlot::Live(Box::new(state)),
                None => {
                    let next_seq = ctx
                        .journal
                        .lock()
                        .expect("journal lock")
                        .get(&session)
                        .map_or(1, |j| j.last_seq() + 1);
                    SessionSlot::Poisoned {
                        reason: "journal incomplete: ring overflowed before recovery".into(),
                        next_seq,
                    }
                }
            }
        } else {
            ctx.stats.sessions.fetch_add(1, Ordering::Relaxed);
            ctx.counters.sessions.fetch_add(1, Ordering::Relaxed);
            ctx.journal
                .lock()
                .expect("journal lock")
                .insert(session, SessionJournal::new(ctx.journal_limit));
            SessionSlot::Live(Box::new(fresh_state(session, ctx)))
        }
    })
}

/// A brand-new (or about-to-be-replayed-into) session state. Sessions
/// share the shard's compile-once cache: the shard thread exclusively
/// owns its sessions, but compiled code is plain `Send + Sync` data, so
/// sharing it is safe and each fragment lowers at most once per shard.
fn fresh_state(session: u64, ctx: &ShardContext) -> SessionState {
    let server = SecureServer::new(ctx.hidden.clone()).with_vm_cache(Arc::clone(&ctx.counters.vm));
    let disk = ctx
        .journal_dir
        .as_deref()
        .and_then(|d| DiskJournal::open(d, session).ok());
    SessionState {
        server,
        replay: ReplayCache::with_capacity(ctx.replay_capacity),
        disk,
    }
}

/// Rebuilds a session's hidden state by replaying its journal of
/// committed units — the fragments are deterministic, so the result is
/// bit-identical to the lost state. Returns `None` when no journal can
/// be found or the ring is no longer a complete history (the caller then
/// poisons the session rather than rebuild wrong state).
fn rebuild_session(session: u64, ctx: &ShardContext) -> Option<SessionState> {
    let t0 = Instant::now();
    let journal = {
        let mut map = ctx.journal.lock().expect("journal lock");
        match map.get(&session) {
            Some(j) => j.clone(),
            None => {
                let loaded = ctx
                    .journal_dir
                    .as_deref()
                    .and_then(|d| load_disk_journal(d, session, ctx.journal_limit))?;
                map.insert(session, loaded.clone());
                loaded
            }
        }
    };
    if !journal.is_complete() {
        return None;
    }
    let mut state = fresh_state(session, ctx);
    for op in journal.ops() {
        match op {
            JournalOp::Seq { seq, calls, batch } => {
                // Replay is not new logical work: committed units were
                // counted when first served, so only hidden state and the
                // replay window are rebuilt here.
                let (resp, _served, _cost) = execute(&mut state.server, calls, *batch);
                let mut buf = Vec::new();
                resp.encode_into(&mut buf);
                let _ = state.replay.store(*seq, buf);
            }
            JournalOp::Release { component, key } => state.server.release(*component, *key),
        }
    }
    ctx.stats.journal_replays.fetch_add(1, Ordering::Relaxed);
    ctx.stats
        .recovery_latency
        .lock()
        .expect("recovery latency lock")
        .record(t0.elapsed().as_micros() as u64);
    Some(state)
}

/// Executes one sequenced unit against a session's secure server,
/// returning the response, the number of logical calls served, and the
/// virtual cost they spent.
fn execute(server: &mut SecureServer, calls: &[PendingCall], batch: bool) -> (Response, u64, u64) {
    if batch {
        match server.call_batch(calls) {
            Ok(outs) => {
                let n = outs.len() as u64;
                let cost: u64 = outs.iter().map(|out| out.cost).sum();
                (
                    Response::Batch(
                        outs.into_iter()
                            .map(|out| CallReply {
                                value: out.value,
                                server_cost: out.cost,
                            })
                            .collect(),
                    ),
                    n,
                    cost,
                )
            }
            Err(e) => (Response::Error(e.to_string()), 0, 0),
        }
    } else {
        let c = &calls[0];
        match server.call(c.component, c.key, c.label, &c.args) {
            Ok(out) => (
                Response::Reply {
                    value: out.value,
                    server_cost: out.cost,
                },
                1,
                out.cost,
            ),
            Err(e) => (Response::Error(e.to_string()), 0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_hash_to_stable_shards() {
        for session in 0..100u64 {
            assert_eq!(shard_of(session, 1), 0);
            let s4 = shard_of(session, 4);
            assert!(s4 < 4);
            assert_eq!(s4, shard_of(session, 4), "routing must be stable");
        }
        // All shards are reachable.
        let hit: std::collections::HashSet<usize> = (0..100u64).map(|s| shard_of(s, 4)).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn exec_messages_are_send() {
        // The whole sharding design rests on this: requests and replies
        // cross threads, hidden values never do.
        fn assert_send<T: Send>() {}
        assert_send::<ExecMsg>();
        assert_send::<Vec<u8>>();
    }
}
