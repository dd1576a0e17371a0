//! The shard pool: hidden session state partitioned by session and served
//! inline on the connection threads, one lock per shard.
//!
//! Hidden runtime values are built on `Rc<RefCell<…>>` ([`crate::value`])
//! and are deliberately **not `Send`**: making them thread-safe would put a
//! lock on every array access in the interpreter's hot path. The session
//! server partitions *ownership* instead: shard `session_id % shards`
//! holds the complete state (one [`SecureServer`] plus replay window per
//! session) of every session hashed to it, behind one `Mutex`. A
//! connection thread serves a unit by taking its session's shard lock and
//! running the fragments right there, so a round trip pays for the socket
//! and the fragment and for no thread hand-off. Hidden values never leave
//! the shard: fragments take and return scalar [`hps_ir::Value`]s, and
//! replies leave as encoded frames (`SessionMap` states why the map may
//! be used from more than one thread).
//!
//! A busy shard holds back exactly the connections talking to it, never
//! other shards. No socket I/O happens inside a shard: a connection copies
//! its reply out and writes it after leaving, so a client that stops
//! reading holds back only its own connection. The number of connections waiting for or inside a shard
//! as one enters it is observed into that shard's share of the
//! `hps_server_shard_queue_depth` histogram, and per-shard counters
//! ([`ShardStats`]) record how the load spread.
//!
//! ## Crash resilience (DESIGN.md §12)
//!
//! Each sequenced unit runs under `catch_unwind`: a panic is contained,
//! counted (`hps_server_panics_caught_total`), and the session is rebuilt
//! from its [`SessionJournal`] and the unit retried once; a second panic —
//! deterministic fragments fail deterministically — poisons only that
//! session. A shard *death* — `SessionServerHandle::kill_shard`, an
//! injected kill, or a lock poisoned by a panic that escaped — is one
//! synchronous step under the shard's lock: its live sessions are dropped,
//! its incarnation and restart count go up, and its crash schedule
//! reseeds. Each session is rebuilt by replaying its journal on next
//! contact; fragments are deterministic and the replay windows come back at
//! the same sequence numbers, so exactly-once semantics survive recovery
//! and the adversary-visible trace is unchanged.
//!
//! A session's units run in order, one at a time, under one lock whatever
//! the shard count, so the adversary-visible view — program output, reply
//! bytes, trace events, interaction counts — is byte-identical for
//! `--shards 1` and `--shards N`
//! (`crates/suite/tests/shard_equivalence.rs` pins this, chaos included).

use crate::bytecode::VmCache;
use crate::channel::{CallReply, PendingCall};
use crate::fault::CrashConfig;
use crate::journal::{journal_path, load_disk_journal, DiskJournal, SessionJournal};
use crate::server::{ReplayCache, SecureServer, SeqCheck};
use crate::wire::{Request, Response};
use hps_ir::{ComponentId, HiddenProgram};
use hps_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Instant;

/// State shared by every thread of a session server and its handles:
/// relaxed-atomic counters, and a way to reach the shard pool while the
/// server is serving.
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
    /// Shard deaths: kills, injected kills and poisoned locks.
    pub(crate) shard_restarts: AtomicU64,
    /// Sessions rebuilt from a journal (shard death, panic or restart).
    pub(crate) journal_replays: AtomicU64,
    /// Wall-clock microseconds per session rebuild. Live-scrape /
    /// `BENCH_*.json` exposition only — never part of a deterministic
    /// snapshot (see OBSERVABILITY.md).
    pub(crate) recovery_latency: Mutex<Histogram>,
    /// Each shard's counters; they stay readable after serving stops.
    shards: OnceLock<Vec<Arc<ShardCounters>>>,
    /// The serving pool, for `kill_shard`. Weak, so every session's hidden
    /// state is freed when `serve` returns and drops the pool.
    pool: OnceLock<Weak<ShardPool>>,
}

impl StatsInner {
    /// Makes `pool` this server's shard pool (once, before its first
    /// accept).
    pub(crate) fn install(&self, pool: &Arc<ShardPool>) {
        let counters = pool.shards.iter().map(|s| Arc::clone(&s.counters));
        let _ = self.shards.set(counters.collect());
        let _ = self.pool.set(Arc::downgrade(pool));
    }

    /// The shard pool, while the server is serving.
    pub(crate) fn pool(&self) -> Option<Arc<ShardPool>> {
        self.pool.get().and_then(Weak::upgrade)
    }

    fn counters(&self) -> &[Arc<ShardCounters>] {
        self.shards.get().map_or(&[], Vec::as_slice)
    }

    /// Entry-time queue depths, merged across the shards.
    pub(crate) fn queue_depth_histogram(&self) -> Histogram {
        let mut merged = Histogram::new();
        for c in self.counters() {
            merged.merge(&c.queue_depth.lock().expect("queue depth lock"));
        }
        merged
    }

    pub(crate) fn recovery_latency_histogram(&self) -> Histogram {
        self.recovery_latency
            .lock()
            .expect("recovery latency lock")
            .clone()
    }

    pub(crate) fn shard_stats(&self) -> Vec<ShardStats> {
        self.counters()
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

/// Per-shard live counters (internal; snapshot via [`ShardStats`]). Kept
/// outside the shard's lock so reading them never waits on a fragment.
#[derive(Debug)]
struct ShardCounters {
    calls: AtomicU64,
    fragments: AtomicU64,
    cost: AtomicU64,
    sessions: AtomicU64,
    /// Connections waiting for or inside the shard right now.
    depth: AtomicU64,
    max_depth: AtomicU64,
    /// `depth` as each connection entered. Per shard, so an entry locks
    /// only its own shard's histogram.
    queue_depth: Mutex<Histogram>,
    /// Wall-clock nanoseconds this shard spent executing sequenced units.
    exec_nanos: AtomicU64,
    /// Deaths of this shard: kills, injected kills and poisoned locks.
    restarts: AtomicU64,
    /// The shard's shared compile-once bytecode cache. Every session of
    /// the shard compiles into — and hits — this cache; it holds `Send +
    /// Sync` code only and survives shard deaths.
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
            queue_depth: Mutex::new(Histogram::new()),
            exec_nanos: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            vm: Arc::new(VmCache::for_program(hidden)),
        }
    }
}

/// Snapshot of one shard's counters.
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
    /// Most connections seen waiting for or inside this shard as one
    /// entered it.
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
    /// Times this shard died — killed, killed by the crash schedule, or
    /// its lock poisoned — and dropped its live sessions (sums to
    /// `hps_server_shard_restarts_total` across shards).
    pub restarts: u64,
}

/// The shard a session is owned by. Pure function of the session id, so
/// every connection of a session — including reconnects — lands on the
/// same shard.
pub(crate) fn shard_of(session: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (session % shards as u64) as usize
}

/// Configuration of a shard pool.
#[derive(Clone, Debug)]
pub(crate) struct ShardConfig {
    pub(crate) shards: usize,
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
            journal_limit: crate::journal::DEFAULT_JOURNAL_LIMIT,
            journal_dir: None,
            crash: None,
        }
    }
}

/// The pool: N shards, each a lock around its sessions' state. Connection
/// threads enter the shard of their session through [`ShardPool::hello`],
/// [`ShardPool::seq`] and [`ShardPool::release`].
pub(crate) struct ShardPool {
    shards: Vec<Shard>,
    hidden: HiddenProgram,
    config: ShardConfig,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

struct Shard {
    counters: Arc<ShardCounters>,
    state: Mutex<ShardState>,
}

/// What one shard's lock guards.
struct ShardState {
    sessions: SessionMap,
    /// The committed-op journals, one ring per session. They outlive shard
    /// deaths: a dropped session is rebuilt from its journal.
    journals: HashMap<u64, SessionJournal>,
    /// Deaths so far; seeds the crash schedule.
    incarnation: u64,
    /// This incarnation's crash-schedule stream.
    chaos: Option<(StdRng, CrashConfig)>,
}

/// The hidden state of every session of one shard.
struct SessionMap(HashMap<u64, SessionSlot>);

// SAFETY: of everything a `SessionSlot` holds, two things are not `Send`:
// the hidden values (`RtValue`) in each `SecureServer`'s state, whose
// interiors are shared `Rc`s, and the server's `RecorderHandle`, an `Rc`
// that shard sessions never set. The rest — hidden program, cost model,
// `Arc<VmCache>`, replay frames, disk journal file, strings — is `Send`.
// Every such `Rc` is reachable from this map alone: fragments take and
// return scalar `hps_ir::Value`s, errors carry strings, and the shard's
// `VmCache` holds `Send + Sync` code, so no clone escapes to an owner
// outside the map. The map is touched only under its shard's `Mutex`, so
// one thread at a time uses these `Rc`s, and the lock orders every
// hand-over between threads.
unsafe impl Send for SessionMap {}

/// What a poisoned shard lock, a crash-schedule kill or `kill_shard` does:
/// the shard dies in one step.
fn die(state: &mut ShardState, shard: usize, counters: &ShardCounters, stats: &StatsInner) {
    state.sessions.0.clear();
    state.incarnation += 1;
    state.chaos = chaos_stream(
        state.chaos.as_ref().map(|(_, c)| *c),
        shard,
        state.incarnation,
    );
    counters.restarts.fetch_add(1, Ordering::Relaxed);
    stats.shard_restarts.fetch_add(1, Ordering::Relaxed);
}

/// The crash schedule of one shard incarnation: deterministic per (seed,
/// shard, incarnation, event index).
fn chaos_stream(
    crash: Option<CrashConfig>,
    shard: usize,
    incarnation: u64,
) -> Option<(StdRng, CrashConfig)> {
    crash.map(|c| {
        let seed = c.seed ^ ((shard as u64) << 32) ^ incarnation;
        (StdRng::seed_from_u64(seed), c)
    })
}

impl ShardState {
    /// One draw from the crash schedule at per-mille `rate`; no draw at
    /// all when the rate is zero.
    fn draw(&mut self, rate: fn(&CrashConfig) -> u32) -> bool {
        match &mut self.chaos {
            Some((rng, c)) if rate(c) > 0 => rng.gen_range(0u32..1000) < rate(c),
            _ => false,
        }
    }
}

/// Settings and counters one entry into a shard reads besides its locked
/// state.
struct Cx<'a> {
    pool: &'a ShardPool,
    counters: &'a ShardCounters,
    stats: &'a StatsInner,
}

/// Takes a connection back out of its shard's depth on drop, also when a
/// panic unwinds through the shard.
struct Leave<'a>(&'a AtomicU64);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ShardPool {
    /// `config.shards` shards (min 1), each with one compile-once bytecode
    /// cache shared by all its sessions.
    pub(crate) fn new(config: ShardConfig, hidden: &HiddenProgram) -> ShardPool {
        if config.crash.is_some_and(|c| c.panic_per_mille > 0) {
            silence_injected_panics();
        }
        let shards = (0..config.shards.max(1))
            .map(|shard| Shard {
                counters: Arc::new(ShardCounters::new(hidden)),
                state: Mutex::new(ShardState {
                    sessions: SessionMap(HashMap::new()),
                    journals: HashMap::new(),
                    incarnation: 0,
                    chaos: chaos_stream(config.crash, shard, 0),
                }),
            })
            .collect();
        ShardPool {
            shards,
            hidden: hidden.clone(),
            config,
        }
    }

    /// Opens `session` (rebuilding it from a journal if its shard — or the
    /// process — is meeting it after a crash) and returns its next
    /// expected sequence.
    pub(crate) fn hello(&self, stats: &StatsInner, session: u64) -> u64 {
        self.enter(stats, session, |state, cx| {
            match open_session(state, cx, session) {
                SessionSlot::Live(live) => live.replay.next_seq(),
                SessionSlot::Poisoned { next_seq, .. } => *next_seq,
            }
        })
    }

    /// Executes or replays one sequenced unit — a `SeqCall` or `SeqBatch`
    /// decoded from `payload`, the request bytes the journal commits — and
    /// copies the encoded `Response` frame into `out`: a served frame is
    /// copied once, from the session's replay window, so the caller writes
    /// it to the socket after leaving the shard.
    pub(crate) fn seq(
        &self,
        stats: &StatsInner,
        session: u64,
        unit: &Request,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        let seq = unit_parts(unit).0;
        self.enter(stats, session, |state, cx| {
            let inject = state.draw(|c| c.panic_per_mille);
            match serve_seq(state, cx, session, unit, payload, inject) {
                Ok(()) => {
                    let Some(SessionSlot::Live(live)) = state.sessions.0.get(&session) else {
                        unreachable!("a served session is live");
                    };
                    let SeqCheck::Replay(frame) = live.replay.check(seq) else {
                        unreachable!("a served sequence is in the replay window");
                    };
                    out.clear();
                    out.extend_from_slice(frame);
                }
                Err(msg) => Response::Error(msg).encode_into(out),
            }
        });
    }

    /// Frees one activation's hidden state, journaled (as `payload`, the
    /// `Release` request received) so a rebuild frees exactly what the
    /// live session freed. A session its shard dropped is rebuilt first,
    /// so no release is lost to a shard death.
    pub(crate) fn release(
        &self,
        stats: &StatsInner,
        session: u64,
        component: ComponentId,
        key: u64,
        payload: &[u8],
    ) {
        self.enter(stats, session, |state, cx| {
            open_session(state, cx, session);
            let ShardState {
                sessions, journals, ..
            } = state;
            if let Some(SessionSlot::Live(live)) = sessions.0.get_mut(&session) {
                live.server.release(component, key);
                commit_op(journals, cx, session, live, None, payload);
            }
        });
    }

    /// A copy of `session`'s journal ring, if its shard holds one.
    #[cfg(test)]
    pub(crate) fn journal(&self, session: u64) -> Option<SessionJournal> {
        let shard = &self.shards[shard_of(session, self.shards.len())];
        shard.state.lock().ok()?.journals.get(&session).cloned()
    }

    /// Kills `shard` (crash drill) once no connection is inside it.
    /// Out-of-range indices are ignored.
    pub(crate) fn kill(&self, stats: &StatsInner, shard: usize) {
        if shard < self.shards.len() {
            let (mut state, died) = self.lock(stats, shard);
            // A poisoned lock already was this death.
            if !died {
                die(&mut state, shard, &self.shards[shard].counters, stats);
            }
        }
    }

    /// Locks `shard`, and says whether the shard died on the way in. A
    /// poisoned lock means a panic escaped while the shard was held and may
    /// have torn its sessions: that is a shard death. What the death keeps
    /// is valid at every step: a journal only ever grows by one whole op.
    fn lock(&self, stats: &StatsInner, shard: usize) -> (MutexGuard<'_, ShardState>, bool) {
        let s = &self.shards[shard];
        match s.state.lock() {
            Ok(state) => (state, false),
            Err(poisoned) => {
                s.state.clear_poison();
                let mut state = poisoned.into_inner();
                die(&mut state, shard, &s.counters, stats);
                (state, true)
            }
        }
    }

    /// Runs `f` inside `session`'s shard: records the entry-time depth,
    /// takes the lock, and draws the crash schedule's shard kill first.
    fn enter<R>(
        &self,
        stats: &StatsInner,
        session: u64,
        f: impl FnOnce(&mut ShardState, &Cx) -> R,
    ) -> R {
        let shard = shard_of(session, self.shards.len());
        let counters = &self.shards[shard].counters;
        let depth = counters.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let _leave = Leave(&counters.depth);
        counters.max_depth.fetch_max(depth, Ordering::Relaxed);
        counters
            .queue_depth
            .lock()
            .expect("queue depth lock")
            .record(depth);
        let (mut state, _) = self.lock(stats, shard);
        if state.draw(|c| c.shard_kill_per_mille) {
            die(&mut state, shard, counters, stats);
        }
        let cx = Cx {
            pool: self,
            counters,
            stats,
        };
        f(&mut state, &cx)
    }
}

/// One session's slot in its shard: live state, or a poisoned tombstone
/// after an unrecoverable panic. Poisoning is per-session by design — the
/// blast radius of a bad fragment is one session, never the shard or its
/// other sessions.
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

/// A sequenced unit's number and calls, and whether it came as a batch
/// frame. Connections hand a shard only `SeqCall`s and `SeqBatch`es, and
/// journals hold nothing else but releases.
fn unit_parts(unit: &Request) -> (u64, &[PendingCall], bool) {
    match unit {
        Request::SeqCall { seq, call } => (*seq, std::slice::from_ref(call), false),
        Request::SeqBatch { seq, calls } => (*seq, calls, true),
        other => unreachable!("not a sequenced unit: {other:?}"),
    }
}

/// Serves one sequenced unit: replay-cache fast paths first, then fresh
/// execution under panic isolation with a single rebuild-and-retry.
/// `Ok` means the reply is the frame now cached for the unit's sequence;
/// `Err` carries the error to send instead.
fn serve_seq(
    state: &mut ShardState,
    cx: &Cx,
    session: u64,
    unit: &Request,
    payload: &[u8],
    inject_panic: bool,
) -> Result<(), String> {
    let (seq, calls, batch) = unit_parts(unit);
    match open_session(state, cx, session) {
        SessionSlot::Poisoned { reason, .. } => return Err(format!("session poisoned: {reason}")),
        SessionSlot::Live(live) => match live.replay.check(seq) {
            SeqCheck::Fresh => {}
            SeqCheck::Replay(_) => {
                cx.stats.replays.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            SeqCheck::Gap { expected } => {
                return Err(format!("sequence gap: got {seq}, expected {expected}"));
            }
        },
    }
    let ShardState {
        sessions, journals, ..
    } = state;
    // Fresh: execute under `catch_unwind`. A first panic (injected or
    // genuine) leaves torn hidden state behind, so the session is rebuilt
    // from its journal and the unit retried once; a second panic —
    // deterministic fragments fail deterministically — poisons the
    // session. Only this session is affected either way, and the panic
    // never reaches the shard's lock.
    let mut attempt = 0u32;
    loop {
        let Some(SessionSlot::Live(live)) = sessions.0.get_mut(&session) else {
            unreachable!("session opened live above");
        };
        let inject = inject_panic && attempt == 0;
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_unit(&mut live.server, calls, batch, inject)
        }));
        cx.counters
            .exec_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match outcome {
            Ok((resp, served, cost)) => {
                cx.stats.calls.fetch_add(served, Ordering::Relaxed);
                cx.counters.calls.fetch_add(served, Ordering::Relaxed);
                cx.counters.fragments.fetch_add(served, Ordering::Relaxed);
                cx.counters.cost.fetch_add(cost, Ordering::Relaxed);
                let mut buf = Vec::new();
                resp.encode_into(&mut buf);
                let evicted = live.replay.store(seq, buf);
                cx.stats
                    .replay_evictions
                    .fetch_add(evicted, Ordering::Relaxed);
                // The commit point: the journal sees the unit before the
                // reply leaves the shard (DESIGN.md §12), so recovery is
                // always at or one behind what the client observed.
                commit_op(journals, cx, session, live, Some(seq), payload);
                return Ok(());
            }
            Err(payload) => {
                cx.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
                let reason = panic_reason(payload.as_ref());
                if attempt == 0 {
                    if let Some(rebuilt) = rebuild_session(journals, cx, session) {
                        sessions
                            .0
                            .insert(session, SessionSlot::Live(Box::new(rebuilt)));
                        attempt = 1;
                        continue;
                    }
                }
                let next_seq = journals.get(&session).map_or(seq, |j| j.last_seq() + 1);
                let reason = format!("fragment panicked: {reason}");
                let msg = format!("session poisoned: {reason}");
                sessions
                    .0
                    .insert(session, SessionSlot::Poisoned { reason, next_seq });
                return Err(msg);
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

/// Appends a committed op — `payload`, the request as received, numbered
/// `seq` unless it is a release — to the session's in-memory ring, then
/// to its disk journal (best effort). Called at the commit point, before
/// replying.
fn commit_op(
    journals: &mut HashMap<u64, SessionJournal>,
    cx: &Cx,
    session: u64,
    live: &mut SessionState,
    seq: Option<u64>,
    payload: &[u8],
) {
    journals
        .entry(session)
        .or_insert_with(|| SessionJournal::new(cx.pool.config.journal_limit))
        .append(seq, payload);
    if let Some(disk) = &mut live.disk {
        // Best-effort: a failing disk leaves the in-memory ring as the
        // recovery source; the next restart simply recovers less.
        let _ = disk.append(payload);
    }
}

/// Looks a session up, creating it on first contact. A session this shard
/// does not hold but whose journal exists — in the shard's rings (after a
/// shard death) or on disk (after a process restart) — is rebuilt by
/// replay instead; an incomplete journal poisons it.
fn open_session<'s>(state: &'s mut ShardState, cx: &Cx, session: u64) -> &'s mut SessionSlot {
    let ShardState {
        sessions, journals, ..
    } = state;
    sessions.0.entry(session).or_insert_with(|| {
        let known = journals.contains_key(&session)
            || cx
                .pool
                .config
                .journal_dir
                .as_deref()
                .is_some_and(|d| journal_path(d, session).exists());
        if !known {
            cx.stats.sessions.fetch_add(1, Ordering::Relaxed);
            cx.counters.sessions.fetch_add(1, Ordering::Relaxed);
            journals.insert(session, SessionJournal::new(cx.pool.config.journal_limit));
            return SessionSlot::Live(Box::new(fresh_state(cx, session)));
        }
        match rebuild_session(journals, cx, session) {
            Some(live) => SessionSlot::Live(Box::new(live)),
            None => SessionSlot::Poisoned {
                reason: "journal incomplete: ring overflowed before recovery".into(),
                next_seq: journals.get(&session).map_or(1, |j| j.last_seq() + 1),
            },
        }
    })
}

/// A brand-new (or about-to-be-replayed-into) session state. Sessions
/// share the shard's compile-once cache, so each fragment lowers at most
/// once per shard.
fn fresh_state(cx: &Cx, session: u64) -> SessionState {
    let server =
        SecureServer::new(cx.pool.hidden.clone()).with_vm_cache(Arc::clone(&cx.counters.vm));
    let disk = cx
        .pool
        .config
        .journal_dir
        .as_deref()
        .and_then(|d| DiskJournal::open(d, session).ok());
    SessionState {
        server,
        replay: ReplayCache::new(),
        disk,
    }
}

/// Rebuilds a session's hidden state by replaying its journal of
/// committed units — the fragments are deterministic, so the result is
/// bit-identical to the lost state. Returns `None` when no journal can
/// be found or the ring is no longer a complete history (the caller then
/// poisons the session rather than rebuild wrong state).
fn rebuild_session(
    journals: &mut HashMap<u64, SessionJournal>,
    cx: &Cx,
    session: u64,
) -> Option<SessionState> {
    let t0 = Instant::now();
    let journal = match journals.entry(session) {
        Entry::Occupied(ring) => ring.into_mut(),
        Entry::Vacant(slot) => {
            let dir = cx.pool.config.journal_dir.as_deref()?;
            slot.insert(load_disk_journal(
                dir,
                session,
                cx.pool.config.journal_limit,
            )?)
        }
    };
    if !journal.is_complete() {
        return None;
    }
    let mut live = fresh_state(cx, session);
    for op in journal.ops() {
        if let Request::Release { component, key } = op {
            live.server.release(component, key);
            continue;
        }
        // Replay is not new logical work: committed units were counted
        // when first served, so only hidden state and the replay window
        // are rebuilt here.
        let (seq, calls, batch) = unit_parts(&op);
        let (resp, _served, _cost) = execute(&mut live.server, calls, batch);
        let mut buf = Vec::new();
        resp.encode_into(&mut buf);
        let _ = live.replay.store(seq, buf);
    }
    cx.stats.journal_replays.fetch_add(1, Ordering::Relaxed);
    cx.stats
        .recovery_latency
        .lock()
        .expect("recovery latency lock")
        .record(t0.elapsed().as_micros() as u64);
    Some(live)
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
pub(crate) mod tests {
    use super::*;
    use hps_ir::{
        BinOp, Block, ComponentKind, Expr, FragLabel, Fragment, HiddenComponent, HiddenVar,
        LocalId, Place, Stmt, StmtKind, Ty, Value,
    };

    /// One hidden accumulator: `L0(p) { acc = acc + p; return acc }`.
    pub(crate) fn accumulator_program() -> HiddenProgram {
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

    /// One sequenced accumulator call; returns the running sum.
    fn add(pool: &ShardPool, stats: &StatsInner, session: u64, seq: u64, n: i64) -> i64 {
        let call = PendingCall {
            component: ComponentId::new(0),
            key: 1,
            label: FragLabel::new(0),
            args: vec![Value::Int(n)],
        };
        let unit = Request::SeqCall { seq, call };
        let mut frame = Vec::new();
        pool.seq(stats, session, &unit, &unit.encode(), &mut frame);
        match Response::decode(&frame).expect("decode") {
            Response::Reply {
                value: Value::Int(sum),
                ..
            } => sum,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// A one-shard pool, installed as a serving server would.
    fn serving_pool() -> (Arc<ShardPool>, StatsInner) {
        let pool = Arc::new(ShardPool::new(
            ShardConfig::default(),
            &accumulator_program(),
        ));
        let stats = StatsInner::default();
        stats.install(&pool);
        (pool, stats)
    }

    /// Poisons shard 0's lock the way an escaped panic would.
    fn poison(pool: &ShardPool) {
        let escaped = std::panic::catch_unwind(|| {
            let _held = pool.shards[0].state.lock();
            panic!("escaped while holding the shard");
        });
        assert!(escaped.is_err());
        assert!(pool.shards[0].state.is_poisoned());
    }

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
    fn shard_pool_is_send_and_sync() {
        // Connection threads share one pool; the audited `Send` of
        // `SessionMap` is what makes that possible.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardPool>();
    }

    #[test]
    fn interleaved_sessions_on_one_shard_stay_exact() {
        let (pool, stats) = serving_pool();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (pool, stats, start) = (&*pool, &stats, &start);
                scope.spawn(move || {
                    // Two sessions per thread, alternating call by call,
                    // while three other threads do the same on the shard.
                    let sessions = [2 * t + 1, 2 * t + 2];
                    for session in sessions {
                        assert_eq!(pool.hello(stats, session), 1);
                    }
                    start.wait();
                    for n in 1..=50i64 {
                        for session in sessions {
                            assert_eq!(add(pool, stats, session, n as u64, n), n * (n + 1) / 2);
                        }
                    }
                });
            }
        });
        let shard = stats.shard_stats()[0];
        assert_eq!(shard.calls, 400);
        assert_eq!(shard.fragments, 400);
        assert_eq!(shard.sessions, 8);
        assert_eq!(stats.calls.load(Ordering::Relaxed), 400);
        assert_eq!(
            stats.queue_depth_histogram().count(),
            408,
            "8 hellos + 400 calls"
        );
        assert_eq!(shard.restarts, 0);
    }

    #[test]
    fn back_pressure_blocks_only_the_busy_shard() {
        // Two shards: session 1 hashes to shard 1, session 2 to shard 0.
        let config = ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        };
        let pool = Arc::new(ShardPool::new(config, &accumulator_program()));
        let stats = StatsInner::default();
        stats.install(&pool);
        let (pool, stats) = (&*pool, &stats);
        let (inside_tx, inside_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // A connection busy inside shard 1 until the test releases it.
            scope.spawn(move || {
                pool.enter(stats, 1, move |_, _| {
                    inside_tx.send(()).expect("inside");
                    release_rx.recv().expect("release");
                })
            });
            inside_rx.recv().expect("busy connection entered");
            // A second connection of shard 1 queues behind it.
            let queued = scope.spawn(move || {
                assert_eq!(pool.hello(stats, 1), 1);
                add(pool, stats, 1, 1, 7)
            });
            while stats.shard_stats()[1].max_queue_depth < 2 {
                std::thread::yield_now();
            }
            // Shard 0 serves while shard 1 is held.
            assert_eq!(pool.hello(stats, 2), 1);
            for n in 1..=50i64 {
                assert_eq!(add(pool, stats, 2, n as u64, n), n * (n + 1) / 2);
            }
            assert!(!queued.is_finished(), "shard 1 is still held");
            release_tx.send(()).expect("release");
            assert_eq!(queued.join().expect("queued connection"), 7);
        });
        let shards = stats.shard_stats();
        assert_eq!((shards[0].calls, shards[1].calls), (50, 1));
        assert_eq!(shards[0].max_queue_depth, 1);
        assert_eq!(shards[1].max_queue_depth, 2);
    }

    #[test]
    fn poisoned_lock_is_one_shard_death_and_sessions_rebuild() {
        let (pool, stats) = serving_pool();
        assert_eq!(pool.hello(&stats, 7), 1);
        for n in 1..=4i64 {
            assert_eq!(add(&pool, &stats, 7, n as u64, n), n * (n + 1) / 2);
        }
        // A panic that escapes while the shard is held poisons its lock;
        // the next entry finds the poison: one death, then the session is
        // rebuilt from its journal with the right running sum.
        poison(&pool);
        assert_eq!(add(&pool, &stats, 7, 5, 5), 15);
        assert_eq!(add(&pool, &stats, 7, 6, 6), 21);
        assert!(!pool.shards[0].state.is_poisoned());
        assert_eq!(stats.shard_restarts.load(Ordering::Relaxed), 1);
        assert_eq!(stats.shard_stats()[0].restarts, 1);
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 1);
        // A kill that finds the poison is that same death, not a second.
        poison(&pool);
        pool.kill(&stats, 0);
        assert!(!pool.shards[0].state.is_poisoned());
        assert_eq!(stats.shard_restarts.load(Ordering::Relaxed), 2);
        assert_eq!(stats.shard_stats()[0].restarts, 2);
        assert_eq!(add(&pool, &stats, 7, 7, 7), 28);
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 2);
        assert_eq!(stats.calls.load(Ordering::Relaxed), 7, "no unit ran twice");
    }
}
