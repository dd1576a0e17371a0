//! The shard pool: hidden session state partitioned by session and served
//! inline on the connection threads, one lock per shard.
//!
//! Hidden runtime values are built on `Rc<RefCell<…>>` ([`crate::value`])
//! and are deliberately **not `Send`**: making them thread-safe would put a
//! lock on every array access in the interpreter's hot path. The session
//! server partitions *ownership* instead: shard `session_id % shards`
//! holds one record per session hashed to it, behind one `Mutex`, in one
//! map keyed by session. A record keeps each fact about its session once:
//! the [`SessionJournal`] of committed ops, whose `last_seq` is the
//! session's only sequence counter, and the live part — one
//! [`SecureServer`], the last reply frame (answered again to a
//! retransmit) and the disk journal handle. A connection thread serves a
//! unit by taking its session's shard lock and running the fragments right
//! there, so a round trip pays for the socket and the fragment and for no
//! thread hand-off. Hidden values never leave the shard: fragments take
//! and return scalar [`hps_ir::Value`]s, and replies leave as encoded
//! frames (`SessionMap` states why the map may be used from more than one
//! thread). The pool compiles the hidden program once, for all its
//! shards, and every session shares that code.
//!
//! A busy shard holds back exactly the connections talking to it, never
//! other shards. No socket I/O happens inside a shard: a connection copies
//! its reply out and writes it after leaving, so a client that stops
//! reading holds back only its own connection. The number of connections
//! waiting for or inside a shard as one enters it is observed into that
//! shard's share of the `hps_server_shard_queue_depth` histogram, and
//! per-shard counters ([`ShardStats`]) record how the load spread; the
//! server's totals are their sums.
//!
//! ## Crash resilience (DESIGN.md §12)
//!
//! Each sequenced unit runs under `catch_unwind`: a panic is contained,
//! counted (`hps_server_panics_caught_total`), and the session is rebuilt
//! from its [`SessionJournal`] and the unit retried once; a second panic —
//! deterministic fragments fail deterministically — poisons only that
//! session. A shard *death* — `SessionServerHandle::kill_shard`, an
//! injected kill, or a lock poisoned by a panic that escaped — is one
//! synchronous step under the shard's lock: the live part of each of its
//! sessions is dropped (the journals stay), its incarnation and restart
//! count go up, and its crash schedule reseeds. Each session is rebuilt by
//! replaying its journal on next contact; fragments are deterministic and
//! the rebuilt session holds the same last reply for the same sequence
//! number, so exactly-once semantics survive recovery and the
//! adversary-visible trace is unchanged.
//!
//! A session's units run in order, one at a time, under one lock whatever
//! the shard count, so the adversary-visible view — program output, reply
//! bytes, trace events, interaction counts — is byte-identical for
//! `--shards 1` and `--shards N`
//! (`crates/suite/tests/shard_equivalence.rs` pins this, chaos included).

use crate::bytecode::HiddenCode;
use crate::channel::{CallReply, PendingCall};
use crate::fault::{stream_seed, CrashConfig};
use crate::journal::{journal_path, load_disk_journal, DiskJournal, SessionJournal};
use crate::server::SecureServer;
use crate::wire::{Request, Response};
use hps_ir::{ComponentId, HiddenProgram};
use hps_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Instant;

/// State shared by every thread of a session server and its handles:
/// relaxed-atomic counters kept outside the shards, and a way to reach the
/// shard pool while the server is serving.
#[derive(Default, Debug)]
pub(crate) struct StatsInner {
    pub(crate) connections: AtomicU64,
    pub(crate) replays: AtomicU64,
    pub(crate) chaos_kills: AtomicU64,
    /// Fragment panics contained by `catch_unwind` (injected or genuine).
    pub(crate) panics_caught: AtomicU64,
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

    /// Fragments the pool compiled when it was installed.
    pub(crate) fn compiled_fragments(&self) -> u64 {
        self.counters().iter().map(|c| c.compiled).sum()
    }

    pub(crate) fn shard_stats(&self) -> Vec<ShardStats> {
        self.counters()
            .iter()
            .enumerate()
            .map(|(shard, c)| ShardStats {
                shard,
                calls: c.calls.load(Ordering::Relaxed),
                cost_units: c.cost.load(Ordering::Relaxed),
                sessions: c.sessions.load(Ordering::Relaxed),
                max_queue_depth: c.max_depth.load(Ordering::Relaxed),
                compile_nanos: c.compile_nanos,
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
    /// The pool's one compile of the hidden program, held by shard 0 (0
    /// on every other shard): the fragments it compiled, and its
    /// wall-clock nanoseconds.
    compiled: u64,
    compile_nanos: u64,
}

impl ShardCounters {
    /// Zeroed counters beside a compile's fragments and nanoseconds.
    fn new((compiled, compile_nanos): (u64, u64)) -> ShardCounters {
        ShardCounters {
            calls: AtomicU64::new(0),
            cost: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            queue_depth: Mutex::new(Histogram::new()),
            exec_nanos: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            compiled,
            compile_nanos,
        }
    }
}

/// Snapshot of one shard's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Shard index (`0..shards`).
    pub shard: usize,
    /// Logical calls this shard executed (batch entries count), one hidden
    /// fragment each.
    pub calls: u64,
    /// Virtual cost units this shard's fragments spent.
    pub cost_units: u64,
    /// Sessions owned by this shard.
    pub sessions: u64,
    /// Most connections seen waiting for or inside this shard as one
    /// entered it.
    pub max_queue_depth: u64,
    /// Wall-clock nanoseconds the pool spent compiling the hidden program
    /// when it was installed, on shard 0; 0 on every other shard, so the
    /// sum over shards is the one compile. Wall-clock fields feed load
    /// attribution (`BENCH_*.json`) only — they never enter deterministic
    /// metrics snapshots.
    pub compile_nanos: u64,
    /// Wall-clock nanoseconds spent executing sequenced units.
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

/// The pool: N shards, each a lock around its sessions' records.
/// Connection threads enter the shard of their session through
/// [`ShardPool::hello`], [`ShardPool::seq`] and [`ShardPool::release`].
pub(crate) struct ShardPool {
    shards: Vec<Shard>,
    /// The hidden program, compiled once: every session's server shares
    /// it.
    code: Arc<HiddenCode>,
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
    /// Deaths so far; seeds the crash schedule.
    incarnation: u64,
    /// This incarnation's crash-schedule stream.
    chaos: Option<(StdRng, CrashConfig)>,
}

/// The record of every session of one shard.
struct SessionMap(HashMap<u64, Session>);

// SAFETY: of everything a `Session` holds, two things are not `Send`: the
// hidden values (`RtValue`) in each `SecureServer`'s state, whose
// interiors are shared `Rc`s, and the server's `RecorderHandle`, an `Rc`
// that shard sessions never set. The rest — journal bytes, the shared
// `Arc<HiddenCode>`, reply frames, disk journal file, strings — is
// `Send`. Every such `Rc` is reachable from this map alone: fragments
// take and return scalar `hps_ir::Value`s, errors carry strings, and the
// `HiddenCode` holds `Send + Sync` code, so no clone escapes to an owner
// outside the map. The map is touched only
// under its shard's `Mutex`, so one thread at a time uses these `Rc`s, and
// the lock orders every hand-over between threads.
unsafe impl Send for SessionMap {}

/// One session's record in its shard.
struct Session {
    /// The committed ops. It outlives shard deaths: a dropped session is
    /// rebuilt from it.
    journal: SessionJournal,
    /// What a shard death drops; `None` until the session's next contact
    /// rebuilds it.
    slot: Option<Slot>,
}

/// A session's live part, or a poisoned tombstone after an unrecoverable
/// panic. Poisoning is per-session by design — the blast radius of a bad
/// fragment is one session, never the shard or its other sessions.
enum Slot {
    Live(Live),
    Poisoned(String),
}

/// Per-session secure state: one [`SecureServer`], the reply frame of the
/// session's last committed unit, and the optional on-disk journal append
/// handle.
struct Live {
    server: SecureServer,
    /// The reply to `journal.last_seq()`, sent again to a retransmit of it;
    /// empty before the first unit. One buffer, reused by every unit.
    reply: Vec<u8>,
    disk: Option<DiskJournal>,
}

/// What a poisoned shard lock, a crash-schedule kill or `kill_shard` does:
/// the shard dies in one step.
fn die(state: &mut ShardState, shard: usize, counters: &ShardCounters) {
    for record in state.sessions.0.values_mut() {
        record.slot = None;
    }
    state.incarnation += 1;
    state.chaos = chaos_stream(
        state.chaos.as_ref().map(|(_, c)| *c),
        shard,
        state.incarnation,
    );
    counters.restarts.fetch_add(1, Ordering::Relaxed);
}

/// The crash schedule of one shard incarnation: deterministic per (seed,
/// shard, incarnation, event index).
fn chaos_stream(
    crash: Option<CrashConfig>,
    shard: usize,
    incarnation: u64,
) -> Option<(StdRng, CrashConfig)> {
    crash.map(|c| {
        let seed = stream_seed(c.seed, ((shard as u64) << 32) ^ incarnation);
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
    /// `config.shards` shards (min 1) serving `hidden`, which is compiled
    /// here, once, for all of them.
    pub(crate) fn new(config: ShardConfig, hidden: &HiddenProgram) -> ShardPool {
        if config.crash.is_some_and(|c| c.panic_per_mille > 0) {
            silence_injected_panics();
        }
        let t0 = Instant::now();
        let code = Arc::new(HiddenCode::compile(hidden));
        let compile = (code.fragments() as u64, t0.elapsed().as_nanos() as u64);
        let shards = (0..config.shards.max(1))
            .map(|shard| Shard {
                counters: Arc::new(ShardCounters::new(if shard == 0 {
                    compile
                } else {
                    (0, 0)
                })),
                state: Mutex::new(ShardState {
                    sessions: SessionMap(HashMap::new()),
                    incarnation: 0,
                    chaos: chaos_stream(config.crash, shard, 0),
                }),
            })
            .collect();
        ShardPool {
            shards,
            code,
            config,
        }
    }

    /// Opens `session` (rebuilding it from a journal if its shard — or the
    /// process — is meeting it after a crash) and returns its next
    /// expected sequence.
    pub(crate) fn hello(&self, stats: &StatsInner, session: u64) -> u64 {
        self.enter(stats, session, |state, cx| {
            open_session(state, cx, session).journal.last_seq() + 1
        })
    }

    /// Executes or replays one sequenced unit — a `SeqCall` or `SeqBatch`
    /// decoded from `payload`, the request bytes the journal commits — and
    /// copies the encoded `Response` frame into `out`: a served frame is
    /// copied once, from the session's last reply, so the caller writes
    /// it to the socket after leaving the shard.
    pub(crate) fn seq(
        &self,
        stats: &StatsInner,
        session: u64,
        unit: &Request,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.enter(stats, session, |state, cx| {
            let inject = state.draw(|c| c.panic_per_mille);
            let record = open_session(state, cx, session);
            if let Err(msg) = serve_seq(record, cx, session, unit, payload, inject, out) {
                Response::Error(msg).encode_into(out);
            }
        });
    }

    /// Frees one activation's hidden state, journaled (as `payload`, the
    /// `Release` request received) so a rebuild frees exactly what the
    /// live session freed. A session its shard dropped is rebuilt first,
    /// so no release is lost to a shard death.
    ///
    /// A release belongs before the sequenced unit `before`, the next one
    /// its connection sends, and applies only while the session has not
    /// run that unit yet. A later copy — a connection that fell behind
    /// while the client moved on to another — is dropped: the key may
    /// name a live activation again by then.
    pub(crate) fn release(
        &self,
        stats: &StatsInner,
        session: u64,
        before: u64,
        component: ComponentId,
        key: u64,
        payload: &[u8],
    ) {
        self.enter(stats, session, |state, cx| {
            let record = open_session(state, cx, session);
            if let Some(Slot::Live(live)) = &mut record.slot {
                if record.journal.last_seq() + 1 == before {
                    live.server.release(component, key);
                    commit_op(&mut record.journal, live, None, payload);
                }
            }
        });
    }

    /// A copy of `session`'s journal, if its shard holds the session.
    #[cfg(test)]
    pub(crate) fn journal(&self, session: u64) -> Option<SessionJournal> {
        let shard = &self.shards[shard_of(session, self.shards.len())];
        let state = shard.state.lock().ok()?;
        Some(state.sessions.0.get(&session)?.journal.clone())
    }

    /// Kills `shard` (crash drill) once no connection is inside it.
    /// Out-of-range indices are ignored.
    pub(crate) fn kill(&self, shard: usize) {
        if shard < self.shards.len() {
            let (mut state, died) = self.lock(shard);
            // A poisoned lock already was this death.
            if !died {
                die(&mut state, shard, &self.shards[shard].counters);
            }
        }
    }

    /// Locks `shard`, and says whether the shard died on the way in. A
    /// poisoned lock means a panic escaped while the shard was held and may
    /// have torn its sessions: that is a shard death. What the death keeps
    /// is valid at every step: a journal only ever grows by one whole op.
    fn lock(&self, shard: usize) -> (MutexGuard<'_, ShardState>, bool) {
        let s = &self.shards[shard];
        match s.state.lock() {
            Ok(state) => (state, false),
            Err(poisoned) => {
                s.state.clear_poison();
                let mut state = poisoned.into_inner();
                die(&mut state, shard, &s.counters);
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
        let (mut state, _) = self.lock(shard);
        if state.draw(|c| c.shard_kill_per_mille) {
            die(&mut state, shard, counters);
        }
        let cx = Cx {
            pool: self,
            counters,
            stats,
        };
        f(&mut state, &cx)
    }
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

/// Serves one sequenced unit of an opened session into `out`: a
/// retransmit of the last committed unit gets its reply again, the next
/// unit executes under panic isolation with a single rebuild-and-retry.
/// `Err` carries the error to send instead.
fn serve_seq(
    record: &mut Session,
    cx: &Cx,
    session: u64,
    unit: &Request,
    payload: &[u8],
    inject_panic: bool,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let (seq, calls, batch) = unit_parts(unit);
    let live = match &mut record.slot {
        Some(Slot::Live(live)) => live,
        Some(Slot::Poisoned(reason)) => return Err(format!("session poisoned: {reason}")),
        None => unreachable!("an opened session has a slot"),
    };
    let last = record.journal.last_seq();
    if seq != last + 1 {
        if seq != last || last == 0 {
            return Err(format!("sequence gap: got {seq}, expected {}", last + 1));
        }
        cx.stats.replays.fetch_add(1, Ordering::Relaxed);
        out.clear();
        out.extend_from_slice(&live.reply);
        return Ok(());
    }
    // Fresh: execute under `catch_unwind`. A first panic (injected or
    // genuine) leaves torn hidden state behind, so the session is rebuilt
    // from its journal and the unit retried once; a second panic —
    // deterministic fragments fail deterministically — poisons the
    // session. Only this session is affected either way, and the panic
    // never reaches the shard's lock.
    let mut retried = false;
    let reason = loop {
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_unit(&mut live.server, calls, batch, inject_panic && !retried)
        }));
        cx.counters
            .exec_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match outcome {
            Ok((resp, served, cost)) => {
                cx.counters.calls.fetch_add(served, Ordering::Relaxed);
                cx.counters.cost.fetch_add(cost, Ordering::Relaxed);
                resp.encode_into(&mut live.reply);
                // The commit point: the journal sees the unit before the
                // reply leaves the shard (DESIGN.md §12), so recovery is
                // always at or one behind what the client observed.
                commit_op(&mut record.journal, live, Some(seq), payload);
                out.clear();
                out.extend_from_slice(&live.reply);
                return Ok(());
            }
            Err(payload) => {
                cx.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
                if !retried {
                    if let Some(rebuilt) = rebuild(&record.journal, cx, session) {
                        *live = rebuilt;
                        retried = true;
                        continue;
                    }
                }
                break format!("fragment panicked: {}", panic_reason(payload.as_ref()));
            }
        }
    };
    let msg = format!("session poisoned: {reason}");
    record.slot = Some(Slot::Poisoned(reason));
    Err(msg)
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
/// `seq` unless it is a release — to the session's in-memory journal, then
/// to its disk journal (best effort). Called at the commit point, before
/// replying.
fn commit_op(journal: &mut SessionJournal, live: &mut Live, seq: Option<u64>, payload: &[u8]) {
    journal.append(seq, payload);
    if let Some(disk) = &mut live.disk {
        // Best-effort: a failing disk leaves the in-memory journal as the
        // recovery source; the next restart simply recovers less.
        let _ = disk.append(payload);
    }
}

/// Looks a session up, creating its record on first contact, and gives a
/// record its shard dropped its live part back. A session this server
/// meets for the first time but whose journal is on disk (after a process
/// restart), and one whose shard died, are rebuilt by replay; an
/// incomplete journal poisons the session.
fn open_session<'s>(state: &'s mut ShardState, cx: &Cx, session: u64) -> &'s mut Session {
    let record = state.sessions.0.entry(session).or_insert_with(|| {
        let limit = cx.pool.config.journal_limit;
        let on_disk = cx
            .pool
            .config
            .journal_dir
            .as_deref()
            .filter(|d| journal_path(d, session).exists());
        match on_disk {
            Some(dir) => Session {
                // An unreadable file is a lost history, like an overflow.
                journal: load_disk_journal(dir, session, limit).unwrap_or_else(|| {
                    let mut lost = SessionJournal::new(limit);
                    lost.forget();
                    lost
                }),
                slot: None,
            },
            None => {
                cx.counters.sessions.fetch_add(1, Ordering::Relaxed);
                Session {
                    journal: SessionJournal::new(limit),
                    slot: Some(Slot::Live(fresh_live(cx, session))),
                }
            }
        }
    });
    if record.slot.is_none() {
        record.slot = Some(match rebuild(&record.journal, cx, session) {
            Some(live) => Slot::Live(live),
            None => Slot::Poisoned("journal incomplete: ring overflowed before recovery".into()),
        });
    }
    record
}

/// A brand-new (or about-to-be-replayed-into) live session, running the
/// pool's one compiled program.
fn fresh_live(cx: &Cx, session: u64) -> Live {
    let server = SecureServer::installed(Arc::clone(&cx.pool.code));
    let disk = cx
        .pool
        .config
        .journal_dir
        .as_deref()
        .and_then(|d| DiskJournal::open(d, session).ok());
    Live {
        server,
        reply: Vec::new(),
        disk,
    }
}

/// Rebuilds a session's live part by replaying its journal of committed
/// units — the fragments are deterministic, so the result is bit-identical
/// to the lost state, last reply included. Returns `None` when the journal
/// is no longer a complete history (the caller then poisons the session
/// rather than rebuild wrong state).
fn rebuild(journal: &SessionJournal, cx: &Cx, session: u64) -> Option<Live> {
    if !journal.is_complete() {
        return None;
    }
    let t0 = Instant::now();
    let mut live = fresh_live(cx, session);
    for op in journal.ops() {
        if let Request::Release { component, key } = op {
            live.server.release(component, key);
            continue;
        }
        // Replay is not new logical work: committed units were counted
        // when first served, so only hidden state and the last reply are
        // rebuilt here.
        let (_, calls, batch) = unit_parts(&op);
        let (resp, _served, _cost) = execute(&mut live.server, calls, batch);
        resp.encode_into(&mut live.reply);
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

    /// One sequenced accumulator call; returns the reply frame.
    fn send(pool: &ShardPool, stats: &StatsInner, session: u64, seq: u64, n: i64) -> Vec<u8> {
        let call = PendingCall {
            component: ComponentId::new(0),
            key: 1,
            label: FragLabel::new(0),
            args: vec![Value::Int(n)],
        };
        let unit = Request::SeqCall { seq, call };
        let mut frame = Vec::new();
        pool.seq(stats, session, &unit, &unit.encode(), &mut frame);
        frame
    }

    /// The error text of a reply frame.
    fn error_text(frame: &[u8]) -> String {
        match Response::decode(frame).expect("decode") {
            Response::Error(msg) => msg,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    /// One sequenced accumulator call; returns the running sum.
    fn add(pool: &ShardPool, stats: &StatsInner, session: u64, seq: u64, n: i64) -> i64 {
        match Response::decode(&send(pool, stats, session, seq, n)).expect("decode") {
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
        assert_eq!(shard.sessions, 8);
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
        assert_eq!(stats.shard_stats()[0].restarts, 1);
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 1);
        // A kill that finds the poison is that same death, not a second.
        poison(&pool);
        pool.kill(0);
        assert!(!pool.shards[0].state.is_poisoned());
        assert_eq!(stats.shard_stats()[0].restarts, 2);
        assert_eq!(add(&pool, &stats, 7, 7, 7), 28);
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 2);
        assert_eq!(stats.shard_stats()[0].calls, 7, "no unit ran twice");
    }

    #[test]
    fn retransmits_get_the_last_reply_again_after_a_kill() {
        let (pool, stats) = serving_pool();
        assert_eq!(pool.hello(&stats, 3), 1);
        assert_eq!(
            error_text(&send(&pool, &stats, 3, 0, 1)),
            "sequence gap: got 0, expected 1"
        );
        assert_eq!(add(&pool, &stats, 3, 1, 1), 1);
        assert_eq!(add(&pool, &stats, 3, 2, 2), 3);
        let last = send(&pool, &stats, 3, 3, 3);
        assert_eq!(add(&pool, &stats, 3, 3, 3), 6, "a retransmit runs nothing");
        pool.kill(0);
        // The rebuilt session answers the retransmit with the same bytes
        // and executes nothing.
        assert_eq!(send(&pool, &stats, 3, 3, 3), last);
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 1);
        assert_eq!(stats.replays.load(Ordering::Relaxed), 2);
        assert_eq!(stats.shard_stats()[0].calls, 3);
        // Only the last unit is answered again; older and later ones are
        // gaps.
        for seq in [2, 5] {
            assert_eq!(
                error_text(&send(&pool, &stats, 3, seq, 9)),
                format!("sequence gap: got {seq}, expected 4")
            );
        }
        assert_eq!(add(&pool, &stats, 3, 4, 4), 10);
        assert_eq!(stats.shard_stats()[0].calls, 4);
    }

    #[test]
    fn a_journal_past_its_limit_keeps_serving_and_poisons_on_rebuild() {
        let config = ShardConfig {
            journal_limit: 2,
            ..ShardConfig::default()
        };
        let pool = Arc::new(ShardPool::new(config, &accumulator_program()));
        let stats = StatsInner::default();
        stats.install(&pool);
        assert_eq!(pool.hello(&stats, 5), 1);
        for n in 1..=3i64 {
            assert_eq!(add(&pool, &stats, 5, n as u64, n), n * (n + 1) / 2);
        }
        let journal = pool.journal(5).expect("journal");
        assert!(!journal.is_complete());
        assert_eq!((journal.len(), journal.held_bytes().len()), (0, 0));
        assert_eq!(journal.last_seq(), 3);
        // The live session still answers a retransmit and moves on.
        assert_eq!(add(&pool, &stats, 5, 3, 3), 6);
        assert_eq!(stats.shard_stats()[0].calls, 3);
        assert_eq!(add(&pool, &stats, 5, 4, 4), 10);
        // A rebuild cannot replay a freed history: the session is poisoned
        // and still reports its next sequence number.
        pool.kill(0);
        assert_eq!(pool.hello(&stats, 5), 5);
        let poisoned = "session poisoned: journal incomplete: ring overflowed before recovery";
        for seq in [4, 5] {
            assert_eq!(error_text(&send(&pool, &stats, 5, seq, 5)), poisoned);
        }
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 0);
        assert_eq!(stats.shard_stats()[0].calls, 4);
    }

    #[test]
    fn every_session_on_every_shard_runs_the_one_compiled_program() {
        let config = ShardConfig {
            shards: 4,
            ..ShardConfig::default()
        };
        let pool = Arc::new(ShardPool::new(config, &accumulator_program()));
        let stats = StatsInner::default();
        stats.install(&pool);
        // How many live sessions there are, each checked to share the
        // pool's code.
        let sharing = |pool: &ShardPool| {
            let mut live = 0;
            for shard in &pool.shards {
                let state = shard.state.lock().expect("shard lock");
                for record in state.sessions.0.values() {
                    let Some(Slot::Live(session)) = &record.slot else {
                        panic!("every session is live");
                    };
                    assert!(Arc::ptr_eq(session.server.code(), &pool.code));
                    live += 1;
                }
            }
            live
        };
        for session in 0..8 {
            assert_eq!(pool.hello(&stats, session), 1);
            assert_eq!(add(&pool, &stats, session, 1, 1), 1);
        }
        assert_eq!(sharing(&pool), 8);
        for shard in 0..4 {
            pool.kill(shard);
        }
        for session in 0..8 {
            assert_eq!(add(&pool, &stats, session, 2, 2), 3);
        }
        assert_eq!(stats.journal_replays.load(Ordering::Relaxed), 8);
        assert_eq!(sharing(&pool), 8);
        // The one compile is shard 0's.
        assert_eq!(stats.compiled_fragments(), 1);
        let shards = stats.shard_stats();
        assert!(shards[1..].iter().all(|s| s.compile_nanos == 0));
    }
}
