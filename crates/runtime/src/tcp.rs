//! TCP transport: run the hidden component in another process or on
//! another machine, as in the paper's evaluation ("ran them on two separate
//! linux based machines that communicated over the local area network").
//!
//! Frames are the [`crate::wire`] protocol, and every connection speaks it
//! inside a *session*: the first frame is `Hello`, every call after it is
//! sequenced. Each connection keeps a persistent buffered reader/writer
//! pair and reuses one encode buffer, so steady-state calls perform no
//! per-call allocation for framing. Batched calls
//! ([`Channel::call_batch`]) travel as one `SeqBatch` frame and count as a
//! single interaction.
//!
//! ## Reliability layer
//!
//! Two cooperating halves make the transport survive flaky links and
//! server restarts without changing the adversary-visible interaction
//! sequence (DESIGN.md §7b):
//!
//! * **Client** — [`TcpChannel::connect_reliable`] opens a session
//!   (`Hello`/`HelloAck` handshake, version-checked), applies read/write
//!   timeouts from its [`RetryPolicy`], and sends every logical round trip
//!   as a sequenced frame. On a retryable fault it reconnects with
//!   exponential backoff plus deterministic jitter (vendored rand shim)
//!   and retransmits the same sequence number.
//! * **Server** — [`SessionServer`] accepts many clients (thread per
//!   connection), keys one [`crate::server::SecureServer`] per session id,
//!   and keeps the encoded reply frame of each session's last committed
//!   unit: a retried call whose response was lost is answered with that
//!   frame again, never re-executed. Sequence gaps are terminal, and a
//!   connection whose first frame is not `Hello` is answered with an error
//!   and closed.
//!   Each connection thread runs its session's units itself, inside the
//!   session's shard ([`crate::shard`]): one lock per shard, no hand-off
//!   to another thread, and sessions on different shards run in parallel.
//!
//! `Release` frames are unsequenced and unanswered, but ordered with the
//! sequenced stream: a release belongs before the next unit its client
//! sends. The client keeps the releases written since its last completed
//! round trip and re-sends them after a reconnect whose `HelloAck` shows
//! that unit has not run; the server applies a release only while that
//! unit has not run, so a late copy never frees a reopened activation.
//!
//! Retries, reconnects and replays are visible only in
//! [`Channel::transport_stats`] — never in [`Channel::interactions`],
//! server-side call counts, or [`crate::trace::TraceChannel`] events.
//!
//! ## Fault injection
//!
//! [`SessionServer::with_chaos`] faults the real wire, where the protocol
//! runs: a seeded share of the frames a connection reads lose their
//! request or their reply, get a torn reply, or a reply late enough that
//! the client retransmits on a second connection while the first is still
//! open.

use crate::channel::{CallReply, Channel, PendingCall, TransportStats};
use crate::error::{FaultClass, RuntimeError};
use crate::fault::{stream_seed, CrashConfig};
use crate::shard::{ShardConfig, ShardPool, StatsInner};
use crate::wire::{
    push_seq_unit, read_frame, write_frame, write_torn_frame, Request, Response, WIRE_VERSION,
};
use hps_ir::{ComponentId, FragLabel, HiddenProgram, Value};
use hps_telemetry::{metrics::names, Event, Histogram, MetricsSnapshot, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many committed frames — sequenced units and releases — a client
/// retains for the session-resume path: if a recovered server comes back
/// missing a tail of committed frames (lost journal frames), the handshake
/// re-drives up to this many frames byte-identically.
const RESUME_WINDOW: usize = 64;

/// How long a [`ChaosConfig`] late reply waits before it is written:
/// longer than the per-attempt timeout the chaos tests give their clients,
/// so the client retransmits on a new connection while this one is open.
const LATE_REPLY: Duration = Duration::from_millis(300);

/// Client-side retry configuration for [`TcpChannel::connect_reliable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Attempts per logical round trip (including the first).
    pub max_attempts: u32,
    /// First backoff delay; attempt `n` waits `base_backoff · 2ⁿ` plus
    /// jitter drawn from `[0, base_backoff)`.
    pub base_backoff: Duration,
    /// Read/write/connect timeout per attempt.
    pub timeout: Duration,
    /// Optional wall-clock deadline per *logical call* (`hps client
    /// --timeout MS`). Where `timeout` bounds one attempt, this bounds the
    /// whole retry loop: a hung or unreachable server fails fast with a
    /// terminal `deadline` fault instead of exhausting the backoff budget.
    pub call_deadline: Option<Duration>,
    /// Seed for the deterministic jitter stream (and session-id salt).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Defaults: 6 attempts, 10 ms base backoff, 5 s timeout, no per-call
    /// deadline.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
            call_deadline: None,
            jitter_seed: 0x5eed_cafe,
        }
    }

    /// Overrides the attempt budget (builder style).
    pub fn with_max_attempts(mut self, n: u32) -> RetryPolicy {
        self.max_attempts = n.max(1);
        self
    }

    /// Overrides the base backoff (builder style).
    pub fn with_base_backoff(mut self, d: Duration) -> RetryPolicy {
        self.base_backoff = d;
        self
    }

    /// Overrides the per-attempt timeout (builder style).
    pub fn with_timeout(mut self, d: Duration) -> RetryPolicy {
        self.timeout = d;
        self
    }

    /// Overrides the jitter seed (builder style).
    pub fn with_jitter_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// Sets the per-logical-call deadline (builder style). `None` (the
    /// default) keeps only the per-attempt timeout.
    pub fn with_call_deadline(mut self, deadline: Option<Duration>) -> RetryPolicy {
        self.call_deadline = deadline;
        self
    }

    /// The socket timeout per attempt: the per-attempt timeout, capped by
    /// the per-call deadline when one is set — a hung server must not eat
    /// the whole deadline in a single blocked read.
    fn socket_timeout(&self) -> Duration {
        match self.call_deadline {
            Some(d) => self.timeout.min(d.max(Duration::from_millis(1))),
            None => self.timeout,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// Client side: a [`Channel`] that ships every call to a remote
/// [`SessionServer`] over TCP, inside one session.
#[derive(Debug)]
pub struct TcpChannel {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
    interactions: u64,
    /// Where to reconnect.
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    session: u64,
    /// The sequence number of the next call or batch.
    next_seq: u64,
    /// The frames sent, byte-identical, in order: the last
    /// [`RESUME_WINDOW`] committed ones, and every release written since
    /// the last completed round trip. A server that has not seen them all
    /// — a lost connection took the releases, or a restart lost a
    /// committed tail (torn disk journal) — is caught up from here during
    /// the handshake; see [`TcpChannel::resume_session`].
    history: VecDeque<Sent>,
    /// The key of the newest frame evicted from `history` (0: none).
    evicted: u64,
    /// Jitter for the retry backoff.
    rng: StdRng,
    stats: TransportStats,
    recorder: RecorderHandle,
}

/// A frame kept for re-driving.
#[derive(Debug)]
struct Sent {
    /// A unit's own sequence number; for a release, the unit it precedes.
    seq: u64,
    /// Units are answered; releases are not.
    unit: bool,
    frame: Vec<u8>,
}

fn split_stream(
    stream: TcpStream,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), RuntimeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| RuntimeError::transport("set_nodelay", &e))?;
    let reader = stream
        .try_clone()
        .map_err(|e| RuntimeError::transport("clone", &e))?;
    Ok((BufReader::new(reader), BufWriter::new(stream)))
}

fn connect_stream(addrs: &[SocketAddr], timeout: Duration) -> Result<TcpStream, RuntimeError> {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, timeout) {
            Ok(s) => {
                s.set_read_timeout(Some(timeout))
                    .map_err(|e| RuntimeError::transport("set_read_timeout", &e))?;
                s.set_write_timeout(Some(timeout))
                    .map_err(|e| RuntimeError::transport("set_write_timeout", &e))?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    match last {
        Some(e) => Err(RuntimeError::transport("connect", &e)),
        None => Err(RuntimeError::Transport {
            class: FaultClass::Terminal,
            op: "connect",
            detail: "address resolved to nothing".into(),
        }),
    }
}

impl TcpChannel {
    /// Connects to a [`SessionServer`]: opens a session with the `Hello`
    /// handshake and transparently retries each round trip under `policy`
    /// (timeouts, reconnect with exponential backoff + jitter, sequenced
    /// exactly-once replay).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if no connection can be
    /// established within the policy's attempt budget, and
    /// [`RuntimeError::Channel`] on a protocol/version mismatch.
    pub fn connect_reliable(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<TcpChannel, RuntimeError> {
        // Session ids only need uniqueness across concurrent clients of one
        // server; salt the seeded stream with wall clock and pid.
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut rng =
            StdRng::seed_from_u64(policy.jitter_seed ^ clock ^ u64::from(std::process::id()));
        let session = rng.gen_range(1..u64::MAX);
        TcpChannel::connect_reliable_with_session(addr, policy, session)
    }

    /// [`TcpChannel::connect_reliable`] with a caller-chosen session id
    /// (must be non-zero and unique among this server's live clients).
    /// Session ids decide shard placement (`session % shards` on a sharded
    /// [`SessionServer`]), so benchmarks and tests use this to spread — or
    /// deliberately collide — clients across shards deterministically.
    ///
    /// # Errors
    ///
    /// As [`TcpChannel::connect_reliable`].
    pub fn connect_reliable_with_session(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        session: u64,
    ) -> Result<TcpChannel, RuntimeError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| RuntimeError::transport("resolve", &e))?
            .collect();
        let rng = StdRng::seed_from_u64(policy.jitter_seed);
        let stream = connect_stream(&addrs, policy.socket_timeout())?;
        let (reader, writer) = split_stream(stream)?;
        let mut chan = TcpChannel {
            reader,
            writer,
            scratch: Vec::with_capacity(256),
            interactions: 0,
            addrs,
            policy,
            session,
            next_seq: 1,
            history: VecDeque::new(),
            evicted: 0,
            rng,
            stats: TransportStats::default(),
            recorder: RecorderHandle::none(),
        };
        chan.handshake()?;
        Ok(chan)
    }

    /// Attaches a telemetry recorder (builder style). Recording never
    /// changes frames on the wire, retries or interaction counts.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> TcpChannel {
        self.recorder = recorder;
        self
    }

    /// The session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Asks the remote server to stop serving this connection. The server
    /// keeps the session state for a later reconnect.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] on I/O failure.
    pub fn shutdown(mut self) -> Result<(), RuntimeError> {
        Request::Shutdown.encode_into(&mut self.scratch);
        write_frame(&mut self.writer, &self.scratch)
    }

    /// Performs the `Hello`/`HelloAck` handshake on the current connection.
    fn handshake(&mut self) -> Result<(), RuntimeError> {
        let hello = Request::Hello {
            version: WIRE_VERSION,
            session: self.session,
        };
        let mut buf = Vec::with_capacity(16);
        hello.encode_into(&mut buf);
        write_frame(&mut self.writer, &buf)?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| RuntimeError::Transport {
            class: FaultClass::Retryable,
            op: "handshake",
            detail: "server closed during handshake".into(),
        })?;
        match Response::decode(&payload)? {
            Response::HelloAck {
                version,
                session,
                next_seq,
            } => {
                if version != WIRE_VERSION || session != self.session {
                    return Err(RuntimeError::Channel(format!(
                        "handshake mismatch: version {version} session {session}"
                    )));
                }
                // The server may be ahead by exactly one: it executed our
                // outstanding seq but the response was lost, so the
                // retransmit gets the session's last reply again. Further
                // ahead is a protocol violation.
                if next_seq > self.next_seq + 1 {
                    return Err(RuntimeError::Channel(format!(
                        "server expects seq {next_seq}, client is at {}",
                        self.next_seq
                    )));
                }
                // Otherwise the outstanding unit has not run, and the
                // releases before it may be lost with the old connection;
                // a recovered server may even be further *behind*, its
                // journal short of a committed tail. Re-drive whatever it
                // may be missing from the resume window.
                if next_seq <= self.next_seq {
                    return self.resume_session(next_seq);
                }
                Ok(())
            }
            Response::Error(msg) => Err(RuntimeError::Channel(format!("remote: {msg}"))),
            other => Err(RuntimeError::Channel(format!(
                "unexpected handshake reply: {other:?}"
            ))),
        }
    }

    /// Re-drives, in order, every kept frame the server may be missing
    /// when it expects `server_next`: the releases before that unit, and
    /// after a restart that lost a committed tail (torn disk journal) the
    /// units and releases since. The frames are the byte-identical
    /// originals, so on the wire this is indistinguishable from the
    /// lost-response retransmits the protocol always had — the adversary's
    /// view is unchanged, and no interaction or transport counter moves.
    /// Responses are discarded: the client already delivered these calls'
    /// results. A release the server already applied is harmless: no unit
    /// ran since.
    fn resume_session(&mut self, server_next: u64) -> Result<(), RuntimeError> {
        if self.evicted >= server_next {
            return Err(RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "resume",
                detail: format!(
                    "server lost {} committed units but the resume window \
                     (cap {RESUME_WINDOW}) no longer holds them",
                    self.next_seq - server_next
                ),
            });
        }
        for sent in self.history.iter().filter(|s| s.seq >= server_next) {
            write_frame(&mut self.writer, &sent.frame)?;
            if !sent.unit {
                continue;
            }
            let payload = read_frame(&mut self.reader)?.ok_or_else(|| RuntimeError::Transport {
                class: FaultClass::Retryable,
                op: "resume",
                detail: "server closed during session resume".into(),
            })?;
            // Any decodable response completes the re-drive: the server's
            // sequence advances on success and execution errors alike.
            let _ = Response::decode(&payload)?;
        }
        Ok(())
    }

    /// Moves the frame in `scratch` into the resume window as `seq`. Once
    /// the window is full, its oldest committed frame is evicted and
    /// becomes the next encode buffer; uncommitted releases are never
    /// evicted.
    fn keep_scratch(&mut self, seq: u64, unit: bool) {
        let mut buf = None;
        while self.history.len() >= RESUME_WINDOW
            && self.history.front().is_some_and(|s| s.seq < self.next_seq)
        {
            let old = self.history.pop_front().expect("front checked");
            self.evicted = old.seq;
            buf = Some(old.frame);
        }
        let buf = buf.unwrap_or_else(|| Vec::with_capacity(256));
        let frame = std::mem::replace(&mut self.scratch, buf);
        self.history.push_back(Sent { seq, unit, frame });
    }

    /// Re-establishes the connection and re-opens the session.
    fn reconnect(&mut self) -> Result<(), RuntimeError> {
        let stream = connect_stream(&self.addrs, self.policy.socket_timeout())?;
        let (reader, writer) = split_stream(stream)?;
        self.reader = reader;
        self.writer = writer;
        self.handshake()?;
        self.stats.reconnects += 1;
        self.recorder.record(Event::Reconnect);
        Ok(())
    }

    /// One send/receive over the current connection (no retries).
    fn try_round_trip(&mut self) -> Result<Response, RuntimeError> {
        write_frame(&mut self.writer, &self.scratch)?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| RuntimeError::Transport {
            class: FaultClass::Retryable,
            op: "read",
            detail: "server closed connection".into(),
        })?;
        Response::decode(&payload)
    }

    /// Sleeps `base_backoff · 2^attempt` plus deterministic jitter.
    fn backoff(&mut self, attempt: u32) {
        let base = self.policy.base_backoff;
        let exp = base.saturating_mul(1u32 << attempt.min(10));
        let jitter_us = self.rng.gen_range(0..=base.as_micros().max(1) as u64);
        std::thread::sleep(exp + Duration::from_micros(jitter_us));
    }

    /// Sends the request already encoded in `scratch`, retrying retryable
    /// faults with backoff + reconnect and retransmitting the identical
    /// frame so the server can answer it with the session's last reply.
    fn round_trip_encoded(&mut self) -> Result<Response, RuntimeError> {
        let policy = self.policy;
        let started = Instant::now();
        let mut attempt = 0u32;
        // The last retryable fault, as the terminal error of a call whose
        // attempt budget is spent: a caller must not retry a channel that
        // has already given up.
        let exhausted = |fault: RuntimeError, attempts: u32| RuntimeError::Transport {
            class: FaultClass::Terminal,
            op: "retry",
            detail: format!("gave up after {attempts} attempts, the last failing with: {fault}"),
        };
        loop {
            match self.try_round_trip() {
                Ok(resp) => return Ok(resp),
                Err(_e) if policy.call_deadline.is_some_and(|d| started.elapsed() >= d) => {
                    return Err(RuntimeError::Transport {
                        class: FaultClass::Terminal,
                        op: "deadline",
                        detail: format!(
                            "call exceeded its {}ms deadline after {attempt} retries",
                            policy.call_deadline.expect("checked").as_millis()
                        ),
                    });
                }
                Err(e) if e.is_retryable() && attempt + 1 < policy.max_attempts => {
                    self.stats.faults += 1;
                    self.stats.retries += 1;
                    self.recorder.record(Event::Fault);
                    self.recorder.record(Event::Retry);
                    self.backoff(attempt);
                    attempt += 1;
                    // A failed reconnect burns attempts too; terminal
                    // connect errors abort immediately.
                    if let Err(re) = self.reconnect() {
                        if !re.is_retryable() {
                            return Err(re);
                        }
                        if attempt + 1 >= policy.max_attempts {
                            return Err(exhausted(re, attempt + 1));
                        }
                        self.stats.faults += 1;
                        self.recorder.record(Event::Fault);
                    }
                }
                Err(e) if e.is_retryable() => return Err(exhausted(e, attempt + 1)),
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one sequenced unit — `calls` as a `SeqBatch` when `batch`,
    /// else `calls[0]` as a `SeqCall` — and advances the sequence only
    /// after a reply.
    fn sequenced(&mut self, calls: &[PendingCall], batch: bool) -> Result<Response, RuntimeError> {
        self.scratch.clear();
        push_seq_unit(&mut self.scratch, self.next_seq, calls, batch);
        let resp = self.round_trip_encoded()?;
        // Keep the committed frame so a recovered server that lost its
        // journal tail can be re-driven (resume_session).
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keep_scratch(seq, true);
        Ok(resp)
    }
}

impl Channel for TcpChannel {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        self.interactions += 1;
        let call = PendingCall {
            component,
            key,
            label,
            args: args.to_vec(),
        };
        let resp = self.sequenced(std::slice::from_ref(&call), false)?;
        match resp {
            Response::Reply { value, server_cost } => {
                self.recorder.record(Event::Call {
                    args: args.len() as u64,
                    server_cost,
                });
                self.recorder.record(Event::RoundTrip {
                    calls: 1,
                    rtt_cost: 0,
                });
                Ok(CallReply { value, server_cost })
            }
            Response::Error(msg) => Err(RuntimeError::from_remote(&msg)),
            other => Err(RuntimeError::Channel(format!(
                "unexpected reply to call: {other:?}"
            ))),
        }
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        self.interactions += 1;
        let resp = self.sequenced(calls, true)?;
        match resp {
            Response::Batch(replies) if replies.len() == calls.len() => {
                for (call, reply) in calls.iter().zip(&replies) {
                    self.recorder.record(Event::Call {
                        args: call.args.len() as u64,
                        server_cost: reply.server_cost,
                    });
                }
                self.recorder.record(Event::RoundTrip {
                    calls: calls.len() as u64,
                    rtt_cost: 0,
                });
                Ok(replies)
            }
            Response::Batch(replies) => Err(RuntimeError::Channel(format!(
                "batch reply count mismatch: sent {}, got {}",
                calls.len(),
                replies.len()
            ))),
            Response::Error(msg) => Err(RuntimeError::from_remote(&msg)),
            other => Err(RuntimeError::Channel(format!(
                "unexpected reply to batch: {other:?}"
            ))),
        }
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        // Unanswered, but kept until the next unit completes: if the
        // connection dies first, the reconnect re-sends it ahead of that
        // unit (see `resume_session`).
        Request::Release { component, key }.encode_into(&mut self.scratch);
        let sent = write_frame(&mut self.writer, &self.scratch);
        self.keep_scratch(self.next_seq, false);
        self.recorder.record(Event::Release);
        match sent {
            // A dead connection fails the next round trip, whose reconnect
            // re-sends this release.
            Err(e) if !e.is_retryable() => Err(e),
            _ => Ok(()),
        }
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Latency on this channel is real wall-clock time, so it charges no
    /// virtual round-trip cost.
    fn rtt_cost(&self) -> u64 {
        0
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats
    }
}

/// Server-side chaos: seeded faults on the real wire, to exercise client
/// reconnect, retransmit, release re-send and replay. With probability
/// `per_mille`/1000 per frame a connection reads, one of four events,
/// drawn uniformly, hits the frame: its request is dropped (the
/// connection closes before the shard sees it), its reply is dropped (the
/// frame is served and its reply cached, then the connection closes), its
/// reply is torn (cut off halfway, then the connection closes), or its
/// reply is late (written only after a pause longer than the chaos tests'
/// per-attempt timeout). A release has no reply to lose or delay: a
/// dropped or torn reply closes the connection after serving it, and a
/// late one does nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosConfig {
    /// Seed for the per-connection fault schedule.
    pub seed: u64,
    /// Fault probability per frame, in thousandths.
    pub per_mille: u32,
}

/// Snapshot of a [`SessionServer`]'s counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Distinct sessions created.
    pub sessions: u64,
    /// Logical calls executed (batch entries count; replays do not).
    pub calls: u64,
    /// Retransmits answered again with the session's last reply.
    pub replays: u64,
    /// Connections closed by a [`ChaosConfig`] fault (every fault but a
    /// late reply).
    pub chaos_kills: u64,
    /// Fragments compiled when the hidden program was installed: each
    /// fragment compiles once, for all shards. Kept for existing readers
    /// of this struct; not exported by [`ServerStats::to_metrics`].
    pub vm_compiles: u64,
    /// Equals [`ServerStats::calls`]: every call runs code compiled at
    /// install. Kept and not exported, like [`ServerStats::vm_compiles`].
    pub vm_cache_hits: u64,
    /// Always 0: the runtime does not memoize fragments, every call runs
    /// on the VM. Kept for existing readers of this struct; not exported
    /// by [`ServerStats::to_metrics`].
    pub memo_hits: u64,
    /// Always 0, like [`ServerStats::memo_hits`].
    pub memo_misses: u64,
    /// Fragment panics caught by per-request `catch_unwind` (injected and
    /// genuine alike); each poisons at most one session, never a shard.
    pub panics_caught: u64,
    /// Shard deaths — [`SessionServerHandle::kill_shard`], crash-schedule
    /// kills and poisoned shard locks — each dropping the shard's live
    /// sessions for a rebuild from their journals.
    pub shard_restarts: u64,
    /// Sessions rebuilt by replaying their committed-call journal.
    pub journal_replays: u64,
}

impl ServerStats {
    /// The counters as a telemetry snapshot under the `hps_server_*`
    /// registry names — what `hps serve --metrics` exposes.
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.add(names::SERVER_CONNECTIONS, self.connections);
        m.add(names::SERVER_SESSIONS, self.sessions);
        m.add(names::SERVER_CALLS, self.calls);
        m.add(names::SERVER_REPLAYS, self.replays);
        m.add(names::SERVER_CHAOS_KILLS, self.chaos_kills);
        m.add(names::SERVER_PANICS_CAUGHT, self.panics_caught);
        m.add(names::SERVER_SHARD_RESTARTS, self.shard_restarts);
        m.add(names::SERVER_JOURNAL_REPLAYS, self.journal_replays);
        m
    }
}

/// Remote control for a running [`SessionServer`]: read stats, stop it.
#[derive(Clone, Debug)]
pub struct SessionServerHandle {
    addr: SocketAddr,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
}

impl SessionServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's counters; sessions, calls and restarts
    /// are the shards' sums.
    pub fn stats(&self) -> ServerStats {
        let shards = self.stats.shard_stats();
        let calls = shards.iter().map(|s| s.calls).sum();
        ServerStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            sessions: shards.iter().map(|s| s.sessions).sum(),
            calls,
            replays: self.stats.replays.load(Ordering::Relaxed),
            chaos_kills: self.stats.chaos_kills.load(Ordering::Relaxed),
            vm_compiles: self.stats.compiled_fragments(),
            vm_cache_hits: calls,
            memo_hits: 0,
            memo_misses: 0,
            panics_caught: self.stats.panics_caught.load(Ordering::Relaxed),
            shard_restarts: shards.iter().map(|s| s.restarts).sum(),
            journal_replays: self.stats.journal_replays.load(Ordering::Relaxed),
        }
    }

    /// Kills one shard (crash drill): its live sessions are dropped and
    /// rebuilt from their journals on next contact. Synchronous — it waits
    /// for any connection inside the shard, and `shard_restarts` has
    /// counted the death when it returns. Out-of-range shard indices, and
    /// calls while the server is not serving, are ignored.
    pub fn kill_shard(&self, shard: usize) {
        if let Some(pool) = self.stats.pool() {
            pool.kill(shard);
        }
    }

    /// Per-shard call/session/queue-depth counters, one entry per shard.
    pub fn shard_stats(&self) -> Vec<crate::shard::ShardStats> {
        self.stats.shard_stats()
    }

    /// How many connections were waiting for or inside a shard as each
    /// entered it, merged across the shards.
    pub fn queue_depth(&self) -> Histogram {
        self.stats.queue_depth_histogram()
    }

    /// Full telemetry snapshot: the `hps_server_*` counters plus the
    /// `hps_server_shard_queue_depth` histogram. Virtual cost is summed
    /// across the shards.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.stats().to_metrics();
        let cost: u64 = self.shard_stats().iter().map(|s| s.cost_units).sum();
        m.add(names::SERVER_COST_UNITS, cost);
        m.merge_histogram(names::SERVER_SHARD_QUEUE_DEPTH, &self.queue_depth());
        // Recovery latency is wall-clock (like the ShardStats nanos
        // fields): live-scrape only, never part of deterministic
        // snapshots — see OBSERVABILITY.md.
        m.merge_histogram(
            names::SERVER_RECOVERY_LATENCY,
            &self.stats.recovery_latency_histogram(),
        );
        m
    }

    /// Asks the server to shut down cleanly: the accept loop exits at its
    /// next poll and every in-flight request is served to completion.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Multi-client accept loop: one thread per client, which executes its
/// session's units inside the session's shard, with sequenced exactly-once
/// replay. Sessions survive disconnects — a client reconnecting with the
/// same session id resumes its hidden state on the same shard.
pub struct SessionServer {
    listener: TcpListener,
    hidden: HiddenProgram,
    chaos: Option<ChaosConfig>,
    config: ShardConfig,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
}

impl SessionServer {
    /// Binds a listener (use port 0 for an ephemeral port) serving `hidden`
    /// to every session. Defaults to a single shard; use
    /// [`SessionServer::with_shards`] to scale across cores.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the bind fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        hidden: HiddenProgram,
    ) -> Result<SessionServer, RuntimeError> {
        let listener = TcpListener::bind(addr).map_err(|e| RuntimeError::transport("bind", &e))?;
        Ok(SessionServer {
            listener,
            hidden,
            chaos: None,
            config: ShardConfig::default(),
            stats: Arc::new(StatsInner::default()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Persists every session's committed-call journal under `dir`
    /// (builder style; one checksummed append-only file per session). A
    /// server re-bound with the same directory rebuilds hidden state by
    /// replay, so sessions survive a full process restart.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> SessionServer {
        self.config.journal_dir = Some(dir.into());
        self
    }

    /// Caps the in-memory journal ring per session (builder style; min 1).
    /// A session whose ring overflowed can no longer be rebuilt after a
    /// shard death and is poisoned instead of silently diverging.
    pub fn with_journal_limit(mut self, ops: usize) -> SessionServer {
        self.config.journal_limit = ops.max(1);
        self
    }

    /// Enables shard crash injection (builder style): seeded schedules of
    /// shard kills and mid-fragment panics, for drills and the
    /// chaos-recovery CI matrix.
    pub fn with_crash(mut self, crash: CrashConfig) -> SessionServer {
        self.config.crash = Some(crash);
        self
    }

    /// Enables server-side chaos (builder style).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> SessionServer {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the shard count (builder style; min 1). Sessions are routed by
    /// `session_id % shards`, so any count yields the same per-session
    /// behaviour — more shards only adds parallelism across sessions.
    pub fn with_shards(mut self, shards: usize) -> SessionServer {
        self.config.shards = shards.max(1);
        self
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, RuntimeError> {
        self.listener
            .local_addr()
            .map_err(|e| RuntimeError::transport("local_addr", &e))
    }

    /// A handle for stopping the server and reading its stats.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the socket is gone.
    pub fn handle(&self) -> Result<SessionServerHandle, RuntimeError> {
        Ok(SessionServerHandle {
            addr: self.local_addr()?,
            stats: Arc::clone(&self.stats),
            stop: Arc::clone(&self.stop),
        })
    }

    /// Runs the accept loop until [`SessionServerHandle::stop`] is called.
    /// Each connection is served on its own thread; per-connection
    /// transport errors are contained to that thread and reported via
    /// `on_event` (may be a no-op), attributed to the peer address.
    ///
    /// On stop the shutdown is graceful: the accept loop exits first, then
    /// every live connection thread is joined after it finishes its
    /// in-flight request.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] only for terminal accept
    /// failures; retryable accept errors (e.g. fd exhaustion) are reported
    /// and the loop continues.
    pub fn serve(
        self,
        on_event: impl Fn(SocketAddr, &str) + Send + Sync + 'static,
    ) -> Result<(), RuntimeError> {
        let on_event = Arc::new(on_event);
        // The connection threads own the pool; it and every session's
        // hidden state are freed once the last of them is joined.
        let pool = Arc::new(ShardPool::new(self.config.clone(), &self.hidden));
        self.stats.install(&pool);
        // Poll the listener so stop() needs no nudge connection: WouldBlock
        // means "check the stop flag, nap briefly, try again".
        self.listener
            .set_nonblocking(true)
            .map_err(|e| RuntimeError::transport("set_nonblocking", &e))?;
        let mut conns: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
        let mut conn_index = 0u64;
        let result = loop {
            if self.stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            let (stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conns.retain(|(_, c)| !c.is_finished());
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Err(e) => {
                    let err = RuntimeError::transport("accept", &e);
                    if err.is_retryable() {
                        on_event(
                            "0.0.0.0:0".parse().expect("static addr"),
                            &format!("accept retry: {err}"),
                        );
                        continue;
                    }
                    break Err(err);
                }
            };
            // Accepted sockets do not inherit the listener's non-blocking
            // mode portably; force blocking I/O for the connection thread.
            if let Err(e) = stream.set_nonblocking(false) {
                on_event(peer, &format!("set_blocking: {e}"));
                continue;
            }
            conn_index += 1;
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            let stats = Arc::clone(&self.stats);
            let pool = Arc::clone(&pool);
            let chaos = self.chaos.map(|c| ChaosStream::new(c, conn_index));
            let on_event = Arc::clone(&on_event);
            let watch = match stream.try_clone() {
                Ok(w) => w,
                Err(e) => {
                    on_event(peer, &format!("clone stream: {e}"));
                    continue;
                }
            };
            conns.push((
                watch,
                std::thread::spawn(move || {
                    match serve_session_connection(stream, &pool, chaos, &stats) {
                        Ok(served) => on_event(peer, &format!("served {served} calls")),
                        Err(e) => on_event(peer, &e.with_peer(peer).to_string()),
                    }
                }),
            ));
        };
        // Graceful drain: close the *read* half of every live connection.
        // A thread idle in read_frame sees EOF and exits at a frame
        // boundary, while a thread mid-request still executes it, writes
        // the response over the intact write half, and exits on its next
        // read.
        for (watch, _) in &conns {
            let _ = watch.shutdown(std::net::Shutdown::Read);
        }
        for (_, c) in conns {
            let _ = c.join();
        }
        result
    }
}

/// One [`ChaosConfig`] fault, hitting one frame a connection reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Chaos {
    /// The connection closes before the frame reaches its shard.
    DropRequest,
    /// The frame is served, then the connection closes unanswered.
    DropReply,
    /// The frame is served, then the connection closes halfway through
    /// the reply.
    TornReply,
    /// The frame is served and answered after [`LATE_REPLY`].
    LateReply,
}

/// One connection's fault schedule.
struct ChaosStream {
    per_mille: u32,
    rng: StdRng,
}

impl ChaosStream {
    /// The schedule of connection `conn` (1-based, in accept order).
    fn new(config: ChaosConfig, conn: u64) -> ChaosStream {
        ChaosStream {
            per_mille: config.per_mille,
            rng: StdRng::seed_from_u64(stream_seed(config.seed, conn)),
        }
    }

    /// The fault, if any, for the next frame.
    fn draw(&mut self) -> Option<Chaos> {
        if self.rng.gen_range(0u32..1000) >= self.per_mille {
            return None;
        }
        let events = [
            Chaos::DropRequest,
            Chaos::DropReply,
            Chaos::TornReply,
            Chaos::LateReply,
        ];
        Some(events[self.rng.gen_range(0..events.len())])
    }
}

/// Answers a protocol violation with a `Response::Error` frame carrying
/// `reply`, then closes the connection with `err`.
fn refuse(
    writer: &mut BufWriter<&TcpStream>,
    scratch: &mut Vec<u8>,
    reply: String,
    err: String,
) -> Result<u64, RuntimeError> {
    Response::Error(reply).encode_into(scratch);
    write_frame(writer, scratch)?;
    Err(RuntimeError::Channel(err))
}

/// Serves one connection of a [`SessionServer`]: the `Hello` handshake,
/// then sequenced frames executed (or replayed) on this thread inside the
/// session's shard. A first frame that is not a `Hello` of this
/// [`WIRE_VERSION`] is refused, and an undecodable frame closes the
/// connection.
fn serve_session_connection(
    stream: TcpStream,
    pool: &ShardPool,
    mut chaos: Option<ChaosStream>,
    stats: &StatsInner,
) -> Result<u64, RuntimeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| RuntimeError::transport("set_nodelay", &e))?;
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
    let mut scratch = Vec::with_capacity(256);
    let mut served = 0u64;

    let Some(payload) = read_frame(&mut reader)? else {
        return Ok(0);
    };
    // The unit this connection's client sends next: the releases it sends
    // first belong before it.
    let mut expected;
    let session = match Request::decode(&payload)? {
        Request::Hello { version, session } if version == WIRE_VERSION => {
            let next_seq = pool.hello(stats, session);
            expected = next_seq;
            Response::HelloAck {
                version: WIRE_VERSION,
                session,
                next_seq,
            }
            .encode_into(&mut scratch);
            write_frame(&mut writer, &scratch)?;
            session
        }
        Request::Hello { version, .. } => {
            return refuse(
                &mut writer,
                &mut scratch,
                format!("version mismatch: server speaks {WIRE_VERSION}, client sent {version}"),
                format!("client version {version} != {WIRE_VERSION}"),
            );
        }
        _ => {
            return refuse(
                &mut writer,
                &mut scratch,
                "expected Hello: every connection opens a session".into(),
                "first frame is not Hello".into(),
            );
        }
    };

    loop {
        let Some(payload) = read_frame(&mut reader)? else {
            return Ok(served);
        };
        let req = Request::decode(&payload)?;
        let fault = chaos.as_mut().and_then(ChaosStream::draw);
        if fault == Some(Chaos::DropRequest) {
            // The client's retransmit finds a fresh sequence.
            stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
            return Ok(served);
        }
        let (seq, calls) = match &req {
            Request::SeqCall { seq, .. } => (*seq, 1),
            Request::SeqBatch { seq, calls } => (*seq, calls.len() as u64),
            Request::Release { component, key } => {
                pool.release(stats, session, expected, *component, *key, &payload);
                // No reply to lose or delay: a lost one only closes.
                if fault.is_some_and(|f| f != Chaos::LateReply) {
                    stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
                    return Ok(served);
                }
                continue;
            }
            Request::Shutdown => return Ok(served),
            Request::Hello { .. } => {
                return refuse(
                    &mut writer,
                    &mut scratch,
                    "unexpected frame on an open session".into(),
                    "Hello on an open session".into(),
                );
            }
        };
        served += calls;
        // The shard journals `payload` as received and copies the reply
        // into `scratch`; the reply reaches the socket only after the shard
        // is released, so a client that stops reading stalls its own
        // connection and no other.
        pool.seq(stats, session, &req, &payload, &mut scratch);
        expected = seq + 1;
        match fault {
            // The client gives up first and retransmits on a new
            // connection while this one still holds the reply.
            Some(Chaos::LateReply) => std::thread::sleep(LATE_REPLY),
            // A dropped or torn reply was served and kept as the
            // session's last reply, which answers the retransmit.
            Some(lost) => {
                stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
                if lost == Chaos::TornReply {
                    let _ = write_torn_frame(&mut writer, &scratch);
                }
                return Ok(served);
            }
            None => {}
        }
        write_frame(&mut writer, &scratch)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::tests::accumulator_program;
    use std::sync::Mutex;
    use std::thread;

    type Serving = thread::JoinHandle<Result<(), RuntimeError>>;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy::new()
            .with_base_backoff(Duration::from_millis(1))
            .with_timeout(Duration::from_secs(5))
            .with_max_attempts(8)
            .with_jitter_seed(42)
    }

    /// `quick_policy` with a per-attempt timeout shorter than
    /// [`LATE_REPLY`], so late replies force retransmits.
    fn chaos_policy() -> RetryPolicy {
        quick_policy()
            .with_timeout(Duration::from_millis(100))
            .with_max_attempts(12)
    }

    fn accumulator_server() -> SessionServer {
        SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind")
    }

    /// Runs `server` on its own thread.
    fn spawn(server: SessionServer) -> (SessionServerHandle, Serving) {
        let handle = server.handle().expect("handle");
        (handle, thread::spawn(move || server.serve(|_, _| {})))
    }

    /// Stops the server and joins every connection thread, so its
    /// counters are final.
    fn stop(handle: &SessionServerHandle, serve: Serving) {
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    /// Opens a session on the server behind `handle`.
    fn connect(handle: &SessionServerHandle) -> TcpChannel {
        TcpChannel::connect_reliable(handle.addr(), quick_policy()).expect("connect")
    }

    fn acc_call(n: i64) -> PendingCall {
        PendingCall {
            component: ComponentId::new(0),
            key: 1,
            label: FragLabel::new(0),
            args: vec![Value::Int(n)],
        }
    }

    #[test]
    fn loopback_round_trips() {
        let (handle, serve) = spawn(accumulator_server());
        let mut chan = connect(&handle);
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let r1 = chan.call(c, 1, l, &[Value::Int(4)]).unwrap();
        assert_eq!(r1.value, Value::Int(4));
        let r2 = chan.call(c, 1, l, &[Value::Int(6)]).unwrap();
        assert_eq!(r2.value, Value::Int(10));
        assert!(r2.server_cost > 0);
        // Fresh key -> fresh state.
        let r3 = chan.call(c, 9, l, &[Value::Int(1)]).unwrap();
        assert_eq!(r3.value, Value::Int(1));
        // Release, then the same key restarts at zero.
        chan.release(c, 1).unwrap();
        let r4 = chan.call(c, 1, l, &[Value::Int(2)]).unwrap();
        assert_eq!(r4.value, Value::Int(2));
        assert_eq!(chan.interactions(), 4);
        assert_eq!(chan.transport_stats(), TransportStats::default());
        chan.shutdown().unwrap();
        stop(&handle, serve);
        assert_eq!(handle.stats().calls, 4);
    }

    #[test]
    fn loopback_batch_is_one_interaction() {
        let (handle, serve) = spawn(accumulator_server());
        let mut chan = connect(&handle);
        let replies = chan
            .call_batch(&[acc_call(2), acc_call(3), acc_call(5)])
            .unwrap();
        // The accumulator sees each logical call in order.
        let values: Vec<Value> = replies.iter().map(|r| r.value).collect();
        assert_eq!(values, [Value::Int(2), Value::Int(5), Value::Int(10)]);
        // ... but the transport made a single round trip.
        assert_eq!(chan.interactions(), 1);
        chan.shutdown().unwrap();
        stop(&handle, serve);
        assert_eq!(
            handle.stats().calls,
            3,
            "every logical call is served and counted"
        );
    }

    #[test]
    fn remote_errors_are_reported() {
        let (handle, serve) = spawn(accumulator_server());
        let mut chan = connect(&handle);
        let err = chan
            .call(ComponentId::new(7), 0, FragLabel::new(0), &[])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Channel(msg) if msg.contains("remote:")));
        chan.shutdown().unwrap();
        stop(&handle, serve);
    }

    #[test]
    fn journals_hold_the_request_payloads_the_client_sent() {
        let dir = std::env::temp_dir().join(format!("hps-tcp-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (handle, serve) = spawn(accumulator_server().with_journal_dir(&dir));
        let mut chan = connect(&handle);
        let c = ComponentId::new(0);
        chan.call(c, 1, FragLabel::new(0), &[Value::Int(-3)])
            .unwrap();
        chan.call_batch(&[acc_call(1), acc_call(i64::MIN)]).unwrap();
        chan.release(c, 1).unwrap();
        let sent = |chan: &TcpChannel| -> Vec<Vec<u8>> {
            chan.history.iter().map(|s| s.frame.clone()).collect()
        };
        assert_eq!(
            sent(&chan)
                .iter()
                .map(|p| Request::decode(p).unwrap())
                .collect::<Vec<_>>(),
            [
                Request::SeqCall {
                    seq: 1,
                    call: PendingCall {
                        args: vec![Value::Int(-3)],
                        ..acc_call(0)
                    },
                },
                Request::SeqBatch {
                    seq: 2,
                    calls: vec![acc_call(1), acc_call(i64::MIN)],
                },
                Request::Release {
                    component: c,
                    key: 1
                },
            ]
        );
        // Frames on one connection are served in order, so once the next
        // call is answered the release is committed too.
        chan.call(c, 2, FragLabel::new(0), &[Value::Int(0)])
            .unwrap();
        let sent = sent(&chan);

        // The ring holds the payloads back to back, byte for byte.
        let pool = handle.stats.pool().expect("serving");
        let ring = pool.journal(chan.session_id()).expect("journal");
        assert_eq!(ring.held_bytes(), sent.concat());
        // Each disk frame is `len ++ crc32 ++ payload` of the same bytes.
        let disk = std::fs::read(crate::journal::journal_path(&dir, chan.session_id())).unwrap();
        let frames: Vec<u8> = sent
            .iter()
            .flat_map(|p| {
                let len = (p.len() as u32).to_le_bytes();
                let crc = crate::journal::crc32(p).to_le_bytes();
                [&len[..], &crc[..], p].concat()
            })
            .collect();
        assert_eq!(disk, frames);
        chan.shutdown().unwrap();
        stop(&handle, serve);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_server_serves_many_clients() {
        let (handle, serve) = spawn(accumulator_server());
        let addr = handle.addr();
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let workers: Vec<_> = (0..4)
            .map(|w| {
                thread::spawn(move || {
                    let mut chan =
                        TcpChannel::connect_reliable(addr, quick_policy().with_jitter_seed(w))
                            .expect("connect");
                    // Each client accumulates privately in its own session.
                    for n in 1..=5i64 {
                        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
                        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
                    }
                    chan.shutdown().expect("shutdown");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let stats = handle.stats();
        assert_eq!(stats.calls, 20);
        assert_eq!(stats.sessions, 4);
        assert!(stats.connections >= 4);
        stop(&handle, serve);
    }

    #[test]
    fn sharded_server_matches_single_shard_behaviour() {
        // Same workload as session_server_serves_many_clients, but spread
        // over four shards: per-session results are identical and the
        // shard counters account for every call and session.
        let (handle, serve) = spawn(accumulator_server().with_shards(4));
        let addr = handle.addr();
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let workers: Vec<_> = (0..8)
            .map(|w| {
                thread::spawn(move || {
                    let mut chan =
                        TcpChannel::connect_reliable(addr, quick_policy().with_jitter_seed(w))
                            .expect("connect");
                    for n in 1..=5i64 {
                        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
                        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
                    }
                    chan.shutdown().expect("shutdown");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let stats = handle.stats();
        assert_eq!(stats.calls, 40);
        assert_eq!(stats.sessions, 8);
        let shards = handle.shard_stats();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.calls).sum::<u64>(), 40);
        assert!(shards.iter().map(|s| s.cost_units).sum::<u64>() > 0);
        assert_eq!(shards.iter().map(|s| s.sessions).sum::<u64>(), 8);
        // Every shard entry (8 Hellos + 40 sequenced calls) was observed
        // into the queue-depth histogram, and the full snapshot carries it.
        assert_eq!(handle.queue_depth().count(), 48);
        let m = handle.metrics();
        assert_eq!(m.counter(names::SERVER_CALLS), 40);
        assert_eq!(
            m.histogram(names::SERVER_SHARD_QUEUE_DEPTH)
                .expect("histogram in snapshot")
                .count(),
            48
        );
        stop(&handle, serve);
    }

    #[test]
    fn stop_drains_in_flight_requests() {
        // Regression: a clean stop() must let a request already read by a
        // connection finish and deliver its response.
        let (handle, serve) = spawn(accumulator_server());
        let addr = handle.addr();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let worker = thread::spawn(move || {
            // One big batch frame: tens of milliseconds of execution, so
            // the stop below lands while it is in flight. Built up front so
            // the frame hits the wire immediately after the ready signal.
            let calls = vec![acc_call(1); 50_000];
            let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
            chan.call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
                .expect("warm-up call");
            ready_tx.send(()).expect("signal");
            let replies = chan
                .call_batch(&calls)
                .expect("in-flight batch survives a clean stop");
            replies.len()
        });
        ready_rx.recv().expect("worker ready");
        thread::sleep(Duration::from_millis(50));
        stop(&handle, serve);
        assert_eq!(worker.join().expect("worker"), 50_000);
        assert_eq!(handle.stats().calls, 50_001);
    }

    #[test]
    fn session_survives_reconnect_with_state() {
        let (handle, serve) = spawn(accumulator_server());
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = connect(&handle);
        assert_eq!(
            chan.call(c, 1, l, &[Value::Int(5)]).unwrap().value,
            Value::Int(5)
        );
        // Simulate a dropped link: kill the socket under the channel.
        chan.reconnect().expect("reconnect");
        assert_eq!(
            chan.call(c, 1, l, &[Value::Int(6)]).unwrap().value,
            Value::Int(11),
            "hidden state survives the reconnect"
        );
        chan.shutdown().unwrap();
        stop(&handle, serve);
    }

    #[test]
    fn chaos_draws_every_event_deterministically_per_seed() {
        let schedule = |seed: u64| -> Vec<Option<Chaos>> {
            let config = ChaosConfig {
                seed,
                per_mille: 100,
            };
            let mut stream = ChaosStream::new(config, 1);
            (0..300).map(|_| stream.draw()).collect()
        };
        for seed in 1..=4 {
            let drawn = schedule(seed);
            assert_eq!(drawn, schedule(seed), "seed {seed} replays exactly");
            for event in [
                Chaos::DropRequest,
                Chaos::DropReply,
                Chaos::TornReply,
                Chaos::LateReply,
            ] {
                assert!(
                    drawn.contains(&Some(event)),
                    "seed {seed}: no {event:?} in 300 frames"
                );
            }
            assert_ne!(drawn, schedule(seed + 1), "seeds {seed} and {}", seed + 1);
        }
    }

    #[test]
    fn chaos_kills_are_survived_exactly_once() {
        // Aggressive server-side chaos: about every 4th frame loses its
        // request or its reply, gets a torn reply or a late one. The
        // reliable client must still see every accumulator value exactly
        // once.
        let (handle, serve) = spawn(accumulator_server().with_chaos(ChaosConfig {
            seed: 0xc405,
            per_mille: 250,
        }));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan =
            TcpChannel::connect_reliable(handle.addr(), chaos_policy()).expect("connect");
        for n in 1..=30i64 {
            let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
            assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "call {n}");
        }
        let stats = handle.stats();
        assert_eq!(stats.calls, 30, "every logical call executed exactly once");
        assert!(stats.chaos_kills > 0, "chaos must actually fire");
        assert!(chan.transport_stats().reconnects > 0);
        assert_eq!(chan.interactions(), 30);
        chan.shutdown().unwrap();
        stop(&handle, serve);
    }

    #[test]
    fn releases_from_a_connection_left_behind_are_dropped() {
        // Connection A opens the session and falls behind; the client
        // carries on over B and reopens key 1 there. A release that
        // arrives on A afterwards belongs before unit 1, which has run: it
        // must not free the live activation.
        let (handle, serve) = spawn(accumulator_server());
        let session = 77;
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let (mut reader, mut writer) = split_stream(stream).expect("split");
        let mut send = |req: Request| write_frame(&mut writer, &req.encode()).expect("write");
        let mut answer =
            || Response::decode(&read_frame(&mut reader).unwrap().expect("answer")).unwrap();
        send(Request::Hello {
            version: WIRE_VERSION,
            session,
        });
        assert!(matches!(answer(), Response::HelloAck { next_seq: 1, .. }));
        let mut b =
            TcpChannel::connect_reliable_with_session(handle.addr(), quick_policy(), session)
                .expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        assert_eq!(
            b.call(c, 1, l, &[Value::Int(5)]).unwrap().value,
            Value::Int(5)
        );
        send(Request::Release {
            component: c,
            key: 1,
        });
        // A's stale unit 1 is answered with the session's last reply,
        // after its release was served.
        send(Request::SeqCall {
            seq: 1,
            call: acc_call(5),
        });
        assert!(matches!(
            answer(),
            Response::Reply {
                value: Value::Int(5),
                ..
            }
        ));
        assert_eq!(
            b.call(c, 1, l, &[Value::Int(6)]).unwrap().value,
            Value::Int(11),
            "the stale release freed a live activation"
        );
        b.shutdown().unwrap();
        stop(&handle, serve);
    }

    #[test]
    fn exhausted_retries_surface_the_last_fault() {
        // Every frame after the handshake is faulted, so no attempt can
        // complete: the client gives up after its attempt budget.
        let (handle, serve) = spawn(accumulator_server().with_chaos(ChaosConfig {
            seed: 1,
            per_mille: 1000,
        }));
        let mut chan =
            TcpChannel::connect_reliable(handle.addr(), chaos_policy().with_max_attempts(3))
                .expect("connect");
        let err = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
            .expect_err("must give up");
        assert!(matches!(err, RuntimeError::Transport { .. }), "got {err:?}");
        assert!(!err.is_retryable(), "a spent budget is terminal: {err}");
        assert!(err.to_string().contains("after 3 attempts"), "got {err}");
        assert_eq!(chan.transport_stats().retries, 2);
        assert_eq!(chan.interactions(), 1);
        stop(&handle, serve);
        assert!(handle.stats().calls <= 1, "executed at most once");
    }

    #[test]
    fn sequence_gap_is_terminal() {
        let (handle, serve) = spawn(accumulator_server());
        let mut chan = connect(&handle);
        // Corrupt the client's sequence counter to skip ahead.
        chan.next_seq = 40;
        let err = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
            .expect_err("gap must be rejected");
        assert!(
            matches!(&err, RuntimeError::SequenceGap { got: 40, .. }),
            "got {err:?}"
        );
        assert!(!err.is_retryable());
        stop(&handle, serve);
    }

    /// Sends one raw request frame on a fresh connection and returns the
    /// server's answer: `Ok(None)` when it closed without one.
    fn first_frame_answer(
        addr: SocketAddr,
        payload: &[u8],
    ) -> Result<Option<Response>, RuntimeError> {
        let stream = TcpStream::connect(addr).expect("connect");
        let (mut reader, mut writer) = split_stream(stream).expect("split");
        write_frame(&mut writer, payload).expect("write");
        read_frame(&mut reader)?
            .map(|frame| Response::decode(&frame))
            .transpose()
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (handle, serve) = spawn(accumulator_server());
        let hello = Request::Hello {
            version: WIRE_VERSION + 1,
            session: 1,
        };
        let resp = first_frame_answer(handle.addr(), &hello.encode()).expect("answer");
        assert!(
            matches!(&resp, Some(Response::Error(msg)) if msg.contains("version mismatch")),
            "got {resp:?}"
        );
        stop(&handle, serve);
    }

    #[test]
    fn connections_that_do_not_open_a_session_are_refused() {
        let server = accumulator_server();
        let handle = server.handle().expect("handle");
        let events = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&events);
        let serve = thread::spawn(move || {
            server.serve(move |_, event| log.lock().expect("log").push(event.to_string()))
        });
        let addr = handle.addr();
        // A formerly valid unsequenced call (retired tag 0x01, then an
        // 18-byte call body with no arguments) no longer decodes: the
        // connection closes without an answer.
        let mut retired = vec![0x01];
        retired.extend_from_slice(&[0; 18]);
        let resp = first_frame_answer(addr, &retired);
        assert!(!matches!(resp, Ok(Some(_))), "got {resp:?}");
        // A well-formed sequenced call before any Hello gets an error.
        let seq_call = Request::SeqCall {
            seq: 1,
            call: acc_call(3),
        };
        let resp = first_frame_answer(addr, &seq_call.encode()).expect("answer");
        assert!(
            matches!(&resp, Some(Response::Error(msg)) if msg.contains("expected Hello")),
            "got {resp:?}"
        );
        // The server still serves a session client, and counts only it.
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        assert_eq!(
            chan.call(c, 1, l, &[Value::Int(3)]).unwrap().value,
            Value::Int(3)
        );
        assert_eq!(
            chan.call(c, 1, l, &[Value::Int(4)]).unwrap().value,
            Value::Int(7)
        );
        chan.shutdown().unwrap();
        stop(&handle, serve);
        let stats = handle.stats();
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.calls, 2);
        // Both refusals closed their connection with a typed error.
        let events = events.lock().expect("log");
        assert!(
            events.iter().any(|e| e.contains("bad request tag 0x01")),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.contains("first frame is not Hello")),
            "{events:?}"
        );
    }

    #[test]
    fn retries_are_not_logical_interactions() {
        // Chaos forces retransmits; the interaction count and the trace
        // (per-logical-call) must match a fault-free run.
        let (handle, serve) = spawn(accumulator_server().with_chaos(ChaosConfig {
            seed: 7,
            per_mille: 300,
        }));
        let mut chan =
            TcpChannel::connect_reliable(handle.addr(), chaos_policy()).expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut trace = crate::trace::TraceChannel::new(&mut chan);
        for n in 1..=10i64 {
            crate::channel::Channel::call(&mut trace, c, 1, l, &[Value::Int(n)]).expect("call");
        }
        let events = trace.into_trace().events;
        assert_eq!(events.len(), 10, "one trace event per logical call");
        let stats = chan.transport_stats();
        assert!(
            stats.retries > 0 || handle.stats().chaos_kills == 0,
            "kills force retries"
        );
        assert_eq!(chan.interactions(), 10);
        chan.shutdown().unwrap();
        stop(&handle, serve);
    }
}
