//! TCP transport: run the hidden component in another process or on
//! another machine, as in the paper's evaluation ("ran them on two separate
//! linux based machines that communicated over the local area network").
//!
//! Frames are the [`crate::wire`] protocol. Each connection keeps a
//! persistent buffered reader/writer pair and reuses one encode buffer, so
//! steady-state calls perform no per-call allocation for framing. Batched
//! calls ([`Channel::call_batch`]) travel as one `Request::Batch` frame and
//! count as a single interaction.
//!
//! ## Reliability layer
//!
//! Two cooperating halves make the transport survive flaky links and
//! server restarts without changing the adversary-visible interaction
//! sequence (DESIGN.md §7b):
//!
//! * **Client** — [`TcpChannel::connect_reliable`] opens a *session*
//!   (`Hello`/`HelloAck` handshake, version-checked), applies read/write
//!   timeouts from its [`RetryPolicy`], and sends every logical round trip
//!   as a sequenced frame. On a retryable fault it reconnects with
//!   exponential backoff plus deterministic jitter (vendored rand shim)
//!   and retransmits the same sequence number.
//! * **Server** — [`SessionServer`] accepts many clients (thread per
//!   connection), keys one [`SecureServer`] per session id, and
//!   deduplicates retransmits through a [`crate::server::ReplayCache`] of
//!   encoded response frames: a retried call whose response was lost is answered
//!   from the cache, never re-executed. Sequence gaps are terminal.
//!   Each connection thread runs its session's units itself, inside the
//!   session's shard ([`crate::shard`]): one lock per shard, no hand-off
//!   to another thread, and sessions on different shards run in parallel.
//!
//! Retries, reconnects and replays are visible only in
//! [`Channel::transport_stats`] — never in [`Channel::interactions`],
//! server-side call counts, or [`crate::trace::TraceChannel`] events.

use crate::channel::{CallReply, Channel, PendingCall, TransportStats};
use crate::error::{FaultClass, RuntimeError};
use crate::fault::CrashConfig;
use crate::server::SecureServer;
use crate::shard::{ShardConfig, ShardPool, StatsInner};
use crate::wire::{read_frame, write_frame, Request, Response, WIRE_VERSION};
use hps_ir::{ComponentId, FragLabel, HiddenProgram, Value};
use hps_telemetry::{metrics::names, Event, Histogram, MetricsSnapshot, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// How many committed sequenced frames the client retains for the
    /// session-resume path: if a recovered server comes back missing a
    /// tail of committed units (lost journal frames), the handshake
    /// re-drives up to this many frames byte-identically.
    pub resume_window: usize,
    /// Seed for the deterministic jitter stream (and session-id salt).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Defaults: 6 attempts, 10 ms base backoff, 5 s timeout, no per-call
    /// deadline, 64-frame resume window.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
            call_deadline: None,
            resume_window: 64,
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

    /// Overrides the session-resume window (builder style; min 1).
    pub fn with_resume_window(mut self, frames: usize) -> RetryPolicy {
        self.resume_window = frames.max(1);
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

/// Reliable-mode state: where to reconnect, how to retry, and the session
/// sequencing the server uses to deduplicate retransmits.
#[derive(Debug)]
struct Reliable {
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    session: u64,
    next_seq: u64,
    /// The last `policy.resume_window` committed sequenced frames,
    /// byte-identical as sent, keyed by sequence number. A restarted
    /// server that lost a committed tail (torn disk journal) is caught up
    /// from here during the handshake — see
    /// [`TcpChannel::resume_session`].
    history: std::collections::VecDeque<(u64, Vec<u8>)>,
    rng: StdRng,
}

/// Client side: a [`Channel`] that ships every call to a remote
/// [`SecureServer`] over TCP.
#[derive(Debug)]
pub struct TcpChannel {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
    interactions: u64,
    rtt_cost: u64,
    batch_cap: usize,
    reliable: Option<Reliable>,
    stats: TransportStats,
    recorder: RecorderHandle,
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
    /// Connects to a secure server in single-shot mode: no session, no
    /// retries — any transport fault is returned to the caller.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpChannel, RuntimeError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| RuntimeError::transport("connect", &e))?;
        let (reader, writer) = split_stream(stream)?;
        Ok(TcpChannel {
            reader,
            writer,
            scratch: Vec::with_capacity(256),
            interactions: 0,
            rtt_cost: 0,
            batch_cap: usize::from(u16::MAX),
            reliable: None,
            stats: TransportStats::default(),
            recorder: RecorderHandle::none(),
        })
    }

    /// Connects in reliable mode: opens a session with the `Hello`
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
            rtt_cost: 0,
            batch_cap: usize::from(u16::MAX),
            reliable: Some(Reliable {
                addrs,
                policy,
                session,
                next_seq: 1,
                history: std::collections::VecDeque::new(),
                rng,
            }),
            stats: TransportStats::default(),
            recorder: RecorderHandle::none(),
        };
        chan.handshake()?;
        Ok(chan)
    }

    /// Sets the virtual round-trip cost charged per call (builder style).
    /// Wall-clock latency is real on this channel; the virtual cost only
    /// matters if the caller also reads virtual time.
    pub fn with_rtt_cost(mut self, rtt: u64) -> TcpChannel {
        self.rtt_cost = rtt;
        self
    }

    /// Overrides the per-frame batch chunking cap (builder style). The wire
    /// format caps one batch frame at `u16::MAX` calls; tests inject a
    /// small cap to exercise the chunking boundary cheaply. Values above
    /// `u16::MAX` are clamped.
    pub fn with_batch_cap(mut self, cap: usize) -> TcpChannel {
        self.batch_cap = cap.clamp(1, usize::from(u16::MAX));
        self
    }

    /// Attaches a telemetry recorder (builder style). Recording never
    /// changes frames on the wire, retries or interaction counts.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> TcpChannel {
        self.recorder = recorder;
        self
    }

    /// The session id, when connected in reliable mode.
    pub fn session_id(&self) -> Option<u64> {
        self.reliable.as_ref().map(|r| r.session)
    }

    /// Asks the remote server to stop serving this connection. In reliable
    /// mode the server keeps the session state for a later reconnect.
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
        let r = self.reliable.as_ref().expect("reliable mode");
        let hello = Request::Hello {
            version: WIRE_VERSION,
            session: r.session,
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
                let r = self.reliable.as_ref().expect("reliable mode");
                if version != WIRE_VERSION || session != r.session {
                    return Err(RuntimeError::Channel(format!(
                        "handshake mismatch: version {version} session {session}"
                    )));
                }
                // The server may be ahead by exactly one: it executed our
                // outstanding seq but the response was lost, so the
                // retransmit will hit the replay cache. Further ahead is a
                // protocol violation.
                if next_seq > r.next_seq + 1 {
                    return Err(RuntimeError::Channel(format!(
                        "server expects seq {next_seq}, client is at {}",
                        r.next_seq
                    )));
                }
                // The server may also come back *behind*: a recovered
                // server whose journal lost a committed tail. Re-drive
                // the missing frames from the resume window.
                if next_seq < r.next_seq {
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

    /// Re-drives committed-but-lost sequenced frames after the server came
    /// back behind the client (a torn disk journal frame was dropped on
    /// restart). The
    /// retransmits are the byte-identical original frames, so on the wire
    /// this is indistinguishable from the lost-response retransmits the
    /// protocol always had — the adversary's view is unchanged, and no
    /// interaction or transport counter moves. Responses are discarded:
    /// the client already delivered these calls' results.
    fn resume_session(&mut self, server_next: u64) -> Result<(), RuntimeError> {
        let (frames, client_next, window) = {
            let r = self.reliable.as_ref().expect("reliable mode");
            let frames: Vec<Vec<u8>> = r
                .history
                .iter()
                .filter(|(seq, _)| *seq >= server_next)
                .map(|(_, frame)| frame.clone())
                .collect();
            (frames, r.next_seq, r.policy.resume_window)
        };
        let missing = client_next - server_next;
        if frames.len() as u64 != missing {
            return Err(RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "resume",
                detail: format!(
                    "server lost {missing} committed units but the resume \
                     window holds {} (cap {window})",
                    frames.len()
                ),
            });
        }
        for frame in frames {
            write_frame(&mut self.writer, &frame)?;
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

    /// Re-establishes the connection and re-opens the session.
    fn reconnect(&mut self) -> Result<(), RuntimeError> {
        let (addrs, timeout) = {
            let r = self.reliable.as_ref().expect("reliable mode");
            (r.addrs.clone(), r.policy.socket_timeout())
        };
        let stream = connect_stream(&addrs, timeout)?;
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
        let r = self.reliable.as_mut().expect("reliable mode");
        let base = r.policy.base_backoff;
        let exp = base.saturating_mul(1u32 << attempt.min(10));
        let jitter_us = r.rng.gen_range(0..=base.as_micros().max(1) as u64);
        std::thread::sleep(exp + Duration::from_micros(jitter_us));
    }

    /// Sends the request already encoded in `scratch`; in reliable mode
    /// retries retryable faults with backoff + reconnect, retransmitting
    /// the identical frame so the server's replay cache can deduplicate.
    fn round_trip_encoded(&mut self) -> Result<Response, RuntimeError> {
        let Some(policy) = self.reliable.as_ref().map(|r| r.policy) else {
            return self.try_round_trip();
        };
        let started = Instant::now();
        let mut attempt = 0u32;
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
                    self.recorder.record(Event::Fault { kind: "io" });
                    self.recorder.record(Event::Retry);
                    self.backoff(attempt);
                    attempt += 1;
                    // A failed reconnect burns attempts too; terminal
                    // connect errors abort immediately.
                    if let Err(re) = self.reconnect() {
                        if re.is_retryable() && attempt + 1 < policy.max_attempts {
                            self.stats.faults += 1;
                            self.recorder.record(Event::Fault { kind: "io" });
                            continue;
                        }
                        return Err(re);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, RuntimeError> {
        req.encode_into(&mut self.scratch);
        self.round_trip_encoded()
    }

    /// Wraps a call/batch request in its sequenced form when a session is
    /// open; advances the sequence only after a successful reply.
    fn sequenced(&mut self, req: Request) -> Result<Response, RuntimeError> {
        let req = match (&self.reliable, req) {
            (
                Some(r),
                Request::Call {
                    component,
                    key,
                    label,
                    args,
                },
            ) => Request::SeqCall {
                seq: r.next_seq,
                call: PendingCall {
                    component,
                    key,
                    label,
                    args,
                },
            },
            (Some(r), Request::Batch(calls)) => Request::SeqBatch {
                seq: r.next_seq,
                calls,
            },
            (_, req) => req,
        };
        let resp = self.round_trip(&req)?;
        if let Some(r) = self.reliable.as_mut() {
            // Keep the committed frame so a recovered server that lost its
            // journal tail can be re-driven (resume_session); the window is
            // bounded by `RetryPolicy::resume_window`. The frame moves into
            // the window, and once the window is full the frame it evicts
            // becomes the next encode buffer.
            if matches!(req, Request::SeqCall { .. } | Request::SeqBatch { .. }) {
                let evicted = (r.history.len() >= r.policy.resume_window)
                    .then(|| r.history.pop_front())
                    .flatten()
                    .map_or_else(|| Vec::with_capacity(256), |(_, frame)| frame);
                let frame = std::mem::replace(&mut self.scratch, evicted);
                r.history.push_back((r.next_seq, frame));
                while r.history.len() > r.policy.resume_window {
                    r.history.pop_front();
                }
            }
            r.next_seq += 1;
        }
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
        let resp = self.sequenced(Request::Call {
            component,
            key,
            label,
            args: args.to_vec(),
        })?;
        match resp {
            Response::Reply { value, server_cost } => {
                self.recorder.record(Event::Call {
                    args: args.len() as u64,
                    server_cost,
                });
                self.recorder.record(Event::RoundTrip {
                    calls: 1,
                    rtt_cost: self.rtt_cost,
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
        // The wire format caps one batch frame at u16::MAX calls (tests may
        // inject a smaller cap); larger buffers ride in multiple frames
        // (each its own interaction).
        if calls.len() > self.batch_cap {
            let mut out = Vec::with_capacity(calls.len());
            for chunk in calls.chunks(self.batch_cap) {
                out.extend(self.call_batch(chunk)?);
            }
            return Ok(out);
        }
        self.interactions += 1;
        let resp = self.sequenced(Request::Batch(calls.to_vec()))?;
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
                    rtt_cost: self.rtt_cost,
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
        // Fire-and-forget: no reply expected for release, and the server
        // treats it idempotently, so it is never sequenced or retried.
        Request::Release { component, key }.encode_into(&mut self.scratch);
        write_frame(&mut self.writer, &self.scratch)?;
        self.recorder.record(Event::Release);
        Ok(())
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn rtt_cost(&self) -> u64 {
        self.rtt_cost
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats
    }
}

/// Handles one request on a legacy (unsequenced) connection. Returns the
/// number of logical calls served, or `None` to stop serving.
fn serve_legacy_request(
    req: Request,
    server: &mut SecureServer,
    writer: &mut BufWriter<&TcpStream>,
    scratch: &mut Vec<u8>,
) -> Result<Option<u64>, RuntimeError> {
    match req {
        Request::Call {
            component,
            key,
            label,
            args,
        } => {
            let (resp, served) = match server.call(component, key, label, &args) {
                Ok(out) => (
                    Response::Reply {
                        value: out.value,
                        server_cost: out.cost,
                    },
                    1,
                ),
                Err(e) => (Response::Error(e.to_string()), 0),
            };
            resp.encode_into(scratch);
            write_frame(writer, scratch)?;
            Ok(Some(served))
        }
        Request::Batch(calls) => {
            let (resp, served) = match server.call_batch(&calls) {
                Ok(outs) => {
                    let n = outs.len() as u64;
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
                    )
                }
                Err(e) => (Response::Error(e.to_string()), 0),
            };
            resp.encode_into(scratch);
            write_frame(writer, scratch)?;
            Ok(Some(served))
        }
        Request::Release { component, key } => {
            server.release(component, key);
            Ok(Some(0))
        }
        Request::Shutdown => Ok(None),
        Request::Hello { .. } | Request::SeqCall { .. } | Request::SeqBatch { .. } => {
            let resp = Response::Error("session frames need a session server".into());
            resp.encode_into(scratch);
            write_frame(writer, scratch)?;
            Err(RuntimeError::Channel(
                "session frame on a sessionless connection".into(),
            ))
        }
    }
}

/// Serves one client connection until it sends `Shutdown` or disconnects.
/// Returns the number of logical calls served on this connection (each
/// entry of a batch counts).
///
/// # Errors
///
/// Returns [`RuntimeError::Transport`] / [`RuntimeError::Channel`] on
/// transport failures; fragment execution errors are reported to the
/// client, not returned here.
pub fn serve_connection(
    stream: &mut TcpStream,
    server: &mut SecureServer,
) -> Result<u64, RuntimeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| RuntimeError::transport("set_nodelay", &e))?;
    let mut reader = BufReader::new(&*stream);
    let mut writer = BufWriter::new(&*stream);
    let mut scratch = Vec::with_capacity(256);
    let mut served = 0u64;
    loop {
        let payload = match read_frame(&mut reader)? {
            Some(p) => p,
            None => return Ok(served),
        };
        let req = Request::decode(&payload)?;
        match serve_legacy_request(req, server, &mut writer, &mut scratch)? {
            Some(n) => served += n,
            None => return Ok(served),
        }
    }
}

/// Binds a listener on `addr` (use port 0 for an ephemeral port), accepts
/// **one** connection and serves it to completion. Returns calls served.
///
/// Intended for examples and tests; production deployments use
/// [`SessionServer`], which accepts in a loop with one server per session.
///
/// # Errors
///
/// Accept failures surface as [`RuntimeError::Transport`] (classified
/// retryable/terminal); transport failures while serving carry the peer
/// address.
pub fn serve_once(listener: TcpListener, server: &mut SecureServer) -> Result<u64, RuntimeError> {
    let (mut stream, peer) = listener
        .accept()
        .map_err(|e| RuntimeError::transport("accept", &e))?;
    serve_connection(&mut stream, server).map_err(|e| e.with_peer(peer))
}

/// Server-side chaos: deterministically kill sockets mid-call to exercise
/// client reconnect + replay. With probability `kill_per_mille`/1000 per
/// served frame, the connection dies — half the time before executing the
/// request (client retransmit finds a fresh sequence), half after
/// executing but before responding (retransmit hits the replay cache).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosConfig {
    /// Seed for the per-connection kill schedule.
    pub seed: u64,
    /// Kill probability per frame, in thousandths.
    pub kill_per_mille: u32,
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
    /// Retransmits answered from the replay cache.
    pub replays: u64,
    /// Cached responses evicted from bounded replay windows.
    pub replay_evictions: u64,
    /// Connections killed by [`ChaosConfig`].
    pub chaos_kills: u64,
    /// Fragments lowered to bytecode by the fragment VM's compile-once
    /// caches (all shards plus legacy connections).
    pub vm_compiles: u64,
    /// Fragment executions served from already-compiled bytecode.
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
        m.add(names::SERVER_REPLAY_EVICTIONS, self.replay_evictions);
        m.add(names::SERVER_CHAOS_KILLS, self.chaos_kills);
        m.add(names::SERVER_VM_COMPILES, self.vm_compiles);
        m.add(names::SERVER_VM_CACHE_HITS, self.vm_cache_hits);
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

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        let shards = self.stats.shard_stats();
        ServerStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            sessions: self.stats.sessions.load(Ordering::Relaxed),
            calls: self.stats.calls.load(Ordering::Relaxed),
            replays: self.stats.replays.load(Ordering::Relaxed),
            replay_evictions: self.stats.replay_evictions.load(Ordering::Relaxed),
            chaos_kills: self.stats.chaos_kills.load(Ordering::Relaxed),
            vm_compiles: self.stats.legacy_vm_compiles.load(Ordering::Relaxed)
                + shards.iter().map(|s| s.vm_compiles).sum::<u64>(),
            vm_cache_hits: self.stats.legacy_vm_cache_hits.load(Ordering::Relaxed)
                + shards.iter().map(|s| s.vm_cache_hits).sum::<u64>(),
            memo_hits: 0,
            memo_misses: 0,
            panics_caught: self.stats.panics_caught.load(Ordering::Relaxed),
            shard_restarts: self.stats.shard_restarts.load(Ordering::Relaxed),
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
            pool.kill(&self.stats, shard);
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

    /// Sets the per-session replay-window capacity (builder style; min 1).
    /// Each session retains at most this many cached response frames;
    /// older entries are evicted (counted in
    /// [`ServerStats::replay_evictions`]).
    pub fn with_replay_capacity(mut self, capacity: usize) -> SessionServer {
        self.config.replay_capacity = capacity.max(1);
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
    /// transport errors are contained to that thread (reported via
    /// `on_event`, may be a no-op).
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
            let hidden = self.hidden.clone();
            let chaos = self
                .chaos
                .map(|c| (c, StdRng::seed_from_u64(c.seed ^ conn_index)));
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
                    match serve_session_connection(stream, &pool, hidden, chaos, &stats) {
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

/// Chaos verdict for one frame.
enum ChaosAction {
    None,
    KillBeforeExec,
    KillAfterExec,
}

fn chaos_draw(chaos: &mut Option<(ChaosConfig, StdRng)>) -> ChaosAction {
    match chaos {
        Some((cfg, rng)) if cfg.kill_per_mille > 0 => {
            if rng.gen_range(0u32..1000) < cfg.kill_per_mille {
                if rng.gen_range(0u32..2) == 0 {
                    ChaosAction::KillBeforeExec
                } else {
                    ChaosAction::KillAfterExec
                }
            } else {
                ChaosAction::None
            }
        }
        _ => ChaosAction::None,
    }
}

/// Serves one connection of a [`SessionServer`]: handshake, then sequenced
/// frames executed (or replayed) on this thread inside the session's
/// shard. Falls back to the legacy unsequenced protocol (fresh private
/// server, no session) when the first frame is not `Hello`.
fn serve_session_connection(
    stream: TcpStream,
    pool: &ShardPool,
    hidden: HiddenProgram,
    mut chaos: Option<(ChaosConfig, StdRng)>,
    stats: &StatsInner,
) -> Result<u64, RuntimeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| RuntimeError::transport("set_nodelay", &e))?;
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
    let mut scratch = Vec::with_capacity(256);
    let mut served = 0u64;

    // First frame decides the mode.
    let Some(payload) = read_frame(&mut reader)? else {
        return Ok(0);
    };
    let first = Request::decode(&payload)?;
    let session = match first {
        Request::Hello { version, session } => {
            if version != WIRE_VERSION {
                let resp = Response::Error(format!(
                    "version mismatch: server speaks {WIRE_VERSION}, client sent {version}"
                ));
                resp.encode_into(&mut scratch);
                write_frame(&mut writer, &scratch)?;
                return Err(RuntimeError::Channel(format!(
                    "client version {version} != {WIRE_VERSION}"
                )));
            }
            let next_seq = pool.hello(stats, session);
            Response::HelloAck {
                version: WIRE_VERSION,
                session,
                next_seq,
            }
            .encode_into(&mut scratch);
            write_frame(&mut writer, &scratch)?;
            session
        }
        // Legacy client: serve it with a private, sessionless server owned
        // by this thread; it shares no state, so it needs no shard.
        other => {
            let mut server = SecureServer::new(hidden);
            // The private server dies with the connection; fold its VM
            // counters into the shared stats before each exit.
            let fold_vm = |server: &SecureServer| {
                stats
                    .legacy_vm_compiles
                    .fetch_add(server.vm_compiles(), Ordering::Relaxed);
                stats
                    .legacy_vm_cache_hits
                    .fetch_add(server.vm_cache_hits(), Ordering::Relaxed);
            };
            match serve_legacy_request(other, &mut server, &mut writer, &mut scratch)? {
                Some(n) => served = n,
                None => {
                    fold_vm(&server);
                    return Ok(served);
                }
            }
            loop {
                let Some(payload) = read_frame(&mut reader)? else {
                    stats.calls.fetch_add(served, Ordering::Relaxed);
                    fold_vm(&server);
                    return Ok(served);
                };
                let req = Request::decode(&payload)?;
                match serve_legacy_request(req, &mut server, &mut writer, &mut scratch)? {
                    Some(n) => served += n,
                    None => {
                        stats.calls.fetch_add(served, Ordering::Relaxed);
                        fold_vm(&server);
                        return Ok(served);
                    }
                }
            }
        }
    };

    loop {
        let Some(payload) = read_frame(&mut reader)? else {
            return Ok(served);
        };
        let req = Request::decode(&payload)?;
        let action = chaos_draw(&mut chaos);
        if matches!(action, ChaosAction::KillBeforeExec) {
            // Drop the connection before the request reaches its shard:
            // the client's retransmit finds a fresh sequence.
            stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
            return Ok(served);
        }
        let (seq, calls, batch) = match req {
            Request::SeqCall { seq, call } => (seq, vec![call], false),
            Request::SeqBatch { seq, calls } => (seq, calls, true),
            Request::Release { component, key } => {
                pool.release(stats, session, component, key);
                continue;
            }
            Request::Shutdown => return Ok(served),
            Request::Hello { .. } | Request::Call { .. } | Request::Batch(_) => {
                let resp = Response::Error("unexpected frame on an open session".into());
                resp.encode_into(&mut scratch);
                write_frame(&mut writer, &scratch)?;
                return Err(RuntimeError::Channel(
                    "unsequenced frame on an open session".into(),
                ));
            }
        };
        served += calls.len() as u64;
        let kill_after = matches!(action, ChaosAction::KillAfterExec);
        // The shard copies the reply into `scratch`; it reaches the socket
        // only after the shard is released, so a client that stops reading
        // stalls its own connection and no other.
        pool.seq(stats, session, seq, Arc::new(calls), batch, &mut scratch);
        if kill_after {
            // Executed and cached, but the response never leaves: the
            // retransmit must hit the replay cache.
            stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
            return Ok(served);
        }
        write_frame(&mut writer, &scratch)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::tests::accumulator_program;
    use std::thread;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy::new()
            .with_base_backoff(Duration::from_millis(1))
            .with_timeout(Duration::from_secs(5))
            .with_max_attempts(8)
            .with_jitter_seed(42)
    }

    #[test]
    fn loopback_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let mut server = SecureServer::new(accumulator_program());
            serve_once(listener, &mut server).expect("serve")
        });
        let mut chan = TcpChannel::connect(addr).expect("connect");
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
        chan.shutdown().unwrap();
        let served = handle.join().expect("server thread");
        assert_eq!(served, 4);
    }

    #[test]
    fn loopback_batch_is_one_interaction() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let mut server = SecureServer::new(accumulator_program());
            serve_once(listener, &mut server).expect("serve")
        });
        let mut chan = TcpChannel::connect(addr).expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let calls: Vec<PendingCall> = [2, 3, 5]
            .into_iter()
            .map(|n| PendingCall {
                component: c,
                key: 1,
                label: l,
                args: vec![Value::Int(n)],
            })
            .collect();
        let replies = chan.call_batch(&calls).unwrap();
        // The accumulator sees each logical call in order.
        let values: Vec<Value> = replies.iter().map(|r| r.value).collect();
        assert_eq!(values, [Value::Int(2), Value::Int(5), Value::Int(10)]);
        // ... but the transport made a single round trip.
        assert_eq!(chan.interactions(), 1);
        chan.shutdown().unwrap();
        let served = handle.join().expect("server thread");
        assert_eq!(served, 3, "every logical call is served and counted");
    }

    #[test]
    fn remote_errors_are_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let mut server = SecureServer::new(accumulator_program());
            serve_once(listener, &mut server).expect("serve")
        });
        let mut chan = TcpChannel::connect(addr).expect("connect");
        let err = chan
            .call(ComponentId::new(7), 0, FragLabel::new(0), &[])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Channel(msg) if msg.contains("remote:")));
        chan.shutdown().unwrap();
        handle.join().expect("server thread");
    }

    #[test]
    fn batch_chunking_at_the_cap_boundary() {
        // The satellite case: exactly cap and cap+1 buffered calls. A small
        // injected cap keeps it fast; the default cap is the wire maximum.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let mut server = SecureServer::new(accumulator_program());
            serve_once(listener, &mut server).expect("serve")
        });
        let mut chan = TcpChannel::connect(addr)
            .expect("connect")
            .with_batch_cap(3);
        assert_eq!(
            TcpChannel::connect(addr).expect("connect").batch_cap,
            usize::from(u16::MAX),
            "default cap is the wire-format maximum 65535"
        );
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mk = |n: i64| PendingCall {
            component: c,
            key: 1,
            label: l,
            args: vec![Value::Int(n)],
        };
        // Exactly at the cap: one frame.
        let replies = chan.call_batch(&[mk(1), mk(2), mk(3)]).unwrap();
        assert_eq!(replies.len(), 3);
        assert_eq!(chan.interactions(), 1);
        // One past the cap: two frames, replies still in order and the
        // accumulator state carries across the chunk boundary.
        let replies = chan.call_batch(&[mk(1), mk(1), mk(1), mk(1)]).unwrap();
        let values: Vec<Value> = replies.iter().map(|r| r.value).collect();
        assert_eq!(
            values,
            [Value::Int(7), Value::Int(8), Value::Int(9), Value::Int(10)]
        );
        assert_eq!(chan.interactions(), 3, "cap+1 calls cost two interactions");
        chan.shutdown().unwrap();
        handle.join().expect("server thread");
    }

    #[test]
    fn session_server_serves_many_clients() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
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
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn sharded_server_matches_single_shard_behaviour() {
        // Same workload as session_server_serves_many_clients, but spread
        // over four shards: per-session results are identical and the
        // shard counters account for every call and session.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_shards(4);
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
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
        assert_eq!(shards.iter().map(|s| s.fragments).sum::<u64>(), 40);
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
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn stop_drains_in_flight_requests() {
        // Regression: a clean stop() must let a request already read by a
        // connection finish and deliver its response.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let worker = thread::spawn(move || {
            // One big batch frame: tens of milliseconds of execution, so
            // the stop below lands while it is in flight. Built up front so
            // the frame hits the wire immediately after the ready signal.
            let calls: Vec<PendingCall> = (0..50_000)
                .map(|_| PendingCall {
                    component: c,
                    key: 1,
                    label: l,
                    args: vec![Value::Int(1)],
                })
                .collect();
            let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
            chan.call(c, 1, l, &[Value::Int(1)]).expect("warm-up call");
            ready_tx.send(()).expect("signal");
            let replies = chan
                .call_batch(&calls)
                .expect("in-flight batch survives a clean stop");
            replies.len()
        });
        ready_rx.recv().expect("worker ready");
        thread::sleep(Duration::from_millis(50));
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
        assert_eq!(worker.join().expect("worker"), 50_000);
        assert_eq!(handle.stats().calls, 50_001);
    }

    #[test]
    fn bounded_replay_window_evicts_and_counts() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_shards(2)
            .with_replay_capacity(2);
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
        for n in 1..=5i64 {
            chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        }
        chan.shutdown().expect("shutdown");
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
        let stats = handle.stats();
        assert_eq!(stats.calls, 5);
        // Window of 2: storing responses 1..=5 evicts 1, 2 and 3.
        assert_eq!(stats.replay_evictions, 3);
        assert_eq!(handle.metrics().counter(names::SERVER_REPLAY_EVICTIONS), 3);
    }

    #[test]
    fn session_survives_reconnect_with_state() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
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
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn chaos_kills_are_survived_exactly_once() {
        // Aggressive server-side chaos: connections die around every ~4th
        // frame, both before and after execution. The reliable client must
        // still see every accumulator value exactly once.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed: 0xc405,
                kill_per_mille: 250,
            });
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy().with_max_attempts(12))
            .expect("connect");
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
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn sequence_gap_is_terminal() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
        // Corrupt the client's sequence counter to skip ahead.
        chan.reliable.as_mut().expect("reliable").next_seq = 40;
        let err = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
            .expect_err("gap must be rejected");
        assert!(
            matches!(&err, RuntimeError::SequenceGap { got: 40, .. }),
            "got {err:?}"
        );
        assert!(!err.is_retryable());
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        // Hand-roll a bad Hello.
        let stream = TcpStream::connect(addr).expect("connect");
        let (mut reader, mut writer) = split_stream(stream).expect("split");
        let mut buf = Vec::new();
        Request::Hello {
            version: WIRE_VERSION + 1,
            session: 1,
        }
        .encode_into(&mut buf);
        write_frame(&mut writer, &buf).expect("write");
        let payload = read_frame(&mut reader).expect("read").expect("frame");
        let resp = Response::decode(&payload).expect("decode");
        assert!(
            matches!(&resp, Response::Error(msg) if msg.contains("version mismatch")),
            "got {resp:?}"
        );
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn legacy_clients_still_work_against_session_server() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let mut chan = TcpChannel::connect(addr).expect("connect");
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
        // Give the connection thread a moment to record its calls.
        for _ in 0..100 {
            if handle.stats().calls == 2 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.stats().calls, 2);
        assert_eq!(handle.stats().sessions, 0, "legacy mode opens no session");
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn retries_are_not_logical_interactions() {
        // Chaos forces retransmits; the interaction count and the trace
        // (per-logical-call) must match a fault-free run.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed: 7,
                kill_per_mille: 300,
            });
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy().with_max_attempts(12))
            .expect("connect");
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
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }
}
