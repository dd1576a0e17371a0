//! The `serve-*` workloads: one suite program split the paper's way, its
//! hidden half served by a [`SessionServer`] over loopback TCP, and
//! closed-loop clients running the open half. A split program blocks on
//! every hidden reply, so each client starts its next run only when the
//! previous one has ended.

use crate::stats::{median_rate, quartiles, Samples};
use crate::{Divergence, Report, Settings};
use hps_bench::split_benchmark;
use hps_core::SplitResult;
use hps_ir::{ComponentId, FragLabel, Program, Value};
use hps_runtime::tcp::{RetryPolicy, ServerStats, SessionServer, SessionServerHandle, TcpChannel};
use hps_runtime::telemetry::Histogram;
use hps_runtime::wire::{Request, Response};
use hps_runtime::{
    run_program, CallReply, Channel, ExecConfig, InProcessChannel, Interp, Outcome, PendingCall,
    RtValue, RuntimeError, SecureServer, ShardStats, SplitMeta, TransportStats,
};
use hps_suite::{plan_benchmark, Benchmark};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which split of the program is served.
#[derive(Clone, Copy, Debug)]
pub enum SplitKind {
    /// The paper's split ([`split_benchmark`]).
    Paper,
    /// The budgeted, hardened plan that `plan-ladder` produces
    /// ([`plan_benchmark`]).
    Planned,
}

/// What a serving workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The suite program.
    pub bench: &'static str,
    pub split: SplitKind,
    /// Ship deferred hidden calls together in one frame.
    pub batching: bool,
    /// Closed-loop clients, each on its own thread and connection. All
    /// sessions land on the server's single shard.
    pub clients: usize,
}

/// Input size of every run.
const SIZE: usize = 200;

/// Inputs per run, generated from `--seed` and used in rotation.
const INPUTS: u64 = 32;

fn input_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..INPUTS).map(move |i| seed.wrapping_mul(INPUTS).wrapping_add(i))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `main` of the open program once over `chan`, timing only
/// `Interp::run`.
fn run_once(
    open: &Program,
    meta: &SplitMeta,
    chan: &mut dyn Channel,
    batching: bool,
    input: &RtValue,
) -> (Result<Outcome, RuntimeError>, Duration) {
    let args = [input.deep_clone()];
    let mut interp =
        Interp::new(open, ExecConfig::new().with_batching(batching)).with_channel(chan, meta);
    let started = Instant::now();
    let outcome = interp.run("main", &args);
    (outcome, started.elapsed())
}

/// What a traced [`Probe`] records.
#[derive(Default)]
struct CallTrace {
    /// Wall time of each `call` / `call_batch`, in µs.
    call_us: Vec<f64>,
    /// Time inside the channel during the current run.
    run_channel: Duration,
    interactions: u64,
    calls: u64,
    /// Every frame and its reply, as the wire would carry them, when
    /// capturing.
    frames: Option<Vec<(Request, Response)>>,
}

/// The benchmark's channel wrapper: untraced it forwards to the TCP
/// channel; traced it times every call into it.
struct Probe {
    inner: TcpChannel,
    trace: Option<CallTrace>,
}

impl Channel for Probe {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        let Some(trace) = self.trace.as_mut() else {
            return self.inner.call(component, key, label, args);
        };
        let started = Instant::now();
        let reply = self.inner.call(component, key, label, args);
        let took = started.elapsed();
        trace.call_us.push(took.as_secs_f64() * 1e6);
        trace.run_channel += took;
        trace.interactions += 1;
        trace.calls += 1;
        if let (Some(frames), Ok(r)) = (trace.frames.as_mut(), &reply) {
            let call = PendingCall {
                component,
                key,
                label,
                args: args.to_vec(),
            };
            frames.push((
                Request::SeqCall {
                    seq: trace.interactions,
                    call,
                },
                Response::Reply {
                    value: r.value,
                    server_cost: r.server_cost,
                },
            ));
        }
        reply
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        let Some(trace) = self.trace.as_mut() else {
            return self.inner.call_batch(calls);
        };
        let started = Instant::now();
        let replies = self.inner.call_batch(calls);
        let took = started.elapsed();
        trace.call_us.push(took.as_secs_f64() * 1e6);
        trace.run_channel += took;
        trace.interactions += 1;
        trace.calls += calls.len() as u64;
        if let (Some(frames), Ok(r)) = (trace.frames.as_mut(), &replies) {
            frames.push((
                Request::SeqBatch {
                    seq: trace.interactions,
                    calls: calls.to_vec(),
                },
                Response::Batch(r.clone()),
            ));
        }
        replies
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        let Some(trace) = self.trace.as_mut() else {
            return self.inner.release(component, key);
        };
        let started = Instant::now();
        let done = self.inner.release(component, key);
        trace.run_channel += started.elapsed();
        done
    }

    fn interactions(&self) -> u64 {
        self.inner.interactions()
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}

fn connect(addr: std::net::SocketAddr, session: u64) -> Probe {
    let inner = TcpChannel::connect_reliable_with_session(addr, RetryPolicy::new(), session)
        .expect("connect to the loopback session server");
    Probe { inner, trace: None }
}

/// A served split program and the first client's connection.
struct Stack {
    split: SplitResult,
    handle: SessionServerHandle,
    server: std::thread::JoinHandle<Result<(), RuntimeError>>,
    chan: Probe,
}

impl Stack {
    /// Closes the connection, then stops the server and waits for it: the
    /// server serves live connections to completion before it stops.
    fn tear_down(self) -> SplitResult {
        self.chan.inner.shutdown().expect("shutdown");
        self.handle.stop();
        self.server
            .join()
            .expect("server thread")
            .expect("server stops cleanly");
        self.split
    }
}

/// One fresh set-up: parse and split (or plan), bind and spawn the server,
/// connect one client and complete its first run. Returns the stack and
/// the `[split, serve, first run]` times.
fn set_up(
    b: &Benchmark,
    spec: &Spec,
    input: &RtValue,
    expected: &[String],
) -> Result<(Stack, [Duration; 3]), Divergence> {
    let t0 = Instant::now();
    let split = match spec.split {
        SplitKind::Paper => split_benchmark(b).1,
        SplitKind::Planned => {
            plan_benchmark(b, Some(crate::plan::BUDGET), true)
                .map_err(|e| Divergence(format!("{}: planning failed: {e}", b.name)))?
                .split
        }
    };
    let t1 = Instant::now();
    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone()).expect("bind loopback");
    let handle = server.handle().expect("server handle");
    let addr = handle.addr();
    let server = std::thread::spawn(move || server.serve(|_, _| {}));
    let mut chan = connect(addr, 1);
    let t2 = Instant::now();
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let (outcome, _) = run_once(&split.open, &meta, &mut chan, spec.batching, input);
    let t3 = Instant::now();
    let outcome = outcome.map_err(|e| Divergence(format!("{}: first run failed: {e}", b.name)))?;
    if outcome.output != expected {
        return Err(Divergence(format!("{}: first run diverged", b.name)));
    }
    let stack = Stack {
        split,
        handle,
        server,
        chan,
    };
    Ok((stack, [t1 - t0, t2 - t1, t3 - t2]))
}

/// A stretch of closed-loop running that every client takes part in. It
/// lasts `duration`, and longer if its clients have not yet completed
/// `min_runs` runs between them. When `set_up_after` is set, one fresh
/// set-up follows it while every client waits.
#[derive(Clone, Copy)]
struct Phase {
    duration: Duration,
    min_runs: usize,
    traced: bool,
    set_up_after: bool,
}

/// What one client measured in one phase.
#[derive(Default)]
struct PhaseOut {
    run_ms: Vec<f64>,
    /// When each successful run ended, in seconds from the phase's start.
    done_at: Vec<f64>,
    /// Channel time of each run, in ms (traced phases only).
    channel_ms: Vec<f64>,
    call_us: Vec<f64>,
    interactions: u64,
    calls: u64,
    attempted: u64,
    failed: u64,
    elapsed: Duration,
}

impl PhaseOut {
    /// Adds `o`'s samples and counts, its completion times moved `offset`
    /// seconds later; leaves `elapsed` alone.
    fn absorb(&mut self, o: PhaseOut, offset: f64) {
        self.run_ms.extend(o.run_ms);
        self.done_at.extend(o.done_at.iter().map(|t| t + offset));
        self.channel_ms.extend(o.channel_ms);
        self.call_us.extend(o.call_us);
        self.interactions += o.interactions;
        self.calls += o.calls;
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// The outputs of clients that ran the same phase side by side.
    fn merge(outs: Vec<PhaseOut>) -> PhaseOut {
        let mut all = PhaseOut::default();
        for o in outs {
            let elapsed = o.elapsed;
            all.absorb(o, 0.0);
            all.elapsed = all.elapsed.max(elapsed);
        }
        all
    }

    /// Consecutive phases as one, on a clock that leaves out the pauses
    /// between them.
    fn concat(outs: Vec<PhaseOut>) -> PhaseOut {
        let mut all = PhaseOut::default();
        for o in outs {
            let elapsed = o.elapsed;
            all.absorb(o, all.elapsed.as_secs_f64());
            all.elapsed += elapsed;
        }
        all
    }

    fn runs_per_s(&self) -> Option<f64> {
        median_rate(self.done_at.clone(), self.elapsed.as_secs_f64())
    }
}

/// Server counters at a phase boundary.
struct Snapshot {
    stats: ServerStats,
    shards: Vec<ShardStats>,
    queue: Histogram,
}

fn snap(handle: &SessionServerHandle) -> Snapshot {
    Snapshot {
        stats: handle.stats(),
        shards: handle.shard_stats(),
        queue: handle.queue_depth(),
    }
}

fn exec_nanos(s: &Snapshot) -> u64 {
    s.shards.iter().map(|s| s.exec_nanos).sum()
}

/// Shared, read-only state of a client fleet.
struct Fleet<'a> {
    spec: &'a Spec,
    b: &'a Benchmark,
    split: &'a SplitResult,
    seed: u64,
    expected: &'a [Vec<String>],
    phases: &'a [Phase],
    barrier: Barrier,
}

impl Fleet<'_> {
    /// Runs client `index` through every phase, meeting the others at
    /// each phase boundary. `at_boundary(i)` runs on this client's thread
    /// at boundary `i`, the one before phase `i` (the last one after every
    /// phase), while the other clients wait. A client whose output
    /// diverged stops running but still meets the others, so none waits
    /// forever.
    fn client(
        &self,
        index: usize,
        chan: &mut Probe,
        mut at_boundary: impl FnMut(usize),
    ) -> Result<Vec<PhaseOut>, Divergence> {
        let meta = SplitMeta::derive(&self.split.open, &self.split.hidden);
        // RtValue is not Send: every client generates its own inputs.
        let inputs: Vec<RtValue> = input_seeds(self.seed)
            .map(|s| self.b.workload(SIZE, s))
            .collect();
        let mut meet = |i| {
            self.barrier.wait();
            at_boundary(i);
            self.barrier.wait();
        };
        let mut next = index;
        let mut outs = Vec::new();
        let mut diverged = None;
        for (i, phase) in self.phases.iter().enumerate() {
            meet(i);
            chan.trace = phase.traced.then(CallTrace::default);
            let mut out = PhaseOut::default();
            let min_runs = phase.min_runs.div_ceil(self.spec.clients);
            let started = Instant::now();
            while diverged.is_none() {
                let k = next % inputs.len();
                next += 1;
                if let Some(t) = chan.trace.as_mut() {
                    t.run_channel = Duration::ZERO;
                }
                let (outcome, took) = run_once(
                    &self.split.open,
                    &meta,
                    chan,
                    self.spec.batching,
                    &inputs[k],
                );
                out.attempted += 1;
                match outcome {
                    Ok(o) if o.output == self.expected[k] => {
                        out.run_ms.push(ms(took));
                        out.done_at.push(started.elapsed().as_secs_f64());
                        if let Some(t) = chan.trace.as_ref() {
                            out.channel_ms.push(ms(t.run_channel));
                        }
                    }
                    Ok(_) => {
                        diverged = Some(Divergence(format!(
                            "{}: client {index} output diverged on input {k}",
                            self.b.name
                        )));
                    }
                    Err(e) => {
                        eprintln!(
                            "[benchmark] {} client {index}: run failed: {e}",
                            self.b.name
                        );
                        out.failed += 1;
                    }
                }
                if started.elapsed() >= phase.duration && out.attempted as usize >= min_runs {
                    break;
                }
            }
            out.elapsed = started.elapsed();
            if let Some(t) = chan.trace.take() {
                out.call_us = t.call_us;
                out.interactions = t.interactions;
                out.calls = t.calls;
            }
            outs.push(out);
        }
        meet(self.phases.len());
        match diverged {
            Some(d) => Err(d),
            None => Ok(outs),
        }
    }
}

/// Encodes and decodes every captured frame and reply through the wire
/// codec for `budget`; returns ns per interaction.
fn codec_ns_per_interaction(frames: &[(Request, Response)], budget: Duration) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let mut buf = Vec::with_capacity(256);
    let mut rounds = 0u64;
    let started = Instant::now();
    loop {
        for (req, resp) in frames {
            req.encode_into(&mut buf);
            black_box(Request::decode(black_box(&buf)).expect("request round-trips"));
            resp.encode_into(&mut buf);
            black_box(Response::decode(black_box(&buf)).expect("response round-trips"));
        }
        rounds += 1;
        if started.elapsed() >= budget {
            break;
        }
    }
    started.elapsed().as_secs_f64() * 1e9 / (rounds * frames.len() as u64) as f64
}

/// Times `op` back to back for `budget` (at least once), checking each
/// output against `expected`.
fn reference_window(
    name: &str,
    budget: Duration,
    inputs: &[RtValue],
    expected: &[Vec<String>],
    mut op: impl FnMut(&RtValue) -> (Result<Outcome, RuntimeError>, Duration),
) -> Result<Samples, Divergence> {
    let mut run_ms = Vec::new();
    let started = Instant::now();
    for k in (0..inputs.len()).cycle() {
        let (outcome, took) = op(&inputs[k]);
        match outcome {
            Ok(o) if o.output == expected[k] => run_ms.push(ms(took)),
            Ok(_) => return Err(Divergence(format!("{name}: output diverged on input {k}"))),
            Err(e) => return Err(Divergence(format!("{name}: run failed: {e}"))),
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    Ok(Samples::new(run_ms))
}

/// Runs one serving workload.
pub fn run(spec: &Spec, s: &Settings) -> Result<Report, Divergence> {
    let b = hps_suite::benchmark(spec.bench).expect("suite benchmark");
    let program = b.program().expect("suite program parses");
    let inputs: Vec<RtValue> = input_seeds(s.seed).map(|i| b.workload(SIZE, i)).collect();
    let expected: Vec<Vec<String>> = inputs
        .iter()
        .map(|i| {
            run_program(&program, &[i.deep_clone()])
                .expect("reference run")
                .output
        })
        .collect();

    // The first fresh set-up stays up for the measured phases. The others
    // are spread over the untraced window, one after each of its
    // segments, so that their median samples the host's speed as widely
    // as the window's own metrics do; the clients wait meanwhile, and
    // the window's clock leaves the pauses out.
    let set_up_once = || set_up(&b, spec, &inputs[0], &expected[0]);
    let (mut stack, first) = set_up_once()?;
    let segments = s.setups.saturating_sub(1).max(1);
    let mut phases = vec![Phase {
        duration: s.warmup,
        min_runs: 0,
        traced: false,
        set_up_after: false,
    }];
    phases.extend((0..segments).map(|_| Phase {
        duration: s.window / segments as u32,
        // A traced run goes on until `run_ms_p99` has enough samples.
        min_runs: if s.trace {
            s.tail_runs.div_ceil(segments)
        } else {
            0
        },
        traced: false,
        set_up_after: s.setups > 1,
    }));
    if s.trace {
        phases.push(Phase {
            duration: s.window / 2,
            min_runs: 0,
            traced: true,
            set_up_after: false,
        });
    }
    let fleet = Fleet {
        spec,
        b: &b,
        split: &stack.split,
        seed: s.seed,
        expected: &expected,
        phases: &phases,
        barrier: Barrier::new(spec.clients),
    };
    let mut setups = vec![Ok(first)];
    let (mut by_phase, transport, snaps) =
        drive(&fleet, &stack.handle, &mut stack.chan, |boundary| {
            if boundary > 0 && phases[boundary - 1].set_up_after {
                setups.push(set_up_once().map(|(fresh, times)| {
                    fresh.tear_down();
                    times
                }));
            }
        })?;
    let setup_times = setups.into_iter().collect::<Result<Vec<_>, _>>()?;

    let traced = s.trace.then(|| by_phase.pop().expect("traced phase"));
    let untraced = PhaseOut::concat(by_phase.drain(1..).collect());
    let mut report = Report {
        attempted: untraced.attempted + traced.as_ref().map_or(0, |t| t.attempted),
        failed: untraced.failed + traced.as_ref().map_or(0, |t| t.failed),
        metrics: Vec::new(),
    };
    let total: Vec<f64> = setup_times
        .iter()
        .map(|t| t.iter().sum::<Duration>().as_secs_f64())
        .collect();
    report.put("setup_s", quartiles(&total).expect("set-ups").1);
    for (i, name) in ["setup.split_ms", "setup.serve_ms", "setup.first_run_ms"]
        .into_iter()
        .enumerate()
    {
        let part: Vec<f64> = setup_times.iter().map(|t| ms(t[i])).collect();
        report.put(name, quartiles(&part).expect("set-ups").1);
    }
    let untraced_runs = Samples::new(untraced.run_ms.clone());
    let (Some(median), Some(runs_per_s)) = (untraced_runs.median(), untraced.runs_per_s()) else {
        return Err(Divergence(format!("{}: every run failed", b.name)));
    };
    report.put_sampled("op_ms_p50", median, untraced_runs.len());
    report.put("ops_per_s", runs_per_s);
    let Some(traced) = traced else {
        stack.tear_down();
        return Ok(report);
    };

    // A traced run: per-layer metrics, mostly from the traced phase.
    let traced = &traced;
    let traced_runs = Samples::new(traced.run_ms.clone());
    let median_or_zero = |x: &Samples| x.median().unwrap_or(0.0);
    let runs = traced.run_ms.len().max(1) as f64;
    let run_mean = traced_runs.mean();
    let channel_total_ms: f64 = traced.channel_ms.iter().sum();
    let channel_mean = channel_total_ms / runs;
    let (start, end) = (&snaps[snaps.len() - 2], &snaps[snaps.len() - 1]);
    let exec_ns = (exec_nanos(end) - exec_nanos(start)) as f64;
    if exec_ns > channel_total_ms * 1e6 {
        eprintln!("[benchmark] warning: shard exec time exceeds client channel time");
    }
    let calls = (end.stats.calls - start.stats.calls).max(1) as f64;
    let interactions = traced.interactions.max(1) as f64;
    let call_us = Samples::new(traced.call_us.clone());
    let queue_n = end.queue.count() - start.queue.count();
    let queue_sum = end.queue.sum() - start.queue.sum();
    let st = &end.stats;
    let compile_ns: u64 = end.shards.iter().map(|s| s.compile_nanos).sum();

    // Only a quick run, which asks for no tail runs, can lack the samples.
    report.put_sampled(
        "run_ms_p99",
        untraced_runs.percentile(99.0).unwrap_or(0.0),
        untraced_runs.len(),
    );
    report.put_sampled(
        "trace.op_ms_p50",
        median_or_zero(&traced_runs),
        traced_runs.len(),
    );
    report.put(
        "trace.overhead_frac",
        median_or_zero(&traced_runs) / median - 1.0,
    );
    report.put("interp.self_ms_per_run", run_mean - channel_mean);
    report.put("interp.share", (run_mean - channel_mean) / run_mean);
    report.put("channel.ms_per_run", channel_mean);
    report.put(
        "channel.interactions_per_run",
        traced.interactions as f64 / runs,
    );
    report.put("channel.calls_per_run", traced.calls as f64 / runs);
    report.put_sampled("call_us_p50", median_or_zero(&call_us), call_us.len());
    report.put_sampled(
        "call_us_p99",
        call_us.percentile(99.0).unwrap_or(0.0),
        call_us.len(),
    );
    report.put("shard.exec_us_per_call", exec_ns / calls / 1e3);
    report.put("shard.exec_share", exec_ns / (channel_total_ms * 1e6));
    report.put(
        "tcp.us_per_interaction",
        (channel_total_ms * 1e6 - exec_ns) / interactions / 1e3,
    );
    report.put(
        "shard.queue_depth_mean",
        queue_sum as f64 / queue_n.max(1) as f64,
    );
    report.put(
        "shard.queue_depth_max",
        end.shards
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    report.put("vm.compile_ms", compile_ns as f64 / 1e6);
    report.put(
        "vm.hit_ratio",
        st.vm_cache_hits as f64 / (st.vm_cache_hits + st.vm_compiles).max(1) as f64,
    );
    report.put(
        "memo.hit_ratio",
        st.memo_hits as f64 / (st.memo_hits + st.memo_misses).max(1) as f64,
    );
    report.put(
        "transport.retries",
        transport.iter().map(|t| t.retries).sum::<u64>() as f64,
    );
    report.put(
        "transport.reconnects",
        transport.iter().map(|t| t.reconnects).sum::<u64>() as f64,
    );
    report.put("server.replays", st.replays as f64);

    // One captured run feeds the wire codec timing, then the server goes
    // and the in-process and unsplit references run.
    let meta = SplitMeta::derive(&stack.split.open, &stack.split.hidden);
    stack.chan.trace = Some(CallTrace {
        frames: Some(Vec::new()),
        ..CallTrace::default()
    });
    let (outcome, _) = run_once(
        &stack.split.open,
        &meta,
        &mut stack.chan,
        spec.batching,
        &inputs[0],
    );
    if !matches!(outcome, Ok(o) if o.output == expected[0]) {
        return Err(Divergence(format!("{}: captured run diverged", b.name)));
    }
    let frames = stack
        .chan
        .trace
        .take()
        .and_then(|t| t.frames)
        .unwrap_or_default();
    let budget = s.window / 10;
    report.put(
        "wire.codec_ns_per_interaction",
        codec_ns_per_interaction(&frames, budget / 2),
    );
    let split = stack.tear_down();

    let mut inproc = InProcessChannel::new(SecureServer::new(split.hidden.clone()));
    let inproc_runs = reference_window("inproc", budget, &inputs, &expected, |input| {
        run_once(&split.open, &meta, &mut inproc, spec.batching, input)
    })?;
    report.put_sampled(
        "inproc.run_ms_p50",
        median_or_zero(&inproc_runs),
        inproc_runs.len(),
    );
    let unsplit_runs = reference_window("unsplit", budget, &inputs, &expected, |input| {
        let args = [input.deep_clone()];
        let started = Instant::now();
        let outcome = run_program(&program, &args);
        (outcome, started.elapsed())
    })?;
    report.put_sampled(
        "unsplit.run_ms_p50",
        median_or_zero(&unsplit_runs),
        unsplit_runs.len(),
    );
    Ok(report)
}

/// Runs the fleet through its phases: client 0 on this thread over the
/// set-up's connection, the others on their own threads and connections.
/// `between(i)` runs on this thread at phase boundary `i`, while every
/// client waits. Returns every phase's merged output, each client's
/// transport counters and the server counters at every phase boundary.
#[allow(clippy::type_complexity)]
fn drive(
    fleet: &Fleet<'_>,
    handle: &SessionServerHandle,
    chan0: &mut Probe,
    mut between: impl FnMut(usize),
) -> Result<(Vec<PhaseOut>, Vec<TransportStats>, Vec<Snapshot>), Divergence> {
    let mut snaps = Vec::new();
    let (first, others) = std::thread::scope(|scope| {
        let addr = handle.addr();
        let others: Vec<_> = (1..fleet.spec.clients)
            .map(|index| {
                scope.spawn(move || {
                    let mut chan = connect(addr, index as u64 + 1);
                    let outs = fleet.client(index, &mut chan, |_| {});
                    let transport = chan.transport_stats();
                    chan.inner.shutdown().expect("shutdown");
                    outs.map(|o| (o, transport))
                })
            })
            .collect();
        let first = fleet.client(0, chan0, |i| {
            between(i);
            snaps.push(snap(handle));
        });
        let others: Vec<_> = others
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (first, others)
    });
    let mut per_client = vec![first?];
    let mut transport = vec![chan0.transport_stats()];
    for other in others {
        let (outs, t) = other?;
        per_client.push(outs);
        transport.push(t);
    }
    let by_phase = (0..fleet.phases.len())
        .map(|p| {
            PhaseOut::merge(
                per_client
                    .iter_mut()
                    .map(|c| std::mem::take(&mut c[p]))
                    .collect(),
            )
        })
        .collect();
    Ok((by_phase, transport, snaps))
}
