//! `loadgen` — multi-client TCP load harness for the sharded
//! [`SessionServer`].
//!
//! Serves each suite benchmark's hidden program over real TCP at several
//! shard counts, drives it with N concurrent reliable clients (each
//! running the full open program and byte-checking its output against the
//! unsplit reference), and emits `BENCH_loadgen.json` (`hps-loadgen/v1`):
//! per-(benchmark, shard-count) wall-clock throughput, p50/p99 round-trip
//! latency from the telemetry HDR histograms, the server's metrics
//! snapshot and per-shard counters. The schema and field order are
//! deterministic; only the measured wall-clock numbers vary between runs.
//!
//! Clients pin their session ids (`worker + 1`), so sessions spread over
//! the shards round-robin and a run is reproducible modulo timing.
//!
//! ```text
//! loadgen [--clients N] [--iters K] [--size S] [--seed SEED]
//!         [--shards LIST] [--out PATH] [--gate] [--gate-ratio-millis R]
//!         [--crash]
//! ```
//!
//! `--gate` makes the process fail (exit 1) when the *aggregate* sharded
//! throughput (total calls / total wall time, summed over the suite)
//! regresses below `R/1000 ×` the single-shard aggregate — the CI
//! `load-smoke` contract. The gate exists to catch a sharding bug that
//! serialises or duplicates work, not to certify speedup, so `R` defaults
//! to a forgiving 750: short smoke cells on a busy runner are noisy, and
//! on a single-core host `--shards 4` legitimately pays a scheduling tax.
//! Speedup claims come from the recorded numbers, not the gate.
//!
//! `--crash` replaces the throughput sweep with an availability drill
//! (`hps-loadgen-crash/v1`): each benchmark is served at the sweep's
//! highest shard count while a killer thread cycles deliberate
//! [`kill_shard`](hps_runtime::tcp::SessionServerHandle::kill_shard)
//! requests round-robin and the
//! executors carry a trickle of injected mid-fragment panics. Every
//! client program run either completes byte-identical to the unsplit
//! reference (output divergence aborts — that is a correctness bug, not
//! unavailability) or counts against availability. Failover is designed
//! to be client-transparent, so the drill expects ~100%; with `--gate`
//! the process fails unless every cell reaches >= 99.0% availability
//! *and* every shard executor was killed and respawned at least once.

use hps_bench::split_benchmark;
use hps_runtime::tcp::{RetryPolicy, SessionServer, TcpChannel};
use hps_runtime::telemetry::json::Json;
use hps_runtime::telemetry::Histogram;
use hps_runtime::{
    run_program, CallReply, Channel, CrashConfig, ExecConfig, Interp, PendingCall, RuntimeError,
    SplitMeta,
};
use hps_suite::benchmarks;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    eprintln!(
        "[loadgen] {} clients x {} iters, workload size {}, seed {}, shards {:?}, {} core(s)",
        cfg.clients, cfg.iters, cfg.size, cfg.seed, cfg.shard_counts, host_parallelism
    );
    if cfg.crash {
        run_crash_suite(&cfg, host_parallelism);
        return;
    }

    let mut bench_docs = Vec::new();
    // (calls, wall_micros) summed over all benchmarks, per shard count.
    let mut totals: Vec<(usize, u64, u64)> = cfg.shard_counts.iter().map(|&s| (s, 0, 0)).collect();
    for b in benchmarks() {
        let (program, split) = split_benchmark(&b);
        let expected = run_program(&program, &[b.workload(cfg.size, cfg.seed)])
            .expect("reference run")
            .output;
        let mut cells = Vec::new();
        let mut throughput = Vec::new();
        for (i, &shards) in cfg.shard_counts.iter().enumerate() {
            let cell = run_cell(&cfg, b.name, &split, shards, &expected);
            eprintln!(
                "[loadgen] {:8} shards={} {:>9} calls/s p50={}us p99={}us",
                b.name, shards, cell.throughput, cell.p50, cell.p99
            );
            totals[i].1 += cell.calls;
            totals[i].2 += cell.wall_micros;
            throughput.push((shards, cell.throughput));
            cells.push(cell);
        }
        let base = throughput
            .iter()
            .find(|(s, _)| *s == 1)
            .map_or(0, |(_, t)| *t);
        let peak = throughput.iter().map(|(_, t)| *t).max().unwrap_or(0);
        let speedup_millis = (peak * 1000).checked_div(base).unwrap_or(0);
        bench_docs.push(
            Json::object()
                .field("name", b.name)
                .field("paper_analog", b.paper_analog)
                .field("speedup_millis", speedup_millis)
                .field(
                    "cells",
                    cells.into_iter().map(Cell::into_json).collect::<Vec<_>>(),
                ),
        );
    }

    let aggregate: Vec<(usize, u64, u64)> = totals
        .iter()
        .map(|&(shards, calls, wall)| (shards, calls, calls * 1_000_000 / wall.max(1)))
        .collect();
    for &(shards, calls, thr) in &aggregate {
        eprintln!("[loadgen] aggregate shards={shards} {thr:>9} calls/s ({calls} calls)");
    }

    let doc = Json::object()
        .field("schema", "hps-loadgen/v1")
        .field("clients", cfg.clients as u64)
        .field("iters", cfg.iters as u64)
        .field("workload_size", cfg.size as u64)
        .field("seed", cfg.seed)
        .field("host_parallelism", host_parallelism)
        .field(
            "shard_counts",
            cfg.shard_counts
                .iter()
                .map(|&s| Json::Uint(s as u64))
                .collect::<Vec<_>>(),
        )
        .field(
            "aggregate",
            aggregate
                .iter()
                .map(|&(shards, calls, thr)| {
                    Json::object()
                        .field("shards", shards as u64)
                        .field("calls", calls)
                        .field("throughput_calls_per_sec", thr)
                })
                .collect::<Vec<_>>(),
        )
        .field("benchmarks", bench_docs);
    std::fs::write(&cfg.out, doc.pretty()).expect("write BENCH json");
    eprintln!("[loadgen] wrote {}", cfg.out);

    if cfg.gate {
        let base = aggregate
            .iter()
            .find(|(s, _, _)| *s == 1)
            .map_or(0, |&(_, _, t)| t);
        let mut failed = false;
        for &(shards, _, thr) in &aggregate {
            if shards > 1 && thr * 1000 < base * cfg.gate_ratio_millis {
                eprintln!(
                    "[loadgen] GATE FAIL shards={shards}: aggregate throughput {thr} < \
                     {}/1000 x single-shard {base}",
                    cfg.gate_ratio_millis
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

struct Config {
    clients: usize,
    iters: usize,
    size: usize,
    seed: u64,
    shard_counts: Vec<usize>,
    out: String,
    gate: bool,
    gate_ratio_millis: u64,
    crash: bool,
}

impl Config {
    fn parse(args: impl Iterator<Item = String>) -> Result<Config, String> {
        const USAGE: &str = "usage: loadgen [--clients N] [--iters K] [--size S] [--seed SEED] \
                             [--shards LIST] [--out PATH] [--gate] [--gate-ratio-millis R] \
                             [--crash]";
        let mut cfg = Config {
            clients: 8,
            iters: 2,
            size: 200,
            seed: 42,
            shard_counts: vec![1, 4],
            out: "BENCH_loadgen.json".into(),
            gate: false,
            gate_ratio_millis: 750,
            crash: false,
        };
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            let need = |name: &str| format!("{name} needs a value\n{USAGE}");
            match args[i].as_str() {
                "--clients" => {
                    cfg.clients = args
                        .get(i + 1)
                        .ok_or_else(|| need("--clients"))?
                        .parse()
                        .map_err(|_| "--clients must be a positive integer".to_string())?;
                    i += 2;
                }
                "--iters" => {
                    cfg.iters = args
                        .get(i + 1)
                        .ok_or_else(|| need("--iters"))?
                        .parse()
                        .map_err(|_| "--iters must be a positive integer".to_string())?;
                    i += 2;
                }
                "--size" => {
                    cfg.size = args
                        .get(i + 1)
                        .ok_or_else(|| need("--size"))?
                        .parse()
                        .map_err(|_| "--size must be a positive integer".to_string())?;
                    i += 2;
                }
                "--seed" => {
                    cfg.seed = args
                        .get(i + 1)
                        .ok_or_else(|| need("--seed"))?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?;
                    i += 2;
                }
                "--shards" => {
                    cfg.shard_counts = args
                        .get(i + 1)
                        .ok_or_else(|| need("--shards"))?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n > 0)
                                .ok_or_else(|| {
                                    "--shards wants a comma list of positive integers".to_string()
                                })
                        })
                        .collect::<Result<_, _>>()?;
                    i += 2;
                }
                "--out" => {
                    cfg.out = args.get(i + 1).ok_or_else(|| need("--out"))?.clone();
                    i += 2;
                }
                "--gate" => {
                    cfg.gate = true;
                    i += 1;
                }
                "--crash" => {
                    cfg.crash = true;
                    i += 1;
                }
                "--gate-ratio-millis" => {
                    cfg.gate_ratio_millis = args
                        .get(i + 1)
                        .ok_or_else(|| need("--gate-ratio-millis"))?
                        .parse()
                        .map_err(|_| "--gate-ratio-millis must be an integer".to_string())?;
                    i += 2;
                }
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        if cfg.clients == 0 || cfg.iters == 0 || cfg.shard_counts.is_empty() {
            return Err(USAGE.into());
        }
        Ok(cfg)
    }
}

/// One measured (benchmark, shard-count) cell.
struct Cell {
    shards: usize,
    wall_micros: u64,
    calls: u64,
    interactions: u64,
    throughput: u64,
    latency: Histogram,
    p50: u64,
    p99: u64,
    server: Json,
    shard_calls: Vec<u64>,
    shard_sessions: Vec<u64>,
    shard_max_queue_depth: Vec<u64>,
    vm_compiles: u64,
    vm_cache_hits: u64,
    shard_compile_nanos: Vec<u64>,
    shard_exec_nanos: Vec<u64>,
}

impl Cell {
    fn into_json(self) -> Json {
        let lat = Json::object()
            .field("count", self.latency.count())
            .field("p50_micros", self.p50)
            .field("p99_micros", self.p99)
            .field("max_micros", self.latency.max().unwrap_or(0));
        Json::object()
            .field("shards", self.shards as u64)
            .field("wall_micros", self.wall_micros)
            .field("calls", self.calls)
            .field("interactions", self.interactions)
            .field("throughput_calls_per_sec", self.throughput)
            .field("latency", lat)
            .field(
                "shard_calls",
                self.shard_calls
                    .into_iter()
                    .map(Json::Uint)
                    .collect::<Vec<_>>(),
            )
            .field(
                "shard_sessions",
                self.shard_sessions
                    .into_iter()
                    .map(Json::Uint)
                    .collect::<Vec<_>>(),
            )
            .field(
                "shard_max_queue_depth",
                self.shard_max_queue_depth
                    .into_iter()
                    .map(Json::Uint)
                    .collect::<Vec<_>>(),
            )
            // Fragment-VM attribution: how much of the cell's wall time went
            // to one-off bytecode compilation vs fragment execution.
            .field(
                "vm",
                Json::object()
                    .field("compiles", self.vm_compiles)
                    .field("cache_hits", self.vm_cache_hits)
                    .field(
                        "shard_compile_nanos",
                        self.shard_compile_nanos
                            .into_iter()
                            .map(Json::Uint)
                            .collect::<Vec<_>>(),
                    )
                    .field(
                        "shard_exec_nanos",
                        self.shard_exec_nanos
                            .into_iter()
                            .map(Json::Uint)
                            .collect::<Vec<_>>(),
                    ),
            )
            .field("server", self.server)
    }
}

/// Serves `split.hidden` at `shards` shard executors and hammers it with
/// the configured client fleet. Every client byte-checks its output
/// against the unsplit reference; any mismatch aborts the harness.
fn run_cell(
    cfg: &Config,
    bench: &'static str,
    split: &hps_core::SplitResult,
    shards: usize,
    expected: &[String],
) -> Cell {
    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
        .expect("bind")
        .with_shards(shards);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));

    let started = Instant::now();
    let workers: Vec<_> = (0..cfg.clients)
        .map(|w| {
            let split = split.clone();
            let expected = expected.to_vec();
            let (size, seed, iters) = (cfg.size, cfg.seed, cfg.iters);
            std::thread::spawn(move || {
                run_client(bench, addr, w, &split, size, seed, iters, &expected)
            })
        })
        .collect();
    let mut latency = Histogram::new();
    let mut interactions = 0u64;
    for w in workers {
        let (hist, inter) = w.join().expect("client thread");
        latency.merge(&hist);
        interactions += inter;
    }
    let wall_micros = (started.elapsed().as_micros() as u64).max(1);

    handle.stop();
    serve.join().expect("serve thread").expect("serve ok");

    let stats = handle.stats();
    let shard_stats = handle.shard_stats();
    Cell {
        shards,
        wall_micros,
        calls: stats.calls,
        interactions,
        throughput: stats.calls * 1_000_000 / wall_micros,
        p50: latency.quantile(0.5).unwrap_or(0),
        p99: latency.quantile(0.99).unwrap_or(0),
        latency,
        server: handle.metrics().to_json(),
        shard_calls: shard_stats.iter().map(|s| s.calls).collect(),
        shard_sessions: shard_stats.iter().map(|s| s.sessions).collect(),
        shard_max_queue_depth: shard_stats.iter().map(|s| s.max_queue_depth).collect(),
        vm_compiles: stats.vm_compiles,
        vm_cache_hits: stats.vm_cache_hits,
        shard_compile_nanos: shard_stats.iter().map(|s| s.compile_nanos).collect(),
        shard_exec_nanos: shard_stats.iter().map(|s| s.exec_nanos).collect(),
    }
}

/// How often the crash drill's killer thread fells the next shard
/// executor. Respawn is ~1ms, so this duty cycle keeps the pool mostly
/// alive while guaranteeing every cell sees multiple kill/rebuild rounds.
const KILL_INTERVAL: Duration = Duration::from_millis(20);

/// Injected mid-fragment panic rate for the crash drill (per mille, per
/// sequenced unit). A trickle on top of the deliberate kills so the
/// catch_unwind + journal-rebuild path is exercised under load too.
const DRILL_PANIC_PER_MILLE: u32 = 3;

/// The availability drill (`--crash`). Serves every benchmark at the
/// sweep's highest shard count under a rolling shard-kill schedule and
/// writes `hps-loadgen-crash/v1` to `--out`. With `--gate`, exits 1
/// unless every cell reaches >= 99.0% availability with every shard
/// respawned at least once.
fn run_crash_suite(cfg: &Config, host_parallelism: u64) {
    let shards = cfg.shard_counts.iter().copied().max().unwrap_or(4);
    eprintln!(
        "[loadgen] crash drill: {} shards, kill interval {}ms, {}/1000 panic injection",
        shards,
        KILL_INTERVAL.as_millis(),
        DRILL_PANIC_PER_MILLE
    );
    let mut bench_docs = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    let (mut total_ok, mut total_failed) = (0u64, 0u64);
    for b in benchmarks() {
        let (program, split) = split_benchmark(&b);
        let expected = run_program(&program, &[b.workload(cfg.size, cfg.seed)])
            .expect("reference run")
            .output;
        let cell = run_crash_cell(cfg, b.name, &split, shards, &expected);
        eprintln!(
            "[loadgen] {:8} crash: {}/{} runs ok ({}.{}%), p99={}us, \
             restarts {:?}, {} panics caught, {} journal replays",
            b.name,
            cell.runs_ok,
            cell.runs_ok + cell.runs_failed,
            cell.availability_millis / 10,
            cell.availability_millis % 10,
            cell.p99,
            cell.shard_restarts,
            cell.panics_caught,
            cell.journal_replays
        );
        if cell.availability_millis < 990 {
            gate_failures.push(format!(
                "{}: availability {}/1000 < 990/1000",
                b.name, cell.availability_millis
            ));
        }
        if let Some(idle) = cell.shard_restarts.iter().position(|&r| r == 0) {
            gate_failures.push(format!("{}: shard {idle} was never respawned", b.name));
        }
        total_ok += cell.runs_ok;
        total_failed += cell.runs_failed;
        bench_docs.push(
            Json::object()
                .field("name", b.name)
                .field("paper_analog", b.paper_analog)
                .field("cell", cell.into_json()),
        );
    }

    let availability_millis = total_ok * 1000 / (total_ok + total_failed).max(1);
    eprintln!(
        "[loadgen] crash drill aggregate: {}/{} runs ok ({}.{}%)",
        total_ok,
        total_ok + total_failed,
        availability_millis / 10,
        availability_millis % 10
    );
    let doc = Json::object()
        .field("schema", "hps-loadgen-crash/v1")
        .field("clients", cfg.clients as u64)
        .field("iters", cfg.iters as u64)
        .field("workload_size", cfg.size as u64)
        .field("seed", cfg.seed)
        .field("host_parallelism", host_parallelism)
        .field("shards", shards as u64)
        .field("kill_interval_millis", KILL_INTERVAL.as_millis() as u64)
        .field("panic_per_mille", DRILL_PANIC_PER_MILLE as u64)
        .field("runs_ok", total_ok)
        .field("runs_failed", total_failed)
        .field("availability_millis", availability_millis)
        .field("benchmarks", bench_docs);
    std::fs::write(&cfg.out, doc.pretty()).expect("write BENCH json");
    eprintln!("[loadgen] wrote {}", cfg.out);

    if cfg.gate && !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("[loadgen] GATE FAIL {f}");
        }
        std::process::exit(1);
    }
}

/// One measured crash-drill cell: a benchmark under rolling shard kills.
struct CrashCell {
    shards: usize,
    wall_micros: u64,
    runs_ok: u64,
    runs_failed: u64,
    availability_millis: u64,
    calls: u64,
    interactions: u64,
    p50: u64,
    p99: u64,
    latency: Histogram,
    shard_restarts: Vec<u64>,
    panics_caught: u64,
    journal_replays: u64,
    replays: u64,
    server: Json,
}

impl CrashCell {
    fn into_json(self) -> Json {
        let lat = Json::object()
            .field("count", self.latency.count())
            .field("p50_micros", self.p50)
            .field("p99_micros", self.p99)
            .field("max_micros", self.latency.max().unwrap_or(0));
        Json::object()
            .field("shards", self.shards as u64)
            .field("wall_micros", self.wall_micros)
            .field("runs_ok", self.runs_ok)
            .field("runs_failed", self.runs_failed)
            .field("availability_millis", self.availability_millis)
            .field("calls", self.calls)
            .field("interactions", self.interactions)
            .field("latency", lat)
            .field(
                "shard_restarts",
                self.shard_restarts
                    .into_iter()
                    .map(Json::Uint)
                    .collect::<Vec<_>>(),
            )
            .field("panics_caught", self.panics_caught)
            .field("journal_replays", self.journal_replays)
            .field("replays", self.replays)
            .field("server", self.server)
    }
}

/// Serves one benchmark under the kill schedule and counts per-run
/// availability. After the client fleet drains, the killer keeps cycling
/// until every shard has been respawned at least once (bounded), so the
/// all-shards-restarted gate never races a fast benchmark.
fn run_crash_cell(
    cfg: &Config,
    bench: &'static str,
    split: &hps_core::SplitResult,
    shards: usize,
    expected: &[String],
) -> CrashCell {
    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
        .expect("bind")
        .with_shards(shards)
        .with_crash(CrashConfig {
            seed: cfg.seed,
            shard_kill_per_mille: 0,
            panic_per_mille: DRILL_PANIC_PER_MILLE,
        });
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));

    let stop_killer = Arc::new(AtomicBool::new(false));
    let killer = std::thread::spawn({
        let handle = handle.clone();
        let stop = Arc::clone(&stop_killer);
        move || {
            let mut next = 0usize;
            while !stop.load(Ordering::Acquire) {
                handle.kill_shard(next % shards);
                next += 1;
                std::thread::sleep(KILL_INTERVAL);
            }
        }
    });

    let started = Instant::now();
    let workers: Vec<_> = (0..cfg.clients)
        .map(|w| {
            let split = split.clone();
            let expected = expected.to_vec();
            let (size, seed, iters) = (cfg.size, cfg.seed, cfg.iters);
            std::thread::spawn(move || {
                run_crash_client(bench, addr, w, &split, size, seed, iters, &expected)
            })
        })
        .collect();
    let mut latency = Histogram::new();
    let (mut runs_ok, mut runs_failed, mut interactions) = (0u64, 0u64, 0u64);
    for w in workers {
        let (hist, ok, failed, inter) = w.join().expect("client thread");
        latency.merge(&hist);
        runs_ok += ok;
        runs_failed += failed;
        interactions += inter;
    }
    let wall_micros = (started.elapsed().as_micros() as u64).max(1);

    // Let the killer finish at least one full round before reading the
    // restart counters (bounded; respawn itself is ~1ms).
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.shard_stats().iter().any(|s| s.restarts == 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    stop_killer.store(true, Ordering::Release);
    killer.join().expect("killer thread");
    handle.stop();
    serve.join().expect("serve thread").expect("serve ok");

    let stats = handle.stats();
    CrashCell {
        shards,
        wall_micros,
        runs_ok,
        runs_failed,
        availability_millis: runs_ok * 1000 / (runs_ok + runs_failed).max(1),
        calls: stats.calls,
        interactions,
        p50: latency.quantile(0.5).unwrap_or(0),
        p99: latency.quantile(0.99).unwrap_or(0),
        latency,
        shard_restarts: handle.shard_stats().iter().map(|s| s.restarts).collect(),
        panics_caught: stats.panics_caught,
        journal_replays: stats.journal_replays,
        replays: stats.replays,
        server: handle.metrics().to_json(),
    }
}

/// One crash-drill client: each full open-program run either matches the
/// unsplit reference byte-for-byte (transparent failover) or counts as a
/// failed run. Output *divergence* still aborts: a wrong answer is a
/// correctness bug, not unavailability.
#[allow(clippy::too_many_arguments)]
fn run_crash_client(
    bench: &'static str,
    addr: SocketAddr,
    worker: usize,
    split: &hps_core::SplitResult,
    size: usize,
    seed: u64,
    iters: usize,
    expected: &[String],
) -> (Histogram, u64, u64, u64) {
    let policy = RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_jitter_seed(seed ^ worker as u64);
    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, worker as u64 + 1)
        .expect("connect");
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let mut timing = TimingChannel {
        inner: &mut chan,
        latency: Histogram::new(),
    };
    let (mut ok, mut failed) = (0u64, 0u64);
    for _ in 0..iters {
        let input = hps_suite::benchmark(bench)
            .expect("suite benchmark")
            .workload(size, seed);
        let outcome = {
            let mut interp =
                Interp::new(&split.open, ExecConfig::new()).with_channel(&mut timing, &meta);
            interp.run("main", &[input])
        };
        match outcome {
            Ok(outcome) => {
                assert_eq!(
                    outcome.output, expected,
                    "{bench}: split output diverged from the reference under crash drill"
                );
                ok += 1;
            }
            Err(err) => {
                eprintln!("[loadgen] {bench} worker {worker}: run failed: {err}");
                failed += 1;
            }
        }
    }
    let latency = timing.latency;
    let interactions = chan.interactions();
    // A shutdown refusal after a failed run is part of the same outage.
    let _ = chan.shutdown();
    (latency, ok, failed, interactions)
}

/// One client: a pinned-session reliable channel running the open program
/// `iters` times, returning its round-trip latency histogram and
/// interaction count.
#[allow(clippy::too_many_arguments)]
fn run_client(
    bench: &'static str,
    addr: SocketAddr,
    worker: usize,
    split: &hps_core::SplitResult,
    size: usize,
    seed: u64,
    iters: usize,
    expected: &[String],
) -> (Histogram, u64) {
    let policy = RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_jitter_seed(seed ^ worker as u64);
    // Pinned session ids 1..=clients spread round-robin over the shards.
    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, worker as u64 + 1)
        .expect("connect");
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let mut timing = TimingChannel {
        inner: &mut chan,
        latency: Histogram::new(),
    };
    for _ in 0..iters {
        // RtValue inputs are not Send; each client builds its own.
        let input = hps_suite::benchmark(bench)
            .expect("suite benchmark")
            .workload(size, seed);
        let outcome = {
            let mut interp =
                Interp::new(&split.open, ExecConfig::new()).with_channel(&mut timing, &meta);
            interp.run("main", &[input]).expect("split run")
        };
        assert_eq!(
            outcome.output, expected,
            "{bench}: split output diverged from the reference"
        );
    }
    let latency = timing.latency;
    let interactions = chan.interactions();
    chan.shutdown().expect("shutdown");
    (latency, interactions)
}

/// Channel adapter timing each round trip (wall clock, microseconds).
/// Wall-clock readings stay out of deterministic telemetry by design; a
/// bench binary is the exposition layer where they belong.
struct TimingChannel<'a> {
    inner: &'a mut TcpChannel,
    latency: Histogram,
}

impl Channel for TimingChannel<'_> {
    fn call(
        &mut self,
        component: hps_ir::ComponentId,
        key: u64,
        label: hps_ir::FragLabel,
        args: &[hps_ir::Value],
    ) -> Result<CallReply, RuntimeError> {
        let t = Instant::now();
        let reply = self.inner.call(component, key, label, args);
        self.latency.record(t.elapsed().as_micros() as u64);
        reply
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        let t = Instant::now();
        let replies = self.inner.call_batch(calls);
        self.latency.record(t.elapsed().as_micros() as u64);
        replies
    }

    fn release(&mut self, component: hps_ir::ComponentId, key: u64) -> Result<(), RuntimeError> {
        self.inner.release(component, key)
    }

    fn interactions(&self) -> u64 {
        self.inner.interactions()
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn transport_stats(&self) -> hps_runtime::TransportStats {
        self.inner.transport_stats()
    }
}
