//! `hps` — command-line front end for slice-based software splitting.
//!
//! ```text
//! hps run <file.ml> [--split] [--batch] [--metrics-json] [selection] [ints...]
//!                                             run a MiniLang program; --split runs
//!                                             the open/hidden pair, --metrics-json
//!                                             emits the hps-telemetry/v1 snapshot
//! hps split <file.ml> [--func f --var a | --auto | --global g | --class C]
//!           [--budget PCT[%]] [--harden] [--json] [--args ints...]
//!                                             print Of, Hf and the split report;
//!                                             with --budget/--harden/--json/--args,
//!                                             run the budget-aware planner instead
//!                                             and print its plan report
//! hps analyze <file.ml> [selection flags]     ILP complexity report (§3)
//! hps audit <file.ml> [selection] [--json|--sarif]
//!                                             split-soundness audit (non-zero exit on deny)
//! hps serve <file.ml> <addr> [selection] [--shards N] [--chaos SEED]
//!                            [--metrics ADDR] [--journal-dir DIR]
//!                                             host the hidden component on TCP;
//!                                             --shards spreads sessions over N
//!                                             lock-guarded shards, --metrics serves
//!                                             Prometheus text format, --journal-dir
//!                                             persists session journals so hidden
//!                                             state survives a server restart
//! hps client <file.ml> <addr> [selection] [--batch] [--timeout MS] [ints...]
//!                                             run the open component against a server
//! hps tables [--quick]                        shortcut to the experiment harness
//! ```
//!
//! `serve` and `client` must be given the same program and selection flags:
//! both sides derive the split deterministically and the client keeps only
//! the open half in memory.

use hiding_program_slices as hps;
use hps::runtime::tcp::{ChaosConfig, RetryPolicy, SessionServer, SessionServerHandle, TcpChannel};
use hps::runtime::{ExecConfig, Executor, Interp, MetricsRecorder, RtValue, SplitMeta, COST_MODEL};
use hps::split::{split_program, SplitPlan, SplitResult};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hps: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "run" => cmd_run(&args[1..]),
        "split" => cmd_split(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `hps help`")),
    }
}

const HELP: &str = "\
hps — slicing-based software splitting (CGO 2003 reproduction)

USAGE:
  hps run <file.ml> [--split] [--batch] [--metrics-json] [selection flags] [ints...]
  hps split <file.ml> [--func NAME --var NAME | --auto | --global NAME | --class NAME]
            [--budget PCT[%]] [--harden] [--json] [--args ints...]
  hps analyze <file.ml> [selection flags]
  hps audit <file.ml> [selection flags] [--json | --sarif]
  hps serve <file.ml> <addr> [selection flags] [--shards N] [--chaos SEED]
                             [--metrics ADDR] [--journal-dir DIR]
  hps client <file.ml> <addr> [selection flags] [--batch] [--timeout MS] [--args ints...]

Selection flags default to --auto: call-graph-cut function selection with
complexity-guided, cost-restricted seed choice (the paper's pipeline).
`audit` re-derives the split, proves every hidden-value flow into the open
component passes a declared ILP, lints for weak leaks and exits non-zero
on any deny-level finding; --json / --sarif select machine-readable output.
--batch coalesces deferrable hidden calls into batched round trips.
`client` always opens a fault-tolerant session (timeouts, reconnect with
backoff, exactly-once replay); --timeout MS puts a hard per-call deadline
on every hidden round trip; --chaos SEED makes the server
deterministically kill connections mid-call to exercise it.
`serve --journal-dir DIR` journals every committed hidden call to
checksummed per-session files so sessions rebuild their hidden state
after a shard crash or a full server restart (`hps_server_*` recovery
counters record the replays).
`split --budget PCT --harden` runs the budget-aware planner: automatic
seed search under the overhead budget, decoy-based wire-masking of weak
(Constant/Linear) leaks, measured-vs-predicted cost report; --json emits
the deterministic hps-plan/v2 document, --args supplies the integer entry
arguments used for measurement (any of these flags selects planner mode).
`run --split` executes the open/hidden pair in-process; `--metrics-json`
(implies --split) prints the deterministic hps-telemetry/v1 snapshot to
stdout, with program output diverted to stderr. `serve --shards N` spreads
sessions over N lock-guarded shards (session_id % N) for multi-core
throughput; `serve --metrics ADDR` exposes the live server counters and
the shard queue-depth histogram in Prometheus text format over HTTP.
Hidden fragments execute on a bytecode VM, compiled once when the server
installs the hidden program.
";

fn load(path: &str) -> Result<hps::ir::Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    hps::lang::parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn int_args(args: &[String]) -> Result<Vec<RtValue>, String> {
    args.iter()
        .map(|a| {
            a.parse::<i64>()
                .map(RtValue::Int)
                .map_err(|_| format!("entry arguments must be integers, got `{a}`"))
        })
        .collect()
}

fn parse_selection(program: &hps::ir::Program, args: &[String]) -> Result<SplitPlan, String> {
    let mut func = None;
    let mut var = None;
    let mut global = None;
    let mut class = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--func" => {
                func = Some(args.get(i + 1).ok_or("--func needs a name")?.clone());
                i += 2;
            }
            "--var" => {
                var = Some(args.get(i + 1).ok_or("--var needs a name")?.clone());
                i += 2;
            }
            "--global" => {
                global = Some(args.get(i + 1).ok_or("--global needs a name")?.clone());
                i += 2;
            }
            "--class" => {
                class = Some(args.get(i + 1).ok_or("--class needs a name")?.clone());
                i += 2;
            }
            "--auto" => i += 1,
            other => return Err(format!("unknown selection flag `{other}`")),
        }
    }
    if let Some(g) = global {
        return SplitPlan::global(program, &g).map_err(|e| e.to_string());
    }
    if let Some(c) = class {
        return SplitPlan::class(program, &c).map_err(|e| e.to_string());
    }
    match (func, var) {
        (Some(f), Some(v)) => SplitPlan::single(program, &f, &v).map_err(|e| e.to_string()),
        (Some(_), None) | (None, Some(_)) => Err("--func and --var must be given together".into()),
        (None, None) => {
            let mut plan =
                hps::security::default_targets(program, hps::security::SeedRule::CostRestricted);
            if plan.targets.is_empty() {
                // No cost-free split exists; fall back to the unrestricted
                // §4 rule and tell the user the traffic implications.
                plan =
                    hps::security::default_targets(program, hps::security::SeedRule::MaxComplexity);
                if !plan.targets.is_empty() {
                    eprintln!(
                        "[hps] note: no split avoids per-iteration traffic; \
falling back to the max-complexity seed rule"
                    );
                }
            }
            if plan.targets.is_empty() {
                return Err("automatic selection found nothing to split".into());
            }
            Ok(plan)
        }
    }
}

fn do_split(program: &hps::ir::Program, flags: &[String]) -> Result<SplitResult, String> {
    let plan = parse_selection(program, flags)?;
    split_program(program, &plan).map_err(|e| e.to_string())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: hps run <file.ml> [--split] [--batch] [--metrics-json] [selection flags] [ints...]";
    let path = args.first().ok_or(USAGE)?;
    let rest = &args[1..];
    let mut split_mode = false;
    let mut batch = false;
    let mut metrics_json = false;
    let mut selection = Vec::new();
    let mut ints = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--split" => {
                split_mode = true;
                i += 1;
            }
            "--batch" => {
                batch = true;
                i += 1;
            }
            "--metrics-json" => {
                metrics_json = true;
                split_mode = true;
                i += 1;
            }
            flag @ ("--func" | "--var" | "--global" | "--class") => {
                selection.push(rest[i].clone());
                selection.push(
                    rest.get(i + 1)
                        .ok_or_else(|| format!("{flag} needs a name"))?
                        .clone(),
                );
                i += 2;
            }
            "--auto" => {
                selection.push(rest[i].clone());
                i += 1;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`; {USAGE}"));
            }
            _ => {
                ints.push(rest[i].clone());
                i += 1;
            }
        }
    }
    let program = load(path)?;
    let entry_args = int_args(&ints)?;
    if !split_mode {
        if !selection.is_empty() || batch {
            return Err("selection flags and --batch require --split".into());
        }
        let out = hps::runtime::run_program(&program, &entry_args).map_err(|e| e.to_string())?;
        for line in &out.output {
            println!("{line}");
        }
        eprintln!(
            "[hps] {} steps, {:.4} virtual seconds",
            out.steps,
            COST_MODEL.to_seconds(out.cost)
        );
        return Ok(());
    }
    let split = do_split(&program, &selection)?;
    let report = Executor::new(&split.open, &split.hidden)
        .batching(batch)
        .recorder(MetricsRecorder::new())
        .run(&entry_args)
        .map_err(|e| e.to_string())?;
    if metrics_json {
        // The snapshot is the machine-readable product: keep stdout clean
        // for it and divert the program's own output to stderr.
        for line in &report.outcome.output {
            eprintln!("{line}");
        }
        print!("{}", report.snapshot().to_json_string());
    } else {
        for line in &report.outcome.output {
            println!("{line}");
        }
        eprintln!(
            "[hps] {} steps, {:.4} virtual seconds, {} open<->hidden interactions",
            report.outcome.steps,
            COST_MODEL.to_seconds(report.outcome.cost),
            report.interactions
        );
    }
    Ok(())
}

fn cmd_split(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: hps split <file.ml> [selection flags] [--budget PCT[%]] \
[--harden] [--json] [--args ints...]";
    let path = args.first().ok_or(USAGE)?;
    let rest = &args[1..];
    let mut budget: Option<f64> = None;
    let mut harden = false;
    let mut json = false;
    let mut selection: Vec<String> = Vec::new();
    let mut ints: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--budget" => {
                let v = rest.get(i + 1).ok_or("--budget needs a percentage")?;
                budget = Some(
                    v.trim_end_matches('%')
                        .parse::<f64>()
                        .ok()
                        .filter(|pct| pct.is_finite() && *pct >= 0.0)
                        .ok_or_else(|| format!("bad budget `{v}`"))?,
                );
                i += 2;
            }
            "--harden" => {
                harden = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--args" => {
                ints.extend(rest[i + 1..].iter().cloned());
                break;
            }
            flag @ ("--func" | "--var" | "--global" | "--class") => {
                selection.push(rest[i].clone());
                selection.push(
                    rest.get(i + 1)
                        .ok_or_else(|| format!("{flag} needs a name"))?
                        .clone(),
                );
                i += 2;
            }
            "--auto" => {
                selection.push(rest[i].clone());
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`; {USAGE}")),
        }
    }
    let program = load(path)?;
    // --args only matters to the planner's measurer, so it selects planner
    // mode too — the legacy dump would silently ignore it.
    if budget.is_none() && !harden && !json && ints.is_empty() {
        // Legacy mode: dump the split itself.
        let split = do_split(&program, &selection)?;
        println!("==== open program (Of) ====");
        print!("{}", hps::ir::pretty::program_to_string(&split.open));
        println!("==== hidden program (Hf) ====");
        print!("{}", split.hidden.summary());
        println!("==== report ====");
        for r in &split.reports {
            println!(
                "fn {}: {} hidden vars ({} fully), {} slice stmts, {} ILPs",
                split.open.func(r.func).name,
                r.hidden_vars.len(),
                r.hidden_vars.iter().filter(|(_, f)| *f).count(),
                r.slice_stmts,
                r.ilps.len()
            );
        }
        return Ok(());
    }

    // Planner mode: budget-aware split with optional auto-hardening; the
    // measurer runs original vs. batched split on the given entry args.
    let entry_args = int_args(&ints)?;
    let mut planner = hps::audit::Planner::new(&program).harden(harden);
    if selection.iter().any(|s| s != "--auto") {
        planner = planner.targets(parse_selection(&program, &selection)?);
    }
    if let Some(b) = budget {
        planner = planner.budget(b);
    }
    let measurer = hps::suite::PlanMeasurer::new(&program, entry_args);
    planner = planner.measure_with(move |_, split| measurer.measure(split));
    let report = planner.plan().map_err(|e| e.to_string())?;
    if json {
        println!("{}", hps::audit::plan_to_json(&report).pretty());
    } else {
        print!("{}", hps::audit::render_plan(&report));
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: hps analyze <file.ml> [flags]")?;
    let program = load(path)?;
    let split = do_split(&program, &args[1..])?;
    let report = hps::security::analyze_split(&program, &split);
    println!(
        "{:<26} {:<14} {:>8} {:>7}  CC",
        "function", "AC type", "inputs", "degree"
    );
    for (func, complexities) in &report.per_func {
        let name = &split.open.func(*func).name;
        for c in complexities {
            let inputs = match c.ac.inputs.count() {
                Some(n) => n.to_string(),
                None => "varying".into(),
            };
            println!(
                "{:<26} {:<14} {:>8} {:>7}  {}",
                name,
                c.ac.ty.to_string(),
                inputs,
                c.ac.degree,
                c.cc
            );
        }
    }
    let counts = report.counts_by_type();
    println!(
        "\ntotals: {} ILPs — Constant {}, Linear {}, Polynomial {}, Rational {}, Arbitrary {}",
        report.total(),
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        counts[4]
    );
    Ok(())
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("usage: hps audit <file.ml> [flags] [--json | --sarif]")?;
    let rest = &args[1..];
    let json = rest.iter().any(|a| a == "--json");
    let sarif = rest.iter().any(|a| a == "--sarif");
    let flags: Vec<String> = rest
        .iter()
        .filter(|a| *a != "--json" && *a != "--sarif")
        .cloned()
        .collect();
    let program = load(path)?;
    let split = do_split(&program, &flags)?;
    let report = hps::audit::audit_split(&program, &split);
    if sarif {
        print!("{}", hps::audit::render::to_sarif(&report, path).pretty());
    } else if json {
        print!("{}", hps::audit::render::to_json(&report, path).pretty());
    } else {
        print!("{}", hps::audit::render::render_pretty(&report, path));
    }
    if report.has_deny() {
        return Err(format!(
            "audit found {} deny-level finding(s)",
            report.count(hps::audit::Severity::Deny)
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: hps serve <file.ml> <addr> [flags] [--shards N] \
                         [--chaos SEED] [--metrics ADDR] [--journal-dir DIR]";
    let path = args.first().ok_or(USAGE)?;
    let addr = args.get(1).ok_or(USAGE)?;
    let rest = &args[2..];
    let mut chaos = None;
    let mut metrics_addr = None;
    let mut journal_dir = None;
    let mut shards = 1usize;
    let mut flags = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == "--chaos" {
            let seed = rest
                .get(i + 1)
                .ok_or("--chaos needs a seed")?
                .parse::<u64>()
                .map_err(|_| "--chaos seed must be an integer".to_string())?;
            chaos = Some(ChaosConfig {
                seed,
                per_mille: 100,
            });
            i += 2;
        } else if rest[i] == "--metrics" {
            metrics_addr = Some(rest.get(i + 1).ok_or("--metrics needs an address")?.clone());
            i += 2;
        } else if rest[i] == "--journal-dir" {
            journal_dir = Some(
                rest.get(i + 1)
                    .ok_or("--journal-dir needs a directory")?
                    .clone(),
            );
            i += 2;
        } else if rest[i] == "--shards" {
            shards = rest
                .get(i + 1)
                .ok_or("--shards needs a count")?
                .parse::<usize>()
                .map_err(|_| "--shards must be a positive integer".to_string())?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            i += 2;
        } else {
            flags.push(rest[i].clone());
            i += 1;
        }
    }
    let program = load(path)?;
    let split = do_split(&program, &flags)?;
    let mut server = SessionServer::bind(addr.as_str(), split.hidden.clone())
        .map_err(|e| e.to_string())?
        .with_shards(shards);
    if let Some(dir) = journal_dir {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create journal dir {dir}: {e}"))?;
        eprintln!("[hps] journaling sessions to {dir} (survives restart)");
        server = server.with_journal_dir(dir);
    }
    if let Some(c) = chaos {
        eprintln!(
            "[hps] chaos mode: faulting ~10% of frames with dropped requests and dropped, torn or late replies (seed {})",
            c.seed
        );
        server = server.with_chaos(c);
    }
    if let Some(maddr) = metrics_addr {
        let bound = spawn_metrics_endpoint(&maddr, server.handle().map_err(|e| e.to_string())?)?;
        eprintln!("[hps] metrics (Prometheus text format) on http://{bound}/metrics");
    }
    eprintln!(
        "[hps] serving {} hidden component(s) on {} ({} shard{}; multi-client sessions; ctrl-c to stop)",
        split.hidden.components.len(),
        server.local_addr().map_err(|e| e.to_string())?,
        shards,
        if shards == 1 { "" } else { "s" }
    );
    server
        .serve(|peer, event| eprintln!("[hps] {peer}: {event}"))
        .map_err(|e| e.to_string())
}

/// How long the metrics endpoint waits on one scrape's socket, each way.
/// It serves one connection at a time, so this bounds how long an idle or
/// stalled client holds back the next scrape.
const METRICS_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Serves the session server's live counters as Prometheus text format
/// (content-type `text/plain; version=0.0.4`) over a minimal HTTP/1.0
/// responder. Every request gets the full exposition regardless of path —
/// the registry is tiny and scrapes are idempotent reads of atomics. Each
/// connection is served on a thread of its own, which its I/O timeouts
/// end, so a client that sends nothing holds back no other scrape.
fn spawn_metrics_endpoint(addr: &str, handle: SessionServerHandle) -> Result<SocketAddr, String> {
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let handle = handle.clone();
            std::thread::spawn(move || {
                let _ = stream.set_read_timeout(Some(METRICS_IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(METRICS_IO_TIMEOUT));
                // Drain (best effort) the request head; we answer any request.
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = handle.metrics().to_prometheus();
                let response = format!(
                    "HTTP/1.0 200 OK\r\n\
                     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(response.as_bytes());
            });
        }
    });
    Ok(bound)
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: hps client <file.ml> <addr> [flags] [--batch] [--timeout MS] [--args ints]";
    let path = args.first().ok_or(USAGE)?;
    let addr = args.get(1).ok_or(USAGE)?;
    let rest = &args[2..];
    let (flags, entry): (&[String], &[String]) = match rest.iter().position(|a| a == "--args") {
        Some(i) => (&rest[..i], &rest[i + 1..]),
        None => (rest, &[]),
    };
    let batch = flags.iter().any(|a| a == "--batch");
    let mut timeout_ms = None;
    let mut selection = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        if flags[i] == "--timeout" {
            let ms = flags
                .get(i + 1)
                .ok_or("--timeout needs a millisecond count")?
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms > 0)
                .ok_or("--timeout must be a positive integer (milliseconds)")?;
            timeout_ms = Some(ms);
            i += 2;
        } else {
            if flags[i] != "--batch" {
                selection.push(flags[i].clone());
            }
            i += 1;
        }
    }
    let program = load(path)?;
    let split = do_split(&program, &selection)?;
    let entry_args = int_args(entry)?;
    let policy = RetryPolicy::new().with_call_deadline(timeout_ms.map(Duration::from_millis));
    let mut channel =
        TcpChannel::connect_reliable(addr.as_str(), policy).map_err(|e| e.to_string())?;
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let outcome = {
        let mut interp = Interp::new(&split.open, ExecConfig::new().with_batching(batch))
            .with_channel(&mut channel, &meta);
        interp.run("main", &entry_args).map_err(|e| e.to_string())?
    };
    for line in &outcome.output {
        println!("{line}");
    }
    let interactions = hps::runtime::Channel::interactions(&channel);
    let stats = hps::runtime::Channel::transport_stats(&channel);
    channel.shutdown().map_err(|e| e.to_string())?;
    eprintln!("[hps] {interactions} open<->hidden interactions");
    eprintln!(
        "[hps] transport: {} retries, {} reconnects, {} faults",
        stats.retries, stats.reconnects, stats.faults
    );
    Ok(())
}
