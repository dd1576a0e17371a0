//! `benchmark` — the repository benchmark: split-program serving and
//! planning, timed end to end and per layer.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark --compare A B
//! ```
//!
//! One invocation runs one workload in its own process, byte-checks every
//! output against its reference, prints each metric as `name value unit`
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`, `--trace 1` its per-layer metrics. `--out` appends
//! the run as one JSON line to PATH; `--compare` reads two such files
//! (the parent's runs, then the change's) and gives a verdict for every
//! workload and end-to-end metric. README.md explains the workloads,
//! metrics and bounds.

mod compare;
mod json;
mod plan;
mod serve;
mod stats;

use json::Json;
use serve::SplitKind;
use std::io::Write as _;
use std::time::Duration;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("run_ms_p99", "ms"),
    ("call_us_p50", "us"),
    ("call_us_p99", "us"),
    ("interp.self_ms_per_run", "ms"),
    ("interp.share", "ratio"),
    ("channel.ms_per_run", "ms"),
    ("channel.interactions_per_run", "count"),
    ("channel.calls_per_run", "count"),
    ("shard.exec_us_per_call", "us"),
    ("shard.exec_share", "ratio"),
    ("tcp.us_per_interaction", "us"),
    ("wire.codec_ns_per_interaction", "ns"),
    ("shard.queue_depth_mean", "count"),
    ("shard.queue_depth_max", "count"),
    ("inproc.run_ms_p50", "ms"),
    ("unsplit.run_ms_p50", "ms"),
    ("vm.compile_ms", "ms"),
    ("vm.hit_ratio", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("transport.retries", "count"),
    ("transport.reconnects", "count"),
    ("server.replays", "count"),
    ("setup.split_ms", "ms"),
    ("setup.serve_ms", "ms"),
    ("setup.first_run_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("security.ladder_ms", "ms"),
    ("core.split_ms", "ms"),
    ("security.estimate_ms", "ms"),
    ("core.harden_ms", "ms"),
    ("audit.audit_ms", "ms"),
    ("suite.measure_ms", "ms"),
    ("planner.levels", "count"),
    ("planner.self_ms", "ms"),
    ("planner.measure_share", "ratio"),
    ("planner.stage_coverage", "ratio"),
];

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Serve(serve::Spec),
    Plan,
}

/// One workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-chatty",
        kind: Kind::Serve(serve::Spec {
            bench: "calcc",
            split: SplitKind::Paper,
            batching: false,
            clients: 1,
        }),
    },
    Workload {
        name: "serve-openbound",
        kind: Kind::Serve(serve::Spec {
            bench: "rulekit",
            split: SplitKind::Paper,
            batching: false,
            clients: 1,
        }),
    },
    Workload {
        name: "serve-shared",
        kind: Kind::Serve(serve::Spec {
            bench: "calcc",
            split: SplitKind::Paper,
            batching: true,
            clients: 2,
        }),
    },
    Workload {
        name: "plan-ladder",
        kind: Kind::Plan,
    },
];

/// How long each part of a run lasts.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub seed: u64,
    /// Unrecorded closed-loop work before the window, so caches fill.
    pub warmup: Duration,
    /// The measured window. A traced run measures it untraced, as an
    /// untraced run does, then half as long traced, so it can report the
    /// tracing overhead.
    pub window: Duration,
    /// Fresh set-ups whose median is `setup_s`: the first before the
    /// warm-up, the others spread over the untraced window.
    pub setups: usize,
    /// Fewest runs the untraced window of a traced serving run completes,
    /// so that `run_ms_p99` has ten samples beyond it.
    pub tail_runs: usize,
    pub trace: bool,
}

/// One metric value; `samples` is set for values read from a sample set.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Units of work (program runs or plan rotations) attempted in the
    /// measured window.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: None,
        });
    }

    pub fn put_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples: Some(samples),
        });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Output that differs from its reference: a correctness bug, not a
/// failed unit of work.
#[derive(Debug)]
pub struct Divergence(pub String);

/// Confines the calling thread, and every thread it spawns afterwards, to
/// the first CPU it may run on; returns that CPU.
///
/// On the 2-vCPU host the baseline was measured on, a loopback round trip
/// that wakes a thread on the other vCPU costs over twice as much, and
/// its cost swings: in alternating runs `serve-chatty`'s median run took
/// 5.3–7.3 ms unpinned and 2.6–3.0 ms with client, server and shard
/// threads on one CPU. So every workload runs on one CPU (README.md,
/// "Host").
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs, the size of glibc's cpu_set_t.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and the kernel writes at most that many bytes into it.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// What the serving layers of a traced `plan-ladder` run serve: the split
/// its first plan produces, calcc's, batched as the planner measured it.
const PLANNED: serve::Spec = serve::Spec {
    bench: plan::LADDER[0],
    split: SplitKind::Planned,
    batching: true,
    clients: 1,
};

/// Runs one workload and adds the process-wide metrics.
///
/// A traced run reports the layers of both pipelines, serving and
/// planning, on the workload's own program, since every per-layer metric
/// of `BENCHMARK.json` is printed on every workload: a serving workload
/// also plans the program it serves, and `plan-ladder` also serves the
/// split it plans for calcc. That second pipeline runs after the
/// workload's own measurements and only fills the layers the workload
/// does not reach, so it moves neither its end-to-end metrics nor its
/// tracing overhead.
pub fn run_workload(w: &Workload, s: &Settings) -> Result<Report, Divergence> {
    let mut report = match w.kind {
        Kind::Serve(spec) => serve::run(&spec, s)?,
        Kind::Plan => plan::run(s)?,
    };
    if s.trace {
        let other = match w.kind {
            Kind::Serve(spec) => plan::profile(spec.bench, s.window / 10)?,
            Kind::Plan => serve::run(
                &PLANNED,
                &Settings {
                    window: s.window / 4,
                    ..*s
                },
            )?,
        };
        report.attempted += other.attempted;
        report.failed += other.failed;
        for m in other.metrics {
            if report.get(m.name).is_none() {
                report.metrics.push(m);
            }
        }
    }
    report.put("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Peak resident set size of this process's own image (`VmHWM`), in MiB.
/// Not `getrusage`'s `ru_maxrss`: that survives `exec`, so under
/// `cargo run` it reports cargo's footprint.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Not measured off Linux.
#[cfg(not(target_os = "linux"))]
fn peak_rss_mb() -> f64 {
    0.0
}

/// The metric set a run reports: `(name, unit, value, samples)` in print
/// order.
fn selected(report: &Report, trace: bool) -> Vec<(&'static str, &'static str, f64, Option<usize>)> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let m = report
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, unit, m.value, m.samples)
        })
        .collect()
}

/// The `name value unit` lines of a run: its metrics, then `failed_frac`,
/// failed units of work over attempted ones. `failed_frac` is printed but
/// is no metric of `BENCHMARK.json`, whose metrics must never read 0; the
/// result line carries it as `failed` and `attempted`.
fn render_lines(report: &Report, trace: bool) -> Vec<String> {
    let mut lines: Vec<String> = selected(report, trace)
        .into_iter()
        .map(|(name, unit, value, samples)| match samples {
            Some(n) => format!("{name} {value} {unit} n={n}"),
            None => format!("{name} {value} {unit}"),
        })
        .collect();
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    lines.push(format!(
        "failed_frac {failed_frac} ratio n={}",
        report.attempted
    ));
    lines
}

fn metrics_json(report: &Report, trace: bool) -> Json {
    Json::Obj(
        selected(report, trace)
            .into_iter()
            .map(|(name, unit, value, _)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line of a run whose every output checked.
fn result_json(report: &Report, trace: bool) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), metrics_json(report, trace)),
    ])
}

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--out PATH]\n       benchmark --compare A B";

enum Command {
    Run {
        workload: Workload,
        settings: Settings,
        out: Option<String>,
    },
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err(USAGE.into()),
        };
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(Command::Run {
        workload,
        settings: Settings {
            seed,
            warmup: Duration::from_secs(2),
            window: Duration::from_secs_f64(seconds),
            setups: 15,
            tail_runs: 1000,
            trace,
        },
        out,
    })
}

fn host_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings, out) = match parse_args(&args) {
        Ok(Command::Run {
            workload,
            settings,
            out,
        }) => (workload, settings, out),
        Ok(Command::Compare(a, b)) => match compare::run(&a, &b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(msg) => {
                eprintln!("benchmark: {msg}");
                std::process::exit(2);
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let host_parallelism = host_parallelism();
    let cpu = pin_to_one_cpu();
    eprintln!(
        "[benchmark] workload={} seed={} window={:?} trace={} host_parallelism={} pinned_cpu={:?} \
         (loopback TCP)",
        workload.name, settings.seed, settings.window, settings.trace, host_parallelism, cpu
    );
    let report = match run_workload(&workload, &settings) {
        Ok(report) => report,
        Err(Divergence(msg)) => {
            eprintln!("[benchmark] OUTPUT DIVERGED: {msg}");
            println!(
                "{}",
                Json::Obj(vec![
                    ("correct".into(), Json::Bool(false)),
                    ("attempted".into(), Json::Num(1.0)),
                    ("failed".into(), Json::Num(1.0)),
                    ("metrics".into(), Json::Obj(Vec::new())),
                ])
                .render()
            );
            std::process::exit(1);
        }
    };
    let result = result_json(&report, settings.trace);
    if let Some(path) = out {
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.name.into())),
            ("seed".into(), Json::Num(settings.seed as f64)),
            ("trace".into(), Json::Bool(settings.trace)),
            ("seconds".into(), Json::Num(settings.window.as_secs_f64())),
            (
                "host_parallelism".into(),
                Json::Num(host_parallelism as f64),
            ),
            (
                "pinned_cpu".into(),
                cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("result".into(), result.clone()),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", record.render()));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {path}: {e}");
            std::process::exit(2);
        }
    }
    for line in render_lines(&report, settings.trace) {
        println!("{line}");
    }
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::CONTRACT;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .expect("key present")
            .as_array()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn code_and_contract_agree() {
        let doc = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_array();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, &(name, unit)) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{name}"
                );
            }
        }
    }

    /// Every workload, briefly, in both modes: all metrics of the contract
    /// are printed, `failed_frac` is printed and 0, and every output
    /// checks.
    #[test]
    fn quick_runs_print_every_contract_metric() {
        let doc = Json::parse(CONTRACT).expect("BENCHMARK.json parses");
        for w in &WORKLOADS {
            for trace in [false, true] {
                let settings = Settings {
                    seed: 3,
                    warmup: Duration::ZERO,
                    window: Duration::from_millis(300),
                    setups: 1,
                    tail_runs: 0,
                    trace,
                };
                let report =
                    run_workload(w, &settings).unwrap_or_else(|d| panic!("{}: {}", w.name, d.0));
                assert!(report.attempted > 0, "{}", w.name);
                let lines = render_lines(&report, trace);
                let value = |name: &str| {
                    lines.iter().find_map(|l| {
                        let mut fields = l.split(' ');
                        (fields.next() == Some(name)).then(|| fields.next().unwrap().to_string())
                    })
                };
                assert_eq!(
                    value("failed_frac").as_deref(),
                    Some("0"),
                    "{} trace={trace}: {lines:?}",
                    w.name
                );
                let key = if trace { "per_layer" } else { "end_to_end" };
                for name in names(&doc, key) {
                    assert!(
                        value(&name).is_some(),
                        "{} trace={trace}: {name} not printed in {lines:?}",
                        w.name
                    );
                }
                let result = result_json(&report, trace).render();
                assert_eq!(
                    Json::parse(&result).unwrap().get("failed"),
                    Some(&Json::Num(0.0))
                );
            }
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload plan-ladder --trace 2")).is_err());
        assert!(parse_args(&args("--workload plan-ladder --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
        assert!(parse_args(&args("--compare a")).is_err());
        assert!(matches!(
            parse_args(&args("--workload serve-shared --seed 9 --seconds 2 --trace 1")),
            Ok(Command::Run { settings, .. }) if settings.seed == 9 && settings.trace
        ));
    }
}
