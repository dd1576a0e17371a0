//! Golden outcomes of the open-side interpreter on the five benchmark
//! programs.
//!
//! Each benchmark runs at sizes 50 and 200 with three workload seeds,
//! three ways: unsplit through [`hps_runtime::run_program`], and split
//! with the paper's default targets through [`hps_runtime::Executor`]
//! with batching off and on. For every run the golden records a digest of
//! the printed output, the return value, the virtual `cost` and the
//! statement count `steps` (plus `interactions` for split runs). These
//! are the quantities the interpreter's hot path must leave untouched:
//! an optimisation that charges a cost at a different point, ticks a
//! different statement or reorders a side effect changes a line here.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! HPS_UPDATE_GOLDEN=1 cargo test -p hps-suite --test interp_golden
//! ```

use hps_core::split_program;
use hps_runtime::{run_program, Executor, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;

const SIZES: [usize; 2] = [50, 200];
const SEEDS: [u64; 3] = [1, 7, 42];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/interp")
        .join(format!("{name}.json"))
}

/// FNV-1a over the output lines, each terminated by `\n`.
fn output_digest(output: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in output {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn render_run(
    out: &mut String,
    size: usize,
    seed: u64,
    mode: &str,
    o: &Outcome,
    interactions: Option<u64>,
) {
    write!(
        out,
        "    {{\"size\": {size}, \"seed\": {seed}, \"mode\": \"{mode}\", \
         \"output_digest\": \"{:016x}\", \"output_lines\": {}, \"ret\": \"{}\", \
         \"cost\": {}, \"steps\": {}",
        output_digest(&o.output),
        o.output.len(),
        o.ret,
        o.cost,
        o.steps
    )
    .expect("write to string");
    if let Some(n) = interactions {
        write!(out, ", \"interactions\": {n}").expect("write to string");
    }
    out.push('}');
}

/// Every run of one benchmark, rendered as its golden document.
fn render(b: &hps_suite::Benchmark) -> String {
    let program = b.program().expect("parses");
    let plan = hps_security::default_targets(&program, hps_security::SeedRule::CostRestricted);
    let split = split_program(&program, &plan).expect("splits");
    let mut runs = Vec::new();
    for size in SIZES {
        for seed in SEEDS {
            // Programs may write their input array, so each run gets a
            // freshly generated one.
            let plain = run_program(&program, &[b.workload(size, seed)]).expect("unsplit run");
            let mut line = String::new();
            render_run(&mut line, size, seed, "unsplit", &plain, None);
            runs.push(line);
            for (mode, batching) in [("split", false), ("split-batched", true)] {
                let report = Executor::new(&split.open, &split.hidden)
                    .batching(batching)
                    .run(&[b.workload(size, seed)])
                    .expect("split run");
                assert_eq!(
                    report.outcome.output, plain.output,
                    "{} size {size} seed {seed}: {mode} output differs from unsplit",
                    b.name
                );
                let mut line = String::new();
                render_run(
                    &mut line,
                    size,
                    seed,
                    mode,
                    &report.outcome,
                    Some(report.interactions),
                );
                runs.push(line);
            }
        }
    }
    format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        b.name,
        runs.join(",\n")
    )
}

#[test]
fn interpreter_outcomes_match_goldens() {
    let update = std::env::var_os("HPS_UPDATE_GOLDEN").is_some();
    for b in hps_suite::benchmarks() {
        let rendered = render(&b);
        let path = golden_path(b.name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); regenerate with HPS_UPDATE_GOLDEN=1",
                b.name,
                path.display()
            )
        });
        assert_eq!(
            rendered,
            golden,
            "{}: interpreter outcomes drifted from {}; regenerate with \
             HPS_UPDATE_GOLDEN=1 if the change is intentional",
            b.name,
            path.display()
        );
    }
}
