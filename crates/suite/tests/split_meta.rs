//! Compile once per split: one `SplitMeta` holds the open program's
//! bytecode, and every `Interp` it is attached to runs that code instead
//! of compiling its own.
//!
//! For every benchmark's paper split, one meta serves 32 runs with
//! batching off and 32 with it on; each run's outcome (output, return
//! value, cost, steps) and interaction count equal a fresh `Executor`
//! run's. A meta derived from another open program never runs.

use hps_core::{split_program, SplitResult};
use hps_runtime::{
    Channel, ExecConfig, Executor, InProcessChannel, Interp, RuntimeError, SecureServer, SplitMeta,
};

const RUNS: u64 = 32;
/// The benchmark's input size; rulekit chains far deeper on small inputs.
const SIZE: usize = 200;

/// The split with the paper's default targets, as the interpreter goldens
/// run it.
fn paper_split(b: &hps_suite::Benchmark) -> SplitResult {
    let program = b.program().expect("parses");
    let plan = hps_security::default_targets(&program, hps_security::SeedRule::CostRestricted);
    split_program(&program, &plan).expect("splits")
}

#[test]
fn one_meta_serves_every_run_of_a_split() {
    for b in hps_suite::benchmarks() {
        let split = paper_split(&b);
        let meta = SplitMeta::derive(&split.open, &split.hidden);
        for batching in [false, true] {
            for seed in 0..RUNS {
                let fresh = Executor::new(&split.open, &split.hidden)
                    .batching(batching)
                    .run(&[b.workload(SIZE, seed)])
                    .expect("fresh run");
                let mut chan = InProcessChannel::new(SecureServer::new(split.hidden.clone()));
                let outcome = Interp::new(&split.open, ExecConfig::new().with_batching(batching))
                    .with_channel(&mut chan, &meta)
                    .run("main", &[b.workload(SIZE, seed)])
                    .expect("run on the shared meta");
                let context = format!("{} seed {seed} batching {batching}", b.name);
                assert_eq!(outcome, fresh.outcome, "{context}");
                assert_eq!(chan.interactions(), fresh.interactions, "{context}");
            }
        }
    }
}

#[test]
fn a_meta_from_another_program_never_runs() {
    let benches = hps_suite::benchmarks();
    let (a, b) = (paper_split(&benches[0]), paper_split(&benches[1]));
    let meta = SplitMeta::derive(&a.open, &a.hidden);
    for batching in [false, true] {
        let mut chan = InProcessChannel::new(SecureServer::new(b.hidden.clone()));
        let run = Interp::new(&b.open, ExecConfig::new().with_batching(batching))
            .with_channel(&mut chan, &meta)
            .run("main", &[benches[1].workload(SIZE, 1)]);
        assert_eq!(run, Err(RuntimeError::ForeignSplitMeta));
        assert_eq!(chan.interactions(), 0, "no code ran");
    }
    // An equal copy of the program is the same program.
    let copy = a.open.clone();
    let mut chan = InProcessChannel::new(SecureServer::new(a.hidden.clone()));
    let outcome = Interp::new(&copy, ExecConfig::new())
        .with_channel(&mut chan, &meta)
        .run("main", &[benches[0].workload(SIZE, 1)])
        .expect("runs on a copy");
    let fresh = Executor::new(&a.open, &a.hidden)
        .run(&[benches[0].workload(SIZE, 1)])
        .expect("fresh run");
    assert_eq!(outcome, fresh.outcome);
}
