//! Property-based tests of the headline invariant: a split program's
//! observable behaviour equals the original's, on programs from the
//! workspace's one generator (`hps-gen`).
//!
//! The single-function properties split `f(x, y, b)` on every possible
//! seed: int, float and bool locals, `/` and `%`, counted loops with
//! `break` and `continue`, early returns, branches, array writes (the
//! case-(iii) leak shape) and prints reach every splitter path —
//! hidden-variable growth, region merging, whole-loop and clause
//! promotion, fetch/send synchronization and hidden-compute returns.
//!
//! The multi-function property splits generated programs with calls,
//! recursion, globals and a class on every scalar local of every function,
//! on each scalar global and on the class, with and without batching. The
//! planner property runs the plans `Planner` makes for them in process and
//! over fault-free TCP session servers of one and four shards.

use hiding_program_slices as hps;
use hps::audit::{PlanError, Planner};
use hps::ir::{FuncId, LocalId, Program};
use hps::runtime::tcp::TcpChannel;
use hps::runtime::wire::{Request, Response};
use hps::runtime::{
    run_program, Channel, ExecConfig, Executor, InProcessChannel, Interp, Outcome, PendingCall,
    RetryPolicy, RtValue, RuntimeError, SecureServer, SessionServer, SplitMeta, TraceChannel,
};
use hps::split::{split_program, SplitError, SplitPlan, SplitResult, SplitTarget};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// The function splits of `func`: one per scalar non-parameter local.
fn function_plans(program: &Program, func: FuncId) -> Vec<SplitPlan> {
    let f = program.func(func);
    (0..f.locals.len())
        .map(LocalId::new)
        .filter(|&l| !f.is_param(l) && f.local(l).ty.is_scalar())
        .map(|seed| SplitPlan::from_targets(vec![SplitTarget::Function { func, seed }]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn split_preserves_behaviour_for_every_seed(src in hps_gen::function(), x in -5i64..6, y in -5i64..6) {
        let program = hps::lang::parse(&src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
        let args = [RtValue::Int(x), RtValue::Int(y)];
        let original = run_program(&program, &args);
        let f = program.func_by_name("f").expect("exists");
        for plan in function_plans(&program, f) {
            let split = split_program(&program, &plan)
                .unwrap_or_else(|e| panic!("split failed for {:?}: {e}\n{src}", plan.targets));
            let replay = Executor::new(&split.open, &split.hidden).run(&args);
            prop_assert_eq!(
                original.as_ref().map(|o| &o.output),
                replay.as_ref().map(|r| &r.outcome.output),
                "{:?} changed behaviour\n{}",
                plan.targets,
                src
            );
        }
    }

    #[test]
    fn split_without_promotion_preserves_behaviour(src in hps_gen::function(), x in -5i64..6, y in -5i64..6) {
        let program = hps::lang::parse(&src).expect("parses");
        let args = [RtValue::Int(x), RtValue::Int(y)];
        let original = run_program(&program, &args);
        // One representative seed is enough here; the promotion-on variant
        // already sweeps all of them.
        let plan = SplitPlan::single(&program, "f", "v0").expect("exists").with_promotion(false);
        let split = split_program(&program, &plan).expect("splits");
        let replay = Executor::new(&split.open, &split.hidden).run(&args);
        prop_assert_eq!(
            original.as_ref().map(|o| &o.output),
            replay.as_ref().map(|r| &r.outcome.output),
            "\n{}",
            src
        );
    }

    #[test]
    fn security_analysis_is_total_on_generated_splits(src in hps_gen::function()) {
        // The Fig. 3 estimator must terminate and assign a complexity to
        // every leak on arbitrary structured programs (fixpoint safety).
        let program = hps::lang::parse(&src).expect("parses");
        for plan in function_plans(&program, program.func_by_name("f").expect("exists")) {
            let split = split_program(&program, &plan).expect("splits");
            let report = hps::security::analyze_split(&program, &split);
            prop_assert_eq!(report.total(), split.total_ilps(), "\n{}", src);
            // Every complexity is well-formed (degree within the cap; any
            // non-arbitrary class has exact inputs or varying, both fine).
            for c in report.iter() {
                prop_assert!(c.ac.degree <= hps::security::lattice::MAX_DEGREE);
            }
        }
    }
}

/// Every split of a generated program the splitter accepts: each scalar
/// non-parameter local of each function, each scalar global and the class.
fn plans(program: &Program) -> Vec<SplitPlan> {
    let mut plans: Vec<SplitPlan> = program
        .iter_funcs()
        .flat_map(|(func, _)| function_plans(program, func))
        .collect();
    for global in &program.globals {
        if global.ty.is_scalar() {
            plans.push(SplitPlan::global(program, &global.name).expect("exists"));
        }
    }
    plans.push(SplitPlan::class(program, "Cell").expect("exists"));
    plans
}

/// Generated programs with calls, recursion, globals and a class, split
/// every way: run in process, with and without batching, the output, or
/// the first error, equals the unsplit run's. Splits the splitter refuses
/// are skipped; enough must remain.
#[test]
fn split_preserves_behaviour_of_generated_programs() {
    let (mut compared, mut skipped) = (0, 0);
    TestRunner::new(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })
    .run(&hps_gen::program(), |src| {
        let program = hps::lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let original = run_program(&program, &[]);
        let original = original.as_ref().map(|o| &o.output);
        for plan in plans(&program) {
            let split = match split_program(&program, &plan) {
                Ok(split) => split,
                Err(SplitError::BadSeed(_) | SplitError::Unrealizable(_)) => {
                    skipped += 1;
                    continue;
                }
                Err(e) => panic!("{e}\n{plan:?}\n{src}"),
            };
            for batching in [false, true] {
                let replay = Executor::new(&split.open, &split.hidden)
                    .batching(batching)
                    .run(&[]);
                assert_eq!(
                    original,
                    replay.as_ref().map(|r| &r.outcome.output),
                    "batching {batching}, {:?}\n{src}",
                    plan.targets
                );
            }
            compared += 1;
        }
    });
    eprintln!("{compared} splits compared, {skipped} skipped");
    assert!(
        compared >= 600,
        "only {compared} splits compared ({skipped} skipped)"
    );
}

/// A run's output, or its first error as the hidden side words it: over
/// TCP a hidden-side error arrives as `remote: <message>`.
fn observed(run: Result<Outcome, RuntimeError>) -> Result<Vec<String>, String> {
    run.map(|o| o.output).map_err(|e| match e {
        RuntimeError::Channel(msg) => msg.strip_prefix("remote: ").unwrap_or(&msg).to_string(),
        e => e.to_string(),
    })
}

/// Runs `split`'s `main` over `channel`, recording the adversary trace
/// as bytes: each event's call and reply in their wire encoding, so float
/// values compare bit for bit, NaN included.
fn run_over(
    split: &SplitResult,
    meta: &SplitMeta,
    batching: bool,
    channel: &mut dyn Channel,
) -> (Result<Vec<String>, String>, Vec<u8>) {
    let mut trace = TraceChannel::new(channel);
    let run = Interp::new(&split.open, ExecConfig::new().with_batching(batching))
        .with_channel(&mut trace, meta)
        .run("main", &[]);
    let mut bytes = Vec::new();
    for e in trace.into_trace().events {
        let call = PendingCall {
            component: e.component,
            key: e.key,
            label: e.label,
            args: e.args,
        };
        bytes.extend(Request::SeqCall { seq: e.seq, call }.encode());
        let reply = Response::Reply {
            value: e.ret,
            server_cost: 0,
        };
        bytes.extend(reply.encode());
    }
    (observed(run), bytes)
}

/// The splits `Planner` makes of a generated program: its automatic
/// targets, then each scalar global and the class as explicit targets.
/// Plans it cannot make count as skipped.
fn planned_splits(program: &Program, skipped: &mut usize) -> Vec<(SplitPlan, SplitResult)> {
    let mut requests = vec![None];
    for global in &program.globals {
        if global.ty.is_scalar() {
            requests.push(Some(
                SplitPlan::global(program, &global.name).expect("exists"),
            ));
        }
    }
    requests.push(Some(SplitPlan::class(program, "Cell").expect("exists")));
    let mut splits = Vec::new();
    for targets in requests {
        let planner = match targets {
            Some(plan) => Planner::new(program).targets(plan),
            None => Planner::new(program),
        };
        match planner.plan() {
            Ok(report) => splits.push((report.plan, report.split)),
            Err(
                PlanError::NoTargets
                | PlanError::Split(SplitError::BadSeed(_) | SplitError::Unrealizable(_)),
            ) => *skipped += 1,
            Err(e) => panic!("{e}"),
        }
    }
    splits
}

/// Planner plans of generated programs, batched and unbatched, in process
/// and over fault-free TCP session servers of one and four shards: the
/// output, or the first error, equals the unsplit run's, and the adversary
/// trace is the same on all three transports.
#[test]
fn planner_splits_preserve_behaviour_on_every_transport() {
    let (mut compared, mut skipped) = (0, 0);
    TestRunner::new(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })
    .run(&hps_gen::program(), |src| {
        let program = hps::lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let original = observed(run_program(&program, &[]));
        for (plan, split) in planned_splits(&program, &mut skipped) {
            let meta = SplitMeta::derive(&split.open, &split.hidden);
            let servers: Vec<_> = [1, 4]
                .into_iter()
                .map(|shards| {
                    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                        .expect("bind")
                        .with_shards(shards);
                    let handle = server.handle().expect("handle");
                    (handle, std::thread::spawn(move || server.serve(|_, _| {})))
                })
                .collect();
            for batching in [false, true] {
                let mut local = InProcessChannel::new(SecureServer::new(split.hidden.clone()));
                let (output, trace) = run_over(&split, &meta, batching, &mut local);
                let cell = format!("batching {batching}, {:?}\n{src}", plan.targets);
                assert_eq!(original, output, "in process, {cell}");
                for (handle, _) in &servers {
                    let mut chan = TcpChannel::connect_reliable(handle.addr(), RetryPolicy::new())
                        .expect("connect");
                    let (tcp_output, tcp_trace) = run_over(&split, &meta, batching, &mut chan);
                    chan.shutdown().expect("shutdown");
                    let shards = handle.shard_stats().len();
                    assert_eq!(original, tcp_output, "{shards} shard(s), {cell}");
                    assert_eq!(trace, tcp_trace, "{shards} shard(s), {cell}");
                }
            }
            for (handle, serve) in servers {
                handle.stop();
                serve.join().expect("serve thread").expect("serve ok");
            }
            compared += 1;
        }
    });
    eprintln!("{compared} planner splits compared, {skipped} skipped");
    assert!(
        compared >= 200,
        "only {compared} planner splits compared ({skipped} skipped)"
    );
}
