//! End-to-end over the whole benchmark suite: automatic function selection
//! (call-graph cut), complexity-guided seed choice, splitting, and
//! original-vs-split equivalence — the full paper pipeline on every
//! program.

use hps_core::{select_functions, split_program, SplitPlan};
use hps_runtime::{run_program, Executor};
use hps_security::{analyze_split, default_targets, SeedRule};

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    assert!(
        !select_functions(program).is_empty(),
        "selection found nothing to split"
    );
    let plan = default_targets(program, SeedRule::CostRestricted);
    assert!(!plan.targets.is_empty(), "no seeds chosen");
    plan
}

#[test]
fn every_benchmark_splits_and_stays_equivalent() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        let split = split_program(&program, &plan)
            .unwrap_or_else(|e| panic!("{}: split failed: {e}", b.name));
        assert!(
            split.functions_sliced() >= 2,
            "{}: only {} functions sliced",
            b.name,
            split.functions_sliced()
        );
        assert!(
            split.total_ilps() >= 3,
            "{}: only {} ILPs",
            b.name,
            split.total_ilps()
        );
        // Arrays have reference semantics and the benchmarks mutate their
        // input, so each run gets its own deep copy.
        let input = b.workload(600, 77);
        let original = run_program(&program, &[input.deep_clone()])
            .unwrap_or_else(|e| panic!("{}: original failed: {e}", b.name));
        let replay = Executor::new(&split.open, &split.hidden)
            .run(&[input.deep_clone()])
            .unwrap_or_else(|e| panic!("{}: split run failed: {e}", b.name));
        assert_eq!(
            original.output, replay.outcome.output,
            "{}: split changed behaviour",
            b.name
        );
        assert!(
            replay.interactions > 0,
            "{}: split program never interacted",
            b.name
        );
    }
}

#[test]
fn security_analysis_covers_every_benchmark() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        let split = split_program(&program, &plan).expect("splits");
        let report = analyze_split(&program, &split);
        assert_eq!(
            report.total(),
            split.total_ilps(),
            "{}: analysis missed ILPs",
            b.name
        );
        let counts = report.counts_by_type();
        assert!(
            counts.iter().sum::<usize>() > 0,
            "{}: empty complexity table",
            b.name
        );
    }
}

#[test]
fn figkit_shows_polynomial_and_rational_ilps() {
    // The paper: "Since jfig contains many more arithmetic computations, it
    // does contain many polynomial and rational hidden computations."
    let b = hps_suite::benchmark("figkit").unwrap();
    let program = b.program().unwrap();
    let plan = paper_plan(&program);
    let split = split_program(&program, &plan).unwrap();
    let report = analyze_split(&program, &split);
    let counts = report.counts_by_type();
    // counts: [Constant, Linear, Polynomial, Rational, Arbitrary]
    assert!(
        counts[2] + counts[3] > 0,
        "figkit should produce polynomial/rational ILPs, got {counts:?}"
    );
}

#[test]
fn promotion_ablation_trades_traffic_for_hidden_control_flow() {
    // Ablation: disabling control promotion must (a) preserve behaviour
    // and (b) eliminate hidden control flow in the CC table — the security
    // property promotion buys. (Its traffic effect cuts both ways: whole
    // promoted loops need one call instead of one per iteration, but
    // clause promotions call their fragment unconditionally.)
    for name in ["calcc", "rulekit"] {
        let b = hps_suite::benchmark(name).unwrap();
        let program = b.program().unwrap();
        let mut plan = paper_plan(&program);
        let split = split_program(&program, &plan).unwrap();
        let with_promo = Executor::new(&split.open, &split.hidden)
            .run(&[b.workload(300, 5).deep_clone()])
            .unwrap();
        let report = analyze_split(&program, &split);
        plan.promote_control = false;
        let split_flat = split_program(&program, &plan).unwrap();
        let without = Executor::new(&split_flat.open, &split_flat.hidden)
            .run(&[b.workload(300, 5).deep_clone()])
            .unwrap();
        let report_flat = analyze_split(&program, &split_flat);
        assert_eq!(with_promo.outcome.output, without.outcome.output);
        assert_eq!(
            report_flat.flow_hidden(),
            0,
            "{name}: no promotion must mean no hidden flow"
        );
        assert!(
            report.flow_hidden() > 0,
            "{name}: promotion produced no hidden flow"
        );
    }
}
