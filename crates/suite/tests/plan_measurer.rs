//! The plan measurer runs the original program once per plan. These tests
//! pin that its cached original changes nothing: every level of a budget
//! search measures exactly what a one-shot [`measure_split`] measures, and
//! a split whose output differs from the original's is still an error.
//! The planner's uncalibrated round-trip weight must also be the latency
//! the measurer charges.

use hps_audit::Planner;
use hps_core::{split_program, SplitPlan};
use hps_suite::{measure_split, plan_workload, PlanMeasurer};
use std::cell::Cell;

const BUDGET: f64 = 15.0;

#[test]
fn cached_original_measures_every_ladder_level_like_a_fresh_run() {
    for name in ["calcc", "figkit"] {
        let b = hps_suite::benchmark(name).expect("suite benchmark");
        let program = b.program().expect("parses");
        let input = plan_workload(&b);
        let measurer = PlanMeasurer::new(&program, vec![input.clone()]);
        let levels = Cell::new(0);
        let report = Planner::new(&program)
            .harden(true)
            .budget(BUDGET)
            .measure_with(|prog, split| {
                levels.set(levels.get() + 1);
                let cached = measurer.measure(split);
                assert_eq!(
                    cached,
                    measure_split(prog, split, &input),
                    "{name}: level {} measured differently",
                    levels.get()
                );
                cached
            })
            .plan()
            .expect("plans");
        assert!(
            report.downgrades > 0,
            "{name}: premise: the ladder descends"
        );
        assert_eq!(levels.get(), report.downgrades + 1, "{name}");
    }
}

#[test]
fn split_of_a_different_program_diverges() {
    let measured = hps_lang::parse(
        "fn f(x: int) -> int { var a: int = x * 3 + 1; return a; }
         fn main() { print(f(5)); }",
    )
    .unwrap();
    let other = hps_lang::parse(
        "fn f(x: int) -> int { var a: int = x * 3 + 2; return a; }
         fn main() { print(f(5)); }",
    )
    .unwrap();
    let measurer = PlanMeasurer::new(&measured, Vec::new());
    let own = split_program(&measured, &SplitPlan::single(&measured, "f", "a").unwrap()).unwrap();
    let foreign = split_program(&other, &SplitPlan::single(&other, "f", "a").unwrap()).unwrap();
    // First call caches the original; the later foreign split must still be
    // compared with it.
    measurer.measure(&own).expect("own split matches");
    let err = measurer.measure(&foreign).unwrap_err();
    assert!(err.contains("outputs diverged"), "{err}");
    measurer.measure(&own).expect("own split still matches");
}

#[test]
fn plan_model_round_trip_is_the_runtime_lan_round_trip() {
    // An uncalibrated prediction charges `rtt_units` per interaction; the
    // measurer charges the runtime's LAN round trip. One number, two crates.
    assert_eq!(
        hps_security::PlanCostModel::default().rtt_units,
        hps_runtime::COST_MODEL.lan_round_trip()
    );
}
