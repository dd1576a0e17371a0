//! Trial splits equal whole-program splits.
//!
//! The planner ranks seeds and predicts their cost from a split of the one
//! function being tried (`split_function`), graded against analyses of the
//! original program built once (`OriginalAnalysis`). This test checks, for
//! every scalar non-parameter local of every selectable function of the
//! five suite programs and the shipped examples, that such a trial is the
//! whole-program split with that single target:
//!
//! * `split_function` fails exactly when `split_program` does, with the
//!   same error;
//! * its function, once deferral is marked with the *original* program's
//!   mod/ref summary, equals the split program's function, and its
//!   component and report equal the split's;
//! * the split program's mod/ref summary equals the original's, which is
//!   what lets a trial's deferral read the original's;
//! * seed rankings and every ladder contribution equal a reference
//!   computed the old way, through `split_program`.

use hps_analysis::ModRef;
use hps_core::{
    mark_deferrable_function, select_functions, split_function, split_program, SplitPlan,
    SplitResult, SplitTarget,
};
use hps_ir::{ComponentId, FuncId, LocalId, Program};
use hps_security::{
    analyze_split, in_loop_hidden_calls, predict, ranked_seeds_with, Ac, AcType, Inputs,
    OptimizeLadder, OriginalAnalysis, PlanCostModel, SeedCandidate, SeedRule,
};

/// Every program the planner is run on: the suite and the examples.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = hps_suite::benchmarks()
        .into_iter()
        .map(|b| {
            (
                b.name.to_string(),
                b.program().expect("suite program parses"),
            )
        })
        .collect();
    for (name, src) in [
        ("fee.ml", include_str!("../../../examples/fee.ml")),
        ("metering.ml", include_str!("../../../examples/metering.ml")),
        (
            "paper_fig2.ml",
            include_str!("../../../examples/paper_fig2.ml"),
        ),
    ] {
        out.push((
            name.to_string(),
            hps_lang::parse(src).expect("example parses"),
        ));
    }
    out
}

/// The candidate seeds of `func`: its scalar non-parameter locals.
fn candidates(program: &Program, func: FuncId) -> Vec<LocalId> {
    let f = program.func(func);
    (0..f.locals.len())
        .map(LocalId::new)
        .filter(|&l| !f.is_param(l) && f.local(l).ty.is_scalar())
        .collect()
}

fn whole_split(program: &Program, func: FuncId, seed: LocalId) -> Result<SplitResult, String> {
    let plan = SplitPlan::from_targets(vec![SplitTarget::Function { func, seed }]);
    split_program(program, &plan).map_err(|e| e.to_string())
}

/// `ranked_seeds_with` as it was computed before trial splits: one
/// whole-program split per candidate, graded by `analyze_split`.
fn reference_ranking(program: &Program, func: FuncId, rule: SeedRule) -> Vec<SeedCandidate> {
    let mut out = Vec::new();
    for seed in candidates(program, func) {
        let Ok(split) = whole_split(program, func, seed) else {
            continue;
        };
        if rule == SeedRule::CostRestricted && in_loop_hidden_calls(split.open.func(func)) > 0 {
            continue;
        }
        let report = &split.reports[0];
        if report.ilps.is_empty() && report.hidden_vars.is_empty() {
            continue;
        }
        let security = analyze_split(program, &split);
        let max_ac = security.max_ac().unwrap_or(Ac {
            ty: AcType::Constant,
            inputs: Inputs::none(),
            degree: 0,
        });
        out.push(SeedCandidate {
            seed,
            max_ac,
            n_ilps: security.total(),
        });
    }
    out.sort_by_key(|c| std::cmp::Reverse((c.max_ac.ty, c.max_ac.degree, c.n_ilps)));
    out
}

#[test]
fn trial_split_of_one_function_equals_the_whole_program_split() {
    let mut checked = 0;
    for (name, program) in programs() {
        let modref = ModRef::compute(&program);
        for func in select_functions(&program) {
            for seed in candidates(&program, func) {
                let f = program.func(func);
                let at = format!("{name}: {}.{}", f.name, f.local(seed).name);
                let whole = whole_split(&program, func, seed);
                let trial = split_function(&program, func, seed, true, ComponentId::new(0))
                    .map_err(|e| e.to_string());
                let (whole, mut trial) = match (whole, trial) {
                    (Ok(w), Ok(t)) => (w, t),
                    (Err(w), Err(t)) => {
                        assert_eq!(t, w, "{at}: different errors");
                        continue;
                    }
                    (w, t) => panic!("{at}: whole split {w:?} but trial {t:?}"),
                };
                mark_deferrable_function(&mut trial.func, &modref);
                assert_eq!(&trial.func, whole.open.func(func), "{at}: open function");
                assert_eq!(
                    trial.component, whole.hidden.components[0],
                    "{at}: component"
                );
                assert_eq!(trial.report, whole.reports[0], "{at}: report");
                assert_eq!(ModRef::compute(&whole.open), modref, "{at}: mod/ref");
                checked += 1;
            }
        }
    }
    assert!(checked > 0);
}

#[test]
fn rankings_and_contributions_match_whole_program_splits() {
    for (name, program) in programs() {
        let analysis = OriginalAnalysis::new(&program);
        let selected = select_functions(&program);
        for &func in &selected {
            for rule in [SeedRule::CostRestricted, SeedRule::MaxComplexity] {
                assert_eq!(
                    ranked_seeds_with(&analysis, func, rule),
                    reference_ranking(&program, func, rule),
                    "{name}: {} under {rule:?}",
                    program.func(func).name
                );
            }
        }

        let model = PlanCostModel::default();
        let mut ladder = OptimizeLadder::new(&program, SeedRule::CostRestricted, model.clone());
        let rule = ladder.outcome(None).rule;
        let expected: Vec<(FuncId, Vec<SeedCandidate>)> = selected
            .iter()
            .map(|&f| (f, reference_ranking(&program, f, rule)))
            .filter(|(_, c)| !c.is_empty())
            .collect();
        assert_eq!(
            ladder.ranked(),
            expected.as_slice(),
            "{name}: ladder ranking"
        );
        for (i, (func, cands)) in expected.iter().enumerate() {
            for (rank, c) in cands.iter().enumerate() {
                let split = whole_split(&program, *func, c.seed).expect("ranked seeds split");
                assert_eq!(
                    ladder.contribution(i, rank),
                    predict(&program, &split, &model, Some(1)).extra_units,
                    "{name}: contribution of {}.{}",
                    program.func(*func).name,
                    program.func(*func).local(c.seed).name
                );
            }
        }
    }
}
