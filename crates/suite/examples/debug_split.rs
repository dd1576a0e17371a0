//! Debug helper: split each selected function of a benchmark individually
//! and report which one breaks equivalence.

use hps_core::{select_functions, split_program, SplitPlan, SplitTarget};
use hps_runtime::{run_program, Executor};
use hps_security::{ranked_seeds_with, OriginalAnalysis, SeedRule};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "optkit".into());
    let b = hps_suite::benchmark(&name).expect("benchmark exists");
    let program = b.program().unwrap();
    let selected = select_functions(&program);
    println!(
        "selected: {:?}",
        selected
            .iter()
            .map(|&f| &program.func(f).name)
            .collect::<Vec<_>>()
    );
    let input = b.workload(600, 77);
    let original = run_program(&program, &[input.deep_clone()]).unwrap();
    let analysis = OriginalAnalysis::new(&program);
    for &func in &selected {
        let seed = match ranked_seeds_with(&analysis, func, SeedRule::CostRestricted).first() {
            Some(c) => c.seed,
            None => {
                println!("{}: no seed", program.func(func).name);
                continue;
            }
        };
        let plan = SplitPlan::from_targets(vec![SplitTarget::Function { func, seed }]);
        let split = split_program(&program, &plan).unwrap();
        let replay = Executor::new(&split.open, &split.hidden)
            .run(&[input.deep_clone()])
            .unwrap();
        let ok = replay.outcome.output == original.output;
        println!(
            "{} (seed {}): {}",
            program.func(func).name,
            program.func(func).local(seed).name,
            if ok {
                "ok".to_string()
            } else {
                format!(
                    "MISMATCH\n  orig: {:?}\n  got:  {:?}",
                    original.output, replay.outcome.output
                )
            }
        );
    }
}
