//! Regenerates the paper's tables (§4) over the benchmark suite.
//!
//! ```text
//! cargo run --release -p hps-bench --bin tables            # all tables
//! cargo run --release -p hps-bench --bin tables -- table3  # one table
//! cargo run --release -p hps-bench --bin tables -- --quick # scaled-down
//! ```
//!
//! Subcommands: `table1 table2 table3 table4 table5 attack
//! ablation-promotion ablation-selection`.

use hps_bench::*;
use hps_core::{split_program, SplitPlan};
use hps_security::analyze_split;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = which.is_empty();
    let scale = if quick { 20 } else { 1 };

    let want = |name: &str| all || which.contains(&name);

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("table3") {
        table3();
    }
    if want("table4") {
        table4();
    }
    if want("table5") {
        table5(scale);
    }
    if want("attack") {
        attack(if quick { 8 } else { 24 }, if quick { 200 } else { 400 });
    }
    if want("ablation-promotion") {
        ablation_promotion();
    }
    if want("ablation-selection") {
        ablation_selection(scale);
    }
}

fn table1() {
    println!("Table 1. Opportunities for constructing hidden components from whole methods.");
    println!(
        "{:<10} {:<8} {:>8} {:>15} {:>20} {:>22}",
        "benchmark",
        "analog",
        "methods",
        "self-contained",
        "self-contained > 10",
        "excluding initializers"
    );
    for r in table1_rows() {
        println!(
            "{:<10} {:<8} {:>8} {:>15} {:>20} {:>22}",
            r.name, r.analog, r.methods, r.self_contained, r.large, r.non_init
        );
    }
    println!();
}

fn table2() {
    println!("Table 2. Split characteristics.");
    println!(
        "{:<10} {:<8} {:>15} {:>20} {:>6}",
        "benchmark", "analog", "methods sliced", "statements in slice", "ILPs"
    );
    for r in table2_rows() {
        println!(
            "{:<10} {:<8} {:>15} {:>20} {:>6}",
            r.name, r.analog, r.methods_sliced, r.slice_stmts, r.ilps
        );
    }
    println!();
}

fn table3() {
    println!("Table 3. Arithmetic complexity of ILPs.");
    println!(
        "{:<10} {:<8} {:>9} {:>7} {:>11} {:>9} {:>10} {:>8} {:>7}",
        "benchmark",
        "analog",
        "Constant",
        "Linear",
        "Polynomial",
        "Rational",
        "Arbitrary",
        "Inputs",
        "Degree"
    );
    for r in table3_rows() {
        let inputs = match r.max_inputs {
            Some(n) => n.to_string(),
            None => "varying".to_string(),
        };
        println!(
            "{:<10} {:<8} {:>9} {:>7} {:>11} {:>9} {:>10} {:>8} {:>7}",
            r.name,
            r.analog,
            r.counts[0],
            r.counts[1],
            r.counts[2],
            r.counts[3],
            r.counts[4],
            inputs,
            r.max_degree
        );
    }
    println!();
}

fn table4() {
    println!("Table 4. Control flow complexity of ILPs.");
    println!(
        "{:<10} {:<8} {:>17} {:>20} {:>14} {:>7}",
        "benchmark",
        "analog",
        "Paths = variable",
        "Predicates = hidden",
        "Flow = hidden",
        "(total)"
    );
    for r in table4_rows() {
        println!(
            "{:<10} {:<8} {:>17} {:>20} {:>14} {:>7}",
            r.name, r.analog, r.paths_variable, r.predicates_hidden, r.flow_hidden, r.total
        );
    }
    println!();
}

fn table5(scale: usize) {
    println!("Table 5. Runtime overhead caused by software splitting (virtual time, LAN RTT).");
    println!(
        "{:<10} {:<8} {:<12} {:>8} {:>13} {:>10} {:>12} {:>12} {:>12} {:>10} {:>17}",
        "benchmark",
        "analog",
        "input",
        "size",
        "interactions",
        "batched",
        "before",
        "after",
        "after-batch",
        "% increase",
        "open/rtt/server"
    );
    for r in table5_rows(scale) {
        // Telemetry-derived breakdown of the split run's critical path.
        let (open_pct, rtt_pct, server_pct) = r.breakdown_percent();
        println!(
            "{:<10} {:<8} {:<12} {:>8} {:>13} {:>10} {:>12} {:>12} {:>12} {:>9.0}% {:>7.0}%/{:.0}%/{:.0}%",
            r.name,
            r.analog,
            r.input,
            r.size,
            r.interactions,
            r.interactions_batched,
            fmt_seconds(r.before_s),
            fmt_seconds(r.after_s),
            fmt_seconds(r.batched_s),
            r.increase_percent(),
            open_pct,
            rtt_pct,
            server_pct
        );
    }
    println!();
}

fn attack(runs: usize, size: usize) {
    println!("Attack outcomes per defender-classified ILP type ({runs} observed runs).");
    println!(
        "{:<10} {:<11} {:>9} {:>10} {:>13}",
        "benchmark", "class", "recovered", "resistant", "insufficient"
    );
    for row in attack_rows(runs, size) {
        for (class, rec, res, ins) in &row.by_class {
            if rec + res + ins == 0 {
                continue;
            }
            println!(
                "{:<10} {:<11} {:>9} {:>10} {:>13}",
                row.name, class, rec, res, ins
            );
        }
    }
    println!();
}

fn ablation_promotion() {
    println!("Ablation: control-flow promotion (hidden-control counts and traffic).");
    println!(
        "{:<10} {:>18} {:>18} {:>14} {:>14}",
        "benchmark", "flow hidden (on)", "flow hidden (off)", "calls (on)", "calls (off)"
    );
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let mut plan = paper_plan(&program);
        let split_on = split_program(&program, &plan).expect("splits");
        let on = analyze_split(&program, &split_on);
        plan.promote_control = false;
        let split_off = split_program(&program, &plan).expect("splits");
        let off = analyze_split(&program, &split_off);
        let input = b.workload(400, 3);
        let calls_on = hps_runtime::Executor::new(&split_on.open, &split_on.hidden)
            .run(&[input.deep_clone()])
            .expect("runs")
            .interactions;
        let calls_off = hps_runtime::Executor::new(&split_off.open, &split_off.hidden)
            .run(&[input.deep_clone()])
            .expect("runs")
            .interactions;
        println!(
            "{:<10} {:>18} {:>18} {:>14} {:>14}",
            b.name,
            on.flow_hidden(),
            off.flow_hidden(),
            calls_on,
            calls_off
        );
    }
    println!();
}

fn ablation_selection(scale: usize) {
    println!("Ablation: call-graph-cut selection vs splitting every eligible function.");
    println!(
        "{:<10} {:>12} {:>12} {:>15} {:>15}",
        "benchmark", "cut targets", "all targets", "calls (cut)", "calls (all)"
    );
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let cut_plan = paper_plan(&program);
        // "Split everything eligible": every function with a usable seed.
        let analysis = hps_security::OriginalAnalysis::new(&program);
        let all_plan = SplitPlan::from_targets(
            program
                .iter_funcs()
                .filter_map(|(func, _)| {
                    let ranked = hps_security::ranked_seeds_with(
                        &analysis,
                        func,
                        hps_security::SeedRule::CostRestricted,
                    );
                    let seed = ranked.first()?.seed;
                    Some(hps_core::SplitTarget::Function { func, seed })
                })
                .collect(),
        );
        let size = (b.workloads()[0].1 / scale.max(1)).clamp(30, 2000);
        let split_cut = split_program(&program, &cut_plan).expect("splits");
        let split_all = split_program(&program, &all_plan).expect("splits");
        let calls_cut = hps_runtime::Executor::new(&split_cut.open, &split_cut.hidden)
            .run(&[b.workload(size, 3)])
            .expect("runs")
            .interactions;
        let calls_all = hps_runtime::Executor::new(&split_all.open, &split_all.hidden)
            .run(&[b.workload(size, 3)])
            .expect("runs")
            .interactions;
        println!(
            "{:<10} {:>12} {:>12} {:>15} {:>15}",
            b.name,
            cut_plan.targets.len(),
            all_plan.targets.len(),
            calls_cut,
            calls_all
        );
    }
    println!();
}
