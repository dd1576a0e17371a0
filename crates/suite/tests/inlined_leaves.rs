//! The open program's small scalar leaves run inlined in their callers'
//! bytecode, every call that needs a frame of its own keeps it, and the
//! hot loops' `Int` arithmetic and comparisons run in specialised forms.
//!
//! Compiles the paper splits of rulekit and calcc. Rulekit's hottest
//! loop, `match_rules`, must not call `slot_match`, `value_score` or
//! `salience` any more; calls to methods (an object receiver) and to split
//! functions (which open an activation) must stay calls everywhere. No
//! `Int` arithmetic, accumulate or compare-and-branch instruction of
//! `match_rules` or of calcc's hottest loop, `const_pool`, may fall back
//! to its generic form.

use hps_analysis::callgraph::CallGraph;
use hps_core::{split_program, SplitResult};
use hps_runtime::SplitMeta;

/// The split with the paper's default targets, as the benchmarks run it.
fn paper_split(name: &str) -> SplitResult {
    let program = hps_suite::benchmark(name)
        .expect("a suite benchmark")
        .program()
        .expect("parses");
    let plan = hps_security::default_targets(&program, hps_security::SeedRule::CostRestricted);
    split_program(&program, &plan).expect("splits")
}

#[test]
fn match_rules_runs_its_scalar_helpers_inline() {
    let split = paper_split("rulekit");
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let calls = meta.framed_callees("match_rules").expect("compiles");
    for leaf in ["slot_match", "value_score", "salience"] {
        assert!(!calls.contains(&leaf), "{leaf} is still called: {calls:?}");
    }
    // `agenda.reset()` and `agenda.offer(..)` take an object receiver.
    assert_eq!(calls, ["reset", "offer"]);
}

#[test]
fn methods_and_split_functions_keep_their_frames() {
    for name in ["rulekit", "calcc"] {
        let split = paper_split(name);
        let open = &split.open;
        let meta = SplitMeta::derive(open, &split.hidden);
        let graph = CallGraph::build(open);
        let mut split_calls = 0;
        for (i, caller) in open.functions.iter().enumerate() {
            if caller.class.is_some() {
                continue;
            }
            let framed = meta.framed_callees(&caller.name).expect("compiles");
            for callee in graph.callees(hps_ir::FuncId::new(i)) {
                let callee = open.func(callee);
                if callee.split_component.is_some() || callee.class.is_some() {
                    split_calls += usize::from(callee.split_component.is_some());
                    assert!(
                        framed.contains(&callee.name.as_str()),
                        "{name}: {} calls {} without a frame: {framed:?}",
                        caller.name,
                        callee.name
                    );
                }
            }
        }
        assert!(split_calls > 0, "{name}: no call to a split function");
    }
}

#[test]
fn hot_loops_run_only_specialised_int_ops() {
    for (name, func) in [("rulekit", "match_rules"), ("calcc", "const_pool")] {
        let split = paper_split(name);
        let meta = SplitMeta::derive(&split.open, &split.hidden);
        assert_eq!(
            meta.generic_int_ops(func),
            Some(0),
            "{name}: {func} runs generic Int instructions"
        );
    }
}
