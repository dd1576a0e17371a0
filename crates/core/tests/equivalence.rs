//! End-to-end semantic equivalence: a split program must produce exactly
//! the same observable output as the original, for function, global and
//! class targets, across control-flow shapes, recursion and runtime errors.

use hps_core::{split_program, SplitPlan};
use hps_runtime::{run_program, Executor, RtValue};

fn check_equiv(src: &str, plan: &SplitPlan, args: &[RtValue]) -> (Vec<String>, u64) {
    let program = hps_lang::parse(src).expect("parses");
    let split = split_program(&program, plan).expect("splits");
    let original = run_program(&program, args).expect("original runs");
    let replayed = Executor::new(&split.open, &split.hidden)
        .run(args)
        .expect("split runs");
    assert_eq!(
        original.output, replayed.outcome.output,
        "split changed observable behaviour"
    );
    // Round-trip coalescing must be transparent: same output, never more
    // round trips than demand transport.
    let batched = Executor::new(&split.open, &split.hidden)
        .batching(true)
        .run(args)
        .expect("batched runs");
    assert_eq!(
        original.output, batched.outcome.output,
        "batching changed observable behaviour"
    );
    assert!(
        batched.interactions <= replayed.interactions,
        "batching increased round trips ({} vs {})",
        batched.interactions,
        replayed.interactions
    );
    (original.output, replayed.interactions)
}

const FIG2: &str = "
    fn f(x: int, y: int, z: int, b: int[]) -> int {
        var a: int;
        var i: int;
        var sum: int;
        a = 3 * x + y;
        b[0] = a;
        i = a;
        sum = 0;
        while (i < z) {
            sum = sum + i;
            i = i + 1;
        }
        b[1] = sum;
        return sum;
    }
    fn main() {
        var b: int[] = new int[2];
        print(f(1, 2, 30, b));
        print(b[0]);
        print(b[1]);
        print(f(3, 1, 5, b));
    }";

#[test]
fn fig2_function_split_is_equivalent() {
    let program = hps_lang::parse(FIG2).unwrap();
    let plan = SplitPlan::single(&program, "f", "a").unwrap();
    let (output, interactions) = check_equiv(FIG2, &plan, &[]);
    // sum over [5, 30) = 425; b[0] = 5
    assert_eq!(output, vec!["425", "5", "425", "0"]);
    assert!(interactions > 0, "split must actually interact");
}

#[test]
fn fig2_without_promotion_is_equivalent() {
    let program = hps_lang::parse(FIG2).unwrap();
    let plan = SplitPlan::single(&program, "f", "a")
        .unwrap()
        .without_promotion();
    let (_, interactions_flat) = check_equiv(FIG2, &plan, &[]);
    let promoted = SplitPlan::single(&program, "f", "a").unwrap();
    let (_, interactions_promoted) = check_equiv(FIG2, &promoted, &[]);
    // Promotion folds the whole loop into one call; without it the loop
    // body causes per-iteration traffic.
    assert!(
        interactions_flat > interactions_promoted,
        "promotion should reduce interactions ({interactions_flat} vs {interactions_promoted})"
    );
}

#[test]
fn branches_and_hidden_conditions() {
    let src = "
        fn g(x: int, y: int) -> int {
            var a: int = x * 2;
            var r: int = 0;
            if (a > y) { r = 1; } else { r = 2; }
            if (y > 10) { r = r + 10; }
            return r + a;
        }
        fn main() {
            print(g(1, 5));
            print(g(10, 5));
            print(g(1, 50));
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "g", "a").unwrap();
    check_equiv(src, &plan, &[]);
}

#[test]
fn else_clause_promotion_shape() {
    // then-branch open (array write), else-branch hidden; the condition is
    // openly evaluable => the paper's if-then-else -> if-then rewrite.
    let src = "
        fn g(x: int, y: int, b: int[]) -> int {
            var a: int = x + 1;
            if (y > 0) {
                b[0] = y;
            } else {
                a = a * 2;
            }
            return a;
        }
        fn main() {
            var b: int[] = new int[1];
            print(g(3, 1, b));
            print(g(3, 0 - 1, b));
            print(b[0]);
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "g", "a").unwrap();
    let split = split_program(&program, &plan).unwrap();
    check_equiv(src, &plan, &[]);
    // The open component of g must contain no `else` anymore.
    let g = split.open.func_by_name("g").unwrap();
    let text = hps_ir::pretty::function_to_string(&split.open, split.open.func(g));
    assert!(
        !text.contains("else"),
        "open component still has else:\n{text}"
    );
}

#[test]
fn while_with_hidden_condition_variable() {
    // The loop writes an array each iteration, so it cannot be promoted;
    // its condition reads the hidden variable i => per-iteration fetch.
    let src = "
        fn g(n: int, b: int[]) -> int {
            var i: int = 0;
            var sum: int = 0;
            while (i < n) {
                b[i] = i * i;
                i = i + 1;
                sum = sum + 1;
            }
            return sum;
        }
        fn main() {
            var b: int[] = new int[10];
            print(g(7, b));
            print(b[3]);
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "g", "i").unwrap();
    let (output, interactions) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["7", "9"]);
    // At least one fetch per iteration.
    assert!(interactions >= 7);
}

#[test]
fn case_ii_call_rhs_round_trips() {
    let src = "
        fn h(v: int) -> int { return v * 3; }
        fn g(x: int) -> int {
            var a: int = x + 1;
            a = h(a);
            return a;
        }
        fn main() { print(g(4)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "g", "a").unwrap();
    let (output, _) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["15"]);
}

#[test]
fn recursive_split_function_keeps_activations_apart() {
    let src = "
        fn fact(n: int) -> int {
            var acc: int = 1;
            if (n > 1) {
                acc = n * fact(n - 1);
            }
            return acc;
        }
        fn main() { print(fact(6)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "fact", "acc").unwrap();
    let (output, _) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["720"]);
}

#[test]
fn float_and_transcendental_hidden_math() {
    let src = "
        fn g(x: float) -> float {
            var a: float = x * 2.0;
            var b: float = exp(a) + sqrt(a);
            return b / (a + 1.0);
        }
        fn main() { print(g(1.5)); print(g(0.25)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "g", "a").unwrap();
    check_equiv(src, &plan, &[]);
}

#[test]
fn global_hiding_is_equivalent() {
    let src = "
        global counter: int = 5;
        fn bump(k: int) { counter = counter + k; }
        fn read() -> int { return counter; }
        fn main() {
            bump(3);
            bump(4);
            print(read());
            counter = counter * 2;
            print(counter);
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::global(&program, "counter").unwrap();
    let (output, interactions) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["12", "24"]);
    assert!(interactions >= 4);
}

#[test]
fn class_splitting_keeps_instances_apart() {
    let src = "
        class Acc {
            total: int;
            n: int;
            fn add(v: int) { self.total = self.total + v; self.n = self.n + 1; }
            fn mean() -> int { return self.total / max(self.n, 1); }
        }
        fn main() {
            var a: Acc = new Acc();
            var b: Acc = new Acc();
            a.add(10);
            a.add(20);
            b.add(5);
            print(a.mean());
            print(b.mean());
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::class(&program, "Acc").unwrap();
    let (output, interactions) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["15", "5"]);
    assert!(interactions >= 3);
}

#[test]
fn runtime_errors_match_between_versions() {
    let src = "
        fn g(x: int) -> int {
            var a: int = x - 1;
            var r: int = 10 / a;
            return r;
        }
        fn main() { print(g(1)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "a", "a").unwrap_err();
    let _ = plan; // no function `a`
    let plan = SplitPlan::single(&program, "g", "a").unwrap();
    let split = split_program(&program, &plan).unwrap();
    let orig_err = run_program(&program, &[]).unwrap_err();
    let split_err = Executor::new(&split.open, &split.hidden)
        .run(&[])
        .unwrap_err();
    assert_eq!(orig_err, split_err);
}

#[test]
fn multiple_targets_in_one_plan() {
    let src = "
        fn p(x: int) -> int { var a: int = x * 7; return a % 13; }
        fn q(x: int) -> int { var c: int = x + 3; return c * c; }
        fn main() { print(p(9) + q(2)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "p", "a")
        .unwrap()
        .and_function(&program, "q", "c")
        .unwrap();
    let split = split_program(&program, &plan).unwrap();
    assert_eq!(split.hidden.components.len(), 2);
    check_equiv(src, &plan, &[]);
}

#[test]
fn reports_expose_hidden_vars_and_ilps() {
    let program = hps_lang::parse(FIG2).unwrap();
    let plan = SplitPlan::single(&program, "f", "a").unwrap();
    let split = split_program(&program, &plan).unwrap();
    let report = &split.reports[0];
    // a, i, sum all hidden.
    assert_eq!(report.hidden_vars.len(), 3);
    // b[0] = a, b[1] = sum, return sum: at least 3 value leaks.
    assert!(report.ilps.len() >= 3, "ilps: {:?}", report.ilps.len());
    assert!(report.slice_stmts >= 6);
    // The paper's Fig. 1: the split is visible in the summary.
    let summary = split.hidden.summary();
    assert!(summary.contains("hidden var"), "{summary}");
}

#[test]
fn entry_args_flow_into_split_functions() {
    let src = "
        fn g(x: int) -> int { var a: int = x * x; return a; }
        fn main(n: int) { print(g(n)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "g", "a").unwrap();
    check_equiv(src, &plan, &[RtValue::Int(12)]);
}

#[test]
fn condition_calls_with_hidden_arguments() {
    // The while condition contains a call whose argument is hidden: the
    // open side must fetch per evaluation, including re-evaluations.
    let src = "
        fn g(v: int) -> int { return v % 5; }
        fn f(x: int) -> int {
            var a: int = x;
            var n: int = 0;
            while (g(a) != 0) {
                a = a + 1;
                n = n + 1;
            }
            return n;
        }
        fn main() { print(f(7)); print(f(11)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "f", "a").unwrap();
    let (output, _) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["3", "4"]);
}

#[test]
fn continue_inside_rewritten_hidden_condition_loop() {
    // `continue` must jump back through the re-fetch preamble of the
    // while(true) rewrite, not skip it.
    let src = "
        fn f(n: int, b: int[]) -> int {
            var i: int = 0;
            var odd: int = 0;
            while (i < n) {
                i = i + 1;
                b[i % 8] = i;
                if (i % 2 == 0) { continue; }
                odd = odd + 1;
            }
            return odd;
        }
        fn main() { var b: int[] = new int[8]; print(f(9, b)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "f", "i").unwrap();
    let (output, _) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["5"]);
}

#[test]
fn nested_split_functions_calling_each_other() {
    // Both callee and caller are split; activations nest.
    let src = "
        fn inner(x: int) -> int { var a: int = x * 2 + 1; return a; }
        fn outer(x: int) -> int {
            var c: int = inner(x) + 3;
            c = c * inner(x + 1);
            return c;
        }
        fn main() { print(outer(2)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "inner", "a")
        .unwrap()
        .and_function(&program, "outer", "c")
        .unwrap();
    let (output, interactions) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["56"]);
    assert!(interactions >= 4);
}

#[test]
fn hidden_bool_variables_round_trip() {
    let src = "
        fn f(x: int) -> int {
            var flag: bool = x > 3;
            var r: int = 0;
            if (flag) { r = 10; } else { r = 20; }
            return r + x;
        }
        fn main() { print(f(5)); print(f(1)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "f", "flag").unwrap();
    let (output, _) = check_equiv(src, &plan, &[]);
    assert_eq!(output, vec!["15", "21"]);
}

#[test]
fn batching_strictly_drops_interactions_for_update_loops() {
    // A loop of update-only `set` calls is the coalescing sweet spot: the
    // deferrable-call pass marks every set, and the batching runtime ships
    // each batch with the next demanded fetch.
    let src = "
        global total: int = 0;
        fn add(v: int) { total = total + v; }
        fn main() {
            var i: int = 0;
            while (i < 20) { add(i); i = i + 1; }
            print(total);
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::global(&program, "total").unwrap();
    let split = split_program(&program, &plan).unwrap();
    assert!(split.defer.deferred_calls >= 1, "{:?}", split.defer);
    let demand = Executor::new(&split.open, &split.hidden)
        .run(&[])
        .expect("runs");
    let batched = Executor::new(&split.open, &split.hidden)
        .batching(true)
        .run(&[])
        .expect("runs");
    assert_eq!(demand.outcome.output, batched.outcome.output);
    assert!(
        batched.interactions < demand.interactions,
        "batching must strictly reduce round trips ({} vs {})",
        batched.interactions,
        demand.interactions
    );
}

#[test]
fn batching_runtime_errors_still_surface() {
    // A division by zero computed on the hidden side must fail identically
    // whether or not preceding update calls were buffered.
    let src = "
        global d: int = 2;
        fn main() {
            d = d - 1;
            d = d - 1;
            print(10 / d);
        }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::global(&program, "d").unwrap();
    let split = split_program(&program, &plan).unwrap();
    let demand_err = Executor::new(&split.open, &split.hidden)
        .run(&[])
        .unwrap_err();
    let batched_err = Executor::new(&split.open, &split.hidden)
        .batching(true)
        .run(&[])
        .unwrap_err();
    assert_eq!(demand_err, batched_err);
}

#[test]
fn hidden_float_state_with_casts() {
    let src = "
        fn f(x: int) -> float {
            var acc: float = float(x) * 0.5;
            var steps: int = x % 7 + 2;
            var i: int = 0;
            while (i < steps) {
                acc = acc * 1.25 + 0.125;
                i = i + 1;
            }
            return acc;
        }
        fn main() { print(f(4)); print(f(9)); }";
    let program = hps_lang::parse(src).unwrap();
    let plan = SplitPlan::single(&program, "f", "acc").unwrap();
    check_equiv(src, &plan, &[]);
}

/// A call that writes a hidden global or field, and a read of that
/// variable later in the same statement: the read sees the call's write.
/// Where moving the call ahead of its statement would change what runs,
/// the split is refused instead.
#[test]
fn reads_after_a_writing_call_in_one_statement() {
    let bump = "global g: int = 1; fn bump(k: int) -> int { g = g + k; return k; }";
    let cases = [
        (
            "global g: int = 2;
             fn f2(a: int, d: int) -> int {
                 if (d <= 0) { return a; }
                 g = g + a;
                 return f2(a + 1, d - 1) + g;
             }
             fn main() { print(f2(1, 3)); print(g); }"
                .to_string(),
            vec!["28", "8"],
        ),
        (
            format!("{bump} fn main() {{ print(g + bump(10) + g); print(g); }}"),
            vec!["22", "11"],
        ),
        (
            "class Cell {
                 v: int;
                 fn inc(k: int) -> int { self.v = self.v + k; return k; }
                 fn both(k: int) -> int { return self.inc(k) + self.v; }
             }
             fn main() { var c: Cell = new Cell(); print(c.both(5)); print(c.both(1)); }"
                .to_string(),
            vec!["10", "7"],
        ),
    ];
    for (src, expected) in cases {
        let program = hps_lang::parse(&src).unwrap();
        let plan = SplitPlan::global(&program, "g")
            .or_else(|_| SplitPlan::class(&program, "Cell"))
            .unwrap();
        assert_eq!(check_equiv(&src, &plan, &[]).0, expected);
    }
    for stmt in [
        "if (g > 9 || bump(1) > g) { }",
        "while (bump(0) < g && g < 9) { g = g + 5; }",
    ] {
        let src = format!("{bump} fn main() {{ {stmt} print(g); }}");
        let program = hps_lang::parse(&src).unwrap();
        let plan = SplitPlan::global(&program, "g").unwrap();
        let err = split_program(&program, &plan).unwrap_err();
        assert!(
            matches!(err, hps_core::SplitError::Unrealizable(_)),
            "{stmt}: {err}"
        );
    }
}
