//! The paper's Fig. 3 example: the iterative ILP-complexity estimation on
//! the (slightly modified) Fig. 2 function, checking the definite-leak
//! rule and the RAISE-over-loop-exit rule the figure illustrates.

use hps_core::{split_program, IlpKind, SplitPlan};
use hps_security::{analyze_split, AcType, Estimator, OriginalAnalysis};

/// Fig. 3's version of the function: `a = 3x + y` is definitely leaked by
/// the use of `a` in `B[0] = a` (a unique reaching definition at an open
/// use), which makes `a` observable for the downstream propagation.
const FIG3: &str = "
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
        print(f(1, 2, 9, b));
    }";

#[test]
fn definite_leak_of_a_reports_the_definitions_own_complexity() {
    let program = hps_lang::parse(FIG3).unwrap();
    let plan = SplitPlan::single(&program, "f", "a").unwrap();
    let split = split_program(&program, &plan).unwrap();
    let report = analyze_split(&program, &split);
    // The ILP at b[0] = a: LeakedDefn(u_a) = `a = 3x + y`, so
    // AC(ILP) = AC(3x + y) = <Linear, {x, y}, 1>.
    let leak_a = report
        .iter()
        .find(|c| c.ac.ty == AcType::Linear && c.ac.inputs.count() == Some(2))
        .expect("definite leak of a found");
    assert_eq!(leak_a.ac.degree, 1);
}

#[test]
fn raise_over_loop_exit_yields_quadratic() {
    let program = hps_lang::parse(FIG3).unwrap();
    let plan = SplitPlan::single(&program, "f", "a").unwrap();
    let split = split_program(&program, &plan).unwrap();
    let report = analyze_split(&program, &split);
    // sum's value leaving the loop is raised by Iter(L), which is linear in
    // the observables (z and the leaked a): degree 1 + 1 = 2.
    let polys: Vec<_> = report
        .iter()
        .filter(|c| c.ac.ty == AcType::Polynomial)
        .collect();
    assert!(!polys.is_empty());
    assert!(polys.iter().all(|c| c.ac.degree == 2));
}

#[test]
fn estimator_is_reusable_for_custom_queries() {
    let program = hps_lang::parse(FIG3).unwrap();
    let plan = SplitPlan::single(&program, "f", "a").unwrap();
    let split = split_program(&program, &plan).unwrap();
    let report = &split.reports[0];
    let fid = program.func_by_name("f").unwrap();
    let analysis = OriginalAnalysis::new(&program);
    let est = Estimator::new(&program, analysis.func(fid), &report.plan);
    // All hidden statements feeding the `b[1] = sum` leak: the summation
    // loop body plus the initializations of i and sum, and a's definition.
    let sum_leak = report
        .ilps
        .iter()
        .find(|ilp| {
            matches!(ilp.kind, IlpKind::HiddenCompute)
                && matches!(&ilp.leaked_expr, hps_ir::Expr::Local(l)
                    if program.func(fid).local(*l).name == "sum")
        })
        .expect("sum leak exists");
    let feeding = est.feeding_hidden_stmts(sum_leak.stmt, &sum_leak.leaked_expr);
    assert!(feeding.len() >= 4, "feeding slice too small: {feeding:?}");
}
