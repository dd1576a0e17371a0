//! Static types of parsed programs' expressions and places.

use hps_ir::infer::{expr_ty, place_ty};
use hps_ir::{Expr, LocalId, Program, StmtKind, Ty};

#[test]
fn infers_expression_types() {
    let p = hps_lang::parse(
        "global g: float;
         fn h(x: int) -> bool { return x > 0; }
         fn f(x: int, a: int[]) -> int {
             var y: float = g + 1.0;
             if (h(x)) { return a[x] + int(y); }
             return min(x, 2);
         }",
    )
    .unwrap();
    let fid = p.func_by_name("f").unwrap();
    let f = p.func(fid);
    // Every expression of a checked program has a type.
    hps_ir::visit::for_each_stmt(&f.body, &mut |stmt| {
        hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
            assert!(expr_ty(&p, f, e).is_some(), "{e:?}");
        });
    });
    match &f.body.stmts[0].kind {
        StmtKind::Assign { place, value } => {
            assert_eq!(place_ty(&p, f, place), Some(Ty::Float));
            assert_eq!(expr_ty(&p, f, value), Some(Ty::Float));
        }
        _ => panic!("expected assignment"),
    }
}

#[test]
fn infers_call_and_index_types() {
    let p = hps_lang::parse(
        "fn g() -> float { return 1.0; }
         fn f(a: float[]) -> float { return a[0] + g(); }",
    )
    .unwrap();
    let fid = p.func_by_name("f").unwrap();
    let f = p.func(fid);
    match &f.body.stmts[0].kind {
        StmtKind::Return(Some(e)) => assert_eq!(expr_ty(&p, f, e), Some(Ty::Float)),
        _ => panic!("expected return"),
    }
}

#[test]
fn ill_typed_ir_has_no_type() {
    let p = Program::new();
    let slots = vec![Ty::Int, Ty::Float];
    let x = Expr::local(LocalId::new(1));
    assert_eq!(expr_ty(&p, &slots, &x), Some(Ty::Float));
    // A slot out of range, and an index into a scalar.
    assert_eq!(expr_ty(&p, &slots, &Expr::local(LocalId::new(2))), None);
    let index = Expr::Index {
        base: Box::new(x),
        index: Box::new(Expr::int(0)),
    };
    assert_eq!(expr_ty(&p, &slots, &index), None);
}
