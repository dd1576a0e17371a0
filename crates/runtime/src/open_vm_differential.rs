//! Differential property test: open programs on the bytecode VM
//! ([`crate::interp`]) must be observationally identical to the
//! reference tree-walk ([`crate::reference`]) — same return value,
//! output, cost units and step count, or the same [`RuntimeError`] for the
//! first failing operation, under every step and call-depth limit.
//!
//! The programs come from the workspace's generator
//! ([`hps_gen::program`]). They call functions (recursively, and a callee
//! that assigns globals the caller reads in the same expression), compute
//! on ints, floats and bools, read and write a local and a global array
//! (with out-of-bounds indices), an object's fields through fields and
//! methods, short-circuit `&&`/`||`, and divide by zero; the step limits
//! end them at every point. Each has a scalar leaf, `lf`, that the
//! compiler inlines when it is short enough (most are): it loops, returns
//! early, traps on `/` and `%`, assigns a global and reads a local before
//! assigning it, and `main` calls it in a loop.
//!
//! Hand-written cases cover what the generator rarely reaches: diverging
//! loops, the evaluation-order corners, the limits met inside and at
//! inlined leaves, and the VM's in-place scalar writes
//! (registers reused across types, wrapping arithmetic, errors raised by
//! an instruction whose destination is one of its operands, array
//! elements that are not `Int`s).

use crate::bytecode::{int_binop_into, set_int};
use crate::interp::{ExecConfig, Interp, Outcome};
use crate::{reference, RtValue, RuntimeError};
use hps_ir::BinOp;
use proptest::prelude::*;
use std::rc::Rc;

/// Limits under which both engines run each program: the first tick,
/// mid-run step counts, a budget most programs finish within, and tight
/// call depths.
const LIMITS: [(u64, usize); 7] = [
    (1, 128),
    (7, 128),
    (60, 128),
    (400, 128),
    (20_000, 128),
    (20_000, 3),
    (20_000, 1),
];

fn check(src: &str) {
    let program = hps_lang::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    for (steps, depth) in LIMITS {
        let vm = Interp::new(&program, ExecConfig::new())
            .with_limits(steps, depth)
            .run("main", &[]);
        let walk = reference::run_function(&program, "main", &[], steps, depth);
        assert_same(&vm, &walk, &format!("limits ({steps}, {depth})\n{src}"));
    }
}

pub(crate) fn assert_same(
    vm: &Result<Outcome, RuntimeError>,
    walk: &Result<Outcome, RuntimeError>,
    context: &str,
) {
    match (vm, walk) {
        (Ok(v), Ok(w)) => {
            assert_eq!(v.ret, w.ret, "return value, {context}");
            assert_eq!(v.output, w.output, "output, {context}");
            assert_eq!(v.cost, w.cost, "cost, {context}");
            assert_eq!(v.steps, w.steps, "steps, {context}");
        }
        (Err(v), Err(w)) => assert_eq!(v, w, "first error, {context}"),
        _ => panic!("engines diverged: vm {vm:?}, reference {walk:?}, {context}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn vm_matches_reference_on_generated_programs(src in hps_gen::program()) {
        check(&src);
    }
}

/// The evaluation-order corners the generator reaches only by chance.
#[test]
fn vm_matches_reference_on_evaluation_order_corners() {
    for body in [
        // A global read before, and after, a call that assigns it.
        "g = 1; print(g + bump(10)); print(bump(10) + g); print(f1(g, bump(3)));",
        // Element stores evaluate the value, then the base, then the index.
        "g = 1; ga[g] = bump(2); print(ga[1]); print(ga[3]); ga[bump(1)] = g; print(ga[1]);",
        "arr[bump(1) - g] = g; print(arr[0]);",
        // Short circuits skip the call and the trap on the right.
        "if (g > 100 && bump(1) / 0 > 0) { print(1); } if (g < 100 || 1 / 0 > 0) { print(2); }",
        "print((g > 100) && (bump(1) > 0)); print(h);",
        // Fields through methods, out-of-bounds and zero divisors.
        "c.v = c.put(bump(2)) + c.v; print(c.w);",
        "print(arr[3]);",
        "print(ga[0 - 1]);",
        "print(7 % (g - g));",
        "while (true) { x = x + 1; }",
        "print(f2(1, 3)); print(f2(bump(1), 2));",
    ] {
        check_corner(body);
    }
}

/// Checks `body` as `main`'s body, after locals `x`, `y`, `m` (one above
/// `i64::MIN`), `f`, `arr` and `c`, with globals, a class and helper
/// functions to call.
fn check_corner(body: &str) {
    check(&format!(
        "global g: int = 1;
global h: int;
global ga: int[] = new int[4];
global fa: float[] = new float[3];
global ba: bool[] = new bool[2];
class Cell {{
    v: int;
    w: int;
    fn get() -> int {{ return self.v; }}
    fn put(k: int) -> int {{ self.v = self.v + k; self.w = k; return self.w; }}
}}
fn bump(k: int) -> int {{ g = g + k; h = h + 1; return k; }}
fn f1(a: int, b: int) -> int {{ return a * 100 + b; }}
fn f2(a: int, d: int) -> int {{ if (d <= 0) {{ return a + g; }} return f2(a + bump(d), d - 1) * 2; }}
fn mk(n: int) -> int[] {{ var a: int[] = new int[3]; a[1] = n; return a; }}
fn main() {{
    var x: int = 1;
    var y: int = 2;
    var m: int = 0 - 9223372036854775807;
    var f: float = 1.5;
    var arr: int[] = new int[3];
    var c: Cell = new Cell();
    {body}
}}
"
    ));
}

/// The in-place scalar writes of `Bin`, `Load` and `LoadElem`, in the
/// cases the generator rarely reaches.
#[test]
fn vm_matches_reference_on_in_place_writes() {
    for body in [
        // One temporary holds a bool, then an int, then a bool again.
        "print(x < y); print(x + y); print(y <= x); print(y * 3 - x);",
        "print((x < y) == (y < x)); print(x - y); print(f < 2.0); print(y / x);",
        // An int lands in a temporary that held an array (the call's
        // result), and a float in one that held an int.
        "print(mk(5)[1]); print(y + (x * 3)); print(mk(x)[1] + mk(y)[1]); print(x * y);",
        "print(f + 1.0); print(x + 1); print(fa[1] + f); print(x - y); print(f * f);",
        // Wrapping: i64::MIN / -1 and % -1, into a temporary and into
        // the left operand (`x = x <op> e`).
        "m = m - 1; print(m); print(m / (x - 2)); print(m % (x - 2));",
        "m = m - 1; m = m / (x - 2); print(m); m = m % (x - 2); print(m);",
        // Overflow in `x = x <op> e`.
        "x = 9223372036854775807; x = x + y; print(x); x = x - 3; print(x);",
        "x = 9223372036854775807; x = x * x; print(x); m = m - 2; m = m * y; print(m);",
        "g = 9223372036854775807; g = g + x; print(g); print(g * g);",
        // Division by zero in `x = x <op> e`, and in a `Bin` whose
        // destination is its zero divisor.
        "print(x); x = x / (y - y); print(x);",
        "print(x); x = x % (y - 2); print(x);",
        "y = y - 2; print(y); y = x / y; print(y);",
        "y = y - 2; y = x % y; print(y);",
        // Elements that are not `Int`s, and one out of bounds.
        "print(fa[1]); print(ba[0]); print(fa[x] + 1.0); print(ba[x] == ba[0]);",
        "ba[1] = x < y; print(ba[1]); fa[2] = f; print(fa[2] < f); print(fa[y + 5]);",
    ] {
        check_corner(body);
    }
}

/// The corners of inlined leaves: a leaf called exactly at the depth
/// limit and one call past it, the step limit firing at every instruction
/// of an inlined body (whose loop re-enters it), a trap in a leaf after its
/// caller's expression changed a global, a local read before it is
/// assigned, reset on every entry, a global argument to a leaf that
/// assigns that global, and returns written straight to a destination
/// that an argument reads in place (`x = lk(x, ..)`), next to returns
/// that keep their move: one reached by a jump (`lb`'s `&&`) and one
/// that charges the `return`'s tick (`lt`).
#[test]
fn vm_matches_reference_on_inlined_leaf_corners() {
    let src = "global g: int = 1;
global h: int;
fn bump(k: int) -> int { g = g + k; h = h + 1; return k; }
fn lf(a: int, b: int) -> int {
    var t: int;
    h = h + t;
    while (a > 0) { t = t + b; a = a - 1; }
    if (t > 50) { return t / b; }
    return t % (b - 1);
}
fn lg(a: int) -> int { g = g + 1; return a * 10 + g; }
fn lk(a: int, b: int) -> int { if (b > 3) { return a * 2 + b; } return a - b; }
fn lb(a: int, b: int) -> bool { return a > b && b > 2; }
fn lt(a: int) -> int { var r: int = a * 3; return r; }
fn down(d: int, b: int) -> int { if (d <= 0) { return lf(2, b); } return down(d - 1, b); }
fn main(d: int, b: int) {
    var i: int = 0;
    while (i < 2) { print(lf(i, b)); i = i + 1; }
    print(down(d, b));
    print(g + bump(5) + lf(3, b));
    print(lg(g));
    var x: int = 7;
    x = lk(x, b);
    print(x);
    x = lk(x, x) + lk(b, x);
    print(x);
    print(lb(x, b));
    print(lt(b) + lt(x));
    print(g);
    print(h);
}";
    let program = hps_lang::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let code = crate::bytecode::OpenCode::compile(&program, None);
    let code = code.get(false).expect("lowers");
    let leaves =
        ["lf", "lg", "lk", "lb", "lt"].map(|f| program.func_by_name(f).expect("leaf").index());
    for caller in ["down", "main"] {
        let caller = program.func_by_name(caller).expect("caller").index();
        assert!(
            code.callees(caller).all(|f| !leaves.contains(&f)),
            "the leaves are inlined"
        );
    }
    // `b == 1` divides by zero after `bump` changed `g`; `b == 30` takes
    // the early return.
    for (d, b) in [(0, 2), (1, 1), (2, 30), (0, 0)] {
        let args = [RtValue::Int(d), RtValue::Int(b)];
        // Runs both engines; true when the step limit stopped them.
        let stopped = |steps, depth| {
            let vm = Interp::new(&program, ExecConfig::new())
                .with_limits(steps, depth)
                .run("main", &args);
            let walk = reference::run_function(&program, "main", &args, steps, depth);
            assert_same(
                &vm,
                &walk,
                &format!("d {d} b {b} limits ({steps}, {depth})"),
            );
            matches!(vm, Err(RuntimeError::StepLimitExceeded { .. }))
        };
        // Every limit until the run gets past the step limit.
        let mut limit = 1;
        while stopped(limit, 128) {
            limit += 1;
            assert!(limit < 1_000, "d {d} b {b}: the run ends");
        }
        for depth in 1..=5 {
            stopped(20_000, depth);
        }
    }
}

/// A failed run keeps its steps but none of its cost, on one `Interp`,
/// when the error comes from an in-place `Bin`.
#[test]
fn failed_in_place_runs_discard_their_cost() {
    // Each body, and the statements a run with `z == 0` ticks: `var x`
    // and every statement up to the failing one.
    for (body, ticked) in [("x = x / z;", 2), ("x = z % x; z = x / z;", 3)] {
        let src = format!("fn main(z: int) {{ var x: int = 5; {body} print(x); }}");
        let program = hps_lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let mut interp = Interp::new(&program, ExecConfig::new());
        let ok = interp.run("main", &[RtValue::Int(3)]).expect("first run");
        let failed = reference::run_function(&program, "main", &[RtValue::Int(0)], 1000, 8);
        assert_eq!(failed, Err(RuntimeError::DivisionByZero), "{body}");
        assert_eq!(
            interp.run("main", &[RtValue::Int(0)]),
            Err(RuntimeError::DivisionByZero),
            "{body}"
        );
        let again = interp.run("main", &[RtValue::Int(3)]).expect("third run");
        assert_eq!(again.cost, 2 * ok.cost, "{body}");
        assert_eq!(again.steps, 2 * ok.steps + ticked, "{body}");
    }
}

/// The register-level contract of the in-place writes: an aggregate a
/// scalar overwrites is released, and an operation left to `ops::binop`
/// leaves its destination untouched.
#[test]
fn in_place_writes_release_aggregates_and_keep_failing_registers() {
    let array = RtValue::from_ints(&[1, 2]);
    let RtValue::Array(storage) = &array else {
        unreachable!("from_ints builds an array")
    };
    let mut reg = array.clone();
    assert_eq!(Rc::strong_count(storage), 2);
    set_int(&mut reg, 7);
    assert_eq!(
        (reg.clone(), Rc::strong_count(storage)),
        (RtValue::Int(7), 1)
    );
    let mut reg = RtValue::Bool(true);
    assert!(int_binop_into(BinOp::Add, 1, 2, &mut reg));
    assert_eq!(reg, RtValue::Int(3));
    assert!(int_binop_into(BinOp::Lt, 1, 2, &mut reg));
    assert_eq!(reg, RtValue::Bool(true));
    for op in [BinOp::Div, BinOp::Rem, BinOp::And, BinOp::Or] {
        let mut reg = RtValue::Int(9);
        assert!(!int_binop_into(op, 9, 0, &mut reg), "{op:?}");
        assert_eq!(reg, RtValue::Int(9), "{op:?}");
    }
    let mut reg = RtValue::Int(0);
    assert!(int_binop_into(BinOp::Div, i64::MIN, -1, &mut reg));
    assert_eq!(reg, RtValue::Int(i64::MIN));
    assert!(int_binop_into(BinOp::Rem, i64::MIN, -1, &mut reg));
    assert_eq!(reg, RtValue::Int(0));
}

/// One statement for each specialised instruction form, and a few for the
/// shapes left generic (`Float` operands among them), over slots `d`, `x`,
/// `y` (declared `int`) and `f`, `g` (declared `float`). Divisors include
/// `-1` and zero, as immediates and in registers.
pub(crate) const SPECIALISED_FORMS: &[&str] = &[
    "d = x + 3;",
    "d = x - 3;",
    "d = x * 3;",
    "d = x / 3;",
    "d = x % 3;",
    "d = x / -1;",
    "d = x % -1;",
    "d = x / 0;",
    "d = x % 0;",
    "d = 0 - x;",
    "d = 3 * x;",
    "d = x + y;",
    "d = x - y;",
    "d = x * y;",
    "d = x / y;",
    "d = x % y;",
    "d = d + 3;",
    "d = d - x;",
    "d = d * 3;",
    "d = d * x;",
    "d = d % y;",
    "f = g + 1.5;",
    "f = g / f;",
    "if (x == y) { d = 1; } else { d = 2; }",
    "if (x != y) { d = 1; }",
    "if (x < y) { d = 1; }",
    "if (x <= y) { d = 1; } else { d = 2; }",
    "if (x > y) { d = 1; }",
    "if (x >= y) { d = 1; }",
    "if (x == 0) { d = 1; } else { d = 2; }",
    "if (x != -1) { d = 1; }",
    "if (x < 3) { d = 1; }",
    "if (x <= 3) { d = 1; } else { d = 2; }",
    "if (x > 3) { d = 1; }",
    "if (x >= 3) { d = 1; }",
    "while (d < 5) { d = d + 1; }",
    "if (g < f) { d = 1; }",
];

/// Values of the slots `(d, f, x, y, g)` that the specialised forms'
/// guards see: every `Int` corner, and values of other types, arrays
/// included, in slots declared `int` and `float`. `y` and `g` hold only
/// scalars, the values a fragment's parameters can get from the wire.
pub(crate) fn guard_rows() -> Vec<[RtValue; 5]> {
    let array = RtValue::from_ints(&[1, 2]);
    let ints = [
        RtValue::Int(5),
        RtValue::Int(-1),
        RtValue::Int(0),
        RtValue::Int(i64::MIN),
        RtValue::Int(i64::MAX),
        RtValue::Float(2.5),
        RtValue::Float(f64::NAN),
        RtValue::Bool(true),
        array.clone(),
    ];
    let floats = [
        RtValue::Float(2.5),
        RtValue::Float(f64::NAN),
        RtValue::Float(-0.0),
        RtValue::Int(3),
        RtValue::Bool(false),
        array,
    ];
    let mut rows = Vec::new();
    for (i, x) in ints.iter().enumerate() {
        for (j, y) in ints[..8].iter().enumerate() {
            let d = ints[(i + j + 1) % ints.len()].clone();
            let f = floats[(i + j) % floats.len()].clone();
            let g = floats[j % 5].clone();
            rows.push([d, f, x.clone(), y.clone(), g]);
        }
    }
    rows
}

/// Every specialised form as open code, with `main`'s parameters holding
/// values of their declared type and of others: the same value or error,
/// output, cost and steps as the reference.
#[test]
fn vm_matches_reference_when_specialised_guards_miss() {
    for stmt in SPECIALISED_FORMS {
        let src = format!(
            "fn main(d: int, f: float, x: int, y: int, g: float) {{ {stmt} print(d); print(f); }}"
        );
        let program = hps_lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for row in guard_rows() {
            for (steps, depth) in LIMITS {
                let vm = Interp::new(&program, ExecConfig::new())
                    .with_limits(steps, depth)
                    .run("main", &row);
                let walk = reference::run_function(&program, "main", &row, steps, depth);
                assert_same(
                    &vm,
                    &walk,
                    &format!("{stmt} on {row:?}, limits ({steps}, {depth})"),
                );
            }
        }
    }
}
