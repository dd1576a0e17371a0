//! Differential property test: the fragment bytecode VM ([`crate::bytecode`])
//! must be observationally identical to the reference tree-walk
//! ([`crate::reference`]) on random well-formed fragments — same returned
//! value, same hidden-variable state, same cost units, and the same
//! [`crate::RuntimeError`] (including `StepLimitExceeded` firing at exactly
//! the same statement count).
//!
//! Generated fragments deliberately include diverging loops (caught by small
//! step limits), type-confused operands, division by zero, out-of-range
//! hidden-slot references, `len` (an array builtin, illegal in a fragment)
//! and statements that are illegal inside fragments (`print`, `return`),
//! because error parity is as much a part of the VM contract as value
//! parity.
//!
//! The two halves of a split run one program, so a block legal in both
//! must mean the same in both: each such generated block also runs as the
//! body of an open `main` whose parameters are the fragment's slots, on the
//! open VM against the same reference, and the slots it prints must be the
//! fragment VM's final hidden state.

use crate::bytecode::{compile_fragment, run_compiled_with_limit};
use crate::interp::{ExecConfig, Interp};
use crate::open_vm_differential::assert_same;
use crate::reference::{run_function, run_hidden};
use crate::{RtValue, RuntimeError, COST_MODEL};
use hps_ir::build::FnBuilder;
use hps_ir::{
    BinOp, Block, Builtin, Expr, FragLabel, Fragment, LocalId, Place, Program, Stmt, StmtKind, Ty,
    UnOp, Value,
};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// Fixed fragment shape: slots `[0, N_VARS)` are hidden variables,
/// `[N_VARS, N_SLOTS)` are parameters. Fixing the shape keeps the in-range /
/// out-of-range classification of generated `Local` references stable.
const N_VARS: usize = 3;
const N_PARAMS: usize = 2;
const N_SLOTS: usize = N_VARS + N_PARAMS;

const BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

const BUILTINS: [Builtin; 10] = [
    Builtin::Len,
    Builtin::Log,
    Builtin::Abs,
    Builtin::Min,
    Builtin::Max,
    Builtin::Floor,
    Builtin::IntCast,
    Builtin::FloatCast,
    Builtin::Sqrt,
    Builtin::Exp,
];

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        5 => (-8i64..9).prop_map(Value::Int),
        2 => any::<bool>().prop_map(Value::Bool),
        2 => (-6i64..7).prop_map(|n| Value::Float(n as f64 * 0.5)),
    ]
    .boxed()
}

fn expr_strategy() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        3 => value_strategy().prop_map(Expr::Const),
        // In-range slots (vars + params) plus the occasional out-of-range
        // reference, which must surface the same IllegalFragmentOp in both
        // engines — or no error at all when the code is dead.
        5 => (0usize..N_SLOTS).prop_map(|i| Expr::Local(LocalId::new(i))),
        1 => Just(Expr::Local(LocalId::new(N_SLOTS + 2))),
    ]
    .boxed();
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            4 => ((0usize..BINOPS.len()), inner.clone(), inner.clone()).prop_map(
                |(op, lhs, rhs)| Expr::Binary {
                    op: BINOPS[op],
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                }
            ),
            1 => ((0usize..2), inner.clone()).prop_map(|(op, arg)| Expr::Unary {
                op: if op == 0 { UnOp::Neg } else { UnOp::Not },
                arg: Box::new(arg),
            }),
            // Unary builtins only; Min/Max with one arg is an arity error the
            // two engines must also agree on, so no filtering here.
            1 => ((0usize..BUILTINS.len()), inner).prop_map(|(b, arg)| Expr::BuiltinCall {
                builtin: BUILTINS[b],
                args: vec![arg],
            }),
        ]
        .boxed()
    })
}

fn stmt_strategy() -> BoxedStrategy<Stmt> {
    let leaf = prop_oneof![
        6 => ((0usize..N_SLOTS + 1), expr_strategy()).prop_map(|(slot, value)| {
            Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(slot)),
                value,
            })
        }),
        1 => Just(Stmt::new(StmtKind::Break)),
        1 => Just(Stmt::new(StmtKind::Continue)),
        1 => Just(Stmt::new(StmtKind::Nop)),
        // Illegal inside fragments; both engines must reject identically
        // when (and only when) control flow actually reaches it.
        1 => expr_strategy().prop_map(|e| Stmt::new(StmtKind::Print(e))),
        1 => expr_strategy().prop_map(|e| Stmt::new(StmtKind::Return(Some(e)))),
    ]
    .boxed();
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            2 => (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..2),
            )
                .prop_map(|(cond, t, e)| Stmt::new(StmtKind::If {
                    cond,
                    then_blk: Block::of(t),
                    else_blk: Block::of(e),
                })),
            // Loops may diverge; the small step limits below catch them and
            // both engines must report StepLimitExceeded at the same count.
            1 => (expr_strategy(), prop::collection::vec(inner, 0..3)).prop_map(
                |(cond, body)| Stmt::new(StmtKind::While {
                    cond,
                    body: Block::of(body),
                })
            ),
        ]
        .boxed()
    })
}

fn fragment_strategy() -> BoxedStrategy<Fragment> {
    (
        prop::collection::vec(stmt_strategy(), 0..6),
        prop_oneof![
            2 => expr_strategy().prop_map(Some),
            1 => Just(None),
        ],
    )
        .prop_map(|(body, ret)| Fragment {
            label: FragLabel::new(7),
            params: (0..N_PARAMS).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        })
        .boxed()
}

fn vars_strategy() -> BoxedStrategy<Vec<RtValue>> {
    prop::collection::vec(
        value_strategy().prop_map(RtValue::from_const),
        N_VARS..N_VARS + 1,
    )
    .boxed()
}

/// Step limits for fragments: limit 1 pins the very first tick; 2000 lets
/// most fragments finish while still bounding diverging loops.
const LIMITS: [u64; 4] = [1, 2, 7, 2_000];

/// Runs the fragment through both engines at the given limit and asserts
/// byte-identical observable behaviour.
fn check_parity(fragment: &Fragment, vars: &[RtValue], args: &[Value], limit: u64) {
    let mut tree_vars = vars.to_vec();
    let mut vm_vars = vars.to_vec();
    let tree = run_hidden(fragment, &mut tree_vars, args, limit);
    let compiled = compile_fragment(fragment, vars.len());
    let vm = run_compiled_with_limit(&compiled, &mut vm_vars, args, limit);
    assert_eq!(
        tree, vm,
        "engines diverged at limit {limit}\nfragment: {fragment:?}\nvars: {vars:?}\nargs: {args:?}"
    );
    assert_eq!(
        tree_vars, vm_vars,
        "hidden state diverged at limit {limit}\nfragment: {fragment:?}"
    );
}

proptest! {
    /// Random fragments with correct arity: identical value, hidden state,
    /// cost and error across a spread of step limits.
    #[test]
    fn vm_matches_tree_walk(
        fragment in fragment_strategy(),
        vars in vars_strategy(),
        a0 in -8i64..9,
        a1 in -8i64..9,
    ) {
        let args = [Value::Int(a0), Value::Int(a1)];
        for limit in LIMITS {
            check_parity(&fragment, &vars, &args, limit);
        }
    }

    /// Arity mismatches must produce the same Channel error before any
    /// statement executes in either engine.
    #[test]
    fn vm_matches_tree_walk_on_bad_arity(
        fragment in fragment_strategy(),
        vars in vars_strategy(),
        n_args in 0usize..5,
    ) {
        if n_args == N_PARAMS {
            return; // covered by vm_matches_tree_walk
        }
        let args: Vec<Value> = (0..n_args as i64).map(Value::Int).collect();
        check_parity(&fragment, &vars, &args, 2_000);
    }

    /// Non-integer arguments exercise type-confusion paths (bool conditions,
    /// float arithmetic, casts) through both engines.
    #[test]
    fn vm_matches_tree_walk_on_mixed_arg_types(
        fragment in fragment_strategy(),
        vars in vars_strategy(),
        a0 in prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            (-6i64..7).prop_map(|n| Value::Float(n as f64 * 0.5)),
        ],
        a1 in -8i64..9,
    ) {
        let args = [a0, Value::Int(a1)];
        check_parity(&fragment, &vars, &args, 2_000);
    }
}

/// True when `block` means the same in both halves: every slot in range,
/// and no `print`, `return` or construct a fragment may not contain.
fn legal_in_both_halves(block: &Block) -> bool {
    block.stmts.iter().all(|stmt| match &stmt.kind {
        StmtKind::Assign {
            place: Place::Local(id),
            value,
        } => id.index() < N_SLOTS && legal_expr(value),
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => legal_expr(cond) && legal_in_both_halves(then_blk) && legal_in_both_halves(else_blk),
        StmtKind::While { cond, body } => legal_expr(cond) && legal_in_both_halves(body),
        StmtKind::Break | StmtKind::Continue | StmtKind::Nop => true,
        _ => false,
    })
}

fn legal_expr(e: &Expr) -> bool {
    let mut legal = true;
    e.walk(&mut |sub| {
        legal &= match sub {
            Expr::Const(_) | Expr::Unary { .. } | Expr::Binary { .. } => true,
            Expr::Local(id) => id.index() < N_SLOTS,
            Expr::BuiltinCall { builtin, .. } => *builtin != Builtin::Len,
            _ => false,
        }
    });
    legal
}

/// `fn main(s0, .., s4) { block; print(s0); .. print(s4); }`, each
/// parameter typed as its starting value.
fn open_main(block: &Block, slots: &[RtValue]) -> Program {
    let mut fb = FnBuilder::new("main", Ty::Void);
    for (i, v) in slots.iter().enumerate() {
        let ty = match v {
            RtValue::Bool(_) => Ty::Bool,
            RtValue::Float(_) => Ty::Float,
            _ => Ty::Int,
        };
        fb.param(format!("s{i}"), ty);
    }
    for stmt in &block.stmts {
        fb.push(stmt.kind.clone());
    }
    for i in 0..slots.len() {
        fb.print(Expr::local(LocalId::new(i)));
    }
    let mut program = Program::new();
    program.add_function(fb.finish());
    program
}

/// Runs a block legal in both halves as an open `main` on the VM and the
/// reference, and as a fragment on the VM, at every limit. Returns whether
/// the halves were compared on their final slots at some limit.
fn check_as_open(block: &Block, vars: &[RtValue], args: &[Value]) -> bool {
    let slots: Vec<RtValue> = vars
        .iter()
        .cloned()
        .chain(args.iter().map(|&v| RtValue::from_const(v)))
        .collect();
    let program = open_main(block, &slots);
    let fragment = Fragment {
        label: FragLabel::new(7),
        params: (0..N_PARAMS).map(|i| (format!("p{i}"), Ty::Int)).collect(),
        body: block.clone(),
        ret: None,
    };
    let compiled = compile_fragment(&fragment, N_VARS);
    let mut crossed = false;
    for limit in LIMITS {
        let context = format!("limit {limit}\nblock: {block:?}\nslots: {slots:?}");
        let open = Interp::new(&program, ExecConfig::new())
            .with_limits(limit, 1)
            .run("main", &slots);
        let walk = run_function(&program, "main", &slots, limit, 1);
        assert_same(&open, &walk, &context);
        let mut hidden_vars = vars.to_vec();
        let hidden = run_compiled_with_limit(&compiled, &mut hidden_vars, args, limit);
        match (&hidden, &open) {
            // A top-level `break` ends the open body before its prints.
            (Ok(hidden), Ok(open)) if open.output.len() == N_SLOTS => {
                let state: Vec<String> = hidden_vars.iter().map(ToString::to_string).collect();
                assert_eq!(state, open.output[..N_VARS], "final slots, {context}");
                assert_eq!(
                    hidden.cost - COST_MODEL.marshal_per_arg * N_PARAMS as u64,
                    open.cost - COST_MODEL.call - COST_MODEL.print * N_SLOTS as u64,
                    "cost of the block, {context}"
                );
                crossed = true;
            }
            (Ok(_), Ok(_) | Err(RuntimeError::StepLimitExceeded { .. })) => {}
            _ => assert_eq!(hidden.as_ref().err(), open.as_ref().err(), "{context}"),
        }
    }
    crossed
}

/// Generated blocks legal in both halves run as open code too. Beside the
/// open run's parity with the reference, both halves must end with the
/// same slots, at the same cost, or fail with the same error; the fragment
/// alone may finish when the open run's prints meet the step limit, or a
/// top-level `break` skips them.
#[test]
fn open_vm_runs_legal_blocks_like_the_fragment_vm() {
    let mut crossed = 0;
    let strategy = (
        fragment_strategy(),
        vars_strategy(),
        value_strategy(),
        value_strategy(),
    );
    TestRunner::new(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })
    .run(&strategy, |(fragment, vars, a0, a1)| {
        if legal_in_both_halves(&fragment.body) {
            crossed += usize::from(check_as_open(&fragment.body, &vars, &[a0, a1]));
        }
    });
    // The generator must keep reaching the comparison of the two halves.
    assert!(
        crossed >= 96,
        "only {crossed} blocks compared across halves"
    );
}
