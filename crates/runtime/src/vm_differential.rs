//! Differential property test: the fragment bytecode VM ([`crate::bytecode`])
//! must be observationally identical to the reference tree-walk
//! ([`crate::reference`]) on generated fragments — same returned value,
//! same hidden-variable state, same cost units, and the same
//! [`crate::RuntimeError`] (including `StepLimitExceeded` firing at exactly
//! the same statement count).
//!
//! The fragments come from the workspace's generator
//! ([`hps_gen::fragment`]): typed blocks over typed slots, most of which
//! run to the end, so value parity is checked on arithmetic, `&&`/`||`,
//! casts and loops that compute. Small-weight arms keep error parity
//! reachable: division by zero, slots holding a value of another type,
//! out-of-range slot references, `len` (an array builtin, illegal in a
//! fragment) and statements that are illegal inside fragments (`print`,
//! `return`).
//!
//! The two halves of a split run one program, so a block legal in both
//! must mean the same in both: each block the generator marks legal also
//! runs as the body of an open `main` whose parameters are the fragment's
//! slots, on the open VM against the same reference, and the slots it
//! prints must be the fragment VM's final hidden state.

use crate::bytecode::{compile_fragment, run_compiled_with_limit};
use crate::interp::{ExecConfig, Interp};
use crate::open_vm_differential::{assert_same, guard_rows, SPECIALISED_FORMS};
use crate::reference::{run_function, run_hidden};
use crate::{RtValue, RuntimeError, COST_MODEL};
use hps_gen::{FragmentCase, FRAGMENT_PARAMS as N_PARAMS, FRAGMENT_VARS as N_VARS};
use hps_ir::build::FnBuilder;
use hps_ir::{Block, Expr, FragLabel, Fragment, FuncId, LocalId, Program, StmtKind, Ty, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

const N_SLOTS: usize = N_VARS + N_PARAMS;

/// The generated block as a fragment: the body of `frag`, whose trailing
/// `return`, if it returns a value, becomes the fragment's result; with
/// the declared types of its hidden variables, which the values a case
/// starts them with need not have.
fn fragment_of(case: &FragmentCase) -> (Fragment, Vec<Ty>) {
    let program = hps_lang::parse(&case.src).unwrap_or_else(|e| panic!("{e}\n{}", case.src));
    let f = program.func(FuncId::new(0));
    let mut body = f.body.clone();
    let ret = match f.ret_ty {
        Ty::Void => None,
        _ => match body.stmts.pop().map(|s| s.kind) {
            Some(StmtKind::Return(e)) => e,
            other => unreachable!("`frag` ends in its return, not {other:?}"),
        },
    };
    let fragment = Fragment {
        label: FragLabel::new(7),
        params: f.locals[N_VARS..N_SLOTS]
            .iter()
            .map(|l| (l.name.clone(), l.ty.clone()))
            .collect(),
        body,
        ret,
    };
    let var_tys = f.locals[..N_VARS].iter().map(|l| l.ty.clone()).collect();
    (fragment, var_tys)
}

fn vars_of(case: &FragmentCase) -> Vec<RtValue> {
    case.vars.iter().map(|&v| RtValue::from_const(v)).collect()
}

/// Step limits for fragments: limit 1 pins the very first tick; 2000 lets
/// fragments finish.
const LIMITS: [u64; 4] = [1, 2, 7, 2_000];

/// Runs the fragment through both engines at the given limit and asserts
/// byte-identical observable behaviour, compared as debug text so that a
/// NaN equals itself. True when the run ended `Ok`.
fn check_parity(
    (fragment, var_tys): &(Fragment, Vec<Ty>),
    vars: &[RtValue],
    args: &[Value],
    limit: u64,
) -> bool {
    let mut tree_vars = vars.to_vec();
    let mut vm_vars = vars.to_vec();
    let tree = run_hidden(fragment, &mut tree_vars, args, limit);
    let compiled = compile_fragment(fragment, var_tys);
    let vm = run_compiled_with_limit(&compiled, &mut vm_vars, args, limit);
    assert_eq!(
        format!("{tree:?}"),
        format!("{vm:?}"),
        "engines diverged at limit {limit}\nfragment: {fragment:?}\nvars: {vars:?}\nargs: {args:?}"
    );
    assert_eq!(
        format!("{tree_vars:?}"),
        format!("{vm_vars:?}"),
        "hidden state diverged at limit {limit}\nfragment: {fragment:?}"
    );
    vm.is_ok()
}

/// Generated fragments with correct arity: identical value, hidden state,
/// cost and error across a spread of step limits. At least half run to
/// the end at the largest limit, so parity covers computed values, not
/// only errors.
#[test]
fn vm_matches_tree_walk() {
    let mut finished = 0;
    TestRunner::new(ProptestConfig::default()).run(&hps_gen::fragment(), |case| {
        let fragment = fragment_of(&case);
        for limit in LIMITS {
            let ok = check_parity(&fragment, &vars_of(&case), &case.args, limit);
            finished += usize::from(ok && limit == 2_000);
        }
    });
    let cases = ProptestConfig::default().cases as usize;
    eprintln!("{finished} of {cases} runs ended `Ok`");
    assert!(
        2 * finished >= cases,
        "only {finished} of {cases} runs ended `Ok`"
    );
}

proptest! {
    /// Arity mismatches must produce the same Channel error before any
    /// statement executes in either engine.
    #[test]
    fn vm_matches_tree_walk_on_bad_arity(case in hps_gen::fragment(), n_args in 0usize..5) {
        if n_args == N_PARAMS {
            return; // covered by vm_matches_tree_walk
        }
        let args: Vec<Value> = (0..n_args as i64).map(Value::Int).collect();
        check_parity(&fragment_of(&case), &vars_of(&case), &args, 2_000);
    }

    /// Non-integer arguments exercise type-confusion paths (bool conditions,
    /// float arithmetic, casts) through both engines.
    #[test]
    fn vm_matches_tree_walk_on_mixed_arg_types(
        case in hps_gen::fragment(),
        a0 in prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            (-6i64..7).prop_map(|n| Value::Float(n as f64 * 0.5)),
        ],
    ) {
        let args = [a0, case.args[1]];
        check_parity(&fragment_of(&case), &vars_of(&case), &args, 2_000);
    }
}

/// Every specialised form in a fragment whose slots are declared `int` and
/// `float`, on values of those types and of others, from the hidden state
/// (arrays too) and from the wire: the same value or error, hidden state
/// and cost as the reference, at every limit.
#[test]
fn vm_matches_tree_walk_when_specialised_guards_miss() {
    for stmt in SPECIALISED_FORMS {
        let case = FragmentCase {
            src: format!(
                "fn frag(d: int, f: float, x: int, y: int, g: float) -> int {{ {stmt} return d; }}"
            ),
            vars: Vec::new(),
            args: Vec::new(),
            legal: true,
        };
        let fragment = fragment_of(&case);
        for row in guard_rows() {
            let (vars, args) = row.split_at(N_VARS);
            let args: Vec<Value> = args
                .iter()
                .map(|v| v.to_const().expect("a scalar argument"))
                .collect();
            for limit in LIMITS {
                check_parity(&fragment, vars, &args, limit);
            }
        }
    }
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

/// Runs the body of a fragment legal in both halves as an open `main` on
/// the VM and the reference, and as a fragment on the VM, at every limit.
/// Returns whether the halves were compared on their final slots at some
/// limit.
fn check_as_open(
    (fragment, var_tys): &(Fragment, Vec<Ty>),
    vars: &[RtValue],
    args: &[Value],
) -> bool {
    let block = &fragment.body;
    let slots: Vec<RtValue> = vars
        .iter()
        .cloned()
        .chain(args.iter().map(|&v| RtValue::from_const(v)))
        .collect();
    let program = open_main(block, &slots);
    let fragment = Fragment {
        ret: None,
        ..fragment.clone()
    };
    let compiled = compile_fragment(&fragment, var_tys);
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
/// alone may finish when the open run's prints meet the step limit.
#[test]
fn open_vm_runs_legal_blocks_like_the_fragment_vm() {
    let mut crossed = 0;
    TestRunner::new(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })
    .run(&hps_gen::fragment(), |case| {
        if case.legal {
            crossed += usize::from(check_as_open(
                &fragment_of(&case),
                &vars_of(&case),
                &case.args,
            ));
        }
    });
    eprintln!("{crossed} blocks compared across halves");
    // The generator must keep reaching the comparison of the two halves.
    assert!(
        crossed >= 256,
        "only {crossed} blocks compared across halves"
    );
}
