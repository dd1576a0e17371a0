//! Reference fragment semantics: a tree-walk over the [`Fragment`] AST,
//! compiled only for the crate's tests.
//!
//! [`crate::server::SecureServer`] runs every fragment on the bytecode VM
//! ([`crate::bytecode`]); this module is the executable specification the
//! VM is checked against (the crate's `vm_differential` tests and the
//! bytecode unit tests).
//!
//! [`run_fragment`] runs one fragment against a component's persistent
//! hidden variables and the scalar arguments shipped by the open side.
//! Fragments are restricted by construction (scalar-only, no calls, no
//! aggregates, no returns); anything outside that subset raises
//! [`RuntimeError::IllegalFragmentOp`] — it would indicate a splitter bug.

use crate::bytecode::FRAGMENT_STEP_LIMIT;
use crate::cost::COST_MODEL;
use crate::error::RuntimeError;
use crate::ops;
use crate::server::FragOutcome;
use crate::value::RtValue;
use hps_ir::{Block, Expr, Fragment, Place, StmtKind};

struct FragFrame {
    /// vars ++ params, per the fragment numbering convention.
    slots: Vec<RtValue>,
    n_vars: usize,
    cost: u64,
    steps: u64,
    limit: u64,
}

/// Executes a fragment by walking its AST (the reference the VM must
/// match).
///
/// `vars` is the component's persistent hidden state for the addressed
/// activation/instance; it is updated in place.
///
/// # Errors
///
/// Returns [`RuntimeError::IllegalFragmentOp`] for constructs fragments may
/// not contain, [`RuntimeError::DivisionByZero`] from arithmetic, and
/// [`RuntimeError::StepLimitExceeded`] if the fragment runs away.
pub fn run_fragment(
    fragment: &Fragment,
    vars: &mut [RtValue],
    args: &[hps_ir::Value],
) -> Result<FragOutcome, RuntimeError> {
    run_fragment_with_limit(fragment, vars, args, FRAGMENT_STEP_LIMIT)
}

/// [`run_fragment`] with an explicit step limit. Differential tests use
/// small limits to pin the exact statement count at which
/// [`RuntimeError::StepLimitExceeded`] fires in both the tree-walk and the
/// bytecode VM ([`crate::bytecode`]).
///
/// # Errors
///
/// As [`run_fragment`], with `StepLimitExceeded` carrying `limit`.
pub fn run_fragment_with_limit(
    fragment: &Fragment,
    vars: &mut [RtValue],
    args: &[hps_ir::Value],
    limit: u64,
) -> Result<FragOutcome, RuntimeError> {
    if args.len() != fragment.params.len() {
        return Err(RuntimeError::Channel(format!(
            "fragment {} expects {} args, got {}",
            fragment.label,
            fragment.params.len(),
            args.len()
        )));
    }
    let mut slots: Vec<RtValue> = vars.to_vec();
    slots.extend(args.iter().map(|&v| RtValue::from_const(v)));
    let mut frame = FragFrame {
        slots,
        n_vars: vars.len(),
        cost: COST_MODEL.marshal_per_arg * args.len() as u64,
        steps: 0,
        limit,
    };
    frame.exec_block(&fragment.body)?;
    let value = match &fragment.ret {
        Some(e) => {
            let v = frame.eval(e)?;
            v.to_const().ok_or(RuntimeError::TypeMismatch {
                expected: "scalar return",
                found: "aggregate",
            })?
        }
        None => hps_ir::Value::Int(0),
    };
    // Write persistent state back.
    vars.clone_from_slice(&frame.slots[..frame.n_vars]);
    Ok(FragOutcome {
        value,
        cost: frame.cost,
    })
}

enum Flow {
    Normal,
    Break,
    Continue,
}

impl FragFrame {
    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.limit {
            return Err(RuntimeError::StepLimitExceeded { limit: self.limit });
        }
        Ok(())
    }

    fn exec_block(&mut self, block: &Block) -> Result<Flow, RuntimeError> {
        for stmt in &block.stmts {
            self.tick()?;
            match &stmt.kind {
                StmtKind::Assign { place, value } => {
                    let v = self.eval(value)?;
                    self.cost += COST_MODEL.assign;
                    match place {
                        Place::Local(id) => {
                            let idx = id.index();
                            if idx >= self.slots.len() {
                                return Err(RuntimeError::IllegalFragmentOp(
                                    "out-of-range hidden slot",
                                ));
                            }
                            self.slots[idx] = v;
                        }
                        _ => {
                            return Err(RuntimeError::IllegalFragmentOp(
                                "aggregate store in fragment",
                            ))
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.cost += COST_MODEL.branch;
                    let taken = self.truthy(cond)?;
                    let flow = if taken {
                        self.exec_block(then_blk)?
                    } else {
                        self.exec_block(else_blk)?
                    };
                    match flow {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                StmtKind::While { cond, body } => loop {
                    self.tick()?;
                    self.cost += COST_MODEL.branch;
                    if !self.truthy(cond)? {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                    }
                },
                StmtKind::Break => return Ok(Flow::Break),
                StmtKind::Continue => return Ok(Flow::Continue),
                StmtKind::Nop => {}
                StmtKind::Return(_) => {
                    return Err(RuntimeError::IllegalFragmentOp("return in fragment"))
                }
                StmtKind::Print(_) => {
                    return Err(RuntimeError::IllegalFragmentOp("print in fragment"))
                }
                StmtKind::ExprStmt(_) => {
                    return Err(RuntimeError::IllegalFragmentOp("call in fragment"))
                }
                StmtKind::HiddenCall { .. } => {
                    return Err(RuntimeError::IllegalFragmentOp("nested hidden call"))
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn truthy(&mut self, cond: &Expr) -> Result<bool, RuntimeError> {
        match self.eval(cond)? {
            RtValue::Bool(b) => Ok(b),
            v => Err(RuntimeError::TypeMismatch {
                expected: "bool condition",
                found: v.type_name(),
            }),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<RtValue, RuntimeError> {
        Ok(match e {
            Expr::Const(v) => RtValue::from_const(*v),
            Expr::Local(id) => {
                let idx = id.index();
                if idx >= self.slots.len() {
                    return Err(RuntimeError::IllegalFragmentOp("out-of-range hidden slot"));
                }
                self.slots[idx].clone()
            }
            Expr::Unary { op, arg } => {
                self.cost += COST_MODEL.unop;
                let a = self.eval(arg)?;
                ops::unop(*op, &a)?
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit like the open side.
                if *op == hps_ir::BinOp::And {
                    self.cost += COST_MODEL.binop;
                    return if self.truthy(lhs)? {
                        self.eval(rhs)
                    } else {
                        Ok(RtValue::Bool(false))
                    };
                }
                if *op == hps_ir::BinOp::Or {
                    self.cost += COST_MODEL.binop;
                    return if self.truthy(lhs)? {
                        Ok(RtValue::Bool(true))
                    } else {
                        self.eval(rhs)
                    };
                }
                self.cost += COST_MODEL.binop;
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                ops::binop(*op, &a, &b)?
            }
            Expr::BuiltinCall { builtin, args } => {
                self.cost += COST_MODEL.builtin_cost(*builtin);
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                ops::builtin(*builtin, &vals)?
            }
            Expr::Global(_) => {
                return Err(RuntimeError::IllegalFragmentOp("global access in fragment"))
            }
            Expr::Index { .. } => {
                return Err(RuntimeError::IllegalFragmentOp("array access in fragment"))
            }
            Expr::FieldGet { .. } => {
                return Err(RuntimeError::IllegalFragmentOp("field access in fragment"))
            }
            Expr::Call { .. } => return Err(RuntimeError::IllegalFragmentOp("call in fragment")),
            Expr::NewArray { .. } | Expr::NewObject(_) => {
                return Err(RuntimeError::IllegalFragmentOp("allocation in fragment"))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{BinOp, FragLabel, LocalId, Stmt, Ty, Value};

    fn frag(body: Vec<Stmt>, params: usize, ret: Option<Expr>) -> Fragment {
        Fragment {
            label: FragLabel::new(0),
            params: (0..params).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        }
    }

    #[test]
    fn updates_persistent_state_and_returns() {
        // vars = [a]; L0(p0): a = a + p0; return a * 2
        let f = frag(
            vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(0)),
                value: Expr::binary(
                    BinOp::Add,
                    Expr::local(LocalId::new(0)),
                    Expr::local(LocalId::new(1)),
                ),
            })],
            1,
            Some(Expr::binary(
                BinOp::Mul,
                Expr::local(LocalId::new(0)),
                Expr::int(2),
            )),
        );
        let mut vars = vec![RtValue::Int(10)];
        let out = run_fragment(&f, &mut vars, &[Value::Int(5)]).unwrap();
        assert_eq!(out.value, Value::Int(30));
        assert_eq!(vars[0], RtValue::Int(15));
        assert!(out.cost > 0);
    }

    #[test]
    fn hidden_loop_executes() {
        // vars=[sum, i]; L0(z): while (i < z) { sum = sum + i; i = i + 1; } ret sum
        let sum = LocalId::new(0);
        let i = LocalId::new(1);
        let z = LocalId::new(2);
        let body = vec![Stmt::new(StmtKind::While {
            cond: Expr::binary(BinOp::Lt, Expr::local(i), Expr::local(z)),
            body: Block::of(vec![
                Stmt::new(StmtKind::Assign {
                    place: Place::Local(sum),
                    value: Expr::binary(BinOp::Add, Expr::local(sum), Expr::local(i)),
                }),
                Stmt::new(StmtKind::Assign {
                    place: Place::Local(i),
                    value: Expr::binary(BinOp::Add, Expr::local(i), Expr::int(1)),
                }),
            ]),
        })];
        let f = frag(body, 1, Some(Expr::local(sum)));
        let mut vars = vec![RtValue::Int(0), RtValue::Int(3)];
        let out = run_fragment(&f, &mut vars, &[Value::Int(6)]).unwrap();
        // 3 + 4 + 5 = 12
        assert_eq!(out.value, Value::Int(12));
        assert_eq!(vars[1], RtValue::Int(6));
    }

    #[test]
    fn param_writes_do_not_leak_back() {
        // Writing a param slot is allowed inside the fragment but does not
        // affect persistent state.
        let f = frag(
            vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(1)),
                value: Expr::int(99),
            })],
            1,
            Some(Expr::local(LocalId::new(1))),
        );
        let mut vars = vec![RtValue::Int(7)];
        let out = run_fragment(&f, &mut vars, &[Value::Int(1)]).unwrap();
        assert_eq!(out.value, Value::Int(99));
        assert_eq!(vars[0], RtValue::Int(7));
    }

    #[test]
    fn rejects_illegal_ops() {
        let f = frag(vec![Stmt::new(StmtKind::Return(None))], 0, None);
        let err = run_fragment(&f, &mut [], &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::IllegalFragmentOp(_)));

        let f = frag(vec![Stmt::new(StmtKind::Print(Expr::int(1)))], 0, None);
        assert!(run_fragment(&f, &mut [], &[]).is_err());
    }

    #[test]
    fn arg_count_mismatch_is_channel_error() {
        let f = frag(vec![], 2, None);
        let err = run_fragment(&f, &mut [], &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RuntimeError::Channel(_)));
    }

    #[test]
    fn none_return_yields_any_placeholder() {
        let f = frag(vec![], 0, None);
        let out = run_fragment(&f, &mut [], &[]).unwrap();
        assert_eq!(out.value, Value::Int(0));
    }

    #[test]
    fn short_circuit_and_or() {
        // return (false && (1/0 == 0)) || true  -- must not trap
        let f = frag(
            vec![],
            0,
            Some(Expr::binary(
                BinOp::Or,
                Expr::binary(
                    BinOp::And,
                    Expr::bool(false),
                    Expr::binary(
                        BinOp::Eq,
                        Expr::binary(BinOp::Div, Expr::int(1), Expr::int(0)),
                        Expr::int(0),
                    ),
                ),
                Expr::bool(true),
            )),
        );
        let out = run_fragment(&f, &mut [], &[]).unwrap();
        assert_eq!(out.value, Value::Bool(true));
    }
}
