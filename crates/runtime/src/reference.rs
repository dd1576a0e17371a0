//! Reference semantics of both halves of a split program: a plain
//! tree-walk over the AST.
//!
//! Open functions and hidden fragments both run on the bytecode VM
//! ([`crate::bytecode`]); this test-only module is the executable
//! specification the VM is checked against (`open_vm_differential.rs` for
//! open code, `vm_differential.rs` and the bytecode unit tests for
//! fragments). One walk runs both: [`run_function`] runs a function of an
//! unsplit [`Program`] against its frame's locals, and [`run_hidden`] runs
//! a [`Fragment`] against its component's persistent hidden variables and
//! the scalar arguments shipped by the open side. It has no fast paths and
//! no split-execution support: in open code a [`StmtKind::HiddenCall`]
//! fails with [`RuntimeError::NoChannel`].
//!
//! A fragment differs from open code only where the fragment subset does:
//! the open side's marshalling charge per argument, a range check on every
//! slot, `len` (which needs an array, so it is illegal in a fragment), and
//! the constructs a fragment may not contain (aggregates, globals, calls,
//! `print`, `return`, nested hidden calls), each of which raises
//! [`RuntimeError::IllegalFragmentOp`] when evaluation reaches it.

use crate::cost::COST_MODEL;
use crate::error::RuntimeError;
use crate::interp::{initial_globals, Outcome};
use crate::ops::{self, mismatch};
use crate::server::FragOutcome;
use crate::value::{ObjData, RtValue};
use hps_ir::{
    BinOp, Block, Builtin, Expr, Fragment, FuncId, LocalId, Place, Program, StmtKind, Ty, Value,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Runs a named free function of an unsplit program by walking its AST,
/// with explicit step and call-depth limits.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for execution faults, a missing or ill-typed
/// entry function, or a hidden call.
pub(crate) fn run_function(
    program: &Program,
    name: &str,
    args: &[RtValue],
    max_steps: u64,
    max_call_depth: usize,
) -> Result<Outcome, RuntimeError> {
    let fid = program
        .func_by_name(name)
        .ok_or_else(|| RuntimeError::NoSuchFunction(name.to_string()))?;
    let func = program.func(fid);
    if args.len() != func.num_params {
        return Err(RuntimeError::BadEntryArgs(format!(
            "`{name}` takes {} argument(s), got {}",
            func.num_params,
            args.len()
        )));
    }
    let mut walk = Walk::new(program, max_steps, max_call_depth, false);
    let ret = walk.call(fid, args.to_vec())?;
    Ok(Outcome {
        ret,
        output: walk.output,
        cost: walk.cost,
        steps: walk.steps,
    })
}

/// Runs a fragment by walking its AST, with an explicit step limit.
///
/// `vars` is the component's persistent hidden state for the addressed
/// activation or instance; it is updated in place when the fragment
/// succeeds. The fragment's slots are `vars` followed by `args`.
///
/// # Errors
///
/// Returns [`RuntimeError::Channel`] for an argument count that differs
/// from the fragment's parameters, [`RuntimeError::IllegalFragmentOp`] for
/// constructs fragments may not contain, and execution faults as in open
/// code.
pub(crate) fn run_hidden(
    fragment: &Fragment,
    vars: &mut [RtValue],
    args: &[Value],
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
    let program = Program::new();
    let mut walk = Walk::new(&program, limit, 0, true);
    walk.cost = COST_MODEL.marshal_per_arg * args.len() as u64;
    let mut slots = vars.to_vec();
    slots.extend(args.iter().map(|&v| RtValue::from_const(v)));
    // A `break` or `continue` outside a loop ends the body.
    walk.block(&mut slots, &fragment.body)?;
    let value = match &fragment.ret {
        Some(e) => walk
            .eval(&mut slots, e)?
            .to_const()
            .ok_or(RuntimeError::TypeMismatch {
                expected: "scalar return",
                found: "aggregate",
            })?,
        None => Value::Int(0),
    };
    vars.clone_from_slice(&slots[..vars.len()]);
    Ok(FragOutcome {
        value,
        cost: walk.cost,
    })
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(RtValue),
}

struct Walk<'p> {
    program: &'p Program,
    max_steps: u64,
    max_call_depth: usize,
    globals: Vec<RtValue>,
    output: Vec<String>,
    cost: u64,
    steps: u64,
    depth: usize,
    next_instance: u64,
    /// Runs a fragment: the subset's checks apply.
    fragment: bool,
}

impl<'p> Walk<'p> {
    fn new(program: &'p Program, max_steps: u64, max_call_depth: usize, fragment: bool) -> Self {
        Walk {
            program,
            max_steps,
            max_call_depth,
            globals: initial_globals(program),
            output: Vec::new(),
            cost: 0,
            steps: 0,
            depth: 0,
            next_instance: 1,
            fragment,
        }
    }

    /// Runs one call; `locals` holds the evaluated arguments.
    fn call(&mut self, fid: FuncId, mut locals: Vec<RtValue>) -> Result<RtValue, RuntimeError> {
        self.depth += 1;
        if self.depth > self.max_call_depth {
            return Err(RuntimeError::StackOverflow {
                limit: self.max_call_depth,
            });
        }
        self.cost += COST_MODEL.call;
        let func = self.program.func(fid);
        for d in &func.locals[locals.len()..] {
            locals.push(RtValue::default_of(&d.ty));
        }
        let flow = self.block(&mut locals, &func.body)?;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            // Falling off the end returns the zero value of the return
            // type; `void` functions return an `Int 0` placeholder.
            _ => match &func.ret_ty {
                Ty::Void => RtValue::Int(0),
                ty => RtValue::default_of(ty),
            },
        })
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(RuntimeError::StepLimitExceeded {
                limit: self.max_steps,
            });
        }
        Ok(())
    }

    fn block(&mut self, locals: &mut Vec<RtValue>, block: &Block) -> Result<Flow, RuntimeError> {
        for stmt in &block.stmts {
            self.tick()?;
            if let Some(what) = self.illegal_stmt(&stmt.kind) {
                return Err(RuntimeError::IllegalFragmentOp(what));
            }
            match &stmt.kind {
                StmtKind::Assign { place, value } => {
                    let v = self.eval(locals, value)?;
                    self.cost += COST_MODEL.assign;
                    self.assign(locals, place, v)?;
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.cost += COST_MODEL.branch;
                    let flow = if self.truthy(locals, cond)? {
                        self.block(locals, then_blk)?
                    } else {
                        self.block(locals, else_blk)?
                    };
                    if !matches!(flow, Flow::Normal) {
                        return Ok(flow);
                    }
                }
                StmtKind::While { cond, body } => loop {
                    self.tick()?;
                    self.cost += COST_MODEL.branch;
                    if !self.truthy(locals, cond)? {
                        break;
                    }
                    match self.block(locals, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                },
                StmtKind::Return(e) => {
                    let v = match e {
                        Some(e) => self.eval(locals, e)?,
                        None => RtValue::Int(0),
                    };
                    return Ok(Flow::Return(v));
                }
                StmtKind::Break => return Ok(Flow::Break),
                StmtKind::Continue => return Ok(Flow::Continue),
                StmtKind::ExprStmt(e) => {
                    self.eval(locals, e)?;
                }
                StmtKind::Print(e) => {
                    let v = self.eval(locals, e)?;
                    self.cost += COST_MODEL.print;
                    self.output.push(v.to_string());
                }
                StmtKind::HiddenCall { .. } => return Err(RuntimeError::NoChannel),
                StmtKind::Nop => {}
            }
        }
        Ok(Flow::Normal)
    }

    fn truthy(&mut self, locals: &mut Vec<RtValue>, cond: &Expr) -> Result<bool, RuntimeError> {
        match self.eval(locals, cond)? {
            RtValue::Bool(b) => Ok(b),
            v => Err(mismatch("bool condition", &v)),
        }
    }

    fn read_place(
        &mut self,
        locals: &mut Vec<RtValue>,
        place: &Place,
    ) -> Result<RtValue, RuntimeError> {
        match place {
            Place::Local(id) => Ok(locals[id.index()].clone()),
            Place::Global(id) => Ok(self.globals[id.index()].clone()),
            Place::Index { base, index } => {
                let arr = self.read_place(locals, base)?;
                let idx = self.index(locals, index)?;
                self.cost += COST_MODEL.index;
                elem(&arr, idx).map(|e| e.clone())
            }
            Place::Field { obj, field, .. } => {
                let o = self.eval(locals, obj)?;
                self.cost += COST_MODEL.field;
                let v = o.object()?.borrow().fields[field.index()].clone();
                Ok(v)
            }
        }
    }

    /// Stores `value`; the place's index and receiver are evaluated now,
    /// after the value.
    fn assign(
        &mut self,
        locals: &mut Vec<RtValue>,
        place: &Place,
        value: RtValue,
    ) -> Result<(), RuntimeError> {
        match place {
            Place::Local(id) => *slot(locals, *id)? = value,
            _ if self.fragment => {
                return Err(RuntimeError::IllegalFragmentOp(
                    "aggregate store in fragment",
                ))
            }
            Place::Global(id) => self.globals[id.index()] = value,
            Place::Index { base, index } => {
                let arr = self.read_place(locals, base)?;
                let idx = self.index(locals, index)?;
                self.cost += COST_MODEL.index;
                *elem(&arr, idx)? = value;
            }
            Place::Field { obj, field, .. } => {
                let o = self.eval(locals, obj)?;
                self.cost += COST_MODEL.field;
                o.object()?.borrow_mut().fields[field.index()] = value;
            }
        }
        Ok(())
    }

    fn index(&mut self, locals: &mut Vec<RtValue>, index: &Expr) -> Result<i64, RuntimeError> {
        match self.eval(locals, index)? {
            RtValue::Int(i) => Ok(i),
            v => Err(mismatch("int index", &v)),
        }
    }

    fn eval(&mut self, locals: &mut Vec<RtValue>, e: &Expr) -> Result<RtValue, RuntimeError> {
        if let Some(what) = self.illegal_expr(e) {
            return Err(RuntimeError::IllegalFragmentOp(what));
        }
        Ok(match e {
            Expr::Const(v) => RtValue::from_const(*v),
            Expr::Local(id) => slot(locals, *id)?.clone(),
            Expr::Global(id) => self.globals[id.index()].clone(),
            Expr::Index { base, index } => {
                let arr = self.eval(locals, base)?;
                let idx = self.index(locals, index)?;
                self.cost += COST_MODEL.index;
                let v = elem(&arr, idx)?.clone();
                v
            }
            Expr::FieldGet { obj, field, .. } => {
                let o = self.eval(locals, obj)?;
                self.cost += COST_MODEL.field;
                let v = o.object()?.borrow().fields[field.index()].clone();
                v
            }
            Expr::Unary { op, arg } => {
                self.cost += COST_MODEL.unop;
                let a = self.eval(locals, arg)?;
                ops::unop(*op, &a)?
            }
            Expr::Binary { op, lhs, rhs } => {
                self.cost += COST_MODEL.binop;
                match op {
                    BinOp::And if !self.truthy(locals, lhs)? => RtValue::Bool(false),
                    BinOp::Or if self.truthy(locals, lhs)? => RtValue::Bool(true),
                    BinOp::And | BinOp::Or => self.eval(locals, rhs)?,
                    _ => {
                        let a = self.eval(locals, lhs)?;
                        let b = self.eval(locals, rhs)?;
                        ops::binop(*op, &a, &b)?
                    }
                }
            }
            Expr::Call { callee, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(locals, a)?);
                }
                self.call(callee.func(), vals)?
            }
            Expr::BuiltinCall { builtin, args } => {
                self.cost += COST_MODEL.builtin_cost(*builtin);
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(locals, a)?);
                }
                match (builtin, vals.as_slice()) {
                    // In a fragment `len` is illegal: `ops::builtin` says so.
                    (Builtin::Len, [v]) if !self.fragment => {
                        RtValue::Int(v.array()?.borrow().len() as i64)
                    }
                    _ => ops::builtin(*builtin, &vals)?,
                }
            }
            Expr::NewArray { elem, len } => {
                let n = self.index(locals, len)?;
                if n < 0 {
                    return Err(RuntimeError::IndexOutOfBounds { index: n, len: 0 });
                }
                self.cost += COST_MODEL.alloc_per_elem * n as u64;
                RtValue::new_array(elem, n as usize)
            }
            Expr::NewObject(class) => {
                self.cost += COST_MODEL.alloc_object;
                let instance_id = self.next_instance;
                self.next_instance += 1;
                RtValue::Object(Rc::new(RefCell::new(ObjData {
                    class: *class,
                    instance_id,
                    fields: self
                        .program
                        .class(*class)
                        .fields
                        .iter()
                        .map(|f| RtValue::default_of(&f.ty))
                        .collect(),
                })))
            }
        })
    }

    /// The error text of a statement a fragment may not contain.
    fn illegal_stmt(&self, kind: &StmtKind) -> Option<&'static str> {
        if !self.fragment {
            return None;
        }
        match kind {
            StmtKind::Return(_) => Some("return in fragment"),
            StmtKind::Print(_) => Some("print in fragment"),
            StmtKind::ExprStmt(_) => Some("call in fragment"),
            StmtKind::HiddenCall { .. } => Some("nested hidden call"),
            _ => None,
        }
    }

    /// The error text of an expression a fragment may not contain.
    fn illegal_expr(&self, e: &Expr) -> Option<&'static str> {
        if !self.fragment {
            return None;
        }
        match e {
            Expr::Global(_) => Some("global access in fragment"),
            Expr::Index { .. } => Some("array access in fragment"),
            Expr::FieldGet { .. } => Some("field access in fragment"),
            Expr::Call { .. } => Some("call in fragment"),
            Expr::NewArray { .. } | Expr::NewObject(_) => Some("allocation in fragment"),
            _ => None,
        }
    }
}

/// Local or fragment slot `id`; a fragment's references are checked
/// against its slots when they run.
fn slot(locals: &mut [RtValue], id: LocalId) -> Result<&mut RtValue, RuntimeError> {
    locals
        .get_mut(id.index())
        .ok_or(RuntimeError::IllegalFragmentOp("out-of-range hidden slot"))
}

/// Element `idx` of an array value, borrowed for reading or writing.
fn elem(arr: &RtValue, idx: i64) -> Result<std::cell::RefMut<'_, RtValue>, RuntimeError> {
    let a = arr.array()?;
    let len = a.borrow().len();
    match usize::try_from(idx) {
        Ok(i) if i < len => Ok(std::cell::RefMut::map(a.borrow_mut(), |v| &mut v[i])),
        _ => Err(RuntimeError::IndexOutOfBounds { index: idx, len }),
    }
}
