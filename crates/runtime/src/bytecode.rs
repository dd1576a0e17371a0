//! Fragment bytecode compiler and virtual machine.
//!
//! The reference tree-walk in [`crate::fragment`] re-traverses the
//! [`Fragment`] AST on every call. This module lowers a fragment **once**
//! into a compact register bytecode ([`CompiledFragment`]) and executes it
//! with a flat dispatch loop ([`run_compiled`]) — the inner-interpreter
//! technique of classic Forth kernels. Lowering runs at split/handshake
//! time and the result is cached per server (and per shard) in a
//! [`VmCache`]; compiled code is plain `Send + Sync` data even though the
//! `RtValue` register file it operates on is not.
//!
//! # Lowering pipeline
//!
//! 1. **Constant folding** — pure-constant subtrees are evaluated at lower
//!    time with the *same* `ops` semantics the interpreter uses. A fold
//!    is only taken when the operator succeeds; subtrees that would trap
//!    at runtime (e.g. `1/0`) are lowered unfolded so the error still
//!    fires in evaluation order. Short-circuit operators fold only when
//!    the left side is a constant bool, preserving which operands the
//!    tree-walk would have evaluated.
//! 2. **Cost baking** — every cost-model charge the tree-walk makes is
//!    baked into `Instr::Cost` operands at lower time (including the
//!    charges of folded subtrees, so folding never changes the accounted
//!    cost). Adjacent charges in straight-line code are pre-summed.
//! 3. **Superinstructions** — the hot shapes get fused opcodes:
//!    load-const-op (constants ride inside `Operand::Const` instead of
//!    needing a load), compare-and-branch (`Instr::CmpBranch` for
//!    `if`/`while` over a comparison — the paper's predicate encodings
//!    live here as pre-resolved comparison opcodes), and accumulate
//!    (`Instr::Accum` for `x = x <op> e`).
//! 4. **Leak-point encoding** — illegal constructs (the splitter's leak
//!    points: aggregate access, calls, returns inside fragments) lower to
//!    `Instr::Illegal` carrying the exact diagnostic, emitted at the
//!    position evaluation would reach them, so the VM raises the same
//!    [`RuntimeError::IllegalFragmentOp`] at the same point.
//!
//! # Determinism rules
//!
//! The VM must be **observationally byte-identical** to
//! [`crate::fragment::run_fragment`]:
//!
//! * same returned value and same persistent hidden-var state;
//! * same total [`FragOutcome::cost`] on success (costs are charged
//!   before operand evaluation exactly where the tree-walk charges them;
//!   reordering within one statement is unobservable because errors
//!   discard cost);
//! * same step accounting — `Instr::Tick` is emitted once per statement
//!   and once per `while` iteration check, so `StepLimitExceeded` fires
//!   after the same number of statements;
//! * same [`RuntimeError`] variant for the first failing operation, in
//!   evaluation order.
//!
//! The differential proptest `tests/vm_differential.rs` pins this
//! contract on randomly generated fragments.

use crate::cost::COST_MODEL;
use crate::error::RuntimeError;
use crate::fragment::{FragOutcome, FRAGMENT_STEP_LIMIT};
use crate::ops;
use crate::value::RtValue;
use hps_ir::{BinOp, Block, Builtin, Expr, Fragment, HiddenProgram, Place, StmtKind, UnOp, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Register index into the VM register file. Registers `0 .. n_vars`
/// mirror the component's persistent hidden variables, `n_vars ..
/// n_slots` the call parameters, and the rest are compiler temporaries.
type Reg = u16;

/// An instruction input: a register or an immediate scalar constant.
///
/// Immediates are the "load-const-op" superinstruction: a constant
/// operand never needs a separate load or a register.
#[derive(Clone, Copy, Debug)]
enum Operand {
    /// Read a register.
    Reg(Reg),
    /// An immediate constant (possibly produced by constant folding).
    Const(Value),
}

/// One bytecode instruction.
///
/// Control-flow targets are absolute instruction indices, resolved at
/// lower time.
#[derive(Clone, Debug)]
enum Instr {
    /// One statement (or `while`-iteration) of step budget.
    Tick,
    /// Charge pre-summed virtual cost units.
    Cost(u64),
    /// `regs[dst] = src`.
    Load { dst: Reg, src: Operand },
    /// `regs[dst] = unop(op, src)`.
    Un { op: UnOp, dst: Reg, src: Operand },
    /// `regs[dst] = binop(op, lhs, rhs)`.
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// Accumulate superinstruction: `regs[slot] = binop(op, regs[slot], rhs)`.
    Accum { op: BinOp, slot: Reg, rhs: Operand },
    /// `regs[dst] = builtin(b, args)`.
    Builtin {
        b: Builtin,
        dst: Reg,
        args: Box<[Operand]>,
    },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Truthiness branch: jump to `target` when `cond` is `false`;
    /// non-bool raises the tree-walk's "bool condition" mismatch.
    BranchFalse { cond: Operand, target: u32 },
    /// Mirror of [`Instr::BranchFalse`] for `||` short-circuiting.
    BranchTrue { cond: Operand, target: u32 },
    /// Compare-and-branch superinstruction: jump to `target` when the
    /// comparison is `false`.
    CmpBranch {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
        target: u32,
    },
    /// A leak point the fragment subset forbids; raises
    /// [`RuntimeError::IllegalFragmentOp`] when execution reaches it.
    Illegal(&'static str),
    /// Return the scalar in `src` (aggregates raise the tree-walk's
    /// "scalar return" mismatch) and write hidden vars back.
    Ret { src: Operand },
    /// Return the `any` placeholder (`Int(0)`) and write hidden vars back.
    RetAny,
}

/// A fragment lowered to register bytecode. Plain data: `Send + Sync`,
/// safe to share across shard threads even though `RtValue` is not.
#[derive(Clone, Debug)]
pub struct CompiledFragment {
    code: Vec<Instr>,
    n_regs: usize,
    n_vars: usize,
    n_params: usize,
    label: hps_ir::FragLabel,
}

impl CompiledFragment {
    /// Number of bytecode instructions (for diagnostics and benches).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the fragment lowered to no instructions (never happens:
    /// the epilogue always emits a return).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// Lowers a fragment into bytecode.
///
/// `n_vars` is the owning component's persistent hidden-variable count;
/// together with `fragment.params.len()` it fixes the slot layout, so the
/// compiled code is only valid for calls passing exactly that many vars
/// (checked by [`run_compiled`]).
pub fn compile_fragment(fragment: &Fragment, n_vars: usize) -> CompiledFragment {
    let n_slots = n_vars + fragment.params.len();
    assert!(
        n_slots < usize::from(Reg::MAX),
        "fragment slot count exceeds bytecode register space"
    );
    let mut c = Compiler {
        code: Vec::new(),
        labels: Vec::new(),
        barrier: 0,
        n_slots,
        next_reg: n_slots as Reg,
        max_reg: n_slots as Reg,
        loops: Vec::new(),
        epilogue: 0,
    };
    c.epilogue = c.new_label();
    c.block(&fragment.body);
    c.bind(c.epilogue);
    match &fragment.ret {
        Some(e) => {
            let mark = c.next_reg;
            let src = c.operand(e);
            c.emit(Instr::Ret { src });
            c.free_to(mark);
        }
        None => c.emit(Instr::RetAny),
    }
    let code = c.finish();
    CompiledFragment {
        code,
        n_regs: usize::from(c.max_reg),
        n_vars,
        n_params: fragment.params.len(),
        label: fragment.label,
    }
}

/// A forward-reference label, resolved to an instruction index by
/// [`Compiler::finish`].
type Label = usize;

struct Compiler {
    code: Vec<Instr>,
    labels: Vec<Option<u32>>,
    /// Code length at the last label bind; cost charges never merge
    /// backwards across a bound label (a jump could land between them).
    barrier: usize,
    n_slots: usize,
    next_reg: Reg,
    max_reg: Reg,
    /// Innermost-first stack of `(head, end)` labels for `break`/`continue`.
    loops: Vec<(Label, Label)>,
    /// Label of the return sequence; top-level `break`/`continue` jump here.
    epilogue: Label,
}

impl Compiler {
    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l].is_none(), "label bound twice");
        self.labels[l] = Some(self.code.len() as u32);
        self.barrier = self.code.len();
    }

    /// Charges cost units, pre-summing into the previous charge when the
    /// two are adjacent in straight-line code.
    fn add_cost(&mut self, units: u64) {
        if units == 0 {
            return;
        }
        if self.code.len() > self.barrier {
            if let Some(Instr::Cost(prev)) = self.code.last_mut() {
                *prev += units;
                return;
            }
        }
        self.emit(Instr::Cost(units));
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("fragment expression depth exceeds bytecode register space");
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn free_to(&mut self, mark: Reg) {
        self.next_reg = mark;
    }

    /// Resolves labels to instruction indices and returns the code.
    fn finish(&mut self) -> Vec<Instr> {
        let resolve = |l: &mut u32, labels: &[Option<u32>]| {
            *l = labels[*l as usize].expect("unbound bytecode label");
        };
        let mut code = std::mem::take(&mut self.code);
        for i in &mut code {
            match i {
                Instr::Jump { target }
                | Instr::BranchFalse { target, .. }
                | Instr::BranchTrue { target, .. }
                | Instr::CmpBranch { target, .. } => resolve(target, &self.labels),
                _ => {}
            }
        }
        code
    }

    /// A register or immediate for `e` when no code is needed: in-range
    /// locals map straight onto their slot register (expressions never
    /// mutate slots, so reading at use time equals reading at eval time),
    /// constants become immediates.
    fn simple(&self, e: &Expr) -> Option<Operand> {
        match e {
            Expr::Const(v) => Some(Operand::Const(*v)),
            Expr::Local(id) if id.index() < self.n_slots => Some(Operand::Reg(id.index() as Reg)),
            _ => None,
        }
    }

    /// Evaluates `e` into an operand, folding constants and reusing slot
    /// registers where possible; otherwise compiles into a fresh temp.
    fn operand(&mut self, e: &Expr) -> Operand {
        if let Some(op) = self.simple(e) {
            return op;
        }
        if let Some((v, cost)) = self.fold(e) {
            self.add_cost(cost);
            return Operand::Const(v);
        }
        let r = self.alloc();
        self.expr_into(e, r);
        Operand::Reg(r)
    }

    /// Constant-folds a pure-constant subtree, returning its value and the
    /// cost units the tree-walk would charge evaluating it. `None` when
    /// the subtree reads state, can fail at runtime, or short-circuits on
    /// a non-constant condition.
    fn fold(&self, e: &Expr) -> Option<(Value, u64)> {
        match e {
            Expr::Const(v) => Some((*v, 0)),
            Expr::Unary { op, arg } => {
                let (a, ca) = self.fold(arg)?;
                let v = ops::unop(*op, &RtValue::from_const(a)).ok()?;
                Some((v.to_const()?, COST_MODEL.unop + ca))
            }
            Expr::Binary { op, lhs, rhs } if *op == BinOp::And || *op == BinOp::Or => {
                // Fold only when the left side decides the outcome the
                // same way the tree-walk would.
                let (a, ca) = self.fold(lhs)?;
                match (op, a) {
                    (BinOp::And, Value::Bool(false)) => {
                        Some((Value::Bool(false), COST_MODEL.binop + ca))
                    }
                    (BinOp::Or, Value::Bool(true)) => {
                        Some((Value::Bool(true), COST_MODEL.binop + ca))
                    }
                    (_, Value::Bool(_)) => {
                        let (b, cb) = self.fold(rhs)?;
                        Some((b, COST_MODEL.binop + ca + cb))
                    }
                    _ => None, // non-bool condition traps at runtime
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, ca) = self.fold(lhs)?;
                let (b, cb) = self.fold(rhs)?;
                let v = ops::binop(*op, &RtValue::from_const(a), &RtValue::from_const(b)).ok()?;
                Some((v.to_const()?, COST_MODEL.binop + ca + cb))
            }
            Expr::BuiltinCall { builtin, args } => {
                let mut cost = COST_MODEL.builtin_cost(*builtin);
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (v, c) = self.fold(a)?;
                    cost += c;
                    vals.push(RtValue::from_const(v));
                }
                let v = ops::builtin(*builtin, &vals).ok()?;
                Some((v.to_const()?, cost))
            }
            _ => None,
        }
    }

    /// Compiles `e` so its value lands in `dst`, charging exactly the
    /// costs the tree-walk charges and raising errors in evaluation order.
    fn expr_into(&mut self, e: &Expr, dst: Reg) {
        if let Some(src) = self.simple(e) {
            self.emit(Instr::Load { dst, src });
            return;
        }
        if let Some((v, cost)) = self.fold(e) {
            self.add_cost(cost);
            self.emit(Instr::Load {
                dst,
                src: Operand::Const(v),
            });
            return;
        }
        match e {
            // `simple` handled in-range locals and constants above.
            Expr::Const(_) => unreachable!("constants are simple operands"),
            Expr::Local(_) => self.emit(Instr::Illegal("out-of-range hidden slot")),
            Expr::Unary { op, arg } => {
                self.add_cost(COST_MODEL.unop);
                let mark = self.next_reg;
                let src = self.operand(arg);
                self.emit(Instr::Un { op: *op, dst, src });
                self.free_to(mark);
            }
            Expr::Binary { op, lhs, rhs } if *op == BinOp::And => {
                self.add_cost(COST_MODEL.binop);
                let mark = self.next_reg;
                let cond = self.operand(lhs);
                self.free_to(mark);
                let l_false = self.new_label();
                let l_end = self.new_label();
                self.emit(Instr::BranchFalse {
                    cond,
                    target: l_false as u32,
                });
                self.expr_into(rhs, dst);
                self.emit(Instr::Jump {
                    target: l_end as u32,
                });
                self.bind(l_false);
                self.emit(Instr::Load {
                    dst,
                    src: Operand::Const(Value::Bool(false)),
                });
                self.bind(l_end);
            }
            Expr::Binary { op, lhs, rhs } if *op == BinOp::Or => {
                self.add_cost(COST_MODEL.binop);
                let mark = self.next_reg;
                let cond = self.operand(lhs);
                self.free_to(mark);
                let l_true = self.new_label();
                let l_end = self.new_label();
                self.emit(Instr::BranchTrue {
                    cond,
                    target: l_true as u32,
                });
                self.expr_into(rhs, dst);
                self.emit(Instr::Jump {
                    target: l_end as u32,
                });
                self.bind(l_true);
                self.emit(Instr::Load {
                    dst,
                    src: Operand::Const(Value::Bool(true)),
                });
                self.bind(l_end);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.add_cost(COST_MODEL.binop);
                let mark = self.next_reg;
                let a = self.operand(lhs);
                let b = self.operand(rhs);
                self.emit(Instr::Bin {
                    op: *op,
                    dst,
                    lhs: a,
                    rhs: b,
                });
                self.free_to(mark);
            }
            Expr::BuiltinCall { builtin, args } => {
                self.add_cost(COST_MODEL.builtin_cost(*builtin));
                let mark = self.next_reg;
                let ops_args: Vec<Operand> = args.iter().map(|a| self.operand(a)).collect();
                self.emit(Instr::Builtin {
                    b: *builtin,
                    dst,
                    args: ops_args.into_boxed_slice(),
                });
                self.free_to(mark);
            }
            Expr::Global(_) => self.emit(Instr::Illegal("global access in fragment")),
            Expr::Index { .. } => self.emit(Instr::Illegal("array access in fragment")),
            Expr::FieldGet { .. } => self.emit(Instr::Illegal("field access in fragment")),
            Expr::Call { .. } => self.emit(Instr::Illegal("call in fragment")),
            Expr::NewArray { .. } | Expr::NewObject(_) => {
                self.emit(Instr::Illegal("allocation in fragment"))
            }
        }
    }

    /// Compiles a condition so control falls through when it is true and
    /// jumps to `target` when false, fusing comparisons into
    /// [`Instr::CmpBranch`].
    fn branch_unless(&mut self, cond: &Expr, target: Label) {
        if let Expr::Binary { op, lhs, rhs } = cond {
            if matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) {
                self.add_cost(COST_MODEL.binop);
                let mark = self.next_reg;
                let a = self.operand(lhs);
                let b = self.operand(rhs);
                self.emit(Instr::CmpBranch {
                    op: *op,
                    lhs: a,
                    rhs: b,
                    target: target as u32,
                });
                self.free_to(mark);
                return;
            }
        }
        let mark = self.next_reg;
        let c = self.operand(cond);
        self.emit(Instr::BranchFalse {
            cond: c,
            target: target as u32,
        });
        self.free_to(mark);
    }

    /// Recognises `x = x <op> e` and fuses it into [`Instr::Accum`].
    fn try_accum(&mut self, place: &Place, value: &Expr) -> bool {
        let slot = match place {
            Place::Local(id) if id.index() < self.n_slots => id.index() as Reg,
            _ => return false,
        };
        let (op, lhs, rhs) = match value {
            Expr::Binary { op, lhs, rhs } if *op != BinOp::And && *op != BinOp::Or => {
                (*op, lhs, rhs)
            }
            _ => return false,
        };
        match lhs.as_ref() {
            Expr::Local(id) if id.index() == usize::from(slot) => {}
            _ => return false,
        }
        self.add_cost(COST_MODEL.binop + COST_MODEL.assign);
        let mark = self.next_reg;
        let rhs = self.operand(rhs);
        self.emit(Instr::Accum { op, slot, rhs });
        self.free_to(mark);
        true
    }

    fn block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            self.emit(Instr::Tick);
            match &stmt.kind {
                StmtKind::Assign { place, value } => {
                    if self.try_accum(place, value) {
                        continue;
                    }
                    let mark = self.next_reg;
                    let v = self.operand(value);
                    self.add_cost(COST_MODEL.assign);
                    match place {
                        Place::Local(id) if id.index() < self.n_slots => {
                            self.emit(Instr::Load {
                                dst: id.index() as Reg,
                                src: v,
                            });
                        }
                        Place::Local(_) => {
                            self.emit(Instr::Illegal("out-of-range hidden slot"));
                        }
                        _ => self.emit(Instr::Illegal("aggregate store in fragment")),
                    }
                    self.free_to(mark);
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.add_cost(COST_MODEL.branch);
                    let l_else = self.new_label();
                    let l_end = self.new_label();
                    self.branch_unless(cond, l_else);
                    self.block(then_blk);
                    if !else_blk.is_empty() {
                        self.emit(Instr::Jump {
                            target: l_end as u32,
                        });
                    }
                    self.bind(l_else);
                    self.block(else_blk);
                    self.bind(l_end);
                }
                StmtKind::While { cond, body } => {
                    let l_head = self.new_label();
                    let l_end = self.new_label();
                    self.bind(l_head);
                    self.emit(Instr::Tick);
                    self.add_cost(COST_MODEL.branch);
                    self.branch_unless(cond, l_end);
                    self.loops.push((l_head, l_end));
                    self.block(body);
                    self.loops.pop();
                    self.emit(Instr::Jump {
                        target: l_head as u32,
                    });
                    self.bind(l_end);
                }
                StmtKind::Break => {
                    let target = self.loops.last().map_or(self.epilogue, |&(_, end)| end);
                    self.emit(Instr::Jump {
                        target: target as u32,
                    });
                }
                StmtKind::Continue => {
                    let target = self.loops.last().map_or(self.epilogue, |&(head, _)| head);
                    self.emit(Instr::Jump {
                        target: target as u32,
                    });
                }
                StmtKind::Nop => {}
                StmtKind::Return(_) => self.emit(Instr::Illegal("return in fragment")),
                StmtKind::Print(_) => self.emit(Instr::Illegal("print in fragment")),
                StmtKind::ExprStmt(_) => self.emit(Instr::Illegal("call in fragment")),
                StmtKind::HiddenCall { .. } => self.emit(Instr::Illegal("nested hidden call")),
            }
        }
    }
}

/// Reads an operand from the register file.
#[inline]
fn read(regs: &[RtValue], o: &Operand) -> RtValue {
    match o {
        Operand::Const(v) => RtValue::from_const(*v),
        Operand::Reg(r) => regs[usize::from(*r)].clone(),
    }
}

/// Executes compiled bytecode against a component's hidden state, exactly
/// like [`crate::fragment::run_fragment`] executes the AST.
///
/// # Errors
///
/// The same errors, at the same evaluation points, as the tree-walk.
pub fn run_compiled(
    compiled: &CompiledFragment,
    vars: &mut [RtValue],
    args: &[Value],
) -> Result<FragOutcome, RuntimeError> {
    run_compiled_with_limit(compiled, vars, args, FRAGMENT_STEP_LIMIT)
}

/// [`run_compiled`] with an explicit step limit, mirroring
/// [`crate::fragment::run_fragment_with_limit`] for differential tests.
///
/// # Errors
///
/// As [`run_compiled`], with `StepLimitExceeded` carrying `limit`.
pub fn run_compiled_with_limit(
    compiled: &CompiledFragment,
    vars: &mut [RtValue],
    args: &[Value],
    limit: u64,
) -> Result<FragOutcome, RuntimeError> {
    if args.len() != compiled.n_params {
        return Err(RuntimeError::Channel(format!(
            "fragment {} expects {} args, got {}",
            compiled.label,
            compiled.n_params,
            args.len()
        )));
    }
    if vars.len() != compiled.n_vars {
        return Err(RuntimeError::Channel(format!(
            "fragment {} compiled for {} hidden vars, got {}",
            compiled.label,
            compiled.n_vars,
            vars.len()
        )));
    }
    let mut regs: Vec<RtValue> = Vec::with_capacity(compiled.n_regs);
    regs.extend(vars.iter().cloned());
    regs.extend(args.iter().map(|&v| RtValue::from_const(v)));
    regs.resize(compiled.n_regs, RtValue::Uninit);

    let mut cost = COST_MODEL.marshal_per_arg * args.len() as u64;
    let mut steps: u64 = 0;
    let mut pc: usize = 0;
    let code = compiled.code.as_slice();
    // The dispatch loop: pc is advanced before dispatch so branches
    // overwrite it; the enum match lowers to a single indirect jump.
    loop {
        let instr = &code[pc];
        pc += 1;
        match instr {
            Instr::Tick => {
                steps += 1;
                if steps > limit {
                    return Err(RuntimeError::StepLimitExceeded { limit });
                }
            }
            Instr::Cost(units) => cost += units,
            Instr::Load { dst, src } => regs[usize::from(*dst)] = read(&regs, src),
            Instr::Un { op, dst, src } => {
                let a = read(&regs, src);
                regs[usize::from(*dst)] = ops::unop(*op, &a)?;
            }
            Instr::Bin { op, dst, lhs, rhs } => {
                let a = read(&regs, lhs);
                let b = read(&regs, rhs);
                regs[usize::from(*dst)] = ops::binop(*op, &a, &b)?;
            }
            Instr::Accum { op, slot, rhs } => {
                let b = read(&regs, rhs);
                let v = ops::binop(*op, &regs[usize::from(*slot)], &b)?;
                regs[usize::from(*slot)] = v;
            }
            Instr::Builtin { b, dst, args } => {
                let vals: Vec<RtValue> = args.iter().map(|o| read(&regs, o)).collect();
                regs[usize::from(*dst)] = ops::builtin(*b, &vals)?;
            }
            Instr::Jump { target } => pc = *target as usize,
            Instr::BranchFalse { cond, target } => match read(&regs, cond) {
                RtValue::Bool(true) => {}
                RtValue::Bool(false) => pc = *target as usize,
                v => {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "bool condition",
                        found: v.type_name(),
                    })
                }
            },
            Instr::BranchTrue { cond, target } => match read(&regs, cond) {
                RtValue::Bool(true) => pc = *target as usize,
                RtValue::Bool(false) => {}
                v => {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "bool condition",
                        found: v.type_name(),
                    })
                }
            },
            Instr::CmpBranch {
                op,
                lhs,
                rhs,
                target,
            } => {
                let a = read(&regs, lhs);
                let b = read(&regs, rhs);
                match ops::binop(*op, &a, &b)? {
                    RtValue::Bool(true) => {}
                    RtValue::Bool(false) => pc = *target as usize,
                    v => {
                        // Comparisons only return bools; kept for parity
                        // with the tree-walk's truthiness check.
                        return Err(RuntimeError::TypeMismatch {
                            expected: "bool condition",
                            found: v.type_name(),
                        });
                    }
                }
            }
            Instr::Illegal(what) => return Err(RuntimeError::IllegalFragmentOp(what)),
            Instr::Ret { src } => {
                let v = read(&regs, src);
                let value = v.to_const().ok_or(RuntimeError::TypeMismatch {
                    expected: "scalar return",
                    found: "aggregate",
                })?;
                vars.clone_from_slice(&regs[..compiled.n_vars]);
                return Ok(FragOutcome { value, cost });
            }
            Instr::RetAny => {
                vars.clone_from_slice(&regs[..compiled.n_vars]);
                return Ok(FragOutcome {
                    value: Value::Int(0),
                    cost,
                });
            }
        }
    }
}

/// Compile-once cache of fragment bytecode, keyed by `(component index,
/// fragment position)`, sized for one [`HiddenProgram`].
///
/// Compiled code is immutable plain data, so one cache can be shared by
/// every session of a shard (`Arc<VmCache>`); the counters are relaxed
/// atomics so stats snapshots can read them from other threads.
#[derive(Debug)]
pub struct VmCache {
    slots: Vec<Vec<OnceLock<CompiledFragment>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
    compile_nanos: AtomicU64,
}

impl VmCache {
    /// An empty cache sized for `hidden`'s components and fragments.
    pub fn for_program(hidden: &HiddenProgram) -> VmCache {
        VmCache {
            slots: hidden
                .components
                .iter()
                .map(|c| c.fragments.iter().map(|_| OnceLock::new()).collect())
                .collect(),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
        }
    }

    /// Fragments compiled so far (each fragment compiles at most once).
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Executions served from already-compiled bytecode.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Wall-clock nanoseconds spent compiling (never part of deterministic
    /// snapshots; surfaced via `ShardStats` for load attribution).
    pub fn compile_nanos(&self) -> u64 {
        self.compile_nanos.load(Ordering::Relaxed)
    }

    /// Returns the compiled code for the fragment at `(component,
    /// position)`, lowering it on first use; the flag is `true` when this
    /// call performed the compile. `None` when the cache was built for a
    /// different program shape.
    pub fn get_or_compile(
        &self,
        component: usize,
        position: usize,
        fragment: &Fragment,
        n_vars: usize,
    ) -> Option<(&CompiledFragment, bool)> {
        let cell = self.slots.get(component)?.get(position)?;
        let mut fresh = false;
        let code = cell.get_or_init(|| {
            let t0 = std::time::Instant::now();
            let compiled = compile_fragment(fragment, n_vars);
            self.compile_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.compiles.fetch_add(1, Ordering::Relaxed);
            fresh = true;
            compiled
        });
        if !fresh {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Some((code, fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{run_fragment, run_fragment_with_limit};
    use hps_ir::{FragLabel, LocalId, Stmt, Ty};

    fn frag(body: Vec<Stmt>, params: usize, ret: Option<Expr>) -> Fragment {
        Fragment {
            label: FragLabel::new(0),
            params: (0..params).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        }
    }

    /// Runs both engines and asserts identical outcome, state and error.
    fn assert_parity(f: &Fragment, vars: &[RtValue], args: &[Value]) {
        let mut tree_vars = vars.to_vec();
        let mut vm_vars = vars.to_vec();
        let tree = run_fragment(f, &mut tree_vars, args);
        let compiled = compile_fragment(f, vars.len());
        let vm = run_compiled(&compiled, &mut vm_vars, args);
        assert_eq!(format!("{tree:?}"), format!("{vm:?}"), "outcome diverged");
        assert_eq!(tree_vars, vm_vars, "hidden state diverged");
    }

    #[test]
    fn loop_accumulator_matches_tree_walk() {
        // vars=[sum, i]; L0(z): while (i < z) { sum = sum + i; i = i + 1 } ret sum
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
        assert_parity(&f, &[RtValue::Int(0), RtValue::Int(3)], &[Value::Int(9)]);
    }

    #[test]
    fn constant_folding_preserves_cost() {
        // ret (2 + 3) * p0 — the fold must still charge both binop costs.
        let f = frag(
            vec![],
            1,
            Some(Expr::binary(
                BinOp::Mul,
                Expr::binary(BinOp::Add, Expr::int(2), Expr::int(3)),
                Expr::local(LocalId::new(0)),
            )),
        );
        assert_parity(&f, &[], &[Value::Int(7)]);
        let compiled = compile_fragment(&f, 0);
        let out = run_compiled(&compiled, &mut [], &[Value::Int(7)]).unwrap();
        assert_eq!(out.value, Value::Int(35));
        assert_eq!(out.cost, COST_MODEL.marshal_per_arg + 2 * COST_MODEL.binop);
    }

    #[test]
    fn folding_never_hides_runtime_traps() {
        // ret 1 / 0 — must stay a runtime DivisionByZero, not a compile
        // failure or a folded constant.
        let f = frag(
            vec![],
            0,
            Some(Expr::binary(BinOp::Div, Expr::int(1), Expr::int(0))),
        );
        assert_parity(&f, &[], &[]);
        let compiled = compile_fragment(&f, 0);
        assert_eq!(
            run_compiled(&compiled, &mut [], &[]),
            Err(RuntimeError::DivisionByZero)
        );
    }

    #[test]
    fn short_circuit_matches_tree_walk() {
        // (false && (1/0 == 0)) || true
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
        assert_parity(&f, &[], &[]);
        let compiled = compile_fragment(&f, 0);
        let out = run_compiled(&compiled, &mut [], &[]).unwrap();
        assert_eq!(out.value, Value::Bool(true));
    }

    #[test]
    fn step_limit_fires_at_same_count() {
        // while (true) {} against a tiny limit: both engines must fail
        // with the same limit after the same number of ticks.
        let f = frag(
            vec![Stmt::new(StmtKind::While {
                cond: Expr::bool(true),
                body: Block::of(vec![Stmt::new(StmtKind::Nop)]),
            })],
            0,
            None,
        );
        for limit in [1, 2, 3, 10, 101] {
            let tree = run_fragment_with_limit(&f, &mut [], &[], limit);
            let compiled = compile_fragment(&f, 0);
            let vm = run_compiled_with_limit(&compiled, &mut [], &[], limit);
            assert_eq!(tree, vm);
            assert_eq!(tree, Err(RuntimeError::StepLimitExceeded { limit }));
        }
    }

    #[test]
    fn break_continue_and_nested_ifs() {
        // vars=[n, out]; while (true) { n = n - 1; if (n == 2) { continue; }
        // if (n <= 0) { break; } out = out + n; } ret out
        let n = LocalId::new(0);
        let out = LocalId::new(1);
        let body = vec![Stmt::new(StmtKind::While {
            cond: Expr::bool(true),
            body: Block::of(vec![
                Stmt::new(StmtKind::Assign {
                    place: Place::Local(n),
                    value: Expr::binary(BinOp::Sub, Expr::local(n), Expr::int(1)),
                }),
                Stmt::new(StmtKind::If {
                    cond: Expr::binary(BinOp::Eq, Expr::local(n), Expr::int(2)),
                    then_blk: Block::of(vec![Stmt::new(StmtKind::Continue)]),
                    else_blk: Block::new(),
                }),
                Stmt::new(StmtKind::If {
                    cond: Expr::binary(BinOp::Le, Expr::local(n), Expr::int(0)),
                    then_blk: Block::of(vec![Stmt::new(StmtKind::Break)]),
                    else_blk: Block::new(),
                }),
                Stmt::new(StmtKind::Assign {
                    place: Place::Local(out),
                    value: Expr::binary(BinOp::Add, Expr::local(out), Expr::local(n)),
                }),
            ]),
        })];
        let f = frag(body, 0, Some(Expr::local(out)));
        assert_parity(&f, &[RtValue::Int(6), RtValue::Int(0)], &[]);
    }

    #[test]
    fn top_level_break_skips_rest_of_body() {
        let x = LocalId::new(0);
        let body = vec![
            Stmt::new(StmtKind::Assign {
                place: Place::Local(x),
                value: Expr::int(1),
            }),
            Stmt::new(StmtKind::Break),
            Stmt::new(StmtKind::Assign {
                place: Place::Local(x),
                value: Expr::int(99),
            }),
        ];
        let f = frag(body, 0, Some(Expr::local(x)));
        assert_parity(&f, &[RtValue::Int(0)], &[]);
        let compiled = compile_fragment(&f, 1);
        let mut vars = vec![RtValue::Int(0)];
        let out = run_compiled(&compiled, &mut vars, &[]).unwrap();
        assert_eq!(out.value, Value::Int(1));
    }

    #[test]
    fn illegal_ops_surface_identically() {
        for (stmt, _what) in [
            (Stmt::new(StmtKind::Return(None)), "return in fragment"),
            (
                Stmt::new(StmtKind::Print(Expr::int(1))),
                "print in fragment",
            ),
        ] {
            let f = frag(vec![stmt], 0, None);
            assert_parity(&f, &[], &[]);
        }
        // Out-of-range slot store, reached only when executed.
        let guarded = frag(
            vec![Stmt::new(StmtKind::If {
                cond: Expr::bool(false),
                then_blk: Block::of(vec![Stmt::new(StmtKind::Assign {
                    place: Place::Local(LocalId::new(40)),
                    value: Expr::int(1),
                })]),
                else_blk: Block::new(),
            })],
            0,
            None,
        );
        assert_parity(&guarded, &[], &[]);
        let compiled = compile_fragment(&guarded, 0);
        assert!(run_compiled(&compiled, &mut [], &[]).is_ok());
    }

    #[test]
    fn arg_count_mismatch_is_channel_error() {
        let f = frag(vec![], 2, None);
        assert_parity(&f, &[], &[Value::Int(1)]);
        let compiled = compile_fragment(&f, 0);
        let err = run_compiled(&compiled, &mut [], &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RuntimeError::Channel(_)));
    }

    #[test]
    fn param_writes_do_not_leak_back() {
        let f = frag(
            vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(1)),
                value: Expr::int(99),
            })],
            1,
            Some(Expr::local(LocalId::new(1))),
        );
        assert_parity(&f, &[RtValue::Int(7)], &[Value::Int(1)]);
    }

    #[test]
    fn compiled_code_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledFragment>();
        assert_send_sync::<VmCache>();
    }

    #[test]
    fn cache_compiles_once_and_counts_hits() {
        let f = frag(vec![], 0, Some(Expr::int(7)));
        let hidden = HiddenProgram {
            components: vec![hps_ir::HiddenComponent {
                id: hps_ir::ComponentId::new(0),
                kind: hps_ir::ComponentKind::Function {
                    func_name: "f".into(),
                },
                vars: vec![],
                fragments: vec![f.clone()],
            }],
        };
        let cache = VmCache::for_program(&hidden);
        let (_, fresh) = cache.get_or_compile(0, 0, &f, 0).unwrap();
        assert!(fresh);
        let (_, fresh) = cache.get_or_compile(0, 0, &f, 0).unwrap();
        assert!(!fresh);
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.cache_hits(), 1);
        assert!(cache.get_or_compile(3, 0, &f, 0).is_none());
    }

    #[test]
    fn superinstructions_preserve_cost_accounting() {
        // x = x + 1 lowers to Accum; if (x < 10) lowers to CmpBranch —
        // totals must match the tree-walk exactly.
        let x = LocalId::new(0);
        let f = frag(
            vec![
                Stmt::new(StmtKind::Assign {
                    place: Place::Local(x),
                    value: Expr::binary(BinOp::Add, Expr::local(x), Expr::int(1)),
                }),
                Stmt::new(StmtKind::If {
                    cond: Expr::binary(BinOp::Lt, Expr::local(x), Expr::int(10)),
                    then_blk: Block::of(vec![Stmt::new(StmtKind::Assign {
                        place: Place::Local(x),
                        value: Expr::binary(BinOp::Mul, Expr::local(x), Expr::int(2)),
                    })]),
                    else_blk: Block::new(),
                }),
            ],
            0,
            Some(Expr::local(x)),
        );
        for start in [-5i64, 0, 9, 10, 50] {
            assert_parity(&f, &[RtValue::Int(start)], &[]);
        }
    }
}
