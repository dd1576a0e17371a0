//! Register bytecode and the one virtual machine that runs both halves of
//! a split program: open functions and hidden fragments.
//!
//! Both are lowered **once** into a compact register bytecode and executed
//! by one flat dispatch loop — the inner-interpreter technique of classic
//! Forth kernels. A split's open program is compiled once, by
//! [`SplitMeta::derive`](crate::SplitMeta::derive), and every
//! [`Interp`](crate::Interp) the metadata is attached to runs that code,
//! batching or not; an unsplit program is compiled by its `Interp`'s first
//! run. Fragments are compiled at split/handshake time and cached per
//! server (and per shard) in a [`VmCache`]. Compiled code, open or
//! fragment, is plain `Send + Sync` data even though the `RtValue`
//! registers it operates on are not.
//!
//! # One instruction set, one lowering
//!
//! A fragment and an open function go through the same compiler: the
//! same statement and expression lowering, the same folding, cost baking
//! and superinstructions, the same scalar dispatch. Only three things
//! differ:
//!
//! * **slot layout** — a fragment's registers are its component's hidden
//!   variables, then its parameters; an open function's are its locals
//!   (parameters first), at the bottom of its frame on the shared register
//!   stack;
//! * **leak points** — constructs the fragment subset forbids (aggregates,
//!   globals, calls, `print`, `return`, nested hidden calls) lower to an
//!   `Illegal` instruction in a fragment, emitted where evaluation would reach
//!   them, so the VM raises the same [`RuntimeError::IllegalFragmentOp`] at
//!   the same point as the reference tree-walk (the test-only
//!   `reference.rs`);
//! * **the final `Ret`** — a fragment's value must be a scalar and its
//!   hidden variables are written back ([`run_compiled`]); an open
//!   function's value lands in its caller's destination register.
//!
//! # Lowering pipeline
//!
//! 1. **Constant folding** — pure-constant subtrees are evaluated at lower
//!    time with the *same* `ops` semantics the VM uses. A fold is only
//!    taken when the operator succeeds; subtrees that would trap at runtime
//!    (e.g. `1/0`) are lowered unfolded so the error still fires in
//!    evaluation order. Short-circuit operators fold only when the left
//!    side is a constant bool.
//! 2. **Cost baking and ticks** — every instruction carries the step ticks
//!    of the statements it starts and the pre-summed cost charges since
//!    the previous instruction; ticks and cost charges are not dispatches
//!    of their own. Charges move only forward within
//!    straight-line code and never across a jump target; a tick never
//!    moves before an effect of the statement preceding it.
//! 3. **Superinstructions** — constants ride inside operands, `Int × Int`
//!    arithmetic and comparisons take a fast path before the generic
//!    `ops::binop` and write their result into the destination register in
//!    place, comparisons, `&&` and `||` in branch position fuse into
//!    compare-and-branch chains, and `while` loops are rotated so each
//!    iteration ends in one compare-and-branch back to the body.
//! 4. **Leaf inlining** — once every open function is compiled, each call
//!    to a small scalar leaf is replaced by the leaf's instructions, with
//!    the call's tick, charges and depth check on an entry instruction
//!    (see `inline_leaves`).
//! 5. **Specialisation** — last, each `Int` arithmetic and
//!    compare-and-branch on a register becomes a form for its operator and
//!    operand kinds, which checks its registers' tags and runs the generic
//!    form on any other value (see `specialise`).
//!
//! # Determinism rules
//!
//! The VM must be **observationally byte-identical** to the reference
//! tree-walk, compiled for the crate's tests only (`reference.rs`, which
//! runs open functions and fragments alike):
//!
//! * same returned value, output, globals and hidden-variable state;
//! * same total cost on success — errors discard cost, so a charge may be
//!   made anywhere on the path that the tree-walk makes it;
//! * same step accounting, so `StepLimitExceeded` fires before the same
//!   statement, and `StackOverflow` at the same depth;
//! * same [`RuntimeError`] for the first failing operation, and the same
//!   channel traffic before it. Operands are therefore read where the
//!   tree-walk reads them: a global operand followed by a sibling that
//!   contains a call (which may assign the global) is copied to a temp
//!   first, and an assignment evaluates its place's index and receiver
//!   after the value.
//!
//! The crate's `vm_differential` tests pin the contract on random
//! fragments, its `open_vm_differential` tests on random open programs.

use crate::channel::{Channel, PendingCall};
use crate::cost::COST_MODEL;
use crate::error::RuntimeError;
use crate::interp::MetaKind;
use crate::ops::{self, mismatch};
use crate::server::FragOutcome;
use crate::value::{ObjData, RtValue};
use hps_ir::infer::{expr_ty, LocalTypes};
use hps_ir::{
    BinOp, Block, Builtin, ComponentId, Expr, FragLabel, Fragment, Function, HiddenProgram,
    HiddenVar, Place, Program, StmtKind, Ty, UnOp, Value,
};
use hps_telemetry::{Event, RecorderHandle};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Frame-relative register index. In a fragment, registers `0 .. n_vars`
/// mirror the component's persistent hidden variables and `n_vars ..
/// n_slots` the call parameters; in an open function, registers `0 ..
/// n_locals` are its locals. Compiler temporaries follow.
type Reg = u16;

/// Upper bound on buffered deferred calls before a forced flush.
const MAX_PENDING_CALLS: usize = 4096;

/// Maximum number of statements a single fragment call may execute; guards
/// the secure device against runaway hidden loops.
pub(crate) const FRAGMENT_STEP_LIMIT: u64 = 200_000_000;

/// A scalar instruction input: a register, a global or an immediate.
///
/// Immediates are the "load-const-op" superinstruction: a constant
/// operand never needs a separate load or a register.
#[derive(Clone, Copy, Debug)]
enum Operand {
    /// Read a register of the current frame.
    Reg(Reg),
    /// Read a global (open code only).
    Global(u32),
    /// An immediate constant (possibly produced by constant folding).
    Const(Value),
}

/// An aggregate input (array or object), read in place without a clone.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Reg(Reg),
    Global(u32),
}

/// One instruction: the step ticks of the statements it starts, the cost
/// charged before it runs, and the operation.
#[derive(Clone, Debug)]
struct Instr {
    tick: u32,
    cost: u32,
    op: Op,
}

/// One bytecode operation. Control-flow targets are absolute instruction
/// indices within the function or fragment, resolved at lower time.
#[derive(Clone, Debug)]
enum Op {
    /// Carries ticks and cost only.
    Nop,
    /// `regs[dst] = src`.
    Load { dst: Reg, src: Operand },
    /// `regs[dst] = unop(op, src)`.
    Un { op: UnOp, dst: Reg, src: Operand },
    /// `regs[dst] = binop(op, lhs, rhs)`; `ints`: the operands are
    /// statically `Int`.
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
        ints: bool,
    },
    /// `regs[dst] = builtin(b, args)`.
    Builtin {
        b: Builtin,
        dst: Reg,
        args: Box<[Operand]>,
    },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Truthiness branch: jump to `target` when `cond == when`; a non-bool
    /// raises the tree-walk's "bool condition" mismatch.
    Branch {
        cond: Operand,
        target: u32,
        when: bool,
    },
    /// Compare-and-branch superinstruction: jump to `target` when the
    /// comparison's outcome is `when`; `ints` as for `Bin`.
    CmpBranch {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
        target: u32,
        when: bool,
        ints: bool,
    },
    /// A leak point the fragment subset forbids.
    Illegal(&'static str),
    /// Leave the function with `src` (`None`: an uninitialised aggregate,
    /// the default of an aggregate return type).
    Ret { src: Option<Operand> },
    /// `globals[global] = src`.
    StoreGlobal { global: u32, src: Operand },
    /// `regs[dst] = arr[idx]`.
    LoadElem { dst: Reg, arr: Slot, idx: Operand },
    /// `arr[idx] = src`.
    StoreElem {
        arr: Slot,
        idx: Operand,
        src: Operand,
    },
    /// `regs[dst] = len(arr)`.
    Len { dst: Reg, arr: Slot },
    /// `regs[dst] = obj.fields[field]`.
    LoadField { dst: Reg, obj: Slot, field: u32 },
    /// `obj.fields[field] = src`.
    StoreField { obj: Slot, field: u32, src: Operand },
    /// `regs[dst] = new elem[len]` (`elem`: the element default, `None`
    /// for aggregates); charges the per-element allocation cost.
    NewArray {
        dst: Reg,
        len: Operand,
        elem: Option<Value>,
    },
    /// `regs[dst] = new class()`.
    NewObject { dst: Reg, class: u32 },
    /// The entry of an inlined call: raises `StackOverflow` where pushing
    /// the callee's frame would.
    Enter,
    /// Call open function `func` with `args`; its value lands in `dst`.
    Call {
        func: u32,
        dst: Reg,
        args: Box<[Operand]>,
    },
    /// Append `src` to the program output.
    Print { src: Operand },
    /// Raise the hidden-call marshalling mismatch unless `src` is a scalar
    /// (emitted where the tree-walk checks an argument before evaluating
    /// a later one that runs code).
    Scalar { src: Operand },
    /// A hidden call, demanded or deferred.
    Hidden(Box<HiddenOp>),
    /// An error known at lower time, raised when reached.
    Fail(Box<RuntimeError>),

    // The specialised forms, written only by `specialise`: one operator
    // on registers (`R`) and immediates (`K`) of `Int` (`I`) values, in
    // operand order. Each checks its registers' tags and runs the generic
    // form on any other value (DESIGN.md §7c).
    /// `regs[dst] = regs[lhs] + rhs`.
    AddIRK(Arith<Reg, i64>),
    /// `regs[dst] = regs[lhs] - rhs`.
    SubIRK(Arith<Reg, i64>),
    /// `regs[dst] = regs[lhs] * rhs`.
    MulIRK(Arith<Reg, i64>),
    /// `regs[dst] = regs[lhs] / rhs`.
    DivIRK(Arith<Reg, i64>),
    /// `regs[dst] = regs[lhs] % rhs`.
    RemIRK(Arith<Reg, i64>),
    /// `regs[dst] = lhs - regs[rhs]`.
    SubIKR(Arith<i64, Reg>),
    /// `regs[dst] = regs[lhs] + regs[rhs]`.
    AddIRR(Arith<Reg, Reg>),
    /// `regs[dst] = regs[lhs] - regs[rhs]`.
    SubIRR(Arith<Reg, Reg>),
    /// `regs[dst] = regs[lhs] * regs[rhs]`.
    MulIRR(Arith<Reg, Reg>),
    /// `regs[dst] = regs[lhs] / regs[rhs]`.
    DivIRR(Arith<Reg, Reg>),
    /// `regs[dst] = regs[lhs] % regs[rhs]`.
    RemIRR(Arith<Reg, Reg>),
    /// Jump when `(regs[lhs] == regs[rhs]) == when`.
    EqIRRBranch(Branch<Reg>),
    /// Jump when `(regs[lhs] != regs[rhs]) == when`.
    NeIRRBranch(Branch<Reg>),
    /// Jump when `(regs[lhs] < regs[rhs]) == when`.
    LtIRRBranch(Branch<Reg>),
    /// Jump when `(regs[lhs] <= regs[rhs]) == when`.
    LeIRRBranch(Branch<Reg>),
    /// Jump when `(regs[lhs] > regs[rhs]) == when`.
    GtIRRBranch(Branch<Reg>),
    /// Jump when `(regs[lhs] >= regs[rhs]) == when`.
    GeIRRBranch(Branch<Reg>),
    /// Jump when `(regs[lhs] == rhs) == when`.
    EqIRKBranch(Branch<i64>),
    /// Jump when `(regs[lhs] != rhs) == when`.
    NeIRKBranch(Branch<i64>),
    /// Jump when `(regs[lhs] < rhs) == when`.
    LtIRKBranch(Branch<i64>),
    /// Jump when `(regs[lhs] <= rhs) == when`.
    LeIRKBranch(Branch<i64>),
    /// Jump when `(regs[lhs] > rhs) == when`.
    GtIRKBranch(Branch<i64>),
    /// Jump when `(regs[lhs] >= rhs) == when`.
    GeIRKBranch(Branch<i64>),
}

/// The operands of a specialised `regs[dst] = lhs <op> rhs`: each a
/// register (`Reg`) or an immediate (`i64`).
#[derive(Clone, Copy, Debug)]
struct Arith<L, R> {
    dst: Reg,
    lhs: L,
    rhs: R,
}

/// The operands of a specialised compare-and-branch: jump to `target`
/// when `(regs[lhs] <op> rhs) == when`, `rhs` a register or an immediate.
#[derive(Clone, Copy, Debug)]
struct Branch<R> {
    lhs: Reg,
    rhs: R,
    target: u32,
    when: bool,
}

/// The operands of one [`Op::Hidden`].
#[derive(Clone, Debug)]
struct HiddenOp {
    component: ComponentId,
    label: FragLabel,
    args: Box<[Operand]>,
    route: Route,
    /// The register the reply lands in: the result local, or a temp the
    /// next instruction stores to the result place.
    result: Option<Reg>,
    /// Buffer the call until the next flush point when the run batches.
    deferred: bool,
}

/// How a hidden call finds the state key it routes to.
#[derive(Clone, Debug)]
enum Route {
    /// The one shared state of a hidden global.
    Global,
    /// The instance id of the receiver in register 0.
    SelfObject,
    /// The current frame's activation.
    Activation,
    /// Routing fails with this error.
    Fail(RuntimeError),
}

/// Straight-line code of one function or fragment.
#[derive(Clone, Debug)]
struct Body {
    code: Box<[Instr]>,
    n_regs: usize,
}

/// A fragment lowered to register bytecode. Plain data: `Send + Sync`,
/// safe to share across shard threads even though `RtValue` is not.
#[derive(Clone, Debug)]
pub struct CompiledFragment {
    body: Body,
    n_vars: usize,
    n_params: usize,
    label: FragLabel,
}

impl CompiledFragment {
    /// Number of bytecode instructions (for diagnostics and benches).
    pub fn len(&self) -> usize {
        self.body.code.len()
    }

    /// True when the fragment lowered to no instructions (never happens:
    /// the epilogue always emits a return).
    pub fn is_empty(&self) -> bool {
        self.body.code.is_empty()
    }
}

/// One open function lowered to bytecode.
struct FuncCode {
    body: Body,
    /// Every declared local's default (`None`: an uninitialised
    /// aggregate). A call pushes its arguments, then the defaults of the
    /// locals past them, then uninitialised temporaries.
    locals: Box<[Option<Value>]>,
    /// The split component whose activation the function opens on entry.
    activation: Option<ComponentId>,
}

impl FuncCode {
    /// Completes a frame whose arguments are already pushed from `base` up.
    fn open_frame(&self, stack: &mut Vec<RtValue>, base: usize) {
        let pushed = stack.len() - base;
        let locals = self.locals.get(pushed..).unwrap_or_default();
        stack.extend(locals.iter().map(|&v| default_value(v)));
        stack.resize_with(base + self.body.n_regs, || RtValue::Uninit);
    }
}

/// A register's starting value from its template entry.
#[inline(always)]
fn default_value(v: Option<Value>) -> RtValue {
    v.map_or(RtValue::Uninit, RtValue::from_const)
}

/// A whole open program lowered to bytecode. Plain `Send + Sync` data,
/// like [`CompiledFragment`].
#[derive(Default)]
pub(crate) struct ProgramCode {
    funcs: Vec<FuncCode>,
    /// Each class's fields at their defaults, by `ClassId`.
    classes: Vec<Box<[Option<Value>]>>,
}

impl ProgramCode {
    /// The functions the code of function `func` calls with a frame, in
    /// code order.
    pub(crate) fn callees(&self, func: usize) -> impl Iterator<Item = usize> + '_ {
        self.funcs[func]
            .body
            .code
            .iter()
            .filter_map(|i| match i.op {
                Op::Call { func, .. } => Some(func as usize),
                _ => None,
            })
    }

    /// How many arithmetic and compare-and-branch instructions on `Int`
    /// operands the code of function `func` runs in their generic form:
    /// the shapes without a specialised one.
    pub(crate) fn generic_int_ops(&self, func: usize) -> usize {
        self.funcs[func]
            .body
            .code
            .iter()
            .filter(|i| {
                matches!(
                    i.op,
                    Op::Bin { ints: true, .. } | Op::CmpBranch { ints: true, .. }
                )
            })
            .count()
    }
}

/// An open program compiled once for both batching modes: a split's code
/// is compiled by [`SplitMeta::derive`](crate::SplitMeta::derive), an
/// unsplit program's by its [`Interp`](crate::Interp)'s first run.
pub(crate) struct OpenCode {
    /// The program's code, or the error an unbatched run raises instead.
    code: Result<ProgramCode, RuntimeError>,
    /// The error a batching run raises instead of running, when the
    /// program has a deferred call whose result is not a local.
    batching: Option<RuntimeError>,
}

impl OpenCode {
    /// Compiles every function of `program`. `kinds` is the routing table
    /// of the split's components (`None` without a channel). Whether a
    /// `deferred` mark buffers its call is decided when the call runs, so
    /// one compile serves batching and unbatched runs.
    pub(crate) fn compile(program: &Program, kinds: Option<&[MetaKind]>) -> OpenCode {
        let open = Open { program, kinds };
        let mut funcs = Vec::with_capacity(program.functions.len());
        let mut plain = None;
        let mut batching = None;
        let mut batch_only = false;
        for f in &program.functions {
            let (code, batch_error) = compile_function(&open, f);
            batch_only |= batch_error.is_some();
            match code {
                Ok(code) => {
                    batching = batching.or(batch_error);
                    funcs.push(code);
                }
                Err(e) => {
                    batching = batching.or(batch_error).or_else(|| Some(e.clone()));
                    plain = plain.or(Some(e));
                }
            }
        }
        let classes = program
            .classes
            .iter()
            .map(|c| {
                c.fields
                    .iter()
                    .map(|f| RtValue::default_of(&f.ty).to_const())
                    .collect()
            })
            .collect();
        OpenCode {
            code: match plain {
                None => {
                    inline_leaves(program, &mut funcs);
                    for f in &mut funcs {
                        specialise(&mut f.body.code);
                    }
                    Ok(ProgramCode { funcs, classes })
                }
                Some(e) => Err(e),
            },
            batching: batching.filter(|_| batch_only),
        }
    }

    /// The code a run with or without batching executes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unlowerable`] when the program does not lower in
    /// that mode.
    pub(crate) fn get(&self, batching: bool) -> Result<&ProgramCode, RuntimeError> {
        match (&self.batching, &self.code) {
            (Some(e), _) if batching => Err(e.clone()),
            (_, Ok(code)) => Ok(code),
            (_, Err(e)) => Err(e.clone()),
        }
    }
}

/// Lowers a fragment into bytecode.
///
/// `vars` are the types of the owning component's persistent hidden
/// variables; with `fragment.params` they fix the slot layout, so the
/// compiled code is only valid for calls passing exactly that many vars
/// (checked by [`run_compiled`]). The declared types choose specialised
/// instructions, which still check every value they read, so arguments
/// of other types fail or compute as the reference does. A fragment
/// beyond the bytecode's index ranges compiles to code that raises
/// [`RuntimeError::Unlowerable`].
pub fn compile_fragment(fragment: &Fragment, vars: &[Ty]) -> CompiledFragment {
    let n_vars = vars.len();
    let slots: Vec<Ty> = vars
        .iter()
        .chain(fragment.params.iter().map(|(_, ty)| ty))
        .cloned()
        .collect();
    let n_slots = slots.len();
    let mut c = Compiler::new(n_slots, None, &slots);
    c.block(&fragment.body);
    let epilogue = c.epilogue;
    c.bind(epilogue);
    let mark = c.next_reg;
    let src = match &fragment.ret {
        Some(e) => c.operand(e),
        // The "any" placeholder.
        None => Operand::Const(Value::Int(0)),
    };
    c.emit(Op::Ret { src: Some(src) });
    c.free_to(mark);
    let mut body = c.finish().unwrap_or_else(|e| Body {
        code: Box::new([Instr {
            tick: 0,
            cost: 0,
            op: Op::Fail(Box::new(e)),
        }]),
        n_regs: n_slots,
    });
    specialise(&mut body.code);
    CompiledFragment {
        body,
        n_vars,
        n_params: fragment.params.len(),
        label: fragment.label,
    }
}

/// Lowers one open function. The second value is a failure of batching
/// runs only (a deferred call whose result is not a local), when it comes
/// before every other lowering failure of the function.
fn compile_function(
    open: &Open<'_>,
    func: &Function,
) -> (Result<FuncCode, RuntimeError>, Option<RuntimeError>) {
    let mut c = Compiler::new(func.locals.len(), Some(open), func);
    c.block(&func.body);
    // Falling off the end (or a `break` outside any loop) returns the
    // zero value of the return type; `void` functions return an `Int 0`
    // placeholder callers never observe.
    let epilogue = c.epilogue;
    c.bind(epilogue);
    let src = match &func.ret_ty {
        Ty::Void => Some(Operand::Const(Value::Int(0))),
        ty => RtValue::default_of(ty).to_const().map(Operand::Const),
    };
    c.emit(Op::Ret { src });
    let batch_error = c.batch_error.take();
    let code = c.finish().map(|body| FuncCode {
        body,
        locals: func
            .locals
            .iter()
            .map(|d| RtValue::default_of(&d.ty).to_const())
            .collect(),
        activation: func
            .split_component
            .filter(|&c| open.kind_of(c) == Some(MetaKind::Function)),
    });
    (code, batch_error)
}

/// Most instructions a leaf may have and still be inlined.
const INLINE_MAX_INSTRS: usize = 32;

/// Replaces every call to a small scalar leaf with the leaf's own
/// instructions, so the call pushes no frame (DESIGN.md §7c, "Inlined
/// leaves"). Leaves are chosen on the code as lowered, so an inlined body
/// never holds another inline site.
fn inline_leaves(program: &Program, funcs: &mut [FuncCode]) {
    let leaves: Vec<Option<Leaf>> = funcs
        .iter()
        .zip(&program.functions)
        .map(|(code, f)| Leaf::of(program, code, f.num_params))
        .collect();
    if leaves.iter().all(Option::is_none) {
        return;
    }
    for f in funcs {
        if let Some(body) = inline_calls(&f.body, &leaves) {
            f.body = body;
        }
    }
}

/// A function whose calls are inlined, with what a site needs of it.
struct Leaf {
    /// Its code, without an epilogue that no path reaches.
    code: Vec<Instr>,
    n_regs: usize,
    /// Which parameters the code assigns; the others read their argument
    /// in place.
    assigned: Vec<bool>,
    /// Whether the code assigns a global (a global argument is then copied
    /// in).
    stores_global: bool,
    /// The locals a site resets, with their defaults: every local past the
    /// parameters that the code may read before it assigns it.
    resets: Vec<(Reg, Value)>,
    /// By instruction: a `Ret` of the register the instruction before it
    /// writes, charging nothing and reached from that instruction only, so
    /// that instruction may write the call's destination instead.
    direct: Vec<bool>,
}

impl Leaf {
    /// `f` as a leaf, when calls to it may be replaced by its code: it
    /// opens no activation and makes no call, every local (parameters
    /// included) is a scalar, its value is a scalar or void (the epilogue
    /// of an aggregate return type is a `Ret` of no operand, which no leaf
    /// holds), no op can put an aggregate in a register (so no `Rc`
    /// outlives the call), it reads arrays only from globals, and it has
    /// at most [`INLINE_MAX_INSTRS`] instructions.
    fn of(program: &Program, f: &FuncCode, n_params: usize) -> Option<Leaf> {
        if f.activation.is_some() || f.body.code.len() > INLINE_MAX_INSTRS {
            return None;
        }
        let defaults: Vec<Value> = f.locals.iter().copied().collect::<Option<_>>()?;
        let mut code = f.body.code.to_vec();
        let mut assigned = vec![false; n_params];
        let mut stores_global = false;
        for ins in &code {
            match ins.op {
                Op::Load {
                    src: Operand::Global(g),
                    ..
                } if !program.globals[g as usize].ty.is_scalar() => return None,
                Op::StoreGlobal { .. } => stores_global = true,
                _ => {}
            }
            relocate(&ins.op, &mut Operand::Reg, &mut |r| {
                if let Some(param) = assigned.get_mut(usize::from(r)) {
                    *param = true;
                }
                r
            })?;
        }
        // A `return` that ends the body leaves the epilogue after it dead;
        // without it, that `return` ends the site with no jump.
        let n = code.len();
        if n >= 2
            && matches!(code[n - 2].op, Op::Ret { .. })
            && !code
                .iter_mut()
                .any(|i| target_mut(&mut i.op).is_some_and(|t| *t as usize == n - 1))
        {
            code.pop();
        }
        // Every path runs the straight-line code at the entry before its
        // first jump, so a local assigned there before any read of it
        // never shows its default.
        let mut read = vec![false; defaults.len()];
        let mut fresh = vec![false; defaults.len()];
        let straight = |i: &&Instr| {
            !matches!(
                i.op,
                Op::Jump { .. } | Op::Branch { .. } | Op::CmpBranch { .. } | Op::Ret { .. }
            )
        };
        for ins in code.iter().take_while(straight) {
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            relocate(
                &ins.op,
                &mut |r| {
                    reads.push(usize::from(r));
                    Operand::Reg(r)
                },
                &mut |r| {
                    writes.push(usize::from(r));
                    r
                },
            )?;
            for r in reads {
                if let Some(read) = read.get_mut(r) {
                    *read = true;
                }
            }
            for w in writes.into_iter().filter(|&w| w < read.len()) {
                fresh[w] |= !read[w];
            }
        }
        let resets = (n_params..defaults.len())
            .filter(|&j| !fresh[j])
            .map(|j| Some((Reg::try_from(j).ok()?, defaults[j])))
            .collect::<Option<_>>()?;
        let mut targeted = vec![false; code.len()];
        for ins in &mut code {
            if let Some(t) = target_mut(&mut ins.op).and_then(|t| targeted.get_mut(*t as usize)) {
                *t = true;
            }
        }
        let mut direct = vec![false; code.len()];
        for j in 1..code.len() {
            if let Instr {
                tick: 0,
                cost: 0,
                op: Op::Ret {
                    src: Some(Operand::Reg(t)),
                },
            } = code[j]
            {
                direct[j] = !targeted[j] && dst_mut(&mut code[j - 1].op).is_some_and(|w| *w == t);
            }
        }
        Some(Leaf {
            code,
            n_regs: f.body.n_regs,
            assigned,
            stores_global,
            resets,
            direct,
        })
    }
}

/// `caller` with every call to a leaf spliced in, or `None` when it calls
/// none. The leaves' registers share one scratch region above the caller's
/// own: leaves make no calls, so no two inline sites are live at once.
fn inline_calls(caller: &Body, leaves: &[Option<Leaf>]) -> Option<Body> {
    let scratch = caller.n_regs;
    let by = Reg::try_from(scratch).ok()?;
    // A site keeps its `Call` when the leaf's registers would pass the
    // last one, or the entry's charge would pass the cost field.
    let site = move |ins: &Instr| match ins.op {
        Op::Call { func, .. } => {
            let leaf = leaves[func as usize].as_ref()?;
            let entry = u32::try_from(u64::from(ins.cost) + COST_MODEL.call).ok()?;
            (scratch + leaf.n_regs <= usize::from(Reg::MAX)).then_some((leaf, entry))
        }
        _ => None,
    };
    if !caller.code.iter().any(|i| site(i).is_some()) {
        return None;
    }
    let mut code = Vec::with_capacity(caller.code.len());
    let mut n_regs = scratch;
    // Where each caller instruction lands, and the caller's own jumps,
    // retargeted once every site is in place.
    let mut at = Vec::with_capacity(caller.code.len() + 1);
    let mut jumps = Vec::new();
    for ins in caller.code.iter() {
        at.push(code.len());
        match (&ins.op, site(ins)) {
            (Op::Call { dst, args, .. }, Some((leaf, entry))) => {
                n_regs = n_regs.max(scratch + leaf.n_regs);
                // The entry carries the call's tick and charges, and checks
                // the depth where pushing the frame would.
                code.push(Instr {
                    tick: ins.tick,
                    cost: entry,
                    op: Op::Enter,
                });
                splice(&mut code, leaf, *dst, args, by)?;
            }
            _ => {
                let mut ins = ins.clone();
                if target_mut(&mut ins.op).is_some() {
                    jumps.push(code.len());
                }
                code.push(ins);
            }
        }
    }
    at.push(code.len());
    u32::try_from(code.len()).ok()?;
    for j in jumps {
        if let Some(target) = target_mut(&mut code[j].op) {
            *target = at[*target as usize] as u32;
        }
    }
    Some(Body {
        code: code.into_boxed_slice(),
        n_regs,
    })
}

/// Appends an inlined call's body after its entry: moves of the arguments
/// into the parameters the leaf assigns, resets of its locals to their
/// defaults (a loop enters the same site again), then the leaf's code with
/// its registers moved up by `by` and each `Ret` a move of the value to
/// `dst` and a jump past the site. A parameter the leaf never assigns
/// reads its argument in place: the caller's registers do not change
/// before the site ends, nor do globals unless the leaf assigns one.
///
/// A [`Leaf::direct`] `Ret` needs no move: the instruction before it
/// writes `dst`. That holds even when an argument read in place is `dst`
/// itself: the write is the last thing the leaf does, after it has read
/// every operand.
fn splice(code: &mut Vec<Instr>, leaf: &Leaf, dst: Reg, args: &[Operand], by: Reg) -> Option<()> {
    let zero = |op| Instr {
        tick: 0,
        cost: 0,
        op,
    };
    let mut bound = Vec::with_capacity(args.len());
    for (p, &arg) in args.iter().enumerate() {
        let copied = leaf.assigned.get(p).copied().unwrap_or(true)
            || (leaf.stores_global && matches!(arg, Operand::Global(_)));
        if copied {
            let dst = by + Reg::try_from(p).ok()?;
            code.push(zero(Op::Load { dst, src: arg }));
        }
        bound.push((!copied).then_some(arg));
    }
    for &(r, v) in &leaf.resets {
        code.push(zero(Op::Load {
            dst: by + r,
            src: Operand::Const(v),
        }));
    }
    let direct = |j: usize| leaf.direct.get(j) == Some(&true);
    let mut read = |r: Reg| {
        let arg = bound.get(usize::from(r)).copied().flatten();
        arg.unwrap_or(Operand::Reg(r + by))
    };
    let mut write = |r: Reg| r + by;
    let last = leaf.code.len() - 1;
    let mut at = Vec::with_capacity(leaf.code.len() + 1);
    let mut next = code.len();
    for (j, ins) in leaf.code.iter().enumerate() {
        at.push(next);
        if matches!(ins.op, Op::Ret { .. }) {
            next += usize::from(!direct(j)) + usize::from(j != last);
        } else {
            next += 1;
        }
    }
    at.push(next);
    let end = u32::try_from(next).ok()?;
    for (j, ins) in leaf.code.iter().enumerate() {
        let (tick, cost) = (ins.tick, ins.cost);
        let mut op = relocate(&ins.op, &mut read, &mut write)?;
        if direct(j + 1) {
            *dst_mut(&mut op)? = dst;
        }
        match op {
            Op::Ret { src: Some(src) } => {
                if !direct(j) {
                    code.push(Instr {
                        tick,
                        cost,
                        op: Op::Load { dst, src },
                    });
                }
                if j != last {
                    code.push(zero(Op::Jump { target: end }));
                }
            }
            mut op => {
                if let Some(target) = target_mut(&mut op) {
                    *target = at[*target as usize] as u32;
                }
                code.push(Instr { tick, cost, op });
            }
        }
    }
    Some(())
}

/// `op` with each register it reads mapped by `read` (to any operand) and
/// each it writes by `write`; `None` for the ops an inlined leaf may not
/// hold: calls, hidden calls, the ops that can put an aggregate in a
/// register, and array reads from a register.
fn relocate(
    op: &Op,
    read: &mut impl FnMut(Reg) -> Operand,
    write: &mut impl FnMut(Reg) -> Reg,
) -> Option<Op> {
    let mut o = |x: &Operand| match *x {
        Operand::Reg(r) => read(r),
        x => x,
    };
    let mut w = |x: &Reg| write(*x);
    let s = |x: &Slot| match *x {
        Slot::Global(g) => Some(Slot::Global(g)),
        Slot::Reg(_) => None,
    };
    Some(match op {
        Op::Nop => Op::Nop,
        Op::Load { dst, src } => Op::Load {
            src: o(src),
            dst: w(dst),
        },
        Op::Un { op, dst, src } => Op::Un {
            op: *op,
            src: o(src),
            dst: w(dst),
        },
        Op::Bin {
            op,
            dst,
            lhs,
            rhs,
            ints,
        } => Op::Bin {
            op: *op,
            lhs: o(lhs),
            rhs: o(rhs),
            dst: w(dst),
            ints: *ints,
        },
        Op::Builtin { b, dst, args } => Op::Builtin {
            b: *b,
            args: args.iter().map(&mut o).collect(),
            dst: w(dst),
        },
        Op::Jump { target } => Op::Jump { target: *target },
        Op::Branch { cond, target, when } => Op::Branch {
            cond: o(cond),
            target: *target,
            when: *when,
        },
        Op::CmpBranch {
            op,
            lhs,
            rhs,
            target,
            when,
            ints,
        } => Op::CmpBranch {
            op: *op,
            lhs: o(lhs),
            rhs: o(rhs),
            target: *target,
            when: *when,
            ints: *ints,
        },
        Op::Ret { src: Some(src) } => Op::Ret { src: Some(o(src)) },
        Op::StoreGlobal { global, src } => Op::StoreGlobal {
            global: *global,
            src: o(src),
        },
        Op::LoadElem { dst, arr, idx } => Op::LoadElem {
            arr: s(arr)?,
            idx: o(idx),
            dst: w(dst),
        },
        Op::StoreElem { arr, idx, src } => Op::StoreElem {
            arr: s(arr)?,
            idx: o(idx),
            src: o(src),
        },
        Op::Len { dst, arr } => Op::Len {
            arr: s(arr)?,
            dst: w(dst),
        },
        Op::Print { src } => Op::Print { src: o(src) },
        // Every other op; no code holds a specialised form before the last
        // pass.
        _ => return None,
    })
}

/// The destination of an op whose one effect is to write a register,
/// after reading every operand.
fn dst_mut(op: &mut Op) -> Option<&mut Reg> {
    match op {
        Op::Load { dst, .. }
        | Op::Un { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Builtin { dst, .. }
        | Op::LoadElem { dst, .. }
        | Op::Len { dst, .. } => Some(dst),
        _ => None,
    }
}

/// The jump target of a control-flow op.
fn target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jump { target } | Op::Branch { target, .. } | Op::CmpBranch { target, .. } => {
            Some(target)
        }
        _ => None,
    }
}

/// Rewrites each `Bin` and `CmpBranch` that has a specialised form into
/// it (DESIGN.md §7c, "Specialised instructions"). The last pass over a
/// body, so relocation and jump resolution never see a specialised op;
/// ticks and costs stay on their instructions.
fn specialise(code: &mut [Instr]) {
    for ins in code {
        let op = match ins.op {
            Op::Bin {
                op,
                dst,
                lhs,
                rhs,
                ints,
            } => arith_form(op, dst, lhs, rhs, ints),
            Op::CmpBranch {
                op,
                lhs: Operand::Reg(lhs),
                rhs,
                target,
                when,
                ints,
            } => branch_form(op, lhs, rhs, target, when, ints),
            _ => None,
        };
        if let Some(op) = op {
            ins.op = op;
        }
    }
}

/// The specialised form of `dst = lhs <op> rhs`, if any: with an `Int`
/// immediate, or on two registers when the operands are statically `Int`.
fn arith_form(op: BinOp, dst: Reg, lhs: Operand, rhs: Operand, ints: bool) -> Option<Op> {
    use Operand::{Const, Reg as R};
    use Value::Int;
    Some(match (lhs, rhs, op) {
        (R(lhs), Const(Int(rhs)), BinOp::Add) => Op::AddIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Sub) => Op::SubIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Mul) => Op::MulIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Div) => Op::DivIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Rem) => Op::RemIRK(Arith { dst, lhs, rhs }),
        (Const(Int(lhs)), R(rhs), BinOp::Sub) => Op::SubIKR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Add) if ints => Op::AddIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Sub) if ints => Op::SubIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Mul) if ints => Op::MulIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Div) if ints => Op::DivIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Rem) if ints => Op::RemIRR(Arith { dst, lhs, rhs }),
        _ => return None,
    })
}

/// The specialised form of a compare-and-branch on register `lhs`, if
/// any: with an `Int` immediate, or a register when the operands are
/// statically `Int`.
fn branch_form(
    op: BinOp,
    lhs: Reg,
    rhs: Operand,
    target: u32,
    when: bool,
    ints: bool,
) -> Option<Op> {
    use Operand::{Const, Reg as R};
    use Value::Int;
    fn b<T>(lhs: Reg, rhs: T, target: u32, when: bool) -> Branch<T> {
        Branch {
            lhs,
            rhs,
            target,
            when,
        }
    }
    Some(match (rhs, op) {
        (R(r), BinOp::Eq) if ints => Op::EqIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Ne) if ints => Op::NeIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Lt) if ints => Op::LtIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Le) if ints => Op::LeIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Gt) if ints => Op::GtIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Ge) if ints => Op::GeIRRBranch(b(lhs, r, target, when)),
        (Const(Int(k)), BinOp::Eq) => Op::EqIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Ne) => Op::NeIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Lt) => Op::LtIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Le) => Op::LeIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Gt) => Op::GtIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Ge) => Op::GeIRKBranch(b(lhs, k, target, when)),
        _ => return None,
    })
}

/// The program a fragment's operands are typed against.
static NO_PROGRAM: Program = Program {
    functions: Vec::new(),
    globals: Vec::new(),
    classes: Vec::new(),
};

/// A forward-reference label, resolved to an instruction index by
/// [`Compiler::finish`].
type Label = usize;

/// What lowering an open function needs beyond the function itself.
struct Open<'p> {
    program: &'p Program,
    /// The split's component kinds, by `ComponentId`; `None` without a
    /// channel.
    kinds: Option<&'p [MetaKind]>,
}

impl Open<'_> {
    fn kind_of(&self, c: ComponentId) -> Option<MetaKind> {
        self.kinds?.get(c.index()).copied()
    }
}

struct Compiler<'o, 'p> {
    code: Vec<Instr>,
    labels: Vec<Option<usize>>,
    /// Ticks and cost not yet attached to an instruction; the next
    /// emitted instruction carries them.
    tick: u32,
    cost: u64,
    /// Registers `0 .. n_slots` are variables; temporaries follow.
    n_slots: usize,
    next_reg: usize,
    max_reg: usize,
    /// Innermost-first stack of `(continue, break)` labels.
    loops: Vec<(Label, Label)>,
    /// Label of the return sequence; top-level `break`/`continue` jump here.
    epilogue: Label,
    /// `None` while lowering a fragment.
    open: Option<&'o Open<'p>>,
    /// The locals' declared types; with the program's, they type the
    /// operands of arithmetic and comparisons.
    locals: &'o dyn LocalTypes,
    /// The first lowering failure; the rest of the code is discarded.
    error: Option<RuntimeError>,
    /// A failure of batching runs only, when it comes before `error`.
    batch_error: Option<RuntimeError>,
}

impl<'o, 'p> Compiler<'o, 'p> {
    fn new(
        n_slots: usize,
        open: Option<&'o Open<'p>>,
        locals: &'o dyn LocalTypes,
    ) -> Compiler<'o, 'p> {
        let mut c = Compiler {
            code: Vec::new(),
            labels: Vec::new(),
            tick: 0,
            cost: 0,
            n_slots,
            next_reg: n_slots,
            max_reg: n_slots,
            loops: Vec::new(),
            epilogue: 0,
            open,
            locals,
            error: None,
            batch_error: None,
        };
        if Reg::try_from(n_slots).is_err() {
            c.fail("more variables than bytecode registers");
        }
        c.epilogue = c.new_label();
        c
    }

    fn fail(&mut self, what: &'static str) {
        self.error.get_or_insert(RuntimeError::Unlowerable(what));
    }

    /// Appends `op`, carrying the pending ticks and cost.
    fn emit(&mut self, op: Op) {
        let tick = std::mem::take(&mut self.tick);
        let cost = u32::try_from(std::mem::take(&mut self.cost)).unwrap_or_else(|_| {
            self.fail("a cost charge beyond the bytecode's range");
            0
        });
        self.code.push(Instr { tick, cost, op });
    }

    /// One statement (or loop-condition check) of step budget, charged by
    /// the next emitted instruction.
    fn tick(&mut self) {
        self.tick = self.tick.checked_add(1).unwrap_or_else(|| {
            self.fail("more ticks than the bytecode carries");
            0
        });
    }

    fn add_cost(&mut self, units: u64) {
        self.cost += units;
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        self.labels.len() - 1
    }

    /// Binds `l` to the next instruction. Pending ticks and cost never
    /// cross a jump target: they get a no-op of their own.
    fn bind(&mut self, l: Label) {
        if self.tick > 0 || self.cost > 0 {
            self.emit(Op::Nop);
        }
        self.labels[l] = Some(self.code.len());
    }

    /// A label as a not-yet-resolved jump target.
    fn target(&mut self, l: Label) -> u32 {
        u32::try_from(l).unwrap_or_else(|_| {
            self.fail("more branches than bytecode labels");
            0
        })
    }

    fn jump(&mut self, l: Label) {
        let target = self.target(l);
        self.emit(Op::Jump { target });
    }

    fn reg(&mut self, index: usize) -> Reg {
        Reg::try_from(index).unwrap_or_else(|_| {
            self.fail("more registers than the bytecode addresses");
            0
        })
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        self.reg(r)
    }

    fn free_to(&mut self, mark: usize) {
        self.next_reg = mark;
    }

    /// Resolves labels to instruction indices.
    fn finish(mut self) -> Result<Body, RuntimeError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut targets = Vec::with_capacity(self.labels.len());
        for l in &self.labels {
            let at = l.ok_or(RuntimeError::Unlowerable("unbound bytecode label"))?;
            targets
                .push(u32::try_from(at).map_err(|_| {
                    RuntimeError::Unlowerable("more instructions than jumps reach")
                })?);
        }
        for i in &mut self.code {
            if let Some(target) = target_mut(&mut i.op) {
                *target = targets[*target as usize];
            }
        }
        if Reg::try_from(self.max_reg.saturating_sub(1)).is_err() {
            return Err(RuntimeError::Unlowerable(
                "more registers than the bytecode addresses",
            ));
        }
        Ok(Body {
            code: self.code.into_boxed_slice(),
            n_regs: self.max_reg,
        })
    }

    fn global(&mut self, id: hps_ir::GlobalId) -> Option<u32> {
        let open = self.open?;
        if id.index() >= open.program.globals.len() {
            self.fail("global out of range");
            return Some(0);
        }
        Some(u32::try_from(id.index()).unwrap_or_else(|_| {
            self.fail("more globals than the bytecode addresses");
            0
        }))
    }

    /// A register, global or immediate for `e` when no code is needed:
    /// in-range locals map straight onto their register (expressions never
    /// assign a frame's own locals, so reading at use time equals reading
    /// at evaluation time), constants become immediates.
    fn simple(&mut self, e: &Expr) -> Option<Operand> {
        match e {
            Expr::Const(v) => Some(Operand::Const(*v)),
            Expr::Local(id) if id.index() < self.n_slots => {
                Some(Operand::Reg(self.reg(id.index())))
            }
            Expr::Global(id) => self.global(*id).map(Operand::Global),
            _ => None,
        }
    }

    /// Evaluates `e` into an operand, folding constants and reusing
    /// variable registers where possible; otherwise compiles into a fresh
    /// temp.
    fn operand(&mut self, e: &Expr) -> Operand {
        if let Some(op) = self.simple(e) {
            return op;
        }
        if let Some((v, cost)) = fold(e) {
            self.add_cost(cost);
            return Operand::Const(v);
        }
        let r = self.alloc();
        self.expr_into(e, r);
        Operand::Reg(r)
    }

    /// Evaluates sibling expressions in order. A global is read in place
    /// only when no later sibling contains a call (a callee may assign
    /// it); otherwise it is copied to a temp where the tree-walk reads it.
    fn operands(&mut self, es: &[&Expr]) -> Vec<Operand> {
        let mut out = Vec::with_capacity(es.len());
        for (i, e) in es.iter().enumerate() {
            let op = self.operand(e);
            out.push(self.pin(op, es[i + 1..].iter().any(|l| contains_call(l))));
        }
        out
    }

    /// Copies a global operand to a temp when code that may assign it runs
    /// before the operand is used.
    fn pin(&mut self, op: Operand, later_call: bool) -> Operand {
        match op {
            Operand::Global(_) if later_call => {
                let r = self.alloc();
                self.emit(Op::Load { dst: r, src: op });
                Operand::Reg(r)
            }
            op => op,
        }
    }

    /// An aggregate input; a constant (never an aggregate) goes through a
    /// register so the access raises the tree-walk's mismatch.
    fn slot(&mut self, op: Operand) -> Slot {
        match op {
            Operand::Reg(r) => Slot::Reg(r),
            Operand::Global(g) => Slot::Global(g),
            Operand::Const(_) => {
                let r = self.alloc();
                self.emit(Op::Load { dst: r, src: op });
                Slot::Reg(r)
            }
        }
    }

    /// Compiles `e` so its value lands in `dst`, charging exactly the
    /// costs the tree-walk charges and raising errors in evaluation order.
    /// `dst` is written only once every operand has been read, so it may
    /// be a variable the expression reads.
    fn expr_into(&mut self, e: &Expr, dst: Reg) {
        if let Some(src) = self.simple(e) {
            self.emit(Op::Load { dst, src });
            return;
        }
        if let Some((v, cost)) = fold(e) {
            self.add_cost(cost);
            self.emit(Op::Load {
                dst,
                src: Operand::Const(v),
            });
            return;
        }
        let mark = self.next_reg;
        match e {
            Expr::Const(v) => self.emit(Op::Load {
                dst,
                src: Operand::Const(*v),
            }),
            Expr::Local(_) => match self.open {
                Some(_) => self.fail("local out of range"),
                None => self.emit(Op::Illegal("out-of-range hidden slot")),
            },
            Expr::Unary { op, arg } => {
                self.add_cost(COST_MODEL.unop);
                let src = self.operand(arg);
                self.emit(Op::Un { op: *op, dst, src });
            }
            Expr::Binary { op, lhs, rhs } if op.is_logical() => {
                // `a && b` is `b` when `a` holds, else `false`; `a || b`
                // is `true` when `a` holds, else `b`.
                self.add_cost(COST_MODEL.binop);
                let short = *op == BinOp::Or;
                let cond = self.operand(lhs);
                self.free_to(mark);
                let l_short = self.new_label();
                let l_end = self.new_label();
                let target = self.target(l_short);
                self.emit(Op::Branch {
                    cond,
                    target,
                    when: short,
                });
                self.expr_into(rhs, dst);
                self.jump(l_end);
                self.bind(l_short);
                self.emit(Op::Load {
                    dst,
                    src: Operand::Const(Value::Bool(short)),
                });
                self.bind(l_end);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.add_cost(COST_MODEL.binop);
                let ops = self.operands(&[lhs, rhs]);
                let ints = self.ints(lhs);
                self.emit(Op::Bin {
                    op: *op,
                    dst,
                    lhs: ops[0],
                    rhs: ops[1],
                    ints,
                });
            }
            Expr::BuiltinCall {
                builtin: Builtin::Len,
                args,
            } if self.open.is_some() => {
                self.add_cost(COST_MODEL.builtin);
                let [arg] = args.as_slice() else {
                    return self.fail("len takes one argument");
                };
                let op = self.operand(arg);
                let arr = self.slot(op);
                self.emit(Op::Len { dst, arr });
            }
            Expr::BuiltinCall { builtin, args } => {
                self.add_cost(COST_MODEL.builtin_cost(*builtin));
                let args: Vec<&Expr> = args.iter().collect();
                let args = self.operands(&args);
                self.emit(Op::Builtin {
                    b: *builtin,
                    dst,
                    args: args.into_boxed_slice(),
                });
            }
            _ if self.open.is_none() => self.emit(Op::Illegal(leak_point(e))),
            Expr::Global(id) => {
                let src = Operand::Global(self.global(*id).unwrap_or(0));
                self.emit(Op::Load { dst, src });
            }
            Expr::Index { base, index } => {
                let ops = self.operands(&[base, index]);
                let arr = self.slot(ops[0]);
                self.add_cost(COST_MODEL.index);
                self.emit(Op::LoadElem {
                    dst,
                    arr,
                    idx: ops[1],
                });
            }
            Expr::FieldGet { obj, field, .. } => {
                let op = self.operand(obj);
                let obj = self.slot(op);
                self.add_cost(COST_MODEL.field);
                let field = self.index32(field.index());
                self.emit(Op::LoadField { dst, obj, field });
            }
            Expr::Call { callee, args } => self.call(callee.func(), args, dst),
            Expr::NewArray { elem, len } => {
                let len = self.operand(len);
                self.emit(Op::NewArray {
                    dst,
                    len,
                    elem: RtValue::default_of(elem).to_const(),
                });
            }
            Expr::NewObject(class) => {
                if self
                    .open
                    .is_some_and(|o| class.index() >= o.program.classes.len())
                {
                    return self.fail("class out of range");
                }
                self.add_cost(COST_MODEL.alloc_object);
                let class = self.index32(class.index());
                self.emit(Op::NewObject { dst, class });
            }
        }
        self.free_to(mark);
    }

    /// Whether `e` is statically an `Int`. A fragment is typed against
    /// no program: it reads no globals, calls nothing and reads no fields.
    fn ints(&self, e: &Expr) -> bool {
        let program = self.open.map_or(&NO_PROGRAM, |o| o.program);
        expr_ty(program, self.locals, e) == Some(Ty::Int)
    }

    fn index32(&mut self, index: usize) -> u32 {
        u32::try_from(index).unwrap_or_else(|_| {
            self.fail("index beyond the bytecode's range");
            0
        })
    }

    fn call(&mut self, func: hps_ir::FuncId, args: &[Expr], dst: Reg) {
        let Some(open) = self.open else {
            return self.emit(Op::Illegal("call in fragment"));
        };
        match open.program.functions.get(func.index()) {
            Some(f) if f.num_params == args.len() => {}
            Some(_) => return self.fail("call arity differs from the callee's parameters"),
            None => return self.fail("call to a function out of range"),
        }
        let args: Vec<&Expr> = args.iter().collect();
        let args = self.operands(&args);
        let func = self.index32(func.index());
        self.emit(Op::Call {
            func,
            dst,
            args: args.into_boxed_slice(),
        });
    }

    /// Compiles a condition so control jumps to `target` when it evaluates
    /// to `when` and falls through otherwise. Comparisons fuse into
    /// [`Op::CmpBranch`]; `&&` and `||` become branch chains (the same
    /// operands evaluated, the same "bool condition" checks).
    fn branch(&mut self, cond: &Expr, target: Label, when: bool) {
        if let Some((Value::Bool(b), cost)) = fold(cond) {
            self.add_cost(cost);
            if b == when {
                self.jump(target);
            }
            return;
        }
        let mark = self.next_reg;
        match cond {
            Expr::Binary { op, lhs, rhs } if op.is_relational() => {
                self.add_cost(COST_MODEL.binop);
                let ops = self.operands(&[lhs, rhs]);
                let target = self.target(target);
                let ints = self.ints(lhs);
                self.emit(Op::CmpBranch {
                    op: *op,
                    lhs: ops[0],
                    rhs: ops[1],
                    target,
                    when,
                    ints,
                });
            }
            Expr::Binary { op, lhs, rhs } if op.is_logical() => {
                self.add_cost(COST_MODEL.binop);
                // `&&` decides `false` on its left side, `||` decides
                // `true`; otherwise the right side decides.
                let decides = *op == BinOp::Or;
                if decides == when {
                    self.branch(lhs, target, when);
                    self.branch(rhs, target, when);
                } else {
                    let skip = self.new_label();
                    self.branch(lhs, skip, decides);
                    self.branch(rhs, target, when);
                    self.bind(skip);
                }
            }
            _ => {
                let c = self.operand(cond);
                let target = self.target(target);
                self.emit(Op::Branch {
                    cond: c,
                    target,
                    when,
                });
            }
        }
        self.free_to(mark);
    }

    /// Reads a place as an aggregate for an element store.
    fn place_slot(&mut self, place: &Place, later_call: bool) -> Slot {
        match place {
            Place::Local(id) if id.index() < self.n_slots => Slot::Reg(self.reg(id.index())),
            Place::Local(_) => {
                self.fail("local out of range");
                Slot::Reg(0)
            }
            Place::Global(id) => {
                let g = self.global(*id).unwrap_or(0);
                match self.pin(Operand::Global(g), later_call) {
                    Operand::Reg(r) => Slot::Reg(r),
                    _ => Slot::Global(g),
                }
            }
            Place::Index { base, index } => {
                let arr = self.place_slot(base, contains_call(index));
                let idx = self.operand(index);
                self.add_cost(COST_MODEL.index);
                let dst = self.alloc();
                self.emit(Op::LoadElem { dst, arr, idx });
                Slot::Reg(dst)
            }
            Place::Field { obj, field, .. } => {
                let op = self.operand(obj);
                let obj = self.slot(op);
                self.add_cost(COST_MODEL.field);
                let field = self.index32(field.index());
                let dst = self.alloc();
                self.emit(Op::LoadField { dst, obj, field });
                Slot::Reg(dst)
            }
        }
    }

    /// Stores `src` into an open-code place, evaluating the place's index
    /// and receiver now, after the value (as the tree-walk does).
    fn store(&mut self, place: &Place, src: Operand) {
        match place {
            Place::Local(id) if id.index() < self.n_slots => {
                let dst = self.reg(id.index());
                self.emit(Op::Load { dst, src });
            }
            Place::Local(_) => self.fail("local out of range"),
            Place::Global(id) => {
                let global = self.global(*id).unwrap_or(0);
                self.emit(Op::StoreGlobal { global, src });
            }
            Place::Index { base, index } => {
                let arr = self.place_slot(base, contains_call(index));
                let idx = self.operand(index);
                self.add_cost(COST_MODEL.index);
                self.emit(Op::StoreElem { arr, idx, src });
            }
            Place::Field { obj, field, .. } => {
                let op = self.operand(obj);
                let obj = self.slot(op);
                self.add_cost(COST_MODEL.field);
                let field = self.index32(field.index());
                self.emit(Op::StoreField { obj, field, src });
            }
        }
    }

    fn assign(&mut self, place: &Place, value: &Expr) {
        let mark = self.next_reg;
        match place {
            Place::Local(id) if id.index() < self.n_slots => {
                self.add_cost(COST_MODEL.assign);
                let dst = self.reg(id.index());
                self.expr_into(value, dst);
            }
            _ if self.open.is_some() => {
                let v = self.operand(value);
                let v = self.pin(v, place_contains_call(place));
                self.add_cost(COST_MODEL.assign);
                self.store(place, v);
            }
            _ => {
                self.operand(value);
                self.add_cost(COST_MODEL.assign);
                self.emit(Op::Illegal(match place {
                    Place::Local(_) => "out-of-range hidden slot",
                    _ => "aggregate store in fragment",
                }));
            }
        }
        self.free_to(mark);
    }

    fn hidden_call(
        &mut self,
        component: ComponentId,
        label: FragLabel,
        args: &[Expr],
        result: Option<&Place>,
        deferred: bool,
    ) {
        let Some(open) = self.open else {
            return self.emit(Op::Illegal("nested hidden call"));
        };
        let mark = self.next_reg;
        // Each argument is checked as it is marshalled, before a later
        // one runs any code.
        let mut ops = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let op = self.operand(a);
            let later = &args[i + 1..];
            let op = self.pin(op, later.iter().any(contains_call));
            if matches!(op, Operand::Reg(_) | Operand::Global(_))
                && later.iter().any(|l| !is_leaf(l))
            {
                self.emit(Op::Scalar { src: op });
            }
            ops.push(op);
        }
        self.add_cost(COST_MODEL.marshal_per_arg * args.len() as u64);
        let route = match open.kinds {
            None => Route::Fail(RuntimeError::NoChannel),
            Some(_) => match open.kind_of(component) {
                Some(MetaKind::Class) if self.n_slots > 0 => Route::SelfObject,
                Some(MetaKind::Class) => Route::Fail(RuntimeError::Channel(
                    "class-component hidden call outside a method".into(),
                )),
                Some(MetaKind::Global) => Route::Global,
                _ => Route::Activation,
            },
        };
        // A deferred result is a local (the deferrable-call pass defers no
        // other), so a flush writes it straight to its register. Any
        // other result place lowers as a demanded call's, and batching
        // runs of the program fail instead.
        let (result, store) = match result {
            None => (None, None),
            Some(place) => {
                self.add_cost(COST_MODEL.assign);
                match place {
                    Place::Local(id) if id.index() < self.n_slots => {
                        (Some(self.reg(id.index())), None)
                    }
                    _ => {
                        if deferred && self.error.is_none() {
                            self.batch_error.get_or_insert(RuntimeError::Unlowerable(
                                "deferred hidden-call result outside a local",
                            ));
                        }
                        let t = self.alloc();
                        (Some(t), Some((place, t)))
                    }
                }
            }
        };
        self.emit(Op::Hidden(Box::new(HiddenOp {
            component,
            label,
            args: ops.into_boxed_slice(),
            route,
            result,
            deferred,
        })));
        if let Some((place, t)) = store {
            self.store(place, Operand::Reg(t));
        }
        self.free_to(mark);
    }

    fn block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            self.tick();
            match &stmt.kind {
                StmtKind::Assign { place, value } => self.assign(place, value),
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.add_cost(COST_MODEL.branch);
                    let l_else = self.new_label();
                    let l_end = self.new_label();
                    self.branch(cond, l_else, false);
                    self.block(then_blk);
                    if !else_blk.is_empty() {
                        self.jump(l_end);
                    }
                    self.bind(l_else);
                    self.block(else_blk);
                    self.bind(l_end);
                }
                StmtKind::While { cond, body } => {
                    // Rotated: the first check falls into the body, and
                    // every later check ends an iteration by branching back.
                    let l_body = self.new_label();
                    let l_check = self.new_label();
                    let l_end = self.new_label();
                    self.tick();
                    self.add_cost(COST_MODEL.branch);
                    self.branch(cond, l_end, false);
                    self.bind(l_body);
                    self.loops.push((l_check, l_end));
                    self.block(body);
                    self.loops.pop();
                    self.bind(l_check);
                    self.tick();
                    self.add_cost(COST_MODEL.branch);
                    self.branch(cond, l_body, true);
                    self.bind(l_end);
                }
                StmtKind::Break => {
                    let target = self.loops.last().map_or(self.epilogue, |&(_, end)| end);
                    self.jump(target);
                }
                StmtKind::Continue => {
                    let target = self.loops.last().map_or(self.epilogue, |&(check, _)| check);
                    self.jump(target);
                }
                StmtKind::Nop => {}
                _ if self.open.is_none() => self.emit(Op::Illegal(match &stmt.kind {
                    StmtKind::Return(_) => "return in fragment",
                    StmtKind::Print(_) => "print in fragment",
                    StmtKind::ExprStmt(_) => "call in fragment",
                    _ => "nested hidden call",
                })),
                StmtKind::Return(e) => {
                    let mark = self.next_reg;
                    let src = match e {
                        Some(e) => self.operand(e),
                        None => Operand::Const(Value::Int(0)),
                    };
                    self.emit(Op::Ret { src: Some(src) });
                    self.free_to(mark);
                }
                StmtKind::Print(e) => {
                    let mark = self.next_reg;
                    let src = self.operand(e);
                    self.add_cost(COST_MODEL.print);
                    self.emit(Op::Print { src });
                    self.free_to(mark);
                }
                StmtKind::ExprStmt(e) => {
                    let mark = self.next_reg;
                    self.operand(e);
                    self.free_to(mark);
                }
                StmtKind::HiddenCall {
                    component,
                    label,
                    args,
                    result,
                    deferred,
                } => self.hidden_call(*component, *label, args, result.as_ref(), *deferred),
            }
        }
    }
}

/// The diagnostic of a construct the fragment subset forbids.
fn leak_point(e: &Expr) -> &'static str {
    match e {
        Expr::Global(_) => "global access in fragment",
        Expr::Index { .. } => "array access in fragment",
        Expr::FieldGet { .. } => "field access in fragment",
        Expr::Call { .. } => "call in fragment",
        _ => "allocation in fragment",
    }
}

fn contains_call(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| found |= matches!(sub, Expr::Call { .. }));
    found
}

fn place_contains_call(place: &Place) -> bool {
    match place {
        Place::Local(_) | Place::Global(_) => false,
        Place::Index { base, index } => place_contains_call(base) || contains_call(index),
        Place::Field { obj, .. } => contains_call(obj),
    }
}

fn is_leaf(e: &Expr) -> bool {
    matches!(e, Expr::Const(_) | Expr::Local(_) | Expr::Global(_))
}

/// Constant-folds a pure-constant subtree, returning its value and the
/// cost units the tree-walk would charge evaluating it. `None` when the
/// subtree reads state, can fail at runtime, or short-circuits on a
/// non-constant condition.
fn fold(e: &Expr) -> Option<(Value, u64)> {
    match e {
        Expr::Const(v) => Some((*v, 0)),
        Expr::Unary { op, arg } => {
            let (a, ca) = fold(arg)?;
            let v = ops::unop(*op, &RtValue::from_const(a)).ok()?;
            Some((v.to_const()?, COST_MODEL.unop + ca))
        }
        Expr::Binary { op, lhs, rhs } if op.is_logical() => {
            // Fold only when the left side decides the outcome the same
            // way the tree-walk would.
            let (a, ca) = fold(lhs)?;
            match (op, a) {
                (BinOp::And, Value::Bool(false)) => {
                    Some((Value::Bool(false), COST_MODEL.binop + ca))
                }
                (BinOp::Or, Value::Bool(true)) => Some((Value::Bool(true), COST_MODEL.binop + ca)),
                (_, Value::Bool(_)) => {
                    let (b, cb) = fold(rhs)?;
                    Some((b, COST_MODEL.binop + ca + cb))
                }
                _ => None, // non-bool condition traps at runtime
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let (a, ca) = fold(lhs)?;
            let (b, cb) = fold(rhs)?;
            let v = ops::binop(*op, &RtValue::from_const(a), &RtValue::from_const(b)).ok()?;
            Some((v.to_const()?, COST_MODEL.binop + ca + cb))
        }
        Expr::BuiltinCall { builtin, args } => {
            let mut cost = COST_MODEL.builtin_cost(*builtin);
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                let (v, c) = fold(a)?;
                cost += c;
                vals.push(RtValue::from_const(v));
            }
            let v = ops::builtin(*builtin, &vals).ok()?;
            Some((v.to_const()?, cost))
        }
        _ => None,
    }
}

/// Reads an operand.
#[inline(always)]
fn read(regs: &[RtValue], globals: &[RtValue], o: &Operand) -> RtValue {
    match *o {
        Operand::Reg(r) => regs[usize::from(r)].clone(),
        Operand::Global(g) => globals[g as usize].clone(),
        Operand::Const(v) => RtValue::from_const(v),
    }
}

/// An operand's value when it is an `Int`, without a clone.
#[inline(always)]
fn int(regs: &[RtValue], globals: &[RtValue], o: &Operand) -> Option<i64> {
    match *o {
        Operand::Reg(r) => match regs[usize::from(r)] {
            RtValue::Int(i) => Some(i),
            _ => None,
        },
        Operand::Const(Value::Int(i)) => Some(i),
        Operand::Global(g) => match globals[g as usize] {
            RtValue::Int(i) => Some(i),
            _ => None,
        },
        Operand::Const(_) => None,
    }
}

/// An operand's value when it is a `Float`, without a clone.
#[inline(always)]
fn float(regs: &[RtValue], globals: &[RtValue], o: &Operand) -> Option<f64> {
    match *o {
        Operand::Reg(r) => match regs[usize::from(r)] {
            RtValue::Float(f) => Some(f),
            _ => None,
        },
        Operand::Const(Value::Float(f)) => Some(f),
        Operand::Global(g) => match globals[g as usize] {
            RtValue::Float(f) => Some(f),
            _ => None,
        },
        Operand::Const(_) => None,
    }
}

/// An aggregate input, borrowed in place.
#[inline(always)]
fn slot<'r>(regs: &'r [RtValue], globals: &'r [RtValue], s: &Slot) -> &'r RtValue {
    match *s {
        Slot::Reg(r) => &regs[usize::from(r)],
        Slot::Global(g) => &globals[g as usize],
    }
}

/// Writes an `Int` into a register in place. A register that already
/// holds an `Int` has only its payload overwritten; any other value is
/// replaced (and an aggregate's reference released).
#[inline(always)]
pub(crate) fn set_int(r: &mut RtValue, v: i64) {
    match r {
        RtValue::Int(x) => *x = v,
        _ => *r = RtValue::Int(v),
    }
}

/// [`set_int`] for a `Bool`.
#[inline(always)]
fn set_bool(r: &mut RtValue, v: bool) {
    match r {
        RtValue::Bool(x) => *x = v,
        _ => *r = RtValue::Bool(v),
    }
}

/// [`set_int`] for a `Float`.
#[inline(always)]
fn set_float(r: &mut RtValue, v: f64) {
    match r {
        RtValue::Float(x) => *x = v,
        _ => *r = RtValue::Float(v),
    }
}

/// `Int × Int` arithmetic and comparison, written straight into `dst`
/// with [`ops::binop`]'s wrapping semantics. `false`, with `dst`
/// untouched, for a zero divisor and for `&&`/`||`: the caller leaves
/// those to [`binop_into`], which raises `ops::binop`'s error.
#[inline(always)]
pub(crate) fn int_binop_into(op: BinOp, x: i64, y: i64, dst: &mut RtValue) -> bool {
    match op {
        BinOp::Add => set_int(dst, x.wrapping_add(y)),
        BinOp::Sub => set_int(dst, x.wrapping_sub(y)),
        BinOp::Mul => set_int(dst, x.wrapping_mul(y)),
        BinOp::Div if y != 0 => set_int(dst, x.wrapping_div(y)),
        BinOp::Rem if y != 0 => set_int(dst, x.wrapping_rem(y)),
        BinOp::Div | BinOp::Rem | BinOp::And | BinOp::Or => return false,
        cmp => set_bool(dst, compare(cmp, x, y)),
    }
    true
}

/// `regs[dst] = lhs <op> rhs` for every operand pair the `Int × Int`
/// fast path leaves: `Float × Float` arithmetic and comparisons in place,
/// everything else through [`ops::binop`], so mismatches and division by
/// zero raise its errors and leave `dst` unchanged.
#[inline(never)]
fn binop_into(
    op: BinOp,
    regs: &mut [RtValue],
    globals: &[RtValue],
    lhs: &Operand,
    rhs: &Operand,
    dst: usize,
) -> Result<(), RuntimeError> {
    if let (Some(x), Some(y)) = (float(regs, globals, lhs), float(regs, globals, rhs)) {
        let arith = match op {
            BinOp::Add => Some(x + y),
            BinOp::Sub => Some(x - y),
            BinOp::Mul => Some(x * y),
            BinOp::Div => Some(x / y),
            _ => None,
        };
        if let Some(v) = arith {
            set_float(&mut regs[dst], v);
            return Ok(());
        }
        if op.is_relational() {
            set_bool(&mut regs[dst], compare(op, x, y));
            return Ok(());
        }
    }
    regs[dst] = ops::binop(op, &read(regs, globals, lhs), &read(regs, globals, rhs))?;
    Ok(())
}

/// The outcome of a compare-and-branch whose operands are not both
/// `Int`s: [`binop_into`]'s semantics, then the "bool condition" check.
#[inline(never)]
fn compare_slow(
    op: BinOp,
    regs: &[RtValue],
    globals: &[RtValue],
    lhs: &Operand,
    rhs: &Operand,
) -> Result<bool, RuntimeError> {
    if let (Some(x), Some(y)) = (float(regs, globals, lhs), float(regs, globals, rhs)) {
        if op.is_relational() {
            return Ok(compare(op, x, y));
        }
    }
    match ops::binop(op, &read(regs, globals, lhs), &read(regs, globals, rhs))? {
        RtValue::Bool(b) => Ok(b),
        v => Err(mismatch("bool condition", &v)),
    }
}

/// The outcome of a relational operator on two ints or two floats; the
/// same answers as [`ops::binop`], NaN included.
#[inline(always)]
fn compare<T: PartialOrd>(op: BinOp, x: T, y: T) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        _ => x >= y,
    }
}

// The specialised forms run here. Each reads its registers' tags once,
// and any value but the one it was specialised for takes the generic
// path of its operator (`binop_into`, `compare_slow`), so the results,
// errors and registers match the generic forms' exactly. `op` and `f` are
// constants at every call site, and so is which operand is a register.
// The generic path is out of line, so the fast path builds no operand.
impl<L: Into<Operand> + Copy, R: Into<Operand> + Copy> Arith<L, R> {
    /// `regs[dst] = f(x, y)` for `Int`s `x` and `y`, when `f` has a value:
    /// a checked operator, whose overflow and zero divisor take the
    /// generic path (which wraps, or raises).
    #[inline(always)]
    fn int(
        &self,
        regs: &mut [RtValue],
        globals: &[RtValue],
        op: BinOp,
        f: impl FnOnce(i64, i64) -> Option<i64>,
    ) -> Result<(), RuntimeError> {
        let x = int(regs, globals, &self.lhs.into());
        let y = int(regs, globals, &self.rhs.into());
        match (x, y) {
            (Some(x), Some(y)) => match f(x, y) {
                Some(v) => {
                    set_int(&mut regs[usize::from(self.dst)], v);
                    Ok(())
                }
                None => self.generic(regs, globals, op),
            },
            _ => self.generic(regs, globals, op),
        }
    }

    /// The generic form's path.
    #[cold]
    #[inline(never)]
    fn generic(
        &self,
        regs: &mut [RtValue],
        globals: &[RtValue],
        op: BinOp,
    ) -> Result<(), RuntimeError> {
        let (lhs, rhs) = (self.lhs.into(), self.rhs.into());
        binop_into(op, regs, globals, &lhs, &rhs, usize::from(self.dst))
    }
}

impl<R: Into<Operand> + Copy> Branch<R> {
    /// The next instruction after `pc`'s: `target` when `x <op> y` is
    /// `when`, for `Int`s `x` and `y`.
    #[inline(always)]
    fn next(
        &self,
        regs: &[RtValue],
        globals: &[RtValue],
        op: BinOp,
        pc: usize,
    ) -> Result<usize, RuntimeError> {
        let x = int(regs, globals, &Operand::Reg(self.lhs));
        let y = int(regs, globals, &self.rhs.into());
        let holds = match (x, y) {
            (Some(x), Some(y)) => compare(op, x, y),
            _ => self.generic(regs, globals, op)?,
        };
        Ok(if holds == self.when {
            self.target as usize
        } else {
            pc
        })
    }

    /// The generic form's outcome.
    #[cold]
    #[inline(never)]
    fn generic(
        &self,
        regs: &[RtValue],
        globals: &[RtValue],
        op: BinOp,
    ) -> Result<bool, RuntimeError> {
        compare_slow(op, regs, globals, &Operand::Reg(self.lhs), &self.rhs.into())
    }
}

/// The operands of the specialised forms: a register, or an immediate.
impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(k: i64) -> Operand {
        Operand::Const(Value::Int(k))
    }
}

/// An `int index` operand.
#[inline(always)]
fn index(regs: &[RtValue], globals: &[RtValue], o: &Operand) -> Result<i64, RuntimeError> {
    int(regs, globals, o).ok_or_else(|| mismatch("int index", &read(regs, globals, o)))
}

fn out_of_bounds(index: i64, len: usize) -> RuntimeError {
    RuntimeError::IndexOutOfBounds { index, len }
}

/// Element `idx` of an array value.
fn load_elem(arr: &RtValue, idx: i64) -> Result<RtValue, RuntimeError> {
    let a = arr.array()?.borrow();
    usize::try_from(idx)
        .ok()
        .and_then(|i| a.get(i))
        .cloned()
        .ok_or(out_of_bounds(idx, a.len()))
}

/// `arr[idx]` when the index is an in-bounds `Int`, the array an array
/// and the element an `Int`; `None` leaves the access to
/// [`load_elem_into`].
#[inline(always)]
fn int_elem(regs: &[RtValue], globals: &[RtValue], arr: &Slot, idx: &Operand) -> Option<i64> {
    let i = usize::try_from(int(regs, globals, idx)?).ok()?;
    match slot(regs, globals, arr) {
        RtValue::Array(a) => match a.borrow().get(i) {
            Some(RtValue::Int(v)) => Some(*v),
            _ => None,
        },
        _ => None,
    }
}

/// `regs[dst] = arr[idx]`, raising the index, array and bounds errors in
/// the tree-walk's order.
#[inline(never)]
fn load_elem_into(
    regs: &mut [RtValue],
    globals: &[RtValue],
    arr: &Slot,
    idx: &Operand,
    dst: usize,
) -> Result<(), RuntimeError> {
    let i = index(regs, globals, idx)?;
    regs[dst] = load_elem(slot(regs, globals, arr), i)?;
    Ok(())
}

/// Writes element `idx` of an array value.
fn store_elem(arr: &RtValue, idx: i64, value: RtValue) -> Result<(), RuntimeError> {
    let mut a = arr.array()?.borrow_mut();
    let len = a.len();
    let slot = usize::try_from(idx)
        .ok()
        .and_then(|i| a.get_mut(i))
        .ok_or(out_of_bounds(idx, len))?;
    *slot = value;
    Ok(())
}

/// `regs[dst] = new elem[len]`; returns the allocation's cost.
#[inline(never)]
fn new_array(
    regs: &mut [RtValue],
    globals: &[RtValue],
    len: &Operand,
    elem: Option<Value>,
    dst: usize,
) -> Result<u64, RuntimeError> {
    let n = index(regs, globals, len)?;
    let Ok(count) = usize::try_from(n) else {
        return Err(out_of_bounds(n, 0));
    };
    regs[dst] = RtValue::Array(Rc::new(RefCell::new(vec![default_value(elem); count])));
    Ok(COST_MODEL.alloc_per_elem * n as u64)
}

/// `regs[dst] = builtin(b, args)`.
#[inline(never)]
fn builtin_into(
    b: Builtin,
    regs: &mut [RtValue],
    globals: &[RtValue],
    args: &[Operand],
    dst: usize,
) -> Result<(), RuntimeError> {
    regs[dst] = match args {
        [a] => ops::builtin(b, &[read(regs, globals, a)])?,
        [a, c] => ops::builtin(b, &[read(regs, globals, a), read(regs, globals, c)])?,
        args => {
            let vals: Vec<RtValue> = args.iter().map(|a| read(regs, globals, a)).collect();
            ops::builtin(b, &vals)?
        }
    };
    Ok(())
}

/// `regs[dst] = obj.fields[field]`.
#[inline(never)]
fn load_field_into(
    regs: &mut [RtValue],
    globals: &[RtValue],
    obj: &Slot,
    field: u32,
    dst: usize,
) -> Result<(), RuntimeError> {
    let v = slot(regs, globals, obj)
        .object()?
        .borrow()
        .fields
        .get(field as usize)
        .cloned()
        .ok_or(NO_FIELD)?;
    regs[dst] = v;
    Ok(())
}

/// `obj.fields[field] = src`.
#[inline(never)]
fn store_field(
    regs: &[RtValue],
    globals: &[RtValue],
    obj: &Slot,
    field: u32,
    src: &Operand,
) -> Result<(), RuntimeError> {
    let v = read(regs, globals, src);
    let mut o = slot(regs, globals, obj).object()?.borrow_mut();
    *o.fields.get_mut(field as usize).ok_or(NO_FIELD)? = v;
    Ok(())
}

const NO_FIELD: RuntimeError = RuntimeError::Unlowerable("field out of range");

/// One call's frame on the register stack.
struct Frame {
    /// The function running in the frame.
    func: u32,
    /// Where the frame's registers start.
    base: usize,
    /// The caller's next instruction and the register the value lands in.
    ret_pc: usize,
    dst: Reg,
    /// The secure-side activation the frame opened, if any.
    activation: Option<(ComponentId, u64)>,
}

/// The machine state: globals, the register stack with its frames, the
/// program output, the cost and step counters, and the split-execution
/// plumbing (channel, deferred-call buffer, id counters).
pub(crate) struct Vm<'a> {
    pub(crate) globals: Vec<RtValue>,
    /// Every live frame's registers, caller below callee.
    stack: Vec<RtValue>,
    frames: Vec<Frame>,
    pub(crate) output: Vec<String>,
    pub(crate) cost: u64,
    pub(crate) steps: u64,
    pub(crate) step_limit: u64,
    pub(crate) depth_limit: usize,
    /// Whether `deferred` hidden calls are buffered.
    pub(crate) batching: bool,
    pub(crate) channel: Option<&'a mut dyn Channel>,
    pub(crate) recorder: RecorderHandle,
    /// Deferred hidden calls awaiting one coalesced round trip, with the
    /// absolute register (if any) each reply lands in. The deferrable-call
    /// pass guarantees a result-bearing entry is flushed within the frame
    /// that buffered it.
    pending: Vec<PendingCall>,
    pending_results: Vec<Option<usize>>,
    next_activation: u64,
    next_instance: u64,
}

impl<'a> Vm<'a> {
    pub(crate) fn new(globals: Vec<RtValue>, step_limit: u64, depth_limit: usize) -> Vm<'a> {
        Vm {
            globals,
            stack: Vec::new(),
            frames: Vec::new(),
            output: Vec::new(),
            cost: 0,
            steps: 0,
            step_limit,
            depth_limit,
            batching: false,
            channel: None,
            recorder: RecorderHandle::none(),
            pending: Vec::new(),
            pending_results: Vec::new(),
            next_activation: 1,
            next_instance: 1,
        }
    }

    /// Runs open function `func` of `prog` with `args` to completion and
    /// flushes the deferred-call buffer.
    pub(crate) fn run(
        &mut self,
        prog: &ProgramCode,
        func: usize,
        args: &[RtValue],
    ) -> Result<RtValue, RuntimeError> {
        let f = &prog.funcs[func];
        self.stack.clear();
        self.stack.extend_from_slice(args);
        f.open_frame(&mut self.stack, 0);
        let func = u32::try_from(func).map_err(|_| RuntimeError::Unlowerable("entry index"))?;
        self.enter(func, f.activation, 0, 0, 0)?;
        self.cost += COST_MODEL.call;
        let ret = match self.execute(prog, &f.body) {
            Ok(v) => v,
            Err(e) => return Err(self.unwind(e)),
        };
        self.stack.clear();
        // Deferred calls to persistent (global/class) components may still
        // be buffered; the run's hidden-side effects must be complete
        // before the outcome is observable.
        self.flush(false)?;
        Ok(ret)
    }

    /// Opens a frame at `base`: checks the depth limit and opens the
    /// function's activation. The caller charges the call.
    fn enter(
        &mut self,
        func: u32,
        activation: Option<ComponentId>,
        base: usize,
        ret_pc: usize,
        dst: Reg,
    ) -> Result<(), RuntimeError> {
        if self.frames.len() >= self.depth_limit {
            return Err(RuntimeError::StackOverflow {
                limit: self.depth_limit,
            });
        }
        let activation = activation.map(|c| {
            let id = self.next_activation;
            self.next_activation += 1;
            (c, id)
        });
        self.frames.push(Frame {
            func,
            base,
            ret_pc,
            dst,
            activation,
        });
        Ok(())
    }

    /// Leaves the top frame: buffered calls reach the server before its
    /// activation's state is freed. On a flush error the frame stays for
    /// [`Vm::unwind`] to release; on a release error it is already gone.
    fn leave(&mut self) -> Result<Option<Frame>, RuntimeError> {
        let activation = self.frames.last().and_then(|f| f.activation);
        if activation.is_some() {
            self.flush(false)?;
        }
        let frame = self.frames.pop();
        if let (Some((c, id)), Some(chan)) = (activation, self.channel.as_deref_mut()) {
            chan.release(c, id)?;
        }
        Ok(frame)
    }

    /// Drops every frame after `err`, releasing each open activation
    /// innermost first; a failing release replaces the error, as it does
    /// when the tree-walk returns through each call.
    fn unwind(&mut self, mut err: RuntimeError) -> RuntimeError {
        self.pending.clear();
        self.pending_results.clear();
        while let Some(frame) = self.frames.pop() {
            if let (Some((c, id)), Some(chan)) = (frame.activation, self.channel.as_deref_mut()) {
                if let Err(e) = chan.release(c, id) {
                    err = e;
                }
            }
        }
        self.stack.clear();
        err
    }

    /// Sends every buffered call in one batched round trip, writes replies
    /// to their result registers, and returns the last reply (the value
    /// of the demanded call that triggered the flush, when there is one).
    /// No-op on an empty buffer.
    fn flush(&mut self, demanded: bool) -> Result<Option<Value>, RuntimeError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let mut calls = std::mem::take(&mut self.pending);
        let mut results = std::mem::take(&mut self.pending_results);
        self.recorder.record(Event::Flush {
            pending: calls.len() as u64,
            demanded,
        });
        let chan = self.channel.as_deref_mut().ok_or(RuntimeError::NoChannel)?;
        let replies = chan.call_batch(&calls)?;
        self.cost += chan.rtt_cost();
        let mut last = None;
        for (reply, result) in replies.into_iter().zip(results.drain(..)) {
            self.cost += reply.server_cost;
            if let Some(r) = result {
                *self.stack.get_mut(r).ok_or_else(|| {
                    RuntimeError::Channel("deferred result flushed outside its frame".into())
                })? = RtValue::from_const(reply.value);
            }
            last = Some(reply.value);
        }
        // Keep the buffers' capacity for the next batch.
        calls.clear();
        self.pending = calls;
        self.pending_results = results;
        Ok(last)
    }

    /// Runs one hidden call from the frame at `base`.
    #[inline(never)]
    fn hidden(&mut self, h: &HiddenOp, base: usize) -> Result<(), RuntimeError> {
        let regs = &self.stack[base..];
        let mut args = Vec::with_capacity(h.args.len());
        for a in h.args.iter() {
            args.push(scalar_arg(&read(regs, &self.globals, a))?);
        }
        let key = match &h.route {
            Route::Global => 0,
            Route::SelfObject => match &regs[0] {
                RtValue::Object(obj) => obj.borrow().instance_id,
                _ => {
                    return Err(RuntimeError::Channel(
                        "class-component hidden call outside a method".into(),
                    ))
                }
            },
            Route::Activation => match self.frames.last().and_then(|f| f.activation) {
                Some((c, id)) if c == h.component => id,
                _ => {
                    return Err(RuntimeError::Channel(
                        "hidden call outside its split function's activation".into(),
                    ))
                }
            },
            Route::Fail(e) => return Err(e.clone()),
        };
        let call = PendingCall {
            component: h.component,
            key,
            label: h.label,
            args,
        };
        if h.deferred && self.batching {
            // Fail like an immediate call would if no channel is attached.
            if self.channel.is_none() {
                return Err(RuntimeError::NoChannel);
            }
            self.pending.push(call);
            self.pending_results
                .push(h.result.map(|r| base + usize::from(r)));
            self.recorder.record(Event::Deferred);
            // Deterministic cap: an update-only loop may never demand a
            // value, so bound the buffer by flushing periodically, in the
            // buffering frame.
            if self.pending.len() >= MAX_PENDING_CALLS {
                self.flush(false)?;
            }
            return Ok(());
        }
        let value = if self.pending.is_empty() {
            let chan = self.channel.as_deref_mut().ok_or(RuntimeError::NoChannel)?;
            let reply = chan.call(call.component, call.key, call.label, &call.args)?;
            self.cost += chan.rtt_cost() + reply.server_cost;
            reply.value
        } else {
            // Ship the deferred buffer and this demanded call together in
            // one round trip; the demanded reply is the batch's last.
            self.pending.push(call);
            self.pending_results.push(None);
            self.flush(true)?
                .ok_or_else(|| RuntimeError::Channel("empty reply to a batch".into()))?
        };
        if let Some(r) = h.result {
            self.stack[base + usize::from(r)] = RtValue::from_const(value);
        }
        Ok(())
    }

    /// The dispatch loop. Runs from `entry`, the code of the top frame,
    /// until that frame returns; calls and returns in between switch code
    /// and frames in place. On error the frames are left for
    /// [`Vm::unwind`].
    ///
    /// The loop's state — code, `pc`, frame base, steps and cost, and the
    /// frame's registers and the globals as slices — lives in locals, and
    /// every arm that is not hot calls out of line, so the hot arms run
    /// without spilling it. `cost` is synchronised with `self.cost` around
    /// the calls that charge it, and the slices are borrowed again after
    /// each call that needs the whole machine.
    fn execute(&mut self, prog: &ProgramCode, entry: &Body) -> Result<RtValue, RuntimeError> {
        let mut code: &[Instr] = &entry.code;
        let mut pc = 0;
        let mut base = self.frames.last().map_or(0, |f| f.base);
        let mut steps = self.steps;
        let mut cost = self.cost;
        let limit = self.step_limit;
        let mut regs = &mut self.stack[base..];
        let mut globals = &self.globals[..];
        let result = 'run: loop {
            macro_rules! tri {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => break 'run Err(e),
                    }
                };
            }
            let ins = &code[pc];
            pc += 1;
            steps += u64::from(ins.tick);
            if steps > limit {
                break Err(RuntimeError::StepLimitExceeded { limit });
            }
            cost += u64::from(ins.cost);
            match &ins.op {
                Op::Nop => {}
                Op::Load { dst, src } => {
                    let dst = usize::from(*dst);
                    match int(regs, globals, src) {
                        Some(i) => set_int(&mut regs[dst], i),
                        None => regs[dst] = read(regs, globals, src),
                    }
                }
                Op::Un { op, dst, src } => {
                    regs[usize::from(*dst)] = tri!(ops::unop(*op, &read(regs, globals, src)));
                }
                Op::Bin {
                    op, dst, lhs, rhs, ..
                } => {
                    let dst = usize::from(*dst);
                    let done = match (int(regs, globals, lhs), int(regs, globals, rhs)) {
                        (Some(x), Some(y)) => int_binop_into(*op, x, y, &mut regs[dst]),
                        _ => false,
                    };
                    if !done {
                        tri!(binop_into(*op, regs, globals, lhs, rhs, dst));
                    }
                }
                Op::Builtin { b, dst, args } => {
                    tri!(builtin_into(*b, regs, globals, args, usize::from(*dst)));
                }
                Op::Jump { target } => pc = *target as usize,
                Op::Branch { cond, target, when } => match read(regs, globals, cond) {
                    RtValue::Bool(b) => {
                        if b == *when {
                            pc = *target as usize;
                        }
                    }
                    v => break Err(mismatch("bool condition", &v)),
                },
                Op::CmpBranch {
                    op,
                    lhs,
                    rhs,
                    target,
                    when,
                    ..
                } => {
                    let taken = match (int(regs, globals, lhs), int(regs, globals, rhs)) {
                        (Some(x), Some(y)) => compare(*op, x, y),
                        _ => tri!(compare_slow(*op, regs, globals, lhs, rhs)),
                    };
                    if taken == *when {
                        pc = *target as usize;
                    }
                }
                Op::Illegal(what) => break Err(RuntimeError::IllegalFragmentOp(what)),
                Op::Fail(e) => break Err((**e).clone()),
                Op::Ret { src } => {
                    let v = match src {
                        Some(src) => read(regs, globals, src),
                        None => RtValue::Uninit,
                    };
                    self.cost = cost;
                    let next = self.ret(v);
                    cost = self.cost;
                    match tri!(next) {
                        Return::Done(v) => break Ok(v),
                        Return::Resume {
                            func,
                            base: caller,
                            pc: resume,
                        } => {
                            base = caller;
                            code = &prog.funcs[func as usize].body.code;
                            pc = resume;
                        }
                    }
                    (regs, globals) = (&mut self.stack[base..], &self.globals[..]);
                }
                Op::StoreGlobal { global, src } => {
                    let v = read(regs, globals, src);
                    self.globals[*global as usize] = v;
                    globals = &self.globals[..];
                }
                Op::LoadElem { dst, arr, idx } => {
                    let dst = usize::from(*dst);
                    match int_elem(regs, globals, arr, idx) {
                        Some(v) => set_int(&mut regs[dst], v),
                        None => tri!(load_elem_into(regs, globals, arr, idx, dst)),
                    }
                }
                Op::StoreElem { arr, idx, src } => {
                    let v = read(regs, globals, src);
                    let i = tri!(index(regs, globals, idx));
                    tri!(store_elem(slot(regs, globals, arr), i, v));
                }
                Op::Len { dst, arr } => {
                    let n = tri!(slot(regs, globals, arr).array()).borrow().len();
                    set_int(&mut regs[usize::from(*dst)], n as i64);
                }
                Op::LoadField { dst, obj, field } => {
                    tri!(load_field_into(
                        regs,
                        globals,
                        obj,
                        *field,
                        usize::from(*dst)
                    ));
                }
                Op::StoreField { obj, field, src } => {
                    tri!(store_field(regs, globals, obj, *field, src));
                }
                Op::NewArray { dst, len, elem } => {
                    cost += tri!(new_array(regs, globals, len, *elem, usize::from(*dst)));
                }
                Op::NewObject { dst, class } => {
                    self.new_object(prog, *class, base + usize::from(*dst));
                    (regs, globals) = (&mut self.stack[base..], &self.globals[..]);
                }
                Op::Enter => {
                    if self.frames.len() >= self.depth_limit {
                        break Err(RuntimeError::StackOverflow {
                            limit: self.depth_limit,
                        });
                    }
                }
                Op::Call { func, dst, args } => {
                    base = tri!(self.call(prog, *func, *dst, args, base, pc));
                    cost += COST_MODEL.call;
                    code = &prog.funcs[*func as usize].body.code;
                    pc = 0;
                    (regs, globals) = (&mut self.stack[base..], &self.globals[..]);
                }
                Op::Print { src } => {
                    let line = read(regs, globals, src).to_string();
                    self.output.push(line);
                }
                Op::Scalar { src } => {
                    tri!(scalar_arg(&read(regs, globals, src)));
                }
                Op::Hidden(h) => {
                    self.cost = cost;
                    let done = self.hidden(h, base);
                    cost = self.cost;
                    tri!(done);
                    (regs, globals) = (&mut self.stack[base..], &self.globals[..]);
                }
                Op::AddIRK(a) => tri!(a.int(regs, globals, BinOp::Add, i64::checked_add)),
                Op::SubIRK(a) => tri!(a.int(regs, globals, BinOp::Sub, i64::checked_sub)),
                Op::MulIRK(a) => tri!(a.int(regs, globals, BinOp::Mul, i64::checked_mul)),
                Op::DivIRK(a) => tri!(a.int(regs, globals, BinOp::Div, i64::checked_div)),
                Op::RemIRK(a) => tri!(a.int(regs, globals, BinOp::Rem, i64::checked_rem)),
                Op::SubIKR(a) => tri!(a.int(regs, globals, BinOp::Sub, i64::checked_sub)),
                Op::AddIRR(a) => tri!(a.int(regs, globals, BinOp::Add, i64::checked_add)),
                Op::SubIRR(a) => tri!(a.int(regs, globals, BinOp::Sub, i64::checked_sub)),
                Op::MulIRR(a) => tri!(a.int(regs, globals, BinOp::Mul, i64::checked_mul)),
                Op::DivIRR(a) => tri!(a.int(regs, globals, BinOp::Div, i64::checked_div)),
                Op::RemIRR(a) => tri!(a.int(regs, globals, BinOp::Rem, i64::checked_rem)),
                Op::EqIRRBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Eq, pc)),
                Op::NeIRRBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Ne, pc)),
                Op::LtIRRBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Lt, pc)),
                Op::LeIRRBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Le, pc)),
                Op::GtIRRBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Gt, pc)),
                Op::GeIRRBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Ge, pc)),
                Op::EqIRKBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Eq, pc)),
                Op::NeIRKBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Ne, pc)),
                Op::LtIRKBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Lt, pc)),
                Op::LeIRKBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Le, pc)),
                Op::GtIRKBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Gt, pc)),
                Op::GeIRKBranch(b) => pc = tri!(b.next(regs, globals, BinOp::Ge, pc)),
            }
        };
        self.steps = steps;
        self.cost = cost;
        result
    }

    /// Pushes a frame for open function `func`, called from the frame at
    /// `base` with `args`, and returns the new frame's base.
    #[inline(never)]
    fn call(
        &mut self,
        prog: &ProgramCode,
        func: u32,
        dst: Reg,
        args: &[Operand],
        base: usize,
        ret_pc: usize,
    ) -> Result<usize, RuntimeError> {
        let callee = &prog.funcs[func as usize];
        let new_base = self.stack.len();
        self.stack.reserve(callee.body.n_regs);
        for a in args {
            let v = read(&self.stack[base..], &self.globals, a);
            self.stack.push(v);
        }
        callee.open_frame(&mut self.stack, new_base);
        self.enter(func, callee.activation, new_base, ret_pc, dst)?;
        Ok(new_base)
    }

    /// Leaves the top frame with value `v`: the run's (or fragment's)
    /// result when no caller frame remains, else `v` lands in the caller's
    /// destination register and the caller resumes.
    #[inline(never)]
    fn ret(&mut self, v: RtValue) -> Result<Return, RuntimeError> {
        let Some(frame) = self.leave()? else {
            return Ok(Return::Done(v));
        };
        let Some(caller) = self.frames.last() else {
            return Ok(Return::Done(v));
        };
        let (func, base) = (caller.func, caller.base);
        self.stack.truncate(frame.base);
        self.stack[base + usize::from(frame.dst)] = v;
        Ok(Return::Resume {
            func,
            base,
            pc: frame.ret_pc,
        })
    }

    /// Writes a fresh object of class `class` to absolute register `at`.
    #[inline(never)]
    fn new_object(&mut self, prog: &ProgramCode, class: u32, at: usize) {
        let fields = prog.classes[class as usize]
            .iter()
            .map(|&v| default_value(v))
            .collect();
        let instance_id = self.next_instance;
        self.next_instance += 1;
        self.stack[at] = RtValue::Object(Rc::new(RefCell::new(ObjData {
            class: hps_ir::ClassId::new(class as usize),
            instance_id,
            fields,
        })));
    }
}

/// Where the dispatch loop goes after a `Ret`.
enum Return {
    /// No caller frame: the run (or fragment) ends with this value.
    Done(RtValue),
    /// The caller, function `func` with its frame at `base`, resumes at
    /// `pc`.
    Resume { func: u32, base: usize, pc: usize },
}

/// A hidden-call argument as a wire scalar.
fn scalar_arg(v: &RtValue) -> Result<Value, RuntimeError> {
    v.to_const().ok_or(RuntimeError::TypeMismatch {
        expected: "scalar hidden-call argument",
        found: "aggregate",
    })
}

/// Executes compiled bytecode against a component's hidden state, exactly
/// like the reference tree-walk executes the AST.
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

/// [`run_compiled`] with an explicit step limit: the differential tests
/// pin the exact statement count at which `StepLimitExceeded` fires.
///
/// # Errors
///
/// As [`run_compiled`], with `StepLimitExceeded` carrying `limit`.
pub(crate) fn run_compiled_with_limit(
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
    // A fragment is a one-frame program: no globals, functions or classes.
    let mut vm = Vm::new(Vec::new(), limit, 1);
    vm.stack.reserve_exact(compiled.body.n_regs);
    vm.stack.extend_from_slice(vars);
    vm.stack
        .extend(args.iter().map(|&v| RtValue::from_const(v)));
    vm.stack.resize(compiled.body.n_regs, RtValue::Uninit);
    vm.cost = COST_MODEL.marshal_per_arg * args.len() as u64;
    // No frame is pushed: the fragment's `Ret` finds none to leave.
    let v = vm.execute(&ProgramCode::default(), &compiled.body)?;
    let value = v.to_const().ok_or(RuntimeError::TypeMismatch {
        expected: "scalar return",
        found: "aggregate",
    })?;
    vars.clone_from_slice(&vm.stack[..compiled.n_vars]);
    Ok(FragOutcome {
        value,
        cost: vm.cost,
    })
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
    /// position)` of a component with hidden variables `vars`, lowering it
    /// on first use; the flag is `true` when this call performed the
    /// compile. The position must be one of the program the cache was
    /// built for.
    pub(crate) fn get_or_compile(
        &self,
        component: usize,
        position: usize,
        fragment: &Fragment,
        vars: &[HiddenVar],
    ) -> (&CompiledFragment, bool) {
        let cell = &self.slots[component][position];
        let mut fresh = false;
        let code = cell.get_or_init(|| {
            let t0 = std::time::Instant::now();
            let vars: Vec<Ty> = vars.iter().map(|v| v.ty.clone()).collect();
            let compiled = compile_fragment(fragment, &vars);
            self.compile_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.compiles.fetch_add(1, Ordering::Relaxed);
            fresh = true;
            compiled
        });
        if !fresh {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (code, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_hidden;
    use hps_ir::{FragLabel, LocalId, Stmt, Ty};

    fn frag(body: Vec<Stmt>, params: usize, ret: Option<Expr>) -> Fragment {
        Fragment {
            label: FragLabel::new(0),
            params: (0..params).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        }
    }

    /// Hidden variables typed as the values they start with.
    fn var_tys(vars: &[RtValue]) -> Vec<Ty> {
        vars.iter()
            .map(|v| match v {
                RtValue::Float(_) => Ty::Float,
                RtValue::Bool(_) => Ty::Bool,
                _ => Ty::Int,
            })
            .collect()
    }

    /// Runs both engines, asserts identical outcome, state and error, and
    /// returns the VM's outcome and hidden state.
    fn assert_parity(
        f: &Fragment,
        vars: &[RtValue],
        args: &[Value],
    ) -> (Result<FragOutcome, RuntimeError>, Vec<RtValue>) {
        let mut tree_vars = vars.to_vec();
        let mut vm_vars = vars.to_vec();
        let tree = run_hidden(f, &mut tree_vars, args, FRAGMENT_STEP_LIMIT);
        let compiled = compile_fragment(f, &var_tys(vars));
        let vm = run_compiled(&compiled, &mut vm_vars, args);
        assert_eq!(format!("{tree:?}"), format!("{vm:?}"), "outcome diverged");
        assert_eq!(tree_vars, vm_vars, "hidden state diverged");
        (vm, vm_vars)
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
        let (out, vars) = assert_parity(&f, &[RtValue::Int(0), RtValue::Int(3)], &[Value::Int(9)]);
        // 3 + 4 + .. + 8, and both vars written back.
        assert_eq!(out.unwrap().value, Value::Int(33));
        assert_eq!(vars, [RtValue::Int(33), RtValue::Int(9)]);
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
        let out = assert_parity(&f, &[], &[Value::Int(7)]).0.unwrap();
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
        let (out, _) = assert_parity(&f, &[], &[]);
        assert_eq!(out, Err(RuntimeError::DivisionByZero));
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
        let out = assert_parity(&f, &[], &[]).0.unwrap();
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
            let tree = run_hidden(&f, &mut [], &[], limit);
            let compiled = compile_fragment(&f, &[]);
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
        let (out, vars) = assert_parity(&f, &[RtValue::Int(6), RtValue::Int(0)], &[]);
        // 5 + 4 + 3 + 1: 2 is skipped, and 0 breaks.
        assert_eq!(out.unwrap().value, Value::Int(13));
        assert_eq!(vars, [RtValue::Int(0), RtValue::Int(13)]);
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
        let out = assert_parity(&f, &[RtValue::Int(0)], &[]).0.unwrap();
        assert_eq!(out.value, Value::Int(1));
    }

    #[test]
    fn illegal_ops_surface_identically() {
        for (stmt, what) in [
            (Stmt::new(StmtKind::Return(None)), "return in fragment"),
            (
                Stmt::new(StmtKind::Print(Expr::int(1))),
                "print in fragment",
            ),
        ] {
            let f = frag(vec![stmt], 0, None);
            let (out, _) = assert_parity(&f, &[], &[]);
            assert_eq!(out, Err(RuntimeError::IllegalFragmentOp(what)));
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
        let (out, _) = assert_parity(&guarded, &[], &[]);
        // No `ret`: the "any" placeholder.
        assert_eq!(out.unwrap().value, Value::Int(0));
    }

    #[test]
    fn arg_count_mismatch_is_channel_error() {
        let f = frag(vec![], 2, None);
        let (out, _) = assert_parity(&f, &[], &[Value::Int(1)]);
        assert!(matches!(out, Err(RuntimeError::Channel(_))));
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
        let (out, vars) = assert_parity(&f, &[RtValue::Int(7)], &[Value::Int(1)]);
        assert_eq!(out.unwrap().value, Value::Int(99));
        assert_eq!(vars, [RtValue::Int(7)]);
    }

    #[test]
    fn compiled_code_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledFragment>();
        assert_send_sync::<VmCache>();
        assert_send_sync::<ProgramCode>();
        assert_send_sync::<OpenCode>();
        assert_send_sync::<crate::SplitMeta>();
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
        let (_, fresh) = cache.get_or_compile(0, 0, &f, &[]);
        assert!(fresh);
        let (_, fresh) = cache.get_or_compile(0, 0, &f, &[]);
        assert!(!fresh);
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.cache_hits(), 1);
    }

    #[test]
    fn superinstructions_preserve_cost_accounting() {
        // x = x + 1 lowers to AddIRK; if (x < 10) lowers to LtIRKBranch —
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
            let out = assert_parity(&f, &[RtValue::Int(start)], &[]).0.unwrap();
            let x = start + 1;
            assert_eq!(out.value, Value::Int(if x < 10 { 2 * x } else { x }));
        }
    }
}
