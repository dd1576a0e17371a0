//! Register bytecode and the one virtual machine that runs both halves of
//! a split program: open functions and hidden fragments.
//!
//! Both are lowered **once** into a compact register bytecode and executed
//! by one flat dispatch loop — the inner-interpreter technique of classic
//! Forth kernels. A split's open program is compiled once, by
//! [`SplitMeta::derive`](crate::SplitMeta::derive), and every
//! [`Interp`](crate::Interp) the metadata is attached to runs that code,
//! batching or not; an unsplit program is compiled by its `Interp`'s first
//! run. A hidden program is compiled once, when it is installed
//! ([`HiddenCode::compile`]): a [`SecureServer`](crate::SecureServer),
//! or one shard pool for all its shards, lowers every fragment before
//! the first call. Compiled code, open or hidden, is plain `Send + Sync`
//! data even though the `RtValue` registers it operates on are not.
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

mod inline;
mod lower;
mod specialise;
mod vm;

use crate::error::RuntimeError;
use crate::interp::MetaKind;
use crate::value::RtValue;
use hps_ir::{BinOp, Builtin, ComponentId, FragLabel, HiddenProgram, Program, UnOp, Value};
use inline::inline_leaves;
pub(crate) use lower::compile_fragment;
use lower::{compile_function, Open};
use specialise::specialise;
pub(crate) use vm::run_compiled;
pub(crate) use vm::Vm;
#[cfg(test)]
pub(crate) use vm::{int_binop_into, run_compiled_with_limit, set_int};

/// Frame-relative register index. In a fragment, registers `0 .. n_vars`
/// mirror the component's persistent hidden variables and `n_vars ..
/// n_slots` the call parameters; in an open function, registers `0 ..
/// n_locals` are its locals. Compiler temporaries follow.
type Reg = u16;

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
pub(crate) struct CompiledFragment {
    body: Body,
    n_vars: usize,
    n_params: usize,
    label: FragLabel,
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

/// A hidden program compiled once, when it is installed: each
/// component's fragments lowered to bytecode and its hidden variables'
/// starting values. Plain `Send + Sync` data, so every session of a
/// server, on every shard, shares one.
#[derive(Debug)]
pub(crate) struct HiddenCode {
    components: Box<[ComponentCode]>,
}

/// One hidden component, compiled.
#[derive(Debug)]
pub(crate) struct ComponentCode {
    /// Each hidden variable's starting value (`None`: an uninitialised
    /// aggregate), like [`FuncCode::locals`].
    vars: Box<[Option<Value>]>,
    fragments: Box<[CompiledFragment]>,
}

impl HiddenCode {
    /// Lowers every fragment of `hidden`. A fragment that does not lower
    /// compiles to code that raises its error when called.
    pub(crate) fn compile(hidden: &HiddenProgram) -> HiddenCode {
        let components = hidden.components.iter().map(|c| {
            let tys: Vec<_> = c.vars.iter().map(|v| v.ty.clone()).collect();
            ComponentCode {
                vars: c
                    .vars
                    .iter()
                    .map(|v| v.init.or_else(|| RtValue::default_of(&v.ty).to_const()))
                    .collect(),
                fragments: c
                    .fragments
                    .iter()
                    .map(|f| compile_fragment(f, &tys))
                    .collect(),
            }
        });
        HiddenCode {
            components: components.collect(),
        }
    }

    /// The component at `id`.
    pub(crate) fn component(&self, id: ComponentId) -> Option<&ComponentCode> {
        self.components.get(id.index())
    }

    /// How many fragments the program has, each compiled once.
    pub(crate) fn fragments(&self) -> usize {
        self.components.iter().map(|c| c.fragments.len()).sum()
    }
}

impl ComponentCode {
    /// The fragment labelled `label`.
    pub(crate) fn fragment(&self, label: FragLabel) -> Option<&CompiledFragment> {
        self.fragments.iter().find(|f| f.label == label)
    }

    /// The component's hidden variables at their starting values: the
    /// state of an activation or instance on its first call.
    pub(crate) fn fresh_vars(&self) -> Vec<RtValue> {
        self.vars.iter().map(|&v| default_value(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::vm::FRAGMENT_STEP_LIMIT;
    use super::*;
    use crate::reference::run_hidden;
    use crate::server::FragOutcome;
    use hps_ir::{Block, Expr, Fragment, Stmt, Ty};

    pub(super) fn frag(body: Vec<Stmt>, params: usize, ret: Option<Expr>) -> Fragment {
        Fragment {
            label: FragLabel::new(0),
            params: (0..params).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        }
    }

    /// Hidden variables typed as the values they start with.
    pub(super) fn var_tys(vars: &[RtValue]) -> Vec<Ty> {
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
    pub(super) fn assert_parity(
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
    fn compiled_code_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledFragment>();
        assert_send_sync::<HiddenCode>();
        assert_send_sync::<ProgramCode>();
        assert_send_sync::<OpenCode>();
        assert_send_sync::<crate::SplitMeta>();
    }
}
