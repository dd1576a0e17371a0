//! The virtual machine: one flat dispatch loop over the bytecode, the
//! operand helpers it inlines, and the one-frame run of a fragment.

use super::*;
use crate::channel::{Channel, PendingCall};
use crate::cost::COST_MODEL;
use crate::ops::{self, mismatch};
use crate::server::FragOutcome;
use crate::value::ObjData;
use hps_telemetry::{Event, RecorderHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// Upper bound on buffered deferred calls before a forced flush.
const MAX_PENDING_CALLS: usize = 4096;

/// Maximum number of statements a single fragment call may execute; guards
/// the secure device against runaway hidden loops.
pub(crate) const FRAGMENT_STEP_LIMIT: u64 = 200_000_000;

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
pub(crate) fn run_compiled(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::tests::{assert_parity, frag};
    use crate::reference::run_hidden;
    use hps_ir::{Block, Expr, LocalId, Place, Stmt, StmtKind};

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
}
