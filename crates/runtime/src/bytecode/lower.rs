//! Lowering: statements and expressions of an open function or a
//! fragment to register bytecode, with constant folding, cost baking and
//! superinstructions (steps 1–3 of the pipeline in the `bytecode` module
//! docs).

use super::inline::target_mut;
use super::specialise::specialise;
use super::*;
use crate::cost::COST_MODEL;
use crate::ops;
use hps_ir::infer::{expr_ty, LocalTypes};
use hps_ir::{Block, Expr, Fragment, Function, Place, StmtKind, Ty};

/// The program a fragment's operands are typed against.
static NO_PROGRAM: Program = Program {
    functions: Vec::new(),
    globals: Vec::new(),
    classes: Vec::new(),
};

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
pub(crate) fn compile_fragment(fragment: &Fragment, vars: &[Ty]) -> CompiledFragment {
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
pub(super) fn compile_function(
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

/// A forward-reference label, resolved to an instruction index by
/// [`Compiler::finish`].
type Label = usize;

/// What lowering an open function needs beyond the function itself.
pub(super) struct Open<'p> {
    pub(super) program: &'p Program,
    /// The split's component kinds, by `ComponentId`; `None` without a
    /// channel.
    pub(super) kinds: Option<&'p [MetaKind]>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::tests::{assert_parity, frag};
    use hps_ir::{LocalId, Stmt};

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
}
