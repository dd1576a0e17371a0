//! The `Of`/`Hf` rewriter.
//!
//! Turns a [`SlicePlan`] into code, implementing
//! Steps 3–4 of the paper's algorithm:
//!
//! * runs of consecutive case-(i) statements (including promoted control
//!   constructs) become one labeled fragment, triggered by a `HiddenCall`
//!   "at points from where they are removed";
//! * case-(iii) statements keep their open left-hand side but obtain the
//!   value from a value-returning fragment (an ILP);
//! * open statements that *read* a hidden variable get a *fetch* call
//!   inserted before them (step 4 / an ILP), and open statements that
//!   *write* a hidden variable (case (ii)) send the new value with a
//!   *set* call;
//! * clause-promoted `if` statements are restructured ("the control flow
//!   construct if-then-else is replaced by construct if-then in `Of`").

use crate::error::SplitError;
use crate::plan::{SplitPlan, SplitTarget};
use crate::result::{IlpInfo, IlpKind, SplitReport, SplitResult};
use hps_analysis::{ModRef, VarId};
use hps_ir::infer::expr_ty;
use hps_ir::{
    Block, ComponentId, ComponentKind, Expr, FragLabel, Fragment, FuncId, Function,
    HiddenComponent, HiddenProgram, HiddenVar, LocalId, Place, Program, Stmt, StmtId, StmtKind, Ty,
    UnOp,
};
use hps_slicing::{slice_function, Disposition, PromotionKind, SliceConfig, SlicePlan};
use std::collections::{BTreeSet, HashMap};

/// Splits a program according to the plan.
///
/// Returns the transformed open program, the hidden program and one report
/// per sliced function.
///
/// # Examples
///
/// ```
/// use hps_core::{split_program, SplitPlan};
///
/// let program = hps_lang::parse(
///     "fn f(x: int) -> int { var a: int = x * 3; return a; }
///      fn main() { print(f(2)); }",
/// )?;
/// let split = split_program(&program, &SplitPlan::single(&program, "f", "a")?)?;
/// // `a`'s computation moved to the hidden side; its value comes back
/// // through exactly one leak (the return).
/// assert_eq!(split.hidden.components.len(), 1);
/// assert_eq!(split.reports[0].ilps.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns a [`SplitError`] for unknown names, bad seeds or plans the
/// transformation cannot realize.
pub fn split_program(program: &Program, plan: &SplitPlan) -> Result<SplitResult, SplitError> {
    let mut open = program.clone();
    let mut hidden = HiddenProgram::new();
    let mut reports = Vec::new();
    // Only global and class targets need it: calls never write locals.
    let mut modref = None;

    for target in &plan.targets {
        let comp_id = ComponentId::new(hidden.components.len());
        match target {
            SplitTarget::Function { func, seed } => {
                let split = split_function(program, *func, *seed, plan.promote_control, comp_id)?;
                open.functions[func.index()] = split.func;
                hidden.add(split.component);
                reports.push(split.report);
            }
            SplitTarget::Global { global } => {
                let gname = program.globals[global.index()].name.clone();
                if !program.globals[global.index()].ty.is_scalar() {
                    return Err(SplitError::BadSeed(format!(
                        "global `{gname}` must be scalar to be hidden"
                    )));
                }
                let seeds = [VarId::Global(*global)];
                let hv: BTreeSet<VarId> = seeds.iter().copied().collect();
                let mut comp = ComponentBuilder::new(
                    comp_id,
                    ComponentKind::Global {
                        global_name: gname.clone(),
                    },
                    &hv,
                    program,
                    None,
                );
                comp.vars[0].init = program.globals[global.index()].init;
                let cfg = SliceConfig {
                    promote_control: plan.promote_control,
                    hidden_class: None,
                };
                let modref = modref.get_or_insert_with(|| ModRef::compute(program));
                let mut any = false;
                for (fid, func) in program.iter_funcs() {
                    if !references_var(func, VarId::Global(*global)) {
                        continue;
                    }
                    any = true;
                    // Hidden-variable growth is restricted to the global
                    // itself: locals are per-activation while the global's
                    // hidden state is shared program-wide.
                    let splan = slice_function(program, fid, &seeds, &|_| false, &cfg);
                    check_plan(&splan)?;
                    let (new_func, report) =
                        rewrite_function(program, fid, &splan, &mut comp, Some(modref))?;
                    open.functions[fid.index()] = new_func;
                    reports.push(report);
                }
                if !any {
                    return Err(SplitError::BadSeed(format!(
                        "global `{gname}` is never referenced"
                    )));
                }
                hidden.add(comp.finish());
            }
            SplitTarget::Class { class, fields } => {
                let cdef = program.class(*class);
                let mut seeds = Vec::new();
                for &fld in fields {
                    if !cdef.field(fld).ty.is_scalar() {
                        return Err(SplitError::BadSeed(format!(
                            "field `{}.{}` must be scalar to be hidden",
                            cdef.name,
                            cdef.field(fld).name
                        )));
                    }
                    seeds.push(VarId::Field(*class, fld));
                }
                if seeds.is_empty() {
                    return Err(SplitError::BadSeed(format!(
                        "class `{}` has no hidden fields selected",
                        cdef.name
                    )));
                }
                // Hidden fields must only be touched through `self` inside
                // the class's own methods.
                for (fid, func) in program.iter_funcs() {
                    if func.class == Some(*class) {
                        continue;
                    }
                    for s in &seeds {
                        if references_var(func, *s) {
                            return Err(SplitError::Unrealizable(format!(
                                "function `{}` accesses hidden fields of class `{}` \
                                 from outside its methods",
                                program.func(fid).name,
                                cdef.name
                            )));
                        }
                    }
                }
                let hv: BTreeSet<VarId> = seeds.iter().copied().collect();
                let mut comp = ComponentBuilder::new(
                    comp_id,
                    ComponentKind::Class {
                        class_name: cdef.name.clone(),
                    },
                    &hv,
                    program,
                    None,
                );
                let cfg = SliceConfig {
                    promote_control: plan.promote_control,
                    hidden_class: Some(*class),
                };
                let modref = modref.get_or_insert_with(|| ModRef::compute(program));
                for &mid in &cdef.methods {
                    let touches = seeds.iter().any(|s| references_var(program.func(mid), *s));
                    if !touches {
                        continue;
                    }
                    let splan = slice_function(program, mid, &seeds, &|_| false, &cfg);
                    check_plan(&splan)?;
                    let (new_func, report) =
                        rewrite_function(program, mid, &splan, &mut comp, Some(modref))?;
                    open.functions[mid.index()] = new_func;
                    reports.push(report);
                }
                hidden.add(comp.finish());
            }
        }
    }

    open.renumber_all();
    // Round-trip coalescing: mark hidden calls whose replies no open
    // statement demands before the next flush point (see `crate::defer`).
    let defer = crate::defer::mark_deferrable(&mut open);
    Ok(SplitResult {
        open,
        hidden,
        reports,
        defer,
    })
}

/// One function split on its own: what [`split_program`] produces for a
/// [`SplitTarget::Function`] target, before the whole-program passes.
#[derive(Clone, Debug)]
pub struct FunctionSplit {
    /// The renumbered open function. Hidden calls are not yet marked
    /// deferrable; see [`crate::defer::mark_deferrable_function`].
    pub func: Function,
    /// The function's hidden component.
    pub component: HiddenComponent,
    /// The function's split report.
    pub report: SplitReport,
}

/// Splits one function of `program` on `seed`, as the hidden component
/// numbered `component`. Its cost is that of the one function, so a
/// planner can try every candidate seed without splitting the whole
/// program each time; [`split_program`] builds its function targets from
/// it.
///
/// # Errors
///
/// The errors [`split_program`] returns for the same target: a
/// [`SplitError::BadSeed`] unless `seed` is a scalar non-parameter local,
/// and a [`SplitError::Unrealizable`] for a slice the rewrite cannot
/// realize.
pub fn split_function(
    program: &Program,
    func: FuncId,
    seed: LocalId,
    promote_control: bool,
    component: ComponentId,
) -> Result<FunctionSplit, SplitError> {
    let f = program.func(func);
    if f.is_param(seed) || !f.local(seed).ty.is_scalar() {
        return Err(SplitError::BadSeed(format!(
            "`{}` in `{}` must be a scalar non-parameter local",
            f.local(seed).name,
            f.name
        )));
    }
    let seeds = [VarId::Local(seed)];
    let grow = |v: VarId| match v {
        VarId::Local(l) => !f.is_param(l) && f.local(l).ty.is_scalar(),
        _ => false,
    };
    let cfg = SliceConfig {
        promote_control,
        hidden_class: None,
    };
    let splan = slice_function(program, func, &seeds, &grow, &cfg);
    check_plan(&splan)?;
    let mut comp = ComponentBuilder::new(
        component,
        ComponentKind::Function {
            func_name: f.name.clone(),
        },
        &splan.hidden_vars,
        program,
        Some(f),
    );
    let (func, report) = rewrite_function(program, func, &splan, &mut comp, None)?;
    Ok(FunctionSplit {
        func,
        component: comp.finish(),
        report,
    })
}

fn check_plan(plan: &SlicePlan) -> Result<(), SplitError> {
    if let Some(v) = plan.violations.first() {
        return Err(SplitError::Unrealizable(v.clone()));
    }
    Ok(())
}

fn references_var(func: &Function, var: VarId) -> bool {
    let mut found = false;
    hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
        if let StmtKind::Assign { place, .. } = &stmt.kind {
            if VarId::of_root(place.root()) == var {
                found = true;
            }
        }
        hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
            let v = match e {
                Expr::Local(id) => Some(VarId::Local(*id)),
                Expr::Global(id) => Some(VarId::Global(*id)),
                Expr::FieldGet { class, field, .. } => Some(VarId::Field(*class, *field)),
                _ => None,
            };
            if v == Some(var) {
                found = true;
            }
        });
    });
    found
}

/// Accumulates one hidden component across one or more function rewrites
/// (global and class targets share a component between functions).
struct ComponentBuilder {
    id: ComponentId,
    kind: ComponentKind,
    vars: Vec<HiddenVar>,
    slot_of: HashMap<VarId, usize>,
    fragments: Vec<Fragment>,
    get_frag: HashMap<VarId, FragLabel>,
    set_frag: HashMap<VarId, FragLabel>,
}

impl ComponentBuilder {
    fn new(
        id: ComponentId,
        kind: ComponentKind,
        hidden_vars: &BTreeSet<VarId>,
        program: &Program,
        func: Option<&Function>,
    ) -> ComponentBuilder {
        let mut vars = Vec::new();
        let mut slot_of = HashMap::new();
        for &v in hidden_vars {
            let (name, ty) = match v {
                VarId::Local(l) => {
                    let f = func.expect("local hidden vars need a function context");
                    (f.local(l).name.clone(), f.local(l).ty.clone())
                }
                VarId::Global(g) => (
                    program.globals[g.index()].name.clone(),
                    program.globals[g.index()].ty.clone(),
                ),
                VarId::Field(c, fld) => {
                    let cd = program.class(c);
                    (
                        format!("{}.{}", cd.name, cd.field(fld).name),
                        cd.field(fld).ty.clone(),
                    )
                }
            };
            slot_of.insert(v, vars.len());
            vars.push(HiddenVar {
                name,
                ty,
                init: None,
            });
        }
        ComponentBuilder {
            id,
            kind,
            vars,
            slot_of,
            fragments: Vec::new(),
            get_frag: HashMap::new(),
            set_frag: HashMap::new(),
        }
    }

    fn n_vars(&self) -> usize {
        self.vars.len()
    }

    fn slot(&self, v: VarId) -> Option<usize> {
        self.slot_of.get(&v).copied()
    }

    fn add_fragment(
        &mut self,
        params: Vec<(String, Ty)>,
        body: Block,
        ret: Option<Expr>,
    ) -> FragLabel {
        let label = FragLabel::new(self.fragments.len());
        self.fragments.push(Fragment {
            label,
            params,
            body,
            ret,
        });
        label
    }

    /// The no-argument fragment returning hidden variable `v`.
    fn get_fragment(&mut self, v: VarId) -> FragLabel {
        if let Some(&l) = self.get_frag.get(&v) {
            return l;
        }
        let slot = self.slot(v).expect("get fragment for hidden var");
        let label = self.add_fragment(
            Vec::new(),
            Block::new(),
            Some(Expr::local(LocalId::new(slot))),
        );
        self.get_frag.insert(v, label);
        label
    }

    /// The one-argument fragment storing its argument into `v`'s slot.
    fn set_fragment(&mut self, v: VarId) -> FragLabel {
        if let Some(&l) = self.set_frag.get(&v) {
            return l;
        }
        let slot = self.slot(v).expect("set fragment for hidden var");
        let ty = self.vars[slot].ty.clone();
        let name = format!("new_{}", self.vars[slot].name);
        let param_idx = self.n_vars();
        let label = self.add_fragment(
            vec![(name, ty)],
            Block::of(vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(slot)),
                value: Expr::local(LocalId::new(param_idx)),
            })]),
            None,
        );
        self.set_frag.insert(v, label);
        label
    }

    fn finish(self) -> HiddenComponent {
        HiddenComponent {
            id: self.id,
            kind: self.kind,
            vars: self.vars,
            fragments: self.fragments,
        }
    }
}

/// Collects the open scalar variables a fragment needs, assigning parameter
/// indices in first-use order.
struct ParamCollector {
    n_vars: usize,
    params: Vec<(VarId, String, Ty)>,
}

impl ParamCollector {
    fn new(n_vars: usize) -> ParamCollector {
        ParamCollector {
            n_vars,
            params: Vec::new(),
        }
    }

    fn param_local(&mut self, v: VarId, name: String, ty: Ty) -> LocalId {
        if let Some(pos) = self.params.iter().position(|(pv, _, _)| *pv == v) {
            return LocalId::new(self.n_vars + pos);
        }
        self.params.push((v, name, ty));
        LocalId::new(self.n_vars + self.params.len() - 1)
    }

    fn into_params_and_args(self) -> (Vec<(String, Ty)>, Vec<Expr>) {
        let mut params = Vec::new();
        let mut args = Vec::new();
        for (v, name, ty) in self.params {
            params.push((name, ty));
            args.push(match v {
                VarId::Local(l) => Expr::local(l),
                VarId::Global(g) => Expr::global(g),
                VarId::Field(..) => unreachable!("open fields are never fragment params"),
            });
        }
        (params, args)
    }
}

/// Rewrites one function of a split. `modref` is `None` for a function
/// target, whose hidden variables are locals no call can write; the open
/// function then records its component.
fn rewrite_function(
    program: &Program,
    fid: FuncId,
    plan: &SlicePlan,
    comp: &mut ComponentBuilder,
    modref: Option<&ModRef>,
) -> Result<(Function, SplitReport), SplitError> {
    let orig = program.func(fid);
    let mut rw = FuncRewriter {
        program,
        orig,
        plan,
        modref,
        comp,
        new_locals: orig.locals.clone(),
        ilps: Vec::new(),
        sent_vars: BTreeSet::new(),
    };
    let new_body = rw.rewrite_block(&orig.body)?;
    let FuncRewriter {
        new_locals,
        ilps,
        sent_vars,
        ..
    } = rw;

    let mut new_func = orig.clone();
    new_func.locals = new_locals;
    new_func.body = new_body;
    // The paper: hidden variables "are replaced by single variable during
    // the creation of Of" — their source names must not survive in the
    // open component. The declarations stay (LocalIds are positional) but
    // are renamed opaquely; all references were rewritten away above.
    for (i, decl) in new_func.locals.iter_mut().enumerate() {
        if plan.hidden_vars.contains(&VarId::Local(LocalId::new(i))) {
            decl.name = format!("__h{i}");
        }
    }
    if modref.is_none() {
        new_func.split_component = Some(comp.id);
    }
    new_func.renumber();

    let hidden_vars: Vec<(VarId, bool)> = plan
        .hidden_vars
        .iter()
        .map(|&v| (v, !sent_vars.contains(&v)))
        .collect();
    let report = SplitReport {
        func: fid,
        component: comp.id,
        seeds: plan.seeds.clone(),
        hidden_vars,
        slice_stmts: plan.slice_size(),
        ilps,
        plan: plan.clone(),
    };
    Ok((new_func, report))
}

struct FuncRewriter<'a> {
    program: &'a Program,
    orig: &'a Function,
    plan: &'a SlicePlan,
    modref: Option<&'a ModRef>,
    comp: &'a mut ComponentBuilder,
    new_locals: Vec<hps_ir::LocalDecl>,
    ilps: Vec<IlpInfo>,
    sent_vars: BTreeSet<VarId>,
}

impl FuncRewriter<'_> {
    fn add_temp(&mut self, hint: &str, ty: Ty) -> LocalId {
        let name = format!("__{hint}{}", self.new_locals.len());
        self.new_locals.push(hps_ir::LocalDecl {
            name,
            ty,
            kind: hps_ir::LocalKind::Temp,
        });
        LocalId::new(self.new_locals.len() - 1)
    }

    /// The static type of `e`, which the front end guarantees.
    fn ty_of(&self, e: &Expr) -> Ty {
        expr_ty(self.program, self.orig, e).expect("front-end IR is well typed")
    }

    fn is_hidden(&self, v: VarId) -> bool {
        self.plan.hidden_vars.contains(&v)
    }

    /// The hidden variable `e` reads, if it is a read of one.
    fn hidden_read(&self, e: &Expr) -> Option<VarId> {
        let v = match e {
            Expr::Local(l) => VarId::Local(*l),
            Expr::Global(g) => VarId::Global(*g),
            Expr::FieldGet { class, field, .. } => VarId::Field(*class, *field),
            _ => return None,
        };
        self.is_hidden(v).then_some(v)
    }

    // ---------------- open-side rewriting ----------------

    fn rewrite_block(&mut self, block: &Block) -> Result<Block, SplitError> {
        let mut out: Vec<Stmt> = Vec::new();
        let mut pending: Vec<&Stmt> = Vec::new();
        for stmt in &block.stmts {
            if self.plan.disposition(stmt.id) == Disposition::Hidden {
                pending.push(stmt);
                continue;
            }
            self.flush_hidden_run(&mut out, &mut pending)?;
            self.rewrite_open_stmt(stmt, &mut out)?;
        }
        self.flush_hidden_run(&mut out, &mut pending)?;
        Ok(Block::of(out))
    }

    /// Emits one fragment for a maximal run of consecutive hidden
    /// statements, and the `HiddenCall` that triggers it.
    fn flush_hidden_run(
        &mut self,
        out: &mut Vec<Stmt>,
        pending: &mut Vec<&Stmt>,
    ) -> Result<(), SplitError> {
        if pending.is_empty() {
            return Ok(());
        }
        let mut collector = ParamCollector::new(self.comp.n_vars());
        let mut body = Vec::new();
        for stmt in pending.drain(..) {
            body.push(self.frag_rewrite_stmt(stmt, &mut collector)?);
        }
        let (params, args) = collector.into_params_and_args();
        let label = self.comp.add_fragment(params, Block::of(body), None);
        out.push(Stmt::new(StmtKind::HiddenCall {
            component: self.comp.id,
            label,
            args,
            result: None,
            deferred: false,
        }));
        Ok(())
    }

    /// Emits a fetch of hidden variable `v` into a fresh temp, recording
    /// the ILP; returns the temp.
    fn fetch(&mut self, v: VarId, at: StmtId, out: &mut Vec<Stmt>) -> LocalId {
        let slot = self.comp.slot(v).expect("fetch of hidden var");
        let ty = self.comp.vars[slot].ty.clone();
        let tmp = self.add_temp("get", ty);
        let label = self.comp.get_fragment(v);
        out.push(Stmt::new(StmtKind::HiddenCall {
            component: self.comp.id,
            label,
            args: Vec::new(),
            result: Some(Place::Local(tmp)),
            deferred: false,
        }));
        self.ilps.push(IlpInfo {
            stmt: at,
            component: self.comp.id,
            label,
            kind: IlpKind::Fetch(v),
            leaked_expr: var_expr(v),
            wire_expr: None,
            hardening: None,
        });
        tmp
    }

    /// Rewrites an open-side expression: hidden-variable reads become
    /// fetch temps (fetch calls are appended to `out` first).
    fn openize_expr(
        &mut self,
        e: &Expr,
        at: StmtId,
        out: &mut Vec<Stmt>,
        cache: &mut HashMap<VarId, LocalId>,
    ) -> Result<Expr, SplitError> {
        // A hidden field is read through `self` (plan validation), so its
        // receiver needs no rewriting.
        match self.hidden_read(e) {
            Some(v) => Ok(Expr::local(self.cached_fetch(v, at, out, cache))),
            None => map_operands(e, |op| self.openize_expr(op, at, out, cache)),
        }
    }

    fn cached_fetch(
        &mut self,
        v: VarId,
        at: StmtId,
        out: &mut Vec<Stmt>,
        cache: &mut HashMap<VarId, LocalId>,
    ) -> LocalId {
        if let Some(&tmp) = cache.get(&v) {
            return tmp;
        }
        let tmp = self.fetch(v, at, out);
        cache.insert(v, tmp);
        tmp
    }

    fn openize_place(
        &mut self,
        p: &Place,
        at: StmtId,
        out: &mut Vec<Stmt>,
        cache: &mut HashMap<VarId, LocalId>,
    ) -> Result<Place, SplitError> {
        Ok(match p {
            Place::Local(_) | Place::Global(_) => p.clone(),
            Place::Index { base, index } => Place::Index {
                base: Box::new(self.openize_place(base, at, out, cache)?),
                index: self.openize_expr(index, at, out, cache)?,
            },
            Place::Field { obj, class, field } => Place::Field {
                obj: self.openize_expr(obj, at, out, cache)?,
                class: *class,
                field: *field,
            },
        })
    }

    fn rewrite_open_stmt(&mut self, stmt: &Stmt, out: &mut Vec<Stmt>) -> Result<(), SplitError> {
        if let Some(stmts) = self.spill_calls(stmt)? {
            for s in &stmts {
                self.rewrite_open_stmt(s, out)?;
            }
            return Ok(());
        }
        let at = stmt.id;
        let mut cache = HashMap::new();
        match (&stmt.kind, self.plan.disposition(at)) {
            (StmtKind::Assign { place, value }, Disposition::HiddenReturn) => {
                // Case (iii): the hidden side computes `value`, the open
                // side stores it.
                let call = self.hidden_compute_call(value, at)?;
                let place = self.openize_place(place, at, out, &mut cache)?;
                out.push(with_result(call, Some(place)));
            }
            (StmtKind::Return(Some(e)), Disposition::HiddenReturn) => {
                let ty = self.ty_of(e);
                let tmp = self.add_temp("ret", ty);
                let call = self.hidden_compute_call(e, at)?;
                out.push(with_result(call, Some(Place::Local(tmp))));
                out.push(Stmt::new(StmtKind::Return(Some(Expr::local(tmp)))));
            }
            (StmtKind::Print(e), Disposition::HiddenReturn) => {
                let ty = self.ty_of(e);
                let tmp = self.add_temp("prn", ty);
                let call = self.hidden_compute_call(e, at)?;
                out.push(with_result(call, Some(Place::Local(tmp))));
                out.push(Stmt::new(StmtKind::Print(Expr::local(tmp))));
            }
            (StmtKind::Assign { place, value }, _) => {
                let root = VarId::of_root(place.root());
                if self.is_hidden(root) && place.is_whole_var()
                    || self.is_hidden(root) && matches!(place, Place::Field { .. })
                {
                    // Case (ii): open computation, value sent to Hf.
                    let value = self.openize_expr(value, at, out, &mut cache)?;
                    let label = self.comp.set_fragment(root);
                    self.sent_vars.insert(root);
                    out.push(Stmt::new(StmtKind::HiddenCall {
                        component: self.comp.id,
                        label,
                        args: vec![value],
                        result: None,
                        deferred: false,
                    }));
                } else {
                    let value = self.openize_expr(value, at, out, &mut cache)?;
                    let place = self.openize_place(place, at, out, &mut cache)?;
                    out.push(Stmt::new(StmtKind::Assign { place, value }));
                }
            }
            (
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                },
                _,
            ) => {
                match self.plan.promotions.get(&at) {
                    Some(PromotionKind::ElseClause) => {
                        // Of keeps if-then; the else clause runs hidden,
                        // guarded by the negated condition inside the
                        // fragment.
                        let call = self.clause_fragment(cond, else_blk, true)?;
                        out.push(call);
                        let cond = self.openize_expr(cond, at, out, &mut cache)?;
                        let then_blk = self.rewrite_block(then_blk)?;
                        out.push(Stmt::new(StmtKind::If {
                            cond,
                            then_blk,
                            else_blk: Block::new(),
                        }));
                    }
                    Some(PromotionKind::ThenClause) => {
                        let call = self.clause_fragment(cond, then_blk, false)?;
                        out.push(call);
                        let cond = self.openize_expr(cond, at, out, &mut cache)?;
                        let else_blk = self.rewrite_block(else_blk)?;
                        out.push(Stmt::new(StmtKind::If {
                            cond: Expr::unary(UnOp::Not, cond),
                            then_blk: else_blk,
                            else_blk: Block::new(),
                        }));
                    }
                    // WholeIf / WholeLoop were already marked Hidden and
                    // consumed by flush_hidden_run; anything else is an
                    // ordinary open if.
                    _ => {
                        let cond = self.openize_expr(cond, at, out, &mut cache)?;
                        let then_blk = self.rewrite_block(then_blk)?;
                        let else_blk = self.rewrite_block(else_blk)?;
                        out.push(Stmt::new(StmtKind::If {
                            cond,
                            then_blk,
                            else_blk,
                        }));
                    }
                }
            }
            (StmtKind::While { cond, body }, _) => {
                let reads_hidden =
                    !hps_slicing::transferable::hidden_reads(cond, &self.plan.hidden_vars)
                        .is_empty();
                let body = self.rewrite_block(body)?;
                if reads_hidden {
                    // The condition must be re-fetched every iteration:
                    //   while (true) { t = H(get); if (!cond') { break; } body }
                    let mut pre = Vec::new();
                    let mut loop_cache = HashMap::new();
                    let cond = self.openize_expr(cond, at, &mut pre, &mut loop_cache)?;
                    let mut new_body = pre;
                    new_body.push(Stmt::new(StmtKind::If {
                        cond: Expr::unary(UnOp::Not, cond),
                        then_blk: Block::of(vec![Stmt::new(StmtKind::Break)]),
                        else_blk: Block::new(),
                    }));
                    new_body.extend(body.stmts);
                    out.push(Stmt::new(StmtKind::While {
                        cond: Expr::bool(true),
                        body: Block::of(new_body),
                    }));
                } else {
                    out.push(Stmt::new(StmtKind::While {
                        cond: cond.clone(),
                        body,
                    }));
                }
            }
            (StmtKind::Return(e), _) => {
                let e = match e {
                    Some(e) => Some(self.openize_expr(e, at, out, &mut cache)?),
                    None => None,
                };
                out.push(Stmt::new(StmtKind::Return(e)));
            }
            (StmtKind::Print(e), _) => {
                let e = self.openize_expr(e, at, out, &mut cache)?;
                out.push(Stmt::new(StmtKind::Print(e)));
            }
            (StmtKind::ExprStmt(e), _) => {
                let e = self.openize_expr(e, at, out, &mut cache)?;
                out.push(Stmt::new(StmtKind::ExprStmt(e)));
            }
            (StmtKind::Break, _) => out.push(Stmt::new(StmtKind::Break)),
            (StmtKind::Continue, _) => out.push(Stmt::new(StmtKind::Continue)),
            (StmtKind::Nop, _) => {}
            (StmtKind::HiddenCall { .. }, _) => {
                return Err(SplitError::Unrealizable(
                    "cannot split an already-split function".into(),
                ))
            }
        }
        Ok(())
    }

    // ---------------- calls that write hidden variables ----------------

    /// Fetches run before their statement, so a hidden read after a call
    /// that may write the variable would see the value from before the
    /// call. For such a statement this returns the statements to rewrite
    /// in its place, in evaluation order: each call assigned to a temp,
    /// each operand evaluated before a call assigned to a temp ahead of
    /// it, then the statement itself, reading the temps. `None` when no
    /// read is stale.
    ///
    /// # Errors
    ///
    /// [`SplitError::Unrealizable`] where moving a call would change
    /// evaluation: a loop condition, the right operand of `&&`/`||`, an
    /// assigned place.
    fn spill_calls(&mut self, stmt: &Stmt) -> Result<Option<Vec<Stmt>>, SplitError> {
        let Some(modref) = self.modref else {
            return Ok(None);
        };
        let mut written = BTreeSet::new();
        let stale = match &stmt.kind {
            StmtKind::Assign { place, value } => std::iter::once(value)
                .chain(place.exprs())
                .any(|e| self.reads_stale(e, modref, &mut written)),
            StmtKind::If { cond: e, .. }
            | StmtKind::While { cond: e, .. }
            | StmtKind::Return(Some(e))
            | StmtKind::Print(e)
            | StmtKind::ExprStmt(e) => self.reads_stale(e, modref, &mut written),
            _ => false,
        };
        if !stale {
            return Ok(None);
        }
        let unrealizable = |what: &str| {
            SplitError::Unrealizable(format!(
                "statement {} reads a hidden variable after a call that may write it, in {what}",
                stmt.id
            ))
        };
        let mut pre = Vec::new();
        let mut kind = stmt.kind.clone();
        let spilled = match &mut kind {
            StmtKind::Assign { place, .. } if place.exprs().iter().any(|e| e.contains_call()) => {
                return Err(unrealizable("an assigned place"))
            }
            StmtKind::Assign { value: e, .. }
            | StmtKind::If { cond: e, .. }
            | StmtKind::Return(Some(e))
            | StmtKind::Print(e) => self.spill_expr(&e.clone(), &mut pre).map(|s| *e = s),
            // A call statement's call is its last step: only its arguments
            // move, and a `void` call has no value to keep.
            StmtKind::ExprStmt(e) => {
                let call = e.clone();
                self.spill_operands(&call, &mut pre).map(|s| *e = s)
            }
            _ => return Err(unrealizable("a loop condition")),
        };
        spilled.ok_or_else(|| unrealizable("the right operand of `&&`/`||`"))?;
        let mut stmts = pre;
        stmts.push(Stmt::new(kind));
        for s in &mut stmts {
            s.id = stmt.id;
        }
        Ok(Some(stmts))
    }

    /// Walks `e` in evaluation order, adding to `written` the hidden
    /// variables each call may write; true at a read of one of them.
    fn reads_stale(&self, e: &Expr, modref: &ModRef, written: &mut BTreeSet<VarId>) -> bool {
        if let Some(v) = self.hidden_read(e) {
            return written.contains(&v);
        }
        if operands(e)
            .iter()
            .any(|op| self.reads_stale(op, modref, written))
        {
            return true;
        }
        if let Expr::Call { callee, .. } = e {
            let hidden = self.plan.hidden_vars.iter();
            written.extend(hidden.filter(|&&v| modref.may_write(callee.func(), v)));
        }
        false
    }

    /// `e` with its calls moved into temps (see
    /// [`FuncRewriter::spill_calls`]); `None` for a call in the right
    /// operand of `&&`/`||`, which may not run.
    fn spill_expr(&mut self, e: &Expr, pre: &mut Vec<Stmt>) -> Option<Expr> {
        if let Expr::Binary { op, rhs, .. } = e {
            if op.is_logical() && rhs.contains_call() {
                return None;
            }
        }
        let rebuilt = self.spill_operands(e, pre)?;
        if !matches!(e, Expr::Call { .. }) {
            return Some(rebuilt);
        }
        let tmp = self.add_temp("spill", self.ty_of(e));
        pre.push(assign_local(tmp, rebuilt));
        Some(Expr::local(tmp))
    }

    /// `e` with each operand spilled in turn. An operand evaluated before
    /// a call is assigned to a temp ahead of it, unless it is a constant
    /// or a local, which no call can change.
    fn spill_operands(&mut self, e: &Expr, pre: &mut Vec<Stmt>) -> Option<Expr> {
        let ops = operands(e);
        let mut next = 0;
        let spilled = map_operands(e, |op| -> Result<Expr, ()> {
            next += 1;
            let residual = self.spill_expr(op, pre).ok_or(())?;
            let call_after = ops[next..].iter().any(|later| later.contains_call());
            if !call_after || matches!(residual, Expr::Const(_) | Expr::Local(_)) {
                return Ok(residual);
            }
            let tmp = self.add_temp("spill", self.ty_of(op));
            pre.push(assign_local(tmp, residual));
            Ok(Expr::local(tmp))
        });
        spilled.ok()
    }

    /// Builds a value-returning fragment for `expr` (case (iii)) and
    /// records the ILP. Returns the HiddenCall without a result place.
    fn hidden_compute_call(&mut self, expr: &Expr, at: StmtId) -> Result<Stmt, SplitError> {
        let mut collector = ParamCollector::new(self.comp.n_vars());
        let ret = self.frag_rewrite_expr(expr, &mut collector)?;
        let (params, args) = collector.into_params_and_args();
        let label = self.comp.add_fragment(params, Block::new(), Some(ret));
        self.ilps.push(IlpInfo {
            stmt: at,
            component: self.comp.id,
            label,
            kind: IlpKind::HiddenCompute,
            leaked_expr: expr.clone(),
            wire_expr: None,
            hardening: None,
        });
        Ok(Stmt::new(StmtKind::HiddenCall {
            component: self.comp.id,
            label,
            args,
            result: None,
            deferred: false,
        }))
    }

    /// Builds the fragment for a promoted `if` clause: the clause body
    /// guarded by the (possibly negated) condition.
    fn clause_fragment(
        &mut self,
        cond: &Expr,
        clause: &Block,
        negate: bool,
    ) -> Result<Stmt, SplitError> {
        let mut collector = ParamCollector::new(self.comp.n_vars());
        let mut guard = self.frag_rewrite_expr(cond, &mut collector)?;
        if negate {
            guard = Expr::unary(UnOp::Not, guard);
        }
        let mut body = Vec::new();
        for stmt in &clause.stmts {
            body.push(self.frag_rewrite_stmt(stmt, &mut collector)?);
        }
        let (params, args) = collector.into_params_and_args();
        let label = self.comp.add_fragment(
            params,
            Block::of(vec![Stmt::new(StmtKind::If {
                cond: guard,
                then_blk: Block::of(body),
                else_blk: Block::new(),
            })]),
            None,
        );
        Ok(Stmt::new(StmtKind::HiddenCall {
            component: self.comp.id,
            label,
            args,
            result: None,
            deferred: false,
        }))
    }

    // ---------------- fragment-side rewriting ----------------

    fn frag_rewrite_stmt(
        &mut self,
        stmt: &Stmt,
        collector: &mut ParamCollector,
    ) -> Result<Stmt, SplitError> {
        let kind = match &stmt.kind {
            StmtKind::Assign { place, value } => {
                let root = VarId::of_root(place.root());
                let slot = self.comp.slot(root).ok_or_else(|| {
                    SplitError::Unrealizable(format!(
                        "hidden statement {} assigns a non-hidden variable",
                        stmt.id
                    ))
                })?;
                StmtKind::Assign {
                    place: Place::Local(LocalId::new(slot)),
                    value: self.frag_rewrite_expr(value, collector)?,
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => StmtKind::If {
                cond: self.frag_rewrite_expr(cond, collector)?,
                then_blk: self.frag_rewrite_block(then_blk, collector)?,
                else_blk: self.frag_rewrite_block(else_blk, collector)?,
            },
            StmtKind::While { cond, body } => StmtKind::While {
                cond: self.frag_rewrite_expr(cond, collector)?,
                body: self.frag_rewrite_block(body, collector)?,
            },
            StmtKind::Break => StmtKind::Break,
            StmtKind::Continue => StmtKind::Continue,
            StmtKind::Nop => StmtKind::Nop,
            other => {
                return Err(SplitError::Unrealizable(format!(
                    "statement kind `{}` cannot move to the hidden component",
                    other.tag()
                )))
            }
        };
        let mut s = Stmt::new(kind);
        s.id = stmt.id;
        Ok(s)
    }

    fn frag_rewrite_block(
        &mut self,
        block: &Block,
        collector: &mut ParamCollector,
    ) -> Result<Block, SplitError> {
        let mut out = Vec::new();
        for stmt in &block.stmts {
            out.push(self.frag_rewrite_stmt(stmt, collector)?);
        }
        Ok(Block::of(out))
    }

    fn frag_rewrite_expr(
        &mut self,
        e: &Expr,
        collector: &mut ParamCollector,
    ) -> Result<Expr, SplitError> {
        Ok(match e {
            Expr::Const(_) => e.clone(),
            Expr::Local(l) => {
                let v = VarId::Local(*l);
                match self.comp.slot(v) {
                    Some(slot) => Expr::local(LocalId::new(slot)),
                    None => {
                        let decl = self.orig.local(*l);
                        let p = collector.param_local(v, decl.name.clone(), decl.ty.clone());
                        Expr::local(p)
                    }
                }
            }
            Expr::Global(g) => {
                let v = VarId::Global(*g);
                match self.comp.slot(v) {
                    Some(slot) => Expr::local(LocalId::new(slot)),
                    None => {
                        let decl = &self.program.globals[g.index()];
                        let p = collector.param_local(v, decl.name.clone(), decl.ty.clone());
                        Expr::local(p)
                    }
                }
            }
            Expr::FieldGet { class, field, .. } => {
                let v = VarId::Field(*class, *field);
                match self.comp.slot(v) {
                    Some(slot) => Expr::local(LocalId::new(slot)),
                    None => {
                        return Err(SplitError::Unrealizable(
                            "fragment reads a non-hidden field".into(),
                        ))
                    }
                }
            }
            Expr::Call { .. } | Expr::Index { .. } | Expr::NewArray { .. } | Expr::NewObject(_) => {
                return Err(SplitError::Unrealizable(format!(
                    "non-transferable expression reached a fragment: {e:?}"
                )))
            }
            _ => map_operands(e, |op| self.frag_rewrite_expr(op, collector))?,
        })
    }
}

fn assign_local(local: LocalId, value: Expr) -> Stmt {
    Stmt::new(StmtKind::Assign {
        place: Place::Local(local),
        value,
    })
}

/// The operands of `e`, in evaluation order.
fn operands(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Const(_) | Expr::Local(_) | Expr::Global(_) | Expr::NewObject(_) => Vec::new(),
        Expr::Index { base, index } => vec![base, index],
        Expr::FieldGet { obj: arg, .. }
        | Expr::Unary { arg, .. }
        | Expr::NewArray { len: arg, .. } => {
            vec![arg]
        }
        Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
        Expr::Call { args, .. } | Expr::BuiltinCall { args, .. } => args.iter().collect(),
    }
}

/// `e` with each operand replaced by `f` of it, in evaluation order.
fn map_operands<E>(e: &Expr, mut f: impl FnMut(&Expr) -> Result<Expr, E>) -> Result<Expr, E> {
    let mut args = |args: &[Expr]| args.iter().map(&mut f).collect::<Result<_, E>>();
    Ok(match e {
        Expr::Call { callee, args: a } => Expr::Call {
            callee: *callee,
            args: args(a)?,
        },
        Expr::BuiltinCall { builtin, args: a } => Expr::BuiltinCall {
            builtin: *builtin,
            args: args(a)?,
        },
        _ => {
            let mut op = |x: &Expr| f(x).map(Box::new);
            match e {
                Expr::Index { base, index } => Expr::Index {
                    base: op(base)?,
                    index: op(index)?,
                },
                Expr::FieldGet { obj, class, field } => Expr::FieldGet {
                    obj: op(obj)?,
                    class: *class,
                    field: *field,
                },
                Expr::Unary { op: unop, arg } => Expr::Unary {
                    op: *unop,
                    arg: op(arg)?,
                },
                Expr::Binary {
                    op: binop,
                    lhs,
                    rhs,
                } => Expr::Binary {
                    op: *binop,
                    lhs: op(lhs)?,
                    rhs: op(rhs)?,
                },
                Expr::NewArray { elem, len } => Expr::NewArray {
                    elem: elem.clone(),
                    len: op(len)?,
                },
                _ => e.clone(),
            }
        }
    })
}

fn with_result(call: Stmt, result: Option<Place>) -> Stmt {
    match call.kind {
        StmtKind::HiddenCall {
            component,
            label,
            args,
            deferred,
            ..
        } => Stmt::new(StmtKind::HiddenCall {
            component,
            label,
            args,
            result,
            deferred,
        }),
        _ => unreachable!("with_result takes a HiddenCall"),
    }
}

fn var_expr(v: VarId) -> Expr {
    match v {
        VarId::Local(l) => Expr::local(l),
        VarId::Global(g) => Expr::global(g),
        VarId::Field(c, f) => Expr::FieldGet {
            obj: Box::new(Expr::local(LocalId::new(0))),
            class: c,
            field: f,
        },
    }
}
