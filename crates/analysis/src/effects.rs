//! Interprocedural effect/purity analysis.
//!
//! Assigns every function — and, separately, every hidden fragment — a
//! summary on a small linear effect lattice:
//!
//! ```text
//! Pure  ⊑  ReadsHidden  ⊑  WritesHidden  ⊑  MayTrap
//! ```
//!
//! * [`Effect::Pure`] — the result depends only on the call's arguments and
//!   constants: no hidden state is read or written and no trap can fire.
//!   Re-executing a pure fragment with the same arguments provably yields
//!   the same value, the same cost units and the same persistent state
//!   (none), so it could be memoized.
//! * [`Effect::ReadsHidden`] — hidden state flows (by data or control
//!   dependence) into the result, but is never modified.
//! * [`Effect::WritesHidden`] — persistent hidden state may be modified.
//! * [`Effect::MayTrap`] — the top: execution may raise a runtime trap
//!   (division/remainder by zero, the secure device's step limit on loops,
//!   an out-of-range slot) or otherwise depend on trap order / evaluation
//!   nondeterminism. Anything at this level must always re-execute.
//!
//! The lattice is deliberately linear (the issue's `Nondeterministic` and
//! `MayTrap` tops collapse into one), so `join` is just `max` and the
//! algebraic laws (commutativity, associativity, idempotence) hold by
//! construction — `effect_props.rs` pins them anyway.
//!
//! Two analyses share the lattice:
//!
//! * [`fragment_effect`] summarizes one hidden [`Fragment`] using
//!   intra-fragment def-use chains plus a control-dependence closure: a
//!   hidden slot only forces `ReadsHidden` when it can actually reach the
//!   returned value or a persistent write (a dead hidden read stays pure).
//! * [`EffectAnalysis`] lifts per-function local effects (global mod/ref
//!   facts from [`ModRef`] intersected with the hidden-global set, plus
//!   syntactic trap sources) to transitive summaries with a monotone
//!   fixpoint over the [`CallGraph`] — recursion converges because the
//!   lattice is finite and `join` only moves up.
//!
//! Type mismatches are treated optimistically (the splitter only emits
//! well-typed fragments); a mistyped operation traps at run time, and a
//! trapping execution yields no result to reuse.

use crate::callgraph::CallGraph;
use crate::modref::ModRef;
use hps_ir::{
    BinOp, Block, Builtin, Expr, Fragment, FuncId, GlobalId, HiddenProgram, Place, Program,
    StmtKind,
};
use std::collections::BTreeSet;

/// A point on the effect lattice. Ordering is lattice ordering:
/// `Pure < ReadsHidden < WritesHidden < MayTrap`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Effect {
    /// No hidden reads or writes, no traps: result is a function of the
    /// arguments alone.
    #[default]
    Pure,
    /// Hidden state may flow into the result but is never modified.
    ReadsHidden,
    /// Persistent hidden state may be modified.
    WritesHidden,
    /// Execution may trap (division by zero, step limit, bad slot) or
    /// depend on trap order; the top of the lattice.
    MayTrap,
}

impl Effect {
    /// Least upper bound. On a linear lattice this is `max`.
    #[must_use]
    pub fn join(self, other: Effect) -> Effect {
        self.max(other)
    }

    /// Stable snake_case name used in audit JSON and golden reports.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Pure => "pure",
            Effect::ReadsHidden => "reads_hidden",
            Effect::WritesHidden => "writes_hidden",
            Effect::MayTrap => "may_trap",
        }
    }

    /// Whether a call's result could be reused for a later call with the
    /// same arguments (exactly the `Pure` level).
    pub fn is_memoizable(self) -> bool {
        self == Effect::Pure
    }
}

/// Summarizes one hidden fragment.
///
/// `n_vars` is the component's persistent hidden-variable count; fragment
/// local slots `0..n_vars` address persistent state and slots `n_vars..`
/// the call parameters (which never persist).
///
/// The analysis is flow-insensitive over slot dependencies — every
/// assignment `slot := e` under control context `C` contributes
/// `vars(e) ∪ vars(C)` to `deps[slot]` — then takes the transitive closure
/// from the returned expression and every persistent write. `ReadsHidden`
/// fires only when a hidden slot lands in that closure, so a hidden read
/// whose value provably never reaches the outside stays `Pure`.
///
/// Trap sources: integer `/` and `%` (division by zero), `while` (the
/// secure device's step limit), `len` (illegal in fragments) and slot
/// references outside `0..n_vars + params`. A fragment containing any of
/// them is `MayTrap` regardless of what else it does: `break`/`continue`
/// only occur inside loops, so the simple `if`-condition stack below is
/// exact everywhere the closure's precision can still matter.
pub fn fragment_effect(fragment: &Fragment, n_vars: usize) -> Effect {
    let n_slots = n_vars + fragment.params.len();
    let mut scan = FragScan {
        n_slots,
        deps: vec![BTreeSet::new(); n_slots],
        roots: BTreeSet::new(),
        writes_hidden: false,
        may_trap: false,
        n_vars,
    };
    let mut ctrl = Vec::new();
    scan.block(&fragment.body, &mut ctrl);
    if let Some(ret) = &fragment.ret {
        let mut vars = BTreeSet::new();
        scan.expr(ret, &mut vars);
        scan.roots.extend(vars);
    }

    // Transitive closure of the data/control dependence relation from the
    // observable roots (returned value + values written to hidden slots).
    let mut reach = scan.roots.clone();
    let mut work: Vec<usize> = reach.iter().copied().collect();
    while let Some(s) = work.pop() {
        if s >= scan.deps.len() {
            continue;
        }
        for &d in &scan.deps[s] {
            if reach.insert(d) {
                work.push(d);
            }
        }
    }
    let reads_hidden = reach.iter().any(|&s| s < n_vars);

    let mut e = Effect::Pure;
    if reads_hidden {
        e = e.join(Effect::ReadsHidden);
    }
    if scan.writes_hidden {
        e = e.join(Effect::WritesHidden);
    }
    if scan.may_trap {
        e = e.join(Effect::MayTrap);
    }
    e
}

struct FragScan {
    n_slots: usize,
    /// `deps[s]` = slots whose values may flow into slot `s`.
    deps: Vec<BTreeSet<usize>>,
    /// Closure roots: slots feeding the return value or a hidden write.
    roots: BTreeSet<usize>,
    writes_hidden: bool,
    may_trap: bool,
    n_vars: usize,
}

impl FragScan {
    fn block(&mut self, block: &Block, ctrl: &mut Vec<BTreeSet<usize>>) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Assign { place, value } => {
                    let mut vars = BTreeSet::new();
                    self.expr(value, &mut vars);
                    for c in ctrl.iter() {
                        vars.extend(c.iter().copied());
                    }
                    match place {
                        Place::Local(id) => {
                            let t = id.index();
                            if t >= self.n_slots {
                                self.may_trap = true;
                            } else {
                                self.deps[t].extend(vars.iter().copied());
                                if t < self.n_vars {
                                    self.writes_hidden = true;
                                    self.roots.extend(vars);
                                }
                            }
                        }
                        // Aggregate stores are illegal in fragments.
                        _ => self.may_trap = true,
                    }
                }
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let mut cvars = BTreeSet::new();
                    self.expr(cond, &mut cvars);
                    ctrl.push(cvars);
                    self.block(then_blk, ctrl);
                    self.block(else_blk, ctrl);
                    ctrl.pop();
                }
                StmtKind::While { cond, body } => {
                    // A loop can always hit the secure device's step limit.
                    self.may_trap = true;
                    let mut cvars = BTreeSet::new();
                    self.expr(cond, &mut cvars);
                    ctrl.push(cvars);
                    self.block(body, ctrl);
                    ctrl.pop();
                }
                StmtKind::Break | StmtKind::Continue | StmtKind::Nop => {}
                // Everything else is illegal in a fragment and traps.
                _ => self.may_trap = true,
            }
        }
    }

    fn expr(&mut self, e: &Expr, vars: &mut BTreeSet<usize>) {
        match e {
            Expr::Const(_) => {}
            Expr::Local(id) => {
                let s = id.index();
                if s >= self.n_slots {
                    self.may_trap = true;
                } else {
                    vars.insert(s);
                }
            }
            Expr::Unary { arg, .. } => self.expr(arg, vars),
            Expr::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    self.may_trap = true;
                }
                self.expr(lhs, vars);
                self.expr(rhs, vars);
            }
            Expr::BuiltinCall { builtin, args } => {
                if *builtin == Builtin::Len {
                    self.may_trap = true;
                }
                for a in args {
                    self.expr(a, vars);
                }
            }
            // Globals, aggregates, calls and allocations are illegal in
            // fragments; executing one traps.
            _ => self.may_trap = true,
        }
    }
}

/// Per-fragment effects for a whole [`HiddenProgram`], indexed by
/// `(component index, fragment position)`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FragmentEffects {
    per_component: Vec<Vec<Effect>>,
}

impl FragmentEffects {
    /// Runs [`fragment_effect`] on every fragment of every component.
    pub fn compute(hidden: &HiddenProgram) -> FragmentEffects {
        FragmentEffects {
            per_component: hidden
                .components
                .iter()
                .map(|c| {
                    c.fragments
                        .iter()
                        .map(|f| fragment_effect(f, c.vars.len()))
                        .collect()
                })
                .collect(),
        }
    }

    /// The effect of the fragment at `(component, position)`, if any.
    pub fn effect(&self, component: usize, position: usize) -> Option<Effect> {
        self.per_component.get(component)?.get(position).copied()
    }

    /// Iterates `(component, position, effect)` in order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Effect)> + '_ {
        self.per_component
            .iter()
            .enumerate()
            .flat_map(|(c, v)| v.iter().enumerate().map(move |(p, &e)| (c, p, e)))
    }

    /// Number of fragments at exactly `effect`.
    pub fn count(&self, effect: Effect) -> usize {
        self.iter().filter(|&(_, _, e)| e == effect).count()
    }

    /// Total number of fragments summarized.
    pub fn total(&self) -> usize {
        self.per_component.iter().map(Vec::len).sum()
    }
}

/// Interprocedural function-level effect summaries.
///
/// The local effect of a function is derived from its [`ModRef`] summary
/// intersected with the hidden-global set (reads ⇒ `ReadsHidden`, writes ⇒
/// `WritesHidden`) joined with its syntactic trap sources; the transitive
/// effect folds in callees to a fixpoint over the call graph.
#[derive(Clone, PartialEq, Debug)]
pub struct EffectAnalysis {
    local: Vec<Effect>,
    effects: Vec<Effect>,
    iterations: usize,
}

impl EffectAnalysis {
    /// Computes transitive effect summaries for every function.
    ///
    /// `hidden` is the set of globals the split hides; local variables are
    /// invisible outside their function and never contribute.
    pub fn compute(
        program: &Program,
        cg: &CallGraph,
        modref: &ModRef,
        hidden: &BTreeSet<GlobalId>,
    ) -> EffectAnalysis {
        let n = program.functions.len();
        let mut local = vec![Effect::Pure; n];
        for (fid, func) in program.iter_funcs() {
            let i = fid.index();
            let mut e = Effect::Pure;
            if modref.refs(fid).iter().any(|g| hidden.contains(g)) {
                e = e.join(Effect::ReadsHidden);
            }
            if modref.mods(fid).iter().any(|g| hidden.contains(g)) {
                e = e.join(Effect::WritesHidden);
            }
            if function_may_trap(func) {
                e = e.join(Effect::MayTrap);
            }
            local[i] = e;
        }

        // Fixpoint: fold callee effects into callers. Monotone on a finite
        // lattice, so this terminates even on recursive call graphs.
        let mut effects = local.clone();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let mut changed = false;
            for f in 0..n {
                let mut e = effects[f];
                for g in cg.callees(FuncId::new(f)) {
                    e = e.join(effects[g.index()]);
                }
                if e != effects[f] {
                    effects[f] = e;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        EffectAnalysis {
            local,
            effects,
            iterations,
        }
    }

    /// The transitive effect of `f` (callees folded in).
    pub fn effect(&self, f: FuncId) -> Effect {
        self.effects[f.index()]
    }

    /// The effect of `f` before the call-graph fixpoint. Hidden reads and
    /// writes are already transitive here (ModRef summaries fold callees);
    /// the fixpoint additionally propagates trap sources up the graph.
    pub fn local_effect(&self, f: FuncId) -> Effect {
        self.local[f.index()]
    }

    /// Fixpoint sweeps performed (≥ 1; bounded by lattice height × call
    /// graph diameter). Exposed for the termination proptests.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Verifies the solution is a post-fixpoint:
    /// `effect(f) ⊒ local(f) ⊔ ⨆ effect(callee)` for every `f`.
    pub fn is_fixpoint(&self, cg: &CallGraph) -> bool {
        (0..self.effects.len()).all(|f| {
            let fid = FuncId::new(f);
            let mut need = self.local[f];
            for g in cg.callees(fid) {
                need = need.join(self.effects[g.index()]);
            }
            self.effects[f] >= need
        })
    }
}

/// Syntactic trap sources in an ordinary (non-fragment) function body:
/// integer division/remainder, loops (step limit) and array indexing
/// (bounds).
fn function_may_trap(func: &hps_ir::Function) -> bool {
    let mut trap = false;
    hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
        if matches!(stmt.kind, StmtKind::While { .. }) {
            trap = true;
        }
        hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| match e {
            Expr::Binary {
                op: BinOp::Div | BinOp::Rem,
                ..
            } => trap = true,
            Expr::Index { .. } => trap = true,
            _ => {}
        });
    });
    trap
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{FragLabel, LocalId, Stmt, Ty};

    fn frag(body: Vec<Stmt>, params: usize, ret: Option<Expr>) -> Fragment {
        Fragment {
            label: FragLabel::new(0),
            params: (0..params).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        }
    }

    fn assign(slot: usize, value: Expr) -> Stmt {
        Stmt::new(StmtKind::Assign {
            place: Place::Local(LocalId::new(slot)),
            value,
        })
    }

    #[test]
    fn join_is_max_on_the_chain() {
        use Effect::*;
        assert_eq!(Pure.join(ReadsHidden), ReadsHidden);
        assert_eq!(WritesHidden.join(ReadsHidden), WritesHidden);
        assert_eq!(MayTrap.join(Pure), MayTrap);
        for e in [Pure, ReadsHidden, WritesHidden, MayTrap] {
            assert_eq!(e.join(e), e);
        }
    }

    #[test]
    fn arithmetic_on_params_is_pure() {
        // n_vars = 0; L0(p0, p1): ret p0 * p1 + p0
        let f = frag(
            vec![],
            2,
            Some(Expr::binary(
                BinOp::Add,
                Expr::binary(
                    BinOp::Mul,
                    Expr::local(LocalId::new(0)),
                    Expr::local(LocalId::new(1)),
                ),
                Expr::local(LocalId::new(0)),
            )),
        );
        assert_eq!(fragment_effect(&f, 0), Effect::Pure);
        assert!(fragment_effect(&f, 0).is_memoizable());
    }

    #[test]
    fn param_scratch_writes_stay_pure() {
        // n_vars = 1 but only the param slot is written and returned.
        let f = frag(
            vec![assign(1, Expr::int(7))],
            1,
            Some(Expr::local(LocalId::new(1))),
        );
        assert_eq!(fragment_effect(&f, 1), Effect::Pure);
    }

    #[test]
    fn returning_hidden_state_reads_hidden() {
        // n_vars = 1; ret v0 + p0
        let f = frag(
            vec![],
            1,
            Some(Expr::binary(
                BinOp::Add,
                Expr::local(LocalId::new(0)),
                Expr::local(LocalId::new(1)),
            )),
        );
        assert_eq!(fragment_effect(&f, 1), Effect::ReadsHidden);
    }

    #[test]
    fn dead_hidden_read_stays_pure() {
        // The hidden slot flows into a param scratch slot nobody returns.
        let f = frag(
            vec![assign(1, Expr::local(LocalId::new(0)))],
            1,
            Some(Expr::int(3)),
        );
        assert_eq!(fragment_effect(&f, 1), Effect::Pure);
    }

    #[test]
    fn hidden_write_dominates_read() {
        // v0 = v0 + p0: reads and writes hidden state.
        let f = frag(
            vec![assign(
                0,
                Expr::binary(
                    BinOp::Add,
                    Expr::local(LocalId::new(0)),
                    Expr::local(LocalId::new(1)),
                ),
            )],
            1,
            None,
        );
        assert_eq!(fragment_effect(&f, 1), Effect::WritesHidden);
    }

    #[test]
    fn control_dependence_on_hidden_reaches_the_result() {
        // if (v0 < p0) { p_scratch = 1 } ret p_scratch: implicit flow.
        let f = frag(
            vec![Stmt::new(StmtKind::If {
                cond: Expr::binary(
                    BinOp::Lt,
                    Expr::local(LocalId::new(0)),
                    Expr::local(LocalId::new(1)),
                ),
                then_blk: Block::of(vec![assign(1, Expr::int(1))]),
                else_blk: Block::of(vec![]),
            })],
            1,
            Some(Expr::local(LocalId::new(1))),
        );
        assert_eq!(fragment_effect(&f, 1), Effect::ReadsHidden);
    }

    #[test]
    fn trap_sources_hit_the_top() {
        // Division...
        let div = frag(
            vec![],
            2,
            Some(Expr::binary(
                BinOp::Div,
                Expr::local(LocalId::new(0)),
                Expr::local(LocalId::new(1)),
            )),
        );
        assert_eq!(fragment_effect(&div, 0), Effect::MayTrap);
        // ...and loops (step limit), even when otherwise hidden-writing.
        let looped = frag(
            vec![Stmt::new(StmtKind::While {
                cond: Expr::binary(BinOp::Lt, Expr::local(LocalId::new(0)), Expr::int(3)),
                body: Block::of(vec![assign(
                    0,
                    Expr::binary(BinOp::Add, Expr::local(LocalId::new(0)), Expr::int(1)),
                )]),
            })],
            0,
            None,
        );
        assert_eq!(fragment_effect(&looped, 1), Effect::MayTrap);
        // Out-of-range slots trap too.
        let oob = frag(vec![], 0, Some(Expr::local(LocalId::new(9))));
        assert_eq!(fragment_effect(&oob, 0), Effect::MayTrap);
    }

    #[test]
    fn interprocedural_effects_reach_fixpoint() {
        let p = hps_lang::parse(
            "global h: int; global open_g: int;
             fn pure_leaf(x: int) -> int { return x + 1; }
             fn reads() -> int { return h; }
             fn writes(x: int) { h = x; }
             fn caller(x: int) -> int { writes(x); return pure_leaf(x); }
             fn even(n: int) -> int { if (n == 0) { return 1; } return odd(n - 1); }
             fn odd(n: int) -> int { h = h + 1; if (n == 0) { return 0; } return even(n - 1); }
             fn main() { print(caller(1) + reads() + even(2)); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let mr = ModRef::compute(&p);
        let hidden: BTreeSet<GlobalId> = [p.global_by_name("h").unwrap()].into_iter().collect();
        let ea = EffectAnalysis::compute(&p, &cg, &mr, &hidden);

        let f = |n: &str| p.func_by_name(n).unwrap();
        assert_eq!(ea.effect(f("pure_leaf")), Effect::Pure);
        assert_eq!(ea.effect(f("reads")), Effect::ReadsHidden);
        assert_eq!(ea.effect(f("writes")), Effect::WritesHidden);
        // Transitive: caller inherits the write from `writes` (already at
        // the local level, since ModRef summaries are themselves transitive).
        assert_eq!(ea.effect(f("caller")), Effect::WritesHidden);
        assert_eq!(ea.local_effect(f("caller")), Effect::WritesHidden);
        // Mutual recursion converges; both sides see the write.
        assert_eq!(ea.effect(f("even")), Effect::WritesHidden);
        assert_eq!(ea.effect(f("odd")), Effect::WritesHidden);
        assert!(ea.is_fixpoint(&cg));
        assert!(ea.iterations() >= 1);
    }

    #[test]
    fn unhidden_globals_do_not_count() {
        let p = hps_lang::parse(
            "global open_g: int;
             fn touch(x: int) -> int { open_g = x; return open_g; }
             fn main() { print(touch(2)); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let mr = ModRef::compute(&p);
        let ea = EffectAnalysis::compute(&p, &cg, &mr, &BTreeSet::new());
        assert_eq!(ea.effect(p.func_by_name("touch").unwrap()), Effect::Pure);
    }

    #[test]
    fn loops_and_division_trap_at_function_level() {
        let p = hps_lang::parse(
            "fn looping(n: int) -> int {
                 var s: int = 0; var i: int = 0;
                 while (i < n) { s = s + i; i = i + 1; }
                 return s;
             }
             fn divides(a: int, b: int) -> int { return a / b; }
             fn main() { print(looping(3) + divides(4, 2)); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let mr = ModRef::compute(&p);
        let ea = EffectAnalysis::compute(&p, &cg, &mr, &BTreeSet::new());
        assert_eq!(
            ea.effect(p.func_by_name("looping").unwrap()),
            Effect::MayTrap
        );
        assert_eq!(
            ea.effect(p.func_by_name("divides").unwrap()),
            Effect::MayTrap
        );
        assert_eq!(ea.effect(p.func_by_name("main").unwrap()), Effect::MayTrap);
    }
}
