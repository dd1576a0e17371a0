//! The Fig. 3 estimation algorithm.
//!
//! Propagates arithmetic complexities along def-use edges of the *original*
//! function, given the slice plan that says which statements moved to the
//! hidden component:
//!
//! * a definition's complexity is `EVAL` of its right-hand side over the
//!   complexities of its operand uses;
//! * a use takes the propagated complexity `PC` of its reaching
//!   definitions: `Constant` if the defining value is observable and
//!   constant, `Linear` (one fresh input) if observable but varying, and the
//!   definition's own `AC` otherwise;
//! * `PC` is `RAISE`d when the def-use edge exits a loop nest, using the
//!   recognized trip-count expression `Iter(L)`;
//! * a hidden definition is *observable* anyway when it is **definitely
//!   leaked**: some open use of the variable is reached by that definition
//!   alone ("every time this use is executed … the value came from a
//!   specific hidden definition").

use crate::lattice::{Ac, AcType};
use hps_analysis::cfg::{NodeId, ENTRY};
use hps_analysis::{FuncAnalysis, TripCount, VarId};
use hps_ir::{Expr, Function, Place, Program, StmtId, StmtKind};
use hps_slicing::{Disposition, SlicePlan};
use std::collections::BTreeSet;

/// Per-function complexity estimator.
pub struct Estimator<'a> {
    func: &'a Function,
    plan: &'a SlicePlan,
    /// The analysis bundle for the original function.
    pub fa: &'a FuncAnalysis,
    def_ac: Vec<Ac>,
    observable: Vec<bool>,
    constant: Vec<bool>,
    leaked: Vec<bool>,
}

impl<'a> Estimator<'a> {
    /// Builds the estimator over `fa`, the analyses of one function of
    /// the original `program`, and runs the propagation to fixpoint.
    pub fn new(program: &'a Program, fa: &'a FuncAnalysis, plan: &'a SlicePlan) -> Estimator<'a> {
        let f = program.func(fa.func);
        let ndefs = fa.reaching.defs().len();
        let mut est = Estimator {
            func: f,
            plan,
            fa,
            def_ac: vec![Ac::constant(); ndefs],
            observable: vec![false; ndefs],
            constant: vec![false; ndefs],
            leaked: vec![false; ndefs],
        };
        est.classify_defs();
        est.find_definite_leaks();
        est.iterate();
        est
    }

    /// Is the statement executed by the hidden component?
    pub fn is_hidden_stmt(&self, stmt: StmtId) -> bool {
        self.plan.disposition(stmt) == Disposition::Hidden
    }

    fn def_rhs(&self, def_idx: usize) -> Option<&Expr> {
        let def = self.fa.reaching.defs()[def_idx];
        let stmt_id = self.fa.cfg.stmt_of(def.node)?;
        match &self.func.stmt(stmt_id)?.kind {
            StmtKind::Assign { place, value }
                if hps_analysis::VarId::of_root(place.root()) == def.var
                    && (place.is_whole_var() || matches!(place, Place::Field { .. })) =>
            {
                Some(value)
            }
            _ => None,
        }
    }

    fn classify_defs(&mut self) {
        for i in 0..self.fa.reaching.defs().len() {
            let def = self.fa.reaching.defs()[i];
            if def.node == ENTRY {
                // Parameters arrive openly (varying); locals/globals/fields
                // start at known constants.
                self.observable[i] = true;
                let is_param = matches!(def.var, VarId::Local(l) if self.func.is_param(l));
                self.constant[i] = !is_param;
                continue;
            }
            let stmt_id = self.fa.cfg.stmt_of(def.node).expect("non-entry def");
            self.observable[i] = !self.is_hidden_stmt(stmt_id);
            self.constant[i] = matches!(self.def_rhs(i), Some(Expr::Const(_)));
        }
    }

    fn find_definite_leaks(&mut self) {
        // A hidden def is definitely leaked if some open use of its
        // variable is reached by it alone.
        let defs = self.fa.reaching.defs().to_vec();
        for node in self.fa.cfg.node_ids() {
            let stmt_id = match self.fa.cfg.stmt_of(node) {
                Some(s) => s,
                None => continue,
            };
            if self.is_hidden_stmt(stmt_id) {
                continue;
            }
            let uses: Vec<VarId> = self.fa.reaching.effect(node).uses.clone();
            for var in uses {
                let reaching = self.fa.def_use.defs_for_use(node, var);
                if reaching.len() == 1 {
                    let d = reaching[0];
                    if !self.observable[d] && defs[d].node != ENTRY {
                        self.leaked[d] = true;
                        self.observable[d] = true;
                    }
                }
            }
        }
    }

    fn iterate(&mut self) {
        // The lattice has finite height; a generous iteration cap keeps the
        // analysis total even on adversarial inputs.
        let ndefs = self.fa.reaching.defs().len();
        for _round in 0..(2 * ndefs + 8) {
            let mut changed = false;
            for i in 0..ndefs {
                let def = self.fa.reaching.defs()[i];
                if def.node == ENTRY {
                    continue;
                }
                let new = match self.def_rhs(i) {
                    Some(rhs) => {
                        let rhs = rhs.clone();
                        self.eval_expr(&rhs, def.node)
                    }
                    // Weak definitions (array stores, call side effects):
                    // algebraically opaque.
                    None => Ac::arbitrary(),
                };
                if new != self.def_ac[i] {
                    self.def_ac[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// `EVAL`: arithmetic complexity of an expression evaluated at `node`.
    pub fn eval_expr(&self, e: &Expr, node: NodeId) -> Ac {
        match e {
            Expr::Const(_) => Ac::constant(),
            Expr::Local(l) => self.use_ac(node, VarId::Local(*l)),
            Expr::Global(g) => self.use_ac(node, VarId::Global(*g)),
            Expr::FieldGet { class, field, .. } => self.use_ac(node, VarId::Field(*class, *field)),
            Expr::Unary { op, arg } => Ac::eval_unop(*op, self.eval_expr(arg, node)),
            Expr::Binary { op, lhs, rhs } => {
                Ac::eval_binop(*op, self.eval_expr(lhs, node), self.eval_expr(rhs, node))
            }
            Expr::BuiltinCall { builtin, args } => Ac::eval_builtin(
                *builtin,
                args.iter().map(|a| self.eval_expr(a, node)).collect(),
            ),
            // Array loads, calls and allocations are outside the algebra.
            Expr::Index { .. } | Expr::Call { .. } | Expr::NewArray { .. } | Expr::NewObject(_) => {
                Ac::arbitrary()
            }
        }
    }

    /// `AC(u_v@node)`: the complexity of using `v` at `node` — the
    /// cross-path join of the propagated complexities of its reaching
    /// definitions.
    pub fn use_ac(&self, node: NodeId, var: VarId) -> Ac {
        let reaching = self.fa.def_use.defs_for_use(node, var);
        if reaching.is_empty() {
            // Not a tracked use at this node (e.g. evaluating a leaked
            // expression at its leak site after rewriting); fall back to
            // joining over definitions reaching the node at all.
            let ds = self.fa.reaching.reaching(node, var);
            if ds.is_empty() {
                return Ac::arbitrary();
            }
            return ds
                .iter()
                .map(|&d| self.pc(d, node, var))
                .reduce(|a, b| a.join(&b))
                .expect("non-empty");
        }
        reaching
            .iter()
            .map(|&d| self.pc(d, node, var))
            .reduce(|a, b| a.join(&b))
            .expect("non-empty")
    }

    /// `PC(d_v@n', u_v@n)` with `RAISE` over exited loops.
    fn pc(&self, def_idx: usize, use_node: NodeId, var: VarId) -> Ac {
        let def = self.fa.reaching.defs()[def_idx];
        let mut base = if self.observable[def_idx] && self.constant[def_idx] {
            Ac::constant()
        } else if self.observable[def_idx] {
            Ac::observable_input(var, def.node)
        } else {
            self.def_ac[def_idx].clone()
        };
        for l in self.exited_loops(def.node, use_node) {
            let iter = self.iter_ac(l);
            let body: BTreeSet<StmtId> = self
                .fa
                .loops
                .loop_at(l)
                .map(|m| m.body.iter().copied().collect())
                .unwrap_or_default();
            let in_loop = |n: NodeId| self.fa.cfg.stmt_of(n).is_some_and(|s| body.contains(&s));
            base = base.raise(&iter, &in_loop);
        }
        base
    }

    fn exited_loops(&self, def_node: NodeId, use_node: NodeId) -> Vec<StmtId> {
        let def_loops: Vec<StmtId> = match self.fa.cfg.stmt_of(def_node) {
            Some(s) => self.fa.structure.enclosing_loops(s),
            None => Vec::new(),
        };
        let use_loops: BTreeSet<StmtId> = match self.fa.cfg.stmt_of(use_node) {
            Some(s) => self.fa.structure.enclosing_loops(s).into_iter().collect(),
            None => BTreeSet::new(),
        };
        def_loops
            .into_iter()
            .filter(|l| !use_loops.contains(l))
            .collect()
    }

    /// `AC(Iter(L))`: complexity of the loop's iteration count.
    pub fn iter_ac(&self, loop_stmt: StmtId) -> Ac {
        let meta = match self.fa.loops.loop_at(loop_stmt) {
            Some(m) => m,
            None => return Ac::arbitrary(),
        };
        match &meta.trip {
            TripCount::Counted { init, bound, .. } => {
                let node = self.fa.cfg.node_of(loop_stmt);
                let bound_ac = self.eval_expr(bound, node);
                let init_ac = match init {
                    Some(e) => self.eval_expr(e, node),
                    // Unknown initializer: at least one fresh value.
                    None => Ac {
                        ty: AcType::Linear,
                        inputs: crate::lattice::Inputs::none(),
                        degree: 1,
                    },
                };
                bound_ac.join(&init_ac)
            }
            TripCount::Unknown => Ac::arbitrary(),
        }
    }

    /// The complexity the paper reports for an ILP leaking `expr` at
    /// original statement `stmt`: the definitely-leaked definition's own
    /// complexity when the leak is a single such variable, otherwise `EVAL`
    /// of the expression at the leak site.
    pub fn ilp_ac(&self, stmt: StmtId, expr: &Expr) -> Ac {
        let node = self.fa.cfg.node_of(stmt);
        let single_var = match expr {
            Expr::Local(l) => Some(VarId::Local(*l)),
            Expr::Global(g) => Some(VarId::Global(*g)),
            Expr::FieldGet { class, field, .. } => Some(VarId::Field(*class, *field)),
            _ => None,
        };
        if let Some(v) = single_var {
            let reaching = self.fa.def_use.defs_for_use(node, v);
            if reaching.len() == 1 {
                let d = reaching[0];
                let def = self.fa.reaching.defs()[d];
                if def.node != ENTRY && self.leaked[d] {
                    // LeakedDefn: report the hidden definition's own AC.
                    return self.def_ac[d].clone();
                }
                if def.node != ENTRY && !self.observable[d] {
                    return self.def_ac[d].clone();
                }
            }
        }
        self.eval_expr(expr, node)
    }

    /// The hidden statements (transitively) feeding the leaked value — the
    /// backward slice of the ILP restricted to the hidden component.
    pub fn feeding_hidden_stmts(&self, stmt: StmtId, expr: &Expr) -> BTreeSet<StmtId> {
        let mut out = BTreeSet::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut work: Vec<(NodeId, VarId)> = Vec::new();
        let node = self.fa.cfg.node_of(stmt);
        expr.walk(&mut |e| {
            let v = match e {
                Expr::Local(l) => Some(VarId::Local(*l)),
                Expr::Global(g) => Some(VarId::Global(*g)),
                Expr::FieldGet { class, field, .. } => Some(VarId::Field(*class, *field)),
                _ => None,
            };
            if let Some(v) = v {
                work.push((node, v));
            }
        });
        while let Some((n, v)) = work.pop() {
            let mut reaching = self.fa.def_use.defs_for_use(n, v).to_vec();
            if reaching.is_empty() {
                reaching = self.fa.reaching.reaching(n, v);
            }
            for d in reaching {
                if !visited.insert(d) {
                    continue;
                }
                let def = self.fa.reaching.defs()[d];
                if def.node == ENTRY {
                    continue;
                }
                let def_stmt = match self.fa.cfg.stmt_of(def.node) {
                    Some(s) => s,
                    None => continue,
                };
                if !self.is_hidden_stmt(def_stmt) {
                    continue;
                }
                out.insert(def_stmt);
                for u in &self.fa.reaching.effect(def.node).uses {
                    work.push((def.node, *u));
                }
            }
        }
        out
    }
}
