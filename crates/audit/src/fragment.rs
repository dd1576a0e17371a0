//! Hidden-dependence analysis of hidden-component fragments.
//!
//! For every [`Fragment`] the auditor needs three facts:
//!
//! * does the value it returns to the open side *depend on hidden state*
//!   (the persistent hidden slots)? Only such returns are information leak
//!   points — a fragment returning a pure function of its parameters leaks
//!   nothing the open side didn't already know;
//! * does the fragment *update* hidden state at all? One that neither
//!   updates nor reveals hidden slots is transferable: it could run in the
//!   open component with no security loss;
//! * can the fragment *trap*? Division, loops (the secure device's step
//!   limit) and anything illegal in a fragment make its outcome depend on
//!   runtime limits, not on its arguments alone.
//!
//! Dependence is computed with the same taint engine the open-side flow
//! analysis uses ([`hps_analysis::taint`]): the fragment body is wrapped
//! into a synthetic [`Function`] (hidden slots then parameters, matching
//! the fragment frame numbering), every hidden slot is seeded with one
//! taint label, and the fragment's return expression is checked against the
//! propagated state — so implicit flows (a return value assigned under a
//! branch on a hidden slot) are caught too.

use hps_analysis::taint::{TaintAnalysis, TaintModel};
use hps_analysis::{BitSet, Cfg, ControlDeps, DomTree, VarId};
use hps_ir::{
    BinOp, Block, Builtin, ComponentId, Expr, FragLabel, Fragment, Function, HiddenComponent,
    Place, Stmt, StmtKind, Ty,
};
use std::collections::HashMap;

/// What the auditor knows about one fragment.
#[derive(Clone, PartialEq, Debug)]
pub struct FragmentFacts {
    /// The owning component.
    pub component: ComponentId,
    /// The fragment label.
    pub label: FragLabel,
    /// The returned value depends (explicitly or implicitly) on a hidden
    /// slot. `false` for fragments returning `any` (no return expression).
    pub ret_hidden: bool,
    /// The body assigns at least one hidden slot.
    pub writes_hidden: bool,
    /// Executing the fragment may trap: `/` or `%`, a `while` loop, `len`,
    /// a slot outside the frame, or a statement or expression that is
    /// illegal in a fragment.
    pub may_trap: bool,
}

/// Hidden-dependence facts for every fragment of every component, keyed by
/// `(component, label)`.
pub fn analyze_fragments(
    components: &[HiddenComponent],
) -> HashMap<(ComponentId, FragLabel), FragmentFacts> {
    let mut facts = HashMap::new();
    for component in components {
        for fragment in &component.fragments {
            facts.insert(
                (component.id, fragment.label),
                fragment_facts(component, fragment),
            );
        }
    }
    facts
}

/// Taints hidden slots `0..n_hidden` with label 0.
struct HiddenSlots {
    n_hidden: usize,
}

impl TaintModel for HiddenSlots {
    fn labels(&self) -> usize {
        1
    }
    fn ambient(&self, v: VarId, out: &mut BitSet) {
        if let VarId::Local(l) = v {
            if l.index() < self.n_hidden {
                out.insert(0);
            }
        }
    }
}

fn fragment_facts(component: &HiddenComponent, fragment: &Fragment) -> FragmentFacts {
    let func = synthesize(component, fragment);
    let n_hidden = component.vars.len();

    let mut writes_hidden = false;
    hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
        if let StmtKind::Assign { place, .. } = &stmt.kind {
            if let hps_ir::PlaceRoot::Local(l) = place.root() {
                if l.index() < n_hidden {
                    writes_hidden = true;
                }
            }
        }
    });

    let ret_hidden = match &fragment.ret {
        None => false,
        Some(_) => {
            let cfg = Cfg::build(&func);
            let postdom = DomTree::postdominators(&cfg);
            let control = ControlDeps::compute(&cfg, &postdom);
            let model = HiddenSlots { n_hidden };
            let ta = TaintAnalysis::compute(&func, &cfg, &control, &model);
            ta.ret_taint.contains(0)
        }
    };

    let n_slots = n_hidden + fragment.params.len();
    let may_trap = block_may_trap(&fragment.body, n_slots)
        || fragment
            .ret
            .as_ref()
            .is_some_and(|ret| expr_may_trap(ret, n_slots));

    FragmentFacts {
        component: component.id,
        label: fragment.label,
        ret_hidden,
        writes_hidden,
        may_trap,
    }
}

/// Syntactic trap scan of a fragment body whose frame has `n_slots` slots.
/// Only scalar assignments to in-frame slots, `if`, `break`, `continue`
/// and `nop` are trap-free statements; a `while` can always exhaust the
/// step limit.
fn block_may_trap(block: &Block, n_slots: usize) -> bool {
    block.stmts.iter().any(|stmt| match &stmt.kind {
        StmtKind::Assign {
            place: Place::Local(slot),
            value,
        } => slot.index() >= n_slots || expr_may_trap(value, n_slots),
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            expr_may_trap(cond, n_slots)
                || block_may_trap(then_blk, n_slots)
                || block_may_trap(else_blk, n_slots)
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Nop => false,
        _ => true,
    })
}

/// Expression half of [`block_may_trap`]: constants, in-frame slots and
/// unary, binary and builtin operations over them are the only legal
/// fragment expressions; of those, `/`, `%` and `len` may trap.
fn expr_may_trap(e: &Expr, n_slots: usize) -> bool {
    match e {
        Expr::Const(_) => false,
        Expr::Local(slot) => slot.index() >= n_slots,
        Expr::Unary { arg, .. } => expr_may_trap(arg, n_slots),
        Expr::Binary { op, lhs, rhs } => {
            matches!(op, BinOp::Div | BinOp::Rem)
                || expr_may_trap(lhs, n_slots)
                || expr_may_trap(rhs, n_slots)
        }
        Expr::BuiltinCall { builtin, args } => {
            *builtin == Builtin::Len || args.iter().any(|a| expr_may_trap(a, n_slots))
        }
        _ => true,
    }
}

/// Wraps a fragment into a standalone [`Function`] so the CFG-based
/// analyses apply. Locals `0..vars.len()` are the hidden slots and the rest
/// the parameters — exactly the fragment frame numbering, so the body can
/// be reused untouched. The fragment's return expression becomes a trailing
/// `return` statement.
fn synthesize(component: &HiddenComponent, fragment: &Fragment) -> Function {
    let mut func = Function::new(
        format!("{}::{}", component.id, fragment.label),
        fragment
            .ret
            .as_ref()
            .map_or(Ty::Int, |_| ret_ty_guess(component, fragment)),
    );
    for var in &component.vars {
        func.add_local(&var.name, var.ty.clone());
    }
    for (name, ty) in &fragment.params {
        func.add_local(name, ty.clone());
    }
    func.body = fragment.body.clone();
    if let Some(ret) = &fragment.ret {
        func.body
            .stmts
            .push(Stmt::new(StmtKind::Return(Some(ret.clone()))));
    }
    func.renumber();
    func
}

/// Best-effort return type for the synthetic function: the type of the
/// returned slot/parameter when the expression is a plain local, `Int`
/// otherwise (the taint engine never consults it).
fn ret_ty_guess(component: &HiddenComponent, fragment: &Fragment) -> Ty {
    if let Some(hps_ir::Expr::Local(l)) = &fragment.ret {
        let i = l.index();
        if i < component.vars.len() {
            return component.vars[i].ty.clone();
        }
        if let Some((_, ty)) = fragment.params.get(i - component.vars.len()) {
            return ty.clone();
        }
    }
    Ty::Int
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{ComponentKind, GlobalId, HiddenVar, LocalId};

    fn component(fragments: Vec<Fragment>) -> HiddenComponent {
        HiddenComponent {
            id: ComponentId::new(0),
            kind: ComponentKind::Function {
                func_name: "f".into(),
            },
            vars: vec![HiddenVar {
                name: "a".into(),
                ty: Ty::Int,
                init: None,
            }],
            fragments,
        }
    }

    #[test]
    fn return_of_hidden_slot_is_hidden_dependent() {
        // L0() { } returns slot 0 (hidden var a).
        let c = component(vec![Fragment {
            label: FragLabel::new(0),
            params: vec![],
            body: Block::new(),
            ret: Some(Expr::local(LocalId::new(0))),
        }]);
        let facts = analyze_fragments(std::slice::from_ref(&c));
        let f = &facts[&(c.id, FragLabel::new(0))];
        assert!(f.ret_hidden);
        assert!(!f.writes_hidden);
    }

    #[test]
    fn pure_parameter_echo_is_not_hidden_dependent() {
        // L0(p0) { } returns p0 (slot 1 = first parameter).
        let c = component(vec![Fragment {
            label: FragLabel::new(0),
            params: vec![("p0".into(), Ty::Int)],
            body: Block::new(),
            ret: Some(Expr::local(LocalId::new(1))),
        }]);
        let facts = analyze_fragments(std::slice::from_ref(&c));
        let f = &facts[&(c.id, FragLabel::new(0))];
        assert!(!f.ret_hidden);
        assert!(!f.writes_hidden);
    }

    #[test]
    fn hidden_write_detected_and_any_return_is_clean() {
        // L0(p0) { a = p0; } returns any.
        let c = component(vec![Fragment {
            label: FragLabel::new(0),
            params: vec![("p0".into(), Ty::Int)],
            body: Block::of(vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(0)),
                value: Expr::local(LocalId::new(1)),
            })]),
            ret: None,
        }]);
        let facts = analyze_fragments(std::slice::from_ref(&c));
        let f = &facts[&(c.id, FragLabel::new(0))];
        assert!(!f.ret_hidden);
        assert!(f.writes_hidden);
    }

    #[test]
    fn implicit_flow_into_returned_param_is_caught() {
        // L0(p0) { if (a > 0) { p0 = 1; } } returns p0 — the returned value
        // reveals the sign of hidden a even though a is never copied.
        let c = component(vec![Fragment {
            label: FragLabel::new(0),
            params: vec![("p0".into(), Ty::Int)],
            body: Block::of(vec![Stmt::new(StmtKind::If {
                cond: Expr::Binary {
                    op: hps_ir::BinOp::Gt,
                    lhs: Box::new(Expr::local(LocalId::new(0))),
                    rhs: Box::new(Expr::Const(hps_ir::Value::Int(0))),
                },
                then_blk: Block::of(vec![Stmt::new(StmtKind::Assign {
                    place: Place::Local(LocalId::new(1)),
                    value: Expr::Const(hps_ir::Value::Int(1)),
                })]),
                else_blk: Block::new(),
            })]),
            ret: Some(Expr::local(LocalId::new(1))),
        }]);
        let facts = analyze_fragments(std::slice::from_ref(&c));
        assert!(facts[&(c.id, FragLabel::new(0))].ret_hidden);
    }

    fn assign(slot: usize, value: Expr) -> Stmt {
        Stmt::new(StmtKind::Assign {
            place: Place::Local(LocalId::new(slot)),
            value,
        })
    }

    fn slot(i: usize) -> Expr {
        Expr::local(LocalId::new(i))
    }

    /// `may_trap` of one fragment of the one-hidden-slot test component:
    /// slot 0 is hidden `a`, slots `1..=params` the parameters.
    fn may_trap(params: usize, body: Vec<Stmt>, ret: Option<Expr>) -> bool {
        let c = component(vec![Fragment {
            label: FragLabel::new(0),
            params: (0..params).map(|i| (format!("p{i}"), Ty::Int)).collect(),
            body: Block::of(body),
            ret,
        }]);
        analyze_fragments(std::slice::from_ref(&c))[&(c.id, FragLabel::new(0))].may_trap
    }

    #[test]
    fn trap_sources_set_may_trap() {
        // Division and remainder, in the return or in an assignment.
        let div = Expr::binary(hps_ir::BinOp::Div, slot(1), slot(2));
        assert!(may_trap(2, vec![], Some(div)));
        let rem = Expr::binary(hps_ir::BinOp::Rem, slot(0), slot(1));
        assert!(may_trap(1, vec![assign(0, rem)], None));
        // A loop can exhaust the step limit, even when it only updates
        // hidden state.
        let looped = Stmt::new(StmtKind::While {
            cond: Expr::binary(hps_ir::BinOp::Lt, slot(0), Expr::int(3)),
            body: Block::of(vec![assign(
                0,
                Expr::binary(hps_ir::BinOp::Add, slot(0), Expr::int(1)),
            )]),
        });
        assert!(may_trap(0, vec![looped], None));
        // `len` is illegal in a fragment.
        let len = Expr::BuiltinCall {
            builtin: Builtin::Len,
            args: vec![slot(1)],
        };
        assert!(may_trap(1, vec![], Some(len)));
        // Slots outside the frame (one hidden slot + one parameter), read
        // or written.
        assert!(may_trap(1, vec![], Some(slot(2))));
        assert!(may_trap(1, vec![assign(2, Expr::int(0))], None));
        // Non-local stores, non-scalar expressions and statements other
        // than assignment and structured control flow.
        let global_store = Stmt::new(StmtKind::Assign {
            place: Place::Global(GlobalId::new(0)),
            value: slot(1),
        });
        assert!(may_trap(1, vec![global_store], None));
        assert!(may_trap(0, vec![], Some(Expr::Global(GlobalId::new(0)))));
        assert!(may_trap(0, vec![Stmt::new(StmtKind::Print(slot(0)))], None));
        // A trap source in a branch condition or in either arm still counts.
        let branch = |cond: Expr, then_blk: Vec<Stmt>, else_blk: Vec<Stmt>| {
            Stmt::new(StmtKind::If {
                cond,
                then_blk: Block::of(then_blk),
                else_blk: Block::of(else_blk),
            })
        };
        let div = || Expr::binary(hps_ir::BinOp::Div, slot(0), slot(1));
        let yes = || Expr::Const(hps_ir::Value::Bool(true));
        assert!(may_trap(1, vec![branch(div(), vec![], vec![])], None));
        assert!(may_trap(
            1,
            vec![branch(yes(), vec![assign(1, div())], vec![])],
            None
        ));
        assert!(may_trap(
            1,
            vec![branch(yes(), vec![], vec![assign(1, div())])],
            None
        ));
    }

    #[test]
    fn branching_hidden_update_does_not_trap() {
        // L0(p0, p1) { if (a < p0) { a = a + p1; } else { p1 = -a; } }
        // returns abs(p1) * 2: parameters, a branch, hidden reads and
        // writes, a builtin — and nothing that can trap.
        let body = vec![Stmt::new(StmtKind::If {
            cond: Expr::binary(hps_ir::BinOp::Lt, slot(0), slot(1)),
            then_blk: Block::of(vec![assign(
                0,
                Expr::binary(hps_ir::BinOp::Add, slot(0), slot(2)),
            )]),
            else_blk: Block::of(vec![
                assign(
                    2,
                    Expr::Unary {
                        op: hps_ir::UnOp::Neg,
                        arg: Box::new(slot(0)),
                    },
                ),
                Stmt::new(StmtKind::Nop),
            ]),
        })];
        let ret = Expr::binary(
            hps_ir::BinOp::Mul,
            Expr::BuiltinCall {
                builtin: Builtin::Abs,
                args: vec![slot(2)],
            },
            Expr::int(2),
        );
        assert!(!may_trap(2, body, Some(ret)));
    }
}
