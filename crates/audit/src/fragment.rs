//! Hidden-dependence analysis of hidden-component fragments.
//!
//! For every [`Fragment`] the auditor needs two facts:
//!
//! * does the value it returns to the open side *depend on hidden state*
//!   (the persistent hidden slots)? Only such returns are information leak
//!   points — a fragment returning a pure function of its parameters leaks
//!   nothing the open side didn't already know;
//! * does the fragment *update* hidden state at all? One that neither
//!   updates nor reveals hidden slots is transferable: it could run in the
//!   open component with no security loss.
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
use hps_ir::{ComponentId, FragLabel, Fragment, Function, HiddenComponent, Stmt, StmtKind, Ty};
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

    FragmentFacts {
        component: component.id,
        label: fragment.label,
        ret_hidden,
        writes_hidden,
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
    use hps_ir::{Block, ComponentKind, Expr, HiddenVar, LocalId, Place};

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
}
