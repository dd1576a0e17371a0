//! Interprocedural global mod/ref summaries.
//!
//! For each function, the set of globals it (transitively) may write and may
//! read, and the fields it may write. Computed as a union-over-callees
//! fixpoint on the call graph, so recursion converges naturally.

use crate::VarId;
use hps_ir::{ClassId, Expr, FieldId, FuncId, GlobalId, Place, PlaceRoot, Program, StmtKind};
use std::collections::BTreeSet;

/// Global mod/ref summary for every function in a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModRef {
    mods: Vec<BTreeSet<GlobalId>>,
    refs: Vec<BTreeSet<GlobalId>>,
    field_mods: Vec<BTreeSet<(ClassId, FieldId)>>,
}

impl ModRef {
    /// Computes mod/ref sets for every function.
    pub fn compute(program: &Program) -> ModRef {
        let n = program.functions.len();
        let mut mods: Vec<BTreeSet<GlobalId>> = vec![BTreeSet::new(); n];
        let mut refs: Vec<BTreeSet<GlobalId>> = vec![BTreeSet::new(); n];
        let mut field_mods: Vec<BTreeSet<(ClassId, FieldId)>> = vec![BTreeSet::new(); n];
        let mut calls: Vec<BTreeSet<FuncId>> = vec![BTreeSet::new(); n];

        for (fid, func) in program.iter_funcs() {
            let i = fid.index();
            hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
                // Direct global and field writes.
                if let StmtKind::Assign { place, .. }
                | StmtKind::HiddenCall {
                    result: Some(place),
                    ..
                } = &stmt.kind
                {
                    note_place_mods(place, &mut mods[i], &mut field_mods[i]);
                }
                // Direct global reads and call edges.
                hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| match e {
                    Expr::Global(g) => {
                        refs[i].insert(*g);
                    }
                    Expr::Call { callee, .. } => {
                        calls[i].insert(callee.func());
                    }
                    _ => {}
                });
            });
        }

        // Fixpoint: fold callee sets into callers.
        let mut changed = true;
        while changed {
            changed = false;
            for (caller, callees) in calls.iter().enumerate() {
                for callee in callees {
                    changed |= fold_into(&mut mods, callee.index(), caller);
                    changed |= fold_into(&mut refs, callee.index(), caller);
                    changed |= fold_into(&mut field_mods, callee.index(), caller);
                }
            }
        }
        ModRef {
            mods,
            refs,
            field_mods,
        }
    }

    /// Globals the function may (transitively) write. Borrowed: callers
    /// like the effects fixpoint query this in a hot loop.
    pub fn mods(&self, func: FuncId) -> &BTreeSet<GlobalId> {
        &self.mods[func.index()]
    }

    /// Globals the function may (transitively) read. Borrowed, like
    /// [`ModRef::mods`].
    pub fn refs(&self, func: FuncId) -> &BTreeSet<GlobalId> {
        &self.refs[func.index()]
    }

    /// True when a call of `func` may (transitively) write `var`: a global
    /// in [`ModRef::mods`], or a field of any instance. Calls never write
    /// the caller's locals.
    pub fn may_write(&self, func: FuncId, var: VarId) -> bool {
        match var {
            VarId::Local(_) => false,
            VarId::Global(g) => self.mods[func.index()].contains(&g),
            VarId::Field(c, f) => self.field_mods[func.index()].contains(&(c, f)),
        }
    }
}

fn note_place_mods(
    place: &Place,
    mods: &mut BTreeSet<GlobalId>,
    field_mods: &mut BTreeSet<(ClassId, FieldId)>,
) {
    match place.root() {
        PlaceRoot::Global(g) => {
            mods.insert(g);
        }
        PlaceRoot::FieldOf(_, c, f) => {
            field_mods.insert((c, f));
        }
        PlaceRoot::Local(_) => {}
    }
}

/// Adds `sets[from]` to `sets[into]`; true when that grew it.
fn fold_into<T: Ord + Copy>(sets: &mut [BTreeSet<T>], from: usize, into: usize) -> bool {
    if from == into {
        return false;
    }
    let extra: Vec<T> = sets[from].difference(&sets[into]).copied().collect();
    sets[into].extend(&extra);
    !extra.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_and_transitive_mods() {
        let p = hps_lang::parse(
            "global a: int; global b: int;
             fn setter() { a = 1; }
             fn reader() -> int { return b; }
             fn outer() { setter(); print(reader()); }",
        )
        .unwrap();
        let mr = ModRef::compute(&p);
        let setter = p.func_by_name("setter").unwrap();
        let reader = p.func_by_name("reader").unwrap();
        let outer = p.func_by_name("outer").unwrap();
        let a = p.global_by_name("a").unwrap();
        let b = p.global_by_name("b").unwrap();
        assert_eq!(*mr.mods(setter), BTreeSet::from([a]));
        assert!(mr.refs(setter).is_empty());
        assert_eq!(*mr.refs(reader), BTreeSet::from([b]));
        assert_eq!(*mr.mods(outer), BTreeSet::from([a]));
        assert_eq!(*mr.refs(outer), BTreeSet::from([b]));
    }

    #[test]
    fn recursion_converges() {
        let p = hps_lang::parse(
            "global g: int;
             fn even(n: int) -> int { if (n == 0) { return 1; } return odd(n - 1); }
             fn odd(n: int) -> int { g = g + 1; if (n == 0) { return 0; } return even(n - 1); }",
        )
        .unwrap();
        let mr = ModRef::compute(&p);
        let even = p.func_by_name("even").unwrap();
        let g = p.global_by_name("g").unwrap();
        assert_eq!(*mr.mods(even), BTreeSet::from([g]));
        assert_eq!(*mr.refs(even), BTreeSet::from([g]));
    }

    #[test]
    fn array_global_writes_count_as_mods() {
        let p = hps_lang::parse(
            "global buf: int[] = new int[4];
             fn w(i: int) { buf[i] = 1; }",
        )
        .unwrap();
        let mr = ModRef::compute(&p);
        let w = p.func_by_name("w").unwrap();
        assert_eq!(mr.mods(w).len(), 1);
    }

    #[test]
    fn field_writes_reach_callers() {
        let p = hps_lang::parse(
            "class C { v: int; w: int;
                 fn inc() { self.v = self.v + 1; }
                 fn both() -> int { self.inc(); return self.w; } }
             fn outer(c: C) { print(c.both()); }",
        )
        .unwrap();
        let mr = ModRef::compute(&p);
        let c = p.class_by_name("C").unwrap();
        let [v, w] = [0, 1].map(|f| VarId::Field(c, FieldId::new(f)));
        let outer = p.func_by_name("outer").unwrap();
        assert!(mr.may_write(outer, v));
        assert!(!mr.may_write(outer, w));
        assert!(!mr.may_write(outer, VarId::Local(hps_ir::LocalId::new(0))));
    }
}
