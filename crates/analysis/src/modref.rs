//! Interprocedural global mod/ref summaries.
//!
//! For each function, the set of globals it (transitively) may write and may
//! read. Computed as a union-over-callees fixpoint on the call graph, so
//! recursion converges naturally.

use hps_ir::{Expr, FuncId, GlobalId, Place, Program, StmtKind};
use std::collections::BTreeSet;

/// Global mod/ref summary for every function in a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModRef {
    mods: Vec<BTreeSet<GlobalId>>,
    refs: Vec<BTreeSet<GlobalId>>,
}

impl ModRef {
    /// Computes mod/ref sets for every function.
    pub fn compute(program: &Program) -> ModRef {
        let n = program.functions.len();
        let mut mods: Vec<BTreeSet<GlobalId>> = vec![BTreeSet::new(); n];
        let mut refs: Vec<BTreeSet<GlobalId>> = vec![BTreeSet::new(); n];
        let mut calls: Vec<BTreeSet<FuncId>> = vec![BTreeSet::new(); n];

        for (fid, func) in program.iter_funcs() {
            let i = fid.index();
            hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
                // Direct global writes.
                if let StmtKind::Assign { place, .. } = &stmt.kind {
                    note_place_mods(place, &mut mods[i]);
                }
                if let StmtKind::HiddenCall {
                    result: Some(place),
                    ..
                } = &stmt.kind
                {
                    note_place_mods(place, &mut mods[i]);
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
            for caller in 0..n {
                let callees: Vec<FuncId> = calls[caller].iter().copied().collect();
                for callee in callees {
                    let (extra_mods, extra_refs) = {
                        let cm = &mods[callee.index()];
                        let cr = &refs[callee.index()];
                        (
                            cm.difference(&mods[caller]).copied().collect::<Vec<_>>(),
                            cr.difference(&refs[caller]).copied().collect::<Vec<_>>(),
                        )
                    };
                    if !extra_mods.is_empty() {
                        mods[caller].extend(extra_mods);
                        changed = true;
                    }
                    if !extra_refs.is_empty() {
                        refs[caller].extend(extra_refs);
                        changed = true;
                    }
                }
            }
        }
        ModRef { mods, refs }
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
}

fn note_place_mods(place: &Place, mods: &mut BTreeSet<GlobalId>) {
    if let hps_ir::PlaceRoot::Global(g) = place.root() {
        mods.insert(g);
    }
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
}
