//! Reaching definitions and def-use chains.
//!
//! Definitions include one synthetic *entry definition* per variable (the
//! parameter value, the global's initial value, a local's default value), so
//! every use has at least one reaching definition. Strong definitions
//! (whole-variable assignments) kill; weak definitions (array-element and
//! field stores, call side effects) do not.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId, ENTRY};
use crate::modref::ModRef;
use crate::vars::{stmt_effect, StmtEffect, VarId};
use hps_ir::{FuncId, Function, StmtId};
use std::collections::HashMap;

/// Index of a definition in [`ReachingDefs::defs`].
pub type DefId = usize;

/// One definition site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DefSite {
    /// The CFG node of the defining statement ([`ENTRY`] for synthetic
    /// entry definitions).
    pub node: NodeId,
    /// The variable defined.
    pub var: VarId,
    /// Whether the definition overwrites the whole variable.
    pub strong: bool,
}

/// Reaching-definition sets for one function.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    defs: Vec<DefSite>,
    in_sets: Vec<BitSet>,
    effects: Vec<StmtEffect>,
    defs_at: Vec<Vec<DefId>>,
}

impl ReachingDefs {
    /// Solves the reaching-definitions problem for `f`.
    ///
    /// Call effects on globals come from `modref`, the interprocedural
    /// summary of the program `f` belongs to. It is an input, not
    /// recomputed here, so a caller analyzing many functions of one
    /// program computes it once.
    pub fn compute(f: &Function, cfg: &Cfg, modref: &ModRef) -> ReachingDefs {
        let mut call_eff = |callee: FuncId| -> (Vec<VarId>, Vec<VarId>) {
            (
                modref
                    .mods(callee)
                    .iter()
                    .map(|&g| VarId::Global(g))
                    .collect(),
                modref
                    .refs(callee)
                    .iter()
                    .map(|&g| VarId::Global(g))
                    .collect(),
            )
        };

        // Per-node def/use effects.
        let mut effects: Vec<StmtEffect> = vec![StmtEffect::default(); cfg.len()];
        for node in cfg.node_ids() {
            if let Some(stmt_id) = cfg.stmt_of(node) {
                let stmt = f.stmt(stmt_id).expect("cfg statement exists");
                effects[node] = stmt_effect(f, stmt, &mut call_eff);
            }
        }

        // Collect variables and definitions. Every variable mentioned
        // anywhere gets a synthetic entry definition.
        let mut vars: Vec<VarId> = Vec::new();
        let mut seen = HashMap::new();
        let note = |v: VarId, vars: &mut Vec<VarId>, seen: &mut HashMap<VarId, ()>| {
            if seen.insert(v, ()).is_none() {
                vars.push(v);
            }
        };
        for (i, _) in f.locals.iter().enumerate() {
            note(VarId::Local(hps_ir::LocalId::new(i)), &mut vars, &mut seen);
        }
        for eff in &effects {
            for (v, _) in &eff.defs {
                note(*v, &mut vars, &mut seen);
            }
            for v in &eff.uses {
                note(*v, &mut vars, &mut seen);
            }
        }

        let mut defs: Vec<DefSite> = Vec::new();
        let mut defs_at: Vec<Vec<DefId>> = vec![Vec::new(); cfg.len()];
        for &v in &vars {
            defs_at[ENTRY].push(defs.len());
            defs.push(DefSite {
                node: ENTRY,
                var: v,
                strong: true,
            });
        }
        for node in cfg.node_ids() {
            for &(v, strong) in &effects[node].defs {
                defs_at[node].push(defs.len());
                defs.push(DefSite {
                    node,
                    var: v,
                    strong,
                });
            }
        }

        // defs-per-var index for kill sets.
        let mut by_var: HashMap<VarId, Vec<DefId>> = HashMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_var.entry(d.var).or_default().push(i);
        }

        let ndefs = defs.len();
        let mut gen_sets: Vec<BitSet> = Vec::with_capacity(cfg.len());
        let mut kill_sets: Vec<BitSet> = Vec::with_capacity(cfg.len());
        for node in cfg.node_ids() {
            let mut gen = BitSet::new(ndefs);
            let mut kill = BitSet::new(ndefs);
            for &d in &defs_at[node] {
                gen.insert(d);
                if defs[d].strong {
                    for &other in &by_var[&defs[d].var] {
                        if other != d {
                            kill.insert(other);
                        }
                    }
                }
            }
            gen_sets.push(gen);
            kill_sets.push(kill);
        }

        // Worklist solve: IN[n] = ∪ OUT[p]; OUT[n] = gen ∪ (IN − kill).
        let mut in_sets: Vec<BitSet> = (0..cfg.len()).map(|_| BitSet::new(ndefs)).collect();
        let mut out_sets: Vec<BitSet> = gen_sets.clone();
        let order = cfg.reverse_postorder();
        let mut changed = true;
        while changed {
            changed = false;
            for &node in &order {
                let mut input = BitSet::new(ndefs);
                for &p in cfg.preds(node) {
                    input.union_with(&out_sets[p]);
                }
                if input != in_sets[node] {
                    in_sets[node] = input.clone();
                }
                input.subtract(&kill_sets[node]);
                input.union_with(&gen_sets[node]);
                if input != out_sets[node] {
                    out_sets[node] = input;
                    changed = true;
                }
            }
        }

        ReachingDefs {
            defs,
            in_sets,
            effects,
            defs_at,
        }
    }

    /// All definition sites (entry definitions first).
    pub fn defs(&self) -> &[DefSite] {
        &self.defs
    }

    /// The definitions made by a node.
    pub fn defs_at(&self, node: NodeId) -> &[DefId] {
        &self.defs_at[node]
    }

    /// The def/use effect of a node.
    pub fn effect(&self, node: NodeId) -> &StmtEffect {
        &self.effects[node]
    }

    /// Definitions of `var` reaching the entry of `node`.
    pub fn reaching(&self, node: NodeId, var: VarId) -> Vec<DefId> {
        self.in_sets[node]
            .iter()
            .filter(|&d| self.defs[d].var == var)
            .collect()
    }
}

/// Def-use chains derived from [`ReachingDefs`].
#[derive(Clone, Debug)]
pub struct DefUse {
    def_to_uses: Vec<Vec<NodeId>>,
    use_to_defs: HashMap<(NodeId, VarId), Vec<DefId>>,
}

impl DefUse {
    /// Builds def-use chains: for every node and every variable it uses,
    /// link each reaching definition of that variable to the use.
    pub fn compute(cfg: &Cfg, reaching: &ReachingDefs) -> DefUse {
        let mut def_to_uses = vec![Vec::new(); reaching.defs().len()];
        let mut use_to_defs = HashMap::new();
        for node in cfg.node_ids() {
            let uses = reaching.effect(node).uses.clone();
            for var in uses {
                let ds = reaching.reaching(node, var);
                for &d in &ds {
                    def_to_uses[d].push(node);
                }
                use_to_defs.insert((node, var), ds);
            }
        }
        DefUse {
            def_to_uses,
            use_to_defs,
        }
    }

    /// The nodes using the value produced by `def`.
    pub fn uses_of(&self, def: DefId) -> &[NodeId] {
        &self.def_to_uses[def]
    }

    /// The definitions of `var` reaching its use at `node` (empty if the
    /// node does not use `var`).
    pub fn defs_for_use(&self, node: NodeId, var: VarId) -> &[DefId] {
        self.use_to_defs
            .get(&(node, var))
            .map_or(&[], Vec::as_slice)
    }

    /// Iterator over all def→use edges.
    pub fn edges(&self) -> impl Iterator<Item = (DefId, NodeId)> + '_ {
        self.def_to_uses
            .iter()
            .enumerate()
            .flat_map(|(d, uses)| uses.iter().map(move |&u| (d, u)))
    }
}

/// A statement-level data-dependence view: which statements' definitions
/// feed which statements' uses. Entry definitions appear as `None` sources.
#[derive(Clone, Debug)]
pub struct DataDeps {
    /// `(def_stmt, var, use_stmt)` triples; `def_stmt` is `None` for entry
    /// definitions (parameters, initial values).
    pub edges: Vec<(Option<StmtId>, VarId, StmtId)>,
}

impl DataDeps {
    /// Derives statement-level data dependences.
    pub fn compute(cfg: &Cfg, reaching: &ReachingDefs, def_use: &DefUse) -> DataDeps {
        let mut edges = Vec::new();
        for (d, use_node) in def_use.edges() {
            let def = reaching.defs()[d];
            let use_stmt = match cfg.stmt_of(use_node) {
                Some(s) => s,
                None => continue,
            };
            let def_stmt = cfg.stmt_of(def.node);
            edges.push((def_stmt, def.var, use_stmt));
        }
        DataDeps { edges }
    }

    /// Statements whose uses are fed by a definition at `stmt`.
    pub fn dependents_of(&self, stmt: StmtId) -> Vec<StmtId> {
        let mut out: Vec<StmtId> = self
            .edges
            .iter()
            .filter(|(d, _, _)| *d == Some(stmt))
            .map(|&(_, _, u)| u)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::LocalId;

    fn setup(src: &str) -> (hps_ir::Program, Cfg, ReachingDefs, DefUse) {
        let p = hps_lang::parse(src).expect("parses");
        let cfg = Cfg::build(p.func(FuncId::new(0)));
        let rd = ReachingDefs::compute(p.func(FuncId::new(0)), &cfg, &ModRef::compute(&p));
        let du = DefUse::compute(&cfg, &rd);
        (p, cfg, rd, du)
    }

    #[test]
    fn linear_def_use() {
        let (_, cfg, rd, du) = setup("fn f() { var x: int = 1; var y: int = x + 1; }");
        let def_node = cfg.node_of(StmtId::new(0));
        let use_node = cfg.node_of(StmtId::new(1));
        let x = VarId::Local(LocalId::new(0));
        let ds = du.defs_for_use(use_node, x);
        assert_eq!(ds.len(), 1);
        assert_eq!(rd.defs()[ds[0]].node, def_node);
        assert_eq!(du.uses_of(ds[0]), &[use_node]);
    }

    #[test]
    fn strong_defs_kill() {
        let (_, cfg, rd, du) = setup("fn f() { var x: int = 1; x = 2; print(x); }");
        let second = cfg.node_of(StmtId::new(1));
        let use_node = cfg.node_of(StmtId::new(2));
        let x = VarId::Local(LocalId::new(0));
        let ds = du.defs_for_use(use_node, x);
        assert_eq!(ds.len(), 1, "first def must be killed");
        assert_eq!(rd.defs()[ds[0]].node, second);
    }

    #[test]
    fn loop_carried_defs_merge() {
        let (_, cfg, rd, du) = setup(
            "fn f(n: int) { var s: int = 0; var i: int = 0;
              while (i < n) { s = s + i; i = i + 1; } print(s); }",
        );
        // `s + i` inside the loop sees both the init def and its own def.
        let body_add = cfg.node_of(StmtId::new(3));
        let s = VarId::Local(LocalId::new(1));
        let ds = du.defs_for_use(body_add, s);
        assert_eq!(ds.len(), 2);
        // print(s) also sees both (loop may run zero times).
        let pr = cfg.node_of(StmtId::new(5));
        assert_eq!(du.defs_for_use(pr, s).len(), 2);
        let _ = rd;
    }

    #[test]
    fn weak_array_defs_accumulate() {
        let (_, cfg, rd, _) = setup("fn f(a: int[]) { a[0] = 1; a[1] = 2; print(a[0]); }");
        let use_node = cfg.node_of(StmtId::new(2));
        let a = VarId::Local(LocalId::new(0));
        // Entry def + both weak stores all reach the read.
        assert_eq!(rd.reaching(use_node, a).len(), 3);
    }

    #[test]
    fn params_have_entry_defs() {
        let (_, cfg, rd, du) = setup("fn f(x: int) { print(x); }");
        let pr = cfg.node_of(StmtId::new(0));
        let ds = du.defs_for_use(pr, VarId::Local(LocalId::new(0)));
        assert_eq!(ds.len(), 1);
        assert_eq!(rd.defs()[ds[0]].node, ENTRY);
    }

    #[test]
    fn globals_through_calls() {
        let p = hps_lang::parse(
            "global g: int;
             fn bump() { g = g + 1; }
             fn f() { g = 0; bump(); print(g); }",
        )
        .unwrap();
        let fid = p.func_by_name("f").unwrap();
        let cfg = Cfg::build(p.func(fid));
        let rd = ReachingDefs::compute(p.func(fid), &cfg, &ModRef::compute(&p));
        let du = DefUse::compute(&cfg, &rd);
        let f = p.func(fid);
        // print(g) is the 3rd statement of f.
        let pr_id = f.body.stmts[2].id;
        let g = VarId::Global(hps_ir::GlobalId::new(0));
        let ds = du.defs_for_use(cfg.node_of(pr_id), g);
        // Both `g = 0` and the weak def from the call reach the print.
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn data_deps_statement_view() {
        let (_, cfg, rd, du) = setup("fn f() { var x: int = 1; var y: int = x + x; }");
        let dd = DataDeps::compute(&cfg, &rd, &du);
        assert_eq!(dd.dependents_of(StmtId::new(0)), vec![StmtId::new(1)]);
    }
}
