//! Interprocedural hidden-value flow over the open component.
//!
//! Labels the value returned by every *hidden-dependent* fragment (see
//! [`crate::fragment`]) and propagates those labels through the whole open
//! program: through def-use chains, promoted predicates and implicit flows
//! inside each function (the per-function engine is
//! [`hps_analysis::taint`]), and across calls, returns, globals and fields
//! between functions.
//!
//! The interprocedural part is context-insensitive: each function gets one
//! parameter-taint vector (the join over all call sites), one return-taint
//! set, and globals/fields share one program-wide taint map. The driver
//! iterates per-function analyses until these summaries stop changing —
//! all joins are monotone over finite bit-sets, so the loop terminates.
//!
//! The result says, for every leak label, *which open statements the leaked
//! value reaches* — the audit's flow evidence — and powers the soundness
//! check: a leak label that exists without a declared ILP is an
//! `undeclared_hidden_flow` error (reported by [`crate::lints`]).

use hps_analysis::taint::{TaintAnalysis, TaintModel};
use hps_analysis::{BitSet, CallGraph, Cfg, ControlDeps, DomTree, ModRef, VarId};
use hps_ir::{ComponentId, Expr, FragLabel, FuncId, Program, Stmt, StmtId, StmtKind};
use std::collections::HashMap;

/// One taint label: the value returned by a hidden-dependent fragment.
#[derive(Clone, PartialEq, Debug)]
pub struct LeakLabel {
    /// The component owning the fragment.
    pub component: ComponentId,
    /// The fragment.
    pub label: FragLabel,
    /// Whether the splitter declared an ILP for this fragment.
    pub declared: bool,
}

/// Flow facts for one open function.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncFlow {
    /// Statements that evaluate or define leaked data (an expression they
    /// evaluate — including call results — or a variable they write carries
    /// a leak label).
    pub tainted_stmts: Vec<StmtId>,
    /// Per leak label (indexed like [`OpenFlow::labels`]): how many of the
    /// function's statements the label reaches.
    pub stmts_per_label: Vec<usize>,
}

/// The whole-program flow result.
#[derive(Clone, PartialEq, Debug)]
pub struct OpenFlow {
    /// The label universe, in deterministic (component, fragment) order.
    pub labels: Vec<LeakLabel>,
    /// Per analyzed function (reachable from the entry point), in id order.
    pub per_func: Vec<(FuncId, FuncFlow)>,
    /// Interprocedural rounds until the summaries stabilized.
    pub rounds: usize,
}

impl OpenFlow {
    /// Index of a label, if it exists.
    pub fn label_index(&self, component: ComponentId, label: FragLabel) -> Option<usize> {
        self.labels
            .iter()
            .position(|l| l.component == component && l.label == label)
    }

    /// Total number of open statements label `i` reaches.
    pub fn stmts_reached(&self, i: usize) -> usize {
        self.per_func
            .iter()
            .map(|(_, f)| f.stmts_per_label[i])
            .sum()
    }

    /// Number of functions label `i` reaches.
    pub fn funcs_reached(&self, i: usize) -> usize {
        self.per_func
            .iter()
            .filter(|(_, f)| f.stmts_per_label[i] > 0)
            .count()
    }
}

/// Per-function model snapshotting the current interprocedural summaries.
struct OpenModel<'a> {
    n: usize,
    frag_labels: &'a HashMap<(ComponentId, FragLabel), usize>,
    /// This function's parameter taint, by parameter index.
    params: &'a [BitSet],
    /// Program-wide taint of globals and (class, field) summaries.
    shared: &'a HashMap<VarId, BitSet>,
    ret_taint: &'a HashMap<FuncId, BitSet>,
    modref: &'a ModRef,
}

impl TaintModel for OpenModel<'_> {
    fn labels(&self) -> usize {
        self.n
    }

    fn gen(&self, stmt: &Stmt, out: &mut BitSet) {
        if let StmtKind::HiddenCall {
            component, label, ..
        } = &stmt.kind
        {
            if let Some(&i) = self.frag_labels.get(&(*component, *label)) {
                out.insert(i);
            }
        }
    }

    fn ambient(&self, v: VarId, out: &mut BitSet) {
        match v {
            VarId::Local(l) => {
                if let Some(t) = self.params.get(l.index()) {
                    out.union_with(t);
                }
            }
            VarId::Global(_) | VarId::Field(..) => {
                if let Some(t) = self.shared.get(&v) {
                    out.union_with(t);
                }
            }
        }
    }

    fn call_result(&self, callee: FuncId, out: &mut BitSet) {
        if let Some(t) = self.ret_taint.get(&callee) {
            out.union_with(t);
        }
    }

    fn call_effect(&self, callee: FuncId) -> (Vec<VarId>, Vec<VarId>) {
        (
            self.modref
                .mods(callee)
                .iter()
                .copied()
                .map(VarId::Global)
                .collect(),
            self.modref
                .refs(callee)
                .iter()
                .copied()
                .map(VarId::Global)
                .collect(),
        )
    }
}

/// Runs the interprocedural propagation over `open`.
///
/// `modref` is `open`'s mod/ref summary. `declared` lists the
/// `(component, label)` pairs that carry a declared ILP; `hidden_frags`
/// the fragments whose return is hidden-dependent (from
/// [`crate::fragment::analyze_fragments`]).
pub fn analyze_open_flow(
    open: &Program,
    modref: &ModRef,
    hidden_frags: &[(ComponentId, FragLabel)],
    declared: &[(ComponentId, FragLabel)],
) -> OpenFlow {
    // Label universe in sorted order for determinism.
    let mut keys: Vec<(ComponentId, FragLabel)> = hidden_frags.to_vec();
    keys.sort();
    keys.dedup();
    let frag_labels: HashMap<(ComponentId, FragLabel), usize> =
        keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    let labels: Vec<LeakLabel> = keys
        .iter()
        .map(|&(component, label)| LeakLabel {
            component,
            label,
            declared: declared.contains(&(component, label)),
        })
        .collect();
    let n = labels.len();

    // Functions to analyze: reachable from the entry point (all functions
    // when there is no `main`, e.g. library-style fixtures).
    let callgraph = CallGraph::build(open);
    let mut funcs: Vec<FuncId> = match open.entry() {
        Some(main) => callgraph.reachable_from(main),
        None => (0..open.functions.len()).map(FuncId::new).collect(),
    };
    funcs.sort();

    // Interprocedural summaries.
    let mut param_taint: HashMap<FuncId, Vec<BitSet>> = funcs
        .iter()
        .map(|&f| {
            let np = open.func(f).num_params;
            (f, vec![BitSet::new(n); np])
        })
        .collect();
    let mut ret_taint: HashMap<FuncId, BitSet> =
        funcs.iter().map(|&f| (f, BitSet::new(n))).collect();
    let mut shared: HashMap<VarId, BitSet> = HashMap::new();

    // Per-function structures are input-independent; compute once.
    let prepared: Vec<(FuncId, Cfg, ControlDeps)> = funcs
        .iter()
        .map(|&f| {
            let cfg = Cfg::build(open.func(f));
            let postdom = DomTree::postdominators(&cfg);
            let control = ControlDeps::compute(&cfg, &postdom);
            (f, cfg, control)
        })
        .collect();

    let mut analyses: HashMap<FuncId, TaintAnalysis> = HashMap::new();
    let mut rounds = 0usize;
    // Each round either grows a summary bit or is the last; the total bit
    // count bounds the loop.
    let bound = 2 + n * (funcs.len() + 1) * 8 + 64;
    loop {
        rounds += 1;
        assert!(rounds <= bound, "open-flow summaries did not stabilize");
        let mut changed = false;
        for (f, cfg, control) in &prepared {
            let func = open.func(*f);
            let empty = Vec::new();
            let model = OpenModel {
                n,
                frag_labels: &frag_labels,
                params: param_taint.get(f).unwrap_or(&empty),
                shared: &shared,
                ret_taint: &ret_taint,
                modref,
            };
            let ta = TaintAnalysis::compute(func, cfg, control, &model);

            // Push argument taint into callee parameter summaries and
            // shared-state taint out of global/field definitions.
            let mut arg_updates: Vec<(FuncId, usize, BitSet)> = Vec::new();
            let mut shared_updates: Vec<(VarId, BitSet)> = Vec::new();
            for node in cfg.node_ids() {
                let Some(id) = cfg.stmt_of(node) else {
                    continue;
                };
                let stmt = func.stmt(id).expect("stmt in cfg");
                hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
                    e.walk(&mut |e| {
                        if let Expr::Call { callee, args } = e {
                            for (i, arg) in args.iter().enumerate() {
                                let t = ta.expr_taint_at(node, arg, &model);
                                if !t.is_empty() {
                                    arg_updates.push((callee.func(), i, t));
                                }
                            }
                        }
                    });
                });
                for v in ta.vars.clone() {
                    if matches!(v, VarId::Global(_) | VarId::Field(..)) {
                        let t = ta.var_taint_after(node, v, &model);
                        if !t.is_empty() {
                            shared_updates.push((v, t));
                        }
                    }
                }
            }
            // All queries against `model` are done; the summary maps can be
            // mutated now. Refresh this function's return summary first.
            let entry = ret_taint.get_mut(f).expect("summary exists");
            if entry.union_with(&ta.ret_taint) {
                changed = true;
            }
            for (callee, i, t) in arg_updates {
                if let Some(params) = param_taint.get_mut(&callee) {
                    if let Some(p) = params.get_mut(i) {
                        if p.union_with(&t) {
                            changed = true;
                        }
                    }
                }
            }
            for (v, t) in shared_updates {
                let entry = shared.entry(v).or_insert_with(|| BitSet::new(n));
                if entry.union_with(&t) {
                    changed = true;
                }
            }

            analyses.insert(*f, ta);
        }
        if !changed {
            break;
        }
    }

    // Summarize per function from the final (stable) analyses.
    let per_func = prepared
        .iter()
        .map(|(f, cfg, _)| {
            let ta = &analyses[f];
            let empty = Vec::new();
            let model = OpenModel {
                n,
                frag_labels: &frag_labels,
                params: param_taint.get(f).unwrap_or(&empty),
                shared: &shared,
                ret_taint: &ret_taint,
                modref,
            };
            let func = open.func(*f);
            let mut tainted_stmts = Vec::new();
            let mut stmts_per_label = vec![0usize; n];
            for node in cfg.node_ids() {
                let Some(id) = cfg.stmt_of(node) else {
                    continue;
                };
                let stmt = func.stmt(id).expect("stmt in cfg");
                // A statement is "reached" when leaked data flows through
                // it: an expression it evaluates is tainted (covers call
                // results consumed without being stored, e.g. `print(f(x))`)
                // or a variable it defines ends up tainted (covers gen sites
                // and implicit flows under tainted branches).
                let mut present = BitSet::new(n);
                hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
                    present.union_with(&ta.expr_taint_at(node, e, &model));
                });
                let eff =
                    hps_analysis::vars::stmt_effect(func, stmt, &mut |_| (Vec::new(), Vec::new()));
                for (v, _) in &eff.defs {
                    present.union_with(&ta.var_taint_after(node, *v, &model));
                }
                if !present.is_empty() {
                    tainted_stmts.push(id);
                }
                for label in present.iter() {
                    stmts_per_label[label] += 1;
                }
            }
            tainted_stmts.sort();
            tainted_stmts.dedup();
            (
                *f,
                FuncFlow {
                    tainted_stmts,
                    stmts_per_label,
                },
            )
        })
        .collect();

    OpenFlow {
        labels,
        per_func,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{split_program, SplitPlan};

    #[test]
    fn declared_leak_flow_is_traced_through_calls() {
        let src = "
            fn f(x: int, y: int) -> int {
                var a: int = 3 * x + y;
                return a;
            }
            fn caller(v: int) -> int { return f(v, 1) + 2; }
            fn main() { print(caller(4)); }";
        let program = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::single(&program, "f", "a").unwrap();
        let split = split_program(&program, &plan).unwrap();
        let facts = crate::fragment::analyze_fragments(&split.hidden.components);
        let hidden_frags: Vec<_> = facts
            .values()
            .filter(|f| f.ret_hidden)
            .map(|f| (f.component, f.label))
            .collect();
        let declared: Vec<_> = split
            .reports
            .iter()
            .flat_map(|r| r.ilps.iter().map(|i| (i.component, i.label)))
            .collect();
        assert!(!hidden_frags.is_empty(), "the split must leak something");
        let flow = analyze_open_flow(
            &split.open,
            &ModRef::compute(&split.open),
            &hidden_frags,
            &declared,
        );
        assert!(!flow.labels.is_empty());
        assert!(flow.labels.iter().all(|l| l.declared));
        // The leaked value reaches open statements in both f and its caller
        // (through the return value).
        let i = 0;
        assert!(flow.stmts_reached(i) > 0);
        assert!(
            flow.funcs_reached(i) >= 2,
            "leak should propagate into caller: {flow:?}"
        );
    }

    #[test]
    fn no_hidden_fragments_means_no_labels() {
        let src = "fn main() { print(1); }";
        let program = hps_lang::parse(src).unwrap();
        let flow = analyze_open_flow(&program, &ModRef::compute(&program), &[], &[]);
        assert!(flow.labels.is_empty());
        assert_eq!(flow.rounds, 1);
    }
}
