//! Cross-checks between independent analyses on generated programs:
//!
//! * dominator-tree sanity (entry dominates every reachable node; the
//!   immediate dominator chain always reaches the root);
//! * agreement between the *syntactic* control-ancestor chain (used by the
//!   splitter) and the *CFG-based* control dependence (used by the security
//!   analysis) — for structured code without early exits the syntactic
//!   ancestors must appear among the transitive CFG controllers;
//! * every non-entry use is reached by at least one definition.

use hps_analysis::{cfg, FuncAnalysis, ModRef};
use hps_ir::{FuncId, StmtKind};
use proptest::prelude::*;

/// A generated structured function: nested loops and branches over
/// scalar locals, with no break, continue or return (keeps the
/// syntactic≈CFG comparison exact).
fn build(src: &str) -> hps_ir::Program {
    hps_lang::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dominator_tree_is_sane(src in hps_gen::structured()) {
        let program = build(&src);
        let fa = FuncAnalysis::compute(&program, FuncId::new(0), &ModRef::compute(&program));
        let dom = hps_analysis::DomTree::dominators(&fa.cfg);
        for node in fa.cfg.node_ids() {
            if !dom.is_reachable(node) {
                continue;
            }
            prop_assert!(dom.dominates(cfg::ENTRY, node), "entry must dominate node {node}");
            // The idom chain terminates at the root.
            let mut cur = node;
            let mut steps = 0;
            while let Some(parent) = dom.idom(cur) {
                prop_assert!(dom.dominates(parent, node));
                cur = parent;
                steps += 1;
                prop_assert!(steps <= fa.cfg.len(), "idom chain must terminate");
            }
            prop_assert_eq!(cur, cfg::ENTRY);
        }
        // Mirror for post-dominators.
        for node in fa.cfg.node_ids() {
            if fa.postdom.is_reachable(node) {
                prop_assert!(fa.postdom.dominates(cfg::EXIT, node));
            }
        }
    }

    #[test]
    fn syntactic_ancestors_agree_with_cfg_control_deps(
        src in hps_gen::structured()
    ) {
        let program = build(&src);
        let f = program.func(FuncId::new(0));
        let fa = FuncAnalysis::compute(&program, FuncId::new(0), &ModRef::compute(&program));
        hps_ir::visit::for_each_stmt(&f.body, &mut |stmt| {
            // Compare for plain assignments (condition nodes control
            // themselves in loops, which the syntactic view does not model).
            if !matches!(stmt.kind, StmtKind::Assign { .. }) {
                return;
            }
            let node = fa.cfg.node_of(stmt.id);
            let controllers = fa.control.transitive_controllers(node);
            for anc in fa.structure.control_ancestors(stmt.id) {
                let anc_node = fa.cfg.node_of(anc);
                assert!(
                    controllers.contains(&anc_node),
                    "syntactic ancestor {anc} of {} missing from CFG controllers",
                    stmt.id
                );
            }
        });
    }

    #[test]
    fn every_use_has_a_reaching_definition(
        src in hps_gen::structured()
    ) {
        let program = build(&src);
        let fa = FuncAnalysis::compute(&program, FuncId::new(0), &ModRef::compute(&program));
        for node in fa.cfg.node_ids() {
            for var in &fa.reaching.effect(node).uses {
                let defs = fa.def_use.defs_for_use(node, *var);
                prop_assert!(
                    !defs.is_empty(),
                    "use of {var:?} at node {node} has no reaching definition"
                );
            }
        }
    }
}
