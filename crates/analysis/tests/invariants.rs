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
use std::fmt::Write;

/// Generates a structured function: nested loops/branches over scalar
/// locals, no break/continue/return (keeps the syntactic≈CFG comparison
/// exact).
#[derive(Debug, Clone)]
enum GS {
    Assign(u8),
    If(Vec<GS>, Vec<GS>),
    Loop(Vec<GS>),
}

fn gs_strategy(depth: u32) -> BoxedStrategy<GS> {
    if depth == 0 {
        return (0u8..4).prop_map(GS::Assign).boxed();
    }
    let block = prop::collection::vec(gs_strategy(depth - 1), 1..4);
    prop_oneof![
        3 => (0u8..4).prop_map(GS::Assign),
        1 => (block.clone(), block.clone()).prop_map(|(t, e)| GS::If(t, e)),
        1 => block.prop_map(GS::Loop),
    ]
    .boxed()
}

fn render(stmts: &[GS], out: &mut String, indent: usize, loops: &mut usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            GS::Assign(v) => {
                let _ = writeln!(out, "{pad}v{v} = v{v} + {};", v + 1);
            }
            GS::If(t, e) => {
                let _ = writeln!(out, "{pad}if (v0 < v1) {{");
                render(t, out, indent + 1, loops);
                let _ = writeln!(out, "{pad}}} else {{");
                render(e, out, indent + 1, loops);
                let _ = writeln!(out, "{pad}}}");
            }
            GS::Loop(b) => {
                let c = *loops;
                *loops += 1;
                let _ = writeln!(out, "{pad}c{c} = 0;");
                let _ = writeln!(out, "{pad}while (c{c} < 3) {{");
                render(b, out, indent + 1, loops);
                let _ = writeln!(out, "{}c{c} = c{c} + 1;", "    ".repeat(indent + 1));
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

fn count_loops(stmts: &[GS]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            GS::Loop(b) => 1 + count_loops(b),
            GS::If(t, e) => count_loops(t) + count_loops(e),
            _ => 0,
        })
        .sum()
}

fn build(stmts: &[GS]) -> hps_ir::Program {
    let mut src = String::from("fn f(x: int) {\n");
    for v in 0..4 {
        let _ = writeln!(src, "    var v{v}: int = {v};");
    }
    for c in 0..count_loops(stmts) {
        let _ = writeln!(src, "    var c{c}: int;");
    }
    let mut loops = 0;
    render(stmts, &mut src, 1, &mut loops);
    src.push_str("}\n");
    hps_lang::parse(&src).expect("generated program parses")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dominator_tree_is_sane(stmts in prop::collection::vec(gs_strategy(2), 1..6)) {
        let program = build(&stmts);
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
        stmts in prop::collection::vec(gs_strategy(2), 1..6)
    ) {
        let program = build(&stmts);
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
        stmts in prop::collection::vec(gs_strategy(2), 1..6)
    ) {
        let program = build(&stmts);
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
