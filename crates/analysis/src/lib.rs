//! # hps-analysis — program analysis infrastructure
//!
//! The paper's splitting transformation and security analysis are defined
//! over classical program facts: def-use chains, control ancestors, loop
//! trip counts and the call graph. This crate derives all of them from the
//! structured `hps-ir`:
//!
//! * [`mod@cfg`] — a statement-level control-flow graph with unique entry/exit.
//! * [`domtree`] — dominators and post-dominators (iterative
//!   Cooper–Harvey–Kennedy).
//! * [`control_dep`] — control dependence (Ferrante–Ottenstein–Warren).
//! * [`reaching`] — reaching definitions and def-use chains over scalar and
//!   aggregate variables (weak updates for array elements and fields).
//! * [`structure`] — syntactic facts: enclosing constructs, loop nesting.
//! * [`loops`] — loop trip-count pattern recognition (`Iter(L)` in the
//!   paper's Fig. 3 algorithm).
//! * [`callgraph`] — call graph with recursion detection, called-in-loop
//!   flags and a max-flow vertex cut used by function selection.
//! * [`modref`] — interprocedural global mod/ref summaries.
//! * [`mod@effects`] — interprocedural effect/purity summaries on a small
//!   lattice (`Pure ⊑ ReadsHidden ⊑ WritesHidden ⊑ MayTrap`), plus the
//!   per-fragment purity facts behind the audit's effect lints.
//! * [`mod@taint`] — flow-sensitive taint/information-flow propagation with
//!   implicit (control-dependence) flows, parameterized by a [`TaintModel`].
//!
//! The umbrella type [`FuncAnalysis`] bundles the per-function analyses most
//! clients need.
//!
//! # Examples
//!
//! ```
//! let program = hps_lang::parse(
//!     "fn f(n: int) -> int {
//!         var s: int = 0; var i: int = 0;
//!         while (i < n) { s = s + i; i = i + 1; }
//!         return s;
//!     }",
//! )?;
//! let func = hps_ir::FuncId::new(0);
//! let fa = hps_analysis::FuncAnalysis::compute(&program, func);
//! // `s + i` inside the loop is reached by both the init `s = 0`
//! // and the loop-carried definition.
//! assert!(fa.def_use.edges().count() > 0);
//! # Ok::<(), hps_lang::LangError>(())
//! ```

pub mod bitset;
pub mod callgraph;
pub mod cfg;
pub mod control_dep;
pub mod domtree;
pub mod effects;
pub mod loops;
pub mod modref;
pub mod reaching;
pub mod structure;
pub mod taint;
pub mod vars;

pub use bitset::BitSet;
pub use callgraph::CallGraph;
pub use cfg::{Cfg, CfgNode, NodeId};
pub use control_dep::ControlDeps;
pub use domtree::DomTree;
pub use effects::{fragment_effect, Effect, EffectAnalysis, FragmentEffects};
pub use loops::{LoopInfo, TripCount};
pub use modref::ModRef;
pub use reaching::{DataDeps, DefId, DefSite, DefUse, ReachingDefs};
pub use structure::StructInfo;
pub use taint::{TaintAnalysis, TaintModel};
pub use vars::VarId;

use hps_ir::{FuncId, Program};

/// Bundle of the per-function analyses used by slicing, splitting and the
/// security analysis.
#[derive(Debug)]
pub struct FuncAnalysis {
    /// Which function this analyzes.
    pub func: FuncId,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Post-dominator tree (over [`FuncAnalysis::cfg`]).
    pub postdom: DomTree,
    /// Control dependences.
    pub control: ControlDeps,
    /// Reaching definitions.
    pub reaching: ReachingDefs,
    /// Def-use chains derived from [`FuncAnalysis::reaching`].
    pub def_use: DefUse,
    /// Syntactic structure facts.
    pub structure: StructInfo,
    /// Loop facts (nesting, trip counts).
    pub loops: LoopInfo,
}

impl FuncAnalysis {
    /// Runs every per-function analysis for `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range or its statements have not been
    /// renumbered.
    pub fn compute(program: &Program, func: FuncId) -> FuncAnalysis {
        let f = program.func(func);
        let cfg = Cfg::build(f);
        let postdom = DomTree::postdominators(&cfg);
        let control = ControlDeps::compute(&cfg, &postdom);
        let reaching = ReachingDefs::compute(program, func, &cfg);
        let def_use = DefUse::compute(&cfg, &reaching);
        let structure = StructInfo::compute(f);
        let loops = LoopInfo::compute(f, &structure);
        FuncAnalysis {
            func,
            cfg,
            postdom,
            control,
            reaching,
            def_use,
            structure,
            loops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bundle_on_simple_function() {
        let program = hps_lang::parse(
            "fn f(n: int) -> int {
                var s: int = 0;
                var i: int = 0;
                while (i < n) { s = s + i; i = i + 1; }
                return s;
            }",
        )
        .unwrap();
        let fa = FuncAnalysis::compute(&program, FuncId::new(0));
        assert!(fa.cfg.len() > 5);
        assert_eq!(fa.loops.loops().len(), 1);
    }
}
