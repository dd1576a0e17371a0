//! Property tests for the taint lattice and propagation engine:
//!
//! * the join (bit-set union) is commutative, associative, idempotent and
//!   monotone — the algebraic laws the fixpoint argument rests on;
//! * fixpoint iteration terminates on generated structured CFGs (nested
//!   loops and branches, from `hps_gen::structured`) and the computed
//!   solution really is a post-fixpoint: one more full pass changes
//!   nothing;
//! * the solution is sound for the generated seeds: every seeded
//!   statement's defined variable carries its label immediately after the
//!   statement executes.

use hps_analysis::taint::{TaintAnalysis, TaintModel};
use hps_analysis::{BitSet, Cfg, ControlDeps, DomTree};
use hps_ir::{FuncId, Stmt, StmtId};
use proptest::prelude::*;

const LABELS: usize = 8;

fn bitset_strategy() -> BoxedStrategy<BitSet> {
    prop::collection::vec(0usize..LABELS, 0..6)
        .prop_map(|bits| {
            let mut s = BitSet::new(LABELS);
            for b in bits {
                s.insert(b);
            }
            s
        })
        .boxed()
}

fn join(a: &BitSet, b: &BitSet) -> BitSet {
    let mut out = a.clone();
    out.union_with(b);
    out
}

fn leq(a: &BitSet, b: &BitSet) -> bool {
    a.iter().all(|x| b.contains(x))
}

/// Seeds a label at every statement whose id is ≡ its label (mod stride).
struct StrideSeeds {
    stride: usize,
    implicit: bool,
}

impl TaintModel for StrideSeeds {
    fn labels(&self) -> usize {
        LABELS
    }
    fn gen(&self, stmt: &Stmt, out: &mut BitSet) {
        let id = stmt.id.index();
        if id.is_multiple_of(self.stride) {
            out.insert(id % LABELS);
        }
    }
    fn implicit_flows(&self) -> bool {
        self.implicit
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn join_is_commutative(a in bitset_strategy(), b in bitset_strategy()) {
        prop_assert_eq!(join(&a, &b), join(&b, &a));
    }

    #[test]
    fn join_is_associative(
        a in bitset_strategy(),
        b in bitset_strategy(),
        c in bitset_strategy()
    ) {
        prop_assert_eq!(join(&join(&a, &b), &c), join(&a, &join(&b, &c)));
    }

    #[test]
    fn join_is_idempotent_with_bottom_identity(a in bitset_strategy()) {
        prop_assert_eq!(join(&a, &a), a.clone());
        prop_assert_eq!(join(&a, &BitSet::new(LABELS)), a);
    }

    #[test]
    fn join_is_monotone(
        a in bitset_strategy(),
        b in bitset_strategy(),
        c in bitset_strategy()
    ) {
        // a ⊑ a ⊔ b, and joining a common element preserves order.
        let ab = join(&a, &b);
        prop_assert!(leq(&a, &ab));
        prop_assert!(leq(&b, &ab));
        if leq(&a, &b) {
            prop_assert!(leq(&join(&a, &c), &join(&b, &c)));
        }
    }

    #[test]
    fn fixpoint_terminates_on_random_cfgs(
        src in hps_gen::structured(),
        stride in 1usize..4,
        implicit in any::<bool>(),
    ) {
        let program = hps_lang::parse(&src).expect("generated program parses");
        let f = program.func(FuncId::new(0));
        let cfg = Cfg::build(f);
        let postdom = DomTree::postdominators(&cfg);
        let control = ControlDeps::compute(&cfg, &postdom);
        let model = StrideSeeds { stride, implicit };
        // `compute` panics internally if iteration exceeds its lattice-height
        // bound; reaching this point at all is the termination property.
        let ta = TaintAnalysis::compute(f, &cfg, &control, &model);
        prop_assert!(ta.iterations <= 2 + cfg.len() * (ta.vars.len() + 1) * (LABELS + 1));
        // The result is a genuine post-fixpoint: one more pass is a no-op.
        prop_assert!(ta.is_fixpoint(f, &cfg, &control, &model));
    }

    #[test]
    fn seeded_defs_carry_their_label(
        src in hps_gen::structured(),
        stride in 1usize..4,
    ) {
        let program = hps_lang::parse(&src).expect("generated program parses");
        let f = program.func(FuncId::new(0));
        let cfg = Cfg::build(f);
        let postdom = DomTree::postdominators(&cfg);
        let control = ControlDeps::compute(&cfg, &postdom);
        let model = StrideSeeds { stride, implicit: true };
        let ta = TaintAnalysis::compute(f, &cfg, &control, &model);
        hps_ir::visit::for_each_stmt(&f.body, &mut |stmt| {
            if stmt.id.index() % stride != 0 {
                return;
            }
            if let hps_ir::StmtKind::Assign { place: hps_ir::Place::Local(l), .. } = &stmt.kind {
                let node = cfg.node_of(stmt.id);
                let after = ta.var_taint_after(node, hps_analysis::VarId::Local(*l), &model);
                assert!(
                    after.contains(stmt.id.index() % LABELS),
                    "stmt {:?} lost its seeded label",
                    StmtId::new(stmt.id.index())
                );
            }
        });
    }
}
