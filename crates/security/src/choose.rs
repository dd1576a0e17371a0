//! Seed selection.
//!
//! §4: "this variable is selected to be the one which creates an ILP with
//! the highest maximum arithmetic complexity across all ILPs created by
//! different local variables."
//!
//! §2.2 simultaneously bounds the *cost* of splitting: "To further ensure
//! that the overhead of executing split functions is not high, we restrict
//! the selection of a function f for splitting and the manner in which it
//! is split" — in particular avoiding code that interacts with the hidden
//! side repeatedly. [`SeedRule::CostRestricted`] (the default used by the
//! experiment harness) operationalizes that: a candidate split is rejected
//! when it would place open↔hidden calls *inside a loop of the open
//! component*, since such calls execute once per iteration and their count
//! grows with the input. [`SeedRule::MaxComplexity`] is the unrestricted
//! variant (used to study the trade-off; see the selection ablation).
//!
//! A candidate's trial split covers its one function
//! ([`hps_core::split_function`]), and its ILPs are graded against an
//! [`OriginalAnalysis`] shared by every candidate, so ranking a function's
//! seeds costs in proportion to that function, not to the whole program.

use crate::ilp::OriginalAnalysis;
use crate::lattice::{Ac, AcType};
use hps_core::split_function;
use hps_ir::{ComponentId, FuncId, Function, LocalId, Program, StmtKind};

/// How to trade security against communication cost when picking seeds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SeedRule {
    /// Reject seeds whose split puts hidden calls inside open-component
    /// loops (the paper's cost guideline; keeps interaction counts
    /// input-independent).
    #[default]
    CostRestricted,
    /// Pure §4 rule: maximize the ILP arithmetic complexity regardless of
    /// the traffic the split generates.
    MaxComplexity,
}

/// Number of `HiddenCall` statements in a split function's open
/// component that sit inside a loop whose iteration count is *not* a
/// compile-time constant — each such call runs an input-dependent number
/// of times, so any non-zero count means unbounded traffic. Calls inside
/// constant-trip loops (fixed tables, fixed profile slots) execute a
/// bounded number of times and are tolerated, like the paper's javac split
/// where "entire loops were hidden … in each iteration a different array
/// element was being sent to the hidden side".
pub fn in_loop_hidden_calls(f: &Function) -> usize {
    let structure = hps_analysis::StructInfo::compute(f);
    let loops = hps_analysis::LoopInfo::compute(f, &structure);
    let constant_trip = |l: hps_ir::StmtId| loops.loop_at(l).is_some_and(|m| m.trip.is_constant());
    let mut count = 0;
    hps_ir::visit::for_each_stmt(&f.body, &mut |stmt| {
        if matches!(stmt.kind, StmtKind::HiddenCall { .. })
            && structure
                .enclosing_loops(stmt.id)
                .iter()
                .any(|&l| !constant_trip(l))
        {
            count += 1;
        }
    });
    count
}

/// One viable seed with its score, produced by [`ranked_seeds_with`].
#[derive(Clone, PartialEq, Debug)]
pub struct SeedCandidate {
    /// The candidate seed variable.
    pub seed: LocalId,
    /// The highest arithmetic complexity among the ILPs its split creates.
    pub max_ac: Ac,
    /// How many ILPs the split creates.
    pub n_ilps: usize,
}

impl SeedCandidate {
    /// The score tuple candidates are ordered by (higher is better).
    fn score(&self) -> (AcType, u32, usize) {
        (self.max_ac.ty, self.max_ac.degree, self.n_ilps)
    }
}

/// Scores every viable seed of `func` under `rule` and returns them best
/// first. `analysis` is the analysis of the program `func` belongs to.
///
/// The order is fully deterministic: candidates are ranked by `(AC type,
/// degree, ILP count)` descending, and candidates with *equal* scores keep
/// their declaration order — so when several seeds reach the same maximum
/// complexity the first-declared one wins, and callers can inspect (or log)
/// the runners-up. Under [`SeedRule::CostRestricted`], candidates whose
/// split puts hidden calls in open loops are excluded entirely.
///
/// Each candidate is tried with a split of `func` alone; the scores equal
/// those of a whole-program split with that single target.
pub fn ranked_seeds_with(
    analysis: &OriginalAnalysis<'_>,
    func: FuncId,
    rule: SeedRule,
) -> Vec<SeedCandidate> {
    let program = analysis.program();
    let f = program.func(func);
    let mut candidates: Vec<SeedCandidate> = Vec::new();
    for (i, local) in f.locals.iter().enumerate() {
        let seed = LocalId::new(i);
        if f.is_param(seed) || !local.ty.is_scalar() {
            continue;
        }
        let trial = match split_function(program, func, seed, true, ComponentId::new(0)) {
            Ok(t) => t,
            Err(_) => continue,
        };
        if rule == SeedRule::CostRestricted && in_loop_hidden_calls(&trial.func) > 0 {
            continue;
        }
        let report = &trial.report;
        if report.ilps.is_empty() && report.hidden_vars.is_empty() {
            continue;
        }
        let complexities = analysis.analyze_report(report);
        let max_ac = complexities
            .iter()
            .map(|c| c.ac.clone())
            .max_by(|a, b| (a.ty, a.degree).cmp(&(b.ty, b.degree)))
            .unwrap_or_else(|| Ac {
                ty: AcType::Constant,
                inputs: crate::lattice::Inputs::none(),
                degree: 0,
            });
        candidates.push(SeedCandidate {
            seed,
            max_ac,
            n_ilps: complexities.len(),
        });
    }
    // Stable sort: equal scores keep declaration order.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.score()));
    candidates
}

/// Picks the best seed variable for splitting `func` under `rule`.
///
/// This is a thin convenience over [`ranked_seeds_with`]; whole-program
/// planning (seed choice for every selected function, budget search and
/// hardening) lives behind the `hps-audit` `Planner` facade, which calls
/// into [`mod@crate::optimize`].
///
/// Scoring follows the paper: the seed whose split yields the ILP with the
/// highest maximum arithmetic complexity (ties broken toward more ILPs,
/// then declaration order — see [`ranked_seeds_with`] for the full
/// ranking). Under [`SeedRule::CostRestricted`], candidates with in-loop
/// hidden calls are discarded first. Returns `None` when no candidate
/// produces a usable split.
pub fn choose_seed_with(program: &Program, func: FuncId, rule: SeedRule) -> Option<LocalId> {
    best_seed(&OriginalAnalysis::new(program), func, rule)
}

fn best_seed(analysis: &OriginalAnalysis<'_>, func: FuncId, rule: SeedRule) -> Option<LocalId> {
    ranked_seeds_with(analysis, func, rule)
        .first()
        .map(|c| c.seed)
}

/// [`choose_seed_with`] under the default cost-restricted rule.
pub fn choose_seed(program: &Program, func: FuncId) -> Option<LocalId> {
    choose_seed_with(program, func, SeedRule::CostRestricted)
}

/// Chooses a seed for each of the given functions under `rule`, skipping
/// functions with no usable seed. Returns `(func, seed)` pairs.
///
/// Thin wrapper kept for callers that want raw pairs; prefer
/// [`crate::optimize::default_targets`] (which returns a ready
/// [`hps_core::SplitPlan`]) or the `hps-audit` `Planner` for the full pipeline.
pub fn choose_seeds_all_with(
    program: &Program,
    funcs: &[FuncId],
    rule: SeedRule,
) -> Vec<(FuncId, LocalId)> {
    let analysis = OriginalAnalysis::new(program);
    funcs
        .iter()
        .filter_map(|&f| best_seed(&analysis, f, rule).map(|s| (f, s)))
        .collect()
}

/// [`choose_seeds_all_with`] under the default cost-restricted rule.
pub fn choose_seeds_all(program: &Program, funcs: &[FuncId]) -> Vec<(FuncId, LocalId)> {
    choose_seeds_all_with(program, funcs, SeedRule::CostRestricted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefers_variable_with_higher_complexity() {
        // `lowvar` leaks a linear value; `highvar` leaks a polynomial (via
        // the summation loop). The chooser must pick `highvar` — both
        // splits keep all hidden calls outside open loops (the summation
        // loop is promoted wholesale).
        let src = "
            fn g(x: int, z: int, b: int[]) -> int {
                var lowvar: int = x + 1;
                b[0] = lowvar;
                var highvar: int = x * x;
                var i: int = 0;
                while (i < z) {
                    highvar = highvar + i;
                    i = i + 1;
                }
                b[1] = highvar;
                return 0;
            }
            fn main() { var b: int[] = new int[2]; print(g(1, 5, b)); }";
        let p = hps_lang::parse(src).unwrap();
        let func = p.func_by_name("g").unwrap();
        let f = p.func(func);
        // Under the cost rule the winning seed is the loop counter `i`:
        // seeding it pulls `highvar` into the hidden set too (forward
        // slice through `highvar = highvar + i`), the whole loop promotes
        // (no in-loop calls), and the leak of `highvar` stays polynomial.
        // Seeding `highvar` directly leaves `i` open, blocks promotion and
        // creates per-iteration traffic — rejected.
        let chosen = choose_seed(&p, func).expect("some seed works");
        assert_eq!(f.local(chosen).name, "i");
        // The unrestricted rule tolerates the traffic and keeps the seed
        // with the highest complexity found first.
        let chosen = choose_seed_with(&p, func, SeedRule::MaxComplexity).unwrap();
        assert!(["highvar", "i"].contains(&f.local(chosen).name.as_str()));
        // Either way the chosen seed must not be the linear one.
        assert_ne!(f.local(chosen).name, "lowvar");
    }

    #[test]
    fn cost_rule_rejects_per_iteration_traffic() {
        // Splitting on `acc` forces a fetch/sync inside the array loop
        // (the loop cannot be promoted because of the array store), so the
        // cost-restricted rule must refuse; the unrestricted rule accepts.
        let src = "
            fn g(n: int, b: int[]) -> int {
                var acc: int = 0;
                var i: int = 0;
                while (i < n) {
                    acc = acc + i;
                    b[i] = acc;
                    i = i + 1;
                }
                return acc;
            }
            fn main() { var b: int[] = new int[64]; print(g(10, b)); }";
        let p = hps_lang::parse(src).unwrap();
        let func = p.func_by_name("g").unwrap();
        assert_eq!(choose_seed(&p, func), None);
        assert!(choose_seed_with(&p, func, SeedRule::MaxComplexity).is_some());
    }

    use hps_core::{split_program, SplitPlan, SplitTarget};

    #[test]
    fn in_loop_call_counter() {
        let src = "
            fn g(n: int, b: int[]) -> int {
                var acc: int = 0;
                var i: int = 0;
                while (i < n) { acc = acc + i; b[i] = acc; i = i + 1; }
                return acc;
            }
            fn main() { var b: int[] = new int[64]; print(g(10, b)); }";
        let p = hps_lang::parse(src).unwrap();
        let func = p.func_by_name("g").unwrap();
        let seed = p.func(func).local_by_name("acc").unwrap();
        let plan = SplitPlan::from_targets(vec![SplitTarget::Function { func, seed }]);
        let split = split_program(&p, &plan).unwrap();
        assert!(in_loop_hidden_calls(split.open.func(func)) > 0);
    }

    #[test]
    fn equal_scores_tie_break_by_declaration_order() {
        // `first` and `second` leak structurally identical linear values, so
        // their candidate scores are equal; the ranking must keep the
        // declaration order and `choose_seed` must pick `first`.
        let src = "
            fn g(x: int, b: int[]) -> int {
                var first: int = x + 1;
                b[0] = first;
                var second: int = x + 2;
                b[1] = second;
                return 0;
            }
            fn main() { var b: int[] = new int[2]; print(g(1, b)); }";
        let p = hps_lang::parse(src).unwrap();
        let func = p.func_by_name("g").unwrap();
        let f = p.func(func);
        let analysis = OriginalAnalysis::new(&p);
        let ranked = ranked_seeds_with(&analysis, func, SeedRule::CostRestricted);
        assert!(ranked.len() >= 2, "both seeds viable: {ranked:?}");
        assert_eq!(
            ranked[0].score(),
            ranked[1].score(),
            "test premise: the two seeds tie"
        );
        assert_eq!(f.local(ranked[0].seed).name, "first");
        assert_eq!(f.local(ranked[1].seed).name, "second");
        let chosen = choose_seed(&p, func).unwrap();
        assert_eq!(f.local(chosen).name, "first");
        // Ranking is reproducible call to call.
        assert_eq!(
            ranked,
            ranked_seeds_with(&OriginalAnalysis::new(&p), func, SeedRule::CostRestricted)
        );
    }

    #[test]
    fn returns_none_without_usable_locals() {
        let p = hps_lang::parse("fn g(x: int) -> int { return x; } fn main() { print(g(1)); }")
            .unwrap();
        let func = p.func_by_name("g").unwrap();
        assert_eq!(choose_seed(&p, func), None);
    }

    #[test]
    fn choose_all_skips_unusable() {
        let p = hps_lang::parse(
            "fn a(x: int) -> int { var t: int = x * x; return t; }
             fn b(x: int) -> int { return x; }
             fn main() { print(a(1) + b(2)); }",
        )
        .unwrap();
        let funcs: Vec<FuncId> = vec![p.func_by_name("a").unwrap(), p.func_by_name("b").unwrap()];
        let seeds = choose_seeds_all(&p, &funcs);
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].0, p.func_by_name("a").unwrap());
    }
}
