//! Budget-aware split planning: the cost model and the deterministic
//! search over the hide-set space.
//!
//! The paper's pipeline picks seeds heuristically and stops; this module
//! closes the loop (ROADMAP item 1, after PrettyCat's guarantee-controlled
//! partitioning): given an overhead **budget**, search the space of seed
//! choices — per-function candidate rankings from [`ranked_seeds_with`] —
//! for the most secure combination whose predicted (and, when a measurer
//! is attached, measured) overhead fits the budget.
//!
//! The search is fully deterministic:
//!
//! 1. Functions come from [`select_functions`] in declaration order; each
//!    gets its candidate ranking from [`ranked_seeds_with`] (score
//!    descending, declaration-order tie-break). If the cost-restricted
//!    rule yields nothing anywhere, the search falls back to
//!    [`SeedRule::MaxComplexity`] (recorded in the outcome).
//! 2. Level 0 takes every function's best candidate — exactly the paper
//!    pipeline ([`default_targets`]).
//! 3. Each downgrade **level** applies one more move: the function with
//!    the highest predicted overhead contribution (ties: lowest function
//!    id) steps down to its next-ranked seed, or is dropped from the plan
//!    once its candidates are exhausted. Levels are monotone, so a caller
//!    (the `hps-audit` `Planner`) can walk level 0, 1, 2, … until the
//!    *measured* overhead fits the budget.
//!
//! Every trial — a candidate seed being ranked, or its contribution being
//! predicted — splits only its own function ([`hps_core::split_function`])
//! and reads the original program's analyses from one
//! [`OriginalAnalysis`], which the [`OptimizeLadder`] builds once per plan.
//! A trial therefore costs in proportion to its function; only the plan a
//! level settles on is split whole, by the caller.
//!
//! Prediction charges transport only — the hidden side executes the same
//! statements the original would — using [`PlanCostModel`]: one round
//! trip per non-deferred hidden call (deferred calls coalesce
//! `batch_factor`-to-one, per the `hps-core` defer analysis), per-call
//! overhead, and a `loop_trip` multiplier per enclosing non-constant-trip
//! loop. [`PlanCostModel::calibrated`] replaces the round-trip weight with
//! the telemetry-measured cost breakdown of a real run.

use crate::choose::{ranked_seeds_with, SeedCandidate, SeedRule};
use crate::ilp::OriginalAnalysis;
use crate::lattice::Ac;
use hps_core::{
    mark_deferrable_function, select_functions, split_function, SplitPlan, SplitResult, SplitTarget,
};
use hps_ir::{ComponentId, FuncId, Function, LocalId, Program, StmtKind};
use std::collections::HashMap;

/// Per-operation weights for the static overhead prediction, in the same
/// abstract units as the runtime's deterministic cost model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanCostModel {
    /// Units per open↔hidden round trip (default: the runtime cost
    /// model's LAN round trip, 3000 units).
    pub rtt_units: u64,
    /// Per-call fixed overhead (frame + marshalling), both sides.
    pub call_units: u64,
    /// Assumed iterations of a loop whose trip count is not a
    /// compile-time constant.
    pub loop_trip: u64,
    /// Deferred calls coalesced into one round trip by a batching
    /// runtime.
    pub batch_factor: u64,
    /// Units charged per statement when statically estimating the
    /// original program's run cost (no measurement attached).
    pub stmt_units: u64,
}

impl Default for PlanCostModel {
    fn default() -> PlanCostModel {
        PlanCostModel {
            rtt_units: 3000,
            call_units: 25,
            loop_trip: 16,
            batch_factor: 4,
            stmt_units: 3,
        }
    }
}

impl PlanCostModel {
    /// Calibrates the round-trip weight from a measured telemetry cost
    /// breakdown: the observed round-trip units per interaction replace
    /// `self.rtt_units`, so later predictions speak the measured run's
    /// language. Every other weight (`call_units`, `loop_trip`,
    /// `batch_factor`, `stmt_units`) is kept from `self` — a
    /// caller-supplied model survives calibration.
    pub fn calibrated(&self, measured: &MeasuredCost) -> PlanCostModel {
        let mut m = self.clone();
        if measured.interactions > 0 && measured.rtt_units > 0 {
            m.rtt_units = measured.rtt_units / measured.interactions;
        }
        m
    }
}

/// A measured cost breakdown of one split run against its original, in
/// the runtime's deterministic virtual cost units (the telemetry counters
/// `hps_run_cost_units_total` / `hps_rtt_cost_units_total` /
/// `hps_server_cost_units_total`). Produced by whatever measurer the
/// caller attaches — the `hps-audit` `Planner` takes a closure so this
/// crate stays independent of the runtime.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MeasuredCost {
    /// Critical-path cost of the original program.
    pub base_units: u64,
    /// Critical-path cost of the split program (batched transport).
    pub split_units: u64,
    /// Round-trip share of the split run.
    pub rtt_units: u64,
    /// Secure-device share of the split run.
    pub server_units: u64,
    /// Open↔hidden round trips.
    pub interactions: u64,
}

impl MeasuredCost {
    /// Measured overhead percentage, the paper's Table 5 column.
    pub fn overhead_percent(&self) -> f64 {
        if self.base_units == 0 {
            return 0.0;
        }
        (self.split_units as f64 - self.base_units as f64) / self.base_units as f64 * 100.0
    }

    /// Open-side share of the split run's critical path.
    pub fn open_units(&self) -> u64 {
        self.split_units
            .saturating_sub(self.rtt_units)
            .saturating_sub(self.server_units)
    }
}

/// The statically predicted cost of a split.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PredictedCost {
    /// Hidden-call sites in the open program.
    pub call_sites: usize,
    /// Sites inside non-constant-trip open loops.
    pub in_loop_sites: usize,
    /// Estimated dynamic round trips (loop-weighted, deferred calls
    /// coalesced).
    pub interactions: u64,
    /// Estimated extra units versus the original (transport + call
    /// overhead; hidden execution replaces open execution).
    pub extra_units: u64,
    /// The baseline the percentage is taken against: measured when a
    /// measurer calibrated the model, otherwise a static estimate.
    pub base_units: u64,
}

impl PredictedCost {
    /// Predicted overhead percentage.
    pub fn overhead_percent(&self) -> f64 {
        if self.base_units == 0 {
            return 0.0;
        }
        self.extra_units as f64 / self.base_units as f64 * 100.0
    }
}

/// Statement-weight walk shared by the base estimate and the per-site
/// weights: every statement counts `loop_trip^depth` (depth capped at 3)
/// for its enclosing non-constant-trip loops.
fn loop_weight(model: &PlanCostModel, depth: usize) -> u64 {
    model.loop_trip.saturating_pow(depth.min(3) as u32)
}

/// Depth of the non-constant-trip loops enclosing each statement of
/// `func`, visited in statement order.
fn for_each_weighted_stmt(func: &Function, mut visit: impl FnMut(&hps_ir::Stmt, usize)) {
    let structure = hps_analysis::StructInfo::compute(func);
    let loops = hps_analysis::LoopInfo::compute(func, &structure);
    hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
        let depth = structure
            .enclosing_loops(stmt.id)
            .iter()
            .filter(|&&l| !loops.loop_at(l).is_some_and(|m| m.trip.is_constant()))
            .count();
        visit(stmt, depth);
    });
}

/// Statically estimates the original program's run cost in model units
/// (used as the prediction baseline when no measurement is attached).
pub fn estimate_base_units(program: &Program, model: &PlanCostModel) -> u64 {
    let mut total = 0u64;
    for func in &program.functions {
        for_each_weighted_stmt(func, |_, depth| {
            total = total.saturating_add(model.stmt_units * loop_weight(model, depth));
        });
    }
    total.max(1)
}

/// The loop-weighted hidden-call sites of open functions: what
/// [`predict`] sums over a split program, and what a trial split of one
/// function contributes to it.
#[derive(Clone, Copy, Default)]
struct CallWeights {
    call_sites: usize,
    in_loop_sites: usize,
    demand: u64,
    deferred: u64,
}

impl CallWeights {
    /// The hidden-call sites of one open function.
    fn of(func: &Function, model: &PlanCostModel) -> CallWeights {
        let mut w = CallWeights::default();
        for_each_weighted_stmt(func, |stmt, depth| {
            if let StmtKind::HiddenCall { deferred, .. } = &stmt.kind {
                w.call_sites += 1;
                if depth > 0 {
                    w.in_loop_sites += 1;
                }
                let weight = loop_weight(model, depth);
                if *deferred {
                    w.deferred = w.deferred.saturating_add(weight);
                } else {
                    w.demand = w.demand.saturating_add(weight);
                }
            }
        });
        w
    }

    fn add(&mut self, other: CallWeights) {
        self.call_sites += other.call_sites;
        self.in_loop_sites += other.in_loop_sites;
        self.demand = self.demand.saturating_add(other.demand);
        self.deferred = self.deferred.saturating_add(other.deferred);
    }

    /// Estimated dynamic round trips, deferred calls coalesced.
    fn interactions(&self, model: &PlanCostModel) -> u64 {
        self.demand + self.deferred.div_ceil(model.batch_factor.max(1))
    }

    /// Estimated extra units: transport plus per-call overhead.
    fn extra_units(&self, model: &PlanCostModel) -> u64 {
        self.interactions(model).saturating_mul(model.rtt_units)
            + (self.demand + self.deferred).saturating_mul(model.call_units)
    }
}

/// Predicts the overhead of a split. `base_units` is the baseline for the
/// percentage: pass a measured original-run cost when available, `None`
/// for the static estimate.
pub fn predict(
    program: &Program,
    split: &SplitResult,
    model: &PlanCostModel,
    base_units: Option<u64>,
) -> PredictedCost {
    let mut w = CallWeights::default();
    for func in &split.open.functions {
        w.add(CallWeights::of(func, model));
    }
    PredictedCost {
        call_sites: w.call_sites,
        in_loop_sites: w.in_loop_sites,
        interactions: w.interactions(model),
        extra_units: w.extra_units(model),
        base_units: base_units.unwrap_or_else(|| estimate_base_units(program, model)),
    }
}

/// One function's chosen seed in an optimized plan.
#[derive(Clone, PartialEq, Debug)]
pub struct SeedChoice {
    /// The split function.
    pub func: FuncId,
    /// Its name (for reports).
    pub func_name: String,
    /// The chosen seed variable.
    pub seed: LocalId,
    /// Its name (for reports).
    pub seed_name: String,
    /// Position in the function's candidate ranking (0 = most secure).
    pub rank: usize,
    /// Number of viable candidates the function had.
    pub n_candidates: usize,
    /// The candidate's maximum ILP arithmetic complexity.
    pub max_ac: Ac,
    /// How many ILPs the candidate's split creates.
    pub n_ilps: usize,
}

/// The plan an [`OptimizeLadder`] stands at.
#[derive(Clone, PartialEq, Debug)]
pub struct OptimizeOutcome {
    /// The plan to split with.
    pub plan: SplitPlan,
    /// Chosen seed per function, in plan order.
    pub choices: Vec<SeedChoice>,
    /// Functions dropped from the plan by downgrade moves (names).
    pub dropped: Vec<String>,
    /// The seed rule actually used.
    pub rule: SeedRule,
    /// Whether the cost-restricted rule found nothing and the search fell
    /// back to the unrestricted §4 rule.
    pub rule_fallback: bool,
    /// Whether a further downgrade level would change the plan.
    pub more_moves: bool,
    /// The downgrade level this outcome realizes.
    pub level: usize,
}

/// The paper pipeline's plan — call-graph-cut function selection plus the
/// best-ranked seed per function — as a [`SplitPlan`]. This is exactly
/// an [`OptimizeLadder`]'s level 0 and the plan behind every pre-existing
/// golden.
pub fn default_targets(program: &Program, rule: SeedRule) -> SplitPlan {
    let selected = select_functions(program);
    let seeds = crate::choose::choose_seeds_all_with(program, &selected, rule);
    SplitPlan::from_targets(
        seeds
            .into_iter()
            .map(|(func, seed)| SplitTarget::Function { func, seed })
            .collect(),
    )
}

/// The downgrade ladder as a reusable value: ranking, per-function
/// position and the contribution memo survive across levels, so a caller
/// walking levels 0, 1, 2, … (the `hps-audit` `Planner`) pays for each
/// candidate's trial split *once*. The ladder also owns the original
/// program's [`OriginalAnalysis`], which its trials read and which the
/// caller may share ([`OptimizeLadder::analysis`]) to grade the splits it
/// makes of the ladder's plans.
pub struct OptimizeLadder<'p> {
    program: &'p Program,
    analysis: OriginalAnalysis<'p>,
    rule: SeedRule,
    rule_fallback: bool,
    model: PlanCostModel,
    ranked: Vec<(FuncId, Vec<SeedCandidate>)>,
    /// Current position per ranked function: `Some(rank)` or `None` once
    /// dropped from the plan.
    pos: Vec<Option<usize>>,
    contrib_memo: HashMap<(usize, usize), u64>,
    dropped: Vec<String>,
    level: usize,
}

impl<'p> OptimizeLadder<'p> {
    /// Ranks every selectable function's seeds (with the cost-restricted →
    /// max-complexity fallback) and positions the ladder at level 0, the
    /// paper pipeline's maximum-security plan.
    pub fn new(program: &'p Program, rule: SeedRule, model: PlanCostModel) -> OptimizeLadder<'p> {
        let analysis = OriginalAnalysis::new(program);
        let selected = select_functions(program);
        let mut used_rule = rule;
        let mut rule_fallback = false;
        let rank_all = |rule: SeedRule| -> Vec<(FuncId, Vec<SeedCandidate>)> {
            selected
                .iter()
                .map(|&f| (f, ranked_seeds_with(&analysis, f, rule)))
                .collect()
        };
        let mut ranked = rank_all(used_rule);
        if ranked.iter().all(|(_, c)| c.is_empty()) && used_rule == SeedRule::CostRestricted {
            used_rule = SeedRule::MaxComplexity;
            rule_fallback = true;
            ranked = rank_all(used_rule);
        }
        ranked.retain(|(_, c)| !c.is_empty());
        let pos = vec![Some(0); ranked.len()];
        OptimizeLadder {
            program,
            analysis,
            rule: used_rule,
            rule_fallback,
            model,
            ranked,
            pos,
            contrib_memo: HashMap::new(),
            dropped: Vec::new(),
            level: 0,
        }
    }

    /// Downgrade levels applied so far.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The original program's analyses, built once for the ladder.
    pub fn analysis(&self) -> &OriginalAnalysis<'p> {
        &self.analysis
    }

    /// Every function with a viable seed and its candidates, best first,
    /// in the order the ladder indexes them.
    pub fn ranked(&self) -> &[(FuncId, Vec<SeedCandidate>)] {
        &self.ranked
    }

    /// Predicted extra units of the `i`th ranked function split on its
    /// candidate at `rank`: what [`predict`] charges for a whole-program
    /// split with that single target, computed from a trial split of the
    /// one function. Memoized for the ladder's lifetime.
    pub fn contribution(&mut self, i: usize, rank: usize) -> u64 {
        if let Some(&c) = self.contrib_memo.get(&(i, rank)) {
            return c;
        }
        let (func, cands) = &self.ranked[i];
        let extra = match split_function(
            self.program,
            *func,
            cands[rank].seed,
            true,
            ComponentId::new(0),
        ) {
            Ok(mut trial) => {
                mark_deferrable_function(&mut trial.func, self.analysis.modref());
                CallWeights::of(&trial.func, &self.model).extra_units(&self.model)
            }
            Err(_) => u64::MAX,
        };
        self.contrib_memo.insert((i, rank), extra);
        extra
    }

    /// Applies one downgrade move: the most expensive still-planned
    /// function (ties: lowest function index) steps to its next-ranked
    /// seed, or is dropped once its candidates are exhausted. Returns
    /// `false` — without counting a level — when no move remains.
    pub fn descend(&mut self) -> bool {
        let mut worst: Option<(u64, usize)> = None;
        for i in 0..self.pos.len() {
            let Some(rank) = self.pos[i] else { continue };
            let c = self.contribution(i, rank);
            if worst.map(|(w, _)| c > w).unwrap_or(true) {
                worst = Some((c, i));
            }
        }
        let Some((_, i)) = worst else { return false };
        let rank = self.pos[i].expect("picked a planned function");
        if rank + 1 < self.ranked[i].1.len() {
            self.pos[i] = Some(rank + 1);
        } else {
            self.pos[i] = None;
            self.dropped
                .push(self.program.func(self.ranked[i].0).name.clone());
        }
        self.level += 1;
        true
    }

    /// The plan and choices at the ladder's current level. Nothing is
    /// split: the caller splits the plan it decides to evaluate.
    ///
    /// `_base_units` is unused; the parameter stays for existing callers.
    pub fn outcome(&self, _base_units: Option<u64>) -> OptimizeOutcome {
        let mut targets = Vec::new();
        let mut choices = Vec::new();
        for (i, p) in self.pos.iter().enumerate() {
            let Some(rank) = *p else { continue };
            let (func, cands) = &self.ranked[i];
            let c = &cands[rank];
            targets.push(SplitTarget::Function {
                func: *func,
                seed: c.seed,
            });
            choices.push(SeedChoice {
                func: *func,
                func_name: self.program.func(*func).name.clone(),
                seed: c.seed,
                seed_name: self.program.func(*func).local(c.seed).name.clone(),
                rank,
                n_candidates: cands.len(),
                max_ac: c.max_ac.clone(),
                n_ilps: c.n_ilps,
            });
        }
        OptimizeOutcome {
            plan: SplitPlan::from_targets(targets),
            choices,
            dropped: self.dropped.clone(),
            rule: self.rule,
            rule_fallback: self.rule_fallback,
            more_moves: self.pos.iter().any(|p| p.is_some()),
            level: self.level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        fn f(x: int, y: int) -> int {
            var a: int = 3 * x + y;
            var b: int = a * a;
            return b;
        }
        fn g(n: int) -> int {
            var t: int = n * 7;
            return t;
        }
        fn main() { print(f(1, 2) + g(3)); }";

    /// The ladder descended `level` times (or until no move remains).
    fn at_level(p: &Program, level: usize) -> OptimizeOutcome {
        let mut ladder = OptimizeLadder::new(p, SeedRule::CostRestricted, PlanCostModel::default());
        for _ in 0..level {
            if !ladder.descend() {
                break;
            }
        }
        ladder.outcome(None)
    }

    #[test]
    fn level_zero_matches_paper_pipeline() {
        let p = hps_lang::parse(SRC).unwrap();
        let out = at_level(&p, 0);
        assert_eq!(out.plan, default_targets(&p, SeedRule::CostRestricted));
        assert!(!out.choices.is_empty());
        assert!(out.choices.iter().all(|c| c.rank == 0));
        assert_eq!(out.level, 0);
    }

    #[test]
    fn ladder_is_deterministic() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let mut held = OptimizeLadder::new(&p, SeedRule::CostRestricted, model.clone());
        for level in 0..6 {
            // A ladder held across levels and a fresh one descended to the
            // same level stand at the same plan.
            assert_eq!(held.outcome(None), at_level(&p, level), "level {level}");
            if !held.descend() {
                break;
            }
        }
    }

    #[test]
    fn levels_eventually_exhaust_moves() {
        let p = hps_lang::parse(SRC).unwrap();
        let mut ladder =
            OptimizeLadder::new(&p, SeedRule::CostRestricted, PlanCostModel::default());
        while ladder.outcome(None).more_moves {
            assert!(ladder.descend());
            assert!(ladder.level() < 64, "downgrade ladder must terminate");
        }
        assert!(ladder.outcome(None).plan.targets.is_empty());
        assert!(!ladder.descend());
    }

    #[test]
    fn prediction_charges_transport() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let out = at_level(&p, 0);
        let split = hps_core::split_program(&p, &out.plan).unwrap();
        let pred = predict(&p, &split, &model, None);
        assert!(pred.call_sites > 0);
        assert!(pred.interactions > 0);
        assert!(pred.extra_units >= pred.interactions * model.rtt_units);
        assert!(pred.base_units > 0);
    }

    #[test]
    fn contribution_is_the_single_target_prediction() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let mut ladder = OptimizeLadder::new(&p, SeedRule::CostRestricted, model.clone());
        for i in 0..ladder.ranked().len() {
            let (func, cands) = ladder.ranked()[i].clone();
            for (rank, c) in cands.iter().enumerate() {
                let plan =
                    SplitPlan::from_targets(vec![SplitTarget::Function { func, seed: c.seed }]);
                let split = hps_core::split_program(&p, &plan).unwrap();
                let whole = predict(&p, &split, &model, Some(1)).extra_units;
                assert_eq!(
                    ladder.contribution(i, rank),
                    whole,
                    "func {func:?} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn calibration_uses_measured_rtt_share() {
        let m = MeasuredCost {
            base_units: 1000,
            split_units: 1500,
            rtt_units: 400,
            server_units: 100,
            interactions: 8,
        };
        let model = PlanCostModel::default().calibrated(&m);
        assert_eq!(model.rtt_units, 50);
        assert!((m.overhead_percent() - 50.0).abs() < 1e-9);
        assert_eq!(m.open_units(), 1000);
    }

    #[test]
    fn calibration_preserves_caller_overrides() {
        let custom = PlanCostModel {
            call_units: 99,
            loop_trip: 5,
            batch_factor: 2,
            stmt_units: 7,
            ..PlanCostModel::default()
        };
        let m = MeasuredCost {
            base_units: 1000,
            split_units: 1500,
            rtt_units: 400,
            server_units: 100,
            interactions: 8,
        };
        let calibrated = custom.calibrated(&m);
        assert_eq!(calibrated.rtt_units, 50, "rtt re-derived from telemetry");
        assert_eq!(
            calibrated,
            PlanCostModel {
                rtt_units: 50,
                ..custom
            },
            "every non-rtt weight survives calibration"
        );
    }
}
