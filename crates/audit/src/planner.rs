//! The unified planning facade: seed choice, budget search, hardening,
//! audit and cost prediction behind one builder.
//!
//! [`Planner`] is the `hps-audit` analogue of the runtime's `Executor`
//! builder: where the old API scattered the pipeline across six free
//! functions (`choose_seed*`, `split_program`, `analyze_split`,
//! `audit_split`…), the planner runs them in the right order and returns a
//! single [`PlanReport`]:
//!
//! ```
//! use hps_audit::Planner;
//!
//! let program = hps_lang::parse(
//!     "fn f(x: int, y: int) -> int {
//!          var a: int = 3 * x + y;
//!          var b: int = a * a;
//!          return b;
//!      }
//!      fn main() { print(f(1, 2)); }",
//! )?;
//! let report = Planner::new(&program).harden(true).plan()?;
//! assert!(!report.plan.targets.is_empty());
//! // Hardening *masks* every weak leak on the wire; it cannot raise the
//! // true lattice class (the decoy's inverse sits in the open program),
//! // so the honest adversary-model count is unchanged and the contract
//! // is "no weak leak ships unmasked".
//! assert_eq!(report.weak_after, report.weak_before);
//! assert_eq!(report.masked_after, report.weak_before);
//! assert_eq!(report.weak_unmasked_after(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! With a **budget** and a **measurer** attached, `plan()` closes the
//! loop: it measures the split's real overhead (in the runtime's virtual
//! cost units), calibrates the prediction model from the telemetry cost
//! breakdown, and — when the measured overhead exceeds the budget — walks
//! the optimizer's downgrade ladder (`hps_security::OptimizeLadder`,
//! built once and descended level by level) until the plan fits or no
//! cheaper plan exists. **The measurer runs at every level it visits**
//! (each candidate plan's overhead must be observed, not predicted, for
//! the budget verdict), always on a split of the same program, so it may
//! run the original once and keep its outcome. The post-hardening
//! analysis and the audit run once, on the plan that is returned.

use crate::{audit_graded, AuditReport, Severity};
use hps_core::{harden_split, split_program, HardenReport, SplitError, SplitPlan, SplitResult};
use hps_ir::{ComponentId, FragLabel, Program};
use hps_security::{
    predict, AcType, MeasuredCost, OptimizeLadder, OriginalAnalysis, PlanCostModel, PredictedCost,
    SecurityReport, SeedChoice, SeedRule,
};

/// Why planning failed.
#[derive(Debug)]
pub enum PlanError {
    /// The split transformation itself failed.
    Split(SplitError),
    /// The attached measurer failed (run error, output divergence…).
    Measure(String),
    /// No viable split target exists (explicit targets empty, or no
    /// function has a usable seed under either rule).
    NoTargets,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Split(e) => write!(f, "split failed: {e}"),
            PlanError::Measure(m) => write!(f, "measurement failed: {m}"),
            PlanError::NoTargets => write!(f, "no viable split targets"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SplitError> for PlanError {
    fn from(e: SplitError) -> PlanError {
        PlanError::Split(e)
    }
}

/// A measurement hook: runs the original and split programs on a caller-
/// chosen workload and returns the virtual-cost breakdown. Implementations
/// must also verify output equivalence and report divergence as `Err`.
pub type Measurer<'p> = Box<dyn Fn(&Program, &SplitResult) -> Result<MeasuredCost, String> + 'p>;

/// Everything `plan()` decided and verified, in one place.
///
/// Non-exhaustive: construct with [`PlanReport::default`] plus the setters
/// when building one by hand (tests, fixtures); `Planner::plan` is the
/// normal producer.
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct PlanReport {
    /// The split plan that was executed.
    pub plan: SplitPlan,
    /// The (possibly hardened) split itself.
    pub split: SplitResult,
    /// ILP complexities of the final split.
    pub security: SecurityReport,
    /// Audit findings for the final split.
    pub audit: AuditReport,
    /// Chosen seed per function (empty when explicit targets were given).
    pub choices: Vec<SeedChoice>,
    /// Functions dropped by budget downgrades.
    pub dropped: Vec<String>,
    /// The seed rule that produced the plan.
    pub rule: SeedRule,
    /// Whether the cost-restricted rule found nothing and planning fell
    /// back to the unrestricted §4 rule.
    pub rule_fallback: bool,
    /// What the hardening pass did (empty when hardening was off).
    pub hardening: HardenReport,
    /// Predicted cost of the final split (model calibrated from the
    /// measurement when one ran).
    pub predicted_cost: PredictedCost,
    /// Measured cost breakdown, when a measurer was attached.
    pub measured: Option<MeasuredCost>,
    /// The budget, as given.
    pub budget_percent: Option<f64>,
    /// Downgrade levels the budget search applied (0 = maximum security).
    pub downgrades: usize,
    /// AC-lattice histogram `[Constant, Linear, Polynomial, Rational,
    /// Arbitrary]` before hardening…
    pub lattice_before: [usize; 5],
    /// …and after. Hardening cannot move this histogram: the decoy mask
    /// is exactly invertible with the open program, so the adversary-model
    /// class of every leak is unchanged (see `hps_core::harden`).
    pub lattice_after: [usize; 5],
    /// The *wire-observer* histogram of the final split: masked ILPs
    /// count by their wire expression's class, everything else by its
    /// true class. Only an eavesdropper without the open program faces
    /// this view.
    pub lattice_wire: [usize; 5],
    /// Weak (`Constant`/`Linear`) ILPs before hardening…
    pub weak_before: usize,
    /// …and after. Hardening masks weak leaks on the wire but does not
    /// remove them, so with hardening on this normally *equals*
    /// [`PlanReport::weak_before`]; the contract is
    /// [`PlanReport::weak_unmasked_after`]` == 0`.
    pub weak_after: usize,
    /// Of the weak ILPs after planning, how many ship decoy-masked.
    pub masked_after: usize,
    /// Whether the final overhead (measured when available, else
    /// predicted) fits the budget; `None` without a budget.
    pub within_budget: Option<bool>,
}

impl PlanReport {
    /// Builder setter for [`PlanReport::plan`].
    pub fn with_plan(mut self, plan: SplitPlan) -> PlanReport {
        self.plan = plan;
        self
    }

    /// Builder setter for [`PlanReport::budget_percent`].
    pub fn with_budget_percent(mut self, pct: Option<f64>) -> PlanReport {
        self.budget_percent = pct;
        self
    }

    /// Builder setter for [`PlanReport::measured`].
    pub fn with_measured(mut self, measured: Option<MeasuredCost>) -> PlanReport {
        self.measured = measured;
        self
    }

    /// The overhead percentage the budget verdict is based on: measured
    /// when a measurer ran, otherwise predicted.
    pub fn overhead_percent(&self) -> f64 {
        self.measured
            .as_ref()
            .map(|m| m.overhead_percent())
            .unwrap_or_else(|| self.predicted_cost.overhead_percent())
    }

    /// Weak `weak_ilp_constant` + `weak_ilp_linear` findings surviving in
    /// the audit (post-suppression), the CI gate's criterion. Masked weak
    /// leaks are reported as note-level `masked_weak_ilp` instead and do
    /// not count here.
    pub fn weak_lints(&self) -> usize {
        self.audit
            .diagnostics
            .iter()
            .filter(|d| d.lint.id == "weak_ilp_constant" || d.lint.id == "weak_ilp_linear")
            .count()
    }

    /// Weak ILPs that ship *unmasked* — the honest hardening contract and
    /// the CI gate's criterion. A masked leak is still weak against the
    /// full adversary (who holds the open-side decode), but it never
    /// travels in the clear; an unmasked weak leak has no excuse.
    pub fn weak_unmasked_after(&self) -> usize {
        self.weak_after.saturating_sub(self.masked_after)
    }
}

fn weak_groups(security: &SecurityReport) -> Vec<(ComponentId, FragLabel)> {
    let mut groups: Vec<(ComponentId, FragLabel)> = security
        .iter()
        .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
        .map(|c| (c.ilp.component, c.ilp.label))
        .collect();
    groups.sort();
    groups.dedup();
    groups
}

fn weak_count(security: &SecurityReport) -> usize {
    security
        .iter()
        .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
        .count()
}

/// The unified planning builder. See the [module docs](self) for the
/// pipeline it runs.
pub struct Planner<'p> {
    program: &'p Program,
    rule: SeedRule,
    budget: Option<f64>,
    harden: bool,
    targets: Option<SplitPlan>,
    model: Option<PlanCostModel>,
    measurer: Option<Measurer<'p>>,
}

impl<'p> Planner<'p> {
    /// Starts planning for `program` with the defaults: cost-restricted
    /// seed rule, no budget, no hardening, automatic target selection, no
    /// measurement.
    pub fn new(program: &'p Program) -> Planner<'p> {
        Planner {
            program,
            rule: SeedRule::default(),
            budget: None,
            harden: false,
            targets: None,
            model: None,
            measurer: None,
        }
    }

    /// Sets the seed-selection rule (default: [`SeedRule::CostRestricted`]).
    pub fn rule(mut self, rule: SeedRule) -> Planner<'p> {
        self.rule = rule;
        self
    }

    /// Sets the overhead budget in percent. With a budget, `plan()` walks
    /// the optimizer's downgrade ladder until the overhead fits (or no
    /// cheaper plan exists — inspect [`PlanReport::within_budget`]).
    pub fn budget(mut self, percent: f64) -> Planner<'p> {
        self.budget = Some(percent);
        self
    }

    /// Enables the auto-hardening pass: fragments feeding `Constant` or
    /// `Linear` ILPs are rewritten with decoy computation and a hidden
    /// predicate (see `hps_core::harden`), then re-audited.
    pub fn harden(mut self, harden: bool) -> Planner<'p> {
        self.harden = harden;
        self
    }

    /// Plans with explicit targets instead of automatic seed selection.
    /// Disables the budget downgrade ladder (the plan is fixed), but
    /// budget verification, hardening and measurement still run.
    pub fn targets(mut self, plan: SplitPlan) -> Planner<'p> {
        self.targets = Some(plan);
        self
    }

    /// Overrides the cost model used for prediction (default: LAN-tuned
    /// [`PlanCostModel::default`], re-calibrated from the measurement when
    /// a measurer is attached).
    pub fn cost_model(mut self, model: PlanCostModel) -> Planner<'p> {
        self.model = Some(model);
        self
    }

    /// Attaches a measurement hook (see [`Measurer`]). The planner calls
    /// it for every candidate plan the budget search tries, always with
    /// this planner's program; keep the workload small.
    pub fn measure_with(
        mut self,
        f: impl Fn(&Program, &SplitResult) -> Result<MeasuredCost, String> + 'p,
    ) -> Planner<'p> {
        self.measurer = Some(Box::new(f));
        self
    }

    /// Runs the pipeline: resolve targets → split → analyze → harden →
    /// measure → verify budget, downgrading the plan and repeating while a
    /// budget is exceeded and cheaper plans exist → re-analyze and audit
    /// the plan it returns.
    ///
    /// The downgrade search holds one [`OptimizeLadder`], so the seed
    /// ranking and the per-candidate contribution memo are built once and
    /// reused at every level. Its trials split one function each, and the
    /// original program's analyses ([`OriginalAnalysis`]) are built once
    /// per plan: the ladder's trials, each level's pre-hardening analysis
    /// and the final analysis and audit all read the same one. A level
    /// costs only what its budget verdict reads: one split, the analysis
    /// hardening needs, and (with a measurer) one measurement.
    pub fn plan(self) -> Result<PlanReport, PlanError> {
        // The ladder is bounded by the total number of candidate moves;
        // 64 is far above any real program in the suite and a backstop
        // against a non-converging search.
        const MAX_LEVELS: usize = 64;
        let base_model = self.model.clone().unwrap_or_default();

        // Explicit targets: the plan is fixed, no ladder.
        if let Some(plan) = &self.targets {
            if plan.targets.is_empty() {
                return Err(PlanError::NoTargets);
            }
            let mut report = PlanReport {
                budget_percent: self.budget,
                ..PlanReport::default()
            };
            report.plan = plan.clone();
            report.rule = self.rule;
            let analysis = OriginalAnalysis::new(self.program);
            let report = self.level(report, &base_model, &analysis)?;
            return Ok(self.conclude(report, &analysis));
        }

        let mut ladder = OptimizeLadder::new(self.program, self.rule, base_model.clone());
        loop {
            let outcome = ladder.outcome(None);
            if outcome.plan.targets.is_empty() && outcome.level == 0 {
                return Err(PlanError::NoTargets);
            }
            let mut report = PlanReport {
                budget_percent: self.budget,
                downgrades: outcome.level,
                ..PlanReport::default()
            };
            report.plan = outcome.plan;
            report.choices = outcome.choices;
            report.dropped = outcome.dropped;
            report.rule = outcome.rule;
            report.rule_fallback = outcome.rule_fallback;
            let report = self.level(report, &base_model, ladder.analysis())?;
            let over = report.within_budget == Some(false);
            if !over || ladder.level() + 1 >= MAX_LEVELS || !ladder.descend() {
                return Ok(self.conclude(report, ladder.analysis()));
            }
        }
    }

    /// One ladder level for an already-resolved plan: split, harden,
    /// measure, predict, verdict.
    fn level(
        &self,
        mut report: PlanReport,
        base_model: &PlanCostModel,
        analysis: &OriginalAnalysis<'_>,
    ) -> Result<PlanReport, PlanError> {
        let program = self.program;

        // 2. Split, then harden the fragments that feed weak ILPs. Only
        //    hardening needs the unhardened analysis at every level.
        let mut split = split_program(program, &report.plan)?;
        if self.harden {
            let before = analysis.analyze_split(&split);
            report.lattice_before = before.counts_by_type();
            report.weak_before = weak_count(&before);
            report.hardening = harden_split(&mut split, &weak_groups(&before));
        }

        // 3. Measure (when a hook is attached) and predict with the
        //    calibrated model. Calibration starts from the caller's model
        //    so only the round-trip weight is replaced by telemetry.
        report.measured = match &self.measurer {
            Some(m) => Some(m(program, &split).map_err(PlanError::Measure)?),
            None => None,
        };
        let (model, base_units) = match &report.measured {
            Some(m) => (base_model.calibrated(m), Some(m.base_units)),
            None => (base_model.clone(), None),
        };
        report.predicted_cost = predict(program, &split, &model, base_units);
        report.split = split;

        // 4. Budget verdict: measured overhead when available, predicted
        //    otherwise.
        report.within_budget = self.budget.map(|b| report.overhead_percent() <= b);
        Ok(report)
    }

    /// Analyzes and audits the split the search settled on, so the
    /// security and audit views describe what actually ships. Masking does
    /// not change any ILP's adversary-model class — the analysis keeps
    /// grading the underlying leak — so `weak_after` stays equal to
    /// `weak_before`; what changes is that the weak leaks now ship masked
    /// (`masked_after`) and the audit downgrades their warnings to
    /// `masked_weak_ilp` notes.
    fn conclude(&self, mut report: PlanReport, analysis: &OriginalAnalysis<'_>) -> PlanReport {
        report.security = analysis.analyze_split(&report.split);
        report.lattice_after = report.security.counts_by_type();
        report.lattice_wire = report.security.counts_by_wire_type();
        report.weak_after = weak_count(&report.security);
        report.masked_after = report
            .weak_after
            .saturating_sub(report.security.weak_unmasked());
        if !self.harden {
            // Nothing was rewritten: the split is its own "before".
            report.lattice_before = report.lattice_after;
            report.weak_before = report.weak_after;
        }
        report.audit = audit_graded(self.program, &report.split, &report.security);
        report
    }
}

/// Renders a plan report as the human-readable text `hps split` prints.
pub fn render_plan(report: &PlanReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "plan: {} target(s)", report.plan.targets.len());
    let _ = writeln!(
        out,
        "  rule: {}{}",
        rule_name(report.rule),
        if report.rule_fallback {
            " (fallback from cost_restricted)"
        } else {
            ""
        }
    );
    if let Some(b) = report.budget_percent {
        let _ = writeln!(out, "  budget: {b:.1}%");
    }
    if report.downgrades > 0 {
        let _ = writeln!(out, "  downgrades applied: {}", report.downgrades);
    }
    for c in &report.choices {
        let _ = writeln!(
            out,
            "  seed {}.{} (rank {}/{}, max AC {}, {} ILPs)",
            c.func_name,
            c.seed_name,
            c.rank + 1,
            c.n_candidates,
            c.max_ac.ty,
            c.n_ilps
        );
    }
    for d in &report.dropped {
        let _ = writeln!(out, "  dropped: {d} (budget)");
    }
    let h = &report.hardening;
    if !h.applied.is_empty() || !h.skipped.is_empty() {
        let _ = writeln!(
            out,
            "hardening: {} fragment(s) rewritten at {} call site(s), {} skipped",
            h.applied.len(),
            h.total_sites(),
            h.skipped.len()
        );
        for a in &h.applied {
            let _ = writeln!(
                out,
                "  c{} f{}: {} ({} sites, {} ILPs)",
                a.component.index(),
                a.label.index(),
                a.kind.name(),
                a.call_sites,
                a.ilps
            );
        }
        for s in &h.skipped {
            let _ = writeln!(
                out,
                "  c{} f{}: skipped — {}",
                s.component.index(),
                s.label.index(),
                s.reason
            );
        }
    }
    let _ = writeln!(
        out,
        "lattice before: {}  after: {}",
        lattice_line(&report.lattice_before),
        lattice_line(&report.lattice_after)
    );
    if report.masked_after > 0 {
        let _ = writeln!(
            out,
            "lattice (wire-only observer): {}",
            lattice_line(&report.lattice_wire)
        );
    }
    let _ = writeln!(
        out,
        "weak ILPs: {} -> {} ({} masked on the wire, {} unmasked)",
        report.weak_before,
        report.weak_after,
        report.masked_after,
        report.weak_unmasked_after()
    );
    let p = &report.predicted_cost;
    let _ = writeln!(
        out,
        "predicted: {} call site(s) ({} in loops), ~{} interaction(s), overhead {:.2}%",
        p.call_sites,
        p.in_loop_sites,
        p.interactions,
        p.overhead_percent()
    );
    if let Some(m) = &report.measured {
        let _ = writeln!(
            out,
            "measured: base {} units, split {} units (rtt {}, server {}, open {}), {} interaction(s), overhead {:.2}%",
            m.base_units,
            m.split_units,
            m.rtt_units,
            m.server_units,
            m.open_units(),
            m.interactions,
            m.overhead_percent()
        );
    }
    let _ = writeln!(
        out,
        "audit: {} deny, {} warn, {} note ({} suppressed)",
        report.audit.count(Severity::Deny),
        report.audit.count(Severity::Warn),
        report.audit.count(Severity::Note),
        report.audit.suppressed
    );
    if let Some(w) = report.within_budget {
        let _ = writeln!(
            out,
            "budget verdict: {}",
            if w { "WITHIN" } else { "EXCEEDED" }
        );
    }
    out
}

fn rule_name(rule: SeedRule) -> &'static str {
    match rule {
        SeedRule::CostRestricted => "cost_restricted",
        SeedRule::MaxComplexity => "max_complexity",
    }
}

fn lattice_line(counts: &[usize; 5]) -> String {
    format!(
        "C={} L={} P={} R={} A={}",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    )
}

/// Serializes a plan report as deterministic JSON (schema `hps-plan/v2`)
/// for golden files and CI artifacts. Program dumps are excluded; floats
/// are fixed to two decimals so the bytes are stable across platforms.
///
/// v2 adds the honest masking fields: `masked_after`,
/// `weak_unmasked_after` and the wire-observer histogram `lattice_wire`
/// (`weak_after` now reports the adversary-model count, which hardening
/// does not change).
pub fn plan_to_json(report: &PlanReport) -> crate::Json {
    use crate::Json;
    let lattice = |c: &[usize; 5]| {
        Json::object()
            .field("constant", c[0])
            .field("linear", c[1])
            .field("polynomial", c[2])
            .field("rational", c[3])
            .field("arbitrary", c[4])
    };
    let choices: Vec<Json> = report
        .choices
        .iter()
        .map(|c| {
            Json::object()
                .field("func", c.func_name.as_str())
                .field("seed", c.seed_name.as_str())
                .field("rank", c.rank)
                .field("candidates", c.n_candidates)
                .field("max_ac", c.max_ac.ty.name())
                .field("ilps", c.n_ilps)
        })
        .collect();
    let applied: Vec<Json> = report
        .hardening
        .applied
        .iter()
        .map(|a| {
            Json::object()
                .field("component", a.component.index())
                .field("fragment", a.label.index())
                .field("kind", a.kind.name())
                .field("call_sites", a.call_sites)
                .field("ilps", a.ilps)
        })
        .collect();
    let skipped: Vec<Json> = report
        .hardening
        .skipped
        .iter()
        .map(|s| {
            Json::object()
                .field("component", s.component.index())
                .field("fragment", s.label.index())
                .field("reason", s.reason.as_str())
        })
        .collect();
    let p = &report.predicted_cost;
    let predicted = Json::object()
        .field("call_sites", p.call_sites)
        .field("in_loop_sites", p.in_loop_sites)
        .field("interactions", Json::Int(p.interactions as i64))
        .field("extra_units", Json::Int(p.extra_units as i64))
        .field("base_units", Json::Int(p.base_units as i64))
        .field("overhead_percent", format!("{:.2}", p.overhead_percent()));
    let measured = match &report.measured {
        Some(m) => Json::object()
            .field("base_units", Json::Int(m.base_units as i64))
            .field("split_units", Json::Int(m.split_units as i64))
            .field("rtt_units", Json::Int(m.rtt_units as i64))
            .field("server_units", Json::Int(m.server_units as i64))
            .field("open_units", Json::Int(m.open_units() as i64))
            .field("interactions", Json::Int(m.interactions as i64))
            .field("overhead_percent", format!("{:.2}", m.overhead_percent())),
        None => Json::Null,
    };
    Json::object()
        .field("schema", "hps-plan/v2")
        .field(
            "budget_percent",
            match report.budget_percent {
                Some(b) => Json::Str(format!("{b:.2}")),
                None => Json::Null,
            },
        )
        .field("rule", rule_name(report.rule))
        .field("rule_fallback", report.rule_fallback)
        .field("downgrades", report.downgrades)
        .field("targets", report.plan.targets.len())
        .field("choices", choices)
        .field(
            "dropped",
            report
                .dropped
                .iter()
                .map(|d| Json::Str(d.clone()))
                .collect::<Vec<_>>(),
        )
        .field(
            "hardening",
            Json::object()
                .field("applied", applied)
                .field("skipped", skipped),
        )
        .field("lattice_before", lattice(&report.lattice_before))
        .field("lattice_after", lattice(&report.lattice_after))
        .field("lattice_wire", lattice(&report.lattice_wire))
        .field("weak_before", report.weak_before)
        .field("weak_after", report.weak_after)
        .field("masked_after", report.masked_after)
        .field("weak_unmasked_after", report.weak_unmasked_after())
        .field("predicted", predicted)
        .field("measured", measured)
        .field(
            "within_budget",
            match report.within_budget {
                Some(w) => Json::Bool(w),
                None => Json::Null,
            },
        )
        .field(
            "audit",
            Json::object()
                .field("deny", report.audit.count(Severity::Deny))
                .field("warn", report.audit.count(Severity::Warn))
                .field("note", report.audit.count(Severity::Note))
                .field("suppressed", report.audit.suppressed)
                .field("weak_lints", report.weak_lints()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit_split;
    use hps_security::analyze_split;

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

    #[test]
    fn planner_defaults_match_free_function_pipeline() {
        let p = hps_lang::parse(SRC).unwrap();
        let report = Planner::new(&p).plan().unwrap();
        let manual_plan = hps_security::default_targets(&p, SeedRule::CostRestricted);
        assert_eq!(report.plan, manual_plan);
        let manual_split = split_program(&p, &manual_plan).unwrap();
        assert_eq!(report.split.open, manual_split.open);
        assert_eq!(
            report.audit,
            crate::audit_split(&p, &manual_split),
            "audit of the unhardened plan matches the free-function path"
        );
        assert!(report.hardening.applied.is_empty());
        assert_eq!(report.lattice_before, report.lattice_after);
    }

    #[test]
    fn hardening_masks_weak_ilps_and_is_reflected_in_audit() {
        let p = hps_lang::parse(SRC).unwrap();
        let report = Planner::new(&p).harden(true).plan().unwrap();
        assert!(report.weak_before > 0, "premise: g leaks a linear value");
        // Masking cannot change the adversary-model class: the weak leaks
        // are all still there, but every one of them ships masked, the
        // warn-level lints become `masked_weak_ilp` notes, and none
        // travels in the clear.
        assert_eq!(report.weak_after, report.weak_before);
        assert_eq!(report.masked_after, report.weak_before);
        assert_eq!(report.weak_unmasked_after(), 0);
        assert_eq!(report.weak_lints(), 0);
        assert!(report
            .audit
            .diagnostics
            .iter()
            .any(|d| d.lint.id == "masked_weak_ilp"));
        assert!(!report.hardening.applied.is_empty());
        // The hardened split still passes the soundness audit.
        assert!(!report.audit.has_deny());
    }

    #[test]
    fn explicit_targets_skip_seed_search() {
        let p = hps_lang::parse(SRC).unwrap();
        let plan = SplitPlan::single(&p, "f", "a").unwrap();
        let report = Planner::new(&p).targets(plan.clone()).plan().unwrap();
        assert_eq!(report.plan, plan);
        assert!(report.choices.is_empty());
    }

    #[test]
    fn budget_with_measurer_downgrades_until_it_fits() {
        let p = hps_lang::parse(SRC).unwrap();
        // A synthetic measurer that charges heavily per target: forces the
        // ladder to shrink the plan.
        let report = Planner::new(&p)
            .budget(10.0)
            .measure_with(|_prog, split| {
                Ok(MeasuredCost {
                    base_units: 1000,
                    split_units: 1000 + 300 * split.reports.len() as u64,
                    rtt_units: 100,
                    server_units: 50,
                    interactions: 4,
                })
            })
            .plan()
            .unwrap();
        // 2 targets => 60% overhead; 1 => 30%; 0 targets => 0%.
        assert_eq!(report.within_budget, Some(true));
        assert!(report.downgrades > 0);
        assert!(report.plan.targets.len() < 2);
    }

    #[test]
    fn final_analysis_and_audit_describe_the_returned_split() {
        let p = hps_lang::parse(SRC).unwrap();
        let calls = std::cell::Cell::new(0);
        // 2 split functions => 60% overhead, 1 => 30%: a 35% budget forces
        // at least one downgrade and keeps one hardened target.
        let report = Planner::new(&p)
            .harden(true)
            .budget(35.0)
            .measure_with(|_prog, split| {
                calls.set(calls.get() + 1);
                Ok(MeasuredCost {
                    base_units: 1000,
                    split_units: 1000 + 300 * split.reports.len() as u64,
                    rtt_units: 100,
                    server_units: 50,
                    interactions: 4,
                })
            })
            .plan()
            .unwrap();
        assert!(report.downgrades > 0);
        assert_eq!(report.plan.targets.len(), 1);
        assert!(!report.hardening.applied.is_empty());
        assert_eq!(calls.get(), report.downgrades + 1);
        assert_eq!(report.audit, audit_split(&p, &report.split));
        assert_eq!(report.security, analyze_split(&p, &report.split));
        assert_eq!(report.lattice_after, report.security.counts_by_type());
        assert_eq!(report.weak_after, weak_count(&report.security));
    }

    #[test]
    fn caller_cost_model_survives_measurement_calibration() {
        let p = hps_lang::parse(SRC).unwrap();
        let measurer = |_: &Program, _: &SplitResult| {
            Ok(MeasuredCost {
                base_units: 1000,
                split_units: 1100,
                rtt_units: 40,
                server_units: 30,
                interactions: 2,
            })
        };
        let default_pred = Planner::new(&p)
            .measure_with(measurer)
            .plan()
            .unwrap()
            .predicted_cost;
        let mut model = PlanCostModel::default();
        model.call_units *= 10;
        let custom_pred = Planner::new(&p)
            .cost_model(model)
            .measure_with(measurer)
            .plan()
            .unwrap()
            .predicted_cost;
        assert!(
            custom_pred.extra_units > default_pred.extra_units,
            "the caller's call_units weight must survive calibration: {} vs {}",
            custom_pred.extra_units,
            default_pred.extra_units
        );
    }

    #[test]
    fn json_and_text_render() {
        let p = hps_lang::parse(SRC).unwrap();
        let report = Planner::new(&p).harden(true).budget(50.0).plan().unwrap();
        let json = plan_to_json(&report).pretty();
        assert!(json.contains("\"schema\": \"hps-plan/v2\""));
        assert!(json.contains("\"weak_unmasked_after\": 0"));
        assert!(json.contains("\"masked_after\""));
        assert!(json.contains("\"lattice_wire\""));
        let text = render_plan(&report);
        assert!(text.contains("weak ILPs:"));
        assert!(text.contains("masked on the wire"));
        // Deterministic across runs.
        let again = Planner::new(&p).harden(true).budget(50.0).plan().unwrap();
        assert_eq!(plan_to_json(&again).pretty(), json);
    }

    #[test]
    fn measurer_errors_propagate() {
        let p = hps_lang::parse(SRC).unwrap();
        let err = Planner::new(&p)
            .measure_with(|_, _| Err("outputs diverged".into()))
            .plan()
            .unwrap_err();
        assert!(matches!(err, PlanError::Measure(_)), "{err}");
    }
}
