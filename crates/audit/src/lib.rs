//! # hps-audit — split-soundness auditor
//!
//! The splitting transformation promises that the *only* places where hidden
//! state reaches the open component are the declared information leak points
//! (ILPs). This crate checks that promise statically, after the fact, and
//! grades how much the declared leaks actually protect:
//!
//! * **Soundness** (deny-level): an interprocedural taint analysis over the
//!   open/hidden pair proves every hidden-value flow into the open component
//!   passes through a declared ILP. Fragments returning hidden-dependent
//!   values without a declared ILP, direct open references to fully hidden
//!   variables and hidden calls to nonexistent fragments are hard errors —
//!   [`audit`](mod@crate) exit codes treat them as failures.
//! * **Strength** (warn-level): leaks whose §3 complexity is trivially
//!   inverted — Constant or Linear arithmetic complexity, fully open control
//!   flow, no observable inputs — plus promotions that protect nothing and
//!   fragments nothing calls.
//! * **Hygiene** (note-level): fragments that could run openly, fetched
//!   values nobody reads.
//!
//! Findings are [`Diagnostic`]s with stable snake_case lint ids, source
//! spans from `hps-lang`, suggestions and `@allow(lint_id)` suppression;
//! [`render`] turns a report into pretty terminal text, JSON or SARIF.
//!
//! # Examples
//!
//! ```
//! use hps_core::{split_program, SplitPlan};
//!
//! let program = hps_lang::parse(
//!     "fn f(x: int, y: int) -> int { var a: int = 3 * x + y; return a; }
//!      fn main() { print(f(1, 2)); }",
//! )?;
//! let split = split_program(&program, &SplitPlan::single(&program, "f", "a")?)?;
//! let report = hps_audit::audit_split(&program, &split);
//! // The splitter is sound: no deny-level findings …
//! assert_eq!(report.count(hps_audit::Severity::Deny), 0);
//! // … but `a = 3x + y` is a linear leak, which the auditor flags.
//! assert!(report
//!     .diagnostics
//!     .iter()
//!     .any(|d| d.lint.id == "weak_ilp_linear"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod diag;
pub mod flow;
pub mod fragment;
pub mod lints;
pub mod planner;
pub mod render;

pub use diag::{Diagnostic, Lint, Severity, ALL_LINTS};
pub use flow::{LeakLabel, OpenFlow};
pub use fragment::FragmentFacts;
pub use hps_telemetry::json::Json;
pub use planner::{plan_to_json, render_plan, Measurer, PlanError, PlanReport, Planner};

use hps_analysis::ModRef;
use hps_core::SplitResult;
use hps_ir::Program;
use hps_security::SecurityReport;

/// Table 3/4 aggregates embedded in the report, so machine-readable audit
/// output carries the same numbers as `hps analyze`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TableSummary {
    /// Functions sliced (Table 2).
    pub functions_sliced: usize,
    /// Total slice statements (Table 2).
    pub slice_stmts: usize,
    /// Total declared ILPs.
    pub ilps: usize,
    /// ILP counts per arithmetic type in lattice order:
    /// `[Constant, Linear, Polynomial, Rational, Arbitrary]` (Table 3).
    pub counts_by_type: [usize; 5],
    /// Maximum polynomial degree among non-arbitrary ILPs (Table 3).
    pub max_degree: u32,
    /// ILPs with `Paths = variable` (Table 4).
    pub paths_variable: usize,
    /// ILPs with hidden predicates (Table 4).
    pub predicates_hidden: usize,
    /// ILPs with hidden control flow (Table 4).
    pub flow_hidden: usize,
}

/// Flow evidence for one leak label: how far the leaked value spreads
/// through the open component.
#[derive(Clone, PartialEq, Debug)]
pub struct FlowSummary {
    /// The component owning the fragment.
    pub component: usize,
    /// The fragment label.
    pub label: usize,
    /// Whether the splitter declared an ILP for it.
    pub declared: bool,
    /// Open statements the leaked value reaches (explicitly or implicitly).
    pub stmts_reached: usize,
    /// Open functions the leaked value reaches.
    pub funcs_reached: usize,
}

/// The result of auditing one split.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AuditReport {
    /// All findings, most severe first (stable order).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings dropped by `@allow` suppressions.
    pub suppressed: usize,
    /// Table 3/4 aggregates for the declared ILPs.
    pub tables: TableSummary,
    /// Per-leak flow evidence, in (component, label) order.
    pub flows: Vec<FlowSummary>,
}

impl AuditReport {
    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Returns `true` if any deny-level finding survived suppression — the
    /// split is unsound and `hps audit` exits non-zero.
    pub fn has_deny(&self) -> bool {
        self.count(Severity::Deny) > 0
    }
}

/// Audits a split against the program it was produced from.
///
/// `original` must be the pre-split program (ILP statement ids refer to
/// it); `split` the corresponding [`SplitResult`].
pub fn audit_split(original: &Program, split: &SplitResult) -> AuditReport {
    audit_graded(
        original,
        split,
        &hps_security::analyze_split(original, split),
    )
}

/// [`audit_split`] for a caller that has already graded the split:
/// `security` must be `analyze_split(original, split)`.
pub(crate) fn audit_graded(
    original: &Program,
    split: &SplitResult,
    security: &SecurityReport,
) -> AuditReport {
    let facts = fragment::analyze_fragments(&split.hidden.components);
    let declared = lints::declared_ilps(split);
    let mut hidden_frags: Vec<_> = facts
        .values()
        .filter(|f| f.ret_hidden)
        .map(|f| (f.component, f.label))
        .collect();
    hidden_frags.sort();
    // One mod/ref summary of the open program serves the flow analysis
    // and every lint that solves reaching definitions.
    let open_modref = ModRef::compute(&split.open);
    let flow = flow::analyze_open_flow(&split.open, &open_modref, &hidden_frags, &declared);

    let (mut diagnostics, suppressed) = lints::run_all(&lints::LintInput {
        original,
        split,
        facts: &facts,
        flow: &flow,
        open_modref: &open_modref,
        security,
    });
    diagnostics.sort_by(|a, b| {
        (
            std::cmp::Reverse(a.severity),
            &a.func,
            a.span,
            a.lint.id,
            &a.message,
        )
            .cmp(&(
                std::cmp::Reverse(b.severity),
                &b.func,
                b.span,
                b.lint.id,
                &b.message,
            ))
    });

    let tables = TableSummary {
        functions_sliced: split.functions_sliced(),
        slice_stmts: split.total_slice_stmts(),
        ilps: security.total(),
        counts_by_type: security.counts_by_type(),
        max_degree: security.max_degree(),
        paths_variable: security.paths_variable(),
        predicates_hidden: security.predicates_hidden(),
        flow_hidden: security.flow_hidden(),
    };

    let flows = flow
        .labels
        .iter()
        .enumerate()
        .map(|(i, l)| FlowSummary {
            component: l.component.index(),
            label: l.label.index(),
            declared: l.declared,
            stmts_reached: flow.stmts_reached(i),
            funcs_reached: flow.funcs_reached(i),
        })
        .collect();

    AuditReport {
        diagnostics,
        suppressed,
        tables,
        flows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{split_program, SplitPlan};
    use hps_ir::{Expr, LocalId, Place, Stmt, StmtKind};

    fn split_of(src: &str, func: &str, seed: &str) -> (Program, SplitResult) {
        let program = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::single(&program, func, seed).unwrap();
        let split = split_program(&program, &plan).unwrap();
        (program, split)
    }

    const LINEAR: &str = "
        fn f(x: int, y: int) -> int {
            var a: int = 3 * x + y;
            return a;
        }
        fn main() { print(f(1, 2)); }";

    #[test]
    fn sound_split_has_no_deny_findings() {
        let (program, split) = split_of(LINEAR, "f", "a");
        let report = audit_split(&program, &split);
        assert!(!report.has_deny(), "findings: {:#?}", report.diagnostics);
        assert_eq!(report.tables.ilps, split.total_ilps());
    }

    #[test]
    fn linear_leak_is_flagged_weak() {
        let (program, split) = split_of(LINEAR, "f", "a");
        let report = audit_split(&program, &split);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.lint.id == "weak_ilp_linear" && d.severity == Severity::Warn));
    }

    #[test]
    fn constant_leak_is_flagged_weak() {
        let src = "
            fn g(b: int[]) {
                var a: int = 42;
                b[0] = a;
            }
            fn main() { var b: int[] = new int[1]; g(b); print(b[0]); }";
        let (program, split) = split_of(src, "g", "a");
        let report = audit_split(&program, &split);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.lint.id == "weak_ilp_constant"),
            "findings: {:#?}",
            report.diagnostics
        );
        assert!(!report.has_deny());
    }

    #[test]
    fn leaky_split_is_denied() {
        // Corrupt a sound split: append an open statement that copies the
        // hidden fragment's return into an open local through a hidden call
        // that the report does not declare, and one that reads the hidden
        // var directly.
        let (program, mut split) = split_of(LINEAR, "f", "a");
        let report0 = audit_split(&program, &split);
        assert!(!report0.has_deny());

        let fid = split.reports[0].func;
        let component = split.reports[0].component;
        // The hidden var `a` (fully hidden after the split).
        let (hidden_var, fully) = split.reports[0].hidden_vars[0];
        assert!(fully, "test premise: a is fully hidden");
        let hidden_local = hidden_var.as_local().unwrap();

        // A fragment returning hidden state with its declaration erased.
        let label = split.hidden.components[component.index()].fragments[0].label;
        split.reports[0].ilps.clear();

        let func = &mut split.open.functions[fid.index()];
        let tmp = func.add_temp("leak", hps_ir::Ty::Int);
        func.body.stmts.push(Stmt::new(StmtKind::HiddenCall {
            component,
            label,
            args: Vec::new(),
            result: Some(Place::Local(tmp)),
            deferred: false,
        }));
        // Direct open read of the fully hidden variable.
        func.body.stmts.push(Stmt::new(StmtKind::Assign {
            place: Place::Local(tmp),
            value: Expr::local(LocalId::new(hidden_local.index())),
        }));
        func.renumber();

        let report = audit_split(&program, &split);
        assert!(report.has_deny(), "findings: {:#?}", report.diagnostics);
        let ids: Vec<&str> = report.diagnostics.iter().map(|d| d.lint.id).collect();
        assert!(ids.contains(&"undeclared_hidden_flow"), "{ids:?}");
        assert!(ids.contains(&"open_hidden_read"), "{ids:?}");
        // Deny findings sort first.
        assert_eq!(report.diagnostics[0].severity, Severity::Deny);
    }

    #[test]
    fn dangling_call_is_denied() {
        let (program, mut split) = split_of(LINEAR, "f", "a");
        let fid = split.reports[0].func;
        let func = &mut split.open.functions[fid.index()];
        func.body.stmts.push(Stmt::new(StmtKind::HiddenCall {
            component: hps_ir::ComponentId::new(7),
            label: hps_ir::FragLabel::new(9),
            args: Vec::new(),
            result: None,
            deferred: false,
        }));
        func.renumber();
        let report = audit_split(&program, &split);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.lint.id == "dangling_hidden_call" && d.severity == Severity::Deny));
    }

    #[test]
    fn allow_attribute_suppresses_ilp_findings() {
        // Same program, but the ILP statement (the open use of the hidden
        // value) carries @allow for the weak-ILP lints its seed produces.
        let allowed = "
            fn f(x: int, y: int) -> int {
                var a: int = 3 * x + y;
                @allow(weak_ilp_linear, weak_ilp_open_control)
                return a;
            }
            fn main() { print(f(1, 2)); }";
        let (program, split) = split_of(allowed, "f", "a");
        let report = audit_split(&program, &split);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.lint.id == "weak_ilp_linear"),
            "suppressed finding still present: {:#?}",
            report.diagnostics
        );
        assert!(report.suppressed >= 1);
    }

    #[test]
    fn flow_evidence_reports_reached_statements() {
        let (program, split) = split_of(LINEAR, "f", "a");
        let report = audit_split(&program, &split);
        assert!(!report.flows.is_empty());
        for f in &report.flows {
            assert!(f.declared);
            assert!(f.stmts_reached > 0);
        }
    }
}
