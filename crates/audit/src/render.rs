//! Report renderers: pretty terminal text, plain JSON and SARIF 2.1.0.
//!
//! Both machine-readable formats are schema-stable — keys are emitted in a
//! fixed order by the hand-rolled [`Json`] writer, so golden files and CI
//! artifacts diff byte-for-byte across runs.

use crate::diag::{Diagnostic, Severity, ALL_LINTS};
use crate::AuditReport;
use crate::Json;
use std::fmt::Write;

/// Version tag embedded in the plain-JSON report.
pub const JSON_SCHEMA: &str = "hps-audit/v1";

/// Renders a report as human-readable terminal text.
pub fn render_pretty(report: &AuditReport, program: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audit {program}: {} deny, {} warn, {} note ({} suppressed)",
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.count(Severity::Note),
        report.suppressed,
    );
    for d in &report.diagnostics {
        let _ = writeln!(out, "  {d}");
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "      help: {s}");
        }
    }
    if !report.flows.is_empty() {
        let _ = writeln!(out, "hidden-value flows into the open component:");
        for f in &report.flows {
            let _ = writeln!(
                out,
                "  C{}.L{}: {} — reaches {} stmt(s) in {} function(s)",
                f.component,
                f.label,
                if f.declared {
                    "declared ILP"
                } else {
                    "UNDECLARED"
                },
                f.stmts_reached,
                f.funcs_reached,
            );
        }
    }
    let t = &report.tables;
    let _ = writeln!(
        out,
        "ilps: {} total (constant {}, linear {}, polynomial {}, rational {}, \
         arbitrary {}), max degree {}",
        t.ilps,
        t.counts_by_type[0],
        t.counts_by_type[1],
        t.counts_by_type[2],
        t.counts_by_type[3],
        t.counts_by_type[4],
        t.max_degree,
    );
    let _ = writeln!(
        out,
        "cc: paths-variable {}, predicates-hidden {}, flow-hidden {}",
        t.paths_variable, t.predicates_hidden, t.flow_hidden,
    );
    let verdict = if report.has_deny() {
        "DENY (split is unsound)"
    } else {
        "PASS"
    };
    let _ = writeln!(out, "verdict: {verdict}");
    out
}

/// Renders a report as the plain-JSON schema (`hps-audit/v1`).
pub fn to_json(report: &AuditReport, program: &str) -> Json {
    let t = &report.tables;
    Json::object()
        .field("schema", JSON_SCHEMA)
        .field("program", program)
        .field(
            "summary",
            Json::object()
                .field("deny", report.count(Severity::Deny))
                .field("warn", report.count(Severity::Warn))
                .field("note", report.count(Severity::Note))
                .field("suppressed", report.suppressed),
        )
        .field(
            "tables",
            Json::object()
                .field("functions_sliced", t.functions_sliced)
                .field("slice_stmts", t.slice_stmts)
                .field("ilps", t.ilps)
                .field(
                    "counts_by_type",
                    Json::object()
                        .field("constant", t.counts_by_type[0])
                        .field("linear", t.counts_by_type[1])
                        .field("polynomial", t.counts_by_type[2])
                        .field("rational", t.counts_by_type[3])
                        .field("arbitrary", t.counts_by_type[4]),
                )
                .field("max_degree", t.max_degree)
                .field("paths_variable", t.paths_variable)
                .field("predicates_hidden", t.predicates_hidden)
                .field("flow_hidden", t.flow_hidden),
        )
        .field(
            "flows",
            Json::Array(
                report
                    .flows
                    .iter()
                    .map(|f| {
                        Json::object()
                            .field("component", f.component)
                            .field("label", f.label)
                            .field("declared", f.declared)
                            .field("stmts_reached", f.stmts_reached)
                            .field("funcs_reached", f.funcs_reached)
                    })
                    .collect(),
            ),
        )
        .field(
            "diagnostics",
            Json::Array(report.diagnostics.iter().map(diagnostic_json).collect()),
        )
}

/// Version tag embedded in the effects report (`hps audit --effects`).
pub const EFFECTS_JSON_SCHEMA: &str = "hps-audit-effects/v1";

/// Renders the split's effect facts as schema-stable JSON: the per-fragment
/// summaries of its hidden program, plus an interprocedural
/// [`EffectAnalysis`](hps_analysis::EffectAnalysis) of the original program against the globals the split
/// hides. Keys and array orders are fixed, so golden files diff
/// byte-for-byte.
pub fn effects_to_json(
    original: &hps_ir::Program,
    split: &hps_core::SplitResult,
    program: &str,
) -> Json {
    use hps_analysis::{CallGraph, Effect, EffectAnalysis, FragmentEffects, ModRef};

    let effects = &FragmentEffects::compute(&split.hidden);
    let fragments: Vec<Json> = split
        .hidden
        .components
        .iter()
        .enumerate()
        .flat_map(|(ci, component)| {
            component.fragments.iter().enumerate().map(move |(pos, f)| {
                let effect = effects.effect(ci, pos).unwrap_or_default();
                Json::object()
                    .field("component", component.id.index())
                    .field("label", f.label.index())
                    .field("entity", component.entity_name())
                    .field("effect", effect.name())
                    .field("memoizable", effect.is_memoizable())
            })
        })
        .collect();

    // Interprocedural view of the *original* program: which functions
    // read/write the hidden globals, and which carry trap sources.
    let hidden_globals: std::collections::BTreeSet<_> = split
        .hidden
        .components
        .iter()
        .filter_map(|c| match &c.kind {
            hps_ir::ComponentKind::Global { global_name } => original.global_by_name(global_name),
            _ => None,
        })
        .collect();
    let cg = CallGraph::build(original);
    let modref = ModRef::compute(original);
    let ea = EffectAnalysis::compute(original, &cg, &modref, &hidden_globals);
    let functions: Vec<Json> = original
        .functions
        .iter()
        .enumerate()
        .map(|(i, func)| {
            let fid = hps_ir::FuncId::new(i);
            Json::object()
                .field("name", func.name.clone())
                .field("local", ea.local_effect(fid).name())
                .field("effect", ea.effect(fid).name())
        })
        .collect();

    Json::object()
        .field("schema", EFFECTS_JSON_SCHEMA)
        .field("program", program)
        .field(
            "summary",
            Json::object()
                .field("fragments", effects.total())
                .field("pure", effects.count(Effect::Pure))
                .field("reads_hidden", effects.count(Effect::ReadsHidden))
                .field("writes_hidden", effects.count(Effect::WritesHidden))
                .field("may_trap", effects.count(Effect::MayTrap))
                .field("memoizable", effects.count(Effect::Pure))
                .field("fixpoint_iterations", ea.iterations()),
        )
        .field("fragments", Json::Array(fragments))
        .field("functions", Json::Array(functions))
}

fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::object()
        .field("lint", d.lint.id)
        .field("severity", d.severity.as_str())
        .field(
            "func",
            d.func.as_ref().map_or(Json::Null, |f| Json::str(f.clone())),
        )
        .field("line", d.span.line)
        .field("col", d.span.col)
        .field("message", d.message.clone())
        .field(
            "suggestion",
            d.suggestion
                .as_ref()
                .map_or(Json::Null, |s| Json::str(s.clone())),
        )
}

/// Renders a report as a minimal SARIF 2.1.0 log with a single run.
///
/// `artifact` is the URI recorded for every result's location (the audited
/// source file).
pub fn to_sarif(report: &AuditReport, artifact: &str) -> Json {
    let rules = ALL_LINTS
        .iter()
        .map(|lint| {
            Json::object()
                .field("id", lint.id)
                .field(
                    "shortDescription",
                    Json::object().field("text", lint.summary),
                )
                .field(
                    "defaultConfiguration",
                    Json::object().field("level", lint.severity.sarif_level()),
                )
        })
        .collect::<Vec<_>>();

    let results = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::object()
                .field("ruleId", d.lint.id)
                .field("level", d.severity.sarif_level())
                .field("message", Json::object().field("text", d.message.clone()))
                .field(
                    "locations",
                    vec![Json::object().field(
                        "physicalLocation",
                        Json::object()
                            .field("artifactLocation", Json::object().field("uri", artifact))
                            .field(
                                "region",
                                Json::object()
                                    // SARIF regions are 1-based; synthetic
                                    // spans (0:0) clamp to 1:1.
                                    .field("startLine", d.span.line.max(1))
                                    .field("startColumn", d.span.col.max(1)),
                            ),
                    )],
                )
        })
        .collect::<Vec<_>>();

    Json::object()
        .field("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
        .field("version", "2.1.0")
        .field(
            "runs",
            vec![Json::object()
                .field(
                    "tool",
                    Json::object().field(
                        "driver",
                        Json::object()
                            .field("name", "hps-audit")
                            .field("rules", Json::Array(rules)),
                    ),
                )
                .field("results", Json::Array(results))],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{DANGLING_HIDDEN_CALL, WEAK_ILP_LINEAR};
    use crate::{FlowSummary, TableSummary};
    use hps_ir::Span;

    fn sample() -> AuditReport {
        AuditReport {
            diagnostics: vec![
                Diagnostic::new(&DANGLING_HIDDEN_CALL, "no fragment L9 in C7")
                    .in_func("main")
                    .at(Span { line: 4, col: 2 }),
                Diagnostic::new(&WEAK_ILP_LINEAR, "leak of a is linear")
                    .in_func("f")
                    .at(Span { line: 2, col: 5 })
                    .suggest("recompute a from hidden-only inputs"),
            ],
            suppressed: 1,
            tables: TableSummary {
                functions_sliced: 1,
                slice_stmts: 3,
                ilps: 1,
                counts_by_type: [0, 1, 0, 0, 0],
                max_degree: 1,
                paths_variable: 0,
                predicates_hidden: 0,
                flow_hidden: 0,
            },
            flows: vec![FlowSummary {
                component: 0,
                label: 0,
                declared: true,
                stmts_reached: 2,
                funcs_reached: 1,
            }],
        }
    }

    #[test]
    fn pretty_output_mentions_counts_and_verdict() {
        let text = render_pretty(&sample(), "demo");
        assert!(text.contains("audit demo: 1 deny, 1 warn, 0 note (1 suppressed)"));
        assert!(text.contains("help: recompute a from hidden-only inputs"));
        assert!(text.contains("C0.L0: declared ILP — reaches 2 stmt(s)"));
        assert!(text.contains("verdict: DENY"));
    }

    #[test]
    fn json_schema_is_stable() {
        let doc = to_json(&sample(), "demo").pretty();
        assert!(doc.starts_with("{\n  \"schema\": \"hps-audit/v1\",\n  \"program\": \"demo\","));
        assert!(doc.contains("\"lint\": \"dangling_hidden_call\""));
        assert!(doc.contains("\"suggestion\": \"recompute a from hidden-only inputs\""));
        // Deterministic.
        assert_eq!(doc, to_json(&sample(), "demo").pretty());
    }

    #[test]
    fn effects_json_lists_fragments_and_functions() {
        let src = "
            fn f(x: int, y: int) -> int {
                var a: int = 3 * x + y;
                return a;
            }
            fn main() { print(f(1, 2)); }";
        let program = hps_lang::parse(src).unwrap();
        let plan = hps_core::SplitPlan::single(&program, "f", "a").unwrap();
        let split = hps_core::split_program(&program, &plan).unwrap();
        let doc = effects_to_json(&program, &split, "demo").pretty();
        assert!(doc.starts_with(&format!(
            "{{\n  \"schema\": \"{EFFECTS_JSON_SCHEMA}\",\n  \"program\": \"demo\","
        )));
        assert!(doc.contains("\"fragments\""));
        assert!(doc.contains("\"functions\""));
        assert!(doc.contains("\"name\": \"main\""));
        // Deterministic.
        assert_eq!(doc, effects_to_json(&program, &split, "demo").pretty());
    }

    #[test]
    fn sarif_has_rules_for_every_lint_and_levels_match() {
        let doc = to_sarif(&sample(), "demo.ml").pretty();
        assert!(doc.contains("\"version\": \"2.1.0\""));
        for lint in ALL_LINTS {
            assert!(
                doc.contains(&format!("\"id\": \"{}\"", lint.id)),
                "{}",
                lint.id
            );
        }
        assert!(doc.contains("\"level\": \"error\""));
        assert!(doc.contains("\"uri\": \"demo.ml\""));
        assert!(doc.contains("\"startLine\": 4"));
    }
}
