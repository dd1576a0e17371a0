//! The lint suite: every check the auditor performs over a split.
//!
//! Deny-level checks establish *split soundness* — no hidden state reaches
//! the open component outside a declared information leak point. Warn-level
//! checks flag splits that are sound but *weak* in the paper's §3 metrics
//! (the leaked values are trivially inverted). Note-level checks are
//! hygiene: leaks nobody reads, fragments that hide nothing.
//!
//! Findings honour `@allow(lint_id)` suppressions: a finding anchored at a
//! statement is dropped when that statement or its enclosing function
//! carries the attribute (suppressed findings are counted, not shown).

use crate::diag::{self, Diagnostic};
use crate::flow::OpenFlow;
use crate::fragment::FragmentFacts;
use hps_analysis::{
    fragment_effect, vars::stmt_effect, CallGraph, Cfg, DefUse, Effect, ModRef, ReachingDefs,
    StructInfo, VarId,
};
use hps_core::SplitResult;
use hps_ir::{ComponentId, FragLabel, FuncId, Function, Program, Stmt, StmtKind};
use hps_security::{AcType, CcTriple, SecurityReport};
use std::collections::{BTreeSet, HashMap};

/// Everything the lints need to run.
pub struct LintInput<'a> {
    /// The program the split was produced from.
    pub original: &'a Program,
    /// The split under audit.
    pub split: &'a SplitResult,
    /// Per-fragment hidden-dependence facts.
    pub facts: &'a HashMap<(ComponentId, FragLabel), FragmentFacts>,
    /// The interprocedural open-side flow result.
    pub flow: &'a OpenFlow,
    /// The open program's mod/ref summary.
    pub open_modref: &'a ModRef,
    /// The §3 complexity analysis of the declared ILPs.
    pub security: &'a SecurityReport,
}

/// Collects diagnostics from every lint; returns them together with the
/// number of findings dropped by `@allow` suppressions.
pub fn run_all(input: &LintInput<'_>) -> (Vec<Diagnostic>, usize) {
    let mut sink = Sink::default();
    check_hidden_calls(input, &mut sink);
    check_open_hidden_reads(input, &mut sink);
    check_weak_ilps(input, &mut sink);
    check_dead_promotions(input, &mut sink);
    check_fragment_usage(input, &mut sink);
    check_fragment_effects(input, &mut sink);
    check_unused_leaks(input, &mut sink);
    (sink.found, sink.suppressed)
}

#[derive(Default)]
struct Sink {
    found: Vec<Diagnostic>,
    suppressed: usize,
}

impl Sink {
    /// Emits unless the anchor statement or function allows the lint.
    fn emit(&mut self, diag: Diagnostic, stmt: Option<&Stmt>, func: Option<&Function>) {
        let id = diag.lint.id;
        let allowed =
            stmt.is_some_and(|s| s.allows_lint(id)) || func.is_some_and(|f| f.allows_lint(id));
        if allowed {
            self.suppressed += 1;
        } else {
            self.found.push(diag);
        }
    }
}

/// The `(component, label)` pairs carrying a declared ILP.
pub fn declared_ilps(split: &SplitResult) -> Vec<(ComponentId, FragLabel)> {
    let mut v: Vec<_> = split
        .reports
        .iter()
        .flat_map(|r| r.ilps.iter().map(|i| (i.component, i.label)))
        .collect();
    v.sort();
    v.dedup();
    v
}

/// `dangling_hidden_call` + `undeclared_hidden_flow`: every hidden call must
/// target an existing fragment, and fragments returning hidden-dependent
/// values must be declared ILPs.
fn check_hidden_calls(input: &LintInput<'_>, sink: &mut Sink) {
    let declared = declared_ilps(input.split);
    for func in &input.split.open.functions {
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            let StmtKind::HiddenCall {
                component, label, ..
            } = &stmt.kind
            else {
                return;
            };
            let exists = input
                .split
                .hidden
                .components
                .get(component.index())
                .is_some_and(|c| c.fragment(*label).is_some());
            if !exists {
                sink.emit(
                    Diagnostic::new(
                        &diag::DANGLING_HIDDEN_CALL,
                        format!("hidden call targets {component}/{label}, which does not exist"),
                    )
                    .in_func(&func.name)
                    .at(stmt.span)
                    .suggest("regenerate the split; open and hidden halves are out of sync"),
                    Some(stmt),
                    Some(func),
                );
                return;
            }
            let hidden_ret = input
                .facts
                .get(&(*component, *label))
                .is_some_and(|f| f.ret_hidden);
            if hidden_ret && !declared.contains(&(*component, *label)) {
                let evidence = input
                    .flow
                    .label_index(*component, *label)
                    .map(|i| input.flow.stmts_reached(i))
                    .unwrap_or(0);
                sink.emit(
                    Diagnostic::new(
                        &diag::UNDECLARED_HIDDEN_FLOW,
                        format!(
                            "fragment {label} of {component} returns a hidden-dependent value \
                             with no declared ILP; it reaches {evidence} open statement(s)"
                        ),
                    )
                    .in_func(&func.name)
                    .at(stmt.span)
                    .suggest(
                        "route the value through a declared ILP or regenerate the split report",
                    ),
                    Some(stmt),
                    Some(func),
                );
            }
        });
    }
}

/// `open_hidden_read`: the open component must not reference fully hidden
/// variables — every definition of those lives in the hidden component.
fn check_open_hidden_reads(input: &LintInput<'_>, sink: &mut Sink) {
    for report in &input.split.reports {
        let fully_hidden: BTreeSet<VarId> = report
            .hidden_vars
            .iter()
            .filter(|(_, fully)| *fully)
            .map(|(v, _)| *v)
            .collect();
        if fully_hidden.is_empty() {
            continue;
        }
        for (fi, func) in input.split.open.functions.iter().enumerate() {
            let fid = FuncId::new(fi);
            hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
                let eff = stmt_effect(func, stmt, &mut |_| (Vec::new(), Vec::new()));
                let mut touched: Vec<VarId> = Vec::new();
                for v in eff.uses.iter().chain(eff.defs.iter().map(|(v, _)| v)) {
                    // Local ids are function-scoped: only compare them
                    // inside the split function itself.
                    let in_scope = match v {
                        VarId::Local(_) => fid == report.func,
                        VarId::Global(_) | VarId::Field(..) => true,
                    };
                    if in_scope && fully_hidden.contains(v) && !touched.contains(v) {
                        touched.push(*v);
                    }
                }
                for v in touched {
                    sink.emit(
                        Diagnostic::new(
                            &diag::OPEN_HIDDEN_READ,
                            format!(
                                "open statement references fully hidden variable `{}`",
                                var_name(input.original, report.func, v)
                            ),
                        )
                        .in_func(&func.name)
                        .at(stmt.span)
                        .suggest("fetch the value through a hidden call instead"),
                        Some(stmt),
                        Some(func),
                    );
                }
            });
        }
    }
}

/// The `weak_ilp_*` family: declared leaks whose §3 complexity makes them
/// easy to invert. A decoy-masked weak leak (`hps_core::harden`) emits the
/// note-level `masked_weak_ilp` instead of the warning: the mask changes
/// what a wire-only observer sees but is exactly invertible with the open
/// program, so it would be dishonest either to keep claiming the warning
/// is "fixed" security or to pretend the leak's class improved.
fn check_weak_ilps(input: &LintInput<'_>, sink: &mut Sink) {
    for (fid, complexities) in &input.security.per_func {
        let func = input.original.func(*fid);
        for c in complexities {
            let stmt = func.stmt(c.ilp.stmt);
            let span = stmt.map(|s| s.span).unwrap_or_default();
            let at = |d: Diagnostic| d.in_func(&func.name).at(span);
            let weak = matches!(c.ac.ty, AcType::Constant | AcType::Linear);
            if weak && c.masked {
                let wire = c
                    .wire_ac
                    .as_ref()
                    .map(|a| a.ty.name())
                    .unwrap_or("Arbitrary");
                sink.emit(
                    at(Diagnostic::new(
                        &diag::MASKED_WEAK_ILP,
                        format!(
                            "ILP at {} leaks a {} value behind a decoy mask: the wire \
                             expression is {wire}, but the open-side decode inverts it, \
                             so an adversary holding the open program still solves it \
                             trivially",
                            c.ilp.label, c.ac.ty
                        ),
                    )
                    .suggest(
                        "masking only defeats wire-only observers; for real protection \
                         re-split from a seed producing polynomial or arbitrary complexity",
                    )),
                    stmt,
                    Some(func),
                );
            }
            match c.ac.ty {
                _ if c.masked => {}
                AcType::Constant => sink.emit(
                    at(Diagnostic::new(
                        &diag::WEAK_ILP_CONSTANT,
                        format!(
                            "ILP at {} leaks a value of Constant arithmetic complexity",
                            c.ilp.label
                        ),
                    )
                    .suggest("seed the split from a variable whose slice reads program inputs")),
                    stmt,
                    Some(func),
                ),
                AcType::Linear => {
                    let n = c.ac.inputs.count().unwrap_or(0);
                    sink.emit(
                        at(Diagnostic::new(
                            &diag::WEAK_ILP_LINEAR,
                            format!(
                                "ILP at {} is linear in {n} observable input(s); \
                                 {} observations solve for the hidden coefficients",
                                c.ilp.label,
                                n + 1
                            ),
                        )
                        .suggest("prefer a seed producing polynomial or arbitrary complexity")),
                        stmt,
                        Some(func),
                    );
                }
                _ => {}
            }
            if c.ac.ty != AcType::Constant && c.ac.inputs.count() == Some(0) {
                sink.emit(
                    at(Diagnostic::new(
                        &diag::WEAK_ILP_CONST_INPUTS,
                        format!(
                            "ILP at {} has no observable inputs; a single observation \
                             reveals the leaked value",
                            c.ilp.label
                        ),
                    )),
                    stmt,
                    Some(func),
                );
            }
            if c.cc == CcTriple::open() {
                sink.emit(
                    at(Diagnostic::new(
                        &diag::WEAK_ILP_OPEN_CONTROL,
                        format!(
                            "ILP at {} has fully open control flow \
                             (one path, no hidden predicates)",
                            c.ilp.label
                        ),
                    )
                    .suggest("promote a guarding control construct into the hidden component")),
                    stmt,
                    Some(func),
                );
            }
        }
    }
}

/// `dead_promoted_predicate`: a promoted construct whose subtree defines no
/// hidden variable hides nothing — the promotion only costs traffic.
fn check_dead_promotions(input: &LintInput<'_>, sink: &mut Sink) {
    for report in &input.split.reports {
        let hidden: BTreeSet<VarId> = report.hidden_vars.iter().map(|(v, _)| *v).collect();
        let func = input.original.func(report.func);
        let structure = StructInfo::compute(func);
        for (&stmt_id, kind) in &report.plan.promotions {
            let mut defines_hidden = false;
            for id in std::iter::once(stmt_id).chain(structure.descendants(stmt_id)) {
                let Some(stmt) = func.stmt(id) else { continue };
                let eff = stmt_effect(func, stmt, &mut |_| (Vec::new(), Vec::new()));
                if eff.defs.iter().any(|(v, _)| hidden.contains(v)) {
                    defines_hidden = true;
                    break;
                }
            }
            if !defines_hidden {
                let stmt = func.stmt(stmt_id);
                sink.emit(
                    Diagnostic::new(
                        &diag::DEAD_PROMOTED_PREDICATE,
                        format!(
                            "promoted {} construct defines no hidden variable ({kind:?})",
                            stmt.map(|s| s.kind.tag()).unwrap_or("control")
                        ),
                    )
                    .in_func(&func.name)
                    .at(stmt.map(|s| s.span).unwrap_or_default())
                    .suggest("leave the construct in the open component"),
                    stmt,
                    Some(func),
                );
            }
        }
    }
}

/// `unreachable_fragment` + `transferable_fragment`: fragment-level hygiene.
fn check_fragment_usage(input: &LintInput<'_>, sink: &mut Sink) {
    // Fragments triggered from code reachable from the entry point.
    let callgraph = CallGraph::build(&input.split.open);
    let reachable: Vec<FuncId> = match input.split.open.entry() {
        Some(main) => callgraph.reachable_from(main),
        None => (0..input.split.open.functions.len())
            .map(FuncId::new)
            .collect(),
    };
    let mut called: BTreeSet<(ComponentId, FragLabel)> = BTreeSet::new();
    for &fid in &reachable {
        hps_ir::visit::for_each_stmt(&input.split.open.func(fid).body, &mut |stmt| {
            if let StmtKind::HiddenCall {
                component, label, ..
            } = &stmt.kind
            {
                called.insert((*component, *label));
            }
        });
    }

    for component in &input.split.hidden.components {
        for fragment in &component.fragments {
            let key = (component.id, fragment.label);
            if !called.contains(&key) {
                sink.emit(
                    Diagnostic::new(
                        &diag::UNREACHABLE_FRAGMENT,
                        format!(
                            "fragment {} of {} ({}) is never triggered from code \
                             reachable from the entry point",
                            fragment.label,
                            component.id,
                            component.entity_name()
                        ),
                    )
                    .suggest("drop the fragment or the dead call site"),
                    None,
                    None,
                );
            }
            if let Some(facts) = input.facts.get(&key) {
                if !facts.ret_hidden && !facts.writes_hidden {
                    sink.emit(
                        Diagnostic::new(
                            &diag::TRANSFERABLE_FRAGMENT,
                            format!(
                                "fragment {} of {} ({}) neither updates nor reveals hidden \
                                 state",
                                fragment.label,
                                component.id,
                                component.entity_name()
                            ),
                        )
                        .suggest("run it in the open component and save the round trip"),
                        None,
                        None,
                    );
                }
            }
        }
    }
}

/// `memoizable_fragment` + `nondeterministic_hidden_fragment`: surface the
/// per-fragment effect summaries (`hps_analysis::fragment_effect`). `Pure`
/// fragments compute a function of their arguments alone; `MayTrap`
/// fragments carry trap/nondeterminism sources, so their outcome is not a
/// pure function of their arguments.
fn check_fragment_effects(input: &LintInput<'_>, sink: &mut Sink) {
    for component in &input.split.hidden.components {
        for fragment in &component.fragments {
            match fragment_effect(fragment, component.vars.len()) {
                Effect::Pure => sink.emit(
                    Diagnostic::new(
                        &diag::MEMOIZABLE_FRAGMENT,
                        format!(
                            "fragment {} of {} ({}) is provably pure: repeated calls \
                             with the same arguments return the same result",
                            fragment.label,
                            component.id,
                            component.entity_name()
                        ),
                    )
                    .suggest("no action needed"),
                    None,
                    None,
                ),
                Effect::MayTrap => sink.emit(
                    Diagnostic::new(
                        &diag::NONDETERMINISTIC_HIDDEN_FRAGMENT,
                        format!(
                            "fragment {} of {} ({}) may trap or exhaust the step limit; \
                             its outcome depends on runtime limits, not just its arguments",
                            fragment.label,
                            component.id,
                            component.entity_name()
                        ),
                    )
                    .suggest(
                        "bound loops explicitly and guard divisions to make the \
                         fragment's behaviour a total function",
                    ),
                    None,
                    None,
                ),
                Effect::ReadsHidden | Effect::WritesHidden => {}
            }
        }
    }
}

/// `unused_leak`: a hidden call stores its returned value into a local that
/// nothing ever reads — the leak is gratuitous.
fn check_unused_leaks(input: &LintInput<'_>, sink: &mut Sink) {
    for func in &input.split.open.functions {
        let mut has_result_calls = false;
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            if let StmtKind::HiddenCall {
                result: Some(hps_ir::Place::Local(_)),
                ..
            } = &stmt.kind
            {
                has_result_calls = true;
            }
        });
        if !has_result_calls {
            continue;
        }
        let cfg = Cfg::build(func);
        let reaching = ReachingDefs::compute(func, &cfg, input.open_modref);
        let def_use = DefUse::compute(&cfg, &reaching);
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            let StmtKind::HiddenCall {
                result: Some(hps_ir::Place::Local(l)),
                component,
                label,
                ..
            } = &stmt.kind
            else {
                return;
            };
            let node = cfg.node_of(stmt.id);
            let unused = reaching
                .defs_at(node)
                .iter()
                .filter(|&&d| reaching.defs()[d].var == VarId::Local(*l))
                .all(|&d| def_use.uses_of(d).is_empty());
            if unused {
                sink.emit(
                    Diagnostic::new(
                        &diag::UNUSED_LEAK,
                        format!(
                            "the value fetched from {component}/{label} into `{}` is never read",
                            func.local(*l).name
                        ),
                    )
                    .in_func(&func.name)
                    .at(stmt.span)
                    .suggest("drop the fetch; it leaks hidden state for nothing"),
                    Some(stmt),
                    Some(func),
                );
            }
        });
    }
}

/// Human name for a variable of the *original* function `func`.
fn var_name(program: &Program, func: FuncId, v: VarId) -> String {
    match v {
        VarId::Local(l) => program.func(func).local(l).name.clone(),
        VarId::Global(g) => program.globals[g.index()].name.clone(),
        VarId::Field(c, f) => {
            let class = &program.classes[c.index()];
            format!("{}.{}", class.name, class.fields[f.index()].name)
        }
    }
}
