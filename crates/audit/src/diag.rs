//! The diagnostics framework: lints, severities and findings.
//!
//! Every check the auditor performs is a registered [`Lint`] with a stable
//! snake_case id (usable in `@allow(lint_id)` source attributes), a default
//! [`Severity`] and a one-line description. A concrete occurrence is a
//! [`Diagnostic`]: the lint, where it fired (function + source [`Span`]),
//! a specific message and an optional suggestion.

use hps_ir::Span;
use std::fmt;

/// How bad a finding is.
///
/// `Deny`-level findings make `hps audit` exit non-zero: they mean the split
/// is *unsound* — hidden state reaches the open component outside a declared
/// information leak point. `Warn` findings are sound-but-weak splits (the
/// leak is easily inverted); `Note` findings are hygiene.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational: the split could be simplified or tightened.
    Note,
    /// The split is sound but offers little protection.
    Warn,
    /// The split leaks hidden state outside the declared ILPs.
    Deny,
}

impl Severity {
    /// Lowercase name used in the pretty renderer and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// The corresponding SARIF `level`.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A registered audit check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lint {
    /// Stable snake_case identifier (also the `@allow(...)` key).
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description (shown in SARIF rule metadata).
    pub summary: &'static str,
}

/// Hidden state flows into the open component without a declared ILP.
pub const UNDECLARED_HIDDEN_FLOW: Lint = Lint {
    id: "undeclared_hidden_flow",
    severity: Severity::Deny,
    summary: "a hidden-dependent value enters the open component outside the declared ILPs",
};

/// The open component reads a variable the report says is fully hidden.
pub const OPEN_HIDDEN_READ: Lint = Lint {
    id: "open_hidden_read",
    severity: Severity::Deny,
    summary: "the open component references a fully hidden variable directly",
};

/// A hidden call names a component or fragment that does not exist.
pub const DANGLING_HIDDEN_CALL: Lint = Lint {
    id: "dangling_hidden_call",
    severity: Severity::Deny,
    summary: "a hidden call targets a component or fragment that does not exist",
};

/// An ILP leaks a compile-time constant.
pub const WEAK_ILP_CONSTANT: Lint = Lint {
    id: "weak_ilp_constant",
    severity: Severity::Warn,
    summary: "the leaked value has Constant arithmetic complexity",
};

/// An ILP leaks a linear combination of observable inputs.
pub const WEAK_ILP_LINEAR: Lint = Lint {
    id: "weak_ilp_linear",
    severity: Severity::Warn,
    summary: "the leaked value is linear in its observable inputs",
};

/// An ILP whose control-flow complexity is fully open.
pub const WEAK_ILP_OPEN_CONTROL: Lint = Lint {
    id: "weak_ilp_open_control",
    severity: Severity::Warn,
    summary: "one path, no hidden predicates: the leak's control flow is fully open",
};

/// An ILP computed entirely from open constants.
pub const WEAK_ILP_CONST_INPUTS: Lint = Lint {
    id: "weak_ilp_const_inputs",
    severity: Severity::Warn,
    summary: "the leaked value has no observable inputs, so one observation reveals it",
};

/// A weak leak that `hps_core::harden` decoy-masked on the wire. The mask
/// is exactly invertible by anyone holding the open program (the decode
/// statement is open-side), so under the adversary model the leak is as
/// weak as ever — this note replaces the `weak_ilp_*` warning to record
/// honestly that only a wire-only observer is inconvenienced.
pub const MASKED_WEAK_ILP: Lint = Lint {
    id: "masked_weak_ilp",
    severity: Severity::Note,
    summary: "the weak leak is decoy-masked on the wire but remains trivially invertible with the open program",
};

/// A promoted control construct protects no hidden variable.
pub const DEAD_PROMOTED_PREDICATE: Lint = Lint {
    id: "dead_promoted_predicate",
    severity: Severity::Warn,
    summary: "a promoted control construct defines no hidden variable",
};

/// A fragment no reachable open code ever calls.
pub const UNREACHABLE_FRAGMENT: Lint = Lint {
    id: "unreachable_fragment",
    severity: Severity::Warn,
    summary: "no hidden call reachable from the entry point triggers this fragment",
};

/// A fragment that touches no hidden state and could run openly.
pub const TRANSFERABLE_FRAGMENT: Lint = Lint {
    id: "transferable_fragment",
    severity: Severity::Note,
    summary: "the fragment neither updates nor reveals hidden state; it could run openly",
};

/// A hidden call's returned value is never read.
pub const UNUSED_LEAK: Lint = Lint {
    id: "unused_leak",
    severity: Severity::Note,
    summary: "the open component never reads this hidden call's returned value",
};

/// A fragment carrying trap or nondeterminism sources (division, loops
/// bounded only by the step limit, out-of-range slots): its outcome can
/// depend on runtime limits rather than its arguments alone, so it is
/// harder to audit for equivalence.
pub const NONDETERMINISTIC_HIDDEN_FRAGMENT: Lint = Lint {
    id: "nondeterministic_hidden_fragment",
    severity: Severity::Warn,
    summary: "the fragment may trap or exhaust the step limit; its outcome is not a pure function of its arguments",
};

/// Every lint the auditor can emit, in catalog order (stable across runs —
/// the JSON/SARIF rule table is generated from this).
pub const ALL_LINTS: &[&Lint] = &[
    &UNDECLARED_HIDDEN_FLOW,
    &OPEN_HIDDEN_READ,
    &DANGLING_HIDDEN_CALL,
    &WEAK_ILP_CONSTANT,
    &WEAK_ILP_LINEAR,
    &WEAK_ILP_OPEN_CONTROL,
    &WEAK_ILP_CONST_INPUTS,
    &MASKED_WEAK_ILP,
    &DEAD_PROMOTED_PREDICATE,
    &UNREACHABLE_FRAGMENT,
    &TRANSFERABLE_FRAGMENT,
    &UNUSED_LEAK,
    &NONDETERMINISTIC_HIDDEN_FRAGMENT,
];

/// Looks up a lint by id.
pub fn lint_by_id(id: &str) -> Option<&'static Lint> {
    ALL_LINTS.iter().copied().find(|l| l.id == id)
}

/// One finding.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: &'static Lint,
    /// Effective severity (currently always the lint's default).
    pub severity: Severity,
    /// The function the finding is about, if any.
    pub func: Option<String>,
    /// Source position (0:0 when the finding has no source anchor, e.g.
    /// fragment-level findings).
    pub span: Span,
    /// What happened, specifically.
    pub message: String,
    /// How to fix or silence it.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates a finding with the lint's default severity.
    pub fn new(lint: &'static Lint, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            severity: lint.severity,
            func: None,
            span: Span::default(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Sets the function name.
    pub fn in_func(mut self, func: impl Into<String>) -> Diagnostic {
        self.func = Some(func.into());
        self
    }

    /// Sets the source span.
    pub fn at(mut self, span: Span) -> Diagnostic {
        self.span = span;
        self
    }

    /// Sets the suggestion.
    pub fn suggest(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.lint.id)?;
        if let Some(func) = &self.func {
            write!(f, " fn {func}")?;
        }
        if self.span.is_known() {
            write!(f, " at {}", self.span)?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_snake_case_identifiers() {
        let mut seen = std::collections::BTreeSet::new();
        for lint in ALL_LINTS {
            assert!(seen.insert(lint.id), "duplicate lint id {}", lint.id);
            // Must be usable inside `@allow(...)`, i.e. lex as one identifier.
            assert!(
                lint.id
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "lint id `{}` is not snake_case",
                lint.id
            );
            assert_eq!(lint_by_id(lint.id), Some(*lint));
        }
        assert_eq!(lint_by_id("no_such_lint"), None);
    }

    #[test]
    fn severity_ordering_and_names() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Note);
        assert_eq!(Severity::Deny.as_str(), "deny");
        assert_eq!(Severity::Deny.sarif_level(), "error");
        assert_eq!(Severity::Warn.sarif_level(), "warning");
    }

    #[test]
    fn diagnostic_display_includes_anchor() {
        let d = Diagnostic::new(&OPEN_HIDDEN_READ, "reads `a`")
            .in_func("f")
            .at(Span::new(3, 7));
        assert_eq!(
            d.to_string(),
            "deny[open_hidden_read] fn f at 3:7: reads `a`"
        );
    }
}
