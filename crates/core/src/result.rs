//! Split results and per-function reports.

use crate::defer::DeferStats;
use hps_analysis::effects::{Effect, FragmentEffects};
use hps_analysis::VarId;
use hps_ir::{ComponentId, Expr, FragLabel, FuncId, HiddenProgram, Program, StmtId};
use hps_slicing::SlicePlan;

/// Why a hidden call's returned value matters to the adversary.
#[derive(Clone, PartialEq, Debug)]
pub enum IlpKind {
    /// Paper case (iii): the hidden side computes an expression and returns
    /// it for the open side to store into an open place / return / print.
    HiddenCompute,
    /// A fetch of a partially hidden variable's current value before an
    /// open use (step 4 of the algorithm).
    Fetch(VarId),
}

/// Which hardening transform was applied to an ILP's fragment (see
/// [`crate::harden`]). Both transforms wrap the returned value with a
/// decoy computation containing a relational predicate over the decoy, so
/// the on-the-wire value is no longer the leaked expression itself.
///
/// The mask is **exactly invertible by anyone holding the open program**
/// (the decoy and the decode statement are open-side), so under the
/// project's adversary model it does not raise the leak's true
/// arithmetic complexity — the security analysis reports masked ILPs as
/// a distinct *masked* designation, not a lattice upgrade. See
/// [`crate::harden`] for the exact threat-model claim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HardenKind {
    /// Integer leak: the fragment returns `v + (d*d + int(0 <= d))` for a
    /// caller-supplied decoy `d`; the open side subtracts the same mask
    /// right after the call. Exact under wrapping arithmetic for every
    /// `i64`.
    IntDecoy,
    /// Float leak: the fragment returns `v * float(2*int(0 <= d) - 1)` —
    /// a sign mask of `+1.0` or `-1.0` chosen by the decoy's sign; the
    /// open side divides by the same mask. Multiplying by `±1.0` is exact
    /// for *every* value (finite, subnormal or infinite; NaN stays NaN),
    /// so the round trip never overflows or loses precision.
    FloatMask,
}

impl HardenKind {
    /// Stable snake_case name used in plan reports.
    pub fn name(self) -> &'static str {
        match self {
            HardenKind::IntDecoy => "int_decoy",
            HardenKind::FloatMask => "float_mask",
        }
    }
}

/// One *information leak point*: "a point in the open component at which
/// part of the state of the hidden component is revealed" (§3).
#[derive(Clone, PartialEq, Debug)]
pub struct IlpInfo {
    /// The original (pre-split) statement at which the leak occurs.
    pub stmt: StmtId,
    /// The component whose fragment returns the value.
    pub component: ComponentId,
    /// The fragment label.
    pub label: FragLabel,
    /// What kind of leak this is.
    pub kind: IlpKind,
    /// The leaked value as an expression over the *original* function's
    /// variables (input to the security analysis). This is always the
    /// *underlying* leak: hardening never rewrites it, because the decoy
    /// mask is open-side-invertible and must not influence the
    /// adversary-model complexity grade.
    pub leaked_expr: Expr,
    /// The decoy-wrapped expression actually shipped on the wire, set by
    /// [`crate::harden`]. Only a *wire-only* observer (no access to the
    /// open program) faces this expression; the full adversary holds the
    /// open-side decode and sees [`IlpInfo::leaked_expr`].
    pub wire_expr: Option<Expr>,
    /// Set when [`crate::harden`] rewrote this ILP's fragment. The
    /// security analysis reports such ILPs as *masked* — it does not
    /// change their lattice class.
    pub hardening: Option<HardenKind>,
}

/// Report for one split target.
#[derive(Clone, PartialEq, Debug)]
pub struct SplitReport {
    /// The split function (for class targets, one report per method).
    pub func: FuncId,
    /// The component holding this function's fragments.
    pub component: ComponentId,
    /// Seed variables.
    pub seeds: Vec<VarId>,
    /// All hidden variables with their fully/partially-hidden status
    /// (`true` = fully hidden: every definition lives in the hidden
    /// component).
    pub hidden_vars: Vec<(VarId, bool)>,
    /// Number of statements in the slice (Table 2).
    pub slice_stmts: usize,
    /// The information leak points created (Table 2's "ILPs").
    pub ilps: Vec<IlpInfo>,
    /// The slice plan, kept for the security analysis.
    pub plan: SlicePlan,
}

/// The full result of splitting a program.
#[derive(Clone, Debug, Default)]
pub struct SplitResult {
    /// The transformed open program (install on the unsecure machine).
    pub open: Program,
    /// The hidden program (install on the secure device).
    pub hidden: HiddenProgram,
    /// Per-target reports.
    pub reports: Vec<SplitReport>,
    /// What the deferrable-call pass marked (round-trip coalescing).
    pub defer: DeferStats,
    /// Per-fragment effect summaries (`hps-analysis::effects`): which
    /// fragments are provably pure (memoizable), which read
    /// or write hidden state, and which may trap.
    pub effects: FragmentEffects,
}

impl SplitResult {
    /// Total ILPs across all reports.
    pub fn total_ilps(&self) -> usize {
        self.reports.iter().map(|r| r.ilps.len()).sum()
    }

    /// Number of fragments the effect analysis proves pure (memoizable).
    pub fn memoizable_fragments(&self) -> usize {
        self.effects.count(Effect::Pure)
    }

    /// Total slice statements across all reports (Table 2).
    pub fn total_slice_stmts(&self) -> usize {
        self.reports.iter().map(|r| r.slice_stmts).sum()
    }

    /// Number of functions sliced (Table 2).
    pub fn functions_sliced(&self) -> usize {
        self.reports.len()
    }
}
