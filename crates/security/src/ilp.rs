//! ILP complexity reports over a whole split.

use crate::cc::{CcTriple, PathCount};
use crate::estimate::Estimator;
use crate::lattice::{Ac, AcType};
use hps_analysis::{FuncAnalysis, ModRef};
use hps_core::{IlpInfo, SplitReport, SplitResult};
use hps_ir::{BinOp, Expr, FuncId, Program, StmtKind, UnOp};
use hps_slicing::PromotionKind;
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// The complexity characterization of one ILP.
#[derive(Clone, PartialEq, Debug)]
pub struct IlpComplexity {
    /// Where/what leaks (from the splitter's report).
    pub ilp: IlpInfo,
    /// Arithmetic complexity `<Type, Inputs, Degree>` of the *underlying*
    /// leak, graded under the adversary model: anything the open program
    /// computes (decoy masks included) is known to the adversary, so a
    /// hardened ILP keeps the class of its unmasked expression.
    pub ac: Ac,
    /// Control-flow complexity `<Paths, Predicates, Flow>`.
    pub cc: CcTriple,
    /// Whether the value is decoy-masked on the wire (`hps_core::harden`).
    /// Masking is exactly invertible with the open program in hand — it
    /// is a distinct designation, **not** a lattice upgrade.
    pub masked: bool,
    /// Complexity of the wire expression a *wire-only* observer faces
    /// (`None` when unmasked — the wire carries the leak itself).
    pub wire_ac: Option<Ac>,
}

/// Aggregated results for a whole split program (one entry per sliced
/// function).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SecurityReport {
    /// Per-function ILP complexities.
    pub per_func: Vec<(FuncId, Vec<IlpComplexity>)>,
}

impl SecurityReport {
    /// Iterator over every ILP complexity.
    pub fn iter(&self) -> impl Iterator<Item = &IlpComplexity> {
        self.per_func.iter().flat_map(|(_, v)| v.iter())
    }

    /// Total number of ILPs.
    pub fn total(&self) -> usize {
        self.per_func.iter().map(|(_, v)| v.len()).sum()
    }

    /// ILP counts per arithmetic type, in lattice order (Table 3's columns
    /// `Constant, Linear, Polynomial, Rational, Arbitrary`).
    pub fn counts_by_type(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for c in self.iter() {
            counts[c.ac.ty as usize] += 1;
        }
        counts
    }

    /// Maximum number of inputs over all ILPs; `None` means some ILP has a
    /// varying input count (Table 3's "varying").
    pub fn max_inputs(&self) -> Option<usize> {
        let mut max = 0usize;
        for c in self.iter() {
            match c.ac.inputs.count() {
                Some(n) => max = max.max(n),
                None => return None,
            }
        }
        Some(max)
    }

    /// Maximum polynomial degree over the non-arbitrary ILPs (Table 3).
    pub fn max_degree(&self) -> u32 {
        self.iter()
            .filter(|c| c.ac.ty != AcType::Arbitrary)
            .map(|c| c.ac.degree)
            .max()
            .unwrap_or(0)
    }

    /// Number of ILPs with `Paths = variable` (Table 4).
    pub fn paths_variable(&self) -> usize {
        self.iter()
            .filter(|c| c.cc.paths == PathCount::Variable)
            .count()
    }

    /// Number of ILPs with hidden predicates (Table 4).
    pub fn predicates_hidden(&self) -> usize {
        self.iter().filter(|c| c.cc.predicates_hidden).count()
    }

    /// Number of ILPs with hidden control flow (Table 4).
    pub fn flow_hidden(&self) -> usize {
        self.iter().filter(|c| c.cc.flow_hidden).count()
    }

    /// The maximum arithmetic complexity across all ILPs (used by seed
    /// selection: "the one which creates an ILP with the highest maximum
    /// arithmetic complexity").
    pub fn max_ac(&self) -> Option<Ac> {
        self.iter()
            .map(|c| c.ac.clone())
            .max_by(|a, b| (a.ty, a.degree).cmp(&(b.ty, b.degree)))
    }

    /// Number of ILPs that are decoy-masked on the wire.
    pub fn masked(&self) -> usize {
        self.iter().filter(|c| c.masked).count()
    }

    /// Weak (`Constant`/`Linear`) ILPs that are **not** masked — the
    /// honest residue the planner's hardening contract gates on: weak
    /// *and* shipped bare on the wire.
    pub fn weak_unmasked(&self) -> usize {
        self.iter()
            .filter(|c| !c.masked && matches!(c.ac.ty, AcType::Constant | AcType::Linear))
            .count()
    }

    /// ILP counts per arithmetic type as a *wire-only observer* sees them:
    /// masked ILPs count under their wire expression's class, everything
    /// else under its true class. Compare with [`counts_by_type`]
    /// (adversary model) to see exactly what masking does and does not
    /// buy.
    ///
    /// [`counts_by_type`]: SecurityReport::counts_by_type
    pub fn counts_by_wire_type(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for c in self.iter() {
            let ty = c.wire_ac.as_ref().map(|a| a.ty).unwrap_or(c.ac.ty);
            counts[ty as usize] += 1;
        }
        counts
    }
}

/// The analyses of an original program that grading its splits reads:
/// its mod/ref summary and, built on first use, each function's
/// [`FuncAnalysis`]. Every split of one program is graded against the
/// same original, so a planner that grades many splits (every candidate
/// seed, every ladder level) builds these once and shares them.
pub struct OriginalAnalysis<'p> {
    program: &'p Program,
    modref: ModRef,
    funcs: Vec<OnceCell<FuncAnalysis>>,
}

impl<'p> OriginalAnalysis<'p> {
    /// Computes `program`'s mod/ref summary; function analyses wait until
    /// a split of that function is graded.
    pub fn new(program: &'p Program) -> OriginalAnalysis<'p> {
        OriginalAnalysis {
            program,
            modref: ModRef::compute(program),
            funcs: program.functions.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The original program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The original program's mod/ref summary.
    pub fn modref(&self) -> &ModRef {
        &self.modref
    }

    /// The analyses of one original function, built on the first call.
    pub fn func(&self, func: FuncId) -> &FuncAnalysis {
        self.funcs[func.index()]
            .get_or_init(|| FuncAnalysis::compute(self.program, func, &self.modref))
    }

    /// Grades every ILP of one split report. The report must come from a
    /// split of this analysis's program (ILP statement ids refer to it).
    pub fn analyze_report(&self, report: &SplitReport) -> Vec<IlpComplexity> {
        let original = self.program;
        let est = Estimator::new(original, self.func(report.func), &report.plan);
        report
            .ilps
            .iter()
            .map(|ilp| {
                // Adversary-model grade: always the underlying expression.
                // The decoy mask (when present) is computed by the open
                // program the adversary holds, so it folds to a known
                // constant and cannot change this grade.
                let ac = est.ilp_ac(ilp.stmt, &ilp.leaked_expr);
                let cc = compute_cc(original, report, &est, ilp);
                let wire_ac = ilp.wire_expr.as_ref().map(|w| est.ilp_ac(ilp.stmt, w));
                IlpComplexity {
                    ilp: ilp.clone(),
                    ac,
                    cc,
                    masked: ilp.hardening.is_some(),
                    wire_ac,
                }
            })
            .collect()
    }

    /// Grades a whole split of this analysis's program.
    pub fn analyze_split(&self, split: &SplitResult) -> SecurityReport {
        SecurityReport {
            per_func: split
                .reports
                .iter()
                .map(|r| (r.func, self.analyze_report(r)))
                .collect(),
        }
    }
}

/// Analyzes a whole split. `original` must be the program the split was
/// produced from (ILP statement ids refer to it).
///
/// A one-shot [`OriginalAnalysis`]: callers grading several splits of one
/// program should hold one instead. The `hps-audit` `Planner` does, and
/// folds the result into its `PlanReport`.
///
/// # Examples
///
/// ```
/// use hps_core::{split_program, SplitPlan};
///
/// let program = hps_lang::parse(
///     "fn f(x: int, y: int) -> int { var a: int = 3 * x + y; return a; }
///      fn main() { print(f(1, 2)); }",
/// )?;
/// let split = split_program(&program, &SplitPlan::single(&program, "f", "a")?)?;
/// let report = hps_security::analyze_split(&program, &split);
/// // The single leak (return a) is linear in two observable inputs.
/// let ilp = report.iter().next().unwrap();
/// assert_eq!(ilp.ac.ty, hps_security::AcType::Linear);
/// assert_eq!(ilp.ac.inputs.count(), Some(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_split(original: &Program, split: &SplitResult) -> SecurityReport {
    OriginalAnalysis::new(original).analyze_split(split)
}

fn compute_cc(
    original: &Program,
    report: &SplitReport,
    est: &Estimator<'_>,
    ilp: &IlpInfo,
) -> CcTriple {
    let feeding = est.feeding_hidden_stmts(ilp.stmt, &ilp.leaked_expr);
    let func = original.func(report.func);

    // Promoted constructs whose subtree intersects the feeding slice.
    let mut hidden_constructs: BTreeSet<hps_ir::StmtId> = BTreeSet::new();
    for &s in &feeding {
        for anc in std::iter::once(s).chain(est.fa.structure.control_ancestors(s)) {
            if report.plan.promotions.contains_key(&anc) {
                hidden_constructs.insert(anc);
            }
        }
    }

    // Flow hidden: a control construct moved to (whole promotions) or was
    // restructured for (clause promotions) the hidden component.
    let flow_hidden = !hidden_constructs.is_empty();

    // Paths: hidden ifs double the count; hidden loops with non-constant
    // trip counts make it variable.
    let mut paths = PathCount::one();
    let mut predicate_in_hidden = false;
    for &c in &hidden_constructs {
        match &func.stmt(c).map(|s| &s.kind) {
            Some(StmtKind::If { .. }) => {
                paths = paths.branch();
                predicate_in_hidden = true;
            }
            Some(StmtKind::While { .. }) => {
                predicate_in_hidden = true;
                if !est
                    .fa
                    .loops
                    .loop_at(c)
                    .is_some_and(|m| m.trip.is_constant())
                {
                    paths = PathCount::Variable;
                }
            }
            _ => {}
        }
        // Nested hidden constructs inside a whole promotion also branch.
        if let Some(PromotionKind::WholeIf | PromotionKind::WholeLoop) =
            report.plan.promotions.get(&c)
        {
            for d in est.fa.structure.descendants(c) {
                match func.stmt(d).map(|s| &s.kind) {
                    Some(StmtKind::If { .. }) => paths = paths.branch(),
                    Some(StmtKind::While { .. }) => paths = PathCount::Variable,
                    _ => {}
                }
            }
        }
    }

    // Predicates hidden: a hidden construct's condition, or relational /
    // boolean operators evaluated inside hidden fragments feeding the leak.
    // Decoy masks deliberately do NOT count: their predicate is over an
    // open-side value with an open-side inverse, so nothing about the
    // adversary's view of control flow is hidden by it.
    let mut predicates_hidden = predicate_in_hidden;
    for &s in &feeding {
        if let Some(stmt) = func.stmt(s) {
            hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| match e {
                Expr::Binary { op, .. } if op.is_relational() || op.is_logical() => {
                    predicates_hidden = true;
                }
                Expr::Unary { op: UnOp::Not, .. } => predicates_hidden = true,
                Expr::Binary { op: BinOp::Rem, .. } => {}
                _ => {}
            });
        }
    }

    CcTriple {
        paths,
        predicates_hidden,
        flow_hidden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{split_program, SplitPlan};

    const FIG2: &str = "
        fn f(x: int, y: int, z: int, b: int[]) -> int {
            var a: int;
            var i: int;
            var sum: int;
            a = 3 * x + y;
            b[0] = a;
            i = a;
            sum = 0;
            while (i < z) {
                sum = sum + i;
                i = i + 1;
            }
            b[1] = sum;
            return sum;
        }
        fn main() {
            var b: int[] = new int[2];
            print(f(1, 2, 30, b));
        }";

    fn analyze(src: &str, func: &str, seed: &str) -> (SecurityReport, Program) {
        let p = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::single(&p, func, seed).unwrap();
        let split = split_program(&p, &plan).unwrap();
        (analyze_split(&p, &split), p)
    }

    #[test]
    fn fig2_leak_of_a_is_linear_two_inputs_degree_one() {
        let (report, _) = analyze(FIG2, "f", "a");
        // The b[0] = a leak: a = 3x + y, definitely leaked.
        let leak_a = report
            .iter()
            .find(|c| c.ac.ty == AcType::Linear && c.ac.inputs.count() == Some(2))
            .unwrap_or_else(|| {
                panic!(
                    "no <Linear,2,1> ILP found: {:?}",
                    report
                        .iter()
                        .map(|c| (c.ac.ty, c.ac.inputs.count(), c.ac.degree))
                        .collect::<Vec<_>>()
                )
            });
        assert_eq!(leak_a.ac.degree, 1);
    }

    #[test]
    fn fig2_sum_leak_is_polynomial_degree_two_variable_paths() {
        let (report, _) = analyze(FIG2, "f", "a");
        // b[1] = sum and return sum leak sum + Σ i — the paper's ILP 4:
        // <Polynomial, _, 2>, <variable, hidden, hidden>.
        let poly: Vec<_> = report
            .iter()
            .filter(|c| c.ac.ty == AcType::Polynomial)
            .collect();
        assert!(
            !poly.is_empty(),
            "expected polynomial ILPs, got {:?}",
            report.iter().map(|c| c.ac.ty).collect::<Vec<_>>()
        );
        for c in &poly {
            assert_eq!(c.ac.degree, 2, "Σ over linear bounds is quadratic");
            assert_eq!(c.cc.paths, PathCount::Variable);
            assert!(c.cc.predicates_hidden);
            assert!(c.cc.flow_hidden);
        }
    }

    #[test]
    fn straight_line_leak_is_open_flow() {
        let src = "
            fn g(x: int, b: int[]) {
                var a: int = x * 2 + 1;
                b[0] = a;
            }
            fn main() { var b: int[] = new int[1]; g(3, b); print(b[0]); }";
        let (report, _) = analyze(src, "g", "a");
        assert_eq!(report.total(), 1);
        let c = report.iter().next().unwrap();
        assert_eq!(c.ac.ty, AcType::Linear);
        assert_eq!(c.cc, CcTriple::open());
    }

    #[test]
    fn rational_and_arbitrary_types_appear() {
        let src = "
            fn g(x: float, y: float, b: float[]) {
                var a: float = x * y;
                var r: float = a / (y + 1.0);
                var e: float = exp(a);
                b[0] = r;
                b[1] = e;
            }
            fn main() { var b: float[] = new float[2]; g(1.0, 2.0, b); print(b[0]); }";
        let (report, _) = analyze(src, "g", "a");
        let tys: Vec<AcType> = report.iter().map(|c| c.ac.ty).collect();
        assert!(tys.contains(&AcType::Rational), "{tys:?}");
        assert!(tys.contains(&AcType::Arbitrary), "{tys:?}");
    }

    #[test]
    fn constant_leak_is_constant() {
        let src = "
            fn g(b: int[]) {
                var a: int = 42;
                b[0] = a;
            }
            fn main() { var b: int[] = new int[1]; g(b); print(b[0]); }";
        let (report, _) = analyze(src, "g", "a");
        assert_eq!(report.counts_by_type()[AcType::Constant as usize], 1);
    }

    #[test]
    fn masked_ilps_keep_their_adversary_model_class() {
        let src = "
            fn g(x: int, b: int[]) {
                var a: int = x * 2 + 1;
                b[0] = a;
            }
            fn main() { var b: int[] = new int[1]; g(3, b); print(b[0]); }";
        let p = hps_lang::parse(src).unwrap();
        let plan = SplitPlan::single(&p, "g", "a").unwrap();
        let mut split = split_program(&p, &plan).unwrap();
        let before = analyze_split(&p, &split);
        let groups: Vec<_> = before
            .iter()
            .map(|c| (c.ilp.component, c.ilp.label))
            .collect();
        let hardened = hps_core::harden_split(&mut split, &groups);
        assert!(!hardened.applied.is_empty(), "{hardened:?}");
        let after = analyze_split(&p, &split);
        let c = after.iter().next().unwrap();
        // The mask cannot raise the true class — its inverse sits in the
        // open program — so the leak stays Linear and gains no hidden
        // predicate; only the wire-side view and the masked flag change.
        assert_eq!(c.ac.ty, AcType::Linear);
        assert!(c.masked);
        assert_eq!(c.wire_ac.as_ref().unwrap().ty, AcType::Arbitrary);
        assert_eq!(c.cc, CcTriple::open());
        assert_eq!(after.weak_unmasked(), 0);
        assert_eq!(after.masked(), 1);
        assert_eq!(after.counts_by_type()[AcType::Linear as usize], 1);
        assert_eq!(after.counts_by_wire_type()[AcType::Arbitrary as usize], 1);
    }

    #[test]
    fn aggregates_expose_table_rows() {
        let (report, _) = analyze(FIG2, "f", "a");
        let counts = report.counts_by_type();
        assert_eq!(counts.iter().sum::<usize>(), report.total());
        assert!(report.max_degree() >= 2);
        assert!(report.paths_variable() >= 1);
        assert!(report.predicates_hidden() >= report.flow_hidden());
        assert!(report.max_ac().is_some());
    }

    use hps_ir::Program;
}
