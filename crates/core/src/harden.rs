//! Decoy-masking ("hardening") of weak information leak points.
//!
//! The security analysis (`hps-security`) grades every ILP on the
//! arithmetic-complexity lattice; the auditor (`hps-audit`) flags the
//! trivially invertible ones (`weak_ilp_constant`, `weak_ilp_linear`,
//! `weak_ilp_const_inputs`, `weak_ilp_open_control`). This pass *rewrites*
//! the flagged fragments instead of merely reporting them: the value
//! crossing the wire is wrapped in a **decoy computation** containing a
//! relational predicate over the decoy, and the open side undoes the wrap
//! immediately after the call, so program output is byte-identical while
//! the *on-the-wire* expression becomes `Arbitrary` on the lattice.
//!
//! **Threat-model claim — read carefully.** The decoy is computed
//! open-side from an open parameter and the exact inverse (the decode
//! statement) sits in the open program. The project's adversary *controls
//! the open program*, so to that adversary the mask is a known constant
//! and the leak remains exactly as invertible as before: masking raises
//! complexity only against a **wire-only observer** (someone who taps the
//! transport but does not hold the open component, e.g. a network
//! eavesdropper). The security analysis therefore grades a hardened ILP
//! by its *underlying* expression (unchanged lattice class) and reports
//! the mask as a distinct **masked** designation with its own wire-side
//! complexity; the auditor downgrades the `weak_ilp_constant` /
//! `weak_ilp_linear` warnings on masked ILPs to the note-level
//! `masked_weak_ilp` lint that states exactly this. Genuinely raising a
//! weak leak's class requires a different split (the planner's downgrade
//! ladder / a stronger seed), not a mask.
//!
//! Concretely, for a caller-chosen decoy argument `d` (always an `int`,
//! derived from a parameter of the enclosing open function):
//!
//! * **int** leaks return `v + (d*d + int(0 <= d))`; the open side
//!   subtracts the same mask. Interpreter integer arithmetic wraps, so the
//!   add/subtract pair is exact for every `i64`, and the predicate
//!   `0 <= d` genuinely depends on the decoy (it is not a tautology).
//! * **float** leaks return `v * float(2*int(0 <= d) - 1)` — a sign mask
//!   of `+1.0` or `-1.0` chosen by the decoy's sign; the open side
//!   divides by the same mask. Multiplying by `±1.0` is exact for every
//!   value (finite, subnormal or infinite; NaN stays NaN), so the round
//!   trip can never overflow, underflow or lose precision — no magnitude
//!   guard is needed.
//!
//! The transform mutates fragments *in place* — every call site of a
//! value-returning fragment is an ILP site, so all of them are rewritten
//! together and no orphan fragments are left behind. Boolean leaks and
//! fragments reachable from a function with no usable decoy source are
//! skipped (reported in the [`HardenReport`]); callers re-audit to verify
//! every weak warning was actually downgraded to its `masked_weak_ilp`
//! note.
//!
//! After the rewrite the pass re-runs the post-split pipeline: statement
//! renumbering, the deferrable-call analysis (a decoded call's result is
//! read immediately, so such calls lose their deferred mark) and the
//! fragment effect analysis.

use crate::result::{HardenKind, SplitResult};
use hps_ir::{Block, Builtin, ComponentId, Expr, FragLabel, Place, Stmt, StmtKind, Ty};

/// One fragment the pass successfully hardened.
#[derive(Clone, PartialEq, Debug)]
pub struct HardenAction {
    /// The component owning the fragment.
    pub component: ComponentId,
    /// The fragment label.
    pub label: FragLabel,
    /// Which transform was applied (by leak type).
    pub kind: HardenKind,
    /// Open call sites rewritten (decoy argument + decode statement).
    pub call_sites: usize,
    /// ILP declarations updated to the decoy-wrapped leaked expression.
    pub ilps: usize,
}

/// One fragment the pass had to leave alone, and why.
#[derive(Clone, PartialEq, Debug)]
pub struct HardenSkip {
    /// The component owning the fragment.
    pub component: ComponentId,
    /// The fragment label.
    pub label: FragLabel,
    /// Human-readable reason.
    pub reason: String,
}

/// What [`harden_split`] did.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct HardenReport {
    /// Fragments rewritten.
    pub applied: Vec<HardenAction>,
    /// Fragments skipped.
    pub skipped: Vec<HardenSkip>,
}

impl HardenReport {
    /// Total open call sites rewritten.
    pub fn total_sites(&self) -> usize {
        self.applied.iter().map(|a| a.call_sites).sum()
    }
}

/// Hardens the fragments behind the given weak `(component, label)` pairs,
/// mutating `split` in place. Duplicates are coalesced; pairs naming
/// unknown or value-free fragments are skipped. See the module docs for
/// the transform; determinism: groups are processed in sorted
/// `(component, label)` order and every rewrite is purely structural.
pub fn harden_split(split: &mut SplitResult, weak: &[(ComponentId, FragLabel)]) -> HardenReport {
    let mut groups: Vec<(ComponentId, FragLabel)> = weak.to_vec();
    groups.sort();
    groups.dedup();

    let mut report = HardenReport::default();
    let mut mutated = false;
    for (component, label) in groups {
        match harden_group(split, component, label) {
            Ok(action) => {
                mutated = true;
                report.applied.push(action);
            }
            Err(reason) => report.skipped.push(HardenSkip {
                component,
                label,
                reason,
            }),
        }
    }

    if mutated {
        // Re-run the post-split pipeline: fresh statement ids and a fresh
        // deferrable-call analysis (decode statements demand results
        // immediately, invalidating earlier marks).
        reset_deferred(&mut split.open);
        split.open.renumber_all();
        split.defer = crate::defer::mark_deferrable(&mut split.open);
    }
    report
}

/// Hardens one fragment and all its call sites, or explains why not.
fn harden_group(
    split: &mut SplitResult,
    component: ComponentId,
    label: FragLabel,
) -> Result<HardenAction, String> {
    let comp = split
        .hidden
        .components
        .get(component.index())
        .ok_or_else(|| format!("no component #{}", component.index()))?;
    let frag = comp
        .fragment(label)
        .ok_or_else(|| format!("no fragment L{}", label.index()))?;
    if frag.ret.is_none() {
        return Err("fragment returns no value".into());
    }
    if frag.params.iter().any(|(name, _)| name == DECOY_PARAM) {
        return Err("already hardened".into());
    }

    // Collect and validate every call site before touching anything: the
    // fragment is shared, so either all sites can decode or none may.
    let mut sites: Vec<(usize, Expr)> = Vec::new(); // (func index, decoy expr)
    let mut n_sites = 0usize;
    let mut leak_ty: Option<Ty> = None;
    for (fi, func) in split.open.functions.iter().enumerate() {
        let mut found = 0usize;
        let mut bad: Option<String> = None;
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            if let StmtKind::HiddenCall {
                component: c,
                label: l,
                result,
                ..
            } = &stmt.kind
            {
                if (*c, *l) != (component, label) {
                    return;
                }
                found += 1;
                match result {
                    None => bad = Some("call site discards the result".into()),
                    Some(place) => {
                        if place_has_call(place) {
                            bad = Some("result place contains a call".into());
                        } else {
                            let ty = hps_ir::infer::place_ty(&split.open, func, place)
                                .expect("front-end IR is well typed");
                            if !matches!(ty, Ty::Int | Ty::Float) {
                                bad = Some(format!("unsupported leak type {ty}"));
                            } else if *leak_ty.get_or_insert(ty.clone()) != ty {
                                bad = Some("call sites disagree on leak type".into());
                            }
                        }
                    }
                }
            }
        });
        if found == 0 {
            continue;
        }
        if let Some(reason) = bad {
            return Err(reason);
        }
        let decoy = decoy_expr(func)
            .ok_or_else(|| format!("function `{}` has no usable decoy parameter", func.name))?;
        n_sites += found;
        sites.push((fi, decoy));
    }
    if n_sites == 0 {
        return Err("fragment has no call sites".into());
    }
    let leak_ty = leak_ty.expect("sites imply a leak type");
    let kind = match leak_ty {
        Ty::Int => HardenKind::IntDecoy,
        Ty::Float => HardenKind::FloatMask,
        _ => unreachable!("validated above"),
    };

    // 1. Wrap the fragment's return value. Inside the fragment, slots
    //    `0..vars` are hidden variables and `vars..` are parameters, so the
    //    appended decoy parameter lives at `vars + old params`.
    let comp = &mut split.hidden.components[component.index()];
    let frag = comp
        .fragments
        .iter_mut()
        .find(|f| f.label == label)
        .expect("fragment checked above");
    let decoy_slot = Expr::local(hps_ir::LocalId::new(comp.vars.len() + frag.params.len()));
    frag.params.push((DECOY_PARAM.to_string(), Ty::Int));
    let ret = frag.ret.take().expect("checked above");
    frag.ret = Some(match kind {
        HardenKind::IntDecoy => Expr::binary(hps_ir::BinOp::Add, ret, int_mask(decoy_slot)),
        HardenKind::FloatMask => Expr::binary(hps_ir::BinOp::Mul, ret, float_mask(decoy_slot)),
    });

    // 2. Rewrite every call site: append the decoy argument and decode the
    //    result right after the call.
    for &(fi, ref decoy) in &sites {
        let body = std::mem::take(&mut split.open.functions[fi].body);
        split.open.functions[fi].body = rewrite_block(body, component, label, decoy, kind);
    }

    // 3. Update the ILP declarations. `leaked_expr` stays the underlying
    //    leak — the mask is open-side-invertible, so it must not change
    //    the adversary-model grade — and the wrapped form is recorded as
    //    `wire_expr` (over the original function's parameters; the decoy
    //    only reads parameters, which keep their ids across the split).
    let mut n_ilps = 0usize;
    for r in &mut split.reports {
        let Some((_, decoy)) = sites.iter().find(|&&(fi, _)| fi == r.func.index()) else {
            continue;
        };
        for ilp in &mut r.ilps {
            if (ilp.component, ilp.label) != (component, label) {
                continue;
            }
            ilp.wire_expr = Some(match kind {
                HardenKind::IntDecoy => Expr::binary(
                    hps_ir::BinOp::Add,
                    ilp.leaked_expr.clone(),
                    int_mask(decoy.clone()),
                ),
                HardenKind::FloatMask => Expr::binary(
                    hps_ir::BinOp::Mul,
                    ilp.leaked_expr.clone(),
                    float_mask(decoy.clone()),
                ),
            });
            ilp.hardening = Some(kind);
            n_ilps += 1;
        }
    }

    Ok(HardenAction {
        component,
        label,
        kind,
        call_sites: n_sites,
        ilps: n_ilps,
    })
}

/// Name of the appended decoy parameter (also the "already hardened"
/// marker).
const DECOY_PARAM: &str = "__decoy";

/// `d*d + int(0 <= d)` — the integer decoy mask. `Arbitrary` as a wire
/// expression (relational operator, genuinely dependent on `d`); exactly
/// invertible under wrapping arithmetic — and trivially so for anyone
/// holding the open program, which is why the analyzer only credits it as
/// a *mask*.
fn int_mask(d: Expr) -> Expr {
    Expr::binary(
        hps_ir::BinOp::Add,
        Expr::binary(hps_ir::BinOp::Mul, d.clone(), d.clone()),
        Expr::builtin(
            Builtin::IntCast,
            vec![Expr::binary(hps_ir::BinOp::Le, Expr::int(0), d)],
        ),
    )
}

/// `float(2*int(0 <= d) - 1)` — the float decoy mask: `+1.0` when the
/// decoy is non-negative, `-1.0` otherwise. A sign flip is exact for
/// every IEEE value, so the multiply/divide round trip never overflows
/// (unlike any fixed scale `> 1`) and never loses precision (unlike any
/// scale `< 1` on subnormals).
fn float_mask(d: Expr) -> Expr {
    Expr::builtin(
        Builtin::FloatCast,
        vec![Expr::binary(
            hps_ir::BinOp::Sub,
            Expr::binary(
                hps_ir::BinOp::Mul,
                Expr::int(2),
                Expr::builtin(
                    Builtin::IntCast,
                    vec![Expr::binary(hps_ir::BinOp::Le, Expr::int(0), d)],
                ),
            ),
            Expr::int(1),
        )],
    )
}

/// An `int`-typed, side-effect-free decoy expression over `func`'s
/// parameters: the first parameter usable as an entropy source. `None`
/// for parameterless functions.
fn decoy_expr(func: &hps_ir::Function) -> Option<Expr> {
    for p in func.param_ids() {
        let e = Expr::local(p);
        match &func.local(p).ty {
            Ty::Int => return Some(e),
            Ty::Float | Ty::Bool => return Some(Expr::builtin(Builtin::IntCast, vec![e])),
            Ty::Array(_) => return Some(Expr::builtin(Builtin::Len, vec![e])),
            Ty::Object(_) | Ty::Void => continue,
        }
    }
    None
}

/// Rewrites one block: matching hidden calls gain the decoy argument and a
/// decode statement immediately after.
fn rewrite_block(
    block: Block,
    component: ComponentId,
    label: FragLabel,
    decoy: &Expr,
    kind: HardenKind,
) -> Block {
    let mut out = Vec::with_capacity(block.stmts.len());
    for mut stmt in block.stmts {
        match &mut stmt.kind {
            StmtKind::HiddenCall {
                component: c,
                label: l,
                args,
                result,
                deferred,
            } if (*c, *l) == (component, label) => {
                args.push(decoy.clone());
                *deferred = false;
                let place = result.clone().expect("validated call site");
                out.push(stmt);
                out.push(Stmt::new(StmtKind::Assign {
                    place: place.clone(),
                    value: decode_expr(place_to_expr(&place), decoy.clone(), kind),
                }));
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                *then_blk = rewrite_block(std::mem::take(then_blk), component, label, decoy, kind);
                *else_blk = rewrite_block(std::mem::take(else_blk), component, label, decoy, kind);
                out.push(stmt);
            }
            StmtKind::While { body, .. } => {
                *body = rewrite_block(std::mem::take(body), component, label, decoy, kind);
                out.push(stmt);
            }
            _ => out.push(stmt),
        }
    }
    Block::of(out)
}

/// The open-side inverse of the fragment's wrap.
fn decode_expr(wrapped: Expr, decoy: Expr, kind: HardenKind) -> Expr {
    match kind {
        HardenKind::IntDecoy => Expr::binary(hps_ir::BinOp::Sub, wrapped, int_mask(decoy)),
        HardenKind::FloatMask => Expr::binary(hps_ir::BinOp::Div, wrapped, float_mask(decoy)),
    }
}

/// Reads a place back as an expression (places are side-effect-free by
/// the call-site validation, so double evaluation is safe).
fn place_to_expr(place: &Place) -> Expr {
    match place {
        Place::Local(l) => Expr::local(*l),
        Place::Global(g) => Expr::global(*g),
        Place::Index { base, index } => Expr::index(place_to_expr(base), index.clone()),
        Place::Field { obj, class, field } => Expr::FieldGet {
            obj: Box::new(obj.clone()),
            class: *class,
            field: *field,
        },
    }
}

/// Whether evaluating the place (as an lvalue or rvalue) could call user
/// code.
fn place_has_call(place: &Place) -> bool {
    match place {
        Place::Local(_) | Place::Global(_) => false,
        Place::Index { base, index } => place_has_call(base) || index.contains_call(),
        Place::Field { obj, .. } => obj.contains_call(),
    }
}

/// Clears every deferred mark so the deferrable-call analysis re-decides
/// from scratch after the rewrite.
fn reset_deferred(program: &mut hps_ir::Program) {
    fn walk(block: &mut Block) {
        for stmt in &mut block.stmts {
            match &mut stmt.kind {
                StmtKind::HiddenCall { deferred, .. } => *deferred = false,
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk);
                    walk(else_blk);
                }
                StmtKind::While { body, .. } => walk(body),
                _ => {}
            }
        }
    }
    for func in &mut program.functions {
        walk(&mut func.body);
    }
}
