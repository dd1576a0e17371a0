//! Leaf inlining: calls to small scalar leaves replaced by the leaves'
//! own instructions (step 4 of the pipeline).

use super::*;
use crate::cost::COST_MODEL;

/// Most instructions a leaf may have and still be inlined.
const INLINE_MAX_INSTRS: usize = 32;

/// Replaces every call to a small scalar leaf with the leaf's own
/// instructions, so the call pushes no frame (DESIGN.md §7c, "Inlined
/// leaves"). Leaves are chosen on the code as lowered, so an inlined body
/// never holds another inline site.
pub(super) fn inline_leaves(program: &Program, funcs: &mut [FuncCode]) {
    let leaves: Vec<Option<Leaf>> = funcs
        .iter()
        .zip(&program.functions)
        .map(|(code, f)| Leaf::of(program, code, f.num_params))
        .collect();
    if leaves.iter().all(Option::is_none) {
        return;
    }
    for f in funcs {
        if let Some(body) = inline_calls(&f.body, &leaves) {
            f.body = body;
        }
    }
}

/// A function whose calls are inlined, with what a site needs of it.
struct Leaf {
    /// Its code, without an epilogue that no path reaches.
    code: Vec<Instr>,
    n_regs: usize,
    /// Which parameters the code assigns; the others read their argument
    /// in place.
    assigned: Vec<bool>,
    /// Whether the code assigns a global (a global argument is then copied
    /// in).
    stores_global: bool,
    /// The locals a site resets, with their defaults: every local past the
    /// parameters that the code may read before it assigns it.
    resets: Vec<(Reg, Value)>,
    /// By instruction: a `Ret` of the register the instruction before it
    /// writes, charging nothing and reached from that instruction only, so
    /// that instruction may write the call's destination instead.
    direct: Vec<bool>,
}

impl Leaf {
    /// `f` as a leaf, when calls to it may be replaced by its code: it
    /// opens no activation and makes no call, every local (parameters
    /// included) is a scalar, its value is a scalar or void (the epilogue
    /// of an aggregate return type is a `Ret` of no operand, which no leaf
    /// holds), no op can put an aggregate in a register (so no `Rc`
    /// outlives the call), it reads arrays only from globals, and it has
    /// at most [`INLINE_MAX_INSTRS`] instructions.
    fn of(program: &Program, f: &FuncCode, n_params: usize) -> Option<Leaf> {
        if f.activation.is_some() || f.body.code.len() > INLINE_MAX_INSTRS {
            return None;
        }
        let defaults: Vec<Value> = f.locals.iter().copied().collect::<Option<_>>()?;
        let mut code = f.body.code.to_vec();
        let mut assigned = vec![false; n_params];
        let mut stores_global = false;
        for ins in &code {
            match ins.op {
                Op::Load {
                    src: Operand::Global(g),
                    ..
                } if !program.globals[g as usize].ty.is_scalar() => return None,
                Op::StoreGlobal { .. } => stores_global = true,
                _ => {}
            }
            relocate(&ins.op, &mut Operand::Reg, &mut |r| {
                if let Some(param) = assigned.get_mut(usize::from(r)) {
                    *param = true;
                }
                r
            })?;
        }
        // A `return` that ends the body leaves the epilogue after it dead;
        // without it, that `return` ends the site with no jump.
        let n = code.len();
        if n >= 2
            && matches!(code[n - 2].op, Op::Ret { .. })
            && !code
                .iter_mut()
                .any(|i| target_mut(&mut i.op).is_some_and(|t| *t as usize == n - 1))
        {
            code.pop();
        }
        // Every path runs the straight-line code at the entry before its
        // first jump, so a local assigned there before any read of it
        // never shows its default.
        let mut read = vec![false; defaults.len()];
        let mut fresh = vec![false; defaults.len()];
        let straight = |i: &&Instr| {
            !matches!(
                i.op,
                Op::Jump { .. } | Op::Branch { .. } | Op::CmpBranch { .. } | Op::Ret { .. }
            )
        };
        for ins in code.iter().take_while(straight) {
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            relocate(
                &ins.op,
                &mut |r| {
                    reads.push(usize::from(r));
                    Operand::Reg(r)
                },
                &mut |r| {
                    writes.push(usize::from(r));
                    r
                },
            )?;
            for r in reads {
                if let Some(read) = read.get_mut(r) {
                    *read = true;
                }
            }
            for w in writes.into_iter().filter(|&w| w < read.len()) {
                fresh[w] |= !read[w];
            }
        }
        let resets = (n_params..defaults.len())
            .filter(|&j| !fresh[j])
            .map(|j| Some((Reg::try_from(j).ok()?, defaults[j])))
            .collect::<Option<_>>()?;
        let mut targeted = vec![false; code.len()];
        for ins in &mut code {
            if let Some(t) = target_mut(&mut ins.op).and_then(|t| targeted.get_mut(*t as usize)) {
                *t = true;
            }
        }
        let mut direct = vec![false; code.len()];
        for j in 1..code.len() {
            if let Instr {
                tick: 0,
                cost: 0,
                op: Op::Ret {
                    src: Some(Operand::Reg(t)),
                },
            } = code[j]
            {
                direct[j] = !targeted[j] && dst_mut(&mut code[j - 1].op).is_some_and(|w| *w == t);
            }
        }
        Some(Leaf {
            code,
            n_regs: f.body.n_regs,
            assigned,
            stores_global,
            resets,
            direct,
        })
    }
}

/// `caller` with every call to a leaf spliced in, or `None` when it calls
/// none. The leaves' registers share one scratch region above the caller's
/// own: leaves make no calls, so no two inline sites are live at once.
fn inline_calls(caller: &Body, leaves: &[Option<Leaf>]) -> Option<Body> {
    let scratch = caller.n_regs;
    let by = Reg::try_from(scratch).ok()?;
    // A site keeps its `Call` when the leaf's registers would pass the
    // last one, or the entry's charge would pass the cost field.
    let site = move |ins: &Instr| match ins.op {
        Op::Call { func, .. } => {
            let leaf = leaves[func as usize].as_ref()?;
            let entry = u32::try_from(u64::from(ins.cost) + COST_MODEL.call).ok()?;
            (scratch + leaf.n_regs <= usize::from(Reg::MAX)).then_some((leaf, entry))
        }
        _ => None,
    };
    if !caller.code.iter().any(|i| site(i).is_some()) {
        return None;
    }
    let mut code = Vec::with_capacity(caller.code.len());
    let mut n_regs = scratch;
    // Where each caller instruction lands, and the caller's own jumps,
    // retargeted once every site is in place.
    let mut at = Vec::with_capacity(caller.code.len() + 1);
    let mut jumps = Vec::new();
    for ins in caller.code.iter() {
        at.push(code.len());
        match (&ins.op, site(ins)) {
            (Op::Call { dst, args, .. }, Some((leaf, entry))) => {
                n_regs = n_regs.max(scratch + leaf.n_regs);
                // The entry carries the call's tick and charges, and checks
                // the depth where pushing the frame would.
                code.push(Instr {
                    tick: ins.tick,
                    cost: entry,
                    op: Op::Enter,
                });
                splice(&mut code, leaf, *dst, args, by)?;
            }
            _ => {
                let mut ins = ins.clone();
                if target_mut(&mut ins.op).is_some() {
                    jumps.push(code.len());
                }
                code.push(ins);
            }
        }
    }
    at.push(code.len());
    u32::try_from(code.len()).ok()?;
    for j in jumps {
        if let Some(target) = target_mut(&mut code[j].op) {
            *target = at[*target as usize] as u32;
        }
    }
    Some(Body {
        code: code.into_boxed_slice(),
        n_regs,
    })
}

/// Appends an inlined call's body after its entry: moves of the arguments
/// into the parameters the leaf assigns, resets of its locals to their
/// defaults (a loop enters the same site again), then the leaf's code with
/// its registers moved up by `by` and each `Ret` a move of the value to
/// `dst` and a jump past the site. A parameter the leaf never assigns
/// reads its argument in place: the caller's registers do not change
/// before the site ends, nor do globals unless the leaf assigns one.
///
/// A [`Leaf::direct`] `Ret` needs no move: the instruction before it
/// writes `dst`. That holds even when an argument read in place is `dst`
/// itself: the write is the last thing the leaf does, after it has read
/// every operand.
fn splice(code: &mut Vec<Instr>, leaf: &Leaf, dst: Reg, args: &[Operand], by: Reg) -> Option<()> {
    let zero = |op| Instr {
        tick: 0,
        cost: 0,
        op,
    };
    let mut bound = Vec::with_capacity(args.len());
    for (p, &arg) in args.iter().enumerate() {
        let copied = leaf.assigned.get(p).copied().unwrap_or(true)
            || (leaf.stores_global && matches!(arg, Operand::Global(_)));
        if copied {
            let dst = by + Reg::try_from(p).ok()?;
            code.push(zero(Op::Load { dst, src: arg }));
        }
        bound.push((!copied).then_some(arg));
    }
    for &(r, v) in &leaf.resets {
        code.push(zero(Op::Load {
            dst: by + r,
            src: Operand::Const(v),
        }));
    }
    let direct = |j: usize| leaf.direct.get(j) == Some(&true);
    let mut read = |r: Reg| {
        let arg = bound.get(usize::from(r)).copied().flatten();
        arg.unwrap_or(Operand::Reg(r + by))
    };
    let mut write = |r: Reg| r + by;
    let last = leaf.code.len() - 1;
    let mut at = Vec::with_capacity(leaf.code.len() + 1);
    let mut next = code.len();
    for (j, ins) in leaf.code.iter().enumerate() {
        at.push(next);
        if matches!(ins.op, Op::Ret { .. }) {
            next += usize::from(!direct(j)) + usize::from(j != last);
        } else {
            next += 1;
        }
    }
    at.push(next);
    let end = u32::try_from(next).ok()?;
    for (j, ins) in leaf.code.iter().enumerate() {
        let (tick, cost) = (ins.tick, ins.cost);
        let mut op = relocate(&ins.op, &mut read, &mut write)?;
        if direct(j + 1) {
            *dst_mut(&mut op)? = dst;
        }
        match op {
            Op::Ret { src: Some(src) } => {
                if !direct(j) {
                    code.push(Instr {
                        tick,
                        cost,
                        op: Op::Load { dst, src },
                    });
                }
                if j != last {
                    code.push(zero(Op::Jump { target: end }));
                }
            }
            mut op => {
                if let Some(target) = target_mut(&mut op) {
                    *target = at[*target as usize] as u32;
                }
                code.push(Instr { tick, cost, op });
            }
        }
    }
    Some(())
}

/// `op` with each register it reads mapped by `read` (to any operand) and
/// each it writes by `write`; `None` for the ops an inlined leaf may not
/// hold: calls, hidden calls, the ops that can put an aggregate in a
/// register, and array reads from a register.
fn relocate(
    op: &Op,
    read: &mut impl FnMut(Reg) -> Operand,
    write: &mut impl FnMut(Reg) -> Reg,
) -> Option<Op> {
    let mut o = |x: &Operand| match *x {
        Operand::Reg(r) => read(r),
        x => x,
    };
    let mut w = |x: &Reg| write(*x);
    let s = |x: &Slot| match *x {
        Slot::Global(g) => Some(Slot::Global(g)),
        Slot::Reg(_) => None,
    };
    Some(match op {
        Op::Nop => Op::Nop,
        Op::Load { dst, src } => Op::Load {
            src: o(src),
            dst: w(dst),
        },
        Op::Un { op, dst, src } => Op::Un {
            op: *op,
            src: o(src),
            dst: w(dst),
        },
        Op::Bin {
            op,
            dst,
            lhs,
            rhs,
            ints,
        } => Op::Bin {
            op: *op,
            lhs: o(lhs),
            rhs: o(rhs),
            dst: w(dst),
            ints: *ints,
        },
        Op::Builtin { b, dst, args } => Op::Builtin {
            b: *b,
            args: args.iter().map(&mut o).collect(),
            dst: w(dst),
        },
        Op::Jump { target } => Op::Jump { target: *target },
        Op::Branch { cond, target, when } => Op::Branch {
            cond: o(cond),
            target: *target,
            when: *when,
        },
        Op::CmpBranch {
            op,
            lhs,
            rhs,
            target,
            when,
            ints,
        } => Op::CmpBranch {
            op: *op,
            lhs: o(lhs),
            rhs: o(rhs),
            target: *target,
            when: *when,
            ints: *ints,
        },
        Op::Ret { src: Some(src) } => Op::Ret { src: Some(o(src)) },
        Op::StoreGlobal { global, src } => Op::StoreGlobal {
            global: *global,
            src: o(src),
        },
        Op::LoadElem { dst, arr, idx } => Op::LoadElem {
            arr: s(arr)?,
            idx: o(idx),
            dst: w(dst),
        },
        Op::StoreElem { arr, idx, src } => Op::StoreElem {
            arr: s(arr)?,
            idx: o(idx),
            src: o(src),
        },
        Op::Len { dst, arr } => Op::Len {
            arr: s(arr)?,
            dst: w(dst),
        },
        Op::Print { src } => Op::Print { src: o(src) },
        // Every other op; no code holds a specialised form before the last
        // pass.
        _ => return None,
    })
}

/// The destination of an op whose one effect is to write a register,
/// after reading every operand.
fn dst_mut(op: &mut Op) -> Option<&mut Reg> {
    match op {
        Op::Load { dst, .. }
        | Op::Un { dst, .. }
        | Op::Bin { dst, .. }
        | Op::Builtin { dst, .. }
        | Op::LoadElem { dst, .. }
        | Op::Len { dst, .. } => Some(dst),
        _ => None,
    }
}

/// The jump target of a control-flow op.
pub(super) fn target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jump { target } | Op::Branch { target, .. } | Op::CmpBranch { target, .. } => {
            Some(target)
        }
        _ => None,
    }
}
