//! Specialisation: `Int` arithmetic and compare-and-branch rewritten
//! into forms by operator and operand kind (step 5 of the pipeline).

use super::*;

/// Rewrites each `Bin` and `CmpBranch` that has a specialised form into
/// it (DESIGN.md §7c, "Specialised instructions"). The last pass over a
/// body, so relocation and jump resolution never see a specialised op;
/// ticks and costs stay on their instructions.
pub(super) fn specialise(code: &mut [Instr]) {
    for ins in code {
        let op = match ins.op {
            Op::Bin {
                op,
                dst,
                lhs,
                rhs,
                ints,
            } => arith_form(op, dst, lhs, rhs, ints),
            Op::CmpBranch {
                op,
                lhs: Operand::Reg(lhs),
                rhs,
                target,
                when,
                ints,
            } => branch_form(op, lhs, rhs, target, when, ints),
            _ => None,
        };
        if let Some(op) = op {
            ins.op = op;
        }
    }
}

/// The specialised form of `dst = lhs <op> rhs`, if any: with an `Int`
/// immediate, or on two registers when the operands are statically `Int`.
fn arith_form(op: BinOp, dst: Reg, lhs: Operand, rhs: Operand, ints: bool) -> Option<Op> {
    use Operand::{Const, Reg as R};
    use Value::Int;
    Some(match (lhs, rhs, op) {
        (R(lhs), Const(Int(rhs)), BinOp::Add) => Op::AddIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Sub) => Op::SubIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Mul) => Op::MulIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Div) => Op::DivIRK(Arith { dst, lhs, rhs }),
        (R(lhs), Const(Int(rhs)), BinOp::Rem) => Op::RemIRK(Arith { dst, lhs, rhs }),
        (Const(Int(lhs)), R(rhs), BinOp::Sub) => Op::SubIKR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Add) if ints => Op::AddIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Sub) if ints => Op::SubIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Mul) if ints => Op::MulIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Div) if ints => Op::DivIRR(Arith { dst, lhs, rhs }),
        (R(lhs), R(rhs), BinOp::Rem) if ints => Op::RemIRR(Arith { dst, lhs, rhs }),
        _ => return None,
    })
}

/// The specialised form of a compare-and-branch on register `lhs`, if
/// any: with an `Int` immediate, or a register when the operands are
/// statically `Int`.
fn branch_form(
    op: BinOp,
    lhs: Reg,
    rhs: Operand,
    target: u32,
    when: bool,
    ints: bool,
) -> Option<Op> {
    use Operand::{Const, Reg as R};
    use Value::Int;
    fn b<T>(lhs: Reg, rhs: T, target: u32, when: bool) -> Branch<T> {
        Branch {
            lhs,
            rhs,
            target,
            when,
        }
    }
    Some(match (rhs, op) {
        (R(r), BinOp::Eq) if ints => Op::EqIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Ne) if ints => Op::NeIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Lt) if ints => Op::LtIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Le) if ints => Op::LeIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Gt) if ints => Op::GtIRRBranch(b(lhs, r, target, when)),
        (R(r), BinOp::Ge) if ints => Op::GeIRRBranch(b(lhs, r, target, when)),
        (Const(Int(k)), BinOp::Eq) => Op::EqIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Ne) => Op::NeIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Lt) => Op::LtIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Le) => Op::LeIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Gt) => Op::GtIRKBranch(b(lhs, k, target, when)),
        (Const(Int(k)), BinOp::Ge) => Op::GeIRKBranch(b(lhs, k, target, when)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::tests::{assert_parity, frag};
    use hps_ir::{Block, Expr, LocalId, Place, Stmt, StmtKind};

    #[test]
    fn superinstructions_preserve_cost_accounting() {
        // x = x + 1 lowers to AddIRK; if (x < 10) lowers to LtIRKBranch —
        // totals must match the tree-walk exactly.
        let x = LocalId::new(0);
        let f = frag(
            vec![
                Stmt::new(StmtKind::Assign {
                    place: Place::Local(x),
                    value: Expr::binary(BinOp::Add, Expr::local(x), Expr::int(1)),
                }),
                Stmt::new(StmtKind::If {
                    cond: Expr::binary(BinOp::Lt, Expr::local(x), Expr::int(10)),
                    then_blk: Block::of(vec![Stmt::new(StmtKind::Assign {
                        place: Place::Local(x),
                        value: Expr::binary(BinOp::Mul, Expr::local(x), Expr::int(2)),
                    })]),
                    else_blk: Block::new(),
                }),
            ],
            0,
            Some(Expr::local(x)),
        );
        for start in [-5i64, 0, 9, 10, 50] {
            let out = assert_parity(&f, &[RtValue::Int(start)], &[]).0.unwrap();
            let x = start + 1;
            assert_eq!(out.value, Value::Int(if x < 10 { 2 * x } else { x }));
        }
    }
}
