//! Scalar operator semantics, shared by the open-side interpreter and the
//! secure-side fragment executor so the two halves of a split program can
//! never drift apart arithmetically.
//!
//! Integers are 64-bit with *wrapping* overflow; `/` truncates toward zero
//! and `%` takes the sign of the dividend (Rust semantics); division or
//! remainder by zero is a [`RuntimeError::DivisionByZero`].

use crate::error::RuntimeError;
use crate::value::RtValue;
use hps_ir::{BinOp, Builtin, UnOp};

/// The type-mismatch error for a value of the wrong type.
pub(crate) fn mismatch(expected: &'static str, v: &RtValue) -> RuntimeError {
    RuntimeError::TypeMismatch {
        expected,
        found: v.type_name(),
    }
}

/// Applies a binary operator to two scalar values.
///
/// # Errors
///
/// Returns [`RuntimeError::DivisionByZero`] for `x / 0` and `x % 0` on
/// integers, and [`RuntimeError::TypeMismatch`] for operand-type bugs.
pub fn binop(op: BinOp, a: &RtValue, b: &RtValue) -> Result<RtValue, RuntimeError> {
    use RtValue::{Bool, Float, Int};
    Ok(match (op, a, b) {
        (BinOp::Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
        (BinOp::Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
        (BinOp::Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
        (BinOp::Div, Int(x), Int(y)) => {
            if *y == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Int(x.wrapping_div(*y))
        }
        (BinOp::Rem, Int(x), Int(y)) => {
            if *y == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Int(x.wrapping_rem(*y))
        }
        (BinOp::Add, Float(x), Float(y)) => Float(x + y),
        (BinOp::Sub, Float(x), Float(y)) => Float(x - y),
        (BinOp::Mul, Float(x), Float(y)) => Float(x * y),
        (BinOp::Div, Float(x), Float(y)) => Float(x / y),
        (BinOp::Eq, Int(x), Int(y)) => Bool(x == y),
        (BinOp::Ne, Int(x), Int(y)) => Bool(x != y),
        (BinOp::Lt, Int(x), Int(y)) => Bool(x < y),
        (BinOp::Le, Int(x), Int(y)) => Bool(x <= y),
        (BinOp::Gt, Int(x), Int(y)) => Bool(x > y),
        (BinOp::Ge, Int(x), Int(y)) => Bool(x >= y),
        (BinOp::Eq, Float(x), Float(y)) => Bool(x == y),
        (BinOp::Ne, Float(x), Float(y)) => Bool(x != y),
        (BinOp::Lt, Float(x), Float(y)) => Bool(x < y),
        (BinOp::Le, Float(x), Float(y)) => Bool(x <= y),
        (BinOp::Gt, Float(x), Float(y)) => Bool(x > y),
        (BinOp::Ge, Float(x), Float(y)) => Bool(x >= y),
        (BinOp::Eq, Bool(x), Bool(y)) => Bool(x == y),
        (BinOp::Ne, Bool(x), Bool(y)) => Bool(x != y),
        (BinOp::And, Bool(x), Bool(y)) => Bool(*x && *y),
        (BinOp::Or, Bool(x), Bool(y)) => Bool(*x || *y),
        (_, a, b) => {
            return Err(RuntimeError::TypeMismatch {
                expected: "matching scalar operands",
                found: if a.is_scalar() {
                    b.type_name()
                } else {
                    a.type_name()
                },
            })
        }
    })
}

/// Applies a unary operator.
///
/// # Errors
///
/// Returns [`RuntimeError::TypeMismatch`] for operand-type bugs.
pub fn unop(op: UnOp, a: &RtValue) -> Result<RtValue, RuntimeError> {
    use RtValue::{Bool, Float, Int};
    Ok(match (op, a) {
        (UnOp::Neg, Int(x)) => Int(x.wrapping_neg()),
        (UnOp::Neg, Float(x)) => Float(-x),
        (UnOp::Not, Bool(x)) => Bool(!x),
        (UnOp::Neg, v) => return Err(mismatch("int or float", v)),
        (UnOp::Not, v) => return Err(mismatch("bool", v)),
    })
}

/// Applies a scalar builtin (everything except `len`, which needs the
/// aggregate heap and is handled by the open-side interpreter).
///
/// # Errors
///
/// Returns [`RuntimeError::TypeMismatch`] for argument-type bugs and
/// [`RuntimeError::IllegalFragmentOp`] if asked to apply `len`.
pub fn builtin(b: Builtin, args: &[RtValue]) -> Result<RtValue, RuntimeError> {
    use RtValue::{Bool, Float, Int};
    Ok(match (b, args) {
        (Builtin::Exp, [Float(x)]) => Float(x.exp()),
        (Builtin::Log, [Float(x)]) => Float(x.ln()),
        (Builtin::Sqrt, [Float(x)]) => Float(x.sqrt()),
        (Builtin::Floor, [Float(x)]) => Float(x.floor()),
        (Builtin::Abs, [Int(x)]) => Int(x.wrapping_abs()),
        (Builtin::Abs, [Float(x)]) => Float(x.abs()),
        (Builtin::Min, [Int(x), Int(y)]) => Int(*x.min(y)),
        (Builtin::Max, [Int(x), Int(y)]) => Int(*x.max(y)),
        (Builtin::Min, [Float(x), Float(y)]) => Float(x.min(*y)),
        (Builtin::Max, [Float(x), Float(y)]) => Float(x.max(*y)),
        (Builtin::IntCast, [Int(x)]) => Int(*x),
        (Builtin::IntCast, [Float(x)]) => Int(*x as i64),
        (Builtin::IntCast, [Bool(x)]) => Int(i64::from(*x)),
        (Builtin::FloatCast, [Int(x)]) => Float(*x as f64),
        (Builtin::FloatCast, [Float(x)]) => Float(*x),
        (Builtin::Len, _) => return Err(RuntimeError::IllegalFragmentOp("len")),
        (_, args) => {
            return Err(RuntimeError::TypeMismatch {
                expected: "scalar builtin arguments",
                found: args.first().map_or("none", |v| v.type_name()),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic_wraps_and_traps_div0() {
        assert_eq!(
            binop(BinOp::Add, &RtValue::Int(i64::MAX), &RtValue::Int(1)).unwrap(),
            RtValue::Int(i64::MIN)
        );
        assert_eq!(
            binop(BinOp::Div, &RtValue::Int(7), &RtValue::Int(2)).unwrap(),
            RtValue::Int(3)
        );
        assert_eq!(
            binop(BinOp::Rem, &RtValue::Int(-7), &RtValue::Int(2)).unwrap(),
            RtValue::Int(-1)
        );
        assert_eq!(
            binop(BinOp::Div, &RtValue::Int(1), &RtValue::Int(0)),
            Err(RuntimeError::DivisionByZero)
        );
        assert_eq!(
            binop(BinOp::Rem, &RtValue::Int(1), &RtValue::Int(0)),
            Err(RuntimeError::DivisionByZero)
        );
    }

    #[test]
    fn float_division_by_zero_is_ieee() {
        let v = binop(BinOp::Div, &RtValue::Float(1.0), &RtValue::Float(0.0)).unwrap();
        assert_eq!(v, RtValue::Float(f64::INFINITY));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            binop(BinOp::Lt, &RtValue::Int(1), &RtValue::Int(2)).unwrap(),
            RtValue::Bool(true)
        );
        assert_eq!(
            binop(BinOp::And, &RtValue::Bool(true), &RtValue::Bool(false)).unwrap(),
            RtValue::Bool(false)
        );
        assert!(binop(BinOp::Lt, &RtValue::Int(1), &RtValue::Float(2.0)).is_err());
    }

    #[test]
    fn unops() {
        assert_eq!(unop(UnOp::Neg, &RtValue::Int(3)).unwrap(), RtValue::Int(-3));
        assert_eq!(
            unop(UnOp::Not, &RtValue::Bool(false)).unwrap(),
            RtValue::Bool(true)
        );
        assert!(unop(UnOp::Not, &RtValue::Int(1)).is_err());
    }

    #[test]
    fn builtins() {
        assert_eq!(
            builtin(Builtin::Abs, &[RtValue::Int(-4)]).unwrap(),
            RtValue::Int(4)
        );
        assert_eq!(
            builtin(Builtin::Max, &[RtValue::Int(1), RtValue::Int(5)]).unwrap(),
            RtValue::Int(5)
        );
        assert_eq!(
            builtin(Builtin::IntCast, &[RtValue::Float(2.9)]).unwrap(),
            RtValue::Int(2)
        );
        assert_eq!(
            builtin(Builtin::FloatCast, &[RtValue::Int(2)]).unwrap(),
            RtValue::Float(2.0)
        );
        assert_eq!(
            builtin(Builtin::IntCast, &[RtValue::Bool(true)]).unwrap(),
            RtValue::Int(1)
        );
        let e = builtin(Builtin::Exp, &[RtValue::Float(0.0)]).unwrap();
        assert_eq!(e, RtValue::Float(1.0));
        assert!(builtin(Builtin::Len, &[RtValue::Int(1)]).is_err());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn extreme_integer_division_does_not_panic() {
        // i64::MIN / -1 overflows in plain division; wrapping semantics
        // must return i64::MIN (and the fragment engine inherits this).
        let v = binop(BinOp::Div, &RtValue::Int(i64::MIN), &RtValue::Int(-1)).unwrap();
        assert_eq!(v, RtValue::Int(i64::MIN));
        let v = binop(BinOp::Rem, &RtValue::Int(i64::MIN), &RtValue::Int(-1)).unwrap();
        assert_eq!(v, RtValue::Int(0));
        let v = unop(UnOp::Neg, &RtValue::Int(i64::MIN)).unwrap();
        assert_eq!(v, RtValue::Int(i64::MIN));
        let v = builtin(Builtin::Abs, &[RtValue::Int(i64::MIN)]).unwrap();
        assert_eq!(v, RtValue::Int(i64::MIN));
    }

    #[test]
    fn nan_comparisons_are_false() {
        let nan = RtValue::Float(f64::NAN);
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq] {
            assert_eq!(binop(op, &nan, &nan).unwrap(), RtValue::Bool(false));
        }
        assert_eq!(binop(BinOp::Ne, &nan, &nan).unwrap(), RtValue::Bool(true));
    }

    #[test]
    fn float_casts_of_extremes() {
        assert_eq!(
            builtin(Builtin::IntCast, &[RtValue::Float(f64::INFINITY)]).unwrap(),
            RtValue::Int(i64::MAX)
        );
        assert_eq!(
            builtin(Builtin::IntCast, &[RtValue::Float(f64::NAN)]).unwrap(),
            RtValue::Int(0)
        );
    }
}
