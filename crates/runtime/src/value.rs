//! Runtime values.
//!
//! Aggregates use shared mutable interiors (`Rc<RefCell<…>>`), so
//! [`RtValue`] is deliberately **not `Send`**: making it thread-safe would
//! put a lock on every array/field access in the interpreter's hot path.
//! Threaded layers respect this by confining values instead of sharing
//! them — the [`crate::shard`] pool hashes each session to one shard whose
//! lock guards its hidden state for the session's whole life. Only scalar
//! [`hps_ir::Value`]s and encoded frames leave a shard, and one thread at
//! a time touches the values inside it.

use crate::error::RuntimeError;
use crate::ops::mismatch;
use hps_ir::{ClassId, Ty, Value};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Shared mutable array storage.
pub type ArrayRef = Rc<RefCell<Vec<RtValue>>>;

/// Shared mutable object storage.
pub type ObjRef = Rc<RefCell<ObjData>>;

/// The payload of an object value.
#[derive(Clone, PartialEq, Debug)]
pub struct ObjData {
    /// The object's class.
    pub class: ClassId,
    /// Program-wide unique instance id — the paper's "instance id" used to
    /// pair open instances with their hidden counterparts.
    pub instance_id: u64,
    /// Field values, indexed by `FieldId`.
    pub fields: Vec<RtValue>,
}

/// A value during execution.
#[derive(Clone, Debug)]
pub enum RtValue {
    /// An uninitialized aggregate local (reading it is a runtime error).
    Uninit,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Array reference (shared, mutable).
    Array(ArrayRef),
    /// Object reference (shared, mutable).
    Object(ObjRef),
}

impl RtValue {
    /// The default value for a declared type: zero for scalars,
    /// [`RtValue::Uninit`] for aggregates.
    pub fn default_of(ty: &Ty) -> RtValue {
        match ty {
            Ty::Int => RtValue::Int(0),
            Ty::Float => RtValue::Float(0.0),
            Ty::Bool => RtValue::Bool(false),
            _ => RtValue::Uninit,
        }
    }

    /// Builds a fresh array of `len` elements, zero-initialized for `elem`.
    pub fn new_array(elem: &Ty, len: usize) -> RtValue {
        RtValue::Array(Rc::new(RefCell::new(vec![RtValue::default_of(elem); len])))
    }

    /// Builds an `int[]` array value from a slice (convenient for feeding
    /// workloads to `main`).
    pub fn from_ints(data: &[i64]) -> RtValue {
        RtValue::Array(Rc::new(RefCell::new(
            data.iter().map(|&v| RtValue::Int(v)).collect(),
        )))
    }

    /// Converts a scalar IR constant.
    pub fn from_const(v: Value) -> RtValue {
        match v {
            Value::Int(i) => RtValue::Int(i),
            Value::Float(f) => RtValue::Float(f),
            Value::Bool(b) => RtValue::Bool(b),
        }
    }

    /// Converts back to a scalar IR constant, if this is a scalar.
    pub fn to_const(&self) -> Option<Value> {
        match self {
            RtValue::Int(i) => Some(Value::Int(*i)),
            RtValue::Float(f) => Some(Value::Float(*f)),
            RtValue::Bool(b) => Some(Value::Bool(*b)),
            _ => None,
        }
    }

    /// Recursively copies the value: arrays and objects get fresh storage.
    ///
    /// Plain `clone` shares aggregate storage (reference semantics, like
    /// the language itself); use this when two runs must not observe each
    /// other's mutations — e.g. feeding the same workload to the original
    /// and the split program.
    pub fn deep_clone(&self) -> RtValue {
        match self {
            RtValue::Array(a) => RtValue::Array(Rc::new(RefCell::new(
                a.borrow().iter().map(RtValue::deep_clone).collect(),
            ))),
            RtValue::Object(o) => {
                let o = o.borrow();
                RtValue::Object(Rc::new(RefCell::new(ObjData {
                    class: o.class,
                    instance_id: o.instance_id,
                    fields: o.fields.iter().map(RtValue::deep_clone).collect(),
                })))
            }
            other => other.clone(),
        }
    }

    /// The array behind an aggregate access; reading an uninitialised
    /// local or another type is a runtime error.
    pub(crate) fn array(&self) -> Result<&ArrayRef, RuntimeError> {
        match self {
            RtValue::Array(a) => Ok(a),
            RtValue::Uninit => Err(RuntimeError::UninitializedValue),
            v => Err(mismatch("array", v)),
        }
    }

    /// The object behind a field access; reading an uninitialised local or
    /// another type is a runtime error.
    pub(crate) fn object(&self) -> Result<&ObjRef, RuntimeError> {
        match self {
            RtValue::Object(o) => Ok(o),
            RtValue::Uninit => Err(RuntimeError::UninitializedValue),
            v => Err(mismatch("object", v)),
        }
    }

    /// Returns `true` for `Int`, `Float` and `Bool`.
    pub fn is_scalar(&self) -> bool {
        matches!(self, RtValue::Int(_) | RtValue::Float(_) | RtValue::Bool(_))
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            RtValue::Uninit => "uninitialized",
            RtValue::Int(_) => "int",
            RtValue::Float(_) => "float",
            RtValue::Bool(_) => "bool",
            RtValue::Array(_) => "array",
            RtValue::Object(_) => "object",
        }
    }
}

impl PartialEq for RtValue {
    /// Structural equality; arrays and objects compare by identity (same
    /// reference).
    fn eq(&self, other: &RtValue) -> bool {
        match (self, other) {
            (RtValue::Uninit, RtValue::Uninit) => true,
            (RtValue::Int(a), RtValue::Int(b)) => a == b,
            (RtValue::Float(a), RtValue::Float(b)) => a == b,
            (RtValue::Bool(a), RtValue::Bool(b)) => a == b,
            (RtValue::Array(a), RtValue::Array(b)) => Rc::ptr_eq(a, b),
            (RtValue::Object(a), RtValue::Object(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Display for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtValue::Uninit => write!(f, "<uninit>"),
            RtValue::Int(v) => write!(f, "{v}"),
            RtValue::Float(v) => write!(f, "{}", Value::Float(*v)),
            RtValue::Bool(v) => write!(f, "{v}"),
            RtValue::Array(a) => write!(f, "<array[{}]>", a.borrow().len()),
            RtValue::Object(o) => write!(f, "<object #{}>", o.borrow().instance_id),
        }
    }
}

impl From<i64> for RtValue {
    fn from(v: i64) -> Self {
        RtValue::Int(v)
    }
}

impl From<f64> for RtValue {
    fn from(v: f64) -> Self {
        RtValue::Float(v)
    }
}

impl From<bool> for RtValue {
    fn from(v: bool) -> Self {
        RtValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_per_type() {
        assert_eq!(RtValue::default_of(&Ty::Int), RtValue::Int(0));
        assert_eq!(RtValue::default_of(&Ty::Bool), RtValue::Bool(false));
        assert_eq!(RtValue::default_of(&Ty::Int.array_of()), RtValue::Uninit);
    }

    #[test]
    fn arrays_compare_by_identity() {
        let a = RtValue::from_ints(&[1, 2]);
        let b = RtValue::from_ints(&[1, 2]);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn const_round_trip() {
        for v in [Value::Int(4), Value::Float(1.5), Value::Bool(true)] {
            assert_eq!(RtValue::from_const(v).to_const(), Some(v));
        }
        assert_eq!(RtValue::Uninit.to_const(), None);
    }

    #[test]
    fn display_matches_ir_formatting() {
        assert_eq!(RtValue::Float(2.0).to_string(), "2.0");
        assert_eq!(RtValue::Float(2.5).to_string(), "2.5");
        assert_eq!(RtValue::Int(-3).to_string(), "-3");
        assert_eq!(RtValue::Bool(true).to_string(), "true");
    }

    #[test]
    fn deep_clone_unshares_storage() {
        let a = RtValue::from_ints(&[1, 2, 3]);
        let b = a.deep_clone();
        if let (RtValue::Array(x), RtValue::Array(y)) = (&a, &b) {
            x.borrow_mut()[0] = RtValue::Int(99);
            assert_eq!(y.borrow()[0], RtValue::Int(1));
        } else {
            panic!("expected arrays");
        }
    }

    #[test]
    fn new_array_zeroed() {
        let a = RtValue::new_array(&Ty::Float, 3);
        if let RtValue::Array(arr) = &a {
            assert_eq!(arr.borrow().len(), 3);
            assert_eq!(arr.borrow()[0], RtValue::Float(0.0));
        } else {
            panic!("expected array");
        }
    }
}
