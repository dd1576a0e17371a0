//! What to split: targets and plan construction.

use crate::error::SplitError;
use hps_ir::{ClassId, FieldId, FuncId, GlobalId, LocalId, Program};

/// One unit of splitting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SplitTarget {
    /// Split function `func`, initiating the slice from local `seed`
    /// (§2.2 "Function Splitting Details").
    Function {
        /// The function to split.
        func: FuncId,
        /// The local variable the slice starts from.
        seed: LocalId,
    },
    /// Hide global variable `global` across every function that references
    /// it (§2.2 "Global program variables can also be hidden in Hf").
    Global {
        /// The global to hide.
        global: GlobalId,
    },
    /// Split class `class`, hiding the given scalar fields and slicing
    /// every method that touches them (§2.2, object-oriented software).
    Class {
        /// The class to split.
        class: ClassId,
        /// The fields to hide.
        fields: Vec<FieldId>,
    },
}

/// A complete splitting plan.
///
/// The struct is `#[non_exhaustive]` so future optimizer knobs (see
/// `hps-security`'s `optimize` module) can be added without breaking
/// downstream crates: construct plans with [`SplitPlan::new`] /
/// [`SplitPlan::from_targets`] and the builder setters, not with a struct
/// literal. The existing fields stay `pub` and freely readable.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub struct SplitPlan {
    /// The targets, each becoming one hidden component.
    pub targets: Vec<SplitTarget>,
    /// Apply control-flow promotion (disable for the ablation experiment).
    pub promote_control: bool,
}

impl SplitPlan {
    /// An empty plan; [`SplitPlan::from_targets`] and
    /// [`SplitPlan::single`] build plans with targets.
    pub fn new() -> SplitPlan {
        SplitPlan {
            targets: Vec::new(),
            promote_control: true,
        }
    }

    /// A plan over the given targets with control promotion on.
    pub fn from_targets(targets: Vec<SplitTarget>) -> SplitPlan {
        SplitPlan {
            targets,
            promote_control: true,
        }
    }

    /// Sets control-flow promotion (builder setter;
    /// [`SplitPlan::without_promotion`] is the common shorthand).
    pub fn with_promotion(mut self, promote: bool) -> SplitPlan {
        self.promote_control = promote;
        self
    }

    /// Plan splitting a single function seeded at a named local variable.
    ///
    /// # Errors
    ///
    /// Returns [`SplitError::NoSuchFunction`] / [`SplitError::NoSuchVariable`]
    /// for unknown names.
    pub fn single(program: &Program, func: &str, var: &str) -> Result<SplitPlan, SplitError> {
        let fid = program
            .func_by_name(func)
            .ok_or_else(|| SplitError::NoSuchFunction(func.to_string()))?;
        let seed =
            program
                .func(fid)
                .local_by_name(var)
                .ok_or_else(|| SplitError::NoSuchVariable {
                    func: func.to_string(),
                    var: var.to_string(),
                })?;
        Ok(SplitPlan {
            targets: vec![SplitTarget::Function { func: fid, seed }],
            promote_control: true,
        })
    }

    /// Plan hiding a single named global.
    ///
    /// # Errors
    ///
    /// Returns [`SplitError::NoSuchGlobal`] for unknown names.
    pub fn global(program: &Program, name: &str) -> Result<SplitPlan, SplitError> {
        let gid = program
            .global_by_name(name)
            .ok_or_else(|| SplitError::NoSuchGlobal(name.to_string()))?;
        Ok(SplitPlan {
            targets: vec![SplitTarget::Global { global: gid }],
            promote_control: true,
        })
    }

    /// Plan splitting a named class, hiding all its scalar fields.
    ///
    /// # Errors
    ///
    /// Returns [`SplitError::NoSuchClass`] for unknown names and
    /// [`SplitError::BadSeed`] if the class has no scalar fields.
    pub fn class(program: &Program, name: &str) -> Result<SplitPlan, SplitError> {
        let cid = program
            .class_by_name(name)
            .ok_or_else(|| SplitError::NoSuchClass(name.to_string()))?;
        let fields: Vec<FieldId> = program
            .class(cid)
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.ty.is_scalar())
            .map(|(i, _)| FieldId::new(i))
            .collect();
        if fields.is_empty() {
            return Err(SplitError::BadSeed(format!(
                "class `{name}` has no scalar fields to hide"
            )));
        }
        Ok(SplitPlan {
            targets: vec![SplitTarget::Class { class: cid, fields }],
            promote_control: true,
        })
    }

    /// Disables control promotion (ablation experiments).
    pub fn without_promotion(mut self) -> SplitPlan {
        self.promote_control = false;
        self
    }

    /// Adds another function target.
    ///
    /// # Errors
    ///
    /// Same as [`SplitPlan::single`].
    pub fn and_function(
        mut self,
        program: &Program,
        func: &str,
        var: &str,
    ) -> Result<SplitPlan, SplitError> {
        let one = SplitPlan::single(program, func, var)?;
        self.targets.extend(one.targets);
        Ok(self)
    }
}

impl Default for SplitPlan {
    fn default() -> SplitPlan {
        SplitPlan::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        global count: int = 1;
        class P { x: int; data: int[]; }
        fn f(n: int) -> int { var a: int = n; return a; }
        fn main() { print(f(count)); }";

    #[test]
    fn single_resolves_names() {
        let p = hps_lang::parse(SRC).unwrap();
        let plan = SplitPlan::single(&p, "f", "a").unwrap();
        assert_eq!(plan.targets.len(), 1);
        assert!(matches!(plan.targets[0], SplitTarget::Function { .. }));
        assert!(SplitPlan::single(&p, "nope", "a").is_err());
        assert!(SplitPlan::single(&p, "f", "nope").is_err());
    }

    #[test]
    fn global_and_class_targets() {
        let p = hps_lang::parse(SRC).unwrap();
        assert!(SplitPlan::global(&p, "count").is_ok());
        assert!(SplitPlan::global(&p, "nope").is_err());
        let plan = SplitPlan::class(&p, "P").unwrap();
        match &plan.targets[0] {
            SplitTarget::Class { fields, .. } => assert_eq!(fields.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(SplitPlan::class(&p, "Nope").is_err());
    }

    #[test]
    fn promotion_toggle_and_chaining() {
        let p = hps_lang::parse(SRC).unwrap();
        let plan = SplitPlan::single(&p, "f", "a").unwrap().without_promotion();
        assert!(!plan.promote_control);
        let plan2 = SplitPlan::new().and_function(&p, "f", "a").unwrap();
        assert_eq!(plan2.targets.len(), 1);
    }
}
