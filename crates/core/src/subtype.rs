//! The subtyping judgment `K ⊢ τ <: τ'`.
//!
//! Subtyping in ENT is deliberately spare (§4.1): FJ nominal subtyping,
//! reflexivity/transitivity, covariant `mcase`, and existential
//! introduction/elimination (handled in this reproduction by eagerly opening
//! snapshot existentials in the typechecker). Mode arguments are *invariant*
//! — mode discipline is enforced by the waterfall check at message sends,
//! not by subsumption.

use ent_modes::{ConstraintSet, Mode, ModeArgs, ModeTable, StaticMode};
use ent_syntax::{ClassName, ClassTable, Type};

/// Decides `K ⊢ sub <: sup` for programmer types.
///
/// # Example
///
/// ```
/// use ent_core::is_subtype;
/// use ent_modes::ConstraintSet;
/// use ent_syntax::{parse_program, ClassTable, Type};
///
/// let p = parse_program(
///     "modes { low <= high; }
///      class Rule@mode<R> { }
///      class DepthRule@mode<X> extends Rule@mode<X> { }",
/// ).unwrap();
/// let table = ClassTable::new(&p).unwrap();
/// let k = ConstraintSet::new();
///
/// let sub: Type = ent_syntax::parse_program(
///     "modes { low <= high; } class T { DepthRule@mode<low> f; }"
/// ).unwrap().classes[0].fields[0].ty.clone();
/// let sup: Type = ent_syntax::parse_program(
///     "modes { low <= high; } class T { Rule@mode<low> f; }"
/// ).unwrap().classes[0].fields[0].ty.clone();
/// assert!(is_subtype(&table, &p.mode_table, &k, &sub, &sup));
/// ```
pub fn is_subtype(
    table: &ClassTable,
    modes: &ModeTable,
    k: &ConstraintSet,
    sub: &Type,
    sup: &Type,
) -> bool {
    match (sub, sup) {
        // Error recovery: a poison type is compatible with anything.
        (Type::Error, _) | (_, Type::Error) => true,
        (a, b) if a == b => true,
        (Type::Prim(a), Type::Prim(b)) => a == b,
        (Type::ModeValue, Type::ModeValue) => true,
        // Arrays are immutable, so element covariance is sound.
        (Type::Array(a), Type::Array(b)) => is_subtype(table, modes, k, a, b),
        // Covariant mode cases (the paper's only ENT-specific subtype rule).
        (Type::MCase(a), Type::MCase(b)) => is_subtype(table, modes, k, a, b),
        (Type::Object { class: c, args: ai }, Type::Object { class: d, args: bi }) => {
            // Everything is a subtype of Object at its own mode (and Object
            // is mode-transparent).
            if d == &ClassName::OBJECT {
                return true;
            }
            if !table.is_subclass(c, d) {
                return false;
            }
            // Compute c's view of its ancestor d's mode arguments and
            // compare invariantly.
            let Some(view) = ancestor_args(table, c, ai, d) else {
                return false;
            };
            mode_args_eq(modes, k, &view, bi)
        }
        _ => false,
    }
}

/// Walks the inheritance chain from `c` (instantiated with `args`) up to
/// ancestor `d`, threading the superclass instantiations, and returns the
/// resulting mode arguments for `d`.
pub fn ancestor_args(
    table: &ClassTable,
    c: &ClassName,
    args: &ModeArgs,
    d: &ClassName,
) -> Option<ModeArgs> {
    let mut cur = *c;
    let mut cur_args = args.clone();
    loop {
        if &cur == d {
            return Some(cur_args);
        }
        let decl = table.class(&cur)?;
        let sup_name = decl.superclass;
        if sup_name == ClassName::OBJECT {
            return None;
        }
        let subst = table.class_subst(&cur, &cur_args);
        let sup = table.class(&sup_name)?;
        let flat: Vec<StaticMode> = if decl.super_args.is_empty() {
            sup.mode_params
                .bounds
                .iter()
                .map(|b| b.lo.clone())
                .collect()
        } else {
            decl.super_args.iter().map(|m| m.apply(&subst)).collect()
        };
        // Own-mode preservation (validated by the table) means the first
        // super argument tracks the object's own mode — in particular a
        // dynamic `?` stays dynamic through the chain.
        let mode = if cur_args.mode.is_dynamic() {
            Mode::Dynamic
        } else if let Some(first) = flat.first() {
            Mode::Static(first.clone())
        } else {
            Mode::Static(StaticMode::Bot)
        };
        let rest = flat.into_iter().skip(1).collect();
        cur_args = ModeArgs::new(mode, rest);
        cur = sup_name;
    }
}

/// Mode equality under constraints: `a ≤ b` and `b ≤ a`.
pub fn mode_eq_static(
    modes: &ModeTable,
    k: &ConstraintSet,
    a: &StaticMode,
    b: &StaticMode,
) -> bool {
    a == b || (k.entails(modes, a, b) && k.entails(modes, b, a))
}

fn mode_args_eq(modes: &ModeTable, k: &ConstraintSet, a: &ModeArgs, b: &ModeArgs) -> bool {
    let mode_ok = match (&a.mode, &b.mode) {
        (Mode::Dynamic, Mode::Dynamic) => true,
        (Mode::Static(x), Mode::Static(y)) => mode_eq_static(modes, k, x, y),
        _ => false,
    };
    mode_ok
        && a.rest.len() == b.rest.len()
        && a.rest
            .iter()
            .zip(&b.rest)
            .all(|(x, y)| mode_eq_static(modes, k, x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_modes::{ModeName, ModeVar};
    use ent_syntax::parse_program;

    fn setup() -> (ClassTable, ModeTable) {
        let p = parse_program(
            "modes { low <= high; }
             class Rule@mode<R> { }
             class DepthRule@mode<X> extends Rule@mode<X> { }
             class MaxRule@mode<Y> extends Rule@mode<Y> { }
             class Plain { }
             class SubPlain extends Plain { }",
        )
        .unwrap();
        let t = ClassTable::new(&p).unwrap();
        (t, p.mode_table)
    }

    /// The class spelled `name` in `t`'s program.
    fn class(t: &ClassTable, name: &str) -> ClassName {
        ClassName::new(t.names().find(name).expect("a class of the program"))
    }

    fn obj(t: &ClassTable, name: &str, mode: StaticMode) -> Type {
        Type::object(class(t, name), ModeArgs::of_static(mode))
    }

    fn low() -> StaticMode {
        StaticMode::Const(ModeName::new("low"))
    }

    fn high() -> StaticMode {
        StaticMode::Const(ModeName::new("high"))
    }

    #[test]
    fn reflexivity() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        let ty = obj(&t, "Rule", low());
        assert!(is_subtype(&t, &m, &k, &ty, &ty));
        assert!(is_subtype(&t, &m, &k, &Type::INT, &Type::INT));
    }

    #[test]
    fn nominal_subtyping_preserves_mode() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        assert!(is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "DepthRule", low()),
            &obj(&t, "Rule", low())
        ));
        // Mode is invariant:
        assert!(!is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "DepthRule", low()),
            &obj(&t, "Rule", high())
        ));
        // And not the other direction:
        assert!(!is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "Rule", low()),
            &obj(&t, "DepthRule", low())
        ));
        // Siblings unrelated:
        assert!(!is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "DepthRule", low()),
            &obj(&t, "MaxRule", low())
        ));
    }

    #[test]
    fn everything_is_an_object() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        let object = Type::object(ClassName::OBJECT, ModeArgs::of_static(StaticMode::Bot));
        assert!(is_subtype(&t, &m, &k, &obj(&t, "Rule", high()), &object));
        assert!(is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "Plain", StaticMode::Bot),
            &object
        ));
    }

    #[test]
    fn neutral_chain_subtyping() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        assert!(is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "SubPlain", StaticMode::Bot),
            &obj(&t, "Plain", StaticMode::Bot)
        ));
    }

    #[test]
    fn mcase_is_covariant() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        let sub = Type::MCase(Box::new(obj(&t, "DepthRule", low())));
        let sup = Type::MCase(Box::new(obj(&t, "Rule", low())));
        assert!(is_subtype(&t, &m, &k, &sub, &sup));
        assert!(!is_subtype(&t, &m, &k, &sup, &sub));
    }

    #[test]
    fn arrays_are_covariant() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        let sub = Type::Array(Box::new(obj(&t, "DepthRule", low())));
        let sup = Type::Array(Box::new(obj(&t, "Rule", low())));
        assert!(is_subtype(&t, &m, &k, &sub, &sup));
        assert!(!is_subtype(
            &t,
            &m,
            &k,
            &Type::Array(Box::new(Type::INT)),
            &Type::Array(Box::new(Type::STR))
        ));
    }

    #[test]
    fn mode_equality_uses_constraints() {
        let (t, m) = setup();
        let x = StaticMode::Var(ModeVar::named(t.names().find("X").unwrap()));
        let mut k = ConstraintSet::new();
        k.push(x.clone(), low());
        k.push(low(), x.clone());
        assert!(is_subtype(
            &t,
            &m,
            &k,
            &obj(&t, "DepthRule", x.clone()),
            &obj(&t, "Rule", low())
        ));
        // Without both directions, not equal:
        let mut k1 = ConstraintSet::new();
        k1.push(x.clone(), low());
        assert!(!is_subtype(
            &t,
            &m,
            &k1,
            &obj(&t, "DepthRule", x),
            &obj(&t, "Rule", low())
        ));
    }

    #[test]
    fn dynamic_modes_match_dynamic_only() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        let dyn_depth = Type::object(class(&t, "DepthRule"), ModeArgs::of_dynamic());
        let dyn_rule = Type::object(class(&t, "Rule"), ModeArgs::of_dynamic());
        // (No dynamic classes in this table, but the judgment itself is
        // structural.)
        assert!(is_subtype(&t, &m, &k, &dyn_depth, &dyn_rule));
        assert!(!is_subtype(&t, &m, &k, &dyn_depth, &obj(&t, "Rule", low())));
    }

    #[test]
    fn primitives_do_not_cross() {
        let (t, m) = setup();
        let k = ConstraintSet::new();
        assert!(!is_subtype(&t, &m, &k, &Type::INT, &Type::DOUBLE));
        assert!(!is_subtype(&t, &m, &k, &Type::STR, &obj(&t, "Rule", low())));
    }
}
