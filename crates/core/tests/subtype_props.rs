//! Property tests for the subtyping judgment: preorder laws, invariant
//! modes, covariant mcases/arrays, over randomly generated class
//! hierarchies.

use ent_core::is_subtype;
use ent_modes::{ConstraintSet, Mode, ModeArgs, ModeName, StaticMode};
use ent_syntax::{parse_program, ClassName, ClassTable, Type};
use proptest::prelude::*;

/// Builds a random single-parent class chain `C0 <: C1 <: … <: Object`,
/// every class generic in one mode.
fn hierarchy(depth: usize) -> (ClassTable, ent_modes::ModeTable) {
    let mut src = String::from("modes { low <= mid; mid <= high; }\n");
    for i in 0..depth {
        if i + 1 < depth {
            src.push_str(&format!(
                "class C{i}@mode<X{i}> extends C{}@mode<X{i}> {{ }}\n",
                i + 1
            ));
        } else {
            src.push_str(&format!("class C{i}@mode<X{i}> {{ }}\n"));
        }
    }
    let program = parse_program(&src).expect("hierarchy parses");
    let table = ClassTable::new(&program).expect("hierarchy validates");
    (table, program.mode_table)
}

/// `C{i}@mode<mode>` in `table`'s program.
fn obj(table: &ClassTable, i: usize, mode: &str) -> Type {
    let class = table
        .names()
        .find(&format!("C{i}"))
        .expect("a class of the chain");
    Type::object(
        ClassName::new(class),
        ModeArgs::new(Mode::Static(StaticMode::Const(ModeName::new(mode))), vec![]),
    )
}

const MODES: [&str; 3] = ["low", "mid", "high"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subtyping is reflexive and transitive over the chain.
    #[test]
    fn subtyping_is_a_preorder(depth in 2usize..6, m in 0usize..3) {
        let (table, modes) = hierarchy(depth);
        let k = ConstraintSet::new();
        let mode = MODES[m];
        for i in 0..depth {
            let ti = obj(&table, i, mode);
            prop_assert!(is_subtype(&table, &modes, &k, &ti, &ti));
            for j in i..depth {
                let tj = obj(&table, j, mode);
                prop_assert!(is_subtype(&table, &modes, &k, &ti, &tj), "C{i} <: C{j}");
                if i != j {
                    prop_assert!(!is_subtype(&table, &modes, &k, &tj, &ti), "C{j} </: C{i}");
                }
            }
        }
    }

    /// Modes are invariant: differing modes break subtyping regardless of
    /// the class relationship.
    #[test]
    fn modes_are_invariant(depth in 2usize..6, a in 0usize..3, b in 0usize..3) {
        prop_assume!(a != b);
        let (table, modes) = hierarchy(depth);
        let k = ConstraintSet::new();
        let sub = obj(&table, 0, MODES[a]);
        let sup = obj(&table, depth - 1, MODES[b]);
        prop_assert!(!is_subtype(&table, &modes, &k, &sub, &sup));
    }

    /// mcase and array constructors preserve subtyping (covariance), and
    /// nesting them composes.
    #[test]
    fn constructors_are_covariant_and_compose(depth in 2usize..5, m in 0usize..3) {
        let (table, modes) = hierarchy(depth);
        let k = ConstraintSet::new();
        let sub = obj(&table, 0, MODES[m]);
        let sup = obj(&table, depth - 1, MODES[m]);
        let wrap = |t: Type, i: usize| -> Type {
            match i % 2 {
                0 => Type::MCase(Box::new(t)),
                _ => Type::Array(Box::new(t)),
            }
        };
        let mut s1 = sub;
        let mut s2 = sup;
        for i in 0..3 {
            s1 = wrap(s1, i);
            s2 = wrap(s2, i);
            prop_assert!(is_subtype(&table, &modes, &k, &s1, &s2));
            prop_assert!(!is_subtype(&table, &modes, &k, &s2, &s1));
        }
    }

    /// Everything is a subtype of Object; Object only of itself.
    #[test]
    fn object_is_top(depth in 2usize..6, i in 0usize..6, m in 0usize..3) {
        let (table, modes) = hierarchy(depth);
        let k = ConstraintSet::new();
        let i = i % depth;
        let t = obj(&table, i, MODES[m]);
        let object = Type::object(ClassName::OBJECT, ModeArgs::of_static(StaticMode::Bot));
        prop_assert!(is_subtype(&table, &modes, &k, &t, &object));
        prop_assert!(!is_subtype(&table, &modes, &k, &object, &t));
    }
}
