//! Property-based tests for the mode lattice and constraint entailment.

use ent_modes::{ConstraintSet, ModeName, ModeTable, ModeVar, StaticMode, Symbol};
use proptest::prelude::*;

/// Generates a random mode table: a random DAG over up to 6 named modes.
/// Edges only go from lower index to higher index, so the order is acyclic
/// by construction; non-lattice shapes are discarded by filtering on the
/// builder result.
fn arb_table() -> impl Strategy<Value = ModeTable> {
    (2usize..=6, proptest::collection::vec(any::<bool>(), 0..36)).prop_filter_map(
        "declaration must form a lattice",
        |(n, edges)| {
            let names: Vec<ModeName> = (0..n).map(|i| ModeName::new(format!("m{i}"))).collect();
            let mut builder = ModeTable::builder();
            for m in &names {
                builder = builder.mode(m.clone());
            }
            let mut bit = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if edges.get(bit).copied().unwrap_or(false) {
                        builder = builder.le(names[i].clone(), names[j].clone());
                    }
                    bit += 1;
                }
            }
            builder.build().ok()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `le_ground` is a partial order: reflexive, transitive, antisymmetric.
    #[test]
    fn ground_order_is_a_partial_order(table in arb_table()) {
        let mut elems = vec![StaticMode::Bot, StaticMode::Top];
        elems.extend(table.modes().iter().cloned().map(StaticMode::Const));

        for a in &elems {
            prop_assert!(table.le_ground(a, a));
            for b in &elems {
                if table.le_ground(a, b) && table.le_ground(b, a) {
                    prop_assert_eq!(a, b);
                }
                for c in &elems {
                    if table.le_ground(a, b) && table.le_ground(b, c) {
                        prop_assert!(table.le_ground(a, c));
                    }
                }
            }
        }
    }

    /// lub is the least upper bound: an upper bound below all upper bounds.
    #[test]
    fn lub_is_least_upper_bound(table in arb_table()) {
        let mut elems = vec![StaticMode::Bot, StaticMode::Top];
        elems.extend(table.modes().iter().cloned().map(StaticMode::Const));

        for a in &elems {
            for b in &elems {
                let j = table.lub(a, b).expect("validated table must have lubs");
                prop_assert!(table.le_ground(a, &j));
                prop_assert!(table.le_ground(b, &j));
                for u in &elems {
                    if table.le_ground(a, u) && table.le_ground(b, u) {
                        prop_assert!(table.le_ground(&j, u));
                    }
                }
            }
        }
    }

    /// glb is the greatest lower bound, dually.
    #[test]
    fn glb_is_greatest_lower_bound(table in arb_table()) {
        let mut elems = vec![StaticMode::Bot, StaticMode::Top];
        elems.extend(table.modes().iter().cloned().map(StaticMode::Const));

        for a in &elems {
            for b in &elems {
                let m = table.glb(a, b).expect("validated table must have glbs");
                prop_assert!(table.le_ground(&m, a));
                prop_assert!(table.le_ground(&m, b));
                for l in &elems {
                    if table.le_ground(l, a) && table.le_ground(l, b) {
                        prop_assert!(table.le_ground(l, &m));
                    }
                }
            }
        }
    }

    /// lub and glb are commutative and idempotent.
    #[test]
    fn lub_glb_algebraic_laws(table in arb_table()) {
        let mut elems = vec![StaticMode::Bot, StaticMode::Top];
        elems.extend(table.modes().iter().cloned().map(StaticMode::Const));

        for a in &elems {
            prop_assert_eq!(table.lub(a, a), Some(a.clone()));
            prop_assert_eq!(table.glb(a, a), Some(a.clone()));
            for b in &elems {
                prop_assert_eq!(table.lub(a, b), table.lub(b, a));
                prop_assert_eq!(table.glb(a, b), table.glb(b, a));
                // Absorption: a ⊔ (a ⊓ b) = a
                let m = table.glb(a, b).unwrap();
                prop_assert_eq!(table.lub(a, &m), Some(a.clone()));
            }
        }
    }

    /// Entailment with an empty constraint set agrees with the ground order.
    #[test]
    fn empty_entailment_matches_ground_order(table in arb_table()) {
        let k = ConstraintSet::new();
        let mut elems = vec![StaticMode::Bot, StaticMode::Top];
        elems.extend(table.modes().iter().cloned().map(StaticMode::Const));
        for a in &elems {
            for b in &elems {
                prop_assert_eq!(k.entails(&table, a, b), table.le_ground(a, b));
            }
        }
    }

    /// Entailment is monotone: adding constraints never removes entailments.
    #[test]
    fn entailment_is_monotone(table in arb_table()) {
        let x = StaticMode::Var(ModeVar::named(Symbol::from_raw(0)));
        let y = StaticMode::Var(ModeVar::named(Symbol::from_raw(1)));
        let modes: Vec<StaticMode> = table
            .modes()
            .iter()
            .cloned()
            .map(StaticMode::Const)
            .collect();

        let mut small = ConstraintSet::new();
        small.push(x.clone(), modes[0].clone());
        let mut big = small.clone();
        big.push(y.clone(), x.clone());

        let mut elems = vec![StaticMode::Bot, StaticMode::Top, x, y];
        elems.extend(modes);
        for a in &elems {
            for b in &elems {
                if small.entails(&table, a, b) {
                    prop_assert!(big.entails(&table, a, b));
                }
            }
        }
    }
}

#[test]
fn arb_table_strategy_is_satisfiable() {
    // Sanity check that the generator produces at least one table quickly.
    let table = ModeTable::linear(["a", "b", "c", "d"]).unwrap();
    assert_eq!(table.modes().len(), 4);
}
