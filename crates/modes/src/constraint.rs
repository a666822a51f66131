//! Constraint sets `K` and the entailment judgment `K ⊨ K'`.

use std::fmt;

use crate::{ModeTable, ModeVar, StaticMode};

/// A single constraint `η ≤ η'` between static modes.
///
/// The dynamic mode `?` cannot appear in a constraint — this is the paper's
/// requirement that "no `?` may appear on either end of `≤`", and it is
/// enforced here by construction since [`StaticMode`] has no dynamic variant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The smaller side.
    pub lo: StaticMode,
    /// The larger side.
    pub hi: StaticMode,
}

impl Constraint {
    /// Creates the constraint `lo ≤ hi`.
    pub fn new(lo: StaticMode, hi: StaticMode) -> Self {
        Constraint { lo, hi }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ≤ {}", self.lo, self.hi)
    }
}

impl From<(StaticMode, StaticMode)> for Constraint {
    fn from((lo, hi): (StaticMode, StaticMode)) -> Self {
        Constraint { lo, hi }
    }
}

/// The constraint set `K` of the typing judgment `Γ; K ⊢ e : τ`.
///
/// Entailment `K ⊨ {η ≤ η'}` holds iff `η ≤ η'` is in the
/// reflexive–transitive closure of `K ∪ D`, where `D` is the program's
/// declared mode order ([`ModeTable`]). Queries are answered by a graph
/// search over the constraint edges plus the lattice's ground ordering, so
/// constraints between variables compose transitively with the declared
/// order (e.g. `K = {X ≤ managed}` entails `X ≤ full_throttle`).
///
/// # Example
///
/// ```
/// use ent_modes::{ConstraintSet, ModeTable, ModeName, ModeVar, StaticMode, Symbol};
///
/// # fn main() -> Result<(), ent_modes::ModeTableError> {
/// let table = ModeTable::linear(["low", "high"])?;
/// let x = StaticMode::Var(ModeVar::named(Symbol::from_raw(0)));
/// let low = StaticMode::Const(ModeName::new("low"));
/// let high = StaticMode::Const(ModeName::new("high"));
///
/// let mut k = ConstraintSet::new();
/// k.push(x.clone(), low.clone());
/// assert!(k.entails(&table, &x, &high)); // X ≤ low ≤ high
/// assert!(!k.entails(&table, &high, &x));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    items: Vec<Constraint>,
}

impl ConstraintSet {
    /// Creates an empty constraint set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Adds the constraint `lo ≤ hi`.
    pub fn push(&mut self, lo: StaticMode, hi: StaticMode) {
        let c = Constraint::new(lo, hi);
        if !self.items.contains(&c) {
            self.items.push(c);
        }
    }

    /// Adds every constraint from an iterator of `(lo, hi)` pairs.
    pub fn extend_pairs<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (StaticMode, StaticMode)>,
    {
        for (lo, hi) in pairs {
            self.push(lo, hi);
        }
    }

    /// The constraints currently in the set.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.items.iter()
    }

    /// Returns `true` if the set holds no constraints.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of constraints in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The entailment judgment `K ⊨ {lo ≤ hi}`.
    ///
    /// Searches the reachability graph whose edges are this set's
    /// constraints plus the ground ordering of `table` (with `⊥`/`⊤` at the
    /// ends). Reflexivity and transitivity are built in.
    pub fn entails(&self, table: &ModeTable, lo: &StaticMode, hi: &StaticMode) -> bool {
        if lo == hi || matches!(lo, StaticMode::Bot) || matches!(hi, StaticMode::Top) {
            return true;
        }
        // Worklist search from `lo`, following constraint edges and, between
        // ground modes, the declared order.
        let mut visited: Vec<StaticMode> = vec![lo.clone()];
        let mut frontier: Vec<StaticMode> = vec![lo.clone()];
        while let Some(cur) = frontier.pop() {
            // Direct ground comparison with the goal.
            if cur.is_ground() && hi.is_ground() && table.le_ground(&cur, hi) {
                return true;
            }
            for c in &self.items {
                let steps_to = if c.lo == cur {
                    Some(c.hi.clone())
                } else if cur.is_ground() && c.lo.is_ground() && table.le_ground(&cur, &c.lo) {
                    // cur ≤ c.lo ≤ c.hi via the declared order.
                    Some(c.hi.clone())
                } else {
                    None
                };
                if let Some(next) = steps_to {
                    if next == *hi {
                        return true;
                    }
                    if !visited.contains(&next) {
                        visited.push(next.clone());
                        frontier.push(next);
                    }
                }
            }
        }
        false
    }

    /// The entailment judgment `K ⊨ K'` for a whole set: every constraint of
    /// `other` must be entailed.
    pub fn entails_all(&self, table: &ModeTable, other: &ConstraintSet) -> bool {
        other.iter().all(|c| self.entails(table, &c.lo, &c.hi))
    }

    /// Entails every `(lo, hi)` pair in the iterator.
    pub fn entails_pairs<'a, I>(&self, table: &ModeTable, pairs: I) -> bool
    where
        I: IntoIterator<Item = &'a (StaticMode, StaticMode)>,
    {
        pairs
            .into_iter()
            .all(|(lo, hi)| self.entails(table, lo, hi))
    }

    /// Collects every mode variable mentioned by the constraints into `out`.
    pub fn collect_vars(&self, out: &mut Vec<ModeVar>) {
        for c in &self.items {
            c.lo.collect_vars(out);
            c.hi.collect_vars(out);
        }
    }
}

impl FromIterator<(StaticMode, StaticMode)> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = (StaticMode, StaticMode)>>(iter: I) -> Self {
        let mut k = ConstraintSet::new();
        k.extend_pairs(iter);
        k
    }
}

impl Extend<(StaticMode, StaticMode)> for ConstraintSet {
    fn extend<I: IntoIterator<Item = (StaticMode, StaticMode)>>(&mut self, iter: I) {
        self.extend_pairs(iter);
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModeName;

    fn c(name: &str) -> StaticMode {
        StaticMode::Const(ModeName::new(name))
    }

    fn v(name: &str) -> StaticMode {
        StaticMode::Var(ModeVar::named(crate::Symbol::from_raw(u32::from(
            name.as_bytes()[0],
        ))))
    }

    fn table() -> ModeTable {
        ModeTable::linear(["energy_saver", "managed", "full_throttle"]).unwrap()
    }

    #[test]
    fn empty_set_entails_declared_order() {
        let k = ConstraintSet::new();
        let t = table();
        assert!(k.entails(&t, &c("energy_saver"), &c("full_throttle")));
        assert!(!k.entails(&t, &c("full_throttle"), &c("energy_saver")));
    }

    #[test]
    fn reflexivity_holds_for_variables() {
        let k = ConstraintSet::new();
        let t = table();
        assert!(k.entails(&t, &v("X"), &v("X")));
    }

    #[test]
    fn bot_and_top_are_universal_bounds() {
        let k = ConstraintSet::new();
        let t = table();
        assert!(k.entails(&t, &StaticMode::Bot, &v("X")));
        assert!(k.entails(&t, &v("X"), &StaticMode::Top));
    }

    #[test]
    fn transitivity_through_variables() {
        let t = table();
        let mut k = ConstraintSet::new();
        k.push(v("X"), v("Y"));
        k.push(v("Y"), c("managed"));
        assert!(k.entails(&t, &v("X"), &c("managed")));
        // And further through the declared order:
        assert!(k.entails(&t, &v("X"), &c("full_throttle")));
        assert!(!k.entails(&t, &v("X"), &c("energy_saver")));
    }

    #[test]
    fn ground_step_into_constraint_edges() {
        // energy_saver ≤ X should follow from managed ≤ X (since
        // energy_saver ≤ managed is declared).
        let t = table();
        let mut k = ConstraintSet::new();
        k.push(c("managed"), v("X"));
        assert!(k.entails(&t, &c("energy_saver"), &v("X")));
        assert!(!k.entails(&t, &c("full_throttle"), &v("X")));
    }

    #[test]
    fn unrelated_variables_are_not_entailed() {
        let t = table();
        let mut k = ConstraintSet::new();
        k.push(v("X"), c("managed"));
        assert!(!k.entails(&t, &v("Y"), &c("managed")));
        assert!(!k.entails(&t, &v("X"), &v("Y")));
    }

    #[test]
    fn entails_all_requires_every_constraint() {
        let t = table();
        let mut k = ConstraintSet::new();
        k.push(v("X"), c("managed"));

        let goal: ConstraintSet = [(v("X"), c("full_throttle"))].into_iter().collect();
        assert!(k.entails_all(&t, &goal));

        let goal: ConstraintSet = [(v("X"), c("full_throttle")), (c("managed"), v("X"))]
            .into_iter()
            .collect();
        assert!(!k.entails_all(&t, &goal));
    }

    #[test]
    fn duplicate_constraints_are_deduplicated() {
        let mut k = ConstraintSet::new();
        k.push(v("X"), c("managed"));
        k.push(v("X"), c("managed"));
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn display_shows_constraints() {
        let mut k = ConstraintSet::new();
        k.push(v("X"), c("managed"));
        // `v` names a variable by its spelling's first byte.
        let mut spellings = vec![""; usize::from(b'X')];
        spellings.push("X");
        let names = crate::Names::new(&[], &spellings);
        assert_eq!(names.enter(|| k.to_string()), "{X ≤ managed}");
    }

    #[test]
    fn collect_vars_finds_both_sides() {
        let mut k = ConstraintSet::new();
        k.push(v("X"), v("Y"));
        let mut vars = Vec::new();
        k.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn cyclic_constraints_terminate() {
        let t = table();
        let mut k = ConstraintSet::new();
        k.push(v("X"), v("Y"));
        k.push(v("Y"), v("X"));
        assert!(k.entails(&t, &v("X"), &v("Y")));
        assert!(k.entails(&t, &v("Y"), &v("X")));
        assert!(!k.entails(&t, &v("X"), &c("energy_saver")));
    }
}
