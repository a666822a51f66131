//! The validated mode declaration `D`: a finite lattice of mode constants.

use std::fmt;

use crate::{ModeName, ModeTableError, StaticMode};

/// The program's mode declaration `D`, validated into a finite lattice.
///
/// Built from the pairs written in a `modes { a <= b; ... }` block. The
/// implicit ends `⊥` and `⊤` are adjoined automatically; construction fails
/// if the declared order is cyclic or if any pair of modes lacks a unique
/// least upper bound or greatest lower bound (the paper requires `D` to form
/// a lattice for the program to be well-typed).
///
/// # Example
///
/// ```
/// use ent_modes::{ModeName, ModeTable};
///
/// # fn main() -> Result<(), ent_modes::ModeTableError> {
/// let table = ModeTable::linear(["energy_saver", "managed", "full_throttle"])?;
/// assert_eq!(table.modes().len(), 3);
/// assert!(table.le_const(&ModeName::new("energy_saver"), &ModeName::new("full_throttle")));
/// assert!(!table.le_const(&ModeName::new("full_throttle"), &ModeName::new("managed")));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeTable {
    /// Declared mode constants in declaration order.
    modes: Vec<ModeName>,
    /// `le[a * n + b]` = `a ≤ b` over the `n` declared constants
    /// (reflexive–transitive), by position in `modes`.
    le: Vec<bool>,
}

impl ModeTable {
    /// Starts building a mode table from `≤` pairs.
    pub fn builder() -> ModeTableBuilder {
        ModeTableBuilder::default()
    }

    /// Builds a totally ordered ("linear") mode table, lowest mode first.
    ///
    /// This is the common shape in the paper's benchmarks:
    /// `energy_saver <= managed <= full_throttle`.
    ///
    /// # Errors
    ///
    /// Returns an error if `names` is empty or uses a reserved name.
    pub fn linear<I, S>(names: I) -> Result<Self, ModeTableError>
    where
        I: IntoIterator<Item = S>,
        S: Into<ModeName>,
    {
        let names: Vec<ModeName> = names.into_iter().map(Into::into).collect();
        let mut builder = ModeTable::builder();
        for m in &names {
            builder = builder.mode(m.clone());
        }
        for pair in names.windows(2) {
            builder = builder.le(pair[0].clone(), pair[1].clone());
        }
        builder.build()
    }

    /// The declared mode constants, in declaration order (the paper's
    /// `modes(P)`, used for mcase exhaustiveness).
    pub fn modes(&self) -> &[ModeName] {
        &self.modes
    }

    /// Returns `true` if `name` is a declared mode constant.
    pub fn contains(&self, name: &ModeName) -> bool {
        self.position(name).is_some()
    }

    /// The position of `name` in [`ModeTable::modes`], if declared. A
    /// scan: a block holds at most a few dozen modes, and names of one
    /// compile compare by pointer.
    pub fn position(&self, name: &ModeName) -> Option<usize> {
        self.modes.iter().position(|m| m == name)
    }

    /// Orders two declared constants by position in [`ModeTable::modes`].
    ///
    /// # Panics
    ///
    /// Panics if either position is out of range.
    pub fn le_at(&self, a: usize, b: usize) -> bool {
        let n = self.modes.len();
        assert!(a < n && b < n, "mode position out of range");
        self.le[a * n + b]
    }

    /// Orders two declared constants: `a ≤ b` under the declared order.
    ///
    /// Undeclared names are unrelated to everything except themselves.
    pub fn le_const(&self, a: &ModeName, b: &ModeName) -> bool {
        if a == b {
            return true;
        }
        match (self.position(a), self.position(b)) {
            (Some(i), Some(j)) => self.le_at(i, j),
            _ => false,
        }
    }

    /// Orders two *ground* static modes (no variables), with `⊥`/`⊤` at the
    /// ends. Returns `false` when either side is a variable — variable
    /// ordering is the business of [`crate::ConstraintSet::entails`].
    pub fn le_ground(&self, a: &StaticMode, b: &StaticMode) -> bool {
        match (a, b) {
            (StaticMode::Bot, _) | (_, StaticMode::Top) => true,
            (StaticMode::Top, _) | (_, StaticMode::Bot) => false,
            (StaticMode::Const(x), StaticMode::Const(y)) => self.le_const(x, y),
            _ => false,
        }
    }

    /// Least upper bound of two ground modes in the `⊥`/`⊤`-completed
    /// lattice. Returns `None` if either argument is a variable.
    pub fn lub(&self, a: &StaticMode, b: &StaticMode) -> Option<StaticMode> {
        if !a.is_ground() || !b.is_ground() {
            return None;
        }
        if self.le_ground(a, b) {
            return Some(b.clone());
        }
        if self.le_ground(b, a) {
            return Some(a.clone());
        }
        // Incomparable constants: search minimal common upper bounds.
        let (x, y) = match (a, b) {
            (StaticMode::Const(x), StaticMode::Const(y)) => (x, y),
            _ => unreachable!("non-const ground modes are always comparable"),
        };
        let (i, j) = (self.position(x)?, self.position(y)?);
        let uppers: Vec<usize> = (0..self.modes.len())
            .filter(|&k| self.le_at(i, k) && self.le_at(j, k))
            .collect();
        let minimal: Vec<usize> = uppers
            .iter()
            .copied()
            .filter(|&k| uppers.iter().all(|&u| !self.le_at(u, k) || u == k))
            .collect();
        match minimal.as_slice() {
            [only] => Some(StaticMode::Const(self.modes[*only].clone())),
            [] => Some(StaticMode::Top),
            _ => None,
        }
    }

    /// Greatest lower bound of two ground modes in the `⊥`/`⊤`-completed
    /// lattice. Returns `None` if either argument is a variable.
    pub fn glb(&self, a: &StaticMode, b: &StaticMode) -> Option<StaticMode> {
        if !a.is_ground() || !b.is_ground() {
            return None;
        }
        if self.le_ground(a, b) {
            return Some(a.clone());
        }
        if self.le_ground(b, a) {
            return Some(b.clone());
        }
        let (x, y) = match (a, b) {
            (StaticMode::Const(x), StaticMode::Const(y)) => (x, y),
            _ => unreachable!("non-const ground modes are always comparable"),
        };
        let (i, j) = (self.position(x)?, self.position(y)?);
        let lowers: Vec<usize> = (0..self.modes.len())
            .filter(|&k| self.le_at(k, i) && self.le_at(k, j))
            .collect();
        let maximal: Vec<usize> = lowers
            .iter()
            .copied()
            .filter(|&k| lowers.iter().all(|&l| !self.le_at(k, l) || l == k))
            .collect();
        match maximal.as_slice() {
            [only] => Some(StaticMode::Const(self.modes[*only].clone())),
            [] => Some(StaticMode::Bot),
            _ => None,
        }
    }
}

impl ModeTable {
    /// Renders the lattice's covering edges as Graphviz DOT, with the
    /// implicit `⊥`/`⊤` ends included — handy for documenting a program's
    /// mode structure.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph modes {\n  rankdir=BT;\n");
        out.push_str("  bot [label=\"⊥\"];\n  top [label=\"⊤\"];\n");
        for m in &self.modes {
            out.push_str(&format!("  {m};\n"));
        }
        let n = self.modes.len();
        let covering = |i: usize, j: usize| {
            i != j
                && self.le_at(i, j)
                && !(0..n).any(|k| k != i && k != j && self.le_at(i, k) && self.le_at(k, j))
        };
        for (i, a) in self.modes.iter().enumerate() {
            // bot -> minimal elements; maximal elements -> top.
            if !(0..n).any(|k| k != i && self.le_at(k, i)) {
                out.push_str(&format!("  bot -> {a};\n"));
            }
            if !(0..n).any(|k| k != i && self.le_at(i, k)) {
                out.push_str(&format!("  {a} -> top;\n"));
            }
            for (j, b) in self.modes.iter().enumerate() {
                if covering(i, j) {
                    out.push_str(&format!("  {a} -> {b};\n"));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for ModeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "modes {{ ")?;
        let mut first = true;
        for (i, a) in self.modes.iter().enumerate() {
            for (j, b) in self.modes.iter().enumerate() {
                // Print only covering edges (transitive reduction).
                if i != j
                    && self.le_at(i, j)
                    && !(0..self.modes.len())
                        .any(|k| k != i && k != j && self.le_at(i, k) && self.le_at(k, j))
                {
                    if !first {
                        write!(f, "; ")?;
                    }
                    write!(f, "{a} <= {b}")?;
                    first = false;
                }
            }
        }
        write!(f, " }}")
    }
}

/// Incrementally collects `≤` pairs and validates them into a [`ModeTable`].
///
/// Declaring a mode scans the modes so far, and [`ModeTableBuilder::build`]
/// takes time cubic in their number; `ent_syntax` refuses a `modes` block
/// with more than `ent_syntax::MAX_MODES` of them before building one.
#[derive(Clone, Debug, Default)]
pub struct ModeTableBuilder {
    modes: Vec<ModeName>,
    pairs: Vec<(ModeName, ModeName)>,
}

impl ModeTableBuilder {
    /// Declares a mode constant without relating it to any other (useful for
    /// isolated modes, which sit between `⊥` and `⊤` only).
    pub fn mode(mut self, name: ModeName) -> Self {
        if !self.modes.contains(&name) {
            self.modes.push(name);
        }
        self
    }

    /// Declares `lo <= hi`, declaring both names as needed.
    pub fn le(mut self, lo: ModeName, hi: ModeName) -> Self {
        if !self.modes.contains(&lo) {
            self.modes.push(lo.clone());
        }
        if !self.modes.contains(&hi) {
            self.modes.push(hi.clone());
        }
        self.pairs.push((lo, hi));
        self
    }

    /// Validates the collected declaration into a [`ModeTable`].
    ///
    /// # Errors
    ///
    /// * [`ModeTableError::Empty`] if no mode was declared;
    /// * [`ModeTableError::ReservedName`] for `bot`/`top`;
    /// * [`ModeTableError::Cycle`] if the declared `≤` pairs are cyclic;
    /// * [`ModeTableError::NoLub`]/[`ModeTableError::NoGlb`] if the
    ///   `⊥`/`⊤`-completion fails to be a lattice.
    #[allow(clippy::needless_range_loop)] // Floyd–Warshall is clearest with indices
    pub fn build(self) -> Result<ModeTable, ModeTableError> {
        if self.modes.is_empty() {
            return Err(ModeTableError::Empty);
        }
        for m in &self.modes {
            if m.as_str() == "bot" || m.as_str() == "top" {
                return Err(ModeTableError::ReservedName(m.clone()));
            }
        }
        let n = self.modes.len();
        let at = |m: &ModeName| {
            self.modes
                .iter()
                .position(|d| d == m)
                .expect("every paired mode is declared")
        };

        // Reflexive–transitive closure via Floyd–Warshall, over one
        // row-major `n × n` matrix.
        let mut le = vec![false; n * n];
        for i in 0..n {
            le[i * n + i] = true;
        }
        for (a, b) in &self.pairs {
            le[at(a) * n + at(b)] = true;
        }
        for k in 0..n {
            for i in 0..n {
                if le[i * n + k] {
                    for j in 0..n {
                        if le[k * n + j] {
                            le[i * n + j] = true;
                        }
                    }
                }
            }
        }

        // Antisymmetry: a cycle makes two distinct modes mutually ≤.
        for i in 0..n {
            for j in 0..n {
                if i != j && le[i * n + j] && le[j * n + i] {
                    return Err(ModeTableError::Cycle(self.modes[i].clone()));
                }
            }
        }

        let table = ModeTable {
            modes: self.modes,
            le,
        };

        // Lattice check over the ⊥/⊤-completion: every pair of declared
        // constants must have a unique lub and glb. Both are symmetric, so
        // each unordered pair is checked once, in the order that reports
        // the same first failure as checking every ordered pair.
        let modes = &table.modes;
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                let (sa, sb) = (StaticMode::Const(a.clone()), StaticMode::Const(b.clone()));
                if table.lub(&sa, &sb).is_none() {
                    return Err(ModeTableError::NoLub(a.clone(), b.clone()));
                }
                if table.glb(&sa, &sb).is_none() {
                    return Err(ModeTableError::NoGlb(a.clone(), b.clone()));
                }
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str) -> StaticMode {
        StaticMode::Const(ModeName::new(name))
    }

    fn three() -> ModeTable {
        ModeTable::linear(["energy_saver", "managed", "full_throttle"]).unwrap()
    }

    #[test]
    fn linear_order_is_transitive_and_reflexive() {
        let t = three();
        let (s, m, f) = (
            ModeName::new("energy_saver"),
            ModeName::new("managed"),
            ModeName::new("full_throttle"),
        );
        assert!(t.le_const(&s, &s));
        assert!(t.le_const(&s, &m));
        assert!(t.le_const(&m, &f));
        assert!(t.le_const(&s, &f));
        assert!(!t.le_const(&f, &s));
        assert!(!t.le_const(&m, &s));
    }

    #[test]
    fn bot_and_top_bound_everything() {
        let t = three();
        assert!(t.le_ground(&StaticMode::Bot, &c("managed")));
        assert!(t.le_ground(&c("managed"), &StaticMode::Top));
        assert!(t.le_ground(&StaticMode::Bot, &StaticMode::Top));
        assert!(!t.le_ground(&StaticMode::Top, &c("managed")));
        assert!(!t.le_ground(&c("managed"), &StaticMode::Bot));
    }

    #[test]
    fn undeclared_names_are_only_reflexively_related() {
        let t = three();
        let ghost = ModeName::new("ghost");
        assert!(t.le_const(&ghost, &ghost));
        assert!(!t.le_const(&ghost, &ModeName::new("managed")));
        assert!(!t.le_const(&ModeName::new("managed"), &ghost));
    }

    #[test]
    fn cycle_is_rejected() {
        let err = ModeTable::builder()
            .le(ModeName::new("a"), ModeName::new("b"))
            .le(ModeName::new("b"), ModeName::new("a"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModeTableError::Cycle(_)));
    }

    #[test]
    fn empty_declaration_is_rejected() {
        assert_eq!(
            ModeTable::builder().build().unwrap_err(),
            ModeTableError::Empty
        );
    }

    #[test]
    fn reserved_names_are_rejected() {
        let err = ModeTable::builder()
            .mode(ModeName::new("top"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModeTableError::ReservedName(_)));
    }

    #[test]
    fn diamond_is_a_lattice() {
        // a <= b, a <= c, b <= d, c <= d
        let t = ModeTable::builder()
            .le(ModeName::new("a"), ModeName::new("b"))
            .le(ModeName::new("a"), ModeName::new("c"))
            .le(ModeName::new("b"), ModeName::new("d"))
            .le(ModeName::new("c"), ModeName::new("d"))
            .build()
            .unwrap();
        assert_eq!(t.lub(&c("b"), &c("c")), Some(c("d")));
        assert_eq!(t.glb(&c("b"), &c("c")), Some(c("a")));
    }

    #[test]
    fn incomparable_pair_without_common_bound_meets_at_lattice_ends() {
        // Two isolated modes: lub is ⊤, glb is ⊥ in the completion.
        let t = ModeTable::builder()
            .mode(ModeName::new("a"))
            .mode(ModeName::new("b"))
            .build()
            .unwrap();
        assert_eq!(t.lub(&c("a"), &c("b")), Some(StaticMode::Top));
        assert_eq!(t.glb(&c("a"), &c("b")), Some(StaticMode::Bot));
    }

    #[test]
    fn non_lattice_order_is_rejected() {
        // "Bowtie": a,b <= c and a,b <= d with c,d incomparable gives two
        // minimal upper bounds for {a,b} — not a lattice.
        let err = ModeTable::builder()
            .le(ModeName::new("a"), ModeName::new("c"))
            .le(ModeName::new("a"), ModeName::new("d"))
            .le(ModeName::new("b"), ModeName::new("c"))
            .le(ModeName::new("b"), ModeName::new("d"))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ModeTableError::NoLub(_, _) | ModeTableError::NoGlb(_, _)
        ));
    }

    #[test]
    fn lub_glb_with_comparable_arguments() {
        let t = three();
        assert_eq!(t.lub(&c("energy_saver"), &c("managed")), Some(c("managed")));
        assert_eq!(
            t.glb(&c("energy_saver"), &c("managed")),
            Some(c("energy_saver"))
        );
        assert_eq!(t.lub(&StaticMode::Bot, &c("managed")), Some(c("managed")));
        assert_eq!(t.glb(&StaticMode::Top, &c("managed")), Some(c("managed")));
    }

    #[test]
    fn lub_of_variables_is_none() {
        let t = three();
        let x = StaticMode::Var(crate::ModeVar::named(crate::Symbol::from_raw(0)));
        assert_eq!(t.lub(&x, &c("managed")), None);
        assert_eq!(t.glb(&c("managed"), &x), None);
        assert!(!t.le_ground(&x, &c("managed")));
    }

    #[test]
    fn to_dot_renders_covering_edges_and_ends() {
        let dot = three().to_dot();
        assert!(dot.contains("energy_saver -> managed"));
        assert!(dot.contains("managed -> full_throttle"));
        assert!(!dot.contains("energy_saver -> full_throttle"));
        assert!(dot.contains("bot -> energy_saver"));
        assert!(dot.contains("full_throttle -> top"));

        // Diamond: both middle elements reachable from a, both reach d.
        let t = ModeTable::builder()
            .le(ModeName::new("a"), ModeName::new("b"))
            .le(ModeName::new("a"), ModeName::new("c"))
            .le(ModeName::new("b"), ModeName::new("d"))
            .le(ModeName::new("c"), ModeName::new("d"))
            .build()
            .unwrap();
        let dot = t.to_dot();
        assert!(dot.contains("a -> b") && dot.contains("a -> c"));
        assert!(dot.contains("b -> d") && dot.contains("c -> d"));
        assert!(dot.contains("bot -> a") && dot.contains("d -> top"));
    }

    #[test]
    fn display_prints_covering_edges() {
        let s = three().to_string();
        assert!(s.contains("energy_saver <= managed"));
        assert!(s.contains("managed <= full_throttle"));
        assert!(!s.contains("energy_saver <= full_throttle"));
    }
}
