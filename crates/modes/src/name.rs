//! Names: mode constants, and the per-compile name table that every other
//! name (mode variables here, class and member names in `ent_syntax`) is
//! an id into.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// The name of a mode constant declared in a `modes { ... }` block, such as
/// `energy_saver` or `full_throttle`.
///
/// `ModeName` is cheap to clone (it shares an `Arc<str>`), compares by
/// string content, and is ordered lexicographically so collections of names
/// have a deterministic iteration order.
///
/// # Example
///
/// ```
/// use ent_modes::ModeName;
///
/// let a = ModeName::new("managed");
/// let b = a.clone();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "managed");
/// ```
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct ModeName(Arc<str>);

impl ModeName {
    /// Creates a mode name from a string.
    pub fn new(name: impl AsRef<str>) -> Self {
        ModeName(Arc::from(name.as_ref()))
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Equal spellings. Names of one compile share one allocation per
/// spelling, so they usually compare by pointer.
impl PartialEq for ModeName {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for ModeName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Display for ModeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ModeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModeName({})", self.0)
    }
}

impl From<&str> for ModeName {
    fn from(s: &str) -> Self {
        ModeName::new(s)
    }
}

impl From<String> for ModeName {
    fn from(s: String) -> Self {
        ModeName::new(s)
    }
}

/// Shares an already-interned name without copying it.
impl From<Arc<str>> for ModeName {
    fn from(s: Arc<str>) -> Self {
        ModeName(s)
    }
}

/// A name's id in the [`Names`] of the compile that made it. Two names of
/// one compile are equal exactly when their ids are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol with id `raw`.
    #[must_use]
    pub const fn from_raw(raw: u32) -> Self {
        Symbol(raw)
    }

    /// The id.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a `usize`, for indexing a table by name.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The spelling of every name one compile saw, by [`Symbol`]: the names
/// the language predeclares at fixed ids first, then the source's own in
/// order of first appearance.
///
/// The source's own spellings sit end to end in one string, so a table
/// costs a few allocations however many names it holds; every clone
/// shares them, for one reference count. The predeclared spellings are
/// static.
///
/// Names print through a table: the `Display` and `Debug` of a name id
/// look its spelling up in the table [`Names::enter`] made current on the
/// thread, and print `name#<id>` outside one. A [`Spelling`] carries its
/// table and prints anywhere.
///
/// # Example
///
/// ```
/// use ent_modes::{ModeVar, Names, Symbol};
///
/// let names = Names::new(&[], &["X"]);
/// let x = Symbol::from_raw(0);
/// assert_eq!(names.get(x), "X");
/// assert_eq!(names.find("X"), Some(x));
/// let var = ModeVar::named(x);
/// assert_eq!(names.enter(|| var.to_string()), "X");
/// assert_eq!(var.to_string(), "name#0");
/// assert_eq!(names.spelling(x).to_string(), "X");
/// ```
#[derive(Clone, Default)]
pub struct Names {
    /// The predeclared names, ids `0..fixed.len()`.
    fixed: &'static [&'static str],
    /// The source's own names, from id `fixed.len()` on.
    own: Arc<OwnNames>,
}

/// A source's own names: their spellings end to end, and where each
/// ends.
#[derive(Clone, Default)]
struct OwnNames {
    text: String,
    ends: Vec<u32>,
}

/// The most names one table may hold: a [`ModeVar`] keeps two bits of its
/// id for the variables the front end invents.
pub const MAX_NAMES: usize = 1 << 30;

impl Names {
    /// The table of the predeclared names `fixed` followed by `own`.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_NAMES`] names.
    #[must_use]
    pub fn new(fixed: &'static [&'static str], own: &[&str]) -> Self {
        let bytes = own.iter().map(|name| name.len()).sum();
        let mut names = Names::with_capacity(fixed, own.len(), bytes);
        for name in own {
            names.push(name);
        }
        names
    }

    /// The table of the predeclared names `fixed`, with room for `names`
    /// more names of `bytes` bytes in all.
    #[must_use]
    pub fn with_capacity(fixed: &'static [&'static str], names: usize, bytes: usize) -> Self {
        Names {
            fixed,
            own: Arc::new(OwnNames {
                text: String::with_capacity(bytes),
                ends: Vec::with_capacity(names),
            }),
        }
    }

    /// Adds `name` as the next id and returns it. Copies the spellings
    /// first if a clone shares them.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_NAMES`] names or `u32::MAX` bytes of spellings.
    pub fn push(&mut self, name: &str) -> Symbol {
        assert!(self.len() < MAX_NAMES, "too many names");
        let id = Symbol(self.len() as u32);
        let own = Arc::make_mut(&mut self.own);
        own.text.push_str(name);
        let end = u32::try_from(own.text.len()).expect("fewer than u32::MAX bytes of names");
        own.ends.push(end);
        id
    }

    /// How many names the table holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fixed.len() + self.own.ends.len()
    }

    /// Whether the table holds no name.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not an id of this table.
    #[must_use]
    pub fn get(&self, sym: Symbol) -> &str {
        let i = sym.index();
        match self.fixed.get(i) {
            Some(name) => name,
            None => {
                let own = &*self.own;
                let k = i - self.fixed.len();
                let start = match k {
                    0 => 0,
                    k => own.ends[k - 1] as usize,
                };
                &own.text[start..own.ends[k] as usize]
            }
        }
    }

    /// `sym` with this table, to print or compare without a current
    /// table.
    #[must_use]
    pub fn spelling(&self, sym: Symbol) -> Spelling {
        Spelling {
            names: self.clone(),
            sym,
        }
    }

    /// The id spelled `name`, if the table holds it: a scan, for tests
    /// and tools, not for the compiler's own lookups.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<Symbol> {
        self.iter().find(|&(_, n)| n == name).map(|(sym, _)| sym)
    }

    /// Every `(id, spelling)`, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.len() as u32).map(|i| (Symbol(i), self.get(Symbol(i))))
    }

    /// Runs `f` with this table as the one names print through on this
    /// thread, then restores the table that was current before.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Puts the previous table back, also when `f` unwinds.
        struct Restore(Option<Names>);

        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                CURRENT.with(|current| *current.borrow_mut() = previous);
            }
        }

        let previous = CURRENT.with(|current| current.replace(Some(self.clone())));
        let _restore = Restore(previous);
        f()
    }
}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, n)| n)).finish()
    }
}

thread_local! {
    /// The table names print through on this thread: see [`Names::enter`].
    static CURRENT: RefCell<Option<Names>> = const { RefCell::new(None) };
}

/// Writes the spelling of `sym` from the table current on this thread
/// ([`Names::enter`]), or `name#<id>` when there is none or it lacks the id.
///
/// # Errors
///
/// Returns the formatter's error.
pub fn write_name(f: &mut fmt::Formatter<'_>, sym: Symbol) -> fmt::Result {
    // A clone of the table, so no borrow is held while `f` writes.
    let names = CURRENT.with(|current| current.borrow().clone());
    match names.filter(|names| sym.index() < names.len()) {
        Some(names) => f.write_str(names.get(sym)),
        None => write!(f, "name#{}", sym.raw()),
    }
}

/// A name with the table it is spelled in: it prints, and compares, as
/// its spelling, with no table current. Cloning it costs a reference
/// count.
#[derive(Clone)]
pub struct Spelling {
    names: Names,
    sym: Symbol,
}

impl Spelling {
    /// The spelling.
    #[must_use]
    pub fn as_str(&self) -> &str {
        self.names.get(self.sym)
    }
}

impl PartialEq for Spelling {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Spelling {}

impl fmt::Display for Spelling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Spelling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A mode *type variable* `mt`, ranging over modes: a 4-byte id.
///
/// Mode variables come from three places:
///
/// * generic mode parameters written by the programmer, e.g. the `X` in
///   `class Agent@mode<? <= X>` ([`ModeVar::named`]);
/// * the internal mode the parser gives a class that names none
///   (`Self_C`, [`ModeVar::own_mode`]) and the typechecker a method's
///   sender (`SelfM_m`, [`ModeVar::sender_mode`]);
/// * fresh variables invented by the typechecker when opening the bounded
///   existential type of a `snapshot` expression (`$snap1`, …,
///   [`ModeVar::fresh`]).
///
/// The last two are not table entries: the id carries their kind in its
/// top two bits, so the front end invents them without growing the table.
///
/// # Example
///
/// ```
/// use ent_modes::{ModeVar, Symbol};
///
/// let x = ModeVar::named(Symbol::from_raw(3));
/// assert_eq!(x.name(), Some(Symbol::from_raw(3)));
/// assert_ne!(x, ModeVar::named(Symbol::from_raw(4)));
/// assert!(ModeVar::fresh(1).is_fresh());
/// assert_eq!(ModeVar::fresh(1).to_string(), "$snap1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModeVar(u32);

// A mode variable is a 4-byte `Copy` id, as every name but a mode
// constant is.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<ModeVar>();
    copy::<Symbol>();
    assert!(std::mem::size_of::<ModeVar>() == 4);
    assert!(std::mem::size_of::<Symbol>() == 4);
};

/// The kinds of [`ModeVar`], in the id's top two bits.
const NAMED: u32 = 0;
const OWN: u32 = 1 << 30;
const SENDER: u32 = 2 << 30;
const FRESH: u32 = 3 << 30;
const KIND: u32 = 3 << 30;

impl ModeVar {
    /// The variable the programmer wrote as `name`.
    #[must_use]
    pub const fn named(name: Symbol) -> Self {
        ModeVar(NAMED | name.0 & !KIND)
    }

    /// The internal mode of class `class` when its declaration names
    /// none (printed `Self_<class>`).
    #[must_use]
    pub const fn own_mode(class: Symbol) -> Self {
        ModeVar(OWN | class.0 & !KIND)
    }

    /// The sender mode of method `method` when it declares none (printed
    /// `SelfM_<method>`).
    #[must_use]
    pub const fn sender_mode(method: Symbol) -> Self {
        ModeVar(SENDER | method.0 & !KIND)
    }

    /// The `n`th variable opened for a snapshot (printed `$snap<n>`).
    ///
    /// # Panics
    ///
    /// Panics past `2^30 - 1` variables.
    #[must_use]
    pub fn fresh(n: u32) -> Self {
        assert!(n & KIND == 0, "too many fresh mode variables");
        ModeVar(FRESH | n)
    }

    /// The written name, for a variable the programmer wrote.
    #[must_use]
    pub const fn name(self) -> Option<Symbol> {
        if self.0 & KIND == NAMED {
            Some(Symbol(self.0))
        } else {
            None
        }
    }

    /// Whether this is a variable opened for a snapshot.
    #[must_use]
    pub const fn is_fresh(self) -> bool {
        self.0 & KIND == FRESH
    }

    /// The id, for compact tables.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The variable whose [`ModeVar::raw`] id is `raw`.
    #[must_use]
    pub const fn from_raw(raw: u32) -> Self {
        ModeVar(raw)
    }

    /// Writes the variable's spelling, its names looked up by `name`.
    ///
    /// # Errors
    ///
    /// Returns the formatter's error.
    pub fn write_with(
        self,
        f: &mut fmt::Formatter<'_>,
        name: impl Fn(&mut fmt::Formatter<'_>, Symbol) -> fmt::Result,
    ) -> fmt::Result {
        let payload = Symbol(self.0 & !KIND);
        match self.0 & KIND {
            NAMED => name(f, payload),
            OWN => {
                f.write_str("Self_")?;
                name(f, payload)
            }
            SENDER => {
                f.write_str("SelfM_")?;
                name(f, payload)
            }
            _ => write!(f, "$snap{}", payload.0),
        }
    }
}

impl fmt::Display for ModeVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, write_name)
    }
}

impl fmt::Debug for ModeVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ModeVar(")?;
        fmt::Display::fmt(self, f)?;
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mode_name_equality_is_by_content() {
        assert_eq!(ModeName::new("a"), ModeName::new("a"));
        assert_ne!(ModeName::new("a"), ModeName::new("b"));
    }

    #[test]
    fn mode_name_display_round_trips() {
        let n = ModeName::new("full_throttle");
        assert_eq!(n.to_string(), "full_throttle");
    }

    #[test]
    fn mode_name_ordering_is_lexicographic() {
        let mut v = [ModeName::new("c"), ModeName::new("a"), ModeName::new("b")];
        v.sort();
        let names: Vec<_> = v.iter().map(ModeName::as_str).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn mode_names_hash_consistently() {
        let mut set = HashSet::new();
        set.insert(ModeName::new("m"));
        assert!(set.contains(&ModeName::new("m")));
        assert!(!set.contains(&ModeName::new("n")));
    }

    #[test]
    fn mode_var_roundtrip_and_debug_nonempty() {
        let names = Names::new(&[], &["X"]);
        let x = ModeVar::named(Symbol::from_raw(0));
        assert_eq!(ModeVar::from_raw(x.raw()), x);
        assert_eq!(names.enter(|| x.to_string()), "X");
        assert!(!format!("{x:?}").is_empty());
    }

    #[test]
    fn conversions_from_str_and_string() {
        let a: ModeName = "m".into();
        let b: ModeName = String::from("m").into();
        assert_eq!(a, b);
    }

    #[test]
    fn names_resolve_fixed_then_own_ids() {
        let mut names = Names::new(&["int"], &["x", "yy"]);
        assert_eq!(names.len(), 3);
        assert_eq!(names.get(Symbol::from_raw(0)), "int");
        assert_eq!(names.get(Symbol::from_raw(1)), "x");
        assert_eq!(names.get(Symbol::from_raw(2)), "yy");
        assert_eq!(names.find("yy"), Some(Symbol::from_raw(2)));
        assert_eq!(names.find("z"), None);
        assert_eq!(format!("{names:?}"), r#"["int", "x", "yy"]"#);
        // A push after a clone leaves the clone as it was.
        let before = names.clone();
        assert_eq!(names.push("z"), Symbol::from_raw(3));
        assert_eq!((before.len(), names.len()), (3, 4));
        assert_eq!(names.get(Symbol::from_raw(3)), "z");
    }

    #[test]
    fn spellings_print_and_compare_without_a_table() {
        let a = Names::new(&[], &["Probe", "x"]);
        let b = Names::new(&[], &["x", "Probe"]);
        let probe = a.spelling(Symbol::from_raw(0));
        assert_eq!(probe.to_string(), "Probe");
        assert_eq!(format!("{probe:?}"), r#""Probe""#);
        assert_eq!(probe, b.spelling(Symbol::from_raw(1)));
        assert_ne!(probe, b.spelling(Symbol::from_raw(0)));
    }

    #[test]
    fn mode_vars_print_through_the_current_table() {
        let names = Names::new(&[], &["X", "Agent"]);
        let x = ModeVar::named(Symbol::from_raw(0));
        let own = ModeVar::own_mode(Symbol::from_raw(1));
        let sender = ModeVar::sender_mode(Symbol::from_raw(0));
        let printed = names.enter(|| format!("{x} {own} {sender} {x:?} {}", ModeVar::fresh(7)));
        assert_eq!(printed, "X Self_Agent SelfM_X ModeVar(X) $snap7");
        // Outside any table, and after `enter` returns, ids print raw.
        assert_eq!(x.to_string(), "name#0");
        // Tables nest, the inner one winning until it returns.
        let other = Names::new(&[], &["Y"]);
        let nested = names.enter(|| (other.enter(|| x.to_string()), x.to_string()));
        assert_eq!(nested, ("Y".to_string(), "X".to_string()));
    }

    #[test]
    fn invented_mode_vars_are_distinct_from_written_ones() {
        let s = Symbol::from_raw(5);
        let kinds = [
            ModeVar::named(s),
            ModeVar::own_mode(s),
            ModeVar::sender_mode(s),
            ModeVar::fresh(5),
        ];
        for (i, a) in kinds.iter().enumerate() {
            for (j, b) in kinds.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
        assert_eq!(kinds[0].name(), Some(s));
        assert!(kinds[1..].iter().all(|v| v.name().is_none()));
        assert!(kinds[3].is_fresh() && !kinds[0].is_fresh());
    }
}
