//! Interned names for mode constants and mode type variables.

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
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// A mode *type variable* `mt`, ranging over modes.
///
/// Mode variables come from two places:
///
/// * generic mode parameters written by the programmer, e.g. the `X` in
///   `class Agent@mode<? <= X>`;
/// * fresh variables invented by the typechecker when opening the bounded
///   existential type of a `snapshot` expression.
///
/// # Example
///
/// ```
/// use ent_modes::ModeVar;
///
/// let x = ModeVar::new("X");
/// assert_eq!(x.as_str(), "X");
/// assert_ne!(x, ModeVar::new("Y"));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModeVar(Arc<str>);

impl ModeVar {
    /// Creates a mode variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ModeVar(Arc::from(name.as_ref()))
    }

    /// Returns the variable name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModeVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ModeVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModeVar({})", self.0)
    }
}

impl From<&str> for ModeVar {
    fn from(s: &str) -> Self {
        ModeVar::new(s)
    }
}

/// Shares an already-interned name without copying it.
impl From<Arc<str>> for ModeVar {
    fn from(s: Arc<str>) -> Self {
        ModeVar(s)
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
        let x = ModeVar::new("X");
        assert_eq!(x.to_string(), "X");
        assert!(!format!("{x:?}").is_empty());
    }

    #[test]
    fn conversions_from_str_and_string() {
        let a: ModeName = "m".into();
        let b: ModeName = String::from("m").into();
        assert_eq!(a, b);
        let v: ModeVar = "X".into();
        assert_eq!(v.as_str(), "X");
    }
}
