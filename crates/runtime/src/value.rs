//! Runtime values.

use std::fmt;
use std::sync::Arc;

use ent_modes::{ModeName, StaticMode};

/// A reference into the interpreter heap.
pub type ObjRef = usize;

/// A runtime value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(Arc<str>),
    /// The unit value.
    Unit,
    /// A mode value (the result of an attributor).
    Mode(ModeName),
    /// An immutable array.
    Array(Arc<Vec<Value>>),
    /// A heap object.
    Obj(ObjRef),
    /// A mode case value `mcase{m: v; ...}` with eagerly evaluated arms.
    MCase(Arc<Vec<(ModeName, Value)>>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// A short name for the value's runtime type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Double(_) => "double",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Unit => "unit",
            Value::Mode(_) => "mode",
            Value::Array(_) => "array",
            Value::Obj(_) => "object",
            Value::MCase(_) => "mcase",
        }
    }

    /// Renders the value for `IO.print`-style output.
    pub fn display_string(&self) -> String {
        match self {
            Value::Str(s) => s.to_string(),
            other => other.to_string(),
        }
    }

    /// [`Clone::clone`] with the plain variants copied inline; only
    /// `Str`, `Mode`, `Array` and `MCase` take the out-of-line clone.
    #[inline(always)]
    pub(crate) fn dup(&self) -> Value {
        match *self {
            Value::Int(n) => Value::Int(n),
            Value::Double(x) => Value::Double(x),
            Value::Bool(b) => Value::Bool(b),
            Value::Unit => Value::Unit,
            Value::Obj(r) => Value::Obj(r),
            _ => self.clone(),
        }
    }
}

/// Drops `v`, running `Value`'s drop glue only when it owns something:
/// a plain value (int, double, bool, unit, object reference) owns no
/// heap data and no refcount, so forgetting it leaks nothing.
#[inline(always)]
pub(crate) fn discard(v: Value) {
    if matches!(
        v,
        Value::Int(_) | Value::Double(_) | Value::Bool(_) | Value::Unit | Value::Obj(_)
    ) {
        std::mem::forget(v);
    }
}

/// A register write: `*slot = v`, except that a plain old value is
/// forgotten instead of dropped, so drop glue runs only for `Str`,
/// `Mode`, `Array` and `MCase`.
#[inline(always)]
pub(crate) fn put(slot: &mut Value, v: Value) {
    discard(std::mem::replace(slot, v));
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Unit => f.write_str("unit"),
            Value::Mode(m) => write!(f, "{m}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Obj(r) => write!(f, "<object #{r}>"),
            Value::MCase(arms) => {
                write!(f, "mcase{{")?;
                for (i, (m, v)) in arms.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{m}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// The runtime mode tag of an object: dynamic objects are untagged until
/// their first snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum RtMode {
    /// Dynamic, not yet snapshotted.
    Dynamic,
    /// A ground static mode: `⊥`, `⊤`, or a declared constant.
    Ground(StaticMode),
}

impl RtMode {
    /// The ground mode, if tagged.
    pub fn ground(&self) -> Option<&StaticMode> {
        match self {
            RtMode::Dynamic => None,
            RtMode::Ground(m) => Some(m),
        }
    }
}

impl fmt::Display for RtMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtMode::Dynamic => f.write_str("?"),
            RtMode::Ground(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(
            Value::Array(Arc::new(vec![Value::Int(1), Value::Int(2)])).to_string(),
            "[1, 2]"
        );
        assert_eq!(Value::Unit.to_string(), "unit");
        assert_eq!(RtMode::Dynamic.to_string(), "?");
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Bool(true).kind(), "bool");
        assert_eq!(Value::Obj(0).kind(), "object");
        assert_eq!(Value::MCase(Arc::new(vec![])).kind(), "mcase");
    }

    #[test]
    fn rt_mode_ground_accessor() {
        assert!(RtMode::Dynamic.ground().is_none());
        let g = RtMode::Ground(StaticMode::Top);
        assert_eq!(g.ground(), Some(&StaticMode::Top));
    }
}
