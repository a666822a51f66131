//! Mode expressions: the `η`, `µ`, `ω`, `∆` and `ι` forms of Figure 2.

use std::fmt;

use crate::{ModeName, ModeVar};

/// A *static* mode `η ::= m | mt | ⊤ | ⊥`.
///
/// Static modes are the modes the type system can reason about at compile
/// time: a declared mode constant, a mode type variable, or one of the two
/// implicit lattice ends. The dynamic mode `?` is deliberately *not* a
/// `StaticMode`; the paper's waterfall constraints forbid `?` on either side
/// of `≤`, and this crate enforces that prohibition in the types.
///
/// # Example
///
/// ```
/// use ent_modes::{ModeName, ModeVar, StaticMode, Symbol};
///
/// let m = StaticMode::Const(ModeName::new("managed"));
/// let x = StaticMode::Var(ModeVar::named(Symbol::from_raw(0)));
/// assert!(m.is_ground());
/// assert!(!x.is_ground());
/// assert_eq!(StaticMode::Top.to_string(), "⊤");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StaticMode {
    /// The bottom of the mode lattice; less than every mode.
    Bot,
    /// The top of the mode lattice; greater than every mode. The program is
    /// booted under `⊤` (`boot(P) = cl(⊤, e)`).
    Top,
    /// A mode constant declared in the `modes { ... }` block.
    Const(ModeName),
    /// A mode type variable, e.g. a class generic mode parameter or a fresh
    /// existential variable introduced for a snapshot result.
    Var(ModeVar),
}

impl StaticMode {
    /// Returns `true` if the mode contains no mode variables.
    pub fn is_ground(&self) -> bool {
        !matches!(self, StaticMode::Var(_))
    }

    /// Returns the mode variable if this is a variable, otherwise `None`.
    pub fn as_var(&self) -> Option<&ModeVar> {
        match self {
            StaticMode::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the mode constant if this is a constant, otherwise `None`.
    pub fn as_const(&self) -> Option<&ModeName> {
        match self {
            StaticMode::Const(m) => Some(m),
            _ => None,
        }
    }

    /// Applies a substitution, replacing variables bound in `subst`.
    pub fn apply(&self, subst: &Subst) -> StaticMode {
        match self {
            StaticMode::Var(v) => subst.get(v).cloned().unwrap_or_else(|| self.clone()),
            _ => self.clone(),
        }
    }

    /// Collects every mode variable occurring in this mode into `out`.
    pub fn collect_vars(&self, out: &mut Vec<ModeVar>) {
        if let StaticMode::Var(v) = self {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }
}

impl fmt::Display for StaticMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticMode::Bot => f.write_str("⊥"),
            StaticMode::Top => f.write_str("⊤"),
            StaticMode::Const(m) => write!(f, "{m}"),
            StaticMode::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<ModeName> for StaticMode {
    fn from(m: ModeName) -> Self {
        StaticMode::Const(m)
    }
}

impl From<ModeVar> for StaticMode {
    fn from(v: ModeVar) -> Self {
        StaticMode::Var(v)
    }
}

/// A mode `µ ::= η | ?` — either a static mode or the dynamic mode.
///
/// The dynamic mode `?` marks an object whose mode is determined at run time
/// by evaluating its attributor; the type system refuses to send messages to
/// such objects until they are `snapshot`-ted into a static mode.
///
/// # Example
///
/// ```
/// use ent_modes::{Mode, StaticMode};
///
/// assert!(Mode::Dynamic.is_dynamic());
/// assert_eq!(Mode::Dynamic.to_string(), "?");
/// let top = Mode::Static(StaticMode::Top);
/// assert_eq!(top.as_static(), Some(&StaticMode::Top));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The dynamic mode `?`.
    Dynamic,
    /// A static mode `η`.
    Static(StaticMode),
}

impl Mode {
    /// Returns `true` if this is the dynamic mode `?`.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, Mode::Dynamic)
    }

    /// Returns the static mode if this mode is static, otherwise `None`.
    pub fn as_static(&self) -> Option<&StaticMode> {
        match self {
            Mode::Dynamic => None,
            Mode::Static(m) => Some(m),
        }
    }

    /// Applies a substitution to the static part, leaving `?` untouched.
    pub fn apply(&self, subst: &Subst) -> Mode {
        match self {
            Mode::Dynamic => Mode::Dynamic,
            Mode::Static(m) => Mode::Static(m.apply(subst)),
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Dynamic => f.write_str("?"),
            Mode::Static(m) => write!(f, "{m}"),
        }
    }
}

impl From<StaticMode> for Mode {
    fn from(m: StaticMode) -> Self {
        Mode::Static(m)
    }
}

/// A bounded mode variable `ω ::= η ≤ mt ≤ η'` (a "constrained mode").
///
/// Bounded variables appear in class parameter lists `∆` and in the bounded
/// existential types `∃ω.τ` that type `snapshot` expressions.
///
/// # Example
///
/// ```
/// use ent_modes::{Bounded, ModeVar, Names, StaticMode, Symbol};
///
/// let names = Names::new(&[], &["X"]);
/// let w = Bounded::unconstrained(ModeVar::named(Symbol::from_raw(0)));
/// assert_eq!(w.lo, StaticMode::Bot);
/// assert_eq!(w.hi, StaticMode::Top);
/// assert_eq!(names.enter(|| w.to_string()), "⊥ ≤ X ≤ ⊤");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Bounded {
    /// The lower bound `η`.
    pub lo: StaticMode,
    /// The bounded variable `mt`.
    pub var: ModeVar,
    /// The upper bound `η'`.
    pub hi: StaticMode,
}

impl Bounded {
    /// Creates a bounded variable with the given bounds.
    pub fn new(lo: StaticMode, var: ModeVar, hi: StaticMode) -> Self {
        Bounded { lo, var, hi }
    }

    /// Creates a variable bounded only by the lattice ends: `⊥ ≤ mt ≤ ⊤`.
    pub fn unconstrained(var: ModeVar) -> Self {
        Bounded {
            lo: StaticMode::Bot,
            var,
            hi: StaticMode::Top,
        }
    }

    /// The paper's `cons(ω)`: the pair of constraints `{η ≤ mt, mt ≤ η'}`.
    pub fn cons(&self) -> [(StaticMode, StaticMode); 2] {
        let v = StaticMode::Var(self.var);
        [(self.lo.clone(), v.clone()), (v, self.hi.clone())]
    }

    /// Applies a substitution to the bounds (not the bound variable itself).
    pub fn apply_bounds(&self, subst: &Subst) -> Bounded {
        Bounded {
            lo: self.lo.apply(subst),
            var: self.var,
            hi: self.hi.apply(subst),
        }
    }
}

impl fmt::Display for Bounded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ≤ {} ≤ {}", self.lo, self.var, self.hi)
    }
}

/// A class parameter list `∆ ::= ? → ω, Ω | Ω`.
///
/// The first (implicit) parameter of every class is the mode of the object
/// itself. A *dynamic* class (`dynamic == true`) is written
/// `class C@mode<? <= X>` in the surface syntax: objects are instantiated
/// with the dynamic mode, while the class body views its own mode as the
/// bounded variable carried by the first element of `bounds`. A non-dynamic
/// class with bounds is a *generic-mode* class `class C@mode<X>`.
///
/// # Example
///
/// ```
/// use ent_modes::{Bounded, ClassModeParams, Mode, ModeVar, Symbol};
///
/// // class Agent@mode<? <= X>
/// let x = ModeVar::named(Symbol::from_raw(0));
/// let delta = ClassModeParams::dynamic(vec![Bounded::unconstrained(x)]);
/// assert_eq!(delta.cmode(), Mode::Dynamic);
/// assert_eq!(delta.params(), vec![x]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassModeParams {
    /// `true` when the class is declared with the dynamic mode `?`.
    pub dynamic: bool,
    /// The bounded mode parameters `Ω`. For a dynamic class the first entry
    /// is the internal view of the object's own mode; for a static generic
    /// class the first entry is the mode parameter itself.
    pub bounds: Vec<Bounded>,
}

impl ClassModeParams {
    /// A class with no mode machinery at all (mode-neutral helper classes);
    /// such classes get the fixed mode `⊥` so any context can message them.
    pub fn neutral() -> Self {
        ClassModeParams {
            dynamic: false,
            bounds: Vec::new(),
        }
    }

    /// A dynamic class `? → ω, Ω`. `bounds` must be non-empty: its first
    /// element is the internal generic view of the object's own mode.
    pub fn dynamic(bounds: Vec<Bounded>) -> Self {
        debug_assert!(
            !bounds.is_empty(),
            "dynamic class needs an internal mode parameter"
        );
        ClassModeParams {
            dynamic: true,
            bounds,
        }
    }

    /// A static class parameter list `Ω`.
    pub fn with_bounds(bounds: Vec<Bounded>) -> Self {
        ClassModeParams {
            dynamic: false,
            bounds,
        }
    }

    /// The paper's `cmode(∆)`: `?` for dynamic classes, otherwise the first
    /// declared parameter (or `⊥` for mode-neutral classes).
    pub fn cmode(&self) -> Mode {
        if self.dynamic {
            Mode::Dynamic
        } else if let Some(first) = self.bounds.first() {
            Mode::Static(StaticMode::Var(first.var))
        } else {
            Mode::Static(StaticMode::Bot)
        }
    }

    /// The paper's `param(∆)`: the list of bound mode variables, in order.
    pub fn params(&self) -> Vec<ModeVar> {
        self.bounds.iter().map(|b| b.var).collect()
    }

    /// The paper's `cons(∆)`: the constraints generated by all bounds.
    pub fn cons(&self) -> Vec<(StaticMode, StaticMode)> {
        self.bounds.iter().flat_map(|b| b.cons()).collect()
    }

    /// The number of mode arguments an instantiation must supply (the object
    /// mode plus any *additional* mode parameters).
    ///
    /// A dynamic class's first bound is its object mode, so the count of
    /// additional arguments is `bounds.len() - 1`; a static generic class's
    /// first bound is also the object mode. Mode-neutral classes take no
    /// arguments.
    pub fn extra_arity(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }
}

impl fmt::Display for ClassModeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        let mut bounds = self.bounds.iter();
        if self.dynamic {
            match bounds.next() {
                Some(b) => parts.push(format!("? → {b}")),
                None => parts.push("?".to_string()),
            }
        }
        for b in bounds {
            parts.push(b.to_string());
        }
        write!(f, "{}", parts.join(", "))
    }
}

/// An object parameter list `ι ::= η | ?, η` — the mode arguments of an
/// object type `c⟨ι⟩`.
///
/// The first element (`mode`) is the mode of the object itself, possibly
/// dynamic; subsequent elements (`rest`) instantiate any additional mode
/// parameters and must be static.
///
/// # Example
///
/// ```
/// use ent_modes::{Mode, ModeArgs, ModeName, StaticMode};
///
/// let managed = StaticMode::Const(ModeName::new("managed"));
/// let args = ModeArgs::of_static(managed.clone());
/// assert_eq!(args.omode(), &Mode::Static(managed));
/// assert_eq!(args.to_string(), "managed");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeArgs {
    /// The mode of the object itself (`omode`).
    pub mode: Mode,
    /// Instantiations for additional mode parameters.
    pub rest: Vec<StaticMode>,
}

impl ModeArgs {
    /// Creates mode arguments from an object mode and extra arguments.
    pub fn new(mode: Mode, rest: Vec<StaticMode>) -> Self {
        ModeArgs { mode, rest }
    }

    /// A single static object mode with no extra arguments.
    pub fn of_static(mode: StaticMode) -> Self {
        ModeArgs {
            mode: Mode::Static(mode),
            rest: Vec::new(),
        }
    }

    /// The dynamic object mode with no extra arguments.
    pub fn of_dynamic() -> Self {
        ModeArgs {
            mode: Mode::Dynamic,
            rest: Vec::new(),
        }
    }

    /// The paper's `omode(c⟨ι⟩)`: the first element of the list.
    pub fn omode(&self) -> &Mode {
        &self.mode
    }

    /// Applies a substitution point-wise.
    pub fn apply(&self, subst: &Subst) -> ModeArgs {
        ModeArgs {
            mode: self.mode.apply(subst),
            rest: self.rest.iter().map(|m| m.apply(subst)).collect(),
        }
    }

    /// Collects every mode variable occurring in the arguments into `out`.
    pub fn collect_vars(&self, out: &mut Vec<ModeVar>) {
        if let Mode::Static(m) = &self.mode {
            m.collect_vars(out);
        }
        for m in &self.rest {
            m.collect_vars(out);
        }
    }

    /// Returns `true` if the object mode is dynamic.
    pub fn is_dynamic(&self) -> bool {
        self.mode.is_dynamic()
    }
}

impl fmt::Display for ModeArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mode)?;
        for m in &self.rest {
            write!(f, ", {m}")?;
        }
        Ok(())
    }
}

/// A substitution from mode variables to static modes, used for the
/// point-wise instantiation `∆{ι/ι'}` and for generic method-mode inference.
///
/// # Example
///
/// ```
/// use ent_modes::{ModeName, ModeVar, StaticMode, Subst, Symbol};
///
/// let mut s = Subst::new();
/// let var = ModeVar::named(Symbol::from_raw(0));
/// s.insert(var, StaticMode::Const(ModeName::new("managed")));
/// let x = StaticMode::Var(var);
/// assert_eq!(x.apply(&s), StaticMode::Const(ModeName::new("managed")));
/// ```
///
/// The bindings live in one small vector searched linearly: a
/// substitution binds one class's or one method's mode parameters, and
/// the parser bounds each such list (`ent_syntax::MAX_MODE_PARAMS`).
#[derive(Clone, Debug, Default)]
pub struct Subst {
    /// Each bound variable once, in first-binding order.
    pairs: Vec<(ModeVar, StaticMode)>,
}

impl Subst {
    /// Creates an empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Creates a substitution binding each variable in `vars` to the
    /// corresponding mode in `args` (pairs beyond the shorter list are
    /// ignored; a repeated variable keeps its last binding).
    pub fn bind(vars: &[ModeVar], args: &[StaticMode]) -> Self {
        vars.iter().cloned().zip(args.iter().cloned()).collect()
    }

    /// Adds a binding, returning the previous binding for the variable.
    pub fn insert(&mut self, var: ModeVar, mode: StaticMode) -> Option<StaticMode> {
        match self.pairs.iter_mut().find(|(v, _)| *v == var) {
            Some((_, old)) => Some(std::mem::replace(old, mode)),
            None => {
                self.pairs.push((var, mode));
                None
            }
        }
    }

    /// Looks up the binding for a variable.
    pub fn get(&self, var: &ModeVar) -> Option<&StaticMode> {
        self.pairs.iter().find(|(v, _)| v == var).map(|(_, m)| m)
    }

    /// Returns `true` if the substitution binds no variables.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }
}

/// Two substitutions are equal when they bind the same variables to the
/// same modes, in any order.
impl PartialEq for Subst {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.pairs.iter().all(|(v, m)| other.get(v) == Some(m))
    }
}

impl Eq for Subst {}

impl FromIterator<(ModeVar, StaticMode)> for Subst {
    fn from_iter<I: IntoIterator<Item = (ModeVar, StaticMode)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut subst = Subst {
            pairs: Vec::with_capacity(iter.size_hint().0),
        };
        for (var, mode) in iter {
            subst.insert(var, mode);
        }
        subst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str) -> StaticMode {
        StaticMode::Const(ModeName::new(name))
    }

    /// A variable named by `name`'s first letter, for tests that do not
    /// print it.
    fn var(name: &str) -> ModeVar {
        ModeVar::named(crate::Symbol::from_raw(u32::from(name.as_bytes()[0])))
    }

    fn v(name: &str) -> StaticMode {
        StaticMode::Var(var(name))
    }

    #[test]
    fn static_mode_groundness() {
        assert!(StaticMode::Bot.is_ground());
        assert!(StaticMode::Top.is_ground());
        assert!(c("m").is_ground());
        assert!(!v("X").is_ground());
    }

    #[test]
    fn static_mode_display() {
        assert_eq!(StaticMode::Bot.to_string(), "⊥");
        assert_eq!(StaticMode::Top.to_string(), "⊤");
        assert_eq!(c("m").to_string(), "m");
        let names = crate::Names::new(&[], &["X"]);
        let x = StaticMode::Var(ModeVar::named(crate::Symbol::from_raw(0)));
        assert_eq!(names.enter(|| x.to_string()), "X");
    }

    #[test]
    fn substitution_replaces_bound_vars_only() {
        let mut s = Subst::new();
        s.insert(var("X"), c("m"));
        assert_eq!(v("X").apply(&s), c("m"));
        assert_eq!(v("Y").apply(&s), v("Y"));
        assert_eq!(c("m").apply(&s), c("m"));
        assert_eq!(StaticMode::Top.apply(&s), StaticMode::Top);
    }

    #[test]
    fn subst_bind_pairs_vars_with_args() {
        let s = Subst::bind(&[var("X"), var("Y")], &[c("a"), c("b")]);
        assert_eq!(v("X").apply(&s), c("a"));
        assert_eq!(v("Y").apply(&s), c("b"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn subst_rebinding_keeps_the_last_mode_and_equality_ignores_order() {
        let s = Subst::bind(&[var("X"), var("X")], &[c("a"), c("b")]);
        assert_eq!(s.len(), 1);
        assert_eq!(v("X").apply(&s), c("b"));
        let xy: Subst = [(var("X"), c("a")), (var("Y"), c("b"))]
            .into_iter()
            .collect();
        let yx: Subst = [(var("Y"), c("b")), (var("X"), c("a"))]
            .into_iter()
            .collect();
        assert_eq!(xy, yx);
        assert_ne!(xy, s);
    }

    #[test]
    fn mode_dynamic_is_preserved_by_substitution() {
        let mut s = Subst::new();
        s.insert(var("X"), c("m"));
        assert_eq!(Mode::Dynamic.apply(&s), Mode::Dynamic);
        assert_eq!(Mode::Static(v("X")).apply(&s), Mode::Static(c("m")));
    }

    #[test]
    fn bounded_cons_produces_both_constraints() {
        let w = Bounded::new(c("lo"), var("X"), c("hi"));
        let [l, r] = w.cons();
        assert_eq!(l, (c("lo"), v("X")));
        assert_eq!(r, (v("X"), c("hi")));
    }

    #[test]
    fn class_params_cmode_variants() {
        assert_eq!(
            ClassModeParams::neutral().cmode(),
            Mode::Static(StaticMode::Bot)
        );

        let dynamic = ClassModeParams::dynamic(vec![Bounded::unconstrained(var("X"))]);
        assert_eq!(dynamic.cmode(), Mode::Dynamic);

        let generic = ClassModeParams::with_bounds(vec![Bounded::unconstrained(var("X"))]);
        assert_eq!(generic.cmode(), Mode::Static(v("X")));
    }

    #[test]
    fn class_params_cons_flattens_all_bounds() {
        let delta = ClassModeParams::dynamic(vec![
            Bounded::new(StaticMode::Bot, var("X"), c("hi")),
            Bounded::unconstrained(var("Y")),
        ]);
        assert_eq!(delta.cons().len(), 4);
        assert_eq!(delta.params(), vec![var("X"), var("Y")]);
        assert_eq!(delta.extra_arity(), 1);
    }

    #[test]
    fn mode_args_omode_and_display() {
        let args = ModeArgs::new(Mode::Dynamic, vec![c("m")]);
        assert!(args.is_dynamic());
        assert_eq!(args.to_string(), "?, m");

        let args = ModeArgs::of_static(c("m"));
        assert_eq!(args.omode(), &Mode::Static(c("m")));
    }

    #[test]
    fn mode_args_collect_vars_dedupes() {
        let args = ModeArgs::new(Mode::Static(v("X")), vec![v("X"), v("Y")]);
        let mut vars = Vec::new();
        args.collect_vars(&mut vars);
        assert_eq!(vars, vec![var("X"), var("Y")]);
    }

    #[test]
    fn mode_args_apply_substitutes_pointwise() {
        let mut s = Subst::new();
        s.insert(var("X"), c("m"));
        let args = ModeArgs::new(Mode::Static(v("X")), vec![v("X")]);
        let applied = args.apply(&s);
        assert_eq!(applied.mode, Mode::Static(c("m")));
        assert_eq!(applied.rest, vec![c("m")]);
    }
}
