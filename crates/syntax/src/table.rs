//! The class table: inheritance-aware lookup of fields, methods, and
//! attributors (the paper's `fields`, `mtype`, `mbody`, and `abody`).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ent_modes::{Mode, ModeArgs, Names, Spelling, StaticMode, Subst, Symbol};

use crate::ast::*;

/// An error found while assembling the class table. Its names are
/// [`Spelling`]s, so it prints without a current name table.
#[derive(Clone, Debug, PartialEq)]
pub enum TableError {
    /// Two classes share a name.
    DuplicateClass(Spelling),
    /// A class extends an undeclared class.
    UnknownSuperclass(Spelling, Spelling),
    /// The inheritance relation is cyclic through the named class.
    InheritanceCycle(Spelling),
    /// The superclass instantiation has the wrong number of mode arguments.
    SuperArgArity {
        /// The subclass.
        class: Spelling,
        /// Expected count (the superclass's parameter count).
        expected: usize,
        /// Found count.
        found: usize,
    },
    /// The superclass instantiation changes the object's own mode, which
    /// would let an upcast evade the waterfall invariant.
    SuperModeMismatch(Spelling),
    /// A class has two fields (possibly inherited) with the same name.
    DuplicateField(Spelling, Spelling),
    /// A class declares two methods with the same name.
    DuplicateMethod(Spelling, Spelling),
    /// A class uses the reserved name `Object` or `Main` incorrectly.
    ReservedClass(Spelling),
    /// A dynamic class is missing its attributor, or a non-dynamic class
    /// has one.
    AttributorMismatch(Spelling, &'static str),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DuplicateClass(c) => write!(f, "class `{c}` is declared twice"),
            TableError::UnknownSuperclass(c, s) => {
                write!(f, "class `{c}` extends unknown class `{s}`")
            }
            TableError::InheritanceCycle(c) => {
                write!(f, "inheritance cycle through class `{c}`")
            }
            TableError::SuperArgArity { class, expected, found } => write!(
                f,
                "class `{class}` instantiates its superclass with {found} mode arguments, expected {expected}"
            ),
            TableError::SuperModeMismatch(c) => write!(
                f,
                "class `{c}` must pass its own mode as the first mode argument of its superclass"
            ),
            TableError::DuplicateField(c, x) => {
                write!(f, "class `{c}` has duplicate field `{x}`")
            }
            TableError::DuplicateMethod(c, x) => {
                write!(f, "class `{c}` declares method `{x}` twice")
            }
            TableError::ReservedClass(c) => {
                write!(f, "class name `{c}` is reserved")
            }
            TableError::AttributorMismatch(c, what) => {
                write!(f, "class `{c}` {what}")
            }
        }
    }
}

impl Error for TableError {}

/// A field resolved through the inheritance chain, with class-level mode
/// parameters substituted.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedField {
    /// The class that declared the field.
    pub owner: ClassName,
    /// The field name.
    pub name: Ident,
    /// The field type after substitution.
    pub ty: Type,
    /// Whether the field has an initializer (initialized fields are not
    /// constructor parameters).
    pub has_init: bool,
}

/// A method resolved through the inheritance chain (the paper's `mtype` +
/// `mbody` combined), with class-level mode parameters substituted into the
/// signature.
#[derive(Clone, Debug)]
pub struct ResolvedMethod {
    /// The class that declared the method.
    pub owner: ClassName,
    /// Parameter types after class-level substitution.
    pub params: Vec<Type>,
    /// Return type after class-level substitution.
    pub ret: Type,
    /// Method-level mode override, substituted.
    pub mode: Option<StaticMode>,
    /// Generic method-mode parameters with substituted bounds.
    pub mode_params: Vec<ent_modes::Bounded>,
    /// Whether the method has a method-level attributor.
    pub has_attributor: bool,
    /// The substitution mapping the owner class's mode parameters to the
    /// receiver's mode arguments (used to interpret the body).
    pub subst: Subst,
}

/// The class table for a program: validated inheritance structure plus
/// lookup of members through the chain.
///
/// # Example
///
/// ```
/// use ent_syntax::{parse_program, ClassName, ClassTable};
///
/// let p = parse_program(
///     "modes { low <= high; }
///      class Rule@mode<R> { int max; }
///      class DepthRule@mode<X> extends Rule@mode<X> { int depth; }",
/// ).unwrap();
/// let table = ClassTable::new(&p)?;
/// let class = |name| ClassName::new(p.names().find(name).unwrap());
/// assert!(table.is_subclass(&class("DepthRule"), &class("Rule")));
/// # Ok::<(), ent_syntax::TableError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ClassTable {
    /// The program's own declarations and names, shared rather than
    /// copied.
    classes: Arc<Classes>,
    /// Each class's position in `classes` by name id ([`NOT_A_CLASS`] for
    /// a name no class declares): one index per name of the program.
    index: Vec<u32>,
    /// Class names in declaration order.
    order: Vec<ClassName>,
}

/// An [`ClassTable::index`] entry for a name no class declares.
const NOT_A_CLASS: u32 = u32::MAX;

/// A class's superclass, by position in the table's declaration order.
#[derive(Clone, Copy, Debug)]
enum Parent {
    Object,
    Class(usize),
    /// A superclass no class declares.
    Unknown,
}

/// For each class whose chain reaches `Object`, the first field of the
/// chain, walked root first, that repeats an earlier one: the field the
/// duplicate-field check reports. One depth-first pass over the
/// inheritance forest, counting the field names of the current root path,
/// so a deep chain costs linear time. Classes off the forest (an unknown
/// superclass or a cycle above them) get `None`; the chain check rejects
/// them first.
fn first_duplicate_fields(
    decls: &[ClassDecl],
    parent: &[Parent],
    n_names: usize,
) -> Vec<Option<Ident>> {
    let n = decls.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for (c, p) in parent.iter().enumerate() {
        match *p {
            Parent::Object => roots.push(c),
            Parent::Class(p) => children[p].push(c),
            Parent::Unknown => {}
        }
    }
    let mut first_dup: Vec<Option<Ident>> = vec![None; n];
    // How often each field name occurs on the current root path, by name
    // id.
    let mut on_path: Vec<u32> = vec![0; n_names];
    // `(class, fields it added to on_path, its next child)`.
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for root in roots {
        let added = enter_fields(&decls[root], None, &mut on_path, &mut first_dup[root]);
        stack.push((root, added, 0));
        while let Some(top) = stack.last_mut() {
            let (c, added, next) = *top;
            if let Some(&child) = children[c].get(next) {
                top.2 += 1;
                let inherited = first_dup[c];
                let added = enter_fields(
                    &decls[child],
                    inherited,
                    &mut on_path,
                    &mut first_dup[child],
                );
                stack.push((child, added, 0));
            } else {
                for fd in &decls[c].fields[..added] {
                    on_path[fd.name.symbol().index()] -= 1;
                }
                stack.pop();
            }
        }
    }
    first_dup
}

/// Enters `decl` on the root path. Its first repeated field `dup` is
/// `inherited` when its superclass's chain already repeats one, else the
/// first of its own fields already on the path or earlier among its own.
/// Adds its fields up to that repeat to `on_path`, and returns how many
/// it added.
fn enter_fields(
    decl: &ClassDecl,
    inherited: Option<Ident>,
    on_path: &mut [u32],
    dup: &mut Option<Ident>,
) -> usize {
    if inherited.is_some() {
        *dup = inherited;
        return 0;
    }
    for (i, fd) in decl.fields.iter().enumerate() {
        let count = &mut on_path[fd.name.symbol().index()];
        if *count > 0 {
            *dup = Some(fd.name);
            return i;
        }
        *count += 1;
    }
    decl.fields.len()
}

impl ClassTable {
    /// Builds and validates the class table for a program. The table
    /// shares the program's class declarations; it copies no AST.
    ///
    /// # Errors
    ///
    /// Returns a [`TableError`] for duplicate classes/members, unknown or
    /// cyclic inheritance, bad superclass instantiations, or attributor
    /// mismatches (a dynamic class must have an attributor; a non-dynamic
    /// class must not).
    pub fn new(program: &Program) -> Result<Self, TableError> {
        let classes = Arc::clone(&program.classes);
        let spell = |c: ClassName| classes.names().spelling(c.symbol());
        let mut index = vec![NOT_A_CLASS; classes.names().len()];
        let mut order = Vec::with_capacity(classes.len());
        for (i, c) in (0u32..).zip(classes.iter()) {
            if c.name == ClassName::OBJECT {
                return Err(TableError::ReservedClass(spell(c.name)));
            }
            let slot = &mut index[c.name.symbol().index()];
            if *slot != NOT_A_CLASS {
                return Err(TableError::DuplicateClass(spell(c.name)));
            }
            *slot = i;
            order.push(c.name);
        }
        let table = ClassTable {
            classes,
            index,
            order,
        };
        table.validate()?;
        Ok(table)
    }

    /// The position of class `name` in declaration order, if declared.
    pub fn position(&self, name: &ClassName) -> Option<usize> {
        match self.index.get(name.symbol().index()) {
            Some(&i) if i != NOT_A_CLASS => Some(i as usize),
            _ => None,
        }
    }

    /// The declaration named `name`.
    fn decl(&self, name: &ClassName) -> Option<&ClassDecl> {
        self.position(name).map(|i| &self.classes[i])
    }

    /// The program's name table.
    pub fn names(&self) -> &Names {
        self.classes.names()
    }

    /// The spelling of `name`, for an error.
    fn spell(&self, name: impl Into<Symbol>) -> Spelling {
        self.names().spelling(name.into())
    }

    fn validate(&self) -> Result<(), TableError> {
        let decls: &[ClassDecl] = &self.classes;
        let parent = self.parents();
        let first_dup = first_duplicate_fields(decls, &parent, self.index.len());
        // Per class: `UNCHECKED`, `CHAIN_OK`, or `k` while the walk that
        // started at class `k` is on it. A walk stops at a checked class,
        // so each chain link is followed once over the whole table.
        const UNCHECKED: usize = usize::MAX;
        const CHAIN_OK: usize = usize::MAX - 1;
        let mut state = vec![UNCHECKED; decls.len()];
        for (k, name) in self.order.iter().enumerate() {
            let c = &decls[k];

            // Superclass existence + acyclicity.
            if state[k] != CHAIN_OK {
                state[k] = k;
                let mut cur = k;
                loop {
                    match parent[cur] {
                        Parent::Object => break,
                        Parent::Unknown => {
                            return Err(TableError::UnknownSuperclass(
                                self.spell(decls[cur].name),
                                self.spell(decls[cur].superclass),
                            ))
                        }
                        Parent::Class(p) if state[p] == k => {
                            return Err(TableError::InheritanceCycle(self.spell(*name)))
                        }
                        Parent::Class(p) if state[p] == CHAIN_OK => break,
                        Parent::Class(p) => {
                            state[p] = k;
                            cur = p;
                        }
                    }
                }
                let mut cur = k;
                while state[cur] == k {
                    state[cur] = CHAIN_OK;
                    match parent[cur] {
                        Parent::Class(p) => cur = p,
                        _ => break,
                    }
                }
            }

            // Superclass instantiation arity + own-mode preservation.
            if c.superclass != ClassName::OBJECT {
                let sup = self.superclass(c);
                if sup.mode_params.dynamic {
                    // Extending a dynamic class is out of scope for the
                    // reproduction (as in the paper's examples).
                    return Err(TableError::SuperModeMismatch(self.spell(*name)));
                }
                let expected = sup.mode_params.bounds.len();
                let found = c.super_args.len();
                // Pinned-only superclasses may be instantiated implicitly.
                let pinned_only =
                    sup.mode_params.bounds.iter().all(|b| b.lo == b.hi) && !sup.mode_params.dynamic;
                if found != expected && !(found == 0 && (expected == 0 || pinned_only)) {
                    return Err(TableError::SuperArgArity {
                        class: self.spell(*name),
                        expected,
                        found,
                    });
                }
                // Own-mode preservation: the first super arg must be the
                // subclass's own mode.
                if expected > 0 && found > 0 {
                    let own = c.mode_params.bounds.first();
                    let ok = match (&c.super_args[0], own) {
                        (StaticMode::Var(v), Some(b)) => *v == b.var,
                        (pinned, Some(b)) => b.lo == b.hi && *pinned == b.lo,
                        (StaticMode::Bot, None) => true,
                        _ => false,
                    };
                    if !ok {
                        return Err(TableError::SuperModeMismatch(self.spell(*name)));
                    }
                } else if expected > 0 && found == 0 {
                    // Implicit pinned instantiation: subclass must be pinned
                    // to the same mode or neutral extending pinned — accept,
                    // the typechecker compares modes structurally.
                }
            }

            // Member uniqueness (fields also against inherited ones).
            if let Some(field) = first_dup[k] {
                return Err(TableError::DuplicateField(
                    self.spell(*name),
                    self.spell(field),
                ));
            }
            for (i, m) in c.methods.iter().enumerate() {
                if c.methods[..i].iter().any(|earlier| earlier.name == m.name) {
                    return Err(TableError::DuplicateMethod(
                        self.spell(*name),
                        self.spell(m.name),
                    ));
                }
            }

            // Attributor presence must match dynamicness.
            if c.mode_params.dynamic && c.attributor.is_none() {
                return Err(TableError::AttributorMismatch(
                    self.spell(*name),
                    "is dynamic but has no attributor",
                ));
            }
            if !c.mode_params.dynamic && c.attributor.is_some() {
                return Err(TableError::AttributorMismatch(
                    self.spell(*name),
                    "has an attributor but is not dynamic",
                ));
            }
        }
        Ok(())
    }

    /// Each class's superclass, by position in `order`.
    fn parents(&self) -> Vec<Parent> {
        self.classes
            .iter()
            .map(|c| {
                if c.superclass == ClassName::OBJECT {
                    Parent::Object
                } else {
                    self.position(&c.superclass)
                        .map_or(Parent::Unknown, Parent::Class)
                }
            })
            .collect()
    }

    /// Looks up a class declaration.
    pub fn class(&self, name: &ClassName) -> Option<&ClassDecl> {
        self.decl(name)
    }

    /// Class names in declaration order.
    pub fn class_names(&self) -> &[ClassName] {
        &self.order
    }

    /// The inheritance chain from the root (`Object` excluded) down to and
    /// including `name`.
    pub fn superclass_chain(&self, name: &ClassName) -> Vec<ClassName> {
        let mut chain = Vec::new();
        let mut cur = *name;
        while cur != ClassName::OBJECT {
            chain.push(cur);
            match self.decl(&cur) {
                Some(c) => cur = c.superclass,
                None => break,
            }
        }
        chain.reverse();
        chain
    }

    /// Nominal subclassing: is `c` equal to or a subclass of `d`?
    pub fn is_subclass(&self, c: &ClassName, d: &ClassName) -> bool {
        if *d == ClassName::OBJECT {
            return true;
        }
        let mut cur = *c;
        loop {
            if cur == *d {
                return true;
            }
            if cur == ClassName::OBJECT {
                return false;
            }
            match self.decl(&cur) {
                Some(decl) => cur = decl.superclass,
                None => return false,
            }
        }
    }

    /// Builds the substitution mapping a class's mode parameters to the
    /// given instantiation `ι`.
    ///
    /// The object's own mode (first element of `ι`) maps to the class's
    /// first bound variable when that mode is static; a dynamic `?` leaves
    /// the internal variable unsubstituted (the internal view).
    pub fn class_subst(&self, class: &ClassName, args: &ModeArgs) -> Subst {
        let Some(decl) = self.decl(class) else {
            return Subst::new();
        };
        let bounds = &decl.mode_params.bounds;
        let own = bounds.first().map(|b| {
            let mode = match &args.mode {
                Mode::Static(m) => m.clone(),
                // Dynamic instantiation: keep the internal variable.
                Mode::Dynamic => StaticMode::Var(b.var),
            };
            (b.var, mode)
        });
        let rest = bounds.iter().skip(1).zip(&args.rest);
        own.into_iter()
            .chain(rest.map(|(b, m)| (b.var, m.clone())))
            .collect()
    }

    /// The substitution for `decl`'s superclass, given `subst` for `decl`:
    /// its super arguments, in terms of `decl`'s own parameters, or the
    /// superclass's pinned modes when it passes none.
    fn super_subst(&self, decl: &ClassDecl, subst: &Subst) -> Subst {
        let bounds = &self.superclass(decl).mode_params.bounds;
        if decl.super_args.is_empty() {
            bounds.iter().map(|b| (b.var, b.lo.clone())).collect()
        } else {
            bounds
                .iter()
                .zip(&decl.super_args)
                .map(|(b, m)| (b.var, m.apply(subst)))
                .collect()
        }
    }

    /// The paper's `fields(T)`: every field of `class` and its ancestors,
    /// inherited first, with mode parameters substituted per `args`.
    pub fn fields(&self, class: &ClassName, args: &ModeArgs) -> Vec<ResolvedField> {
        self.collect_fields(class, args, &|_| true)
    }

    /// The field `name` of `class` or an ancestor, with mode parameters
    /// substituted per `args`: the one entry of [`ClassTable::fields`]
    /// with that name, resolved without building the others.
    pub fn field(&self, class: &ClassName, args: &ModeArgs, name: &Ident) -> Option<ResolvedField> {
        let mut decl = self.decl(class)?;
        let mut subst = self.class_subst(class, args);
        loop {
            if let Some(fd) = decl.fields.iter().find(|f| &f.name == name) {
                return Some(resolve_field(decl, fd, &subst));
            }
            if decl.superclass == ClassName::OBJECT {
                return None;
            }
            subst = self.super_subst(decl, &subst);
            decl = self.superclass(decl);
        }
    }

    /// The constructor parameters of a class instantiation: all fields
    /// without initializers, inherited first.
    pub fn ctor_params(&self, class: &ClassName, args: &ModeArgs) -> Vec<ResolvedField> {
        self.collect_fields(class, args, &|f| f.init.is_none())
    }

    fn collect_fields(
        &self,
        class: &ClassName,
        args: &ModeArgs,
        keep: &dyn Fn(&FieldDecl) -> bool,
    ) -> Vec<ResolvedField> {
        let mut out = Vec::new();
        if let Some(decl) = self.decl(class) {
            self.fields_rec(decl, &self.class_subst(class, args), keep, &mut out);
        }
        out
    }

    fn fields_rec(
        &self,
        decl: &ClassDecl,
        subst: &Subst,
        keep: &dyn Fn(&FieldDecl) -> bool,
        out: &mut Vec<ResolvedField>,
    ) {
        if decl.superclass != ClassName::OBJECT {
            // Compose: super args are in terms of this class's vars.
            let sup = self.superclass(decl);
            self.fields_rec(sup, &self.super_subst(decl, subst), keep, out);
        }
        out.extend(
            decl.fields
                .iter()
                .filter(|fd| keep(fd))
                .map(|fd| resolve_field(decl, fd, subst)),
        );
    }

    /// The paper's `mtype`/`mbody`: resolves a method through the chain,
    /// substituting class-level mode parameters per `args`.
    pub fn method(
        &self,
        class: &ClassName,
        args: &ModeArgs,
        name: &Ident,
    ) -> Option<ResolvedMethod> {
        let mut decl = self.decl(class)?;
        let mut subst = self.class_subst(class, args);
        loop {
            if let Some(m) = decl.method(name) {
                return Some(ResolvedMethod {
                    owner: decl.name,
                    params: m.params.iter().map(|(t, _)| t.apply(&subst)).collect(),
                    ret: m.ret.apply(&subst),
                    mode: m.mode.as_ref().map(|mo| mo.apply(&subst)),
                    mode_params: m
                        .mode_params
                        .iter()
                        .map(|b| b.apply_bounds(&subst))
                        .collect(),
                    has_attributor: m.attributor.is_some(),
                    subst,
                });
            }
            if decl.superclass == ClassName::OBJECT {
                return None;
            }
            subst = self.super_subst(decl, &subst);
            decl = self.superclass(decl);
        }
    }

    /// The paper's `abody`: the class-level attributor of a class.
    pub fn abody(&self, class: &ClassName) -> Option<&Attributor> {
        self.decl(class)?.attributor.as_ref()
    }

    /// The declaration of `decl`'s superclass, which the validated table
    /// holds.
    fn superclass(&self, decl: &ClassDecl) -> &ClassDecl {
        self.decl(&decl.superclass)
            .expect("a validated superclass is declared")
    }
}

/// One declared field of `decl`, with `decl`'s mode parameters
/// substituted per `subst`.
fn resolve_field(decl: &ClassDecl, fd: &FieldDecl, subst: &Subst) -> ResolvedField {
    ResolvedField {
        owner: decl.name,
        name: fd.name,
        ty: fd.ty.apply(subst),
        has_init: fd.init.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use ent_modes::{ModeName, ModeVar};

    fn table(src: &str) -> ClassTable {
        ClassTable::new(&parse_program(src).unwrap()).unwrap()
    }

    /// The id `t`'s program gives `name`, or an id no table holds.
    fn sym(t: &ClassTable, name: &str) -> Symbol {
        t.names()
            .find(name)
            .unwrap_or(Symbol::from_raw(u32::MAX >> 2))
    }

    fn class(t: &ClassTable, name: &str) -> ClassName {
        ClassName::new(sym(t, name))
    }

    fn ident(t: &ClassTable, name: &str) -> Ident {
        Ident::new(sym(t, name))
    }

    const BASE: &str = "modes { low <= high; }
        class Rule@mode<R> { int max; }
        class DepthRule@mode<X> extends Rule@mode<X> { int depth; }
        class Plain { string tag; }
    ";

    #[test]
    fn chain_and_subclassing() {
        let t = table(BASE);
        assert_eq!(
            t.superclass_chain(&class(&t, "DepthRule")),
            vec![class(&t, "Rule"), class(&t, "DepthRule")]
        );
        assert!(t.is_subclass(&class(&t, "DepthRule"), &class(&t, "Rule")));
        assert!(t.is_subclass(&class(&t, "Rule"), &class(&t, "Rule")));
        assert!(!t.is_subclass(&class(&t, "Rule"), &class(&t, "DepthRule")));
        assert!(t.is_subclass(&class(&t, "Plain"), &ClassName::OBJECT));
    }

    #[test]
    fn fields_are_inherited_first_and_substituted() {
        let t = table(BASE);
        let args = ModeArgs::of_static(StaticMode::Const(ModeName::new("high")));
        let fields = t.fields(&class(&t, "DepthRule"), &args);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, ident(&t, "max"));
        assert_eq!(fields[0].owner, class(&t, "Rule"));
        assert_eq!(fields[1].name, ident(&t, "depth"));
    }

    #[test]
    fn field_type_substitution_through_chain() {
        let t = table(
            "modes { low <= high; }
             class Box@mode<B> { Box@mode<B> next; }
             class SubBox@mode<S> extends Box@mode<S> { }",
        );
        let args = ModeArgs::of_static(StaticMode::Const(ModeName::new("low")));
        let fields = t.fields(&class(&t, "SubBox"), &args);
        assert_eq!(
            t.names().enter(|| fields[0].ty.to_string()),
            "Box@mode<low>"
        );
    }

    #[test]
    fn field_lookup_resolves_one_field_like_the_full_list() {
        let t = table(
            "modes { low <= high; }
             class Box@mode<B> { Box@mode<B> next; int n = 1; }
             class SubBox@mode<S> extends Box@mode<S> { SubBox@mode<S> peer; }",
        );
        let args = ModeArgs::of_static(StaticMode::Const(ModeName::new("low")));
        let sub = class(&t, "SubBox");
        for f in t.fields(&sub, &args) {
            assert_eq!(t.field(&sub, &args, &f.name), Some(f));
        }
        let next = t.field(&sub, &args, &ident(&t, "next")).unwrap();
        assert_eq!(next.owner, class(&t, "Box"));
        assert_eq!(t.names().enter(|| next.ty.to_string()), "Box@mode<low>");
        assert_eq!(t.field(&sub, &args, &ident(&t, "nope")), None);
        assert_eq!(t.field(&class(&t, "Nope"), &args, &ident(&t, "next")), None);
    }

    #[test]
    fn method_lookup_walks_the_chain() {
        let t = table(
            "modes { low <= high; }
             class A@mode<X> { Site@mode<X> get(int n) { return this.get(n); } }
             class B@mode<Y> extends A@mode<Y> { }
             class Site@mode<S> { }",
        );
        let args = ModeArgs::of_static(StaticMode::Const(ModeName::new("high")));
        let m = t.method(&class(&t, "B"), &args, &ident(&t, "get")).unwrap();
        assert_eq!(m.owner, class(&t, "A"));
        assert_eq!(t.names().enter(|| m.ret.to_string()), "Site@mode<high>");
        assert_eq!(m.params, vec![Type::INT]);
    }

    #[test]
    fn dynamic_instantiation_keeps_internal_view() {
        let t = table(
            "modes { low <= high; }
             class Agent@mode<? <= X> {
               attributor { return low; }
               Site@mode<X> peek() { return this.peek(); }
             }
             class Site@mode<S> { }",
        );
        let m = t
            .method(
                &class(&t, "Agent"),
                &ModeArgs::of_dynamic(),
                &ident(&t, "peek"),
            )
            .unwrap();
        assert_eq!(t.names().enter(|| m.ret.to_string()), "Site@mode<X>");
        assert_eq!(
            m.subst.get(&ModeVar::named(sym(&t, "X"))),
            Some(&StaticMode::Var(ModeVar::named(sym(&t, "X"))))
        );
    }

    #[test]
    fn duplicate_class_is_rejected() {
        let err = ClassTable::new(&parse_program("class A { } class A { }").unwrap()).unwrap_err();
        assert!(matches!(err, TableError::DuplicateClass(_)));
    }

    #[test]
    fn unknown_superclass_is_rejected() {
        let err = ClassTable::new(&parse_program("class A extends B { }").unwrap()).unwrap_err();
        assert!(matches!(err, TableError::UnknownSuperclass(_, _)));
    }

    #[test]
    fn inheritance_cycle_is_rejected() {
        let err =
            ClassTable::new(&parse_program("class A extends B { } class B extends A { }").unwrap())
                .unwrap_err();
        assert!(matches!(err, TableError::InheritanceCycle(_)));
    }

    #[test]
    fn superclass_mode_mismatch_is_rejected() {
        // DepthRule passes a constant instead of its own mode var.
        let err = ClassTable::new(
            &parse_program(
                "modes { low <= high; }
                 class Rule@mode<R> { }
                 class DepthRule@mode<X> extends Rule@mode<high> { }",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TableError::SuperModeMismatch(_)));
    }

    #[test]
    fn extending_dynamic_class_is_rejected() {
        let err = ClassTable::new(
            &parse_program(
                "modes { low <= high; }
                 class D@mode<?> { attributor { return low; } }
                 class E extends D { }",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TableError::SuperModeMismatch(_)));
    }

    #[test]
    fn dynamic_class_requires_attributor() {
        let err =
            ClassTable::new(&parse_program("modes { low <= high; } class D@mode<?> { }").unwrap())
                .unwrap_err();
        assert!(matches!(err, TableError::AttributorMismatch(_, _)));
    }

    #[test]
    fn static_class_must_not_have_attributor() {
        let err = ClassTable::new(
            &parse_program(
                "modes { low <= high; }
                 class S@mode<X> { attributor { return low; } }",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TableError::AttributorMismatch(_, _)));
    }

    #[test]
    fn inherited_field_shadowing_is_rejected() {
        let err = ClassTable::new(
            &parse_program(
                "class A { int x; }
                 class B extends A { int x; }",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TableError::DuplicateField(_, _)));
    }

    #[test]
    fn ctor_params_skip_initialized_fields() {
        let t = table(
            "modes { low <= high; }
             class C { int a; int b = 3; string c; }",
        );
        let params = t.ctor_params(&class(&t, "C"), &ModeArgs::of_static(StaticMode::Bot));
        let names: Vec<_> = params
            .iter()
            .map(|f| t.names().get(f.name.into()))
            .collect();
        assert_eq!(names, ["a", "c"]);
    }

    #[test]
    fn reserved_object_class_is_rejected() {
        let err = ClassTable::new(&parse_program("class Object { }").unwrap()).unwrap_err();
        assert!(matches!(err, TableError::ReservedClass(_)));
    }

    #[test]
    fn super_arg_arity_is_checked() {
        let err = ClassTable::new(
            &parse_program(
                "modes { low <= high; }
                 class R@mode<A, B> { }
                 class S@mode<X> extends R@mode<X> { }",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TableError::SuperArgArity { .. }));
    }

    /// The chain and duplicate-field checks as `validate` made them before
    /// it memoized chains: every class's whole chain walked with a `seen`
    /// list, then rebuilt for the field check.
    fn chain_and_field_oracle(t: &ClassTable) -> Result<(), TableError> {
        for &name in &t.order {
            let mut seen = vec![name];
            let mut cur = t.class(&name).expect("a declared class");
            while cur.superclass != ClassName::OBJECT {
                if seen.contains(&cur.superclass) {
                    return Err(TableError::InheritanceCycle(t.spell(name)));
                }
                seen.push(cur.superclass);
                cur = t.class(&cur.superclass).ok_or_else(|| {
                    TableError::UnknownSuperclass(t.spell(cur.name), t.spell(cur.superclass))
                })?;
            }
            let mut field_names: Vec<Ident> = Vec::new();
            for anc in t.superclass_chain(&name) {
                for fd in &t.class(&anc).expect("a chain class").fields {
                    if field_names.contains(&fd.name) {
                        return Err(TableError::DuplicateField(t.spell(name), t.spell(fd.name)));
                    }
                    field_names.push(fd.name);
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Random class graphs — chains, forests, cycles, undeclared
        /// superclasses, fields repeated along a chain or within a class —
        /// get the same verdict, and the same first error, as the walk
        /// per class did.
        #[test]
        fn memoized_validation_reports_what_the_walk_per_class_did(
            classes in proptest::collection::vec(
                (0usize..12, proptest::collection::vec(0usize..4, 0..3)),
                1..10,
            )
        ) {
            let n = classes.len();
            let mut src = String::new();
            for (k, (sup, fields)) in classes.iter().enumerate() {
                src.push_str(&format!("class K{k}"));
                match *sup {
                    s if s < n => src.push_str(&format!(" extends K{s}")),
                    s if s == n => src.push_str(" extends Nowhere"),
                    _ => {}
                }
                src.push_str(" {");
                for f in fields {
                    src.push_str(&format!(" int f{f};"));
                }
                src.push_str(" }\n");
            }
            let program = parse_program(&src).expect("generated classes parse");
            let mut index = vec![NOT_A_CLASS; program.names().len()];
            for (i, c) in (0u32..).zip(program.classes.iter()) {
                index[c.name.symbol().index()] = i;
            }
            let unchecked = ClassTable {
                classes: Arc::clone(&program.classes),
                index,
                order: program.classes.iter().map(|c| c.name).collect(),
            };
            proptest::prop_assert_eq!(
                ClassTable::new(&program).map(|_| ()),
                chain_and_field_oracle(&unchecked),
                "{}",
                src
            );
        }
    }
}
