//! The abstract syntax of ENT.
//!
//! The grammar follows Figure 2 of the paper — Featherweight Java extended
//! with mode declarations, attributors, `snapshot`, mode cases and mode-case
//! elimination — plus the practical extensions needed to write the paper's
//! benchmark programs: primitive literals and operators, `let`, `if`,
//! blocks with `return`, immutable arrays, `try`/`catch` for
//! `EnergyException`, and calls to the builtin namespaces (`Ext`, `Sim`,
//! `IO`, `Arr`, `Str`, `Math`).

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, Index, Range};
use std::sync::Arc;

use ent_modes::{
    write_name, Bounded, ClassModeParams, ModeArgs, ModeName, ModeTable, Names, StaticMode, Symbol,
};

use crate::Span;

/// A class name: a 4-byte id into its program's [`Names`]. It prints
/// through the table current on the thread ([`Names::enter`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassName(Symbol);

impl ClassName {
    /// The root of the inheritance hierarchy, at its fixed id.
    pub const OBJECT: ClassName = ClassName(Symbol::from_raw(PREDECLARED_OBJECT));
    /// The entry class, at its fixed id.
    pub const MAIN: ClassName = ClassName(Symbol::from_raw(PREDECLARED_OBJECT + 1));

    /// The class spelled by name `sym`.
    pub const fn new(sym: Symbol) -> Self {
        ClassName(sym)
    }

    /// The name's id.
    pub const fn symbol(self) -> Symbol {
        self.0
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_name(f, self.0)
    }
}

impl fmt::Debug for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClassName(")?;
        write_name(f, self.0)?;
        f.write_str(")")
    }
}

impl From<ClassName> for Symbol {
    fn from(name: ClassName) -> Symbol {
        name.0
    }
}

/// A variable, field, or method name: a 4-byte id into its program's
/// [`Names`]. It prints through the table current on the thread
/// ([`Names::enter`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(Symbol);

impl Ident {
    /// The entry method, at its fixed id.
    pub const MAIN: Ident = Ident(Symbol::from_raw(PREDECLARED_OBJECT + 2));
    /// The member a boundary obligation names, at its fixed id: the
    /// keyword `snapshot`, which no source spells as a name.
    pub const SNAPSHOT: Ident = Ident(Symbol::from_raw(SPELLABLE as u32));

    /// The identifier spelled by name `sym`.
    pub const fn new(sym: Symbol) -> Self {
        Ident(sym)
    }

    /// The name's id.
    pub const fn symbol(self) -> Symbol {
        self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_name(f, self.0)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Ident(")?;
        write_name(f, self.0)?;
        f.write_str(")")
    }
}

impl From<Ident> for Symbol {
    fn from(name: Ident) -> Symbol {
        name.0
    }
}

// Names are 4-byte `Copy` ids: a node, type or substitution that spells
// one copies four bytes, with no reference count.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<ClassName>();
    copy::<Ident>();
    assert!(std::mem::size_of::<ClassName>() == 4);
    assert!(std::mem::size_of::<Ident>() == 4);
};

/// The names the language itself gives meaning to, at the same ids in
/// every program's [`Names`]: the primitive types first (in
/// [`PrimType`] order), then the root and entry names, then the builtin
/// namespaces and their operations, and last the keyword `snapshot`
/// ([`Ident::SNAPSHOT`]).
#[rustfmt::skip]
pub(crate) const PREDECLARED: [&str; SPELLABLE + 1] = [
    "int", "double", "bool", "string", "unit", "Object", "Main", "main", "Ext", "Sim", "IO",
    "Arr", "Str", "Math", "battery", "temperature", "timeMs", "work", "sleepMs", "rand", "print",
    "len", "ofInt", "ofDouble", "sub", "floor", "toDouble", "min", "max", "fmin", "fmax", "abs",
    "sqrt", "pow", "range", "get", "concat", "push", "make", "snapshot",
];

/// How many of [`PREDECLARED`] a source spells as names: all but the
/// keyword.
pub(crate) const SPELLABLE: usize = 39;

/// `Object`'s id in [`PREDECLARED`]; `Main` and `main` follow it.
const PREDECLARED_OBJECT: u32 = 5;

/// The primitive types, by id in [`PREDECLARED`].
pub(crate) const PRIMS: [PrimType; 5] = [
    PrimType::Int,
    PrimType::Double,
    PrimType::Bool,
    PrimType::Str,
    PrimType::Unit,
];

/// Primitive (non-object) types — a practical extension over the formal FJ
/// core, needed by the benchmark programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Double,
    /// Booleans.
    Bool,
    /// Immutable strings.
    Str,
    /// The unit type (the result of statements used for effect).
    Unit,
}

impl fmt::Display for PrimType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PrimType::Int => "int",
            PrimType::Double => "double",
            PrimType::Bool => "bool",
            PrimType::Str => "string",
            PrimType::Unit => "unit",
        })
    }
}

/// A programmer type `T` (Figure 2), extended with primitives and arrays.
#[derive(Clone, Debug, PartialEq)]
pub enum Type {
    /// An object type `c⟨ι⟩`, e.g. `Site@mode<managed>` or `Agent@mode<?>`.
    Object {
        /// The class.
        class: ClassName,
        /// The mode arguments `ι` (object mode first).
        args: ModeArgs,
    },
    /// A mode case type `mcase⟨T⟩`.
    MCase(Box<Type>),
    /// A primitive type.
    Prim(PrimType),
    /// An immutable array `T[]`.
    Array(Box<Type>),
    /// The type of modes themselves (`modev`); the result type of an
    /// attributor body. Not denotable in surface syntax.
    ModeValue,
    /// A bounded existential `∃ω.τ`, the type of a `snapshot` expression.
    /// Produced by the typechecker; not denotable in surface syntax.
    Exists {
        /// The bounded mode variable `ω`.
        bound: Bounded,
        /// The body type `τ`.
        inner: Box<Type>,
    },
    /// A poison type produced by the typechecker after reporting an error,
    /// so checking can continue without cascading diagnostics. Not
    /// denotable in surface syntax.
    Error,
}

impl Type {
    /// An object type with the given class and mode arguments.
    pub fn object(class: ClassName, args: ModeArgs) -> Type {
        Type::Object { class, args }
    }

    /// The `int` type.
    pub const INT: Type = Type::Prim(PrimType::Int);
    /// The `double` type.
    pub const DOUBLE: Type = Type::Prim(PrimType::Double);
    /// The `bool` type.
    pub const BOOL: Type = Type::Prim(PrimType::Bool);
    /// The `string` type.
    pub const STR: Type = Type::Prim(PrimType::Str);
    /// The `unit` type.
    pub const UNIT: Type = Type::Prim(PrimType::Unit);

    /// Applies a mode substitution throughout the type.
    pub fn apply(&self, subst: &ent_modes::Subst) -> Type {
        match self {
            Type::Object { class, args } => Type::Object {
                class: *class,
                args: args.apply(subst),
            },
            Type::MCase(t) => Type::MCase(Box::new(t.apply(subst))),
            Type::Array(t) => Type::Array(Box::new(t.apply(subst))),
            Type::Exists { bound, inner } => Type::Exists {
                bound: bound.apply_bounds(subst),
                inner: Box::new(inner.apply(subst)),
            },
            Type::Prim(_) | Type::ModeValue | Type::Error => self.clone(),
        }
    }

    /// The paper's `omode(T)` for object types; `None` otherwise.
    pub fn omode(&self) -> Option<&ent_modes::Mode> {
        match self {
            Type::Object { args, .. } => Some(args.omode()),
            _ => None,
        }
    }

    /// Returns `true` for object types with the dynamic mode `?`.
    pub fn is_dynamic_object(&self) -> bool {
        matches!(self, Type::Object { args, .. } if args.is_dynamic())
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Object { class, args } => {
                if args.rest.is_empty() && args.mode == ent_modes::Mode::Static(StaticMode::Bot) {
                    write!(f, "{class}")
                } else {
                    write!(f, "{class}@mode<{args}>")
                }
            }
            Type::MCase(t) => write!(f, "mcase<{t}>"),
            Type::Prim(p) => write!(f, "{p}"),
            Type::Array(t) => write!(f, "{t}[]"),
            Type::ModeValue => f.write_str("modev"),
            Type::Exists { bound, inner } => write!(f, "∃{bound}.{inner}"),
            Type::Error => f.write_str("<error>"),
        }
    }
}

/// A literal value.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// Double literal.
    Double(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// The unit value (written as an empty block).
    Unit,
}

impl Lit {
    /// The type of the literal.
    pub fn ty(&self) -> Type {
        match self {
            Lit::Int(_) => Type::INT,
            Lit::Double(_) => Type::DOUBLE,
            Lit::Bool(_) => Type::BOOL,
            Lit::Str(_) => Type::STR,
            Lit::Unit => Type::UNIT,
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(n) => write!(f, "{n}"),
            Lit::Double(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Str(s) => write!(f, "{s:?}"),
            Lit::Unit => f.write_str("{}"),
        }
    }
}

/// Binary operators over primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (ints, doubles, or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuiting)
    And,
    /// `||` (short-circuiting)
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        })
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
        })
    }
}

/// An expression's id: its index in the [`Ast`] that holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The id's index in its tree's expression array.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A type annotation's id: its index in the [`Ast`] that holds it. Casts,
/// mode-case annotations and `let` annotations keep their types beside
/// the nodes, so a node stays small.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TypeId(u32);

/// The id of the mode arguments written in a `new`, in the [`Ast`] that
/// holds them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModeArgsId(u32);

/// A run of consecutive entries in one of an [`Ast`]'s arrays: an
/// [`ExprList`] (call and constructor arguments, array items), a
/// [`StmtList`] (a block's statements) or an [`ArmList`] (a mode case's
/// arms). Indexing the tree with it gives the slice.
pub struct List<T> {
    start: u32,
    len: u32,
    of: PhantomData<fn() -> T>,
}

impl<T> List<T> {
    /// How many entries the run holds.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the run is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

impl<T> Clone for List<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<T> {}

impl<T> PartialEq for List<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

impl<T> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "List({:?})", self.range())
    }
}

/// Expressions in a row: arguments or array items.
pub type ExprList = List<ExprId>;

/// A block's statements.
pub type StmtList = List<Stmt>;

/// One arm of a mode case: its mode and its value.
pub type Arm = (ModeName, ExprId);

/// A mode case's arms.
pub type ArmList = List<Arm>;

/// An expression node.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Where it came from.
    pub span: Span,
}

impl Expr {
    /// Creates an expression.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

/// The kinds of expressions. A child is an [`ExprId`] into the same
/// [`Ast`], and a list of children is a run of that tree's arrays.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// A variable reference `x`.
    Var(Ident),
    /// The receiver `this`.
    This,
    /// A literal.
    Lit(Lit),
    /// A mode constant used as a value (inside attributors: `return managed`).
    ModeConst(ModeName),
    /// Field access `e.fd` (with implicit mcase elimination applied by the
    /// typechecker when needed).
    Field {
        /// The receiver.
        recv: ExprId,
        /// The field name.
        name: Ident,
    },
    /// Object creation `new c@mode<ι>(e...)`. `args` is `None` when the
    /// programmer omitted the instantiation (allowed for mode-neutral and
    /// pinned-mode classes).
    New {
        /// The class to instantiate.
        class: ClassName,
        /// Explicit mode arguments, if written.
        args: Option<ModeArgsId>,
        /// Constructor arguments (positional field values).
        ctor_args: ExprList,
    },
    /// Method invocation `e.md@mode<η...>(e...)`; `mode_args` instantiate
    /// generic method modes (usually empty and inferred).
    Call {
        /// The receiver.
        recv: ExprId,
        /// The method name.
        method: Ident,
        /// Explicit generic-mode instantiations.
        mode_args: Vec<StaticMode>,
        /// The arguments.
        args: ExprList,
    },
    /// A call into a builtin namespace, e.g. `Ext.battery()`.
    Builtin {
        /// The namespace (`Ext`, `Sim`, `IO`, `Arr`, `Str`, `Math`).
        ns: Ident,
        /// The operation name.
        name: Ident,
        /// The arguments.
        args: ExprList,
    },
    /// A cast `(T)e`.
    Cast {
        /// The target type.
        ty: TypeId,
        /// The operand.
        expr: ExprId,
    },
    /// `snapshot e [lo, hi]` — bounds default to `⊥`/`⊤` when omitted.
    Snapshot {
        /// The dynamic object being snapshotted.
        expr: ExprId,
        /// The lower bound on the resulting mode.
        lo: StaticMode,
        /// The upper bound on the resulting mode.
        hi: StaticMode,
    },
    /// A mode case literal `mcase<T>{m: e; ...}`; the type annotation is
    /// optional in surface syntax and inferred when absent.
    MCase {
        /// The optional element type annotation.
        ty: Option<TypeId>,
        /// The arms, one per declared mode.
        arms: ArmList,
    },
    /// Mode case elimination `e <| η` (`η == None` means "the enclosing
    /// object's internal mode", written `e <| _`).
    Elim {
        /// The mode case being eliminated.
        expr: ExprId,
        /// The mode to project, if explicit.
        mode: Option<StaticMode>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: ExprId,
    },
    /// `if (c) { .. } else { .. }`; a missing else-branch is `unit`.
    If {
        /// The condition.
        cond: ExprId,
        /// The then-branch.
        then: ExprId,
        /// The else-branch.
        els: Option<ExprId>,
    },
    /// A block `{ stmt* }`; evaluates to its last expression statement, or
    /// unit.
    Block(StmtList),
    /// `try { e } catch { e }` — catches `EnergyException` (a failed
    /// snapshot bound check).
    Try {
        /// The protected body.
        body: ExprId,
        /// The handler.
        handler: ExprId,
    },
    /// An array literal `[e, ...]`.
    ArrayLit(ExprList),
}

/// A statement inside a block.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `let x = e;` or `let T x = e;`
    Let {
        /// Optional type annotation.
        ty: Option<TypeId>,
        /// The bound variable.
        name: Ident,
        /// The initializer.
        value: ExprId,
    },
    /// An expression statement `e;` (or a trailing expression).
    Expr(ExprId),
    /// `return e;` — exits the enclosing method or attributor.
    Return(ExprId),
}

/// The flat syntax tree of a program's bodies: every expression node,
/// statement, argument list, mode-case arm, type annotation and written
/// `new` instantiation, each kind in one array.
///
/// Nodes refer to their children by id and to their lists by run, so
/// parsing grows a few vectors instead of allocating a box per node and a
/// vector per list, and dropping the tree frees those vectors without
/// recursing, however deep the expressions nest. Index the tree with an
/// [`ExprId`], [`TypeId`] or [`ModeArgsId`] for the entry, or with a
/// [`List`] for the slice.
///
/// # Example
///
/// ```
/// use ent_syntax::{parse_expr, BinOp, ExprKind, Lit};
///
/// let (ast, root, _names) = parse_expr("1 + 2", &[])?;
/// let ExprKind::Binary { op: BinOp::Add, lhs, .. } = ast[root].kind else {
///     panic!("an addition");
/// };
/// assert_eq!(ast[lhs].kind, ExprKind::Lit(Lit::Int(1)));
/// assert_eq!(ast.len(), 3);
/// # Ok::<(), ent_syntax::SyntaxError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ast {
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    lists: Vec<ExprId>,
    arms: Vec<Arm>,
    types: Vec<Type>,
    mode_args: Vec<ModeArgs>,
}

impl Ast {
    /// An empty tree.
    pub fn new() -> Self {
        Ast::default()
    }

    /// An empty tree with room for the nodes of a source of `tokens`
    /// tokens. Generated programs hold about one expression per three
    /// tokens, so the arrays rarely grow.
    pub(crate) fn for_tokens(tokens: usize) -> Self {
        Ast {
            exprs: Vec::with_capacity(tokens / 2 + 1),
            stmts: Vec::with_capacity(tokens / 16 + 1),
            lists: Vec::with_capacity(tokens / 8 + 1),
            arms: Vec::new(),
            types: Vec::new(),
            mode_args: Vec::new(),
        }
    }

    /// Adds an expression node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` nodes.
    pub fn push(&mut self, expr: Expr) -> ExprId {
        self.exprs.push(expr);
        ExprId(last_index(self.exprs.len()))
    }

    /// Removes node `id`, which must be the last one pushed.
    pub(crate) fn pop(&mut self, id: ExprId) {
        assert_eq!(
            id.index() + 1,
            self.exprs.len(),
            "only the last node is removed"
        );
        self.exprs.pop();
    }

    /// Adds a type annotation and returns its id.
    pub(crate) fn push_type(&mut self, ty: Type) -> TypeId {
        self.types.push(ty);
        TypeId(last_index(self.types.len()))
    }

    /// Adds the mode arguments of a `new` and returns their id.
    pub(crate) fn push_mode_args(&mut self, args: ModeArgs) -> ModeArgsId {
        self.mode_args.push(args);
        ModeArgsId(last_index(self.mode_args.len()))
    }

    /// Adds a run of expression ids.
    pub fn push_exprs(&mut self, ids: impl IntoIterator<Item = ExprId>) -> ExprList {
        extend(&mut self.lists, ids)
    }

    /// Adds a run of statements.
    pub(crate) fn push_stmts(&mut self, stmts: impl IntoIterator<Item = Stmt>) -> StmtList {
        extend(&mut self.stmts, stmts)
    }

    /// Adds a run of mode-case arms.
    pub(crate) fn push_arms(&mut self, arms: impl IntoIterator<Item = Arm>) -> ArmList {
        extend(&mut self.arms, arms)
    }

    /// How many expression nodes the tree holds.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Whether the tree holds no expression.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// `item` beside this tree, for `Debug`: see [`Shown`].
    pub fn show<T>(&self, item: T) -> Shown<'_, T> {
        Shown { ast: self, item }
    }
}

/// The index of the last of `len` entries, as a `u32`.
fn last_index(len: usize) -> u32 {
    u32::try_from(len - 1).expect("a syntax tree holds at most u32::MAX entries")
}

/// Appends `items` to `array` and returns their run.
fn extend<T>(array: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> List<T> {
    let start = array.len();
    array.extend(items);
    let len = array.len() - start;
    List {
        start: u32::try_from(start).expect("a syntax tree holds at most u32::MAX entries"),
        len: u32::try_from(len).expect("a syntax tree holds at most u32::MAX entries"),
        of: PhantomData,
    }
}

impl Index<ExprId> for Ast {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }
}

impl Index<TypeId> for Ast {
    type Output = Type;

    fn index(&self, id: TypeId) -> &Type {
        &self.types[id.0 as usize]
    }
}

impl Index<ModeArgsId> for Ast {
    type Output = ModeArgs;

    fn index(&self, id: ModeArgsId) -> &ModeArgs {
        &self.mode_args[id.0 as usize]
    }
}

impl Index<ExprList> for Ast {
    type Output = [ExprId];

    fn index(&self, list: ExprList) -> &[ExprId] {
        &self.lists[list.range()]
    }
}

impl Index<StmtList> for Ast {
    type Output = [Stmt];

    fn index(&self, list: StmtList) -> &[Stmt] {
        &self.stmts[list.range()]
    }
}

impl Index<ArmList> for Ast {
    type Output = [Arm];

    fn index(&self, list: ArmList) -> &[Arm] {
        &self.arms[list.range()]
    }
}

/// A tree item beside the [`Ast`] it lives in, made by [`Ast::show`].
///
/// Its `Debug` renders the item with each child id replaced by the
/// child's own rendering: a body prints as the nested tree, in exactly
/// the text the derived `Debug` of a boxed tree printed (`Expr { kind:
/// Binary { op: Add, lhs: Expr { .. }, .. }, span: .. }`).
pub struct Shown<'a, T> {
    ast: &'a Ast,
    item: T,
}

impl<T> Shown<'_, T> {
    fn show<U>(&self, item: U) -> Shown<'_, U> {
        self.ast.show(item)
    }
}

impl fmt::Debug for Shown<'_, ExprId> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.ast[self.item];
        f.debug_struct("Expr")
            .field("kind", &self.show(&e.kind))
            .field("span", &e.span)
            .finish()
    }
}

impl fmt::Debug for Shown<'_, Option<ExprId>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.item.map(|e| self.show(e)), f)
    }
}

impl fmt::Debug for Shown<'_, ExprList> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items = &self.ast[self.item];
        f.debug_list()
            .entries(items.iter().map(|&e| self.show(e)))
            .finish()
    }
}

impl fmt::Debug for Shown<'_, &ExprKind> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.item {
            ExprKind::Var(x) => f.debug_tuple("Var").field(x).finish(),
            ExprKind::This => f.write_str("This"),
            ExprKind::Lit(l) => f.debug_tuple("Lit").field(l).finish(),
            ExprKind::ModeConst(m) => f.debug_tuple("ModeConst").field(m).finish(),
            ExprKind::Field { recv, name } => f
                .debug_struct("Field")
                .field("recv", &self.show(*recv))
                .field("name", name)
                .finish(),
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => f
                .debug_struct("New")
                .field("class", class)
                .field("args", &args.map(|a| &self.ast[a]))
                .field("ctor_args", &self.show(*ctor_args))
                .finish(),
            ExprKind::Call {
                recv,
                method,
                mode_args,
                args,
            } => f
                .debug_struct("Call")
                .field("recv", &self.show(*recv))
                .field("method", method)
                .field("mode_args", mode_args)
                .field("args", &self.show(*args))
                .finish(),
            ExprKind::Builtin { ns, name, args } => f
                .debug_struct("Builtin")
                .field("ns", ns)
                .field("name", name)
                .field("args", &self.show(*args))
                .finish(),
            ExprKind::Cast { ty, expr } => f
                .debug_struct("Cast")
                .field("ty", &self.ast[*ty])
                .field("expr", &self.show(*expr))
                .finish(),
            ExprKind::Snapshot { expr, lo, hi } => f
                .debug_struct("Snapshot")
                .field("expr", &self.show(*expr))
                .field("lo", lo)
                .field("hi", hi)
                .finish(),
            ExprKind::MCase { ty, arms } => {
                let arms = &self.ast[*arms];
                let arms: Vec<_> = arms.iter().map(|(m, e)| (m, self.show(*e))).collect();
                f.debug_struct("MCase")
                    .field("ty", &ty.map(|t| &self.ast[t]))
                    .field("arms", &arms)
                    .finish()
            }
            ExprKind::Elim { expr, mode } => f
                .debug_struct("Elim")
                .field("expr", &self.show(*expr))
                .field("mode", mode)
                .finish(),
            ExprKind::Binary { op, lhs, rhs } => f
                .debug_struct("Binary")
                .field("op", op)
                .field("lhs", &self.show(*lhs))
                .field("rhs", &self.show(*rhs))
                .finish(),
            ExprKind::Unary { op, expr } => f
                .debug_struct("Unary")
                .field("op", op)
                .field("expr", &self.show(*expr))
                .finish(),
            ExprKind::If { cond, then, els } => f
                .debug_struct("If")
                .field("cond", &self.show(*cond))
                .field("then", &self.show(*then))
                .field("els", &self.show(*els))
                .finish(),
            ExprKind::Block(stmts) => {
                let stmts = &self.ast[*stmts];
                let stmts: Vec<_> = stmts.iter().map(|s| self.show(s)).collect();
                f.debug_tuple("Block").field(&stmts).finish()
            }
            ExprKind::Try { body, handler } => f
                .debug_struct("Try")
                .field("body", &self.show(*body))
                .field("handler", &self.show(*handler))
                .finish(),
            ExprKind::ArrayLit(items) => {
                f.debug_tuple("ArrayLit").field(&self.show(*items)).finish()
            }
        }
    }
}

impl fmt::Debug for Shown<'_, &Stmt> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.item {
            Stmt::Let { ty, name, value } => f
                .debug_struct("Let")
                .field("ty", &ty.map(|t| &self.ast[t]))
                .field("name", name)
                .field("value", &self.show(*value))
                .finish(),
            Stmt::Expr(e) => f.debug_tuple("Expr").field(&self.show(*e)).finish(),
            Stmt::Return(e) => f.debug_tuple("Return").field(&self.show(*e)).finish(),
        }
    }
}

impl fmt::Debug for Shown<'_, &FieldDecl> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fd = self.item;
        f.debug_struct("FieldDecl")
            .field("ty", &fd.ty)
            .field("name", &fd.name)
            .field("init", &self.show(fd.init))
            .field("span", &fd.span)
            .finish()
    }
}

impl fmt::Debug for Shown<'_, &Attributor> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Attributor")
            .field("body", &self.show(self.item.body))
            .field("span", &self.item.span)
            .finish()
    }
}

impl fmt::Debug for Shown<'_, &MethodDecl> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.item;
        f.debug_struct("MethodDecl")
            .field("mode", &m.mode)
            .field("mode_params", &m.mode_params)
            .field("ret", &m.ret)
            .field("name", &m.name)
            .field("params", &m.params)
            .field("attributor", &m.attributor.as_ref().map(|a| self.show(a)))
            .field("body", &self.show(m.body))
            .field("span", &m.span)
            .finish()
    }
}

impl fmt::Debug for Shown<'_, &ClassDecl> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.item;
        let fields: Vec<_> = c.fields.iter().map(|fd| self.show(fd)).collect();
        let methods: Vec<_> = c.methods.iter().map(|m| self.show(m)).collect();
        f.debug_struct("ClassDecl")
            .field("name", &c.name)
            .field("mode_params", &c.mode_params)
            .field("superclass", &c.superclass)
            .field("super_args", &c.super_args)
            .field("fields", &fields)
            .field("methods", &methods)
            .field("attributor", &c.attributor.as_ref().map(|a| self.show(a)))
            .field("span", &c.span)
            .finish()
    }
}

/// A field declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDecl {
    /// The field type.
    pub ty: Type,
    /// The field name.
    pub name: Ident,
    /// Optional initializer; fields without initializers are set
    /// positionally by `new`, in declaration order, inherited fields first.
    pub init: Option<ExprId>,
    /// Source location.
    pub span: Span,
}

/// A method declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodDecl {
    /// Method-level mode override `@mode<η>` (the paper's method-grained
    /// mode characterization), if present.
    pub mode: Option<StaticMode>,
    /// Generic method-mode parameters with bounds.
    pub mode_params: Vec<Bounded>,
    /// The return type.
    pub ret: Type,
    /// The method name.
    pub name: Ident,
    /// Parameters as `(type, name)` pairs.
    pub params: Vec<(Type, Ident)>,
    /// A method-level attributor, making the method's mode dynamic.
    pub attributor: Option<Attributor>,
    /// The body.
    pub body: ExprId,
    /// Source location.
    pub span: Span,
}

/// A class-level or method-level attributor block.
#[derive(Clone, Debug, PartialEq)]
pub struct Attributor {
    /// The body, evaluating to a mode value.
    pub body: ExprId,
    /// Source location.
    pub span: Span,
}

/// A class declaration. Its bodies live in the [`Ast`] of the
/// [`Classes`] that holds it.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassDecl {
    /// The class name.
    pub name: ClassName,
    /// The mode parameter list `∆`.
    pub mode_params: ClassModeParams,
    /// The superclass (defaults to `Object`).
    pub superclass: ClassName,
    /// Static mode arguments instantiating the superclass's parameters.
    pub super_args: Vec<StaticMode>,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Method declarations.
    pub methods: Vec<MethodDecl>,
    /// The class-level attributor (required iff the class is dynamic).
    pub attributor: Option<Attributor>,
    /// Source location.
    pub span: Span,
}

impl ClassDecl {
    /// Looks up a declared (non-inherited) field.
    pub fn field(&self, name: &Ident) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| &f.name == name)
    }

    /// Looks up a declared (non-inherited) method.
    pub fn method(&self, name: &Ident) -> Option<&MethodDecl> {
        self.methods.iter().find(|m| &m.name == name)
    }
}

/// A program's class declarations, in declaration order, with the
/// [`Ast`] their bodies, field initializers and attributors live in and
/// the [`Names`] every name in them is an id into.
///
/// It dereferences to the declarations. Its `Debug` prints each body as
/// a nested tree (see [`Shown`]) and each name as its spelling.
pub struct Classes {
    decls: Vec<ClassDecl>,
    ast: Ast,
    names: Names,
}

impl Classes {
    /// The declarations `decls`, whose bodies are in `ast` and whose
    /// names are in `names`.
    pub(crate) fn new(decls: Vec<ClassDecl>, ast: Ast, names: Names) -> Self {
        Classes { decls, ast, names }
    }

    /// The tree the declarations' bodies live in.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The program's name table.
    pub fn names(&self) -> &Names {
        &self.names
    }
}

impl Deref for Classes {
    type Target = [ClassDecl];

    fn deref(&self) -> &[ClassDecl] {
        &self.decls
    }
}

impl fmt::Debug for Classes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.names.enter(|| {
            f.debug_list()
                .entries(self.decls.iter().map(|c| self.ast.show(c)))
                .finish()
        })
    }
}

/// A whole program `P = D C`: the validated mode table plus class
/// declarations.
#[derive(Clone, Debug)]
pub struct Program {
    /// The validated mode declaration `D`.
    pub mode_table: ModeTable,
    /// The classes, in declaration order, and the tree of their bodies.
    /// Shared, not copied, by the [`crate::ClassTable`] built from this
    /// program.
    pub classes: Arc<Classes>,
}

impl Program {
    /// Finds a class by name.
    pub fn class(&self, name: &ClassName) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| &c.name == name)
    }

    /// The tree the classes' bodies live in.
    pub fn ast(&self) -> &Ast {
        self.classes.ast()
    }

    /// The name table every name in the program is an id into.
    pub fn names(&self) -> &Names {
        self.classes.names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_modes::{Mode, ModeVar};

    /// A table of `own` names after the predeclared ones, and its ids.
    fn names(own: &[&str]) -> (Names, Vec<Symbol>) {
        let table = Names::new(&PREDECLARED, own);
        let ids = own.iter().map(|n| table.find(n).unwrap()).collect();
        (table, ids)
    }

    #[test]
    fn predeclared_names_sit_at_their_fixed_ids() {
        let (table, _) = names(&[]);
        assert_eq!(table.get(ClassName::OBJECT.symbol()), "Object");
        assert_eq!(table.get(ClassName::MAIN.symbol()), "Main");
        assert_eq!(table.get(Ident::MAIN.symbol()), "main");
        assert_eq!(table.get(Ident::SNAPSHOT.symbol()), "snapshot");
        for (i, prim) in PRIMS.iter().enumerate() {
            assert_eq!(PREDECLARED[i], prim.to_string());
        }
    }

    #[test]
    fn type_display_forms() {
        let (table, ids) = names(&["Rule", "Site", "Agent"]);
        let class = |i: usize| ClassName::new(ids[i]);
        table.enter(|| {
            let neutral = Type::object(class(0), ModeArgs::of_static(StaticMode::Bot));
            assert_eq!(neutral.to_string(), "Rule");

            let site = Type::object(
                class(1),
                ModeArgs::of_static(StaticMode::Const(ModeName::new("managed"))),
            );
            assert_eq!(site.to_string(), "Site@mode<managed>");

            let dynamic = Type::object(class(2), ModeArgs::of_dynamic());
            assert_eq!(dynamic.to_string(), "Agent@mode<?>");
        });
        // Outside its table a name prints as its id.
        let rule = Type::object(class(0), ModeArgs::of_static(StaticMode::Bot));
        assert_eq!(rule.to_string(), format!("name#{}", PREDECLARED.len()));

        assert_eq!(Type::MCase(Box::new(Type::INT)).to_string(), "mcase<int>");
        assert_eq!(Type::Array(Box::new(Type::STR)).to_string(), "string[]");
    }

    #[test]
    fn type_omode_and_dynamicness() {
        let dynamic = Type::object(ClassName::MAIN, ModeArgs::of_dynamic());
        assert!(dynamic.is_dynamic_object());
        assert_eq!(dynamic.omode(), Some(&Mode::Dynamic));
        assert!(Type::INT.omode().is_none());
    }

    #[test]
    fn literal_types() {
        assert_eq!(Lit::Int(3).ty(), Type::INT);
        assert_eq!(Lit::Str("s".into()).ty(), Type::STR);
        assert_eq!(Lit::Unit.ty(), Type::UNIT);
    }

    #[test]
    fn type_substitution_reaches_nested_positions() {
        use ent_modes::Subst;
        let (table, ids) = names(&["X", "Site"]);
        let x = ModeVar::named(ids[0]);
        let mut s = Subst::new();
        s.insert(x, StaticMode::Const(ModeName::new("m")));
        let t = Type::Array(Box::new(Type::object(
            ClassName::new(ids[1]),
            ModeArgs::of_static(StaticMode::Var(x)),
        )));
        assert_eq!(table.enter(|| t.apply(&s).to_string()), "Site@mode<m>[]");
    }

    #[test]
    fn class_decl_lookup() {
        let (_, ids) = names(&["C", "x", "y", "m"]);
        let decl = ClassDecl {
            name: ClassName::new(ids[0]),
            mode_params: ClassModeParams::neutral(),
            superclass: ClassName::OBJECT,
            super_args: vec![],
            fields: vec![FieldDecl {
                ty: Type::INT,
                name: Ident::new(ids[1]),
                init: None,
                span: Span::DUMMY,
            }],
            methods: vec![],
            attributor: None,
            span: Span::DUMMY,
        };
        assert!(decl.field(&Ident::new(ids[1])).is_some());
        assert!(decl.field(&Ident::new(ids[2])).is_none());
        assert!(decl.method(&Ident::new(ids[3])).is_none());
    }
}
