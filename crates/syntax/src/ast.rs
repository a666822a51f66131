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
use std::sync::{Arc, LazyLock};

use ent_modes::{Bounded, ClassModeParams, ModeArgs, ModeName, ModeTable, StaticMode};

use crate::Span;

/// A class name (interned, cheap to clone).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassName(Arc<str>);

impl ClassName {
    /// Creates a class name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ClassName(Arc::from(name.as_ref()))
    }

    /// The root of the inheritance hierarchy (a clone of one shared name).
    pub fn object() -> Self {
        static OBJECT: LazyLock<ClassName> = LazyLock::new(|| ClassName::new("Object"));
        OBJECT.clone()
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassName({})", self.0)
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName::new(s)
    }
}

/// Shares an already-interned name without copying it.
impl From<Arc<str>> for ClassName {
    fn from(s: Arc<str>) -> Self {
        ClassName(s)
    }
}

/// A variable, field, or method name (interned, cheap to clone).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(Arc<str>);

impl Ident {
    /// Creates an identifier.
    pub fn new(name: impl AsRef<str>) -> Self {
        Ident(Arc::from(name.as_ref()))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ident({})", self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

/// Shares an already-interned name without copying it.
impl From<Arc<str>> for Ident {
    fn from(s: Arc<str>) -> Self {
        Ident(s)
    }
}

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
    pub fn object(class: impl Into<ClassName>, args: ModeArgs) -> Type {
        Type::Object {
            class: class.into(),
            args,
        }
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
                class: class.clone(),
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

/// An expression.
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

/// The kinds of expressions.
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
        recv: Box<Expr>,
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
        args: Option<ModeArgs>,
        /// Constructor arguments (positional field values).
        ctor_args: Vec<Expr>,
    },
    /// Method invocation `e.md@mode<η...>(e...)`; `mode_args` instantiate
    /// generic method modes (usually empty and inferred).
    Call {
        /// The receiver.
        recv: Box<Expr>,
        /// The method name.
        method: Ident,
        /// Explicit generic-mode instantiations.
        mode_args: Vec<StaticMode>,
        /// The arguments.
        args: Vec<Expr>,
    },
    /// A call into a builtin namespace, e.g. `Ext.battery()`.
    Builtin {
        /// The namespace (`Ext`, `Sim`, `IO`, `Arr`, `Str`, `Math`).
        ns: Ident,
        /// The operation name.
        name: Ident,
        /// The arguments.
        args: Vec<Expr>,
    },
    /// A cast `(T)e`.
    Cast {
        /// The target type.
        ty: Type,
        /// The operand.
        expr: Box<Expr>,
    },
    /// `snapshot e [lo, hi]` — bounds default to `⊥`/`⊤` when omitted.
    Snapshot {
        /// The dynamic object being snapshotted.
        expr: Box<Expr>,
        /// The lower bound on the resulting mode.
        lo: StaticMode,
        /// The upper bound on the resulting mode.
        hi: StaticMode,
    },
    /// A mode case literal `mcase<T>{m: e; ...}`; the type annotation is
    /// optional in surface syntax and inferred when absent.
    MCase {
        /// The optional element type annotation.
        ty: Option<Type>,
        /// The arms, one per declared mode.
        arms: Vec<(ModeName, Expr)>,
    },
    /// Mode case elimination `e <| η` (`η == None` means "the enclosing
    /// object's internal mode", written `e <| _`).
    Elim {
        /// The mode case being eliminated.
        expr: Box<Expr>,
        /// The mode to project, if explicit.
        mode: Option<StaticMode>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// `if (c) { .. } else { .. }`; a missing else-branch is `unit`.
    If {
        /// The condition.
        cond: Box<Expr>,
        /// The then-branch.
        then: Box<Expr>,
        /// The else-branch.
        els: Option<Box<Expr>>,
    },
    /// A block `{ stmt* }`; evaluates to its last expression statement, or
    /// unit.
    Block(Vec<Stmt>),
    /// `try { e } catch { e }` — catches `EnergyException` (a failed
    /// snapshot bound check).
    Try {
        /// The protected body.
        body: Box<Expr>,
        /// The handler.
        handler: Box<Expr>,
    },
    /// An array literal `[e, ...]`.
    ArrayLit(Vec<Expr>),
}

/// A statement inside a block.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `let x = e;` or `let T x = e;`
    Let {
        /// Optional type annotation.
        ty: Option<Type>,
        /// The bound variable.
        name: Ident,
        /// The initializer.
        value: Expr,
    },
    /// An expression statement `e;` (or a trailing expression).
    Expr(Expr),
    /// `return e;` — exits the enclosing method or attributor.
    Return(Expr),
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
    pub init: Option<Expr>,
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
    pub body: Expr,
    /// Source location.
    pub span: Span,
}

/// A class-level or method-level attributor block.
#[derive(Clone, Debug, PartialEq)]
pub struct Attributor {
    /// The body, evaluating to a mode value.
    pub body: Expr,
    /// Source location.
    pub span: Span,
}

/// A class declaration.
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

/// A whole program `P = D C`: the validated mode table plus class
/// declarations.
#[derive(Clone, Debug)]
pub struct Program {
    /// The validated mode declaration `D`.
    pub mode_table: ModeTable,
    /// The classes, in declaration order. Shared, not copied, by the
    /// [`crate::ClassTable`] built from this program.
    pub classes: Vec<Arc<ClassDecl>>,
}

impl Program {
    /// Finds a class by name.
    pub fn class(&self, name: &ClassName) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| &c.name == name).map(|c| &**c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_modes::Mode;

    #[test]
    fn type_display_forms() {
        let neutral = Type::object("Rule", ModeArgs::of_static(StaticMode::Bot));
        assert_eq!(neutral.to_string(), "Rule");

        let site = Type::object(
            "Site",
            ModeArgs::of_static(StaticMode::Const(ModeName::new("managed"))),
        );
        assert_eq!(site.to_string(), "Site@mode<managed>");

        let dynamic = Type::object("Agent", ModeArgs::of_dynamic());
        assert_eq!(dynamic.to_string(), "Agent@mode<?>");

        assert_eq!(Type::MCase(Box::new(Type::INT)).to_string(), "mcase<int>");
        assert_eq!(Type::Array(Box::new(Type::STR)).to_string(), "string[]");
    }

    #[test]
    fn type_omode_and_dynamicness() {
        let dynamic = Type::object("Agent", ModeArgs::of_dynamic());
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
        use ent_modes::{ModeVar, Subst};
        let mut s = Subst::new();
        s.insert(ModeVar::new("X"), StaticMode::Const(ModeName::new("m")));
        let t = Type::Array(Box::new(Type::object(
            "Site",
            ModeArgs::of_static(StaticMode::Var(ModeVar::new("X"))),
        )));
        assert_eq!(t.apply(&s).to_string(), "Site@mode<m>[]");
    }

    #[test]
    fn class_decl_lookup() {
        let decl = ClassDecl {
            name: ClassName::new("C"),
            mode_params: ClassModeParams::neutral(),
            superclass: ClassName::object(),
            super_args: vec![],
            fields: vec![FieldDecl {
                ty: Type::INT,
                name: Ident::new("x"),
                init: None,
                span: Span::DUMMY,
            }],
            methods: vec![],
            attributor: None,
            span: Span::DUMMY,
        };
        assert!(decl.field(&Ident::new("x")).is_some());
        assert!(decl.field(&Ident::new("y")).is_none());
        assert!(decl.method(&Ident::new("m")).is_none());
    }
}
