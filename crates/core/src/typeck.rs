//! The mixed type system of ENT (§4.1 of the paper).
//!
//! The judgment implemented here is `Γ; K ⊢ e : τ`, parameterized by the
//! class table and the program's mode lattice. The ENT-specific rules are:
//!
//! * **T-New** — instantiations must match the class's dynamicness and
//!   entail the declared mode bounds;
//! * **T-Msg** — every message send checks the *static waterfall invariant*
//!   `sfall`: the receiver's mode (or the method's overriding mode) must be
//!   `≤` the sender's mode under `K`; objects with the dynamic mode `?`
//!   cannot be messaged at all;
//! * **T-Snapshot** — `snapshot e [lo, hi]` on a dynamic object produces a
//!   bounded existential, which this checker opens eagerly: a fresh mode
//!   variable with `lo ≤ mt ≤ hi` pushed into `K`;
//! * **T-MCase** / **T-ElimCase** — mode cases must cover every declared
//!   mode and eliminate at a mode constant or an in-scope mode variable.

use ent_modes::{
    Bounded, ConstraintSet, Mode, ModeArgs, ModeTable, ModeVar, Names, StaticMode, Subst,
};
use ent_syntax::{
    Arm, Ast, BinOp, ClassDecl, ClassName, ClassTable, ExprId, ExprKind, Ident, MethodDecl,
    PrimType, Program, Span, Spelling, Stmt, Type, UnOp,
};

use crate::diag::{TypeError, TypeErrorKind};
use crate::subtype::{ancestor_args, is_subtype};

/// What the runtime must enforce at one program point. The typechecker
/// discharges what it can statically; each site it cannot fully decide —
/// the internal/external boundary of the mixed system — is emitted as an
/// explicit obligation instead of implying any particular enforcement
/// strategy. The runtime's `Enforcement` seam decides *how* each kind is
/// discharged: the guarded strategy checks boundaries deeply (snapshot
/// attributor + bounds + lazy copy) and call sites via the dynamic
/// waterfall; the transient strategy performs shallow first-order checks
/// at all three kinds, including field reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObligationKind {
    /// A `snapshot e [lo, hi]` boundary: the attributed mode must land
    /// inside the declared bounds before the dynamic object crosses into
    /// statically-moded code.
    Boundary,
    /// A message send: the receiver-side mode must be at or below the
    /// sender's closure mode (the waterfall invariant, re-checked
    /// dynamically because attributors and opened existentials are
    /// runtime-bound).
    CallSite,
    /// A field read on an object: statically safe under the guarded
    /// strategy (the typechecker forbids reads through dynamic views), a
    /// shallow tag check under the transient strategy.
    FieldRead,
}

impl ObligationKind {
    /// The CLI/telemetry-facing name of this obligation kind.
    pub fn name(self) -> &'static str {
        match self {
            ObligationKind::Boundary => "boundary",
            ObligationKind::CallSite => "call-site",
            ObligationKind::FieldRead => "field-read",
        }
    }
}

/// One enforcement obligation: a program point the runtime must check,
/// with enough provenance (class, member, span) to blame the site. The
/// names carry the program's name table, so an obligation prints without
/// a current table and allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// Which check the runtime owes at this point.
    pub kind: ObligationKind,
    /// The class the checked object belongs to.
    pub class: Spelling,
    /// The member involved: the invoked method, the read field, or
    /// `snapshot` for a boundary.
    pub member: Spelling,
    /// The source location of the check site (for blame).
    pub span: Span,
}

/// Typechecks a whole program against its class table.
///
/// # Errors
///
/// Returns every [`TypeError`] found (checking continues past errors within
/// reason, so a program with several bugs reports several diagnostics).
///
/// # Example
///
/// ```
/// use ent_core::typecheck;
/// use ent_syntax::{parse_program, ClassTable};
///
/// let p = parse_program(
///     "modes { low <= high; }
///      class Main { int main() { return 1 + 2; } }",
/// ).unwrap();
/// let table = ClassTable::new(&p).unwrap();
/// assert!(typecheck(&p, &table).is_ok());
/// ```
pub fn typecheck(program: &Program, table: &ClassTable) -> Result<(), Vec<TypeError>> {
    typecheck_obligations(program, table).map(|_| ())
}

/// Typechecks a whole program and returns the enforcement obligations its
/// internal/external boundaries owe the runtime, in source order.
///
/// # Errors
///
/// Returns every [`TypeError`] found, exactly as [`typecheck`].
pub fn typecheck_obligations(
    program: &Program,
    table: &ClassTable,
) -> Result<Vec<Obligation>, Vec<TypeError>> {
    let mut tc = Typechecker {
        ast: program.ast(),
        names: program.names(),
        table,
        modes: &program.mode_table,
        errors: Vec::new(),
        obligations: Vec::new(),
        fresh: 0,
    };
    // Diagnostics print the program's names.
    program.names().enter(|| {
        for class in program.classes.iter() {
            tc.check_class(class);
        }
    });
    if tc.errors.is_empty() {
        Ok(tc.obligations)
    } else {
        Err(tc.errors)
    }
}

/// The typing context for one method/attributor body.
struct Ctx {
    /// Γ: variable bindings, innermost last.
    vars: Vec<(Ident, Type)>,
    /// K: the constraint set.
    k: ConstraintSet,
    /// Mode variables in scope (class + method + opened existentials).
    mode_vars: Vec<ModeVar>,
    /// The type of `this` (internal view).
    this_ty: Type,
    /// The sender mode used for `sfall` checks.
    sender_mode: StaticMode,
    /// The enclosing class's internal mode (for implicit elimination).
    internal_mode: StaticMode,
    /// Expected return type.
    ret: Type,
    /// The enclosing class (kept for diagnostics).
    #[allow(dead_code)]
    class: ClassName,
}

impl Ctx {
    fn lookup(&self, name: &Ident) -> Option<&Type> {
        self.vars
            .iter()
            .rev()
            .find(|(x, _)| x == name)
            .map(|(_, t)| t)
    }
}

struct Typechecker<'a> {
    /// The tree the checked bodies live in.
    ast: &'a Ast,
    /// The names the program's ids index.
    names: &'a Names,
    table: &'a ClassTable,
    modes: &'a ModeTable,
    errors: Vec<TypeError>,
    obligations: Vec<Obligation>,
    fresh: u32,
}

impl<'a> Typechecker<'a> {
    fn err(&mut self, kind: TypeErrorKind, message: impl Into<String>, span: Span) -> Type {
        self.errors.push(TypeError::new(kind, message, span));
        Type::Error
    }

    fn oblige(&mut self, kind: ObligationKind, class: &ClassName, member: Ident, span: Span) {
        self.obligations.push(Obligation {
            kind,
            class: self.names.spelling(class.symbol()),
            member: self.names.spelling(member.symbol()),
            span,
        });
    }

    fn fresh_var(&mut self) -> ModeVar {
        self.fresh += 1;
        ModeVar::fresh(self.fresh)
    }

    // ---- declarations ------------------------------------------------------

    fn check_class(&mut self, class: &ClassDecl) {
        let internal = internal_mode_of(class);
        let mut base_k = ConstraintSet::new();
        base_k.extend_pairs(class.mode_params.cons());
        let mode_vars = class.mode_params.params();

        let this_ty = internal_this_type(class);

        // Field types and initializers.
        for field in &class.fields {
            let fty = self.wf_type(&mode_vars, &field.ty, field.span, false);
            if let Some(init) = field.init {
                let mut ctx = Ctx {
                    vars: Vec::new(),
                    k: base_k.clone(),
                    mode_vars: mode_vars.clone(),
                    this_ty: this_ty.clone(),
                    sender_mode: internal.clone(),
                    internal_mode: internal.clone(),
                    ret: fty.clone(),
                    class: class.name,
                };
                self.check_expr(&mut ctx, init, &fty);
            }
        }

        // Class-level attributor: `this` is in scope; the attributor is
        // invoked externally (under the snapshotter's mode) but may inspect
        // the object's own state, so it sees the internal view. Its body
        // must produce a mode value.
        if let Some(attributor) = &class.attributor {
            let mut ctx = Ctx {
                vars: Vec::new(),
                k: base_k.clone(),
                mode_vars: mode_vars.clone(),
                this_ty: this_ty.clone(),
                sender_mode: StaticMode::Top,
                internal_mode: internal.clone(),
                ret: Type::ModeValue,
                class: class.name,
            };
            self.check_expr(&mut ctx, attributor.body, &Type::ModeValue);
        }

        for method in &class.methods {
            self.check_method(class, method, &base_k, &mode_vars, &this_ty, &internal);
            self.check_override(class, method);
        }
    }

    fn check_method(
        &mut self,
        class: &ClassDecl,
        method: &MethodDecl,
        base_k: &ConstraintSet,
        class_mode_vars: &[ModeVar],
        this_ty: &Type,
        internal: &StaticMode,
    ) {
        let mut k = base_k.clone();
        let mut mode_vars = class_mode_vars.to_vec();
        for bound in &method.mode_params {
            if mode_vars.contains(&bound.var) {
                self.err(
                    TypeErrorKind::BadDeclaration,
                    format!(
                        "method mode parameter `{}` shadows a class parameter",
                        bound.var
                    ),
                    method.span,
                );
                continue;
            }
            mode_vars.push(bound.var);
            k.extend_pairs(bound.cons());
        }

        // Method-level mode override / attributor determine the sender mode
        // for sfall checks inside the body.
        let sender_mode = if method.attributor.is_some() {
            // A method with an attributor has a dynamic mode determined at
            // run time; the body is checked under the method's internal
            // view of its own mode — the first declared mode parameter
            // (`int f() attributor {...}` may declare `f<X>` to name it,
            // Listing 3's `saveImages`), or a fresh variable otherwise.
            // The internal view is runtime-bound, so it must not leak into
            // the externally-visible signature.
            let var = match method.mode_params.first() {
                Some(b) => {
                    let leaks = method
                        .params
                        .iter()
                        .map(|(t, _)| t)
                        .chain(std::iter::once(&method.ret))
                        .any(|t| type_mentions_var(t, &b.var));
                    if leaks {
                        self.err(
                            TypeErrorKind::BadDeclaration,
                            format!(
                                "the attributor-bound mode `{}` of `{}` cannot appear in its signature (it is only known at run time)",
                                b.var, method.name
                            ),
                            method.span,
                        );
                    }
                    b.var
                }
                None => {
                    let var = ModeVar::sender_mode(method.name.symbol());
                    mode_vars.push(var);
                    k.extend_pairs(Bounded::unconstrained(var).cons());
                    var
                }
            };
            StaticMode::Var(var)
        } else if let Some(mode) = &method.mode {
            self.wf_mode(&mode_vars, mode, method.span);
            mode.clone()
        } else {
            internal.clone()
        };

        // Main.main boots the program under ⊤ (boot(P) = cl(⊤, e)).
        let sender_mode = if class.name == ClassName::MAIN && method.name == Ident::MAIN {
            StaticMode::Top
        } else {
            sender_mode
        };

        let ret = self.wf_type(&mode_vars, &method.ret, method.span, false);
        let mut vars = Vec::new();
        for (ty, name) in &method.params {
            let pty = self.wf_type(&mode_vars, ty, method.span, false);
            vars.push((*name, pty));
        }

        // The method-level attributor body must produce a mode value.
        if let Some(attributor) = &method.attributor {
            let mut ctx = Ctx {
                vars: vars.clone(),
                k: k.clone(),
                mode_vars: mode_vars.clone(),
                this_ty: this_ty.clone(),
                sender_mode: StaticMode::Top,
                internal_mode: internal.clone(),
                ret: Type::ModeValue,
                class: class.name,
            };
            self.check_expr(&mut ctx, attributor.body, &Type::ModeValue);
        }

        let mut ctx = Ctx {
            vars,
            k,
            mode_vars,
            this_ty: this_ty.clone(),
            sender_mode,
            internal_mode: internal.clone(),
            ret: ret.clone(),
            class: class.name,
        };
        self.check_expr(&mut ctx, method.body, &ret);
    }

    /// Overriding methods must preserve the overridden signature (FJ-style
    /// invariant overriding, including the method-level mode).
    fn check_override(&mut self, class: &ClassDecl, method: &MethodDecl) {
        if class.superclass == ClassName::OBJECT {
            return;
        }
        let own_args = internal_args_of(class);
        let Some(sup_args) = ancestor_args(self.table, &class.name, &own_args, &class.superclass)
        else {
            return;
        };
        let Some(sup_method) = self
            .table
            .method(&class.superclass, &sup_args, &method.name)
        else {
            return;
        };
        let own = self
            .table
            .method(&class.name, &own_args, &method.name)
            .expect("method exists on its own class");
        let k = ConstraintSet::new();
        let params_ok = own.params.len() == sup_method.params.len()
            && own
                .params
                .iter()
                .zip(&sup_method.params)
                .all(|(a, b)| type_eq(self.table, self.modes, &k, a, b));
        let ret_ok = type_eq(self.table, self.modes, &k, &own.ret, &sup_method.ret);
        let mode_ok = own.mode == sup_method.mode;
        if !(params_ok && ret_ok && mode_ok) {
            self.err(
                TypeErrorKind::BadDeclaration,
                format!(
                    "method `{}` overrides `{}::{}` with an incompatible signature",
                    method.name, sup_method.owner, method.name
                ),
                method.span,
            );
        }
    }

    // ---- well-formedness ---------------------------------------------------

    fn wf_mode(&mut self, scope: &[ModeVar], mode: &StaticMode, span: Span) {
        if let StaticMode::Var(v) = mode {
            if !scope.contains(v) && !v.is_fresh() {
                self.err(
                    TypeErrorKind::BadModeInstantiation,
                    format!("mode variable `{v}` is not in scope"),
                    span,
                );
            }
        }
    }

    /// Checks a programmer-written type and normalizes it (e.g. a bare
    /// reference to a pinned-mode class becomes that pinned mode). With
    /// `wildcard` set, a bare reference to a moded class is allowed and
    /// returned unchanged for the caller to resolve against a value type.
    fn wf_type(&mut self, scope: &[ModeVar], ty: &Type, span: Span, wildcard: bool) -> Type {
        match ty {
            Type::Prim(_) | Type::ModeValue | Type::Error => ty.clone(),
            Type::Array(t) => Type::Array(Box::new(self.wf_type(scope, t, span, wildcard))),
            Type::MCase(t) => Type::MCase(Box::new(self.wf_type(scope, t, span, false))),
            Type::Exists { .. } => ty.clone(),
            Type::Object { class, args } => {
                if class == &ClassName::OBJECT {
                    return ty.clone();
                }
                let Some(decl) = self.table.class(class) else {
                    return self.err(
                        TypeErrorKind::UnknownClass,
                        format!("unknown class `{class}`"),
                        span,
                    );
                };
                let mp = &decl.mode_params;
                let bare = args.rest.is_empty() && args.mode == Mode::Static(StaticMode::Bot);
                let neutral = !mp.dynamic && mp.bounds.is_empty();
                let pinned =
                    !mp.dynamic && !mp.bounds.is_empty() && mp.bounds.iter().all(|b| b.lo == b.hi);

                if neutral {
                    if !bare {
                        return self.err(
                            TypeErrorKind::BadModeInstantiation,
                            format!("class `{class}` takes no mode arguments"),
                            span,
                        );
                    }
                    return ty.clone();
                }
                if bare {
                    if pinned {
                        // Normalize `W` to `W@mode<pinned...>`.
                        let mode = mp.bounds[0].lo.clone();
                        let rest = mp.bounds[1..].iter().map(|b| b.lo.clone()).collect();
                        return Type::Object {
                            class: *class,
                            args: ModeArgs::new(Mode::Static(mode), rest),
                        };
                    }
                    if wildcard {
                        return ty.clone();
                    }
                    return self.err(
                        TypeErrorKind::BadModeInstantiation,
                        format!("class `{class}` requires a mode annotation here"),
                        span,
                    );
                }
                // Explicit annotation: arity and scope checks.
                if args.rest.len() != mp.extra_arity() {
                    return self.err(
                        TypeErrorKind::BadModeInstantiation,
                        format!(
                            "class `{class}` takes {} extra mode arguments, found {}",
                            mp.extra_arity(),
                            args.rest.len()
                        ),
                        span,
                    );
                }
                if args.mode.is_dynamic() && !mp.dynamic {
                    return self.err(
                        TypeErrorKind::BadModeInstantiation,
                        format!("class `{class}` is not dynamic"),
                        span,
                    );
                }
                if let Mode::Static(m) = &args.mode {
                    self.wf_mode(scope, m, span);
                }
                for m in &args.rest {
                    self.wf_mode(scope, m, span);
                }
                ty.clone()
            }
        }
    }

    // ---- expressions --------------------------------------------------------

    /// Checks `e` against an expected type, applying the two implicit
    /// coercions of the surface language: mcase auto-elimination (a
    /// `mcase<T>` used where `T` is expected) and array-literal element
    /// propagation.
    fn check_expr(&mut self, ctx: &mut Ctx, e: ExprId, expected: &Type) -> Type {
        let ast = self.ast;
        let span = ast[e].span;
        match (&ast[e].kind, expected) {
            (ExprKind::ArrayLit(items), Type::Array(elem)) => {
                for &item in &ast[*items] {
                    self.check_expr(ctx, item, elem);
                }
                expected.clone()
            }
            (ExprKind::MCase { ty: None, arms }, Type::MCase(elem)) => {
                self.check_mcase_arms(ctx, &ast[*arms], elem, span);
                expected.clone()
            }
            // Mode-argument inference at `new`: an uninstantiated creation
            // checked against an object type of the same (non-dynamic)
            // class adopts the expected instantiation, Energy-Types style.
            (
                ExprKind::New {
                    class,
                    args: None,
                    ctor_args,
                },
                Type::Object {
                    class: expected_class,
                    args: expected_args,
                },
            ) if class == expected_class
                && !expected_args.is_dynamic()
                && self.table.class(class).is_some_and(|d| {
                    !d.mode_params.dynamic && !d.mode_params.bounds.is_empty()
                }) =>
            {
                self.infer_new(ctx, class, Some(expected_args), &ast[*ctor_args], span);
                expected.clone()
            }
            (ExprKind::If { cond, then, els }, _) if els.is_some() => {
                self.check_expr(ctx, *cond, &Type::BOOL);
                self.check_expr(ctx, *then, expected);
                if let Some(els) = *els {
                    self.check_expr(ctx, els, expected);
                }
                expected.clone()
            }
            (ExprKind::Block(_), _) => {
                let t = self.infer_block(ctx, e, Some(expected));
                self.coerce(ctx, &t, expected, span);
                expected.clone()
            }
            _ => {
                let t = self.infer(ctx, e);
                self.coerce(ctx, &t, expected, span);
                expected.clone()
            }
        }
    }

    fn coerce(&mut self, ctx: &Ctx, found: &Type, expected: &Type, span: Span) {
        if is_subtype(self.table, self.modes, &ctx.k, found, expected) {
            return;
        }
        // Implicit mcase elimination: mcase<T> where T is expected.
        if let Type::MCase(inner) = found {
            if !matches!(expected, Type::MCase(_))
                && is_subtype(self.table, self.modes, &ctx.k, inner, expected)
            {
                return;
            }
        }
        self.err(
            TypeErrorKind::Mismatch,
            format!("expected `{expected}`, found `{found}`"),
            span,
        );
    }
}

impl<'a> Typechecker<'a> {
    fn infer_expr(&mut self, ctx: &mut Ctx, e: ExprId) -> Type {
        let ast = self.ast;
        let span = ast[e].span;
        match &ast[e].kind {
            ExprKind::Lit(l) => l.ty(),
            ExprKind::ModeConst(_) => Type::ModeValue,
            ExprKind::This => ctx.this_ty.clone(),
            ExprKind::Var(x) => match ctx.lookup(x) {
                Some(t) => t.clone(),
                None => self.err(
                    TypeErrorKind::UnknownMember,
                    format!("unknown variable `{x}`"),
                    span,
                ),
            },
            ExprKind::Field { recv, name } => self.infer_field(ctx, *recv, name, span),
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => self.infer_new(ctx, class, args.map(|a| &ast[a]), &ast[*ctor_args], span),
            ExprKind::Call {
                recv,
                method,
                mode_args,
                args,
            } => self.infer_call(ctx, *recv, method, mode_args, &ast[*args], span),
            ExprKind::Builtin { ns, name, args } => {
                self.infer_builtin(ctx, ns, name, &ast[*args], span)
            }
            ExprKind::Cast { ty, expr } => {
                let target = self.wf_type(&ctx.mode_vars, &ast[*ty], span, false);
                let source = self.infer(ctx, *expr);
                let up = is_subtype(self.table, self.modes, &ctx.k, &source, &target);
                let down = is_subtype(self.table, self.modes, &ctx.k, &target, &source);
                if !up && !down {
                    return self.err(
                        TypeErrorKind::BadCast,
                        format!("cast between unrelated types `{source}` and `{target}`"),
                        span,
                    );
                }
                target
            }
            ExprKind::Snapshot { expr, lo, hi } => self.infer_snapshot(ctx, *expr, lo, hi, span),
            ExprKind::MCase { ty, arms } => {
                let arms = &ast[*arms];
                let elem = match *ty {
                    Some(t) => self.wf_type(&ctx.mode_vars, &ast[t], span, false),
                    None => {
                        let Some(&(_, first)) = arms.first() else {
                            return self.err(TypeErrorKind::BadModeCase, "empty mode case", span);
                        };
                        self.infer(ctx, first)
                    }
                };
                self.check_mcase_arms(ctx, arms, &elem, span);
                Type::MCase(Box::new(elem))
            }
            ExprKind::Elim { expr, mode } => {
                let t = self.infer(ctx, *expr);
                let Type::MCase(inner) = t else {
                    if t == Type::Error {
                        return Type::Error;
                    }
                    return self.err(
                        TypeErrorKind::BadModeCase,
                        format!("`<|` applies to mode cases, found `{t}`"),
                        span,
                    );
                };
                match mode {
                    Some(m) => {
                        self.wf_mode(&ctx.mode_vars, m, span);
                        if let StaticMode::Const(c) = m {
                            if !self.modes.contains(c) {
                                return self.err(
                                    TypeErrorKind::BadModeCase,
                                    format!("`{c}` is not a declared mode"),
                                    span,
                                );
                            }
                        }
                    }
                    None => {
                        if ctx.internal_mode == StaticMode::Bot {
                            return self.err(
                                TypeErrorKind::BadModeCase,
                                "implicit elimination `<| _` requires an enclosing mode-carrying class",
                                span,
                            );
                        }
                    }
                }
                *inner
            }
            ExprKind::Binary { op, lhs, rhs } => self.infer_binary(ctx, *op, *lhs, *rhs, span),
            ExprKind::Unary { op, expr } => {
                let t = self.infer(ctx, *expr);
                match op {
                    UnOp::Not => {
                        self.coerce(ctx, &t, &Type::BOOL, span);
                        Type::BOOL
                    }
                    UnOp::Neg => {
                        if matches!(
                            t,
                            Type::Prim(PrimType::Int) | Type::Prim(PrimType::Double) | Type::Error
                        ) {
                            t
                        } else {
                            self.err(
                                TypeErrorKind::Mismatch,
                                format!("cannot negate `{t}`"),
                                span,
                            )
                        }
                    }
                }
            }
            ExprKind::If { cond, then, els } => {
                self.check_expr(ctx, *cond, &Type::BOOL);
                let t1 = self.infer(ctx, *then);
                match *els {
                    None => Type::UNIT,
                    Some(els) => {
                        let t2 = self.infer(ctx, els);
                        self.join(ctx, &t1, &t2, span)
                    }
                }
            }
            ExprKind::Block(_) => self.infer_block(ctx, e, None),
            ExprKind::Try { body, handler } => {
                let t1 = self.infer(ctx, *body);
                let t2 = self.infer(ctx, *handler);
                self.join(ctx, &t1, &t2, span)
            }
            ExprKind::ArrayLit(items) => {
                let items = &ast[*items];
                if items.is_empty() {
                    return self.err(
                        TypeErrorKind::Mismatch,
                        "cannot infer the element type of an empty array; annotate the binding",
                        span,
                    );
                }
                let mut elem = self.infer(ctx, items[0]);
                for &item in &items[1..] {
                    let t = self.infer(ctx, item);
                    elem = self.join(ctx, &elem, &t, ast[item].span);
                }
                Type::Array(Box::new(elem))
            }
        }
    }

    /// Entry point used throughout: `Γ; K ⊢ e : τ`.
    fn infer(&mut self, ctx: &mut Ctx, e: ExprId) -> Type {
        self.infer_expr(ctx, e)
    }

    fn join(&mut self, ctx: &Ctx, a: &Type, b: &Type, span: Span) -> Type {
        if is_subtype(self.table, self.modes, &ctx.k, a, b) {
            return b.clone();
        }
        if is_subtype(self.table, self.modes, &ctx.k, b, a) {
            return a.clone();
        }
        self.err(
            TypeErrorKind::Mismatch,
            format!("branches have incompatible types `{a}` and `{b}`"),
            span,
        )
    }

    fn infer_block(&mut self, ctx: &mut Ctx, e: ExprId, expected: Option<&Type>) -> Type {
        let ast = self.ast;
        let ExprKind::Block(stmts) = ast[e].kind else {
            unreachable!("infer_block on non-block");
        };
        let stmts = &ast[stmts];
        let scope_depth = ctx.vars.len();
        let mut last_ty = Type::UNIT;
        for (i, stmt) in stmts.iter().enumerate() {
            let is_last = i + 1 == stmts.len();
            match stmt {
                Stmt::Let { ty, name, value } => {
                    let value = *value;
                    let bty = match ty.map(|t| &ast[t]) {
                        Some(ann) => {
                            let norm = self.wf_type(&ctx.mode_vars, ann, ast[value].span, true);
                            // A bare moded-class annotation adopts the
                            // value's type (paper: `Site s = snapshot ...`).
                            if let Type::Object { class, args } = &norm {
                                let bare = args.rest.is_empty()
                                    && args.mode == Mode::Static(StaticMode::Bot);
                                let moded = self
                                    .table
                                    .class(class)
                                    .is_some_and(|d| !d.mode_params.bounds.is_empty());
                                if bare && moded {
                                    let vty = self.infer(ctx, value);
                                    match &vty {
                                        Type::Object { class: vc, .. }
                                            if self.table.is_subclass(vc, class) =>
                                        {
                                            ctx.vars.push((*name, vty));
                                            last_ty = Type::UNIT;
                                            continue;
                                        }
                                        Type::Error => {
                                            ctx.vars.push((*name, Type::Error));
                                            last_ty = Type::UNIT;
                                            continue;
                                        }
                                        _ => {
                                            self.err(
                                                TypeErrorKind::Mismatch,
                                                format!(
                                                    "expected an object of class `{class}`, found `{vty}`"
                                                ),
                                                ast[value].span,
                                            );
                                            ctx.vars.push((*name, Type::Error));
                                            last_ty = Type::UNIT;
                                            continue;
                                        }
                                    }
                                }
                            }
                            self.check_expr(ctx, value, &norm);
                            norm
                        }
                        None => self.infer(ctx, value),
                    };
                    ctx.vars.push((*name, bty));
                    last_ty = Type::UNIT;
                }
                Stmt::Expr(inner) => {
                    last_ty = if is_last {
                        match expected {
                            Some(t) => self.check_expr(ctx, *inner, t),
                            None => self.infer(ctx, *inner),
                        }
                    } else {
                        self.infer(ctx, *inner)
                    };
                }
                Stmt::Return(inner) => {
                    let ret = ctx.ret.clone();
                    self.check_expr(ctx, *inner, &ret);
                    last_ty = ret;
                }
            }
        }
        ctx.vars.truncate(scope_depth);
        last_ty
    }

    fn check_mcase_arms(&mut self, ctx: &mut Ctx, arms: &[Arm], elem: &Type, span: Span) {
        // T-MCase: the arms must cover modes(P), each exactly once.
        let declared = self.modes.modes();
        for m in declared {
            let count = arms.iter().filter(|(am, _)| am == m).count();
            if count == 0 {
                self.err(
                    TypeErrorKind::BadModeCase,
                    format!("mode case is missing an arm for mode `{m}`"),
                    span,
                );
            } else if count > 1 {
                self.err(
                    TypeErrorKind::BadModeCase,
                    format!("mode case has {count} arms for mode `{m}`"),
                    span,
                );
            }
        }
        for &(_, arm) in arms {
            self.check_expr(ctx, arm, elem);
        }
    }

    fn infer_field(&mut self, ctx: &mut Ctx, recv: ExprId, name: &Ident, span: Span) -> Type {
        let rty = self.infer(ctx, recv);
        let Type::Object { class, args } = &rty else {
            if rty == Type::Error {
                return Type::Error;
            }
            return self.err(
                TypeErrorKind::UnknownMember,
                format!("`{rty}` has no fields"),
                span,
            );
        };
        if args.is_dynamic() && !matches!(self.ast[recv].kind, ExprKind::This) {
            return self.err(
                TypeErrorKind::MessagedDynamic,
                format!(
                    "cannot read fields of a dynamic object of class `{class}`; snapshot it first"
                ),
                span,
            );
        }
        match self.table.field(class, args, name) {
            Some(f) => {
                self.oblige(ObligationKind::FieldRead, class, *name, span);
                f.ty
            }
            None => self.err(
                TypeErrorKind::UnknownMember,
                format!("class `{class}` has no field `{name}`"),
                span,
            ),
        }
    }

    fn infer_new(
        &mut self,
        ctx: &mut Ctx,
        class: &ClassName,
        args: Option<&ModeArgs>,
        ctor_args: &[ExprId],
        span: Span,
    ) -> Type {
        let Some(decl) = self.table.class(class) else {
            return self.err(
                TypeErrorKind::UnknownClass,
                format!("unknown class `{class}`"),
                span,
            );
        };
        let mp = decl.mode_params.clone();
        let args = match args {
            Some(a) => a.clone(),
            None => {
                // Defaults: dynamic class → `?`; neutral → ⊥; pinned → its
                // pinned modes; otherwise the instantiation is required.
                if mp.dynamic {
                    if mp.extra_arity() > 0 {
                        return self.err(
                            TypeErrorKind::BadModeInstantiation,
                            format!("class `{class}` has extra mode parameters; instantiate them explicitly"),
                            span,
                        );
                    }
                    ModeArgs::of_dynamic()
                } else if mp.bounds.is_empty() {
                    ModeArgs::of_static(StaticMode::Bot)
                } else if mp.bounds.iter().all(|b| b.lo == b.hi) {
                    ModeArgs::new(
                        Mode::Static(mp.bounds[0].lo.clone()),
                        mp.bounds[1..].iter().map(|b| b.lo.clone()).collect(),
                    )
                } else {
                    return self.err(
                        TypeErrorKind::BadModeInstantiation,
                        format!("class `{class}` requires a mode instantiation"),
                        span,
                    );
                }
            }
        };

        // T-New: ι = ?, ι' iff cmode(∆) = ?.
        if args.is_dynamic() != mp.dynamic {
            return self.err(
                TypeErrorKind::BadModeInstantiation,
                if mp.dynamic {
                    format!("class `{class}` is dynamic; instantiate it with `?`")
                } else {
                    format!("class `{class}` is not dynamic; it cannot be instantiated with `?`")
                },
                span,
            );
        }
        if args.rest.len() != mp.extra_arity() {
            return self.err(
                TypeErrorKind::BadModeInstantiation,
                format!(
                    "class `{class}` takes {} extra mode arguments, found {}",
                    mp.extra_arity(),
                    args.rest.len()
                ),
                span,
            );
        }
        if let Mode::Static(m) = &args.mode {
            self.wf_mode(&ctx.mode_vars, m, span);
        }
        for m in &args.rest {
            self.wf_mode(&ctx.mode_vars, m, span);
        }

        // K ⊨ cons(∆{ι/param(∆)}): the instantiated bounds must be entailed.
        // For a dynamic class the internal parameter stays abstract; its
        // bounds are enforced at snapshot time.
        let subst = self.table.class_subst(class, &args);
        let skip_first = mp.dynamic;
        for (i, bound) in mp.bounds.iter().enumerate() {
            if skip_first && i == 0 {
                continue;
            }
            let inst = StaticMode::Var(bound.var).apply(&subst);
            let lo = bound.lo.apply(&subst);
            let hi = bound.hi.apply(&subst);
            if !ctx.k.entails(self.modes, &lo, &inst) || !ctx.k.entails(self.modes, &inst, &hi) {
                self.err(
                    TypeErrorKind::BadModeInstantiation,
                    format!(
                        "mode argument `{inst}` of class `{class}` does not satisfy the bound `{lo} ≤ {} ≤ {hi}`",
                        bound.var
                    ),
                    span,
                );
            }
        }

        // Constructor arguments, positionally against uninitialized fields.
        let params = self.table.ctor_params(class, &args);
        if params.len() != ctor_args.len() {
            return self.err(
                TypeErrorKind::Arity,
                format!(
                    "class `{class}` takes {} constructor arguments, found {}",
                    params.len(),
                    ctor_args.len()
                ),
                span,
            );
        }
        let internal_var = mp.bounds.first().map(|b| b.var);
        for (param, &arg) in params.iter().zip(ctor_args) {
            if mp.dynamic {
                if let Some(v) = &internal_var {
                    if type_mentions_var(&param.ty, v) {
                        self.err(
                            TypeErrorKind::BadDeclaration,
                            format!(
                                "constructor parameter `{}` of dynamic class `{class}` mentions the hidden internal mode `{v}`",
                                param.name
                            ),
                            span,
                        );
                        continue;
                    }
                }
            }
            self.check_expr(ctx, arg, &param.ty);
        }

        Type::Object {
            class: *class,
            args,
        }
    }

    fn infer_call(
        &mut self,
        ctx: &mut Ctx,
        recv: ExprId,
        method: &Ident,
        mode_args: &[StaticMode],
        args: &[ExprId],
        span: Span,
    ) -> Type {
        let rty = self.infer(ctx, recv);
        let Type::Object { class, args: rargs } = &rty else {
            if rty == Type::Error {
                return Type::Error;
            }
            return self.err(
                TypeErrorKind::UnknownMember,
                format!("`{rty}` has no methods"),
                span,
            );
        };
        // T-Msg premise: the receiver type must not be dynamic. `this` is
        // exempt because it carries the internal (static) view inside
        // method bodies; the dynamic view only appears externally.
        if rargs.is_dynamic() && !matches!(self.ast[recv].kind, ExprKind::This) {
            return self.err(
                TypeErrorKind::MessagedDynamic,
                format!(
                    "cannot invoke `{method}` on a dynamic object of class `{class}`; snapshot it first"
                ),
                span,
            );
        }
        let Some(resolved) = self.table.method(class, rargs, method) else {
            return self.err(
                TypeErrorKind::UnknownMember,
                format!("class `{class}` has no method `{method}`"),
                span,
            );
        };
        // Every send owes the runtime a waterfall re-check: attributed
        // modes and opened existentials are only known dynamically.
        self.oblige(ObligationKind::CallSite, class, *method, span);

        // Generic method-mode instantiation: explicit or inferred by
        // matching declared parameter types against argument types.
        // Methods with attributors bind their mode parameters at run time
        // instead (the internal view never appears in the signature).
        let mut msubst = Subst::new();
        if !resolved.mode_params.is_empty() && !resolved.has_attributor {
            if !mode_args.is_empty() {
                if mode_args.len() != resolved.mode_params.len() {
                    return self.err(
                        TypeErrorKind::Arity,
                        format!(
                            "method `{method}` takes {} mode arguments, found {}",
                            resolved.mode_params.len(),
                            mode_args.len()
                        ),
                        span,
                    );
                }
                for (b, m) in resolved.mode_params.iter().zip(mode_args) {
                    self.wf_mode(&ctx.mode_vars, m, span);
                    msubst.insert(b.var, m.clone());
                }
            } else {
                // Infer from argument types.
                let method_vars: Vec<ModeVar> =
                    resolved.mode_params.iter().map(|b| b.var).collect();
                let arg_tys: Vec<Type> = args.iter().map(|&a| self.infer(ctx, a)).collect();
                for (pty, aty) in resolved.params.iter().zip(&arg_tys) {
                    unify_modes(pty, aty, &method_vars, &mut msubst);
                }
                for v in &method_vars {
                    if msubst.get(v).is_none() {
                        self.err(
                            TypeErrorKind::BadModeInstantiation,
                            format!("cannot infer method mode parameter `{v}` of `{method}`"),
                            span,
                        );
                        msubst.insert(*v, StaticMode::Bot);
                    }
                }
            }
            // Bounds of the instantiation must be entailed.
            for b in &resolved.mode_params {
                let inst = StaticMode::Var(b.var).apply(&msubst);
                let lo = b.lo.apply(&msubst);
                let hi = b.hi.apply(&msubst);
                if !ctx.k.entails(self.modes, &lo, &inst) || !ctx.k.entails(self.modes, &inst, &hi)
                {
                    self.err(
                        TypeErrorKind::BadModeInstantiation,
                        format!(
                            "method mode `{inst}` does not satisfy the bound `{lo} ≤ {} ≤ {hi}` of `{method}`",
                            b.var
                        ),
                        span,
                    );
                }
            }
        } else if !mode_args.is_empty() {
            return self.err(
                TypeErrorKind::Arity,
                format!("method `{method}` takes no mode arguments"),
                span,
            );
        }

        // sfall: the receiver-side mode — the method-level override if
        // present, otherwise the receiver object's mode — must be ≤ the
        // sender's mode. Methods with attributors are dynamically moded and
        // checked at run time instead.
        if !resolved.has_attributor {
            let receiver_mode = match resolved.mode.as_ref().map(|m| m.apply(&msubst)) {
                Some(m) => Some(m),
                None => match rargs.omode() {
                    Mode::Static(m) => Some(m.clone()),
                    Mode::Dynamic => {
                        // Receiver is `this` inside a dynamic class: the
                        // internal view is the class's first parameter.
                        self.table
                            .class(class)
                            .and_then(|d| d.mode_params.bounds.first())
                            .map(|b| StaticMode::Var(b.var))
                    }
                },
            };
            if let Some(m) = receiver_mode {
                if !ctx.k.entails(self.modes, &m, &ctx.sender_mode) {
                    self.err(
                        TypeErrorKind::WaterfallViolation,
                        format!(
                            "receiver mode `{m}` is not known to be at or below sender mode `{}` for call to `{method}`",
                            ctx.sender_mode
                        ),
                        span,
                    );
                }
            }
        }

        if resolved.params.len() != args.len() {
            return self.err(
                TypeErrorKind::Arity,
                format!(
                    "method `{method}` takes {} arguments, found {}",
                    resolved.params.len(),
                    args.len()
                ),
                span,
            );
        }
        for (pty, &arg) in resolved.params.iter().zip(args) {
            let pty = pty.apply(&msubst);
            self.check_expr(ctx, arg, &pty);
        }
        resolved.ret.apply(&msubst)
    }

    fn infer_snapshot(
        &mut self,
        ctx: &mut Ctx,
        expr: ExprId,
        lo: &StaticMode,
        hi: &StaticMode,
        span: Span,
    ) -> Type {
        let t = self.infer(ctx, expr);
        let Type::Object { class, args } = &t else {
            if t == Type::Error {
                return Type::Error;
            }
            return self.err(
                TypeErrorKind::BadSnapshot,
                format!("cannot snapshot a value of type `{t}`"),
                span,
            );
        };
        if !args.is_dynamic() {
            return self.err(
                TypeErrorKind::BadSnapshot,
                format!("`{t}` already has a static mode; only dynamic objects are snapshotted"),
                span,
            );
        }
        self.wf_mode(&ctx.mode_vars, lo, span);
        self.wf_mode(&ctx.mode_vars, hi, span);
        // The boundary itself is the archetypal obligation: the runtime
        // must attribute a mode and prove it lands in [lo, hi].
        self.oblige(ObligationKind::Boundary, class, Ident::SNAPSHOT, span);
        // T-Snapshot: ∃(lo ≤ mt ≤ hi). c⟨mt, ι⟩, opened eagerly with a
        // fresh variable.
        let fresh = self.fresh_var();
        ctx.mode_vars.push(fresh);
        ctx.k.push(lo.clone(), StaticMode::Var(fresh));
        ctx.k.push(StaticMode::Var(fresh), hi.clone());
        Type::Object {
            class: *class,
            args: ModeArgs::new(Mode::Static(StaticMode::Var(fresh)), args.rest.clone()),
        }
    }

    fn infer_binary(
        &mut self,
        ctx: &mut Ctx,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
        span: Span,
    ) -> Type {
        let lt = self.infer(ctx, lhs);
        let lt = self.unwrap_mcase(lt);
        let rt = self.infer(ctx, rhs);
        let rt = self.unwrap_mcase(rt);
        use BinOp::*;
        let num = |t: &Type| matches!(t, Type::Prim(PrimType::Int) | Type::Prim(PrimType::Double));
        match op {
            Add => {
                if lt == Type::STR || rt == Type::STR {
                    // String concatenation accepts any printable operand.
                    return Type::STR;
                }
                if num(&lt) && lt == rt {
                    return lt;
                }
                if lt == Type::Error || rt == Type::Error {
                    return Type::Error;
                }
                self.err(
                    TypeErrorKind::Mismatch,
                    format!("cannot add `{lt}` and `{rt}`"),
                    span,
                )
            }
            Sub | Mul | Div | Rem => {
                if num(&lt) && lt == rt {
                    return lt;
                }
                if lt == Type::Error || rt == Type::Error {
                    return Type::Error;
                }
                self.err(
                    TypeErrorKind::Mismatch,
                    format!("cannot apply `{op}` to `{lt}` and `{rt}`"),
                    span,
                )
            }
            Lt | Le | Gt | Ge => {
                if num(&lt) && lt == rt {
                    return Type::BOOL;
                }
                if lt == Type::Error || rt == Type::Error {
                    return Type::BOOL;
                }
                self.err(
                    TypeErrorKind::Mismatch,
                    format!("cannot compare `{lt}` and `{rt}`"),
                    span,
                );
                Type::BOOL
            }
            Eq | Ne => {
                let comparable = lt == rt && matches!(lt, Type::Prim(_) | Type::ModeValue);
                if !comparable && lt != Type::Error && rt != Type::Error {
                    self.err(
                        TypeErrorKind::Mismatch,
                        format!("cannot test equality of `{lt}` and `{rt}`"),
                        span,
                    );
                }
                Type::BOOL
            }
            And | Or => {
                self.coerce(ctx, &lt, &Type::BOOL, self.ast[lhs].span);
                self.coerce(ctx, &rt, &Type::BOOL, self.ast[rhs].span);
                Type::BOOL
            }
        }
    }

    /// Implicit mcase elimination for operand positions.
    fn unwrap_mcase(&self, t: Type) -> Type {
        match t {
            Type::MCase(inner) => *inner,
            other => other,
        }
    }

    fn infer_builtin(
        &mut self,
        ctx: &mut Ctx,
        ns: &Ident,
        name: &Ident,
        args: &[ExprId],
        span: Span,
    ) -> Type {
        let arg_tys: Vec<Type> = args
            .iter()
            .map(|&a| {
                let t = self.infer(ctx, a);
                self.unwrap_mcase(t)
            })
            .collect();
        let check = |tc: &mut Self, expected: &[Type], ret: Type| -> Type {
            if expected.len() != arg_tys.len() {
                return tc.err(
                    TypeErrorKind::Arity,
                    format!(
                        "builtin `{ns}.{name}` takes {} arguments, found {}",
                        expected.len(),
                        arg_tys.len()
                    ),
                    span,
                );
            }
            for (e, f) in expected.iter().zip(&arg_tys) {
                if f != e && *f != Type::Error {
                    return tc.err(
                        TypeErrorKind::Mismatch,
                        format!("builtin `{ns}.{name}` expected `{e}`, found `{f}`"),
                        span,
                    );
                }
            }
            ret
        };
        match (self.names.get(ns.symbol()), self.names.get(name.symbol())) {
            ("Ext", "battery") => check(self, &[], Type::DOUBLE),
            ("Ext", "temperature") => check(self, &[], Type::DOUBLE),
            ("Ext", "timeMs") => check(self, &[], Type::DOUBLE),
            ("Sim", "work") => check(self, &[Type::STR, Type::DOUBLE], Type::UNIT),
            ("Sim", "sleepMs") => check(self, &[Type::INT], Type::UNIT),
            ("Sim", "rand") => check(self, &[], Type::DOUBLE),
            ("IO", "print") => check(self, &[Type::STR], Type::UNIT),
            ("Str", "len") => check(self, &[Type::STR], Type::INT),
            ("Str", "ofInt") => check(self, &[Type::INT], Type::STR),
            ("Str", "ofDouble") => check(self, &[Type::DOUBLE], Type::STR),
            ("Str", "sub") => check(self, &[Type::STR, Type::INT, Type::INT], Type::STR),
            ("Math", "floor") => check(self, &[Type::DOUBLE], Type::INT),
            ("Math", "toDouble") => check(self, &[Type::INT], Type::DOUBLE),
            ("Math", "min") => check(self, &[Type::INT, Type::INT], Type::INT),
            ("Math", "max") => check(self, &[Type::INT, Type::INT], Type::INT),
            ("Math", "fmin") => check(self, &[Type::DOUBLE, Type::DOUBLE], Type::DOUBLE),
            ("Math", "fmax") => check(self, &[Type::DOUBLE, Type::DOUBLE], Type::DOUBLE),
            ("Math", "abs") => check(self, &[Type::INT], Type::INT),
            ("Math", "sqrt") => check(self, &[Type::DOUBLE], Type::DOUBLE),
            ("Math", "pow") => check(self, &[Type::DOUBLE, Type::DOUBLE], Type::DOUBLE),
            ("Arr", "range") => check(
                self,
                &[Type::INT, Type::INT],
                Type::Array(Box::new(Type::INT)),
            ),
            ("Arr", "len") => match arg_tys.as_slice() {
                [Type::Array(_)] => Type::INT,
                [Type::Error] => Type::INT,
                _ => self.err(
                    TypeErrorKind::Mismatch,
                    "Arr.len takes one array argument",
                    span,
                ),
            },
            ("Arr", "get") => match arg_tys.as_slice() {
                [Type::Array(elem), Type::Prim(PrimType::Int)] => (**elem).clone(),
                [Type::Error, _] => Type::Error,
                _ => self.err(
                    TypeErrorKind::Mismatch,
                    "Arr.get takes an array and an int index",
                    span,
                ),
            },
            ("Arr", "sub") => match arg_tys.as_slice() {
                [Type::Array(_), Type::Prim(PrimType::Int), Type::Prim(PrimType::Int)] => {
                    arg_tys[0].clone()
                }
                _ => self.err(
                    TypeErrorKind::Mismatch,
                    "Arr.sub takes an array and two int bounds",
                    span,
                ),
            },
            ("Arr", "concat") => match arg_tys.as_slice() {
                [Type::Array(a), Type::Array(b)] => {
                    let elem = self.join(ctx, a, b, span);
                    Type::Array(Box::new(elem))
                }
                _ => self.err(TypeErrorKind::Mismatch, "Arr.concat takes two arrays", span),
            },
            ("Arr", "push") => match arg_tys.as_slice() {
                [Type::Array(elem), item] => {
                    let joined = self.join(ctx, elem, item, span);
                    Type::Array(Box::new(joined))
                }
                _ => self.err(
                    TypeErrorKind::Mismatch,
                    "Arr.push takes an array and an element",
                    span,
                ),
            },
            ("Arr", "make") => match arg_tys.as_slice() {
                [Type::Prim(PrimType::Int), elem] => Type::Array(Box::new(elem.clone())),
                _ => self.err(
                    TypeErrorKind::Mismatch,
                    "Arr.make takes a length and an initial element",
                    span,
                ),
            },
            _ => self.err(
                TypeErrorKind::UnknownMember,
                format!("unknown builtin `{ns}.{name}`"),
                span,
            ),
        }
    }
}

/// The internal mode of a class body: its first mode parameter, or `⊥` for
/// neutral classes.
pub(crate) fn internal_mode_of(class: &ClassDecl) -> StaticMode {
    match class.mode_params.bounds.first() {
        Some(b) => StaticMode::Var(b.var),
        None => StaticMode::Bot,
    }
}

/// The internal (in-body) mode arguments for `this`: the class's own
/// parameters as variables.
pub(crate) fn internal_args_of(class: &ClassDecl) -> ModeArgs {
    let mut params = class.mode_params.params().into_iter();
    let mode = match params.next() {
        Some(v) => Mode::Static(StaticMode::Var(v)),
        None => Mode::Static(StaticMode::Bot),
    };
    ModeArgs::new(mode, params.map(StaticMode::Var).collect())
}

fn internal_this_type(class: &ClassDecl) -> Type {
    Type::Object {
        class: class.name,
        args: internal_args_of(class),
    }
}

fn type_eq(table: &ClassTable, modes: &ModeTable, k: &ConstraintSet, a: &Type, b: &Type) -> bool {
    is_subtype(table, modes, k, a, b) && is_subtype(table, modes, k, b, a)
}

fn type_mentions_var(ty: &Type, var: &ModeVar) -> bool {
    match ty {
        Type::Object { args, .. } => {
            let mut vars = Vec::new();
            args.collect_vars(&mut vars);
            vars.contains(var)
        }
        Type::MCase(t) | Type::Array(t) => type_mentions_var(t, var),
        Type::Exists { inner, .. } => type_mentions_var(inner, var),
        Type::Prim(_) | Type::ModeValue | Type::Error => false,
    }
}

/// First-order unification of mode variables: walks `pattern` and `actual`
/// in parallel, binding any `Var(v)` with `v ∈ vars` to the corresponding
/// mode of `actual` (first binding wins, Java-generics style).
fn unify_modes(pattern: &Type, actual: &Type, vars: &[ModeVar], out: &mut Subst) {
    match (pattern, actual) {
        (Type::Object { args: pa, .. }, Type::Object { args: aa, .. }) => {
            if let (Mode::Static(pm), Mode::Static(am)) = (&pa.mode, &aa.mode) {
                bind_mode(pm, am, vars, out);
            }
            for (p, a) in pa.rest.iter().zip(&aa.rest) {
                bind_mode(p, a, vars, out);
            }
        }
        (Type::MCase(p), Type::MCase(a)) => unify_modes(p, a, vars, out),
        (Type::Array(p), Type::Array(a)) => unify_modes(p, a, vars, out),
        _ => {}
    }
}

fn bind_mode(pattern: &StaticMode, actual: &StaticMode, vars: &[ModeVar], out: &mut Subst) {
    if let StaticMode::Var(v) = pattern {
        if vars.contains(v) && out.get(v).is_none() {
            out.insert(*v, actual.clone());
        }
    }
}
