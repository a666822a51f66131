//! The formal core of ENT: Figure 2's runtime syntax and Figure 5's
//! small-step reduction rules, implemented as a substitution-based
//! reference machine.
//!
//! The production interpreter ([`crate::run`]) is environment/heap-based
//! and extended with primitives, blocks, and builtins; this module is the
//! *paper-faithful* core — Featherweight Java plus ENT's `snapshot`,
//! `check`, closures `cl(m, e)`, mode cases, and elimination — used to
//! validate the implementation:
//!
//! * each reduction rule of Figure 5 is unit-tested in isolation;
//! * the waterfall-preservation corollary is checked on every step of
//!   every reduction sequence (`Machine::run` verifies `dfall` before
//!   applying the messaging rule and records violations);
//! * programs in the overlapping FJ subset are lowered from the surface
//!   AST and must produce structurally identical results under both
//!   semantics (see `lower` and the equivalence tests).

use std::fmt;
use std::sync::Arc;

use ent_modes::{ClassModeParams, ModeName, ModeTable, StaticMode, Subst};

/// A class, field, method or variable name of the formal core: its
/// spelling. The machine is an oracle kept apart from the compiler, so
/// its terms carry text, not ids into a compile's name table; [`lower`]
/// spells a program's names out.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(Arc<str>);

/// A class name of the formal core.
pub type ClassName = Name;

/// A field, method or variable name of the formal core.
pub type Ident = Name;

impl Name {
    /// The name spelled `name`.
    pub fn new(name: impl AsRef<str>) -> Self {
        Name(Arc::from(name.as_ref()))
    }

    /// The root of the class hierarchy.
    pub fn object() -> Self {
        Name::new("Object")
    }

    /// Whether this is the root class `Object`.
    pub fn is_object(&self) -> bool {
        &*self.0 == "Object"
    }

    /// The spelling.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self.0)
    }
}

/// A runtime mode tag: dynamic objects are untagged.
#[derive(Clone, Debug, PartialEq)]
pub enum FMode {
    /// The dynamic mode `?`.
    Dynamic,
    /// A ground static mode.
    Ground(StaticMode),
}

impl fmt::Display for FMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FMode::Dynamic => f.write_str("?"),
            FMode::Ground(m) => write!(f, "{m}"),
        }
    }
}

/// An object value `obj(α, c⟨µ, ι⟩, v̄)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjVal {
    /// The unique ID `α`.
    pub id: u64,
    /// The class `c`.
    pub class: ClassName,
    /// The object's mode `µ`.
    pub mode: FMode,
    /// Ground instantiations of any extra mode parameters.
    pub extra: Vec<StaticMode>,
    /// Field values `v̄` (these are always [`Term`] values).
    pub fields: Vec<Term>,
}

/// A term of the runtime language: Figure 2's expressions plus Figure 5's
/// runtime forms (`obj`, `cl`, `check`).
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A variable `x` (including `this`, substituted away at calls).
    Var(Ident),
    /// An object value.
    Obj(ObjVal),
    /// A mode name used as a value (the result of an attributor).
    ModeV(ModeName),
    /// A fully evaluated mode case `mcase{m̄ : v̄}`.
    MCaseV(Vec<(ModeName, Term)>),
    /// Field access `e.fd`.
    Field(Box<Term>, Ident),
    /// Object creation `new c⟨ι⟩(ē)` — `mode` is the object's mode
    /// (dynamic for dynamic classes), `extra` the remaining instantiation.
    New {
        /// The class.
        class: ClassName,
        /// The object's own mode (possibly a variable before mode
        /// substitution).
        mode: FMode,
        /// Extra mode arguments.
        extra: Vec<StaticMode>,
        /// Constructor arguments.
        args: Vec<Term>,
    },
    /// Message send `e.md(ē)`.
    Call(Box<Term>, Ident, Vec<Term>),
    /// A cast `(c)e` (mode-erased: the formal bad-cast check is nominal).
    Cast(ClassName, Box<Term>),
    /// `snapshot e [η, η]` with ground bounds.
    Snapshot(Box<Term>, StaticMode, StaticMode),
    /// An unevaluated mode case `mcase{m̄ : ē}`.
    MCase(Vec<(ModeName, Term)>),
    /// Elimination `e ◃ η`.
    Elim(Box<Term>, StaticMode),
    /// `let x = e in e` — the standard FJ-with-let extension, used by the
    /// lowering of surface blocks.
    Let(Ident, Box<Term>, Box<Term>),
    /// A closure `cl(m, e)`: `e` executes under mode `m`.
    Cl(StaticMode, Box<Term>),
    /// `check(e, m₁, m₂, o)`: the attributor body `e` is evaluated; its
    /// mode is then checked against the bounds before the copy is made.
    Check {
        /// The attributor body being evaluated.
        body: Box<Term>,
        /// Lower bound.
        lo: StaticMode,
        /// Upper bound.
        hi: StaticMode,
        /// The snapshotted object.
        obj: ObjVal,
    },
}

impl Term {
    /// Is the term a value (`v ::= o | m | mcase{m̄:v̄}`)?
    pub fn is_value(&self) -> bool {
        match self {
            Term::Obj(_) | Term::ModeV(_) => true,
            Term::MCaseV(arms) => arms.iter().all(|(_, v)| v.is_value()),
            _ => false,
        }
    }

    /// Capture-free value substitution `e{v/x}` (values are closed, so
    /// capture cannot occur).
    pub fn subst(&self, var: &Ident, value: &Term) -> Term {
        match self {
            Term::Var(x) if x == var => value.clone(),
            Term::Var(_) | Term::Obj(_) | Term::ModeV(_) => self.clone(),
            Term::MCaseV(arms) => Term::MCaseV(
                arms.iter()
                    .map(|(m, t)| (m.clone(), t.subst(var, value)))
                    .collect(),
            ),
            Term::Field(e, f) => Term::Field(Box::new(e.subst(var, value)), f.clone()),
            Term::New {
                class,
                mode,
                extra,
                args,
            } => Term::New {
                class: class.clone(),
                mode: mode.clone(),
                extra: extra.clone(),
                args: args.iter().map(|a| a.subst(var, value)).collect(),
            },
            Term::Call(recv, md, args) => Term::Call(
                Box::new(recv.subst(var, value)),
                md.clone(),
                args.iter().map(|a| a.subst(var, value)).collect(),
            ),
            Term::Cast(c, e) => Term::Cast(c.clone(), Box::new(e.subst(var, value))),
            Term::Snapshot(e, lo, hi) => {
                Term::Snapshot(Box::new(e.subst(var, value)), lo.clone(), hi.clone())
            }
            Term::MCase(arms) => Term::MCase(
                arms.iter()
                    .map(|(m, t)| (m.clone(), t.subst(var, value)))
                    .collect(),
            ),
            Term::Elim(e, m) => Term::Elim(Box::new(e.subst(var, value)), m.clone()),
            Term::Let(x, rhs, body) => {
                let rhs = rhs.subst(var, value);
                // Shadowing: an inner binding of the same name hides `var`.
                let body = if x == var {
                    body.as_ref().clone()
                } else {
                    body.subst(var, value)
                };
                Term::Let(x.clone(), Box::new(rhs), Box::new(body))
            }
            Term::Cl(m, e) => Term::Cl(m.clone(), Box::new(e.subst(var, value))),
            Term::Check { body, lo, hi, obj } => Term::Check {
                body: Box::new(body.subst(var, value)),
                lo: lo.clone(),
                hi: hi.clone(),
                obj: obj.clone(),
            },
        }
    }

    /// Point-wise mode-variable substitution (instantiating a class's
    /// generic modes when a method body is fetched).
    pub fn subst_modes(&self, subst: &Subst) -> Term {
        let fix = |m: &StaticMode| m.apply(subst);
        match self {
            Term::Var(_) | Term::Obj(_) | Term::ModeV(_) => self.clone(),
            Term::MCaseV(arms) => Term::MCaseV(
                arms.iter()
                    .map(|(m, t)| (m.clone(), t.subst_modes(subst)))
                    .collect(),
            ),
            Term::Field(e, f) => Term::Field(Box::new(e.subst_modes(subst)), f.clone()),
            Term::New {
                class,
                mode,
                extra,
                args,
            } => Term::New {
                class: class.clone(),
                mode: match mode {
                    FMode::Dynamic => FMode::Dynamic,
                    FMode::Ground(m) => FMode::Ground(fix(m)),
                },
                extra: extra.iter().map(fix).collect(),
                args: args.iter().map(|a| a.subst_modes(subst)).collect(),
            },
            Term::Call(recv, md, args) => Term::Call(
                Box::new(recv.subst_modes(subst)),
                md.clone(),
                args.iter().map(|a| a.subst_modes(subst)).collect(),
            ),
            Term::Cast(c, e) => Term::Cast(c.clone(), Box::new(e.subst_modes(subst))),
            Term::Snapshot(e, lo, hi) => {
                Term::Snapshot(Box::new(e.subst_modes(subst)), fix(lo), fix(hi))
            }
            Term::MCase(arms) => Term::MCase(
                arms.iter()
                    .map(|(m, t)| (m.clone(), t.subst_modes(subst)))
                    .collect(),
            ),
            Term::Elim(e, m) => Term::Elim(Box::new(e.subst_modes(subst)), fix(m)),
            Term::Let(x, rhs, body) => Term::Let(
                x.clone(),
                Box::new(rhs.subst_modes(subst)),
                Box::new(body.subst_modes(subst)),
            ),
            Term::Cl(m, e) => Term::Cl(fix(m), Box::new(e.subst_modes(subst))),
            Term::Check { body, lo, hi, obj } => Term::Check {
                body: Box::new(body.subst_modes(subst)),
                lo: fix(lo),
                hi: fix(hi),
                obj: obj.clone(),
            },
        }
    }
}

/// A method of the formal core: parameter names and a body term.
#[derive(Clone, Debug)]
pub struct FMethod {
    /// The method name.
    pub name: Ident,
    /// Parameter names `x̄`.
    pub params: Vec<Ident>,
    /// The body `e` (mentioning `this` and the parameters).
    pub body: Term,
}

/// A class of the formal core.
#[derive(Clone, Debug)]
pub struct FClass {
    /// The class name.
    pub name: ClassName,
    /// The mode parameter list `∆`.
    pub mode_params: ClassModeParams,
    /// The superclass (`Object` terminates the chain).
    pub superclass: ClassName,
    /// Superclass instantiation (over this class's mode variables).
    pub super_args: Vec<StaticMode>,
    /// Field names, this class's own only (constructor order appends them
    /// after inherited fields).
    pub fields: Vec<Ident>,
    /// Methods.
    pub methods: Vec<FMethod>,
    /// The attributor body (required for dynamic classes).
    pub attributor: Option<Term>,
}

/// A program of the formal core: `P = D C̄`.
#[derive(Clone, Debug)]
pub struct FProgram {
    /// The mode declaration `D`.
    pub modes: ModeTable,
    /// The classes.
    pub classes: Vec<FClass>,
}

impl FProgram {
    /// Looks up a class.
    pub fn class(&self, name: &ClassName) -> Option<&FClass> {
        self.classes.iter().find(|c| &c.name == name)
    }

    /// The paper's `fields(T)`: field names through the chain, inherited
    /// first.
    pub fn fields(&self, class: &ClassName) -> Vec<Ident> {
        let mut chain = Vec::new();
        let mut cur = class.clone();
        while !cur.is_object() {
            let Some(decl) = self.class(&cur) else { break };
            chain.push(decl);
            cur = decl.superclass.clone();
        }
        chain.reverse();
        chain
            .into_iter()
            .flat_map(|c| c.fields.iter().cloned())
            .collect()
    }

    /// The paper's `mbody`: walks the chain, accumulating the mode
    /// substitution through superclass instantiations.
    pub fn mbody(
        &self,
        class: &ClassName,
        method: &Ident,
        subst: Subst,
    ) -> Option<(FMethod, Subst)> {
        let decl = self.class(class)?;
        if let Some(m) = decl.methods.iter().find(|m| &m.name == method) {
            return Some((m.clone(), subst));
        }
        if decl.superclass.is_object() {
            return None;
        }
        let sup = self.class(&decl.superclass)?;
        let sup_params = sup.mode_params.params();
        let args: Vec<StaticMode> = decl.super_args.iter().map(|m| m.apply(&subst)).collect();
        self.mbody(&decl.superclass, method, Subst::bind(&sup_params, &args))
    }
}

/// An error that stops the formal machine.
#[derive(Clone, Debug, PartialEq)]
pub enum FormalError {
    /// A *bad check*: the snapshot's attributor produced a mode outside
    /// the declared bounds (Definition 4).
    BadCheck(String),
    /// A *bad cast* (Definition 3).
    BadCast(String),
    /// The dynamic waterfall invariant failed at a messaging redex —
    /// impossible for well-typed programs (Corollary 1).
    DfallViolation(String),
    /// A genuinely stuck term: the soundness theorem says this never
    /// happens for well-typed programs.
    Stuck(String),
    /// Fuel exhausted (the stand-in for divergence).
    OutOfFuel,
}

impl fmt::Display for FormalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormalError::BadCheck(s) => write!(f, "bad check: {s}"),
            FormalError::BadCast(s) => write!(f, "bad cast: {s}"),
            FormalError::DfallViolation(s) => write!(f, "dfall violation: {s}"),
            FormalError::Stuck(s) => write!(f, "stuck: {s}"),
            FormalError::OutOfFuel => f.write_str("out of fuel"),
        }
    }
}

/// The small-step machine for Figure 5.
pub struct Machine<'a> {
    program: &'a FProgram,
    next_id: u64,
    /// Lazy-copy metadata mirroring the production runtime is *not*
    /// modeled: the formal rule always produces a fresh `obj(α', …)`.
    steps: u64,
}

impl<'a> Machine<'a> {
    /// Creates a machine for a program.
    pub fn new(program: &'a FProgram) -> Self {
        Machine {
            program,
            next_id: 0,
            steps: 0,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn fresh(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn le(&self, a: &StaticMode, b: &StaticMode) -> bool {
        self.program.modes.le_ground(a, b)
    }

    /// `boot(P) = cl(⊤, e)` where `e = mbody(main, Main⟨⊤⟩)` applied to a
    /// fresh `Main` object.
    pub fn boot(&mut self) -> Result<Term, FormalError> {
        let main = ClassName::new("Main");
        let Some((method, subst)) = self.program.mbody(&main, &Ident::new("main"), Subst::new())
        else {
            return Err(FormalError::Stuck("no Main.main".into()));
        };
        let this = Term::Obj(ObjVal {
            id: self.fresh(),
            class: main,
            mode: FMode::Ground(StaticMode::Top),
            extra: Vec::new(),
            fields: Vec::new(),
        });
        let body = method
            .body
            .subst_modes(&subst)
            .subst(&Ident::new("this"), &this);
        Ok(Term::Cl(StaticMode::Top, Box::new(body)))
    }

    /// Runs a term to a value under mode `m`, with a fuel bound.
    pub fn run(
        &mut self,
        mut term: Term,
        mode: &StaticMode,
        fuel: u64,
    ) -> Result<Term, FormalError> {
        for _ in 0..fuel {
            if term.is_value() {
                return Ok(term);
            }
            term = self.step(term, mode)?;
            self.steps += 1;
        }
        if term.is_value() {
            Ok(term)
        } else {
            Err(FormalError::OutOfFuel)
        }
    }

    /// One reduction step `e =m⇒ e'` (Figure 5 plus the standard
    /// congruence rules, left-to-right call-by-value).
    pub fn step(&mut self, term: Term, mode: &StaticMode) -> Result<Term, FormalError> {
        match term {
            v if v.is_value() => Ok(v),

            // Congruence into closures: the body steps under the closure's
            // own mode; a finished closure collapses to its value. A body
            // that is itself a closure replaces the outer one (the inner
            // mode governs until it finishes and the value would collapse
            // both anyway) — this tail-call collapse keeps the term from
            // growing without bound under recursion.
            Term::Cl(m, body) => {
                if body.is_value() || matches!(body.as_ref(), Term::Cl(_, _)) {
                    Ok(*body)
                } else {
                    let stepped = self.step(*body, &m)?;
                    Ok(Term::Cl(m, Box::new(stepped)))
                }
            }

            Term::Field(recv, fd) => {
                if let Term::Obj(o) = recv.as_ref() {
                    let names = self.program.fields(&o.class);
                    match names.iter().position(|n| n == &fd) {
                        Some(i) => Ok(o.fields[i].clone()),
                        None => Err(FormalError::Stuck(format!(
                            "class `{}` has no field `{fd}`",
                            o.class
                        ))),
                    }
                } else {
                    let stepped = self.step(*recv, mode)?;
                    Ok(Term::Field(Box::new(stepped), fd))
                }
            }

            Term::New {
                class,
                mode: omode,
                extra,
                args,
            } => {
                // Evaluate constructor arguments left to right.
                if let Some(i) = args.iter().position(|a| !a.is_value()) {
                    let mut args = args;
                    let stepped = self.step(args[i].clone(), mode)?;
                    args[i] = stepped;
                    return Ok(Term::New {
                        class,
                        mode: omode,
                        extra,
                        args,
                    });
                }
                let expected = self.program.fields(&class).len();
                if args.len() != expected {
                    return Err(FormalError::Stuck(format!(
                        "new `{class}`: {} arguments for {expected} fields",
                        args.len()
                    )));
                }
                Ok(Term::Obj(ObjVal {
                    id: self.fresh(),
                    class,
                    mode: omode,
                    extra,
                    fields: args,
                }))
            }

            // The messaging rule:
            //   o.md(v̄) =m⇒ cl(µ, e{v̄/x̄}{o/this})   if dfall(o, m)
            Term::Call(recv, md, args) => {
                if !recv.is_value() {
                    let stepped = self.step(*recv, mode)?;
                    return Ok(Term::Call(Box::new(stepped), md, args));
                }
                if let Some(i) = args.iter().position(|a| !a.is_value()) {
                    let mut args = args;
                    let stepped = self.step(args[i].clone(), mode)?;
                    args[i] = stepped;
                    return Ok(Term::Call(recv, md, args));
                }
                let Term::Obj(o) = recv.as_ref() else {
                    return Err(FormalError::Stuck(format!("call `{md}` on a non-object")));
                };
                // dfall(o, m): omode(o) must be ground and ≤ m.
                let receiver_mode = match &o.mode {
                    FMode::Ground(g) => g.clone(),
                    FMode::Dynamic => {
                        return Err(FormalError::DfallViolation(format!(
                            "message `{md}` to a dynamic object of `{}`",
                            o.class
                        )))
                    }
                };
                if !self.le(&receiver_mode, mode) {
                    return Err(FormalError::DfallViolation(format!(
                        "receiver mode `{receiver_mode}` above sender mode `{mode}` for `{md}`"
                    )));
                }
                let class_subst = self.object_subst(o);
                let Some((method, msubst)) = self.program.mbody(&o.class, &md, class_subst) else {
                    return Err(FormalError::Stuck(format!(
                        "class `{}` has no method `{md}`",
                        o.class
                    )));
                };
                if method.params.len() != args.len() {
                    return Err(FormalError::Stuck(format!("arity mismatch at `{md}`")));
                }
                let mut body = method
                    .body
                    .subst_modes(&msubst)
                    .subst(&Ident::new("this"), recv.as_ref());
                for (x, v) in method.params.iter().zip(&args) {
                    body = body.subst(x, v);
                }
                Ok(Term::Cl(receiver_mode, Box::new(body)))
            }

            Term::Cast(target, e) => {
                if let Term::Obj(o) = e.as_ref() {
                    if self.is_subclass(&o.class, &target) {
                        Ok(*e)
                    } else {
                        Err(FormalError::BadCast(format!(
                            "`{}` is not a `{target}`",
                            o.class
                        )))
                    }
                } else {
                    let stepped = self.step(*e, mode)?;
                    Ok(Term::Cast(target, Box::new(stepped)))
                }
            }

            // The snapshot rule:
            //   snapshot o [m₁, m₂] =m⇒ check(abody{o/this}, m₁, m₂, o)
            //     if µ = ?
            Term::Snapshot(e, lo, hi) => {
                if let Term::Obj(o) = e.as_ref() {
                    if o.mode != FMode::Dynamic {
                        return Err(FormalError::Stuck(format!(
                            "snapshot of a non-dynamic object of `{}`",
                            o.class
                        )));
                    }
                    let Some(decl) = self.program.class(&o.class) else {
                        return Err(FormalError::Stuck(format!("unknown class `{}`", o.class)));
                    };
                    let Some(abody) = &decl.attributor else {
                        return Err(FormalError::Stuck(format!(
                            "class `{}` has no attributor",
                            o.class
                        )));
                    };
                    let body = abody
                        .subst_modes(&self.object_subst(o))
                        .subst(&Ident::new("this"), e.as_ref());
                    Ok(Term::Check {
                        body: Box::new(body),
                        lo,
                        hi,
                        obj: o.clone(),
                    })
                } else {
                    let stepped = self.step(*e, mode)?;
                    Ok(Term::Snapshot(Box::new(stepped), lo, hi))
                }
            }

            // The check rule:
            //   check(m', m₁, m₂, o) =m⇒ obj(α', c⟨m', ι⟩, v̄)
            //     if ∅ ⊨ {m₁ ≤ m', m' ≤ m₂}, α' fresh
            Term::Check { body, lo, hi, obj } => {
                if let Term::ModeV(m) = body.as_ref() {
                    let produced = StaticMode::Const(m.clone());
                    if self.le(&lo, &produced) && self.le(&produced, &hi) {
                        Ok(Term::Obj(ObjVal {
                            id: self.fresh(),
                            class: obj.class,
                            mode: FMode::Ground(produced),
                            extra: obj.extra,
                            fields: obj.fields,
                        }))
                    } else {
                        Err(FormalError::BadCheck(format!(
                            "mode `{produced}` outside [{lo}, {hi}] for `{}`",
                            obj.class
                        )))
                    }
                } else if body.is_value() {
                    Err(FormalError::Stuck("attributor produced a non-mode".into()))
                } else {
                    let stepped = self.step(*body, mode)?;
                    Ok(Term::Check {
                        body: Box::new(stepped),
                        lo,
                        hi,
                        obj,
                    })
                }
            }

            Term::MCase(arms) => {
                if let Some(i) = arms.iter().position(|(_, t)| !t.is_value()) {
                    let mut arms = arms;
                    let stepped = self.step(arms[i].1.clone(), mode)?;
                    arms[i].1 = stepped;
                    return Ok(Term::MCase(arms));
                }
                Ok(Term::MCaseV(arms))
            }

            // Elimination: mcase{m̄:v̄} ◃ η → vᵢ with mᵢ = η.
            Term::Elim(e, target) => {
                if let Term::MCaseV(arms) = e.as_ref() {
                    match arms
                        .iter()
                        .find(|(m, _)| StaticMode::Const(m.clone()) == target)
                    {
                        Some((_, v)) => Ok(v.clone()),
                        None => Err(FormalError::Stuck(format!(
                            "no mode case arm for `{target}`"
                        ))),
                    }
                } else {
                    let stepped = self.step(*e, mode)?;
                    Ok(Term::Elim(Box::new(stepped), target))
                }
            }

            // let x = v in e  ⟶  e{v/x}
            Term::Let(x, rhs, body) => {
                if rhs.is_value() {
                    Ok(body.subst(&x, &rhs))
                } else {
                    let stepped = self.step(*rhs, mode)?;
                    Ok(Term::Let(x, Box::new(stepped), body))
                }
            }

            Term::Var(x) => Err(FormalError::Stuck(format!("free variable `{x}`"))),
            other => Err(FormalError::Stuck(format!("no rule for {other:?}"))),
        }
    }

    /// The substitution binding a class's mode parameters to an object's
    /// ground instantiation (the internal view of a dynamic object leaves
    /// its first parameter free until snapshot).
    fn object_subst(&self, o: &ObjVal) -> Subst {
        let Some(decl) = self.program.class(&o.class) else {
            return Subst::new();
        };
        let params = decl.mode_params.params();
        let mut flat = Vec::new();
        if let FMode::Ground(m) = &o.mode {
            flat.push(m.clone());
        } else if let Some(first) = params.first() {
            flat.push(StaticMode::Var(*first));
        }
        flat.extend(o.extra.iter().cloned());
        Subst::bind(&params, &flat)
    }

    fn is_subclass(&self, c: &ClassName, d: &ClassName) -> bool {
        if d.is_object() {
            return true;
        }
        let mut cur = c.clone();
        loop {
            if &cur == d {
                return true;
            }
            match self.program.class(&cur) {
                Some(decl) if !decl.superclass.is_object() => {
                    cur = decl.superclass.clone();
                }
                Some(_) => return false,
                None => return false,
            }
        }
    }
}

/// Erases object identities for structural comparison between the formal
/// machine and the production interpreter.
pub fn canonicalize(term: &Term) -> Term {
    match term {
        Term::Obj(o) => Term::Obj(ObjVal {
            id: 0,
            class: o.class.clone(),
            mode: o.mode.clone(),
            extra: o.extra.clone(),
            fields: o.fields.iter().map(canonicalize).collect(),
        }),
        Term::MCaseV(arms) => Term::MCaseV(
            arms.iter()
                .map(|(m, v)| (m.clone(), canonicalize(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Convenience constructors used by tests and the lowering.
pub mod build {
    use super::*;

    /// A ground mode constant.
    pub fn mc(name: &str) -> StaticMode {
        StaticMode::Const(ModeName::new(name))
    }

    /// A variable reference.
    pub fn var(name: &str) -> Term {
        Term::Var(Ident::new(name))
    }

    /// `this`.
    pub fn this() -> Term {
        Term::Var(Ident::new("this"))
    }

    /// Field access.
    pub fn field(recv: Term, name: &str) -> Term {
        Term::Field(Box::new(recv), Ident::new(name))
    }

    /// Message send.
    pub fn call(recv: Term, method: &str, args: Vec<Term>) -> Term {
        Term::Call(Box::new(recv), Ident::new(method), args)
    }

    /// Static-mode object creation.
    pub fn new_static(class: &str, mode: StaticMode, args: Vec<Term>) -> Term {
        Term::New {
            class: ClassName::new(class),
            mode: FMode::Ground(mode),
            extra: Vec::new(),
            args,
        }
    }

    /// Dynamic object creation.
    pub fn new_dynamic(class: &str, args: Vec<Term>) -> Term {
        Term::New {
            class: ClassName::new(class),
            mode: FMode::Dynamic,
            extra: Vec::new(),
            args,
        }
    }

    /// A snapshot with bounds.
    pub fn snapshot(e: Term, lo: StaticMode, hi: StaticMode) -> Term {
        Term::Snapshot(Box::new(e), lo, hi)
    }

    /// A mode case literal.
    pub fn mcase(arms: Vec<(&str, Term)>) -> Term {
        Term::MCase(
            arms.into_iter()
                .map(|(m, t)| (ModeName::new(m), t))
                .collect(),
        )
    }

    /// Elimination at a ground mode.
    pub fn elim(e: Term, mode: StaticMode) -> Term {
        Term::Elim(Box::new(e), mode)
    }

    /// A mode value.
    pub fn modev(name: &str) -> Term {
        Term::ModeV(ModeName::new(name))
    }

    /// A method.
    pub fn method(name: &str, params: &[&str], body: Term) -> FMethod {
        FMethod {
            name: Ident::new(name),
            params: params.iter().map(|p| Ident::new(*p)).collect(),
            body,
        }
    }
}

/// Lowers the overlapping FJ subset of a surface program into the formal
/// core, for differential testing. Returns `None` when the program uses
/// extensions outside the core (primitives, blocks with `let`, builtins,
/// `try`, method-level modes, field initializers).
pub fn lower(program: &ent_syntax::Program) -> Option<FProgram> {
    use ent_modes::{Names, Symbol};
    use ent_syntax::{Ast, ExprId, ExprKind, Stmt};

    /// The spelling of `name` in `names`.
    fn spell(names: &Names, name: impl Into<Symbol>) -> Name {
        Name::new(names.get(name.into()))
    }

    fn lower_expr(ast: &Ast, names: &Names, e: ExprId) -> Option<Term> {
        let list = |items: ent_syntax::ExprList| {
            ast[items]
                .iter()
                .map(|&a| lower_expr(ast, names, a))
                .collect::<Option<Vec<_>>>()
        };
        Some(match &ast[e].kind {
            ExprKind::Var(x) => Term::Var(spell(names, *x)),
            ExprKind::This => Term::Var(Ident::new("this")),
            ExprKind::ModeConst(m) => Term::ModeV(m.clone()),
            ExprKind::Field { recv, name } => Term::Field(
                Box::new(lower_expr(ast, names, *recv)?),
                spell(names, *name),
            ),
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => {
                let (mode, extra) = match args.map(|a| &ast[a]) {
                    Some(a) if a.is_dynamic() => (FMode::Dynamic, a.rest.clone()),
                    Some(a) => match a.mode.as_static() {
                        Some(m) => (FMode::Ground(m.clone()), a.rest.clone()),
                        None => return None,
                    },
                    None => (FMode::Dynamic, Vec::new()),
                };
                Term::New {
                    class: spell(names, *class),
                    mode,
                    extra,
                    args: list(*ctor_args)?,
                }
            }
            ExprKind::Call {
                recv,
                method,
                mode_args,
                args,
            } if mode_args.is_empty() => Term::Call(
                Box::new(lower_expr(ast, names, *recv)?),
                spell(names, *method),
                list(*args)?,
            ),
            ExprKind::Cast { ty, expr } => {
                let ent_syntax::Type::Object { class, .. } = &ast[*ty] else {
                    return None;
                };
                Term::Cast(
                    spell(names, *class),
                    Box::new(lower_expr(ast, names, *expr)?),
                )
            }
            ExprKind::Snapshot { expr, lo, hi } => Term::Snapshot(
                Box::new(lower_expr(ast, names, *expr)?),
                lo.clone(),
                hi.clone(),
            ),
            ExprKind::MCase { arms, .. } => Term::MCase(
                ast[*arms]
                    .iter()
                    .map(|(m, a)| Some((m.clone(), lower_expr(ast, names, *a)?)))
                    .collect::<Option<Vec<_>>>()?,
            ),
            ExprKind::Elim {
                expr,
                mode: Some(m),
            } => Term::Elim(Box::new(lower_expr(ast, names, *expr)?), m.clone()),
            // Blocks lower to nested lets; the trailing statement is the
            // result.
            ExprKind::Block(stmts) => lower_block(ast, names, &ast[*stmts])?,
            _ => return None,
        })
    }

    fn lower_block(ast: &Ast, names: &Names, stmts: &[Stmt]) -> Option<Term> {
        match stmts {
            [Stmt::Return(inner)] | [Stmt::Expr(inner)] => lower_expr(ast, names, *inner),
            [Stmt::Let { name, value, .. }, rest @ ..] if !rest.is_empty() => Some(Term::Let(
                spell(names, *name),
                Box::new(lower_expr(ast, names, *value)?),
                Box::new(lower_block(ast, names, rest)?),
            )),
            [Stmt::Expr(inner), rest @ ..] if !rest.is_empty() => Some(Term::Let(
                Ident::new("$ignored"),
                Box::new(lower_expr(ast, names, *inner)?),
                Box::new(lower_block(ast, names, rest)?),
            )),
            _ => None,
        }
    }

    let (ast, names) = (program.ast(), program.names());
    let classes = program
        .classes
        .iter()
        .map(|c| {
            if c.fields.iter().any(|f| f.init.is_some()) {
                return None;
            }
            Some(FClass {
                name: spell(names, c.name),
                mode_params: c.mode_params.clone(),
                superclass: spell(names, c.superclass),
                super_args: c.super_args.clone(),
                fields: c.fields.iter().map(|f| spell(names, f.name)).collect(),
                methods: c
                    .methods
                    .iter()
                    .map(|m| {
                        if m.mode.is_some() || m.attributor.is_some() || !m.mode_params.is_empty() {
                            return None;
                        }
                        Some(FMethod {
                            name: spell(names, m.name),
                            params: m.params.iter().map(|&(_, x)| spell(names, x)).collect(),
                            body: lower_expr(ast, names, m.body)?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?,
                attributor: match &c.attributor {
                    Some(a) => Some(lower_expr(ast, names, a.body)?),
                    None => None,
                },
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FProgram {
        modes: program.mode_table.clone(),
        classes,
    })
}

/// Used by the equivalence tests: an object-free rendering of a value for
/// comparison with the production interpreter's [`crate::Value`].
pub fn describe_value(program: &FProgram, term: &Term) -> String {
    match term {
        Term::Obj(o) => {
            let names = program.fields(&o.class);
            let fields: Vec<String> = names
                .iter()
                .zip(&o.fields)
                .map(|(n, v)| format!("{n}={}", describe_value(program, v)))
                .collect();
            format!("{}@{}{{{}}}", o.class, o.mode, fields.join(","))
        }
        Term::ModeV(m) => m.to_string(),
        Term::MCaseV(arms) => {
            let parts: Vec<String> = arms
                .iter()
                .map(|(m, v)| format!("{m}:{}", describe_value(program, v)))
                .collect();
            format!("mcase{{{}}}", parts.join(";"))
        }
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use ent_modes::{ModeVar, Symbol};

    fn two_mode_table() -> ModeTable {
        ModeTable::linear(["low", "high"]).unwrap()
    }

    /// A tiny formal program: a dynamic Probe whose attributor returns a
    /// stored mode value, and a Reader that projects its tag.
    fn probe_program() -> FProgram {
        FProgram {
            modes: two_mode_table(),
            classes: vec![
                FClass {
                    name: ClassName::new("Probe"),
                    mode_params: ClassModeParams::dynamic(vec![ent_modes::Bounded::unconstrained(
                        ModeVar::named(Symbol::from_raw(0)),
                    )]),
                    superclass: ClassName::object(),
                    super_args: vec![],
                    fields: vec![Ident::new("level"), Ident::new("tag")],
                    methods: vec![method(
                        "read",
                        &[],
                        elim(
                            field(this(), "tag"),
                            StaticMode::Var(ModeVar::named(Symbol::from_raw(0))),
                        ),
                    )],
                    attributor: Some(field(this(), "level")),
                },
                FClass {
                    name: ClassName::new("Main"),
                    mode_params: ClassModeParams::neutral(),
                    superclass: ClassName::object(),
                    super_args: vec![],
                    fields: vec![],
                    methods: vec![method(
                        "main",
                        &[],
                        call(
                            snapshot(
                                new_dynamic(
                                    "Probe",
                                    vec![
                                        modev("high"),
                                        mcase(vec![("low", modev("low")), ("high", modev("high"))]),
                                    ],
                                ),
                                StaticMode::Bot,
                                StaticMode::Top,
                            ),
                            "read",
                            vec![],
                        ),
                    )],
                    attributor: None,
                },
            ],
        }
    }

    #[test]
    fn boot_and_run_the_probe_program() {
        let p = probe_program();
        let mut machine = Machine::new(&p);
        let booted = machine.boot().unwrap();
        let v = machine.run(booted, &StaticMode::Top, 1000).unwrap();
        assert_eq!(v, Term::ModeV(ModeName::new("high")));
        assert!(machine.steps() > 3);
    }

    #[test]
    fn snapshot_reduces_to_check_then_fresh_object() {
        let p = probe_program();
        let mut machine = Machine::new(&p);
        let obj = machine
            .run(
                new_dynamic(
                    "Probe",
                    vec![
                        modev("low"),
                        mcase(vec![("low", modev("low")), ("high", modev("high"))]),
                    ],
                ),
                &StaticMode::Top,
                100,
            )
            .unwrap();
        let Term::Obj(original) = &obj else { panic!() };
        assert_eq!(original.mode, FMode::Dynamic);

        let snap = snapshot(obj.clone(), StaticMode::Bot, StaticMode::Top);
        // First step produces a check term.
        let step1 = machine.step(snap, &StaticMode::Top).unwrap();
        assert!(matches!(step1, Term::Check { .. }));
        // Running it yields a *fresh* object with a ground mode.
        let v = machine.run(step1, &StaticMode::Top, 100).unwrap();
        let Term::Obj(copy) = &v else { panic!() };
        assert_eq!(copy.mode, FMode::Ground(mc("low")));
        assert_ne!(copy.id, original.id, "the formal rule always copies");
    }

    #[test]
    fn bad_check_is_detected() {
        let p = probe_program();
        let mut machine = Machine::new(&p);
        let obj = machine
            .run(
                new_dynamic(
                    "Probe",
                    vec![
                        modev("high"),
                        mcase(vec![("low", modev("low")), ("high", modev("high"))]),
                    ],
                ),
                &StaticMode::Top,
                100,
            )
            .unwrap();
        // Bound [⊥, low] but the attributor returns high.
        let snap = snapshot(obj, StaticMode::Bot, mc("low"));
        let err = machine.run(snap, &StaticMode::Top, 100).unwrap_err();
        assert!(matches!(err, FormalError::BadCheck(_)));
    }

    #[test]
    fn dfall_blocks_upward_calls() {
        let p = FProgram {
            modes: two_mode_table(),
            classes: vec![FClass {
                name: ClassName::new("W"),
                mode_params: ClassModeParams::with_bounds(vec![ent_modes::Bounded::unconstrained(
                    ModeVar::named(Symbol::from_raw(0)),
                )]),
                superclass: ClassName::object(),
                super_args: vec![],
                fields: vec![],
                methods: vec![method("id", &[], this())],
                attributor: None,
            }],
        };
        let mut machine = Machine::new(&p);
        let heavy = machine
            .run(new_static("W", mc("high"), vec![]), &StaticMode::Top, 10)
            .unwrap();
        // Calling a high-mode object from a low-mode context violates dfall.
        let err = machine
            .run(call(heavy.clone(), "id", vec![]), &mc("low"), 10)
            .unwrap_err();
        assert!(matches!(err, FormalError::DfallViolation(_)));
        // From ⊤ it is fine.
        let ok = machine
            .run(call(heavy, "id", vec![]), &StaticMode::Top, 10)
            .unwrap();
        assert!(matches!(ok, Term::Obj(_)));
    }

    #[test]
    fn messaging_a_dynamic_object_is_a_dfall_violation() {
        let p = probe_program();
        let mut machine = Machine::new(&p);
        let obj = machine
            .run(
                new_dynamic(
                    "Probe",
                    vec![
                        modev("low"),
                        mcase(vec![("low", modev("low")), ("high", modev("high"))]),
                    ],
                ),
                &StaticMode::Top,
                100,
            )
            .unwrap();
        let err = machine
            .run(call(obj, "read", vec![]), &StaticMode::Top, 100)
            .unwrap_err();
        assert!(matches!(err, FormalError::DfallViolation(_)));
    }

    #[test]
    fn closure_runs_its_body_under_its_own_mode() {
        // cl(low, o_high.id()) must violate dfall even when the outer mode
        // is ⊤.
        let p = FProgram {
            modes: two_mode_table(),
            classes: vec![FClass {
                name: ClassName::new("W"),
                mode_params: ClassModeParams::with_bounds(vec![ent_modes::Bounded::unconstrained(
                    ModeVar::named(Symbol::from_raw(0)),
                )]),
                superclass: ClassName::object(),
                super_args: vec![],
                fields: vec![],
                methods: vec![method("id", &[], this())],
                attributor: None,
            }],
        };
        let mut machine = Machine::new(&p);
        let heavy = machine
            .run(new_static("W", mc("high"), vec![]), &StaticMode::Top, 10)
            .unwrap();
        let cl = Term::Cl(mc("low"), Box::new(call(heavy, "id", vec![])));
        let err = machine.run(cl, &StaticMode::Top, 10).unwrap_err();
        assert!(matches!(err, FormalError::DfallViolation(_)));
    }

    #[test]
    fn cast_rules() {
        let p = FProgram {
            modes: two_mode_table(),
            classes: vec![
                FClass {
                    name: ClassName::new("A"),
                    mode_params: ClassModeParams::neutral(),
                    superclass: ClassName::object(),
                    super_args: vec![],
                    fields: vec![],
                    methods: vec![],
                    attributor: None,
                },
                FClass {
                    name: ClassName::new("B"),
                    mode_params: ClassModeParams::neutral(),
                    superclass: ClassName::new("A"),
                    super_args: vec![],
                    fields: vec![],
                    methods: vec![],
                    attributor: None,
                },
            ],
        };
        let mut machine = Machine::new(&p);
        let b = machine
            .run(
                new_static("B", StaticMode::Bot, vec![]),
                &StaticMode::Top,
                10,
            )
            .unwrap();
        // Upcast succeeds.
        let up = Term::Cast(ClassName::new("A"), Box::new(b.clone()));
        assert!(machine.run(up, &StaticMode::Top, 10).is_ok());
        // Cross-cast fails.
        let a = machine
            .run(
                new_static("A", StaticMode::Bot, vec![]),
                &StaticMode::Top,
                10,
            )
            .unwrap();
        let down = Term::Cast(ClassName::new("B"), Box::new(a));
        assert!(matches!(
            machine.run(down, &StaticMode::Top, 10),
            Err(FormalError::BadCast(_))
        ));
    }

    #[test]
    fn mode_case_elimination_selects_exact_arm() {
        let p = probe_program();
        let mut machine = Machine::new(&p);
        let e = elim(
            mcase(vec![("low", modev("low")), ("high", modev("high"))]),
            mc("high"),
        );
        let v = machine.run(e, &StaticMode::Top, 10).unwrap();
        assert_eq!(v, Term::ModeV(ModeName::new("high")));
    }

    #[test]
    fn canonicalize_erases_identities() {
        let a = Term::Obj(ObjVal {
            id: 3,
            class: ClassName::new("C"),
            mode: FMode::Ground(StaticMode::Top),
            extra: vec![],
            fields: vec![],
        });
        let b = Term::Obj(ObjVal {
            id: 9,
            class: ClassName::new("C"),
            mode: FMode::Ground(StaticMode::Top),
            extra: vec![],
            fields: vec![],
        });
        assert_ne!(a, b);
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn fuel_exhaustion_reports_divergence() {
        let p = FProgram {
            modes: two_mode_table(),
            classes: vec![FClass {
                name: ClassName::new("L"),
                mode_params: ClassModeParams::neutral(),
                superclass: ClassName::object(),
                super_args: vec![],
                fields: vec![],
                methods: vec![method("spin", &[], call(this(), "spin", vec![]))],
                attributor: None,
            }],
        };
        let mut machine = Machine::new(&p);
        let l = machine
            .run(
                new_static("L", StaticMode::Bot, vec![]),
                &StaticMode::Top,
                10,
            )
            .unwrap();
        let err = machine
            .run(call(l, "spin", vec![]), &StaticMode::Top, 200)
            .unwrap_err();
        assert_eq!(err, FormalError::OutOfFuel);
    }
}
