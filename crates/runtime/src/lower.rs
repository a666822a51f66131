//! Lowering: compiles a type-checked [`CompiledProgram`] into an indexed
//! runtime IR the interpreter executes directly.
//!
//! The surface AST names everything by string — variables, fields, methods,
//! mode constants, mode variables — and the original evaluator resolved
//! those names at every step: a reverse scan over `(Ident, Value)` locals
//! per variable read, a field-name position scan per field access, a
//! `(ClassName, Ident)`-keyed hash lookup per send, and a cloned
//! `HashMap<ModeVar, StaticMode>` per call frame. This module performs all
//! of that resolution once, at load time:
//!
//! * Every name is interned to a dense `u32` (see [`ent_syntax::intern`]).
//! * Variables become frame-slot indices ([`LExpr::Var`]); frames hold a
//!   flat `Vec<Value>` scoped by push/truncate.
//! * Field accesses become per-class slot offsets resolved through a
//!   field-id-indexed table ([`ClassLayout::field_slot`]).
//! * Sends index a per-class vtable of pre-resolved [`MethodEntry`]s.
//! * Mode environments become small `Vec<GMode>`s addressed by slot, with
//!   each (class, ancestor) environment projection pre-compiled into an
//!   [`EnvSrc`] map.
//!
//! Lowering is semantics-preserving bit for bit: the interpreter over this
//! IR produces identical [`crate::RunStats`], output, value renderings and
//! energy measurements for fixed seeds (enforced by the golden suite in
//! `tests/formal_equivalence.rs` and the perf harness's fingerprints).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use ent_core::CompiledProgram;
use ent_modes::{Mode, ModeVar, StaticMode};
use ent_syntax::{
    BinOp, ClassName, ClassTable, Expr, ExprKind, Ident, Interner, Lit, MethodDecl, Stmt, Type,
    UnOp,
};

use crate::value::Value;

/// A ground-ish runtime mode: the `Copy` mirror of [`StaticMode`] with
/// interned ids, plus [`GMode::Missing`] — the slot value standing in for
/// "this mode variable has no binding" (the old evaluator's absent hash-map
/// key).
///
/// Public because compact [`crate::EnergyEvent`]s carry modes in this
/// interned form; resolve one back to its display name with
/// [`LoweredProgram::mode_string`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GMode {
    /// `⊥`.
    Bot,
    /// `⊤`.
    Top,
    /// A mode constant, by id in [`LoweredProgram::mode_names`].
    Const(u32),
    /// An unresolved mode variable, by id in [`LoweredProgram::mode_vars`]
    /// (threads through superclass instantiations exactly as the old
    /// evaluator kept `StaticMode::Var` values in its environments).
    Var(u32),
    /// No binding. Reading it through [`LMode::Param`] raises the
    /// "unbound mode variable" error the absent hash-map key used to.
    Missing,
}

/// A static mode expression as it appears in lowered code: either already
/// ground, or a read of a frame mode-environment slot.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LMode {
    /// Resolves to itself.
    Ground(GMode),
    /// Reads `frame.env[slot]`; errors on [`GMode::Missing`] naming `var`.
    Param { slot: u32, var: u32 },
    /// A variable not in scope at lowering time: always errors.
    Unbound(u32),
}

/// A method-level `@mode<η>` override. Unlike [`LMode`], an unbound
/// variable here falls back to the symbolic variable itself (the old
/// evaluator's `unwrap_or_else(|| m.clone())`), it does not error.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LOverride {
    Ground(GMode),
    /// Reads `frame.env[slot]`; [`GMode::Missing`] falls back to
    /// `GMode::Var(var)`.
    Param {
        slot: u32,
        var: u32,
    },
}

/// One slot of a pre-compiled environment projection: how to produce an
/// ancestor-owner's mode-parameter binding from the receiver object's own
/// environment. Compiled once per (class, owner) pair by a symbolic walk of
/// the superclass instantiations.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EnvSrc {
    /// The object's own slot `i`, verbatim (identity projection).
    Copy(u32),
    /// The object's slot `slot` if bound, else the symbolic variable `var`
    /// (the old evaluator's `env.get(v).unwrap_or(Var(v))` threading).
    SlotOrVar { slot: u32, var: u32 },
    /// A value known at lowering time.
    Ground(GMode),
}

/// Default for a generic method-mode parameter left unbound at a call
/// site.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MDefault {
    /// Shadowed name: fall through to an earlier environment slot (the old
    /// evaluator's name-keyed map kept the owner's binding visible).
    FromSlot(u32),
    /// No binding anywhere: reads error as "unbound mode variable".
    Missing,
}

/// A generic method-mode parameter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MParam {
    pub(crate) default: MDefault,
}

/// Per-body compilation state, shared program-wide (every concurrent run
/// over a lowered program sees the same cells, so each tier compiles at
/// most once per program). One cell per compilable body: method bodies,
/// attributors, and field initializers.
#[derive(Debug, Default)]
pub(crate) struct BodyCell {
    /// Lazily compiled bytecode (see [`crate::compile`]).
    code: OnceLock<crate::compile::Code>,
    /// Invocation hit counter driving the bytecode engine's
    /// profile-guided tier-up. Program-wide and racy by design: tier
    /// choice is perf-only and never observable in results.
    hot: AtomicU32,
    /// Lazily compiled threaded-tier code (hot bodies only).
    pub(crate) threaded: OnceLock<crate::interp::threaded::TCode>,
}

impl BodyCell {
    /// The compiled bytecode, if any engine has compiled this body yet.
    #[inline]
    pub(crate) fn code(&self) -> Option<&crate::compile::Code> {
        self.code.get()
    }

    /// The compiled bytecode, compiling it first if needed.
    #[inline]
    pub(crate) fn code_or_compile(
        &self,
        body: &LExpr,
        n_base: u32,
        ic: &crate::compile::IcCounters,
    ) -> &crate::compile::Code {
        self.code
            .get_or_init(|| crate::compile::compile_body(body, n_base, ic))
    }

    /// Records one invocation and returns the new hit count (saturating).
    #[inline]
    pub(crate) fn hot_hit(&self) -> u32 {
        let c = self.hot.load(Ordering::Relaxed);
        if c == u32::MAX {
            return c;
        }
        self.hot.fetch_add(1, Ordering::Relaxed).saturating_add(1)
    }
}

/// A lowered method body, shared by every class that inherits it.
#[derive(Debug)]
pub(crate) struct LMethod {
    /// Declared value-parameter count; the frame's locals are padded or
    /// truncated to exactly this many slots.
    pub(crate) n_params: u32,
    pub(crate) mode_params: Vec<MParam>,
    /// Method-level attributor body, if any.
    pub(crate) attributor: Option<LExpr>,
    /// Method-level `@mode<η>` override, if any.
    pub(crate) mode_override: Option<LOverride>,
    pub(crate) body: LExpr,
    /// Compilation state for `body` (bytecode + threaded tiers).
    pub(crate) body_code: BodyCell,
    /// Compilation state for `attributor`.
    pub(crate) attr_code: BodyCell,
}

/// A vtable entry: the lowered method plus the environment projection from
/// the receiver's class to the method's declaring owner.
#[derive(Clone, Debug)]
pub(crate) struct MethodEntry {
    pub(crate) env_map: Arc<[EnvSrc]>,
    pub(crate) method: Arc<LMethod>,
}

/// A field initializer, evaluated after positional constructor arguments.
#[derive(Debug)]
pub(crate) struct InitJob {
    pub(crate) slot: u32,
    /// Projection onto the declaring class's mode parameters.
    pub(crate) env_map: Arc<[EnvSrc]>,
    pub(crate) body: LExpr,
    /// Compilation state for `body`.
    pub(crate) code: BodyCell,
}

/// The constructor protocol for a class: positional fields in chain order,
/// then initializers in chain order.
#[derive(Debug)]
pub(crate) struct CtorPlan {
    /// `(field slot, field name)`; the name feeds the missing-argument
    /// error message.
    pub(crate) positional: Vec<(u32, Ident)>,
    pub(crate) inits: Vec<InitJob>,
}

/// A lowered class-level attributor.
#[derive(Debug)]
pub(crate) struct ClassAttributor {
    pub(crate) body: LExpr,
    /// Whether the class has an internal mode parameter (slot 0) to bind
    /// to the snapshot-produced mode.
    pub(crate) has_internal: bool,
    /// Compilation state for `body`.
    pub(crate) code: BodyCell,
}

/// Instantiation when `new C(...)` is written without mode arguments.
#[derive(Debug)]
pub(crate) enum DefaultNew {
    /// Dynamic class: untagged, all parameters unbound.
    Dynamic,
    /// Static class: mode `env[0]` (or `⊥` when mode-neutral), parameters
    /// pinned to their declared lower bounds verbatim.
    Fixed { env: Arc<[GMode]> },
}

/// Everything the interpreter needs to know about one class, computed at
/// load time.
#[derive(Debug)]
pub(crate) struct ClassLayout {
    pub(crate) name: ClassName,
    pub(crate) n_mode_params: u32,
    /// Field names in slot order (inherited first), for rendering.
    pub(crate) field_order: Vec<Ident>,
    /// Global field id → slot, `u32::MAX` when the class lacks the field.
    /// Ids interned after this layout was built simply index out of range.
    pub(crate) field_slot: Vec<u32>,
    /// Global method id → resolved entry (most-derived declaration wins).
    pub(crate) vtable: Vec<Option<MethodEntry>>,
    pub(crate) ctor: CtorPlan,
    pub(crate) attributor: Option<ClassAttributor>,
    pub(crate) default_new: DefaultNew,
}

/// How a `new` expression instantiates its class's mode parameters.
#[derive(Clone, Debug)]
pub(crate) enum NewPlan {
    /// `new C@mode<?, …>(…)`: untagged; `rest` binds parameter slots
    /// `1..=rest.len()` (already truncated to the parameter count, matching
    /// the old zip semantics — surplus arguments are never even resolved).
    Dynamic { rest: Vec<LMode> },
    /// `new C@mode<m, …>(…)`: every element is resolved, in order (even
    /// surplus ones — resolution errors must still fire), then zipped onto
    /// the parameter slots; the object's mode is `flat[0]` (or `⊥`).
    Static { flat: Vec<LMode> },
    /// No mode arguments: use the class's [`DefaultNew`].
    Default,
}

/// The target of a checked cast.
#[derive(Clone, Debug)]
pub(crate) enum CastCheck {
    /// A known class, checked against the subclass matrix.
    Class(u32),
    /// An undeclared class name: the cast always fails (as the old
    /// chain-walk did), with this name in the message.
    Unknown(ClassName),
}

/// A builtin, pre-dispatched from its `(namespace, name)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BOp {
    ExtBattery,
    ExtTemperature,
    ExtTimeMs,
    SimWork,
    SimSleepMs,
    SimRand,
    IoPrint,
    StrLen,
    StrOfInt,
    StrOfDouble,
    StrSub,
    MathFloor,
    MathToDouble,
    MathMin,
    MathMax,
    MathFmin,
    MathFmax,
    MathAbs,
    MathSqrt,
    MathPow,
    ArrRange,
    ArrLen,
    ArrGet,
    ArrSub,
    ArrConcat,
    ArrPush,
    ArrMake,
    Unknown,
}

/// A lowered statement.
#[derive(Debug)]
pub(crate) enum LStmt {
    /// Pushes one frame slot (the let's name was resolved away).
    Let(LExpr),
    Expr(LExpr),
    Return(LExpr),
}

/// A lowered expression. Every node corresponds 1:1 to a surface
/// [`ExprKind`] node, so gas accounting is unchanged.
#[derive(Debug)]
pub(crate) enum LExpr {
    /// A literal, pre-converted to its runtime value.
    Lit(Value),
    ModeConst(ent_modes::ModeName),
    This,
    /// A frame-slot read; `name` only feeds the unbound-parameter error.
    Var {
        slot: u32,
        name: Ident,
    },
    /// A variable with no binding in scope: always errors.
    UnboundVar(Ident),
    Field {
        recv: Box<LExpr>,
        /// Global field id, looked up in the receiver's
        /// [`ClassLayout::field_slot`].
        field: u32,
        name: Ident,
    },
    New {
        class: u32,
        plan: NewPlan,
        ctor_args: Vec<LExpr>,
    },
    /// `new` of an undeclared class: arguments evaluate, then it errors.
    NewUnknown {
        class: ClassName,
        ctor_args: Vec<LExpr>,
    },
    Call {
        recv: Box<LExpr>,
        /// Global method id, looked up in the receiver's vtable.
        method: u32,
        mode_args: Vec<LMode>,
        args: Vec<LExpr>,
    },
    Builtin {
        op: BOp,
        /// Kept for the unknown/misapplied-builtin message.
        ns: Ident,
        name: Ident,
        args: Vec<LExpr>,
    },
    Cast {
        check: Option<CastCheck>,
        expr: Box<LExpr>,
    },
    Snapshot {
        expr: Box<LExpr>,
        lo: LMode,
        hi: LMode,
    },
    MCase(Vec<(ent_modes::ModeName, LExpr)>),
    Elim {
        expr: Box<LExpr>,
        mode: Option<LMode>,
    },
    Binary {
        op: BinOp,
        lhs: Box<LExpr>,
        rhs: Box<LExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<LExpr>,
    },
    If {
        cond: Box<LExpr>,
        then: Box<LExpr>,
        els: Option<Box<LExpr>>,
    },
    Block(Vec<LStmt>),
    Try {
        body: Box<LExpr>,
        handler: Box<LExpr>,
    },
    ArrayLit(Vec<LExpr>),
}

/// A program compiled to the indexed runtime IR. Build one with
/// [`lower_program`] and execute it (any number of times) with
/// [`crate::run_lowered`].
#[derive(Debug)]
pub struct LoweredProgram {
    /// Mode constants; the first `n_declared` are the `modes { … }` block
    /// in declaration order, the rest were merely mentioned.
    pub(crate) mode_names: Interner,
    pub(crate) n_declared: u32,
    /// `n_declared × n_declared` partial-order matrix, row-major.
    pub(crate) mode_le: Vec<bool>,
    /// Mode variables (display names for diagnostics).
    pub(crate) mode_vars: Interner,
    /// Global method-name table.
    pub(crate) method_names: Interner,
    /// Class layouts in declaration order.
    pub(crate) classes: Vec<ClassLayout>,
    /// `n × n` nominal-subtyping matrix, row-major (`subclass[c * n + d]`).
    pub(crate) subclass: Vec<bool>,
    /// `(class id, method id)` of `Main.main`, when `Main` declares it
    /// directly.
    pub(crate) main: Option<(u32, u32)>,
    /// Inline-cache site-id counters for lazily compiled bytecode bodies.
    pub(crate) ic: crate::compile::IcCounters,
}

impl LoweredProgram {
    /// The ground partial order, replicating `ModeTable::le_ground` arm for
    /// arm (variables — and the never-reaching `Missing` — compare false).
    pub(crate) fn le(&self, a: GMode, b: GMode) -> bool {
        match (a, b) {
            (GMode::Bot, _) | (_, GMode::Top) => true,
            (GMode::Top, _) | (_, GMode::Bot) => false,
            (GMode::Const(x), GMode::Const(y)) => {
                x == y || {
                    let n = self.n_declared as usize;
                    let (x, y) = (x as usize, y as usize);
                    x < n && y < n && self.mode_le[x * n + y]
                }
            }
            _ => false,
        }
    }

    pub(crate) fn is_subclass_id(&self, c: u32, d: u32) -> bool {
        let n = self.classes.len();
        self.subclass[c as usize * n + d as usize]
    }

    /// Displays a mode exactly as the old evaluator's `StaticMode` did.
    pub(crate) fn mode_disp(&self, g: GMode) -> DispMode<'_> {
        DispMode { prog: self, g }
    }

    // ---- id resolution (the event/profile rendering surface) ------------

    /// The name of a class id, as carried by [`crate::EnergyEvent`]s.
    pub fn class_name(&self, id: u32) -> &str {
        self.classes[id as usize].name.as_str()
    }

    /// The name of a global method id, as carried by
    /// [`crate::EnergyEvent`]s and profile frames.
    pub fn method_name(&self, id: u32) -> &str {
        self.method_names.resolve(ent_syntax::Symbol::from_raw(id))
    }

    /// Renders an interned mode back through the interner (`⊥`, `⊤`,
    /// constant or variable name).
    pub fn mode_string(&self, g: GMode) -> String {
        self.mode_disp(g).to_string()
    }

    /// Number of classes (valid class ids are `0..n_classes`).
    pub fn n_classes(&self) -> u32 {
        self.classes.len() as u32
    }
}

/// Display adapter matching `StaticMode`'s rendering (`⊥`, `⊤`, constant
/// or variable name).
pub(crate) struct DispMode<'a> {
    prog: &'a LoweredProgram,
    g: GMode,
}

impl fmt::Display for DispMode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.g {
            GMode::Bot => f.write_str("⊥"),
            GMode::Top => f.write_str("⊤"),
            GMode::Const(i) => f.write_str(
                self.prog
                    .mode_names
                    .resolve(ent_syntax::Symbol::from_raw(i)),
            ),
            GMode::Var(i) => {
                f.write_str(self.prog.mode_vars.resolve(ent_syntax::Symbol::from_raw(i)))
            }
            GMode::Missing => f.write_str("<unbound>"),
        }
    }
}

/// Lowers a compiled program into the indexed runtime IR. Infallible:
/// names that cannot be resolved statically lower to nodes that reproduce
/// the original evaluator's runtime errors.
pub fn lower_program(compiled: &CompiledProgram) -> LoweredProgram {
    let program = &compiled.program;
    let table = &compiled.table;

    let mut mode_names = Interner::new();
    for m in program.mode_table.modes() {
        mode_names.intern(m.as_str());
    }
    let n_declared = mode_names.len() as u32;
    let n = n_declared as usize;
    let mut mode_le = vec![false; n * n];
    for (i, a) in program.mode_table.modes().iter().enumerate() {
        for (j, b) in program.mode_table.modes().iter().enumerate() {
            mode_le[i * n + j] = program.mode_table.le_const(a, b);
        }
    }

    let class_order: Vec<ClassName> = table.names().to_vec();
    let mut class_ids = HashMap::new();
    for (i, c) in class_order.iter().enumerate() {
        class_ids.insert(c.clone(), i as u32);
    }
    let nc = class_order.len();
    let mut subclass = vec![false; nc * nc];
    for (ci, c) in class_order.iter().enumerate() {
        for (di, d) in class_order.iter().enumerate() {
            subclass[ci * nc + di] = table.is_subclass(c, d);
        }
    }

    let mut lowerer = Lowerer {
        table,
        mode_names,
        mode_vars: Interner::new(),
        method_names: Interner::new(),
        field_names: Interner::new(),
        class_ids,
        class_order,
        method_cache: HashMap::new(),
        env_cache: HashMap::new(),
    };

    // Pre-intern every declared method and field name so vtables and field
    // tables built early still cover names declared in later classes.
    for cname in table.names() {
        let decl = table.class(cname).expect("ordered classes exist");
        for f in &decl.fields {
            lowerer.field_names.intern(f.name.as_str());
        }
        for m in &decl.methods {
            lowerer.method_names.intern(m.name.as_str());
        }
    }

    let mut classes = Vec::with_capacity(nc);
    for ci in 0..nc as u32 {
        classes.push(lowerer.lower_class(ci));
    }

    let main = table.class(&ClassName::new("Main")).and_then(|decl| {
        decl.method(&Ident::new("main"))?;
        let cid = lowerer.class_ids[&ClassName::new("Main")];
        let mid = lowerer
            .method_names
            .get("main")
            .expect("declared method names are pre-interned")
            .raw();
        Some((cid, mid))
    });

    LoweredProgram {
        mode_names: lowerer.mode_names,
        n_declared,
        mode_le,
        mode_vars: lowerer.mode_vars,
        method_names: lowerer.method_names,
        classes,
        subclass,
        main,
        ic: crate::compile::IcCounters::default(),
    }
}

struct Lowerer<'a> {
    table: &'a ClassTable,
    mode_names: Interner,
    mode_vars: Interner,
    method_names: Interner,
    field_names: Interner,
    class_ids: HashMap<ClassName, u32>,
    class_order: Vec<ClassName>,
    /// One lowered body per declaring `(owner, method)` pair, shared by
    /// every inheriting class's vtable.
    method_cache: HashMap<(u32, u32), Arc<LMethod>>,
    /// One environment projection per `(class, owner)` pair.
    env_cache: HashMap<(u32, u32), Arc<[EnvSrc]>>,
}

/// Lexical scope threaded through expression lowering: the mode-variable
/// slot layout of the enclosing frame plus the stack of local names.
struct ExprCtx<'e> {
    env: &'e [ModeVar],
    locals: Vec<Ident>,
}

impl Lowerer<'_> {
    fn ground_verbatim(&mut self, m: &StaticMode) -> GMode {
        match m {
            StaticMode::Bot => GMode::Bot,
            StaticMode::Top => GMode::Top,
            StaticMode::Const(c) => GMode::Const(self.mode_names.intern(c.as_str()).raw()),
            StaticMode::Var(v) => GMode::Var(self.mode_vars.intern(v.as_str()).raw()),
        }
    }

    /// Lowers a static mode in a frame whose mode-environment layout is
    /// `env`. Name lookup takes the *last* matching slot, replicating the
    /// old hash map's insert-overwrites behavior.
    fn lower_static(&mut self, env: &[ModeVar], m: &StaticMode) -> LMode {
        match m {
            StaticMode::Var(v) => {
                let var = self.mode_vars.intern(v.as_str()).raw();
                match env.iter().rposition(|p| p == v) {
                    Some(j) => LMode::Param {
                        slot: j as u32,
                        var,
                    },
                    None => LMode::Unbound(var),
                }
            }
            g => LMode::Ground(self.ground_verbatim(g)),
        }
    }

    /// The environment projection from `class` onto an ancestor `owner`:
    /// a symbolic replay of the old evaluator's `owner_mode_env` walk over
    /// superclass instantiations, compiled to per-slot [`EnvSrc`]s.
    fn env_map(&mut self, class: u32, owner: u32) -> Arc<[EnvSrc]> {
        if let Some(m) = self.env_cache.get(&(class, owner)) {
            return Arc::clone(m);
        }
        let owner_name = self.class_order[owner as usize].clone();
        let mut cur = self.class_order[class as usize].clone();
        let mut params: Vec<ModeVar> = self
            .table
            .class(&cur)
            .expect("lowered classes exist")
            .mode_params
            .params();
        // `None` models a parameter with no entry in the runtime map.
        let mut abs: Vec<Option<EnvSrc>> = (0..params.len())
            .map(|i| Some(EnvSrc::Copy(i as u32)))
            .collect();
        while cur != owner_name {
            let decl = self.table.class(&cur).expect("validated chain");
            let sup = decl.superclass.clone();
            let sup_decl = self.table.class(&sup).expect("validated chain");
            let sup_params = sup_decl.mode_params.params();
            let args: Vec<Option<EnvSrc>> = if decl.super_args.is_empty() {
                sup_decl
                    .mode_params
                    .bounds
                    .iter()
                    .map(|b| {
                        let g = self.ground_verbatim(&b.lo);
                        Some(EnvSrc::Ground(g))
                    })
                    .collect()
            } else {
                decl.super_args
                    .iter()
                    .map(|m| {
                        Some(match m {
                            StaticMode::Var(v) => {
                                let var = self.mode_vars.intern(v.as_str()).raw();
                                match params.iter().rposition(|p| p == v) {
                                    Some(j) => match abs[j] {
                                        Some(EnvSrc::Copy(i)) => EnvSrc::SlotOrVar { slot: i, var },
                                        Some(src) => src,
                                        None => EnvSrc::Ground(GMode::Var(var)),
                                    },
                                    None => EnvSrc::Ground(GMode::Var(var)),
                                }
                            }
                            g => {
                                let g = self.ground_verbatim(g);
                                EnvSrc::Ground(g)
                            }
                        })
                    })
                    .collect()
            };
            abs = (0..sup_params.len())
                .map(|k| args.get(k).copied().flatten())
                .collect();
            params = sup_params;
            cur = sup;
        }
        let map: Arc<[EnvSrc]> = abs
            .into_iter()
            .map(|o| o.unwrap_or(EnvSrc::Ground(GMode::Missing)))
            .collect();
        self.env_cache.insert((class, owner), Arc::clone(&map));
        map
    }

    fn lower_class(&mut self, ci: u32) -> ClassLayout {
        // Declarations are borrowed from the table, not from `self`, so
        // lowering can intern names while holding them.
        let table = self.table;
        let cname = self.class_order[ci as usize].clone();
        let decl = table.class(&cname).expect("lowered classes exist");
        let chain = table.superclass_chain(&cname);

        // Field layout: inherited first, first declaration wins the id slot.
        let mut field_order = Vec::new();
        for anc in &chain {
            let adecl = table.class(anc).expect("validated chain");
            for f in &adecl.fields {
                field_order.push(f.name.clone());
            }
        }
        let mut field_slot = vec![u32::MAX; self.field_names.len()];
        for (i, name) in field_order.iter().enumerate() {
            let fid = self.field_names.intern(name.as_str()).index();
            if field_slot.len() <= fid {
                field_slot.resize(fid + 1, u32::MAX);
            }
            if field_slot[fid] == u32::MAX {
                field_slot[fid] = i as u32;
            }
        }

        // Constructor plan: positional fields and initializer jobs, both in
        // chain order.
        let mut positional = Vec::new();
        let mut inits = Vec::new();
        let mut slot = 0u32;
        for anc in &chain {
            let adecl = table.class(anc).expect("validated chain");
            let aid = self.class_ids[anc];
            let owner_params = adecl.mode_params.params();
            for f in &adecl.fields {
                if let Some(init) = &f.init {
                    let env_map = self.env_map(ci, aid);
                    let body = self.lower_expr_in(&owner_params, &[], init);
                    inits.push(InitJob {
                        slot,
                        env_map,
                        body,
                        code: BodyCell::default(),
                    });
                } else {
                    positional.push((slot, f.name.clone()));
                }
                slot += 1;
            }
        }

        // Vtable: walk the chain most-derived first; the first declaration
        // of each method id wins, exactly like the old chain-walk cache.
        let mut vtable: Vec<Option<MethodEntry>> =
            (0..self.method_names.len()).map(|_| None).collect();
        for anc in chain.iter().rev() {
            let adecl = table.class(anc).expect("validated chain");
            let aid = self.class_ids[anc];
            for m in &adecl.methods {
                let mid = self
                    .method_names
                    .get(m.name.as_str())
                    .expect("declared method names are pre-interned")
                    .index();
                if vtable[mid].is_none() {
                    let env_map = self.env_map(ci, aid);
                    let method = self.lower_method(aid, m);
                    vtable[mid] = Some(MethodEntry { env_map, method });
                }
            }
        }

        let class_params = decl.mode_params.params();
        let attributor = decl.attributor.as_ref().map(|a| ClassAttributor {
            body: self.lower_expr_in(&class_params, &[], &a.body),
            has_internal: !decl.mode_params.bounds.is_empty(),
            code: BodyCell::default(),
        });

        let default_new = if decl.mode_params.dynamic {
            DefaultNew::Dynamic
        } else {
            let env: Arc<[GMode]> = decl
                .mode_params
                .bounds
                .iter()
                .map(|b| self.ground_verbatim(&b.lo))
                .collect();
            DefaultNew::Fixed { env }
        };

        ClassLayout {
            name: cname,
            n_mode_params: decl.mode_params.bounds.len() as u32,
            field_order,
            field_slot,
            vtable,
            ctor: CtorPlan { positional, inits },
            attributor,
            default_new,
        }
    }

    fn lower_method(&mut self, owner: u32, mdecl: &MethodDecl) -> Arc<LMethod> {
        let mid = self.method_names.intern(mdecl.name.as_str()).raw();
        if let Some(cached) = self.method_cache.get(&(owner, mid)) {
            return Arc::clone(cached);
        }
        let odecl = self
            .table
            .class(&self.class_order[owner as usize])
            .expect("lowered classes exist");
        // Frame mode-environment layout: owner class parameters, then the
        // method's own mode parameters.
        let mut env_layout: Vec<ModeVar> = odecl.mode_params.params();
        let n0 = env_layout.len();
        for b in &mdecl.mode_params {
            env_layout.push(b.var.clone());
        }
        let mut mode_params = Vec::with_capacity(mdecl.mode_params.len());
        for (k, b) in mdecl.mode_params.iter().enumerate() {
            let default = match env_layout[..n0 + k].iter().rposition(|v| v == &b.var) {
                Some(j) => MDefault::FromSlot(j as u32),
                None => MDefault::Missing,
            };
            mode_params.push(MParam { default });
        }
        let locals: Vec<Ident> = mdecl.params.iter().map(|(_, n)| n.clone()).collect();
        let attributor = mdecl
            .attributor
            .as_ref()
            .map(|a| self.lower_expr_in(&env_layout, &locals, &a.body));
        let mode_override = mdecl.mode.as_ref().map(|m| match m {
            StaticMode::Var(v) => {
                let var = self.mode_vars.intern(v.as_str()).raw();
                match env_layout.iter().rposition(|p| p == v) {
                    Some(j) => LOverride::Param {
                        slot: j as u32,
                        var,
                    },
                    None => LOverride::Ground(GMode::Var(var)),
                }
            }
            g => LOverride::Ground(self.ground_verbatim(g)),
        });
        let body = self.lower_expr_in(&env_layout, &locals, &mdecl.body);
        let method = Arc::new(LMethod {
            n_params: mdecl.params.len() as u32,
            mode_params,
            attributor,
            mode_override,
            body,
            body_code: BodyCell::default(),
            attr_code: BodyCell::default(),
        });
        self.method_cache.insert((owner, mid), Arc::clone(&method));
        method
    }

    fn lower_expr_in(&mut self, env: &[ModeVar], locals: &[Ident], e: &Expr) -> LExpr {
        let mut ctx = ExprCtx {
            env,
            locals: locals.to_vec(),
        };
        self.lower_expr(&mut ctx, e)
    }

    fn lower_expr(&mut self, ctx: &mut ExprCtx<'_>, e: &Expr) -> LExpr {
        match &e.kind {
            ExprKind::Lit(l) => LExpr::Lit(match l {
                Lit::Int(n) => Value::Int(*n),
                Lit::Double(x) => Value::Double(*x),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Str(s) => Value::str(s),
                Lit::Unit => Value::Unit,
            }),
            ExprKind::ModeConst(m) => {
                // Interned so snapshot/eliminate can map the produced
                // `Value::Mode` back to a dense id.
                self.mode_names.intern(m.as_str());
                LExpr::ModeConst(m.clone())
            }
            ExprKind::This => LExpr::This,
            ExprKind::Var(x) => match ctx.locals.iter().rposition(|n| n == x) {
                Some(i) => LExpr::Var {
                    slot: i as u32,
                    name: x.clone(),
                },
                None => LExpr::UnboundVar(x.clone()),
            },
            ExprKind::Field { recv, name } => LExpr::Field {
                recv: Box::new(self.lower_expr(ctx, recv)),
                field: self.field_names.intern(name.as_str()).raw(),
                name: name.clone(),
            },
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => {
                let lowered_args: Vec<LExpr> =
                    ctor_args.iter().map(|a| self.lower_expr(ctx, a)).collect();
                let Some(&cid) = self.class_ids.get(class) else {
                    return LExpr::NewUnknown {
                        class: class.clone(),
                        ctor_args: lowered_args,
                    };
                };
                let n_params = self
                    .table
                    .class(class)
                    .expect("id implies presence")
                    .mode_params
                    .bounds
                    .len();
                let plan = match args {
                    Some(margs) if margs.is_dynamic() => {
                        // Zip semantics: surplus arguments are dropped
                        // without ever being resolved.
                        let take = n_params.saturating_sub(1).min(margs.rest.len());
                        NewPlan::Dynamic {
                            rest: margs.rest[..take]
                                .iter()
                                .map(|m| self.lower_static(ctx.env, m))
                                .collect(),
                        }
                    }
                    Some(margs) => {
                        let mut flat = Vec::with_capacity(1 + margs.rest.len());
                        if let Mode::Static(m) = &margs.mode {
                            flat.push(self.lower_static(ctx.env, m));
                        }
                        flat.extend(margs.rest.iter().map(|m| self.lower_static(ctx.env, m)));
                        NewPlan::Static { flat }
                    }
                    None => NewPlan::Default,
                };
                LExpr::New {
                    class: cid,
                    plan,
                    ctor_args: lowered_args,
                }
            }
            ExprKind::Call {
                recv,
                method,
                mode_args,
                args,
            } => LExpr::Call {
                recv: Box::new(self.lower_expr(ctx, recv)),
                method: self.method_names.intern(method.as_str()).raw(),
                mode_args: mode_args
                    .iter()
                    .map(|m| self.lower_static(ctx.env, m))
                    .collect(),
                args: args.iter().map(|a| self.lower_expr(ctx, a)).collect(),
            },
            ExprKind::Builtin { ns, name, args } => LExpr::Builtin {
                op: builtin_op(ns.as_str(), name.as_str()),
                ns: ns.clone(),
                name: name.clone(),
                args: args.iter().map(|a| self.lower_expr(ctx, a)).collect(),
            },
            ExprKind::Cast { ty, expr } => {
                let check = match ty {
                    Type::Object { class, .. } if *class != ClassName::object() => {
                        Some(match self.class_ids.get(class) {
                            Some(&cid) => CastCheck::Class(cid),
                            None => CastCheck::Unknown(class.clone()),
                        })
                    }
                    _ => None,
                };
                LExpr::Cast {
                    check,
                    expr: Box::new(self.lower_expr(ctx, expr)),
                }
            }
            ExprKind::Snapshot { expr, lo, hi } => LExpr::Snapshot {
                expr: Box::new(self.lower_expr(ctx, expr)),
                lo: self.lower_static(ctx.env, lo),
                hi: self.lower_static(ctx.env, hi),
            },
            ExprKind::MCase { ty: _, arms } => LExpr::MCase(
                arms.iter()
                    .map(|(m, a)| {
                        self.mode_names.intern(m.as_str());
                        (m.clone(), self.lower_expr(ctx, a))
                    })
                    .collect(),
            ),
            ExprKind::Elim { expr, mode } => LExpr::Elim {
                expr: Box::new(self.lower_expr(ctx, expr)),
                mode: mode.as_ref().map(|m| self.lower_static(ctx.env, m)),
            },
            ExprKind::Binary { op, lhs, rhs } => LExpr::Binary {
                op: *op,
                lhs: Box::new(self.lower_expr(ctx, lhs)),
                rhs: Box::new(self.lower_expr(ctx, rhs)),
            },
            ExprKind::Unary { op, expr } => LExpr::Unary {
                op: *op,
                expr: Box::new(self.lower_expr(ctx, expr)),
            },
            ExprKind::If { cond, then, els } => LExpr::If {
                cond: Box::new(self.lower_expr(ctx, cond)),
                then: Box::new(self.lower_expr(ctx, then)),
                els: els.as_ref().map(|e| Box::new(self.lower_expr(ctx, e))),
            },
            ExprKind::Block(stmts) => {
                let depth = ctx.locals.len();
                let mut out = Vec::with_capacity(stmts.len());
                for stmt in stmts {
                    out.push(match stmt {
                        Stmt::Let { name, value, .. } => {
                            let v = self.lower_expr(ctx, value);
                            ctx.locals.push(name.clone());
                            LStmt::Let(v)
                        }
                        Stmt::Expr(e) => LStmt::Expr(self.lower_expr(ctx, e)),
                        Stmt::Return(e) => LStmt::Return(self.lower_expr(ctx, e)),
                    });
                }
                ctx.locals.truncate(depth);
                LExpr::Block(out)
            }
            ExprKind::Try { body, handler } => LExpr::Try {
                body: Box::new(self.lower_expr(ctx, body)),
                handler: Box::new(self.lower_expr(ctx, handler)),
            },
            ExprKind::ArrayLit(items) => {
                LExpr::ArrayLit(items.iter().map(|i| self.lower_expr(ctx, i)).collect())
            }
        }
    }
}

fn builtin_op(ns: &str, name: &str) -> BOp {
    match (ns, name) {
        ("Ext", "battery") => BOp::ExtBattery,
        ("Ext", "temperature") => BOp::ExtTemperature,
        ("Ext", "timeMs") => BOp::ExtTimeMs,
        ("Sim", "work") => BOp::SimWork,
        ("Sim", "sleepMs") => BOp::SimSleepMs,
        ("Sim", "rand") => BOp::SimRand,
        ("IO", "print") => BOp::IoPrint,
        ("Str", "len") => BOp::StrLen,
        ("Str", "ofInt") => BOp::StrOfInt,
        ("Str", "ofDouble") => BOp::StrOfDouble,
        ("Str", "sub") => BOp::StrSub,
        ("Math", "floor") => BOp::MathFloor,
        ("Math", "toDouble") => BOp::MathToDouble,
        ("Math", "min") => BOp::MathMin,
        ("Math", "max") => BOp::MathMax,
        ("Math", "fmin") => BOp::MathFmin,
        ("Math", "fmax") => BOp::MathFmax,
        ("Math", "abs") => BOp::MathAbs,
        ("Math", "sqrt") => BOp::MathSqrt,
        ("Math", "pow") => BOp::MathPow,
        ("Arr", "range") => BOp::ArrRange,
        ("Arr", "len") => BOp::ArrLen,
        ("Arr", "get") => BOp::ArrGet,
        ("Arr", "sub") => BOp::ArrSub,
        ("Arr", "concat") => BOp::ArrConcat,
        ("Arr", "push") => BOp::ArrPush,
        ("Arr", "make") => BOp::ArrMake,
        _ => BOp::Unknown,
    }
}
