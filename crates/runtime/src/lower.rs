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
//! * Names arrive as ids into the program's name table
//!   ([`ent_modes::Names`]); methods and fields get dense ids of their
//!   own, declared names first, so vtables and field tables are as wide
//!   as the names the program declares.
//! * Variables become frame-slot indices ([`Node::Var`]); frames hold a
//!   flat `Vec<Value>` scoped by push/truncate.
//! * Field accesses become per-class slot offsets resolved through a
//!   field-id-indexed table ([`ClassLayout::field_slot`]).
//! * Sends index a per-class vtable of pre-resolved [`MethodEntry`]s.
//! * Mode environments become small `Vec<GMode>`s addressed by slot, with
//!   each (class, ancestor) environment projection pre-compiled into an
//!   [`EnvSrc`] map.
//!
//! The lowered code of a whole program is one [`Ir`]: `Copy` [`Node`]s
//! in one array, addressed by `u32`, with child lists as runs of a second
//! array and the payloads that own heap memory — literal values, names,
//! mode lists, `new` plans — in side tables. A body is a root index
//! ([`Body`]). Lowering a program therefore makes a handful of
//! allocations rather than one per node, and dropping it frees those few
//! arrays without walking a tree.
//!
//! Lowering is semantics-preserving bit for bit: the interpreter over this
//! IR produces identical [`crate::RunStats`], output, value renderings and
//! energy measurements for fixed seeds (enforced by the golden suite in
//! `tests/formal_equivalence.rs` and the perf harness's fingerprints).

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use ent_core::CompiledProgram;
use ent_energy::WorkKind;
use ent_modes::{Mode, ModeName, ModeVar, Names, StaticMode, Symbol};
use ent_syntax::{
    Ast, BinOp, ClassDecl, ClassName, ClassTable, ExprId, ExprKind, Ident, Lit, MethodDecl, Stmt,
    Type, UnOp,
};

use crate::compile::Code;
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
    /// A mode constant, by id in `LoweredProgram::mode_names`.
    Const(u32),
    /// An unresolved mode variable, by its [`ModeVar::raw`] id (threads
    /// through superclass instantiations exactly as the old evaluator kept
    /// `StaticMode::Var` values in its environments).
    Var(u32),
    /// No binding. Reading it through `LMode::Param` raises the
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

/// A node's index in [`Ir::nodes`].
pub(crate) type NodeId = u32;

/// A run of consecutive entries in one of the [`Ir`] tables: a node's
/// children in [`Ir::kids`], a block's statements in [`Ir::stmts`], a
/// mode list in [`Ir::modes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Seq {
    start: u32,
    len: u32,
}

impl Seq {
    /// The `len` entries starting at `start`.
    pub(crate) fn new(start: u32, len: usize) -> Seq {
        Seq {
            start,
            len: index(len),
        }
    }

    /// The entries' indices in their table.
    #[inline]
    pub(crate) fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }

    #[inline]
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One compilable body — a method body, an attributor, or a field
/// initializer — as a root node of the program's [`Ir`], with its
/// compiled code. Shared program-wide: every concurrent run over a
/// lowered program sees the same cell, so each body compiles at most once
/// per program.
#[derive(Debug)]
pub(crate) struct Body {
    pub(crate) root: NodeId,
    /// Locals the body's frame starts with: the method's parameter count,
    /// zero for class attributors and field initializers.
    pub(crate) n_base: u32,
    /// The ops the bytecode engine runs (see [`crate::compile`]),
    /// compiled on the body's first bytecode execution. The tree walker
    /// (`--engine tree`) runs [`Body::root`] and never fills the cell.
    code: OnceLock<Code>,
}

impl Body {
    fn new(root: NodeId, n_base: u32) -> Body {
        Body {
            root,
            n_base,
            code: OnceLock::new(),
        }
    }

    /// The compiled code, if the bytecode engine has compiled this body
    /// yet.
    #[inline]
    pub(crate) fn code(&self) -> Option<&Code> {
        self.code.get()
    }

    /// The compiled code, compiling it from `ir` first if needed and
    /// counting that compile in `compiles`.
    #[inline]
    pub(crate) fn code_or_compile(
        &self,
        ir: &Ir,
        ic: &crate::compile::IcCounters,
        compiles: &mut u64,
    ) -> &Code {
        self.code.get_or_init(|| {
            *compiles += 1;
            crate::compile::compile_body(ir, self.root, self.n_base, ic)
        })
    }
}

/// A lowered method, shared by every class that inherits it.
#[derive(Debug)]
pub(crate) struct LMethod {
    /// Declared value-parameter count; the frame's locals are padded or
    /// truncated to exactly this many slots.
    pub(crate) n_params: u32,
    pub(crate) mode_params: Vec<MParam>,
    /// Method-level attributor, if any, by [`LoweredProgram::bodies`]
    /// index.
    pub(crate) attributor: Option<u32>,
    /// Method-level `@mode<η>` override, if any.
    pub(crate) mode_override: Option<LOverride>,
    /// The body, by [`LoweredProgram::bodies`] index.
    pub(crate) body: u32,
}

/// A vtable entry: the lowered method plus the environment projection from
/// the receiver's class to the method's declaring owner.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MethodEntry {
    /// A [`LoweredProgram::env_srcs`] run.
    pub(crate) env_map: Seq,
    /// The method, by [`LoweredProgram::methods`] index.
    pub(crate) method: u32,
}

/// A field initializer, evaluated after positional constructor arguments.
#[derive(Debug)]
pub(crate) struct InitJob {
    pub(crate) slot: u32,
    /// Projection onto the declaring class's mode parameters, a
    /// [`LoweredProgram::env_srcs`] run.
    pub(crate) env_map: Seq,
    /// The initializer, by [`LoweredProgram::bodies`] index.
    pub(crate) body: u32,
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
    /// The attributor, by [`LoweredProgram::bodies`] index.
    pub(crate) body: u32,
    /// Whether the class has an internal mode parameter (slot 0) to bind
    /// to the snapshot-produced mode.
    pub(crate) has_internal: bool,
}

/// Instantiation when `new C(...)` is written without mode arguments.
#[derive(Debug)]
pub(crate) enum DefaultNew {
    /// Dynamic class: untagged, all parameters unbound.
    Dynamic,
    /// Static class: mode `env[0]` (or `⊥` when mode-neutral), parameters
    /// pinned to their declared lower bounds verbatim; `env` is a
    /// [`LoweredProgram::default_envs`] run.
    Fixed { env: Seq },
}

/// Everything the interpreter needs to know about one class, computed at
/// load time.
#[derive(Debug)]
pub(crate) struct ClassLayout {
    pub(crate) name: ClassName,
    pub(crate) n_mode_params: u32,
    /// Field names in slot order (inherited first), for rendering.
    pub(crate) field_order: Vec<Ident>,
    /// Field id → slot, `u32::MAX` when the class lacks the field: one
    /// entry per distinct declared field name. Ids of names no class
    /// declares index out of range.
    pub(crate) field_slot: Vec<u32>,
    pub(crate) ctor: CtorPlan,
    pub(crate) attributor: Option<ClassAttributor>,
    pub(crate) default_new: DefaultNew,
}

/// How a `new` expression instantiates its class's mode parameters. The
/// mode lists are [`Ir::modes`] runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NewPlan {
    /// `new C@mode<?, …>(…)`: untagged; `rest` binds parameter slots
    /// `1..=rest.len()` (already truncated to the parameter count, matching
    /// the old zip semantics — surplus arguments are never even resolved).
    Dynamic { rest: Seq },
    /// `new C@mode<m, …>(…)`: every element is resolved, in order (even
    /// surplus ones — resolution errors must still fire), then zipped onto
    /// the parameter slots; the object's mode is `flat[0]` (or `⊥`).
    Static { flat: Seq },
    /// No mode arguments: use the class's [`DefaultNew`].
    Default,
}

/// The target of a checked cast.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CastCheck {
    /// A known class, checked against the subclass relation.
    Class(u32),
    /// An undeclared class name, by [`Ir::unknown_classes`] index: the
    /// cast always fails (as the old chain-walk did), with this name in
    /// the message.
    Unknown(u32),
}

/// A builtin, pre-dispatched from its `(namespace, name)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BOp {
    ExtBattery,
    ExtTemperature,
    ExtTimeMs,
    SimWork,
    /// `Sim.work` whose kind was a string literal, parsed while lowering:
    /// the call keeps only its units argument.
    SimWorkKind(WorkKind),
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

impl BOp {
    /// Arguments the call was written with: a resolved `Sim.work` also
    /// counts its elided kind literal.
    pub(crate) fn written_args(self, passed: usize) -> usize {
        passed + usize::from(matches!(self, BOp::SimWorkKind(_)))
    }
}

/// A `new` of a declared class: the class and how it instantiates the
/// class's mode parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LNew {
    pub(crate) class: u32,
    pub(crate) plan: NewPlan,
}

/// A send's method and its explicit mode arguments.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LSend {
    /// Global method id, looked up in the receiver's vtable.
    pub(crate) method: u32,
    /// An [`Ir::modes`] run.
    pub(crate) mode_args: Seq,
}

/// The absent else branch of a [`Node::If`].
pub(crate) const NO_NODE: NodeId = u32::MAX;

/// An `if`'s else branch, if it has one.
#[inline]
pub(crate) fn else_branch(els: NodeId) -> Option<NodeId> {
    (els != NO_NODE).then_some(els)
}

/// A lowered statement of a [`Node::Block`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum LStmt {
    /// Pushes one frame slot (the let's name was resolved away).
    Let(NodeId),
    Expr(NodeId),
    Return(NodeId),
}

/// A lowered expression. Every node corresponds 1:1 to a surface
/// [`ExprKind`] node, so gas accounting is unchanged; the one exception
/// is the kind literal of a resolved `Sim.work` ([`BOp::SimWorkKind`]),
/// whose step the engines still charge at its tree position. Children
/// are node ids, lists are [`Seq`]s, and heap-owning payloads are indices
/// into the [`Ir`]'s side tables, so a node is `Copy`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Node {
    /// A literal, pre-converted to its runtime value in [`Ir::lits`].
    Lit(u32),
    /// A mode constant, as a `Value::Mode` in [`Ir::lits`].
    ModeConst(u32),
    This,
    /// A frame-slot read; `name` ([`Ir::names`]) only feeds the
    /// unbound-parameter error.
    Var {
        slot: u32,
        name: u32,
    },
    /// A variable with no binding in scope: always errors.
    UnboundVar(u32),
    Field {
        recv: NodeId,
        /// Global field id, looked up in the receiver's
        /// [`ClassLayout::field_slot`].
        field: u32,
        name: u32,
    },
    New {
        /// The [`Ir::news`] entry.
        new: u32,
        ctor_args: Seq,
    },
    /// `new` of an undeclared class ([`Ir::unknown_classes`]): arguments
    /// evaluate, then it errors.
    NewUnknown {
        class: u32,
        ctor_args: Seq,
    },
    Call {
        /// The [`Ir::sends`] entry.
        send: u32,
        /// The receiver, then the arguments.
        recv_args: Seq,
    },
    Builtin {
        op: BOp,
        /// The namespace at this [`Ir::names`] index and the name at the
        /// next, kept for the unknown/misapplied-builtin message.
        name: u32,
        args: Seq,
    },
    Cast {
        check: Option<CastCheck>,
        expr: NodeId,
    },
    Snapshot {
        expr: NodeId,
        /// The lower bound at this [`Ir::modes`] index, the upper bound at
        /// the next.
        bounds: u32,
    },
    /// The arms in [`Ir::kids`]; their modes are the [`Ir::arm_modes`]
    /// run of the same length starting at `modes`.
    MCase {
        arms: Seq,
        modes: u32,
    },
    Elim {
        expr: NodeId,
        /// The explicit mode, an [`Ir::modes`] index.
        mode: Option<u32>,
    },
    Binary {
        op: BinOp,
        lhs: NodeId,
        rhs: NodeId,
    },
    Unary {
        op: UnOp,
        expr: NodeId,
    },
    If {
        cond: NodeId,
        then: NodeId,
        /// [`NO_NODE`] when absent (see [`else_branch`]).
        els: NodeId,
    },
    Block(Seq),
    Try {
        body: NodeId,
        handler: NodeId,
    },
    ArrayLit(Seq),
}

// Nodes are the bulk of a cached program; keep them small.
const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// The lowered code of one program: every body's nodes in one array, with
/// their lists and heap-owning payloads in side tables. A program is a
/// handful of allocations however many nodes it has, and dropping it
/// walks no tree.
#[derive(Debug, Default)]
pub(crate) struct Ir {
    pub(crate) nodes: Vec<Node>,
    /// Child lists: call receivers and arguments, constructor and builtin
    /// arguments, mode-case arms, array items.
    pub(crate) kids: Vec<NodeId>,
    pub(crate) stmts: Vec<LStmt>,
    /// Literal values, mode constants included.
    pub(crate) lits: Vec<Value>,
    /// Names kept for diagnostics: variables, fields, builtins.
    pub(crate) names: Vec<Ident>,
    /// Static mode expressions: call mode arguments, `new` plans,
    /// snapshot bounds and explicit `<|` modes.
    pub(crate) modes: Vec<LMode>,
    pub(crate) news: Vec<LNew>,
    pub(crate) sends: Vec<LSend>,
    pub(crate) arm_modes: Vec<ModeName>,
    pub(crate) unknown_classes: Vec<ClassName>,
}

impl Ir {
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> Node {
        self.nodes[id as usize]
    }

    #[inline]
    pub(crate) fn kids(&self, s: Seq) -> &[NodeId] {
        &self.kids[s.range()]
    }

    #[inline]
    pub(crate) fn stmts(&self, s: Seq) -> &[LStmt] {
        &self.stmts[s.range()]
    }

    #[inline]
    pub(crate) fn modes(&self, s: Seq) -> &[LMode] {
        &self.modes[s.range()]
    }

    /// The builtin namespace and name a [`Node::Builtin`] keeps.
    pub(crate) fn builtin_name(&self, name: u32) -> (&Ident, &Ident) {
        let i = name as usize;
        (&self.names[i], &self.names[i + 1])
    }
}

/// A program compiled to the indexed runtime IR. Build one with
/// [`lower_program`] and execute it (any number of times) with
/// [`crate::run_lowered`].
#[derive(Debug)]
pub struct LoweredProgram {
    /// The program's name table: every [`ClassName`], [`Ident`] and
    /// [`ModeVar`] in the lowered program is an id into it.
    pub(crate) names: Names,
    /// Mode constants; the first `n_declared` are the `modes { … }` block
    /// in declaration order, the rest were merely mentioned.
    pub(crate) mode_names: Vec<ModeName>,
    pub(crate) n_declared: u32,
    /// `n_declared × n_declared` partial-order matrix, row-major.
    pub(crate) mode_le: Vec<bool>,
    /// Each method id's name: the declared names first (the vtable
    /// stride), then names only called.
    pub(crate) method_names: Vec<Ident>,
    /// Class layouts in declaration order.
    pub(crate) classes: Vec<ClassLayout>,
    /// Every class's vtable, `n_methods` entries per class in class
    /// order: global method id → resolved entry (most-derived declaration
    /// wins).
    pub(crate) vtables: Vec<Option<MethodEntry>>,
    /// Declared method names, which take the first method ids: the
    /// vtable stride. Higher ids are names no class declares.
    pub(crate) n_methods: u32,
    /// Environment projections, by [`MethodEntry::env_map`] and
    /// [`InitJob::env_map`] run.
    pub(crate) env_srcs: Vec<EnvSrc>,
    /// Default instantiations, by [`DefaultNew::Fixed`] run.
    pub(crate) default_envs: Vec<GMode>,
    /// Each class's pre-order interval `[start, end)` in the inheritance
    /// forest: `d`'s subclasses are exactly the classes whose `start`
    /// falls in `d`'s interval.
    pub(crate) subclass: Vec<(u32, u32)>,
    /// `(class id, method id)` of `Main.main`, when `Main` declares it
    /// directly.
    pub(crate) main: Option<(u32, u32)>,
    /// Every body's lowered code.
    pub(crate) ir: Ir,
    /// Method bodies, attributors and field initializers.
    pub(crate) bodies: Vec<Body>,
    /// One lowered method per declaring `(owner, method)` pair, shared by
    /// every inheriting class's vtable.
    pub(crate) methods: Vec<LMethod>,
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

    /// `class`'s vtable entry for method id `method`, if the class has
    /// the method.
    #[inline]
    pub(crate) fn method_entry(&self, class: u32, method: u32) -> Option<&MethodEntry> {
        if method >= self.n_methods {
            return None;
        }
        let at = class as usize * self.n_methods as usize + method as usize;
        self.vtables[at].as_ref()
    }

    /// Nominal subclassing between class ids: is `c` equal to or a
    /// subclass of `d`?
    pub(crate) fn is_subclass_id(&self, c: u32, d: u32) -> bool {
        let (start, end) = self.subclass[d as usize];
        let at = self.subclass[c as usize].0;
        start <= at && at < end
    }

    /// Displays a mode exactly as the old evaluator's `StaticMode` did.
    pub(crate) fn mode_disp(&self, g: GMode) -> DispMode<'_> {
        DispMode { prog: self, g }
    }

    // ---- id resolution (the event/profile rendering surface) ------------

    /// The name of a class id, as carried by [`crate::EnergyEvent`]s.
    pub fn class_name(&self, id: u32) -> &str {
        self.spell(self.classes[id as usize].name)
    }

    /// The name of a global method id, as carried by
    /// [`crate::EnergyEvent`]s and profile frames.
    pub fn method_name(&self, id: u32) -> &str {
        self.spell(self.method_names[id as usize])
    }

    /// The spelling of a class, member or variable name of the program.
    pub(crate) fn spell(&self, name: impl Into<Symbol>) -> &str {
        self.names.get(name.into())
    }

    /// The mode id of constant `m`, if the program mentions it. A scan:
    /// a program mentions a few modes, and its mode values share their
    /// spellings' allocations, so they compare by pointer.
    pub(crate) fn mode_id(&self, m: &ModeName) -> Option<u32> {
        self.mode_names.iter().position(|n| n == m).map(index)
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
            GMode::Const(i) => f.write_str(self.prog.mode_names[i as usize].as_str()),
            GMode::Var(v) => {
                ModeVar::from_raw(v).write_with(f, |f, name| f.write_str(self.prog.names.get(name)))
            }
            GMode::Missing => f.write_str("<unbound>"),
        }
    }
}

/// The parent id of a root class (one that extends `Object`).
const NO_CLASS: u32 = u32::MAX;

/// Lowers a compiled program into the indexed runtime IR. Infallible:
/// names that cannot be resolved statically lower to nodes that reproduce
/// the original evaluator's runtime errors.
pub fn lower_program(compiled: &CompiledProgram) -> LoweredProgram {
    let program = &compiled.program;
    let table = &compiled.table;

    let declared = program.mode_table.modes();
    let n = declared.len();
    let n_declared = index(n);
    let mut mode_le = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            mode_le[i * n + j] = program.mode_table.le_at(i, j);
        }
    }

    let class_order = table.class_names();
    let nc = class_order.len();
    let decls: Vec<&ClassDecl> = class_order
        .iter()
        .map(|c| table.class(c).expect("ordered classes exist"))
        .collect();
    // The table is validated: every superclass is declared and no chain
    // cycles.
    let parent: Vec<u32> = decls
        .iter()
        .map(|d| table.position(&d.superclass).map_or(NO_CLASS, index))
        .collect();
    let subclass = subclass_intervals(&parent);

    let n_names = program.names().len();
    let mut lowerer = Lowerer {
        ast: program.ast(),
        table,
        decls,
        parent,
        mode_names: declared.to_vec(),
        method_ids: vec![NO_ID; n_names],
        method_names: Vec::new(),
        field_ids: vec![NO_ID; n_names],
        n_field_ids: 0,
        n_fields: 0,
        ir: Ir::default(),
        bodies: Vec::new(),
        methods: Vec::new(),
        vtables: Vec::new(),
        n_methods: 0,
        env_srcs: Vec::new(),
        default_envs: Vec::new(),
        method_cache: HashMap::new(),
        walk: Vec::new(),
        walk_runs: Vec::with_capacity(nc),
        walk_at: NO_CLASS,
        env_maps: Vec::with_capacity(nc),
        env: Vec::new(),
        locals: Vec::new(),
        pending: Vec::new(),
        pending_stmts: Vec::new(),
        chain: Vec::with_capacity(nc),
    };

    let sizes = lowerer.count_program(&subclass);
    lowerer.ir = Ir::with_sizes(&sizes);
    lowerer.bodies.reserve_exact(sizes.bodies);
    lowerer.methods.reserve_exact(sizes.methods);
    lowerer.method_cache.reserve(sizes.methods);

    // Number every declared method and field name first, so vtables and
    // field tables built early still cover names declared in later
    // classes, and are exactly as wide as the declared names.
    for ci in 0..nc {
        let decl = lowerer.decls[ci];
        for f in &decl.fields {
            lowerer.field_id(f.name);
        }
        for m in &decl.methods {
            lowerer.method_id(m.name);
        }
    }
    lowerer.n_fields = lowerer.n_field_ids as usize;
    lowerer.n_methods = lowerer.method_names.len();
    lowerer.vtables = vec![None; nc * lowerer.n_methods];
    let n_methods = index(lowerer.n_methods);

    let mut classes = Vec::with_capacity(nc);
    for ci in 0..index(nc) {
        classes.push(lowerer.lower_class(ci));
    }

    let main = table.class(&ClassName::MAIN).and_then(|decl| {
        decl.method(&Ident::MAIN)?;
        let cid = table.position(&ClassName::MAIN)?;
        Some((index(cid), lowerer.method_ids[Ident::MAIN.symbol().index()]))
    });

    let Lowerer {
        mode_names,
        method_names,
        ir,
        bodies,
        methods,
        vtables,
        env_srcs,
        default_envs,
        ..
    } = lowerer;
    debug_assert_eq!(
        IrSizes::of(&ir, bodies.len(), methods.len()),
        sizes,
        "the counting pass disagrees with lowering"
    );
    LoweredProgram {
        names: program.names().clone(),
        mode_names,
        n_declared,
        mode_le,
        method_names,
        classes,
        vtables,
        n_methods,
        env_srcs,
        default_envs,
        subclass,
        main,
        ir,
        bodies,
        methods,
        ic: crate::compile::IcCounters::default(),
    }
}

/// An unassigned entry of [`Lowerer::method_ids`] or
/// [`Lowerer::field_ids`].
const NO_ID: u32 = u32::MAX;

/// A table index as a `u32` id.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("lowered program exceeds u32 indexing")
}

/// Each class's pre-order interval `[start, end)` in the inheritance
/// forest `parent` describes ([`NO_CLASS`] marks a root): one depth-first
/// walk, so deep chains cost linear time and memory.
fn subclass_intervals(parent: &[u32]) -> Vec<(u32, u32)> {
    let n = parent.len();
    // Children in compressed rows: `child[first[p]..first[p + 1]]`.
    let mut first = vec![0u32; n + 1];
    for &p in parent {
        if p != NO_CLASS {
            first[p as usize + 1] += 1;
        }
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    let mut fill = first.clone();
    let mut child = vec![0u32; n];
    for (c, &p) in parent.iter().enumerate() {
        if p != NO_CLASS {
            child[fill[p as usize] as usize] = index(c);
            fill[p as usize] += 1;
        }
    }
    let mut span = vec![(0u32, 0u32); n];
    let mut next = 0u32;
    // `(class, its next child's position in `child`)`.
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in (0..n).filter(|&c| parent[c] == NO_CLASS) {
        span[root].0 = next;
        next += 1;
        stack.push((index(root), first[root]));
        while let Some(top) = stack.last_mut() {
            let (c, k) = (top.0 as usize, top.1);
            if k < first[c + 1] {
                top.1 += 1;
                let d = child[k as usize];
                span[d as usize].0 = next;
                next += 1;
                stack.push((d, first[d as usize]));
            } else {
                span[c].1 = next;
                stack.pop();
            }
        }
    }
    span
}

/// How many entries each [`Ir`] table of a program receives.
/// [`Lowerer::count`] mirrors [`Lowerer::lower_expr`]'s pushes node for
/// node, so every table is allocated once, at its final size.
#[derive(Debug, Default, PartialEq, Eq)]
struct IrSizes {
    nodes: usize,
    kids: usize,
    stmts: usize,
    lits: usize,
    names: usize,
    modes: usize,
    news: usize,
    sends: usize,
    arm_modes: usize,
    unknown_classes: usize,
    bodies: usize,
    methods: usize,
}

impl IrSizes {
    /// What `ir` and the body and method tables hold.
    fn of(ir: &Ir, bodies: usize, methods: usize) -> IrSizes {
        IrSizes {
            nodes: ir.nodes.len(),
            kids: ir.kids.len(),
            stmts: ir.stmts.len(),
            lits: ir.lits.len(),
            names: ir.names.len(),
            modes: ir.modes.len(),
            news: ir.news.len(),
            sends: ir.sends.len(),
            arm_modes: ir.arm_modes.len(),
            unknown_classes: ir.unknown_classes.len(),
            bodies,
            methods,
        }
    }
}

impl Ir {
    /// Empty tables with room for exactly the counted entries.
    fn with_sizes(s: &IrSizes) -> Ir {
        Ir {
            nodes: Vec::with_capacity(s.nodes),
            kids: Vec::with_capacity(s.kids),
            stmts: Vec::with_capacity(s.stmts),
            lits: Vec::with_capacity(s.lits),
            names: Vec::with_capacity(s.names),
            modes: Vec::with_capacity(s.modes),
            news: Vec::with_capacity(s.news),
            sends: Vec::with_capacity(s.sends),
            arm_modes: Vec::with_capacity(s.arm_modes),
            unknown_classes: Vec::with_capacity(s.unknown_classes),
        }
    }
}

/// The kind literal of `Sim.work("<literal>", e)`, which lowering
/// resolves ([`BOp::SimWorkKind`]).
fn literal_work_kind(ast: &Ast, op: BOp, args: &[ExprId]) -> Option<WorkKind> {
    match (op, args) {
        (BOp::SimWork, &[kind, _]) => match &ast[kind].kind {
            ExprKind::Lit(Lit::Str(kind)) => Some(WorkKind::parse(kind)),
            _ => None,
        },
        _ => None,
    }
}

struct Lowerer<'a> {
    /// The tree the lowered bodies live in.
    ast: &'a Ast,
    /// Class declarations by class id.
    decls: Vec<&'a ClassDecl>,
    /// The validated class table: class ids are its declaration order.
    table: &'a ClassTable,
    /// Superclass id by class id; [`NO_CLASS`] for `Object`.
    parent: Vec<u32>,
    /// [`LoweredProgram::mode_names`] so far.
    mode_names: Vec<ModeName>,
    /// Method id by name id ([`NO_ID`] until the name is numbered), and
    /// each method id's name.
    method_ids: Vec<u32>,
    method_names: Vec<Ident>,
    /// Field id by name id ([`NO_ID`] until the name is numbered), and
    /// how many ids are given.
    field_ids: Vec<u32>,
    n_field_ids: u32,
    /// Distinct declared field names: the width of each class's
    /// [`ClassLayout::field_slot`].
    n_fields: usize,
    ir: Ir,
    bodies: Vec<Body>,
    methods: Vec<LMethod>,
    vtables: Vec<Option<MethodEntry>>,
    /// The vtable stride ([`LoweredProgram::n_methods`]).
    n_methods: usize,
    env_srcs: Vec<EnvSrc>,
    default_envs: Vec<GMode>,
    /// `(owner, method id)` → index in `methods`.
    method_cache: HashMap<(u32, u32), u32>,
    /// The walk up the chain of the class being lowered (see
    /// [`Lowerer::env_map`]): its environment projected onto each
    /// ancestor walked so far, as runs of `walk` by distance up the chain
    /// (`walk_runs[0]` is the class itself), and the ancestor at the
    /// walk's far end.
    walk: Vec<Option<EnvSrc>>,
    walk_runs: Vec<Range<usize>>,
    walk_at: u32,
    /// The projections of the class being lowered that are already in
    /// `env_srcs`, by distance up its chain.
    env_maps: Vec<Option<Seq>>,
    /// The mode-environment slot layout of the body being lowered.
    env: Vec<ModeVar>,
    /// The local names in scope in the body being lowered, innermost last.
    locals: Vec<Ident>,
    /// Ids of list items lowered but not yet moved into `ir.kids`; nested
    /// lists push and drain above their parent's mark.
    pending: Vec<NodeId>,
    /// Statements of the blocks being lowered, likewise.
    pending_stmts: Vec<LStmt>,
    /// A class's inheritance chain, root first (reused across classes).
    chain: Vec<u32>,
}

impl Lowerer<'_> {
    /// The class id of `class`, if the program declares it.
    fn class_id(&self, class: &ClassName) -> Option<u32> {
        self.table.position(class).map(index)
    }

    /// The method id of `name`, numbering it if new.
    fn method_id(&mut self, name: Ident) -> u32 {
        let id = &mut self.method_ids[name.symbol().index()];
        if *id == NO_ID {
            *id = index(self.method_names.len());
            self.method_names.push(name);
        }
        *id
    }

    /// The field id of `name`, numbering it if new.
    fn field_id(&mut self, name: Ident) -> u32 {
        let id = &mut self.field_ids[name.symbol().index()];
        if *id == NO_ID {
            *id = self.n_field_ids;
            self.n_field_ids += 1;
        }
        *id
    }

    /// The mode id of constant `m`, numbering it if new.
    fn mode_id(&mut self, m: &ModeName) -> u32 {
        match self.mode_names.iter().position(|n| n == m) {
            Some(i) => index(i),
            None => {
                self.mode_names.push(m.clone());
                index(self.mode_names.len() - 1)
            }
        }
    }

    /// The spelling of `name`.
    fn spell(&self, name: impl Into<Symbol>) -> &str {
        self.table.names().get(name.into())
    }

    /// Counts what lowering the program pushes: every declared method
    /// (body and attributor) and class attributor once, and each field
    /// initializer once per class that inherits it (`subclass`
    /// intervals give that count).
    fn count_program(&self, subclass: &[(u32, u32)]) -> IrSizes {
        let mut s = IrSizes::default();
        for (decl, &(start, end)) in self.decls.iter().zip(subclass) {
            for init in decl.fields.iter().filter_map(|f| f.init) {
                for _ in start..end {
                    s.bodies += 1;
                    self.count(&mut s, init);
                }
            }
            for m in &decl.methods {
                s.methods += 1;
                s.bodies += 1;
                self.count(&mut s, m.body);
                if let Some(a) = &m.attributor {
                    s.bodies += 1;
                    self.count(&mut s, a.body);
                }
            }
            if let Some(a) = &decl.attributor {
                s.bodies += 1;
                self.count(&mut s, a.body);
            }
        }
        s
    }

    /// Counts the table entries [`Lowerer::lower_expr`] pushes for `e`.
    fn count(&self, s: &mut IrSizes, e: ExprId) {
        let ast = self.ast;
        s.nodes += 1;
        match &ast[e].kind {
            ExprKind::Lit(_) | ExprKind::ModeConst(_) => s.lits += 1,
            ExprKind::This => {}
            ExprKind::Var(_) => s.names += 1,
            ExprKind::Field { recv, .. } => {
                s.names += 1;
                self.count(s, *recv);
            }
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => {
                self.count_list(s, &ast[*ctor_args]);
                match self.class_id(class) {
                    None => s.unknown_classes += 1,
                    Some(cid) => {
                        s.news += 1;
                        let n_params = self.decls[cid as usize].mode_params.bounds.len();
                        s.modes += match args.map(|a| &ast[a]) {
                            Some(m) if m.is_dynamic() => {
                                n_params.saturating_sub(1).min(m.rest.len())
                            }
                            Some(m) => 1 + m.rest.len(),
                            None => 0,
                        };
                    }
                }
            }
            ExprKind::Call {
                recv,
                mode_args,
                args,
                ..
            } => {
                s.sends += 1;
                s.modes += mode_args.len();
                s.kids += 1;
                self.count(s, *recv);
                self.count_list(s, &ast[*args]);
            }
            ExprKind::Builtin { ns, name, args } => {
                s.names += 2;
                let op = builtin_op(self.spell(*ns), self.spell(*name));
                let args = &ast[*args];
                match literal_work_kind(ast, op, args) {
                    Some(_) => self.count_list(s, &args[1..]),
                    None => self.count_list(s, args),
                }
            }
            ExprKind::Cast { ty, expr } => {
                if let Type::Object { class, .. } = &ast[*ty] {
                    if *class != ClassName::OBJECT && self.class_id(class).is_none() {
                        s.unknown_classes += 1;
                    }
                }
                self.count(s, *expr);
            }
            ExprKind::Snapshot { expr, .. } => {
                s.modes += 2;
                self.count(s, *expr);
            }
            ExprKind::MCase { arms, .. } => {
                s.kids += arms.len();
                s.arm_modes += arms.len();
                for &(_, a) in &ast[*arms] {
                    self.count(s, a);
                }
            }
            ExprKind::Elim { expr, mode } => {
                s.modes += usize::from(mode.is_some());
                self.count(s, *expr);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.count(s, *lhs);
                self.count(s, *rhs);
            }
            ExprKind::Unary { expr, .. } => self.count(s, *expr),
            ExprKind::If { cond, then, els } => {
                self.count(s, *cond);
                self.count(s, *then);
                if let Some(e) = *els {
                    self.count(s, e);
                }
            }
            ExprKind::Block(stmts) => {
                s.stmts += stmts.len();
                for stmt in &ast[*stmts] {
                    match *stmt {
                        Stmt::Let { value: e, .. } | Stmt::Expr(e) | Stmt::Return(e) => {
                            self.count(s, e)
                        }
                    }
                }
            }
            ExprKind::Try { body, handler } => {
                self.count(s, *body);
                self.count(s, *handler);
            }
            ExprKind::ArrayLit(items) => self.count_list(s, &ast[*items]),
        }
    }

    fn count_list(&self, s: &mut IrSizes, items: &[ExprId]) {
        s.kids += items.len();
        for &e in items {
            self.count(s, e);
        }
    }

    fn ground_verbatim(&mut self, m: &StaticMode) -> GMode {
        match m {
            StaticMode::Bot => GMode::Bot,
            StaticMode::Top => GMode::Top,
            StaticMode::Const(c) => GMode::Const(self.mode_id(c)),
            StaticMode::Var(v) => GMode::Var(v.raw()),
        }
    }

    /// Lowers a static mode in the frame whose mode-environment layout is
    /// `self.env`. Name lookup takes the *last* matching slot, replicating
    /// the old hash map's insert-overwrites behavior.
    fn lower_static(&mut self, m: &StaticMode) -> LMode {
        match m {
            StaticMode::Var(v) => {
                let var = v.raw();
                match self.env.iter().rposition(|p| p == v) {
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

    /// Lowers a mode list into one [`Ir::modes`] run.
    fn lower_modes<'m>(&mut self, modes: impl IntoIterator<Item = &'m StaticMode>) -> Seq {
        let start = self.ir.modes.len();
        for m in modes {
            let lowered = self.lower_static(m);
            self.ir.modes.push(lowered);
        }
        seq(start, self.ir.modes.len())
    }

    /// The environment projection from `class`, the class being lowered,
    /// onto its ancestor `dist` links up its chain, as an `env_srcs` run:
    /// a symbolic replay of the old evaluator's `owner_mode_env` walk
    /// over superclass instantiations, compiled to per-slot [`EnvSrc`]s.
    /// One walk per class serves every ancestor: each link is followed
    /// once, as far up as a request needs, and only the projections
    /// asked for are copied into `env_srcs`, once each.
    fn env_map(&mut self, class: u32, dist: usize) -> Seq {
        if let Some(map) = self.env_maps[dist] {
            return map;
        }
        while self.walk_runs.len() <= dist {
            self.walk_link(class);
        }
        let start = self.env_srcs.len();
        for k in self.walk_runs[dist].clone() {
            let src = self.walk[k].unwrap_or(EnvSrc::Ground(GMode::Missing));
            self.env_srcs.push(src);
        }
        let map = seq(start, self.env_srcs.len());
        self.env_maps[dist] = Some(map);
        map
    }

    /// Extends [`Lowerer::env_map`]'s walk by one link: the projection of
    /// `class` onto the next ancestor, from its projection onto the
    /// current one. `None` models a parameter with no entry in the
    /// runtime map.
    fn walk_link(&mut self, class: u32) {
        let start = self.walk.len();
        let Some(cur_run) = self.walk_runs.last().cloned() else {
            let n = self.decls[class as usize].mode_params.bounds.len();
            self.walk
                .extend((0..n).map(|i| Some(EnvSrc::Copy(i as u32))));
            self.walk_at = class;
            self.walk_runs.push(start..self.walk.len());
            return;
        };
        let cur = self.walk_at;
        let decl = self.decls[cur as usize];
        let sup = self.parent[cur as usize];
        let sup_decl = self.decls[sup as usize];
        let n_sup = sup_decl.mode_params.bounds.len();
        if decl.super_args.is_empty() {
            for b in &sup_decl.mode_params.bounds {
                let g = self.ground_verbatim(&b.lo);
                self.walk.push(Some(EnvSrc::Ground(g)));
            }
        } else {
            let params = &decl.mode_params.bounds;
            for (k, m) in decl.super_args.iter().enumerate() {
                // Arguments past the superclass's parameters are
                // resolved and dropped.
                let src = match m {
                    StaticMode::Var(v) => {
                        let var = v.raw();
                        match params.iter().rposition(|p| p.var == *v) {
                            Some(j) => match self.walk[cur_run.start + j] {
                                Some(EnvSrc::Copy(i)) => EnvSrc::SlotOrVar { slot: i, var },
                                Some(src) => src,
                                None => EnvSrc::Ground(GMode::Var(var)),
                            },
                            None => EnvSrc::Ground(GMode::Var(var)),
                        }
                    }
                    g => EnvSrc::Ground(self.ground_verbatim(g)),
                };
                if k < n_sup {
                    self.walk.push(Some(src));
                }
            }
            for _ in decl.super_args.len()..n_sup {
                self.walk.push(None);
            }
        }
        self.walk_at = sup;
        self.walk_runs.push(start..self.walk.len());
    }

    fn lower_class(&mut self, ci: u32) -> ClassLayout {
        // Declarations are borrowed from the table, not from `self`, so
        // lowering can number names while holding them.
        let decl = self.decls[ci as usize];
        let mut chain = std::mem::take(&mut self.chain);
        chain.clear();
        let mut c = ci;
        while c != NO_CLASS {
            chain.push(c);
            c = self.parent[c as usize];
        }
        chain.reverse();
        self.walk.clear();
        self.walk_runs.clear();
        self.env_maps.clear();
        self.env_maps.resize(chain.len(), None);

        // Field layout: inherited first, first declaration wins the id slot.
        let mut field_order = Vec::new();
        for &anc in &chain {
            for f in &self.decls[anc as usize].fields {
                field_order.push(f.name);
            }
        }
        let mut field_slot = vec![u32::MAX; self.n_fields];
        for (i, &name) in field_order.iter().enumerate() {
            let fid = self.field_id(name) as usize;
            if field_slot[fid] == u32::MAX {
                field_slot[fid] = i as u32;
            }
        }

        // Constructor plan: positional fields and initializer jobs, both in
        // chain order.
        let mut positional = Vec::new();
        let mut inits = Vec::new();
        let mut slot = 0u32;
        for (pos, &anc) in chain.iter().enumerate() {
            let adecl = self.decls[anc as usize];
            for f in &adecl.fields {
                if let Some(init) = f.init {
                    let env_map = self.env_map(ci, chain.len() - 1 - pos);
                    self.set_scope(adecl, None, &[]);
                    let body = self.lower_body(0, init);
                    inits.push(InitJob {
                        slot,
                        env_map,
                        body,
                    });
                } else {
                    positional.push((slot, f.name));
                }
                slot += 1;
            }
        }

        // Vtable: walk the chain most-derived first; the first declaration
        // of each method id wins, exactly like the old chain-walk cache.
        let vtable = ci as usize * self.n_methods;
        for (dist, &anc) in chain.iter().rev().enumerate() {
            let adecl = self.decls[anc as usize];
            for m in &adecl.methods {
                let mid = self.method_id(m.name) as usize;
                if self.vtables[vtable + mid].is_none() {
                    let env_map = self.env_map(ci, dist);
                    let method = self.lower_method(anc, m);
                    self.vtables[vtable + mid] = Some(MethodEntry { env_map, method });
                }
            }
        }
        self.chain = chain;

        let attributor = decl.attributor.as_ref().map(|a| {
            self.set_scope(decl, None, &[]);
            ClassAttributor {
                body: self.lower_body(0, a.body),
                has_internal: !decl.mode_params.bounds.is_empty(),
            }
        });

        let default_new = if decl.mode_params.dynamic {
            DefaultNew::Dynamic
        } else {
            let start = self.default_envs.len();
            for b in &decl.mode_params.bounds {
                let g = self.ground_verbatim(&b.lo);
                self.default_envs.push(g);
            }
            DefaultNew::Fixed {
                env: seq(start, self.default_envs.len()),
            }
        };

        ClassLayout {
            name: self.decls[ci as usize].name,
            n_mode_params: decl.mode_params.bounds.len() as u32,
            field_order,
            field_slot,
            ctor: CtorPlan { positional, inits },
            attributor,
            default_new,
        }
    }

    /// Sets the scope a body lowers in: the mode-environment layout of
    /// `owner`'s parameters, then `method`'s own; and `params` as the
    /// locals.
    fn set_scope(
        &mut self,
        owner: &ClassDecl,
        method: Option<&MethodDecl>,
        params: &[(Type, Ident)],
    ) {
        self.env.clear();
        self.env
            .extend(owner.mode_params.bounds.iter().map(|b| b.var));
        if let Some(m) = method {
            self.env.extend(m.mode_params.iter().map(|b| b.var));
        }
        self.locals.clear();
        self.locals.extend(params.iter().map(|&(_, n)| n));
    }

    /// Lowers one body in the current scope and returns its
    /// [`LoweredProgram::bodies`] index.
    fn lower_body(&mut self, n_base: u32, e: ExprId) -> u32 {
        let root = self.lower_expr(e);
        self.bodies.push(Body::new(root, n_base));
        index(self.bodies.len() - 1)
    }

    fn lower_method(&mut self, owner: u32, mdecl: &MethodDecl) -> u32 {
        let mid = self.method_id(mdecl.name);
        if let Some(&cached) = self.method_cache.get(&(owner, mid)) {
            return cached;
        }
        let odecl = self.decls[owner as usize];
        // Frame mode-environment layout: owner class parameters, then the
        // method's own mode parameters.
        self.set_scope(odecl, Some(mdecl), &mdecl.params);
        let n0 = odecl.mode_params.bounds.len();
        let mut mode_params = Vec::with_capacity(mdecl.mode_params.len());
        for (k, b) in mdecl.mode_params.iter().enumerate() {
            let default = match self.env[..n0 + k].iter().rposition(|v| v == &b.var) {
                Some(j) => MDefault::FromSlot(j as u32),
                None => MDefault::Missing,
            };
            mode_params.push(MParam { default });
        }
        let n_params = mdecl.params.len() as u32;
        let attributor = mdecl
            .attributor
            .as_ref()
            .map(|a| self.lower_body(n_params, a.body));
        let mode_override = mdecl.mode.as_ref().map(|m| match m {
            StaticMode::Var(v) => {
                let var = v.raw();
                match self.env.iter().rposition(|p| p == v) {
                    Some(j) => LOverride::Param {
                        slot: j as u32,
                        var,
                    },
                    None => LOverride::Ground(GMode::Var(var)),
                }
            }
            g => LOverride::Ground(self.ground_verbatim(g)),
        });
        let body = self.lower_body(n_params, mdecl.body);
        self.methods.push(LMethod {
            n_params,
            mode_params,
            attributor,
            mode_override,
            body,
        });
        let method = index(self.methods.len() - 1);
        self.method_cache.insert((owner, mid), method);
        method
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.ir.nodes.push(node);
        index(self.ir.nodes.len() - 1)
    }

    fn lit(&mut self, v: Value) -> u32 {
        self.ir.lits.push(v);
        index(self.ir.lits.len() - 1)
    }

    fn name(&mut self, n: &Ident) -> u32 {
        self.ir.names.push(*n);
        index(self.ir.names.len() - 1)
    }

    /// Moves the list items pending above `mark` into one [`Ir::kids`]
    /// run.
    fn take_pending(&mut self, mark: usize) -> Seq {
        let start = self.ir.kids.len();
        self.ir.kids.extend(self.pending.drain(mark..));
        seq(start, self.ir.kids.len())
    }

    fn lower_list(&mut self, items: &[ExprId]) -> Seq {
        let mark = self.pending.len();
        for &e in items {
            let id = self.lower_expr(e);
            self.pending.push(id);
        }
        self.take_pending(mark)
    }

    fn lower_expr(&mut self, e: ExprId) -> NodeId {
        let ast = self.ast;
        let node = match &ast[e].kind {
            ExprKind::Lit(l) => Node::Lit(self.lit(match l {
                Lit::Int(n) => Value::Int(*n),
                Lit::Double(x) => Value::Double(*x),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Str(s) => Value::str(s),
                Lit::Unit => Value::Unit,
            })),
            ExprKind::ModeConst(m) => {
                // Numbered so snapshot/eliminate can map the produced
                // `Value::Mode` back to a dense id.
                self.mode_id(m);
                Node::ModeConst(self.lit(Value::Mode(m.clone())))
            }
            ExprKind::This => Node::This,
            ExprKind::Var(x) => match self.locals.iter().rposition(|n| n == x) {
                Some(i) => Node::Var {
                    slot: i as u32,
                    name: self.name(x),
                },
                None => Node::UnboundVar(self.name(x)),
            },
            ExprKind::Field { recv, name } => Node::Field {
                recv: self.lower_expr(*recv),
                field: self.field_id(*name),
                name: self.name(name),
            },
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => {
                let ctor_args = self.lower_list(&ast[*ctor_args]);
                let Some(cid) = self.class_id(class) else {
                    self.ir.unknown_classes.push(*class);
                    return self.push(Node::NewUnknown {
                        class: index(self.ir.unknown_classes.len() - 1),
                        ctor_args,
                    });
                };
                let n_params = self.decls[cid as usize].mode_params.bounds.len();
                let plan = match args.map(|a| &ast[a]) {
                    Some(margs) if margs.is_dynamic() => {
                        // Zip semantics: surplus arguments are dropped
                        // without ever being resolved.
                        let take = n_params.saturating_sub(1).min(margs.rest.len());
                        NewPlan::Dynamic {
                            rest: self.lower_modes(&margs.rest[..take]),
                        }
                    }
                    Some(margs) => {
                        let own = match &margs.mode {
                            Mode::Static(m) => Some(m),
                            Mode::Dynamic => None,
                        };
                        NewPlan::Static {
                            flat: self.lower_modes(own.into_iter().chain(&margs.rest)),
                        }
                    }
                    None => NewPlan::Default,
                };
                self.ir.news.push(LNew { class: cid, plan });
                Node::New {
                    new: index(self.ir.news.len() - 1),
                    ctor_args,
                }
            }
            ExprKind::Call {
                recv,
                method,
                mode_args,
                args,
            } => {
                let mark = self.pending.len();
                let recv = self.lower_expr(*recv);
                self.pending.push(recv);
                let method = self.method_id(*method);
                let mode_args = self.lower_modes(mode_args);
                for &a in &ast[*args] {
                    let id = self.lower_expr(a);
                    self.pending.push(id);
                }
                self.ir.sends.push(LSend { method, mode_args });
                Node::Call {
                    send: index(self.ir.sends.len() - 1),
                    recv_args: self.take_pending(mark),
                }
            }
            ExprKind::Builtin { ns, name, args } => {
                let mut op = builtin_op(self.spell(*ns), self.spell(*name));
                let mut args = &ast[*args];
                // `WorkKind::parse` is total, so a literal kind resolves
                // now and the call keeps only its units argument.
                if let Some(kind) = literal_work_kind(ast, op, args) {
                    op = BOp::SimWorkKind(kind);
                    args = &args[1..];
                }
                let name_at = self.name(ns);
                self.name(name);
                Node::Builtin {
                    op,
                    name: name_at,
                    args: self.lower_list(args),
                }
            }
            ExprKind::Cast { ty, expr } => {
                let check = match &ast[*ty] {
                    Type::Object { class, .. } if *class != ClassName::OBJECT => {
                        Some(match self.class_id(class) {
                            Some(cid) => CastCheck::Class(cid),
                            None => {
                                self.ir.unknown_classes.push(*class);
                                CastCheck::Unknown(index(self.ir.unknown_classes.len() - 1))
                            }
                        })
                    }
                    _ => None,
                };
                Node::Cast {
                    check,
                    expr: self.lower_expr(*expr),
                }
            }
            ExprKind::Snapshot { expr, lo, hi } => {
                let expr = self.lower_expr(*expr);
                let bounds = self.lower_modes([lo, hi]);
                Node::Snapshot {
                    expr,
                    bounds: bounds.start,
                }
            }
            ExprKind::MCase { ty: _, arms } => {
                let arms = &ast[*arms];
                let mark = self.pending.len();
                for (m, a) in arms {
                    self.mode_id(m);
                    let id = self.lower_expr(*a);
                    self.pending.push(id);
                }
                let modes = index(self.ir.arm_modes.len());
                self.ir
                    .arm_modes
                    .extend(arms.iter().map(|(m, _)| m.clone()));
                Node::MCase {
                    arms: self.take_pending(mark),
                    modes,
                }
            }
            ExprKind::Elim { expr, mode } => Node::Elim {
                expr: self.lower_expr(*expr),
                mode: mode.as_ref().map(|m| self.lower_modes([m]).start),
            },
            ExprKind::Binary { op, lhs, rhs } => Node::Binary {
                op: *op,
                lhs: self.lower_expr(*lhs),
                rhs: self.lower_expr(*rhs),
            },
            ExprKind::Unary { op, expr } => Node::Unary {
                op: *op,
                expr: self.lower_expr(*expr),
            },
            ExprKind::If { cond, then, els } => Node::If {
                cond: self.lower_expr(*cond),
                then: self.lower_expr(*then),
                els: match *els {
                    Some(e) => self.lower_expr(e),
                    None => NO_NODE,
                },
            },
            ExprKind::Block(stmts) => {
                let depth = self.locals.len();
                let mark = self.pending_stmts.len();
                for stmt in &ast[*stmts] {
                    let lowered = match stmt {
                        Stmt::Let { name, value, .. } => {
                            let v = self.lower_expr(*value);
                            self.locals.push(*name);
                            LStmt::Let(v)
                        }
                        Stmt::Expr(e) => LStmt::Expr(self.lower_expr(*e)),
                        Stmt::Return(e) => LStmt::Return(self.lower_expr(*e)),
                    };
                    self.pending_stmts.push(lowered);
                }
                self.locals.truncate(depth);
                let start = self.ir.stmts.len();
                self.ir.stmts.extend(self.pending_stmts.drain(mark..));
                Node::Block(seq(start, self.ir.stmts.len()))
            }
            ExprKind::Try { body, handler } => Node::Try {
                body: self.lower_expr(*body),
                handler: self.lower_expr(*handler),
            },
            ExprKind::ArrayLit(items) => Node::ArrayLit(self.lower_list(&ast[*items])),
        };
        self.push(node)
    }
}

/// The run of table entries `start..end`.
fn seq(start: usize, end: usize) -> Seq {
    Seq::new(index(start), end - start)
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::lower_program;

    /// Vtables and field tables are as wide as the method and field names
    /// the program declares, whatever else its name table holds: locals,
    /// parameters, classes, builtins, and names only called or read.
    #[test]
    fn table_strides_are_the_declared_member_names() {
        // `Main` comes first, so its reads and calls of undeclared names
        // are lowered before the other classes' tables are laid out.
        let src = "modes { low <= high; }
            class Main {
              int main() {
                let a = new A(1, 2);
                let unrelated = Math.max(3, 4);
                return a.get(unrelated) + a.missing(5) + a.nofield;
              }
            }
            class A { int x; int y; int get(int n) { return n + this.x; } int put(int v) { return v; } }
            class B extends A { int z; int get(int n) { return this.y + this.z; } int extra() { return 1; } }
            class C { int x; int w; int put(int v) { return v + this.w; } }";
        let compiled = ent_core::compile_unchecked(src).expect("the program parses");
        let lowered = lower_program(&compiled);
        // Declared: methods get, put, extra, main; fields x, y, z, w.
        assert_eq!(lowered.n_methods, 4);
        for layout in &lowered.classes {
            assert_eq!(layout.field_slot.len(), 4);
        }
        assert_eq!(lowered.vtables.len(), 4 * lowered.classes.len());
        assert!(compiled.program.names().len() > 4 + 4 + 10);
        // A name only called has an id past the stride.
        assert!(lowered.method_names.len() > 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random class forests, declared in random order so a subclass
        /// may come before its superclass, the pre-order intervals answer
        /// exactly what the class table's chain walk answers.
        #[test]
        fn subclass_intervals_agree_with_the_class_table(
            (picks, keys) in (1usize..24).prop_flat_map(|n| (
                proptest::collection::vec(any::<usize>(), n),
                proptest::collection::vec(any::<u32>(), n),
            ))
        ) {
            // Declaration order: the classes sorted by a random key.
            let mut order: Vec<usize> = (0..picks.len()).collect();
            order.sort_by_key(|&k| keys[k]);
            let mut src = String::new();
            for &k in &order {
                // Class `k` extends a lower-numbered class or `Object`.
                match picks[k] % (k + 1) {
                    p if p == k => src.push_str(&format!("class K{k} {{ }}\n")),
                    p => src.push_str(&format!("class K{k} extends K{p} {{ }}\n")),
                }
            }
            let compiled = ent_core::compile(&src).expect("class forests compile");
            let lowered = lower_program(&compiled);
            let names = compiled.table.class_names();
            for (ci, c) in names.iter().enumerate() {
                for (di, d) in names.iter().enumerate() {
                    prop_assert_eq!(
                        lowered.is_subclass_id(ci as u32, di as u32),
                        compiled.table.is_subclass(c, d),
                        "{} <: {} in\n{}", c, d, src
                    );
                }
            }
        }
    }
}
