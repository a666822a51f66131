//! Bytecode compilation: flattens lowered [`Node`] trees into the flat
//! register-machine code the [`crate::vm`] dispatch loop executes.
//!
//! The tree IR of [`crate::lower`] already resolved every name to a dense
//! index; what remains on the tree-walker's hot path is the *shape* of the
//! tree itself — one recursive `eval` activation, one node fetch and one
//! `Result` unwind per node. This pass linearizes each body once, on
//! first execution, into:
//!
//! * a flat `Vec<Instr>` of fixed-width instructions (a `u8` opcode plus
//!   `u16`/`u32` operand words) addressing a single per-frame register
//!   file: parameter and `let` slots first (the same slot numbers lowering
//!   assigned), scratch registers above them;
//! * a constant pool ([`Code::consts`]) holding literal values;
//! * side tables of per-site metadata (call sites, snapshot bounds, field
//!   ids, builtin descriptors), so the instruction stream itself stays
//!   small and cache-friendly.
//!
//! **Gas exactness.** The tree-walker charges one gas unit at every node
//! *entry*, pre-order, and the step counter is observable (it is part of
//! [`crate::RunStats`], of telemetry, and of the error state when a run
//! dies). The compiler therefore threads a `pending` gas account: entering
//! a node increments it, and the first instruction emitted for that
//! node's subtree carries the accumulated charges in [`Instr::gas`].
//! Because consecutive pending charges correspond to consecutive charges
//! in the tree-walker (nothing observable happens between a parent's
//! entry and its first child's entry), batching them preserves the step
//! counter exactly at every observable point — including the out-of-gas
//! boundary, where [`crate::interp`]'s batched checker clamps to
//! `gas_limit + 1` exactly as the one-at-a-time checker would have
//! reported. Charges that straddle an observable action (an operand read,
//! a force, a side effect) are *never* batched across it: fused
//! superinstructions carry a separate mid-instruction charge
//! ([`FusedBin::rgas`]) applied at the exact tree position.
//!
//! **Superinstructions.** Three fusions cover the measured hot pairs:
//!
//! * [`Op::BinF`] — load-slot/load-const + binop: a binary whose operands
//!   are frame slots or literals executes as one instruction (the operand
//!   descriptors live in a [`FusedBin`] site).
//! * [`Op::JmpBin`] / [`Op::JmpBinF`] — compare + branch: an `if` whose
//!   condition is a comparison branches directly on the comparison result
//!   without materializing the boolean or re-checking its type.
//! * [`Op::FieldThis`] / the `this_recv` call flavor — field-get and send
//!   on `this` skip the receiver register round-trip entirely.
//!
//! Inline-cache site ids are allocated from per-program atomic counters
//! ([`IcCounters`]) so every send / `mcase` / snapshot site owns one slot
//! in the per-run cache vectors (see `crate::vm`); ids only need to be
//! unique, not dense, so racing lazy compilations stay correct.

use std::sync::atomic::{AtomicU32, Ordering};

use ent_syntax::{BinOp, ClassName, Ident};

use crate::lower::{else_branch, BOp, CastCheck, Ir, LMode, LStmt, NewPlan, Node, NodeId, Seq};
use crate::value::Value;

/// Per-program inline-cache site counters; compiled bodies allocate their
/// site ids here so each site indexes a distinct slot of the per-run cache
/// vectors.
#[derive(Debug, Default)]
pub(crate) struct IcCounters {
    pub(crate) send: AtomicU32,
    pub(crate) arm: AtomicU32,
    pub(crate) snap: AtomicU32,
}

/// Opcodes. Operand conventions are given as `a`/`b`/`c` (`u16` words) and
/// `d` (`u32` word) of [`Instr`]; `dst`, `src`, and register operands index
/// the frame's register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// `dst=a ← consts[d]`.
    Const,
    /// `dst=a ← unit`.
    Unit,
    /// `dst=a ← this`.
    This,
    /// `dst=a ← locals[b]` (unbound-parameter check; name in `names[d]`).
    Local,
    /// Always errors: unbound variable `names[d]`.
    Unbound,
    /// `dst=a ← (regs[b]).field` via `fields[d]`.
    FieldGet,
    /// `dst=a ← this.field` via `fields[d]` (fused this + field-get).
    FieldThis,
    /// `dst=a ← new` with ctor args at `regs[b..]`, site `news[d]`.
    NewObj,
    /// Always errors: unknown class `unknown_classes[d]` (ctor args were
    /// evaluated into scratch first, as the tree-walker does).
    NewUnknown,
    /// `dst=a ← send` with receiver/args at `regs[b..]`, site `calls[d]`.
    CallM,
    /// `dst=a ← builtin` with args at `regs[b..]`, site `builtins[d]`.
    CallB,
    /// `dst=a ← cast(regs[b])` via `casts[d]`.
    CastV,
    /// `dst=a ← snapshot(regs[b])` via `snaps[d]`.
    Snap,
    /// `dst=a ← mcase` of arms at `regs[b..]`, site `mcases[d]`.
    MakeMCase,
    /// `dst=a ← eliminate(regs[b])` via `elims[d]`.
    ElimV,
    /// `dst=a ← regs[b] ⊕ regs[c]` with `⊕ = bin_op(d)` (rhs forced here;
    /// an explicit [`Op::Force`] precedes the rhs code when the lhs may be
    /// a mode case).
    Bin,
    /// Fused binop: `dst=a`, operands described by `fused[d]`.
    BinF,
    /// Fused compare+branch: `regs[a] ⊕ regs[b]` with `⊕ = bin_op(c)`;
    /// jump to `d` when false.
    JmpBin,
    /// Fused-operand compare+branch: operands from `fused[a]`; jump to
    /// `d` when false.
    JmpBinF,
    /// `dst=a ← ⊖ regs[b]` with `⊖` = `!` when `c == 0`, unary `-` when
    /// `c == 1`.
    Un,
    /// Unconditional jump to `d`.
    Jmp,
    /// Force `regs[b]`; jump to `d` unless it is `true` (the `if` guard).
    JmpIfFalse,
    /// Short-circuit guard: force `regs[b]` to a bool (op for the error
    /// message is `bin_op(c)`), store it back, jump to `d` when the op
    /// short-circuits (`&&` on false, `||` on true).
    ScJump,
    /// Force `regs[b]` to a bool (op `bin_op(c)`) and store it back (the
    /// non-short-circuit tail of `&&`/`||`).
    ScForce,
    /// Force `regs[b]` in place (auto-eliminate a mode case at the frame
    /// mode).
    Force,
    /// `dst=a ← [regs[b..b+c]]`.
    ArrLit,
    /// `return regs[b]` (unwinds to the method boundary).
    Ret,
    /// End of body: yield `regs[b]` as the body's value.
    Halt,
    /// Push an exception handler at pc `d`.
    TryPush,
    /// Pop the innermost handler (body completed without throwing).
    TryPop,
}

/// One fixed-width instruction. `gas` counts the pre-order node-entry
/// charges this instruction leads with (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Instr {
    pub(crate) op: Op,
    pub(crate) gas: u16,
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) c: u16,
    pub(crate) d: u32,
}

/// A fused binop operand: an already-materialized register, a frame slot
/// (read + unbound check + force in place), or a pool constant.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Opnd {
    Reg(u16),
    Slot { slot: u16, name: u32 },
    Cst(u16),
}

/// Site data for [`Op::BinF`] / [`Op::JmpBinF`]. `rgas` is the gas charge
/// for a fused rhs operand, applied *after* the lhs force (its exact
/// tree-walker position).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FusedBin {
    pub(crate) op: BinOp,
    pub(crate) lhs: Opnd,
    pub(crate) rhs: Opnd,
    pub(crate) rgas: u16,
}

/// Site data for field reads.
#[derive(Clone, Debug)]
pub(crate) struct FieldSite {
    pub(crate) field: u32,
    pub(crate) name: Ident,
}

/// Site data for `new` expressions.
#[derive(Debug)]
pub(crate) struct NewSite {
    pub(crate) class: u32,
    pub(crate) plan: NewPlan,
    pub(crate) n_args: u16,
}

/// Site data for sends.
#[derive(Debug)]
pub(crate) struct CallSite {
    pub(crate) method: u32,
    pub(crate) n_args: u16,
    /// The receiver is `this` (fused; no receiver register).
    pub(crate) this_recv: bool,
    /// The program's [`Ir::modes`] run.
    pub(crate) mode_args: Seq,
    /// Send inline-cache slot.
    pub(crate) ic: u32,
}

/// Site data for builtin calls.
#[derive(Clone, Debug)]
pub(crate) struct BuiltinSite {
    pub(crate) op: BOp,
    pub(crate) ns: Ident,
    pub(crate) name: Ident,
    pub(crate) n_args: u16,
    /// Force the last argument at call time (earlier arguments get
    /// explicit [`Op::Force`] instructions at their exact tree position).
    pub(crate) force_last: bool,
}

/// Site data for snapshots.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapSite {
    pub(crate) lo: LMode,
    pub(crate) hi: LMode,
    /// Snapshot mode-decision cache slot.
    pub(crate) ic: u32,
}

/// Site data for `<|` eliminations.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ElimSite {
    pub(crate) mode: Option<LMode>,
    /// Arm-selection inline-cache slot.
    pub(crate) ic: u32,
}

/// Site data for mode-case construction.
#[derive(Clone, Debug)]
pub(crate) struct McaseSite {
    /// The arms' modes, the program's [`Ir::arm_modes`] run.
    pub(crate) modes: Seq,
}

/// A compiled body: the instruction stream plus its side tables. Owned by
/// the lowered body it was compiled from (shared program-wide through the
/// `OnceLock` cell on [`crate::lower::Body`], so the batch engine's
/// program cache amortizes compilation exactly once).
#[derive(Debug, Default)]
pub(crate) struct Code {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) consts: Vec<Value>,
    /// Names for unbound-variable diagnostics, by `names` index.
    pub(crate) names: Vec<Ident>,
    pub(crate) fused: Vec<FusedBin>,
    pub(crate) fields: Vec<FieldSite>,
    pub(crate) news: Vec<NewSite>,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) builtins: Vec<BuiltinSite>,
    pub(crate) casts: Vec<Option<CastCheck>>,
    pub(crate) snaps: Vec<SnapSite>,
    pub(crate) elims: Vec<ElimSite>,
    pub(crate) mcases: Vec<McaseSite>,
    pub(crate) unknown_classes: Vec<ClassName>,
    /// Registers the frame needs: locals (parameters + deepest `let`
    /// nesting, at the slot numbers lowering assigned) then scratch.
    pub(crate) frame_size: u32,
}

impl Code {
    /// Empty tables with room for exactly the counted entries.
    fn with_sizes(s: &Sizes) -> Code {
        Code {
            instrs: Vec::with_capacity(s.instrs),
            consts: Vec::with_capacity(s.consts),
            names: Vec::with_capacity(s.names),
            fused: Vec::with_capacity(s.fused),
            fields: Vec::with_capacity(s.fields),
            news: Vec::with_capacity(s.news),
            calls: Vec::with_capacity(s.calls),
            builtins: Vec::with_capacity(s.builtins),
            casts: Vec::with_capacity(s.casts),
            snaps: Vec::with_capacity(s.snaps),
            elims: Vec::with_capacity(s.elims),
            mcases: Vec::with_capacity(s.mcases),
            unknown_classes: Vec::with_capacity(s.unknown_classes),
            frame_size: 0,
        }
    }
}

/// Compiles one lowered body (method, attributor, or field initializer),
/// the tree rooted at `root` in `ir`, whose frame starts with `n_base`
/// locals (the parameter count; zero for class attributors and
/// initializers). `None` when the body does not fit the instruction
/// format: a register, constant or site index, an argument or item count,
/// or a gas batch beyond `u16`. Such a body runs on the tree walker
/// instead.
pub(crate) fn compile_body(ir: &Ir, root: NodeId, n_base: u32, ic: &IcCounters) -> Option<Code> {
    // Pass 1 counts every table's entries and the deepest lexical `let`
    // depth, which fixes where scratch registers start; pass 2 fills the
    // tables, each allocated once at its final size.
    let sizes = Sizes::of(ir, root, n_base);
    let mut c = Compiler {
        ir,
        ic,
        code: Code::with_sizes(&sizes),
        pending: 0,
        let_depth: n_base,
        scratch: sizes.max_locals,
        max_reg: sizes.max_locals,
        overflow: false,
    };
    let dst = c.alloc_scratch();
    c.expr(root, dst);
    c.emit(Op::Halt, 0, dst, 0, 0);
    c.code.frame_size = c.max_reg;
    debug_assert!(
        sizes.matches(&c.code),
        "the counting pass disagrees with the compiler"
    );
    (!c.overflow).then_some(c.code)
}

/// How many entries each [`Code`] table of one body receives, and the
/// body's deepest `let` slot. [`Sizes::of`] mirrors [`Compiler::expr`]'s
/// emissions node for node.
#[derive(Debug, Default)]
struct Sizes {
    instrs: usize,
    consts: usize,
    names: usize,
    fused: usize,
    fields: usize,
    news: usize,
    calls: usize,
    builtins: usize,
    casts: usize,
    snaps: usize,
    elims: usize,
    mcases: usize,
    unknown_classes: usize,
    /// Locals the frame needs: parameters plus the deepest `let` nesting.
    max_locals: u32,
}

impl Sizes {
    fn of(ir: &Ir, root: NodeId, n_base: u32) -> Sizes {
        let mut sizes = Sizes {
            max_locals: n_base,
            ..Sizes::default()
        };
        sizes.expr(ir, root, n_base);
        sizes.instrs += 1; // Halt
        sizes
    }

    /// Whether `code` holds exactly the counted entries.
    fn matches(&self, code: &Code) -> bool {
        let counted = [
            self.instrs,
            self.consts,
            self.names,
            self.fused,
            self.fields,
            self.news,
            self.calls,
            self.builtins,
            self.casts,
            self.snaps,
            self.elims,
            self.mcases,
            self.unknown_classes,
        ];
        let filled = [
            code.instrs.len(),
            code.consts.len(),
            code.names.len(),
            code.fused.len(),
            code.fields.len(),
            code.news.len(),
            code.calls.len(),
            code.builtins.len(),
            code.casts.len(),
            code.snaps.len(),
            code.elims.len(),
            code.mcases.len(),
            code.unknown_classes.len(),
        ];
        counted == filled
    }

    /// Counts node `e` at lexical `let` depth `depth`.
    fn expr(&mut self, ir: &Ir, e: NodeId, depth: u32) {
        match ir.node(e) {
            Node::Lit(_) | Node::ModeConst(_) => {
                self.consts += 1;
                self.instrs += 1;
            }
            Node::This => self.instrs += 1,
            Node::Var { .. } | Node::UnboundVar(_) => {
                self.names += 1;
                self.instrs += 1;
            }
            Node::Field { recv, .. } => {
                self.fields += 1;
                self.instrs += 1;
                if !matches!(ir.node(recv), Node::This) {
                    self.expr(ir, recv, depth);
                }
            }
            Node::New { ctor_args, .. } => {
                self.news += 1;
                self.instrs += 1;
                self.all(ir, ctor_args, depth);
            }
            Node::NewUnknown { ctor_args, .. } => {
                self.unknown_classes += 1;
                self.instrs += 1;
                self.all(ir, ctor_args, depth);
            }
            Node::Call { recv_args, .. } => {
                self.calls += 1;
                self.instrs += 1;
                let (&recv, args) = ir
                    .kids(recv_args)
                    .split_first()
                    .expect("a call has a receiver");
                if !matches!(ir.node(recv), Node::This) {
                    self.expr(ir, recv, depth);
                }
                for &a in args {
                    self.expr(ir, a, depth);
                }
            }
            Node::Builtin { args, .. } => {
                self.builtins += 1;
                self.instrs += 1;
                let args = ir.kids(args);
                for (i, &a) in args.iter().enumerate() {
                    self.expr(ir, a, depth);
                    if i + 1 < args.len() && maybe_mcase(ir, a) {
                        self.instrs += 1; // Force
                    }
                }
            }
            Node::Cast { expr, .. } => {
                self.casts += 1;
                self.instrs += 1;
                self.expr(ir, expr, depth);
            }
            Node::Snapshot { expr, .. } => {
                self.snaps += 1;
                self.instrs += 1;
                self.expr(ir, expr, depth);
            }
            Node::Elim { expr, .. } => {
                self.elims += 1;
                self.instrs += 1;
                self.expr(ir, expr, depth);
            }
            Node::Unary { expr, .. } => {
                self.instrs += 1;
                self.expr(ir, expr, depth);
            }
            Node::MCase { arms, .. } => {
                self.mcases += 1;
                self.instrs += 1;
                self.all(ir, arms, depth);
            }
            Node::Binary { op, lhs, rhs } => self.binary(ir, op, lhs, rhs, depth),
            Node::If { cond, then, els } => {
                match ir.node(cond) {
                    Node::Binary { op, lhs, rhs } if is_cmp(op) => {
                        self.binary(ir, op, lhs, rhs, depth)
                    }
                    _ => {
                        self.expr(ir, cond, depth);
                        self.instrs += 1; // JmpIfFalse
                    }
                }
                self.expr(ir, then, depth);
                self.instrs += 1; // Jmp
                match else_branch(els) {
                    Some(els) => self.expr(ir, els, depth),
                    None => self.instrs += 1, // Unit
                }
            }
            Node::Block(stmts) => {
                // Mirrors lowering: each `let` claims the next slot for the
                // rest of the block; sibling blocks reuse the same depths.
                let stmts = ir.stmts(stmts);
                let mut d = depth;
                for &stmt in stmts {
                    match stmt {
                        LStmt::Let(v) => {
                            self.expr(ir, v, d);
                            d += 1;
                            self.max_locals = self.max_locals.max(d);
                        }
                        LStmt::Expr(e) => self.expr(ir, e, d),
                        LStmt::Return(e) => {
                            self.expr(ir, e, d);
                            self.instrs += 1; // Ret
                        }
                    }
                }
                if !matches!(stmts.last(), Some(LStmt::Expr(_))) {
                    self.instrs += 1; // Unit
                }
            }
            Node::Try { body, handler } => {
                self.instrs += 3; // TryPush, TryPop, Jmp
                self.expr(ir, body, depth);
                self.expr(ir, handler, depth);
            }
            Node::ArrayLit(items) => {
                self.instrs += 1;
                self.all(ir, items, depth);
            }
        }
    }

    fn all(&mut self, ir: &Ir, es: Seq, depth: u32) {
        for &e in ir.kids(es) {
            self.expr(ir, e, depth);
        }
    }

    /// Counts a binary operator as [`Compiler::binary`] compiles it, its
    /// branch form included.
    fn binary(&mut self, ir: &Ir, op: BinOp, lhs: NodeId, rhs: NodeId, depth: u32) {
        if matches!(op, BinOp::And | BinOp::Or) {
            self.instrs += 2; // ScJump, ScForce
            self.expr(ir, lhs, depth);
            self.expr(ir, rhs, depth);
            return;
        }
        let lhs_fusable = fusable(ir, lhs);
        if fusable(ir, rhs) && (lhs_fusable || !matches!(ir.node(lhs), Node::Binary { .. })) {
            self.fused += 1;
            self.instrs += 1; // BinF or JmpBinF
            if lhs_fusable {
                self.operand(ir, lhs);
            } else {
                self.expr(ir, lhs, depth);
            }
            self.operand(ir, rhs);
            return;
        }
        self.instrs += 1; // Bin or JmpBin
        self.expr(ir, lhs, depth);
        if maybe_mcase(ir, lhs) {
            self.instrs += 1; // Force
        }
        self.expr(ir, rhs, depth);
    }

    /// Counts a fused operand: a name or a constant, no op.
    fn operand(&mut self, ir: &Ir, e: NodeId) {
        match ir.node(e) {
            Node::Var { .. } => self.names += 1,
            _ => self.consts += 1,
        }
    }
}

struct Compiler<'a> {
    ir: &'a Ir,
    ic: &'a IcCounters,
    code: Code,
    /// Node-entry gas charges accumulated since the last emission; the
    /// next emitted instruction leads with them.
    pending: u32,
    /// Current lexical `let` depth = the slot the next `let` binds.
    let_depth: u32,
    /// Next free scratch register.
    scratch: u32,
    max_reg: u32,
    /// Some operand word did not fit its `u16` field (see [`Compiler::narrow`]).
    overflow: bool,
}

/// Every binary operator, in declaration order: [`Op::Bin`],
/// [`Op::JmpBin`], [`Op::ScJump`] and [`Op::ScForce`] name their operator
/// by its index here.
const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

/// The operand word naming `op`.
fn bin_word(op: BinOp) -> u16 {
    op as u16
}

/// The operator an operand word names.
pub(crate) fn bin_op(word: impl Into<u32>) -> BinOp {
    BIN_OPS[word.into() as usize]
}

/// Comparison operators: safe to fuse into a branch (the result is always
/// a bool, so the `if` guard's bool check cannot fire).
fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

/// Whether an expression's value can be a mode case, used to place the
/// implicit-projection forces the tree-walker applies to binop operands
/// and builtin arguments. Conservative: unknown shapes answer `true`.
fn maybe_mcase(ir: &Ir, e: NodeId) -> bool {
    match ir.node(e) {
        Node::Lit(_)
        | Node::ModeConst(_)
        | Node::This
        | Node::New { .. }
        | Node::NewUnknown { .. }
        | Node::Snapshot { .. }
        | Node::Binary { .. }
        | Node::Unary { .. }
        | Node::ArrayLit(_)
        | Node::UnboundVar(_) => false,
        Node::Cast { expr, .. } => maybe_mcase(ir, expr),
        Node::If { then, els, .. } => {
            maybe_mcase(ir, then) || else_branch(els).is_some_and(|els| maybe_mcase(ir, els))
        }
        Node::Try { body, handler } => maybe_mcase(ir, body) || maybe_mcase(ir, handler),
        Node::Block(stmts) => match ir.stmts(stmts).last() {
            Some(&LStmt::Expr(e)) => maybe_mcase(ir, e),
            _ => false,
        },
        // Var, Field, Call, Builtin (Arr.get of mode cases), Elim (nested
        // cases), MCase.
        _ => true,
    }
}

/// Whether an expression is a fusable binop operand (a leaf that costs
/// exactly one gas charge and cannot have side effects).
fn fusable(ir: &Ir, e: NodeId) -> bool {
    matches!(ir.node(e), Node::Var { .. } | Node::Lit(_))
}

impl Compiler<'_> {
    /// Narrows an operand word to its `u16` field. A value that does not
    /// fit marks the body as not compilable (see [`compile_body`]).
    fn narrow(&mut self, n: usize) -> u16 {
        u16::try_from(n).unwrap_or_else(|_| {
            self.overflow = true;
            0
        })
    }

    fn reg(&mut self, r: u32) -> u16 {
        self.narrow(r as usize)
    }

    fn alloc_scratch(&mut self) -> u16 {
        let r = self.scratch;
        self.scratch += 1;
        self.max_reg = self.max_reg.max(self.scratch);
        self.reg(r)
    }

    /// Emits one instruction, draining the pending node-entry gas into it.
    fn emit(&mut self, op: Op, a: u16, b: u16, c: u16, d: u32) -> usize {
        let gas = self.narrow(self.pending as usize);
        self.pending = 0;
        let at = self.code.instrs.len();
        self.code.instrs.push(Instr {
            op,
            gas,
            a,
            b,
            c,
            d,
        });
        at
    }

    fn patch(&mut self, at: usize) {
        self.code.instrs[at].d = self.code.instrs.len() as u32;
    }

    /// Pools the literal `lit` (an [`Ir::lits`] index).
    fn const_idx(&mut self, lit: u32) -> u16 {
        let i = self.code.consts.len();
        self.code.consts.push(self.ir.lits[lit as usize].clone());
        self.narrow(i)
    }

    /// Pools the name `name` (an [`Ir::names`] index).
    fn name_idx(&mut self, name: u32) -> u32 {
        let i = self.code.names.len();
        self.code.names.push(self.ir.names[name as usize].clone());
        i as u32
    }

    /// Builds the operand descriptor for a fusable leaf, accounting its
    /// one gas charge to the caller's chosen position.
    fn make_opnd(&mut self, e: NodeId) -> Opnd {
        match self.ir.node(e) {
            Node::Var { slot, name } => Opnd::Slot {
                slot: self.reg(slot),
                name: self.name_idx(name),
            },
            Node::Lit(v) => Opnd::Cst(self.const_idx(v)),
            _ => unreachable!("fusable() guards operand shapes"),
        }
    }

    /// Compiles node `e`, leaving its value in register `dst`. `dst` is
    /// written only as the final action on every path, so it may alias a
    /// live `let` slot.
    fn expr(&mut self, e: NodeId, dst: u16) {
        // The tree-walker charges one gas at every node entry; the first
        // instruction this subtree emits carries it.
        self.pending += 1;
        let ir = self.ir;
        match ir.node(e) {
            Node::Lit(v) | Node::ModeConst(v) => {
                let k = self.const_idx(v);
                self.emit(Op::Const, dst, 0, 0, u32::from(k));
            }
            Node::This => {
                self.emit(Op::This, dst, 0, 0, 0);
            }
            Node::Var { slot, name } => {
                let n = self.name_idx(name);
                let slot = self.reg(slot);
                self.emit(Op::Local, dst, slot, 0, n);
            }
            Node::UnboundVar(name) => {
                let n = self.name_idx(name);
                self.emit(Op::Unbound, 0, 0, 0, n);
            }
            Node::Field { recv, field, name } => {
                let site = self.code.fields.len() as u32;
                self.code.fields.push(FieldSite {
                    field,
                    name: ir.names[name as usize].clone(),
                });
                if matches!(ir.node(recv), Node::This) {
                    self.pending += 1; // the fused `this` node
                    self.emit(Op::FieldThis, dst, 0, 0, site);
                } else {
                    let mark = self.scratch;
                    let r = self.alloc_scratch();
                    self.expr(recv, r);
                    self.emit(Op::FieldGet, dst, r, 0, site);
                    self.scratch = mark;
                }
            }
            Node::New { new, ctor_args } => {
                let mark = self.scratch;
                let base = self.args_into_scratch(ctor_args);
                let site = self.code.news.len() as u32;
                let n_args = self.narrow(ctor_args.len());
                let new = ir.news[new as usize];
                self.code.news.push(NewSite {
                    class: new.class,
                    plan: new.plan,
                    n_args,
                });
                let base = self.reg(base);
                self.emit(Op::NewObj, dst, base, 0, site);
                self.scratch = mark;
            }
            Node::NewUnknown { class, ctor_args } => {
                let mark = self.scratch;
                for &a in ir.kids(ctor_args) {
                    let r = self.alloc_scratch();
                    self.expr(a, r);
                }
                let site = self.code.unknown_classes.len() as u32;
                self.code
                    .unknown_classes
                    .push(ir.unknown_classes[class as usize].clone());
                self.emit(Op::NewUnknown, 0, 0, 0, site);
                self.scratch = mark;
            }
            Node::Call { send, recv_args } => {
                let mark = self.scratch;
                let (&recv, args) = ir
                    .kids(recv_args)
                    .split_first()
                    .expect("a call has a receiver");
                let this_recv = matches!(ir.node(recv), Node::This);
                let base = self.scratch;
                let n_regs = args.len() as u32 + u32::from(!this_recv);
                for _ in 0..n_regs {
                    self.alloc_scratch();
                }
                let arg_base = if this_recv {
                    self.pending += 1; // the fused `this` node
                    base
                } else {
                    let r = self.reg(base);
                    self.expr(recv, r);
                    base + 1
                };
                for (i, &a) in args.iter().enumerate() {
                    let r = self.reg(arg_base + i as u32);
                    self.expr(a, r);
                }
                let site = self.code.calls.len() as u32;
                let n_args = self.narrow(args.len());
                let send = ir.sends[send as usize];
                self.code.calls.push(CallSite {
                    method: send.method,
                    n_args,
                    this_recv,
                    mode_args: send.mode_args,
                    ic: self.ic.send.fetch_add(1, Ordering::Relaxed),
                });
                let base = self.reg(base);
                self.emit(Op::CallM, dst, base, 0, site);
                self.scratch = mark;
            }
            Node::Builtin { op, name, args } => {
                let mark = self.scratch;
                let base = self.scratch;
                let args = ir.kids(args);
                for _ in args {
                    self.alloc_scratch();
                }
                if matches!(op, BOp::SimWorkKind(_)) {
                    self.pending += 1; // the resolved kind literal
                }
                let n = args.len();
                let mut force_last = false;
                for (i, &a) in args.iter().enumerate() {
                    let r = self.reg(base + i as u32);
                    self.expr(a, r);
                    if maybe_mcase(ir, a) {
                        if i + 1 == n {
                            // Nothing observable sits between the last
                            // argument's force and the builtin itself.
                            force_last = true;
                        } else {
                            self.emit(Op::Force, 0, r, 0, 0);
                        }
                    }
                }
                let site = self.code.builtins.len() as u32;
                let n_args = self.narrow(n);
                let (ns, name) = ir.builtin_name(name);
                self.code.builtins.push(BuiltinSite {
                    op,
                    ns: ns.clone(),
                    name: name.clone(),
                    n_args,
                    force_last,
                });
                let base = self.reg(base);
                self.emit(Op::CallB, dst, base, 0, site);
                self.scratch = mark;
            }
            Node::Cast { check, expr } => {
                self.expr(expr, dst);
                let site = self.code.casts.len() as u32;
                self.code.casts.push(check);
                self.emit(Op::CastV, dst, dst, 0, site);
            }
            Node::Snapshot { expr, bounds } => {
                self.expr(expr, dst);
                let site = self.code.snaps.len() as u32;
                let b = bounds as usize;
                self.code.snaps.push(SnapSite {
                    lo: ir.modes[b],
                    hi: ir.modes[b + 1],
                    ic: self.ic.snap.fetch_add(1, Ordering::Relaxed),
                });
                self.emit(Op::Snap, dst, dst, 0, site);
            }
            Node::MCase { arms, modes } => {
                let mark = self.scratch;
                let base = self.args_into_scratch(arms);
                let site = self.code.mcases.len() as u32;
                self.code.mcases.push(McaseSite {
                    modes: Seq::new(modes, arms.len()),
                });
                let base = self.reg(base);
                self.emit(Op::MakeMCase, dst, base, 0, site);
                self.scratch = mark;
            }
            Node::Elim { expr, mode } => {
                self.expr(expr, dst);
                let site = self.code.elims.len() as u32;
                self.code.elims.push(ElimSite {
                    mode: mode.map(|m| ir.modes[m as usize]),
                    ic: self.ic.arm.fetch_add(1, Ordering::Relaxed),
                });
                self.emit(Op::ElimV, dst, dst, 0, site);
            }
            Node::Binary { op, lhs, rhs } => {
                self.binary(op, lhs, rhs, dst, None);
            }
            Node::Unary { op, expr } => {
                self.expr(expr, dst);
                let c = match op {
                    ent_syntax::UnOp::Not => 0,
                    ent_syntax::UnOp::Neg => 1,
                };
                self.emit(Op::Un, dst, dst, c, 0);
            }
            Node::If { cond, then, els } => {
                let to_else = self.cond_jump(cond);
                self.expr(then, dst);
                let to_end = self.emit(Op::Jmp, 0, 0, 0, 0);
                self.patch(to_else);
                match else_branch(els) {
                    Some(els) => self.expr(els, dst),
                    None => {
                        self.emit(Op::Unit, dst, 0, 0, 0);
                    }
                }
                self.patch(to_end);
            }
            Node::Block(stmts) => {
                let depth_mark = self.let_depth;
                let stmts = ir.stmts(stmts);
                let last_is_expr = matches!(stmts.last(), Some(LStmt::Expr(_)));
                let n = stmts.len();
                for (i, &stmt) in stmts.iter().enumerate() {
                    match stmt {
                        LStmt::Let(v) => {
                            let slot = self.reg(self.let_depth);
                            self.expr(v, slot);
                            self.let_depth += 1;
                        }
                        LStmt::Expr(e) => {
                            if i + 1 == n {
                                self.expr(e, dst);
                            } else {
                                let mark = self.scratch;
                                let r = self.alloc_scratch();
                                self.expr(e, r);
                                self.scratch = mark;
                            }
                        }
                        LStmt::Return(e) => {
                            let mark = self.scratch;
                            let r = self.alloc_scratch();
                            self.expr(e, r);
                            self.emit(Op::Ret, 0, r, 0, 0);
                            self.scratch = mark;
                        }
                    }
                }
                if !last_is_expr {
                    self.emit(Op::Unit, dst, 0, 0, 0);
                }
                self.let_depth = depth_mark;
            }
            Node::Try { body, handler } => {
                let push_at = self.emit(Op::TryPush, 0, 0, 0, 0);
                self.expr(body, dst);
                self.emit(Op::TryPop, 0, 0, 0, 0);
                let to_end = self.emit(Op::Jmp, 0, 0, 0, 0);
                self.patch(push_at); // handler starts here
                self.expr(handler, dst);
                self.patch(to_end);
            }
            Node::ArrayLit(items) => {
                let mark = self.scratch;
                let base = self.args_into_scratch(items);
                let base = self.reg(base);
                let n = self.narrow(items.len());
                self.emit(Op::ArrLit, dst, base, n, 0);
                self.scratch = mark;
            }
        }
    }

    /// Claims one scratch register per item of `items`, then compiles each
    /// item into its register, in order; returns the first register.
    fn args_into_scratch(&mut self, items: Seq) -> u32 {
        let base = self.scratch;
        for _ in 0..items.len() {
            self.alloc_scratch();
        }
        for (i, &a) in self.ir.kids(items).iter().enumerate() {
            let r = self.reg(base + i as u32);
            self.expr(a, r);
        }
        base
    }

    /// Compiles a binary operator. With `branch_false: Some(..)` the op is
    /// a comparison compiled as a fused compare+branch; the returned index
    /// is then the branch instruction to patch. The caller has already
    /// accounted the *enclosing* node's gas; this accounts the binop node
    /// and its fused operands.
    fn binary(
        &mut self,
        op: BinOp,
        lhs: NodeId,
        rhs: NodeId,
        dst: u16,
        branch_false: Option<()>,
    ) -> usize {
        if matches!(op, BinOp::And | BinOp::Or) {
            debug_assert!(branch_false.is_none());
            self.expr(lhs, dst);
            let sc = self.emit(Op::ScJump, 0, dst, bin_word(op), 0);
            self.expr(rhs, dst);
            self.emit(Op::ScForce, 0, dst, bin_word(op), 0);
            self.patch(sc);
            return sc;
        }

        let ir = self.ir;
        let lhs_fusable = fusable(ir, lhs);
        let rhs_fusable = fusable(ir, rhs);
        // Fused operands evaluate *inside* the instruction; the lhs must
        // never execute after the rhs, so a fused lhs pairs only with a
        // fused rhs.
        if rhs_fusable && (lhs_fusable || !matches!(ir.node(lhs), Node::Binary { .. })) {
            let (l, rgas) = if lhs_fusable {
                self.pending += 1; // the fused lhs leaf's gas, charged up front
                (self.make_opnd(lhs), 1)
            } else {
                let mark = self.scratch;
                let r = self.alloc_scratch();
                self.expr(lhs, r);
                self.scratch = mark;
                // The lhs force happens inside the fused instruction,
                // before the rhs gas — its exact tree position.
                (Opnd::Reg(r), 1)
            };
            let r = self.make_opnd(rhs);
            let site = self.code.fused.len() as u32;
            self.code.fused.push(FusedBin {
                op,
                lhs: l,
                rhs: r,
                rgas,
            });
            return match branch_false {
                Some(()) => {
                    let site = self.narrow(site as usize);
                    self.emit(Op::JmpBinF, site, 0, 0, 0)
                }
                None => self.emit(Op::BinF, dst, 0, 0, site),
            };
        }

        // General form: both operands materialize into registers; the lhs
        // force precedes the rhs code when the lhs may be a mode case.
        let mark = self.scratch;
        let rl = self.alloc_scratch();
        let rr = self.alloc_scratch();
        self.expr(lhs, rl);
        if maybe_mcase(ir, lhs) {
            self.emit(Op::Force, 0, rl, 0, 0);
        }
        self.expr(rhs, rr);
        self.scratch = mark;
        match branch_false {
            Some(()) => self.emit(Op::JmpBin, rl, rr, bin_word(op), 0),
            None => self.emit(Op::Bin, dst, rl, rr, u32::from(bin_word(op))),
        }
    }

    /// Compiles an `if` condition, returning the branch instruction to
    /// patch to the else target. Comparisons fuse into the branch; other
    /// shapes materialize and test.
    fn cond_jump(&mut self, cond: NodeId) -> usize {
        if let Node::Binary { op, lhs, rhs } = self.ir.node(cond) {
            if is_cmp(op) {
                self.pending += 1; // the condition binop's node gas
                return self.binary(op, lhs, rhs, 0, Some(()));
            }
        }
        let mark = self.scratch;
        let r = self.alloc_scratch();
        self.expr(cond, r);
        self.scratch = mark;
        self.emit(Op::JmpIfFalse, 0, r, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operator_round_trips_through_its_operand_word() {
        for (i, &op) in BIN_OPS.iter().enumerate() {
            assert_eq!(usize::from(bin_word(op)), i, "{op}");
            assert_eq!(bin_op(bin_word(op)), op);
        }
    }
}
