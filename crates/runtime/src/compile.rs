//! Bytecode compilation: flattens a lowered body's [`Node`] tree, once,
//! into the flat array of threaded ops ([`TOp`]) that the executor in
//! `crate::interp::threaded` runs.
//!
//! The tree IR of [`crate::lower`] already resolved every name to a dense
//! index; what remains on the tree-walker's hot path is the *shape* of the
//! tree itself — one recursive `eval` activation, one node fetch and one
//! `Result` unwind per node. This pass linearizes each body once, on
//! first execution, into:
//!
//! * [`Code::ops`], one 32-byte op per action: the handler that performs
//!   it, chosen here at emit time, plus `u32` operand words addressing a
//!   single per-frame register file (parameter and `let` slots first, at
//!   the slot numbers lowering assigned, scratch registers above them);
//! * a constant pool ([`Code::consts`]) holding literal values;
//! * side tables of per-site metadata (call sites, snapshot bounds, field
//!   ids, builtin descriptors), so the op array itself stays small and
//!   cache-friendly.
//!
//! Every body compiles: each operand word is as wide as the index it
//! holds (registers, pool and site indices, counts and gas batches all
//! count nodes of one body, which [`crate::lower`] addresses with `u32`).
//! Names stay in the program's [`Ir::names`]; ops and sites carry their
//! indices, which only error messages resolve.
//!
//! **Registers.** A left-nested operator chain (`a + b + c + …`, the
//! shape the parser builds for a long sum) compiles its lhs straight
//! into the destination when that is a scratch register, and claims the
//! rhs register only after the lhs is compiled, so the chain needs two
//! scratch registers however long it is.
//!
//! **Gas exactness.** The tree-walker charges one gas unit at every node
//! *entry*, pre-order, and the step counter is observable (it is part of
//! [`crate::RunStats`], of telemetry, and of the error state when a run
//! dies). The compiler therefore threads a `pending` gas account: entering
//! a node increments it, and the first op emitted for that node's
//! subtree carries the accumulated charges in [`TOp::gas`]. Because
//! consecutive pending charges correspond to consecutive charges in the
//! tree-walker (nothing observable happens between a parent's entry and
//! its first child's entry), batching them preserves the step counter
//! exactly at every observable point — including the out-of-gas
//! boundary, where [`crate::interp`]'s batched checker clamps to
//! `gas_limit + 1` exactly as the one-at-a-time checker would have
//! reported. Charges that straddle an observable action (an operand read,
//! a force, a side effect) are *never* batched across it: a fused binop
//! charges its rhs leaf's one unit between its operand reads, the exact
//! tree position.
//!
//! **Superinstructions.** Four shapes run as one op:
//!
//! * fused binops — a binary whose operands are frame slots or literals
//!   reads them inside the op (their kinds packed in [`TOp::kinds`],
//!   their [`Ir::names`] indices for error messages in [`Code::fused`]);
//! * compare + branch — an `if` whose condition is a comparison branches
//!   directly on the comparison result without materializing the boolean
//!   or re-checking its type;
//! * field reads and sends on `this` skip the receiver register;
//! * a tail self-send — a `this` send with no mode arguments whose result
//!   a gasless `return` consumes — gets the eliding send handler, decided
//!   when the `return` is emitted.
//!
//! Inline-cache site ids are allocated from per-program atomic counters
//! ([`IcCounters`]) so every send / `mcase` / snapshot site owns one slot
//! in the per-run cache vectors; ids only need to be unique, not dense,
//! so racing lazy compilations stay correct.

use std::sync::atomic::{AtomicU32, Ordering};

use ent_syntax::{BinOp, ClassName};

use crate::interp::threaded::{
    op_arr_lit, op_bin_f_for, op_bin_for, op_call_b, op_call_m, op_cast, op_const, op_elim,
    op_field_get, op_field_this, op_force, op_halt, op_jmp, op_jmp_bin_f_for, op_jmp_bin_for,
    op_jmp_if_false, op_local, op_make_mcase, op_new_obj, op_new_unknown, op_ret, op_sc_force,
    op_sc_jump, op_snap, op_tail_call, op_this, op_try_pop, op_try_push, op_un, op_unbound,
    op_unit, TFn, TOp, K_CST, K_REG, K_SLOT,
};
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

/// Site data for field reads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FieldSite {
    pub(crate) field: u32,
    /// The field's name, an [`Ir::names`] index.
    pub(crate) name: u32,
}

/// Site data for `new` expressions.
#[derive(Debug)]
pub(crate) struct NewSite {
    pub(crate) class: u32,
    pub(crate) plan: NewPlan,
    pub(crate) n_args: u32,
}

/// Site data for sends.
#[derive(Debug)]
pub(crate) struct CallSite {
    pub(crate) method: u32,
    pub(crate) n_args: u32,
    /// The receiver is `this` (fused; no receiver register).
    pub(crate) this_recv: bool,
    /// The program's [`Ir::modes`] run.
    pub(crate) mode_args: Seq,
    /// Send inline-cache slot.
    pub(crate) ic: u32,
}

/// Site data for builtin calls.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BuiltinSite {
    pub(crate) op: BOp,
    /// The builtin's namespace and name, as [`Ir::builtin_name`] reads
    /// them.
    pub(crate) name: u32,
    pub(crate) n_args: u32,
    /// Force the last argument at call time (earlier arguments get
    /// explicit force ops at their exact tree position).
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

/// A compiled body: the op array plus its side tables. Owned by the
/// lowered body it was compiled from (shared program-wide through the
/// `OnceLock` cell on [`crate::lower::Body`], so the batch engine's
/// program cache amortizes compilation exactly once). Every table is
/// allocated at its exact size, so each is a boxed slice: 16 bytes inline
/// where a `Vec` takes 24.
#[derive(Debug)]
pub(crate) struct Code {
    pub(crate) ops: Box<[TOp]>,
    pub(crate) consts: Box<[Value]>,
    /// A fused binop's lhs and rhs operand names, as [`Ir::names`]
    /// indices (meaningful for slot operands only).
    pub(crate) fused: Box<[[u32; 2]]>,
    pub(crate) fields: Box<[FieldSite]>,
    pub(crate) news: Box<[NewSite]>,
    pub(crate) calls: Box<[CallSite]>,
    pub(crate) builtins: Box<[BuiltinSite]>,
    pub(crate) casts: Box<[Option<CastCheck>]>,
    pub(crate) snaps: Box<[SnapSite]>,
    pub(crate) elims: Box<[ElimSite]>,
    pub(crate) mcases: Box<[McaseSite]>,
    pub(crate) unknown_classes: Box<[ClassName]>,
    /// Registers the frame needs: locals (parameters + deepest `let`
    /// nesting, at the slot numbers lowering assigned) then scratch.
    pub(crate) frame_size: u32,
}

/// [`Code`]'s tables while the compiler fills them.
struct Tables {
    ops: Vec<TOp>,
    consts: Vec<Value>,
    fused: Vec<[u32; 2]>,
    fields: Vec<FieldSite>,
    news: Vec<NewSite>,
    calls: Vec<CallSite>,
    builtins: Vec<BuiltinSite>,
    casts: Vec<Option<CastCheck>>,
    snaps: Vec<SnapSite>,
    elims: Vec<ElimSite>,
    mcases: Vec<McaseSite>,
    unknown_classes: Vec<ClassName>,
}

impl Tables {
    /// Empty tables with room for exactly the counted entries.
    fn with_sizes(s: &Sizes) -> Tables {
        Tables {
            ops: Vec::with_capacity(s.ops),
            consts: Vec::with_capacity(s.consts),
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
        }
    }

    /// The finished body. A table filled to its counted size converts
    /// without reallocating.
    fn finish(self, frame_size: u32) -> Code {
        Code {
            ops: self.ops.into_boxed_slice(),
            consts: self.consts.into_boxed_slice(),
            fused: self.fused.into_boxed_slice(),
            fields: self.fields.into_boxed_slice(),
            news: self.news.into_boxed_slice(),
            calls: self.calls.into_boxed_slice(),
            builtins: self.builtins.into_boxed_slice(),
            casts: self.casts.into_boxed_slice(),
            snaps: self.snaps.into_boxed_slice(),
            elims: self.elims.into_boxed_slice(),
            mcases: self.mcases.into_boxed_slice(),
            unknown_classes: self.unknown_classes.into_boxed_slice(),
            frame_size,
        }
    }
}

/// Compiles one lowered body (method, attributor, or field initializer),
/// the tree rooted at `root` in `ir`, whose frame starts with `n_base`
/// locals (the parameter count; zero for class attributors and
/// initializers). Every body compiles, whatever its size.
pub(crate) fn compile_body(ir: &Ir, root: NodeId, n_base: u32, ic: &IcCounters) -> Code {
    // Pass 1 counts every table's entries and the deepest lexical `let`
    // depth, which fixes where scratch registers start; pass 2 fills the
    // tables, each allocated once at its final size.
    let sizes = Sizes::of(ir, root, n_base);
    let mut c = Compiler {
        ir,
        ic,
        code: Tables::with_sizes(&sizes),
        pending: 0,
        let_depth: n_base,
        scratch_lo: sizes.max_locals,
        scratch: sizes.max_locals,
        max_reg: sizes.max_locals,
        tail_send: None,
    };
    let dst = c.alloc_scratch();
    c.expr(root, dst);
    c.emit(op_halt, 0, dst, 0, 0);
    let code = c.code.finish(c.max_reg);
    debug_assert!(
        sizes.matches(&code),
        "the counting pass disagrees with the compiler"
    );
    code
}

/// How many entries each [`Code`] table of one body receives, and the
/// body's deepest `let` slot. [`Sizes::of`] mirrors [`Compiler::expr`]'s
/// emissions node for node.
#[derive(Debug, Default)]
struct Sizes {
    ops: usize,
    consts: usize,
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
        sizes.ops += 1; // halt
        sizes
    }

    /// Whether `code` holds exactly the counted entries.
    fn matches(&self, code: &Code) -> bool {
        let counted = [
            self.ops,
            self.consts,
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
            code.ops.len(),
            code.consts.len(),
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
                self.ops += 1;
            }
            Node::This | Node::Var { .. } | Node::UnboundVar(_) => self.ops += 1,
            Node::Field { recv, .. } => {
                self.fields += 1;
                self.ops += 1;
                if !matches!(ir.node(recv), Node::This) {
                    self.expr(ir, recv, depth);
                }
            }
            Node::New { ctor_args, .. } => {
                self.news += 1;
                self.ops += 1;
                self.all(ir, ctor_args, depth);
            }
            Node::NewUnknown { ctor_args, .. } => {
                self.unknown_classes += 1;
                self.ops += 1;
                self.all(ir, ctor_args, depth);
            }
            Node::Call { recv_args, .. } => {
                self.calls += 1;
                self.ops += 1;
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
                self.ops += 1;
                let args = ir.kids(args);
                for (i, &a) in args.iter().enumerate() {
                    self.expr(ir, a, depth);
                    if i + 1 < args.len() && maybe_mcase(ir, a) {
                        self.ops += 1; // force
                    }
                }
            }
            Node::Cast { expr, .. } => {
                self.casts += 1;
                self.ops += 1;
                self.expr(ir, expr, depth);
            }
            Node::Snapshot { expr, .. } => {
                self.snaps += 1;
                self.ops += 1;
                self.expr(ir, expr, depth);
            }
            Node::Elim { expr, .. } => {
                self.elims += 1;
                self.ops += 1;
                self.expr(ir, expr, depth);
            }
            Node::Unary { expr, .. } => {
                self.ops += 1;
                self.expr(ir, expr, depth);
            }
            Node::MCase { arms, .. } => {
                self.mcases += 1;
                self.ops += 1;
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
                        self.ops += 1; // jump if false
                    }
                }
                self.expr(ir, then, depth);
                self.ops += 1; // jump
                match else_branch(els) {
                    Some(els) => self.expr(ir, els, depth),
                    None => self.ops += 1, // unit
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
                            self.ops += 1; // return
                        }
                    }
                }
                if !matches!(stmts.last(), Some(LStmt::Expr(_))) {
                    self.ops += 1; // unit
                }
            }
            Node::Try { body, handler } => {
                self.ops += 3; // try push, try pop, jump
                self.expr(ir, body, depth);
                self.expr(ir, handler, depth);
            }
            Node::ArrayLit(items) => {
                self.ops += 1;
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
            self.ops += 2; // short-circuit jump and force
            self.expr(ir, lhs, depth);
            self.expr(ir, rhs, depth);
            return;
        }
        let lhs_fusable = fusable(ir, lhs);
        if fusable(ir, rhs) && (lhs_fusable || !matches!(ir.node(lhs), Node::Binary { .. })) {
            self.fused += 1;
            self.ops += 1;
            if lhs_fusable {
                self.operand(ir, lhs);
            } else {
                self.expr(ir, lhs, depth);
            }
            self.operand(ir, rhs);
            return;
        }
        self.ops += 1;
        self.expr(ir, lhs, depth);
        if maybe_mcase(ir, lhs) {
            self.ops += 1; // force
        }
        self.expr(ir, rhs, depth);
    }

    /// Counts a fused operand: a constant for a literal, nothing for a
    /// slot; no op.
    fn operand(&mut self, ir: &Ir, e: NodeId) {
        if matches!(ir.node(e), Node::Lit(_)) {
            self.consts += 1;
        }
    }
}

struct Compiler<'a> {
    ir: &'a Ir,
    ic: &'a IcCounters,
    code: Tables,
    /// Node-entry gas charges accumulated since the last emission; the
    /// next emitted op leads with them.
    pending: u32,
    /// Current lexical `let` depth = the slot the next `let` binds.
    let_depth: u32,
    /// The first scratch register: `let` slots sit below it.
    scratch_lo: u32,
    /// Next free scratch register.
    scratch: u32,
    max_reg: u32,
    /// The last send emitted with a tail-call shape (`this` receiver, no
    /// mode arguments), by op index: a `return` emitted right after it,
    /// consuming its result with no gas of its own, makes it a tail call.
    tail_send: Option<usize>,
}

/// Every binary operator, in declaration order: an operand word names an
/// operator by its index here.
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
fn bin_word(op: BinOp) -> u32 {
    op as u32
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
    fn alloc_scratch(&mut self) -> u32 {
        let r = self.scratch;
        self.scratch += 1;
        self.max_reg = self.max_reg.max(self.scratch);
        r
    }

    /// Emits one op run by `run`, draining the pending node-entry gas
    /// into it.
    fn emit(&mut self, run: TFn, a: u32, b: u32, c: u32, d: u32) -> usize {
        let gas = self.pending;
        self.pending = 0;
        let at = self.code.ops.len();
        self.code.ops.push(TOp {
            run,
            gas,
            a,
            b,
            c,
            kinds: 0,
            d,
        });
        at
    }

    /// Points the jump at `at` to the next op.
    fn patch(&mut self, at: usize) {
        self.code.ops[at].d = self.code.ops.len() as u32;
    }

    /// Pools the literal `lit` (an [`Ir::lits`] index).
    fn const_idx(&mut self, lit: u32) -> u32 {
        let i = self.code.consts.len() as u32;
        self.code.consts.push(self.ir.lits[lit as usize].clone());
        i
    }

    /// A fusable leaf's operand: its kind, its index (a slot or a pool
    /// constant) and, for a slot, its name (an [`Ir::names`] index).
    fn operand(&mut self, e: NodeId) -> (u8, u32, u32) {
        match self.ir.node(e) {
            Node::Var { slot, name } => (K_SLOT, slot, name),
            Node::Lit(v) => (K_CST, self.const_idx(v), 0),
            _ => unreachable!("fusable() guards operand shapes"),
        }
    }

    /// Compiles node `e`, leaving its value in register `dst`. When `dst`
    /// is a `let` slot it is written only as the final action on every
    /// path, so it may alias a live slot; a scratch `dst` may also hold a
    /// binary's lhs (see [`Compiler::binary`]).
    fn expr(&mut self, e: NodeId, dst: u32) {
        // The tree-walker charges one gas at every node entry; the first
        // op this subtree emits carries it.
        self.pending += 1;
        let ir = self.ir;
        match ir.node(e) {
            Node::Lit(v) | Node::ModeConst(v) => {
                let k = self.const_idx(v);
                self.emit(op_const, dst, 0, 0, k);
            }
            Node::This => {
                self.emit(op_this, dst, 0, 0, 0);
            }
            Node::Var { slot, name } => {
                self.emit(op_local, dst, slot, 0, name);
            }
            Node::UnboundVar(name) => {
                self.emit(op_unbound, 0, 0, 0, name);
            }
            Node::Field { recv, field, name } => {
                let site = self.code.fields.len() as u32;
                self.code.fields.push(FieldSite { field, name });
                if matches!(ir.node(recv), Node::This) {
                    self.pending += 1; // the fused `this` node
                    self.emit(op_field_this, dst, 0, 0, site);
                } else {
                    let mark = self.scratch;
                    let r = self.alloc_scratch();
                    self.expr(recv, r);
                    self.emit(op_field_get, dst, r, 0, site);
                    self.scratch = mark;
                }
            }
            Node::New { new, ctor_args } => {
                let mark = self.scratch;
                let base = self.args_into_scratch(ctor_args);
                let site = self.code.news.len() as u32;
                let new = ir.news[new as usize];
                self.code.news.push(NewSite {
                    class: new.class,
                    plan: new.plan,
                    n_args: ctor_args.len() as u32,
                });
                self.emit(op_new_obj, dst, base, 0, site);
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
                    .push(ir.unknown_classes[class as usize]);
                self.emit(op_new_unknown, 0, 0, 0, site);
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
                    self.expr(recv, base);
                    base + 1
                };
                for (i, &a) in args.iter().enumerate() {
                    self.expr(a, arg_base + i as u32);
                }
                let site = self.code.calls.len() as u32;
                let send = ir.sends[send as usize];
                self.code.calls.push(CallSite {
                    method: send.method,
                    n_args: args.len() as u32,
                    this_recv,
                    mode_args: send.mode_args,
                    ic: self.ic.send.fetch_add(1, Ordering::Relaxed),
                });
                let at = self.emit(op_call_m, dst, base, 0, site);
                if this_recv && send.mode_args.is_empty() {
                    self.tail_send = Some(at);
                }
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
                    let r = base + i as u32;
                    self.expr(a, r);
                    if maybe_mcase(ir, a) {
                        if i + 1 == n {
                            // Nothing observable sits between the last
                            // argument's force and the builtin itself.
                            force_last = true;
                        } else {
                            self.emit(op_force, 0, r, 0, 0);
                        }
                    }
                }
                let site = self.code.builtins.len() as u32;
                self.code.builtins.push(BuiltinSite {
                    op,
                    name,
                    n_args: n as u32,
                    force_last,
                });
                self.emit(op_call_b, dst, base, 0, site);
                self.scratch = mark;
            }
            Node::Cast { check, expr } => {
                self.expr(expr, dst);
                let site = self.code.casts.len() as u32;
                self.code.casts.push(check);
                self.emit(op_cast, dst, dst, 0, site);
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
                self.emit(op_snap, dst, dst, 0, site);
            }
            Node::MCase { arms, modes } => {
                let mark = self.scratch;
                let base = self.args_into_scratch(arms);
                let site = self.code.mcases.len() as u32;
                self.code.mcases.push(McaseSite {
                    modes: Seq::new(modes, arms.len()),
                });
                self.emit(op_make_mcase, dst, base, 0, site);
                self.scratch = mark;
            }
            Node::Elim { expr, mode } => {
                self.expr(expr, dst);
                let site = self.code.elims.len() as u32;
                self.code.elims.push(ElimSite {
                    mode: mode.map(|m| ir.modes[m as usize]),
                    ic: self.ic.arm.fetch_add(1, Ordering::Relaxed),
                });
                self.emit(op_elim, dst, dst, 0, site);
            }
            Node::Binary { op, lhs, rhs } => {
                self.binary(op, lhs, rhs, dst, false);
            }
            Node::Unary { op, expr } => {
                self.expr(expr, dst);
                let c = match op {
                    ent_syntax::UnOp::Not => 0,
                    ent_syntax::UnOp::Neg => 1,
                };
                self.emit(op_un, dst, dst, c, 0);
            }
            Node::If { cond, then, els } => {
                let to_else = self.cond_jump(cond);
                self.expr(then, dst);
                let to_end = self.emit(op_jmp, 0, 0, 0, 0);
                self.patch(to_else);
                match else_branch(els) {
                    Some(els) => self.expr(els, dst),
                    None => {
                        self.emit(op_unit, dst, 0, 0, 0);
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
                            self.expr(v, self.let_depth);
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
                            self.ret(r);
                            self.scratch = mark;
                        }
                    }
                }
                if !last_is_expr {
                    self.emit(op_unit, dst, 0, 0, 0);
                }
                self.let_depth = depth_mark;
            }
            Node::Try { body, handler } => {
                let push_at = self.emit(op_try_push, 0, 0, 0, 0);
                self.expr(body, dst);
                self.emit(op_try_pop, 0, 0, 0, 0);
                let to_end = self.emit(op_jmp, 0, 0, 0, 0);
                self.patch(push_at); // handler starts here
                self.expr(handler, dst);
                self.patch(to_end);
            }
            Node::ArrayLit(items) => {
                let mark = self.scratch;
                let base = self.args_into_scratch(items);
                self.emit(op_arr_lit, dst, base, items.len() as u32, 0);
                self.scratch = mark;
            }
        }
    }

    /// Emits `return regs[r]`. When the op just before it is a send of
    /// tail-call shape whose result lands in `r`, and the `return` carries
    /// no gas of its own (so nothing observable separates the two), the
    /// send becomes [`op_tail_call`].
    fn ret(&mut self, r: u32) {
        let at = self.emit(op_ret, 0, r, 0, 0);
        let ops = &mut self.code.ops;
        if ops[at].gas == 0 && at > 0 && self.tail_send == Some(at - 1) && ops[at - 1].a == r {
            ops[at - 1].run = op_tail_call;
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
            self.expr(a, base + i as u32);
        }
        base
    }

    /// The register a binary's materialized lhs compiles into: the
    /// binary's own destination when that is a scratch register, which
    /// nothing reads before the binary's op writes it; otherwise (a `let`
    /// slot the rhs may read, or a branch with no destination) a fresh
    /// scratch register.
    fn lhs_reg(&mut self, dst: u32, branch: bool) -> u32 {
        if !branch && dst >= self.scratch_lo {
            dst
        } else {
            self.alloc_scratch()
        }
    }

    /// Compiles a binary operator. With `branch` the op is a comparison
    /// compiled as a fused compare+branch; the returned index is then the
    /// branch op to patch to the else target. The caller has already
    /// accounted the *enclosing* node's gas; this accounts the binop node
    /// and its fused operands.
    fn binary(&mut self, op: BinOp, lhs: NodeId, rhs: NodeId, dst: u32, branch: bool) -> usize {
        if matches!(op, BinOp::And | BinOp::Or) {
            debug_assert!(!branch);
            self.expr(lhs, dst);
            let sc = self.emit(op_sc_jump, 0, dst, bin_word(op), 0);
            self.expr(rhs, dst);
            self.emit(op_sc_force, 0, dst, bin_word(op), 0);
            self.patch(sc);
            return sc;
        }

        let ir = self.ir;
        let lhs_fusable = fusable(ir, lhs);
        let rhs_fusable = fusable(ir, rhs);
        // Fused operands evaluate *inside* the op; the lhs must never
        // execute after the rhs, so a fused lhs pairs only with a fused
        // rhs.
        if rhs_fusable && (lhs_fusable || !matches!(ir.node(lhs), Node::Binary { .. })) {
            let (lk, li, ln) = if lhs_fusable {
                self.pending += 1; // the fused lhs leaf's gas, charged up front
                self.operand(lhs)
            } else {
                let mark = self.scratch;
                let r = self.lhs_reg(dst, branch);
                self.expr(lhs, r);
                self.scratch = mark;
                // The lhs force happens inside the fused op, before the
                // rhs gas — its exact tree position.
                (K_REG, r, 0)
            };
            let (rk, ri, rn) = self.operand(rhs);
            let site = self.code.fused.len() as u32;
            self.code.fused.push([ln, rn]);
            let at = if branch {
                self.emit(op_jmp_bin_f_for(op), site, li, ri, 0)
            } else {
                self.emit(op_bin_f_for(op), dst, li, ri, site)
            };
            self.code.ops[at].kinds = lk | rk << 4;
            return at;
        }

        // General form: both operands materialize into registers; the lhs
        // force precedes the rhs code when the lhs may be a mode case. The
        // rhs register is claimed after the lhs is compiled, so a
        // left-nested chain reuses one rhs register at every level.
        let mark = self.scratch;
        let rl = self.lhs_reg(dst, branch);
        self.expr(lhs, rl);
        if maybe_mcase(ir, lhs) {
            self.emit(op_force, 0, rl, 0, 0);
        }
        let rr = self.alloc_scratch();
        self.expr(rhs, rr);
        self.scratch = mark;
        if branch {
            self.emit(op_jmp_bin_for(op), rl, rr, 0, 0)
        } else {
            self.emit(op_bin_for(op), dst, rl, rr, 0)
        }
    }

    /// Compiles an `if` condition, returning the branch op to patch to the
    /// else target. Comparisons fuse into the branch; other shapes
    /// materialize and test.
    fn cond_jump(&mut self, cond: NodeId) -> usize {
        if let Node::Binary { op, lhs, rhs } = self.ir.node(cond) {
            if is_cmp(op) {
                self.pending += 1; // the condition binop's node gas
                return self.binary(op, lhs, rhs, 0, true);
            }
        }
        let mark = self.scratch;
        let r = self.alloc_scratch();
        self.expr(cond, r);
        self.scratch = mark;
        self.emit(op_jmp_if_false, 0, r, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Body;
    use crate::{lower_program, run_lowered, with_interp_stack, Engine, RuntimeConfig};
    use ent_energy::Platform;

    #[test]
    fn every_operator_round_trips_through_its_operand_word() {
        for (i, &op) in BIN_OPS.iter().enumerate() {
            assert_eq!(bin_word(op) as usize, i, "{op}");
            assert_eq!(bin_op(bin_word(op)), op);
        }
    }

    /// Runs `Main.main() { <body> }` on both engines, which must agree on
    /// the value (`want`) and the steps, then hands `main`'s bytecode to
    /// `check`.
    fn runs_like_the_tree_walker(body: &str, want: Value, check: impl FnOnce(&Code) + Send) {
        let src = format!("class Main {{ int main() {{ {body} }} }}");
        // Compiling, lowering and tree-walking a 70000-deep operator
        // chain recurses, so all of it runs on an interpreter stack.
        with_interp_stack(crate::default_stack_size(), || {
            let lowered = lower_program(&ent_core::compile(&src).expect("compiles"));
            let run = |engine| {
                let config = RuntimeConfig {
                    engine,
                    ..RuntimeConfig::default()
                };
                run_lowered(&lowered, Platform::system_a(), config)
            };
            let tree = run(Engine::Tree);
            let bytecode = run(Engine::Bytecode);
            assert_eq!(tree.value, Ok(want));
            assert_eq!(bytecode.value, tree.value);
            assert_eq!(bytecode.stats.steps, tree.stats.steps);
            let main = lowered.bodies.iter().find_map(Body::code);
            check(main.expect("bytecode compiled `main`"));
        });
    }

    /// Each body here needs some operand word wider than 16 bits: it
    /// compiles all the same and runs as on the tree walker.
    #[test]
    fn bodies_past_every_u16_word_compile_and_run_like_the_tree_walker() {
        let n = 70_000;
        // A left-nested sum: its first op leads with the gas of every
        // operator node, and it needs two scratch registers, not two per
        // term.
        let sum = vec!["1"; n].join(" + ");
        runs_like_the_tree_walker(&format!("return {sum};"), Value::Int(n as i64), |code| {
            assert!(code.ops[0].gas > 65_535, "{:?}", code.ops[0]);
            assert!(code.frame_size <= 4, "frame_size {}", code.frame_size);
        });
        let items = vec!["1"; 65_537].join(", ");
        runs_like_the_tree_walker(
            &format!("return Arr.len([{items}]);"),
            Value::Int(65_537),
            |code| assert!(code.frame_size > 65_537),
        );
        // Distinct constants: a truncated pool index would change the sum.
        let terms: Vec<String> = (0..n).map(|k| k.to_string()).collect();
        runs_like_the_tree_walker(
            &format!("return {};", terms.join(" + ")),
            Value::Int((n * (n - 1) / 2) as i64),
            |code| assert_eq!(code.consts.len(), n),
        );
        // Each `let` reads the one before it, so every slot index counts.
        let lets: String = (1..n)
            .map(|k| format!("let x{k} = x{} + 1; ", k - 1))
            .collect();
        runs_like_the_tree_walker(
            &format!("let x0 = 1; {lets}return x{};", n - 1),
            Value::Int(n as i64),
            |code| assert!(code.frame_size > n as u32),
        );
    }
}
