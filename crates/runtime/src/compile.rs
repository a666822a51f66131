//! Bytecode compilation: flattens lowered [`LExpr`] trees into the flat
//! register-machine code the [`crate::vm`] dispatch loop executes.
//!
//! The tree IR of [`crate::lower`] already resolved every name to a dense
//! index; what remains on the tree-walker's hot path is the *shape* of the
//! tree itself — one recursive `eval` activation, one `Box` dereference and
//! one `Result` unwind per node. This pass linearizes each body once, on
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

use ent_modes::ModeName;
use ent_syntax::{BinOp, ClassName, Ident};

use crate::lower::{BOp, CastCheck, LExpr, LMode, LStmt, NewPlan};
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
    /// `dst=a ← regs[b] ⊕ regs[c]` with `⊕ = bins[d]` (rhs forced here;
    /// an explicit [`Op::Force`] precedes the rhs code when the lhs may be
    /// a mode case).
    Bin,
    /// Fused binop: `dst=a`, operands described by `fused[d]`.
    BinF,
    /// Fused compare+branch: `regs[a] ⊕ regs[b]` with `⊕ = bins[c]`;
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
    /// message in `bins[c]`), store it back, jump to `d` when the op
    /// short-circuits (`&&` on false, `||` on true).
    ScJump,
    /// Force `regs[b]` to a bool (op in `bins[c]`) and store it back (the
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
    pub(crate) mode_args: Vec<LMode>,
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
    pub(crate) modes: Vec<ModeName>,
}

/// A compiled body: the instruction stream plus its side tables. Owned by
/// the lowered unit it was compiled from (shared program-wide through the
/// `OnceLock` cells on [`crate::lower::LMethod`] and friends, so the batch
/// engine's program cache amortizes compilation exactly once).
#[derive(Debug, Default)]
pub(crate) struct Code {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) consts: Vec<Value>,
    /// Names for unbound-variable diagnostics, by `names` index.
    pub(crate) names: Vec<Ident>,
    pub(crate) bins: Vec<BinOp>,
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

/// Compiles one lowered body (method, attributor, or field initializer)
/// whose frame starts with `n_base` locals (the parameter count; zero for
/// class attributors and initializers). `None` when the body does not fit
/// the instruction format: a register, constant or site index, an
/// argument or item count, or a gas batch beyond `u16`. Such a body runs
/// on the tree walker instead.
pub(crate) fn compile_body(body: &LExpr, n_base: u32, ic: &IcCounters) -> Option<Code> {
    // Pass 1: the deepest lexical `let` depth, mirroring the slot numbers
    // lowering assigned, fixes where scratch registers start.
    let mut max_locals = n_base;
    max_let_depth(body, n_base, &mut max_locals);
    let mut c = Compiler {
        ic,
        code: Code::default(),
        pending: 0,
        let_depth: n_base,
        scratch: max_locals,
        max_reg: max_locals,
        overflow: false,
    };
    let dst = c.alloc_scratch();
    c.expr(body, dst);
    c.emit(Op::Halt, 0, dst, 0, 0);
    c.code.frame_size = c.max_reg;
    (!c.overflow).then_some(c.code)
}

fn max_let_depth(e: &LExpr, cur: u32, max: &mut u32) {
    let mut walk = |e: &LExpr| max_let_depth(e, cur, max);
    match e {
        LExpr::Lit(_) | LExpr::ModeConst(_) | LExpr::This | LExpr::Var { .. } => {}
        LExpr::UnboundVar(_) => {}
        LExpr::Field { recv, .. } => walk(recv),
        LExpr::New { ctor_args, .. } | LExpr::NewUnknown { ctor_args, .. } => {
            ctor_args.iter().for_each(walk)
        }
        LExpr::Call { recv, args, .. } => {
            walk(recv);
            args.iter().for_each(walk);
        }
        LExpr::Builtin { args, .. } => args.iter().for_each(walk),
        LExpr::Cast { expr, .. }
        | LExpr::Snapshot { expr, .. }
        | LExpr::Elim { expr, .. }
        | LExpr::Unary { expr, .. } => walk(expr),
        LExpr::MCase(arms) => arms.iter().for_each(|(_, a)| walk(a)),
        LExpr::Binary { lhs, rhs, .. } => {
            walk(lhs);
            walk(rhs);
        }
        LExpr::If { cond, then, els } => {
            walk(cond);
            walk(then);
            if let Some(els) = els {
                walk(els);
            }
        }
        LExpr::Try { body, handler } => {
            walk(body);
            walk(handler);
        }
        LExpr::ArrayLit(items) => items.iter().for_each(walk),
        LExpr::Block(stmts) => {
            // Mirrors lowering: each `let` claims the next slot for the
            // rest of the block; sibling blocks reuse the same depths.
            let mut d = cur;
            for stmt in stmts {
                match stmt {
                    LStmt::Let(v) => {
                        max_let_depth(v, d, max);
                        d += 1;
                        *max = (*max).max(d);
                    }
                    LStmt::Expr(e) | LStmt::Return(e) => max_let_depth(e, d, max),
                }
            }
        }
    }
}

struct Compiler<'a> {
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
fn maybe_mcase(e: &LExpr) -> bool {
    match e {
        LExpr::Lit(_)
        | LExpr::ModeConst(_)
        | LExpr::This
        | LExpr::New { .. }
        | LExpr::NewUnknown { .. }
        | LExpr::Snapshot { .. }
        | LExpr::Binary { .. }
        | LExpr::Unary { .. }
        | LExpr::ArrayLit(_)
        | LExpr::UnboundVar(_) => false,
        LExpr::Cast { expr, .. } => maybe_mcase(expr),
        LExpr::If { then, els, .. } => maybe_mcase(then) || els.as_deref().is_some_and(maybe_mcase),
        LExpr::Try { body, handler } => maybe_mcase(body) || maybe_mcase(handler),
        LExpr::Block(stmts) => match stmts.last() {
            Some(LStmt::Expr(e)) => maybe_mcase(e),
            _ => false,
        },
        // Var, Field, Call, Builtin (Arr.get of mode cases), Elim (nested
        // cases), MCase.
        _ => true,
    }
}

/// Whether an expression is a fusable binop operand (a leaf that costs
/// exactly one gas charge and cannot have side effects).
fn fusable(e: &LExpr) -> bool {
    matches!(e, LExpr::Var { .. } | LExpr::Lit(_))
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

    fn const_idx(&mut self, v: Value) -> u16 {
        let i = self.code.consts.len();
        self.code.consts.push(v);
        self.narrow(i)
    }

    fn name_idx(&mut self, n: &Ident) -> u32 {
        let i = self.code.names.len();
        self.code.names.push(n.clone());
        i as u32
    }

    fn bin_idx(&mut self, op: BinOp) -> usize {
        let i = self.code.bins.len();
        self.code.bins.push(op);
        i
    }

    /// Builds the operand descriptor for a fusable leaf, accounting its
    /// one gas charge to the caller's chosen position.
    fn make_opnd(&mut self, e: &LExpr) -> Opnd {
        match e {
            LExpr::Var { slot, name } => Opnd::Slot {
                slot: self.reg(*slot),
                name: self.name_idx(name),
            },
            LExpr::Lit(v) => Opnd::Cst(self.const_idx(v.clone())),
            _ => unreachable!("fusable() guards operand shapes"),
        }
    }

    /// Compiles `e`, leaving its value in register `dst`. `dst` is written
    /// only as the final action on every path, so it may alias a live
    /// `let` slot.
    fn expr(&mut self, e: &LExpr, dst: u16) {
        // The tree-walker charges one gas at every node entry; the first
        // instruction this subtree emits carries it.
        self.pending += 1;
        match e {
            LExpr::Lit(v) => {
                let k = self.const_idx(v.clone());
                self.emit(Op::Const, dst, 0, 0, u32::from(k));
            }
            LExpr::ModeConst(m) => {
                let k = self.const_idx(Value::Mode(m.clone()));
                self.emit(Op::Const, dst, 0, 0, u32::from(k));
            }
            LExpr::This => {
                self.emit(Op::This, dst, 0, 0, 0);
            }
            LExpr::Var { slot, name } => {
                let n = self.name_idx(name);
                let slot = self.reg(*slot);
                self.emit(Op::Local, dst, slot, 0, n);
            }
            LExpr::UnboundVar(name) => {
                let n = self.name_idx(name);
                self.emit(Op::Unbound, 0, 0, 0, n);
            }
            LExpr::Field { recv, field, name } => {
                let site = self.code.fields.len() as u32;
                self.code.fields.push(FieldSite {
                    field: *field,
                    name: name.clone(),
                });
                if matches!(**recv, LExpr::This) {
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
            LExpr::New {
                class,
                plan,
                ctor_args,
            } => {
                let mark = self.scratch;
                let base = self.scratch;
                for _ in ctor_args {
                    self.alloc_scratch();
                }
                for (i, a) in ctor_args.iter().enumerate() {
                    let r = self.reg(base + i as u32);
                    self.expr(a, r);
                }
                let site = self.code.news.len() as u32;
                let n_args = self.narrow(ctor_args.len());
                self.code.news.push(NewSite {
                    class: *class,
                    plan: plan.clone(),
                    n_args,
                });
                let base = self.reg(base);
                self.emit(Op::NewObj, dst, base, 0, site);
                self.scratch = mark;
            }
            LExpr::NewUnknown { class, ctor_args } => {
                let mark = self.scratch;
                for a in ctor_args {
                    let r = self.alloc_scratch();
                    self.expr(a, r);
                }
                let site = self.code.unknown_classes.len() as u32;
                self.code.unknown_classes.push(class.clone());
                self.emit(Op::NewUnknown, 0, 0, 0, site);
                self.scratch = mark;
            }
            LExpr::Call {
                recv,
                method,
                mode_args,
                args,
            } => {
                let mark = self.scratch;
                let this_recv = matches!(**recv, LExpr::This);
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
                for (i, a) in args.iter().enumerate() {
                    let r = self.reg(arg_base + i as u32);
                    self.expr(a, r);
                }
                let site = self.code.calls.len() as u32;
                let n_args = self.narrow(args.len());
                self.code.calls.push(CallSite {
                    method: *method,
                    n_args,
                    this_recv,
                    mode_args: mode_args.clone(),
                    ic: self.ic.send.fetch_add(1, Ordering::Relaxed),
                });
                let base = self.reg(base);
                self.emit(Op::CallM, dst, base, 0, site);
                self.scratch = mark;
            }
            LExpr::Builtin { op, ns, name, args } => {
                let mark = self.scratch;
                let base = self.scratch;
                for _ in args {
                    self.alloc_scratch();
                }
                let n = args.len();
                let mut force_last = false;
                for (i, a) in args.iter().enumerate() {
                    let r = self.reg(base + i as u32);
                    self.expr(a, r);
                    if maybe_mcase(a) {
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
                self.code.builtins.push(BuiltinSite {
                    op: *op,
                    ns: ns.clone(),
                    name: name.clone(),
                    n_args,
                    force_last,
                });
                let base = self.reg(base);
                self.emit(Op::CallB, dst, base, 0, site);
                self.scratch = mark;
            }
            LExpr::Cast { check, expr } => {
                self.expr(expr, dst);
                let site = self.code.casts.len() as u32;
                self.code.casts.push(check.clone());
                self.emit(Op::CastV, dst, dst, 0, site);
            }
            LExpr::Snapshot { expr, lo, hi } => {
                self.expr(expr, dst);
                let site = self.code.snaps.len() as u32;
                self.code.snaps.push(SnapSite {
                    lo: *lo,
                    hi: *hi,
                    ic: self.ic.snap.fetch_add(1, Ordering::Relaxed),
                });
                self.emit(Op::Snap, dst, dst, 0, site);
            }
            LExpr::MCase(arms) => {
                let mark = self.scratch;
                let base = self.scratch;
                for _ in arms {
                    self.alloc_scratch();
                }
                for (i, (_, a)) in arms.iter().enumerate() {
                    let r = self.reg(base + i as u32);
                    self.expr(a, r);
                }
                let site = self.code.mcases.len() as u32;
                self.code.mcases.push(McaseSite {
                    modes: arms.iter().map(|(m, _)| m.clone()).collect(),
                });
                let base = self.reg(base);
                self.emit(Op::MakeMCase, dst, base, 0, site);
                self.scratch = mark;
            }
            LExpr::Elim { expr, mode } => {
                self.expr(expr, dst);
                let site = self.code.elims.len() as u32;
                self.code.elims.push(ElimSite {
                    mode: *mode,
                    ic: self.ic.arm.fetch_add(1, Ordering::Relaxed),
                });
                self.emit(Op::ElimV, dst, dst, 0, site);
            }
            LExpr::Binary { op, lhs, rhs } => {
                self.binary(*op, lhs, rhs, dst, None);
            }
            LExpr::Unary { op, expr } => {
                self.expr(expr, dst);
                let c = match op {
                    ent_syntax::UnOp::Not => 0,
                    ent_syntax::UnOp::Neg => 1,
                };
                self.emit(Op::Un, dst, dst, c, 0);
            }
            LExpr::If { cond, then, els } => {
                let to_else = self.cond_jump(cond);
                self.expr(then, dst);
                let to_end = self.emit(Op::Jmp, 0, 0, 0, 0);
                self.patch(to_else);
                match els {
                    Some(els) => self.expr(els, dst),
                    None => {
                        self.emit(Op::Unit, dst, 0, 0, 0);
                    }
                }
                self.patch(to_end);
            }
            LExpr::Block(stmts) => {
                let depth_mark = self.let_depth;
                let last_is_expr = matches!(stmts.last(), Some(LStmt::Expr(_)));
                let n = stmts.len();
                for (i, stmt) in stmts.iter().enumerate() {
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
            LExpr::Try { body, handler } => {
                let push_at = self.emit(Op::TryPush, 0, 0, 0, 0);
                self.expr(body, dst);
                self.emit(Op::TryPop, 0, 0, 0, 0);
                let to_end = self.emit(Op::Jmp, 0, 0, 0, 0);
                self.patch(push_at); // handler starts here
                self.expr(handler, dst);
                self.patch(to_end);
            }
            LExpr::ArrayLit(items) => {
                let mark = self.scratch;
                let base = self.scratch;
                for _ in items {
                    self.alloc_scratch();
                }
                for (i, item) in items.iter().enumerate() {
                    let r = self.reg(base + i as u32);
                    self.expr(item, r);
                }
                let base = self.reg(base);
                let n = self.narrow(items.len());
                self.emit(Op::ArrLit, dst, base, n, 0);
                self.scratch = mark;
            }
        }
    }

    /// Compiles a binary operator. With `branch_false: Some(..)` the op is
    /// a comparison compiled as a fused compare+branch; the returned index
    /// is then the branch instruction to patch. The caller has already
    /// accounted the *enclosing* node's gas; this accounts the binop node
    /// and its fused operands.
    fn binary(
        &mut self,
        op: BinOp,
        lhs: &LExpr,
        rhs: &LExpr,
        dst: u16,
        branch_false: Option<()>,
    ) -> usize {
        if matches!(op, BinOp::And | BinOp::Or) {
            debug_assert!(branch_false.is_none());
            self.expr(lhs, dst);
            let site = self.bin_idx(op);
            let site = self.narrow(site);
            let sc = self.emit(Op::ScJump, 0, dst, site, 0);
            self.expr(rhs, dst);
            self.emit(Op::ScForce, 0, dst, site, 0);
            self.patch(sc);
            return sc;
        }

        let lhs_fusable = fusable(lhs);
        let rhs_fusable = fusable(rhs);
        // Fused operands evaluate *inside* the instruction; the lhs must
        // never execute after the rhs, so a fused lhs pairs only with a
        // fused rhs.
        if rhs_fusable && (lhs_fusable || !matches!(lhs, LExpr::Binary { .. })) {
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
        if maybe_mcase(lhs) {
            self.emit(Op::Force, 0, rl, 0, 0);
        }
        self.expr(rhs, rr);
        let site = self.bin_idx(op);
        self.scratch = mark;
        match branch_false {
            Some(()) => {
                let site = self.narrow(site);
                self.emit(Op::JmpBin, rl, rr, site, 0)
            }
            None => self.emit(Op::Bin, dst, rl, rr, site as u32),
        }
    }

    /// Compiles an `if` condition, returning the branch instruction to
    /// patch to the else target. Comparisons fuse into the branch; other
    /// shapes materialize and test.
    fn cond_jump(&mut self, cond: &LExpr) -> usize {
        if let LExpr::Binary { op, lhs, rhs } = cond {
            if is_cmp(*op) {
                self.pending += 1; // the condition binop's node gas
                return self.binary(*op, lhs, rhs, 0, Some(()));
            }
        }
        let mark = self.scratch;
        let r = self.alloc_scratch();
        self.expr(cond, r);
        self.scratch = mark;
        self.emit(Op::JmpIfFalse, 0, r, 0, 0)
    }
}
