//! The bytecode engine's executor: a compiled body ([`Code`]) is a flat
//! array of fn-pointer ops ([`TOp`]) with pre-resolved operands, run by
//! one indirect call per op.
//!
//! Declared as a child module of [`crate::interp`], like the enforcement
//! seam, so the handlers call straight into the same private machinery
//! the tree walker uses: heap, invoke, snapshot, builtins, events and
//! profiler. Every observable action funnels through those functions,
//! which makes the bit-identical contract with the tree walker
//! structural: same gas charges in the same order, same errors, same
//! stats, same events.
//!
//! # Handlers
//!
//! [`crate::compile`] emits each op with its handler already chosen: one
//! plain function per operation, documented at each handler with the
//! meaning of its `a`/`b`/`c`/`d` words. Binop handlers are the one
//! exception to "one per operation": they are specialized on the site's
//! static operator, so their int/double lanes are straight-line
//! arithmetic. Operand kinds (register, slot, constant) are read at run
//! time from the op's payload. The only multi-node shapes are the
//! compiler's superinstructions (fused binops, compare-and-branch, field
//! reads and sends on `this`) and tail self-send elision.
//!
//! # Dispatch
//!
//! Every op returns the next pc as a bare `u32`: the hot loop is one
//! indirect call, one compare against [`R_ERR`], one assignment. The
//! three rare continuations (error, `return`, done) are folded into the
//! top of the `u32` range as sentinels, with their payloads parked in the
//! activation's [`TState`]; returning a scalar keeps the common path free
//! of the by-memory enum returns a `Ctl`-style control type would force.
//!
//! # Inline caches
//!
//! Per-run caches (vectors on [`Interp`], indexed by program-wide site
//! ids) accelerate the three mode-decision sites:
//!
//! * **Sends** ([`op_call_m`]): receiver-class guard → cached vtable
//!   entry; any other class falls back to the vtable and re-caches
//!   (monomorphic, last class wins). A megamorphic site simply keeps
//!   missing.
//! * **Eliminations** ([`op_elim`]): `(arms identity, target mode,
//!   energy window)` → selected arm index. The cache holds a strong `Arc`
//!   to the cached arms so pointer identity cannot be recycled.
//! * **Snapshots** ([`op_snap`] via [`Interp::snapshot`]): `(class,
//!   produced mode, bounds, energy window)` → bounds-check verdict.
//!
//! The energy window is `floor(virtual time / FaultPlan::window_s)` when
//! fault injection is on (0 otherwise), so a cached decision is never
//! reused across a window roll: the first decision in a new window
//! misses and decides afresh. The caches only memoize *pure lattice
//! decisions*: attributors, and therefore sensor reads, fault injection,
//! staleness degradation, events and profiler attribution, run on every
//! evaluation, hit or miss. So no handler needs a guard or a fallback
//! executor: a faulted sensor read runs the degradation ladder inside
//! [`Interp::call_builtin`] and the body carries on.

use std::sync::Arc;

use ent_syntax::{BinOp, UnOp};

use super::{Enforcement, Frame, Interp, RtTag};
use crate::compile::{bin_op, Code};
use crate::error::{Flow, RtError};
use crate::lower::{GMode, MethodEntry};
use crate::profile::AnyProfiler;
use crate::value::Value;

/// One op: its handler plus its pre-resolved payload. Word meanings are
/// per handler (documented at each); broadly `a` is the destination
/// register, `b`/`c` source indices (a constant operand's index into
/// [`Code::consts`]), and `d` a site index, constant index or jump
/// target. Every word is a `u32`, so any body fits the format.
/// Constants stay in the body's pool and a fused binop's operand names
/// in [`Code::fused`], both read through the [`Code`] every handler
/// receives, so an op is 32 bytes.
pub(crate) struct TOp {
    pub(crate) run: TFn,
    /// Pre-order node-entry gas this op leads with (see
    /// [`crate::compile`]'s gas exactness).
    pub(crate) gas: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    /// Fused-binop operand kinds: the lhs's `K_*` tag in the low nibble,
    /// the rhs's in the high nibble.
    pub(crate) kinds: u8,
    pub(crate) d: u32,
}

const _: () = assert!(std::mem::size_of::<TOp>() == 32);

impl std::fmt::Debug for TOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TOp(gas {} a {} b {} c {} d {} kinds {:#x})",
            self.gas, self.a, self.b, self.c, self.d, self.kinds
        )
    }
}

/// Per-activation state: the live `try`-handler stack (handler pcs) and
/// the parking slots for sentinel-return payloads (see the module docs
/// on dispatch).
pub(crate) struct TState {
    tries: Vec<u32>,
    /// `return`/completion value ([`R_RET`] / [`R_DONE`]).
    out: Value,
    /// Error or energy exception ([`R_ERR`]).
    flow: Option<Flow>,
}

/// An op's `u32` return is the next pc when below [`R_ERR`]; the top
/// three values are sentinels (a body emits a few ops per node, and a
/// program's nodes are `u32`-indexed, so no pc comes near them). An
/// error or energy exception is parked in [`TState::flow`].
const R_ERR: u32 = u32::MAX - 2;
/// A `return` value is parked in [`TState::out`].
const R_RET: u32 = u32::MAX - 1;
/// The body completed; the result is parked in [`TState::out`].
const R_DONE: u32 = u32::MAX;

/// An op handler: runs `code.ops[pc]` and returns the next pc or a
/// sentinel.
pub(crate) type TFn = for<'p> fn(&mut Interp<'p>, &mut Frame, &'p Code, &mut TState, u32) -> u32;

/// Send-site inline cache: receiver class → resolved vtable entry.
pub(crate) type SendIc<'p> = (u32, &'p MethodEntry);

/// Elimination-site inline cache (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct ArmIc {
    /// Strong reference: while cached, the allocation cannot be freed and
    /// its address reused, so `Arc::ptr_eq` identity is sound.
    arms: Arc<Vec<(ent_modes::ModeName, Value)>>,
    target: GMode,
    window: u64,
    idx: u32,
}

/// Snapshot-site mode-decision cache: the bounds-check verdict for one
/// `(class, produced mode, lo, hi)` within one energy window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapIc {
    pub(crate) class: u32,
    pub(crate) mode: GMode,
    pub(crate) lo: GMode,
    pub(crate) hi: GMode,
    pub(crate) window: u64,
    pub(crate) failed: bool,
}

/// Parks an error for the driver; out-of-line so handlers keep their
/// fallible edges off the hot path.
#[cold]
#[inline(never)]
fn throw(st: &mut TState, f: Flow) -> u32 {
    st.flow = Some(f);
    R_ERR
}

/// The error of reading `this` outside an object.
#[cold]
#[inline(never)]
fn no_this() -> Flow {
    RtError::Native("`this` outside an object context".into()).into()
}

/// Routes an op's fallible step to the driver as [`R_ERR`].
macro_rules! tt {
    ($st:ident, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(f) => return throw($st, f),
        }
    };
}

/// Charges the op's head gas, so step counts (and therefore out-of-gas
/// points and profiler attribution) match the tree walker's.
macro_rules! charge {
    ($it:ident, $t:ident, $st:ident) => {
        if $t.gas != 0 {
            tt!($st, $it.gas_n(u64::from($t.gas)));
        }
    };
}

macro_rules! take {
    ($frame:ident, $r:expr) => {
        std::mem::replace(&mut $frame.locals[$r as usize], Value::Unit)
    };
}

macro_rules! take_n {
    ($frame:ident, $base:expr, $n:expr) => {{
        let base = $base as usize;
        let mut vals = Vec::with_capacity($n as usize);
        for r in base..base + $n as usize {
            vals.push(take!($frame, r));
        }
        vals
    }};
}

/// Forces a mode case to its arm at the frame's mode; any other value
/// passes through.
macro_rules! forced {
    ($it:ident, $frame:ident, $st:ident, $v:expr) => {{
        let v = $v;
        if matches!(v, Value::MCase(_)) {
            tt!($st, $it.force($frame, v))
        } else {
            v
        }
    }};
}

/// Runs a compiled body to completion. Mirrors `eval` exactly: `Ok` is
/// the body's value, `Err(Flow::Return)` a `return` unwinding to the
/// method boundary, `Err(Flow::Error)` a runtime error. A raised
/// [`RtError::EnergyException`] unwinds to the innermost active `try`
/// handler (exactly the only error the tree walker's `Try` catches).
pub(super) fn enter<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
) -> super::EvalResult {
    // Tail elision bumps `depth` once per elided logical frame; all of
    // them pop together when this activation exits, on any path.
    let depth_on_entry = it.depth;
    let mut st = TState {
        tries: Vec::new(),
        out: Value::Unit,
        flow: None,
    };
    let ops = &code.ops;
    let mut pc: u32 = 0;
    let result = loop {
        let next = (ops[pc as usize].run)(it, frame, code, &mut st, pc);
        if next < R_ERR {
            pc = next;
            continue;
        }
        match next {
            R_ERR => {
                let f = st.flow.take().expect("R_ERR parks a flow");
                if matches!(&f, Flow::Error(RtError::EnergyException(_))) {
                    if let Some(h) = st.tries.pop() {
                        pc = h;
                        continue;
                    }
                }
                break Err(f);
            }
            R_RET => break Err(Flow::Return(std::mem::replace(&mut st.out, Value::Unit))),
            _ => break Ok(std::mem::replace(&mut st.out, Value::Unit)),
        }
    };
    it.depth = depth_on_entry;
    result
}

// ---- binop lanes ------------------------------------------------------------

/// Fused-binop operand kinds, packed into [`TOp::kinds`].
pub(crate) const K_REG: u8 = 0;
pub(crate) const K_SLOT: u8 = 1;
pub(crate) const K_CST: u8 = 2;

/// The operator tags binop handlers are specialized on: each is the
/// operator's [`BinOp`] discriminant, so [`bin_op`] recovers the operator
/// for the generic path. `&&` and `||` have none; they compile to
/// short-circuit jumps.
const ADD: u8 = BinOp::Add as u8;
const SUB: u8 = BinOp::Sub as u8;
const MUL: u8 = BinOp::Mul as u8;
const DIV: u8 = BinOp::Div as u8;
const REM: u8 = BinOp::Rem as u8;
const EQ: u8 = BinOp::Eq as u8;
const NE: u8 = BinOp::Ne as u8;
const LT: u8 = BinOp::Lt as u8;
const LE: u8 = BinOp::Le as u8;
const GT: u8 = BinOp::Gt as u8;
const GE: u8 = BinOp::Ge as u8;

/// Selects a binop handler with the site's operator baked in.
macro_rules! sel_bin {
    ($handler:ident, $op:expr) => {
        match $op {
            BinOp::Add => $handler::<ADD>,
            BinOp::Sub => $handler::<SUB>,
            BinOp::Mul => $handler::<MUL>,
            BinOp::Div => $handler::<DIV>,
            BinOp::Rem => $handler::<REM>,
            BinOp::Eq => $handler::<EQ>,
            BinOp::Ne => $handler::<NE>,
            BinOp::Lt => $handler::<LT>,
            BinOp::Le => $handler::<LE>,
            BinOp::Gt => $handler::<GT>,
            BinOp::Ge => $handler::<GE>,
            BinOp::And | BinOp::Or => {
                unreachable!("`&&` and `||` compile to short-circuit jumps")
            }
        }
    };
}

/// [`op_bin`] for operator `op`.
pub(crate) fn op_bin_for(op: BinOp) -> TFn {
    sel_bin!(op_bin, op)
}

/// [`op_bin_f`] for operator `op`.
pub(crate) fn op_bin_f_for(op: BinOp) -> TFn {
    sel_bin!(op_bin_f, op)
}

/// [`op_jmp_bin`] for comparison `op`.
pub(crate) fn op_jmp_bin_for(op: BinOp) -> TFn {
    sel_bin!(op_jmp_bin, op)
}

/// [`op_jmp_bin_f`] for comparison `op`.
pub(crate) fn op_jmp_bin_f_for(op: BinOp) -> TFn {
    sel_bin!(op_jmp_bin_f, op)
}

/// Unboxed arithmetic/comparison on boxed operands: the `Int⊕Int` and
/// `Double⊕Double` cases inline. Everything else (string concatenation,
/// mixed operands, division or remainder by zero, type errors) returns
/// `None` and falls back to [`Interp::apply_binop`], which stays the
/// single source of truth for those semantics; this function must agree
/// with it exactly on the cases it handles.
#[inline(always)]
fn binop_fast(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    use BinOp::*;
    Some(match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            Add => Value::Int(a.wrapping_add(*b)),
            Sub => Value::Int(a.wrapping_sub(*b)),
            Mul => Value::Int(a.wrapping_mul(*b)),
            Div if *b != 0 => Value::Int(a.wrapping_div(*b)),
            Rem if *b != 0 => Value::Int(a.wrapping_rem(*b)),
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            _ => return None,
        },
        (Value::Double(a), Value::Double(b)) => match op {
            Add => Value::Double(a + b),
            Sub => Value::Double(a - b),
            Mul => Value::Double(a * b),
            Div => Value::Double(a / b),
            Rem => Value::Double(a % b),
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            _ => return None,
        },
        _ => return None,
    })
}

/// A scalar-decoded operand: the int/double fast lanes carry the bare
/// machine value (no 24-byte `Value` round trip through the register
/// file); everything else rides the general boxed lane.
enum Sc {
    I(i64),
    D(f64),
    V(Value),
}

impl Sc {
    #[inline(always)]
    fn into_value(self) -> Value {
        match self {
            Sc::I(n) => Value::Int(n),
            Sc::D(x) => Value::Double(x),
            Sc::V(v) => v,
        }
    }
}

/// Scalar-lane read of an operand of `kind` at `idx`: a register, a
/// frame slot (an unbound parameter errors with the operand's name,
/// [`Code::fused`] entry `site`, column `side`, which only that cold path
/// resolves through `it`), or a pool constant.
/// Int/double reads skip the enum clone and, for registers, the dead
/// store of `Unit`: a consumed temporary register is never re-read (the
/// compiler's single-use discipline for scratch), and stale scalar bits
/// carry no drop glue. Any other register value is taken out.
#[inline(always)]
fn fetch_sc(
    it: &Interp<'_>,
    frame: &mut Frame,
    code: &Code,
    kind: u8,
    idx: u32,
    site: u32,
    side: usize,
) -> Result<Sc, Flow> {
    match kind {
        K_REG => {
            let slot = &mut frame.locals[idx as usize];
            match &mut *slot {
                Value::Int(n) => Ok(Sc::I(*n)),
                Value::Double(x) => Ok(Sc::D(*x)),
                _ => Ok(Sc::V(std::mem::replace(slot, Value::Unit))),
            }
        }
        K_SLOT => {
            if idx >= frame.unbound_lo && idx < frame.n_params {
                return Err(it.unbound(code.fused[site as usize][side]));
            }
            match &frame.locals[idx as usize] {
                Value::Int(n) => Ok(Sc::I(*n)),
                Value::Double(x) => Ok(Sc::D(*x)),
                v => Ok(Sc::V(v.dup())),
            }
        }
        _ => match &code.consts[idx as usize] {
            Value::Int(n) => Ok(Sc::I(*n)),
            Value::Double(x) => Ok(Sc::D(*x)),
            k => Ok(Sc::V(k.dup())),
        },
    }
}

/// The operator-specialized scalar binop: `Some` on a fast lane, `None`
/// to fall back to the generic path (which re-derives the same result;
/// the lanes mirror [`binop_fast`]'s int/double arms exactly, including
/// falling back on division by zero so the error site is unchanged).
#[inline(always)]
fn bin_sc<const P: u8>(l: &Sc, r: &Sc) -> Option<Value> {
    match (l, r) {
        (Sc::I(a), Sc::I(b)) => {
            let (a, b) = (*a, *b);
            Some(match P {
                ADD => Value::Int(a.wrapping_add(b)),
                SUB => Value::Int(a.wrapping_sub(b)),
                MUL => Value::Int(a.wrapping_mul(b)),
                DIV if b != 0 => Value::Int(a.wrapping_div(b)),
                REM if b != 0 => Value::Int(a.wrapping_rem(b)),
                LT => Value::Bool(a < b),
                LE => Value::Bool(a <= b),
                GT => Value::Bool(a > b),
                GE => Value::Bool(a >= b),
                EQ => Value::Bool(a == b),
                NE => Value::Bool(a != b),
                _ => return None,
            })
        }
        (Sc::D(a), Sc::D(b)) => {
            let (a, b) = (*a, *b);
            Some(match P {
                ADD => Value::Double(a + b),
                SUB => Value::Double(a - b),
                MUL => Value::Double(a * b),
                DIV => Value::Double(a / b),
                REM => Value::Double(a % b),
                LT => Value::Bool(a < b),
                LE => Value::Bool(a <= b),
                GT => Value::Bool(a > b),
                GE => Value::Bool(a >= b),
                EQ => Value::Bool(a == b),
                NE => Value::Bool(a != b),
                _ => return None,
            })
        }
        _ => None,
    }
}

/// The comparison lanes as a bare `bool`: branch ops test the machine
/// compare without materializing a `Value::Bool`.
#[inline(always)]
fn cmp_sc<const P: u8>(l: &Sc, r: &Sc) -> Option<bool> {
    match (l, r) {
        (Sc::I(a), Sc::I(b)) => Some(match P {
            LT => a < b,
            LE => a <= b,
            GT => a > b,
            GE => a >= b,
            EQ => a == b,
            NE => a != b,
            _ => return None,
        }),
        (Sc::D(a), Sc::D(b)) => Some(match P {
            LT => a < b,
            LE => a <= b,
            GT => a > b,
            GE => a >= b,
            EQ => a == b,
            NE => a != b,
            _ => return None,
        }),
        _ => None,
    }
}

/// Applies the scalar-lane force discipline: int/double lanes cannot be
/// mode cases, so only the boxed lane pays the check.
macro_rules! forced_sc {
    ($it:ident, $frame:ident, $st:ident, $v:expr) => {{
        match $v {
            Sc::V(v) => Sc::V(forced!($it, $frame, $st, v)),
            sc => sc,
        }
    }};
}

// ---- handlers ---------------------------------------------------------------
//
// Each handler charges its op's head gas, then performs the tree
// walker's action for the node (or superinstruction) it was compiled
// from: same reads, same gas points, same error strings.

/// `a ← consts[d]`.
pub(crate) fn op_const<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    frame.set(t.a as usize, code.consts[t.d as usize].dup());
    pc + 1
}

/// `a ← unit`.
pub(crate) fn op_unit<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    frame.set(t.a as usize, Value::Unit);
    pc + 1
}

/// `a ← this`.
pub(crate) fn op_this<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let Some(r) = frame.this_ref else {
        return throw(st, no_this());
    };
    frame.set(t.a as usize, Value::Obj(r));
    pc + 1
}

/// `a ← locals[b]`, after the unbound-parameter check (name `d`, an
/// `Ir::names` index).
pub(crate) fn op_local<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    if t.b >= frame.unbound_lo && t.b < frame.n_params {
        return throw(st, it.unbound(t.d));
    }
    let v = frame.locals[t.b as usize].dup();
    frame.set(t.a as usize, v);
    pc + 1
}

/// Always errors: unbound variable `d` (an `Ir::names` index).
pub(crate) fn op_unbound<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    throw(st, it.unbound(t.d))
}

/// `a ← regs[b].field` via `fields[d]`.
pub(crate) fn op_field_get<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = &code.fields[t.d as usize];
    let r = match &frame.locals[t.b as usize] {
        Value::Obj(r) => *r,
        other => {
            return throw(
                st,
                RtError::Native(format!("field access on a {}", other.kind())).into(),
            )
        }
    };
    let v = tt!(st, it.read_field(frame, r, site.field, site.name));
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← this.field` via `fields[d]` (fused `this` and field read).
pub(crate) fn op_field_this<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = &code.fields[t.d as usize];
    let Some(r) = frame.this_ref else {
        return throw(st, no_this());
    };
    let v = tt!(st, it.read_field(frame, r, site.field, site.name));
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← new` with the constructor arguments at `regs[b..]`, site
/// `news[d]`.
pub(crate) fn op_new_obj<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = &code.news[t.d as usize];
    let vals = take_n!(frame, t.b, site.n_args);
    let (mode, env) = tt!(st, it.resolve_new(frame, site.class, &site.plan));
    let r = tt!(st, it.allocate(site.class, vals, mode, env));
    frame.set(t.a as usize, Value::Obj(r));
    pc + 1
}

/// Always errors: unknown class `unknown_classes[d]` (the constructor
/// arguments were evaluated into scratch first, as the tree walker
/// does).
pub(crate) fn op_new_unknown<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    throw(
        st,
        RtError::Native(format!(
            "unknown class `{}`",
            it.prog.spell(code.unknown_classes[t.d as usize])
        ))
        .into(),
    )
}

/// The generic send of [`op_call_m`] (head gas already charged):
/// resolves the receiver and funnels through [`Interp::invoke`], which
/// consults the site's inline cache.
fn call_site<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    t: &TOp,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let site = &code.calls[t.d as usize];
    let (recv, arg_base) = if site.this_recv {
        let Some(r) = frame.this_ref else {
            return throw(st, no_this());
        };
        (r, t.b)
    } else {
        match &frame.locals[t.b as usize] {
            Value::Obj(r) => (*r, t.b + 1),
            other => {
                return throw(
                    st,
                    RtError::Native(format!("method call on a {}", other.kind())).into(),
                )
            }
        }
    };
    let mut vals = it.grab_locals(site.n_args as usize);
    for r in arg_base as usize..(arg_base + site.n_args) as usize {
        vals.push(take!(frame, r));
    }
    let mut gmodes = Vec::with_capacity(site.mode_args.len());
    for m in it.prog.ir.modes(site.mode_args) {
        gmodes.push(tt!(st, it.resolve_mode(frame, m)));
    }
    let v = tt!(
        st,
        it.invoke(recv, site.method, vals, &gmodes, frame.mode, Some(site.ic))
    );
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← send` with the receiver and arguments at `regs[b..]` (no
/// receiver register when the site's receiver is `this`), site
/// `calls[d]`.
pub(crate) fn op_call_m<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    call_site(it, frame, code, t, st, pc)
}

/// [`op_call_m`] at a tail self-send: a `this`-receiver send with no
/// mode arguments whose result a gasless `return` consumes (the compiler
/// checks that shape when it emits the `return`). When the send resolves
/// through its inline cache to the body already running, it reuses this
/// frame: the arguments move into the parameter slots and the body
/// restarts at pc 0, instead of recursing through [`Interp::invoke`].
///
/// Elision is taken only when the full path would have been pure frame
/// bookkeeping: full arity; a callee with no attributor, mode override
/// or mode parameters (so the mode environment and frame mode are
/// provably unchanged); a receiver tag that passes the dfall check
/// without side effects; no live `try` handler in this frame (its slots
/// would be clobbered); no exact profiler, which charges costs to the
/// innermost frame as they happen and so needs every logical enter and
/// exit. The sampler keeps elision on: the consuming `return` is
/// gasless, so no steps separate the elided chain's end from its exit
/// hook, and per-path hit counts (the sampled report's only input) are
/// identical either way. And only the guarded strategy elides: transient
/// counts a check per send, and a skipped frame would skip its check.
/// The stack guard still counts each elided frame through `depth`.
pub(crate) fn op_tail_call<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    'tail: {
        if !matches!(it.config.enforcement, Enforcement::Guarded)
            || it.profiler.as_ref().is_some_and(AnyProfiler::is_exact)
            || !st.tries.is_empty()
        {
            break 'tail;
        }
        let site = &code.calls[t.d as usize];
        let Some(recv) = frame.this_ref else {
            break 'tail;
        };
        let Some(Some((cached_class, entry))) = it.ic_send.get(site.ic as usize) else {
            break 'tail;
        };
        let (cached_class, entry) = (*cached_class, *entry);
        let m = &it.prog.methods[entry.method as usize];
        if cached_class != it.heap[recv].class
            || m.attributor.is_some()
            || m.mode_override.is_some()
            || !m.mode_params.is_empty()
            || site.n_args != m.n_params
            || !it.prog.bodies[m.body as usize]
                .code()
                .is_some_and(|c| std::ptr::eq(c, code))
        {
            break 'tail;
        }
        let dfall_clean = match it.heap[recv].mode {
            RtTag::Dynamic => true,
            RtTag::Ground(g) => g == frame.mode && it.prog.le(g, frame.mode),
        };
        if !dfall_clean {
            break 'tail;
        }
        it.depth += 1;
        if it.depth > it.max_depth {
            return throw(st, RtError::StackOverflow.into());
        }
        let base = t.b as usize;
        for k in 0..site.n_args as usize {
            let v = take!(frame, base + k);
            frame.set(k, v);
        }
        frame.unbound_lo = u32::MAX;
        return 0;
    }
    call_site(it, frame, code, t, st, pc)
}

/// `a ← builtin` on the argument registers `regs[b..]` in place, site
/// `builtins[d]`. A sensor read that comes back faulted runs the
/// degradation ladder inside the call and the body carries on.
pub(crate) fn op_call_b<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = &code.builtins[t.d as usize];
    let v = tt!(st, it.call_builtin(frame, site, t.b as usize));
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← cast(regs[b])` via `casts[d]`.
pub(crate) fn op_cast<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let v = take!(frame, t.b);
    tt!(st, it.check_cast(&v, &code.casts[t.d as usize]));
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← snapshot(regs[b])` via `snaps[d]`.
pub(crate) fn op_snap<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = code.snaps[t.d as usize];
    let v = take!(frame, t.b);
    let Value::Obj(r) = v else {
        return throw(
            st,
            RtError::Native(format!("snapshot of a {}", v.kind())).into(),
        );
    };
    let v = tt!(st, it.snapshot(frame, r, &site.lo, &site.hi, Some(site.ic)));
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← mcase` of the arms at `regs[b..]`, site `mcases[d]`.
pub(crate) fn op_make_mcase<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = &code.mcases[t.d as usize];
    let base = t.b as usize;
    let arms: Vec<(ent_modes::ModeName, Value)> = it.prog.ir.arm_modes[site.modes.range()]
        .iter()
        .enumerate()
        .map(|(k, m)| (m.clone(), take!(frame, base + k)))
        .collect();
    frame.set(t.a as usize, Value::MCase(Arc::new(arms)));
    pc + 1
}

/// `a ← regs[b] <| mode` via `elims[d]`, through the site's arm cache.
pub(crate) fn op_elim<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = code.elims[t.d as usize];
    let v = take!(frame, t.b);
    let Value::MCase(arms) = v else {
        return throw(
            st,
            RtError::Native(format!("`<|` on a {}", v.kind())).into(),
        );
    };
    let target = match site.mode {
        Some(m) => tt!(st, it.resolve_mode(frame, &m)),
        None => frame.mode,
    };
    let window = it.decision_window();
    let s = site.ic as usize;
    if it.ic_arm.len() <= s {
        it.ic_arm.resize(s + 1, None);
    }
    let hit = match &it.ic_arm[s] {
        Some(c) if Arc::ptr_eq(&c.arms, &arms) && c.target == target && c.window == window => {
            Some(c.idx)
        }
        _ => None,
    };
    let out = match hit {
        Some(idx) => arms[idx as usize].1.dup(),
        None => {
            let (idx, out) = tt!(st, it.eliminate_idx(&arms, target));
            it.ic_arm[s] = Some(ArmIc {
                arms: Arc::clone(&arms),
                target,
                window,
                idx,
            });
            out
        }
    };
    frame.set(t.a as usize, out);
    pc + 1
}

/// `a ← regs[b] P regs[c]`; the rhs is forced here (a separate
/// [`op_force`] precedes the rhs code when the lhs may be a mode case).
fn op_bin<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(it, frame, code, K_REG, t.b, 0, 0));
    let r = tt!(st, fetch_sc(it, frame, code, K_REG, t.c, 0, 0));
    let r = forced_sc!(it, frame, st, r);
    let v = match bin_sc::<P>(&l, &r) {
        Some(v) => v,
        None => {
            let (op, l, r) = (bin_op(P), l.into_value(), r.into_value());
            match binop_fast(op, &l, &r) {
                Some(v) => v,
                None => tt!(st, it.apply_binop(op, &l, &r)),
            }
        }
    };
    frame.set(t.a as usize, v);
    pc + 1
}

/// `a ← lhs P rhs` on fused operands: the lhs at `b` and the rhs at `c`,
/// of the kinds packed in `kinds`, named at `fused[d]`. The rhs leaf's
/// one gas charge falls between the lhs force and the rhs read, its tree
/// position.
fn op_bin_f<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(it, frame, code, t.kinds & 0xf, t.b, t.d, 0));
    let l = forced_sc!(it, frame, st, l);
    tt!(st, it.gas());
    let r = tt!(st, fetch_sc(it, frame, code, t.kinds >> 4, t.c, t.d, 1));
    let r = forced_sc!(it, frame, st, r);
    let v = match bin_sc::<P>(&l, &r) {
        Some(v) => v,
        None => {
            let (op, l, r) = (bin_op(P), l.into_value(), r.into_value());
            match binop_fast(op, &l, &r) {
                Some(v) => v,
                None => tt!(st, it.apply_binop(op, &l, &r)),
            }
        }
    };
    frame.set(t.a as usize, v);
    pc + 1
}

/// A comparison's `if` guard when it is not a bool: comparisons only
/// ever produce booleans, but the guard keeps its shape rather than
/// panic.
#[cold]
#[inline(never)]
fn not_a_condition(st: &mut TState, v: &Value) -> u32 {
    throw(
        st,
        RtError::Native(format!("if condition is a {}", v.kind())).into(),
    )
}

/// Compare and branch: `regs[a] P regs[b]`, jumping to `d` when false.
fn op_jmp_bin<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(it, frame, code, K_REG, t.a, 0, 0));
    let r = tt!(st, fetch_sc(it, frame, code, K_REG, t.b, 0, 0));
    let r = forced_sc!(it, frame, st, r);
    if let Some(b) = cmp_sc::<P>(&l, &r) {
        return if b { pc + 1 } else { t.d };
    }
    let (op, l, r) = (bin_op(P), l.into_value(), r.into_value());
    let v = match binop_fast(op, &l, &r) {
        Some(v) => v,
        None => tt!(st, it.apply_binop(op, &l, &r)),
    };
    match v {
        Value::Bool(true) => pc + 1,
        Value::Bool(false) => t.d,
        other => not_a_condition(st, &other),
    }
}

/// Compare and branch on fused operands (`b`, `c` and `kinds` as in
/// [`op_bin_f`], named at `fused[a]`), jumping to `d` when false.
fn op_jmp_bin_f<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let site = t.a;
    let l = tt!(st, fetch_sc(it, frame, code, t.kinds & 0xf, t.b, site, 0));
    let l = forced_sc!(it, frame, st, l);
    tt!(st, it.gas());
    let r = tt!(st, fetch_sc(it, frame, code, t.kinds >> 4, t.c, site, 1));
    let r = forced_sc!(it, frame, st, r);
    if let Some(b) = cmp_sc::<P>(&l, &r) {
        return if b { pc + 1 } else { t.d };
    }
    let (op, l, r) = (bin_op(P), l.into_value(), r.into_value());
    let v = match binop_fast(op, &l, &r) {
        Some(v) => v,
        None => tt!(st, it.apply_binop(op, &l, &r)),
    };
    match v {
        Value::Bool(true) => pc + 1,
        Value::Bool(false) => t.d,
        other => not_a_condition(st, &other),
    }
}

/// `a ← ⊖ regs[b]`, with `⊖` = `!` when `c == 0` and unary `-` when
/// `c == 1`.
pub(crate) fn op_un<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let v = take!(frame, t.b);
    let v = forced!(it, frame, st, v);
    let op = if t.c == 0 { UnOp::Not } else { UnOp::Neg };
    let out = tt!(st, Interp::apply_unop(op, v));
    frame.set(t.a as usize, out);
    pc + 1
}

/// Jumps to `d`.
pub(crate) fn op_jmp<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    t.d
}

/// The `if` guard: forces `regs[b]` and jumps to `d` unless it is
/// `true`.
pub(crate) fn op_jmp_if_false<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let v = take!(frame, t.b);
    let v = forced!(it, frame, st, v);
    let Value::Bool(b) = v else {
        return throw(
            st,
            RtError::Native(format!("if condition is a {}", v.kind())).into(),
        );
    };
    if b {
        pc + 1
    } else {
        t.d
    }
}

/// Forces `regs[b]` to a bool for operator `bin_op(c)` and stores it
/// back.
fn sc_bool(it: &mut Interp<'_>, frame: &mut Frame, t: &TOp, st: &mut TState) -> Result<bool, u32> {
    let v = take!(frame, t.b);
    let v = match v {
        Value::MCase(_) => it.force(frame, v).map_err(|f| throw(st, f))?,
        v => v,
    };
    let Value::Bool(b) = v else {
        let op = bin_op(t.c);
        return Err(throw(
            st,
            RtError::Native(format!("`{op}` on a {}", v.kind())).into(),
        ));
    };
    frame.set(t.b as usize, Value::Bool(b));
    Ok(b)
}

/// The short-circuit guard of `&&`/`||` (operator `bin_op(c)`): forces
/// `regs[b]` to a bool, stores it back, and jumps to `d` when the
/// operator short-circuits (`&&` on false, `||` on true).
pub(crate) fn op_sc_jump<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let b = match sc_bool(it, frame, t, st) {
        Ok(b) => b,
        Err(sentinel) => return sentinel,
    };
    let short = match bin_op(t.c) {
        BinOp::And => !b,
        _ => b,
    };
    if short {
        t.d
    } else {
        pc + 1
    }
}

/// The non-short-circuit tail of `&&`/`||`: forces `regs[b]` to a bool
/// for operator `bin_op(c)` and stores it back.
pub(crate) fn op_sc_force<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    match sc_bool(it, frame, t, st) {
        Ok(_) => pc + 1,
        Err(sentinel) => sentinel,
    }
}

/// Forces `regs[b]` in place (eliminates a mode case at the frame's
/// mode).
pub(crate) fn op_force<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    // Forcing anything but a mode case is the identity: skip the take
    // and write-back entirely (the common case by far).
    if matches!(frame.locals[t.b as usize], Value::MCase(_)) {
        let v = take!(frame, t.b);
        let v = tt!(st, it.force(frame, v));
        frame.set(t.b as usize, v);
    }
    pc + 1
}

/// `a ← [regs[b..b + c]]`.
pub(crate) fn op_arr_lit<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    let vals = take_n!(frame, t.b, t.c);
    frame.set(t.a as usize, Value::Array(Arc::new(vals)));
    pc + 1
}

/// `return regs[b]` (unwinds to the method boundary).
pub(crate) fn op_ret<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    st.out = take!(frame, t.b);
    R_RET
}

/// End of body: yields `regs[b]` as the body's value.
pub(crate) fn op_halt<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    st.out = take!(frame, t.b);
    R_DONE
}

/// Pushes an exception handler at pc `d`.
pub(crate) fn op_try_push<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    st.tries.push(t.d);
    pc + 1
}

/// Pops the innermost handler (its body completed without throwing).
pub(crate) fn op_try_pop<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &code.ops[pc as usize];
    charge!(it, t, st);
    st.tries.pop();
    pc + 1
}
