//! The bytecode engine's closure-threaded tier: compiles a hot body's
//! bytecode ([`Code`]) into a flat array of fn-pointer ops ([`TOp`]) with
//! pre-resolved operands, replacing the VM's pc-driven `match` dispatch
//! with one indirect call per op.
//!
//! Declared as a child module of [`crate::interp`] — like the bytecode VM
//! and the enforcement seam — so the ops call straight into the same
//! private machinery (heap, invoke, snapshot, builtins, inline caches,
//! events, profiler). Threaded execution is *observationally identical*
//! to the bytecode VM: same gas charges in the same order, same errors,
//! same stats, same events; the only new observable is the perf-only
//! [`crate::TierStats`] counters, which deliberately live outside
//! [`crate::RunStats`].
//!
//! # Handlers
//!
//! Each bytecode instruction compiles to one plain handler function.
//! Binop handlers are the one exception to "one per op": they are
//! specialized on the site's static operator, so their int/double lanes
//! are straight-line arithmetic. Operand kinds (register, slot, constant)
//! are read at run time from the op's payload, and the tier fuses no ops
//! of its own; its only multi-node shapes are the bytecode compiler's
//! superinstructions (`BinF`, `JmpBinF`, `FieldThis`) and tail self-send
//! elision.
//!
//! # Dispatch
//!
//! Every op returns the next pc as a bare `u32` — the hot loop is one
//! indirect call, one compare against [`R_DEOPT`], one assignment. The
//! four rare continuations (deopt, error, `return`, done) are folded
//! into the top of the `u32` range as sentinels, with their payloads
//! parked in the activation's [`TState`]; returning a scalar keeps the
//! common path free of the by-memory enum returns a `Ctl`-style control
//! type would force.
//!
//! # The deopt contract
//!
//! Threaded ops stay **pc-aligned** with the bytecode stream: `ops[pc]`
//! executes exactly `instrs[pc]`. Alignment is what makes deopt trivial
//! and total: a guarded op that must bail hands its live frame, pc, and
//! `try`-handler stack to [`Interp::exec_from`] with no side tables,
//! reconstruction, or restrictions on where it may happen. Every guard
//! bails *before* its op has any observable effect (or, for the
//! fault-epoch guard, precisely after the op completed), so the bytecode
//! VM re-executes from an interpreter state bit-identical to the one it
//! would have reached on its own.
//!
//! # The guard set
//!
//! Bodies are compiled against the guarded strategy's semantics (the
//! only one that may elide tail self-sends), so a transient run never
//! enters this tier: `run_body` keeps it on the VM before compiling
//! anything. Within a guarded run:
//!
//! * **Mode window** — under fault injection with a decision window, a
//!   pending mode decision (snapshot or `<|`) deopts when the window has
//!   rolled since body entry, leaving window-sensitive slow paths to the
//!   VM.
//! * **IC monomorphism** — a send site whose inline cache keeps missing
//!   deopts as megamorphic once its per-run miss counter crosses
//!   [`MEGAMORPHIC_MISSES`].
//! * **Fault epoch** — a sensor read that came back faulted bumps the
//!   injector epoch; the rest of the body defers to the VM, which owns
//!   the degradation ladder.

use ent_syntax::UnOp;
use std::sync::Arc;

use super::vm::{binop_fast, ArmIc};
use super::{DeoptReason, Frame, Interp, RtTag};
use crate::compile::{Code, FusedBin, Op, Opnd};
use crate::error::{Flow, RtError};
use crate::lower::BOp;
use crate::profile::AnyProfiler;
use crate::value::Value;

/// One threaded op: its handler plus its pre-resolved payload. Field
/// meaning is per-handler (documented at each handler); broadly `a` is
/// the destination register, `b`/`c` source indices (a constant
/// operand's index into [`Code::consts`]), and `d` a site index,
/// constant index or jump target. Constants stay in the bytecode's pool,
/// which every handler receives, so an op is 32 bytes rather than
/// carrying two inline [`Value`]s.
pub(crate) struct TOp {
    run: TFn,
    gas: u16,
    a: u16,
    b: u16,
    c: u16,
    /// Mid-op gas for fused binops (charged between the operand reads,
    /// exactly like the VM).
    rgas: u16,
    d: u32,
    /// Interned-name index of the lhs slot operand (error messages).
    n1: u32,
    /// Interned-name index of the rhs slot operand.
    n2: u32,
    bin: ent_syntax::BinOp,
    /// Fused-binop operand kinds: the lhs's `K_*` tag in the low nibble,
    /// the rhs's in the high nibble.
    kinds: u8,
}

const _: () = assert!(std::mem::size_of::<TOp>() == 32);

/// A compiled body: one [`TOp`] per bytecode instruction, pc-aligned
/// (see the module docs for why alignment *is* the deopt contract).
pub(crate) struct TCode {
    ops: Box<[TOp]>,
}

impl std::fmt::Debug for TCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TCode({} ops)", self.ops.len())
    }
}

/// Per-activation threaded state: the live `try`-handler stack (bytecode
/// pcs, handed to the VM verbatim on deopt), the energy-decision window
/// observed at body entry (the mode-window guard's baseline), and the
/// parking slots for sentinel-return payloads (see the module docs on
/// dispatch).
struct TState {
    tries: Vec<u32>,
    entry_window: u64,
    /// `return`/completion value ([`R_RET`] / [`R_DONE`]).
    out: Value,
    /// Error or energy exception ([`R_ERR`]).
    flow: Option<Flow>,
    /// Why the body is bailing ([`R_DEOPT`]).
    deopt: DeoptReason,
    /// Bytecode pc the VM resumes at ([`R_DEOPT`]).
    deopt_pc: u32,
}

/// An op's `u32` return is the next pc when below [`R_DEOPT`]; the top
/// four values are reserved as sentinels (bodies are bounded far below
/// by [`compile_threaded`]'s length assertion).
const R_DEOPT: u32 = u32::MAX - 3;
/// An error or energy exception is parked in [`TState::flow`].
const R_ERR: u32 = u32::MAX - 2;
/// A `return` value is parked in [`TState::out`].
const R_RET: u32 = u32::MAX - 1;
/// The body completed; the result is parked in [`TState::out`].
const R_DONE: u32 = u32::MAX;

/// An op handler: runs `ops[pc]` and returns the next pc or a sentinel.
type TFn = for<'p> fn(&mut Interp<'p>, &mut Frame, &'p Code, &[TOp], &mut TState, u32) -> u32;

/// Send-site IC misses tolerated per run before the site deopts as
/// megamorphic. Small enough that a genuinely polymorphic site bails
/// within a few calls; large enough that the one cold miss plus a couple
/// of honest transitions keep the fast path.
const MEGAMORPHIC_MISSES: u8 = 4;

/// Parks an error for the driver; out-of-line so handlers keep their
/// fallible edges off the hot path.
#[cold]
#[inline(never)]
fn throw(st: &mut TState, f: Flow) -> u32 {
    st.flow = Some(f);
    R_ERR
}

/// Parks a deopt request: the VM resumes at `pc`.
#[cold]
#[inline(never)]
fn deopt_at(st: &mut TState, pc: u32, r: DeoptReason) -> u32 {
    st.deopt = r;
    st.deopt_pc = pc;
    R_DEOPT
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

/// Charges the op's head gas (the VM charges per instruction head; the
/// threaded tier charges identically so step counts — and therefore
/// out-of-gas points and profiler attribution — never diverge).
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
/// passes through (the VM's `matches!(v, MCase(_))` pattern).
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

/// Enters a compiled body. Only guarded runs get here (see the module
/// docs on the guard set).
pub(super) fn enter<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    tcode: &TCode,
) -> super::EvalResult {
    it.tier.threaded_entries += 1;
    // Tail elision bumps `depth` per elided logical frame; all of them
    // pop together when this activation exits — including via deopt,
    // whose nested `exec_from` runs inside this save/restore.
    let depth_on_entry = it.depth;
    let result = run_loop(it, frame, code, tcode);
    it.depth = depth_on_entry;
    result
}

fn run_loop<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    tcode: &TCode,
) -> super::EvalResult {
    let mut st = TState {
        tries: Vec::new(),
        entry_window: it.decision_window(),
        out: Value::Unit,
        flow: None,
        // Placeholder: `deopt_at` sets the reason before every R_DEOPT.
        deopt: DeoptReason::ModeWindow,
        deopt_pc: 0,
    };
    let ops = &tcode.ops;
    let mut pc: u32 = 0;
    loop {
        let next = (ops[pc as usize].run)(it, frame, code, ops, &mut st, pc);
        if next < R_DEOPT {
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
                return Err(f);
            }
            R_RET => return Err(Flow::Return(std::mem::replace(&mut st.out, Value::Unit))),
            R_DONE => return Ok(std::mem::replace(&mut st.out, Value::Unit)),
            _ => {
                it.tier.deopt(st.deopt);
                return it.exec_from(
                    frame,
                    code,
                    st.deopt_pc as usize,
                    std::mem::take(&mut st.tries),
                );
            }
        }
    }
}

// ---- compilation ----------------------------------------------------------

/// Fused-binop operand kinds, packed into [`TOp::kinds`].
const K_REG: u8 = 0;
const K_SLOT: u8 = 1;
const K_CST: u8 = 2;

/// Binop tags for the operator-specialized binop handlers: the compiler
/// knows each site's [`ent_syntax::BinOp`], so the handler is selected
/// with the operator baked in and the scalar lanes compile to
/// straight-line arithmetic (no runtime operator dispatch). [`OP_GEN`] is
/// the catch-all for operators without a scalar lane (`&&`, `||`, string
/// concat), which run the generic [`binop_fast`] / `apply_binop` path.
const OP_GEN: u8 = 0;
const OP_ADD: u8 = 1;
const OP_SUB: u8 = 2;
const OP_MUL: u8 = 3;
const OP_DIV: u8 = 4;
const OP_REM: u8 = 5;
const OP_LT: u8 = 6;
const OP_LE: u8 = 7;
const OP_GT: u8 = 8;
const OP_GE: u8 = 9;
const OP_EQ: u8 = 10;
const OP_NE: u8 = 11;

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

/// Scalar-lane operand read of a `kind` operand. Same error order as the
/// VM's `read_opnd`; int/double reads skip the enum clone (and, for
/// registers, the dead-store of `Unit` — a consumed temp register is
/// never re-read, by the bytecode compiler's single-use discipline the
/// VM's own take-and-replace relies on, and stale scalar bits carry no
/// drop glue).
#[inline(always)]
fn fetch_sc(frame: &mut Frame, code: &Code, kind: u8, idx: u16, name: u32) -> Result<Sc, Flow> {
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
            let slot = u32::from(idx);
            if slot >= frame.unbound_lo && slot < frame.n_params {
                return Err(RtError::Native(format!(
                    "unbound variable `{}`",
                    code.names[name as usize]
                ))
                .into());
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
/// to fall back to the generic path (which re-derives the same result —
/// the lanes mirror [`binop_fast`]'s int/double arms exactly, including
/// falling back on division by zero so the error site is unchanged).
#[inline(always)]
fn bin_sc<const P: u8>(l: &Sc, r: &Sc) -> Option<Value> {
    match (l, r) {
        (Sc::I(a), Sc::I(b)) => {
            let (a, b) = (*a, *b);
            Some(match P {
                OP_ADD => Value::Int(a.wrapping_add(b)),
                OP_SUB => Value::Int(a.wrapping_sub(b)),
                OP_MUL => Value::Int(a.wrapping_mul(b)),
                OP_DIV if b != 0 => Value::Int(a.wrapping_div(b)),
                OP_REM if b != 0 => Value::Int(a.wrapping_rem(b)),
                OP_LT => Value::Bool(a < b),
                OP_LE => Value::Bool(a <= b),
                OP_GT => Value::Bool(a > b),
                OP_GE => Value::Bool(a >= b),
                OP_EQ => Value::Bool(a == b),
                OP_NE => Value::Bool(a != b),
                _ => return None,
            })
        }
        (Sc::D(a), Sc::D(b)) => {
            let (a, b) = (*a, *b);
            Some(match P {
                OP_ADD => Value::Double(a + b),
                OP_SUB => Value::Double(a - b),
                OP_MUL => Value::Double(a * b),
                OP_DIV => Value::Double(a / b),
                OP_REM => Value::Double(a % b),
                OP_LT => Value::Bool(a < b),
                OP_LE => Value::Bool(a <= b),
                OP_GT => Value::Bool(a > b),
                OP_GE => Value::Bool(a >= b),
                OP_EQ => Value::Bool(a == b),
                OP_NE => Value::Bool(a != b),
                _ => return None,
            })
        }
        _ => None,
    }
}

/// The comparison lanes as a bare `bool` — guard ops branch directly on
/// the machine compare without materializing a `Value::Bool`.
#[inline(always)]
fn cmp_sc<const P: u8>(l: &Sc, r: &Sc) -> Option<bool> {
    match (l, r) {
        (Sc::I(a), Sc::I(b)) => Some(match P {
            OP_LT => a < b,
            OP_LE => a <= b,
            OP_GT => a > b,
            OP_GE => a >= b,
            OP_EQ => a == b,
            OP_NE => a != b,
            _ => return None,
        }),
        (Sc::D(a), Sc::D(b)) => Some(match P {
            OP_LT => a < b,
            OP_LE => a <= b,
            OP_GT => a > b,
            OP_GE => a >= b,
            OP_EQ => a == b,
            OP_NE => a != b,
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

/// Pre-resolves a fused operand: `(kind, index, name)`, where a
/// constant's index is its slot in [`Code::consts`].
fn pre_opnd(o: &Opnd) -> (u8, u16, u32) {
    match *o {
        Opnd::Reg(r) => (K_REG, r, 0),
        Opnd::Slot { slot, name } => (K_SLOT, slot, name),
        Opnd::Cst(k) => (K_CST, k, 0),
    }
}

/// Loads a `BinF` / `JmpBinF` site into `t`: operator, mid-op gas, and
/// both operands' indices, names and kinds.
fn pre_fused(t: &mut TOp, site: &FusedBin) {
    let (lk, li, ln) = pre_opnd(&site.lhs);
    let (rk, ri, rn) = pre_opnd(&site.rhs);
    t.bin = site.op;
    t.rgas = site.rgas;
    t.b = li;
    t.c = ri;
    t.n1 = ln;
    t.n2 = rn;
    t.kinds = lk | rk << 4;
}

/// Selects a binop handler with the site's operator baked in.
macro_rules! sel_bin {
    ($handler:ident, $op:expr) => {
        match $op {
            ent_syntax::BinOp::Add => $handler::<OP_ADD>,
            ent_syntax::BinOp::Sub => $handler::<OP_SUB>,
            ent_syntax::BinOp::Mul => $handler::<OP_MUL>,
            ent_syntax::BinOp::Div => $handler::<OP_DIV>,
            ent_syntax::BinOp::Rem => $handler::<OP_REM>,
            ent_syntax::BinOp::Lt => $handler::<OP_LT>,
            ent_syntax::BinOp::Le => $handler::<OP_LE>,
            ent_syntax::BinOp::Gt => $handler::<OP_GT>,
            ent_syntax::BinOp::Ge => $handler::<OP_GE>,
            ent_syntax::BinOp::Eq => $handler::<OP_EQ>,
            ent_syntax::BinOp::Ne => $handler::<OP_NE>,
            _ => $handler::<OP_GEN>,
        }
    };
}

/// Whether the `CallM` at `pc` compiles to [`op_tail_call`]: a
/// `this`-receiver full-arity send whose result feeds a gasless `Ret`.
/// The runtime half of the guard lives in the handler.
fn is_tail_shape(code: &Code, pc: usize) -> bool {
    let i = &code.instrs[pc];
    let site = &code.calls[i.d as usize];
    site.this_recv
        && site.mode_args.is_empty()
        && code
            .instrs
            .get(pc + 1)
            .is_some_and(|next| next.op == Op::Ret && next.b == i.a && next.gas == 0)
}

/// Whether the `CallB` at `pc` compiles to [`op_call_b_sensor`] (a sensor
/// builtin carrying the fault-epoch deopt guard).
fn is_sensor(code: &Code, pc: usize) -> bool {
    let site = &code.builtins[code.instrs[pc].d as usize];
    matches!(site.op, BOp::ExtBattery | BOp::ExtTemperature)
}

/// Compiles a body's bytecode into pc-aligned threaded ops. Pure and
/// deterministic: payloads are pre-resolved from `code` alone, so the
/// result is shared program-wide exactly like the bytecode it mirrors.
pub(crate) fn compile_threaded(code: &Code) -> TCode {
    // Next-pc returns share the u32 range with the four sentinels; real
    // bodies are nowhere near 4 billion ops.
    assert!(code.instrs.len() < R_DEOPT as usize);
    let mut ops = Vec::with_capacity(code.instrs.len());
    for (pc, i) in code.instrs.iter().enumerate() {
        let mut t = TOp {
            run: op_unit,
            gas: i.gas,
            a: i.a,
            b: i.b,
            c: i.c,
            rgas: 0,
            d: i.d,
            n1: 0,
            n2: 0,
            bin: ent_syntax::BinOp::Add,
            kinds: 0,
        };
        t.run = match i.op {
            Op::Const => op_const,
            Op::Unit => op_unit,
            Op::This => op_this,
            Op::Local => op_local,
            Op::Unbound => op_unbound,
            Op::FieldGet => op_field_get,
            Op::FieldThis => op_field_this,
            Op::NewObj => op_new_obj,
            Op::NewUnknown => op_new_unknown,
            Op::CallM if is_tail_shape(code, pc) => op_tail_call,
            Op::CallM => op_call_m,
            Op::CallB if is_sensor(code, pc) => op_call_b_sensor,
            Op::CallB => op_call_b,
            Op::CastV => op_cast,
            Op::Snap => op_snap,
            Op::MakeMCase => op_make_mcase,
            Op::ElimV => op_elim,
            Op::Bin => {
                t.bin = code.bins[i.d as usize];
                sel_bin!(op_bin, t.bin)
            }
            Op::BinF => {
                pre_fused(&mut t, &code.fused[i.d as usize]);
                sel_bin!(op_bin_f, t.bin)
            }
            Op::JmpBin => {
                t.bin = code.bins[i.c as usize];
                sel_bin!(op_jmp_bin, t.bin)
            }
            Op::JmpBinF => {
                pre_fused(&mut t, &code.fused[i.a as usize]);
                sel_bin!(op_jmp_bin_f, t.bin)
            }
            Op::Un => op_un,
            Op::Jmp => op_jmp,
            Op::JmpIfFalse => op_jmp_if_false,
            Op::ScJump => {
                t.bin = code.bins[i.c as usize];
                op_sc_jump
            }
            Op::ScForce => {
                t.bin = code.bins[i.c as usize];
                op_sc_force
            }
            Op::Force => op_force,
            Op::ArrLit => op_arr_lit,
            Op::Ret => op_ret,
            Op::Halt => op_halt,
            Op::TryPush => op_try_push,
            Op::TryPop => op_try_pop,
        };
        ops.push(t);
    }
    TCode {
        ops: ops.into_boxed_slice(),
    }
}

// ---- handlers -------------------------------------------------------------
//
// Each handler mirrors its VM arm action for action — same reads, same
// gas points, same error strings — with operand payloads pre-resolved
// into the `TOp`. Handlers return the next pc (or a sentinel).

fn op_const<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    frame.set(t.a as usize, code.consts[t.d as usize].dup());
    pc + 1
}

fn op_unit<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    frame.set(t.a as usize, Value::Unit);
    pc + 1
}

fn op_this<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let Some(r) = frame.this_ref else {
        return throw(
            st,
            RtError::Native("`this` outside an object context".into()).into(),
        );
    };
    frame.set(t.a as usize, Value::Obj(r));
    pc + 1
}

fn op_local<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let slot = u32::from(t.b);
    if slot >= frame.unbound_lo && slot < frame.n_params {
        return throw(
            st,
            RtError::Native(format!("unbound variable `{}`", code.names[t.d as usize])).into(),
        );
    }
    let v = frame.locals[t.b as usize].dup();
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_unbound<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    throw(
        st,
        RtError::Native(format!("unbound variable `{}`", code.names[t.d as usize])).into(),
    )
}

fn op_field_get<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
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
    let v = tt!(st, it.read_field(frame, r, site.field, &site.name));
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_field_this<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let site = &code.fields[t.d as usize];
    let Some(r) = frame.this_ref else {
        return throw(
            st,
            RtError::Native("`this` outside an object context".into()).into(),
        );
    };
    let v = tt!(st, it.read_field(frame, r, site.field, &site.name));
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_new_obj<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let site = &code.news[t.d as usize];
    let vals = take_n!(frame, t.b, site.n_args);
    let (mode, env) = tt!(st, it.resolve_new(frame, site.class, &site.plan));
    let r = tt!(st, it.allocate(site.class, vals, mode, env));
    frame.set(t.a as usize, Value::Obj(r));
    pc + 1
}

fn op_new_unknown<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    throw(
        st,
        RtError::Native(format!(
            "unknown class `{}`",
            code.unknown_classes[t.d as usize]
        ))
        .into(),
    )
}

/// Bumps a send site's per-run IC miss counter; true once the site has
/// transitioned often enough to count as megamorphic.
fn poly_miss(it: &mut Interp<'_>, ic: u32) -> bool {
    let i = ic as usize;
    if it.ic_poly.len() <= i {
        it.ic_poly.resize(i + 1, 0);
    }
    let c = it.ic_poly[i].saturating_add(1);
    it.ic_poly[i] = c;
    c >= MEGAMORPHIC_MISSES
}

/// The generic send: resolves the receiver, applies the megamorphic
/// guard (before any register is consumed, so a deopt replays the site
/// on the VM from an untouched frame), then funnels through
/// [`Interp::invoke`] exactly like the VM.
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
            return throw(
                st,
                RtError::Native("`this` outside an object context".into()).into(),
            );
        };
        (r, u32::from(t.b))
    } else {
        match &frame.locals[t.b as usize] {
            Value::Obj(r) => (*r, u32::from(t.b) + 1),
            other => {
                return throw(
                    st,
                    RtError::Native(format!("method call on a {}", other.kind())).into(),
                )
            }
        }
    };
    let class = it.heap[recv].class;
    let hit = it
        .ic_send
        .get(site.ic as usize)
        .is_some_and(|e| e.is_some_and(|(c, _)| c == class));
    if !hit && poly_miss(it, site.ic) {
        return deopt_at(st, pc, DeoptReason::IcMegamorphic);
    }
    let mut vals = it.grab_locals(site.n_args as usize);
    for r in arg_base as usize..(arg_base + u32::from(site.n_args)) as usize {
        vals.push(take!(frame, r));
    }
    let mut gmodes = Vec::with_capacity(site.mode_args.len());
    for m in &site.mode_args {
        gmodes.push(tt!(st, it.resolve_mode(frame, m)));
    }
    let v = tt!(
        st,
        it.invoke(recv, site.method, vals, &gmodes, frame.mode, Some(site.ic))
    );
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_call_m<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    call_site(it, frame, code, t, st, pc)
}

/// A send statically matching the VM's tail self-send shape. The runtime
/// half of the elision guard mirrors the VM's exactly (the static half —
/// `this` receiver, no mode arguments, gasless consuming `Ret` — was
/// proven at compile time, and `run_body` enters this tier only in
/// guarded runs); on failure the send takes the generic path.
fn op_tail_call<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    'tail: {
        if it.profiler.as_ref().is_some_and(AnyProfiler::is_exact) || !st.tries.is_empty() {
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
        let m = &entry.method;
        if cached_class != it.heap[recv].class
            || m.attributor.is_some()
            || m.mode_override.is_some()
            || !m.mode_params.is_empty()
            || u32::from(site.n_args) != m.n_params
            || !m.body_code.code().is_some_and(|c| std::ptr::eq(c, code))
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

fn op_call_b<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let site = &code.builtins[t.d as usize];
    let v = tt!(st, it.call_builtin(frame, site, t.b as usize));
    frame.set(t.a as usize, v);
    pc + 1
}

/// A sensor-reading builtin (`Ext.battery` / `Ext.temperature`): the
/// fault-epoch guard. The read itself completed — identically to the VM,
/// including the degradation ladder — but a faulted serve bumps the
/// injector epoch, so the rest of the body defers to the VM.
fn op_call_b_sensor<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let site = &code.builtins[t.d as usize];
    let faults_before = it.stats.sensor_faults;
    let v = tt!(st, it.call_builtin(frame, site, t.b as usize));
    frame.set(t.a as usize, v);
    if it.faults_on && it.stats.sensor_faults != faults_before {
        return deopt_at(st, pc + 1, DeoptReason::FaultEpoch);
    }
    pc + 1
}

fn op_cast<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let v = take!(frame, t.b);
    tt!(st, it.check_cast(&v, &code.casts[t.d as usize]));
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_snap<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    // Mode-window guard: a rolled decision window means the snapshot's
    // window-keyed caches and fault interactions are stale territory;
    // deopt before deciding (no state was touched, the VM replays the
    // whole snapshot).
    if it.faults_on && it.decision_window() != st.entry_window {
        return deopt_at(st, pc, DeoptReason::ModeWindow);
    }
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

fn op_make_mcase<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let site = &code.mcases[t.d as usize];
    let base = t.b as usize;
    let arms: Vec<(ent_modes::ModeName, Value)> = site
        .modes
        .iter()
        .enumerate()
        .map(|(k, m)| (m.clone(), take!(frame, base + k)))
        .collect();
    frame.set(t.a as usize, Value::MCase(Arc::new(arms)));
    pc + 1
}

fn op_elim<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    // Mode-window guard, as in `op_snap`.
    if it.faults_on && it.decision_window() != st.entry_window {
        return deopt_at(st, pc, DeoptReason::ModeWindow);
    }
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

fn op_bin<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(frame, code, K_REG, t.b, 0));
    let r = tt!(st, fetch_sc(frame, code, K_REG, t.c, 0));
    let r = forced_sc!(it, frame, st, r);
    let v = match bin_sc::<P>(&l, &r) {
        Some(v) => v,
        None => {
            let (l, r) = (l.into_value(), r.into_value());
            match binop_fast(t.bin, &l, &r) {
                Some(v) => v,
                None => tt!(st, it.apply_binop(t.bin, &l, &r)),
            }
        }
    };
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_bin_f<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(frame, code, t.kinds & 0xf, t.b, t.n1));
    let l = forced_sc!(it, frame, st, l);
    if t.rgas != 0 {
        tt!(st, it.gas_n(u64::from(t.rgas)));
    }
    let r = tt!(st, fetch_sc(frame, code, t.kinds >> 4, t.c, t.n2));
    let r = forced_sc!(it, frame, st, r);
    let v = match bin_sc::<P>(&l, &r) {
        Some(v) => v,
        None => {
            let (l, r) = (l.into_value(), r.into_value());
            match binop_fast(t.bin, &l, &r) {
                Some(v) => v,
                None => tt!(st, it.apply_binop(t.bin, &l, &r)),
            }
        }
    };
    frame.set(t.a as usize, v);
    pc + 1
}

fn op_jmp_bin<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(frame, code, K_REG, t.a, 0));
    let r = tt!(st, fetch_sc(frame, code, K_REG, t.b, 0));
    let r = forced_sc!(it, frame, st, r);
    if let Some(b) = cmp_sc::<P>(&l, &r) {
        return if b { pc + 1 } else { t.d };
    }
    let (l, r) = (l.into_value(), r.into_value());
    let v = match binop_fast(t.bin, &l, &r) {
        Some(v) => v,
        None => tt!(st, it.apply_binop(t.bin, &l, &r)),
    };
    match v {
        Value::Bool(true) => pc + 1,
        Value::Bool(false) => t.d,
        other => throw(
            st,
            RtError::Native(format!("if condition is a {}", other.kind())).into(),
        ),
    }
}

fn op_jmp_bin_f<'p, const P: u8>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let l = tt!(st, fetch_sc(frame, code, t.kinds & 0xf, t.b, t.n1));
    let l = forced_sc!(it, frame, st, l);
    if t.rgas != 0 {
        tt!(st, it.gas_n(u64::from(t.rgas)));
    }
    let r = tt!(st, fetch_sc(frame, code, t.kinds >> 4, t.c, t.n2));
    let r = forced_sc!(it, frame, st, r);
    if let Some(b) = cmp_sc::<P>(&l, &r) {
        return if b { pc + 1 } else { t.d };
    }
    let (l, r) = (l.into_value(), r.into_value());
    let v = match binop_fast(t.bin, &l, &r) {
        Some(v) => v,
        None => tt!(st, it.apply_binop(t.bin, &l, &r)),
    };
    match v {
        Value::Bool(true) => pc + 1,
        Value::Bool(false) => t.d,
        other => throw(
            st,
            RtError::Native(format!("if condition is a {}", other.kind())).into(),
        ),
    }
}

fn op_un<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let v = take!(frame, t.b);
    let v = forced!(it, frame, st, v);
    let op = if t.c == 0 { UnOp::Not } else { UnOp::Neg };
    let out = tt!(st, Interp::apply_unop(op, v));
    frame.set(t.a as usize, out);
    pc + 1
}

fn op_jmp<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    t.d
}

fn op_jmp_if_false<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
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

fn op_sc_jump<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let op = t.bin;
    let v = take!(frame, t.b);
    let v = forced!(it, frame, st, v);
    let Value::Bool(b) = v else {
        return throw(
            st,
            RtError::Native(format!("`{op}` on a {}", v.kind())).into(),
        );
    };
    frame.set(t.b as usize, Value::Bool(b));
    let short = match op {
        ent_syntax::BinOp::And => !b,
        _ => b,
    };
    if short {
        t.d
    } else {
        pc + 1
    }
}

fn op_sc_force<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let op = t.bin;
    let v = take!(frame, t.b);
    let v = forced!(it, frame, st, v);
    let Value::Bool(b) = v else {
        return throw(
            st,
            RtError::Native(format!("`{op}` on a {}", v.kind())).into(),
        );
    };
    frame.set(t.b as usize, Value::Bool(b));
    pc + 1
}

fn op_force<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
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

fn op_arr_lit<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    let vals = take_n!(frame, t.b, t.c);
    frame.set(t.a as usize, Value::Array(Arc::new(vals)));
    pc + 1
}

fn op_ret<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    st.out = take!(frame, t.b);
    R_RET
}

fn op_halt<'p>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    st.out = take!(frame, t.b);
    R_DONE
}

fn op_try_push<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    st.tries.push(t.d);
    pc + 1
}

fn op_try_pop<'p>(
    it: &mut Interp<'p>,
    _frame: &mut Frame,
    _code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    let t = &ops[pc as usize];
    charge!(it, t, st);
    st.tries.pop();
    pc + 1
}
