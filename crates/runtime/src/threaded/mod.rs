//! The bytecode engine's closure-threaded tier: compiles a hot body's
//! bytecode ([`Code`]) into a flat array of monomorphized fn-pointer ops
//! ([`TOp`]) with pre-resolved operands, replacing the VM's pc-driven
//! `match` dispatch with one indirect call per op.
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
//! executes exactly `instrs[pc]` (fused *shapes* are inherited from the
//! bytecode compiler's superinstructions — `BinF`, `JmpBinF`, tail
//! self-send chaining — so alignment costs no fusion). Alignment is what
//! makes deopt trivial and total: a guarded op that must bail hands its
//! live frame, pc, and `try`-handler stack to [`Interp::exec_from`] with
//! no side tables, reconstruction, or restrictions on where it may
//! happen. Every guard bails *before* its op has any observable effect
//! (or, for the fault-epoch guard, precisely after the op completed), so
//! the bytecode VM re-executes from an interpreter state bit-identical to
//! the one it would have reached on its own.
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
use crate::compile::{Code, Op, Opnd};
use crate::error::{Flow, RtError};
use crate::lower::BOp;
use crate::profile::AnyProfiler;
use crate::value::Value;

/// One threaded op: the monomorphized handler plus its pre-resolved
/// payload. Field meaning is per-handler (documented at each handler);
/// broadly `a` is the destination register, `b`/`c` source indices (a
/// constant operand's index into [`Code::consts`]), and `d` a site index,
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

type TFn = for<'p> fn(&mut Interp<'p>, &mut Frame, &'p Code, &[TOp], &mut TState, u32) -> u32;

/// One bytecode op's threaded behavior, as a zero-sized type so op
/// *sequences* compose by monomorphization: [`plain`] wraps one body
/// into a [`TFn`]; [`fused`] inlines two consecutive bodies into a
/// single handler, eliminating the dispatch between them.
trait OpBody {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32;
}

/// The single-op handler: runs `ops[pc]`'s body.
fn plain<'p, B: OpBody>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    B::run(it, frame, code, ops, st, pc)
}

/// The fused pair handler: runs `ops[pc]`'s body and, iff it falls
/// through (returns `pc + 1` — whether as its static successor or as a
/// branch that happens to target it), continues straight into
/// `ops[pc + 1]`'s body without returning to the dispatch loop. Errors,
/// deopts, and jumps elsewhere pass through unchanged, and the second
/// body reports `pc + 1` as its own pc, so gas order, error sites, and
/// deopt resume points are exactly the unfused sequence's.
fn fused<'p, A: OpBody, B: OpBody>(
    it: &mut Interp<'p>,
    frame: &mut Frame,
    code: &'p Code,
    ops: &[TOp],
    st: &mut TState,
    pc: u32,
) -> u32 {
    Fused2::<A, B>::run(it, frame, code, ops, st, pc)
}

/// Two consecutive bodies as one body — itself an [`OpBody`], so pairs
/// nest into triples (`Fused2<A, Fused2<B, C>>`) and beyond.
struct Fused2<A, B>(std::marker::PhantomData<(A, B)>);

impl<A: OpBody, B: OpBody> OpBody for Fused2<A, B> {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let r = A::run(it, frame, code, ops, st, pc);
        if r != pc + 1 {
            return r;
        }
        B::run(it, frame, code, ops, st, pc + 1)
    }
}

/// Send-site IC misses tolerated per run before the site deopts as
/// megamorphic. Small enough that a genuinely polymorphic site bails
/// within a few calls; large enough that the one cold miss plus a couple
/// of honest transitions keep the fast path.
const MEGAMORPHIC_MISSES: u8 = 4;

/// Parks an error for the driver; out-of-line so op bodies keep their
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

/// Operand-kind tags for the monomorphized fused-binop variants.
const K_REG: u8 = 0;
const K_SLOT: u8 = 1;
const K_CST: u8 = 2;

/// Binop tags for the op-monomorphized binop variants: the compiler knows
/// each site's [`ent_syntax::BinOp`], so the handler is selected with the
/// operator baked in and the scalar lanes compile to straight-line
/// arithmetic (no runtime operator dispatch). [`OP_GEN`] is the
/// catch-all for operators without a scalar lane (`&&`, `||`, string
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

/// Scalar-lane operand read, monomorphized per kind. Same error order as
/// [`fetch`]; int/double reads skip the enum clone (and, for registers,
/// the dead-store of `Unit` — a consumed temp register is never re-read,
/// by the bytecode compiler's single-use discipline the VM's own
/// take-and-replace relies on, and stale scalar bits carry no drop glue).
#[inline(always)]
fn fetch_sc<const KIND: u8>(
    frame: &mut Frame,
    code: &Code,
    idx: u16,
    name: u32,
) -> Result<Sc, Flow> {
    match KIND {
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
                v => Ok(Sc::V(v.clone())),
            }
        }
        _ => match &code.consts[idx as usize] {
            Value::Int(n) => Ok(Sc::I(*n)),
            Value::Double(x) => Ok(Sc::D(*x)),
            k => Ok(Sc::V(k.clone())),
        },
    }
}

/// The op-monomorphized scalar binop: `Some` on a fast lane, `None` to
/// fall back to the generic path (which re-derives the same result —
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

/// Selects the monomorphized `BinF` (or `JmpBinF`) body for a site's
/// operand kinds at a fixed op tag, and hands the concrete type to a
/// caller-supplied wrapper macro — the one selection table serves every
/// fusion shape (single op, pair, or triple, with the fused binop in any
/// position).
macro_rules! sel_binf {
    ($base:ident, $lr:expr, $p:ident, $w:ident) => {
        match $lr {
            (K_REG, K_REG) => $w!($base<K_REG, K_REG, $p>),
            (K_REG, K_SLOT) => $w!($base<K_REG, K_SLOT, $p>),
            (K_REG, _) => $w!($base<K_REG, K_CST, $p>),
            (K_SLOT, K_REG) => $w!($base<K_SLOT, K_REG, $p>),
            (K_SLOT, K_SLOT) => $w!($base<K_SLOT, K_SLOT, $p>),
            (K_SLOT, _) => $w!($base<K_SLOT, K_CST, $p>),
            (_, K_REG) => $w!($base<K_CST, K_REG, $p>),
            (_, K_SLOT) => $w!($base<K_CST, K_SLOT, $p>),
            _ => $w!($base<K_CST, K_CST, $p>),
        }
    };
}

/// Maps a site's [`ent_syntax::BinOp`] to the matching op tag and
/// dispatches to [`sel_binf`] — full (kinds × op) monomorphization.
macro_rules! sel_op {
    ($base:ident, $lr:expr, $op:expr, $w:ident) => {
        match $op {
            ent_syntax::BinOp::Add => sel_binf!($base, $lr, OP_ADD, $w),
            ent_syntax::BinOp::Sub => sel_binf!($base, $lr, OP_SUB, $w),
            ent_syntax::BinOp::Mul => sel_binf!($base, $lr, OP_MUL, $w),
            ent_syntax::BinOp::Div => sel_binf!($base, $lr, OP_DIV, $w),
            ent_syntax::BinOp::Rem => sel_binf!($base, $lr, OP_REM, $w),
            ent_syntax::BinOp::Lt => sel_binf!($base, $lr, OP_LT, $w),
            ent_syntax::BinOp::Le => sel_binf!($base, $lr, OP_LE, $w),
            ent_syntax::BinOp::Gt => sel_binf!($base, $lr, OP_GT, $w),
            ent_syntax::BinOp::Ge => sel_binf!($base, $lr, OP_GE, $w),
            ent_syntax::BinOp::Eq => sel_binf!($base, $lr, OP_EQ, $w),
            ent_syntax::BinOp::Ne => sel_binf!($base, $lr, OP_NE, $w),
            _ => sel_binf!($base, $lr, OP_GEN, $w),
        }
    };
}

/// Op-tag selection for the register-operand binops (`Bin`, `JmpBin`),
/// which have no operand-kind dimension.
macro_rules! sel_bin {
    ($base:ident, $op:expr, $w:ident) => {
        match $op {
            ent_syntax::BinOp::Add => $w!($base<OP_ADD>),
            ent_syntax::BinOp::Sub => $w!($base<OP_SUB>),
            ent_syntax::BinOp::Mul => $w!($base<OP_MUL>),
            ent_syntax::BinOp::Div => $w!($base<OP_DIV>),
            ent_syntax::BinOp::Rem => $w!($base<OP_REM>),
            ent_syntax::BinOp::Lt => $w!($base<OP_LT>),
            ent_syntax::BinOp::Le => $w!($base<OP_LE>),
            ent_syntax::BinOp::Gt => $w!($base<OP_GT>),
            ent_syntax::BinOp::Ge => $w!($base<OP_GE>),
            ent_syntax::BinOp::Eq => $w!($base<OP_EQ>),
            ent_syntax::BinOp::Ne => $w!($base<OP_NE>),
            _ => $w!($base<OP_GEN>),
        }
    };
}

/// The monomorphized `BinF` single-op handler for a site's operand kinds
/// and operator.
fn binf_fn(l: u8, r: u8, op: ent_syntax::BinOp) -> TFn {
    macro_rules! w {
        ($t:ty) => {
            plain::<$t>
        };
    }
    sel_op!(BinFB, (l, r), op, w)
}

/// The monomorphized `JmpBinF` single-op handler for a site's operand
/// kinds and operator.
fn jmp_binf_fn(l: u8, r: u8, op: ent_syntax::BinOp) -> TFn {
    macro_rules! w {
        ($t:ty) => {
            plain::<$t>
        };
    }
    sel_op!(JmpBinFB, (l, r), op, w)
}

/// Whether the `CallM` at `pc` compiles to [`TailCallB`]: a
/// `this`-receiver full-arity send whose result feeds a gasless `Ret`.
/// The runtime half of the guard lives in `op_tail_call`.
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

/// Whether the `CallB` at `pc` compiles to [`CallBSensorB`] (a sensor
/// builtin carrying the fault-epoch deopt guard).
fn is_sensor(code: &Code, pc: usize) -> bool {
    let site = &code.builtins[code.instrs[pc].d as usize];
    matches!(site.op, BOp::ExtBattery | BOp::ExtTemperature)
}

/// The operand kinds of a fused-binop site (for selecting monomorphized
/// variants in the peephole pass).
fn site_kinds(code: &Code, site: u32) -> (u8, u8) {
    let site = &code.fused[site as usize];
    let kind = |o: &Opnd| match o {
        Opnd::Reg(_) => K_REG,
        Opnd::Slot { .. } => K_SLOT,
        Opnd::Cst(_) => K_CST,
    };
    (kind(&site.lhs), kind(&site.rhs))
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
            run: plain::<UnitB>,
            gas: i.gas,
            a: i.a,
            b: i.b,
            c: i.c,
            rgas: 0,
            d: i.d,
            n1: 0,
            n2: 0,
            bin: ent_syntax::BinOp::Add,
        };
        t.run = match i.op {
            Op::Const => plain::<ConstB>,
            Op::Unit => plain::<UnitB>,
            Op::This => plain::<ThisB>,
            Op::Local => plain::<LocalB>,
            Op::Unbound => plain::<UnboundB>,
            Op::FieldGet => plain::<FieldGetB>,
            Op::FieldThis => plain::<FieldThisB>,
            Op::NewObj => plain::<NewObjB>,
            Op::NewUnknown => plain::<NewUnknownB>,
            Op::CallM => {
                if is_tail_shape(code, pc) {
                    plain::<TailCallB>
                } else {
                    plain::<CallMB>
                }
            }
            Op::CallB => {
                if is_sensor(code, pc) {
                    plain::<CallBSensorB>
                } else {
                    plain::<CallBB>
                }
            }
            Op::CastV => plain::<CastB>,
            Op::Snap => plain::<SnapB>,
            Op::MakeMCase => plain::<MakeMCaseB>,
            Op::ElimV => plain::<ElimB>,
            Op::Bin => {
                t.bin = code.bins[i.d as usize];
                macro_rules! w {
                    ($t:ty) => {
                        plain::<$t>
                    };
                }
                sel_bin!(BinB, t.bin, w)
            }
            Op::BinF => {
                let site = &code.fused[i.d as usize];
                t.bin = site.op;
                t.rgas = site.rgas;
                let (lk, li, ln) = pre_opnd(&site.lhs);
                let (rk, ri, rn) = pre_opnd(&site.rhs);
                t.b = li;
                t.c = ri;
                t.n1 = ln;
                t.n2 = rn;
                binf_fn(lk, rk, site.op)
            }
            Op::JmpBin => {
                t.bin = code.bins[i.c as usize];
                macro_rules! w {
                    ($t:ty) => {
                        plain::<$t>
                    };
                }
                sel_bin!(JmpBinB, t.bin, w)
            }
            Op::JmpBinF => {
                let site = &code.fused[i.a as usize];
                t.bin = site.op;
                t.rgas = site.rgas;
                let (lk, li, ln) = pre_opnd(&site.lhs);
                let (rk, ri, rn) = pre_opnd(&site.rhs);
                t.b = li;
                t.c = ri;
                t.n1 = ln;
                t.n2 = rn;
                jmp_binf_fn(lk, rk, site.op)
            }
            Op::Un => plain::<UnB>,
            Op::Jmp => plain::<JmpB>,
            Op::JmpIfFalse => plain::<JmpIfFalseB>,
            Op::ScJump => {
                t.bin = code.bins[i.c as usize];
                plain::<ScJumpB>
            }
            Op::ScForce => {
                t.bin = code.bins[i.c as usize];
                plain::<ScForceB>
            }
            Op::Force => plain::<ForceB>,
            Op::ArrLit => plain::<ArrLitB>,
            Op::Ret => plain::<RetB>,
            Op::Halt => plain::<HaltB>,
            Op::TryPush => plain::<TryPushB>,
            Op::TryPop => plain::<TryPopB>,
        };
        ops.push(t);
    }
    fuse_pairs(code, &mut ops);
    TCode {
        ops: ops.into_boxed_slice(),
    }
}

/// The fusion peephole: rewrites an op's handler to a [`fused`] variant
/// (or a nested [`Fused2`] triple) that falls straight through into its
/// static successors' bodies, eliminating the dispatch between them.
/// Fusion never changes *what* runs — each later body still executes
/// against its own pc-aligned [`TOp`] payload and runs only when its
/// predecessor returned exactly the fall-through pc, so gas order, error
/// sites, deopt resume points, and jump targets (a branch *into* the
/// middle of a chain runs that op's own handler) are exactly the unfused
/// sequence's. The whitelist covers the hottest dynamic pairs and triples
/// on the Figure-6 suite; heavyweight send bodies join a chain only as
/// its last element, where the saved dispatch still pays.
fn fuse_pairs(code: &Code, ops: &mut [TOp]) {
    for pc in 0..ops.len().saturating_sub(1) {
        let (i, j) = (&code.instrs[pc], &code.instrs[pc + 1]);
        // Triples before pairs: the longer chain subsumes its prefix.
        // Interior ops keep their own (possibly pair-fused) handlers, so
        // a jump into the middle of a chain is still valid.
        if pc + 2 < ops.len() {
            let k = &code.instrs[pc + 2];
            let run: Option<TFn> = match (i.op, j.op, k.op) {
                (Op::JmpBinF, Op::Local, Op::Ret) => {
                    let s = &code.fused[i.a as usize];
                    macro_rules! w {
                        ($t:ty) => {
                            Some(fused::<$t, Fused2<LocalB, RetB>>)
                        };
                    }
                    sel_op!(JmpBinFB, site_kinds(code, i.a as u32), s.op, w)
                }
                (Op::BinF, Op::Local, Op::Force) => {
                    let s = &code.fused[i.d as usize];
                    macro_rules! w {
                        ($t:ty) => {
                            Some(fused::<$t, Fused2<LocalB, ForceB>>)
                        };
                    }
                    sel_op!(BinFB, site_kinds(code, i.d), s.op, w)
                }
                (Op::Unit, Op::BinF, Op::Local) => {
                    let s = &code.fused[j.d as usize];
                    macro_rules! w {
                        ($t:ty) => {
                            Some(fused::<UnitB, Fused2<$t, LocalB>>)
                        };
                    }
                    sel_op!(BinFB, site_kinds(code, j.d), s.op, w)
                }
                (Op::Local, Op::Force, Op::BinF) => {
                    let s = &code.fused[k.d as usize];
                    macro_rules! w {
                        ($t:ty) => {
                            Some(fused::<LocalB, Fused2<ForceB, $t>>)
                        };
                    }
                    sel_op!(BinFB, site_kinds(code, k.d), s.op, w)
                }
                (Op::Local, Op::Force, Op::Local) => Some(fused::<LocalB, Fused2<ForceB, LocalB>>),
                (Op::Force, Op::Local, Op::CallB) => Some(if is_sensor(code, pc + 2) {
                    fused::<ForceB, Fused2<LocalB, CallBSensorB>>
                } else {
                    fused::<ForceB, Fused2<LocalB, CallBB>>
                }),
                _ => None,
            };
            if let Some(run) = run {
                ops[pc].run = run;
                continue;
            }
        }
        let run: TFn = match (i.op, j.op) {
            (Op::Local, Op::Force) => fused::<LocalB, ForceB>,
            (Op::Local, Op::Local) => fused::<LocalB, LocalB>,
            (Op::Force, Op::Local) => fused::<ForceB, LocalB>,
            (Op::Force, Op::Force) => fused::<ForceB, ForceB>,
            (Op::Const, Op::Local) => fused::<ConstB, LocalB>,
            (Op::Local, Op::Const) => fused::<LocalB, ConstB>,
            (Op::Const, Op::Ret) => fused::<ConstB, RetB>,
            (Op::Local, Op::Ret) => fused::<LocalB, RetB>,
            // A fused tail self-send restarts the loop at pc 0 on
            // elision (never pc + 1, bodies are non-empty), so the
            // `Ret` half runs only on the non-elided fallback path —
            // exactly the unfused sequence.
            (Op::CallM, Op::Ret) => {
                if is_tail_shape(code, pc) {
                    fused::<TailCallB, RetB>
                } else {
                    fused::<CallMB, RetB>
                }
            }
            (Op::Local, Op::CallB) => {
                if is_sensor(code, pc + 1) {
                    fused::<LocalB, CallBSensorB>
                } else {
                    fused::<LocalB, CallBB>
                }
            }
            (Op::Local, Op::BinF) => {
                let s = &code.fused[j.d as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<LocalB, $t>
                    };
                }
                sel_op!(BinFB, site_kinds(code, j.d), s.op, w)
            }
            (Op::Unit, Op::BinF) => {
                let s = &code.fused[j.d as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<UnitB, $t>
                    };
                }
                sel_op!(BinFB, site_kinds(code, j.d), s.op, w)
            }
            (Op::Force, Op::BinF) => {
                let s = &code.fused[j.d as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<ForceB, $t>
                    };
                }
                sel_op!(BinFB, site_kinds(code, j.d), s.op, w)
            }
            (Op::BinF, Op::Local) => {
                let s = &code.fused[i.d as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<$t, LocalB>
                    };
                }
                sel_op!(BinFB, site_kinds(code, i.d), s.op, w)
            }
            (Op::BinF, Op::Force) => {
                let s = &code.fused[i.d as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<$t, ForceB>
                    };
                }
                sel_op!(BinFB, site_kinds(code, i.d), s.op, w)
            }
            (Op::JmpBinF, Op::Local) => {
                let s = &code.fused[i.a as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<$t, LocalB>
                    };
                }
                sel_op!(JmpBinFB, site_kinds(code, i.a as u32), s.op, w)
            }
            (Op::JmpBinF, Op::Const) => {
                let s = &code.fused[i.a as usize];
                macro_rules! w {
                    ($t:ty) => {
                        fused::<$t, ConstB>
                    };
                }
                sel_op!(JmpBinFB, site_kinds(code, i.a as u32), s.op, w)
            }
            _ => continue,
        };
        ops[pc].run = run;
    }
}

// ---- handlers -------------------------------------------------------------
//
// Each handler mirrors its VM arm action for action — same reads, same
// gas points, same error strings — with operand payloads pre-resolved
// into the `TOp`. Handlers return the next pc (or a sentinel).

struct ConstB;
impl OpBody for ConstB {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let t = &ops[pc as usize];
        charge!(it, t, st);
        frame.locals[t.a as usize] = code.consts[t.d as usize].clone();
        pc + 1
    }
}

struct UnitB;
impl OpBody for UnitB {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        _code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let t = &ops[pc as usize];
        charge!(it, t, st);
        frame.locals[t.a as usize] = Value::Unit;
        pc + 1
    }
}

struct ThisB;
impl OpBody for ThisB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = Value::Obj(r);
        pc + 1
    }
}

struct LocalB;
impl OpBody for LocalB {
    fn run<'p>(
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
        let v = frame.locals[t.b as usize].clone();
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct UnboundB;
impl OpBody for UnboundB {
    fn run<'p>(
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
}

struct FieldGetB;
impl OpBody for FieldGetB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct FieldThisB;
impl OpBody for FieldThisB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct NewObjB;
impl OpBody for NewObjB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = Value::Obj(r);
        pc + 1
    }
}

struct NewUnknownB;
impl OpBody for NewUnknownB {
    fn run<'p>(
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
    frame.locals[t.a as usize] = v;
    pc + 1
}

struct CallMB;
impl OpBody for CallMB {
    fn run<'p>(
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
}

/// A send statically matching the VM's tail self-send shape. The runtime
/// half of the elision guard mirrors the VM's exactly (the static half —
/// `this` receiver, no mode arguments, gasless consuming `Ret` — was
/// proven at compile time, and `run_body` enters this tier only in
/// guarded runs); on failure the send takes the generic path.
struct TailCallB;
impl OpBody for TailCallB {
    fn run<'p>(
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
                frame.locals[k] = take!(frame, base + k);
            }
            frame.unbound_lo = u32::MAX;
            return 0;
        }
        call_site(it, frame, code, t, st, pc)
    }
}

/// The builtin-call body shared by [`op_call_b`] and
/// [`op_call_b_sensor`]: argument marshaling into a pooled register
/// file (the VM allocates a fresh vector per call; the threaded tier
/// recycles through [`Interp::grab_locals`], which the values' strict
/// take-force-call order makes unobservable), the `force_last`
/// coercion, and the slice-based builtin dispatch.
macro_rules! do_call_b {
    ($it:ident, $frame:ident, $site:ident, $t:ident, $st:ident) => {{
        let mut vals = $it.grab_locals($site.n_args as usize);
        let base = $t.b as usize;
        for r in base..base + $site.n_args as usize {
            vals.push(take!($frame, r));
        }
        if $site.force_last {
            let last = vals.pop().expect("force_last implies an argument");
            match $it.force($frame, last) {
                Ok(v) => vals.push(v),
                Err(f) => {
                    $it.recycle_locals(vals);
                    return throw($st, f);
                }
            }
        }
        let out = $it.builtin_slice($site.op, &$site.ns, &$site.name, &mut vals);
        $it.recycle_locals(vals);
        match out {
            Ok(v) => v,
            Err(f) => return throw($st, f),
        }
    }};
}

struct CallBB;
impl OpBody for CallBB {
    fn run<'p>(
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
        let v = do_call_b!(it, frame, site, t, st);
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

/// A sensor-reading builtin (`Ext.battery` / `Ext.temperature`): the
/// fault-epoch guard. The read itself completed — identically to the VM,
/// including the degradation ladder — but a faulted serve bumps the
/// injector epoch, so the rest of the body defers to the VM.
struct CallBSensorB;
impl OpBody for CallBSensorB {
    fn run<'p>(
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
        let v = do_call_b!(it, frame, site, t, st);
        frame.locals[t.a as usize] = v;
        if it.faults_on && it.stats.sensor_faults != faults_before {
            return deopt_at(st, pc + 1, DeoptReason::FaultEpoch);
        }
        pc + 1
    }
}

struct CastB;
impl OpBody for CastB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct SnapB;
impl OpBody for SnapB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct MakeMCaseB;
impl OpBody for MakeMCaseB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = Value::MCase(Arc::new(arms));
        pc + 1
    }
}

struct ElimB;
impl OpBody for ElimB {
    fn run<'p>(
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
            Some(idx) => arms[idx as usize].1.clone(),
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
        frame.locals[t.a as usize] = out;
        pc + 1
    }
}

struct BinB<const P: u8>;
impl<const P: u8> OpBody for BinB<P> {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let t = &ops[pc as usize];
        charge!(it, t, st);
        let l = tt!(st, fetch_sc::<K_REG>(frame, code, t.b, 0));
        let r = tt!(st, fetch_sc::<K_REG>(frame, code, t.c, 0));
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
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct BinFB<const L: u8, const R: u8, const P: u8>;
impl<const L: u8, const R: u8, const P: u8> OpBody for BinFB<L, R, P> {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let t = &ops[pc as usize];
        charge!(it, t, st);
        let l = tt!(st, fetch_sc::<L>(frame, code, t.b, t.n1));
        let l = forced_sc!(it, frame, st, l);
        if t.rgas != 0 {
            tt!(st, it.gas_n(u64::from(t.rgas)));
        }
        let r = tt!(st, fetch_sc::<R>(frame, code, t.c, t.n2));
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
        frame.locals[t.a as usize] = v;
        pc + 1
    }
}

struct JmpBinB<const P: u8>;
impl<const P: u8> OpBody for JmpBinB<P> {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let t = &ops[pc as usize];
        charge!(it, t, st);
        let l = tt!(st, fetch_sc::<K_REG>(frame, code, t.a, 0));
        let r = tt!(st, fetch_sc::<K_REG>(frame, code, t.b, 0));
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
}

struct JmpBinFB<const L: u8, const R: u8, const P: u8>;
impl<const L: u8, const R: u8, const P: u8> OpBody for JmpBinFB<L, R, P> {
    fn run<'p>(
        it: &mut Interp<'p>,
        frame: &mut Frame,
        code: &'p Code,
        ops: &[TOp],
        st: &mut TState,
        pc: u32,
    ) -> u32 {
        let t = &ops[pc as usize];
        charge!(it, t, st);
        let l = tt!(st, fetch_sc::<L>(frame, code, t.b, t.n1));
        let l = forced_sc!(it, frame, st, l);
        if t.rgas != 0 {
            tt!(st, it.gas_n(u64::from(t.rgas)));
        }
        let r = tt!(st, fetch_sc::<R>(frame, code, t.c, t.n2));
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
}

struct UnB;
impl OpBody for UnB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = out;
        pc + 1
    }
}

struct JmpB;
impl OpBody for JmpB {
    fn run<'p>(
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
}

struct JmpIfFalseB;
impl OpBody for JmpIfFalseB {
    fn run<'p>(
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
}

struct ScJumpB;
impl OpBody for ScJumpB {
    fn run<'p>(
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
        frame.locals[t.b as usize] = Value::Bool(b);
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
}

struct ScForceB;
impl OpBody for ScForceB {
    fn run<'p>(
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
        frame.locals[t.b as usize] = Value::Bool(b);
        pc + 1
    }
}

struct ForceB;
impl OpBody for ForceB {
    fn run<'p>(
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
            frame.locals[t.b as usize] = v;
        }
        pc + 1
    }
}

struct ArrLitB;
impl OpBody for ArrLitB {
    fn run<'p>(
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
        frame.locals[t.a as usize] = Value::Array(Arc::new(vals));
        pc + 1
    }
}

struct RetB;
impl OpBody for RetB {
    fn run<'p>(
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
}

struct HaltB;
impl OpBody for HaltB {
    fn run<'p>(
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
}

struct TryPushB;
impl OpBody for TryPushB {
    fn run<'p>(
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
}

struct TryPopB;
impl OpBody for TryPopB {
    fn run<'p>(
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
}
