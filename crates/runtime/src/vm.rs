//! The register-bytecode dispatch loop: executes [`Code`] compiled by
//! [`crate::compile`] against the same interpreter state
//! ([`Interp`]) as the tree-walking evaluator.
//!
//! Declared as a child module of [`crate::interp`] so it shares the
//! evaluator's private machinery — heap, allocation, invocation, snapshot,
//! mode-case elimination, builtins, events, profiler — verbatim. Only body
//! *evaluation* differs between the engines; every observable action
//! funnels through the same functions, which is what makes the
//! bit-identical-semantics contract structural rather than aspirational.
//!
//! # Control flow
//!
//! A frame's registers live in `Frame::locals`, resized once per call to
//! the compiled `frame_size` (parameter and `let` slots at the indices
//! lowering assigned, scratch above). The loop keeps a local `pc` and a
//! stack of active `try` handlers; a raised [`RtError::EnergyException`]
//! unwinds to the innermost handler (exactly the only error the
//! tree-walker's `Try` catches), every other error — and `return`, which
//! travels as [`Flow::Return`] — exits `exec` for the caller to handle.
//!
//! # Inline caches
//!
//! Per-run caches (vectors on [`Interp`], indexed by program-wide site
//! ids) accelerate the three mode-decision sites:
//!
//! * **Sends** ([`Op::CallM`]): receiver-class guard → cached vtable
//!   entry; any other class falls back to the vtable (and re-caches,
//!   monomorphic-last).
//! * **Eliminations** ([`Op::ElimV`]): `(arms identity, target mode,
//!   energy window)` → selected arm index. The cache holds a strong
//!   `Arc` to the cached arms so pointer identity cannot be recycled.
//! * **Snapshots** ([`Op::Snap`] via [`Interp::snapshot`]): `(class,
//!   produced mode, bounds, energy window)` → bounds-check verdict.
//!
//! The energy window is `floor(virtual time / FaultPlan::window_s)` when
//! fault injection is on (0 otherwise), so caches invalidate on window
//! roll. Crucially the caches only memoize *pure lattice decisions*:
//! attributors — and therefore sensor reads, fault injection, staleness
//! degradation, events, and profiler attribution — run on every
//! evaluation, hit or miss.

use std::sync::Arc;

use ent_syntax::{BinOp, UnOp};

use super::{Enforcement, Frame, Interp, RtTag};
use crate::compile::{Code, Op, Opnd};
use crate::error::{Flow, RtError};
use crate::lower::{GMode, MethodEntry};
use crate::profile::AnyProfiler;
use crate::value::Value;

/// Unboxed arithmetic/comparison fast path: handles the `Int⊕Int` and
/// `Double⊕Double` cases inline so the dispatch loop never leaves its hot
/// code for them. Everything else — string concatenation, mixed operands,
/// division/remainder by zero, type errors — returns `None` and falls back
/// to [`Interp::apply_binop`], which remains the single source of truth
/// for those semantics (this function must agree with it exactly on the
/// cases it does handle).
#[inline(always)]
pub(super) fn binop_fast(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
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

/// Send-site inline cache: receiver class → resolved vtable entry.
pub(crate) type SendIc<'p> = (u32, &'p MethodEntry);

/// Elimination-site inline cache (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct ArmIc {
    /// Strong reference: while cached, the allocation cannot be freed and
    /// its address reused, so `Arc::ptr_eq` identity is sound.
    pub(crate) arms: Arc<Vec<(ent_modes::ModeName, Value)>>,
    pub(crate) target: GMode,
    pub(crate) window: u64,
    pub(crate) idx: u32,
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

impl<'p> Interp<'p> {
    /// Reads a fused-binop operand. Register operands were materialized by
    /// preceding instructions and are consumed (scratch is single-use);
    /// slot operands replicate the unbound-parameter check of `Var`.
    #[inline(always)]
    pub(super) fn read_opnd(
        &self,
        frame: &mut Frame,
        code: &Code,
        o: &Opnd,
    ) -> Result<Value, Flow> {
        match *o {
            Opnd::Reg(r) => Ok(std::mem::replace(
                &mut frame.locals[r as usize],
                Value::Unit,
            )),
            Opnd::Slot { slot, name } => {
                let slot = u32::from(slot);
                if slot >= frame.unbound_lo && slot < frame.n_params {
                    return Err(RtError::Native(format!(
                        "unbound variable `{}`",
                        code.names[name as usize]
                    ))
                    .into());
                }
                Ok(frame.locals[slot as usize].dup())
            }
            Opnd::Cst(k) => Ok(code.consts[k as usize].dup()),
        }
    }

    /// Executes one compiled body to completion. Mirrors `eval` exactly:
    /// `Ok` is the body's value, `Err(Flow::Return)` a `return`
    /// unwinding to the method boundary, `Err(Flow::Error)` a runtime
    /// error (energy exceptions were already routed to any active `try`).
    pub(super) fn exec(&mut self, frame: &mut Frame, code: &'p Code) -> super::EvalResult {
        // The dispatch loop elides tail self-sends by reusing the frame
        // (see `Op::CallM`), bumping `self.depth` once per elided call so
        // the stack guard still counts logical frames. All of those
        // logical frames pop together when this activation exits, on any
        // path — value, `return`, or error.
        let depth_on_entry = self.depth;
        let result = self.exec_loop(frame, code, 0, Vec::new());
        self.depth = depth_on_entry;
        result
    }

    /// Resumes bytecode execution of a live frame at an arbitrary `pc`
    /// with an already-active `try`-handler stack — the threaded tier's
    /// deopt entry point. Sound because threaded code executes the same
    /// compiled `Code` against the same register layout, so the frame and
    /// handler stack carry over unchanged; the caller owns the
    /// `self.depth` save/restore (tail elision may have bumped it).
    pub(super) fn exec_from(
        &mut self,
        frame: &mut Frame,
        code: &'p Code,
        pc: usize,
        tries: Vec<u32>,
    ) -> super::EvalResult {
        self.exec_loop(frame, code, pc, tries)
    }

    fn exec_loop(
        &mut self,
        frame: &mut Frame,
        code: &'p Code,
        entry_pc: usize,
        entry_tries: Vec<u32>,
    ) -> super::EvalResult {
        let mut pc = entry_pc;
        let mut tries: Vec<u32> = entry_tries;

        // Routes an energy exception to the innermost active handler (the
        // only error `try` catches); everything else exits `exec`.
        macro_rules! vtry {
            ($l:lifetime, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(f) => {
                        if matches!(&f, Flow::Error(RtError::EnergyException(_))) {
                            if let Some(h) = tries.pop() {
                                pc = h as usize;
                                continue $l;
                            }
                        }
                        return Err(f);
                    }
                }
            };
        }
        macro_rules! take {
            ($r:expr) => {
                std::mem::replace(&mut frame.locals[$r as usize], Value::Unit)
            };
        }
        // Collects `n` consecutive scratch registers into call arguments.
        macro_rules! take_n {
            ($base:expr, $n:expr) => {{
                let base = $base as usize;
                let mut vals = Vec::with_capacity($n as usize);
                for r in base..base + $n as usize {
                    vals.push(take!(r));
                }
                vals
            }};
        }

        'run: loop {
            let i = code.instrs[pc];
            if i.gas != 0 {
                vtry!('run, self.gas_n(u64::from(i.gas)));
            }
            match i.op {
                Op::Const => {
                    frame.set(i.a as usize, code.consts[i.d as usize].dup());
                }
                Op::Unit => {
                    frame.set(i.a as usize, Value::Unit);
                }
                Op::This => {
                    let Some(r) = frame.this_ref else {
                        return Err(
                            RtError::Native("`this` outside an object context".into()).into()
                        );
                    };
                    frame.set(i.a as usize, Value::Obj(r));
                }
                Op::Local => {
                    let slot = u32::from(i.b);
                    if slot >= frame.unbound_lo && slot < frame.n_params {
                        return Err(RtError::Native(format!(
                            "unbound variable `{}`",
                            code.names[i.d as usize]
                        ))
                        .into());
                    }
                    let v = frame.locals[i.b as usize].dup();
                    frame.set(i.a as usize, v);
                }
                Op::Unbound => {
                    return Err(RtError::Native(format!(
                        "unbound variable `{}`",
                        code.names[i.d as usize]
                    ))
                    .into());
                }
                Op::FieldGet | Op::FieldThis => {
                    let site = &code.fields[i.d as usize];
                    let r = if i.op == Op::FieldThis {
                        let Some(r) = frame.this_ref else {
                            return Err(
                                RtError::Native("`this` outside an object context".into()).into()
                            );
                        };
                        r
                    } else {
                        match &frame.locals[i.b as usize] {
                            Value::Obj(r) => *r,
                            other => {
                                return Err(RtError::Native(format!(
                                    "field access on a {}",
                                    other.kind()
                                ))
                                .into())
                            }
                        }
                    };
                    let v = vtry!('run, self.read_field(frame, r, site.field, &site.name));
                    frame.set(i.a as usize, v);
                }
                Op::NewObj => {
                    let site = &code.news[i.d as usize];
                    let vals = take_n!(i.b, site.n_args);
                    let (mode, env) = vtry!('run, self.resolve_new(frame, site.class, &site.plan));
                    let r = vtry!('run, self.allocate(site.class, vals, mode, env));
                    frame.set(i.a as usize, Value::Obj(r));
                }
                Op::NewUnknown => {
                    return Err(RtError::Native(format!(
                        "unknown class `{}`",
                        code.unknown_classes[i.d as usize]
                    ))
                    .into());
                }
                Op::CallM => {
                    let site = &code.calls[i.d as usize];
                    // Tail self-send elision: `return this.m(...)` where the
                    // callee resolves (via the send IC) to the body already
                    // executing reuses this frame — move the arguments into
                    // the parameter slots and restart at pc 0 — instead of
                    // recursing through the full invoke path. Only taken
                    // when that path would have been pure frame bookkeeping:
                    // the compiled `Ret` consuming the call result carries
                    // no gas, the site passes full arity and no mode
                    // arguments, the callee has no attributor / mode
                    // override / mode parameters (so mode env and frame
                    // mode are provably unchanged), the receiver's tag
                    // makes the dfall check pass without side effects, no
                    // `try` handler is live in this frame (its slots would
                    // be clobbered), and the *exact* profiler is not
                    // installed — it charges costs to the innermost frame
                    // as they happen, so it needs every logical
                    // enter/exit. The sampler keeps elision on: the
                    // consuming `Ret` is gasless, so no steps separate
                    // the elided chain's end from its exit hook, and the
                    // chain collapses to one run-length-encoded shadow
                    // frame either way — per-path hit counts (the only
                    // input to the sampled report) are identical with and
                    // without elision. The stack guard still counts the
                    // elided frame via `self.depth`. Only the guarded
                    // strategy may elide: transient counts a check per send,
                    // and a skipped frame would skip its check.
                    'tail: {
                        if !site.this_recv
                            || !site.mode_args.is_empty()
                            || !matches!(self.config.enforcement, Enforcement::Guarded)
                            || self.profiler.as_ref().is_some_and(AnyProfiler::is_exact)
                            || !tries.is_empty()
                        {
                            break 'tail;
                        }
                        let next = code.instrs[pc + 1];
                        if !(next.op == Op::Ret && next.b == i.a && next.gas == 0) {
                            break 'tail;
                        }
                        let Some(recv) = frame.this_ref else {
                            break 'tail;
                        };
                        let Some(Some((cached_class, entry))) = self.ic_send.get(site.ic as usize)
                        else {
                            break 'tail;
                        };
                        let (cached_class, entry) = (*cached_class, *entry);
                        let m = &entry.method;
                        if cached_class != self.heap[recv].class
                            || m.attributor.is_some()
                            || m.mode_override.is_some()
                            || !m.mode_params.is_empty()
                            || u32::from(site.n_args) != m.n_params
                            || !m.body_code.code().is_some_and(|c| std::ptr::eq(c, code))
                        {
                            break 'tail;
                        }
                        let dfall_clean = match self.heap[recv].mode {
                            RtTag::Dynamic => true,
                            RtTag::Ground(g) => g == frame.mode && self.prog.le(g, frame.mode),
                        };
                        if !dfall_clean {
                            break 'tail;
                        }
                        self.depth += 1;
                        if self.depth > self.max_depth {
                            return Err(RtError::StackOverflow.into());
                        }
                        let base = i.b as usize;
                        for k in 0..site.n_args as usize {
                            let v = take!(base + k);
                            frame.set(k, v);
                        }
                        frame.unbound_lo = u32::MAX;
                        pc = 0;
                        continue 'run;
                    }
                    let (recv, arg_base) = if site.this_recv {
                        let Some(r) = frame.this_ref else {
                            return Err(
                                RtError::Native("`this` outside an object context".into()).into()
                            );
                        };
                        (r, u32::from(i.b))
                    } else {
                        match &frame.locals[i.b as usize] {
                            Value::Obj(r) => (*r, u32::from(i.b) + 1),
                            other => {
                                return Err(RtError::Native(format!(
                                    "method call on a {}",
                                    other.kind()
                                ))
                                .into())
                            }
                        }
                    };
                    let mut vals = self.grab_locals(site.n_args as usize);
                    for r in arg_base as usize..(arg_base + u32::from(site.n_args)) as usize {
                        vals.push(take!(r));
                    }
                    let mut gmodes = Vec::with_capacity(site.mode_args.len());
                    for m in &site.mode_args {
                        gmodes.push(vtry!('run, self.resolve_mode(frame, m)));
                    }
                    let v = vtry!('run, self.invoke(
                        recv,
                        site.method,
                        vals,
                        &gmodes,
                        frame.mode,
                        Some(site.ic)
                    ));
                    frame.set(i.a as usize, v);
                }
                Op::CallB => {
                    let site = &code.builtins[i.d as usize];
                    let v = vtry!('run, self.call_builtin(frame, site, i.b as usize));
                    frame.set(i.a as usize, v);
                }
                Op::CastV => {
                    let v = take!(i.b);
                    vtry!('run, self.check_cast(&v, &code.casts[i.d as usize]));
                    frame.set(i.a as usize, v);
                }
                Op::Snap => {
                    let site = code.snaps[i.d as usize];
                    let v = take!(i.b);
                    let Value::Obj(r) = v else {
                        return Err(RtError::Native(format!("snapshot of a {}", v.kind())).into());
                    };
                    let v = vtry!('run, self.snapshot(frame, r, &site.lo, &site.hi, Some(site.ic)));
                    frame.set(i.a as usize, v);
                }
                Op::MakeMCase => {
                    let site = &code.mcases[i.d as usize];
                    let base = i.b as usize;
                    let arms: Vec<(ent_modes::ModeName, Value)> = site
                        .modes
                        .iter()
                        .enumerate()
                        .map(|(k, m)| (m.clone(), take!(base + k)))
                        .collect();
                    frame.set(i.a as usize, Value::MCase(Arc::new(arms)));
                }
                Op::ElimV => {
                    let site = code.elims[i.d as usize];
                    let v = take!(i.b);
                    let Value::MCase(arms) = v else {
                        return Err(RtError::Native(format!("`<|` on a {}", v.kind())).into());
                    };
                    let target = match site.mode {
                        Some(m) => vtry!('run, self.resolve_mode(frame, &m)),
                        None => frame.mode,
                    };
                    let window = self.decision_window();
                    let s = site.ic as usize;
                    if self.ic_arm.len() <= s {
                        self.ic_arm.resize(s + 1, None);
                    }
                    let hit = match &self.ic_arm[s] {
                        Some(c)
                            if Arc::ptr_eq(&c.arms, &arms)
                                && c.target == target
                                && c.window == window =>
                        {
                            Some(c.idx)
                        }
                        _ => None,
                    };
                    let out = match hit {
                        Some(idx) => arms[idx as usize].1.dup(),
                        None => {
                            let (idx, out) = vtry!('run, self.eliminate_idx(&arms, target));
                            self.ic_arm[s] = Some(ArmIc {
                                arms: Arc::clone(&arms),
                                target,
                                window,
                                idx,
                            });
                            out
                        }
                    };
                    frame.set(i.a as usize, out);
                }
                Op::Bin => {
                    let l = take!(i.b);
                    let r = take!(i.c);
                    let r = if matches!(r, Value::MCase(_)) {
                        vtry!('run, self.force(frame, r))
                    } else {
                        r
                    };
                    let v = match binop_fast(code.bins[i.d as usize], &l, &r) {
                        Some(v) => v,
                        None => vtry!('run, self.apply_binop(code.bins[i.d as usize], &l, &r)),
                    };
                    frame.set(i.a as usize, v);
                }
                Op::BinF => {
                    let site = &code.fused[i.d as usize];
                    let l = vtry!('run, self.read_opnd(frame, code, &site.lhs));
                    let l = if matches!(l, Value::MCase(_)) {
                        vtry!('run, self.force(frame, l))
                    } else {
                        l
                    };
                    if site.rgas != 0 {
                        vtry!('run, self.gas_n(u64::from(site.rgas)));
                    }
                    let r = vtry!('run, self.read_opnd(frame, code, &site.rhs));
                    let r = if matches!(r, Value::MCase(_)) {
                        vtry!('run, self.force(frame, r))
                    } else {
                        r
                    };
                    let v = match binop_fast(site.op, &l, &r) {
                        Some(v) => v,
                        None => vtry!('run, self.apply_binop(site.op, &l, &r)),
                    };
                    frame.set(i.a as usize, v);
                }
                Op::JmpBin => {
                    let l = take!(i.a);
                    let r = take!(i.b);
                    let r = if matches!(r, Value::MCase(_)) {
                        vtry!('run, self.force(frame, r))
                    } else {
                        r
                    };
                    let op = code.bins[i.c as usize];
                    let v = match binop_fast(op, &l, &r) {
                        Some(v) => v,
                        None => vtry!('run, self.apply_binop(op, &l, &r)),
                    };
                    match v {
                        Value::Bool(true) => {}
                        Value::Bool(false) => {
                            pc = i.d as usize;
                            continue 'run;
                        }
                        // Comparisons only ever produce booleans; keep the
                        // guard shape anyway rather than panic.
                        other => {
                            return Err(RtError::Native(format!(
                                "if condition is a {}",
                                other.kind()
                            ))
                            .into())
                        }
                    }
                }
                Op::JmpBinF => {
                    let site = &code.fused[i.a as usize];
                    let l = vtry!('run, self.read_opnd(frame, code, &site.lhs));
                    let l = if matches!(l, Value::MCase(_)) {
                        vtry!('run, self.force(frame, l))
                    } else {
                        l
                    };
                    if site.rgas != 0 {
                        vtry!('run, self.gas_n(u64::from(site.rgas)));
                    }
                    let r = vtry!('run, self.read_opnd(frame, code, &site.rhs));
                    let r = if matches!(r, Value::MCase(_)) {
                        vtry!('run, self.force(frame, r))
                    } else {
                        r
                    };
                    let v = match binop_fast(site.op, &l, &r) {
                        Some(v) => v,
                        None => vtry!('run, self.apply_binop(site.op, &l, &r)),
                    };
                    match v {
                        Value::Bool(true) => {}
                        Value::Bool(false) => {
                            pc = i.d as usize;
                            continue 'run;
                        }
                        other => {
                            return Err(RtError::Native(format!(
                                "if condition is a {}",
                                other.kind()
                            ))
                            .into())
                        }
                    }
                }
                Op::Un => {
                    let v = take!(i.b);
                    let v = vtry!('run, self.force(frame, v));
                    let op = if i.c == 0 { UnOp::Not } else { UnOp::Neg };
                    let out = vtry!('run, Interp::apply_unop(op, v));
                    frame.set(i.a as usize, out);
                }
                Op::Jmp => {
                    pc = i.d as usize;
                    continue 'run;
                }
                Op::JmpIfFalse => {
                    let v = take!(i.b);
                    let v = vtry!('run, self.force(frame, v));
                    let Value::Bool(b) = v else {
                        return Err(
                            RtError::Native(format!("if condition is a {}", v.kind())).into()
                        );
                    };
                    if !b {
                        pc = i.d as usize;
                        continue 'run;
                    }
                }
                Op::ScJump => {
                    let op = code.bins[i.c as usize];
                    let v = take!(i.b);
                    let v = vtry!('run, self.force(frame, v));
                    let Value::Bool(b) = v else {
                        return Err(RtError::Native(format!("`{op}` on a {}", v.kind())).into());
                    };
                    frame.set(i.b as usize, Value::Bool(b));
                    let short = match op {
                        ent_syntax::BinOp::And => !b,
                        _ => b,
                    };
                    if short {
                        pc = i.d as usize;
                        continue 'run;
                    }
                }
                Op::ScForce => {
                    let op = code.bins[i.c as usize];
                    let v = take!(i.b);
                    let v = vtry!('run, self.force(frame, v));
                    let Value::Bool(b) = v else {
                        return Err(RtError::Native(format!("`{op}` on a {}", v.kind())).into());
                    };
                    frame.set(i.b as usize, Value::Bool(b));
                }
                Op::Force => {
                    let v = take!(i.b);
                    let v = vtry!('run, self.force(frame, v));
                    frame.set(i.b as usize, v);
                }
                Op::ArrLit => {
                    let vals = take_n!(i.b, i.c);
                    frame.set(i.a as usize, Value::Array(Arc::new(vals)));
                }
                Op::Ret => {
                    return Err(Flow::Return(take!(i.b)));
                }
                Op::Halt => {
                    return Ok(take!(i.b));
                }
                Op::TryPush => {
                    tries.push(i.d);
                }
                Op::TryPop => {
                    tries.pop();
                }
            }
            pc += 1;
        }
    }
}
