//! The enforcement seam: *how* the runtime discharges the typechecker's
//! obligations (`ent_core::Obligation`) at boundaries, call sites, and
//! field reads.
//!
//! Declared as a child module of the interpreter (exactly like the
//! bytecode executor) so both strategies operate on the same private
//! machinery — heap, stats, events, profiler — and both engines funnel
//! every check through the single implementation here. The strategy is
//! selected per run by [`crate::RuntimeConfig::enforcement`]:
//!
//! * **guarded** — the paper's semantics: deep snapshot checks at
//!   boundaries (attributor + bounds + lazy copy) and the dynamic
//!   waterfall at sends. The default; byte-identical to the historical
//!   hard-coded behavior, which the fig-harness byte-diff gates pin.
//! * **transient** — shallow first-order checks in the spirit of *A
//!   Transient Semantics for Typed Racket*: boundaries re-tag the object
//!   in place (never copy), every send and field read performs a cheap
//!   tag/lattice check, and failures blame the *check site* rather than
//!   the boundary. Counted in [`crate::RunStats::transient_checks`] /
//!   [`crate::RunStats::transient_failures`].
//!
//! The dispatch methods in this file are where both engines consult the
//! strategy; the strategy-specific behavior lives in [`guarded`] and
//! [`transient`]. The shared check-site helpers
//! ([`Interp::read_field`], [`Interp::resolve_new`],
//! [`Interp::check_cast`], [`Interp::apply_unop`]) also live here so the
//! two engines share one copy of each site's semantics instead of the
//! historical per-engine duplicates.

mod guarded;
mod transient;

use ent_syntax::{Ident, UnOp};

use super::{EvalResult, Frame, Interp, RtTag};
use crate::error::{Flow, RtError};
use crate::lower::{CastCheck, GMode, LMethod, NewPlan};
use crate::value::{ObjRef, Value};

/// Which enforcement strategy discharges mode obligations at run time.
///
/// Selected per run via [`crate::RuntimeConfig::enforcement`] or the CLI
/// `--enforce` flag; guarded when neither names one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Enforcement {
    /// Deep guarded boundaries: snapshot attributor + bounds check + lazy
    /// copy, and the dynamic waterfall (`dfall`) at every send. The
    /// paper's semantics and the default.
    #[default]
    Guarded,
    /// Shallow first-order checks at boundaries, call sites, and field
    /// reads; no copies, check-site blame on failure.
    Transient,
}

impl Enforcement {
    /// Parses a CLI-facing strategy name (`guarded` | `transient`).
    pub fn parse(s: &str) -> Option<Enforcement> {
        match s {
            "guarded" => Some(Enforcement::Guarded),
            "transient" => Some(Enforcement::Transient),
            _ => None,
        }
    }

    /// The CLI-facing name of this strategy.
    pub fn name(self) -> &'static str {
        match self {
            Enforcement::Guarded => "guarded",
            Enforcement::Transient => "transient",
        }
    }

    /// Returns [`Enforcement::Guarded`] and reads no environment
    /// variable (kept for `perfbench/`, which names it; ROADMAP item 9
    /// deletes it with the benchmark's next change).
    pub fn from_env() -> Enforcement {
        Enforcement::Guarded
    }
}

impl<'p> Interp<'p> {
    /// Call-site enforcement: validates the receiver-side mode against the
    /// sender's closure mode and returns the mode the callee's frame runs
    /// at. `receiver_mode` is `None` for an untagged dynamic receiver
    /// (only reachable via `this`), which inherits the sender's mode under
    /// both strategies.
    pub(super) fn enforce_call(
        &mut self,
        class: u32,
        method: u32,
        receiver_mode: Option<GMode>,
        sender_mode: GMode,
    ) -> Result<GMode, Flow> {
        match self.config.enforcement {
            Enforcement::Guarded => {
                self.guarded_call_check(class, method, receiver_mode, sender_mode)
            }
            Enforcement::Transient => {
                self.transient_call_check(class, method, receiver_mode, sender_mode)
            }
        }
    }

    /// Boundary failure: the produced mode fell outside the declared
    /// bounds. Accounts the failure per strategy and raises the catchable
    /// [`RtError::EnergyException`] unless running silent.
    pub(super) fn enforce_snapshot_failure(
        &mut self,
        class: u32,
        mode: GMode,
        lo: GMode,
        hi: GMode,
    ) -> Result<(), Flow> {
        match self.config.enforcement {
            Enforcement::Guarded => self.guarded_snapshot_failure(class, mode, lo, hi),
            Enforcement::Transient => self.transient_snapshot_failure(class, mode, lo, hi),
        }
    }

    /// Boundary commit: a passed (or silent-failed) check materializes the
    /// statically-moded view — by the lazy-copy discipline under guarded,
    /// by re-tagging in place under transient.
    pub(super) fn enforce_snapshot_commit(
        &mut self,
        obj: ObjRef,
        mode: GMode,
        has_internal: bool,
    ) -> EvalResult {
        match self.config.enforcement {
            Enforcement::Guarded => self.guarded_snapshot_commit(obj, mode, has_internal),
            Enforcement::Transient => Ok(self.transient_snapshot_commit(obj, mode, has_internal)),
        }
    }

    // ---- shared check sites (one copy for both engines) -------------------

    /// Reads `field` of the object `r` — the single field-read site both
    /// engines use. Under the transient strategy the read is itself a
    /// check site (a dynamic, never-snapshotted view must not be read
    /// through, mirroring the typechecker's static rule); guarded relies
    /// on that static rule and performs no runtime check.
    pub(super) fn read_field(
        &mut self,
        frame: &Frame,
        r: ObjRef,
        field: u32,
        name: &Ident,
    ) -> Result<Value, Flow> {
        // The tag check precedes the member lookup, in the same order the
        // typechecker rejects (MessagedDynamic before UnknownMember).
        if matches!(self.config.enforcement, Enforcement::Transient) {
            self.transient_field_check(frame, r, name)?;
        }
        let prog = self.prog;
        let data = &self.heap[r];
        let layout = &prog.classes[data.class as usize];
        // Field ids interned after this layout was built are names no
        // class declares: out-of-range reads report them absent.
        match layout.field_slot.get(field as usize) {
            Some(&s) if s != u32::MAX => Ok(data.fields[s as usize].dup()),
            _ => Err(
                RtError::Native(format!("class `{}` has no field `{name}`", layout.name)).into(),
            ),
        }
    }

    /// Resolves a `new` site's lowered plan to the allocation's mode tag
    /// and mode environment — shared by `Node::New` and `Op::NewObj`.
    pub(super) fn resolve_new(
        &self,
        frame: &Frame,
        class: u32,
        plan: &NewPlan,
    ) -> Result<(RtTag, Vec<GMode>), Flow> {
        use crate::lower::DefaultNew;
        let prog = self.prog;
        let layout = &prog.classes[class as usize];
        let n = layout.n_mode_params as usize;
        Ok(match *plan {
            NewPlan::Dynamic { rest } => {
                let mut env = vec![GMode::Missing; n];
                for (i, m) in prog.ir.modes(rest).iter().enumerate() {
                    env[1 + i] = self.resolve_mode(frame, m)?;
                }
                (RtTag::Dynamic, env)
            }
            NewPlan::Static { flat } => {
                let mut resolved = Vec::with_capacity(flat.len());
                for m in prog.ir.modes(flat) {
                    resolved.push(self.resolve_mode(frame, m)?);
                }
                let mode = resolved.first().copied().unwrap_or(GMode::Bot);
                let mut env = vec![GMode::Missing; n];
                for (i, g) in resolved.into_iter().take(n).enumerate() {
                    env[i] = g;
                }
                (RtTag::Ground(mode), env)
            }
            NewPlan::Default => match &layout.default_new {
                DefaultNew::Dynamic => (RtTag::Dynamic, vec![GMode::Missing; n]),
                DefaultNew::Fixed { env } => {
                    let env = &prog.default_envs[env.range()];
                    let mode = env.first().copied().unwrap_or(GMode::Bot);
                    (RtTag::Ground(mode), env.to_vec())
                }
            },
        })
    }

    /// Validates an object downcast — shared by `Node::Cast` and
    /// `Op::CastV`. Non-object values and upcasts pass unchecked.
    pub(super) fn check_cast(&self, v: &Value, check: &Option<CastCheck>) -> Result<(), Flow> {
        let (Value::Obj(r), Some(check)) = (v, check) else {
            return Ok(());
        };
        let prog = self.prog;
        let actual = self.heap[*r].class;
        let actual_name = &prog.classes[actual as usize].name;
        match *check {
            CastCheck::Class(cid) => {
                if !prog.is_subclass_id(actual, cid) {
                    return Err(RtError::BadCast(format!(
                        "object of class `{actual_name}` is not a `{}`",
                        prog.classes[cid as usize].name
                    ))
                    .into());
                }
                Ok(())
            }
            CastCheck::Unknown(class) => Err(RtError::BadCast(format!(
                "object of class `{actual_name}` is not a `{}`",
                prog.ir.unknown_classes[class as usize]
            ))
            .into()),
        }
    }

    /// Applies a unary operator to a forced operand — shared by
    /// `Node::Unary` and `Op::Un`.
    pub(super) fn apply_unop(op: UnOp, v: Value) -> EvalResult {
        match (op, v) {
            (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
            (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
            (UnOp::Neg, Value::Double(x)) => Ok(Value::Double(-x)),
            (op, v) => {
                Err(RtError::Native(format!("cannot apply `{op}` to a {}", v.kind())).into())
            }
        }
    }

    /// Runs a resolved method body in its prepared frame and recycles the
    /// register file — the half of a send that executes *after* the
    /// enforcement prologue ([`Interp::invoke_prologue`]).
    pub(super) fn invoke_body(&mut self, m: &'p LMethod, mut frame: Frame) -> EvalResult {
        let out = match self.run_body(&mut frame, &self.prog.bodies[m.body as usize]) {
            Ok(v) => Ok(v),
            Err(Flow::Return(v)) => Ok(v),
            Err(e) => Err(e),
        };
        self.recycle_locals(frame.locals);
        self.recycle_env(frame.env);
        out
    }
}
