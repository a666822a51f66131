//! The transient enforcement strategy: shallow first-order checks, in the
//! spirit of *A Transient Semantics for Typed Racket* (PAPERS.md).
//!
//! Instead of trusting a deep guarantee established once at the boundary,
//! the transient tier re-checks a cheap first-order property at every use
//! site:
//!
//! * **Boundaries** still evaluate the attributor and the bounds check
//!   (those *are* first-order — one mode, two bounds) but commit by
//!   re-tagging the object in place. No lazy-copy discipline, no physical
//!   copies, ever: [`crate::RunStats::copies`] stays 0 under transient.
//! * **Call sites** perform the waterfall lattice comparison per send and
//!   count it as a transient check even when the receiver is untagged.
//! * **Field reads** check that the receiver is not an unsnapshotted
//!   dynamic view (the property the typechecker establishes statically,
//!   re-asserted dynamically; reads via `this` are exempt exactly as in
//!   the static rule, so well-typed programs never fail here).
//!
//! Failures blame the *check site*, not the boundary: the error names the
//! send or field read that observed the violation, and the profiler
//! charges the check's cost to the calling frame (see
//! [`Interp::invoke`]'s strategy-dependent hook ordering). Where both
//! strategies accept a program and the guarded run performs zero copies,
//! the two strategies are value- and energy-identical — the
//! `enforcement_differential` suite pins this on the lattice corners.

use super::super::{Frame, Interp, RtTag};
use crate::error::{Flow, RtError};
use crate::events::{EnergyEvent, EventPayload};
use crate::lower::GMode;
use crate::value::{ObjRef, Value};

impl<'p> Interp<'p> {
    /// The per-send shallow check: the waterfall comparison, counted on
    /// every send (attributed, overridden, tagged, or untagged). An
    /// untagged dynamic receiver — reachable only via `this` — inherits
    /// the sender's mode, exactly as under guarded.
    pub(crate) fn transient_call_check(
        &mut self,
        class: u32,
        method: u32,
        receiver_mode: Option<GMode>,
        sender_mode: GMode,
    ) -> Result<GMode, Flow> {
        self.stats.transient_checks += 1;
        match receiver_mode {
            Some(rm) => {
                if !self.prog.le(rm, sender_mode) {
                    self.stats.energy_exceptions += 1;
                    self.stats.transient_failures += 1;
                    if self.config.record_events {
                        self.events.push(EnergyEvent {
                            at_s: self.sim.time_s(),
                            payload: EventPayload::DfallFailure {
                                class,
                                method,
                                receiver_mode: rm,
                                sender_mode,
                            },
                        });
                    }
                    if !self.config.silent {
                        let prog = self.prog;
                        return Err(RtError::EnergyException(format!(
                            "transient check failed at call site: `{}.{}` runs at mode `{}` but the caller is at `{}`",
                            prog.class_name(class),
                            prog.method_name(method),
                            prog.mode_disp(rm),
                            prog.mode_disp(sender_mode)
                        ))
                        .into());
                    }
                }
                Ok(rm)
            }
            None => Ok(sender_mode),
        }
    }

    /// The per-field-read shallow check: reading through a dynamic,
    /// never-snapshotted view is a violation the typechecker forbids
    /// statically; transient re-asserts it at the site. Reads via `this`
    /// are exempt (the internal view), mirroring the static rule, so the
    /// check can only fail for unchecked programs. Pure — no simulator
    /// cost, no event — but counted.
    pub(crate) fn transient_field_check(
        &mut self,
        frame: &Frame,
        r: ObjRef,
        name: u32,
    ) -> Result<(), Flow> {
        self.stats.transient_checks += 1;
        if matches!(self.heap[r].mode, RtTag::Dynamic) && frame.this_ref != Some(r) {
            self.stats.energy_exceptions += 1;
            self.stats.transient_failures += 1;
            if !self.config.silent {
                let class = self.heap[r].class;
                return Err(RtError::EnergyException(format!(
                    "transient check failed at field read: `{}` read on a dynamic object of class `{}`; snapshot it first",
                    self.prog.spell(self.prog.ir.names[name as usize]),
                    self.prog.class_name(class)
                ))
                .into());
            }
        }
        Ok(())
    }

    /// A failed bounds check blames the check site's provenance with a
    /// transient-tier error and counters (never
    /// [`crate::RunStats::snapshot_failures`], which belongs to guarded).
    pub(crate) fn transient_snapshot_failure(
        &mut self,
        class: u32,
        mode: GMode,
        lo: GMode,
        hi: GMode,
    ) -> Result<(), Flow> {
        let prog = self.prog;
        self.stats.energy_exceptions += 1;
        self.stats.transient_failures += 1;
        if !self.config.silent {
            return Err(RtError::EnergyException(format!(
                "transient check failed at boundary: snapshot of `{}` produced mode `{}` outside bounds [{}, {}]",
                prog.class_name(class),
                prog.mode_disp(mode),
                prog.mode_disp(lo),
                prog.mode_disp(hi)
            ))
            .into());
        }
        Ok(())
    }

    /// The transient commit: always re-tag the same object in place —
    /// first snapshot or fifteenth, there is never a physical copy, so
    /// every alias observes the new tag. (`snapshotted` is still recorded
    /// for heap introspection; nothing in the transient tier consults it.)
    pub(crate) fn transient_snapshot_commit(
        &mut self,
        obj: ObjRef,
        mode: GMode,
        has_internal: bool,
    ) -> Value {
        let data = &mut self.heap[obj];
        data.snapshotted = true;
        data.mode = RtTag::Ground(mode);
        if has_internal {
            data.mode_env[0] = mode;
        }
        Value::Obj(obj)
    }
}
