//! The guarded enforcement strategy: the paper's semantics, verbatim.
//!
//! Boundaries pay a deep snapshot — attributor dispatch, bounds check,
//! and the lazy-copy discipline (first snapshot tags in place, subsequent
//! snapshots physically copy; §5 "Implementation") — and every message
//! send re-checks the dynamic waterfall invariant `dfall`. Failures blame
//! the *boundary*: a bad snapshot names the snapshotted class, a bad send
//! names the receiver method. This file is a code motion of the
//! historically inlined logic; the byte-diff gates on the fig harnesses
//! pin that moving it changed nothing observable.

use std::collections::HashMap;

use ent_energy::WorkKind;

use super::super::{EvalResult, Interp, RtTag, COPY_OVERHEAD_OPS};
use crate::error::{Flow, RtError};
use crate::events::{EnergyEvent, EventPayload};
use crate::lower::GMode;
use crate::profile::AnyProfiler;
use crate::value::{ObjRef, Value};

impl<'p> Interp<'p> {
    /// dfall(o, m): the receiver mode must be ≤ the sender (closure)
    /// mode. Untagged dynamic receivers are only reachable via `this`,
    /// which keeps the sender's mode.
    pub(crate) fn guarded_call_check(
        &mut self,
        class: u32,
        method: u32,
        receiver_mode: Option<GMode>,
        sender_mode: GMode,
    ) -> Result<GMode, Flow> {
        let prog = self.prog;
        match receiver_mode {
            Some(rm) => {
                if !prog.le(rm, sender_mode) {
                    self.stats.energy_exceptions += 1;
                    self.stats.dfall_failures += 1;
                    if let Some(c) = self.profiler.as_mut().and_then(AnyProfiler::own) {
                        c.dfall_failures += 1;
                    }
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
                        return Err(RtError::EnergyException(format!(
                            "dynamic waterfall violation: `{}.{}` runs at mode `{}` but the caller is at `{}`",
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

    /// A failed bounds check blames the boundary: the snapshotted class.
    pub(crate) fn guarded_snapshot_failure(
        &mut self,
        class: u32,
        mode: GMode,
        lo: GMode,
        hi: GMode,
    ) -> Result<(), Flow> {
        let prog = self.prog;
        self.stats.energy_exceptions += 1;
        self.stats.snapshot_failures += 1;
        if let Some(c) = self.profiler.as_mut().and_then(AnyProfiler::own) {
            c.snapshot_failures += 1;
        }
        if !self.config.silent {
            return Err(RtError::EnergyException(format!(
                "snapshot of `{}` produced mode `{}` outside bounds [{}, {}]",
                prog.class_name(class),
                prog.mode_disp(mode),
                prog.mode_disp(lo),
                prog.mode_disp(hi)
            ))
            .into());
        }
        Ok(())
    }

    /// The lazy-copy commit (paper §5): the first snapshot tags the object
    /// in place; subsequent snapshots (or the eager-copy ablation)
    /// physically copy — shallow by default, the whole reachable graph
    /// under the deep-copy ablation.
    pub(crate) fn guarded_snapshot_commit(
        &mut self,
        obj: ObjRef,
        mode: GMode,
        has_internal: bool,
    ) -> EvalResult {
        if !self.heap[obj].snapshotted && !self.config.eager_copy {
            // Lazy copy: tag in place on first snapshot.
            let data = &mut self.heap[obj];
            data.snapshotted = true;
            data.mode = RtTag::Ground(mode);
            if has_internal {
                data.mode_env[0] = mode;
            }
            Ok(Value::Obj(obj))
        } else {
            // Subsequent snapshots copy (shallow by default; the deep-copy
            // ablation clones the reachable object graph).
            self.stats.copies += 1;
            if self.config.tagging {
                self.advance_sim(|sim| sim.do_work(WorkKind::Cpu, COPY_OVERHEAD_OPS));
            }
            if let Some(c) = self.profiler.as_mut().and_then(AnyProfiler::own) {
                c.copies += 1;
            }
            self.heap[obj].snapshotted = true;
            let copy = if self.config.deep_copy {
                self.deep_copy_obj(obj, &mut HashMap::new())
            } else {
                let data = self.heap[obj].clone();
                let copy = self.heap.len();
                self.heap.push(data);
                copy
            };
            let data = &mut self.heap[copy];
            data.mode = RtTag::Ground(mode);
            if has_internal {
                data.mode_env[0] = mode;
            }
            data.snapshotted = true;
            Ok(Value::Obj(copy))
        }
    }

    /// The deep-copy ablation: clones the object graph reachable from
    /// `obj`, preserving sharing and cycles via the `seen` map. Each
    /// cloned object is charged the copy overhead.
    fn deep_copy_obj(&mut self, obj: ObjRef, seen: &mut HashMap<ObjRef, ObjRef>) -> ObjRef {
        if let Some(&copy) = seen.get(&obj) {
            return copy;
        }
        let copy = self.heap.len();
        seen.insert(obj, copy);
        let data = self.heap[obj].clone();
        self.heap.push(data);
        let field_count = self.heap[copy].fields.len();
        for i in 0..field_count {
            let field = self.heap[copy].fields[i].clone();
            if let Value::Obj(r) = field {
                if self.config.tagging {
                    self.advance_sim(|sim| sim.do_work(WorkKind::Cpu, COPY_OVERHEAD_OPS));
                }
                let cloned = self.deep_copy_obj(r, seen);
                self.heap[copy].fields[i] = Value::Obj(cloned);
            }
        }
        copy
    }
}
