//! The ENT runtime: an interpreter implementing the paper's operational
//! semantics (§4.2) against the simulated energy platforms.
//!
//! Dynamic objects carry mode tags; `snapshot` evaluates attributors,
//! checks bounds (raising the catchable `EnergyException` on a bad check),
//! and applies the paper's lazy shallow-copy semantics; every message send
//! re-validates the dynamic waterfall invariant `dfall` — which, per the
//! paper's Corollary 1, never fails for well-typed programs.
//!
//! Programs are lowered once at load time to an indexed IR (interned
//! symbols, frame-slot variables, per-class field slots, vtable dispatch,
//! slot-indexed mode environments) that the interpreter executes directly;
//! [`run`] lowers and runs in one call, while [`lower_program`] +
//! [`run_lowered`] amortize lowering across repeated runs.
//!
//! # Example
//!
//! ```
//! use ent_core::compile;
//! use ent_energy::Platform;
//! use ent_runtime::{run, RuntimeConfig, Value};
//!
//! let compiled = compile(
//!     "modes { low <= high; }
//!      class Worker@mode<? <= W> {
//!        attributor {
//!          if (Ext.battery() >= 0.5) { return high; } else { return low; }
//!        }
//!        int work(int n) { Sim.work(\"cpu\", 1000.0); return n * 2; }
//!      }
//!      class Main {
//!        int main() {
//!          let dw = new Worker();
//!          let Worker w = snapshot dw [_, _];
//!          return w.work(21);
//!        }
//!      }",
//! ).unwrap();
//! let result = run(&compiled, Platform::system_a(), RuntimeConfig::default());
//! assert_eq!(result.value.unwrap(), Value::Int(42));
//! assert!(result.measurement.energy_j > 0.0);
//! ```

mod compile;
mod error;
mod events;
pub mod formal;
mod interp;
pub mod json;
mod lower;
mod profile;
mod stack;
mod telemetry;
mod value;

pub use error::{Flow, RtError};
pub use events::{render_event, EnergyEvent, EventPayload, EventRing, FaultServe};
pub use interp::{
    run, run_lowered, Enforcement, Engine, RunResult, RunStats, RuntimeConfig, TierStats, TierUp,
};
pub use json::json_escape;
pub use lower::{lower_program, GMode, LoweredProgram};
pub use profile::{
    Costs, MethodProfile, Profile, ProfileMode, ProfileReport, SampledMethod, SampledProfile,
};
pub use stack::{
    check_env_settings, default_stack_size, parse_stack_size, release_idle_stack, spawn_interp,
    spawn_interp_scoped, try_with_interp_stack, with_interp_stack, BUILTIN_STACK_SIZE,
};
pub use telemetry::json_is_valid;
pub use value::{ObjRef, RtMode, Value};
