//! Baseline systems the paper compares ENT against.
//!
//! * [`check_energy_types`] — the purely static Energy Types system
//!   (§2's "Bob"): ENT minus attributors, `snapshot`, and dynamic modes.
//! * [`untyped_e2_program`] — §2's "Alice": ad-hoc if-then-else battery
//!   adaptation with no mode types.

mod energy_types;
mod untyped;

pub use energy_types::{check_energy_types, dynamic_features, DynamicFeature, EnergyTypesResult};
pub use untyped::untyped_e2_program;
