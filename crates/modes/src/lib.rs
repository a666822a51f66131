//! Mode lattices, mode expressions, and constraint entailment for ENT.
//!
//! This crate implements the *mode* layer of the ENT language from
//! "Proactive and Adaptive Energy-Aware Programming with Mixed Typechecking"
//! (Canino & Liu, PLDI 2017): the programmer-declared partial order over mode
//! constants (`modes { energy_saver <= managed; ... }`), the grammar of mode
//! expressions used by the type system (Figure 2 of the paper), and the
//! constraint sets `K` with the entailment judgment `K ⊨ K'` that drives the
//! waterfall invariant.
//!
//! # Overview
//!
//! * [`ModeName`] / [`ModeVar`] — names for mode constants and mode type
//!   variables; a mode variable, like every name but a mode constant, is an
//!   id into the compile's [`Names`].
//! * [`StaticMode`] — the paper's `η ::= m | mt | ⊤ | ⊥`.
//! * [`Mode`] — the paper's `µ ::= η | ?`, i.e. a static mode or the dynamic
//!   mode `?` whose concrete value is determined at run time by an attributor.
//! * [`ModeTable`] — the validated `modes { ... }` declaration `D`; checks
//!   that the declared order is a partial order and forms a lattice once the
//!   implicit `⊥`/`⊤` ends are adjoined, and answers ordering, join and meet
//!   queries.
//! * [`ConstraintSet`] — the constraint set `K` of the typing judgment
//!   `Γ; K ⊢ e : τ`, with entailment by graph reachability over the
//!   reflexive–transitive closure of `K ∪ D`.
//! * [`Bounded`], [`ClassModeParams`], [`ModeArgs`], [`Subst`] — the `ω`, `∆`
//!   and `ι` forms of Figure 2 plus point-wise mode substitution.
//!
//! # Example
//!
//! ```
//! use ent_modes::{ModeTable, ModeName, StaticMode, ConstraintSet};
//!
//! # fn main() -> Result<(), ent_modes::ModeTableError> {
//! let saver = ModeName::new("energy_saver");
//! let managed = ModeName::new("managed");
//! let full = ModeName::new("full_throttle");
//! let table = ModeTable::builder()
//!     .le(saver.clone(), managed.clone())
//!     .le(managed.clone(), full.clone())
//!     .build()?;
//!
//! assert!(table.le_const(&saver, &full));
//! let k = ConstraintSet::new();
//! assert!(k.entails(&table, &StaticMode::Const(saver), &StaticMode::Const(full)));
//! # Ok(())
//! # }
//! ```

mod constraint;
mod error;
mod mode;
mod name;
mod table;

pub use constraint::{Constraint, ConstraintSet};
pub use error::ModeTableError;
pub use mode::{Bounded, ClassModeParams, Mode, ModeArgs, StaticMode, Subst};
pub use name::{write_name, ModeName, ModeVar, Names, Spelling, Symbol, MAX_NAMES};
pub use table::{ModeTable, ModeTableBuilder};
