//! # f1-monet — a Monet-style binary-relational kernel
//!
//! This crate is the *physical level* of the Cobra VDBMS reproduction. It
//! re-implements, in safe Rust, the subset of the Monet database kernel
//! (Boncz & Kersten, 1995) that the paper relies on:
//!
//! * **BATs** — Binary Association Tables, append-friendly two-column
//!   main-memory tables whose head is frequently a dense *void* column
//!   ([`bat::Bat`], [`bat::Column`]).
//! * **Relational operators** over BATs: selections, hash joins, semijoins,
//!   anti-joins, duplicate elimination, aggregation and sorting ([`ops`]).
//! * A **kernel catalog** of named BATs plus MEL-style *extension modules*
//!   that register foreign procedures callable from MIL ([`kernel`]).
//! * A small **MIL interpreter** (Monet Interface Language) so that the
//!   logical layer can compile object-algebra plans into executable MIL
//!   programs exactly as Fig. 4 and Fig. 5b of the paper show ([`mil`]).
//! * A `threadcnt`-style **parallel executor** used by the HMM and DBN
//!   extensions to fan out expensive inference calls ([`parallel`]).
//!
//! The kernel is deliberately main-memory only — Monet itself was a
//! main-memory system and every experiment in the paper fits comfortably
//! in RAM.
//!
//! ```
//! use f1_monet::prelude::*;
//!
//! let kernel = Kernel::new();
//! let mut speeds = Bat::new(AtomType::Void, AtomType::Dbl);
//! for v in [312.0, 318.5, 305.2] {
//!     speeds.append_void(Atom::Dbl(v)).unwrap();
//! }
//! kernel.register_bat("speeds", speeds).unwrap();
//! let out = kernel
//!     .eval_mil("VAR m := bat(\"speeds\").max; RETURN m;")
//!     .unwrap();
//! assert_eq!(out, MilValue::Atom(Atom::Dbl(318.5)));
//! ```

pub mod bat;
pub mod error;
pub mod guard;
pub mod index;
pub mod kernel;
pub mod metrics;
pub mod mil;
pub mod ops;
pub mod parallel;
pub mod sketch;
pub mod value;

/// Convenient glob-import of the kernel's most used types.
pub mod prelude {
    pub use crate::bat::{Bat, Column, ColumnData, StrColumn};
    pub use crate::error::{MonetError, Result};
    pub use crate::guard::{CancellationToken, ExecBudget};
    pub use crate::index::ColumnIndex;
    pub use crate::kernel::{Kernel, MelModule};
    pub use crate::metrics::KernelMetrics;
    pub use crate::mil::{MilValue, Prepared};
    pub use crate::ops::OpCtx;
    pub use crate::value::{Atom, AtomType};
}

pub use bat::{Bat, Column, ColumnData, StrColumn};
pub use error::{MonetError, Result};
pub use guard::{CancellationToken, ExecBudget, ExecGuard};
pub use index::ColumnIndex;
pub use kernel::{Kernel, MelModule};
pub use metrics::KernelMetrics;
pub use mil::{MilValue, Prepared};
pub use ops::OpCtx;
pub use sketch::{BatSketch, PlanStats};
pub use value::{Atom, AtomType};
