//! # f1-bench — the evaluation harness
//!
//! One function per table/figure of the paper's evaluation (§5.5–§5.6),
//! plus the in-text experiments. The `experiments` binary runs them and
//! prints paper-style tables; `EXPERIMENTS.md` records paper-reported vs
//! measured values. The tables are clients of one shared VDBMS
//! ([`Races`]): it ingests the races, trains and installs the networks,
//! answers `infer` and `RETRIEVE`; this crate only scores what comes
//! back. Timing the serving layer is the repo benchmark's job
//! (`benchmark/`).
//!
//! Durations: the real races run ≈ 90 minutes; the harness defaults to
//! 600 s broadcasts (the same event structure at a tractable scale —
//! every rate in the scenario generator is per-second, so shortening the
//! race shortens the quiet stretches proportionally).

pub mod data;
pub mod excited;
pub mod experiments;
pub mod report;

pub use data::{Races, DEFAULT_DURATION_S};
pub use report::{Cell, Table};
