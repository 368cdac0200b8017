//! Deterministic fault injection for the EcoCapsule stack.
//!
//! A buried sensor network spends 17 months inside a hostile medium
//! (PAPER.md §3, §6): the charging beam wanders and nodes brown out,
//! rebar multipath buries the backscatter link in self-interference,
//! curing and temperature drift detune the resonant channel, and the
//! MCU's uncalibrated DCO drifts with temperature. This crate turns
//! those failure modes into a *schedule* — a seeded, reproducible
//! timeline of perturbation windows that the channel, node, reader and
//! scenario layers consume through small composable hooks.
//!
//! Design contract:
//!
//! - **Deterministic.** A [`FaultPlan`] is a pure function of
//!   `(seed, intensity)`. Each fault kind derives its own RNG stream
//!   with [`exec::seed::derive`], so kinds are statistically
//!   independent and adding windows of one kind never reshuffles
//!   another.
//! - **Discrete time.** The unit of time is the protocol *slot*: one
//!   reader transaction (command → reply) consumes one slot. A
//!   [`Timeline`] cursor walks a plan slot by slot; retry backoff skips
//!   slots forward, which is exactly what lets a retry outlive a fault
//!   window.
//! - **Composable.** Layers never see the schedule, only the
//!   [`Perturbation`] in force at their slot — a plain value the
//!   channel/node hooks map onto noise sigma, leak amplitude, clock
//!   error and power loss.
//!
//! The crate also owns the workspace's byte-level primitives: the
//! canonical FNV-1a [`digest`] and the bounded little-endian [`codec`]
//! every checkpoint and wire format is written in.
//!
//! See DESIGN.md §4 for the fault model and the recovery contract the
//! reader layer builds on top.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod digest;
pub mod plan;

pub use digest::{fnv1a64, fnv1a64_bytes};
pub use plan::{
    FaultIntensity, FaultKind, FaultPlan, FaultWindow, KindRate, Perturbation, Timeline,
};
