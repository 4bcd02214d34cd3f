//! Dynamo power controllers (§III-C and §III-D of the paper).
//!
//! This crate is the paper's primary contribution: the decision logic of
//! the hierarchical power-capping control plane.
//!
//! * [`ThreeBandConfig`] / [`three_band_decision`] — the three-band
//!   capping/uncapping algorithm of Figure 10 (capping threshold,
//!   capping target, uncapping threshold) that eliminates control
//!   oscillation while reacting fast to surges.
//! * [`distribute_power_cut`] — performance-aware cut allocation
//!   (§III-C3): victims are drawn from the lowest *priority group*
//!   first, and within a group by the *high-bucket-first* rule
//!   (punish the heaviest consumers), bounded by per-service SLA floors.
//! * [`LeafController`] — one instance per leaf power device (RPP/PDU
//!   breaker at Facebook): pulls power from a few hundred agents every
//!   3 s, estimates missing readings from service peers, declares the
//!   aggregation invalid past a 20% failure fraction, and issues
//!   cap/uncap RPCs.
//! * [`PiController`] — a proportional-integral alternative to the
//!   three-band algorithm (the paper's future-work direction), used by
//!   the ablation experiments.
//! * [`UpperController`] — one instance per SB/MSB: aggregates child
//!   controllers every 9 s and coordinates them with the
//!   *punish-offender-first* algorithm, pushing *contractual limits*
//!   downward; every controller obeys `min(physical, contractual)`.
//!
//! The controllers are deliberately decoupled from the simulation
//! substrate: a leaf controller talks to agents only through a caller
//! supplied `FnMut(server_id, Request) -> Result<Response, RpcError>`,
//! and an upper controller sees only [`ChildReport`] values. This
//! mirrors the deployment split and makes every decision unit-testable
//! with scripted inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;
mod leaf;
mod pi;
mod threeband;
mod types;
mod upper;

pub use distribution::{
    distribute_power_cut, distribute_power_cut_with_stats, CutAssignment, DistributionStats,
};
pub use leaf::{CycleOutcome, LeafConfig, LeafController, LeafTransport, PullScratch};
pub use pi::{PiConfig, PiController, PiDecision};
pub use threeband::{three_band_decision, BandDecision, ThreeBandConfig, PAPER_BANDS};
pub use types::{
    Alert, CapCommand, ClassTable, ControlAction, PowerSlot, ServerHandle, ServiceClass,
};
pub use upper::{
    ChildDirective, ChildReport, CoordinationPolicy, UpperConfig, UpperController, UpperOutcome,
};
