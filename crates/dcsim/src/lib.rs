//! Discrete-event simulation kernel for the Dynamo reproduction.
//!
//! This crate provides the three primitives every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution simulated time,
//!   kept separate from wall-clock time by construction.
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with stable FIFO ordering for simultaneous events.
//! * [`SimRng`] — a from-scratch xoshiro256++ PRNG with hierarchical
//!   splitting, so every subsystem gets an independent, reproducible
//!   stream from a single root seed.
//! * [`PeriodicSchedule`] / [`CycleSchedule`] — fixed-period task
//!   tracking for time-stepped loops (the 3 s / 9 s / 60 s cadences of
//!   the control plane); `CycleSchedule` adds the per-instance phase
//!   offset the event-driven control plane schedules controllers with.
//! * [`OptF64`] — an `Option<f64>` in eight bytes, for per-server
//!   columns and cached values that are never NaN.
//!
//! # Example
//!
//! ```
//! use dcsim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(3), "poll");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(1), "tick");
//!
//! let (when, what) = queue.pop().unwrap();
//! assert_eq!(what, "tick");
//! assert_eq!(when.as_secs_f64(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod rng;
mod schedule;
mod slot;
pub mod snap;
mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use schedule::{CycleSchedule, PeriodicSchedule};
pub use slot::OptF64;
pub use snap::{SnapError, SnapReader, SnapWriter, Snapshot};
pub use time::{SimDuration, SimTime};
