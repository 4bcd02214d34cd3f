//! Simulation kernel for the Dynamo reproduction.
//!
//! This crate provides the primitives every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution simulated time,
//!   kept separate from wall-clock time by construction.
//! * [`CycleSchedule`] — the cadence of a periodic loop: a period plus a
//!   phase offset, fired once per tick. Every loop of the control plane
//!   is one (3 s leaf cycles, 9 s upper cycles, 60 s breaker validation,
//!   telemetry sampling), and the controllers due at a tick are found by
//!   scanning theirs.
//! * [`SimRng`] — a from-scratch xoshiro256++ PRNG with hierarchical
//!   splitting, so every subsystem gets an independent, reproducible
//!   stream from a single root seed.
//! * [`OptF64`] — an `Option<f64>` in eight bytes, for per-server
//!   columns and cached values that are never NaN.
//! * [`snap`] — the versioned binary snapshot format every stateful
//!   layer checkpoints through.
//!
//! # Example
//!
//! ```
//! use dcsim::{CycleSchedule, SimDuration, SimTime};
//!
//! // Two leaf controllers on a 3 s cycle, the second a third of a
//! // period behind; a 1 s tick finds the due ones by asking each.
//! let mut leaves = [
//!     CycleSchedule::new(SimDuration::from_secs(3)),
//!     CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_secs(1)),
//! ];
//! let due_at = |leaves: &mut [CycleSchedule], t: u64| -> Vec<usize> {
//!     (0..leaves.len())
//!         .filter(|&i| leaves[i].fire(SimTime::from_secs(t)))
//!         .collect()
//! };
//! assert_eq!(due_at(&mut leaves, 0), [0]);
//! assert_eq!(due_at(&mut leaves, 1), [1]);
//! assert_eq!(due_at(&mut leaves, 2), [] as [usize; 0]);
//! assert_eq!(due_at(&mut leaves, 3), [0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod schedule;
mod slot;
pub mod snap;
mod time;

pub use rng::{exponential_quantile, SimRng};
pub use schedule::CycleSchedule;
pub use slot::OptF64;
pub use snap::{SnapError, SnapReader, SnapWriter, Snapshot};
pub use time::{SimDuration, SimTime};
