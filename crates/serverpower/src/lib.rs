//! Server power substrate for the Dynamo reproduction.
//!
//! Everything the Dynamo *agent* needs from the machine it runs on, built
//! as simulation models because we have no fleet:
//!
//! * [`PowerCurve`] / [`ServerGeneration`] — power as a function of CPU
//!   utilization for the two web-server generations of the paper's
//!   Figure 1 (2011 Westmere, 2015 Haswell).
//! * [`Rapl`] — the running-average-power-limit actuator: enforces a
//!   power cap with the ~2 s settling transient measured in Figure 9.
//! * [`PowerSensor`] / [`PowerEstimator`] — on-board sensor readings and
//!   the CPU-utilization-based estimation model used for sensorless
//!   machines (§III-B).
//! * [`ServerModel`] — everything that is a pure function of a
//!   [`ServerConfig`] (curve, LUT, sensor, estimator), immutable and
//!   shared by every server configured alike, with Turbo Boost (§IV-B:
//!   ≈ +20% power for ≈ +13% performance) and the capping-slowdown
//!   characteristic of Figure 13; the dynamic scalars are arguments.
//! * [`Server`] — one simulated host: a model plus its own scalars
//!   (demand, [`Rapl`] state, liveness). The scalar reference the
//!   fleet's batched columns are held to.
//!
//! # Example
//!
//! ```
//! use dcsim::SimDuration;
//! use powerinfra::Power;
//! use serverpower::{Server, ServerConfig, ServerGeneration};
//!
//! let mut s = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
//! s.set_demand(0.8);
//! for _ in 0..5 {
//!     s.step(SimDuration::from_secs(1));
//! }
//! let uncapped = s.power();
//! s.rapl_mut().set_limit(uncapped - Power::from_watts(40.0));
//! for _ in 0..5 {
//!     s.step(SimDuration::from_secs(1));
//! }
//! assert!(s.power() < uncapped - Power::from_watts(35.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
pub mod kernel;
mod rapl;
mod sensor;
mod server;

pub use curve::{PowerCurve, PowerLut, ServerGeneration};
pub use rapl::Rapl;
pub use sensor::{PowerEstimator, PowerSensor};
pub use server::{capping_slowdown, PowerBreakdown, Server, ServerConfig, ServerModel, TurboBoost};
