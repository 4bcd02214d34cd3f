//! Service workload substrate for the Dynamo reproduction.
//!
//! The paper's design space study (§II-B) rests on how real services make
//! server power move. This crate generates synthetic per-server CPU
//! utilization processes for the six services characterized in Figure 6 —
//! web, cache, hadoop, database, news feed, and f4/photo storage — with
//! per-service parameters tuned so the 60 s power-variation distributions
//! have the published shape (e.g. f4 has the lowest median but the
//! heaviest tail; news feed and web the highest medians).
//!
//! One process at a time is [`ServiceWorkload`]; a fleet's worth, as
//! columns, is [`kernel::draw_batch`] — both step through the same
//! [`kernel::step_element`].
//!
//! It also models cluster-level *traffic*: the diurnal daily cycle plus
//! the operational events the paper's case studies revolve around —
//! [`scenarios`] packages two §IV shapes (production load test, site
//! recovery surge) as ready-made patterns.
//!
//! How capping costs performance is a server's, not a workload's:
//! `serverpower::Server::performance_factor` is what Figure 13 reads.
//!
//! # Example
//!
//! ```
//! use dcsim::{SimDuration, SimRng, SimTime};
//! use workloads::{ServiceKind, ServiceWorkload, TrafficPattern};
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut wl = ServiceWorkload::new(ServiceKind::Web, rng.split("w"));
//! let traffic = TrafficPattern::diurnal();
//! let mut t = SimTime::ZERO;
//! for _ in 0..60 {
//!     let mult = traffic.multiplier(t);
//!     let util = wl.utilization(t, mult, SimDuration::from_secs(1));
//!     assert!((0.0..=1.0).contains(&util));
//!     t += SimDuration::from_secs(1);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod scenarios;
mod service;
mod traffic;

pub use service::{
    get_process, put_process, OuCoeffs, ServiceKind, ServiceParams, ServiceWorkload,
};
pub use traffic::{TrafficEvent, TrafficPattern};
