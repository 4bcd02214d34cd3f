//! Grid-interactive demand response for the Dynamo reproduction.
//!
//! Dynamo (ISCA 2016) manages power *inside* the data center against
//! fixed breaker ratings; the utility side of the meter never appears.
//! This crate adds that missing half, following the virtual-power-plant
//! framing (data centers as controllable grid assets on multiple
//! timescales):
//!
//! * [`GridScenario`] — the utility signal as a deterministic piecewise
//!   schedule of price, frequency and curtailment windows, with named
//!   presets (`brownout`, `curtailment-window`, `frequency-excursion`,
//!   `price-spike`) and a text signal-file format;
//! * [`EconController`] — a site-level economic controller on its own
//!   slow [`dcsim::CycleSchedule`] ([`ECON_PERIOD`], 60 s) that translates grid
//!   signals into temporary *contractual* limits for the §III-D
//!   hierarchy (`min(physical, contractual)`), with ramp-rate limiting
//!   and an asymmetric deadband so the 3 s / 9 s capping loops below it
//!   never see an oscillating setpoint;
//! * a DCUPS buffering policy: the controller may intentionally ride
//!   site batteries through a short curtailment — the contract it
//!   pushes is the utility target *plus* the battery headroom the banks
//!   can sustain for one period above their outage-reserve floor — and
//!   recharge once the signal clears.
//!
//! The crate is deliberately free of control-plane types: it speaks
//! watts in, watts out. The `dynamo` crate owns the wiring (which MSB
//! gets what share of the site contract, where the DCUPS banks sit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod econ;
mod signal;

pub use econ::{EconController, EconDecision, ECON_PERIOD};
pub use signal::{GridScenario, GridSegment, GridSignal, NOMINAL_FREQUENCY_HZ, NOMINAL_PRICE};
