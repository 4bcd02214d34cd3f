//! Power telemetry analysis for the Dynamo reproduction.
//!
//! Implements the measurement machinery behind §II-B of the paper:
//!
//! * [`Trace`] — a regularly-sampled power time series.
//! * [`sliding_variation`] — the Figure 4 metric: worst-case max-minus-min
//!   power variation within a sliding time window.
//! * [`Cdf`] — empirical cumulative distributions with percentile lookup
//!   (the p50/p99 values quoted throughout Figures 5 and 6);
//!   [`quantile_of`] reads one quantile of a pool nobody keeps.
//! * [`episodes_above`] — activity-episode detection (Figure 14's "seven
//!   capping episodes").
//! * [`power_slope`] — the rate at which power can rise in a window.
//! * [`Summary`] — streaming mean/min/max/stddev.
//!
//! # Example
//!
//! ```
//! use powerstats::{Cdf, Trace, sliding_variation};
//! use dcsim::SimDuration;
//!
//! // A 3-second-sampled trace with one step up.
//! let samples = vec![100.0, 100.0, 100.0, 130.0, 130.0, 130.0];
//! let trace = Trace::new(SimDuration::from_secs(3), samples);
//! let vars = sliding_variation(&trace, SimDuration::from_secs(9));
//! let cdf = Cdf::from_samples(vars);
//! assert_eq!(cdf.quantile(1.0), 30.0); // worst window saw the full step
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod episodes;
mod summary;
mod trace;
mod variation;

pub use cdf::{quantile_of, Cdf};
pub use episodes::{episodes_above, Episode};
pub use summary::Summary;
pub use trace::Trace;
pub use variation::{power_slope, sliding_variation};
