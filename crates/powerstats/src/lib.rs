//! Power telemetry analysis for the Dynamo reproduction.
//!
//! Implements the measurement machinery behind §II-B of the paper:
//!
//! * [`Trace`] — a regularly-sampled power time series, and
//!   [`PackedTrace`] the same series kept XOR-packed while it grows.
//! * [`sliding_variation`] — the Figure 4 metric: worst-case max-minus-min
//!   power variation within a sliding time window ([`for_each_variation`]
//!   visits them without collecting).
//! * [`quantile_of`] — one type-7 quantile of a pool nobody keeps (the
//!   p50/p99 values Figure 6 quotes), read by selection, and
//!   [`TailQuantile`] an upper one of a pool nobody holds (Figure 5's
//!   p99s); [`Cdf`], the sorted pool, is the reference both are tested
//!   against.
//! * [`episodes_above`] — activity-episode detection (Figure 14's "seven
//!   capping episodes").
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
mod packed;
mod trace;
mod variation;

pub use cdf::{quantile_of, Cdf, TailQuantile};
pub use episodes::{episodes_above, Episode};
pub use packed::PackedTrace;
pub use trace::Trace;
pub use variation::{for_each_variation, sliding_variation, variation_windows};
