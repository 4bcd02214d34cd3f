//! # dynobs — zero-allocation observability for the Dynamo control plane
//!
//! Three always-on instruments, all preallocated so the simulator's
//! steady-state hot path never touches the heap:
//!
//! - a **metrics registry** ([`Registry`]) of counters, gauges and
//!   fixed-bucket histograms, registered once through a
//!   [`RegistryBuilder`] and updated lock-free from worker threads via
//!   per-writer [`Shard`]s merged back in a fixed order (which keeps
//!   float histogram sums bit-identical at any thread count). Registry
//!   totals and shard deltas are the same accumulator over one shared
//!   bucket layout, so there is one `add`, one `observe` /
//!   [`Shard::observe_batch`] and one merge;
//! - **cycle tracing** ([`TraceRing`]): bounded ring of sim-time
//!   [`SpanRecord`]s, exportable as chrome-tracing JSON;
//! - a **flight recorder** ([`FlightRecorder`]): fixed ring of the
//!   most recent control-plane [`FlightRecord`]s, dumped as a
//!   structured JSON incident file on triggers like failovers.
//!
//! Both rings are the one generic [`Ring`] over a [`RingRecord`]: a
//! new record type and sink costs one `impl`.
//!
//! Exporters ([`render_prometheus`], [`TraceRing::to_chrome_json`])
//! serialise everything; the strict
//! [`parse_prometheus`] parser backs the `promlint` validator binary
//! and the round-trip property tests.
//!
//! ```
//! use dynobs::{Buckets, RegistryBuilder, render_prometheus, parse_prometheus};
//!
//! let mut b = RegistryBuilder::new();
//! let calls = b.counter("rpc_calls_total", "RPC calls issued");
//! let rtt = b.histogram("rpc_rtt_seconds", "RPC round trips",
//!                       Buckets::log_linear(0.001, 2, 8));
//! let mut registry = b.build(true);
//!
//! // Hot path: shard-local recording, no locks, no allocation.
//! let mut shard = registry.shard();
//! shard.inc(calls);
//! shard.observe(rtt, 0.004);
//! registry.merge_shard(&mut shard);
//!
//! let text = render_prometheus(&registry);
//! assert!(parse_prometheus(&text).is_ok());
//! ```
//!
//! With `enabled = false` every record operation is a branch-and-return
//! no-op, so instrumented code costs nothing when observability is off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod registry;
pub mod ring;
pub mod trace;

pub use export::{parse_prometheus, render_prometheus, ParsedFamily, ParsedHistogram, ParsedKind};
pub use flight::{Band, FlightKind, FlightRecord, FlightRecorder};
pub use registry::{
    Buckets, CounterId, GaugeId, HistogramId, HistogramView, Registry, RegistryBuilder,
    RegistryState, Shard,
};
pub use ring::{Ring, RingRecord};
pub use trace::{SpanKind, SpanRecord, TraceRing};

use std::path::PathBuf;

/// Configuration knob for the whole subsystem, threaded through
/// `DatacenterBuilder::observability` / `SystemConfig`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsConfig {
    /// Master switch. When `false`, registries/shards/rings are built
    /// with their layout intact (ids stay valid) but every record
    /// operation early-returns.
    pub enabled: bool,
    /// Directory incident dumps are written to; `None` disables
    /// writing files (incidents are still counted).
    pub incident_dir: Option<PathBuf>,
}

impl ObsConfig {
    /// Enabled, with no incident directory.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            incident_dir: None,
        }
    }
}
