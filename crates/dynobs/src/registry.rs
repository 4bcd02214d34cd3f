//! The preallocated metrics registry.
//!
//! Every metric is registered once at build time through a
//! [`RegistryBuilder`]; after [`RegistryBuilder::build`] the set is
//! frozen and recording a sample is an array write — no hashing, no
//! locking, no heap. Hot-path writers (the leaf-dispatch shards of the
//! control plane) record into private [`Shard`]s; the owner
//! merges shards back with [`Registry::merge_shard`] in a fixed order,
//! which keeps floating-point histogram sums bit-identical at any
//! worker-thread count.

use std::sync::Arc;

use dcsim::snap::{
    get_f64_vec, get_u64_vec, put_f64_slice, put_u64_slice, SnapError, SnapReader, SnapWriter,
    Snapshot,
};

use crate::flight::FlightRecord;
use crate::trace::SpanRecord;

/// Handle to a registered counter (monotone `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Handle to a registered gauge (`f64`, set-only, owner-side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a registered histogram (fixed buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub(crate) u32);

/// Name and help text of one metric.
#[derive(Debug, Clone)]
pub(crate) struct MetricDef {
    pub(crate) name: String,
    pub(crate) help: String,
}

/// A fixed, ascending set of histogram bucket upper bounds. A final
/// `+Inf` bucket is implicit.
#[derive(Debug, Clone)]
pub struct Buckets {
    bounds: Arc<[f64]>,
}

impl Buckets {
    /// Explicit upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, non-positive or not
    /// strictly ascending.
    pub fn explicit(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bucket bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b > 0.0),
            "bucket bounds must be finite and positive"
        );
        Buckets {
            bounds: bounds.into(),
        }
    }

    /// Log-linear bounds: starting at `start`, each doubling of the
    /// range is divided into `steps_per_doubling` linear steps, for
    /// `doublings` doublings — the classic HdrHistogram-style layout
    /// that keeps relative error bounded with a handful of buckets.
    ///
    /// `log_linear(1.0, 2, 3)` yields `1, 1.5, 2, 3, 4, 6, 8`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not positive/finite or either count is zero.
    pub fn log_linear(start: f64, steps_per_doubling: u32, doublings: u32) -> Self {
        assert!(
            start.is_finite() && start > 0.0,
            "log-linear start must be positive"
        );
        assert!(
            steps_per_doubling > 0 && doublings > 0,
            "log-linear layout needs at least one step and one doubling"
        );
        let mut bounds = Vec::with_capacity((steps_per_doubling * doublings + 1) as usize);
        for d in 0..doublings {
            let base = start * f64::powi(2.0, d as i32);
            for k in 0..steps_per_doubling {
                bounds.push(base * (1.0 + k as f64 / steps_per_doubling as f64));
            }
        }
        bounds.push(start * f64::powi(2.0, doublings as i32));
        Buckets {
            bounds: bounds.into(),
        }
    }

    /// The upper bounds (excluding the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// Index of the bucket `value` falls into: the number of upper bounds
/// strictly below it (boundary values land in the lower bucket).
/// Equivalent to `bounds.partition_point(|b| value > *b)`, computed as
/// a branchless linear scan over half the bounds — this runs once per
/// RPC call on the control plane's hot path.
///
/// The one real branch (which half) keys on the midpoint bound.
/// Latency-style distributions concentrate far below the top bound, so
/// the branch is near-perfectly predicted and the scan touches only
/// the lower half; a full branchless scan of all bounds measured ~2x
/// slower for the RPC RTT histogram. Each half still scans
/// branchlessly, so adversarial values cost one misprediction, not a
/// per-bound cascade.
#[inline]
fn bucket_slot(bounds: &[f64], value: f64) -> usize {
    let mid = bounds.len() / 2;
    let (skip, scan) = if value > bounds[mid] {
        (mid + 1, &bounds[mid + 1..])
    } else {
        // Every bound from `mid` up is >= bounds[mid] >= value, so
        // only the lower half can contribute.
        (0, &bounds[..mid])
    };
    let mut slot = skip;
    for &b in scan {
        slot += usize::from(value > b);
    }
    slot
}

/// True if `name` is a valid Prometheus metric name.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Registers the metric set. Registration allocates; recording later
/// does not.
#[derive(Debug, Default)]
pub struct RegistryBuilder {
    counters: Vec<MetricDef>,
    gauges: Vec<MetricDef>,
    hists: Vec<MetricDef>,
    hist_bounds: Vec<Arc<[f64]>>,
}

impl RegistryBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_name(&self, name: &str) {
        assert!(valid_metric_name(name), "invalid metric name '{name}'");
        let taken = self
            .counters
            .iter()
            .chain(&self.gauges)
            .chain(&self.hists)
            .any(|d| d.name == name);
        assert!(!taken, "duplicate metric name '{name}'");
    }

    /// Registers a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn counter(&mut self, name: &str, help: &str) -> CounterId {
        self.check_name(name);
        self.counters.push(MetricDef {
            name: name.to_string(),
            help: help.to_string(),
        });
        CounterId(self.counters.len() as u32 - 1)
    }

    /// Registers a gauge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn gauge(&mut self, name: &str, help: &str) -> GaugeId {
        self.check_name(name);
        self.gauges.push(MetricDef {
            name: name.to_string(),
            help: help.to_string(),
        });
        GaugeId(self.gauges.len() as u32 - 1)
    }

    /// Registers a histogram with the given bucket layout.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn histogram(&mut self, name: &str, help: &str, buckets: Buckets) -> HistogramId {
        self.check_name(name);
        self.hists.push(MetricDef {
            name: name.to_string(),
            help: help.to_string(),
        });
        self.hist_bounds.push(buckets.bounds);
        HistogramId(self.hists.len() as u32 - 1)
    }

    /// Freezes the metric set. A disabled registry keeps its layout (so
    /// ids stay valid) but every record operation is an early-returning
    /// no-op, and so are the shards it hands out.
    pub fn build(self, enabled: bool) -> Registry {
        let hist_buckets = self
            .hist_bounds
            .iter()
            .map(|b| vec![0u64; b.len() + 1])
            .collect();
        Registry {
            enabled,
            counter_defs: self.counters,
            gauge_defs: self.gauges,
            hist_defs: self.hists,
            hist_bounds: self.hist_bounds,
            counters: Vec::new(),
            gauges: Vec::new(),
            hist_buckets,
            hist_sums: Vec::new(),
            hist_counts: Vec::new(),
            bounds_flat: Vec::new().into(),
            bounds_off: Vec::new().into(),
        }
        .init()
    }
}

/// One histogram's state, borrowed for inspection/export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramView<'a> {
    /// Bucket upper bounds (excluding `+Inf`).
    pub bounds: &'a [f64],
    /// Cumulative-free per-bucket counts; one longer than `bounds`,
    /// the last entry being the `+Inf` bucket.
    pub buckets: &'a [u64],
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// The frozen metric set with its current values.
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: bool,
    counter_defs: Vec<MetricDef>,
    gauge_defs: Vec<MetricDef>,
    hist_defs: Vec<MetricDef>,
    hist_bounds: Vec<Arc<[f64]>>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hist_buckets: Vec<Vec<u64>>,
    hist_sums: Vec<f64>,
    hist_counts: Vec<u64>,
    /// All bucket bounds concatenated; histogram `i` owns
    /// `bounds_flat[bounds_off[i] as usize..bounds_off[i + 1] as usize]`.
    /// Shared (refcounted) with every shard so hot-path bucketing is a
    /// single contiguous scan with no per-histogram indirection.
    bounds_flat: Arc<[f64]>,
    /// `hist_defs.len() + 1` offsets into `bounds_flat`.
    bounds_off: Arc<[u32]>,
}

impl Registry {
    fn init(mut self) -> Self {
        self.counters = vec![0; self.counter_defs.len()];
        self.gauges = vec![0.0; self.gauge_defs.len()];
        self.hist_sums = vec![0.0; self.hist_defs.len()];
        self.hist_counts = vec![0; self.hist_defs.len()];
        let mut off = Vec::with_capacity(self.hist_bounds.len() + 1);
        let mut flat = Vec::new();
        off.push(0u32);
        for bounds in &self.hist_bounds {
            flat.extend_from_slice(bounds);
            off.push(flat.len() as u32);
        }
        self.bounds_flat = flat.into();
        self.bounds_off = off.into();
        self
    }

    /// Whether recording is live. A disabled registry ignores all
    /// record and merge operations.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Creates a zeroed shard matching this registry's layout, for one
    /// hot-path writer.
    pub fn shard(&self) -> Shard {
        Shard {
            enabled: self.enabled,
            counters: vec![0; self.counter_defs.len()],
            // One flat bucket array: histogram i has one more bucket
            // (the +Inf slot) than bounds, hence the `+ i` skew.
            buckets: vec![0; self.bounds_flat.len() + self.hist_defs.len()],
            hist_sums: vec![0.0; self.hist_defs.len()],
            hist_counts: vec![0; self.hist_defs.len()],
            bounds_flat: self.bounds_flat.clone(),
            bounds_off: self.bounds_off.clone(),
            spans: Vec::new(),
            flights: Vec::new(),
            hist_scratch: Vec::new(),
            state: 0,
        }
    }

    /// Increments a counter by one (owner-side serial recording).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds to a counter (owner-side serial recording).
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[id.0 as usize] += n;
    }

    /// Sets a gauge. Gauges are owner-side only — they describe global
    /// state (fleet power, simulated time) that no shard owns.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        if !self.enabled {
            return;
        }
        self.gauges[id.0 as usize] = value;
    }

    /// Records one histogram observation (owner-side serial recording).
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        let slot = bucket_slot(&self.hist_bounds[i], value);
        self.hist_buckets[i][slot] += 1;
        self.hist_sums[i] += value;
        self.hist_counts[i] += 1;
    }

    /// Folds a shard's deltas into the registry and zeroes the shard.
    ///
    /// Call in a fixed order (the control plane uses ascending leaf
    /// index) — float histogram sums are accumulated in merge order, so
    /// a fixed order is what makes the merged registry bit-identical no
    /// matter how many worker threads recorded the shards.
    pub fn merge_shard(&mut self, shard: &mut Shard) {
        if !self.enabled {
            return;
        }
        for (total, part) in self.counters.iter_mut().zip(&mut shard.counters) {
            *total += *part;
            *part = 0;
        }
        for i in 0..self.hist_defs.len() {
            if shard.hist_counts[i] == 0 {
                continue;
            }
            let lo = shard.bounds_off[i] as usize + i;
            let part = &mut shard.buckets[lo..];
            for (total, p) in self.hist_buckets[i].iter_mut().zip(part.iter_mut()) {
                *total += *p;
                *p = 0;
            }
            self.hist_sums[i] += shard.hist_sums[i];
            self.hist_counts[i] += shard.hist_counts[i];
            shard.hist_sums[i] = 0.0;
            shard.hist_counts[i] = 0;
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize]
    }

    /// Borrowed view of a histogram's state.
    pub fn histogram(&self, id: HistogramId) -> HistogramView<'_> {
        let i = id.0 as usize;
        HistogramView {
            bounds: &self.hist_bounds[i],
            buckets: &self.hist_buckets[i],
            sum: self.hist_sums[i],
            count: self.hist_counts[i],
        }
    }

    /// Iterates `(name, help, value)` over all counters, in
    /// registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counter_defs
            .iter()
            .zip(&self.counters)
            .map(|(d, &v)| (d.name.as_str(), d.help.as_str(), v))
    }

    /// Iterates `(name, help, value)` over all gauges, in registration
    /// order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.gauge_defs
            .iter()
            .zip(&self.gauges)
            .map(|(d, &v)| (d.name.as_str(), d.help.as_str(), v))
    }

    /// Iterates `(name, help, view)` over all histograms, in
    /// registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &str, HistogramView<'_>)> {
        self.hist_defs.iter().enumerate().map(|(i, d)| {
            (
                d.name.as_str(),
                d.help.as_str(),
                self.histogram(HistogramId(i as u32)),
            )
        })
    }

    /// Captures the registry's metric *values* for a snapshot. The
    /// layout (names, help, bucket bounds) is build-time configuration
    /// and is not part of the state — a restored registry must be
    /// rebuilt with the identical metric set first.
    pub fn state(&self) -> RegistryState {
        RegistryState {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hist_buckets: self.hist_buckets.clone(),
            hist_sums: self.hist_sums.clone(),
            hist_counts: self.hist_counts.clone(),
        }
    }

    /// Restores metric values captured by [`Registry::state`] into a
    /// registry rebuilt with the same layout. Fails with
    /// [`SnapError::Corrupt`] if any array length disagrees with the
    /// frozen layout.
    pub fn restore(&mut self, state: &RegistryState) -> Result<(), SnapError> {
        if state.counters.len() != self.counters.len()
            || state.gauges.len() != self.gauges.len()
            || state.hist_sums.len() != self.hist_sums.len()
            || state.hist_counts.len() != self.hist_counts.len()
            || state.hist_buckets.len() != self.hist_buckets.len()
        {
            return Err(SnapError::Corrupt(
                "registry state does not match the frozen metric layout".into(),
            ));
        }
        for (i, (have, want)) in state
            .hist_buckets
            .iter()
            .zip(&self.hist_buckets)
            .enumerate()
        {
            if have.len() != want.len() {
                return Err(SnapError::Corrupt(format!(
                    "histogram {i} bucket count mismatch: snapshot {}, layout {}",
                    have.len(),
                    want.len()
                )));
            }
        }
        self.counters.clone_from(&state.counters);
        self.gauges.clone_from(&state.gauges);
        self.hist_buckets.clone_from(&state.hist_buckets);
        self.hist_sums.clone_from(&state.hist_sums);
        self.hist_counts.clone_from(&state.hist_counts);
        Ok(())
    }
}

/// The metric *values* of a [`Registry`] (not its layout),
/// snapshot-serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryState {
    /// Counter values in registration order.
    pub counters: Vec<u64>,
    /// Gauge values in registration order.
    pub gauges: Vec<f64>,
    /// Per-histogram bucket counts (last slot is `+Inf`).
    pub hist_buckets: Vec<Vec<u64>>,
    /// Per-histogram observation sums.
    pub hist_sums: Vec<f64>,
    /// Per-histogram observation counts.
    pub hist_counts: Vec<u64>,
}

impl Snapshot for RegistryState {
    const KIND: &'static str = "dynobs.RegistryState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        put_u64_slice(w, &self.counters);
        put_f64_slice(w, &self.gauges);
        w.put_u64(self.hist_buckets.len() as u64);
        for buckets in &self.hist_buckets {
            put_u64_slice(w, buckets);
        }
        put_f64_slice(w, &self.hist_sums);
        put_u64_slice(w, &self.hist_counts);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let counters = get_u64_vec(r)?;
        let gauges = get_f64_vec(r)?;
        let hist_buckets = r.get_vec(get_u64_vec)?;
        let hist_sums = get_f64_vec(r)?;
        let hist_counts = get_u64_vec(r)?;
        let n = hist_buckets.len();
        if hist_sums.len() != n || hist_counts.len() != n {
            return Err(SnapError::Corrupt(
                "histogram sum/count arrays disagree with bucket array count".into(),
            ));
        }
        Ok(RegistryState {
            counters,
            gauges,
            hist_buckets,
            hist_sums,
            hist_counts,
        })
    }
}

/// A private, lock-free accumulator for one hot-path writer. All
/// record operations are plain array writes; a disabled shard
/// early-returns from every one of them.
///
/// Besides metric deltas a shard buffers [`SpanRecord`]s and
/// [`FlightRecord`]s (drained by the owner after the merge, in the
/// same fixed order) and carries one persistent `state` word for
/// writer-local bookkeeping — the control plane stores each leaf's
/// last band there to detect band transitions.
#[derive(Debug, Clone)]
pub struct Shard {
    enabled: bool,
    counters: Vec<u64>,
    /// All histograms' buckets in one flat array: histogram `i` owns
    /// `buckets[bounds_off[i] as usize + i..]` for `bounds + 1` slots
    /// (the `+ i` skew accounts for each histogram's extra `+Inf`
    /// bucket).
    buckets: Vec<u64>,
    hist_sums: Vec<f64>,
    hist_counts: Vec<u64>,
    bounds_flat: Arc<[f64]>,
    bounds_off: Arc<[u32]>,
    spans: Vec<SpanRecord>,
    flights: Vec<FlightRecord>,
    /// Deferred observations buffered by an open [`HistScope`] and
    /// drained at scope close. Kept on the shard so its capacity
    /// persists across cycles (no steady-state allocation).
    hist_scratch: Vec<f64>,
    /// Persistent writer-local state word, untouched by merges.
    pub state: u32,
}

impl Shard {
    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[id.0 as usize] += n;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        let lo = self.bounds_off[i] as usize;
        let hi = self.bounds_off[i + 1] as usize;
        let slot = bucket_slot(&self.bounds_flat[lo..hi], value);
        self.buckets[lo + i + slot] += 1;
        self.hist_sums[i] += value;
        self.hist_counts[i] += 1;
    }

    /// Splits off a [`HistScope`] over one histogram plus the counter
    /// bank, hoisting every per-observation indirection (offset table,
    /// bounds slicing, enabled load) out of the caller's hot loop.
    ///
    /// The control plane opens one scope per leaf cycle and records
    /// each RPC through it; a recording is then one buffered store,
    /// and the scope folds the buffer into the histogram when it
    /// closes. Observations land in the same slots, sums and order as
    /// the equivalent [`Shard::observe`] calls, so the merged registry
    /// is bit-identical either way.
    #[inline]
    pub fn hist_scope(&mut self, id: HistogramId) -> HistScope<'_> {
        let i = id.0 as usize;
        let lo = self.bounds_off[i] as usize;
        let hi = self.bounds_off[i + 1] as usize;
        debug_assert!(self.hist_scratch.is_empty());
        HistScope {
            enabled: self.enabled,
            counters: &mut self.counters,
            bounds: &self.bounds_flat[lo..hi],
            // `+ i` skew: each earlier histogram owns one extra +Inf
            // bucket; this histogram's slots are `bounds + 1` wide.
            buckets: &mut self.buckets[lo + i..hi + i + 1],
            pending: &mut self.hist_scratch,
            sum_slot: &mut self.hist_sums[i],
            count_slot: &mut self.hist_counts[i],
        }
    }

    /// Buffers a trace span (drained by the owner after the merge).
    #[inline]
    pub fn span(&mut self, record: SpanRecord) {
        if !self.enabled {
            return;
        }
        self.spans.push(record);
    }

    /// Buffers a flight-recorder record (drained by the owner after
    /// the merge).
    #[inline]
    pub fn flight(&mut self, record: FlightRecord) {
        if !self.enabled {
            return;
        }
        self.flights.push(record);
    }

    /// Drains the buffered spans, keeping the buffer's capacity.
    pub fn take_spans(&mut self) -> std::vec::Drain<'_, SpanRecord> {
        self.spans.drain(..)
    }

    /// Drains the buffered flight records, keeping the buffer's
    /// capacity.
    pub fn take_flights(&mut self) -> std::vec::Drain<'_, FlightRecord> {
        self.flights.drain(..)
    }
}

/// A borrow-split view of one shard histogram plus the shard's counter
/// bank, built by [`Shard::hist_scope`] for a hot recording loop.
///
/// All the per-call indirections of [`Shard::observe`] — the offset
/// table loads, the bounds re-slicing — are resolved once at
/// construction, and [`HistScope::observe`] only appends the value to
/// a shard-owned buffer (one store; the buffer keeps its capacity
/// across cycles, so steady-state recording does not allocate).
/// Closing the scope folds the buffer into the histogram in one tight
/// loop with the bounds and buckets cache-hot, applying the same
/// additions in the same order as per-call recording would — the
/// result is bit-identical.
#[derive(Debug)]
pub struct HistScope<'a> {
    enabled: bool,
    counters: &'a mut [u64],
    bounds: &'a [f64],
    /// This histogram's `bounds + 1` slots (last is `+Inf`).
    buckets: &'a mut [u64],
    pending: &'a mut Vec<f64>,
    sum_slot: &'a mut f64,
    count_slot: &'a mut u64,
}

impl HistScope<'_> {
    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one observation into the scoped histogram.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        if !self.enabled {
            return;
        }
        self.pending.push(value);
    }

    /// Adds to a counter (same bank as [`Shard::add`]).
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[id.0 as usize] += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }
}

impl Drop for HistScope<'_> {
    fn drop(&mut self) {
        // Fold the buffered observations in arrival order; the sum
        // accumulates in a local seeded from the shard slot, so the
        // stores below are the only memory traffic besides the bucket
        // increments.
        let mut sum = *self.sum_slot;
        for &value in self.pending.iter() {
            let slot = bucket_slot(self.bounds, value);
            self.buckets[slot] += 1;
            sum += value;
        }
        *self.sum_slot = sum;
        *self.count_slot += self.pending.len() as u64;
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Registry, CounterId, GaugeId, HistogramId) {
        let mut b = RegistryBuilder::new();
        let c = b.counter("calls_total", "calls");
        let g = b.gauge("power_watts", "power");
        let h = b.histogram("latency_seconds", "latency", Buckets::explicit(&[0.1, 1.0]));
        (b.build(true), c, g, h)
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let (mut r, c, g, h) = small();
        r.inc(c);
        r.add(c, 4);
        r.set_gauge(g, 220.5);
        r.observe(h, 0.05);
        r.observe(h, 0.5);
        r.observe(h, 5.0);
        assert_eq!(r.counter_value(c), 5);
        assert_eq!(r.gauge_value(g), 220.5);
        let v = r.histogram(h);
        assert_eq!(v.buckets, &[1, 1, 1]);
        assert_eq!(v.count, 3);
        assert!((v.sum - 5.55).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundary_is_inclusive() {
        let (mut r, _, _, h) = small();
        r.observe(h, 0.1); // exactly on the first bound -> first bucket
        assert_eq!(r.histogram(h).buckets, &[1, 0, 0]);
    }

    #[test]
    fn shard_merge_matches_direct_recording() {
        let (mut direct, c, _, h) = small();
        let (mut sharded, c2, _, h2) = small();
        for v in [0.05, 0.3, 2.0, 0.9] {
            direct.inc(c);
            direct.observe(h, v);
        }
        let mut shard = sharded.shard();
        for v in [0.05, 0.3, 2.0, 0.9] {
            shard.inc(c2);
            shard.observe(h2, v);
        }
        sharded.merge_shard(&mut shard);
        assert_eq!(direct.counter_value(c), sharded.counter_value(c2));
        assert_eq!(direct.histogram(h), sharded.histogram(h2));
        // The shard is zeroed by the merge: merging again adds nothing.
        sharded.merge_shard(&mut shard);
        assert_eq!(direct.histogram(h), sharded.histogram(h2));
    }

    #[test]
    fn hist_scope_matches_direct_shard_recording() {
        // Two histograms so the scoped one sits at a nonzero offset in
        // the flat bucket array (exercises the +Inf skew arithmetic).
        let build = || {
            let mut b = RegistryBuilder::new();
            let c = b.counter("calls_total", "calls");
            let _ = b.histogram("first", "first", Buckets::explicit(&[0.5, 5.0]));
            let h = b.histogram(
                "latency_seconds",
                "latency",
                Buckets::log_linear(0.001, 2, 8),
            );
            (b.build(true), c, h)
        };
        let vals = [0.0004, 0.001, 0.0017, 0.02, 0.3, 7.0];
        let (mut direct_reg, c1, h1) = build();
        let mut direct = direct_reg.shard();
        for v in vals {
            direct.inc(c1);
            direct.observe(h1, v);
        }
        let (mut scoped_reg, c2, h2) = build();
        let mut scoped = scoped_reg.shard();
        let mut scope = scoped.hist_scope(h2);
        assert!(scope.is_enabled());
        for v in vals {
            scope.inc(c2);
            scope.observe(v);
        }
        drop(scope);
        direct_reg.merge_shard(&mut direct);
        scoped_reg.merge_shard(&mut scoped);
        assert_eq!(direct_reg.counter_value(c1), scoped_reg.counter_value(c2));
        assert_eq!(direct_reg.histogram(h1), scoped_reg.histogram(h2));
    }

    #[test]
    fn disabled_shard_hist_scope_records_nothing() {
        let mut b = RegistryBuilder::new();
        let c = b.counter("calls_total", "calls");
        let h = b.histogram("lat", "lat", Buckets::explicit(&[1.0]));
        let mut r = b.build(false);
        let mut s = r.shard();
        let mut scope = s.hist_scope(h);
        assert!(!scope.is_enabled());
        scope.inc(c);
        scope.add(c, 5);
        scope.observe(0.5);
        drop(scope);
        r.merge_shard(&mut s);
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.histogram(h).count, 0);
    }

    #[test]
    fn disabled_registry_ignores_everything() {
        let mut b = RegistryBuilder::new();
        let c = b.counter("calls_total", "calls");
        let h = b.histogram("lat", "lat", Buckets::explicit(&[1.0]));
        let mut r = b.build(false);
        let mut s = r.shard();
        r.inc(c);
        r.observe(h, 0.5);
        s.inc(c);
        s.observe(h, 0.5);
        r.merge_shard(&mut s);
        assert!(!r.is_enabled() && !s.is_enabled());
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.histogram(h).count, 0);
    }

    #[test]
    fn log_linear_layout() {
        let b = Buckets::log_linear(1.0, 2, 3);
        assert_eq!(b.bounds(), &[1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let mut b = RegistryBuilder::new();
        b.counter("x_total", "x");
        b.gauge("x_total", "x again");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        RegistryBuilder::new().counter("9lives", "nope");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_buckets_panic() {
        Buckets::explicit(&[1.0, 0.5]);
    }
}
