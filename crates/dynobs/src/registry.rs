//! The preallocated metrics registry.
//!
//! Every metric is registered once at build time through a
//! [`RegistryBuilder`]; after [`RegistryBuilder::build`] the set is
//! frozen and recording a sample is an array write — no hashing, no
//! locking, no heap. Counters and histograms live in one accumulator
//! shape over one shared bounds layout: the [`Registry`] holds one as
//! its totals, and every hot-path writer (a leaf of the control plane)
//! records into a private [`Shard`] holding another. The owner merges
//! shards back with [`Registry::merge_shard`] in a fixed order, which
//! keeps floating-point histogram sums bit-identical at any
//! worker-thread count.

use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{
    get_count_vec, get_f64_vec, put_f64_slice, put_u64_slice, SnapError, SnapReader, SnapWriter,
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
    bounds: Vec<f64>,
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
            bounds: bounds.to_vec(),
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
        Buckets { bounds }
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

/// The bucket bounds of every histogram, concatenated: histogram `i`
/// owns `bounds[off[i]..off[i + 1]]`. One layout is shared (refcounted)
/// by the registry's totals and every shard, so bucketing is a single
/// contiguous scan with no per-histogram indirection.
#[derive(Debug)]
struct Layout {
    bounds: Vec<f64>,
    /// One more offset than there are histograms; starts at 0.
    off: Vec<u32>,
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            bounds: Vec::new(),
            off: vec![0],
        }
    }
}

impl Layout {
    fn hists(&self) -> usize {
        self.off.len() - 1
    }

    fn bounds(&self, i: usize) -> &[f64] {
        &self.bounds[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Histogram `i`'s slots in an accumulator's flat bucket array. A
    /// histogram has one more bucket (the `+Inf` slot) than bounds, so
    /// its slots sit `i` past its bounds.
    fn slots(&self, i: usize) -> Range<usize> {
        self.off[i] as usize + i..self.off[i + 1] as usize + i + 1
    }
}

/// Counter and histogram values over a [`Layout`] — the one recording
/// representation. A disabled accumulator keeps its shape (ids stay
/// valid) and ignores every operation.
#[derive(Debug, Clone)]
struct Accumulator {
    enabled: bool,
    layout: Arc<Layout>,
    counters: Vec<u64>,
    /// Every histogram's buckets, flat (see [`Layout::slots`]).
    buckets: Vec<u64>,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl Accumulator {
    fn zeroed(enabled: bool, counters: usize, layout: Arc<Layout>) -> Self {
        let hists = layout.hists();
        Accumulator {
            enabled,
            counters: vec![0; counters],
            buckets: vec![0; layout.bounds.len() + hists],
            sums: vec![0.0; hists],
            counts: vec![0; hists],
            layout,
        }
    }

    #[inline]
    fn add(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0 as usize] += n;
        }
    }

    #[inline]
    fn observe(&mut self, id: HistogramId, value: f64) {
        self.observe_batch(id, std::slice::from_ref(&value));
    }

    /// Folds `values` into histogram `id` in order. The sum accumulates
    /// in a local seeded from the stored sum, so a batch leaves exactly
    /// the bits the same values observed one at a time would.
    #[inline]
    fn observe_batch(&mut self, id: HistogramId, values: &[f64]) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        let bounds = self.layout.bounds(i);
        let buckets = &mut self.buckets[self.layout.slots(i)];
        let mut sum = self.sums[i];
        for &value in values {
            buckets[bucket_slot(bounds, value)] += 1;
            sum += value;
        }
        self.sums[i] = sum;
        self.counts[i] += values.len() as u64;
    }

    /// Adds `part` into `self` and zeroes `part`.
    fn merge(&mut self, part: &mut Accumulator) {
        if !self.enabled {
            return;
        }
        for (total, p) in self.counters.iter_mut().zip(&mut part.counters) {
            *total += std::mem::take(p);
        }
        for i in 0..self.counts.len() {
            if part.counts[i] == 0 {
                continue;
            }
            let slots = self.layout.slots(i);
            let totals = &mut self.buckets[slots.clone()];
            for (total, p) in totals.iter_mut().zip(&mut part.buckets[slots]) {
                *total += std::mem::take(p);
            }
            self.sums[i] += std::mem::take(&mut part.sums[i]);
            self.counts[i] += std::mem::take(&mut part.counts[i]);
        }
    }
}

/// True if `name` is a valid Prometheus metric name.
pub(crate) fn valid_metric_name(name: &str) -> bool {
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
    layout: Layout,
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
        self.layout.bounds.extend_from_slice(&buckets.bounds);
        self.layout.off.push(self.layout.bounds.len() as u32);
        HistogramId(self.hists.len() as u32 - 1)
    }

    /// Freezes the metric set. A disabled registry keeps its layout (so
    /// ids stay valid) but every record operation is an early-returning
    /// no-op, and so are the shards it hands out.
    pub fn build(self, enabled: bool) -> Registry {
        Registry {
            gauges: vec![0.0; self.gauges.len()],
            totals: Accumulator::zeroed(enabled, self.counters.len(), Arc::new(self.layout)),
            counter_defs: self.counters,
            gauge_defs: self.gauges,
            hist_defs: self.hists,
        }
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

/// The frozen metric set with its current values: the metric
/// definitions, the gauges, and an accumulator of totals.
#[derive(Debug, Clone)]
pub struct Registry {
    counter_defs: Vec<MetricDef>,
    gauge_defs: Vec<MetricDef>,
    hist_defs: Vec<MetricDef>,
    gauges: Vec<f64>,
    totals: Accumulator,
}

impl Registry {
    /// Whether recording is live. A disabled registry ignores all
    /// record and merge operations.
    pub fn is_enabled(&self) -> bool {
        self.totals.enabled
    }

    /// Creates a zeroed shard matching this registry's layout, for one
    /// hot-path writer.
    pub fn shard(&self) -> Shard {
        let totals = &self.totals;
        Shard {
            acc: Accumulator::zeroed(
                totals.enabled,
                totals.counters.len(),
                Arc::clone(&totals.layout),
            ),
            spans: Vec::new(),
            flights: Vec::new(),
        }
    }

    /// Increments a counter by one (owner-side serial recording).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.totals.add(id, 1);
    }

    /// Adds to a counter (owner-side serial recording).
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.totals.add(id, n);
    }

    /// Sets a gauge. Gauges are owner-side only — they describe global
    /// state (fleet power, simulated time) that no shard owns.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        if !self.totals.enabled {
            return;
        }
        self.gauges[id.0 as usize] = value;
    }

    /// Records one histogram observation (owner-side serial recording).
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.totals.observe(id, value);
    }

    /// Folds a shard's deltas into the registry and zeroes the shard.
    ///
    /// Call in a fixed order (the control plane uses ascending leaf
    /// index) — float histogram sums are accumulated in merge order, so
    /// a fixed order is what makes the merged registry bit-identical no
    /// matter how many worker threads recorded the shards.
    pub fn merge_shard(&mut self, shard: &mut Shard) {
        self.totals.merge(&mut shard.acc);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.totals.counters[id.0 as usize]
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize]
    }

    /// Borrowed view of a histogram's state.
    pub fn histogram(&self, id: HistogramId) -> HistogramView<'_> {
        let i = id.0 as usize;
        let totals = &self.totals;
        HistogramView {
            bounds: totals.layout.bounds(i),
            buckets: &totals.buckets[totals.layout.slots(i)],
            sum: totals.sums[i],
            count: totals.counts[i],
        }
    }

    /// Iterates `(name, help, value)` over all counters, in
    /// registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counter_defs
            .iter()
            .zip(&self.totals.counters)
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
        let totals = &self.totals;
        RegistryState {
            counters: totals.counters.clone(),
            gauges: self.gauges.clone(),
            hist_buckets: (0..totals.counts.len())
                .map(|i| totals.buckets[totals.layout.slots(i)].to_vec())
                .collect(),
            hist_sums: totals.sums.clone(),
            hist_counts: totals.counts.clone(),
        }
    }

    /// Restores metric values captured by [`Registry::state`] into a
    /// registry rebuilt with the same layout. Fails with
    /// [`SnapError::Corrupt`], before anything is installed, if an
    /// array length disagrees with the frozen layout, or if a
    /// histogram is not one observations could have produced: its
    /// buckets must sum (without overflow) to its count and its sum
    /// must be finite — anything else renders an exposition
    /// [`crate::parse_prometheus`] rejects.
    pub fn restore(&mut self, state: &RegistryState) -> Result<(), SnapError> {
        let totals = &mut self.totals;
        let hists = totals.counts.len();
        if state.counters.len() != totals.counters.len()
            || state.gauges.len() != self.gauges.len()
            || state.hist_sums.len() != hists
            || state.hist_counts.len() != hists
            || state.hist_buckets.len() != hists
        {
            return Err(SnapError::Corrupt(
                "registry state does not match the frozen metric layout".into(),
            ));
        }
        for (i, have) in state.hist_buckets.iter().enumerate() {
            let want = totals.layout.slots(i).len();
            if have.len() != want {
                return Err(SnapError::Corrupt(format!(
                    "histogram {i} bucket count mismatch: snapshot {}, layout {want}",
                    have.len()
                )));
            }
            let bucketed = have.iter().try_fold(0u64, |sum, &b| sum.checked_add(b));
            if bucketed != Some(state.hist_counts[i]) || !state.hist_sums[i].is_finite() {
                return Err(SnapError::Corrupt(format!(
                    "histogram {i} is inconsistent: buckets sum to {bucketed:?}, count {}, sum {}",
                    state.hist_counts[i], state.hist_sums[i]
                )));
            }
        }
        totals.counters.clone_from(&state.counters);
        self.gauges.clone_from(&state.gauges);
        for (i, have) in state.hist_buckets.iter().enumerate() {
            totals.buckets[totals.layout.slots(i)].copy_from_slice(have);
        }
        totals.sums.clone_from(&state.hist_sums);
        totals.counts.clone_from(&state.hist_counts);
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
        let counters = get_count_vec(r)?;
        let gauges = get_f64_vec(r)?;
        let hist_buckets = r.get_vec(get_count_vec)?;
        let hist_sums = get_f64_vec(r)?;
        let hist_counts = get_count_vec(r)?;
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

/// One hot-path writer's private recorder: an accumulator of metric
/// deltas plus buffers of [`SpanRecord`]s and [`FlightRecord`]s, all
/// handed to the owner after the writer's work (the merge, then the two
/// drains, in the same fixed order). Recording is plain array writes; a
/// disabled shard ignores every operation.
#[derive(Debug, Clone)]
pub struct Shard {
    acc: Accumulator,
    spans: Vec<SpanRecord>,
    flights: Vec<FlightRecord>,
}

impl Shard {
    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.acc.enabled
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.acc.add(id, 1);
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.acc.add(id, n);
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.acc.observe(id, value);
    }

    /// Records a run of observations of one histogram, in order —
    /// bit-identical to one [`Shard::observe`] per value, with the
    /// bounds and buckets resolved once. The control plane buffers a
    /// leaf cycle's RPC round trips and hands them over here.
    #[inline]
    pub fn observe_batch(&mut self, id: HistogramId, values: &[f64]) {
        self.acc.observe_batch(id, values);
    }

    /// Buffers a trace span (drained by the owner after the merge).
    #[inline]
    pub fn span(&mut self, record: SpanRecord) {
        if !self.acc.enabled {
            return;
        }
        self.spans.push(record);
    }

    /// Buffers a flight-recorder record (drained by the owner after
    /// the merge).
    #[inline]
    pub fn flight(&mut self, record: FlightRecord) {
        if !self.acc.enabled {
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

    /// Batches of every size a leaf cycle produces (one pull of up to
    /// 160 servers plus an actuation), of RTT-shaped values salted with
    /// every exact bucket bound and zero, against one `observe` per
    /// value: same buckets, same count, same sum bits.
    #[test]
    fn batch_observation_is_per_call_observation_bit_for_bit() {
        // Two histograms so the batched one sits at a nonzero offset in
        // the flat bucket array.
        let build = || {
            let mut b = RegistryBuilder::new();
            let _ = b.histogram("first", "first", Buckets::explicit(&[0.5, 5.0]));
            let h = b.histogram("rtt_seconds", "rtt", Buckets::log_linear(0.001, 2, 8));
            (b.build(true), h)
        };
        let bounds = Buckets::log_linear(0.001, 2, 8);
        let mut rng = dcsim::SimRng::seed_from(20);
        let (mut per_call_reg, h1) = build();
        let (mut batched_reg, h2) = build();
        let (mut per_call, mut batched) = (per_call_reg.shard(), batched_reg.shard());
        let mut total = 0u64;
        for n in 1..=161 {
            let values: Vec<f64> = (0..n)
                .map(|k| match rng.next_below(8) {
                    0 => bounds.bounds()[(n + k) % bounds.bounds().len()],
                    1 => 0.0,
                    2 => 1.0, // past the top bound
                    _ => rng.exponential(250.0),
                })
                .collect();
            for &v in &values {
                per_call.observe(h1, v);
            }
            batched.observe_batch(h2, &values);
            total += n as u64;
            // Merge on some rounds only, so batches also land on a
            // nonzero running sum.
            if n % 3 == 0 {
                per_call_reg.merge_shard(&mut per_call);
                batched_reg.merge_shard(&mut batched);
            }
        }
        per_call_reg.merge_shard(&mut per_call);
        batched_reg.merge_shard(&mut batched);
        let (a, b) = (per_call_reg.histogram(h1), batched_reg.histogram(h2));
        assert_eq!(a.buckets, b.buckets);
        assert_eq!((a.count, b.count), (total, total));
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
        assert!(a.buckets.iter().all(|&c| c > 0), "every bucket was hit");
    }

    #[test]
    fn restore_round_trips_and_rejects_another_layout() {
        let (mut r, c, g, h) = small();
        r.add(c, 3);
        r.set_gauge(g, -1.5);
        r.observe(h, 0.5);
        r.observe(h, 7.0);
        let state = r.state();
        assert_eq!(state.hist_buckets, vec![vec![0, 1, 1]]);
        let (mut twin, ..) = small();
        twin.restore(&state).unwrap();
        assert_eq!(twin.state(), state);

        let mut b = RegistryBuilder::new();
        b.counter("calls_total", "calls");
        b.gauge("power_watts", "power");
        b.histogram("latency_seconds", "latency", Buckets::explicit(&[0.1]));
        let err = b.build(true).restore(&state).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err}");
    }

    /// A histogram no sequence of observations produces restores as a
    /// typed error, not as an exposition `parse_prometheus` rejects or
    /// a render that overflows its cumulative count.
    #[test]
    fn restore_rejects_an_inconsistent_histogram() {
        let (mut r, _, _, h) = small();
        r.observe(h, 0.5);
        let good = r.state();
        let forge = |edit: &dyn Fn(&mut RegistryState)| {
            let mut state = good.clone();
            edit(&mut state);
            let (mut victim, ..) = small();
            let result = victim.restore(&state);
            if result.is_err() {
                assert_eq!(victim.state(), small().0.state(), "nothing was installed");
            }
            result
        };
        for (what, result) in [
            ("count", forge(&|s| s.hist_buckets[0] = vec![3, 4, 1])),
            (
                "overflow",
                forge(&|s| s.hist_buckets[0] = vec![u64::MAX, 2, 0]),
            ),
            ("sum", forge(&|s| s.hist_sums[0] = f64::NAN)),
        ] {
            assert!(matches!(result, Err(SnapError::Corrupt(_))), "{what}");
        }
        assert!(forge(&|_| ()).is_ok());
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
