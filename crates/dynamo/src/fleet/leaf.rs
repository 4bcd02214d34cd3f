//! One leaf of the fleet: the servers behind one leaf controller, as
//! columns it owns — their layout, their physics step, and the view
//! through which the leaf's controller reads and caps them.
//!
//! A leaf's span is fixed when the fleet is built ([`start`] writes its
//! columns once) and nothing moves a server to another leaf. Every
//! index in here is leaf-local: server `first + id` is the leaf's
//! server `id`, stored at position `inv[id]`. Only [`Fleet`]'s by-`sid`
//! accessors translate.
//!
//! [`Fleet`]: super::Fleet

use std::ops::Range;
use std::sync::Arc;

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_agent::Host;
use dynrpc::{AgentEndpoint, Request, Response};
use powerinfra::Power;
use serverpower::{kernel, PowerLut, ServerConfig, ServerModel};
use workloads::kernel::{draw_batch, DrawStep};
use workloads::{OuCoeffs, ServiceKind};

/// Step tile size in servers: each tile's demand draw and settle kernel
/// run back-to-back while the tile's slices are cache-hot, instead of
/// two leaf-wide array passes. A tile spans ~5 hot `f64` arrays × 8 B ×
/// 2048 ≈ 80 KiB — comfortably L2-resident — and must stay a multiple
/// of 64 so every tile covers whole mask words (and of the kernel lane
/// width, which divides 64). A leaf no larger than a tile (the
/// 160-server RPP) is one tile, so the refold of its partial still
/// finds it resident.
const FUSE_TILE: usize = 2048;

/// The most servers a leaf holds, and the most distinct server models a
/// fleet holds: a leaf's positions, ids and model indices are `u16`.
pub(super) const MAX_LEAF_SERVERS: usize = 1 << 16;

/// One maximal contiguous position range of a leaf's servers sharing a
/// generation, service, and turbo setting. All batch-loop constants of
/// the demand computation are hoisted here once at layout time.
struct Run {
    /// Position range this run covers.
    range: Range<usize>,
    /// The generation's shared power LUT.
    lut: Arc<PowerLut>,
    /// Idle watts of the generation (LUT node 0).
    idle_w: f64,
    /// Turbo power factor; meaningful only when `turbo` is true.
    turbo_pf: f64,
    /// Whether turbo is enabled for this run. A per-run branch, hoisted
    /// out of the element loop: routing non-turbo servers through the
    /// turbo expression with factor 1.0 would not be a float identity.
    turbo: bool,
    /// [`ServiceKind::index`] — the traffic-multiplier /
    /// OU-coefficient index for the whole run.
    svc: u8,
}

impl Run {
    /// Demanded watts at utilization `util`, this run's positions: the
    /// batched LUT evaluation, then on a turbo run the batched turbo
    /// premium — each bit-identical to its scalar form. At utilization
    /// 0 this is exactly the idle watts, turbo or not.
    fn demand(&self, util: &[f64], demand_w: &mut [f64]) {
        self.lut.power_batch_w(util, demand_w);
        if self.turbo {
            kernel::turbo_demand_batch(demand_w, self.idle_w, self.turbo_pf);
        }
    }
}

/// Per-tick constants of the physics step, shared by every leaf.
pub(super) struct StepCtx {
    /// Per-service traffic multipliers at `now`.
    pub(super) mults: [f64; ServiceKind::COUNT],
    /// Per-service OU coefficients for a single-tick step.
    pub(super) ou: [OuCoeffs; ServiceKind::COUNT],
    /// Settle coefficient for a single-tick step.
    pub(super) alpha: f64,
    pub(super) now: SimTime,
    pub(super) dt: SimDuration,
    /// Tick index of this step; with `hold`, drives the leaf-phased
    /// redraw schedule (a pure function of `(tick, leaf index, hold)`,
    /// so the schedule is identical at any worker count).
    pub(super) tick: u64,
    /// Demand redraw period in ticks (1 = redraw every tick).
    pub(super) hold: u64,
}

/// The servers of one leaf as parallel columns, with the leaf's own
/// aggregates and versions. The per-server workload and physics state
/// is in *position* order — a stable sort of the leaf's servers by
/// `(generation, service, turbo)`, so the demand loop walks [`Run`]s
/// with no per-element branching; what the outside world reads per
/// server (the agent's streams and flags) is in id order. Drawn watts
/// are not stored: [`LeafColumns::drawn_w`] derives them. Each workload
/// process owns a private RNG stream, so the storage order is
/// unobservable.
#[derive(Default)]
pub(crate) struct LeafColumns {
    /// This leaf's index in the fleet: its phase of the demand-redraw
    /// schedule.
    pub(super) index: usize,
    /// Server id of the leaf's server 0.
    pub(super) first: usize,
    /// Position → id, and its inverse ([`MAX_LEAF_SERVERS`] bounds
    /// both).
    pub(super) perm: Vec<u16>,
    pub(super) inv: Vec<u16>,
    /// Maximal equal-key position ranges with hoisted loop constants.
    runs: Vec<Run>,
    /// Workload processes, position order: each one's private RNG
    /// stream, its mean-reverting noise, and its burst in flight as
    /// expiry + added utilization (`SimTime::ZERO` / `0.0` when none —
    /// the [`workloads::kernel`] encoding). The parameters are the
    /// service's calibrated ones, hoisted per [`Run`].
    pub(super) wl_rng: Vec<SimRng>,
    pub(super) wl_noise: Vec<f64>,
    pub(super) wl_burst_until: Vec<SimTime>,
    pub(super) wl_burst_add: Vec<f64>,
    /// Demand utilization at the last redraw, position order.
    pub(super) util: Vec<f64>,
    /// Demanded watts (incl. turbo premium), position order.
    pub(super) demand_w: Vec<f64>,
    /// RAPL limit in watts, position order (`f64::INFINITY` when
    /// uncapped, making `min` branchless).
    pub(super) limit_w: Vec<f64>,
    /// Settled RAPL output watts, position order.
    pub(super) out_w: Vec<f64>,
    /// Bit-packed first-step mask, bit `pos % 64` of word `pos / 64`
    /// (set = not yet live-stepped, forcing the exact first-step snap);
    /// tail bits zero.
    pub(super) not_init: Vec<u64>,
    /// Bit-packed liveness mask, same packing (set = alive).
    pub(super) alive: Vec<u64>,
    /// Id → index into the fleet's model table.
    pub(super) model_ix: Vec<u16>,
    /// Per-agent sensor-noise streams, id order.
    pub(super) agent_rng: Vec<SimRng>,
    /// Bit-packed agent-process-up mask, id order (set = running).
    pub(super) running: Vec<u64>,
    /// The ascending flat fold of every server's drawn watts, in id
    /// order, refolded by [`LeafColumns::refold`]: the bottom layer of
    /// the hierarchy's bottom-up aggregation (§III-C).
    pub(super) partial_w: f64,
    /// Set iff the leaf's last physics pass was a *fixed point*
    /// (changed no bit of `out_w` / `not_init`), so repeating it with
    /// unchanged inputs is the exact floating-point identity. Cleared
    /// at every limit / liveness write; a redraw steps the leaf
    /// regardless.
    pub(super) settled: bool,
    /// Tick of the last demand redraw; held redraws scale the workload
    /// step `dt` by the elapsed tick count.
    pub(super) last_draw_tick: u64,
    /// The leaf's version: bumped by every step that changed state
    /// bits, every demand redraw, every agent crash and watchdog
    /// restart and every liveness write — whatever a pull of the leaf
    /// or a fold of its watts could observe. See [`LeafColumns::epoch`].
    pub(super) epoch: u64,
    /// Servers with a RAPL limit programmed: moved at the moment a
    /// limit flips between finite and `+Inf`.
    pub(super) capped: usize,
}

/// Reads bit `i` of a packed mask.
#[inline]
pub(super) fn get_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets or clears bit `i` of a packed mask.
#[inline]
pub(super) fn put_bit(words: &mut [u64], i: usize, v: bool) {
    let bit = 1u64 << (i % 64);
    if v {
        words[i / 64] |= bit;
    } else {
        words[i / 64] &= !bit;
    }
}

/// The batching key: servers with equal keys share every hoisted
/// constant of the demand loop. Sorting a leaf by this key, ties in id
/// order, groups its servers into maximal runs.
fn run_key(config: &ServerConfig, service: ServiceKind) -> (u8, u8, u8, u64, u64) {
    let turbo = config.turbo;
    (
        config.generation.index() as u8,
        service.index() as u8,
        turbo.is_some() as u8,
        turbo.map_or(0, |t| t.power_factor.to_bits()),
        turbo.map_or(0, |t| t.perf_factor.to_bits()),
    )
}

impl LeafColumns {
    /// A leaf over `span` in id order with no columns yet: unsettled,
    /// epochs zero, last redrawn at tick 0.
    /// The span must hold at most [`MAX_LEAF_SERVERS`] servers.
    pub(super) fn blank(index: usize, span: Range<usize>) -> Self {
        let ids: Vec<u16> = (0..=u16::MAX).take(span.len()).collect();
        LeafColumns {
            index,
            first: span.start,
            inv: ids.clone(),
            perm: ids,
            ..Default::default()
        }
    }

    /// Number of servers.
    pub(super) fn len(&self) -> usize {
        self.perm.len()
    }

    /// The leaf's server ids.
    pub(crate) fn span(&self) -> Range<usize> {
        self.first..self.first + self.len()
    }

    /// The maintained power partial: the exact sum a flat ascending
    /// fold over the leaf's servers would compute.
    pub(crate) fn power(&self) -> Power {
        Power::from_watts(self.partial_w)
    }

    /// Flat ascending fold of drawn power over `servers` (fleet ids,
    /// all under this leaf), in watts.
    pub(crate) fn power_sum(&self, servers: Range<u32>) -> f64 {
        let local = servers.start as usize - self.first..servers.end as usize - self.first;
        local.map(|id| self.drawn_w(id)).sum()
    }

    /// What server `id` draws after its last physics step, in watts:
    /// its settled output while it is alive, `0.0` while it is dead —
    /// `out_w` times the liveness bit, `out_w` being finite and
    /// non-negative, and what a `ReadPower` reads.
    #[inline]
    pub(super) fn drawn_w(&self, id: usize) -> f64 {
        self.drawn_at(usize::from(self.inv[id]))
    }

    /// [`LeafColumns::drawn_w`] of the server at position `pos`: a
    /// select, which a gather runs faster than the multiply.
    #[inline]
    fn drawn_at(&self, pos: usize) -> f64 {
        if get_bit(&self.alive, pos) {
            self.out_w[pos]
        } else {
            0.0
        }
    }

    /// Every server's drawn watts, id order.
    pub(super) fn drawn(&self) -> impl Iterator<Item = f64> + '_ {
        self.inv.iter().map(|&pos| self.drawn_at(usize::from(pos)))
    }

    /// The leaf's version. Two reads of it that agree bracket no change
    /// a controller's pull could see — the control plane's witness for
    /// quiescent-cycle elision — and no change to any server's drawn
    /// watts, which keys a rack's memoized fold.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether server `id` is powered.
    pub(super) fn is_alive(&self, id: usize) -> bool {
        get_bit(&self.alive, self.inv[id] as usize)
    }

    /// Powers server `id` on or off, keeping the partial exact — a dead
    /// server reads zero watts immediately, a revived one its retained
    /// actuator output.
    pub(super) fn set_alive(&mut self, id: usize, alive: bool) {
        put_bit(&mut self.alive, self.inv[id] as usize, alive);
        self.refold();
        // A pull now reads differently, the liveness mask is a kernel
        // input, and drawn power changed right now.
        self.settled = false;
        self.epoch += 1;
    }

    /// Refolds the partial from the settled output and liveness: the
    /// servers' drawn watts gathered through `inv` and summed in id
    /// order over the whole leaf — the values and the order every fold
    /// of drawn power reads.
    fn refold(&mut self) {
        self.partial_w = self.drawn().sum();
    }

    /// Rebuilds what is a function of the leaf's state rather than
    /// state itself: every server's demand from its utilization, and
    /// the partial from output and liveness. A server never drawn for
    /// holds utilization 0, whose demand is its idle watts.
    pub(super) fn derive(&mut self) {
        for run in &self.runs {
            let r = run.range.clone();
            run.demand(&self.util[r.clone()], &mut self.demand_w[r]);
        }
        self.refold();
    }

    /// Sorts the leaf's positions by run key (equal keys keep id
    /// order) and scans them into runs, computing each server's key
    /// once. `services` is the leaf's, in id order; `model_ix` must
    /// already be in place.
    pub(super) fn lay_out(&mut self, models: &[Arc<ServerModel>], services: &[ServiceKind]) {
        let model = |id: u16| &models[usize::from(self.model_ix[usize::from(id)])];
        let keys: Vec<_> = (0..=u16::MAX)
            .take(self.len())
            .map(|id| run_key(model(id).config(), services[usize::from(id)]))
            .collect();
        let key = |id: u16| keys[usize::from(id)];
        let mut perm = std::mem::take(&mut self.perm);
        perm.sort_unstable_by_key(|&id| (key(id), id));
        let mut runs = Vec::new();
        let mut start = 0;
        for pos in 1..=perm.len() {
            if pos < perm.len() && key(perm[pos]) == key(perm[start]) {
                continue;
            }
            let id = perm[start];
            let lut = model(id).lut().clone();
            let turbo = model(id).config().turbo;
            runs.push(Run {
                range: start..pos,
                idle_w: lut.idle_w(),
                lut,
                turbo_pf: turbo.map_or(1.0, |t| t.power_factor),
                turbo: turbo.is_some(),
                svc: services[usize::from(id)].index() as u8,
            });
            start = pos;
        }
        for (pos, &id) in (0..=u16::MAX).zip(&perm) {
            self.inv[usize::from(id)] = pos;
        }
        self.perm = perm;
        self.runs = runs;
    }

    /// Draws fresh demand for positions `a..b`: per run, one
    /// [`draw_batch`] over the workload columns with everything uniform
    /// across the run — the service's parameters, the traffic target,
    /// the burst probability, the OU coefficients — hoisted into one
    /// [`DrawStep`], then [`Run::demand`]: the vector passes feeding
    /// the settle kernel.
    ///
    /// `elapsed` is the tick count since the leaf's last redraw; held
    /// redraws integrate the skipped interval by scaling the workload
    /// step to `dt * elapsed` (OU coefficients recomputed for the
    /// longer step). `elapsed == 1` reuses the hoisted per-tick
    /// coefficients and is bit-identical to the always-redraw pass.
    fn demand_pass(&mut self, ctx: &StepCtx, a: usize, b: usize, elapsed: u64) {
        let dt_eff = ctx.dt * elapsed;
        let first = self.runs.partition_point(|r| r.range.end <= a);
        for run in &self.runs[first..] {
            if run.range.start >= b {
                break;
            }
            let (ra, rb) = (run.range.start.max(a), run.range.end.min(b));
            let k = run.svc as usize;
            // The fleet only builds processes with their service's
            // calibrated parameters (restore rejects anything else), so
            // one `params()` per run stands for every element's.
            let params = ServiceKind::all()[k].params();
            let oc = if elapsed == 1 {
                ctx.ou[k]
            } else {
                OuCoeffs::for_params(&params, dt_eff)
            };
            let step = DrawStep::new(&params, ctx.now, ctx.mults[k], dt_eff, oc);
            draw_batch(
                &step,
                &mut self.wl_rng[ra..rb],
                &mut self.wl_noise[ra..rb],
                &mut self.wl_burst_until[ra..rb],
                &mut self.wl_burst_add[ra..rb],
                &mut self.util[ra..rb],
            );
            run.demand(&self.util[ra..rb], &mut self.demand_w[ra..rb]);
        }
    }

    /// Advances the leaf by one tick, the active-set hot path:
    ///
    /// 1. **Skip check** — a leaf that is settled (its last pass was a
    ///    fixed point) and not due for a redraw is skipped outright: its
    ///    next pass is provably the exact floating-point identity, so
    ///    its columns and partial already hold the step's result.
    /// 2. **Tiles** — the leaf is walked in [`FUSE_TILE`]-sized,
    ///    word-aligned tiles; per tile the demand redraw (when due under
    ///    the leaf-phased hold schedule, with the elapsed interval
    ///    folded into `dt`) and the packed-mask settle kernel run
    ///    back-to-back while the tile is cache-hot. Tiling is
    ///    unobservable: every pass is elementwise.
    /// 3. **Refold** — the partial is rebuilt from the new output
    ///    ([`LeafColumns::refold`]), `settled` becomes
    ///    the AND of the tiles' fixed-point reports, and the epoch is
    ///    bumped by a redraw and by any tile that changed state bits.
    pub(super) fn step(&mut self, ctx: &StepCtx) {
        let due = ctx.hold <= 1 || ctx.tick % ctx.hold == self.index as u64 % ctx.hold;
        if self.settled && !due {
            return;
        }
        let elapsed = if due {
            let e = (ctx.tick - self.last_draw_tick).max(1);
            self.last_draw_tick = ctx.tick;
            self.epoch += 1;
            e
        } else {
            0
        };
        let n = self.len();
        let mut fixed = true;
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + FUSE_TILE).min(n);
            if due {
                self.demand_pass(ctx, t0, t1, elapsed);
            }
            let words = t0 / 64..t1.div_ceil(64);
            fixed &= kernel::step_batch_settled_bits(
                &self.demand_w[t0..t1],
                &self.limit_w[t0..t1],
                &self.alive[words.clone()],
                &mut self.not_init[words],
                &mut self.out_w[t0..t1],
                ctx.alpha,
            );
            t0 = t1;
        }
        self.refold();
        self.settled = fixed;
        if !fixed {
            self.epoch += 1;
        }
    }

    /// Bytes one worst-case step of this leaf moves through DRAM — see
    /// [`super::TickTraffic`]. Every term is the live length of a
    /// column the step streams.
    pub(super) fn step_bytes(&self) -> u64 {
        const F64: usize = 8;
        // The settle stride: demand/limit gathered, out/util read and
        // rewritten, the packed masks and the settled flag tested, the
        // partial gathered in id order through `inv` (the tile is still
        // resident) and written once.
        let bytes = (self.demand_w.len() + self.limit_w.len()) * F64
            + (self.out_w.len() + self.util.len()) * 2 * F64
            + self.inv.len() * size_of::<u16>()
            + (self.not_init.len() + self.alive.len()) * size_of::<u64>()
            + size_of::<bool>()
            + F64;
        bytes as u64
    }
}

/// Gives laid-out `leaves` the columns a fresh fleet starts with: every
/// agent running, every server alive and awaiting its first step, no
/// noise, no burst, no limit, zero utilization and output, and what
/// those determine ([`LeafColumns::derive`]: idle demand, a zero
/// partial); each workload stream is split from `wl_streams` in id order
/// and stored at its server's position. One column at a time across
/// all the leaves, so a column's leaves sit end to end in memory: the
/// step then reads each column as one long stream, which the hardware
/// prefetcher follows far better than a leaf's dozen short ones (a site
/// step ran ~10% slower with each leaf's columns side by side).
pub(super) fn start(leaves: &mut [LeafColumns], wl_streams: &mut SimRng) {
    for leaf in leaves.iter_mut() {
        // Every slot is overwritten: the splits run in id order and each
        // lands at its server's position.
        let mut wl_rng = vec![wl_streams.clone(); leaf.len()];
        for (id, sid) in leaf.span().enumerate() {
            wl_rng[leaf.inv[id] as usize] = wl_streams.split_index(sid as u64);
        }
        leaf.wl_rng = wl_rng;
    }
    let no_burst = workloads::kernel::burst_to_columns(None);
    fill(leaves, |l| &mut l.wl_noise, |_, _| 0.0);
    fill(leaves, |l| &mut l.wl_burst_until, |_, _| no_burst.0);
    fill(leaves, |l| &mut l.wl_burst_add, |_, _| no_burst.1);
    fill(leaves, |l| &mut l.util, |_, _| 0.0);
    fill(leaves, |l| &mut l.demand_w, |_, _| 0.0);
    fill(leaves, |l| &mut l.limit_w, |_, _| f64::INFINITY);
    fill(leaves, |l| &mut l.out_w, |_, _| 0.0);
    for leaf in leaves {
        // Every bit of the span set, tail bits zero.
        let n = leaf.len();
        let mask: Vec<u64> = (0..n.div_ceil(64))
            .map(|w| match n - 64 * w {
                left if left >= 64 => u64::MAX,
                left => (1 << left) - 1,
            })
            .collect();
        leaf.not_init = mask.clone();
        leaf.alive = mask.clone();
        leaf.running = mask;
        leaf.derive();
    }
}

/// Sets column `col` of each leaf, in leaf order, to `value(leaf, i)`
/// for its positions (or ids) `i`.
fn fill<T>(
    leaves: &mut [LeafColumns],
    col: impl Fn(&mut LeafColumns) -> &mut Vec<T>,
    value: impl Fn(&LeafColumns, usize) -> T,
) {
    for leaf in leaves {
        let column = (0..leaf.len()).map(|i| value(leaf, i)).collect();
        *col(leaf) = column;
    }
}

/// One leaf's agents: what the leaf's controller talks to for one
/// cycle — the leaf's own columns plus the fleet's shared model table.
/// An RPC reads and writes the columns in place, so nothing is copied
/// in before a cycle or noted for after it: a cap write unsettles the
/// leaf and moves its capped tally at the moment of the write. No
/// power sum can go stale through it — a limit changes drawn power at
/// the next physics step, which bumps the epoch itself if anything
/// moves.
pub(crate) struct LeafAgents<'a> {
    leaf: &'a mut LeafColumns,
    models: &'a [Arc<ServerModel>],
}

impl<'a> LeafAgents<'a> {
    /// The agents of `leaf`, whose `model_ix` indexes `models`.
    pub(crate) fn new(leaf: &'a mut LeafColumns, models: &'a [Arc<ServerModel>]) -> Self {
        LeafAgents { leaf, models }
    }

    /// The agent of server `sid` (which must be under this leaf).
    pub(crate) fn agent(&mut self, sid: u32) -> AgentView<'_, 'a> {
        let id = sid as usize - self.leaf.first;
        AgentView { agents: self, id }
    }

    /// The leaf's server ids, ascending.
    pub(crate) fn server_ids(&self) -> Range<u32> {
        let span = self.leaf.span();
        span.start as u32..span.end as u32
    }

    /// Whether server `sid`'s agent process is up.
    #[inline]
    pub(crate) fn is_running(&self, sid: u32) -> bool {
        get_bit(&self.leaf.running, sid as usize - self.leaf.first)
    }

    /// See [`LeafColumns::epoch`].
    pub(crate) fn epoch(&self) -> u64 {
        self.leaf.epoch
    }

    /// What a delivered `ReadPower` to server `sid` reads: its settled
    /// output (zero while the host is dead) through its own model's
    /// [`ServerModel::read_power`] on its own noise stream — the total
    /// the [`Host`] handler would put on the wire, without building
    /// the response around it. The caller has already established that
    /// the agent is running and the call was delivered.
    #[inline]
    pub(crate) fn read_power(&mut self, sid: u32) -> Power {
        let id = sid as usize - self.leaf.first;
        let (alive, drawn) = self.host_power(id);
        let model = &self.models[self.leaf.model_ix[id] as usize];
        model.read_power(drawn, alive, &mut self.leaf.agent_rng[id])
    }

    /// Whether server `id`'s host is powered, and what it draws right
    /// now (zero while dead).
    #[inline]
    fn host_power(&self, id: usize) -> (bool, Power) {
        let pos = self.leaf.inv[id] as usize;
        let alive = get_bit(&self.leaf.alive, pos);
        let drawn = if alive { self.leaf.out_w[pos] } else { 0.0 };
        (alive, Power::from_watts(drawn))
    }
}

/// One server's agent, served straight from the columns: the
/// [`AgentEndpoint`] a leaf controller's RPCs land on.
pub(crate) struct AgentView<'l, 'a> {
    agents: &'l mut LeafAgents<'a>,
    id: usize,
}

impl AgentEndpoint for AgentView<'_, '_> {
    fn handle(&mut self, req: Request) -> Response {
        let id = self.id;
        let (alive, drawn) = self.agents.host_power(id);
        let LeafAgents { leaf, models } = &mut *self.agents;
        let pos = leaf.inv[id] as usize;
        let old = leaf.limit_w[pos];
        let mut host = Host {
            model: &models[leaf.model_ix[id] as usize],
            rng: &mut leaf.agent_rng[id],
            running: get_bit(&leaf.running, id),
            alive,
            drawn,
            limit: old.is_finite().then(|| Power::from_watts(old)),
        };
        let resp = host.handle(req);
        let new = host.limit.map_or(f64::INFINITY, Power::as_watts);
        if new.to_bits() != old.to_bits() {
            leaf.limit_w[pos] = new;
            // The settle target moved: the next pass is no longer known
            // to be the identity.
            leaf.settled = false;
            match (old.is_finite(), new.is_finite()) {
                (false, true) => leaf.capped += 1,
                (true, false) => leaf.capped -= 1,
                _ => {}
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::super::Fleet;
    use super::*;
    use serverpower::ServerGeneration;

    /// The view and the standalone [`Agent`] run the same handler; given
    /// the same host state and noise stream they must answer the same
    /// bits — sensored, estimated and turbo, alive and dead, capped and
    /// not.
    #[test]
    fn view_answers_bit_for_bit_like_a_standalone_agent() {
        use dynamo_agent::Agent;
        use serverpower::Server;

        let base = ServerConfig::new(ServerGeneration::Haswell2015);
        let configs = vec![
            base.clone(),
            base.clone().without_sensor().with_estimator_bias(0.07),
            base.clone().with_turbo(),
            ServerConfig::new(ServerGeneration::Westmere2011).with_sensor_noise(0.03),
        ];
        let n = configs.len();
        let mut fleet = Fleet::new(
            configs.clone(),
            vec![ServiceKind::Web; n],
            SimRng::seed_from(23),
            std::slice::from_ref(&(0..n)),
        );
        // The standalone twins get the fleet's own per-agent streams.
        let mut streams = SimRng::seed_from(23).split("agents");
        let mut twins: Vec<_> = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| Agent::new(Server::new(i as u32, c), streams.split_index(i as u64)))
            .collect();

        let dt = SimDuration::from_secs(1);
        let mut t = SimTime::ZERO;
        let mut reads = 0;
        for round in 0..40u32 {
            fleet.step(t, dt);
            t += dt;
            for (i, twin) in twins.iter_mut().enumerate() {
                let sid = i as u32;
                // Mirror the fleet's physics into the scalar model.
                twin.server_mut().set_demand(fleet.utilization_of(sid));
                twin.server_mut().step(dt);
                assert_eq!(
                    twin.server().power().as_watts().to_bits(),
                    fleet.power_of(sid).as_watts().to_bits(),
                    "server {sid} physics diverged at round {round}"
                );
                let req = match round {
                    10 => Request::SetCap(fleet.power_of(sid) - Power::from_watts(25.0)),
                    30 => Request::ClearCap,
                    _ => Request::ReadPower,
                };
                let (ours, theirs) = (fleet.agent_rpc(sid, req), twin.handle(req));
                assert_eq!(ours, theirs, "server {sid} round {round} {req:?}");
                if let (Response::Power(a), Response::Power(b)) = (ours, theirs) {
                    assert_eq!(a.total.as_watts().to_bits(), b.total.as_watts().to_bits());
                    reads += 1;
                }
            }
            if round == 20 {
                for (i, twin) in twins.iter_mut().enumerate() {
                    fleet.set_server_alive(i as u32, false);
                    twin.server_mut().set_alive(false);
                }
            }
            if round == 25 {
                for (i, twin) in twins.iter_mut().enumerate() {
                    fleet.set_server_alive(i as u32, true);
                    twin.server_mut().set_alive(true);
                }
            }
        }
        assert!(reads > 100, "vacuous: {reads} reads compared");
    }
}
