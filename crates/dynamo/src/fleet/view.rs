//! The control plane's window onto the fleet's columns: borrowed
//! views through which a leaf controller's RPCs read and write the
//! single store in place (see the state-ownership notes in
//! [`crate::fleet`]).

use std::ops::Range;
use std::sync::Arc;

use dcsim::SimRng;
use dynamo_agent::Host;
use dynrpc::{AgentEndpoint, Request, Response};
use powerinfra::Power;
use serverpower::ServerModel;

use super::{get_bit, Fleet};
use crate::shard::front_mut;

impl Fleet {
    /// Borrows the columns the control plane's RPCs read and write. No
    /// cached power sum can go stale through them: the RPC path only
    /// programs RAPL limits, which change drawn power at the next
    /// physics step, never immediately.
    pub(crate) fn agent_columns(&mut self) -> AgentColumns<'_> {
        AgentColumns {
            inv: &self.inv,
            out_w: &self.out_w,
            alive_bits: &self.alive_bits,
            mask_base: &self.mask_base,
            leaf_spans: &self.leaf_spans,
            running_bits: &self.running_bits,
            models: &self.models,
            model_ix: &self.model_ix,
            limit_w: &mut self.limit_w,
            agent_rng: &mut self.agent_rng,
            base: 0,
        }
    }
}

/// The columns the control plane's RPCs read and write, borrowed from
/// the fleet for one dispatch ([`Fleet::agent_columns`]). The read-only
/// columns are shared by every shard; the two the RPC path writes — the
/// RAPL limits and the agents' sensor-noise streams — are carved at
/// leaf boundaries (leaf-local grouping makes a whole leaf's position
/// range equal its id range) so each shard owns its servers' entries.
pub(crate) struct AgentColumns<'a> {
    inv: &'a [u32],
    out_w: &'a [f64],
    alive_bits: &'a [u64],
    mask_base: &'a [(usize, usize)],
    leaf_spans: &'a [Range<usize>],
    running_bits: &'a [u64],
    models: &'a [Arc<ServerModel>],
    model_ix: &'a [u32],
    limit_w: &'a mut [f64],
    agent_rng: &'a mut [SimRng],
    /// Server id (and position) of element 0 of the two carved columns.
    base: usize,
}

impl<'a> AgentColumns<'a> {
    /// Carves the whole leaves covering `servers` off the front: one
    /// shard's private columns. Shards are carved in ascending order.
    pub(crate) fn carve(&mut self, servers: Range<usize>) -> AgentColumns<'a> {
        let skip = servers.start - self.base;
        front_mut(&mut self.limit_w, skip);
        front_mut(&mut self.agent_rng, skip);
        let shard = AgentColumns {
            limit_w: front_mut(&mut self.limit_w, servers.len()),
            agent_rng: front_mut(&mut self.agent_rng, servers.len()),
            base: servers.start,
            ..*self
        };
        self.base = servers.end;
        shard
    }

    /// The agents of leaf `leaf`, which must lie within these columns.
    /// Every slice is cut to the leaf here — its mask words from the
    /// leaf's own region base — so serving an RPC is plain indexing.
    pub(crate) fn leaf(&mut self, leaf: usize) -> LeafAgents<'_> {
        let span = self.leaf_spans[leaf].clone();
        let local = span.start - self.base..span.end - self.base;
        LeafAgents {
            first: span.start,
            inv: &self.inv[span.clone()],
            out_w: &self.out_w[span.clone()],
            alive_bits: &self.alive_bits[self.mask_base[leaf].0..self.mask_base[leaf + 1].0],
            running_bits: self.running_bits,
            models: self.models,
            model_ix: &self.model_ix[span],
            limit_w: &mut self.limit_w[local.clone()],
            agent_rng: &mut self.agent_rng[local],
            changed: false,
            delta: 0,
        }
    }
}

/// One leaf's agents as a view over the fleet's columns: what the
/// leaf's controller talks to for one cycle. All slices are local to
/// the leaf (element 0 is server id / position `first`).
pub(crate) struct LeafAgents<'a> {
    first: usize,
    inv: &'a [u32],
    out_w: &'a [f64],
    alive_bits: &'a [u64],
    /// Fleet-wide, indexed by server id.
    running_bits: &'a [u64],
    models: &'a [Arc<ServerModel>],
    model_ix: &'a [u32],
    limit_w: &'a mut [f64],
    agent_rng: &'a mut [SimRng],
    /// Whether any RPC so far changed a limit's bits.
    changed: bool,
    /// Signed change in the number of capped servers so far.
    delta: i64,
}

impl<'a> LeafAgents<'a> {
    /// The agent of server `sid` (which must be under this leaf).
    pub(crate) fn agent(&mut self, sid: u32) -> AgentView<'_, 'a> {
        let id = sid as usize - self.first;
        let pos = self.inv[id] as usize - self.first;
        AgentView {
            leaf: self,
            id,
            pos,
        }
    }

    /// The leaf's server ids, ascending.
    pub(crate) fn server_ids(&self) -> Range<u32> {
        self.first as u32..(self.first + self.inv.len()) as u32
    }

    /// Whether server `sid`'s agent process is up.
    #[inline]
    pub(crate) fn is_running(&self, sid: u32) -> bool {
        get_bit(self.running_bits, sid as usize)
    }

    /// What a delivered `ReadPower` to server `sid` reads: its settled
    /// output (zero while the host is dead) through its own model's
    /// [`ServerModel::read_power`] on its own noise stream — the total
    /// the [`Host`] handler would put on the wire, without building
    /// the response around it. The caller has already established that
    /// the agent is running and the call was delivered.
    #[inline]
    pub(crate) fn read_power(&mut self, sid: u32) -> Power {
        let id = sid as usize - self.first;
        let (alive, drawn) = self.host_power(self.inv[id] as usize - self.first);
        self.models[self.model_ix[id] as usize].read_power(drawn, alive, &mut self.agent_rng[id])
    }

    /// Whether the host at leaf-local position `pos` is powered, and
    /// what it draws right now (zero while dead).
    #[inline]
    fn host_power(&self, pos: usize) -> (bool, Power) {
        let alive = get_bit(self.alive_bits, pos);
        (
            alive,
            Power::from_watts(if alive { self.out_w[pos] } else { 0.0 }),
        )
    }

    /// Ends the cycle: whether any limit changed bits (→ the leaf
    /// unsettles) and the signed capped-server delta, for
    /// [`Fleet::finish_fused_control`] to apply after the join — the
    /// shared flags and tally stay off the worker threads.
    pub(crate) fn finish(self) -> (bool, i64) {
        (self.changed, self.delta)
    }
}

/// One server's agent, served straight from the columns: the
/// [`AgentEndpoint`] a leaf controller's RPCs land on.
pub(crate) struct AgentView<'l, 'a> {
    leaf: &'l mut LeafAgents<'a>,
    /// Leaf-local server id and position.
    id: usize,
    pos: usize,
}

impl AgentEndpoint for AgentView<'_, '_> {
    fn handle(&mut self, req: Request) -> Response {
        let (leaf, pos) = (&mut *self.leaf, self.pos);
        let running = leaf.is_running((leaf.first + self.id) as u32);
        let (alive, drawn) = leaf.host_power(pos);
        let old = leaf.limit_w[pos];
        let mut host = Host {
            model: &leaf.models[leaf.model_ix[self.id] as usize],
            rng: &mut leaf.agent_rng[self.id],
            running,
            alive,
            drawn,
            limit: old.is_finite().then(|| Power::from_watts(old)),
        };
        let resp = host.handle(req);
        let new = host.limit.map_or(f64::INFINITY, Power::as_watts);
        if new.to_bits() != old.to_bits() {
            leaf.limit_w[pos] = new;
            leaf.changed = true;
            if new.is_finite() != old.is_finite() {
                leaf.delta += if new.is_finite() { 1 } else { -1 };
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::{SimDuration, SimTime};
    use serverpower::{ServerConfig, ServerGeneration};
    use workloads::ServiceKind;

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
