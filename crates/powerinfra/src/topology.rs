//! The power delivery device tree.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::breaker::{Breaker, TripCurve};
use crate::device::{Device, DeviceId, DeviceLevel};
use crate::units::Power;

/// The full power delivery hierarchy of (part of) a datacenter:
/// MSBs → SBs → RPPs → racks, with servers hanging off racks. Every
/// device feeds one contiguous block of server ids, its
/// [`Device::servers`], which its children's blocks tile in child order
/// and the roots' blocks tile from server 0.
///
/// Built with [`TopologyBuilder`]; immutable in shape afterwards (breaker
/// state is the only mutable part, via [`Topology::device_mut`]).
///
/// # Example
///
/// ```
/// use powerinfra::{DeviceLevel, TopologyBuilder};
///
/// let topo = TopologyBuilder::new().sbs_per_msb(2).build();
/// let sbs = topo.devices_at(DeviceLevel::Sb);
/// assert_eq!(sbs.len(), 2);
/// for sb in sbs {
///     assert_eq!(topo.device(sb).parent, Some(topo.root()));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    devices: Vec<Device>,
    roots: Vec<DeviceId>,
}

impl Topology {
    /// The device record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Mutable access to a device (breaker stepping, quota adjustments).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.index()]
    }

    /// All root devices (the MSBs).
    pub fn roots(&self) -> &[DeviceId] {
        &self.roots
    }

    /// The single root device.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than one root; use
    /// [`Topology::roots`] for multi-MSB datacenters.
    pub fn root(&self) -> DeviceId {
        assert_eq!(
            self.roots.len(),
            1,
            "topology has {} roots; use roots()",
            self.roots.len()
        );
        self.roots[0]
    }

    /// Iterates over every device in the hierarchy in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// All devices at a given level, in id order.
    pub fn devices_at(&self, level: DeviceLevel) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.level == level)
            .map(|d| d.id)
            .collect()
    }

    /// Number of devices in the tree.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of servers in the whole topology.
    pub fn server_count(&self) -> usize {
        self.roots
            .last()
            .map_or(0, |&r| self.device(r).servers.end as usize)
    }

    /// The rack a server is mounted in: the device whose range holds it
    /// at each level, from its root down.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn rack_of(&self, server: u32) -> DeviceId {
        let holder =
            |ids: &[DeviceId]| ids[ids.partition_point(|&d| self.device(d).servers.end <= server)];
        let mut id = holder(&self.roots);
        while !self.device(id).children.is_empty() {
            id = holder(&self.device(id).children);
        }
        id
    }

    /// All servers fed (transitively) by `id`: one contiguous ascending
    /// id range.
    pub fn servers_under(&self, id: DeviceId) -> Range<u32> {
        self.device(id).servers.clone()
    }

    /// The chain of devices from `id` up to (and including) its root.
    pub fn ancestors(&self, id: DeviceId) -> Vec<DeviceId> {
        let mut out = Vec::new();
        let mut cur = self.device(id).parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.device(p).parent;
        }
        out
    }

    /// Oversubscription ratio at `id`: sum of child ratings over own
    /// rating. Values above 1.0 mean the device is oversubscribed, as in
    /// Figure 2 (an MSB supplies 2.5 MW to SBs rated 4 × 1.25 MW = 2×).
    pub fn oversubscription(&self, id: DeviceId) -> f64 {
        let dev = self.device(id);
        let child_sum: Power = if dev.children.is_empty() {
            return 1.0;
        } else {
            dev.children.iter().map(|&c| self.device(c).rating).sum()
        };
        child_sum.ratio_of(dev.rating)
    }

    /// Renders the subtree under `root` as an indented text tree with
    /// ratings and quotas, eliding repeated siblings the way the
    /// paper's Figure 2 does ("#1 ... #N"). Used by the diagram
    /// reproduction and handy for debugging topologies.
    pub fn render_tree(&self, root: DeviceId) -> String {
        let mut out = String::new();
        self.render_node(root, 0, &mut out);
        out
    }

    fn render_node(&self, id: DeviceId, depth: usize, out: &mut String) {
        let device = self.device(id);
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} [{}]  rating {}  quota {}{}\n",
            device.level.label(),
            device.name,
            device.rating,
            device.quota,
            if device.level == DeviceLevel::Rack {
                format!("  ({} servers + DCUPS)", device.servers.len())
            } else {
                String::new()
            },
        ));
        if let Some(&first) = device.children.first() {
            self.render_node(first, depth + 1, out);
            if device.children.len() > 1 {
                out.push_str(&format!(
                    "{indent}  ... {} more {}s\n",
                    device.children.len() - 1,
                    self.device(first).level.label()
                ));
            }
        }
    }

    /// Checks structural invariants; returns a list of violations
    /// (empty when healthy). Used by property tests and by
    /// [`TopologyBuilder::build`] in debug builds.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Err(gap) = self.tile_end(0, &self.roots) {
            problems.push(format!("roots do not tile the servers: {gap}"));
        }
        for dev in &self.devices {
            if dev.rating.as_watts() <= 0.0 {
                problems.push(format!("{}: non-positive rating {}", dev.name, dev.rating));
            }
            if dev.quota > dev.rating {
                problems.push(format!(
                    "{}: quota {} exceeds rating {}",
                    dev.name, dev.quota, dev.rating
                ));
            }
            for &c in &dev.children {
                if self.device(c).parent != Some(dev.id) {
                    problems.push(format!(
                        "{}: child {} disowns it",
                        dev.name,
                        self.device(c).name
                    ));
                }
            }
            if let Some(p) = dev.parent {
                if !self.device(p).children.contains(&dev.id) {
                    problems.push(format!("{}: parent does not list it", dev.name));
                }
            } else if !self.roots.contains(&dev.id) {
                problems.push(format!(
                    "{}: orphan device (no parent, not a root)",
                    dev.name
                ));
            }
            if dev.servers.is_empty() {
                problems.push(format!("{}: feeds no servers", dev.name));
            }
            if dev.children.is_empty() {
                continue;
            }
            match self.tile_end(dev.servers.start, &dev.children) {
                Ok(end) if end == dev.servers.end => {}
                Ok(end) => problems.push(format!(
                    "{}: its children's servers end at {end}, not {}",
                    dev.name, dev.servers.end
                )),
                Err(gap) => problems.push(format!(
                    "{}: its children do not tile its servers: {gap}",
                    dev.name
                )),
            }
        }
        problems
    }

    /// Where the server ranges of `ids`, laid end to end in order from
    /// `start`, end; or the first one that leaves a gap or overlaps.
    fn tile_end(&self, start: u32, ids: &[DeviceId]) -> Result<u32, String> {
        ids.iter().try_fold(start, |next, &id| {
            let dev = self.device(id);
            if dev.servers.start == next {
                Ok(dev.servers.end)
            } else {
                Err(format!(
                    "{} starts at server {}, not {next}",
                    dev.name, dev.servers.start
                ))
            }
        })
    }
}

/// Builder for OCP-style datacenter topologies (Figure 2 of the paper).
///
/// Defaults produce a single fully-populated MSB: 4 SBs × 4 RPPs × 4 racks
/// × 30 servers. Ratings default to the OCP specification per level and
/// each device's quota defaults to an equal share of its parent's rating
/// (capped at its own rating), which encodes the paper's "planned peak"
/// notion used by punish-offender-first.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    suites: usize,
    msbs_per_suite: usize,
    sbs_per_msb: usize,
    rpps_per_sb: usize,
    racks_per_rpp: usize,
    servers_per_rack: usize,
    rack_rating: Power,
    rpp_rating: Power,
    sb_rating: Power,
    msb_rating: Power,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            suites: 1,
            msbs_per_suite: 1,
            sbs_per_msb: 4,
            rpps_per_sb: 4,
            racks_per_rpp: 4,
            servers_per_rack: 30,
            rack_rating: DeviceLevel::Rack.default_rating(),
            rpp_rating: DeviceLevel::Rpp.default_rating(),
            sb_rating: DeviceLevel::Sb.default_rating(),
            msb_rating: DeviceLevel::Msb.default_rating(),
        }
    }
}

impl TopologyBuilder {
    /// Starts from the defaults described on the type.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of suites (rooms). Each suite contributes
    /// `msbs_per_suite` root MSBs.
    pub fn suites(mut self, n: usize) -> Self {
        self.suites = n;
        self
    }

    /// MSBs per suite (up to four in the paper's datacenters).
    pub fn msbs_per_suite(mut self, n: usize) -> Self {
        self.msbs_per_suite = n;
        self
    }

    /// SBs fed by each MSB (up to four; 2× oversubscription when four).
    pub fn sbs_per_msb(mut self, n: usize) -> Self {
        self.sbs_per_msb = n;
        self
    }

    /// RPPs fed by each SB.
    pub fn rpps_per_sb(mut self, n: usize) -> Self {
        self.rpps_per_sb = n;
        self
    }

    /// Racks (rows are 1:1 with RPPs in this model) fed by each RPP.
    pub fn racks_per_rpp(mut self, n: usize) -> Self {
        self.racks_per_rpp = n;
        self
    }

    /// Servers mounted in each rack (9–42 in the paper).
    pub fn servers_per_rack(mut self, n: usize) -> Self {
        self.servers_per_rack = n;
        self
    }

    /// Overrides the rack shelf rating.
    pub fn rack_rating(mut self, rating: Power) -> Self {
        self.rack_rating = rating;
        self
    }

    /// Overrides the RPP rating (e.g. the 127.5 kW PDU breaker of
    /// Figure 11).
    pub fn rpp_rating(mut self, rating: Power) -> Self {
        self.rpp_rating = rating;
        self
    }

    /// Overrides the SB rating.
    pub fn sb_rating(mut self, rating: Power) -> Self {
        self.sb_rating = rating;
        self
    }

    /// Overrides the MSB rating.
    pub fn msb_rating(mut self, rating: Power) -> Self {
        self.msb_rating = rating;
        self
    }

    /// Constructs the topology.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, any rating non-positive or the
    /// servers overflow `u32` ids, or (debug builds) if the resulting
    /// tree fails validation.
    pub fn build(self) -> Topology {
        assert!(
            self.suites > 0
                && self.msbs_per_suite > 0
                && self.sbs_per_msb > 0
                && self.rpps_per_sb > 0
                && self.racks_per_rpp > 0
                && self.servers_per_rack > 0,
            "all topology counts must be positive: {self:?}"
        );
        for (name, r) in [
            ("rack", self.rack_rating),
            ("rpp", self.rpp_rating),
            ("sb", self.sb_rating),
            ("msb", self.msb_rating),
        ] {
            assert!(
                r.as_watts() > 0.0,
                "{name} rating must be positive, got {r}"
            );
        }

        // Each device feeds the next block of its level's size.
        let rack_servers = self.servers_per_rack;
        let rpp_servers = rack_servers * self.racks_per_rpp;
        let sb_servers = rpp_servers * self.rpps_per_sb;
        let msb_servers = sb_servers * self.sbs_per_msb;
        let total = msb_servers * self.msbs_per_suite * self.suites;
        assert!(
            u32::try_from(total).is_ok(),
            "{total} servers overflow u32 server ids: {self:?}"
        );
        let block = |first: usize, len: usize| first as u32..(first + len) as u32;
        let roots = self.suites * self.msbs_per_suite;
        let per_root = 1 + self.sbs_per_msb * (1 + self.rpps_per_sb * (1 + self.racks_per_rpp));

        let mut topo = Topology {
            devices: Vec::with_capacity(roots * per_root),
            roots: Vec::with_capacity(roots),
        };
        for suite in 0..self.suites {
            for msb_i in 0..self.msbs_per_suite {
                let msb_first = (suite * self.msbs_per_suite + msb_i) * msb_servers;
                let msb = self.push_device(
                    &mut topo,
                    format!("suite{suite}/msb{msb_i}"),
                    DeviceLevel::Msb,
                    None,
                    block(msb_first, msb_servers),
                );
                for sb_i in 0..self.sbs_per_msb {
                    let sb_first = msb_first + sb_i * sb_servers;
                    let sb = self.push_device(
                        &mut topo,
                        format!("suite{suite}/msb{msb_i}/sb{sb_i}"),
                        DeviceLevel::Sb,
                        Some(msb),
                        block(sb_first, sb_servers),
                    );
                    for rpp_i in 0..self.rpps_per_sb {
                        let rpp_first = sb_first + rpp_i * rpp_servers;
                        let rpp = self.push_device(
                            &mut topo,
                            format!("suite{suite}/msb{msb_i}/sb{sb_i}/rpp{rpp_i}"),
                            DeviceLevel::Rpp,
                            Some(sb),
                            block(rpp_first, rpp_servers),
                        );
                        for rack_i in 0..self.racks_per_rpp {
                            self.push_device(
                                &mut topo,
                                format!("suite{suite}/msb{msb_i}/sb{sb_i}/rpp{rpp_i}/rack{rack_i}"),
                                DeviceLevel::Rack,
                                Some(rpp),
                                block(rpp_first + rack_i * rack_servers, rack_servers),
                            );
                        }
                    }
                }
            }
        }

        assign_quotas(&mut topo);
        debug_assert!(
            topo.validate().is_empty(),
            "invalid topology: {:?}",
            topo.validate()
        );
        topo
    }

    /// Appends a `level` device with its configured rating and trip
    /// curve, room for its children, under `parent` (a root when none),
    /// feeding `servers`.
    fn push_device(
        &self,
        topo: &mut Topology,
        name: String,
        level: DeviceLevel,
        parent: Option<DeviceId>,
        servers: Range<u32>,
    ) -> DeviceId {
        let (rating, curve, children) = match level {
            DeviceLevel::Msb => (self.msb_rating, TripCurve::msb(), self.sbs_per_msb),
            DeviceLevel::Sb => (self.sb_rating, TripCurve::sb(), self.rpps_per_sb),
            DeviceLevel::Rpp => (self.rpp_rating, TripCurve::rpp(), self.racks_per_rpp),
            DeviceLevel::Rack => (self.rack_rating, TripCurve::rack(), 0),
        };
        let id = DeviceId(topo.devices.len() as u32);
        topo.devices.push(Device {
            id,
            name: name.into(),
            level,
            rating,
            quota: rating, // refined by assign_quotas
            breaker: Breaker::new(rating, curve),
            parent,
            children: Vec::with_capacity(children),
            servers,
        });
        match parent {
            Some(p) => topo.devices[p.index()].children.push(id),
            None => topo.roots.push(id),
        }
        id
    }
}

/// Sets each device's quota (planned peak) to an equal share of its
/// parent's rating, capped at its own rating. Roots keep quota = rating.
fn assign_quotas(topo: &mut Topology) {
    for i in 0..topo.devices.len() {
        let (parent, rating) = (topo.devices[i].parent, topo.devices[i].rating);
        if let Some(p) = parent {
            let share =
                topo.devices[p.index()].rating / topo.devices[p.index()].children.len() as f64;
            topo.devices[i].quota = share.min(rating);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Topology {
        TopologyBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(3)
            .build()
    }

    #[test]
    fn default_build_matches_ocp_counts() {
        let topo = TopologyBuilder::new().build();
        assert_eq!(topo.devices_at(DeviceLevel::Msb).len(), 1);
        assert_eq!(topo.devices_at(DeviceLevel::Sb).len(), 4);
        assert_eq!(topo.devices_at(DeviceLevel::Rpp).len(), 16);
        assert_eq!(topo.devices_at(DeviceLevel::Rack).len(), 64);
        assert_eq!(topo.server_count(), 64 * 30);
        assert!(topo.validate().is_empty());
    }

    #[test]
    fn msb_is_2x_oversubscribed_with_four_sbs() {
        let topo = TopologyBuilder::new().sbs_per_msb(4).build();
        let over = topo.oversubscription(topo.root());
        assert!((over - 2.0).abs() < 1e-9, "expected 2.0, got {over}");
    }

    #[test]
    fn quotas_split_parent_rating() {
        let topo = TopologyBuilder::new().sbs_per_msb(4).build();
        for sb in topo.devices_at(DeviceLevel::Sb) {
            // 2.5 MW / 4 = 625 kW quota, under the 1.25 MW rating.
            assert_eq!(topo.device(sb).quota, Power::from_kilowatts(625.0));
        }
    }

    #[test]
    fn quota_capped_at_own_rating() {
        // One SB on an MSB: share would be 2.5 MW but rating is 1.25 MW.
        let topo = TopologyBuilder::new().sbs_per_msb(1).build();
        let sb = topo.devices_at(DeviceLevel::Sb)[0];
        assert_eq!(topo.device(sb).quota, Power::from_megawatts(1.25));
    }

    #[test]
    fn servers_under_counts_transitively() {
        let topo = small();
        assert_eq!(topo.servers_under(topo.root()).len(), 2 * 2 * 2 * 3);
        let rpp = topo.devices_at(DeviceLevel::Rpp)[0];
        assert_eq!(topo.servers_under(rpp).len(), 2 * 3);
        let rack = topo.devices_at(DeviceLevel::Rack)[0];
        assert_eq!(topo.servers_under(rack), 0..3);
    }

    #[test]
    fn rack_of_inverts_servers_under() {
        let topo = small();
        for rack in topo.devices_at(DeviceLevel::Rack) {
            for s in topo.servers_under(rack) {
                assert_eq!(topo.rack_of(s), rack);
            }
        }
    }

    #[test]
    fn ancestors_climb_to_root() {
        let topo = small();
        let rack = topo.devices_at(DeviceLevel::Rack)[3];
        let chain = topo.ancestors(rack);
        assert_eq!(chain.len(), 3); // rpp, sb, msb
        assert_eq!(topo.device(chain[0]).level, DeviceLevel::Rpp);
        assert_eq!(topo.device(chain[2]).level, DeviceLevel::Msb);
        assert!(topo.ancestors(topo.root()).is_empty());
    }

    #[test]
    fn multiple_suites_produce_multiple_roots() {
        let topo = TopologyBuilder::new()
            .suites(2)
            .msbs_per_suite(2)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(1)
            .servers_per_rack(1)
            .build();
        assert_eq!(topo.roots().len(), 4);
        assert_eq!(topo.server_count(), 4);
    }

    #[test]
    #[should_panic(expected = "use roots()")]
    fn root_panics_with_multiple_roots() {
        let topo = TopologyBuilder::new()
            .suites(2)
            .sbs_per_msb(1)
            .rpps_per_sb(1)
            .racks_per_rpp(1)
            .servers_per_rack(1)
            .build();
        let _ = topo.root();
    }

    #[test]
    fn custom_ratings_apply() {
        let topo = TopologyBuilder::new()
            .rpp_rating(Power::from_kilowatts(127.5))
            .build();
        for rpp in topo.devices_at(DeviceLevel::Rpp) {
            assert_eq!(topo.device(rpp).rating, Power::from_kilowatts(127.5));
        }
    }

    #[test]
    #[should_panic(expected = "counts must be positive")]
    fn zero_counts_panic() {
        TopologyBuilder::new().servers_per_rack(0).build();
    }

    #[test]
    fn names_encode_the_path() {
        let topo = small();
        let rack = topo.devices_at(DeviceLevel::Rack)[0];
        assert_eq!(&*topo.device(rack).name, "suite0/msb0/sb0/rpp0/rack0");
    }

    #[test]
    fn render_tree_shows_levels_and_elides_siblings() {
        let topo = TopologyBuilder::new().sbs_per_msb(3).build();
        let s = topo.render_tree(topo.root());
        assert!(s.contains("MSB [suite0/msb0]"));
        assert!(s.contains("... 2 more SBs"));
        assert!(s.contains("servers + DCUPS"));
        // One representative path per level, not the whole forest.
        assert!(s.lines().count() < 12, "tree too verbose:\n{s}");
    }

    #[test]
    fn validate_detects_broken_quota() {
        let mut topo = small();
        let root = topo.root();
        topo.device_mut(root).quota = Power::from_megawatts(99.0);
        let problems = topo.validate();
        assert!(problems.iter().any(|p| p.contains("quota")), "{problems:?}");
    }

    #[test]
    fn validate_detects_a_gap_between_siblings() {
        let mut topo = small();
        let rack = topo.devices_at(DeviceLevel::Rack)[1];
        topo.device_mut(rack).servers = 4..6;
        let problems = topo.validate();
        assert!(
            problems
                .iter()
                .any(|p| p.contains("suite0/msb0/sb0/rpp0: its children do not tile")),
            "{problems:?}"
        );
    }

    #[test]
    fn oversubscription_of_leaf_is_one() {
        let topo = small();
        let rack = topo.devices_at(DeviceLevel::Rack)[0];
        assert_eq!(topo.oversubscription(rack), 1.0);
    }
}
