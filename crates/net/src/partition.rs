//! Host/link partitioning for the parallel executor.
//!
//! A [`Partition`] assigns every host to one shard (contiguous index
//! ranges) and every link to the shard that *reserves* it, and derives
//! the conservative **lookahead**: a lower bound on how far in the future
//! any cross-shard ingress lands relative to its injection. The split
//! follows the fabric's two-phase injection (`Fabric::inject_src` /
//! `Fabric::complete_ingress`): ascending links belong to the source's
//! shard, descending links to the destination's, and the lookahead is
//! the switch latency accumulated over the ascending segment — one
//! `hop_latency` for a crossbar, a host-up hop plus a leaf-to-spine trunk
//! for an inter-leaf fat-tree path. Every cross-shard route ascends the
//! same way, so one bound serves every shard pair; a fault campaign only
//! removes and restores routes, so it never lowers the bound.
//!
//! Not every topology can be partitioned: a ring's hops are all
//! "ascending" (each owned by the host the link leaves), so there is no
//! midpoint with a latency guarantee and the plan clamps to one shard.
//! Fat-tree partitions are leaf-aligned so an intra-leaf route (whose
//! ingress is only one hop out) never crosses shards.

use crate::fabric::NetConfig;
use crate::fault::FaultOp;
use crate::topology::{LinkId, Topology, TopologySpec};
use vnet_sim::parallel::MAX_SHARDS;
use vnet_sim::{SimDuration, SimTime};

/// A plan for splitting one simulation across shards.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Host range owned by shard `s` is `bounds[s] .. bounds[s + 1]`.
    bounds: Vec<u32>,
    /// Conservative lookahead: every cross-shard ingress is at least this
    /// far after its injection instant.
    lookahead: SimDuration,
    /// Owning shard per link id.
    link_owner: Vec<u32>,
}

impl Partition {
    /// Plan a partition of `topo` into (at most) `requested` shards.
    /// The count is clamped to what the topology supports: rings (and a
    /// zero `hop_latency`, which destroys the lookahead bound) force a
    /// single shard; fat trees shard on whole leaves; nothing shards
    /// finer than one host, and no plan exceeds the executor's
    /// [`MAX_SHARDS`].
    pub fn plan(topo: &Topology, cfg: &NetConfig, requested: u32) -> Partition {
        let hosts = topo.host_count();
        let requested = requested.clamp(1, MAX_SHARDS as u32);
        let (shards, lookahead) = match *topo.spec() {
            TopologySpec::Ring { .. } => (1, cfg.hop_latency.max(SimDuration::from_nanos(1))),
            _ if cfg.hop_latency == SimDuration::ZERO => (1, SimDuration::from_nanos(1)),
            TopologySpec::Crossbar { hosts } => (requested.min(hosts), cfg.hop_latency),
            TopologySpec::FatTree { leaves, .. } => {
                // Ascending inter-leaf segment: one host-up hop plus one
                // leaf-to-spine trunk (which may be configured slower).
                let trunk = cfg.trunk_latency.unwrap_or(cfg.hop_latency);
                (requested.min(leaves), cfg.hop_latency + trunk)
            }
        };
        // Contiguous host ranges; for the fat tree, unit = whole leaves.
        let unit = match *topo.spec() {
            TopologySpec::FatTree { hosts_per_leaf, .. } => hosts_per_leaf,
            _ => 1,
        };
        let units = hosts / unit;
        let mut bounds = Vec::with_capacity(shards as usize + 1);
        for s in 0..=shards {
            // Even split of `units` units over `shards` shards.
            bounds.push(units * s / shards * unit);
        }
        debug_assert_eq!(*bounds.last().unwrap(), hosts);

        let mut p = Partition { bounds, lookahead, link_owner: Vec::new() };
        p.link_owner = (0..topo.link_count()).map(|l| p.owner_of(topo, LinkId(l))).collect();
        p
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.bounds.len() as u32 - 1
    }

    /// The conservative lookahead bound (always positive).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Host range `[lo, hi)` owned by shard `s`.
    pub fn range(&self, s: u32) -> (u32, u32) {
        (self.bounds[s as usize], self.bounds[s as usize + 1])
    }

    /// The shard owning `host`.
    pub fn shard_of(&self, host: u32) -> u32 {
        // bounds is sorted; shards are few, a linear scan is fine.
        (self.bounds.iter().skip(1).position(|&b| host < b).unwrap_or(self.shards() as usize - 1))
            as u32
    }

    /// The shard that reserves `link` (precomputed at plan time).
    pub fn link_owner(&self, link: LinkId) -> u32 {
        self.link_owner[link.idx()]
    }

    /// The same bound as [`Partition::lookahead`]. It exists only for
    /// the benchmark's `partition.plan_ms` kernel, which calls it by this
    /// name; nothing else may call it.
    pub fn pair_lookahead(
        &self,
        _topo: &Topology,
        _cfg: &NetConfig,
        _campaign: &[(SimTime, FaultOp)],
    ) -> SimDuration {
        self.lookahead
    }

    fn owner_of(&self, topo: &Topology, link: LinkId) -> u32 {
        let id = link.0;
        match *topo.spec() {
            // Ring: single shard owns everything.
            TopologySpec::Ring { .. } => 0,
            // Crossbar layout: [0, H) host-in (ascending, src side),
            // [H, 2H) host-out (descending, dst side).
            TopologySpec::Crossbar { hosts } => {
                if id < hosts {
                    self.shard_of(id)
                } else {
                    self.shard_of(id - hosts)
                }
            }
            // Fat-tree layout (see Topology::route): host-up and
            // host-down go with the host; leaf-up (ascending) with the
            // source leaf; spine-down (descending) with the destination
            // leaf.
            TopologySpec::FatTree { leaves, hosts_per_leaf, spines } => {
                let hosts = leaves * hosts_per_leaf;
                if id < 2 * hosts {
                    self.shard_of(id % hosts)
                } else if id < 2 * hosts + leaves * spines {
                    let leaf = (id - 2 * hosts) / spines;
                    self.shard_of(leaf * hosts_per_leaf)
                } else {
                    let leaf = (id - 2 * hosts - leaves * spines) / spines;
                    self.shard_of(leaf * hosts_per_leaf)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HostId;

    fn net() -> NetConfig {
        NetConfig::default()
    }

    #[test]
    fn fat_tree_partitions_on_leaf_boundaries() {
        let t = Topology::build(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 });
        let p = Partition::plan(&t, &net(), 3);
        assert_eq!(p.shards(), 3);
        for s in 0..p.shards() {
            let (lo, hi) = p.range(s);
            assert_eq!(lo % 3, 0, "shard {s} starts mid-leaf");
            assert_eq!(hi % 3, 0, "shard {s} ends mid-leaf");
            for h in lo..hi {
                assert_eq!(p.shard_of(h), s);
            }
        }
        assert_eq!(p.lookahead(), SimDuration::from_nanos(600));
    }

    #[test]
    fn trunk_latency_widens_fat_tree_lookahead() {
        let t = Topology::build(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 });
        let mut cfg = net();
        cfg.trunk_latency = Some(SimDuration::from_nanos(1_200));
        let p = Partition::plan(&t, &cfg, 4);
        // Ascending inter-leaf segment: 300 ns host-up + 1200 ns trunk.
        assert_eq!(p.lookahead(), SimDuration::from_nanos(1_500));
    }

    #[test]
    fn ring_refuses_to_shard() {
        let t = Topology::build(TopologySpec::Ring { hosts: 8 });
        let p = Partition::plan(&t, &net(), 4);
        assert_eq!(p.shards(), 1);
        assert!(p.lookahead() > SimDuration::ZERO);
    }

    #[test]
    fn shard_count_clamps_to_hosts_and_leaves() {
        let t = Topology::build(TopologySpec::Crossbar { hosts: 3 });
        assert_eq!(Partition::plan(&t, &net(), 16).shards(), 3);
        let ft = Topology::build(TopologySpec::FatTree { leaves: 2, hosts_per_leaf: 5, spines: 2 });
        assert_eq!(Partition::plan(&ft, &net(), 16).shards(), 2);
        // The executor's publication bitmap caps every plan.
        let wide = Topology::build(TopologySpec::Crossbar { hosts: 128 });
        assert_eq!(Partition::plan(&wide, &net(), 100).shards(), MAX_SHARDS as u32);
    }

    #[test]
    fn every_route_prefix_is_src_owned_and_suffix_dst_owned() {
        // The partition must agree with the fabric's two-phase split:
        // links before the split point are reserved by the source's
        // shard, links after by the destination's. And every cross-shard
        // route's ascending segment must cost exactly the one lookahead
        // the executor uses: a topology with uneven ascending latency
        // would need a lookahead per shard pair.
        let slow_trunk = NetConfig { trunk_latency: Some(SimDuration::from_nanos(1_200)), ..net() };
        let tree = TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 3, spines: 2 };
        for (spec, cfg) in [
            (tree.clone(), net()),
            (tree, slow_trunk),
            (TopologySpec::Crossbar { hosts: 6 }, net()),
        ] {
            let t = Topology::build(spec);
            let p = Partition::plan(&t, &cfg, 3);
            let h = t.host_count();
            let mut r = vec![];
            for s in 0..h {
                for d in 0..h {
                    if s == d {
                        continue;
                    }
                    for ch in 0..3u8 {
                        r.clear();
                        t.route(HostId(s), HostId(d), ch, &mut r);
                        let k = t.split_point(HostId(s), HostId(d)) as usize;
                        for (i, l) in r.iter().enumerate() {
                            let want = if i < k { p.shard_of(s) } else { p.shard_of(d) };
                            assert_eq!(
                                p.link_owner(*l),
                                want,
                                "{s}->{d} ch{ch} link {i} ({l:?})"
                            );
                        }
                        if p.shard_of(s) != p.shard_of(d) {
                            let ascent = r[..k].iter().map(|&l| cfg.latency_of(&t, l));
                            assert_eq!(
                                ascent.fold(SimDuration::ZERO, |a, b| a + b),
                                p.lookahead(),
                                "{s}->{d} ch{ch} ascending latency"
                            );
                        }
                    }
                }
            }
        }
    }
}
