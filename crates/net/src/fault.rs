//! Fault injection.
//!
//! The paper's delivery model (§3.2) exists because the interconnect is
//! *almost* perfect: "We cannot assume a perfectly reliable interconnect …
//! because we want the communication system to support hot-swap of links
//! and switches". The [`FaultPlan`] injects exactly those imperfections:
//! random transmission errors (dropped or corrupted packets),
//! administratively downed links (hot-swap events), degraded-link windows
//! with elevated error rates, and a per-link Gilbert–Elliott bursty error
//! model.
//!
//! Randomness is drawn from **per-source-host streams** (derived from one
//! root seed), not one shared stream. This keeps fault decisions a pure
//! function of each host's own injection sequence, so a parallel run —
//! where hosts are partitioned across shards and inject in a different
//! global interleaving — judges every packet exactly as the sequential
//! run does. The Gilbert–Elliott chains are likewise pure functions of
//! `(link seed, simulated time)`: each chain advances lazily to the
//! judging instant, so shard-local copies agree without any merging.
//!
//! Campaign-driven state changes (scheduled flaps, switch failures,
//! degrade windows — see [`crate::schedule`]) arrive as [`FaultOp`]s
//! applied at exact simulated times on every copy of the plan, which is
//! what keeps sharded runs byte-identical to sequential ones.

use crate::topology::LinkId;
use std::collections::HashMap;
use vnet_sim::{SimDuration, SimRng, SimTime};

/// Derivation tag for the Gilbert–Elliott chain root. Per-source streams
/// use tags `0..n_hosts` (< 2^32), so any tag above that is collision-free.
const GE_ROOT_TAG: u64 = 0x4745_4C4C_4953_0001; // "GELLIS" + 1

/// Why the fabric refused or lost a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Random transmission error consumed the packet.
    TransmissionError,
    /// The packet was corrupted in flight; it arrives but fails the
    /// receiver's CRC check (the NIC drops it there).
    Corrupted,
    /// A link on the route is administratively down (hot-swap in progress).
    LinkDown,
    /// Lost to a degraded-link window's elevated drop rate (the degraded
    /// component exceeded the global error rate when the draw hit).
    Degraded,
    /// Lost while a route link's Gilbert–Elliott chain was in the bad
    /// (bursty) state.
    Burst,
}

/// Per-source drop/corruption tallies, broken down by [`DropReason`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Packets lost to a down link on the route.
    pub link_down: u64,
    /// Packets lost to the global random error rate.
    pub transmission: u64,
    /// Packets corrupted in flight (delivered, dropped at the CRC check).
    pub corrupted: u64,
    /// Packets lost to a degraded-link window.
    pub degraded: u64,
    /// Packets lost to a Gilbert–Elliott bad-state burst.
    pub burst: u64,
}

impl DropCounts {
    /// Total packets dropped (everything except corruption, which still
    /// arrives and consumes wire time).
    pub fn drops(&self) -> u64 {
        self.link_down + self.transmission + self.degraded + self.burst
    }

    fn add(&mut self, o: &DropCounts) {
        self.link_down += o.link_down;
        self.transmission += o.transmission;
        self.corrupted += o.corrupted;
        self.degraded += o.degraded;
        self.burst += o.burst;
    }
}

/// A campaign-scheduled mutation of fault state, applied to every copy of
/// the [`FaultPlan`] at an exact simulated time (see [`crate::schedule`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultOp {
    /// Take a link down (refcounted: overlapping windows stack).
    LinkDown(LinkId),
    /// Bring a link back up (drops one refcount).
    LinkUp(LinkId),
    /// Begin a degraded window on a link: `(drop, corrupt)` probabilities
    /// that override the global rates when larger.
    Degrade(LinkId, f64, f64),
    /// End a degraded window opened with the same `(drop, corrupt)` pair.
    ClearDegrade(LinkId, f64, f64),
}

/// Gilbert–Elliott bursty-error parameters: a continuous-time two-state
/// chain per link alternating good and bad sojourns with exponentially
/// distributed lengths. In the bad state packets drop with `p_drop_bad`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Mean sojourn time in the good state.
    pub mean_good: SimDuration,
    /// Mean sojourn time in the bad (bursty) state.
    pub mean_bad: SimDuration,
    /// Per-route drop probability while any route link is bad.
    pub p_drop_bad: f64,
    /// Per-route drop probability while all route links are good
    /// (usually 0.0 — the background rate is `drop_prob`).
    pub p_drop_good: f64,
}

impl GilbertElliott {
    /// A mild default: 50 ms good sojourns, 500 µs bad bursts that drop
    /// a quarter of the packets caught inside them.
    pub fn mild() -> Self {
        GilbertElliott {
            mean_good: SimDuration::from_millis(50),
            mean_bad: SimDuration::from_micros(500),
            p_drop_bad: 0.25,
            p_drop_good: 0.0,
        }
    }
}

/// One link's Gilbert–Elliott chain. State at time `t` is a pure function
/// of the link's derived seed and `t`: the chain starts good at time zero
/// and flips at exponentially spaced instants drawn from its own stream.
#[derive(Clone, Debug)]
struct GeChain {
    bad: bool,
    next_flip: SimTime,
    rng: SimRng,
}

#[derive(Clone, Debug)]
struct GeModel {
    params: GilbertElliott,
    root: SimRng,
    chains: HashMap<LinkId, GeChain>,
}

impl GeModel {
    /// Advance `l`'s chain to `now` and report whether it is in the bad
    /// state. Chains are created lazily; judging instants are monotone
    /// within any one plan copy, so lazy advance never rewinds.
    fn is_bad(&mut self, l: LinkId, now: SimTime) -> bool {
        let params = self.params;
        let chain = self.chains.entry(l).or_insert_with(|| {
            let mut rng = self.root.derive(l.0 as u64);
            let first = sojourn(&mut rng, params.mean_good);
            GeChain { bad: false, next_flip: SimTime::ZERO + first, rng }
        });
        while chain.next_flip <= now {
            chain.bad = !chain.bad;
            let mean = if chain.bad { params.mean_bad } else { params.mean_good };
            chain.next_flip += sojourn(&mut chain.rng, mean);
        }
        chain.bad
    }
}

/// Draw one exponential sojourn, floored at 1 ns so chains always advance.
fn sojourn(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    SimDuration::from_nanos((rng.expovariate(mean.as_nanos() as f64) as u64).max(1))
}

/// Configurable fault model applied to every traversed link.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Probability a packet is silently dropped per *route* traversal.
    pub drop_prob: f64,
    /// Probability a packet is corrupted per route traversal (it still
    /// consumes wire time and is delivered marked corrupt).
    pub corrupt_prob: f64,
    /// Down links, refcounted so overlapping down windows (a link-flap
    /// window overlapping its switch's failure window) nest correctly.
    down: HashMap<LinkId, u32>,
    /// Active degraded windows per link: a stack of `(drop, corrupt)`
    /// overrides; the effective rate is the max over active entries.
    degraded: HashMap<LinkId, Vec<(f64, f64)>>,
    /// Gilbert–Elliott bursty-error model, when installed.
    ge: Option<GeModel>,
    /// Root from which per-source streams derive (`root.derive(src)`),
    /// so a stream's identity never depends on first-use order.
    root: SimRng,
    streams: Vec<SimRng>,
    counts: Vec<DropCounts>,
}

impl FaultPlan {
    /// A fault-free plan (the common case; Myrinet error rates are tiny).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            down: HashMap::new(),
            degraded: HashMap::new(),
            ge: None,
            root: SimRng::seed_from_u64(seed),
            streams: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A plan with the given random error probabilities.
    pub fn with_errors(seed: u64, drop_prob: f64, corrupt_prob: f64) -> Self {
        let mut p = Self::none(seed);
        p.drop_prob = drop_prob;
        p.corrupt_prob = corrupt_prob;
        p
    }

    /// Install the Gilbert–Elliott bursty error model. Chain seeds derive
    /// from the plan's root, so a clone installs identical chains.
    pub fn install_bursty(&mut self, params: GilbertElliott) {
        self.ge = Some(GeModel { params, root: self.root.derive(GE_ROOT_TAG), chains: HashMap::new() });
    }

    /// Whether a bursty error model is installed.
    pub fn has_bursty(&self) -> bool {
        self.ge.is_some()
    }

    /// Take a link down (hot-swap start). Packets routed over it are lost.
    /// Down states are refcounted: each `link_down` needs one `link_up`.
    pub fn link_down(&mut self, l: LinkId) {
        *self.down.entry(l).or_insert(0) += 1;
    }

    /// Bring a link back up (hot-swap complete). Drops one refcount; the
    /// link stays down while any overlapping down window remains open.
    pub fn link_up(&mut self, l: LinkId) {
        if let Some(n) = self.down.get_mut(&l) {
            *n -= 1;
            if *n == 0 {
                self.down.remove(&l);
            }
        }
    }

    /// Whether a link is currently down.
    pub fn is_down(&self, l: LinkId) -> bool {
        self.down.contains_key(&l)
    }

    /// Apply one campaign-scheduled fault operation.
    pub fn apply(&mut self, op: &FaultOp) {
        match *op {
            FaultOp::LinkDown(l) => self.link_down(l),
            FaultOp::LinkUp(l) => self.link_up(l),
            FaultOp::Degrade(l, drop, corrupt) => {
                self.degraded.entry(l).or_default().push((drop, corrupt));
            }
            FaultOp::ClearDegrade(l, drop, corrupt) => {
                if let Some(v) = self.degraded.get_mut(&l) {
                    if let Some(i) = v.iter().position(|&e| e == (drop, corrupt)) {
                        v.remove(i);
                    }
                    if v.is_empty() {
                        self.degraded.remove(&l);
                    }
                }
            }
        }
    }

    fn grow_to(&mut self, src: u32) {
        while self.streams.len() <= src as usize {
            let s = self.streams.len() as u64;
            self.streams.push(self.root.derive(s));
            self.counts.push(DropCounts::default());
        }
    }

    /// Evaluate the fault model for one packet injected by `src` at `now`
    /// over `route`. `None` means clean passage; `Some(reason)` means the
    /// packet is lost or corrupted. Random draws come from `src`'s own
    /// stream; burst-state lookups advance the per-link chains to `now`.
    pub fn judge(&mut self, now: SimTime, src: u32, route: &[LinkId]) -> Option<DropReason> {
        self.grow_to(src);
        let s = src as usize;
        if route.iter().any(|l| self.down.contains_key(l)) {
            self.counts[s].link_down += 1;
            return Some(DropReason::LinkDown);
        }
        if let Some(ge) = &mut self.ge {
            let mut bad = false;
            for l in route {
                // Advance every route chain (no short-circuit) so chain
                // state never depends on which packet looked first.
                bad |= ge.is_bad(*l, now);
            }
            let p = if bad { ge.params.p_drop_bad } else { ge.params.p_drop_good };
            if self.streams[s].chance(p) {
                self.counts[s].burst += 1;
                return Some(DropReason::Burst);
            }
        }
        let (deg_drop, deg_corrupt) = self.degrade_rates(route);
        let eff_drop = self.drop_prob.max(deg_drop);
        if eff_drop > 0.0 && self.streams[s].chance(eff_drop) {
            return Some(if deg_drop > self.drop_prob {
                self.counts[s].degraded += 1;
                DropReason::Degraded
            } else {
                self.counts[s].transmission += 1;
                DropReason::TransmissionError
            });
        }
        let eff_corrupt = self.corrupt_prob.max(deg_corrupt);
        if eff_corrupt > 0.0 && self.streams[s].chance(eff_corrupt) {
            self.counts[s].corrupted += 1;
            return Some(DropReason::Corrupted);
        }
        None
    }

    /// Max degraded `(drop, corrupt)` rates over the route's links.
    fn degrade_rates(&self, route: &[LinkId]) -> (f64, f64) {
        if self.degraded.is_empty() {
            return (0.0, 0.0);
        }
        let (mut d, mut c) = (0.0f64, 0.0f64);
        for l in route {
            if let Some(v) = self.degraded.get(l) {
                for &(dd, cc) in v {
                    d = d.max(dd);
                    c = c.max(cc);
                }
            }
        }
        (d, c)
    }

    /// Aggregate per-reason counts over all sources.
    pub fn counts(&self) -> DropCounts {
        let mut t = DropCounts::default();
        for c in &self.counts {
            t.add(c);
        }
        t
    }

    /// Packets dropped so far (errors, bursts, degrades, down links), all
    /// sources.
    pub fn drops(&self) -> u64 {
        self.counts().drops()
    }

    /// Packets corrupted so far, all sources.
    pub fn corruptions(&self) -> u64 {
        self.counts().corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_passes_everything() {
        let mut p = FaultPlan::none(1);
        for _ in 0..1000 {
            assert_eq!(p.judge(SimTime::ZERO, 0, &[LinkId(0), LinkId(1)]), None);
        }
        assert_eq!(p.drops(), 0);
    }

    #[test]
    fn down_link_kills_routes_over_it() {
        let mut p = FaultPlan::none(1);
        p.link_down(LinkId(5));
        assert!(p.is_down(LinkId(5)));
        let t = SimTime::ZERO;
        assert_eq!(p.judge(t, 0, &[LinkId(4), LinkId(5)]), Some(DropReason::LinkDown));
        assert_eq!(p.judge(t, 0, &[LinkId(4), LinkId(6)]), None);
        p.link_up(LinkId(5));
        assert_eq!(p.judge(t, 0, &[LinkId(4), LinkId(5)]), None);
        assert_eq!(p.drops(), 1);
        assert_eq!(p.counts().link_down, 1);
    }

    #[test]
    fn down_refcounts_nest_overlapping_windows() {
        let mut p = FaultPlan::none(1);
        p.link_down(LinkId(3)); // flap window opens
        p.link_down(LinkId(3)); // switch failure overlaps
        p.link_up(LinkId(3)); // flap window closes
        assert!(p.is_down(LinkId(3)), "switch window still open");
        p.link_up(LinkId(3));
        assert!(!p.is_down(LinkId(3)));
        // A stray extra up is ignored, not underflowed.
        p.link_up(LinkId(3));
        assert!(!p.is_down(LinkId(3)));
    }

    #[test]
    fn error_rates_approximate_probability() {
        let mut p = FaultPlan::with_errors(7, 0.1, 0.1);
        let mut drops = 0;
        let mut corrupt = 0;
        for i in 0..10_000u32 {
            match p.judge(SimTime::ZERO, i % 4, &[LinkId(0)]) {
                Some(DropReason::TransmissionError) => drops += 1,
                Some(DropReason::Corrupted) => corrupt += 1,
                _ => {}
            }
        }
        assert!((800..1200).contains(&drops), "drops={drops}");
        // Corruption is judged only on the 90% that survive the drop check.
        assert!((700..1100).contains(&corrupt), "corrupt={corrupt}");
    }

    #[test]
    fn per_source_streams_ignore_interleaving() {
        // Host 2's fault decisions must be the same whether or not other
        // hosts inject in between — the property parallel sharding needs.
        let route = [LinkId(0)];
        let t = SimTime::ZERO;
        let run = |others: bool| {
            let mut p = FaultPlan::with_errors(42, 0.3, 0.2);
            let mut seen = Vec::new();
            for i in 0..200 {
                if others {
                    p.judge(t, 0, &route);
                    p.judge(t, 1, &route);
                }
                if i % 2 == 0 {
                    seen.push(p.judge(t, 2, &route));
                }
            }
            seen
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn degrade_window_raises_rates_and_labels_reason() {
        let mut p = FaultPlan::none(11);
        p.apply(&FaultOp::Degrade(LinkId(2), 1.0, 0.0));
        let t = SimTime::ZERO;
        assert_eq!(p.judge(t, 0, &[LinkId(1), LinkId(2)]), Some(DropReason::Degraded));
        assert_eq!(p.judge(t, 0, &[LinkId(1)]), None, "other links unaffected");
        p.apply(&FaultOp::ClearDegrade(LinkId(2), 1.0, 0.0));
        assert_eq!(p.judge(t, 0, &[LinkId(1), LinkId(2)]), None);
        assert_eq!(p.counts().degraded, 1);
    }

    #[test]
    fn bursty_chain_is_pure_function_of_time() {
        // Two clones judging at different cadences must agree on the bad
        // windows — the property that lets shards skip chain merging.
        let mk = || {
            let mut p = FaultPlan::none(5);
            p.install_bursty(GilbertElliott {
                mean_good: SimDuration::from_micros(200),
                mean_bad: SimDuration::from_micros(200),
                p_drop_bad: 1.0,
                p_drop_good: 0.0,
            });
            p
        };
        let mut a = mk();
        let mut b = mk();
        let route = [LinkId(0)];
        // `a` samples every microsecond; `b` samples every 7 microseconds.
        let at = |i: u64| SimTime::ZERO + SimDuration::from_micros(i);
        let fine: Vec<_> = (0..700).map(|i| a.judge(at(i), 0, &route)).collect();
        for i in (0..700).step_by(7) {
            assert_eq!(b.judge(at(i), 0, &route), fine[i as usize], "t={i}us");
        }
        assert!(a.counts().burst > 0, "p_drop_bad=1.0 must drop inside bursts");
    }

    #[test]
    fn bursty_rates_fall_between_good_and_bad() {
        let mut p = FaultPlan::none(13);
        p.install_bursty(GilbertElliott {
            mean_good: SimDuration::from_micros(100),
            mean_bad: SimDuration::from_micros(100),
            p_drop_bad: 0.8,
            p_drop_good: 0.0,
        });
        // Equal sojourns: roughly half the samples land in bad state, so
        // the long-run drop rate is near 0.4.
        let mut drops = 0u32;
        let n = 20_000u64;
        for i in 0..n {
            if p.judge(SimTime::ZERO + SimDuration::from_nanos(i * 50), 0, &[LinkId(0)]).is_some() {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((0.2..0.6).contains(&rate), "rate={rate}");
        assert_eq!(p.counts().burst as u32, drops, "all drops are burst drops");
    }
}
