//! Pluggable fidelity boundaries: narrow seams between the composed
//! world and its host / NIC / fabric models (two enums, `HostSlot` and
//! [`FabricSlot`], each dispatching with a `match`), plus one *abstract*
//! fast model per boundary.
//!
//! The paper's value is its per-protocol detail — the NI firmware loop,
//! the §4 residency machine, the §5.1 stop-and-wait channels — but a
//! fleet-scale run (thousands of hosts under background traffic) cannot
//! afford that detail at every node. Following the SimBricks recipe,
//! the world composes *models of differing fidelity* behind narrow
//! interfaces:
//!
//! * `HostSlot` — everything above the wire on one host: OS, user
//!   library, thread scheduler, cost model. The full model is
//!   `world::FullHost` (the pre-existing machinery, unchanged); the
//!   abstract one is [`AbstractHost`], a LogP source/sink that charges
//!   `o_s`/`o_r` CPU overheads without running the residency machine.
//!   Each host's NIC is the wire-facing side of its model. Full:
//!   [`vnet_nic::Nic`] (CRC check, protection, NACK/retransmit).
//!   Abstract: [`AbstractNic`], a counter that accepts every frame.
//! * [`FabricSlot`] — the network between hosts. Full:
//!   [`vnet_net::Fabric`] (per-link bandwidth arbitration). Abstract:
//!   [`vnet_net::DelayFabric`] (route latency only).
//!
//! Fidelity is chosen **per node** through [`FidelityMap`] (builder
//! `fidelity(..)` > `VNET_FIDELITY` env > default Full — see
//! [`crate::config`] for the precedence contract). Mixing is sound
//! because the classes couple only through the shared fabric: abstract
//! traffic reserves links (under the full fabric) exactly like real
//! frames, so full-fidelity hosts feel its contention, while abstract
//! hosts never participate in endpoint protocols. Endpoints, threads,
//! and residency exist only on full hosts; abstract hosts are driven by
//! [`crate::Cluster::drive_abstract`] and report coarse [`AbsStats`]
//! counters (`host{N}.abs.*`).
//!
//! Determinism is preserved across fidelity choices: abstract hosts draw
//! from the same per-host derived RNG streams, inject through the same
//! two-phase `(time, source, sequence)`-keyed ingress protocol, and the
//! delay fabric keeps the full fabric's per-hop latencies, so the
//! parallel executor's lookahead bound and epoch protocol apply
//! unchanged. Full-fidelity-everywhere through these seams is pinned
//! byte-identical to the pre-refactor oracle by `tests/parallel_differential.rs`.

use crate::world::{Event, HostEnv};
use std::collections::BTreeMap;
use vnet_net::{DelayFabric, Fabric, FaultPlan, HostId, NetConfig, Packet, Phase1, Topology};
use vnet_nic::{EpId, Frame, FrameKind, ProtectionKey, DESCRIPTOR_BYTES};
use vnet_sim::stats::LogHistogram;
use vnet_sim::telemetry::{MetricSet, MetricValue, MetricVisitor, MetricsSnapshot};
use vnet_sim::{Ctx, SimDuration, SimRng, SimTime};

// ===================================================================
// Fidelity selection
// ===================================================================

/// How much of the paper's machinery a node (or the fabric) simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// The complete model: NI firmware, residency, stop-and-wait
    /// channels, credits, threads, auditor hooks.
    Full,
    /// The fast model: LogP overheads and route latency only.
    Abstract,
}

/// Per-node fidelity assignment plus the fabric's own fidelity.
///
/// Defaults to Full everywhere. Host overrides are sparse; unlisted
/// hosts take `default_host`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FidelityMap {
    default_host: Fidelity,
    overrides: BTreeMap<u32, Fidelity>,
    fabric: Fidelity,
}

impl Default for FidelityMap {
    fn default() -> Self {
        Self::full()
    }
}

impl FidelityMap {
    /// Full fidelity everywhere (the historical behavior).
    pub fn full() -> Self {
        FidelityMap {
            default_host: Fidelity::Full,
            overrides: BTreeMap::new(),
            fabric: Fidelity::Full,
        }
    }

    /// The fidelity of host `h`.
    pub fn of(&self, h: u32) -> Fidelity {
        self.overrides.get(&h).copied().unwrap_or(self.default_host)
    }

    /// The fabric's fidelity ([`Fidelity::Abstract`] selects the
    /// delay-only [`vnet_net::DelayFabric`]).
    pub fn fabric(&self) -> Fidelity {
        self.fabric
    }

    /// Set the fabric fidelity.
    pub fn set_fabric(&mut self, f: Fidelity) {
        self.fabric = f;
    }

    /// The fidelity unlisted hosts take.
    pub fn default_host(&self) -> Fidelity {
        self.default_host
    }

    /// Set the fidelity unlisted hosts take (and clear nothing).
    pub fn set_default_host(&mut self, f: Fidelity) {
        self.default_host = f;
    }

    /// Assign fidelity `f` to each listed host.
    pub fn set_hosts(&mut self, hosts: impl IntoIterator<Item = u32>, f: Fidelity) {
        for h in hosts {
            self.overrides.insert(h, f);
        }
    }

    /// Whether any of hosts `0..n` (or the fabric) is abstract.
    pub fn any_abstract(&self, n: u32) -> bool {
        self.fabric == Fidelity::Abstract
            || self.default_host == Fidelity::Abstract
            || (0..n).any(|h| self.of(h) == Fidelity::Abstract)
    }

    /// Parse the `VNET_FIDELITY` grammar:
    ///
    /// ```text
    /// full                        everything full (the default)
    /// abstract                    every host abstract
    /// abstract:4-15,20            listed hosts abstract, the rest full
    /// full:0-3                    listed hosts full, the rest abstract
    /// ...;fabric=abstract         append to select the delay-only fabric
    /// ```
    ///
    /// Ranges are inclusive. The fabric defaults to full unless the
    /// `fabric=` suffix says otherwise.
    pub fn parse(s: &str) -> Result<FidelityMap, String> {
        let mut map = FidelityMap::full();
        for (i, part) in s.trim().split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if i == 0 {
                let (kind, ranges) = match part.split_once(':') {
                    Some((k, r)) => (k.trim(), Some(r)),
                    None => (part, None),
                };
                let listed = match kind {
                    "full" => Fidelity::Full,
                    "abstract" => Fidelity::Abstract,
                    other => return Err(format!("unknown fidelity {other:?}")),
                };
                match ranges {
                    None => map.default_host = listed,
                    Some(r) => {
                        map.default_host = match listed {
                            Fidelity::Full => Fidelity::Abstract,
                            Fidelity::Abstract => Fidelity::Full,
                        };
                        map.set_hosts(parse_ranges(r)?, listed);
                    }
                }
            } else {
                let Some((key, val)) = part.split_once('=') else {
                    return Err(format!("expected key=value, got {part:?}"));
                };
                match (key.trim(), val.trim()) {
                    ("fabric", "full") => map.fabric = Fidelity::Full,
                    ("fabric", "abstract" | "delay") => map.fabric = Fidelity::Abstract,
                    (k, v) => return Err(format!("unknown option {k}={v}")),
                }
            }
        }
        Ok(map)
    }
}

/// Parse `"4-15,20"` into the listed host ids.
fn parse_ranges(s: &str) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for item in s.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        match item.split_once('-') {
            Some((a, b)) => {
                let lo: u32 = a.trim().parse().map_err(|_| format!("bad range {item:?}"))?;
                let hi: u32 = b.trim().parse().map_err(|_| format!("bad range {item:?}"))?;
                if lo > hi {
                    return Err(format!("inverted range {item:?}"));
                }
                out.extend(lo..=hi);
            }
            None => out.push(item.parse().map_err(|_| format!("bad host id {item:?}"))?),
        }
    }
    Ok(out)
}

// ===================================================================
// FabricSlot
// ===================================================================

/// The network between hosts, as the composed world sees it: deterministic
/// source routing, the two-phase `(inject_src, complete_ingress)` timing
/// protocol, and a fault plan judged on the sender's own stream. Both
/// models keep per-source ingress sequences and identical per-hop
/// latencies, so the parallel executor's lookahead bound holds for
/// either; the slot dispatches statically so the hot path stays
/// branch-predictable.
pub enum FabricSlot {
    /// Full bandwidth-arbitrating fabric.
    Full(Fabric),
    /// Delay-only fabric (no link reservation).
    Delay(DelayFabric),
}

impl FabricSlot {
    /// Build the fabric selected by `f`.
    pub fn build(f: Fidelity, cfg: NetConfig, topo: Topology, faults: FaultPlan) -> Self {
        match f {
            Fidelity::Full => FabricSlot::Full(Fabric::new(cfg, topo, faults)),
            Fidelity::Abstract => FabricSlot::Delay(DelayFabric::new(cfg, topo, faults)),
        }
    }

    /// The full fabric, when that is what is registered (tests and
    /// benchmarks that inspect link reservation state).
    pub fn as_full(&self) -> Option<&Fabric> {
        match self {
            FabricSlot::Full(f) => Some(f),
            FabricSlot::Delay(_) => None,
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        match self {
            FabricSlot::Full(f) => f.topology(),
            FabricSlot::Delay(f) => f.topology(),
        }
    }

    /// The physical parameters in use.
    pub fn config(&self) -> &NetConfig {
        match self {
            FabricSlot::Full(f) => f.config(),
            FabricSlot::Delay(f) => f.config(),
        }
    }

    /// The fault plan (read).
    pub fn faults(&self) -> &FaultPlan {
        match self {
            FabricSlot::Full(f) => f.faults(),
            FabricSlot::Delay(f) => f.faults(),
        }
    }

    /// The fault plan (campaign ops, administrative hot-swap control).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        match self {
            FabricSlot::Full(f) => f.faults_mut(),
            FabricSlot::Delay(f) => f.faults_mut(),
        }
    }

    /// Phase 1 of injection: judge faults and time the ascending hops.
    pub fn inject_src(&mut self, now: SimTime, pkt: Packet<Frame>) -> Phase1<Frame> {
        match self {
            FabricSlot::Full(f) => f.inject_src(now, pkt),
            FabricSlot::Delay(f) => f.inject_src(now, pkt),
        }
    }

    /// Phase 2 of injection: time the descending hops from the ingress
    /// instant.
    pub fn complete_ingress(&mut self, at: SimTime, pkt: &Packet<Frame>) -> SimDuration {
        match self {
            FabricSlot::Full(f) => f.complete_ingress(at, pkt),
            FabricSlot::Delay(f) => f.complete_ingress(at, pkt),
        }
    }
}

/// Snapshot prefix `net.*`, whichever model is registered (the delay
/// fabric reports the same counter names; `link_busy_ns` then counts
/// serialization only, not queueing).
impl MetricSet for FabricSlot {
    fn visit_metrics(&self, v: &mut dyn MetricVisitor) {
        match self {
            FabricSlot::Full(f) => f.visit_metrics(v),
            FabricSlot::Delay(f) => f.visit_metrics(v),
        }
    }
}

// ===================================================================
// AbstractNic
// ===================================================================

/// Coarse counters an abstract node reports in place of the full
/// NIC/OS stats (snapshot prefix `host{N}.abs.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsStats {
    /// Messages injected into the fabric.
    pub sent: u64,
    /// Payload bytes injected.
    pub sent_bytes: u64,
    /// Messages received intact.
    pub recvd: u64,
    /// Payload bytes received intact.
    pub recv_bytes: u64,
    /// Frames discarded on arrival for in-flight corruption.
    pub corrupt_drops: u64,
}

impl MetricSet for AbsStats {
    fn visit_metrics(&self, v: &mut dyn MetricVisitor) {
        v.metric("sent", MetricValue::Counter(self.sent));
        v.metric("sent_bytes", MetricValue::Counter(self.sent_bytes));
        v.metric("recvd", MetricValue::Counter(self.recvd));
        v.metric("recv_bytes", MetricValue::Counter(self.recv_bytes));
        v.metric("corrupt_drops", MetricValue::Counter(self.corrupt_drops));
    }
}

/// The abstract NIC: a frame source/sink with counters. No protection
/// check, no sequencing, no acknowledgments — the §5.1 reliability
/// machinery is exactly what this model drops, so frames lost or
/// corrupted in the fabric stay lost (visible in [`AbsStats`]).
pub struct AbstractNic {
    host: HostId,
    seq: u64,
    /// Traffic counters.
    pub stats: AbsStats,
}

impl AbstractNic {
    /// A fresh abstract NIC on `host`.
    pub fn new(host: HostId) -> Self {
        AbstractNic { host, seq: 0, stats: AbsStats::default() }
    }

    /// Forge a [`FrameKind::Abs`] wire frame standing for `bytes` of
    /// payload to `dst`, counting it as sent. The frame is well-formed
    /// (the fabric charges its real wire size; the channel spreads over
    /// multipath) but addressed to endpoint 0 with the open key — only
    /// another abstract NIC may receive it.
    pub fn make_packet(&mut self, now: SimTime, dst: HostId, bytes: u32) -> Packet<Frame> {
        self.forge(now, dst, bytes, 0, false)
    }

    /// Forge an open-loop request frame: like [`Self::make_packet`] but
    /// marked a request carrying its arrival instant (`stamp_ns`, at the
    /// *source*), so the receiving abstract host can record end-to-end
    /// request latency including source CPU queueing.
    pub fn make_request(
        &mut self,
        now: SimTime,
        dst: HostId,
        bytes: u32,
        stamp_ns: u64,
    ) -> Packet<Frame> {
        self.forge(now, dst, bytes, stamp_ns, true)
    }

    fn forge(
        &mut self,
        now: SimTime,
        dst: HostId,
        payload_bytes: u32,
        stamp_ns: u64,
        request: bool,
    ) -> Packet<Frame> {
        self.seq += 1;
        self.stats.sent += 1;
        self.stats.sent_bytes += payload_bytes as u64;
        let wire = DESCRIPTOR_BYTES + payload_bytes;
        let frame = Frame {
            kind: FrameKind::Abs { stamp_ns, payload_bytes, request },
            dst_ep: EpId(0),
            key: ProtectionKey::OPEN,
            chan: (self.seq & 3) as u8,
            seq: self.seq,
            ack_uid: 0,
            timestamp: (now.as_nanos() / 1_000) as u32,
        };
        Packet { src: self.host, dst, channel: frame.chan, bytes: wire, payload: frame }
    }

    /// A frame's tail arrived (possibly corrupt in flight): count it. No
    /// acknowledgment, no effects.
    pub fn deliver(&mut self, frame: Frame, corrupt: bool) {
        if corrupt {
            self.stats.corrupt_drops += 1;
            return;
        }
        self.stats.recvd += 1;
        if let FrameKind::Abs { payload_bytes, .. } = frame.kind {
            self.stats.recv_bytes += payload_bytes as u64;
        }
    }
}

// ===================================================================
// Open-loop client-population sampling
// ===================================================================

/// Zipf(s) rank over `{1..=n}` by inverse CDF of the continuous
/// bounded-Pareto approximation: `P(K ≤ k) ≈ (k^{1-s} − 1)/(n^{1-s} − 1)`
/// (and `ln k / ln n` at `s = 1`). Exact enough for popularity skew at
/// fleet scale without per-rank tables, O(1) per draw, and monotone in
/// `u` so fixed seeds pin fixed ranks.
pub fn zipf_rank(u: f64, n: u64, s: f64) -> u64 {
    let n_f = n as f64;
    let u = u.clamp(0.0, 1.0 - 1e-12);
    let k = if (s - 1.0).abs() < 1e-9 {
        n_f.powf(u)
    } else {
        let t = 1.0 - n_f.powf(1.0 - s);
        (1.0 - u * t).powf(1.0 / (1.0 - s))
    };
    (k.floor() as u64).clamp(1, n)
}

/// Bounded Pareto(α) sample in `[min, max]` by inverse CDF:
/// `x = min / (1 − u(1 − (min/max)^α))^{1/α}`. Heavy-tailed request
/// sizes with a hard cap, per the fleet workload model.
pub fn bounded_pareto(u: f64, min: f64, max: f64, alpha: f64) -> f64 {
    let u = u.clamp(0.0, 1.0 - 1e-12);
    if min >= max {
        return min;
    }
    let r = (min / max).powf(alpha);
    min / (1.0 - u * (1.0 - r)).powf(1.0 / alpha)
}

/// An open-loop client population multiplexed onto one serving host
/// (see [`crate::Cluster::drive_open_loop`]).
///
/// Millions of clients are not simulated as objects: by Poisson
/// superposition their aggregate offered load is a small number of
/// exponential arrival `streams`, each carrying only an RNG and a
/// next-arrival event on the wheel. Arrivals are *open-loop* — the next
/// arrival is scheduled from wall-clock, never gated on the host CPU —
/// so overload shows up as queueing latency, not reduced offered load.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Independent Poisson arrival streams on this host (≥ 1). More
    /// streams smooth the superposed process; each costs one wheel
    /// event, not one client.
    pub streams: u32,
    /// Mean inter-arrival gap of the *aggregate* host load (each stream
    /// runs at `mean_gap × streams`).
    pub mean_gap: SimDuration,
    /// Total requests this host emits before going quiet.
    pub requests: u64,
    /// Zipf skew for target popularity (1.0 ≈ classic Zipf).
    pub zipf_s: f64,
    /// Size of the target id space `[0, targets)`; ranks rotate around
    /// the source so no host targets itself.
    pub targets: u32,
    /// Smallest request payload, bytes.
    pub size_min: u32,
    /// Largest request payload, bytes (hard cap of the Pareto tail).
    pub size_max: u32,
    /// Pareto tail index for request sizes (smaller ⇒ heavier tail).
    pub size_alpha: f64,
}

/// Live state of a driven open-loop population: the spec, one derived
/// RNG per stream, and the global remaining-request budget.
#[derive(Debug)]
struct OpenLoop {
    spec: OpenLoopSpec,
    streams: Vec<SimRng>,
    remaining: u64,
}

// ===================================================================
// AbstractHost
// ===================================================================

/// Internal events of an abstract host (carried by `Event::Abs`).
#[derive(Clone, Copy, Debug)]
pub enum AbsEvent {
    /// Decide the next message of the driven traffic pattern.
    Tick,
    /// A decided message reaches the wire (after its `o_s` overhead).
    Send {
        /// Destination host.
        dst: HostId,
        /// Payload bytes.
        bytes: u32,
    },
    /// An open-loop client request arrives at its serving host (one
    /// Poisson stream fires). Draws target/size, charges `o_s`, and
    /// self-reschedules — never gated on the CPU.
    Arrive {
        /// Which arrival stream fired.
        stream: u32,
    },
    /// A decided open-loop request reaches the wire (after `o_s`),
    /// carrying its arrival instant for latency accounting.
    Req {
        /// Destination host.
        dst: HostId,
        /// Payload bytes.
        bytes: u32,
        /// Arrival instant at the source (start of the latency clock).
        stamp: SimTime,
    },
}

/// A synthetic traffic pattern driven on an abstract host (see
/// [`crate::Cluster::drive_abstract`]): `count` messages of
/// `payload_bytes` each, to peers drawn uniformly from `peers`, with
/// uniformly jittered gaps averaging `mean_gap`.
#[derive(Clone, Debug)]
pub struct AbstractTraffic {
    /// Destination hosts (drawn uniformly per message). Every peer must
    /// itself be abstract.
    pub peers: Vec<HostId>,
    /// Payload bytes per message.
    pub payload_bytes: u32,
    /// Mean inter-message gap (jittered uniformly in `[g/2, 3g/2)`).
    pub mean_gap: SimDuration,
    /// Messages remaining to send.
    pub count: u64,
}

/// The abstract host: a LogP traffic source/sink. Sends charge the
/// cost model's `o_s` (`host_send`) on a single serial CPU before the
/// message reaches the wire; receives charge `o_r` (`host_recv`). No
/// endpoints, threads, residency, credits, or reliability — see
/// DESIGN.md §13 for exactly what is dropped relative to the paper.
pub struct AbstractHost {
    nic: AbstractNic,
    rng: SimRng,
    /// The serial CPU: sends and receives occupy it back-to-back, so a
    /// saturated abstract host is overhead-limited like a real LogP node.
    cpu_free_at: SimTime,
    traffic: Option<AbstractTraffic>,
    /// Boxed: most abstract hosts in a fleet sink traffic and never
    /// source an open-loop population, so the common case pays one
    /// pointer, not the full spec + stream vector.
    open_loop: Option<Box<OpenLoop>>,
    /// Request latencies observed *as a server* (recorded when an
    /// open-loop request clears this host's `o_r`). Boxed
    /// and lazy: 536 B per histogram matters × 16k hosts.
    req_lat: Option<Box<LogHistogram>>,
}

impl AbstractHost {
    /// A fresh abstract host for global host id `host`, drawing jitter
    /// and peer choices from `rng` (the host's derived stream).
    pub(crate) fn new(host: HostId, rng: SimRng) -> Self {
        AbstractHost {
            nic: AbstractNic::new(host),
            rng,
            cpu_free_at: SimTime::ZERO,
            traffic: None,
            open_loop: None,
            req_lat: None,
        }
    }

    /// Install (replacing any previous) driven traffic. The first
    /// [`AbsEvent::Tick`] must be scheduled by the caller.
    pub(crate) fn set_traffic(&mut self, t: AbstractTraffic) {
        self.traffic = Some(t);
    }

    /// Install (replacing any previous) an open-loop client population.
    /// Returns the initial exponential delay of each stream; the caller
    /// schedules stream `i`'s first [`AbsEvent::Arrive`] at `delays[i]`.
    pub(crate) fn start_open_loop(&mut self, spec: OpenLoopSpec) -> Vec<SimDuration> {
        assert!(spec.targets >= 2, "open-loop traffic needs at least two hosts");
        assert!(spec.streams >= 1, "open-loop traffic needs at least one stream");
        let per_stream_gap = spec.mean_gap.as_nanos().max(1) as f64 * spec.streams as f64;
        let mut streams = Vec::with_capacity(spec.streams as usize);
        let mut delays = Vec::with_capacity(spec.streams as usize);
        for i in 0..spec.streams {
            // Derived, not shared: stream RNGs must not depend on how
            // many draws the host's base stream has made.
            let mut r = self.rng.derive(0x09E7_0000 + i as u64);
            let d = r.expovariate(per_stream_gap).max(1.0) as u64;
            delays.push(SimDuration::from_nanos(d));
            streams.push(r);
        }
        let remaining = spec.requests;
        self.open_loop = Some(Box::new(OpenLoop { spec, streams, remaining }));
        delays
    }

    /// Traffic counters.
    pub fn stats(&self) -> &AbsStats {
        &self.nic.stats
    }

    /// Latencies of open-loop requests served *by* this host, if any
    /// arrived (arrival instant at the source → `o_r` cleared here).
    pub fn request_latency(&self) -> Option<&LogHistogram> {
        self.req_lat.as_deref()
    }

    /// Open-loop requests this host has yet to emit.
    pub fn open_loop_remaining(&self) -> u64 {
        self.open_loop.as_ref().map_or(0, |ol| ol.remaining)
    }

    /// Handle an event addressed to global host `gh`, injecting through
    /// the shared [`HostEnv`].
    pub(crate) fn on_event(
        &mut self,
        gh: u32,
        ev: Event,
        env: &mut HostEnv<'_>,
        ctx: &mut Ctx<'_, Event>,
    ) {
        match ev {
            Event::Abs { ev: AbsEvent::Tick, .. } => {
                let Some(t) = &mut self.traffic else { return };
                if t.count == 0 {
                    return;
                }
                t.count -= 1;
                let dst = t.peers[self.rng.index(t.peers.len())];
                let bytes = t.payload_bytes;
                let now = ctx.now();
                // The send occupies the serial CPU for o_s before the
                // message reaches the wire.
                let start = now.max(self.cpu_free_at);
                let on_wire = start + env.cfg.cost.host_send;
                self.cpu_free_at = on_wire;
                ctx.schedule(on_wire - now, Event::Abs {
                    host: gh,
                    ev: AbsEvent::Send { dst, bytes },
                });
                if t.count > 0 {
                    let g = t.mean_gap.as_nanos().max(2);
                    let gap = g / 2 + self.rng.below(g);
                    ctx.schedule(SimDuration::from_nanos(gap), Event::Abs {
                        host: gh,
                        ev: AbsEvent::Tick,
                    });
                }
            }
            Event::Abs { ev: AbsEvent::Send { dst, bytes }, .. } => {
                let pkt = self.nic.make_packet(ctx.now(), dst, bytes);
                env.inject(ctx.now(), pkt, ctx);
            }
            Event::Abs { ev: AbsEvent::Arrive { stream }, .. } => {
                let Some(ol) = self.open_loop.as_deref_mut() else { return };
                if ol.remaining == 0 {
                    return;
                }
                ol.remaining -= 1;
                let now = ctx.now();
                let spec = &ol.spec;
                let rng = &mut ol.streams[stream as usize];
                // Zipf-popular target, ranks rotated around the source
                // so rank 1 is the next host and nothing targets itself.
                let rank = zipf_rank(rng.unit(), (spec.targets - 1) as u64, spec.zipf_s);
                let dst = HostId(((gh as u64 + rank) % spec.targets as u64) as u32);
                let bytes = bounded_pareto(
                    rng.unit(),
                    spec.size_min as f64,
                    spec.size_max as f64,
                    spec.size_alpha,
                )
                .round() as u32;
                // The request queues on the serial CPU for o_s like any
                // send; its latency clock starts *now*, at arrival, so
                // source-side queueing is part of the measured latency.
                let start = now.max(self.cpu_free_at);
                let on_wire = start + env.cfg.cost.host_send;
                self.cpu_free_at = on_wire;
                ctx.schedule(on_wire - now, Event::Abs {
                    host: gh,
                    ev: AbsEvent::Req { dst, bytes, stamp: now },
                });
                if ol.remaining > 0 {
                    // Open loop: the next arrival comes from wall-clock
                    // regardless of how far behind the CPU is.
                    let per_stream_gap =
                        spec.mean_gap.as_nanos().max(1) as f64 * spec.streams as f64;
                    let gap = rng.expovariate(per_stream_gap).max(1.0) as u64;
                    ctx.schedule(SimDuration::from_nanos(gap), Event::Abs {
                        host: gh,
                        ev: AbsEvent::Arrive { stream },
                    });
                }
            }
            Event::Abs { ev: AbsEvent::Req { dst, bytes, stamp }, .. } => {
                let pkt = self.nic.make_request(ctx.now(), dst, bytes, stamp.as_nanos());
                env.inject(ctx.now(), pkt, ctx);
            }
            Event::Deliver { frame, corrupt, .. } => {
                let now = ctx.now();
                // Pull the latency stamp before the frame is consumed.
                let stamp = match frame.kind {
                    FrameKind::Abs { stamp_ns, request: true, .. } if !corrupt => Some(stamp_ns),
                    _ => None,
                };
                self.nic.deliver(frame, corrupt);
                // Receive overhead o_r occupies the serial CPU, delaying
                // subsequent sends.
                self.cpu_free_at = now.max(self.cpu_free_at) + env.cfg.cost.host_recv;
                if let Some(stamp) = stamp {
                    // Served when o_r clears: arrival → CPU done here.
                    let lat = self.cpu_free_at.as_nanos().saturating_sub(stamp);
                    self.req_lat.get_or_insert_with(Default::default).record(lat);
                }
            }
            other => panic!(
                "full-fidelity event {other:?} routed to abstract host {gh}; \
                 endpoints and threads exist only on Fidelity::Full hosts"
            ),
        }
    }

    /// Report this host's metrics into a snapshot (`host{h}.abs.*`).
    pub(crate) fn record_metrics(&self, h: usize, out: &mut MetricsSnapshot) {
        out.record_set(&format!("host{h}.abs"), &self.nic.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_map_defaults_full() {
        let m = FidelityMap::full();
        assert_eq!(m.of(0), Fidelity::Full);
        assert_eq!(m.of(999), Fidelity::Full);
        assert_eq!(m.fabric(), Fidelity::Full);
        assert!(!m.any_abstract(100));
    }

    #[test]
    fn fidelity_map_overrides() {
        let mut m = FidelityMap::full();
        m.set_hosts(4..8, Fidelity::Abstract);
        assert_eq!(m.of(3), Fidelity::Full);
        assert_eq!(m.of(4), Fidelity::Abstract);
        assert_eq!(m.of(7), Fidelity::Abstract);
        assert_eq!(m.of(8), Fidelity::Full);
        assert!(m.any_abstract(16));
    }

    #[test]
    fn parse_grammar() {
        assert_eq!(FidelityMap::parse("full").unwrap(), FidelityMap::full());
        let m = FidelityMap::parse("abstract").unwrap();
        assert_eq!(m.of(0), Fidelity::Abstract);
        assert_eq!(m.fabric(), Fidelity::Full);

        let m = FidelityMap::parse("abstract:4-15,20").unwrap();
        assert_eq!(m.of(0), Fidelity::Full);
        assert_eq!(m.of(4), Fidelity::Abstract);
        assert_eq!(m.of(15), Fidelity::Abstract);
        assert_eq!(m.of(16), Fidelity::Full);
        assert_eq!(m.of(20), Fidelity::Abstract);

        let m = FidelityMap::parse("full:0-3;fabric=abstract").unwrap();
        assert_eq!(m.of(0), Fidelity::Full);
        assert_eq!(m.of(4), Fidelity::Abstract);
        assert_eq!(m.fabric(), Fidelity::Abstract);

        assert!(FidelityMap::parse("med").is_err());
        assert!(FidelityMap::parse("full:9-2").is_err());
        assert!(FidelityMap::parse("full;fabric=med").is_err());
    }

    #[test]
    fn abstract_nic_counts() {
        let mut nic = AbstractNic::new(HostId(3));
        let pkt = nic.make_packet(SimTime::ZERO, HostId(1), 256);
        assert_eq!(pkt.src, HostId(3));
        assert_eq!(pkt.dst, HostId(1));
        assert_eq!(pkt.bytes, 48 + 256);
        assert_eq!(nic.stats.sent, 1);
        assert_eq!(nic.stats.sent_bytes, 256);

        let mut rx = AbstractNic::new(HostId(1));
        rx.deliver(pkt.payload.clone(), false);
        assert_eq!(rx.stats.recvd, 1);
        assert_eq!(rx.stats.recv_bytes, 256);
        rx.deliver(pkt.payload, true);
        assert_eq!(rx.stats.corrupt_drops, 1);
        assert_eq!(rx.stats.recvd, 1, "corrupt frames are not received");
    }

    #[test]
    fn zipf_rank_golden_values() {
        // Fixed (u, n, s) → fixed ranks: pins the inverse CDF so a seed
        // reproduces the same target sequence forever.
        assert_eq!(zipf_rank(0.0, 1000, 1.0), 1);
        assert_eq!(zipf_rank(0.25, 1000, 1.0), 5);
        assert_eq!(zipf_rank(0.5, 1000, 1.0), 31);
        assert_eq!(zipf_rank(0.75, 1000, 1.0), 177);
        assert_eq!(zipf_rank(0.999999, 1000, 1.0), 999);
        assert_eq!(zipf_rank(0.5, 1000, 1.5), 3);
        assert_eq!(zipf_rank(0.5, 1000, 0.8), 95);
        // Degenerate and clamped inputs stay in range.
        assert_eq!(zipf_rank(1.5, 1000, 1.0), 999);
        assert_eq!(zipf_rank(-0.5, 1000, 1.0), 1);
        assert_eq!(zipf_rank(0.7, 1, 1.2), 1);
    }

    #[test]
    fn zipf_rank_mass_concentration() {
        // Under the continuous s=1 approximation, P(K ≤ k) = ln k / ln n.
        // Check empirical head mass against that within ±2%.
        let n = 100_000u64;
        let mut rng = SimRng::seed_from_u64(42);
        let draws = 200_000;
        let mut head = 0u64;
        for _ in 0..draws {
            if zipf_rank(rng.unit(), n, 1.0) <= 10 {
                head += 1;
            }
        }
        let expect = (10f64).ln() / (n as f64).ln();
        let got = head as f64 / draws as f64;
        assert!(
            (got - expect).abs() < 0.02,
            "P(K<=10) = {got:.4}, expected ≈ {expect:.4}"
        );
    }

    #[test]
    fn bounded_pareto_moments_and_tail() {
        let (lo, hi, alpha) = (64.0f64, 65536.0f64, 1.3f64);
        // Analytic mean of the bounded Pareto.
        let expect = (lo.powf(alpha) / (1.0 - (lo / hi).powf(alpha))) * (alpha / (alpha - 1.0))
            * (lo.powf(1.0 - alpha) - hi.powf(1.0 - alpha));
        let mut rng = SimRng::seed_from_u64(7);
        let draws = 200_000;
        let mut sum = 0.0;
        let mut over_4k = 0u64;
        for _ in 0..draws {
            let x = bounded_pareto(rng.unit(), lo, hi, alpha);
            assert!((lo..=hi).contains(&x), "sample {x} out of [{lo}, {hi}]");
            sum += x;
            if x > 4096.0 {
                over_4k += 1;
            }
        }
        let mean = sum / draws as f64;
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean:.1}, expected {expect:.1}"
        );
        // Heavy tail: P(X > 4096) ≈ (lo/4096)^α / (1 − (lo/hi)^α).
        let tail = (lo / 4096.0).powf(alpha) / (1.0 - (lo / hi).powf(alpha));
        let got = over_4k as f64 / draws as f64;
        assert!(
            (got - tail).abs() < 0.002,
            "P(X>4096) = {got:.4}, expected ≈ {tail:.4}"
        );
        // Degenerate bounds collapse to the floor.
        assert_eq!(bounded_pareto(0.9, 128.0, 128.0, 2.0), 128.0);
    }

    #[test]
    fn open_loop_stamp_and_size_survive_the_delay_fabric() {
        // One 777-byte request from host 0 to host 1 (a 2-host target
        // space leaves one choice) on an idle CPU: its latency is o_s,
        // then the fabric's delivery delay, then o_r.
        let mut c = crate::Cluster::builder()
            .hosts(2)
            .default_fidelity(Fidelity::Abstract)
            .fabric_fidelity(Fidelity::Abstract)
            .seed(5)
            .build();
        c.drive_open_loop(HostId(0), OpenLoopSpec {
            streams: 1,
            mean_gap: SimDuration::from_micros(20),
            requests: 1,
            zipf_s: 1.0,
            targets: 2,
            size_min: 777,
            size_max: 777,
            size_alpha: 1.3,
        });
        c.run_for(SimDuration::from_millis(1));

        // The same frame forged and timed outside the cluster.
        let w = c.world_of(HostId(1));
        let (o_s, o_r) = (w.cfg.cost.host_send, w.cfg.cost.host_recv);
        let fab = &w.fabric;
        let mut delay =
            DelayFabric::new(fab.config().clone(), fab.topology().clone(), FaultPlan::none(0));
        let stamp = SimTime::from_nanos(10_000);
        let on_wire = stamp + o_s;
        let pkt = AbstractNic::new(HostId(0)).make_request(on_wire, HostId(1), 777, 10_000);
        assert_eq!(pkt.bytes, DESCRIPTOR_BYTES + 777);
        let Phase1::Ingress { at, pkt, corrupt: false, .. } = delay.inject_src(on_wire, pkt) else {
            panic!("a fault-free fabric delivers");
        };
        let arrival = at + delay.complete_ingress(at, &pkt);
        assert_eq!(
            pkt.payload.kind,
            FrameKind::Abs { stamp_ns: 10_000, payload_bytes: 777, request: true }
        );

        let crate::HostSlot::Abstract(server) = w.slot(1) else { panic!("host 1 is abstract") };
        let served = server.request_latency().expect("request served");
        assert_eq!(served.count(), 1);
        let done = arrival + o_r;
        assert_eq!(served.sum(), (done.as_nanos() - stamp.as_nanos()) as u128);
        let (tx, rx) = (c.abs_stats(HostId(0)).unwrap(), c.abs_stats(HostId(1)).unwrap());
        assert_eq!((tx.sent, rx.recvd), (1, 1));
        assert_eq!(tx.sent_bytes, 777);
        assert_eq!(rx.recv_bytes, tx.sent_bytes);
    }

    #[test]
    #[should_panic(expected = "abstract frame")]
    fn abstract_frame_at_a_full_nic_fails_loudly() {
        let pkt = AbstractNic::new(HostId(0)).make_packet(SimTime::ZERO, HostId(1), 64);
        let mut nic = vnet_nic::Nic::new(HostId(1), vnet_nic::NicConfig::virtual_network(), 1);
        let mut outs = Vec::new();
        nic.on_packet(SimTime::ZERO, pkt.src, pkt.payload, false, &mut outs);
        // The firmware takes the frame up on its next step.
        while let Some(out) = outs.pop() {
            if let vnet_nic::NicOut::After(d, ev) = out {
                nic.on_event(SimTime::ZERO + d, ev, &mut outs);
            }
        }
    }
}
