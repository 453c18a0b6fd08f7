//! The composed cluster world: fabric + per-host models (NIC, segment
//! driver, thread scheduler, application threads — or an abstract LogP
//! source/sink), wired into one deterministic event graph.
//!
//! The world is fidelity-pluggable: each [`HostSlot`] holds one host
//! model ([`FullHost`] or [`crate::model::AbstractHost`]) and the
//! [`FabricSlot`] one fabric model, selected per node by
//! [`crate::config::ClusterConfig::fidelity`]. See [`crate::model`].
//!
//! A cluster is one `World` per executor shard, each owning a contiguous
//! range of global host ids for the cluster's whole lifetime (a
//! one-shard cluster's world owns every host). Events and accessors
//! speak global host ids.

use crate::config::{ClusterConfig, Mode};
use crate::control::{ControlPlane, CtlOp, MigPhase, MigState};
use crate::model::{AbsEvent, AbsStats, AbstractHost, FabricSlot, Fidelity};
use crate::sys::{Step, Sys, ThreadBody};
use crate::user::UserEpState;
use std::collections::HashMap;
use std::sync::Arc;
use vnet_net::{FaultOp, FaultPlan, HostId, Packet, Phase1, RouteOracle, Topology};
use vnet_nic::{
    DriverMsg, EpId, Frame, GlobalEp, Nic, NicConfig, NicEvent, NicMode, NicOut, ProtectionKey,
};
use vnet_os::{BlockReason, OsEvent, OsOut, Scheduler, SegmentDriver, Tid};
use vnet_sim::telemetry::{MetricValue, MetricsSnapshot};
use vnet_sim::{
    AuditHandle, Auditor, Ctx, SimDuration, SimRng, SimTime, SimWorld, Telemetry, TelemetryHandle,
    INGRESS_KEY_BIT,
};

/// Minimum CPU time charged per thread burst: no user-level loop runs in
/// zero time (guards against zero-cost livelock in misbehaving bodies).
const MIN_BURST: SimDuration = SimDuration::from_nanos(200);

/// Global event alphabet of the composed simulation.
#[derive(Debug)]
pub enum Event {
    /// NIC-internal event.
    Nic {
        /// Host index.
        host: u32,
        /// The event.
        ev: NicEvent,
    },
    /// OS-internal event (remap daemon, page-in).
    Os {
        /// Host index.
        host: u32,
        /// The event.
        ev: OsEvent,
    },
    /// A packet finishing its ascending (source-side) fabric hops: the
    /// descending-path reservation is made when this fires, in canonical
    /// `(time, source, sequence)` order, so the sequential and parallel
    /// executors contend for links identically.
    Ingress {
        /// Receiving host.
        host: u32,
        /// CRC failure flag decided at injection.
        corrupt: bool,
        /// The in-flight packet.
        pkt: Packet<Frame>,
    },
    /// Frame delivery from the fabric.
    Deliver {
        /// Receiving host.
        host: u32,
        /// Sending host.
        src: HostId,
        /// The frame.
        frame: Frame,
        /// CRC failure flag.
        corrupt: bool,
    },
    /// CPU dispatch step (generation-guarded).
    Cpu {
        /// Host index.
        host: u32,
        /// Generation stamp.
        gen: u64,
    },
    /// Timer wake for a sleeping thread.
    WakeThread {
        /// Host index.
        host: u32,
        /// The thread.
        tid: Tid,
    },
    /// Abstract-host internal event (traffic ticks and deferred sends);
    /// only ever addressed to [`Fidelity::Abstract`] hosts.
    Abs {
        /// Host index.
        host: u32,
        /// The event.
        ev: AbsEvent,
    },
    /// A fault-campaign transition (link flap edge, switch failure edge,
    /// degrade-window edge). Scheduled once per `(transition, host)` so
    /// every shard world receives it; each world applies the op to its
    /// fabric copy exactly once — on its own base host's event — which
    /// keeps every copy of the [`FaultPlan`] byte-identical at the same
    /// simulated instant regardless of the shard count.
    Fault {
        /// Host index (routing only; the op is fabric-global).
        host: u32,
        /// The state transition to apply.
        op: FaultOp,
    },
    /// A control-plane broadcast (reconcile tick or migration phase),
    /// replicated like [`Event::Fault`]: one copy per `(event, host)`.
    /// The copy addressed to a world's base host runs the replicated
    /// coordinator decision; the copy addressed to an acting host performs
    /// that host's local side effects (pageout, endpoint creation,
    /// translation retargeting). See [`crate::control`] for the model.
    Ctl {
        /// Host index (every host receives every control event).
        host: u32,
        /// Key sequence of this event in the control band (total order of
        /// same-instant control events; the per-host key appends `host`).
        kseq: u64,
        /// The operation.
        op: CtlOp,
    },
    /// Lame-duck teardown poll for a migrated-away source endpoint. The
    /// `Finish` phase lifts the migration hold instead of destroying the
    /// old incarnation outright; this host-local event (it never crosses a
    /// shard boundary) re-checks until the residual queues and in-flight
    /// sends have drained, then frees the endpoint — or forces the free
    /// after a bounded number of polls, resolving any still-queued sends
    /// in the audit ledger.
    CtlRetire {
        /// Host the retiring endpoint lives on.
        host: u32,
        /// The retiring endpoint.
        ep: EpId,
        /// Polls taken so far (caps the drain window).
        polls: u32,
    },
}

/// Same-instant ordering key for a control event copy addressed to `host`:
/// the control band sorts above canonical ingress (bit 61 set on top of
/// bit 63) and below the fault band (bit 62), and within the band orders
/// by `(kseq, host)` — so each world's base host (its lowest) decides
/// before any host acts.
pub(crate) fn ctl_key(kseq: u64, host: u32) -> u64 {
    (1 << 63) | (1 << 61) | (kseq << 20) | u64::from(host)
}

impl Event {
    /// The host this event must execute on (the parallel executor's shard
    /// router keys on this).
    pub(crate) fn target_host(&self) -> u32 {
        match self {
            Event::Nic { host, .. }
            | Event::Os { host, .. }
            | Event::Ingress { host, .. }
            | Event::Deliver { host, .. }
            | Event::Cpu { host, .. }
            | Event::WakeThread { host, .. }
            | Event::Abs { host, .. }
            | Event::Fault { host, .. }
            | Event::Ctl { host, .. }
            | Event::CtlRetire { host, .. } => *host,
        }
    }
}

/// Cadence of the lame-duck retire poll: frequent enough that a drained
/// endpoint is torn down promptly, coarse enough to stay off the hot path.
const CTL_RETIRE_POLL: SimDuration = SimDuration::from_micros(50);

/// Drain bound: after this many polls (10 ms) the old incarnation is freed
/// even if work remains — a partitioned peer must not pin it forever. The
/// forced free resolves the leftovers in the audit ledger.
const CTL_RETIRE_MAX_POLLS: u32 = 200;

struct ThreadRec {
    body: Option<Box<dyn ThreadBody>>,
    pending_compute: SimDuration,
}

struct CpuState {
    gen: u64,
    sched_at: SimTime,
    busy_until: SimTime,
}

/// The world-owned context a host model works against while handling
/// one event: the shared fabric, the rendezvous key table, the auditor,
/// and this world's host-ownership window (for routing injected
/// packets either into the local engine or into the cross-shard outbox).
pub struct HostEnv<'a> {
    pub(crate) cfg: &'a ClusterConfig,
    pub(crate) fabric: &'a mut FabricSlot,
    pub(crate) keys: &'a HashMap<GlobalEp, ProtectionKey>,
    pub(crate) auditor: &'a AuditHandle,
    pub(crate) outbox: &'a mut Vec<(SimTime, u64, bool, Packet<Frame>)>,
    pub(crate) base: u32,
    pub(crate) len: u32,
}

impl HostEnv<'_> {
    /// Whether this world owns global host `gh`.
    #[inline]
    fn owns(&self, gh: u32) -> bool {
        gh >= self.base && gh - self.base < self.len
    }

    /// Inject a packet into the fabric (phase 1) and route the resulting
    /// ingress: scheduled locally under its canonical `(time, source,
    /// sequence)` key when this world owns the destination, or pushed
    /// into the cross-shard outbox for the epoch barrier otherwise.
    /// The one injection path shared by every host model.
    pub(crate) fn inject(&mut self, now: SimTime, pkt: Packet<Frame>, ctx: &mut Ctx<'_, Event>) {
        match self.fabric.inject_src(now, pkt) {
            Phase1::Ingress { at, seq, corrupt, pkt } => {
                let key = INGRESS_KEY_BIT | ((pkt.src.0 as u64) << 40) | seq;
                if self.owns(pkt.dst.0) {
                    ctx.schedule_keyed_at(at, key, Event::Ingress { host: pkt.dst.0, corrupt, pkt });
                } else {
                    // Crossing a shard boundary: a data frame's payload is
                    // a frozen `Arc` (an abstract frame has no body), so
                    // the epoch barrier moves a pointer — no copy of the
                    // message body.
                    self.outbox.push((at, key, corrupt, pkt));
                }
            }
            Phase1::Dropped { .. } => {}
        }
    }
}

/// The full-fidelity host: the complete §3–§6 machinery — NIC, endpoint
/// segment driver, thread scheduler, user-level endpoint state, thread
/// bodies, CPU accounting, and the host's RNG stream — exactly the
/// per-host state the pre-refactor `World` held in parallel vectors.
pub struct FullHost {
    /// The network interface.
    pub nic: Nic,
    /// The endpoint segment driver.
    pub os: SegmentDriver,
    /// The thread scheduler.
    pub sched: Scheduler,
    /// User-level endpoint state.
    pub user: HashMap<EpId, UserEpState>,
    threads: HashMap<Tid, ThreadRec>,
    cpu: CpuState,
    rng: SimRng,
    /// Control-plane-owned service threads, by the endpoint they serve
    /// (killed when the endpoint migrates away).
    ctl_threads: HashMap<EpId, Tid>,
}

impl FullHost {
    /// Apply NIC effects inside an event handler.
    fn apply_nic(
        &mut self,
        gh: u32,
        outs: Vec<NicOut>,
        env: &mut HostEnv<'_>,
        ctx: &mut Ctx<'_, Event>,
    ) {
        for o in outs {
            match o {
                NicOut::After(d, ev) => {
                    ctx.schedule(d, Event::Nic { host: gh, ev });
                }
                NicOut::Inject(pkt) => env.inject(ctx.now(), pkt, ctx),
                NicOut::Driver(msg) => self.handle_driver_msg(gh, msg, env, ctx),
            }
        }
    }

    /// Apply OS effects inside an event handler.
    fn apply_os(
        &mut self,
        gh: u32,
        outs: Vec<OsOut>,
        env: &mut HostEnv<'_>,
        ctx: &mut Ctx<'_, Event>,
    ) {
        for o in outs {
            match o {
                OsOut::Nic(op) => {
                    let mut nic_outs = Vec::new();
                    self.nic.driver_request(ctx.now(), op, &mut nic_outs);
                    self.apply_nic(gh, nic_outs, env, ctx);
                }
                OsOut::After(d, ev) => {
                    ctx.schedule(d, Event::Os { host: gh, ev });
                }
            }
        }
    }

    /// Route a NIC→driver message: segment-driver bookkeeping plus thread
    /// wakeups (the composing host owns the scheduler).
    fn handle_driver_msg(
        &mut self,
        gh: u32,
        msg: DriverMsg,
        env: &mut HostEnv<'_>,
        ctx: &mut Ctx<'_, Event>,
    ) {
        let wake_cost = env.cfg.os.wake_cost;
        match &msg {
            DriverMsg::Loaded { ep, .. } => {
                let ep = *ep;
                // Wake residency waiters, and event waiters too — a load
                // can deposit flushed returns before any fresh Event fires,
                // and spurious wakes are safe (bodies re-check and
                // re-block).
                let mut woken = 0;
                let tids: Vec<Tid> = self
                    .sched
                    .blocked_on_residency(ep)
                    .into_iter()
                    .chain(self.sched.blocked_on_event(ep))
                    .collect();
                for tid in tids {
                    ctx.schedule(wake_cost, Event::WakeThread { host: gh, tid });
                    woken += 1;
                }
                self.os.note_residency_wakes(woken);
            }
            DriverMsg::Event { ep, .. } => {
                let ep = *ep;
                let tids = self.sched.blocked_on_event(ep);
                self.os.note_event_wakes(tids.len() as u64);
                for tid in tids {
                    ctx.schedule(wake_cost, Event::WakeThread { host: gh, tid });
                }
            }
            _ => {}
        }
        let mut os_outs = Vec::new();
        self.os.on_nic_msg(ctx.now(), msg, &mut os_outs);
        self.apply_os(gh, os_outs, env, ctx);
    }

    // ---------------------------------------------------------------- CPU

    /// Ensure a CPU step is scheduled no later than the CPU's ready time.
    fn kick_cpu(&mut self, gh: u32, ctx: &mut Ctx<'_, Event>) {
        let ready = ctx.now().max(self.cpu.busy_until);
        if self.cpu.sched_at <= ready {
            return;
        }
        self.cpu.gen += 1;
        self.cpu.sched_at = ready;
        let gen = self.cpu.gen;
        ctx.schedule(ready - ctx.now(), Event::Cpu { host: gh, gen });
    }

    fn on_cpu(&mut self, gh: u32, gen: u64, env: &mut HostEnv<'_>, ctx: &mut Ctx<'_, Event>) {
        if gen != self.cpu.gen {
            return;
        }
        self.cpu.sched_at = SimTime::MAX;
        let now = ctx.now();
        if now < self.cpu.busy_until {
            self.kick_cpu(gh, ctx);
            return;
        }
        // Dispatch / preempt.
        if self.sched.current().is_none() {
            if !self.sched.has_runnable() {
                return; // CPU idles; wakes re-kick
            }
            let cost = self.sched.dispatch(now);
            if cost > SimDuration::ZERO {
                self.cpu.busy_until = now + cost;
                self.kick_cpu(gh, ctx);
                return;
            }
        } else if self.sched.preempt_if_due(now) {
            self.kick_cpu(gh, ctx);
            return;
        }
        let Some(tid) = self.sched.current() else {
            self.kick_cpu(gh, ctx);
            return;
        };
        // Continue a long compute without re-invoking the body.
        let pending = self.threads.get(&tid).map(|r| r.pending_compute);
        if let Some(pending) = pending {
            if pending > SimDuration::ZERO {
                let slice = if self.sched.ready_count() == 0 {
                    pending
                } else {
                    pending.min(self.sched.quantum_left(now)).max(MIN_BURST)
                };
                self.threads.get_mut(&tid).unwrap().pending_compute = pending - slice;
                self.cpu.busy_until = now + slice;
                self.kick_cpu(gh, ctx);
                return;
            }
        }
        // Run one burst of the body.
        let Some(rec) = self.threads.get_mut(&tid) else {
            // Registered in the scheduler but no body (shouldn't happen).
            self.sched.exit_current();
            self.kick_cpu(gh, ctx);
            return;
        };
        let Some(mut body) = rec.body.take() else {
            self.sched.exit_current();
            self.kick_cpu(gh, ctx);
            return;
        };
        let mut sys = Sys {
            now,
            host: HostId(gh),
            nic: &mut self.nic,
            os: &mut self.os,
            user: &mut self.user,
            keys: env.keys,
            cost: &env.cfg.cost,
            credits: env.cfg.credits,
            rng: &mut self.rng,
            elapsed: SimDuration::ZERO,
            nic_outs: Vec::new(),
            os_outs: Vec::new(),
            auditor: if env.cfg.audit { Some(env.auditor) } else { None },
        };
        let step = body.run(&mut sys);
        let elapsed = sys.elapsed.max(MIN_BURST);
        let nic_outs = std::mem::take(&mut sys.nic_outs);
        let os_outs = std::mem::take(&mut sys.os_outs);
        drop(sys);
        self.threads.get_mut(&tid).unwrap().body = Some(body);
        self.apply_nic(gh, nic_outs, env, ctx);
        self.apply_os(gh, os_outs, env, ctx);

        match step {
            Step::Compute(d) => {
                self.threads.get_mut(&tid).unwrap().pending_compute = d;
            }
            Step::Yield => {
                self.sched.yield_current();
            }
            Step::Sleep(d) => {
                self.sched.block_current(BlockReason::Sleep);
                ctx.schedule(elapsed + d, Event::WakeThread { host: gh, tid });
            }
            Step::WaitEvent(ep) => {
                // Arm the mask first, then re-check, to close the lost
                // wakeup window.
                if !self.nic.set_event_mask_direct(ep, true) {
                    if let Some(img) = self.os.host_image_mut(ep) {
                        img.notify_on_arrival = true;
                    }
                }
                let has = if self.nic.is_resident(ep) {
                    self.nic.recv_depths(ep).map(|(a, b)| a + b > 0).unwrap_or(false)
                } else {
                    self.os.host_image(ep).map(|i| i.has_received()).unwrap_or(false)
                };
                if has {
                    self.sched.yield_current();
                } else {
                    self.sched.block_current(BlockReason::EndpointEvent(ep));
                }
            }
            Step::WaitResident(ep) => {
                if self.nic.is_resident(ep) {
                    self.sched.yield_current();
                } else {
                    self.sched.block_current(BlockReason::Residency(ep));
                }
            }
            Step::Exit => {
                self.sched.exit_current();
            }
        }
        self.cpu.busy_until = now + elapsed;
        self.kick_cpu(gh, ctx);
    }
}

impl FullHost {
    /// Handle an event addressed to global host `gh`.
    fn on_event(&mut self, gh: u32, ev: Event, env: &mut HostEnv<'_>, ctx: &mut Ctx<'_, Event>) {
        match ev {
            Event::Nic { ev, .. } => {
                let mut outs = Vec::new();
                self.nic.on_event(ctx.now(), ev, &mut outs);
                self.apply_nic(gh, outs, env, ctx);
            }
            Event::Os { ev, .. } => {
                let mut outs = Vec::new();
                match ev {
                    OsEvent::DaemonStep => self.os.on_daemon_step(ctx.now(), &mut outs),
                    OsEvent::PageInDone { ep } => self.os.on_page_in_done(ctx.now(), ep, &mut outs),
                }
                self.apply_os(gh, outs, env, ctx);
            }
            Event::Deliver { src, frame, corrupt, .. } => {
                let mut outs = Vec::new();
                self.nic.on_packet(ctx.now(), src, frame, corrupt, &mut outs);
                self.apply_nic(gh, outs, env, ctx);
            }
            Event::Cpu { gen, .. } => {
                self.on_cpu(gh, gen, env, ctx);
            }
            Event::WakeThread { tid, .. } => {
                if self.sched.wake(tid) {
                    self.kick_cpu(gh, ctx);
                }
            }
            other => panic!("abstract/world event {other:?} routed to full host {gh}"),
        }
    }

    /// Report this host's metrics into a snapshot (`host{h}.nic.*`,
    /// `host{h}.os.*`).
    fn record_metrics(&self, h: usize, out: &mut MetricsSnapshot) {
        out.record_set(&format!("host{h}.nic"), self.nic.stats());
        out.record(format!("host{h}.nic.dma_bytes"), MetricValue::Counter(self.nic.dma().bytes()));
        out.record_set(&format!("host{h}.os"), self.os.stats());
    }
}

/// One host slot of the composed world: the host's model, dispatched
/// with a `match` (the same pattern as [`FabricSlot`]).
// `FullHost` is boxed because the enum's size is its largest variant:
// inline it is ~2.5 KB, and a fleet-scale world is almost all
// `AbstractHost` (~200 B) — 16k abstract slots would carry ~38 MB of
// dead padding. Full hosts pay one pointer chase per event, noise next
// to the work their handlers actually do.
pub enum HostSlot {
    /// The complete machinery.
    Full(Box<FullHost>),
    /// The LogP source/sink.
    Abstract(AbstractHost),
}

impl HostSlot {
    /// This slot's fidelity class.
    pub fn fidelity(&self) -> Fidelity {
        match self {
            HostSlot::Full(_) => Fidelity::Full,
            HostSlot::Abstract(_) => Fidelity::Abstract,
        }
    }

    fn on_event(&mut self, gh: u32, ev: Event, env: &mut HostEnv<'_>, ctx: &mut Ctx<'_, Event>) {
        match self {
            HostSlot::Full(f) => f.on_event(gh, ev, env, ctx),
            HostSlot::Abstract(a) => a.on_event(gh, ev, env, ctx),
        }
    }

    pub(crate) fn record_metrics(&self, h: usize, out: &mut MetricsSnapshot) {
        match self {
            HostSlot::Full(f) => f.record_metrics(h, out),
            HostSlot::Abstract(a) => a.record_metrics(h, out),
        }
    }

    fn full_ref(&self, h: usize) -> &FullHost {
        match self {
            HostSlot::Full(f) => f,
            HostSlot::Abstract(_) => panic!(
                "host {h} is Fidelity::Abstract; this operation (endpoints, threads, \
                 NIC/OS access) requires a full-fidelity host"
            ),
        }
    }

    fn full_mut(&mut self, h: usize) -> &mut FullHost {
        match self {
            HostSlot::Full(f) => f,
            HostSlot::Abstract(_) => panic!(
                "host {h} is Fidelity::Abstract; this operation (endpoints, threads, \
                 NIC/OS access) requires a full-fidelity host"
            ),
        }
    }
}

/// The composed world of one executor shard (see module docs).
pub struct World {
    /// Build configuration.
    pub cfg: ClusterConfig,
    /// This shard's copy of the network model (full or delay-only; see
    /// [`FabricSlot`]). Each link and each source host is exercised by
    /// exactly one shard, so per-shard counters sum to the cluster's.
    pub fabric: FabricSlot,
    /// Protection keys of every endpoint in the cluster (the rendezvous
    /// snapshot), replicated into every shard world.
    pub keys: HashMap<GlobalEp, ProtectionKey>,
    /// Cross-layer invariant auditor; every full-fidelity NIC and segment
    /// driver on this world reports protocol events into it (delivery
    /// ledger, credit conservation, stop-and-wait channel discipline,
    /// endpoint frame accounting). Abstract hosts report nothing.
    pub auditor: AuditHandle,
    /// The span log of this world's hosts: the one event log, shared by
    /// every NIC and segment driver. `Some` only when
    /// [`ClusterConfig::telemetry`] is set; with it absent no component
    /// holds hooks and the hot path pays nothing.
    pub telemetry: Option<TelemetryHandle>,
    /// Replicated cluster control plane (coordinator + reconcile loop);
    /// `None` until [`crate::cluster::Cluster::install_control`]. Every
    /// shard world carries an identical copy that evolves identically —
    /// see [`crate::control`] for the replication model.
    pub control: Option<Box<ControlPlane>>,
    /// The NICs' read-only view of the scheduled fault campaign; also the
    /// control plane's host-liveness verdict. Shared by every shard.
    pub(crate) oracle: Option<Arc<RouteOracle>>,
    hosts: Vec<HostSlot>,
    /// First global host id owned by this world. Events carry global host
    /// ids; handlers subtract `base` to index the local vectors.
    base: u32,
    /// Cross-shard packets produced this epoch: `(arrival, canonical
    /// ingress key, corrupt, packet)`. Always empty in a one-shard
    /// cluster — its world owns every host — and drained at each epoch
    /// barrier by the parallel executor.
    pub(crate) outbox: Vec<(SimTime, u64, bool, Packet<Frame>)>,
}

impl World {
    /// Build the shard world owning global hosts `[lo, hi)` of `topo`:
    /// its host slots plus its own fabric state, span log and auditor.
    /// `oracle` is the cluster's one read-only view of the scheduled
    /// fault campaign.
    pub(crate) fn new(
        cfg: ClusterConfig,
        topo: Topology,
        oracle: Option<Arc<RouteOracle>>,
        (lo, hi): (u32, u32),
    ) -> Self {
        let mut faults = if cfg.drop_prob > 0.0 || cfg.corrupt_prob > 0.0 {
            FaultPlan::with_errors(cfg.seed ^ 0xFA17, cfg.drop_prob, cfg.corrupt_prob)
        } else {
            FaultPlan::none(cfg.seed ^ 0xFA17)
        };
        if let Some(ge) = cfg.faults.bursty {
            faults.install_bursty(ge);
        }
        let fabric = FabricSlot::build(cfg.fidelity.fabric(), cfg.net.clone(), topo, faults);
        let mut nic_cfg: NicConfig = cfg.nic.clone();
        nic_cfg.mode = match cfg.mode {
            Mode::VirtualNetwork => NicMode::VirtualNetwork,
            Mode::Gam => NicMode::Gam,
        };
        let root = SimRng::seed_from_u64(cfg.seed);
        let auditor = Auditor::handle(cfg.credits);
        {
            let mut a = auditor.borrow_mut();
            // Abstract hosts never report endpoint/frame events, so they
            // need no audit slot — at fleet scale (16k mostly-abstract
            // hosts) registering everyone would buy nothing but heap.
            for i in lo..hi {
                if cfg.fidelity.of(i) == Fidelity::Full {
                    a.register_host(i, nic_cfg.frames);
                }
            }
        }
        let telemetry = if cfg.telemetry { Some(Telemetry::handle()) } else { None };
        let mut hosts: Vec<HostSlot> = Vec::with_capacity((hi - lo) as usize);
        for i in lo..hi {
            // Every host draws the same derived RNG stream whatever its
            // fidelity, so re-assigning fidelity never perturbs neighbors.
            let rng = root.derive(0x7000 + u64::from(i));
            match cfg.fidelity.of(i) {
                Fidelity::Abstract => {
                    hosts.push(HostSlot::Abstract(AbstractHost::new(HostId(i), rng)));
                }
                Fidelity::Full => {
                    let mut nic = Nic::new(HostId(i), nic_cfg.clone(), cfg.seed);
                    if let Some(o) = &oracle {
                        nic.attach_route_oracle(Arc::clone(o));
                    }
                    let mut os =
                        SegmentDriver::new(cfg.os.clone(), nic_cfg.frames, cfg.seed ^ u64::from(i));
                    if cfg.audit {
                        nic.attach_auditor(auditor.clone());
                        os.attach_auditor(i, auditor.clone());
                    }
                    if let Some(tel) = &telemetry {
                        nic.attach_telemetry(tel.clone());
                        os.attach_telemetry(i, tel.clone());
                    }
                    hosts.push(HostSlot::Full(Box::new(FullHost {
                        nic,
                        os,
                        sched: Scheduler::new(cfg.sched.clone()),
                        user: HashMap::new(),
                        threads: HashMap::new(),
                        cpu: CpuState {
                            gen: 0,
                            sched_at: SimTime::MAX,
                            busy_until: SimTime::ZERO,
                        },
                        rng,
                        ctl_threads: HashMap::new(),
                    })));
                }
            }
        }
        World {
            fabric,
            hosts,
            keys: HashMap::new(),
            auditor,
            telemetry,
            cfg,
            control: None,
            oracle,
            base: lo,
            outbox: Vec::new(),
        }
    }

    /// Global ids of the hosts this world owns.
    pub fn host_ids(&self) -> std::ops::Range<usize> {
        self.base as usize..self.base as usize + self.hosts.len()
    }

    // ------------------------------------------------------ host access
    //
    // Accessors take global host ids (the host must live in this world)
    // and panic with a clear message on abstract slots: endpoints,
    // threads, and the NIC/OS machinery exist only at full fidelity.

    /// The host slot of global host `h` (fidelity inspection, metrics).
    pub fn slot(&self, h: usize) -> &HostSlot {
        &self.hosts[self.hx(h as u32)]
    }

    fn slot_mut(&mut self, h: usize) -> &mut HostSlot {
        let i = self.hx(h as u32);
        &mut self.hosts[i]
    }

    fn full(&self, h: usize) -> &FullHost {
        self.slot(h).full_ref(h)
    }

    fn full_mut(&mut self, h: usize) -> &mut FullHost {
        self.slot_mut(h).full_mut(h)
    }

    /// The fidelity of host `h`.
    pub fn fidelity_of(&self, h: usize) -> Fidelity {
        self.slot(h).fidelity()
    }

    /// The NIC of host `h`, when `h` is full-fidelity.
    pub fn try_nic(&self, h: usize) -> Option<&Nic> {
        match self.slot(h) {
            HostSlot::Full(f) => Some(&f.nic),
            HostSlot::Abstract(_) => None,
        }
    }

    /// The NIC of host `h` (panics on an abstract host).
    pub fn nic(&self, h: usize) -> &Nic {
        &self.full(h).nic
    }

    /// Mutable NIC of host `h` (panics on an abstract host).
    pub fn nic_mut(&mut self, h: usize) -> &mut Nic {
        &mut self.full_mut(h).nic
    }

    /// The segment driver of host `h` (panics on an abstract host).
    pub fn os(&self, h: usize) -> &SegmentDriver {
        &self.full(h).os
    }

    /// Mutable segment driver of host `h` (panics on an abstract host) —
    /// pageout control, fault proxying.
    pub fn os_mut(&mut self, h: usize) -> &mut SegmentDriver {
        &mut self.full_mut(h).os
    }

    /// The thread scheduler of host `h` (panics on an abstract host).
    pub fn sched(&self, h: usize) -> &Scheduler {
        &self.full(h).sched
    }

    /// User-level endpoint state on host `h`, created if absent (panics
    /// on an abstract host).
    pub(crate) fn user_entry(&mut self, h: usize, ep: EpId) -> &mut UserEpState {
        self.full_mut(h).user.entry(ep).or_default()
    }

    /// Remove user-level endpoint state on host `h`.
    pub(crate) fn user_remove(&mut self, h: usize, ep: EpId) {
        self.full_mut(h).user.remove(&ep);
    }

    /// The abstract host `h`, when that is what is registered.
    pub(crate) fn abstract_host_mut(&mut self, h: usize) -> Option<&mut AbstractHost> {
        match self.slot_mut(h) {
            HostSlot::Abstract(a) => Some(a),
            HostSlot::Full(_) => None,
        }
    }

    /// Total sends denied by tenant byte quotas across every endpoint on
    /// this world's full-fidelity hosts (the noisy-neighbor signal; `ctl.*`
    /// telemetry surfaces the cluster sum as `ctl.quota_denials`).
    pub fn quota_denials(&self) -> u64 {
        self.hosts
            .iter()
            .filter_map(|s| match s {
                HostSlot::Full(f) => Some(f),
                HostSlot::Abstract(_) => None,
            })
            .flat_map(|f| f.user.values())
            .filter_map(|u| u.quota.as_ref())
            .map(|q| q.denied)
            .sum()
    }

    /// Coarse counters of an abstract host (None for full-fidelity hosts,
    /// which report full `host{N}.nic.*` / `host{N}.os.*` stats instead).
    pub fn abs_stats(&self, h: usize) -> Option<&AbsStats> {
        match self.slot(h) {
            HostSlot::Abstract(a) => Some(a.stats()),
            HostSlot::Full(_) => None,
        }
    }

    // ------------------------------------------------------- host indexing

    /// Local vector index of global host `gh` (must be owned).
    #[inline]
    fn hx(&self, gh: u32) -> usize {
        debug_assert!(self.owns(gh), "host {gh} is not owned by this shard world");
        (gh - self.base) as usize
    }

    /// Whether this world owns global host `gh`.
    #[inline]
    fn owns(&self, gh: u32) -> bool {
        gh >= self.base && ((gh - self.base) as usize) < self.hosts.len()
    }

    // ------------------------------------------------- control-plane glue

    /// Apply segment-driver effects raised by a control-plane action inside
    /// an event handler (same split-borrow shape as [`World::dispatch`]).
    fn ctl_apply_os(&mut self, gh: u32, outs: Vec<OsOut>, ctx: &mut Ctx<'_, Event>) {
        let h = self.hx(gh);
        let World { cfg, fabric, hosts, keys, auditor, outbox, base, .. } = self;
        let len = hosts.len() as u32;
        let mut env = HostEnv { cfg, fabric, keys, auditor, outbox, base: *base, len };
        let HostSlot::Full(f) = &mut hosts[h] else { return };
        f.apply_os(gh, outs, &mut env, ctx);
    }

    /// Host-local side effects of a control operation, run on the event
    /// copy addressed to `host` *after* the world's replicated decision
    /// step. Each arm guards on the acting host, so a broadcast op touches
    /// exactly the hosts it names.
    fn ctl_local(&mut self, now: SimTime, host: u32, op: &CtlOp, ctx: &mut Ctx<'_, Event>) {
        let CtlOp::Mig { id, phase } = op else { return };
        // Gather everything needed from the replicated state up front (the
        // borrow ends before host mutation starts).
        let Some((rec, factory, conns)) = self.control.as_deref().and_then(|ctl| {
            let rec = ctl.migration(*id)?.clone();
            let factory = ctl
                .managed(rec.vid)
                .and_then(|m| ctl.spec.tenants.get(m.tenant as usize))
                .map(|t| t.factory.clone());
            let conns: Vec<(u32, EpId, usize)> = ctl
                .connections()
                .iter()
                .filter(|c| c.target_vid == rec.vid)
                .filter_map(|c| ctl.managed(c.client_vid).map(|m| (m.host, m.ep, c.idx)))
                .collect();
            Some((rec, factory, conns))
        }) else {
            return;
        };
        let h = host as usize;
        match phase {
            MigPhase::Drain if host == rec.from => {
                let mut outs = Vec::new();
                self.full_mut(h).os.begin_migrate_out(now, rec.from_ep, &mut outs);
                self.ctl_apply_os(host, outs, ctx);
            }
            MigPhase::CreateDst if host == rec.to && rec.state == MigState::Created => {
                let gep = GlobalEp::new(HostId(host), rec.to_ep);
                let mut outs = Vec::new();
                {
                    let f = self.full_mut(h);
                    f.os.create_endpoint_with_id(now, rec.to_ep, rec.key, &mut outs);
                    f.user.entry(rec.to_ep).or_default();
                }
                self.ctl_apply_os(host, outs, ctx);
                // Warm the new incarnation: a proxy fault starts the remap
                // pipeline so it is resident before clients retarget.
                let mut outs = Vec::new();
                self.full_mut(h).os.proxy_fault(now, rec.to_ep, &mut outs);
                self.ctl_apply_os(host, outs, ctx);
                if let Some(factory) = factory {
                    let body = factory(gep);
                    let tid = self.spawn_thread_raw(h, body);
                    let f = self.full_mut(h);
                    f.ctl_threads.insert(rec.to_ep, tid);
                    f.kick_cpu(host, ctx);
                }
            }
            MigPhase::Retarget if rec.state == MigState::Retargeted => {
                let target = GlobalEp::new(HostId(rec.to), rec.to_ep);
                for (ch, cep, idx) in conns {
                    if ch == host {
                        self.user_entry(h, cep).set_translation(idx, target, rec.key);
                    }
                }
            }
            MigPhase::Finish if host == rec.from && rec.state == MigState::Done => {
                // Lift the migration hold and retire the old incarnation as
                // a lame duck: work it accepted before the drain began —
                // queued replies, delivered-but-unpolled requests — is
                // served out before the endpoint is destroyed, so no
                // message silently loses its fate (and no client wedges on
                // a credit whose reply died with the source image).
                let mut outs = Vec::new();
                self.full_mut(h).os.end_migrate_hold(now, rec.from_ep, &mut outs);
                self.ctl_apply_os(host, outs, ctx);
                self.ctl_retire(now, host, rec.from_ep, 0, ctx);
            }
            _ => {}
        }
    }

    /// One lame-duck retire poll (the `Finish` phase's teardown tail): free
    /// the migrated-away endpoint once the OS image and the NIC both report
    /// it dry, nudging the drain and re-polling otherwise. Host-local, so
    /// the cadence is identical under any shard count. After
    /// [`CTL_RETIRE_MAX_POLLS`] the free is forced (a dead peer or a
    /// partitioned fabric must not pin the source host forever) and any
    /// still-queued sends resolve as aborted in the audit ledger.
    fn ctl_retire(&mut self, now: SimTime, host: u32, ep: EpId, polls: u32, ctx: &mut Ctx<'_, Event>) {
        let h = host as usize;
        let f = self.full_mut(h);
        if !f.os.exists(ep) {
            return; // already torn down
        }
        let quiet = f.os.drained(ep) && f.nic.is_quiet(ep);
        if !quiet && polls < CTL_RETIRE_MAX_POLLS {
            // Keep the residual work flowing: a held image with queued
            // sends re-enters the remap pipeline so they reach the wire.
            let mut outs = Vec::new();
            f.os.nudge_drain(now, ep, &mut outs);
            self.ctl_apply_os(host, outs, ctx);
            ctx.schedule(CTL_RETIRE_POLL, Event::CtlRetire { host, ep, polls: polls + 1 });
            return;
        }
        if let Some(tel) = &self.telemetry {
            let why = if quiet { "drained" } else { "drain bound expired" };
            let detail = format!("ep={} {why} after {polls} polls", ep.0);
            tel.borrow_mut().instant(now, host, "net", "ctl_retire", detail);
        }
        if let Some(tid) = self.full_mut(h).ctl_threads.remove(&ep) {
            self.kill_thread(h, tid);
            self.full_mut(h).kick_cpu(host, ctx);
        }
        let mut outs = Vec::new();
        self.full_mut(h).os.complete_migrate_out(now, ep, &mut outs);
        self.ctl_apply_os(host, outs, ctx);
        self.user_remove(h, ep);
        // Host-local: other shard worlds keep the retired key, which only
        // addresses an endpoint that no longer exists.
        self.keys.remove(&GlobalEp::new(HostId(host), ep));
        // Late frames addressed to the old incarnation now return to their
        // senders as undeliverable — the designed path.
        self.auditor.borrow_mut().on_endpoint_destroyed(host, ep.0);
    }

    /// Split-borrow helper: the slot of global host `gh` plus the
    /// [`HostEnv`] over every other field, ready for [`HostSlot`]
    /// dispatch.
    fn dispatch(&mut self, gh: u32, ev: Event, ctx: &mut Ctx<'_, Event>) {
        let h = self.hx(gh);
        let World { cfg, fabric, hosts, keys, auditor, outbox, base, .. } = self;
        let len = hosts.len() as u32;
        let mut env = HostEnv { cfg, fabric, keys, auditor, outbox, base: *base, len };
        hosts[h].on_event(gh, ev, &mut env, ctx);
    }

    // ----------------------------------------------------- setup (no ctx)

    /// Allocate an endpoint on `host` under protection key `key` (drawn
    /// by the caller from the cluster's one key stream). Effects are
    /// returned for the caller (the [`crate::Cluster`] facade) to inject
    /// into the engine. Panics if `host` is abstract.
    pub(crate) fn create_endpoint_raw(
        &mut self,
        now: SimTime,
        host: usize,
        key: ProtectionKey,
    ) -> (GlobalEp, Vec<OsOut>) {
        let f = self.full_mut(host);
        let mut outs = Vec::new();
        let ep = f.os.create_endpoint(now, key, &mut outs);
        f.user.entry(ep).or_default();
        (GlobalEp::new(HostId(host as u32), ep), outs)
    }

    /// Spawn a thread with `body` on `host`. Panics if `host` is abstract.
    pub(crate) fn spawn_thread_raw(&mut self, host: usize, body: Box<dyn ThreadBody>) -> Tid {
        let f = self.full_mut(host);
        let tid = f.sched.spawn();
        f.threads.insert(tid, ThreadRec { body: Some(body), pending_compute: SimDuration::ZERO });
        tid
    }

    /// Record `tid` as the control-plane service thread for `ep` on `host`
    /// (killed when the endpoint migrates away).
    pub(crate) fn note_ctl_thread(&mut self, host: usize, ep: EpId, tid: Tid) {
        self.full_mut(host).ctl_threads.insert(ep, tid);
    }

    /// Immutable access to a thread body, downcast to its concrete type.
    pub fn body<T: ThreadBody>(&self, host: usize, tid: Tid) -> Option<&T> {
        let HostSlot::Full(f) = self.slot(host) else { return None };
        let rec = f.threads.get(&tid)?;
        let body = rec.body.as_deref()?;
        (body as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Forcibly terminate a thread (process exit): its body is dropped and
    /// it will never be scheduled again.
    pub(crate) fn kill_thread(&mut self, host: usize, tid: Tid) {
        let f = self.full_mut(host);
        if let Some(rec) = f.threads.get_mut(&tid) {
            rec.body = None;
            rec.pending_compute = SimDuration::ZERO;
        }
        // If it is blocked, wake it so the scheduler can observe the exit
        // (the CPU loop exits bodies that have vanished).
        f.sched.wake(tid);
    }

    /// Prepare a CPU kick from outside an event handler (setup paths).
    /// Returns the event to schedule, if one is needed.
    pub(crate) fn prep_cpu_kick(
        &mut self,
        host: usize,
        now: SimTime,
    ) -> Option<(SimDuration, Event)> {
        let f = self.full_mut(host);
        let ready = now.max(f.cpu.busy_until);
        if f.cpu.sched_at <= ready {
            return None;
        }
        f.cpu.gen += 1;
        f.cpu.sched_at = ready;
        let gen = f.cpu.gen;
        Some((ready - now, Event::Cpu { host: host as u32, gen }))
    }
}

impl SimWorld for World {
    type Event = Event;

    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_, Event>) {
        match ev {
            Event::Ingress { host, corrupt, pkt } => {
                // Phase two of injection: reserve the descending-path links
                // now, then deliver after the residual fabric delay.
                let rest = self.fabric.complete_ingress(ctx.now(), &pkt);
                let src = pkt.src;
                ctx.schedule(rest, Event::Deliver { host, src, frame: pkt.payload, corrupt });
            }
            Event::Fault { host, op } => {
                debug_assert!(self.owns(host), "fault op routed to the wrong shard");
                // One application per fabric copy: the base host's event is
                // the shard's designated carrier; the others only exist so
                // the transition is schedulable under any partition.
                if host == self.base {
                    self.fabric.faults_mut().apply(&op);
                }
                // Observability fires once globally (host 0 lives on the
                // first shard).
                if host == 0 {
                    if let Some(tel) = &self.telemetry {
                        tel.borrow_mut().instant(ctx.now(), 0, "net", "fault", format!("{op:?}"));
                    }
                }
            }
            Event::Ctl { host, kseq, op } => {
                debug_assert!(self.owns(host), "control op routed to the wrong shard");
                let now = ctx.now();
                if host == self.base {
                    // The world's designated decider (its lowest host sorts
                    // first in the control key band): run the replicated
                    // coordinator step before any host-local action.
                    let oracle = self.oracle.clone();
                    let ctl = self
                        .control
                        .as_mut()
                        .expect("control event scheduled without a control plane");
                    ctl.process(now, kseq, &op, oracle.as_deref());
                    // A created migration destination's key is replicated
                    // state: every world learns it at this same instant.
                    if let CtlOp::Mig { id, phase: MigPhase::CreateDst } = op {
                        if let Some(rec) = ctl.migration(id).filter(|r| r.state == MigState::Created) {
                            self.keys.insert(GlobalEp::new(HostId(rec.to), rec.to_ep), rec.key);
                        }
                    }
                }
                // Every host copy schedules its own broadcast of the
                // follow-ups the decision produced, so each shard's wheel
                // holds exactly the events its hosts will handle.
                let entries: Vec<(SimTime, u64, CtlOp)> = self
                    .control
                    .as_deref()
                    .expect("control event scheduled without a control plane")
                    .entries_for(kseq)
                    .to_vec();
                for (at, k2, op2) in entries {
                    ctx.schedule_keyed_at(
                        at,
                        ctl_key(k2, host),
                        Event::Ctl { host, kseq: k2, op: op2 },
                    );
                }
                self.ctl_local(now, host, &op, ctx);
                if host == 0 {
                    if let Some(tel) = &self.telemetry {
                        tel.borrow_mut().instant(now, 0, "net", "ctl", format!("{op:?}"));
                    }
                }
            }
            Event::CtlRetire { host, ep, polls } => {
                debug_assert!(self.owns(host), "retire poll routed to the wrong shard");
                self.ctl_retire(ctx.now(), host, ep, polls, ctx);
            }
            // Every remaining event is addressed to one host; dispatch
            // through its registered model.
            ev => self.dispatch(ev.target_host(), ev, ctx),
        }
    }
}
