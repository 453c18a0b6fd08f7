//! The `Cluster` facade: build a simulated cluster, create endpoints and
//! virtual networks, spawn application threads, and run.

use crate::builder::ClusterBuilder;
use crate::config::ClusterConfig;
use crate::control::{ControlPlane, ControlSpec, CtlOp, QuotaError};
use crate::model::{AbsEvent, AbsStats, AbstractTraffic, Fidelity, OpenLoopSpec};
use crate::names::NameService;
use crate::observe::ClusterTelemetry;
use crate::sys::ThreadBody;
use crate::user::EpQuota;
use crate::world::{ctl_key, Event, HostSlot, World};
use std::cell::Cell;
use std::sync::Arc;
use vnet_net::{FaultOp, HostId, LinkId, Packet, Partition, RouteOracle, Topology};
use vnet_nic::{EpId, Frame, GlobalEp, Nic, NicOut, ProtectionKey};
use vnet_os::{OsOut, Scheduler, SegmentDriver, Tid};
use vnet_sim::stats::LogHistogram;
use vnet_sim::{
    run_conservative, Auditor, Engine, ParShard, SendCell, SimDuration, SimRng, SimTime,
};

/// How many of the most recent span-log events a failed audit's report
/// carries.
const AUDIT_LOG_TAIL: usize = 64;

/// One executor shard: a world owning a contiguous range of hosts for
/// the cluster's whole lifetime, married to the engine holding its
/// pending events (which may share `Rc` state with its hosts).
struct Shard {
    engine: Engine<World>,
    world: World,
}

/// A shard lent to the conservative executor for one run.
struct ShardRun<'a> {
    shard: &'a mut Shard,
    part: &'a Partition,
}

impl ParShard for ShardRun<'_> {
    // A cross-shard packet: `(canonical ingress key, corrupt, packet)`.
    // Genuinely `Send`: the wire frame's payload is a frozen `Arc`, so
    // crossing the shard boundary moves a pointer, never a copy of the
    // message body.
    type Mail = (u64, bool, Packet<Frame>);

    fn run_until(&mut self, deadline: SimTime) {
        let Shard { engine, world } = &mut *self.shard;
        engine.run_until(world, deadline);
    }

    fn next_at_bound(&self) -> Option<SimTime> {
        self.shard.engine.next_at_bound()
    }

    fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>) {
        for (at, key, corrupt, pkt) in self.shard.world.outbox.drain(..) {
            let dst = self.part.shard_of(pkt.dst.0) as usize;
            out.push((dst, at, (key, corrupt, pkt)));
        }
    }

    fn ingest(&mut self, at: SimTime, (key, corrupt, pkt): Self::Mail) {
        let ev = Event::Ingress { host: pkt.dst.0, corrupt, pkt };
        self.shard.engine.schedule_keyed_at(at, key, ev);
    }

    fn last_event_at(&self) -> Option<SimTime> {
        self.shard.engine.last_event_at()
    }

    fn now(&self) -> SimTime {
        self.shard.engine.now()
    }

    fn sync_now(&mut self, t: SimTime) {
        self.shard.engine.sync_now(t);
    }
}

/// A complete simulated cluster: one persistent `(engine, world)` shard
/// per partition range, run by the conservative executor.
pub struct Cluster {
    /// Built once in [`Cluster::new`] and never split or merged; a
    /// one-shard cluster takes the same executor path (no thread, no
    /// barrier). Every shard engine sits at the same clock between runs.
    shards: Vec<Shard>,
    /// The stable host partition behind `shards`; its lookahead bounds
    /// the executor's epochs.
    part: Partition,
    /// Executor worker threads: this machine's core count, read on the
    /// first run with more than one shard (see [`Cluster::run_to`]).
    /// Shards beyond it are stepped in groups; results never depend on it.
    workers: Option<usize>,
    /// The cluster's one protection-key stream: keys are drawn in endpoint
    /// creation order across all hosts, so they never depend on the shard
    /// count.
    key_rng: SimRng,
    names: NameService,
    /// Run [`Cluster::audit`] automatically at every `run_for` /
    /// `run_until` / `settle` boundary in debug builds, panicking on the
    /// first violation (with the span-log tail). On by default; mutation
    /// tests that *expect* violations turn it off through
    /// `cluster.telemetry().set_debug_audit(false)` and call
    /// [`Cluster::audit`] themselves. A `Cell` so the shared-borrow
    /// [`ClusterTelemetry`] facade can flip it.
    debug_audit: Cell<bool>,
    /// Last scheduled fault-campaign transition (`SimTime::ZERO` when no
    /// campaign is configured); see [`Cluster::check_recovery`].
    fault_horizon: SimTime,
    /// Largest `P` such that hosts `[0, P)` are all abstract, computed on
    /// first use. Caching it keeps [`Cluster::drive_open_loop`]'s
    /// target-space fidelity check O(hosts) total instead of O(hosts²)
    /// when a fleet drives a population on every host. Fidelity is fixed
    /// at build time, so the cache never invalidates.
    abs_prefix: Cell<Option<u32>>,
}

impl Cluster {
    /// Build a cluster from configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let topo = Topology::build(cfg.topology.clone());
        let part = Partition::plan(&topo, &cfg.net, cfg.shards);
        let ops = if cfg.faults.is_empty() { Vec::new() } else { cfg.faults.compile(&topo) };
        // The route oracle is the NICs' read-only view of the *scheduled*
        // campaign (administrative hot-swaps stay invisible to it). Built
        // once, shared by every NIC on every shard.
        let oracle = (!cfg.faults.is_empty())
            .then(|| Arc::new(RouteOracle::new(topo.clone(), &cfg.faults)));
        let key_rng = SimRng::seed_from_u64(cfg.seed).derive(0x4B45_5953);
        let shards = std::iter::repeat_n(cfg, part.shards() as usize)
            .zip(0..)
            .map(|(cfg, s)| Shard {
                engine: Engine::new(),
                world: World::new(cfg, topo.clone(), oracle.clone(), part.range(s)),
            })
            .collect();
        let mut c = Cluster {
            shards,
            part,
            workers: None,
            key_rng,
            names: NameService::new(),
            debug_audit: Cell::new(true),
            fault_horizon: SimTime::ZERO,
            abs_prefix: Cell::new(None),
        };
        c.schedule_campaign(ops);
        c
    }

    /// Lower the configured fault campaign into engine events: every
    /// transition is scheduled once per `(transition, host)` at its exact
    /// simulated time, keyed above the ingress band so same-instant
    /// ordering against packets is canonical. Each shard world applies
    /// the op on its base host's event (see `Event::Fault`), so the
    /// campaign is byte-identical under any shard count.
    fn schedule_campaign(&mut self, ops: Vec<(SimTime, FaultOp)>) {
        if ops.is_empty() {
            return;
        }
        self.fault_horizon = ops.last().map_or(SimTime::ZERO, |&(t, _)| t);
        let hosts = self.hosts() as u32;
        for (i, (at, op)) in ops.into_iter().enumerate() {
            for host in 0..hosts {
                let key = (1 << 63) | (1 << 62) | ((i as u64) << 20) | host as u64;
                self.sched_keyed_at(at, key, Event::Fault { host, op });
            }
        }
    }

    /// The last scheduled fault-campaign transition instant
    /// (`SimTime::ZERO` when no campaign is configured) — the horizon
    /// after which [`Cluster::check_recovery`] demands quiescence.
    pub fn fault_horizon(&self) -> SimTime {
        self.fault_horizon
    }

    /// Check the bounded time-to-recovery invariant: every message posted
    /// to the delivery ledger must have reached a terminal fate (acked,
    /// returned to sender, or dropped pre-binding) by the fault horizon
    /// plus `bound`. Call after the run; violations persist and surface
    /// through [`Cluster::audit`]. A no-op while `now` is still inside
    /// the grace window.
    pub fn check_recovery(&self, bound: SimDuration) {
        let (now, horizon) = (self.now(), self.fault_horizon);
        self.check_fold(|a| a.check_recovery(now, horizon, bound));
    }

    /// Check per-tenant byte-quota conservation over the whole cluster:
    /// in every epoch, the bytes admitted for a tenant (summed across
    /// shards) stay within its declared allowance. Call after the run;
    /// violations persist and surface through [`Cluster::audit`].
    pub fn check_tenant_quota(&self) {
        self.check_fold(Auditor::check_tenant_quota);
    }

    /// Run a cluster-wide check on the folded auditor and keep what it
    /// finds: the new violations are recorded in the first shard's
    /// auditor, so every later fold reports them.
    fn check_fold(&self, check: impl FnOnce(&mut Auditor)) {
        let mut fold = self.auditor();
        let (kept, total) = (fold.violations().len(), fold.total_violations());
        check(&mut fold);
        self.shards[0]
            .world
            .auditor
            .borrow_mut()
            .record_found(&fold.violations()[kept..], fold.total_violations() - total);
    }

    /// Number of worker shards the cluster actually runs with (after
    /// clamping the configured count to what the topology supports).
    pub fn shards(&self) -> u32 {
        self.part.shards()
    }

    /// Fluent construction: `Cluster::builder().hosts(32).telemetry(true)
    /// .build()`. See [`ClusterBuilder`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// The unified observability handle: metrics snapshots and deltas,
    /// the span log and its Perfetto export, and the invariant audit.
    pub fn telemetry(&self) -> ClusterTelemetry<'_> {
        ClusterTelemetry::new(self)
    }

    /// Current simulated time (every shard engine agrees between runs).
    pub fn now(&self) -> SimTime {
        self.shards[0].engine.now()
    }

    /// Total events processed, summed over every shard engine.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.events_processed()).sum()
    }

    /// Events still queued across every engine.
    fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.engine.queue_len()).sum()
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.part.range(self.part.shards() - 1).1 as usize
    }

    /// Every shard world, in host order.
    pub(crate) fn worlds(&self) -> impl Iterator<Item = &World> {
        self.shards.iter().map(|s| &s.world)
    }

    fn shard_of(&self, host: u32) -> usize {
        self.part.shard_of(host) as usize
    }

    /// The shard world owning `host` (full component access for
    /// instrumentation). Its host accessors take global host ids.
    pub fn world_of(&self, host: HostId) -> &World {
        &self.shards[self.shard_of(host.0)].world
    }

    /// Mutable access to the shard world owning `host` (pageout control,
    /// direct component pokes).
    pub fn world_of_mut(&mut self, host: HostId) -> &mut World {
        let s = self.shard_of(host.0);
        &mut self.shards[s].world
    }

    /// The cluster-wide invariant auditor (counters, message fates, raw
    /// violation records): every shard's auditor folded on demand (see
    /// [`Auditor::fold`]), plus whatever the cluster-wide checks found.
    pub fn auditor(&self) -> Auditor {
        let shards: Vec<_> = self.shards.iter().map(|s| s.world.auditor.borrow()).collect();
        Auditor::fold(shards.iter().map(|a| &**a))
    }

    pub(crate) fn set_debug_audit_flag(&self, on: bool) {
        self.debug_audit.set(on);
    }

    /// Check every cross-layer invariant observed so far: exactly-once
    /// delivery, credit conservation, stop-and-wait channel discipline,
    /// and endpoint frame accounting. Returns `Err` with a full report —
    /// named violations plus a fixed-size tail of the folded span log —
    /// on the first check that fails.
    ///
    /// Also validates the *live* state (not just the event history): the
    /// number of resident endpoints on each NIC can never exceed its frame
    /// count.
    pub fn audit(&self) -> Result<(), String> {
        use std::fmt::Write;
        let a = self.auditor();
        let mut report = String::new();
        if a.has_violations() {
            let _ = writeln!(
                report,
                "invariant audit failed: {} violation(s) (showing {}):",
                a.total_violations(),
                a.violations().len()
            );
            for v in a.violations() {
                let _ = writeln!(report, "  {v}");
            }
        }
        for w in self.worlds() {
            for h in w.host_ids() {
                // Live checks apply to full-fidelity hosts only; abstract
                // hosts have no NIC residency machine to violate.
                let Some(nic) = w.try_nic(h) else { continue };
                let frames = nic.config().frames;
                let resident = nic.resident_count();
                if resident > frames as usize {
                    let _ = writeln!(
                        report,
                        "live check failed: h{h} has {resident} resident endpoints in {frames} frames"
                    );
                }
            }
        }
        if report.is_empty() {
            return Ok(());
        }
        if self.telemetry().enabled() {
            let log = self.telemetry().span_log();
            let lines: Vec<&str> = log.lines().collect();
            let tail = &lines[lines.len().saturating_sub(AUDIT_LOG_TAIL)..];
            let _ = writeln!(report, "span log, last {} of {} events:", tail.len(), lines.len());
            for l in tail {
                let _ = writeln!(report, "  {l}");
            }
        } else {
            report.push_str("(telemetry detached; build with telemetry(true) for event context)\n");
        }
        Err(report)
    }

    fn debug_audit_check(&self) {
        if cfg!(debug_assertions) && self.debug_audit.get() {
            if let Err(report) = self.audit() {
                panic!("{report}");
            }
        }
    }

    /// The NIC of `host` (panics on an abstract-fidelity host).
    pub fn nic(&self, host: HostId) -> &Nic {
        self.world_of(host).nic(host.idx())
    }

    /// The segment driver of `host` (panics on an abstract-fidelity host).
    pub fn os(&self, host: HostId) -> &SegmentDriver {
        self.world_of(host).os(host.idx())
    }

    /// The thread scheduler of `host` (panics on an abstract-fidelity
    /// host).
    pub fn sched(&self, host: HostId) -> &Scheduler {
        self.world_of(host).sched(host.idx())
    }

    /// The fidelity class of `host`.
    pub fn fidelity_of(&self, host: HostId) -> Fidelity {
        self.world_of(host).fidelity_of(host.idx())
    }

    /// Coarse traffic counters of an abstract host (`None` for
    /// full-fidelity hosts — read their NIC/OS stats instead).
    pub fn abs_stats(&self, host: HostId) -> Option<AbsStats> {
        self.world_of(host).abs_stats(host.idx()).copied()
    }

    /// Install a synthetic traffic pattern on an abstract host and start
    /// driving it. Panics unless `host` and every peer are
    /// [`Fidelity::Abstract`]: abstract traffic is forged wire frames
    /// with no endpoint protocol behind them, so a full-fidelity receiver
    /// would reject them (and a full host cannot source them). Coupling
    /// with full-fidelity hosts happens through the shared fabric, where
    /// abstract frames reserve links exactly like real ones.
    pub fn drive_abstract(&mut self, host: HostId, traffic: AbstractTraffic) {
        assert_eq!(
            self.fidelity_of(host),
            Fidelity::Abstract,
            "drive_abstract: {host} is full-fidelity; spawn threads instead"
        );
        for &p in &traffic.peers {
            assert_eq!(
                self.fidelity_of(p),
                Fidelity::Abstract,
                "drive_abstract: peer {p} of {host} is full-fidelity; abstract \
                 traffic may only target abstract hosts"
            );
        }
        assert!(!traffic.peers.is_empty(), "drive_abstract: no peers");
        self.world_of_mut(host)
            .abstract_host_mut(host.idx())
            .expect("fidelity checked above")
            .set_traffic(traffic);
        self.sched_ev(SimDuration::ZERO, Event::Abs { host: host.0, ev: AbsEvent::Tick });
    }

    /// Install an open-loop client population on an abstract host and
    /// start its arrival streams (see [`OpenLoopSpec`]): requests arrive
    /// by Poisson process regardless of how far behind the host CPU is,
    /// target hosts by rotated Zipf rank, and carry bounded-Pareto
    /// payloads. Panics unless `host` and every host in the target space
    /// `[0, spec.targets)` are [`Fidelity::Abstract`] — like
    /// [`Cluster::drive_abstract`], open-loop traffic is forged wire
    /// frames only another abstract NIC may receive.
    pub fn drive_open_loop(&mut self, host: HostId, spec: OpenLoopSpec) {
        assert_eq!(
            self.fidelity_of(host),
            Fidelity::Abstract,
            "drive_open_loop: {host} is full-fidelity; spawn threads instead"
        );
        assert!(
            spec.targets as usize <= self.hosts(),
            "drive_open_loop: target space [0, {}) exceeds the {}-host cluster",
            spec.targets,
            self.hosts()
        );
        let abs_prefix = self.abs_prefix.get().unwrap_or_else(|| {
            let p = self
                .worlds()
                .flat_map(|w| w.host_ids().map(move |h| w.fidelity_of(h)))
                .position(|f| f != Fidelity::Abstract)
                .unwrap_or(self.hosts()) as u32;
            self.abs_prefix.set(Some(p));
            p
        });
        assert!(
            spec.targets <= abs_prefix,
            "drive_open_loop: target host {abs_prefix} is full-fidelity; open-loop \
             requests may only target abstract hosts"
        );
        let delays = self
            .world_of_mut(host)
            .abstract_host_mut(host.idx())
            .expect("fidelity checked above")
            .start_open_loop(spec);
        for (stream, d) in delays.into_iter().enumerate() {
            self.sched_ev(d, Event::Abs {
                host: host.0,
                ev: AbsEvent::Arrive { stream: stream as u32 },
            });
        }
    }

    /// Every host slot in host order, across shards.
    fn slots(&self) -> impl Iterator<Item = &HostSlot> {
        self.worlds().flat_map(|w| w.host_ids().map(move |h| w.slot(h)))
    }

    /// Fold every abstract host's served-request latency histogram into
    /// one cluster-wide [`LogHistogram`] (arrival at the source → `o_r`
    /// cleared at the server). Host-order accumulation of a commutative
    /// merge: byte-identical for any shard or core count.
    pub fn open_loop_latency(&self) -> LogHistogram {
        let mut all = LogHistogram::default();
        for slot in self.slots() {
            if let HostSlot::Abstract(a) = slot {
                if let Some(l) = a.request_latency() {
                    all.absorb(l);
                }
            }
        }
        all
    }

    /// Open-loop requests not yet emitted, summed across hosts (zero
    /// once every driven population has drained).
    pub fn open_loop_remaining(&self) -> u64 {
        self.slots()
            .map(|slot| match slot {
                HostSlot::Abstract(a) => a.open_loop_remaining(),
                HostSlot::Full(_) => 0,
            })
            .sum()
    }

    /// Total sends denied by tenant byte quotas, summed over every shard
    /// (the noisy-neighbor signal, `ctl.quota_denials` in snapshots).
    pub fn quota_denials(&self) -> u64 {
        self.worlds().map(World::quota_denials).sum()
    }

    // ------------------------------------------------------------- setup

    /// Allocate an endpoint on `host` (registers with the NIC; starts
    /// non-resident in the on-host r/o state).
    pub fn create_endpoint(&mut self, host: HostId) -> GlobalEp {
        let now = self.now();
        let key = ProtectionKey(self.key_rng.below(u64::MAX - 1) + 1);
        let (gep, outs) = self.world_of_mut(host).create_endpoint_raw(now, host.idx(), key);
        self.insert_key(gep, key);
        self.apply_os_ext(host.idx(), outs);
        gep
    }

    /// Publish `gep`'s protection key to every shard world (remote
    /// senders look it up when they install a translation).
    fn insert_key(&mut self, gep: GlobalEp, key: ProtectionKey) {
        for s in &mut self.shards {
            s.world.keys.insert(gep, key);
        }
    }

    /// Register an endpoint under a well-known name (§3.1 rendezvous:
    /// "the names can be obtained by any rendezvous mechanism").
    pub fn register_name(&mut self, name: impl Into<String>, ep: GlobalEp) {
        self.names.register(name, ep);
    }

    /// Resolve a name and install it in `from`'s translation table —
    /// the full §3.1 flow: rendezvous, then endpoint-relative addressing.
    pub fn connect_by_name(&mut self, from: GlobalEp, idx: usize, name: &str) -> bool {
        match self.names.lookup(name) {
            Some(dst) => {
                self.connect(from, idx, dst);
                true
            }
            None => false,
        }
    }

    /// Install translation `idx → dst` (with dst's key) on endpoint `from`.
    pub fn connect(&mut self, from: GlobalEp, idx: usize, dst: GlobalEp) {
        let w = self.world_of_mut(from.host);
        let key = w.keys.get(&dst).copied().unwrap_or_default();
        w.user_entry(from.host.idx(), from.ep).set_translation(idx, dst, key);
    }

    /// Build a virtual network over `eps` (§3.1): every endpoint gets a
    /// translation table addressing every member by its slice index —
    /// "traditional virtual node number addressing in parallel programs is
    /// easily realized with this approach".
    pub fn build_virtual_network(&mut self, eps: &[GlobalEp]) {
        for (i, &a) in eps.iter().enumerate() {
            for (j, &b) in eps.iter().enumerate() {
                if i != j {
                    self.connect(a, j, b);
                }
            }
        }
    }

    /// Destroy an endpoint (process termination, §4.2): the driver
    /// synchronizes de-allocation with the NIC (quiescing first if it is
    /// resident) and unregisters it; late messages addressed to it return
    /// to their senders as undeliverable.
    pub fn destroy_endpoint(&mut self, ep: GlobalEp) {
        let now = self.now();
        let h = ep.host.idx();
        let mut outs = Vec::new();
        let w = self.world_of_mut(ep.host);
        w.os_mut(h).free_endpoint(now, ep.ep, &mut outs);
        w.user_remove(h, ep.ep);
        w.auditor.borrow_mut().on_endpoint_destroyed(ep.host.0, ep.ep.0);
        for s in &mut self.shards {
            s.world.keys.remove(&ep);
        }
        self.apply_os_ext(h, outs);
    }

    /// Spawn an application thread on `host`. Returns its id (per-host).
    pub fn spawn_thread(&mut self, host: HostId, body: Box<dyn ThreadBody>) -> Tid {
        let now = self.now();
        let w = self.world_of_mut(host);
        let tid = w.spawn_thread_raw(host.idx(), body);
        if let Some((d, ev)) = w.prep_cpu_kick(host.idx(), now) {
            self.sched_ev(d, ev);
        }
        tid
    }

    /// Downcast access to a thread body (results extraction after a run).
    pub fn body<T: ThreadBody>(&self, host: HostId, tid: Tid) -> Option<&T> {
        self.world_of(host).body::<T>(host.idx(), tid)
    }

    // --------------------------------------------------------------- run

    /// Run for `d` of simulated time. In debug builds the invariant audit
    /// runs at the boundary (see [`Cluster::audit`]).
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now() + d;
        let n = self.run_to(deadline);
        self.post_run();
        n
    }

    /// Run until `deadline`. Debug builds audit at the boundary.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.run_to(deadline);
        self.post_run();
        n
    }

    /// Run until the event queue drains (only sensible before threads with
    /// infinite loops are spawned, or after they all exit). Debug builds
    /// audit at the boundary.
    pub fn settle(&mut self) -> u64 {
        let n = self.run_to(SimTime::MAX);
        self.post_run();
        n
    }

    /// Advance every shard to `deadline` under the conservative epoch
    /// protocol (scoped worker threads, or none at all for one shard or
    /// one core); returns the number of events processed. Results are
    /// byte-identical for any shard count.
    fn run_to(&mut self, deadline: SimTime) -> u64 {
        let before = self.events_processed();
        // One shard needs one worker. A sharded cluster reads the core
        // count once, here rather than in `Cluster::new`: the call reads
        // cgroup files, which costs as much as building a small cluster,
        // and its allocations, made while a 16k-host fleet was being
        // built, slowed that fleet's runs by 10–15% on a 2-core x86-64
        // machine.
        let workers = if self.shards.len() > 1 {
            *self
                .workers
                .get_or_insert_with(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
        } else {
            1
        };
        let part = &self.part;
        let mut runs: Vec<SendCell<ShardRun<'_>>> = self
            .shards
            .iter_mut()
            .map(|shard| {
                // SAFETY: a shard world plus its engine's pending events
                // form one closed `Rc` graph — every shard has its own
                // auditor and span-log handles, and cross-shard
                // frames share only atomically counted frozen payloads —
                // and the executor runs each shard on exactly one thread
                // at a time. The partition is shared read-only.
                unsafe { SendCell::new(ShardRun { shard, part }) }
            })
            .collect();
        run_conservative(&mut runs, self.part.lookahead(), deadline, workers);
        drop(runs);
        self.events_processed() - before
    }

    /// Run-boundary checks: the control-plane replica check and the
    /// invariant audit (debug builds only).
    fn post_run(&mut self) {
        self.check_control_replicas();
        self.debug_audit_check();
    }

    /// Debug builds: every shard's control-plane replica must agree on
    /// placements, migration records and counters. Nothing reconciles the
    /// copies, and [`Cluster::control`] reads only the first.
    fn check_control_replicas(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut ctl = self.worlds().filter_map(|w| w.control.as_deref());
        if let Some(first) = ctl.next() {
            for (s, other) in ctl.enumerate() {
                assert!(
                    first.same_replica(other),
                    "control-plane replica of shard {} diverged from shard 0",
                    s + 1
                );
            }
        }
    }

    /// Schedule a setup-path event on the engine owning its target host.
    fn sched_ev(&mut self, d: SimDuration, ev: Event) {
        let at = self.now() + d;
        let s = self.shard_of(ev.target_host());
        self.shards[s].engine.schedule_at(at, ev);
    }

    /// Keyed variant of [`Cluster::sched_ev`] for canonical ingress events.
    fn sched_keyed_at(&mut self, at: SimTime, key: u64, ev: Event) {
        let s = self.shard_of(ev.target_host());
        self.shards[s].engine.schedule_keyed_at(at, key, ev);
    }

    // ----------------------------------------------- external effect glue

    fn apply_os_ext(&mut self, host: usize, outs: Vec<OsOut>) {
        let now = self.now();
        let gh = host as u32;
        for o in outs {
            match o {
                OsOut::Nic(op) => {
                    let mut nic_outs = Vec::new();
                    let nic = self.world_of_mut(HostId(gh)).nic_mut(host);
                    nic.driver_request(now, op, &mut nic_outs);
                    for o in nic_outs {
                        match o {
                            NicOut::After(d, ev) => self.sched_ev(d, Event::Nic { host: gh, ev }),
                            other => unreachable!(
                                "driver_request only queues the op and kicks the firmware, \
                                 so it schedules a dispatch step and nothing else: {other:?}"
                            ),
                        }
                    }
                }
                OsOut::After(d, ev) => {
                    self.sched_ev(d, Event::Os { host: gh, ev });
                }
            }
        }
    }

    /// Force `ep` resident and wait for the remap pipeline to finish —
    /// used by microbenchmarks that measure the steady state (§6.1 runs
    /// with warmed endpoints).
    pub fn make_resident(&mut self, ep: GlobalEp) {
        let h = ep.host.idx();
        let now = self.now();
        let mut outs = Vec::new();
        self.world_of_mut(ep.host).os_mut(h).proxy_fault(now, ep.ep, &mut outs);
        self.apply_os_ext(h, outs);
        // Bounded settle: the remap takes well under 50 ms on an idle node.
        let deadline = self.now() + SimDuration::from_millis(50);
        while !self.nic(ep.host).is_resident(ep.ep) && self.now() < deadline {
            let step = self.now() + SimDuration::from_micros(100);
            self.run_to(step);
            if self.queue_len() == 0 && !self.nic(ep.host).is_resident(ep.ep) {
                // Queue drained without the load completing — nothing more
                // will happen spontaneously.
                break;
            }
        }
        assert!(
            self.nic(ep.host).is_resident(ep.ep),
            "make_resident failed for {ep}: remap pipeline stalled"
        );
    }

    /// Administrative link hot-swap (§3.2): take `link` down, or bring it
    /// back up, cluster-wide. Every shard's fault plan changes, because a
    /// packet's source shard judges its whole route. Unlike a scheduled
    /// campaign, the NICs' route oracle never sees it.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        for s in &mut self.shards {
            let faults = s.world.fabric.faults_mut();
            if up {
                faults.link_up(link);
            } else {
                faults.link_down(link);
            }
        }
    }

    // ----------------------------------------------------- control plane

    /// Install the multi-tenant control plane: the coordinator owns
    /// endpoint allocation, per-tenant quotas, and live migration from
    /// here on. Every shard world gets an identical replica and registers
    /// every tenant with its auditor (byte-conservation checking); the
    /// bootstrap reconcile tick is broadcast to every host, so the
    /// reconcile loop runs as ordinary keyed wheel events — byte-identical
    /// at any shard count. Call once, before running.
    pub fn install_control(&mut self, spec: ControlSpec) {
        assert!(self.control().is_none(), "control plane already installed");
        let plane = ControlPlane::new(spec, self.shards[0].world.cfg.seed);
        for s in &mut self.shards {
            s.world.control = Some(Box::new(plane.clone()));
            let mut a = s.world.auditor.borrow_mut();
            for (i, t) in plane.spec.tenants.iter().enumerate() {
                a.register_tenant(i as u32, &t.name, t.bytes_per_epoch, plane.spec.epoch);
            }
        }
        let first = plane.spec.first_tick;
        for h in 0..self.hosts() as u32 {
            self.sched_keyed_at(
                first,
                ctl_key(0, h),
                Event::Ctl { host: h, kseq: 0, op: CtlOp::Tick { seq: 0 } },
            );
        }
    }

    /// The coordinator's replicated state (placements, migration records,
    /// convergence lag, counters). `None` before [`Self::install_control`].
    pub fn control(&self) -> Option<&ControlPlane> {
        self.shards[0].world.control.as_deref()
    }

    /// Apply one coordinator mutation to every shard's replica, returning
    /// the first replica's result (all replicas compute the same one).
    fn ctl_each<R>(&mut self, mut f: impl FnMut(&mut ControlPlane) -> R) -> R {
        let mut first = None;
        for s in &mut self.shards {
            let r = f(s.world.control.as_mut().expect("install_control first"));
            first.get_or_insert(r);
        }
        first.expect("a cluster has at least one shard")
    }

    /// Coordinator-owned service endpoint for `tenant` on `host`: counts
    /// against the tenant's endpoint quota, gets a coordinator-assigned id
    /// and key, and is *managed* — the reconcile loop may migrate it to
    /// another host (spawning a fresh service thread from the tenant's
    /// factory at the new residence). Returns `(vid, ep)`.
    pub fn ctl_create_service(
        &mut self,
        tenant: u32,
        host: HostId,
    ) -> Result<(u32, GlobalEp), QuotaError> {
        let now = self.now();
        let (vid, ep, key) = self.ctl_each(|c| c.alloc_endpoint(tenant, host.0, true))?;
        let factory = self.control().expect("just allocated").spec.tenants[tenant as usize]
            .factory
            .clone();
        let h = host.idx();
        let gep = GlobalEp::new(host, ep);
        let mut outs = Vec::new();
        let w = self.world_of_mut(host);
        w.os_mut(h).create_endpoint_with_id(now, ep, key, &mut outs);
        w.user_entry(h, ep);
        w.auditor.borrow_mut().bind_tenant(host.0, ep.0, tenant);
        self.insert_key(gep, key);
        self.apply_os_ext(h, outs);
        let w = self.world_of_mut(host);
        let tid = w.spawn_thread_raw(h, factory(gep));
        w.note_ctl_thread(h, ep, tid);
        if let Some((d, ev)) = w.prep_cpu_kick(h, now) {
            self.sched_ev(d, ev);
        }
        Ok((vid, gep))
    }

    /// Coordinator-owned client endpoint for `tenant` on `host`: counts
    /// against the endpoint quota and carries the tenant's per-endpoint
    /// byte budget — sends past it fail with
    /// [`crate::sys::SendError::QuotaExceeded`] until the next epoch.
    /// Clients are never migrated (pinned), which keeps tenant byte
    /// accounting exact across migrations. Returns `(vid, ep)`.
    pub fn ctl_create_client(
        &mut self,
        tenant: u32,
        host: HostId,
    ) -> Result<(u32, GlobalEp), QuotaError> {
        let now = self.now();
        let (vid, ep, key) = self.ctl_each(|c| c.alloc_endpoint(tenant, host.0, false))?;
        let ctl = self.control().expect("just allocated");
        let budget = ctl.per_ep_budget(tenant);
        let epoch_nanos = ctl.spec.epoch.as_nanos().max(1);
        let h = host.idx();
        let gep = GlobalEp::new(host, ep);
        let mut outs = Vec::new();
        let w = self.world_of_mut(host);
        w.os_mut(h).create_endpoint_with_id(now, ep, key, &mut outs);
        w.user_entry(h, ep).quota = Some(EpQuota {
            tenant,
            bytes_per_epoch: budget,
            epoch_nanos,
            used: 0,
            epoch_idx: 0,
            denied: 0,
        });
        w.auditor.borrow_mut().bind_tenant(host.0, ep.0, tenant);
        self.insert_key(gep, key);
        self.apply_os_ext(h, outs);
        Ok((vid, gep))
    }

    /// Broker a client→service connection through the coordinator: checks
    /// the target tenant's bound-channel quota, records the connection for
    /// migration-time retargeting, and installs the translation on the
    /// client endpoint.
    pub fn ctl_connect(
        &mut self,
        client_vid: u32,
        idx: usize,
        target_vid: u32,
    ) -> Result<(), QuotaError> {
        let (ch, cep) = self
            .control()
            .expect("install_control first")
            .managed(client_vid)
            .map(|m| (m.host, m.ep))
            .ok_or(QuotaError::UnknownVid(client_vid))?;
        self.ctl_each(|c| c.bind_connection(client_vid, idx, target_vid))?;
        let t = self.control().and_then(|c| c.managed(target_vid));
        let t = t.expect("bind_connection validated the target");
        let (target, key) = (t.gep(), t.key);
        self.world_of_mut(HostId(ch)).user_entry(ch as usize, cep).set_translation(idx, target, key);
        Ok(())
    }

    /// Ask the coordinator to live-migrate managed endpoint `vid` —
    /// optionally to a specific destination, otherwise to a host of the
    /// coordinator's choosing. Picked up at the next reconcile tick; the
    /// four-phase protocol (drain → create → retarget → finish) then runs
    /// under whatever traffic is in flight.
    pub fn ctl_request_migration(&mut self, vid: u32, dst: Option<HostId>) {
        self.ctl_each(|c| c.request_migration(vid, dst.map(|h| h.0)));
    }

    /// Check the bounded time-to-convergence invariant: the coordinator
    /// must never have been diverged (in-flight migrations, or services
    /// placed on down hosts) for longer than `bound`, and must not be
    /// diverged older than `bound` right now. Violations persist and
    /// surface through [`Cluster::audit`]. A no-op before
    /// [`Self::install_control`].
    pub fn check_reconverged(&self, bound: SimDuration) {
        let Some(ctl) = self.control() else { return };
        let (now, since, worst) = (self.now(), ctl.diverged_since, ctl.worst_lag);
        self.check_fold(|a| a.check_reconverged(now, since, worst, bound));
    }

    /// Force the least-recently-active paged-in endpoint on `host` out to
    /// disk (§4 pageout). Returns the victim, or `None` when nothing is
    /// eligible. Test hook for residency churn under traffic.
    pub fn force_pageout_lru(&mut self, host: HostId) -> Option<EpId> {
        self.world_of_mut(host).os_mut(host.idx()).pageout_lru()
    }
}

/// A process: a host, the endpoints it owns, and its threads — the unit
/// of teardown (§4.2: "Process termination automatically invokes segment
/// driver methods to free segments").
#[derive(Debug, Clone)]
pub struct Process {
    /// Hosting node.
    pub host: HostId,
    /// Endpoints owned by the process.
    pub endpoints: Vec<GlobalEp>,
    /// Threads belonging to the process.
    pub threads: Vec<Tid>,
}

impl Process {
    /// An empty process on `host`.
    pub fn new(host: HostId) -> Self {
        Process { host, endpoints: Vec::new(), threads: Vec::new() }
    }
}

impl Cluster {
    /// Create an endpoint owned by `proc`.
    pub fn create_process_endpoint(&mut self, proc_: &mut Process) -> GlobalEp {
        let ep = self.create_endpoint(proc_.host);
        proc_.endpoints.push(ep);
        ep
    }

    /// Spawn a thread owned by `proc`.
    pub fn spawn_process_thread(&mut self, proc_: &mut Process, body: Box<dyn ThreadBody>) -> Tid {
        let tid = self.spawn_thread(proc_.host, body);
        proc_.threads.push(tid);
        tid
    }

    /// Terminate a process: stop its threads and free every endpoint it
    /// owns. The driver synchronizes de-allocation with the NIC; traffic
    /// addressed to the dead endpoints returns to its senders (§3.2).
    pub fn exit_process(&mut self, proc_: &Process) {
        for &ep in &proc_.endpoints {
            self.destroy_endpoint(ep);
        }
        let now = self.now();
        let h = proc_.host.idx();
        let w = self.world_of_mut(proc_.host);
        for &tid in &proc_.threads {
            w.kill_thread(h, tid);
        }
        // Let the scheduler observe the exits.
        if let Some((d, ev)) = w.prep_cpu_kick(h, now) {
            self.sched_ev(d, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::sys::{Step, Sys};
    use vnet_nic::QueueSel;

    struct Echo {
        ep: EpId,
        served: u64,
    }

    impl ThreadBody for Echo {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
                self.served += 1;
                let _ = sys.reply(self.ep, &m, 0, [m.msg.args[0] * 2, 0, 0, 0], 0);
            }
            Step::WaitEvent(self.ep)
        }
    }

    struct Pinger {
        ep: EpId,
        to_send: u32,
        sent: u32,
        replies: u32,
        last_answer: u64,
    }

    impl ThreadBody for Pinger {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            while self.sent < self.to_send {
                match sys.request(self.ep, 1, 1, [self.sent as u64 + 1, 0, 0, 0], 0) {
                    Ok(_) => self.sent += 1,
                    Err(crate::sys::SendError::NoCredit) => break,
                    Err(crate::sys::SendError::WouldBlock) => return Step::WaitResident(self.ep),
                    Err(e) => panic!("send failed: {e:?}"),
                }
            }
            while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
                assert!(!m.undeliverable);
                self.replies += 1;
                self.last_answer = m.msg.args[0];
            }
            if self.replies == self.to_send {
                Step::Exit
            } else {
                Step::WaitEvent(self.ep)
            }
        }
    }

    #[test]
    fn request_reply_round_trips() {
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.build_virtual_network(&[a, b]);
        c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep, served: 0 }));
        let pinger = c.spawn_thread(
            HostId(0),
            Box::new(Pinger { ep: a.ep, to_send: 10, sent: 0, replies: 0, last_answer: 0 }),
        );
        c.run_for(SimDuration::from_millis(100));
        let p: &Pinger = c.body(HostId(0), pinger).unwrap();
        assert_eq!(p.replies, 10, "all replies must arrive");
        assert_eq!(p.last_answer, 20, "handler computed 10 * 2");
        // Both endpoints were faulted in on demand.
        assert!(c.nic(HostId(0)).is_resident(a.ep));
        assert!(c.nic(HostId(1)).is_resident(b.ep));
        assert!(c.telemetry().snapshot().counter("host0.os.loads") >= 1);
    }

    #[test]
    fn credits_cap_outstanding_requests() {
        struct Blaster {
            ep: EpId,
            hit_no_credit: bool,
            accepted: u32,
        }
        impl ThreadBody for Blaster {
            fn run(&mut self, sys: &mut Sys<'_>) -> Step {
                loop {
                    match sys.request(self.ep, 1, 1, [0; 4], 0) {
                        Ok(_) => self.accepted += 1,
                        Err(crate::sys::SendError::NoCredit) => {
                            self.hit_no_credit = true;
                            return Step::Exit;
                        }
                        Err(_) => return Step::Yield,
                    }
                    if self.accepted > 100 {
                        return Step::Exit;
                    }
                }
            }
        }
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.build_virtual_network(&[a, b]);
        // No server thread: replies never come, so credits never recover.
        let t = c.spawn_thread(
            HostId(0),
            Box::new(Blaster { ep: a.ep, hit_no_credit: false, accepted: 0 }),
        );
        c.run_for(SimDuration::from_millis(50));
        let bl: &Blaster = c.body(HostId(0), t).unwrap();
        assert!(bl.hit_no_credit, "the 32-credit window must close");
        assert_eq!(bl.accepted, 32, "exactly one window of requests accepted");
    }

    #[test]
    fn make_resident_preloads() {
        let mut c = Cluster::new(ClusterConfig::now(2));
        let a = c.create_endpoint(HostId(0));
        assert!(!c.nic(HostId(0)).is_resident(a.ep));
        c.make_resident(a);
        assert!(c.nic(HostId(0)).is_resident(a.ep));
    }

    #[test]
    fn open_loop_drains_and_records_latency() {
        let mut c = Cluster::builder()
            .hosts(8)
            .default_fidelity(Fidelity::Abstract)
            .fabric_fidelity(Fidelity::Abstract)
            .seed(11)
            .build();
        let spec = OpenLoopSpec {
            streams: 2,
            mean_gap: SimDuration::from_micros(50),
            requests: 40,
            zipf_s: 1.0,
            targets: 8,
            size_min: 64,
            size_max: 4096,
            size_alpha: 1.3,
        };
        for h in 0..4 {
            c.drive_open_loop(HostId(h), spec.clone());
        }
        assert_eq!(c.open_loop_remaining(), 160);
        c.run_for(SimDuration::from_millis(50));
        assert_eq!(c.open_loop_remaining(), 0, "all arrivals fired");
        let lat = c.open_loop_latency();
        assert_eq!(lat.count(), 160, "every request was served and timed");
        // o_s + wire + o_r floors the latency well above a microsecond.
        assert!(lat.quantile_bound(0.5) > 1_000, "p50 bound {}", lat.quantile_bound(0.5));
        let sent: u64 = (0..8).map(|h| c.abs_stats(HostId(h)).unwrap().sent).sum();
        assert_eq!(sent, 160);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the replica check runs in debug builds")]
    #[should_panic(expected = "control-plane replica of shard 1 diverged")]
    fn diverged_control_replica_is_caught_at_the_run_boundary() {
        let mut c = Cluster::builder().hosts(4).shards(2).build();
        assert_eq!(c.shards(), 2);
        c.install_control(ControlSpec::default());
        c.run_for(SimDuration::from_micros(10));
        c.shards[1].world.control.as_mut().expect("installed").reconciles += 1;
        c.run_for(SimDuration::from_micros(10));
    }

    #[test]
    fn shard_request_beyond_the_executor_cap_clamps_and_runs() {
        // The executor's publication bitmap holds MAX_SHARDS shards; a
        // larger request is clamped when the partition is planned rather
        // than refused by the executor at the first run.
        let mut c = Cluster::builder().hosts(128).shards(100).build();
        assert_eq!(c.shards(), vnet_sim::parallel::MAX_SHARDS as u32);
        c.run_for(SimDuration::from_micros(5));
        assert_eq!(c.now().as_nanos(), 5_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> (u64, u64) {
            let mut c = Cluster::new(ClusterConfig::now(2).with_seed(seed));
            let a = c.create_endpoint(HostId(0));
            let b = c.create_endpoint(HostId(1));
            c.build_virtual_network(&[a, b]);
            c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep, served: 0 }));
            c.spawn_thread(
                HostId(0),
                Box::new(Pinger { ep: a.ep, to_send: 20, sent: 0, replies: 0, last_answer: 0 }),
            );
            c.run_for(SimDuration::from_millis(20));
            (c.events_processed(), c.now().as_nanos())
        };
        assert_eq!(run(7), run(7), "identical seeds give identical runs");
    }
}
