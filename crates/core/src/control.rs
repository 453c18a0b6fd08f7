//! The multi-tenant cluster control plane: coordinator-owned allocation,
//! per-tenant quotas, and audited live endpoint migration.
//!
//! The paper's §4 residency machine and §5 channel allocation are per-host
//! mechanism; this module adds the cluster-level *policy* layer in the
//! shape of ADR-002 ("coordinator owns all network allocation; agents
//! cache desired state"):
//!
//! * a **coordinator** that owns every managed endpoint — which host it
//!   lives on, which tenant it belongs to, what its byte budget is;
//! * a **reconcile loop** that runs as ordinary keyed wheel events
//!   ([`crate::world::Event::Ctl`]), observing scheduled link faults
//!   through the read-only [`vnet_net::RouteOracle`] and migrating service
//!   endpoints off dead hosts with retry/backoff;
//! * **live migration** built from the §4 residency machine: the source
//!   incarnation is evicted from the NI and held host-resident
//!   ([`vnet_os::SegmentDriver::begin_migrate_out`]) so the service keeps
//!   draining queued work in place, a fresh incarnation is created on the
//!   destination, client translation tables are retargeted, and the old
//!   incarnation is retired through a bounded lame-duck drain
//!   ([`crate::world::Event::CtlRetire`]) that frees it only once both the
//!   OS image and the NI report dry — in-flight frames nack/bounce through
//!   the ordinary retransmit → backoff → unbind → return-to-sender
//!   machinery with exactly-once preserved;
//! * **graceful degradation**: coordinator outage windows suspend
//!   reconciliation only — host agents keep serving on the desired state
//!   they already cached (their translation tables and resident
//!   endpoints), so traffic continues untouched.
//!
//! # Determinism
//!
//! The coordinator state is *replicated*: every shard world carries an
//! identical [`ControlPlane`] copy, and every control event is broadcast
//! — scheduled once per `(event, host)` for every host, exactly like
//! fault-campaign transitions. Within a world, the copy addressed to the
//! world's base host sorts first (the control key band orders by host) and
//! runs the replicated decision step; the decisions are pure functions of
//! (replicated state, oracle, time), so every world computes the same
//! follow-up schedule and the same state. Host-local side effects (pageout,
//! endpoint creation, translation retargeting) run only on the event copy
//! addressed to the acting host. The net effect: byte-identical results at
//! any shard count, with no cross-shard communication beyond the events
//! already in the wheel.

use crate::sys::ThreadBody;
use std::collections::BTreeMap;
use std::sync::Arc;
use vnet_net::{HostId, RouteOracle};
use vnet_nic::{EpId, GlobalEp, ProtectionKey};
use vnet_sim::telemetry::{MetricSet, MetricValue, MetricVisitor};
use vnet_sim::{SimDuration, SimRng, SimTime};

/// First endpoint id in the control-plane band. Coordinator-assigned ids
/// live far above the per-host sequential counter so a migrated endpoint
/// can keep a cluster-unique identity without colliding with locally
/// created endpoints on any destination host.
pub const CTL_EP_BASE: u32 = 0x8000_0000;

/// Factory for a tenant's service thread body, invoked on the destination
/// host when a managed service endpoint is (re)created there. `Send +
/// Sync` because shard worlds on worker threads call it; the returned body
/// stays on the calling thread.
pub type EpFactory = Arc<dyn Fn(GlobalEp) -> Box<dyn ThreadBody> + Send + Sync>;

/// Per-tenant resource limits and service logic.
#[derive(Clone)]
pub struct TenantSpec {
    /// Human-readable tenant name (violation dumps, debugging).
    pub name: String,
    /// Maximum managed endpoints this tenant may allocate.
    pub max_endpoints: u32,
    /// Maximum bound channels (client→service connections) targeting this
    /// tenant's services.
    pub max_bound_channels: u32,
    /// Request bytes the tenant may admit per accounting epoch, across all
    /// of its client endpoints (each client gets an equal slice).
    pub bytes_per_epoch: u64,
    /// Service thread body factory (used at creation and after migration).
    pub factory: EpFactory,
}

impl std::fmt::Debug for TenantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSpec")
            .field("name", &self.name)
            .field("max_endpoints", &self.max_endpoints)
            .field("max_bound_channels", &self.max_bound_channels)
            .field("bytes_per_epoch", &self.bytes_per_epoch)
            .finish_non_exhaustive()
    }
}

/// Static configuration of the control plane, installed once via
/// [`crate::cluster::Cluster::install_control`].
#[derive(Clone, Debug)]
pub struct ControlSpec {
    /// The tenants, indexed by position (tenant id = index).
    pub tenants: Vec<TenantSpec>,
    /// Reconcile tick period.
    pub tick_period: SimDuration,
    /// Time of the first reconcile tick.
    pub first_tick: SimTime,
    /// No ticks are chained past this time (bounds `settle()`).
    pub horizon: SimTime,
    /// Coordinator outage windows `[from, until)`: ticks inside them do
    /// not reconcile — host agents serve on cached desired state.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Base delay between migration phases (drain → create → retarget →
    /// finish). Generous gaps let in-flight traffic drain through the
    /// retransmit machinery between steps.
    pub phase_gap: SimDuration,
    /// Extra delay before a retried migration's first phase, scaled by the
    /// attempt number.
    pub retry_backoff: SimDuration,
    /// Maximum migration attempts per displacement before giving up until
    /// the next reconcile notices the endpoint again.
    pub max_attempts: u32,
    /// Quota accounting epoch length.
    pub epoch: SimDuration,
    /// Hosts eligible as migration destinations (full-fidelity hosts).
    pub placement_pool: Vec<u32>,
}

impl Default for ControlSpec {
    fn default() -> Self {
        ControlSpec {
            tenants: Vec::new(),
            tick_period: SimDuration::from_micros(500),
            first_tick: SimTime::from_nanos(100_000),
            horizon: SimTime::from_nanos(u64::MAX / 2),
            outages: Vec::new(),
            phase_gap: SimDuration::from_micros(400),
            retry_backoff: SimDuration::from_micros(800),
            max_attempts: 3,
            epoch: SimDuration::from_millis(1),
            placement_pool: Vec::new(),
        }
    }
}

/// Operations carried by [`crate::world::Event::Ctl`] broadcasts.
#[derive(Clone, Debug)]
pub enum CtlOp {
    /// A reconcile tick (`seq` counts ticks; each tick chains the next).
    Tick {
        /// Tick sequence number.
        seq: u64,
    },
    /// One phase of migration `id`.
    Mig {
        /// Migration record id.
        id: u32,
        /// The phase to execute.
        phase: MigPhase,
    },
}

/// The four phases of a live migration, scheduled at fixed offsets so the
/// retransmit machinery drains in-flight frames between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigPhase {
    /// Pin the source incarnation to `Disk` (arrivals nack `NotResident`).
    Drain,
    /// Create the destination incarnation (aborts if the destination host
    /// is down at this instant).
    CreateDst,
    /// Repoint every client translation at the new residence.
    Retarget,
    /// Destroy the source incarnation; or, for an aborted attempt, retry
    /// with backoff.
    Finish,
}

/// Lifecycle state of one migration attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigState {
    /// Drain scheduled/underway.
    Draining,
    /// Destination incarnation exists.
    Created,
    /// Clients repointed.
    Retargeted,
    /// Destination was down at `CreateDst`; `Finish` turns this into a
    /// retry or a terminal failure.
    Aborted,
    /// Completed: the managed endpoint now lives at the destination.
    Done,
    /// This attempt failed terminally (a successor attempt may exist).
    Failed,
}

/// One migration attempt of a managed endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct MigRec {
    /// The managed endpoint being moved.
    pub vid: u32,
    /// Source host.
    pub from: u32,
    /// Source endpoint id.
    pub from_ep: EpId,
    /// Destination host.
    pub to: u32,
    /// Destination endpoint id (control band, coordinator-assigned).
    pub to_ep: EpId,
    /// Protection key of the destination incarnation.
    pub key: ProtectionKey,
    /// Attempt number (0 = first).
    pub attempt: u32,
    /// Current state.
    pub state: MigState,
}

impl MigRec {
    fn in_flight(&self) -> bool {
        matches!(
            self.state,
            MigState::Draining | MigState::Created | MigState::Retargeted | MigState::Aborted
        )
    }
}

/// Coordinator's record of one managed endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct ManagedEp {
    /// Owning tenant (index into [`ControlSpec::tenants`]).
    pub tenant: u32,
    /// Service endpoints migrate; client endpoints are pinned (their
    /// quota meters stay exact across migrations this way).
    pub service: bool,
    /// Current host.
    pub host: u32,
    /// Current endpoint id on that host.
    pub ep: EpId,
    /// Current protection key.
    pub key: ProtectionKey,
}

impl ManagedEp {
    /// Current global endpoint address.
    pub fn gep(&self) -> GlobalEp {
        GlobalEp::new(HostId(self.host), self.ep)
    }
}

/// A client→service connection the coordinator brokered (and must
/// retarget when the service migrates).
#[derive(Clone, Debug)]
pub struct Connection {
    /// vid of the client endpoint.
    pub client_vid: u32,
    /// Translation-table slot on the client endpoint.
    pub idx: usize,
    /// vid of the target service endpoint.
    pub target_vid: u32,
}

/// A follow-up control event the deciding step scheduled: `(fire time,
/// key sequence, operation)`. Every host schedules its own broadcast copy.
pub type CtlEntry = (SimTime, u64, CtlOp);

/// The replicated coordinator state (see module docs for the determinism
/// model). Every shard world holds its own copy for the cluster's
/// lifetime; setup-path mutations are applied to each copy, and all
/// copies evolve identically.
#[derive(Clone, Debug)]
pub struct ControlPlane {
    /// Static configuration.
    pub spec: ControlSpec,
    managed: BTreeMap<u32, ManagedEp>,
    connections: Vec<Connection>,
    migs: BTreeMap<u32, MigRec>,
    next_vid: u32,
    next_ep_raw: u32,
    next_mig: u32,
    key_rng: SimRng,
    key_seq: u64,
    /// Follow-ups computed by the latest deciding step: `(kseq of the
    /// decided event, entries)`. Read by every host copy of that event.
    current: (u64, Vec<CtlEntry>),
    rr_cursor: usize,
    pending_requests: Vec<(u32, Option<u32>)>,
    /// When the placement first diverged from desired state (an in-flight
    /// migration or a service on a down host), if currently diverged.
    pub diverged_since: Option<SimTime>,
    /// Worst completed divergence episode: `(start, duration)`.
    pub worst_lag: Option<(SimTime, SimDuration)>,
    /// Migration attempts started.
    pub migrations_started: u64,
    /// Migrations completed (endpoint serving at its new residence).
    pub migrations_completed: u64,
    /// Migration attempts that failed (dead destination at `CreateDst`).
    pub migrations_failed: u64,
    /// Reconcile ticks that actually reconciled.
    pub reconciles: u64,
    /// Ticks that fell inside a coordinator outage window (host agents
    /// served on cached state).
    pub cached_ticks: u64,
    /// Retry/backoff events (failed placements re-attempted later).
    pub retries: u64,
}

impl ControlPlane {
    /// Fresh coordinator with `spec`, deriving key material from `seed`.
    pub fn new(spec: ControlSpec, seed: u64) -> Self {
        ControlPlane {
            spec,
            managed: BTreeMap::new(),
            connections: Vec::new(),
            migs: BTreeMap::new(),
            next_vid: 0,
            next_ep_raw: 0,
            next_mig: 0,
            key_rng: SimRng::seed_from_u64(seed ^ 0xC7_1CE7),
            key_seq: 1, // kseq 0 is the bootstrap tick broadcast
            current: (u64::MAX, Vec::new()),
            rr_cursor: 0,
            pending_requests: Vec::new(),
            diverged_since: None,
            worst_lag: None,
            migrations_started: 0,
            migrations_completed: 0,
            migrations_failed: 0,
            reconciles: 0,
            cached_ticks: 0,
            retries: 0,
        }
    }

    // ------------------------------------------------------- allocation
    //
    // Setup-path methods, called through the `Cluster` facade between run
    // slices on every shard's copy alike (each copy draws the same keys
    // and ids, so the replicas stay identical).

    /// Allocate a managed endpoint id, host placement entry, and key for
    /// tenant `tenant` on `host`. Fails when the tenant's endpoint quota
    /// is exhausted. Returns `(vid, ep, key)`; the caller instantiates
    /// the endpoint on the host.
    pub fn alloc_endpoint(
        &mut self,
        tenant: u32,
        host: u32,
        service: bool,
    ) -> Result<(u32, EpId, ProtectionKey), QuotaError> {
        let t = self
            .spec
            .tenants
            .get(tenant as usize)
            .ok_or(QuotaError::UnknownTenant(tenant))?;
        let owned = self.managed.values().filter(|m| m.tenant == tenant).count() as u32;
        if owned >= t.max_endpoints {
            return Err(QuotaError::Endpoints { tenant, limit: t.max_endpoints });
        }
        let ep = EpId(CTL_EP_BASE + self.next_ep_raw);
        self.next_ep_raw += 1;
        let key = ProtectionKey(self.key_rng.below(u64::MAX - 1) + 1);
        let vid = self.next_vid;
        self.next_vid += 1;
        self.managed.insert(vid, ManagedEp { tenant, service, host, ep, key });
        Ok((vid, ep, key))
    }

    /// Record a brokered client→service connection (for retargeting).
    /// Fails when the target tenant's bound-channel quota is exhausted.
    pub fn bind_connection(
        &mut self,
        client_vid: u32,
        idx: usize,
        target_vid: u32,
    ) -> Result<(), QuotaError> {
        let target =
            self.managed.get(&target_vid).ok_or(QuotaError::UnknownVid(target_vid))?;
        let tenant = target.tenant;
        let t = &self.spec.tenants[tenant as usize];
        let bound = self
            .connections
            .iter()
            .filter(|c| {
                self.managed.get(&c.target_vid).is_some_and(|m| m.tenant == tenant)
            })
            .count() as u32;
        if bound >= t.max_bound_channels {
            return Err(QuotaError::BoundChannels { tenant, limit: t.max_bound_channels });
        }
        self.connections.push(Connection { client_vid, idx, target_vid });
        Ok(())
    }

    /// Ask the coordinator to migrate `vid` (optionally to a specific
    /// host) at its next reconcile tick.
    pub fn request_migration(&mut self, vid: u32, dst: Option<u32>) {
        self.pending_requests.push((vid, dst));
    }

    /// Whether `other` holds the same replicated state: placements,
    /// migration records, convergence lag and counters (the debug-build
    /// replica check at run boundaries).
    pub(crate) fn same_replica(&self, other: &ControlPlane) -> bool {
        let counters = |c: &ControlPlane| {
            (
                c.diverged_since,
                c.worst_lag,
                c.migrations_started,
                c.migrations_completed,
                c.migrations_failed,
                c.reconciles,
                c.cached_ticks,
                c.retries,
            )
        };
        self.managed == other.managed && self.migs == other.migs && counters(self) == counters(other)
    }

    // -------------------------------------------------------- inspection

    /// The managed endpoint `vid`.
    pub fn managed(&self, vid: u32) -> Option<&ManagedEp> {
        self.managed.get(&vid)
    }

    /// Every managed endpoint, in vid order.
    pub fn placements(&self) -> impl Iterator<Item = (u32, &ManagedEp)> {
        self.managed.iter().map(|(v, m)| (*v, m))
    }

    /// Every migration record, in id order (terminal records retained).
    pub fn migrations(&self) -> impl Iterator<Item = (u32, &MigRec)> {
        self.migs.iter().map(|(i, m)| (*i, m))
    }

    /// One migration record by id.
    pub fn migration(&self, id: u32) -> Option<&MigRec> {
        self.migs.get(&id)
    }

    /// Brokered connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Per-ep byte budget for a tenant: its epoch budget split evenly
    /// across its allowed endpoints.
    pub fn per_ep_budget(&self, tenant: u32) -> u64 {
        let t = &self.spec.tenants[tenant as usize];
        t.bytes_per_epoch / u64::from(t.max_endpoints.max(1))
    }

    fn in_outage(&self, now: SimTime) -> bool {
        self.spec.outages.iter().any(|&(from, until)| from <= now && now < until)
    }

    // ----------------------------------------------- replicated decisions

    fn push_entry(&mut self, at: SimTime, op: CtlOp) {
        let k = self.key_seq;
        self.key_seq += 1;
        self.current.1.push((at, k, op));
    }

    /// The follow-up entries computed for the event with key sequence
    /// `kseq` (every host copy schedules its own broadcast of these).
    pub(crate) fn entries_for(&self, kseq: u64) -> &[CtlEntry] {
        debug_assert_eq!(self.current.0, kseq, "control entries read out of order");
        &self.current.1
    }

    /// The replicated decision step: run on each world's base-host copy of
    /// a control event, before any host-local side effects. Mutates only
    /// replicated state; pure in (state, oracle, now, op), so every world
    /// computes identical results.
    pub(crate) fn process(
        &mut self,
        now: SimTime,
        kseq: u64,
        op: &CtlOp,
        oracle: Option<&RouteOracle>,
    ) {
        self.current = (kseq, Vec::new());
        match op {
            CtlOp::Tick { seq } => {
                let next = now + self.spec.tick_period;
                if next <= self.spec.horizon {
                    self.push_entry(next, CtlOp::Tick { seq: seq + 1 });
                }
                if self.in_outage(now) {
                    self.cached_ticks += 1;
                } else {
                    self.reconciles += 1;
                    let reqs = std::mem::take(&mut self.pending_requests);
                    for (vid, dst) in reqs {
                        self.start_migration(now, vid, dst, 0, oracle);
                    }
                    // Evict services from hosts the campaign took down.
                    let vids: Vec<u32> = self
                        .managed
                        .iter()
                        .filter(|(_, m)| m.service)
                        .map(|(v, _)| *v)
                        .collect();
                    for vid in vids {
                        let host = self.managed[&vid].host;
                        let down =
                            oracle.is_some_and(|o| o.host_down(HostId(host), now));
                        let busy = self.migs.values().any(|m| m.vid == vid && m.in_flight());
                        if down && !busy {
                            self.start_migration(now, vid, None, 0, oracle);
                        }
                    }
                }
            }
            CtlOp::Mig { id, phase } => {
                self.step_migration(now, *id, *phase, oracle);
            }
        }
        self.update_convergence(now, oracle);
    }

    fn start_migration(
        &mut self,
        now: SimTime,
        vid: u32,
        dst: Option<u32>,
        attempt: u32,
        oracle: Option<&RouteOracle>,
    ) {
        let Some(m) = self.managed.get(&vid) else { return };
        if !m.service {
            return; // clients are pinned
        }
        let from = m.host;
        let from_ep = m.ep;
        let to = match dst {
            Some(h) if h != from => h,
            _ => match self.pick_destination(now, from, oracle) {
                Some(h) => h,
                None => {
                    // No live destination right now; the next reconcile
                    // tick will try again.
                    self.retries += 1;
                    return;
                }
            },
        };
        let to_ep = EpId(CTL_EP_BASE + self.next_ep_raw);
        self.next_ep_raw += 1;
        let key = ProtectionKey(self.key_rng.below(u64::MAX - 1) + 1);
        let id = self.next_mig;
        self.next_mig += 1;
        self.migs.insert(
            id,
            MigRec { vid, from, from_ep, to, to_ep, key, attempt, state: MigState::Draining },
        );
        self.migrations_started += 1;
        let base = now + self.spec.retry_backoff.saturating_mul(u64::from(attempt));
        let g = self.spec.phase_gap;
        self.push_entry(base + g, CtlOp::Mig { id, phase: MigPhase::Drain });
        self.push_entry(base + g.saturating_mul(2), CtlOp::Mig { id, phase: MigPhase::CreateDst });
        self.push_entry(base + g.saturating_mul(3), CtlOp::Mig { id, phase: MigPhase::Retarget });
        self.push_entry(base + g.saturating_mul(4), CtlOp::Mig { id, phase: MigPhase::Finish });
    }

    /// Round-robin over the placement pool, skipping the source host,
    /// hosts currently down, and hosts with managed client endpoints
    /// (the fabric has no self-routes, so a service co-located with a
    /// client could never serve it). The cursor is replicated state, so
    /// every world draws the same sequence.
    fn pick_destination(
        &mut self,
        now: SimTime,
        from: u32,
        oracle: Option<&RouteOracle>,
    ) -> Option<u32> {
        let pool = &self.spec.placement_pool;
        if pool.is_empty() {
            return None;
        }
        for probe in 0..pool.len() {
            let h = pool[(self.rr_cursor + probe) % pool.len()];
            let down = oracle.is_some_and(|o| o.host_down(HostId(h), now));
            let client_host = self.managed.values().any(|m| !m.service && m.host == h);
            if h != from && !down && !client_host {
                self.rr_cursor = (self.rr_cursor + probe + 1) % pool.len();
                return Some(h);
            }
        }
        None
    }

    fn step_migration(
        &mut self,
        now: SimTime,
        id: u32,
        phase: MigPhase,
        oracle: Option<&RouteOracle>,
    ) {
        let Some(rec) = self.migs.get(&id) else { return };
        let (vid, to, to_ep, key, attempt, state) =
            (rec.vid, rec.to, rec.to_ep, rec.key, rec.attempt, rec.state);
        match phase {
            MigPhase::Drain => {} // side effects only (source host pageout)
            MigPhase::CreateDst => {
                if state == MigState::Draining {
                    let down = oracle.is_some_and(|o| o.host_down(HostId(to), now));
                    let rec = self.migs.get_mut(&id).expect("checked above");
                    if down {
                        rec.state = MigState::Aborted;
                        self.migrations_failed += 1;
                    } else {
                        rec.state = MigState::Created;
                    }
                }
            }
            MigPhase::Retarget => {
                if state == MigState::Created {
                    self.migs.get_mut(&id).expect("checked above").state =
                        MigState::Retargeted;
                }
            }
            MigPhase::Finish => match state {
                MigState::Retargeted => {
                    self.migs.get_mut(&id).expect("checked above").state = MigState::Done;
                    self.migrations_completed += 1;
                    if let Some(m) = self.managed.get_mut(&vid) {
                        m.host = to;
                        m.ep = to_ep;
                        m.key = key;
                    }
                }
                MigState::Aborted => {
                    self.migs.get_mut(&id).expect("checked above").state = MigState::Failed;
                    if attempt + 1 < self.spec.max_attempts {
                        self.retries += 1;
                        self.start_migration(now, vid, None, attempt + 1, oracle);
                    }
                    // Otherwise: give up for now; the reconcile loop will
                    // notice the endpoint again if its host is still down.
                }
                _ => {}
            },
        }
    }

    fn update_convergence(&mut self, now: SimTime, oracle: Option<&RouteOracle>) {
        let inflight = self.migs.values().any(MigRec::in_flight);
        let displaced = self.managed.values().any(|m| {
            m.service && oracle.is_some_and(|o| o.host_down(HostId(m.host), now))
        });
        let diverged = inflight || displaced;
        match (self.diverged_since, diverged) {
            (None, true) => self.diverged_since = Some(now),
            (Some(t0), false) => {
                let lag = now.since(t0);
                if self.worst_lag.is_none_or(|(_, w)| lag > w) {
                    self.worst_lag = Some((t0, lag));
                }
                self.diverged_since = None;
            }
            _ => {}
        }
    }
}

impl MetricSet for ControlPlane {
    fn visit_metrics(&self, v: &mut dyn MetricVisitor) {
        v.metric("migrations_started", MetricValue::Counter(self.migrations_started));
        v.metric("migrations_completed", MetricValue::Counter(self.migrations_completed));
        v.metric("migrations_failed", MetricValue::Counter(self.migrations_failed));
        v.metric("reconciles", MetricValue::Counter(self.reconciles));
        v.metric("cached_ticks", MetricValue::Counter(self.cached_ticks));
        v.metric("retries", MetricValue::Counter(self.retries));
        v.metric("managed_endpoints", MetricValue::Gauge(self.managed.len() as f64));
    }
}

/// Why a control-plane allocation was denied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaError {
    /// No such tenant id.
    UnknownTenant(u32),
    /// No such managed endpoint.
    UnknownVid(u32),
    /// The tenant's endpoint quota is exhausted.
    Endpoints {
        /// The tenant.
        tenant: u32,
        /// Its limit.
        limit: u32,
    },
    /// The tenant's bound-channel quota is exhausted.
    BoundChannels {
        /// The tenant.
        tenant: u32,
        /// Its limit.
        limit: u32,
    },
}

impl std::fmt::Display for QuotaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            QuotaError::UnknownVid(v) => write!(f, "unknown managed endpoint vid {v}"),
            QuotaError::Endpoints { tenant, limit } => {
                write!(f, "tenant {tenant} endpoint quota exhausted (limit {limit})")
            }
            QuotaError::BoundChannels { tenant, limit } => {
                write!(f, "tenant {tenant} bound-channel quota exhausted (limit {limit})")
            }
        }
    }
}

impl std::error::Error for QuotaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{Step, Sys};

    struct Noop;
    impl ThreadBody for Noop {
        fn run(&mut self, _sys: &mut Sys<'_>) -> Step {
            Step::Exit
        }
    }

    fn spec(pool: Vec<u32>) -> ControlSpec {
        ControlSpec {
            tenants: vec![TenantSpec {
                name: "a".into(),
                max_endpoints: 2,
                max_bound_channels: 1,
                bytes_per_epoch: 1_000,
                factory: Arc::new(|_| Box::new(Noop)),
            }],
            placement_pool: pool,
            ..Default::default()
        }
    }

    #[test]
    fn endpoint_quota_is_enforced() {
        let mut c = ControlPlane::new(spec(vec![0, 1]), 7);
        assert!(c.alloc_endpoint(0, 0, true).is_ok());
        assert!(c.alloc_endpoint(0, 1, false).is_ok());
        assert_eq!(
            c.alloc_endpoint(0, 1, false),
            Err(QuotaError::Endpoints { tenant: 0, limit: 2 })
        );
        assert_eq!(c.alloc_endpoint(9, 0, true), Err(QuotaError::UnknownTenant(9)));
    }

    #[test]
    fn bound_channel_quota_is_enforced() {
        let mut c = ControlPlane::new(spec(vec![0, 1]), 7);
        let (svc, _, _) = c.alloc_endpoint(0, 0, true).unwrap();
        let (cli, _, _) = c.alloc_endpoint(0, 1, false).unwrap();
        assert!(c.bind_connection(cli, 0, svc).is_ok());
        assert_eq!(
            c.bind_connection(cli, 1, svc),
            Err(QuotaError::BoundChannels { tenant: 0, limit: 1 })
        );
    }

    #[test]
    fn tick_chain_respects_the_horizon() {
        let mut c = ControlPlane::new(
            ControlSpec {
                horizon: SimTime::from_nanos(1_000_000),
                tick_period: SimDuration::from_nanos(600_000),
                ..spec(vec![1])
            },
            7,
        );
        c.process(SimTime::from_nanos(100_000), 0, &CtlOp::Tick { seq: 0 }, None);
        assert_eq!(c.entries_for(0).len(), 1, "next tick chained");
        let (at, k, _) = c.entries_for(0)[0].clone();
        assert_eq!(at, SimTime::from_nanos(700_000));
        c.process(at, k, &CtlOp::Tick { seq: 1 }, None);
        assert!(c.entries_for(k).is_empty(), "past the horizon, the chain ends");
        assert_eq!(c.reconciles, 2);
    }

    #[test]
    fn outage_ticks_degrade_to_cached_state() {
        let mut c = ControlPlane::new(
            ControlSpec {
                outages: vec![(SimTime::from_nanos(0), SimTime::from_nanos(1 << 40))],
                ..spec(vec![1])
            },
            7,
        );
        let (vid, _, _) = c.alloc_endpoint(0, 0, true).unwrap();
        c.request_migration(vid, Some(1));
        c.process(SimTime::from_nanos(5), 0, &CtlOp::Tick { seq: 0 }, None);
        assert_eq!(c.cached_ticks, 1);
        assert_eq!(c.reconciles, 0);
        assert_eq!(c.migrations_started, 0, "no reconciliation during an outage");
    }

    #[test]
    fn manual_migration_runs_the_four_phases() {
        let mut c = ControlPlane::new(spec(vec![0, 1]), 7);
        let (vid, _, _) = c.alloc_endpoint(0, 0, true).unwrap();
        c.request_migration(vid, Some(1));
        let t0 = SimTime::from_nanos(1_000);
        c.process(t0, 0, &CtlOp::Tick { seq: 0 }, None);
        // Tick chain + 4 phases.
        let phases: Vec<CtlEntry> = c
            .entries_for(0)
            .iter()
            .filter(|(_, _, op)| matches!(op, CtlOp::Mig { .. }))
            .cloned()
            .collect();
        assert_eq!(phases.len(), 4);
        assert_eq!(c.migrations_started, 1);
        for (at, k, op) in phases {
            c.process(at, k, &op, None);
        }
        assert_eq!(c.migrations_completed, 1);
        let m = c.managed(vid).unwrap();
        assert_eq!(m.host, 1);
        assert!(m.ep.0 >= CTL_EP_BASE);
        assert!(c.worst_lag.is_some(), "divergence episode recorded and closed");
        assert!(c.diverged_since.is_none());
    }
}
