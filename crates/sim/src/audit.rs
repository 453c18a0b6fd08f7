//! Cross-layer invariant auditor for composed simulations.
//!
//! The stack's correctness claims — exactly-once delivery through the
//! dedup window, the stop-and-wait channel discipline, credit-based flow
//! control, and endpoint frame accounting across load/unload/pageout —
//! each live in a different crate. The [`Auditor`] is a passive observer
//! that mirrors all of them at once: components report protocol events
//! through cheap hooks (`on_*`/`os_*`), the auditor replays them against
//! an independent model, and any divergence is recorded as a named
//! [`Violation`].
//!
//! The auditor is deliberately defined in `vnet-sim` (below every stack
//! crate) in terms of raw integers — host indices, endpoint indices,
//! channel lanes, message uids — so `vnet-nic`, `vnet-os`, and
//! `vnet-core` can all hold an [`AuditHandle`] without dependency cycles.
//! Like the simulation itself, it is single-threaded: the handle is an
//! `Rc<RefCell<_>>`, and hooks never re-enter the components.
//!
//! Invariants checked (names appear verbatim in violations):
//!
//! * `audit.exactly-once` — a message uid is delivered into a receive
//!   queue at most once, and never both delivered and returned to its
//!   sender (bounced), cluster-wide.
//! * `audit.stop-and-wait` — at most one frame in flight per channel;
//!   binds/completes/unbinds pair up.
//! * `audit.seq-monotone` — sequence numbers assigned on a channel
//!   strictly increase across bindings.
//! * `audit.stale-retx` — a retransmission only ever re-sends the frame
//!   currently bound to the channel (a stale-generation timer must never
//!   cause action).
//! * `audit.credit-conservation` — per-endpoint request credits: no
//!   double-consume of a uid, no release of a credit that was never
//!   held, and never more than the window outstanding per destination.
//! * `audit.residency` — endpoint residency transitions in the OS layer
//!   follow the four-state protocol's legal edges.
//! * `audit.frame-accounting` — endpoints in NI-occupying phases
//!   (loading / resident / unloading) never exceed the host's endpoint
//!   frame count, and the occupancy counter never underflows.

use crate::fxhash::{fx_map_with_capacity, FxHashMap};
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Shared, single-threaded handle to an [`Auditor`].
pub type AuditHandle = Rc<RefCell<Auditor>>;

/// One recorded invariant breach.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable invariant name (e.g. `"audit.exactly-once"`).
    pub invariant: &'static str,
    /// Simulated time of the offending event.
    pub at: SimTime,
    /// Host index where it was observed (`u32::MAX` when cluster-wide).
    pub host: u32,
    /// Offending tenant, when the breach is attributable to one (quota
    /// violations; `None` for tenant-less invariants).
    pub tenant: Option<String>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.tenant {
            Some(t) => write!(
                f,
                "[{}] t={} h{} tenant={}: {}",
                self.invariant, self.at, self.host, t, self.detail
            ),
            None => write!(f, "[{}] t={} h{}: {}", self.invariant, self.at, self.host, self.detail),
        }
    }
}

/// Terminal/live state of a message uid in the delivery ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFate {
    /// Posted by a host; not yet resolved.
    Posted,
    /// Deposited into a receive queue (exactly-once point).
    Delivered,
    /// Returned to its sender as undeliverable.
    Bounced,
    /// Discarded before resolution (owning endpoint torn down).
    Aborted,
}

/// Residency phase of an endpoint as mirrored from the OS layer.
/// `Loading`, `Resident`, and `Unloading` occupy an NI endpoint frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpPhase {
    /// Parked in host memory (r/o or r/w — the auditor does not care).
    Host,
    /// Image handed to the NIC; load DMA in progress.
    Loading,
    /// Serviceable in an NI frame.
    Resident,
    /// Quiescing + unload DMA in progress.
    Unloading,
    /// Paged out to the swap area.
    Disk,
    /// Swap-in in progress.
    PagingIn,
}

impl EpPhase {
    fn occupies_frame(self) -> bool {
        matches!(self, EpPhase::Loading | EpPhase::Resident | EpPhase::Unloading)
    }
}

#[derive(Clone, Default)]
struct ChanAudit {
    in_flight: Option<u64>,
    last_seq: Option<u64>,
}

#[derive(Clone)]
struct HostAudit {
    frames_total: u32,
    occupied: u32,
    phases: FxHashMap<u32, EpPhase>,
}

#[derive(Clone, Default)]
struct CreditAudit {
    /// uid → translation index it consumed a credit for.
    held: FxHashMap<u64, usize>,
    /// outstanding count per translation index.
    per_idx: FxHashMap<usize, u32>,
}

/// One tenant's declared byte allowance, mirrored from the control plane.
#[derive(Clone, Debug)]
struct TenantAudit {
    name: String,
    /// Cluster-wide admitted-byte allowance per epoch (0 = unlimited).
    bytes_per_epoch: u64,
    /// Epoch length in nanoseconds.
    epoch_nanos: u64,
}

/// The delivery ledger's hook counters (sanity checks and reports). Every
/// other protocol count lives in the component stats (`NicStats`,
/// `OsStats`), not here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditCounters {
    /// Messages entered into the ledger.
    pub posted: u64,
    /// Deliveries into receive queues.
    pub delivered: u64,
    /// Returns-to-sender.
    pub bounced: u64,
    /// Messages discarded on teardown.
    pub aborted: u64,
    /// Stale-generation retransmit timers correctly suppressed.
    pub stale_timers_suppressed: u64,
}

/// How many violations are kept verbatim; later ones only bump the count.
const MAX_KEPT_VIOLATIONS: usize = 64;

/// The cross-layer invariant auditor. See the module docs for the
/// invariant list; see `vnet_core::Cluster::audit` for the cluster-level
/// entry point that turns recorded violations into a report.
pub struct Auditor {
    credit_limit: u32,
    violations: Vec<Violation>,
    total_violations: u64,
    // FxHash (in-tree, seed-free) instead of SipHash: these maps are keyed
    // by simulation-generated integers and sit on the audited hot path —
    // see `crate::fxhash`. Pre-sized so steady-state traffic never
    // rehashes mid-run.
    ledger: FxHashMap<u64, MsgFate>,
    channels: FxHashMap<(u32, u32, u8), ChanAudit>,
    hosts: FxHashMap<u32, HostAudit>,
    credits: FxHashMap<(u32, u32), CreditAudit>,
    /// Declared tenants (id → allowance), mirrored from the control plane.
    tenants: FxHashMap<u32, TenantAudit>,
    /// `(host, ep)` → owning tenant id.
    ep_tenant: FxHashMap<(u32, u32), u32>,
    /// Admitted request bytes per `(tenant, epoch index)`.
    tenant_bytes: FxHashMap<(u32, u64), u64>,
    counters: AuditCounters,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor::new(32)
    }
}

impl Auditor {
    /// An auditor expecting at most `credit_limit` outstanding requests
    /// per (endpoint, destination) pair.
    pub fn new(credit_limit: u32) -> Self {
        Auditor {
            credit_limit,
            violations: Vec::new(),
            total_violations: 0,
            ledger: fx_map_with_capacity(1024),
            channels: fx_map_with_capacity(256),
            hosts: fx_map_with_capacity(64),
            credits: fx_map_with_capacity(256),
            tenants: FxHashMap::default(),
            ep_tenant: FxHashMap::default(),
            tenant_bytes: FxHashMap::default(),
            counters: AuditCounters::default(),
        }
    }

    /// Wrap a fresh auditor in a shareable handle.
    pub fn handle(credit_limit: u32) -> AuditHandle {
        Rc::new(RefCell::new(Auditor::new(credit_limit)))
    }

    /// Declare a host and its NI endpoint frame budget.
    pub fn register_host(&mut self, host: u32, frames_total: u32) {
        self.hosts
            .entry(host)
            .or_insert(HostAudit { frames_total, occupied: 0, phases: FxHashMap::default() });
    }

    fn violate(&mut self, invariant: &'static str, at: SimTime, host: u32, detail: String) {
        self.violate_tenant(invariant, at, host, None, detail);
    }

    fn violate_tenant(
        &mut self,
        invariant: &'static str,
        at: SimTime,
        host: u32,
        tenant: Option<String>,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_KEPT_VIOLATIONS {
            self.violations.push(Violation { invariant, at, host, tenant, detail });
        }
    }

    // -------------------------------------------------------- delivery ledger

    /// A message uid entered a send queue (request or reply, resident or
    /// host-image path).
    pub fn on_posted(&mut self, at: SimTime, host: u32, uid: u64) {
        self.counters.posted += 1;
        if self.ledger.insert(uid, MsgFate::Posted).is_some() {
            self.violate(
                "audit.exactly-once",
                at,
                host,
                format!("uid {uid} posted twice (uid reuse)"),
            );
        }
    }

    /// A message was deposited into a receive queue. Exactly-once point:
    /// a second delivery, or a delivery after a bounce, is a violation.
    /// Unknown uids are adopted (partial instrumentation stays usable).
    pub fn on_delivered(&mut self, at: SimTime, host: u32, uid: u64) {
        self.counters.delivered += 1;
        match self.ledger.insert(uid, MsgFate::Delivered) {
            None | Some(MsgFate::Posted) => {}
            Some(prev) => self.violate(
                "audit.exactly-once",
                at,
                host,
                format!("uid {uid} delivered but was already {prev:?}"),
            ),
        }
    }

    /// A message was returned to its sender as undeliverable.
    pub fn on_bounced(&mut self, at: SimTime, host: u32, uid: u64) {
        self.counters.bounced += 1;
        match self.ledger.insert(uid, MsgFate::Bounced) {
            None | Some(MsgFate::Posted) => {}
            Some(prev) => self.violate(
                "audit.exactly-once",
                at,
                host,
                format!("uid {uid} bounced but was already {prev:?}"),
            ),
        }
    }

    /// A message was discarded unresolved (owning endpoint torn down or
    /// its staged DMA aborted). Resolved fates are left untouched. An
    /// unknown uid records `Aborted` as well (partial instrumentation
    /// stays usable), and [`Auditor::fold`] lets any resolved fate
    /// another shard holds win over it.
    pub fn on_send_aborted(&mut self, _at: SimTime, _host: u32, uid: u64) {
        self.counters.aborted += 1;
        match self.ledger.get(&uid) {
            None | Some(MsgFate::Posted) => {
                self.ledger.insert(uid, MsgFate::Aborted);
            }
            Some(_) => {}
        }
    }

    // ------------------------------------------------------ stop-and-wait

    /// A frame was bound to channel `(host → peer, idx)` with `seq`.
    pub fn on_channel_bind(
        &mut self,
        at: SimTime,
        host: u32,
        peer: u32,
        idx: u8,
        uid: u64,
        seq: u64,
    ) {
        let (prev_uid, prev_seq) = {
            let ch = self.channels.entry((host, peer, idx)).or_default();
            (ch.in_flight, ch.last_seq)
        };
        if let Some(prev) = prev_uid {
            let detail =
                format!("bind uid {uid} on h{host}→h{peer}#{idx} with uid {prev} in flight");
            self.violate("audit.stop-and-wait", at, host, detail);
        }
        if let Some(last) = prev_seq {
            if seq <= last {
                let detail =
                    format!("seq {seq} after {last} on h{host}→h{peer}#{idx} (uid {uid})");
                self.violate("audit.seq-monotone", at, host, detail);
            }
        }
        let ch = self.channels.entry((host, peer, idx)).or_default();
        ch.in_flight = Some(uid);
        ch.last_seq = Some(seq);
    }

    /// The in-flight frame of a channel was acknowledged.
    pub fn on_channel_complete(&mut self, at: SimTime, host: u32, peer: u32, idx: u8, uid: u64) {
        let cur = self.channels.entry((host, peer, idx)).or_default().in_flight;
        if cur != Some(uid) {
            let detail =
                format!("complete uid {uid} on h{host}→h{peer}#{idx} but {cur:?} in flight");
            self.violate("audit.stop-and-wait", at, host, detail);
        }
        self.channels.entry((host, peer, idx)).or_default().in_flight = None;
    }

    /// A channel forcibly evicted its in-flight frame (reuse, §5.1).
    pub fn on_channel_unbind(&mut self, at: SimTime, host: u32, peer: u32, idx: u8, uid: u64) {
        let cur = self.channels.entry((host, peer, idx)).or_default().in_flight;
        if cur != Some(uid) {
            let detail =
                format!("unbind uid {uid} on h{host}→h{peer}#{idx} but {cur:?} in flight");
            self.violate("audit.stop-and-wait", at, host, detail);
        }
        self.channels.entry((host, peer, idx)).or_default().in_flight = None;
    }

    /// A channel retransmitted. Must re-send exactly the bound frame.
    pub fn on_channel_retransmit(
        &mut self,
        at: SimTime,
        host: u32,
        peer: u32,
        idx: u8,
        uid: u64,
    ) {
        let cur = self.channels.entry((host, peer, idx)).or_default().in_flight;
        if cur != Some(uid) {
            let detail =
                format!("retransmit uid {uid} on h{host}→h{peer}#{idx} but {cur:?} in flight");
            self.violate("audit.stale-retx", at, host, detail);
        }
    }

    /// A retransmit timer with a stale generation fired and was correctly
    /// ignored (counted — the guard working as intended).
    pub fn on_stale_timer(&mut self, _at: SimTime, _host: u32) {
        self.counters.stale_timers_suppressed += 1;
    }

    // ------------------------------------------------------ fault recovery

    /// A frame was transmitted over a route containing a *scheduled*
    /// down link while a free channel with a fully-up route existed —
    /// the failover machinery sent into a known failure it could have
    /// routed around. The NIC evaluates the condition (it owns the route
    /// oracle and the channel table); this hook records the verdict.
    pub fn on_down_route_send(&mut self, at: SimTime, host: u32, peer: u32, idx: u8, uid: u64) {
        self.violate(
            "audit.down-route",
            at,
            host,
            format!("uid {uid} sent on h{host}→h{peer}#{idx} over a scheduled-down route while an up route existed"),
        );
    }

    /// Campaign-level time-to-recovery check: once `now` is at least
    /// `bound` past the campaign's last scheduled transition (`horizon`),
    /// every uid ever posted must have a resolved fate — delivered,
    /// bounced, or aborted. A uid still `Posted` means the protocol
    /// failed to recover after the final `link_up`. Call after the run,
    /// on the folded auditor (see [`Auditor::fold`]).
    pub fn check_recovery(&mut self, now: SimTime, horizon: SimTime, bound: SimDuration) {
        if now < horizon + bound {
            return;
        }
        let mut stuck: Vec<u64> =
            self.ledger.iter().filter(|&(_, f)| *f == MsgFate::Posted).map(|(u, _)| *u).collect();
        stuck.sort_unstable(); // ledger is a hash map; order the report
        for uid in stuck {
            let host = (uid >> 40) as u32; // uid layout: (host << 40) | counter
            self.violate(
                "audit.recovery",
                now,
                host,
                format!("uid {uid} still unresolved {bound} after the last fault transition at {horizon}"),
            );
        }
    }

    /// Control-plane time-to-reconvergence check. The control plane owns
    /// the convergence definition (no migration in flight, no managed
    /// endpoint placed on a failed host); this check turns its replicated
    /// observations into violations: a completed reconvergence that took
    /// longer than `bound` (`worst` is `(diverged-at, lag)`), or a
    /// divergence still open `bound` after it began. Call after the run.
    pub fn check_reconverged(
        &mut self,
        now: SimTime,
        diverged_since: Option<SimTime>,
        worst: Option<(SimTime, SimDuration)>,
        bound: SimDuration,
    ) {
        if let Some((at, lag)) = worst {
            if lag > bound {
                self.violate(
                    "audit.reconverged",
                    at,
                    u32::MAX,
                    format!("placement reconvergence took {lag} (bound {bound})"),
                );
            }
        }
        if let Some(since) = diverged_since {
            if now >= since + bound {
                self.violate(
                    "audit.reconverged",
                    now,
                    u32::MAX,
                    format!("placement still diverged {bound} after divergence at {since}"),
                );
            }
        }
    }

    // ------------------------------------------------------ tenant quotas

    /// Declare a tenant and its cluster-wide admitted-byte allowance per
    /// epoch (`bytes_per_epoch == 0` means unlimited). Mirrored from the
    /// control plane so [`Auditor::check_tenant_quota`] can verify
    /// conservation independently of the enforcement path.
    pub fn register_tenant(
        &mut self,
        id: u32,
        name: &str,
        bytes_per_epoch: u64,
        epoch: SimDuration,
    ) {
        self.tenants.insert(
            id,
            TenantAudit {
                name: name.to_string(),
                bytes_per_epoch,
                epoch_nanos: epoch.as_nanos().max(1),
            },
        );
    }

    /// Bind `(host, ep)` to a tenant. Every admitted request byte on the
    /// endpoint is charged to that tenant's epoch account.
    pub fn bind_tenant(&mut self, host: u32, ep: u32, tenant: u32) {
        self.ep_tenant.insert((host, ep), tenant);
    }

    /// A request of `bytes` was admitted past quota enforcement on
    /// `(host, ep)`. Unbound endpoints are ignored (quota-free traffic).
    pub fn on_tenant_bytes(&mut self, at: SimTime, host: u32, ep: u32, bytes: u64) {
        let Some(&t) = self.ep_tenant.get(&(host, ep)) else { return };
        let Some(ta) = self.tenants.get(&t) else { return };
        let epoch = at.as_nanos() / ta.epoch_nanos;
        *self.tenant_bytes.entry((t, epoch)).or_insert(0) += bytes;
    }

    /// Per-tenant byte-quota conservation: for every `(tenant, epoch)`
    /// account, admitted bytes must not exceed the declared allowance.
    /// Call after the run on the folded auditor (per-shard accounts are
    /// partial sums; only the merged total is meaningful).
    pub fn check_tenant_quota(&mut self) {
        let mut over: Vec<(u32, u64, u64)> = self
            .tenant_bytes
            .iter()
            .filter_map(|(&(t, e), &b)| {
                let ta = self.tenants.get(&t)?;
                (ta.bytes_per_epoch > 0 && b > ta.bytes_per_epoch).then_some((t, e, b))
            })
            .collect();
        over.sort_unstable();
        for (t, e, b) in over {
            let ta = &self.tenants[&t];
            let at = SimTime::from_nanos((e + 1).saturating_mul(ta.epoch_nanos));
            let name = ta.name.clone();
            let allowance = ta.bytes_per_epoch;
            self.violate_tenant(
                "audit.tenant-bytes",
                at,
                u32::MAX,
                Some(name),
                format!("epoch {e}: {b} bytes admitted against a {allowance}-byte allowance"),
            );
        }
    }

    /// Admitted bytes charged to `tenant` in `epoch` so far.
    pub fn tenant_epoch_bytes(&self, tenant: u32, epoch: u64) -> u64 {
        self.tenant_bytes.get(&(tenant, epoch)).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------- credits

    /// Request `uid` from `(host, ep)` consumed a credit toward
    /// translation `idx`.
    pub fn on_credit_acquire(&mut self, at: SimTime, host: u32, ep: u32, idx: usize, uid: u64) {
        let limit = self.credit_limit;
        let c = self.credits.entry((host, ep)).or_default();
        if c.held.insert(uid, idx).is_some() {
            let detail = format!("uid {uid} consumed a credit twice on h{host} ep{ep}");
            self.violate("audit.credit-conservation", at, host, detail);
            return;
        }
        let n = c.per_idx.entry(idx).or_insert(0);
        *n += 1;
        let n = *n;
        if n > limit {
            let detail =
                format!("h{host} ep{ep} idx{idx}: {n} credits outstanding (window {limit})");
            self.violate("audit.credit-conservation", at, host, detail);
        }
    }

    /// The reply (or undeliverable return) for `uid` recovered its credit.
    pub fn on_credit_release(&mut self, at: SimTime, host: u32, ep: u32, uid: u64) {
        let Some(c) = self.credits.get_mut(&(host, ep)) else {
            let detail = format!("credit release for uid {uid} on unknown h{host} ep{ep}");
            self.violate("audit.credit-conservation", at, host, detail);
            return;
        };
        match c.held.remove(&uid) {
            Some(idx) => {
                let n = c.per_idx.entry(idx).or_insert(0);
                if *n == 0 {
                    let detail = format!("h{host} ep{ep} idx{idx}: credit count underflow");
                    self.violate("audit.credit-conservation", at, host, detail);
                } else {
                    *n -= 1;
                }
            }
            None => {
                let detail = format!("uid {uid} released a credit it never held (h{host} ep{ep})");
                self.violate("audit.credit-conservation", at, host, detail);
            }
        }
    }

    /// Endpoint teardown: outstanding credits die with the user state.
    pub fn on_endpoint_destroyed(&mut self, host: u32, ep: u32) {
        self.credits.remove(&(host, ep));
    }

    // ----------------------------------------------- OS residency mirror

    /// The segment driver allocated an endpoint (starts parked on host).
    pub fn os_created(&mut self, at: SimTime, host: u32, ep: u32) {
        let h = self.hosts.entry(host).or_insert(HostAudit {
            frames_total: u32::MAX,
            occupied: 0,
            phases: FxHashMap::default(),
        });
        if h.phases.insert(ep, EpPhase::Host).is_some() {
            self.violate("audit.residency", at, host, format!("ep{ep} created twice"));
        }
    }

    /// The segment driver moved `ep` to `to`. Legal edges follow the
    /// four-state protocol (plus the freed-while-loading unload):
    /// Host→Loading→Resident→Unloading→Host and Host→Disk→PagingIn→Host,
    /// with Loading→Unloading for endpoints freed mid-load.
    pub fn os_transition(&mut self, at: SimTime, host: u32, ep: u32, to: EpPhase) {
        use EpPhase::*;
        let from = match self.hosts.get(&host).and_then(|h| h.phases.get(&ep)) {
            Some(&f) => f,
            None => {
                let detail = if self.hosts.contains_key(&host) {
                    format!("ep{ep} transitioned to {to:?} but was never created")
                } else {
                    format!("ep{ep} on unknown host")
                };
                self.violate("audit.residency", at, host, detail);
                return;
            }
        };
        let legal = matches!(
            (from, to),
            (Host, Loading)
                | (Loading, Resident)
                | (Loading, Unloading)
                | (Resident, Unloading)
                | (Unloading, Host)
                | (Host, Disk)
                | (Disk, PagingIn)
                | (PagingIn, Host)
        );
        if !legal {
            self.violate(
                "audit.residency",
                at,
                host,
                format!("ep{ep}: illegal transition {from:?} → {to:?}"),
            );
        }
        let h = self.hosts.get_mut(&host).expect("checked above");
        h.phases.insert(ep, to);
        let mut overcommit = None;
        let mut underflow = false;
        match (from.occupies_frame(), to.occupies_frame()) {
            (false, true) => {
                h.occupied += 1;
                if h.occupied > h.frames_total {
                    overcommit = Some((h.occupied, h.frames_total));
                }
            }
            (true, false) => {
                if h.occupied == 0 {
                    underflow = true;
                } else {
                    h.occupied -= 1;
                }
            }
            _ => {}
        }
        if let Some((occ, total)) = overcommit {
            self.violate(
                "audit.frame-accounting",
                at,
                host,
                format!("{occ} endpoints occupy {total} frames"),
            );
        }
        if underflow {
            self.violate(
                "audit.frame-accounting",
                at,
                host,
                format!("ep{ep}: frame occupancy underflow"),
            );
        }
    }

    /// The segment driver freed `ep` (its record is gone).
    pub fn os_destroyed(&mut self, at: SimTime, host: u32, ep: u32) {
        let Some(h) = self.hosts.get_mut(&host) else { return };
        let removed = h.phases.remove(&ep);
        match removed {
            None => {
                self.violate("audit.residency", at, host, format!("ep{ep} destroyed twice"));
            }
            Some(phase) if phase.occupies_frame() => {
                if h.occupied == 0 {
                    self.violate(
                        "audit.frame-accounting",
                        at,
                        host,
                        format!("ep{ep}: frame occupancy underflow on destroy"),
                    );
                } else {
                    h.occupied -= 1;
                }
            }
            Some(_) => {}
        }
    }

    // ----------------------------------------------------- shard fold

    /// Fold per-shard auditors into one cluster-wide view, a pure
    /// function of their state. Host-keyed state is disjoint across
    /// shards (every host reports into its own shard's auditor) and
    /// unions; tenant declarations are replicated and taken once;
    /// counters, violation totals and per-epoch tenant bytes sum; and
    /// ledger fates join. A uid can be touched by two shards — posted on
    /// one, delivered on another — so `Posted`/`Aborted` yield to a
    /// resolved fate, while two resolved fates for one uid are the
    /// cross-shard form of an exactly-once violation. Kept violations are
    /// put in canonical `(time, host)` order, so the report is identical
    /// to a sequential run's.
    pub fn fold<'a>(shards: impl IntoIterator<Item = &'a Auditor>) -> Auditor {
        let mut out: Option<Auditor> = None;
        let mut joined: Vec<Violation> = Vec::new();
        for sh in shards {
            let f = out.get_or_insert_with(|| Auditor {
                tenants: sh.tenants.clone(),
                ..Auditor::new(sh.credit_limit)
            });
            f.channels.extend(sh.channels.iter().map(|(k, v)| (*k, v.clone())));
            f.credits.extend(sh.credits.iter().map(|(k, v)| (*k, v.clone())));
            f.hosts.extend(sh.hosts.iter().map(|(k, v)| (*k, v.clone())));
            f.ep_tenant.extend(sh.ep_tenant.iter().map(|(k, v)| (*k, *v)));
            for (&k, &b) in &sh.tenant_bytes {
                *f.tenant_bytes.entry(k).or_insert(0) += b;
            }
            let c = sh.counters;
            f.counters.posted += c.posted;
            f.counters.delivered += c.delivered;
            f.counters.bounced += c.bounced;
            f.counters.aborted += c.aborted;
            f.counters.stale_timers_suppressed += c.stale_timers_suppressed;
            f.total_violations += sh.total_violations;
            f.violations.extend(sh.violations.iter().cloned());
            for (&uid, &fate) in &sh.ledger {
                use MsgFate::*;
                match f.ledger.get(&uid).copied() {
                    // Provisional states (unknown / posted / aborted) yield
                    // to whatever another shard learned; a provisional
                    // incoming fate only fills an empty slot.
                    None => {
                        f.ledger.insert(uid, fate);
                    }
                    Some(Posted) | Some(Aborted) if fate != Posted => {
                        f.ledger.insert(uid, fate);
                    }
                    Some(Posted) | Some(Aborted) => {}
                    Some(prev @ (Delivered | Bounced)) => {
                        if fate == Delivered || fate == Bounced {
                            f.total_violations += 1;
                            joined.push(Violation {
                                invariant: "audit.exactly-once",
                                at: SimTime::ZERO,
                                host: u32::MAX,
                                tenant: None,
                                detail: format!(
                                    "uid {uid} resolved twice across shards: {prev:?} then {fate:?}"
                                ),
                            });
                        }
                    }
                }
            }
        }
        let mut out = out.unwrap_or_default();
        out.violations.append(&mut joined);
        out.canonicalize_violations();
        out
    }

    /// Keep violations a cluster-wide check found on a [`Auditor::fold`]:
    /// `found` are the kept records, `total` the full count. They are
    /// retained like this auditor's own, so every later fold
    /// reports them.
    pub fn record_found(&mut self, found: &[Violation], total: u64) {
        self.total_violations += total;
        for v in found {
            if self.violations.len() < MAX_KEPT_VIOLATIONS {
                self.violations.push(v.clone());
            }
        }
    }

    /// Impose the canonical `(time, host)` order on the kept violations
    /// (stable, so each host's chronological sub-order survives) and trim
    /// to the keep window, so reports never depend on cross-host
    /// processing order.
    fn canonicalize_violations(&mut self) {
        self.violations.sort_by_key(|v| (v.at, v.host));
        self.violations.truncate(MAX_KEPT_VIOLATIONS);
    }

    /// The full delivery ledger, sorted by uid — the differential suite's
    /// byte-comparable form.
    pub fn ledger_snapshot(&self) -> Vec<(u64, MsgFate)> {
        let mut v: Vec<(u64, MsgFate)> = self.ledger.iter().map(|(k, f)| (*k, *f)).collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    // ------------------------------------------------------------ reading

    /// Whether any invariant has been violated.
    pub fn has_violations(&self) -> bool {
        self.total_violations > 0
    }

    /// Violations recorded so far (the first `MAX_KEPT_VIOLATIONS` kept
    /// verbatim; see [`Auditor::total_violations`] for the full count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed, including any beyond the kept window.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Aggregate hook counters.
    pub fn counters(&self) -> AuditCounters {
        self.counters
    }

    /// Ledger fate of a message uid, if known.
    pub fn fate(&self, uid: u64) -> Option<MsgFate> {
        self.ledger.get(&uid).copied()
    }

    /// Number of ledger entries still unresolved (posted, neither
    /// delivered nor bounced nor aborted).
    pub fn unresolved(&self) -> usize {
        self.ledger.values().filter(|f| **f == MsgFate::Posted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    fn named(a: &Auditor) -> Vec<&'static str> {
        a.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn clean_request_reply_flow_is_clean() {
        let mut a = Auditor::new(32);
        a.register_host(0, 8);
        a.register_host(1, 8);
        a.os_created(t(0), 0, 0);
        a.os_transition(t(1), 0, 0, EpPhase::Loading);
        a.os_transition(t(2), 0, 0, EpPhase::Resident);
        a.on_posted(t(3), 0, 100);
        a.on_credit_acquire(t(3), 0, 0, 0, 100);
        a.on_channel_bind(t(4), 0, 1, 0, 100, 0);
        a.on_channel_retransmit(t(5), 0, 1, 0, 100);
        a.on_delivered(t(6), 1, 100);
        a.on_channel_complete(t(8), 0, 1, 0, 100);
        a.on_credit_release(t(9), 0, 0, 100);
        assert!(!a.has_violations(), "{:?}", a.violations());
        assert_eq!(a.counters().delivered, 1);
        assert_eq!(a.unresolved(), 0);
    }

    #[test]
    fn double_delivery_is_caught() {
        let mut a = Auditor::new(32);
        a.on_posted(t(0), 0, 7);
        a.on_delivered(t(1), 1, 7);
        a.on_delivered(t(2), 1, 7);
        assert_eq!(named(&a), vec!["audit.exactly-once"]);
    }

    #[test]
    fn bounce_after_delivery_is_caught() {
        let mut a = Auditor::new(32);
        a.on_posted(t(0), 0, 7);
        a.on_delivered(t(1), 1, 7);
        a.on_bounced(t(2), 0, 7);
        assert_eq!(named(&a), vec!["audit.exactly-once"]);
    }

    #[test]
    fn double_bind_and_seq_regression_are_caught() {
        let mut a = Auditor::new(32);
        a.on_channel_bind(t(0), 0, 1, 0, 1, 0);
        a.on_channel_bind(t(1), 0, 1, 0, 2, 1); // uid 1 still in flight
        assert_eq!(named(&a), vec!["audit.stop-and-wait"]);
        a.on_channel_complete(t(2), 0, 1, 0, 2);
        a.on_channel_bind(t(3), 0, 1, 0, 3, 1); // seq goes backwards
        assert_eq!(named(&a), vec!["audit.stop-and-wait", "audit.seq-monotone"]);
    }

    #[test]
    fn stale_retransmit_is_caught() {
        let mut a = Auditor::new(32);
        a.on_channel_bind(t(0), 0, 1, 0, 1, 0);
        a.on_channel_complete(t(1), 0, 1, 0, 1);
        a.on_channel_retransmit(t(2), 0, 1, 0, 1);
        assert_eq!(named(&a), vec!["audit.stale-retx"]);
    }

    #[test]
    fn credit_leak_overflows_window() {
        let mut a = Auditor::new(4);
        for uid in 0..4 {
            a.on_credit_acquire(t(uid), 0, 0, 0, uid);
        }
        assert!(!a.has_violations());
        // The leak: a fifth acquire with none of the four ever released.
        a.on_credit_acquire(t(9), 0, 0, 0, 99);
        assert_eq!(named(&a), vec!["audit.credit-conservation"]);
    }

    #[test]
    fn credit_double_acquire_and_bogus_release_are_caught() {
        let mut a = Auditor::new(32);
        a.on_credit_acquire(t(0), 0, 0, 0, 5);
        a.on_credit_acquire(t(1), 0, 0, 0, 5);
        a.on_credit_release(t(2), 0, 0, 5);
        a.on_credit_release(t(3), 0, 0, 5);
        assert_eq!(
            named(&a),
            vec!["audit.credit-conservation", "audit.credit-conservation"]
        );
    }

    #[test]
    fn residency_cycle_is_clean_and_bad_edges_are_caught() {
        let mut a = Auditor::new(32);
        a.register_host(0, 1);
        a.os_created(t(0), 0, 3);
        a.os_transition(t(1), 0, 3, EpPhase::Loading);
        a.os_transition(t(2), 0, 3, EpPhase::Resident);
        a.os_transition(t(3), 0, 3, EpPhase::Unloading);
        a.os_transition(t(4), 0, 3, EpPhase::Host);
        a.os_transition(t(5), 0, 3, EpPhase::Disk);
        a.os_transition(t(6), 0, 3, EpPhase::PagingIn);
        a.os_transition(t(7), 0, 3, EpPhase::Host);
        assert!(!a.has_violations(), "{:?}", a.violations());
        // Disk → Resident skips the load pipeline entirely.
        a.os_transition(t(8), 0, 3, EpPhase::Disk);
        a.os_transition(t(9), 0, 3, EpPhase::Resident);
        assert_eq!(named(&a), vec!["audit.residency"]);
    }

    #[test]
    fn frame_overcommit_is_caught() {
        let mut a = Auditor::new(32);
        a.register_host(0, 1);
        a.os_created(t(0), 0, 0);
        a.os_created(t(0), 0, 1);
        a.os_transition(t(1), 0, 0, EpPhase::Loading);
        a.os_transition(t(2), 0, 1, EpPhase::Loading); // second ep, one frame
        assert_eq!(named(&a), vec!["audit.frame-accounting"]);
    }

    #[test]
    fn destroy_releases_frame_and_double_destroy_is_caught() {
        let mut a = Auditor::new(32);
        a.register_host(0, 1);
        a.os_created(t(0), 0, 0);
        a.os_transition(t(1), 0, 0, EpPhase::Loading);
        a.os_transition(t(2), 0, 0, EpPhase::Unloading); // freed mid-load
        a.os_destroyed(t(3), 0, 0);
        assert!(!a.has_violations(), "{:?}", a.violations());
        // The frame is free again: another endpoint can take it.
        a.os_created(t(4), 0, 1);
        a.os_transition(t(5), 0, 1, EpPhase::Loading);
        assert!(!a.has_violations(), "{:?}", a.violations());
        a.os_destroyed(t(6), 0, 0);
        assert_eq!(named(&a), vec!["audit.residency"]);
    }

    #[test]
    fn violation_window_caps_but_counts_all() {
        let mut a = Auditor::new(32);
        for i in 0..(MAX_KEPT_VIOLATIONS as u64 + 10) {
            a.on_credit_release(t(i), 0, 0, i); // never held
        }
        assert_eq!(a.violations().len(), MAX_KEPT_VIOLATIONS);
        assert_eq!(a.total_violations(), MAX_KEPT_VIOLATIONS as u64 + 10);
    }

    #[test]
    fn fold_joins_ledger_fates_across_shards() {
        let mut a = Auditor::new(32);
        a.on_posted(t(0), 0, 10); // resolved on the other shard
        a.on_posted(t(0), 0, 11); // never resolves
        a.on_posted(t(0), 0, 12); // aborted on the other shard
        let mut b = Auditor::new(32);
        b.on_delivered(t(5), 1, 10);
        b.on_send_aborted(t(5), 0, 12); // uid unknown to this shard's ledger
        let f = Auditor::fold([&a, &b]);
        assert_eq!(
            f.ledger_snapshot(),
            vec![
                (10, MsgFate::Delivered),
                (11, MsgFate::Posted),
                (12, MsgFate::Aborted)
            ]
        );
        assert_eq!(f.counters().delivered, 1);
        assert_eq!(f.counters().aborted, 1);
        assert!(!f.has_violations(), "{:?}", f.violations());
        // Order-independent: a resolved fate wins whichever shard folds first.
        assert_eq!(Auditor::fold([&b, &a]).ledger_snapshot(), f.ledger_snapshot());
    }

    #[test]
    fn fold_flags_double_resolution_and_sums_totals() {
        let mut a = Auditor::new(32);
        a.on_posted(t(0), 0, 7);
        a.on_delivered(t(1), 0, 7);
        let mut b = Auditor::new(32);
        b.on_bounced(t(2), 1, 7); // same uid resolved again elsewhere
        b.on_credit_release(t(3), 1, 0, 99); // plus a shard-local violation
        let f = Auditor::fold([&a, &b]);
        let names: Vec<_> = f.violations().iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"audit.exactly-once"), "{names:?}");
        assert_eq!(f.total_violations(), b.total_violations() + 1);
        // Kept list is canonical: sorted by (time, host).
        let keys: Vec<_> = f.violations().iter().map(|v| (v.at, v.host)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn fold_unions_host_state_and_found_violations_persist() {
        let mut a = Auditor::new(32);
        a.register_host(0, 2);
        a.os_created(t(0), 0, 0);
        a.on_posted(t(0), 0, 5);
        let mut b = Auditor::new(32);
        b.register_host(1, 2);
        b.os_created(t(0), 1, 3);
        let mut f = Auditor::fold([&a, &b]);
        // Both shards' residency mirrors are visible in the fold.
        f.os_transition(t(1), 0, 0, EpPhase::Loading);
        f.os_transition(t(1), 1, 3, EpPhase::Loading);
        assert!(!f.has_violations(), "{:?}", f.violations());
        // A check run on the fold is kept by recording it in a shard.
        let (kept, total) = (f.violations().len(), f.total_violations());
        f.check_recovery(t(30), t(5), SimDuration::from_micros(10));
        a.record_found(&f.violations()[kept..], f.total_violations() - total);
        let again = Auditor::fold([&a, &b]);
        assert_eq!(named(&again), vec!["audit.recovery"]);
        assert_eq!(again.total_violations(), 1);
    }

    #[test]
    fn down_route_send_violates() {
        let mut a = Auditor::new(32);
        a.on_down_route_send(t(2), 0, 1, 2, 100);
        assert_eq!(named(&a), vec!["audit.down-route"]);
    }

    #[test]
    fn fold_sums_ledger_counters() {
        let mut a = Auditor::new(32);
        a.on_posted(t(0), 0, 1);
        a.on_stale_timer(t(0), 0);
        let mut b = Auditor::new(32);
        b.on_delivered(t(1), 1, 1);
        b.on_stale_timer(t(1), 1);
        let c = Auditor::fold([&a, &b]).counters();
        assert_eq!((c.posted, c.delivered, c.stale_timers_suppressed), (1, 1, 2));
    }

    #[test]
    fn tenant_quota_conservation_names_the_tenant() {
        let mut a = Auditor::new(32);
        a.register_tenant(0, "acme", 1000, SimDuration::from_micros(100));
        a.bind_tenant(0, 5, 0);
        a.on_tenant_bytes(t(10), 0, 5, 600);
        a.on_tenant_bytes(t(20), 0, 5, 300);
        a.check_tenant_quota();
        assert!(!a.has_violations(), "{:?}", a.violations());
        a.on_tenant_bytes(t(30), 0, 5, 200); // 1100 > 1000 in epoch 0
        a.on_tenant_bytes(t(150), 0, 5, 900); // fresh epoch: fine
        a.check_tenant_quota();
        assert_eq!(named(&a), vec!["audit.tenant-bytes"]);
        let v = &a.violations()[0];
        assert_eq!(v.tenant.as_deref(), Some("acme"));
        assert!(v.to_string().contains("tenant=acme"), "{v}");
    }

    #[test]
    fn tenant_bytes_sum_across_shards_before_the_quota_check() {
        let shard = |host: u32, ep: u32| {
            let mut a = Auditor::new(32);
            a.register_tenant(0, "acme", 1000, SimDuration::from_micros(100));
            a.bind_tenant(host, ep, 0);
            a
        };
        let (mut a, mut b) = (shard(0, 5), shard(1, 6));
        // Each shard resolves its own host's binding and accounts locally.
        a.on_tenant_bytes(t(10), 0, 5, 700);
        b.on_tenant_bytes(t(20), 1, 6, 700);
        b.check_tenant_quota();
        assert!(!b.has_violations(), "partial sums must not trip the check");
        let mut f = Auditor::fold([&a, &b]);
        f.check_tenant_quota();
        assert_eq!(named(&f), vec!["audit.tenant-bytes"], "folded total is 1400 > 1000");
    }

    #[test]
    fn reconverged_check_bounds_convergence_lag() {
        let mut a = Auditor::new(32);
        // A completed reconvergence within the bound, nothing open: clean.
        a.check_reconverged(t(100), None, Some((t(10), SimDuration::from_micros(5))), SimDuration::from_micros(20));
        assert!(!a.has_violations(), "{:?}", a.violations());
        // A reconvergence that took longer than the bound.
        a.check_reconverged(t(100), None, Some((t(10), SimDuration::from_micros(30))), SimDuration::from_micros(20));
        assert_eq!(named(&a), vec!["audit.reconverged"]);
        // A divergence still open past the bound.
        let mut b = Auditor::new(32);
        b.check_reconverged(t(100), Some(t(50)), None, SimDuration::from_micros(20));
        assert_eq!(named(&b), vec!["audit.reconverged"]);
        // ...but not while the grace window is still running.
        let mut c = Auditor::new(32);
        c.check_reconverged(t(60), Some(t(50)), None, SimDuration::from_micros(20));
        assert!(!c.has_violations());
    }

    #[test]
    fn recovery_check_flags_stuck_uids_after_the_horizon() {
        let mut a = Auditor::new(32);
        let uid_h3 = (3u64 << 40) | 7;
        a.on_posted(t(0), 3, uid_h3);
        a.on_posted(t(0), 0, 8);
        a.on_delivered(t(1), 1, 8);
        // Before horizon + bound: no verdict yet.
        a.check_recovery(t(10), t(5), SimDuration::from_micros(10));
        assert!(!a.has_violations());
        // Past the deadline: the unresolved uid is a recovery violation,
        // attributed to its posting host (uid layout (host << 40) | n).
        a.check_recovery(t(20), t(5), SimDuration::from_micros(10));
        assert_eq!(named(&a), vec!["audit.recovery"]);
        assert_eq!(a.violations()[0].host, 3);
    }
}
