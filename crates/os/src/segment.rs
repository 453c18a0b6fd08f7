//! The endpoint segment driver (§4.2–§4.3).
//!
//! Owns every endpoint on a node: its four-state residency record, its host
//! image while non-resident, the remap daemon that serializes load/unload
//! traffic to the NIC, and the bookkeeping that turns NIC driver messages
//! into thread wakeups.

use crate::config::OsConfig;
use crate::sched::Tid;
use crate::stats::OsStats;
use std::collections::{HashMap, HashSet, VecDeque};
use vnet_nic::{DriverMsg, DriverOp, EndpointImage, EpId, ProtectionKey};
use vnet_sim::{AuditHandle, EpPhase, SimDuration, SimRng, SimTime, TelemetryHandle};

mod probe;
use probe::{OsProbe, UnloadCause};

/// Residency state of an endpoint (Figure 2 of the paper, plus the
/// transition states the driver needs for bookkeeping).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpState {
    /// Parked in host memory, read-only mapping: a write (or arrival)
    /// faults and schedules a remap.
    HostRo,
    /// Host memory, writable: remap scheduled, application keeps running
    /// (the §4.2 robustness state).
    HostRw,
    /// Image handed to the NIC; load DMA in progress.
    Loading,
    /// Resident in an NI endpoint frame, serviceable.
    NicRw,
    /// Eviction in progress (NIC is quiescing + unloading).
    Unloading,
    /// Paged out to the swap area ("vm pageout").
    Disk,
    /// Swap-in in progress.
    PagingIn,
    /// Being destroyed; ignored by the daemon.
    Freeing,
}

/// Effects emitted by the segment driver.
#[derive(Debug)]
pub enum OsOut {
    /// Send a driver-protocol operation to the local NIC.
    Nic(DriverOp),
    /// Wake a thread (endpoint event or residency transition).
    Wake(Tid),
    /// Schedule an OS event after a delay.
    After(SimDuration, OsEvent),
}

/// Deferred OS events.
#[derive(Clone, Debug)]
pub enum OsEvent {
    /// Remap daemon wakes up and processes its queue.
    DaemonStep,
    /// Swap-in of an endpoint finished.
    PageInDone {
        /// The endpoint.
        ep: EpId,
    },
}

/// Result of a write fault (application touched a non-resident endpoint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Endpoint is resident; no fault at all.
    Resident,
    /// Fault taken; remap scheduled; the thread may continue writing into
    /// the host image (on-host r/w state).
    Proceed,
    /// Fault taken; the thread must block until the endpoint is resident
    /// (ablation mode, or the image is in transition on the SBUS).
    MustBlock,
}

struct EpRecord {
    state: EpState,
    /// Host-side image; `None` while the NIC holds it (Loading/NicRw/
    /// Unloading).
    image: Option<Box<EndpointImage>>,
    last_activity: SimTime,
    load_seq: u64,
    remap_requested_at: Option<SimTime>,
    /// Endpoint is being migrated off this host: evicted from the NI and
    /// held host-resident (remaps suppressed, so arrivals nack and senders
    /// fail over) until the control plane lifts the hold with
    /// [`SegmentDriver::end_migrate_hold`] for the lame-duck drain.
    migrating: bool,
}

/// The per-node endpoint segment driver.
pub struct SegmentDriver {
    cfg: OsConfig,
    frames_total: u32,
    nic_occupied: u32,
    eps: HashMap<EpId, EpRecord>,
    next_ep: u32,
    daemon_q: VecDeque<EpId>,
    daemon_queued: HashSet<EpId>,
    daemon_busy: bool,
    /// Target endpoint waiting for a victim's unload to finish.
    pending_after_unload: Option<EpId>,
    clock: u64,
    load_seq: u64,
    rng: SimRng,
    stats: OsStats,
    /// Host index for audit and span records (set by the composing world).
    host_idx: u32,
    /// Cross-layer invariant auditor; `None` when detached.
    auditor: Option<AuditHandle>,
    /// The shard's span log; `None` when detached.
    tel: Option<TelemetryHandle>,
    /// Latest simulated time seen by any timed entry point; stands in for
    /// `now` on untimed calls like [`SegmentDriver::pageout`].
    now_hint: SimTime,
}

impl SegmentDriver {
    /// Driver for a node whose NIC has `frames_total` endpoint frames.
    pub fn new(cfg: OsConfig, frames_total: u32, seed: u64) -> Self {
        SegmentDriver {
            cfg,
            frames_total,
            nic_occupied: 0,
            eps: HashMap::new(),
            next_ep: 0,
            daemon_q: VecDeque::new(),
            daemon_queued: HashSet::new(),
            daemon_busy: false,
            pending_after_unload: None,
            clock: 0,
            load_seq: 0,
            rng: SimRng::seed_from_u64(seed),
            stats: OsStats::default(),
            host_idx: 0,
            auditor: None,
            tel: None,
            now_hint: SimTime::ZERO,
        }
    }

    /// Attach the cluster-wide invariant auditor; residency transitions
    /// are mirrored into it. `host` is this node's index in the composing
    /// world.
    pub fn attach_auditor(&mut self, host: u32, auditor: AuditHandle) {
        self.host_idx = host;
        self.auditor = Some(auditor);
    }

    /// Attach the shard's span log; residency transitions become spans on
    /// the `os.seg` track, and faults, frees and pageouts become markers.
    /// `host` is this node's index in the composing world.
    pub fn attach_telemetry(&mut self, host: u32, tel: TelemetryHandle) {
        self.host_idx = host;
        self.tel = Some(tel);
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Current Lamport clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Depth of the remap daemon's queue.
    pub fn remap_queue_depth(&self) -> usize {
        self.daemon_q.len()
    }

    fn tick(&mut self, seen: u64) -> u64 {
        self.clock = self.clock.max(seen) + 1;
        self.clock
    }

    // ------------------------------------------------------------ lifecycle

    /// Allocate an endpoint ("segment creation is equivalent to allocating
    /// an endpoint and initializing its message queues"). Registers it with
    /// the NIC; it starts non-resident in the on-host r/o state.
    pub fn create_endpoint(
        &mut self,
        now: SimTime,
        key: ProtectionKey,
        out: &mut Vec<OsOut>,
    ) -> EpId {
        let ep = EpId(self.next_ep);
        self.next_ep += 1;
        self.create_endpoint_with_id(now, ep, key, out);
        ep
    }

    /// Allocate an endpoint under a caller-chosen id (control-plane band:
    /// the coordinator assigns ids from its own replicated counter so a
    /// migrated endpoint keeps a cluster-unique identity). Panics if the id
    /// is already in use; does not advance the driver's own id counter.
    pub fn create_endpoint_with_id(
        &mut self,
        now: SimTime,
        ep: EpId,
        key: ProtectionKey,
        out: &mut Vec<OsOut>,
    ) {
        self.now_hint = self.now_hint.max(now);
        assert!(!self.eps.contains_key(&ep), "endpoint id {ep} already exists on host");
        self.eps.insert(
            ep,
            EpRecord {
                state: EpState::HostRo,
                image: Some(Box::new(EndpointImage::new(key))),
                last_activity: now,
                load_seq: 0,
                remap_requested_at: None,
                migrating: false,
            },
        );
        let clock = self.tick(0);
        out.push(OsOut::Nic(DriverOp::Register { ep, clock }));
        self.probe(now, OsProbe::Created { ep });
    }

    /// Begin migrating an endpoint off this host: evict it from the NI and
    /// hold it **host-resident** (`HostRw`) — remap requests are suppressed
    /// while the flag is set, so new arrivals nack `NotResident` and senders
    /// fail over to the new residence, but the owning thread keeps polling
    /// the host image and queueing replies into it. Work accepted before the
    /// drain began is served out, not destroyed. Idempotent; safe in every
    /// residency state (in-transition endpoints are parked on host by their
    /// completion handlers).
    pub fn begin_migrate_out(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        let Some(rec) = self.eps.get_mut(&ep) else { return };
        if rec.migrating {
            return;
        }
        rec.migrating = true;
        rec.remap_requested_at = None;
        self.probe(now, OsProbe::MigrateOut { ep });
        let rec = self.eps.get_mut(&ep).expect("checked above");
        match rec.state {
            EpState::HostRo | EpState::HostRw => {
                // Stay on host, writable: the service drains in place.
                rec.state = EpState::HostRw;
            }
            EpState::NicRw => {
                rec.state = EpState::Unloading;
                let clock = self.tick(0);
                out.push(OsOut::Nic(DriverOp::Unload { ep, clock }));
                self.probe(now, OsProbe::Unload { ep, cause: UnloadCause::Migrating });
            }
            // Loading/Unloading/PagingIn: the completion handler sees the
            // flag and parks the endpoint on host. Disk/Freeing: nothing.
            _ => {}
        }
    }

    /// Lift the migration hold (the protocol's `Finish` phase reached this
    /// host): the remap pipeline works again, and if the held image still
    /// carries queued sends or unpolled receives the endpoint re-enters the
    /// remap queue so its residual work flows — the lame-duck drain. The
    /// caller tears the endpoint down only once
    /// [`SegmentDriver::drained`] (and the NIC) report it dry.
    pub fn end_migrate_hold(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        let Some(rec) = self.eps.get_mut(&ep) else { return };
        if !rec.migrating {
            return;
        }
        rec.migrating = false;
        self.probe(now, OsProbe::HoldLifted { ep });
        self.nudge_drain(now, ep, out);
    }

    /// Re-enter the remap queue if a host-held image still carries work.
    /// Idempotent (the daemon queue deduplicates); the migration teardown
    /// calls this on every retire poll so a drain stalled by an unlucky
    /// eviction race cannot wedge.
    pub fn nudge_drain(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        let needs = self.eps.get(&ep).is_some_and(|rec| {
            matches!(rec.state, EpState::HostRo | EpState::HostRw | EpState::Disk)
                && rec.image.as_ref().is_some_and(|i| i.has_send_work() || i.has_received())
        });
        if needs {
            self.enqueue_remap(now, ep, out);
        }
    }

    /// Whether a migrated-away endpoint has drained on the OS side: no
    /// in-transition residency state, and the host-held image (if any)
    /// carries neither queued sends nor unpolled receives. A resident
    /// endpoint's frame queues are the NIC's to answer; a missing endpoint
    /// is vacuously drained.
    pub fn drained(&self, ep: EpId) -> bool {
        match self.eps.get(&ep) {
            None => true,
            Some(rec) => match rec.state {
                EpState::Loading
                | EpState::Unloading
                | EpState::PagingIn
                | EpState::Freeing => false,
                _ => rec
                    .image
                    .as_ref()
                    .is_none_or(|i| !i.has_send_work() && !i.has_received()),
            },
        }
    }

    /// Finish a migration: the endpoint now lives elsewhere, so its local
    /// incarnation is destroyed (robust in every residency state, like
    /// [`SegmentDriver::free_endpoint`]). Any sends still queued in the
    /// held image are resolved as aborted in the audit ledger — the normal
    /// teardown waits for the lame-duck drain first, so this only discards
    /// traffic when the drain bound expired.
    pub fn complete_migrate_out(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        if let Some(rec) = self.eps.get_mut(&ep) {
            rec.migrating = false;
        }
        self.free_endpoint(now, ep, out);
    }

    /// Destroy an endpoint (process termination frees its segments, §4.2).
    /// If resident, the NIC quiesces and unloads it first; the image is
    /// discarded when it comes back.
    pub fn free_endpoint(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        let Some(rec) = self.eps.get_mut(&ep) else { return };
        match rec.state {
            EpState::NicRw => {
                rec.state = EpState::Freeing;
                let clock = self.tick(0);
                out.push(OsOut::Nic(DriverOp::Unload { ep, clock }));
                // Unregister happens when the unload completes.
                self.probe(now, OsProbe::Unload { ep, cause: UnloadCause::Freed });
            }
            EpState::Loading | EpState::Unloading => {
                // In transition: mark; the completion handler finishes it.
                rec.state = EpState::Freeing;
            }
            _ => {
                let rec = self.eps.remove(&ep).expect("checked above");
                self.abort_queued_sends(now, rec.image.as_deref());
                let clock = self.tick(0);
                out.push(OsOut::Nic(DriverOp::Unregister { ep, clock }));
                self.probe(now, OsProbe::Freed { ep, why: "parked" });
            }
        }
    }

    /// Resolve the fate of sends still queued in a discarded image:
    /// teardown aborts them so the exactly-once ledger closes (mirroring
    /// the NIC's drop of a parked retry whose endpoint vanished).
    fn abort_queued_sends(&mut self, now: SimTime, image: Option<&EndpointImage>) {
        let Some(image) = image else { return };
        let uids: Vec<u64> = image.send_q.iter().map(|p| p.uid).collect();
        for uid in uids {
            self.probe(now, OsProbe::SendAborted { uid });
        }
    }

    /// Whether the endpoint exists (not freed).
    pub fn exists(&self, ep: EpId) -> bool {
        self.eps.contains_key(&ep)
    }

    /// Current residency state.
    pub fn state(&self, ep: EpId) -> Option<&EpState> {
        self.eps.get(&ep).map(|r| &r.state)
    }

    /// Host image access (only while the host holds it).
    pub fn host_image_mut(&mut self, ep: EpId) -> Option<&mut EndpointImage> {
        self.eps.get_mut(&ep).and_then(|r| r.image.as_deref_mut())
    }

    /// Immutable host image access.
    pub fn host_image(&self, ep: EpId) -> Option<&EndpointImage> {
        self.eps.get(&ep).and_then(|r| r.image.as_deref())
    }

    // ---------------------------------------------------------------- faults

    /// Application wrote into the endpoint (posting a send). Classifies the
    /// access per the four-state protocol and schedules remaps as needed.
    pub fn touch_write(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) -> WriteOutcome {
        self.now_hint = self.now_hint.max(now);
        let Some(rec) = self.eps.get_mut(&ep) else { return WriteOutcome::MustBlock };
        rec.last_activity = now;
        match rec.state {
            EpState::NicRw => WriteOutcome::Resident,
            EpState::HostRw => WriteOutcome::Proceed, // already writable + queued
            EpState::HostRo => {
                self.probe(now, OsProbe::WriteFault { ep, paged_out: false });
                let rec = self.eps.get_mut(&ep).unwrap();
                rec.state = EpState::HostRw;
                self.enqueue_remap(now, ep, out);
                if self.cfg.fast_write_fault {
                    WriteOutcome::Proceed
                } else {
                    WriteOutcome::MustBlock
                }
            }
            EpState::Disk => {
                self.probe(now, OsProbe::WriteFault { ep, paged_out: true });
                // Swap-in is always synchronous for the faulting thread.
                self.enqueue_remap(now, ep, out);
                WriteOutcome::MustBlock
            }
            EpState::PagingIn | EpState::Loading | EpState::Unloading => WriteOutcome::MustBlock,
            EpState::Freeing => WriteOutcome::MustBlock,
        }
    }

    /// Proxy fault: the NIC reported message arrival for a non-resident
    /// endpoint (§4.2 — "the segment driver spawns a kernel thread which
    /// performs proxy operations on behalf of the NI").
    pub fn proxy_fault(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        let Some(rec) = self.eps.get_mut(&ep) else { return };
        rec.last_activity = now;
        match rec.state {
            EpState::HostRo | EpState::HostRw | EpState::Disk => {
                self.probe(now, OsProbe::ProxyFault { ep });
                if self.eps[&ep].state == EpState::HostRo {
                    self.eps.get_mut(&ep).unwrap().state = EpState::HostRw;
                }
                self.enqueue_remap(now, ep, out);
            }
            _ => {} // already resident or in transition
        }
    }

    fn enqueue_remap(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        // A migrating endpoint is held off the NI: remaps would reload it on
        // the source and break the handoff to its new residence.
        if self.eps.get(&ep).is_some_and(|r| r.migrating) {
            return;
        }
        if !self.daemon_queued.insert(ep) {
            return;
        }
        if let Some(rec) = self.eps.get_mut(&ep) {
            if rec.remap_requested_at.is_none() {
                rec.remap_requested_at = Some(now);
                self.probe(now, OsProbe::RemapRequested { ep });
            }
        }
        self.daemon_q.push_back(ep);
        if !self.daemon_busy {
            self.daemon_busy = true;
            out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
        }
    }

    // ------------------------------------------------------------- daemon

    /// One pass of the background remap thread.
    pub fn on_daemon_step(&mut self, now: SimTime, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        // Find the next actionable target.
        let target = loop {
            let Some(ep) = self.daemon_q.pop_front() else {
                self.daemon_busy = false;
                return;
            };
            if self.eps.get(&ep).is_some_and(|r| r.migrating) {
                self.daemon_queued.remove(&ep);
                continue;
            }
            match self.eps.get(&ep).map(|r| &r.state) {
                Some(EpState::HostRo) | Some(EpState::HostRw) => break ep,
                Some(EpState::Disk) => {
                    // Swap in first, then the daemon resumes with it.
                    self.eps.get_mut(&ep).unwrap().state = EpState::PagingIn;
                    out.push(OsOut::After(self.cfg.disk_delay, OsEvent::PageInDone { ep }));
                    self.probe(now, OsProbe::PagingIn { ep });
                    return; // daemon stays busy, resumes on PageInDone
                }
                // Freed, already resident, or in transition: skip.
                _ => {
                    self.daemon_queued.remove(&ep);
                    continue;
                }
            }
        };
        if self.nic_occupied < self.frames_total {
            self.issue_load(now, target, out);
        } else {
            // All frames busy: evict a victim first. Candidate order is
            // sorted so the random draw is a function of the seed alone
            // (HashMap iteration order varies across process runs).
            let mut candidates: Vec<(EpId, SimTime, u64)> = self
                .eps
                .iter()
                .filter(|(e, r)| r.state == EpState::NicRw && **e != target)
                .map(|(e, r)| (*e, r.last_activity, r.load_seq))
                .collect();
            candidates.sort_unstable_by_key(|c| c.0);
            let Some(victim) = self.cfg.policy.choose(&mut self.rng, &candidates) else {
                // Nothing evictable (all frames in transition — possible
                // only transiently); retry shortly.
                self.daemon_queued.remove(&target);
                self.daemon_q.push_front(target);
                self.daemon_queued.insert(target);
                out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
                return;
            };
            self.eps.get_mut(&victim).unwrap().state = EpState::Unloading;
            let cause = UnloadCause::EvictedFor(target);
            self.probe(now, OsProbe::Unload { ep: victim, cause });
            self.pending_after_unload = Some(target);
            // Re-queue marker removed when the load is finally issued.
            self.daemon_q.push_front(target);
            let clock = self.tick(0);
            out.push(OsOut::Nic(DriverOp::Unload { ep: victim, clock }));
        }
    }

    /// Swap-in finished; endpoint proceeds to the load pipeline.
    pub fn on_page_in_done(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        let mut to_host = false;
        let mut held = false;
        if let Some(rec) = self.eps.get_mut(&ep) {
            if rec.state == EpState::PagingIn {
                rec.state = EpState::HostRw;
                to_host = true;
                // Migration started mid-swap-in: hold it on host so the
                // owning thread can drain it, but stay out of the remap
                // pipeline (the new residence takes over the NI frame).
                held = rec.migrating;
            }
        }
        self.probe(now, OsProbe::PagedIn { ep, to_host });
        if held {
            // Do not re-enter the remap pipeline; just let the daemon drain.
            if !self.daemon_q.is_empty() {
                out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
            } else {
                self.daemon_busy = false;
            }
            return;
        }
        // Back of the pipeline: daemon continues with this endpoint first.
        self.daemon_q.push_front(ep);
        self.daemon_queued.insert(ep);
        let _ = now;
        out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
    }

    fn issue_load(&mut self, now: SimTime, ep: EpId, out: &mut Vec<OsOut>) {
        let rec = self.eps.get_mut(&ep).expect("load target exists");
        debug_assert!(matches!(rec.state, EpState::HostRo | EpState::HostRw));
        let image = rec.image.take().expect("host holds the image");
        rec.state = EpState::Loading;
        self.load_seq += 1;
        rec.load_seq = self.load_seq;
        rec.last_activity = now;
        self.nic_occupied += 1;
        self.daemon_queued.remove(&ep);
        let clock = self.tick(0);
        out.push(OsOut::Nic(DriverOp::Load { ep, image, clock }));
        self.probe(now, OsProbe::Load { ep });
        // The daemon waits for Loaded before taking the next request: remap
        // traffic is serialized through the single SBUS engine anyway.
    }

    // ----------------------------------------------------------- NIC msgs

    /// Handle a driver-protocol message from the NIC. `waiters_*` callbacks
    /// are resolved by the caller (scheduler queries).
    pub fn on_nic_msg(&mut self, now: SimTime, msg: DriverMsg, out: &mut Vec<OsOut>) {
        self.now_hint = self.now_hint.max(now);
        match msg {
            DriverMsg::Loaded { ep, clock } => {
                self.tick(clock);
                let mut loaded_phase = None;
                let mut remap = None;
                if let Some(rec) = self.eps.get_mut(&ep) {
                    remap = rec.remap_requested_at.take().map(|t0| now.since(t0));
                    match rec.state {
                        EpState::Freeing => {
                            // Freed while loading: evict it again right away.
                            rec.state = EpState::Freeing;
                            let clock = self.tick(0);
                            out.push(OsOut::Nic(DriverOp::Unload { ep, clock }));
                            loaded_phase = Some(EpPhase::Unloading);
                        }
                        _ if rec.migrating => {
                            // Migration started mid-load: evict again; the
                            // Unloaded handler parks it on disk.
                            rec.state = EpState::Unloading;
                            let clock = self.tick(0);
                            out.push(OsOut::Nic(DriverOp::Unload { ep, clock }));
                            loaded_phase = Some(EpPhase::Unloading);
                        }
                        _ => {
                            rec.state = EpState::NicRw;
                            rec.last_activity = now;
                            loaded_phase = Some(EpPhase::Resident);
                        }
                    }
                }
                self.probe(now, OsProbe::Loaded { ep, phase: loaded_phase, remap });
                // Continue the daemon pipeline.
                if !self.daemon_q.is_empty() {
                    out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
                } else {
                    self.daemon_busy = false;
                }
            }
            DriverMsg::Unloaded { ep, image, clock } => {
                self.tick(clock);
                self.nic_occupied = self.nic_occupied.saturating_sub(1);
                let mut freed = false;
                let mut freed_image = None;
                let mut nonempty = false;
                let mut to_host = false;
                if let Some(rec) = self.eps.get_mut(&ep) {
                    if rec.state == EpState::Freeing {
                        freed = true;
                        freed_image = Some(image);
                    } else if rec.migrating {
                        // Migration handoff: hold the image on host writable
                        // (the owning thread drains it in place) and do NOT
                        // re-enter the remap queue even with queued sends —
                        // the new residence takes over the NI frame.
                        rec.state = EpState::HostRw;
                        rec.image = Some(image);
                        to_host = true;
                    } else {
                        nonempty = image.has_send_work();
                        rec.state = EpState::HostRo;
                        rec.image = Some(image);
                        to_host = true;
                    }
                }
                self.probe(now, OsProbe::Unloaded { ep, to_host });
                if nonempty {
                    // §4.2: "Eventually, the kernel makes the non-empty
                    // endpoint resident so communication can occur." An
                    // endpoint evicted with queued sends re-enters the
                    // remap queue (at the back — FIFO keeps the thrash
                    // fair); otherwise its unsent messages would deadlock
                    // once its peer ran out of credits.
                    self.enqueue_remap(now, ep, out);
                }
                if freed {
                    self.abort_queued_sends(now, freed_image.as_deref());
                    self.eps.remove(&ep);
                    let clock = self.tick(0);
                    out.push(OsOut::Nic(DriverOp::Unregister { ep, clock }));
                    self.probe(now, OsProbe::Freed { ep, why: "unloaded" });
                }
                // If a target was waiting for this frame, load it now.
                if let Some(target) = self.pending_after_unload.take() {
                    // It sits at the front of the queue; the daemon step
                    // will pick it up.
                    debug_assert_eq!(self.daemon_q.front(), Some(&target));
                    out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
                } else if !self.daemon_q.is_empty() {
                    out.push(OsOut::After(self.cfg.daemon_op_cost, OsEvent::DaemonStep));
                } else {
                    self.daemon_busy = false;
                }
            }
            DriverMsg::NeedResident { ep, clock } => {
                self.tick(clock);
                self.proxy_fault(now, ep, out);
            }
            DriverMsg::Event { ep, clock } => {
                self.tick(clock);
                // Thread wakeups are resolved by the composing world (it
                // owns the scheduler); nothing to do here.
                let _ = ep;
            }
        }
    }

    /// Record that a remap of `ep` completed for latency accounting *and*
    /// return the threads to wake — used by the composing world after a
    /// `Loaded` message (the scheduler knows who blocked).
    pub fn note_residency_wakes(&mut self, n: u64) {
        self.probe(self.now_hint, OsProbe::ResidencyWakes(n));
    }

    /// Record event wakeups (composing world).
    pub fn note_event_wakes(&mut self, n: u64) {
        self.probe(self.now_hint, OsProbe::EventWakes(n));
    }

    // ------------------------------------------------------------- pageout

    /// Simulate memory pressure: move a parked endpoint to the swap area.
    /// Returns true if the pageout happened (only HostRo endpoints are
    /// eligible — they are "like any other cacheable memory page").
    pub fn pageout(&mut self, ep: EpId) -> bool {
        match self.eps.get_mut(&ep) {
            Some(rec) if rec.state == EpState::HostRo => {
                rec.state = EpState::Disk;
                self.probe(self.now_hint, OsProbe::PageOut { ep });
                true
            }
            _ => false,
        }
    }

    /// Page reclamation under memory pressure (§4.2: "Page reclamation
    /// mechanisms may move non-resident endpoints to secondary storage
    /// should they be the least recently used pages during periods of
    /// acute memory deficits"): page out the least-recently-active parked
    /// endpoint. Returns the victim, if any was eligible.
    pub fn pageout_lru(&mut self) -> Option<EpId> {
        let victim = self
            .eps
            .iter()
            .filter(|(_, r)| r.state == EpState::HostRo)
            .min_by_key(|(e, r)| (r.last_activity, **e))
            .map(|(e, _)| *e)?;
        self.pageout(victim);
        Some(victim)
    }

    /// Number of endpoints currently in each interesting state:
    /// `(resident, host, disk, transitioning)`.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut resident = 0;
        let mut host = 0;
        let mut disk = 0;
        let mut trans = 0;
        for r in self.eps.values() {
            match r.state {
                EpState::NicRw => resident += 1,
                EpState::HostRo | EpState::HostRw => host += 1,
                EpState::Disk => disk += 1,
                _ => trans += 1,
            }
        }
        (resident, host, disk, trans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(frames: u32) -> SegmentDriver {
        SegmentDriver::new(OsConfig::default(), frames, 99)
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn create_registers_and_starts_host_ro() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(5), &mut out);
        assert_eq!(d.state(ep), Some(&EpState::HostRo));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Register { .. })));
        assert!(d.host_image(ep).is_some());
    }

    #[test]
    fn write_fault_fast_path_proceeds_and_queues_remap() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(5), &mut out);
        out.clear();
        let o = d.touch_write(t(1), ep, &mut out);
        assert_eq!(o, WriteOutcome::Proceed);
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
        assert!(matches!(out[0], OsOut::After(_, OsEvent::DaemonStep)));
        // Second write: no new fault, no new daemon kick.
        out.clear();
        assert_eq!(d.touch_write(t(2), ep, &mut out), WriteOutcome::Proceed);
        assert!(out.is_empty());
        assert_eq!(d.stats().write_faults.get(), 1);
    }

    #[test]
    fn ablation_mode_blocks_on_write_fault() {
        let cfg = OsConfig { fast_write_fault: false, ..Default::default() };
        let mut d = SegmentDriver::new(cfg, 8, 1);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(5), &mut out);
        out.clear();
        assert_eq!(d.touch_write(t(1), ep, &mut out), WriteOutcome::MustBlock);
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
    }

    #[test]
    fn daemon_loads_into_free_frame() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(5), &mut out);
        out.clear();
        d.touch_write(t(1), ep, &mut out);
        out.clear();
        d.on_daemon_step(t(2), &mut out);
        assert_eq!(d.state(ep), Some(&EpState::Loading));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Load { .. })));
        // Loaded completes the transition.
        out.clear();
        d.on_nic_msg(
            t(300),
            DriverMsg::Loaded { ep, clock: 1 },
            &mut out,
        );
        assert_eq!(d.state(ep), Some(&EpState::NicRw));
        assert_eq!(d.stats().loads.get(), 1);
        assert!(d.stats().remap_latency_us.count() == 1);
    }

    #[test]
    fn daemon_evicts_when_frames_full() {
        let mut d = driver(1);
        let mut out = vec![];
        let a = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        let b = d.create_endpoint(t(0), ProtectionKey(2), &mut out);
        out.clear();
        // Load a.
        d.touch_write(t(1), a, &mut out);
        out.clear();
        d.on_daemon_step(t(2), &mut out);
        d.on_nic_msg(t(300), DriverMsg::Loaded { ep: a, clock: 1 }, &mut out);
        out.clear();
        // Now b needs the only frame: a must be evicted.
        d.touch_write(t(400), b, &mut out);
        out.clear();
        d.on_daemon_step(t(401), &mut out);
        assert_eq!(d.state(a), Some(&EpState::Unloading));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Unload { .. })));
        out.clear();
        d.on_nic_msg(
            t(700),
            DriverMsg::Unloaded { ep: a, image: Box::new(EndpointImage::new(ProtectionKey(1))), clock: 2 },
            &mut out,
        );
        assert_eq!(d.state(a), Some(&EpState::HostRo));
        // Daemon continues and loads b.
        out.clear();
        d.on_daemon_step(t(701), &mut out);
        assert_eq!(d.state(b), Some(&EpState::Loading));
        d.on_nic_msg(t(1000), DriverMsg::Loaded { ep: b, clock: 3 }, &mut out);
        assert_eq!(d.state(b), Some(&EpState::NicRw));
        let (resident, host, _, _) = d.census();
        assert_eq!((resident, host), (1, 1));
    }

    #[test]
    fn need_resident_is_a_proxy_fault() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        out.clear();
        d.on_nic_msg(t(10), DriverMsg::NeedResident { ep, clock: 4 }, &mut out);
        assert_eq!(d.stats().proxy_faults.get(), 1);
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
        assert!(matches!(out[0], OsOut::After(_, OsEvent::DaemonStep)));
        assert!(d.clock() > 4, "Lamport clock must absorb the NIC's clock");
    }

    #[test]
    fn pageout_and_pagein_cycle() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        assert!(d.pageout(ep));
        assert_eq!(d.state(ep), Some(&EpState::Disk));
        assert!(!d.pageout(ep), "double pageout refused");
        out.clear();
        // Write fault on a paged-out endpoint blocks (swap-in).
        assert_eq!(d.touch_write(t(5), ep, &mut out), WriteOutcome::MustBlock);
        out.clear();
        d.on_daemon_step(t(6), &mut out);
        assert_eq!(d.state(ep), Some(&EpState::PagingIn));
        assert!(matches!(out[0], OsOut::After(_, OsEvent::PageInDone { .. })));
        out.clear();
        d.on_page_in_done(t(12_000), ep, &mut out);
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
        assert_eq!(d.stats().page_ins.get(), 1);
        // Daemon then loads it.
        out.clear();
        d.on_daemon_step(t(12_001), &mut out);
        assert_eq!(d.state(ep), Some(&EpState::Loading));
    }

    #[test]
    fn free_non_resident_unregisters_immediately() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        out.clear();
        d.free_endpoint(t(1), ep, &mut out);
        assert!(!d.exists(ep));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Unregister { .. })));
    }

    #[test]
    fn free_resident_synchronizes_with_nic() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        d.touch_write(t(1), ep, &mut out);
        out.clear();
        d.on_daemon_step(t(2), &mut out);
        d.on_nic_msg(t(300), DriverMsg::Loaded { ep, clock: 1 }, &mut out);
        out.clear();
        d.free_endpoint(t(400), ep, &mut out);
        assert_eq!(d.state(ep), Some(&EpState::Freeing));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Unload { .. })));
        out.clear();
        d.on_nic_msg(
            t(700),
            DriverMsg::Unloaded { ep, image: Box::new(EndpointImage::new(ProtectionKey(1))), clock: 2 },
            &mut out,
        );
        assert!(!d.exists(ep));
        assert!(
            out.iter().any(|o| matches!(o, OsOut::Nic(DriverOp::Unregister { .. }))),
            "freed endpoint must be unregistered after the unload"
        );
    }

    #[test]
    fn lru_pageout_picks_stalest_parked_endpoint() {
        let mut d = driver(8);
        let mut out = vec![];
        let a = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        let b = d.create_endpoint(t(0), ProtectionKey(2), &mut out);
        let c = d.create_endpoint(t(0), ProtectionKey(3), &mut out);
        // Touch b and c later; a is the stalest.
        d.touch_write(t(100), b, &mut out);
        d.touch_write(t(200), c, &mut out);
        // b and c are HostRw (queued) — not eligible; a (HostRo) is.
        assert_eq!(d.pageout_lru(), Some(a));
        assert_eq!(d.state(a), Some(&EpState::Disk));
        // Nothing else is HostRo now.
        assert_eq!(d.pageout_lru(), None);
    }

    #[test]
    fn migrate_out_holds_endpoint_on_host_until_completed() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        // Resident endpoint: migration quiesces through the NIC first.
        d.touch_write(t(1), ep, &mut out);
        out.clear();
        d.on_daemon_step(t(2), &mut out);
        d.on_nic_msg(t(300), DriverMsg::Loaded { ep, clock: 1 }, &mut out);
        out.clear();
        d.begin_migrate_out(t(400), ep, &mut out);
        assert_eq!(d.state(ep), Some(&EpState::Unloading));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Unload { .. })));
        out.clear();
        d.on_nic_msg(
            t(700),
            DriverMsg::Unloaded {
                ep,
                image: Box::new(EndpointImage::new(ProtectionKey(1))),
                clock: 2,
            },
            &mut out,
        );
        assert_eq!(
            d.state(ep),
            Some(&EpState::HostRw),
            "unload holds the image on host so the owner can drain it"
        );
        // Remap requests (arrivals) are suppressed while migrating, but the
        // owning thread can still write the host image (queueing replies).
        d.proxy_fault(t(800), ep, &mut out);
        assert_eq!(d.touch_write(t(801), ep, &mut out), WriteOutcome::Proceed);
        assert_eq!(d.remap_queue_depth(), 0, "migrating endpoint never re-enters the remap queue");
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
        // Completion destroys the local incarnation.
        out.clear();
        d.complete_migrate_out(t(900), ep, &mut out);
        assert!(!d.exists(ep));
        assert!(matches!(out[0], OsOut::Nic(DriverOp::Unregister { .. })));
    }

    #[test]
    fn migrate_out_of_parked_endpoint_is_immediate() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        out.clear();
        d.begin_migrate_out(t(1), ep, &mut out);
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
        assert!(out.is_empty(), "parked endpoint needs no NIC round-trip");
        // Idempotent.
        d.begin_migrate_out(t(2), ep, &mut out);
        assert_eq!(d.state(ep), Some(&EpState::HostRw));
        // Dry image: the OS side reports it drained right away.
        assert!(d.drained(ep));
        // Lifting the hold on a dry endpoint schedules no remap.
        d.end_migrate_hold(t(3), ep, &mut out);
        assert_eq!(d.remap_queue_depth(), 0);
    }

    #[test]
    fn lame_duck_drain_reloads_endpoint_with_residual_work() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        out.clear();
        d.begin_migrate_out(t(1), ep, &mut out);
        // A request was accepted before the drain began: it sits unpolled
        // in the held image, so the endpoint is not drained.
        let msg = vnet_nic::UserMsg {
            uid: 7,
            is_request: true,
            handler: 0,
            args: [0; 4],
            payload_bytes: 0,
            src_ep: vnet_nic::GlobalEp::new(vnet_net::HostId(1), EpId(0)),
            reply_key: ProtectionKey(1),
            corr: 0,
        };
        d.host_image_mut(ep).unwrap().recv_req.push_back(vnet_nic::DeliveredMsg {
            msg: std::sync::Arc::new(msg),
            undeliverable: false,
            deposited_at: t(1),
        });
        assert!(!d.drained(ep));
        // Lifting the hold re-enters the remap queue so the residual work
        // flows; the drain nudge is idempotent.
        d.end_migrate_hold(t(2), ep, &mut out);
        assert_eq!(d.remap_queue_depth(), 1);
        d.nudge_drain(t(3), ep, &mut out);
        assert_eq!(d.remap_queue_depth(), 1);
    }

    #[test]
    fn caller_assigned_ids_live_beside_sequential_ones() {
        let mut d = driver(8);
        let mut out = vec![];
        let a = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        d.create_endpoint_with_id(t(1), EpId(0x8000_0000), ProtectionKey(2), &mut out);
        let b = d.create_endpoint(t(2), ProtectionKey(3), &mut out);
        assert_eq!((a, b), (EpId(0), EpId(1)), "driver counter unaffected");
        assert_eq!(d.state(EpId(0x8000_0000)), Some(&EpState::HostRo));
    }

    #[test]
    fn remap_requests_deduplicate() {
        let mut d = driver(8);
        let mut out = vec![];
        let ep = d.create_endpoint(t(0), ProtectionKey(1), &mut out);
        out.clear();
        d.touch_write(t(1), ep, &mut out);
        d.proxy_fault(t(2), ep, &mut out);
        d.proxy_fault(t(3), ep, &mut out);
        assert_eq!(d.remap_queue_depth(), 1, "one queue entry per endpoint");
    }
}
