//! The NIC firmware state machine.
//!
//! The firmware is a single serial processor. Work arrives from three
//! directions — the network (frames), the host (posted sends, driver
//! operations), and its own timers (retransmission, DMA completion) — and
//! every item costs processor time from [`crate::config::FwCosts`]. The
//! dispatch loop drains an inbox FIFO (arrivals, completions, driver ops)
//! and otherwise serves send descriptors under the weighted round-robin
//! discipline of [`crate::sched`].
//!
//! All interaction with the outside world is via [`NicOut`] effects; the
//! composing world maps them onto the global event graph.

use crate::channel::{ChannelKey, ChannelState, InFlight, RxChannel, SeqClass};
use crate::config::{NicConfig, NicMode};
use crate::dma::{DmaDirection, DmaEngine};
use crate::endpoint::{FrameSlot, PendingSend};
use crate::ids::{EpId, GlobalEp};
use crate::msg::{
    AckEntry, DeliveredMsg, DriverMsg, DriverOp, Frame, FrameKind, NackReason, PollOutcome,
    PostError, QueueSel, SendRequest, UserMsg,
};
use crate::sched::WrrScheduler;
use crate::stats::NicStats;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use vnet_net::{HostId, LinkId, Packet, RouteOracle};
use vnet_sim::{AuditHandle, SimDuration, SimRng, SimTime, TelemetryHandle};

mod probe;
use probe::NicProbe;

/// Events delivered to a NIC by the simulation engine.
#[derive(Clone, Debug)]
pub enum NicEvent {
    /// Firmware dispatch step (generation-guarded; stale steps are no-ops).
    FwStep {
        /// Generation stamp; must match the NIC's current value.
        gen: u64,
    },
    /// Retransmission timer for a channel.
    Retx {
        /// The channel.
        key: ChannelKey,
        /// In-flight generation at arming time; stale timers are ignored.
        gen: u64,
    },
    /// An SBUS DMA transfer finished.
    DmaDone(DmaTag),
    /// Emit a packet whose firmware processing just completed (effects of
    /// a firmware step take effect at the step's end, not its start).
    EmitPkt(Box<Packet<Frame>>),
    /// Emit a driver message whose firmware processing just completed.
    EmitDriver(DriverMsg),
    /// Deposit a small message whose receive processing just completed,
    /// then emit the (n)ack.
    DepositSmall {
        /// Sending host (ack destination).
        src: HostId,
        /// The data frame.
        frame: Box<Frame>,
    },
    /// Flush the coalesced-ack buffer for a peer (§8 piggybacked acks).
    FlushAcks {
        /// Peer whose buffer to flush.
        peer: HostId,
        /// Buffer generation at arming time; stale flushes are ignored.
        gen: u64,
    },
}

/// What a completed DMA was doing.
#[derive(Clone, Debug)]
pub enum DmaTag {
    /// Bulk send staging (host → NI) finished for message `uid`.
    SendStaged {
        /// The staged message.
        uid: u64,
    },
    /// Bulk receive delivery (NI → host) finished for message `uid`.
    RecvStaged {
        /// The staged message.
        uid: u64,
    },
    /// Endpoint frame load (host → NI) finished.
    LoadDone {
        /// The endpoint.
        ep: EpId,
    },
    /// Endpoint frame unload (NI → host) finished.
    UnloadDone {
        /// The endpoint.
        ep: EpId,
    },
}

/// Effects emitted by the NIC for the composing world to apply.
#[derive(Debug)]
pub enum NicOut {
    /// Schedule `ev` for this same NIC after `delay`.
    After(SimDuration, NicEvent),
    /// Inject a packet into the fabric.
    Inject(Packet<Frame>),
    /// Deliver a message to the local endpoint segment driver.
    Driver(DriverMsg),
}

/// Internal firmware work items (inbox entries).
#[derive(Debug)]
enum FwWork {
    Rx { src: HostId, frame: Frame },
    Retx(ChannelKey),
    Dma(DmaTag),
    Driver(DriverOp),
}

struct StagedSend {
    ps: PendingSend,
    chan: ChannelKey,
    src_ep: EpId,
}

struct StagedRecv {
    src: HostId,
    frame: Frame,
}

/// Bounded set of recently delivered message uids (exactly-once filter).
#[derive(Default)]
struct DedupWindow {
    set: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    fn contains(&self, uid: u64) -> bool {
        self.set.contains(&uid)
    }

    fn insert(&mut self, uid: u64, cap: usize) {
        if self.set.insert(uid) {
            self.order.push_back(uid);
            while self.order.len() > cap {
                let old = self.order.pop_front().unwrap();
                self.set.remove(&old);
            }
        }
    }
}

/// One network interface.
pub struct Nic {
    host: HostId,
    cfg: NicConfig,
    frames: Vec<FrameSlot>,
    ep_frame: HashMap<EpId, usize>,
    registered: HashSet<EpId>,
    tx: HashMap<ChannelKey, ChannelState>,
    rx: HashMap<ChannelKey, RxChannel>,
    dedup: DedupWindow,
    dma: DmaEngine,
    sched: WrrScheduler,
    inbox: VecDeque<FwWork>,
    staging_out: HashMap<u64, StagedSend>,
    staging_in: HashMap<u64, StagedRecv>,
    /// Retry metadata for channel-bound messages:
    /// `(transient nacks, unbind cycles, destination, key)`.
    pending_meta: HashMap<u64, (u32, u32, GlobalEp, crate::ids::ProtectionKey)>,
    in_flight_per_ep: HashMap<EpId, u32>,
    unload_dma_started: HashSet<EpId>,
    need_resident_pending: HashSet<EpId>,
    pending_returns: HashMap<EpId, VecDeque<DeliveredMsg>>,
    fw_busy_until: SimTime,
    fw_step_gen: u64,
    fw_scheduled_at: SimTime,
    clock: u64,
    uid_counter: u64,
    chan_rr: HashMap<HostId, u8>,
    /// Per-peer smoothed RTT estimate (µs) and variance, from reflected
    /// timestamps (adaptive retransmission scheduling, §8).
    peer_rtt: HashMap<HostId, (f64, f64)>,
    /// Coalesced positive acks awaiting flush, per peer.
    ack_buf: HashMap<HostId, Vec<AckEntry>>,
    /// Flush-timer generation per peer.
    ack_flush_gen: HashMap<HostId, u64>,
    rng: SimRng,
    stats: NicStats,
    /// Reusable output buffer for one firmware step (capacity retained
    /// across steps; the event loop allocates nothing in steady state).
    scratch_step: Vec<NicOut>,
    /// Reusable output buffer for immediate ack emission (disjoint from
    /// `scratch_step`: acks are built while a step is in progress).
    scratch_ack: Vec<NicOut>,
    /// Cross-layer invariant auditor; `None` when detached.
    auditor: Option<AuditHandle>,
    /// The shard's span log; `None` when detached.
    tel: Option<TelemetryHandle>,
    /// Scheduled-fault route oracle (campaign failover planning); `None`
    /// outside fault campaigns. Shared read-only plain data (one per cluster).
    oracle: Option<Arc<RouteOracle>>,
    /// Scratch route buffer for oracle queries.
    oracle_buf: Vec<LinkId>,
    /// Messages in a retransmission episode: uid → first timer-expiry
    /// time. Sampled into `recovery_us` when the ack finally lands.
    troubled: HashMap<u64, SimTime>,
}

impl Nic {
    /// A NIC for `host` with deterministic randomness derived from `seed`.
    pub fn new(host: HostId, cfg: NicConfig, seed: u64) -> Self {
        let frames = (0..cfg.frames).map(|_| FrameSlot::Free).collect::<Vec<_>>();
        let sched = WrrScheduler::new(frames.len());
        Nic {
            host,
            dma: DmaEngine::now_sbus(),
            frames,
            ep_frame: HashMap::new(),
            registered: HashSet::new(),
            tx: HashMap::new(),
            rx: HashMap::new(),
            dedup: DedupWindow::default(),
            sched,
            inbox: VecDeque::new(),
            staging_out: HashMap::new(),
            staging_in: HashMap::new(),
            pending_meta: HashMap::new(),
            in_flight_per_ep: HashMap::new(),
            unload_dma_started: HashSet::new(),
            need_resident_pending: HashSet::new(),
            pending_returns: HashMap::new(),
            fw_busy_until: SimTime::ZERO,
            fw_step_gen: 0,
            fw_scheduled_at: SimTime::MAX,
            clock: 0,
            uid_counter: 0,
            chan_rr: HashMap::new(),
            peer_rtt: HashMap::new(),
            ack_buf: HashMap::new(),
            ack_flush_gen: HashMap::new(),
            rng: SimRng::seed_from_u64(seed).derive(host.0 as u64),
            stats: NicStats::default(),
            scratch_step: Vec::new(),
            scratch_ack: Vec::new(),
            auditor: None,
            tel: None,
            oracle: None,
            oracle_buf: Vec::new(),
            troubled: HashMap::new(),
            cfg,
        }
    }

    /// Attach the cluster-wide invariant auditor; protocol hooks (post,
    /// bind, retransmit, unbind, deliver, bounce) become live.
    pub fn attach_auditor(&mut self, auditor: AuditHandle) {
        self.auditor = Some(auditor);
    }

    /// Attach the shard's span log; protocol episodes (retransmit,
    /// backoff, unbind, DMA transfers) become spans on the `nic.chan` /
    /// `nic.dma` / `nic.fw` tracks.
    pub fn attach_telemetry(&mut self, tel: TelemetryHandle) {
        self.tel = Some(tel);
    }

    /// Attach the fault campaign's route oracle. Scheduled down windows
    /// become visible to the send path: channel allocation prefers routes
    /// that are up, and a bound message whose route goes down fails over
    /// to an alternate channel (§5.1 multipath used for §3.2 hot-swap).
    pub fn attach_route_oracle(&mut self, oracle: Arc<RouteOracle>) {
        self.oracle = Some(oracle);
    }

    /// Whether failover planning is active (an oracle with at least one
    /// scheduled down window is attached).
    fn oracle_active(&self) -> bool {
        self.oracle.as_ref().is_some_and(|o| o.has_windows())
    }

    /// Whether the route that channel `idx` to `peer` maps onto is free
    /// of scheduled-down links at `now`. Vacuously true without an
    /// active oracle — the no-campaign fast path stays byte-identical.
    fn route_is_up(&mut self, now: SimTime, peer: HostId, idx: u8) -> bool {
        match self.oracle.clone() {
            Some(o) if o.has_windows() => {
                o.route_up(self.host, peer, idx, now, &mut self.oracle_buf)
            }
            _ => true,
        }
    }

    /// This NIC's host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Current Lamport clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The shared SBUS DMA engine (instrumentation).
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }

    fn tick_clock(&mut self, seen: u64) -> u64 {
        self.clock = self.clock.max(seen) + 1;
        self.clock
    }

    fn next_uid(&mut self) -> u64 {
        self.uid_counter += 1;
        ((self.host.0 as u64) << 40) | self.uid_counter
    }

    /// Host PIO read of the message-id allocator, used by the OS library
    /// when writing send descriptors into a *non-resident* endpoint's host
    /// image (those descriptors bypass [`Nic::post_send`]).
    pub fn alloc_uid(&mut self) -> u64 {
        self.next_uid()
    }

    fn ts32(now: SimTime) -> u32 {
        (now.as_nanos() / 1_000) as u32
    }

    /// Retransmission timeout for a frame of `bytes` payload: the channel's
    /// backoff state plus slack for the wire + SBUS staging time of a bulk
    /// payload (a fixed timeout sized for short messages would fire before
    /// an 8 KB message's ack can possibly return). With
    /// [`NicConfig::adaptive_rto`], the base comes from the peer's
    /// SRTT + 4·RTTVAR estimate instead (plus any accumulated backoff).
    ///
    /// [`NicConfig::adaptive_rto`]: crate::config::NicConfig::adaptive_rto
    fn rto_for(&self, peer: HostId, ch_rto: SimDuration, bytes: u32) -> SimDuration {
        // Slack sized for a congested staging path (~10 MB/s effective):
        // several queued 8 KB deposits ahead of ours on the receiver's
        // SBUS engine must not fire the timer.
        let size_slack = SimDuration::for_bytes(bytes as u64 * 2, 10.0);
        if self.cfg.adaptive_rto {
            if let Some(&(srtt, rttvar)) = self.peer_rtt.get(&peer) {
                // Floor at the fixed base: the estimator only ever
                // lengthens the timer (under congestion), never undercuts
                // the minimum safe granularity.
                let est = SimDuration::from_micros_f64(srtt + 4.0 * rttvar)
                    .max(self.cfg.rto_base);
                // Carry the exponential backoff excess accumulated on the
                // channel (resets on successful acknowledgment).
                let backoff_excess = ch_rto - self.cfg.rto_base;
                return est + backoff_excess + size_slack;
            }
        }
        ch_rto + size_slack
    }

    /// Fold an RTT sample (µs) into the peer's estimator (Jacobson/Karels).
    fn observe_rtt(&mut self, peer: HostId, sample_us: f64) {
        match self.peer_rtt.get_mut(&peer) {
            None => {
                self.peer_rtt.insert(peer, (sample_us, sample_us / 2.0));
            }
            Some((srtt, rttvar)) => {
                let err = (sample_us - *srtt).abs();
                *rttvar = 0.75 * *rttvar + 0.25 * err;
                *srtt = 0.875 * *srtt + 0.125 * sample_us;
            }
        }
    }

    /// Hand a packet to the fabric — or loop it back through the local
    /// firmware when both endpoints share a host (processes on one node
    /// communicating through a virtual network never touch the wire).
    fn emit(&mut self, now: SimTime, pkt: Packet<Frame>, out: &mut Vec<NicOut>) {
        self.probe(now, NicProbe::FrameTx);
        if pkt.dst == self.host {
            self.inbox.push_back(FwWork::Rx { src: self.host, frame: pkt.payload });
            // Always called from inside firmware processing; the
            // end-of-step kick keeps the loop running.
        } else {
            out.push(NicOut::Inject(pkt));
        }
    }

    // ---------------------------------------------------------------- host API

    /// Whether `ep` is resident and serviceable.
    pub fn is_resident(&self, ep: EpId) -> bool {
        self.ep_frame.get(&ep).map(|&i| self.frames[i].is_active()).unwrap_or(false)
    }

    /// Host PIO write of a send descriptor into a resident endpoint (§4.1:
    /// "applications also have fine-grained access to them with programmed
    /// I/O"). Returns the assigned message uid.
    pub fn post_send(
        &mut self,
        now: SimTime,
        ep: EpId,
        req: SendRequest,
        out: &mut Vec<NicOut>,
    ) -> Result<u64, PostError> {
        self.post_send_at(now, now, ep, req, out)
    }

    /// Like [`Nic::post_send`], but the descriptor becomes transmittable at
    /// `ready_at` — the moment the host's PIO writes complete. The slot is
    /// reserved immediately; the firmware will not pick the descriptor up
    /// early.
    pub fn post_send_at(
        &mut self,
        now: SimTime,
        ready_at: SimTime,
        ep: EpId,
        req: SendRequest,
        out: &mut Vec<NicOut>,
    ) -> Result<u64, PostError> {
        let Some(&fi) = self.ep_frame.get(&ep) else { return Err(PostError::NotResident) };
        if !self.frames[fi].is_active() {
            return Err(PostError::NotResident);
        }
        let depth = self.cfg.send_queue_depth;
        let image = self.frames[fi].image_mut().expect("active slot has image");
        if image.send_q.len() >= depth {
            return Err(PostError::SendQueueFull);
        }
        let uid = self.next_uid();
        let mut msg = req.msg;
        msg.uid = uid;
        let image = self.frames[fi].image_mut().expect("active slot has image");
        image.send_q.push_back(PendingSend {
            uid,
            dst: req.dst,
            key: req.key,
            msg: Arc::new(msg),
            not_before: ready_at.max(now),
            nacks: 0,
            unbind_cycles: 0,
        });
        self.probe(now, NicProbe::Posted { uid });
        self.kick(now, out);
        Ok(uid)
    }

    /// Host PIO poll of a resident endpoint's receive queue.
    pub fn poll_recv(&mut self, _now: SimTime, ep: EpId, q: QueueSel) -> PollOutcome {
        let Some(&fi) = self.ep_frame.get(&ep) else { return PollOutcome::NotResident };
        if !self.frames[fi].is_active() {
            return PollOutcome::NotResident;
        }
        let image = self.frames[fi].image_mut().expect("active slot has image");
        let got = match q {
            QueueSel::Request => image.recv_req.pop_front(),
            QueueSel::Reply => image.recv_rep.pop_front(),
        };
        if got.is_some() {
            self.flush_pending_returns(ep);
        }
        match got {
            Some(m) => PollOutcome::Msg(m),
            None => PollOutcome::Empty,
        }
    }

    /// Depths of the (request, reply) receive queues of a resident endpoint.
    pub fn recv_depths(&self, ep: EpId) -> Option<(usize, usize)> {
        let &fi = self.ep_frame.get(&ep)?;
        let image = self.frames[fi].image()?;
        Some((image.recv_req.len(), image.recv_rep.len()))
    }

    /// Whether the NIC holds no unfinished work for `ep`: no unacked
    /// in-flight sends, no undeliverable returns waiting to flush, and —
    /// when the endpoint occupies a frame — empty frame queues. The control
    /// plane's migration teardown polls this to decide when a lame-duck
    /// source incarnation has fully drained and can be destroyed.
    pub fn is_quiet(&self, ep: EpId) -> bool {
        if self.in_flight_per_ep.contains_key(&ep) || self.pending_returns.contains_key(&ep) {
            return false;
        }
        match self.ep_frame.get(&ep) {
            Some(&fi) => self.frames[fi]
                .image()
                .is_none_or(|i| !i.has_send_work() && !i.has_received()),
            None => true,
        }
    }

    /// Host PIO update of a resident endpoint's event mask. Returns false
    /// if the endpoint is not resident (caller updates the host image).
    pub fn set_event_mask_direct(&mut self, ep: EpId, notify: bool) -> bool {
        if let Some(&fi) = self.ep_frame.get(&ep) {
            if self.frames[fi].is_active() {
                self.frames[fi].image_mut().unwrap().notify_on_arrival = notify;
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------- driver API

    /// Enqueue a driver-protocol operation (§4.3). The NIC interleaves its
    /// processing with user traffic.
    pub fn driver_request(&mut self, now: SimTime, op: DriverOp, out: &mut Vec<NicOut>) {
        self.inbox.push_back(FwWork::Driver(op));
        self.kick(now, out);
    }

    // ------------------------------------------------------------ network API

    /// A packet arrived from the fabric. `corrupt` marks CRC failures
    /// (dropped here, recovered by sender timeout).
    pub fn on_packet(
        &mut self,
        now: SimTime,
        src: HostId,
        frame: Frame,
        corrupt: bool,
        out: &mut Vec<NicOut>,
    ) {
        self.probe(now, NicProbe::FrameRx);
        if corrupt {
            self.probe(now, NicProbe::CrcDrop);
            return;
        }
        self.inbox.push_back(FwWork::Rx { src, frame });
        self.kick(now, out);
    }

    /// Engine-scheduled event dispatch.
    pub fn on_event(&mut self, now: SimTime, ev: NicEvent, out: &mut Vec<NicOut>) {
        match ev {
            NicEvent::FwStep { gen } => {
                if gen != self.fw_step_gen {
                    return; // superseded
                }
                self.fw_scheduled_at = SimTime::MAX;
                self.fw_step(now, out);
            }
            NicEvent::Retx { key, gen } => {
                // Validate against current in-flight generation; stale
                // timers (acked or rearmed) are ignored.
                let live = self
                    .tx
                    .get(&key)
                    .and_then(|c| c.in_flight.as_ref())
                    .map(|inf| inf.gen == gen)
                    .unwrap_or(false);
                if live {
                    self.inbox.push_back(FwWork::Retx(key));
                    self.kick(now, out);
                } else {
                    self.probe(now, NicProbe::StaleTimer);
                }
            }
            NicEvent::DmaDone(tag) => {
                self.inbox.push_back(FwWork::Dma(tag));
                self.kick(now, out);
            }
            NicEvent::EmitPkt(pkt) => {
                // Loopback packets re-enter the local firmware.
                if pkt.dst == self.host {
                    self.inbox.push_back(FwWork::Rx { src: self.host, frame: pkt.payload });
                    self.kick(now, out);
                } else {
                    out.push(NicOut::Inject(*pkt));
                }
            }
            NicEvent::EmitDriver(msg) => out.push(NicOut::Driver(msg)),
            NicEvent::DepositSmall { src, frame } => {
                self.finish_small_deposit(now, src, *frame, out);
            }
            NicEvent::FlushAcks { peer, gen } => {
                if self.ack_flush_gen.get(&peer) == Some(&gen) {
                    self.flush_acks(peer, out);
                }
            }
        }
    }

    /// Emit the coalesced-ack buffer for `peer` as one batch frame.
    fn flush_acks(&mut self, peer: HostId, out: &mut Vec<NicOut>) {
        let Some(entries) = self.ack_buf.remove(&peer) else { return };
        if entries.is_empty() {
            return;
        }
        *self.ack_flush_gen.entry(peer).or_insert(0) += 1; // invalidate timer
        let bytes = entries.len() as u32 * 12;
        let frame = Frame {
            kind: FrameKind::AckBatch(entries),
            dst_ep: EpId(0),
            key: crate::ids::ProtectionKey::OPEN,
            chan: 0,
            seq: 0,
            ack_uid: 0,
            timestamp: 0,
        };
        out.push(NicOut::Inject(Packet {
            src: self.host,
            dst: peer,
            channel: 0,
            bytes,
            payload: frame,
        }));
    }

    /// Complete a small-message receive at the end of its processing time:
    /// re-check duplicates, deposit, and emit the (n)ack.
    fn finish_small_deposit(
        &mut self,
        now: SimTime,
        src: HostId,
        frame: Frame,
        out: &mut Vec<NicOut>,
    ) {
        let msg = match &frame.kind {
            FrameKind::Data(m) => m.clone(),
            _ => unreachable!("deposits are data frames"),
        };
        if self.cfg.mode == NicMode::Gam {
            if self.deposit(now, frame.dst_ep, msg, false, out).is_err() {
                self.probe(now, NicProbe::GamOverrun);
            }
            return;
        }
        if self.dedup.contains(msg.uid) {
            self.probe(now, NicProbe::Duplicate);
            self.emit_ack_now(now, src, &frame, None, out);
            return;
        }
        match self.deposit(now, frame.dst_ep, msg.clone(), false, out) {
            Ok(()) => {
                self.dedup.insert(msg.uid, self.cfg.dedup_window);
                self.emit_ack_now(now, src, &frame, None, out);
            }
            Err(reason) => {
                let nack = NicProbe::NackTx { reason, ep: Some(frame.dst_ep), uid: msg.uid };
                self.probe(now, nack);
                self.emit_ack_now(now, src, &frame, Some(reason), out);
                if reason == NackReason::NotResident {
                    self.request_residency(now, frame.dst_ep, out);
                }
            }
        }
    }

    /// Build and emit an ack immediately (we are already at the completion
    /// instant of the receive processing).
    fn emit_ack_now(
        &mut self,
        now: SimTime,
        to: HostId,
        data_frame: &Frame,
        nack: Option<NackReason>,
        out: &mut Vec<NicOut>,
    ) {
        let mut tmp = std::mem::take(&mut self.scratch_ack);
        self.send_ack(now, to, data_frame, nack, &mut tmp);
        for o in tmp.drain(..) {
            match o {
                NicOut::Inject(p) if p.dst == self.host => {
                    self.inbox.push_back(FwWork::Rx { src: self.host, frame: p.payload });
                    self.kick(now, out);
                }
                other => out.push(other),
            }
        }
        self.scratch_ack = tmp;
    }

    // -------------------------------------------------------- firmware loop

    /// Ensure a dispatch step is scheduled no later than the firmware's
    /// ready time.
    fn kick(&mut self, now: SimTime, out: &mut Vec<NicOut>) {
        let ready = now.max(self.fw_busy_until);
        if self.fw_scheduled_at <= ready {
            return;
        }
        self.fw_step_gen += 1;
        self.fw_scheduled_at = ready;
        out.push(NicOut::After(ready - now, NicEvent::FwStep { gen: self.fw_step_gen }));
    }

    /// Shift a firmware step's outward effects to the step's completion:
    /// packets leave and driver messages land after the processing time,
    /// and follow-up timers are measured from completion.
    fn defer(cost: SimDuration, tmp: &mut Vec<NicOut>, out: &mut Vec<NicOut>) {
        for o in tmp.drain(..) {
            match o {
                NicOut::Inject(p) => {
                    out.push(NicOut::After(cost, NicEvent::EmitPkt(Box::new(p))));
                }
                NicOut::Driver(m) => out.push(NicOut::After(cost, NicEvent::EmitDriver(m))),
                NicOut::After(d, ev) => out.push(NicOut::After(d + cost, ev)),
            }
        }
    }

    fn fw_step(&mut self, now: SimTime, out: &mut Vec<NicOut>) {
        if now < self.fw_busy_until {
            // The step fired inside the busy window (can happen when work
            // created mid-step re-armed the loop); re-arm at readiness.
            self.kick(now, out);
            return;
        }
        if let Some(work) = self.inbox.pop_front() {
            let mut tmp = std::mem::take(&mut self.scratch_step);
            let cost = match work {
                FwWork::Rx { src, frame } => self.process_rx(now, src, frame, &mut tmp),
                FwWork::Retx(key) => self.process_retx(now, key, &mut tmp),
                FwWork::Dma(tag) => self.process_dma_done(now, tag, &mut tmp),
                FwWork::Driver(op) => self.process_driver(now, op, &mut tmp),
            };
            self.fw_busy_until = now + cost;
            Self::defer(cost, &mut tmp, out);
            self.scratch_step = tmp;
            self.kick(now, out);
            return;
        }
        // Send-side service under WRR.
        let frames = &self.frames;
        let tx = &self.tx;
        let cpp = self.cfg.channels_per_peer;
        let gam = self.cfg.mode == NicMode::Gam;
        let pick = self.sched.select(now, |i| {
            let FrameSlot::Active { image, .. } = &frames[i] else { return false };
            if !image.head_eligible(now) {
                return false;
            }
            if gam {
                return true; // no channels in GAM mode
            }
            let dst = image.send_q.front().unwrap().dst.host;
            (0..cpp).any(|idx| {
                tx.get(&ChannelKey { peer: dst, idx }).map(|c| c.is_free()).unwrap_or(true)
            })
        });
        if let Some(fi) = pick {
            self.sched.served();
            let mut tmp = std::mem::take(&mut self.scratch_step);
            let cost = self.process_send(now, fi, &mut tmp);
            self.fw_busy_until = now + cost;
            Self::defer(cost, &mut tmp, out);
            self.scratch_step = tmp;
            self.kick(now, out);
            return;
        }
        // Idle: arm a wakeup for the earliest backoff expiry, if any.
        let mut next: Option<SimTime> = None;
        for slot in &self.frames {
            if let FrameSlot::Active { image, .. } = slot {
                if let Some(t) = image.head_not_before() {
                    if t > now {
                        next = Some(next.map_or(t, |n: SimTime| n.min(t)));
                    }
                }
            }
        }
        if let Some(t) = next {
            self.fw_step_gen += 1;
            self.fw_scheduled_at = t;
            out.push(NicOut::After(t - now, NicEvent::FwStep { gen: self.fw_step_gen }));
        }
    }

    // ------------------------------------------------------------- send path

    fn alloc_channel(&mut self, now: SimTime, peer: HostId) -> Option<ChannelKey> {
        let start = *self.chan_rr.entry(peer).or_insert(0);
        // Two-pass preference under a fault campaign: a free channel whose
        // route is up beats any free channel whose route is scheduled
        // down. Without an oracle every free channel is "up" and the
        // first pass decides, exactly as before.
        let mut fallback = None;
        for step in 0..self.cfg.channels_per_peer {
            let idx = (start + step) % self.cfg.channels_per_peer;
            let key = ChannelKey { peer, idx };
            let free =
                self.tx.entry(key).or_insert_with(|| ChannelState::new(self.cfg.rto_base)).is_free();
            if !free {
                continue;
            }
            if self.route_is_up(now, peer, idx) {
                self.chan_rr.insert(peer, (idx + 1) % self.cfg.channels_per_peer);
                return Some(key);
            }
            if fallback.is_none() {
                fallback = Some(key);
            }
        }
        if let Some(key) = fallback {
            self.chan_rr.insert(peer, (key.idx + 1) % self.cfg.channels_per_peer);
            return Some(key);
        }
        None
    }

    /// Find a free channel to `avoid.peer`, other than `avoid`, whose
    /// route is fully up at `now` — the failover target. No fallback: if
    /// every alternative is busy or scheduled down, the caller keeps
    /// retransmitting on the original binding.
    fn pick_up_channel(&mut self, now: SimTime, avoid: ChannelKey) -> Option<ChannelKey> {
        let start = *self.chan_rr.entry(avoid.peer).or_insert(0);
        for step in 0..self.cfg.channels_per_peer {
            let idx = (start + step) % self.cfg.channels_per_peer;
            if idx == avoid.idx {
                continue;
            }
            let key = ChannelKey { peer: avoid.peer, idx };
            let free =
                self.tx.entry(key).or_insert_with(|| ChannelState::new(self.cfg.rto_base)).is_free();
            if free && self.route_is_up(now, avoid.peer, idx) {
                self.chan_rr.insert(avoid.peer, (idx + 1) % self.cfg.channels_per_peer);
                return Some(key);
            }
        }
        None
    }

    /// Move the message bound on `from` to channel `to`, whose route is
    /// up (§5.1 multipath as failover). The old binding is unbound
    /// (invalidating its timer generation) and the message transmits on
    /// `to` immediately. The receiver's per-channel sequence state
    /// self-resynchronizes on the next frame ([`SeqClass::Resync`]) and
    /// the uid dedup window filters any copy still crawling along the old
    /// route, so FIFO-per-channel ordering (§5.3) and exactly-once
    /// delivery both survive the switch. `in_flight_per_ep` is untouched:
    /// the message never stops being in flight.
    fn failover(
        &mut self,
        now: SimTime,
        from: ChannelKey,
        to: ChannelKey,
        out: &mut Vec<NicOut>,
    ) -> SimDuration {
        let inf = self
            .tx
            .get_mut(&from)
            .and_then(|ch| ch.unbind(self.cfg.rto_base))
            .expect("failover with nothing bound");
        let uid = inf.uid;
        let meta = self.pending_meta.remove(&uid);
        let (nacks, unbind_cycles, dst, pkey) =
            meta.unwrap_or((0, 0, GlobalEp::new(from.peer, inf.frame.dst_ep), inf.frame.key));
        let msg = match inf.frame.kind {
            FrameKind::Data(m) => m,
            _ => unreachable!("in-flight frames carry data"),
        };
        self.probe(now, NicProbe::Failover { from, to, uid });
        let ps = PendingSend { uid, dst, key: pkey, msg, not_before: now, nacks, unbind_cycles };
        self.transmit(now, inf.src_ep, ps, to, out);
        self.cfg.costs.retransmit
    }

    fn process_send(&mut self, now: SimTime, fi: usize, out: &mut Vec<NicOut>) -> SimDuration {
        let FrameSlot::Active { ep, image } = &mut self.frames[fi] else {
            return SimDuration::ZERO;
        };
        let ep = *ep;
        let Some(ps) = image.send_q.pop_front() else { return SimDuration::ZERO };
        let bulk = ps.msg.is_bulk(self.cfg.pio_threshold);
        if self.cfg.mode == NicMode::Gam {
            return self.gam_send(now, ps, bulk, out);
        }
        let Some(chan) = self.alloc_channel(now, ps.dst.host) else {
            // Raced: the oracle saw a free channel but another frame's work
            // took it within this step. Put the descriptor back.
            let image = self.frames[fi].image_mut().unwrap();
            image.send_q.push_front(ps);
            return SimDuration::ZERO;
        };
        *self.in_flight_per_ep.entry(ep).or_insert(0) += 1;
        if bulk {
            // Stage payload host -> NI over the SBUS, then inject. The
            // channel is reserved now so a second bulk send cannot race it
            // during the DMA; the bind happens at completion.
            self.tx.get_mut(&chan).expect("allocated").reserved = true;
            let bytes = ps.msg.payload_bytes;
            let delay = self.dma.start(now, DmaDirection::ReadHost, bytes);
            self.probe(now, NicProbe::Dma { name: "dma_send_stage", delay, bytes });
            let uid = ps.uid;
            self.staging_out.insert(uid, StagedSend { ps, chan, src_ep: ep });
            out.push(NicOut::After(delay, NicEvent::DmaDone(DmaTag::SendStaged { uid })));
            self.cfg.costs.send_bulk_setup
        } else {
            self.transmit(now, ep, ps, chan, out);
            self.cfg.costs.send_small
        }
    }

    /// Bind `ps` to `chan`, inject its data frame, and arm the
    /// retransmission timer.
    fn transmit(
        &mut self,
        now: SimTime,
        src_ep: EpId,
        ps: PendingSend,
        chan: ChannelKey,
        out: &mut Vec<NicOut>,
    ) {
        let frame = Frame {
            kind: FrameKind::Data(ps.msg.clone()),
            dst_ep: ps.dst.ep,
            key: ps.key,
            chan: chan.idx,
            seq: 0, // assigned by bind
            ack_uid: 0,
            timestamp: Self::ts32(now),
        };
        let bytes = ps.msg.wire_bytes();
        let inf = InFlight {
            uid: ps.uid,
            src_ep,
            frame,
            bytes,
            last_tx: now,
            retx: 0,
            gen: 0,
        };
        // Keep backoff/progress metadata with the channel binding by stashing
        // the PendingSend fields we need on unbind inside the frame's msg —
        // nacks/unbind_cycles are carried in `pending_meta`.
        let ch = self.tx.get_mut(&chan).expect("channel allocated");
        let seq = ch.bind(inf);
        let inf = ch.in_flight.as_mut().unwrap();
        inf.frame.seq = seq;
        self.pending_meta.insert(ps.uid, (ps.nacks, ps.unbind_cycles, ps.dst, ps.key));
        let gen = inf.gen;
        let ch_rto = ch.rto;
        let base = self.rto_for(chan.peer, ch_rto, ps.msg.payload_bytes);
        let rto = base.mul_f64(self.rng.jitter(0.25));
        let pkt = Packet {
            src: self.host,
            dst: chan.peer,
            channel: chan.idx,
            bytes,
            payload: self.tx[&chan].in_flight.as_ref().unwrap().frame.clone(),
        };
        self.emit(now, pkt, out);
        out.push(NicOut::After(rto, NicEvent::Retx { key: chan, gen }));
        self.probe(now, NicProbe::Bind { chan, uid: ps.uid, seq });
        // Recovery invariant (§3.2): with a campaign oracle attached, a
        // send planned over a scheduled-down route while a free channel
        // with an up route existed means failover failed to do its job.
        if self.oracle_active()
            && !self.route_is_up(now, chan.peer, chan.idx)
            && self.has_free_up_alternative(now, chan)
        {
            self.probe(now, NicProbe::DownRouteSend { chan, uid: ps.uid });
        }
    }

    /// Whether a channel other than `chan` to the same peer is free and
    /// has a fully-up route at `now` (the "could have routed around it"
    /// half of the down-route recovery invariant).
    fn has_free_up_alternative(&mut self, now: SimTime, chan: ChannelKey) -> bool {
        for idx in 0..self.cfg.channels_per_peer {
            if idx == chan.idx {
                continue;
            }
            let free = self
                .tx
                .get(&ChannelKey { peer: chan.peer, idx })
                .is_none_or(ChannelState::is_free);
            if free && self.route_is_up(now, chan.peer, idx) {
                return true;
            }
        }
        false
    }

    fn gam_send(
        &mut self,
        now: SimTime,
        ps: PendingSend,
        bulk: bool,
        out: &mut Vec<NicOut>,
    ) -> SimDuration {
        if bulk {
            let bytes = ps.msg.payload_bytes;
            let delay = self.dma.start(now, DmaDirection::ReadHost, bytes);
            self.probe(now, NicProbe::Dma { name: "dma_send_stage", delay, bytes });
            let uid = ps.uid;
            let chan = ChannelKey { peer: ps.dst.host, idx: 0 };
            self.staging_out.insert(uid, StagedSend { ps, chan, src_ep: EpId(0) });
            out.push(NicOut::After(delay, NicEvent::DmaDone(DmaTag::SendStaged { uid })));
            self.cfg.costs.send_bulk_setup
        } else {
            let frame = Frame {
                kind: FrameKind::Data(ps.msg.clone()),
                dst_ep: ps.dst.ep,
                key: ps.key,
                chan: 0,
                seq: 0,
                ack_uid: 0,
                timestamp: Self::ts32(now),
            };
            self.emit(
                now,
                Packet {
                    src: self.host,
                    dst: ps.dst.host,
                    channel: 0,
                    bytes: ps.msg.wire_bytes(),
                    payload: frame,
                },
                out,
            );
            self.probe(now, NicProbe::GamSend);
            self.cfg.costs.send_small
        }
    }

    // ---------------------------------------------------------- receive path

    fn process_rx(
        &mut self,
        now: SimTime,
        src: HostId,
        frame: Frame,
        out: &mut Vec<NicOut>,
    ) -> SimDuration {
        match frame.kind {
            FrameKind::Data(ref m) => {
                let msg = Arc::clone(m);
                self.process_data(now, src, frame, msg, out)
            }
            FrameKind::Ack => self.process_ack(now, src, frame, None, out),
            FrameKind::Nack(r) => self.process_ack(now, src, frame, Some(r), out),
            FrameKind::AckBatch(entries) => {
                let n = entries.len().max(1);
                for e in entries {
                    self.handle_ack_entry(now, src, e.chan, e.uid, e.timestamp, None, out);
                }
                self.cfg.costs.ack + self.cfg.costs.ack_entry() * (n as u64 - 1)
            }
            FrameKind::Abs { .. } => {
                unreachable!("abstract frame from {src} reached full-fidelity host {}", self.host)
            }
        }
    }

    fn process_data(
        &mut self,
        now: SimTime,
        src: HostId,
        frame: Frame,
        msg: Arc<UserMsg>,
        out: &mut Vec<NicOut>,
    ) -> SimDuration {
        let bulk = msg.is_bulk(self.cfg.pio_threshold);
        // Sequence bookkeeping (self-synchronizing; exactness comes from the
        // dedup window below).
        let rxk = ChannelKey { peer: src, idx: frame.chan };
        if self.rx.entry(rxk).or_default().accept(frame.seq) == SeqClass::Resync {
            // Sender epoch advanced (unbind churn or failover rebind);
            // sequencing state adopted (§5.1 self-resynchronization).
            self.probe(now, NicProbe::Resync);
        }

        if self.cfg.mode == NicMode::Gam {
            return self.gam_receive(now, src, frame, msg, bulk, out);
        }
        // Duplicate? Ack again, deliver nothing.
        if self.dedup.contains(msg.uid) {
            self.probe(now, NicProbe::Duplicate);
            self.send_ack(now, src, &frame, None, out);
            return self.cfg.costs.recv_small;
        }
        // A copy of a bulk frame whose first copy is still staging through
        // the SBUS: drop it silently — the staged copy will ack on deposit.
        if self.staging_in.contains_key(&msg.uid) {
            self.probe(now, NicProbe::Duplicate);
            return self.cfg.costs.recv_small;
        }
        // Admission checks (fast, before any DMA).
        if let Some(reason) = self.admission_check(&frame, &msg) {
            self.probe(now, NicProbe::NackTx { reason, ep: Some(frame.dst_ep), uid: msg.uid });
            self.send_ack(now, src, &frame, Some(reason), out);
            if reason == NackReason::NotResident {
                self.request_residency(now, frame.dst_ep, out);
            }
            return self.cfg.costs.recv_small;
        }
        if bulk {
            // Stage NI -> host over the SBUS; deposit + ack on completion.
            // Staging SRAM is finite: an arrival beyond the buffer budget
            // draws a transient NACK and the sender backs off, exactly the
            // self-regulation receive-queue overruns get (§6.4.1).
            if self.staging_in.len() >= self.cfg.recv_staging_bufs {
                let reason = NackReason::RecvQueueFull;
                self.probe(now, NicProbe::NackTx { reason, ep: None, uid: msg.uid });
                self.send_ack(now, src, &frame, Some(reason), out);
                return self.cfg.costs.recv_small;
            }
            let bytes = msg.payload_bytes;
            let delay = self.dma.start(now, DmaDirection::WriteHost, bytes);
            self.probe(now, NicProbe::Dma { name: "dma_recv_stage", delay, bytes });
            let uid = msg.uid;
            self.staging_in.insert(uid, StagedRecv { src, frame });
            out.push(NicOut::After(delay, NicEvent::DmaDone(DmaTag::RecvStaged { uid })));
            self.cfg.costs.recv_bulk_setup
        } else {
            // A queue-capacity check ran in admission; the deposit itself
            // lands when the receive processing completes (After(0) here is
            // shifted by the step cost in `defer`).
            out.push(NicOut::After(
                SimDuration::ZERO,
                NicEvent::DepositSmall { src, frame: Box::new(frame) },
            ));
            self.cfg.costs.recv_small
        }
    }

    /// Pre-deposit admission: endpoint existence, residency, key.
    fn admission_check(&self, frame: &Frame, _msg: &UserMsg) -> Option<NackReason> {
        let ep = frame.dst_ep;
        if !self.registered.contains(&ep) {
            return Some(NackReason::NoSuchEndpoint);
        }
        match self.ep_frame.get(&ep).map(|&i| &self.frames[i]) {
            Some(FrameSlot::Active { image, .. }) => {
                if image.key != frame.key {
                    Some(NackReason::BadKey)
                } else {
                    None
                }
            }
            // Loading / draining endpoints are not yet/no longer serviceable.
            Some(_) | None => Some(NackReason::NotResident),
        }
    }

    fn request_residency(&mut self, now: SimTime, ep: EpId, out: &mut Vec<NicOut>) {
        // Suppress while loading (already on its way) or draining (the
        // driver just decided to evict it; the sender's retry will re-raise
        // after the unload completes).
        let in_transition = self.ep_frame.get(&ep).map(|&i| !self.frames[i].is_active() && self.frames[i].occupant().is_some()).unwrap_or(false);
        if in_transition {
            return;
        }
        if self.need_resident_pending.insert(ep) {
            let clock = self.tick_clock(0);
            self.probe(now, NicProbe::ResidentRequest);
            out.push(NicOut::Driver(DriverMsg::NeedResident { ep, clock }));
        }
    }

    fn gam_receive(
        &mut self,
        now: SimTime,
        _src: HostId,
        frame: Frame,
        msg: Arc<UserMsg>,
        bulk: bool,
        out: &mut Vec<NicOut>,
    ) -> SimDuration {
        if bulk {
            // First-generation interface: single-buffered staging — the
            // wire -> NI SRAM copy cannot overlap the SBUS transfer, so it
            // occupies the staging pipeline serially (the store-and-forward
            // penalty that virtual networks pipeline away, §6.1).
            let penalty =
                SimDuration::for_bytes(msg.payload_bytes as u64, self.cfg.link_mb_s_hint);
            let delay = self.dma.start_with_overhead(
                now,
                DmaDirection::WriteHost,
                msg.payload_bytes,
                penalty,
            );
            let bytes = msg.payload_bytes;
            self.probe(now, NicProbe::Dma { name: "dma_recv_stage", delay, bytes });
            let uid = msg.uid;
            self.staging_in.insert(uid, StagedRecv { src: _src, frame });
            out.push(NicOut::After(delay, NicEvent::DmaDone(DmaTag::RecvStaged { uid })));
            self.cfg.costs.recv_bulk_setup
        } else {
            out.push(NicOut::After(
                SimDuration::ZERO,
                NicEvent::DepositSmall { src: _src, frame: Box::new(frame) },
            ));
            let _ = msg;
            self.cfg.costs.recv_small
        }
    }

    /// Deposit into the endpoint's receive queue; raises a driver event on
    /// empty→nonempty transitions when the mask asks for it.
    fn deposit(
        &mut self,
        now: SimTime,
        ep: EpId,
        msg: Arc<UserMsg>,
        undeliverable: bool,
        out: &mut Vec<NicOut>,
    ) -> Result<(), NackReason> {
        let uid = msg.uid;
        let Some(&fi) = self.ep_frame.get(&ep) else { return Err(NackReason::NotResident) };
        if !self.frames[fi].is_active() {
            return Err(NackReason::NotResident);
        }
        let depth = self.cfg.recv_queue_depth;
        let image = self.frames[fi].image_mut().unwrap();
        let q = if msg.is_request && !undeliverable {
            &mut image.recv_req
        } else {
            &mut image.recv_rep
        };
        if q.len() >= depth {
            return Err(NackReason::RecvQueueFull);
        }
        let was_idle = !image.has_received();
        let q = if msg.is_request && !undeliverable {
            &mut image.recv_req
        } else {
            &mut image.recv_rep
        };
        q.push_back(DeliveredMsg { msg, undeliverable, deposited_at: now });
        let image = self.frames[fi].image().unwrap();
        if was_idle && image.notify_on_arrival {
            let clock = self.tick_clock(0);
            out.push(NicOut::Driver(DriverMsg::Event { ep, clock }));
        }
        self.probe(now, if undeliverable { NicProbe::Returned } else { NicProbe::Delivered { uid } });
        Ok(())
    }

    fn send_ack(
        &mut self,
        now: SimTime,
        to: HostId,
        data_frame: &Frame,
        nack: Option<NackReason>,
        out: &mut Vec<NicOut>,
    ) {
        let uid = match &data_frame.kind {
            FrameKind::Data(m) => m.uid,
            _ => unreachable!("acks acknowledge data frames"),
        };
        // Positive acks may coalesce (§8 piggybacking); NACKs never wait.
        if nack.is_none() && to != self.host {
            if let Some(window) = self.cfg.ack_coalesce {
                let buf = self.ack_buf.entry(to).or_default();
                buf.push(AckEntry {
                    chan: data_frame.chan,
                    seq: data_frame.seq,
                    uid,
                    timestamp: data_frame.timestamp,
                });
                let len = buf.len();
                if len >= self.cfg.ack_coalesce_max {
                    self.flush_acks(to, out);
                } else if len == 1 {
                    let gen = self.ack_flush_gen.entry(to).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    out.push(NicOut::After(window, NicEvent::FlushAcks { peer: to, gen }));
                }
                return;
            }
        }
        let frame = Frame {
            kind: match nack {
                None => FrameKind::Ack,
                Some(r) => FrameKind::Nack(r),
            },
            dst_ep: data_frame.dst_ep,
            key: data_frame.key,
            chan: data_frame.chan,
            seq: data_frame.seq,
            ack_uid: uid,
            timestamp: data_frame.timestamp, // reflected (§5.1)
        };
        self.emit(
            now,
            Packet { src: self.host, dst: to, channel: data_frame.chan, bytes: 0, payload: frame },
            out,
        );
    }

    // -------------------------------------------------------------- ack path

    fn process_ack(
        &mut self,
        now: SimTime,
        src: HostId,
        frame: Frame,
        nack: Option<NackReason>,
        out: &mut Vec<NicOut>,
    ) -> SimDuration {
        self.handle_ack_entry(now, src, frame.chan, frame.ack_uid, frame.timestamp, nack, out);
        self.cfg.costs.ack
    }

    /// Channel bookkeeping for one acknowledgment (shared by single acks
    /// and batch entries).
    #[allow(clippy::too_many_arguments)]
    fn handle_ack_entry(
        &mut self,
        now: SimTime,
        src: HostId,
        chan: u8,
        ack_uid: u64,
        timestamp: u32,
        nack: Option<NackReason>,
        out: &mut Vec<NicOut>,
    ) {
        let key = ChannelKey { peer: src, idx: chan };
        let completed = self
            .tx
            .get_mut(&key)
            .and_then(|ch| ch.complete(ack_uid, self.cfg.rto_base));
        let Some(inf) = completed else {
            return; // stale ack of an unbound copy
        };
        // Observed RTT via the reflected timestamp. Because the receiver
        // echoes the timestamp of the specific copy it saw, the sample is
        // unambiguous even for retransmitted frames (no Karn's rule
        // needed — the reason §5.1 puts a timestamp in every link header).
        let rtt_us = Self::ts32(now).wrapping_sub(timestamp);
        self.probe(now, NicProbe::Acked { chan: key, uid: ack_uid, rtt_us, nack });
        self.dec_in_flight(now, inf.src_ep, out);
        if self.cfg.adaptive_rto && nack.is_none() {
            self.observe_rtt(src, rtt_us as f64);
        }
        let meta = self.pending_meta.remove(&inf.uid);
        let Some(reason) = nack else {
            // A positive ack ends the message's retransmission episode, if
            // it had one: the time since its first timer expiry is a
            // recovery sample.
            if let Some(t0) = self.troubled.remove(&inf.uid) {
                self.probe(now, NicProbe::Recovered { took: now - t0 });
            }
            return;
        };
        let (nacks, unbind_cycles, dst, pkey) = meta.unwrap_or((
            0,
            0,
            GlobalEp::new(src, inf.frame.dst_ep),
            inf.frame.key,
        ));
        let msg = match inf.frame.kind {
            FrameKind::Data(m) => m,
            _ => unreachable!("in-flight frames carry data"),
        };
        if reason.is_transient() {
            // Park for a backoff and retry (§6.4.1: "negatively
            // acknowledged and retransmitted later").
            let exp = nacks.min(5);
            let delay = self
                .cfg
                .nack_retry_base
                .saturating_mul(1 << exp)
                .min(self.cfg.nack_retry_max)
                .mul_f64(self.rng.jitter(0.3));
            let (uid, nacks) = (inf.uid, nacks + 1);
            self.probe(now, NicProbe::NackBackoff { uid, reason, nacks, delay });
            self.park_for_retry(
                now,
                inf.src_ep,
                PendingSend {
                    uid: inf.uid,
                    dst,
                    key: pkey,
                    msg,
                    not_before: now + delay,
                    nacks,
                    unbind_cycles,
                },
                out,
            );
        } else {
            // Hard failure: return to sender (§3.2).
            self.return_to_sender(now, inf.src_ep, msg, out);
        }
    }

    fn dec_in_flight(&mut self, now: SimTime, ep: EpId, out: &mut Vec<NicOut>) {
        if let Some(c) = self.in_flight_per_ep.get_mut(&ep) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.in_flight_per_ep.remove(&ep);
                self.maybe_start_unload_dma(now, ep, out);
            }
        }
    }

    /// Put a message back on its endpoint's send queue for a later retry.
    /// If the endpoint has vanished mid-flight (freed), the message is
    /// dropped — process teardown discards its traffic.
    fn park_for_retry(
        &mut self,
        now: SimTime,
        ep: EpId,
        ps: PendingSend,
        out: &mut Vec<NicOut>,
    ) {
        let _ = &out;
        if let Some(&fi) = self.ep_frame.get(&ep) {
            if let Some(image) = self.frames[fi].image_mut() {
                image.send_q.push_front(ps);
                return;
            }
        }
        // Endpoint gone mid-flight (freed): teardown discards its traffic.
        self.troubled.remove(&ps.uid);
        self.probe(now, NicProbe::SendAborted { uid: ps.uid, ep, why: "gone" });
    }

    /// Deliver `msg` back to its source endpoint marked undeliverable.
    fn return_to_sender(&mut self, now: SimTime, ep: EpId, msg: Arc<UserMsg>, out: &mut Vec<NicOut>) {
        let uid = msg.uid;
        self.troubled.remove(&uid); // bounced, not recovered: no sample
        self.probe(now, NicProbe::Bounced { uid, ep });
        if self.deposit(now, ep, msg.clone(), true, out).is_err() {
            // Not resident or queue full: hold and flush later.
            self.pending_returns.entry(ep).or_default().push_back(DeliveredMsg {
                msg,
                undeliverable: true,
                deposited_at: now,
            });
            self.request_residency(now, ep, out);
        }
    }

    fn flush_pending_returns(&mut self, ep: EpId) {
        let Some(q) = self.pending_returns.get_mut(&ep) else { return };
        let Some(&fi) = self.ep_frame.get(&ep) else { return };
        if !self.frames[fi].is_active() {
            return;
        }
        let depth = self.cfg.recv_queue_depth;
        let image = self.frames[fi].image_mut().unwrap();
        while image.recv_rep.len() < depth {
            match q.pop_front() {
                Some(m) => image.recv_rep.push_back(m),
                None => break,
            }
        }
        if q.is_empty() {
            self.pending_returns.remove(&ep);
        }
    }

    // ----------------------------------------------------------- retransmit

    fn process_retx(&mut self, now: SimTime, key: ChannelKey, out: &mut Vec<NicOut>) -> SimDuration {
        let Some(ch) = self.tx.get_mut(&key) else { return SimDuration::ZERO };
        let Some(inf) = ch.in_flight.as_ref() else { return SimDuration::ZERO };
        // A retransmission timer fired: this message is in trouble. Note
        // when the episode began for the time-to-recovery distribution.
        self.troubled.entry(inf.uid).or_insert(now);
        // Failover first (§5.1 multipath as §3.2 hot-swap recovery): if
        // the bound route crosses a *scheduled* down link and a free
        // channel with an up route exists, move the message there instead
        // of retransmitting into a known hole. With no alternate route
        // the normal retransmit-until-unbind path below takes over.
        if self.oracle_active() && !self.route_is_up(now, key.peer, key.idx) {
            if let Some(alt) = self.pick_up_channel(now, key) {
                return self.failover(now, key, alt, out);
            }
        }
        let Some(ch) = self.tx.get_mut(&key) else { return SimDuration::ZERO };
        let Some(inf) = ch.in_flight.as_ref() else { return SimDuration::ZERO };
        if inf.retx + 1 > self.cfg.max_retx_before_unbind {
            // Unbind so the shared channel can be reused (§5.1).
            let inf = ch.unbind(self.cfg.rto_base).unwrap();
            let uid = inf.uid;
            self.dec_in_flight(now, inf.src_ep, out);
            let meta = self.pending_meta.remove(&inf.uid);
            let (nacks, unbind_cycles, dst, pkey) = meta.unwrap_or((
                0,
                0,
                GlobalEp::new(key.peer, inf.frame.dst_ep),
                inf.frame.key,
            ));
            let cycle = unbind_cycles + 1;
            self.probe(now, NicProbe::Unbind { chan: key, uid, retx: inf.retx, cycle });
            let msg = match inf.frame.kind {
                FrameKind::Data(m) => m,
                _ => unreachable!(),
            };
            if cycle > self.cfg.max_unbind_cycles {
                // Prolonged absence of acknowledgments: unrecoverable (§5.1).
                self.return_to_sender(now, inf.src_ep, msg, out);
            } else {
                let delay = self.cfg.rto_max.mul_f64(self.rng.jitter(0.3));
                self.probe(now, NicProbe::UnbindBackoff { uid, cycle, delay });
                self.park_for_retry(
                    now,
                    inf.src_ep,
                    PendingSend {
                        uid: inf.uid,
                        dst,
                        key: pkey,
                        msg,
                        not_before: now + delay,
                        nacks,
                        unbind_cycles: cycle,
                    },
                    out,
                );
            }
            return self.cfg.costs.retransmit;
        }
        ch.on_retransmit(self.cfg.rto_max);
        let inf = ch.in_flight.as_mut().unwrap();
        inf.last_tx = now;
        inf.frame.timestamp = Self::ts32(now);
        let pkt = Packet {
            src: self.host,
            dst: key.peer,
            channel: key.idx,
            bytes: inf.bytes,
            payload: inf.frame.clone(),
        };
        let gen = inf.gen;
        let uid = inf.uid;
        let payload_bytes = match &inf.frame.kind {
            FrameKind::Data(m) => m.payload_bytes,
            _ => 0,
        };
        let ch_rto = ch.rto;
        let rto = self.rto_for(key.peer, ch_rto, payload_bytes).mul_f64(self.rng.jitter(0.25));
        self.emit(now, pkt, out);
        out.push(NicOut::After(rto, NicEvent::Retx { key, gen }));
        self.probe(now, NicProbe::Retransmit { chan: key, uid });
        self.cfg.costs.retransmit
    }

    // ---------------------------------------------------------------- DMA

    fn process_dma_done(&mut self, now: SimTime, tag: DmaTag, out: &mut Vec<NicOut>) -> SimDuration {
        match tag {
            DmaTag::SendStaged { uid } => {
                let Some(st) = self.staging_out.remove(&uid) else { return SimDuration::ZERO };
                if self.cfg.mode == NicMode::Gam {
                    let frame = Frame {
                        kind: FrameKind::Data(st.ps.msg.clone()),
                        dst_ep: st.ps.dst.ep,
                        key: st.ps.key,
                        chan: 0,
                        seq: 0,
                        ack_uid: 0,
                        timestamp: Self::ts32(now),
                    };
                    self.emit(
                        now,
                        Packet {
                            src: self.host,
                            dst: st.ps.dst.host,
                            channel: 0,
                            bytes: st.ps.msg.wire_bytes(),
                            payload: frame,
                        },
                        out,
                    );
                    self.probe(now, NicProbe::GamSend);
                } else {
                    self.transmit(now, st.src_ep, st.ps, st.chan, out);
                }
                self.cfg.costs.send_bulk_finish
            }
            DmaTag::RecvStaged { uid } => {
                let Some(st) = self.staging_in.remove(&uid) else { return SimDuration::ZERO };
                let msg = match &st.frame.kind {
                    FrameKind::Data(m) => m.clone(),
                    _ => unreachable!(),
                };
                if self.cfg.mode == NicMode::Gam {
                    if self.deposit(now, st.frame.dst_ep, msg, false, out).is_err() {
                        self.probe(now, NicProbe::GamOverrun);
                    }
                } else {
                    match self.deposit(now, st.frame.dst_ep, msg.clone(), false, out) {
                        Ok(()) => {
                            self.dedup.insert(uid, self.cfg.dedup_window);
                            self.send_ack(now, st.src, &st.frame, None, out);
                        }
                        Err(reason) => {
                            let ep = Some(st.frame.dst_ep);
                            self.probe(now, NicProbe::NackTx { reason, ep, uid });
                            self.send_ack(now, st.src, &st.frame, Some(reason), out);
                            if reason == NackReason::NotResident {
                                self.request_residency(now, st.frame.dst_ep, out);
                            }
                        }
                    }
                }
                self.cfg.costs.recv_bulk_finish
            }
            DmaTag::LoadDone { ep } => {
                let &fi = self.ep_frame.get(&ep).expect("loading ep has a frame");
                let slot = std::mem::replace(&mut self.frames[fi], FrameSlot::Free);
                let FrameSlot::Loading { image, clock: _, .. } = slot else {
                    panic!("LoadDone for a frame not in Loading state");
                };
                self.frames[fi] = FrameSlot::Active { ep, image };
                self.probe(now, NicProbe::Loaded);
                self.flush_pending_returns(ep);
                let clock = self.tick_clock(0);
                out.push(NicOut::Driver(DriverMsg::Loaded { ep, clock }));
                self.cfg.costs.driver_op / 2
            }
            DmaTag::UnloadDone { ep } => {
                let Some(&fi) = self.ep_frame.get(&ep) else { return SimDuration::ZERO };
                let slot = std::mem::replace(&mut self.frames[fi], FrameSlot::Free);
                let FrameSlot::Draining { image, .. } = slot else {
                    panic!("UnloadDone for a frame not in Draining state");
                };
                self.ep_frame.remove(&ep);
                self.unload_dma_started.remove(&ep);
                self.probe(now, NicProbe::Unloaded);
                let clock = self.tick_clock(0);
                out.push(NicOut::Driver(DriverMsg::Unloaded { ep, image, clock }));
                self.cfg.costs.driver_op / 2
            }
        }
    }

    // ------------------------------------------------------------- driver ops

    fn process_driver(&mut self, now: SimTime, op: DriverOp, out: &mut Vec<NicOut>) -> SimDuration {
        match op {
            DriverOp::Load { ep, image, clock } => {
                self.tick_clock(clock);
                self.need_resident_pending.remove(&ep);
                let fi = self
                    .frames
                    .iter()
                    .position(|s| matches!(s, FrameSlot::Free))
                    .expect("driver must evict before loading into a full NI");
                self.frames[fi] = FrameSlot::Loading { ep, image, clock };
                self.ep_frame.insert(ep, fi);
                let bytes = self.cfg.frame_bytes;
                let delay = self.dma.start(now, DmaDirection::ReadHost, bytes);
                self.probe(now, NicProbe::Dma { name: "dma_ep_load", delay, bytes });
                out.push(NicOut::After(delay, NicEvent::DmaDone(DmaTag::LoadDone { ep })));
                self.cfg.costs.driver_op
            }
            DriverOp::Unload { ep, clock } => {
                self.tick_clock(clock);
                let &fi = self.ep_frame.get(&ep).expect("unload of a non-resident endpoint");
                let slot = std::mem::replace(&mut self.frames[fi], FrameSlot::Free);
                let FrameSlot::Active { image, .. } = slot else {
                    panic!("unload of a frame not in Active state");
                };
                self.frames[fi] = FrameSlot::Draining { ep, image, clock };
                self.maybe_start_unload_dma(now, ep, out);
                self.cfg.costs.driver_op
            }
            DriverOp::SetMask { ep, notify_on_arrival, clock } => {
                self.tick_clock(clock);
                if let Some(&fi) = self.ep_frame.get(&ep) {
                    if let Some(image) = self.frames[fi].image_mut() {
                        image.notify_on_arrival = notify_on_arrival;
                    }
                }
                self.cfg.costs.driver_op / 10
            }
            DriverOp::Register { ep, clock } => {
                self.tick_clock(clock);
                self.registered.insert(ep);
                self.cfg.costs.driver_op / 10
            }
            DriverOp::Unregister { ep, clock } => {
                self.tick_clock(clock);
                self.registered.remove(&ep);
                self.need_resident_pending.remove(&ep);
                self.pending_returns.remove(&ep);
                // Abort any bulk sends still staging over the SBUS for the
                // departing endpoint and release their reserved channels, so
                // teardown cannot leak a lane (the later SendStaged DMA
                // completion finds no staging entry and is a no-op).
                let doomed: Vec<u64> = self
                    .staging_out
                    .iter()
                    .filter(|(_, s)| s.src_ep == ep)
                    .map(|(&uid, _)| uid)
                    .collect();
                for uid in doomed {
                    let st = self.staging_out.remove(&uid).expect("collected above");
                    if let Some(ch) = self.tx.get_mut(&st.chan) {
                        ch.reserved = false;
                    }
                    self.pending_meta.remove(&uid);
                    self.dec_in_flight(now, ep, out);
                    self.probe(now, NicProbe::SendAborted { uid, ep, why: "unregistered" });
                }
                self.cfg.costs.driver_op / 10
            }
        }
    }

    /// Begin the unload DMA once the draining endpoint has quiesced: no
    /// in-flight messages still reference it (§5.3).
    fn maybe_start_unload_dma(&mut self, now: SimTime, ep: EpId, out: &mut Vec<NicOut>) {
        let Some(&fi) = self.ep_frame.get(&ep) else { return };
        if !matches!(self.frames[fi], FrameSlot::Draining { .. }) {
            return;
        }
        let in_flight = self.in_flight_per_ep.get(&ep).copied().unwrap_or(0);
        let staging = self.staging_out.values().any(|s| s.src_ep == ep);
        if in_flight == 0 && !staging && self.unload_dma_started.insert(ep) {
            let bytes = self.cfg.frame_bytes;
            let delay = self.dma.start(now, DmaDirection::WriteHost, bytes);
            self.probe(now, NicProbe::Dma { name: "dma_ep_unload", delay, bytes });
            out.push(NicOut::After(delay, NicEvent::DmaDone(DmaTag::UnloadDone { ep })));
        }
    }
}

impl Nic {
    /// One-line diagnostic dump of the firmware state (send queues,
    /// channels, scheduling horizon) for debugging stalls.
    pub fn diagnostic_summary(&self, now: SimTime) -> String {
        let mut sendq = Vec::new();
        for slot in &self.frames {
            if let Some(ep) = slot.occupant() {
                if let Some(img) = slot.image() {
                    sendq.push(format!(
                        "{ep}:q{}nb{:?}",
                        img.send_q.len(),
                        img.head_not_before().map(|t| t.as_micros_f64())
                    ));
                }
            }
        }
        let busy_ch = self
            .tx
            .iter()
            .filter(|(_, c)| !c.is_free())
            .map(|(k, c)| {
                format!(
                    "{}#{}:{:?}r{}",
                    k.peer,
                    k.idx,
                    c.in_flight.as_ref().map(|i| i.uid),
                    c.reserved
                )
            })
            .collect::<Vec<_>>();
        format!(
            "now={} fw_busy_until={} sched_at={:?} gen={} inbox={} sendq=[{}] busy_ch=[{}] staging_out={} in_flight={:?}",
            now,
            self.fw_busy_until,
            if self.fw_scheduled_at == SimTime::MAX {
                None
            } else {
                Some(self.fw_scheduled_at.as_micros_f64())
            },
            self.fw_step_gen,
            self.inbox.len(),
            sendq.join(","),
            busy_ch.join(","),
            self.staging_out.len(),
            self.in_flight_per_ep,
        )
    }

    /// Number of endpoints currently bound to frames (any phase).
    pub fn resident_count(&self) -> usize {
        self.ep_frame.len()
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> usize {
        self.frames.iter().filter(|s| matches!(s, FrameSlot::Free)).count()
    }

    /// Number of bulk sends currently staging host→NI over the SBUS.
    pub fn staging_count(&self) -> usize {
        self.staging_out.len()
    }

    /// Number of transmit channels currently occupied — bound to an
    /// in-flight frame or reserved by a staging bulk send.
    pub fn busy_channel_count(&self) -> usize {
        self.tx.values().filter(|c| !c.is_free()).count()
    }
}
