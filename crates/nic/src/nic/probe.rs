//! One probe per firmware protocol transition.
//!
//! Every NIC state change that is counted, audited or logged is one
//! [`NicProbe`], reported once by the firmware through [`Nic::probe`],
//! which matches it once and gives each recorder its one job: `NicStats`
//! counts (always), the invariant auditor checks (when attached), and the
//! span log records (when attached). So a transition cannot be counted
//! without also being audited and logged. With no recorder attached a
//! probe costs its counter update and the two `None` checks.
//!
//! Span-log tracks:
//!
//! * `nic.chan` — retransmission episodes (first retransmit → ack or
//!   unbind) and park/backoff episodes (transient NACK or post-unbind
//!   wait → rebind or bounce), async spans keyed so overlapping episodes
//!   render on one track.
//! * `nic.dma` — SBUS DMA transfers (send staging, receive staging,
//!   endpoint load/unload). The engine is serial and deterministic, so
//!   the completion time is known at start and the whole span is
//!   recorded immediately.
//! * `nic.fw` — instantaneous markers: NACKs sent/received (with
//!   reason), unbinds, failovers, aborted sends, bounced messages.

use super::Nic;
use crate::channel::ChannelKey;
use crate::ids::EpId;
use crate::msg::NackReason;
use vnet_sim::telemetry::{if_attached, EpisodeKey, SpanDetail};
use vnet_sim::{SimDuration, SimTime};

/// Perfetto track for channel retransmit/backoff episodes.
const TRACK_CHAN: &str = "nic.chan";
/// Perfetto track for SBUS DMA transfers.
const TRACK_DMA: &str = "nic.dma";
/// Perfetto track for instantaneous firmware markers.
const TRACK_FW: &str = "nic.fw";

/// A channel's retransmission episode.
fn retx_key(host: u32, chan: ChannelKey) -> EpisodeKey {
    (host, "retx", (u64::from(chan.peer.0) << 8) | u64::from(chan.idx))
}

/// One firmware protocol transition (see the module docs).
pub(super) enum NicProbe {
    /// A send descriptor entered a resident endpoint's queue.
    Posted { uid: u64 },
    /// A frame left for the fabric or the local loopback.
    FrameTx,
    /// A frame arrived from the fabric.
    FrameRx,
    /// An arrived frame failed the CRC check and was dropped.
    CrcDrop,
    /// A retransmission timer fired after its frame was acked or rebound
    /// and was ignored.
    StaleTimer,
    /// GAM mode: a data frame left without a channel.
    GamSend,
    /// GAM mode: a receive queue overran and the frame was dropped.
    GamOverrun,
    /// A message was bound to `chan` with sequence `seq` and sent.
    Bind { chan: ChannelKey, uid: u64, seq: u64 },
    /// A message was sent over a scheduled-down route while a free
    /// channel with an up route existed.
    DownRouteSend { chan: ChannelKey, uid: u64 },
    /// The frame bound to `chan` was retransmitted.
    Retransmit { chan: ChannelKey, uid: u64 },
    /// After `retx` retransmissions the message was unbound from `chan`,
    /// ending unbind cycle `cycle`.
    Unbind { chan: ChannelKey, uid: u64, retx: u32, cycle: u32 },
    /// A bound message moved from `from` to `to` around a scheduled-down
    /// route.
    Failover { from: ChannelKey, to: ChannelKey, uid: u64 },
    /// The frame bound to `chan` was acknowledged: positively, or by a
    /// NACK carrying `nack`. `rtt_us` comes from the reflected timestamp.
    Acked { chan: ChannelKey, uid: u64, rtt_us: u32, nack: Option<NackReason> },
    /// A positive ack ended a message's retransmission episode, `took`
    /// after its first timer expiry.
    Recovered { took: SimDuration },
    /// A transiently NACKed message parks for `delay` before retry
    /// number `nacks`.
    NackBackoff { uid: u64, reason: NackReason, nacks: u32, delay: SimDuration },
    /// An unbound message parks for `delay` before rebinding in unbind
    /// cycle `cycle`.
    UnbindBackoff { uid: u64, cycle: u32, delay: SimDuration },
    /// A message went back to its sender endpoint `ep` undeliverable.
    Bounced { uid: u64, ep: EpId },
    /// A send was discarded because its endpoint `ep` is `why` (gone,
    /// unregistered).
    SendAborted { uid: u64, ep: EpId, why: &'static str },
    /// A receive channel adopted a new sender epoch (§5.1
    /// self-resynchronization).
    Resync,
    /// A duplicate data frame was filtered.
    Duplicate,
    /// A data frame was NACKed with `reason`; `ep` is its destination
    /// endpoint, `None` when the receive staging buffers were full.
    NackTx { reason: NackReason, ep: Option<EpId>, uid: u64 },
    /// The driver was asked to make an endpoint resident.
    ResidentRequest,
    /// A message was delivered into a receive queue.
    Delivered { uid: u64 },
    /// An undeliverable message was returned into its sender's queue.
    Returned,
    /// An endpoint load finished.
    Loaded,
    /// An endpoint unload finished.
    Unloaded,
    /// An SBUS DMA transfer `name` of `bytes` starts and completes after
    /// `delay`.
    Dma { name: &'static str, delay: SimDuration, bytes: u32 },
}

impl Nic {
    /// Report one protocol transition to every recorder: the one path
    /// each counted, audited or logged transition takes. Inlined so that
    /// every call site, which passes one literal variant, keeps only that
    /// arm.
    #[inline(always)]
    pub(super) fn probe(&mut self, now: SimTime, p: NicProbe) {
        let (h, stats) = (self.host.0, &mut self.stats);
        let (auditor, log) = (self.auditor.as_ref(), self.tel.as_ref());
        match p {
            NicProbe::Posted { uid } => if_attached(auditor, |a| a.on_posted(now, h, uid)),
            NicProbe::FrameTx => stats.frames_tx.inc(),
            NicProbe::FrameRx => stats.frames_rx.inc(),
            NicProbe::CrcDrop => stats.crc_drops.inc(),
            NicProbe::StaleTimer => if_attached(auditor, |a| a.on_stale_timer(now, h)),
            NicProbe::GamSend => stats.data_sent.inc(),
            NicProbe::GamOverrun => stats.gam_overruns.inc(),
            NicProbe::Bind { chan: ChannelKey { peer, idx }, uid, seq } => {
                stats.data_sent.inc();
                if_attached(auditor, |a| a.on_channel_bind(now, h, peer.0, idx, uid, seq));
                // A parked message is bound again: its park is over.
                if_attached(log, |t| t.close_episode(now, (h, "park", uid)));
            }
            NicProbe::DownRouteSend { chan: ChannelKey { peer, idx }, uid } => {
                if_attached(auditor, |a| a.on_down_route_send(now, h, peer.0, idx, uid));
            }
            NicProbe::Retransmit { chan, uid } => {
                stats.retransmits.inc();
                let ChannelKey { peer, idx } = chan;
                if_attached(auditor, |a| a.on_channel_retransmit(now, h, peer.0, idx, uid));
                // The first retransmit of a binding opens the episode.
                let detail = || format!("uid={uid:#x} peer={} lane={idx}", peer.0);
                if_attached(log, |t| {
                    t.open_episode(now, retx_key(h, chan), TRACK_CHAN, "retx_episode", detail);
                });
            }
            NicProbe::Unbind { chan, uid, retx, cycle } => {
                stats.unbinds.inc();
                if_attached(auditor, |a| a.on_channel_unbind(now, h, chan.peer.0, chan.idx, uid));
                if_attached(log, |t| {
                    t.close_episode(now, retx_key(h, chan));
                    let detail = format!("uid={uid:#x} after {retx} retx (cycle {cycle})");
                    t.instant(now, h, TRACK_FW, "unbind", detail);
                });
            }
            NicProbe::Failover { from, to, uid } => {
                stats.failovers.inc();
                if_attached(auditor, |a| a.on_channel_unbind(now, h, from.peer.0, from.idx, uid));
                if_attached(log, |t| {
                    t.close_episode(now, retx_key(h, from));
                    let detail = format!("uid={uid:#x} chan {} → {}", from.idx, to.idx);
                    t.instant(now, h, TRACK_FW, "failover", detail);
                });
            }
            NicProbe::Acked { chan, uid, rtt_us, nack } => {
                stats.rtt_us.record(f64::from(rtt_us));
                match nack {
                    None => stats.acks_rx.inc(),
                    Some(reason) => stats.record_nack_rx(reason),
                }
                if_attached(auditor, |a| a.on_channel_complete(now, h, chan.peer.0, chan.idx, uid));
                // The channel produced an acknowledgment: any open
                // retransmission episode on it is over.
                if_attached(log, |t| t.close_episode(now, retx_key(h, chan)));
            }
            NicProbe::Recovered { took } => stats.recovery_us.record(took.as_micros_f64()),
            // A message parks only after a `Bind` closed its last park.
            NicProbe::NackBackoff { uid, reason, nacks, delay } => if_attached(log, |t| {
                t.instant(now, h, TRACK_FW, "nack_rx", format!("{reason:?} uid={uid:#x}"));
                let delay = delay.as_micros_f64();
                let detail = || format!("{reason:?} nacks={nacks} delay={delay:.1}us");
                t.open_episode(now, (h, "park", uid), TRACK_CHAN, "nack_backoff", detail);
            }),
            NicProbe::UnbindBackoff { uid, cycle, delay } => if_attached(log, |t| {
                let detail = || format!("cycle {cycle} delay={:.1}us", delay.as_micros_f64());
                t.open_episode(now, (h, "park", uid), TRACK_CHAN, "unbind_backoff", detail);
            }),
            NicProbe::Bounced { uid, ep } => {
                stats.returned_to_sender.inc();
                if_attached(auditor, |a| a.on_bounced(now, h, uid));
                if_attached(log, |t| {
                    t.close_episode(now, (h, "park", uid));
                    t.instant(now, h, TRACK_FW, "bounce", format!("uid={uid:#x} ep={}", ep.0));
                });
            }
            NicProbe::SendAborted { uid, ep, why } => {
                if_attached(auditor, |a| a.on_send_aborted(now, h, uid));
                if_attached(log, |t| {
                    t.close_episode(now, (h, "park", uid));
                    let detail = format!("uid={uid:#x} ep={} {why}", ep.0);
                    t.instant(now, h, TRACK_FW, "send_aborted", detail);
                });
            }
            NicProbe::Resync => stats.resyncs.inc(),
            NicProbe::Duplicate => stats.duplicates.inc(),
            NicProbe::NackTx { reason, ep, uid } => {
                stats.nacks_tx.inc();
                if_attached(log, |t| {
                    let detail = match ep {
                        Some(ep) => format!("{reason:?} ep={} uid={uid:#x}", ep.0),
                        None => format!("{reason:?} uid={uid:#x}"),
                    };
                    t.instant(now, h, TRACK_FW, "nack_tx", detail);
                });
            }
            NicProbe::ResidentRequest => stats.resident_requests.inc(),
            NicProbe::Delivered { uid } => {
                stats.deposits.inc();
                if_attached(auditor, |a| a.on_delivered(now, h, uid));
            }
            NicProbe::Returned => stats.deposits.inc(),
            NicProbe::Loaded => stats.loads.inc(),
            NicProbe::Unloaded => stats.unloads.inc(),
            // The one per-message span, so its detail is the
            // allocation-free byte count.
            NicProbe::Dma { name, delay, bytes } => if_attached(log, |t| {
                let id = t.span_begin(now, h, TRACK_DMA, name, SpanDetail::Bytes(bytes));
                t.span_end(now + delay, id);
            }),
        }
    }
}
