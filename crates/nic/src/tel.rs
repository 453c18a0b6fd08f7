//! Pre-resolved telemetry wiring for one NIC.
//!
//! The firmware holds an `Option<NicTelemetry>`; when detached (the
//! default) every hook is a `None` check and the hot path pays nothing —
//! the same gating discipline as the invariant auditor. When attached,
//! counters are pre-resolved [`CounterHandle`]s (one `Cell` bump per
//! event, no registry lookup, no `RefCell` borrow) and protocol episodes
//! become spans on per-layer Perfetto tracks:
//!
//! * `nic.chan` — retransmission episodes (first retransmit → ack or
//!   unbind) and park/backoff episodes (transient NACK or post-unbind
//!   wait → rebind or bounce), both async spans keyed so overlapping
//!   episodes render on one track.
//! * `nic.dma` — SBUS DMA transfers (send staging, receive staging,
//!   endpoint load/unload). The engine is serial and deterministic, so
//!   the completion time is known at start and the whole span is
//!   recorded immediately.
//! * `nic.fw` — instantaneous markers: NACKs sent/received (with
//!   reason), unbinds, bounced messages.

use crate::channel::ChannelKey;
use std::collections::HashMap;
use vnet_sim::telemetry::{CounterHandle, SpanDetail, SpanId, TelemetryHandle};
use vnet_sim::SimTime;

/// Perfetto track for channel retransmit/backoff episodes.
pub const TRACK_CHAN: &str = "nic.chan";
/// Perfetto track for SBUS DMA transfers.
pub const TRACK_DMA: &str = "nic.dma";
/// Perfetto track for instantaneous firmware markers.
pub const TRACK_FW: &str = "nic.fw";

/// Pre-resolved per-NIC counter handles, materialized on first touch.
pub(crate) struct NicCounters {
    /// Frames injected into the fabric (data, acks, everything).
    pub(crate) frames_tx: CounterHandle,
    /// Frames handed up from the fabric (before CRC check).
    pub(crate) frames_rx: CounterHandle,
    /// Bytes moved by the SBUS DMA engine.
    pub(crate) dma_bytes: CounterHandle,
}

impl NicCounters {
    fn resolve(host: u32, tel: &TelemetryHandle) -> Self {
        let mut t = tel.borrow_mut();
        NicCounters {
            frames_tx: t.counter(&format!("host{host}.nic.frames_tx")),
            frames_rx: t.counter(&format!("host{host}.nic.frames_rx")),
            dma_bytes: t.counter(&format!("host{host}.nic.dma_bytes")),
        }
    }
}

/// Telemetry state owned by one NIC (see module docs).
pub(crate) struct NicTelemetry {
    tel: TelemetryHandle,
    host: u32,
    /// Counter handles, registered lazily: a fleet-scale cluster attaches
    /// telemetry to thousands of hosts, most of which never move a frame,
    /// and eager registration would allocate three `host{N}.*` name
    /// strings per host at build time. `None` until the first counter
    /// bump.
    counters: Option<NicCounters>,
    /// Open retransmission-episode span per channel; begun at the first
    /// retransmit of a binding, ended on completion or unbind.
    retx_spans: HashMap<ChannelKey, SpanId>,
    /// Open park/backoff span per message uid (transient-NACK backoff or
    /// post-unbind wait), ended when the message rebinds or bounces.
    park_spans: HashMap<u64, SpanId>,
}

impl NicTelemetry {
    pub(crate) fn new(host: u32, tel: TelemetryHandle) -> Self {
        NicTelemetry {
            tel,
            host,
            counters: None,
            retx_spans: HashMap::new(),
            park_spans: HashMap::new(),
        }
    }

    /// The counter handles, registering them on first touch.
    pub(crate) fn counters(&mut self) -> &NicCounters {
        if self.counters.is_none() {
            self.counters = Some(NicCounters::resolve(self.host, &self.tel));
        }
        self.counters.as_ref().expect("just resolved")
    }

    /// Record a whole DMA transfer span (`at` → `done`). This is the one
    /// per-message span hook, so the detail is the allocation-free
    /// [`SpanDetail::Bytes`], not a formatted string.
    pub(crate) fn dma_span(&mut self, at: SimTime, done: SimTime, name: &'static str, bytes: u32) {
        self.counters().dma_bytes.add(bytes as u64);
        let mut t = self.tel.borrow_mut();
        let id = t.span_begin(at, self.host, TRACK_DMA, name, SpanDetail::Bytes(bytes));
        t.span_end(done, id);
    }

    /// A channel entered a retransmission episode (idempotent per binding).
    pub(crate) fn retx_begin(&mut self, at: SimTime, key: ChannelKey, uid: u64) {
        if !self.retx_spans.contains_key(&key) {
            let id = self.tel.borrow_mut().span_begin(
                at,
                self.host,
                TRACK_CHAN,
                "retx_episode",
                format!("uid={uid:#x} peer={} lane={}", key.peer.0, key.idx),
            );
            self.retx_spans.insert(key, id);
        }
    }

    /// Close the channel's retransmission episode, if one is open.
    pub(crate) fn retx_end(&mut self, at: SimTime, key: &ChannelKey) {
        if let Some(id) = self.retx_spans.remove(key) {
            self.tel.borrow_mut().span_end(at, id);
        }
    }

    /// A message was parked (NACK backoff or post-unbind wait).
    pub(crate) fn park_begin(&mut self, at: SimTime, uid: u64, name: &'static str, detail: String) {
        let id = self.tel.borrow_mut().span_begin(at, self.host, TRACK_CHAN, name, detail);
        if let Some(stale) = self.park_spans.insert(uid, id) {
            // A uid can only be parked once; close a stale span defensively.
            self.tel.borrow_mut().span_end(at, stale);
        }
    }

    /// The parked message rebound to a channel or bounced.
    pub(crate) fn park_end(&mut self, at: SimTime, uid: u64) {
        if let Some(id) = self.park_spans.remove(&uid) {
            self.tel.borrow_mut().span_end(at, id);
        }
    }

    /// Instantaneous firmware marker on the `nic.fw` track.
    pub(crate) fn instant(&mut self, at: SimTime, name: &'static str, detail: String) {
        self.tel.borrow_mut().instant(at, self.host, TRACK_FW, name, detail);
    }
}
