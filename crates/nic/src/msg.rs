//! Message and frame types crossing the user/NIC, NIC/NIC, and NIC/driver
//! boundaries.

use crate::endpoint::EndpointImage;
use crate::ids::{EpId, GlobalEp, ProtectionKey};
use std::sync::Arc;
use vnet_sim::SimTime;

/// An Active Message as the user level sees it: a split-phase remote
/// procedure call (§3). Payload bytes are modeled by size only; `args`
/// carries the handler's word arguments (enough for every workload in the
/// paper's evaluation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserMsg {
    /// Host-unique message id, assigned by the sending NIC. End-to-end
    /// duplicate suppression keys on `(src.host, uid)`.
    pub uid: u64,
    /// Request (consumes a credit, expects a reply) vs reply.
    pub is_request: bool,
    /// Handler index at the destination endpoint.
    pub handler: u16,
    /// Word arguments delivered to the handler.
    pub args: [u64; 4],
    /// Bulk payload size in bytes (0 for short messages). Bulk payloads are
    /// staged through NI memory by DMA on both sides.
    pub payload_bytes: u32,
    /// Originating endpoint; replies are addressed here.
    pub src_ep: GlobalEp,
    /// Key granting reply access to `src_ep`.
    pub reply_key: ProtectionKey,
    /// Correlation id: replies carry the uid of the request they answer
    /// (0 for requests). The user-level library uses it to recover credits.
    pub corr: u64,
}

/// Wire size of a message descriptor (handler, argument words,
/// addressing): what every data frame carries ahead of its payload.
pub const DESCRIPTOR_BYTES: u32 = 48;

impl UserMsg {
    /// Wire size of the message body: descriptor words + bulk payload.
    pub fn wire_bytes(&self) -> u32 {
        DESCRIPTOR_BYTES + self.payload_bytes
    }

    /// Whether the payload must be staged by DMA (anything beyond what the
    /// host writes into the frame with programmed I/O).
    pub fn is_bulk(&self, pio_threshold: u32) -> bool {
        self.payload_bytes > pio_threshold
    }
}

/// Why a receiving NI refused a message (§5.1: "negative acknowledgments
/// encode why messages could not be delivered").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NackReason {
    /// Destination endpoint exists but is not resident; the receiver asks
    /// its driver to make it resident and the sender retries later.
    NotResident,
    /// Destination endpoint's receive queue is full; retry later.
    RecvQueueFull,
    /// Protection key mismatch; the message returns to its sender.
    BadKey,
    /// No endpoint with that index exists; the message returns to sender.
    NoSuchEndpoint,
}

impl NackReason {
    /// NACKs that are transient: the sender should retry rather than return
    /// the message to the application.
    pub fn is_transient(self) -> bool {
        matches!(self, NackReason::NotResident | NackReason::RecvQueueFull)
    }
}

/// Frame kinds on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// User data (a [`UserMsg`]). Reference-counted so retransmission,
    /// deposit, and staged-DMA paths clone a pointer, not the body. The
    /// count is atomic (`Arc`) and the body is frozen at injection — no
    /// interior mutability — so a wire frame crossing a shard boundary in
    /// the parallel executor moves a pointer, never a copy of the bytes.
    Data(Arc<UserMsg>),
    /// Positive acknowledgment: the message was deposited.
    Ack,
    /// Negative acknowledgment with reason.
    Nack(NackReason),
    /// Several positive acknowledgments coalesced into one frame — the
    /// paper's §8 "piggybacking acknowledgments to reduce network
    /// occupancy", available behind [`NicConfig::ack_coalesce`].
    ///
    /// [`NicConfig::ack_coalesce`]: crate::config::NicConfig::ack_coalesce
    AckBatch(Vec<AckEntry>),
    /// Abstract-fidelity traffic: a frame that stands for a message of
    /// `payload_bytes` (its wire size is [`DESCRIPTOR_BYTES`] more) with
    /// no [`UserMsg`] body behind it. Only abstract NICs send or accept
    /// it; a full [`crate::Nic`] that receives one panics.
    Abs {
        /// For an open-loop request, the arrival instant (ns) at the
        /// source, where its latency clock starts; 0 otherwise.
        stamp_ns: u64,
        /// Payload bytes the frame stands for.
        payload_bytes: u32,
        /// An open-loop request, whose latency the receiver records.
        request: bool,
    },
}

/// One acknowledgment within an [`FrameKind::AckBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckEntry {
    /// Logical channel of the acknowledged data frame.
    pub chan: u8,
    /// Its sequence number.
    pub seq: u64,
    /// Its uid.
    pub uid: u64,
    /// Reflected sender timestamp.
    pub timestamp: u32,
}

/// The NIC-to-NIC wire frame (the fabric's packet payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What this frame is.
    pub kind: FrameKind,
    /// Destination endpoint index on the receiving host (for data frames).
    pub dst_ep: EpId,
    /// Protection key stamped by the sending NI (§3.1).
    pub key: ProtectionKey,
    /// Logical channel index within the host pair.
    pub chan: u8,
    /// Stop-and-wait sequence number on that channel.
    pub seq: u64,
    /// For acks/nacks: the uid of the data frame being acknowledged.
    pub ack_uid: u64,
    /// 32-bit timestamp stamped by the sender and reflected by the receiver
    /// (§5.1); units of microseconds, wrapping.
    pub timestamp: u32,
}

/// A message as handed to the user on poll, plus delivery metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveredMsg {
    /// The message (shared with the wire frame that carried it — the
    /// deposit clones a reference, never the body, even when the frame
    /// crossed a shard boundary).
    pub msg: Arc<UserMsg>,
    /// True when this is the sender's own message coming back — the
    /// "return to sender" error model of §3.2. The undeliverable handler
    /// runs instead of the addressed handler.
    pub undeliverable: bool,
    /// When the NIC deposited it into the endpoint queue.
    pub deposited_at: SimTime,
}

/// Which receive queue to poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueSel {
    /// Request receive queue (32 deep).
    Request,
    /// Reply receive queue (32 deep); undeliverable returns land here too.
    Reply,
}

/// A send posted by the host into a resident endpoint.
#[derive(Clone, Debug)]
pub struct SendRequest {
    /// Destination endpoint.
    pub dst: GlobalEp,
    /// Key from the sender's translation table for that destination.
    pub key: ProtectionKey,
    /// The message (uid field is assigned by the NIC).
    pub msg: UserMsg,
}

/// Why a host-side post failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostError {
    /// The endpoint is not resident — the caller must take the write-fault
    /// path through the OS (§4.2).
    NotResident,
    /// The endpoint's 64-entry send queue is full; the caller must back off.
    SendQueueFull,
}

/// Result of polling a receive queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// A message was dequeued.
    Msg(DeliveredMsg),
    /// Queue empty.
    Empty,
    /// The endpoint is not resident; its queues live in the host image and
    /// must be polled through the OS instead.
    NotResident,
}

/// Requests from the endpoint segment driver to the NIC (§4.3). Each carries
/// the driver's Lamport clock so the two agents can order concurrent
/// operations.
#[derive(Clone, Debug)]
pub enum DriverOp {
    /// Bind `ep` to a free frame, installing its host image (message queues
    /// and state travel with it). The NIC answers [`DriverMsg::Loaded`].
    Load {
        /// Endpoint to make resident.
        ep: EpId,
        /// The endpoint's state, previously held in host memory.
        image: Box<EndpointImage>,
        /// Driver Lamport clock at issue time.
        clock: u64,
    },
    /// Unbind `ep` from its frame. The NIC quiesces in-flight messages
    /// first (§5.3) and answers [`DriverMsg::Unloaded`] with the image.
    Unload {
        /// Endpoint to evict.
        ep: EpId,
        /// Driver Lamport clock at issue time.
        clock: u64,
    },
    /// Update the event mask of a resident endpoint.
    SetMask {
        /// Target endpoint.
        ep: EpId,
        /// Whether message arrival should raise [`DriverMsg::Event`].
        notify_on_arrival: bool,
        /// Driver Lamport clock at issue time.
        clock: u64,
    },
    /// Tell the NIC that endpoint `ep` exists on this host (it may be
    /// non-resident). Arrivals for unregistered endpoints draw
    /// [`NackReason::NoSuchEndpoint`]; for registered but non-resident ones,
    /// [`NackReason::NotResident`] plus a [`DriverMsg::NeedResident`].
    Register {
        /// The new endpoint.
        ep: EpId,
        /// Driver Lamport clock at issue time.
        clock: u64,
    },
    /// Endpoint `ep` has been freed (process exit, §4.2); forget it.
    Unregister {
        /// The departing endpoint.
        ep: EpId,
        /// Driver Lamport clock at issue time.
        clock: u64,
    },
}

/// Messages from the NIC to the endpoint segment driver (§4.3).
#[derive(Clone, Debug)]
pub enum DriverMsg {
    /// `ep` is now resident and serviceable.
    Loaded {
        /// The endpoint.
        ep: EpId,
        /// NIC Lamport clock.
        clock: u64,
    },
    /// `ep` has been quiesced and unloaded; `image` holds its state.
    Unloaded {
        /// The endpoint.
        ep: EpId,
        /// State to park in host memory.
        image: Box<EndpointImage>,
        /// NIC Lamport clock.
        clock: u64,
    },
    /// A message arrived for a non-resident endpoint (the NIC NACKed it);
    /// please make `ep` resident (§4.2 "activation of a non-resident
    /// endpoint in response to message arrival").
    NeedResident {
        /// The endpoint that needs a frame.
        ep: EpId,
        /// NIC Lamport clock.
        clock: u64,
    },
    /// An endpoint state transition matching its event mask occurred
    /// (message arrival into an empty queue); wake waiting threads.
    Event {
        /// The endpoint.
        ep: EpId,
        /// NIC Lamport clock.
        clock: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_net::HostId;

    fn msg(bytes: u32) -> UserMsg {
        UserMsg {
            uid: 0,
            is_request: true,
            handler: 1,
            args: [0; 4],
            payload_bytes: bytes,
            src_ep: GlobalEp::new(HostId(0), EpId(0)),
            reply_key: ProtectionKey::OPEN,
            corr: 0,
        }
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        assert_eq!(msg(0).wire_bytes(), 48);
        assert_eq!(msg(8192).wire_bytes(), 8240);
    }

    #[test]
    fn bulk_threshold() {
        assert!(!msg(16).is_bulk(64));
        assert!(!msg(64).is_bulk(64));
        assert!(msg(65).is_bulk(64));
    }

    #[test]
    fn nack_transience() {
        assert!(NackReason::NotResident.is_transient());
        assert!(NackReason::RecvQueueFull.is_transient());
        assert!(!NackReason::BadKey.is_transient());
        assert!(!NackReason::NoSuchEndpoint.is_transient());
    }
}
