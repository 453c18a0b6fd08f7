//! LANai-style intelligent network interface model.
//!
//! Implements §5 of the paper — the NI side of network virtualization:
//!
//! * **Endpoint frames** (§4.1): 8 (LANai 4.3) or 96 (newer hardware)
//!   on-board frames; resident endpoints live in NI SRAM with their send and
//!   receive queues, giving the firmware single-cycle access and the host
//!   fine-grained PIO access.
//! * **Transport** (§5.1): lightweight stop-and-wait flow control over
//!   multiple logical channels per host pair, positive acknowledgments with
//!   reflected 32-bit timestamps, negative acknowledgments encoding why a
//!   message could not be delivered, randomized exponential backoff for
//!   retransmission, channel unbinding after a bounded number of consecutive
//!   retransmissions, and self-resynchronizing sequence state.
//! * **Service & queueing discipline** (§5.2): weighted round-robin across
//!   resident endpoints, loitering on a busy endpoint for at most 64
//!   messages / 4 ms; FCFS descriptor processing within an endpoint.
//! * **Driver operations** (§5.3): endpoint load/unload interleaved with
//!   user traffic, with *quiescence* — an endpoint with unacknowledged
//!   messages in flight keeps retransmitting until every copy is accounted
//!   for before the driver may reuse its frame.
//!
//! The firmware is modeled as a single serial processor (the 37.5 MHz LANai
//! CPU) whose per-operation costs come from [`NicConfig`]; all timing
//! behaviour (gap, gap inflation under virtualization, NACK storms under
//! overload) *emerges* from those costs plus the protocol state machines.
//!
//! The crate is deliberately OS-free: everything the NIC needs from the host
//! arrives as [`DriverOp`]s and everything it tells the host leaves as
//! [`DriverMsg`]s, mirroring the paper's peer-agent protocol over the
//! permanently resident system endpoint.

#![warn(missing_docs)]

pub mod channel;
pub mod config;
pub mod dma;
pub mod endpoint;
pub mod ids;
pub mod msg;
pub mod nic;
pub mod sched;
pub mod stats;
pub mod tel;
pub mod testkit;

pub use channel::{ChannelKey, ChannelState};
pub use config::{FwCosts, NicConfig, NicMode};
pub use dma::{DmaDirection, DmaEngine};
pub use endpoint::{EndpointImage, PendingSend};
pub use ids::{EpId, GlobalEp, ProtectionKey};
pub use msg::{
    DeliveredMsg, DriverMsg, DriverOp, Frame, FrameKind, NackReason, PollOutcome, PostError,
    QueueSel, SendRequest, UserMsg, DESCRIPTOR_BYTES,
};
pub use nic::{Nic, NicEvent, NicOut};
pub use stats::NicStats;
