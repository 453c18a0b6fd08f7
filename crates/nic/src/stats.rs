//! NIC instrumentation counters, used by the evaluation harness to report
//! the §6.4.1 diagnostics (NACK/retransmission rates, remap traffic,
//! observed round-trip times from reflected timestamps).
//!
//! `NicStats` is enumerated generically through
//! [`vnet_sim::telemetry::MetricSet`]: read a named counter with
//! [`MetricSet::counter_value`] and walk everything with
//! [`MetricSet::visit_metrics`]. Only samplers whose individual samples
//! matter (`rtt_us`, `recovery_us`) keep first-class accessors.

use crate::msg::NackReason;
use vnet_sim::stats::{Counter, Sampler};
use vnet_sim::telemetry::{MetricSet, MetricValue, MetricVisitor, Summary};

/// Per-NIC counters and samplers.
///
/// Iterate the metrics via [`MetricSet::visit_metrics`] (short names
/// match the accessor names below, e.g. `retransmits`), or look one up
/// with [`MetricSet::counter_value`].
#[derive(Clone, Debug, Default)]
pub struct NicStats {
    /// Data frames injected (first transmissions).
    pub(crate) data_sent: Counter,
    /// Data frames retransmitted.
    pub(crate) retransmits: Counter,
    /// Messages unbound from channels after the consecutive-retransmission
    /// bound.
    pub(crate) unbinds: Counter,
    /// Messages returned to their sender as undeliverable.
    pub(crate) returned_to_sender: Counter,
    /// Data frames received and deposited.
    pub(crate) deposits: Counter,
    /// Duplicate data frames suppressed.
    pub(crate) duplicates: Counter,
    /// Positive acks received.
    pub(crate) acks_rx: Counter,
    /// NACKs received: destination endpoint not resident.
    pub(crate) nacks_rx_not_resident: Counter,
    /// NACKs received: receive queue full.
    pub(crate) nacks_rx_queue_full: Counter,
    /// NACKs received: bad key.
    pub(crate) nacks_rx_bad_key: Counter,
    /// NACKs received: no such endpoint.
    pub(crate) nacks_rx_no_endpoint: Counter,
    /// NACKs generated locally, by any reason.
    pub(crate) nacks_tx: Counter,
    /// Corrupted frames discarded on CRC check.
    pub(crate) crc_drops: Counter,
    /// Endpoint loads completed.
    pub(crate) loads: Counter,
    /// Endpoint unloads completed.
    pub(crate) unloads: Counter,
    /// NeedResident requests raised to the driver.
    pub(crate) resident_requests: Counter,
    /// GAM mode only: frames dropped because the receive queue overran
    /// (no transport protocol to NACK them).
    pub(crate) gam_overruns: Counter,
    /// Round-trip times observed via reflected timestamps, µs.
    pub(crate) rtt_us: Sampler,
    /// Route failovers: bound messages moved to an alternate channel
    /// around a scheduled-down link.
    pub(crate) failovers: Counter,
    /// Receive-side sequence resynchronizations (sender epoch advanced
    /// past the expected sequence — unbind churn or failover rebinds).
    pub(crate) resyncs: Counter,
    /// Time from a message's first retransmission-timer expiry to its
    /// acknowledgment, µs — the time-to-recovery distribution.
    pub(crate) recovery_us: Sampler,
    /// Frames injected into the fabric (data, acks, everything).
    pub(crate) frames_tx: Counter,
    /// Frames handed up from the fabric (before the CRC check).
    pub(crate) frames_rx: Counter,
}

impl NicStats {
    /// Record an incoming NACK by reason.
    pub fn record_nack_rx(&mut self, r: NackReason) {
        match r {
            NackReason::NotResident => self.nacks_rx_not_resident.inc(),
            NackReason::RecvQueueFull => self.nacks_rx_queue_full.inc(),
            NackReason::BadKey => self.nacks_rx_bad_key.inc(),
            NackReason::NoSuchEndpoint => self.nacks_rx_no_endpoint.inc(),
        }
    }

    /// Total incoming NACKs.
    pub fn nacks_rx_total(&self) -> u64 {
        self.nacks_rx_not_resident.get()
            + self.nacks_rx_queue_full.get()
            + self.nacks_rx_bad_key.get()
            + self.nacks_rx_no_endpoint.get()
    }

    /// The raw round-trip-time sampler (µs). Kept as a first-class
    /// accessor because distribution analysis (quantiles, the §6.4.1
    /// bimodal split) needs the individual samples, which a
    /// [`Summary`] cannot reconstruct.
    pub fn rtt_us(&self) -> Sampler {
        self.rtt_us.clone()
    }

    /// The raw time-to-recovery sampler (µs): first retransmission-timer
    /// expiry to acknowledgment, per recovered message. Kept first-class
    /// for the same reason as [`NicStats::rtt_us`] — campaign reports
    /// want quantiles of the individual samples.
    pub fn recovery_us(&self) -> Sampler {
        self.recovery_us.clone()
    }
}

impl MetricSet for NicStats {
    fn visit_metrics(&self, v: &mut dyn MetricVisitor) {
        v.metric("data_sent", MetricValue::Counter(self.data_sent.get()));
        v.metric("retransmits", MetricValue::Counter(self.retransmits.get()));
        v.metric("unbinds", MetricValue::Counter(self.unbinds.get()));
        v.metric("returned_to_sender", MetricValue::Counter(self.returned_to_sender.get()));
        v.metric("deposits", MetricValue::Counter(self.deposits.get()));
        v.metric("duplicates", MetricValue::Counter(self.duplicates.get()));
        v.metric("acks_rx", MetricValue::Counter(self.acks_rx.get()));
        v.metric("nacks_rx_not_resident", MetricValue::Counter(self.nacks_rx_not_resident.get()));
        v.metric("nacks_rx_queue_full", MetricValue::Counter(self.nacks_rx_queue_full.get()));
        v.metric("nacks_rx_bad_key", MetricValue::Counter(self.nacks_rx_bad_key.get()));
        v.metric("nacks_rx_no_endpoint", MetricValue::Counter(self.nacks_rx_no_endpoint.get()));
        v.metric("nacks_rx", MetricValue::Counter(self.nacks_rx_total()));
        v.metric("nacks_tx", MetricValue::Counter(self.nacks_tx.get()));
        v.metric("crc_drops", MetricValue::Counter(self.crc_drops.get()));
        v.metric("loads", MetricValue::Counter(self.loads.get()));
        v.metric("unloads", MetricValue::Counter(self.unloads.get()));
        v.metric("resident_requests", MetricValue::Counter(self.resident_requests.get()));
        v.metric("gam_overruns", MetricValue::Counter(self.gam_overruns.get()));
        v.metric("rtt_us", MetricValue::Summary(Summary::from_sampler(&self.rtt_us)));
        v.metric("failovers", MetricValue::Counter(self.failovers.get()));
        v.metric("resyncs", MetricValue::Counter(self.resyncs.get()));
        v.metric("recovery_us", MetricValue::Summary(Summary::from_sampler(&self.recovery_us)));
        v.metric("frames_tx", MetricValue::Counter(self.frames_tx.get()));
        v.metric("frames_rx", MetricValue::Counter(self.frames_rx.get()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nack_breakdown_sums() {
        let mut s = NicStats::default();
        s.record_nack_rx(NackReason::NotResident);
        s.record_nack_rx(NackReason::NotResident);
        s.record_nack_rx(NackReason::RecvQueueFull);
        s.record_nack_rx(NackReason::BadKey);
        s.record_nack_rx(NackReason::NoSuchEndpoint);
        assert_eq!(s.counter_value("nacks_rx_not_resident"), 2);
        assert_eq!(s.nacks_rx_total(), 5);
        assert_eq!(s.counter_value("nacks_rx"), 5, "aggregate is enumerated too");
    }

    #[test]
    fn metric_set_enumerates_all_counters() {
        let mut s = NicStats::default();
        s.data_sent.add(3);
        s.rtt_us.record(61.0);
        let mut names = Vec::new();
        struct V<'a>(&'a mut Vec<String>);
        impl MetricVisitor for V<'_> {
            fn metric(&mut self, n: &str, _: MetricValue) {
                self.0.push(n.to_string());
            }
        }
        s.visit_metrics(&mut V(&mut names));
        assert!(names.len() >= 19);
        assert!(names.contains(&"retransmits".to_string()));
        assert_eq!(s.counter_value("data_sent"), 3);
        assert_eq!(s.summary_value("rtt_us").count, 1);
    }

    #[test]
    fn counter_value_is_the_per_counter_read_path() {
        // The per-counter `#[deprecated]` forwarders are gone; named reads
        // go through `MetricSet::counter_value` only.
        let mut s = NicStats::default();
        s.retransmits.inc();
        assert_eq!(s.counter_value("retransmits"), 1);
        assert_eq!(s.counter_value("data_sent"), 0);
    }
}
