//! Bounded event tracing for debugging composed simulations.
//!
//! A [`TraceRing`] is a fixed-capacity ring of `(time, host, tag, detail)`
//! entries. Recording is a no-op while disabled, so instrumented
//! components can trace unconditionally; enabling it on a failing seed
//! gives a causal log of the interesting transitions (endpoint loads,
//! NACK storms, thread wakeups) without drowning in per-packet noise.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One trace record.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// Host index (`u32::MAX` for cluster-wide events).
    pub host: u32,
    /// Static category tag (e.g. `"ep.load"`, `"thread.wake"`).
    pub tag: &'static str,
    /// Free-form detail.
    pub detail: String,
}

/// Fixed-capacity ring of trace entries.
#[derive(Debug)]
pub struct TraceRing {
    entries: VecDeque<TraceEntry>,
    cap: usize,
    enabled: bool,
    dropped: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(4096)
    }
}

impl TraceRing {
    /// A disabled ring with the given capacity.
    pub fn new(cap: usize) -> Self {
        TraceRing { entries: VecDeque::new(), cap: cap.max(1), enabled: false, dropped: 0 }
    }

    /// Start recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stop recording (entries are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an entry (no-op while disabled). `detail` is only evaluated
    /// by the caller; prefer `record_with` for costly formatting.
    pub fn record(&mut self, at: SimTime, host: u32, tag: &'static str, detail: String) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry { at, host, tag, detail });
    }

    /// Record with lazily-built detail: the closure runs only when the
    /// ring is enabled.
    pub fn record_with(
        &mut self,
        at: SimTime,
        host: u32,
        tag: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.record(at, host, tag, detail());
        }
    }

    /// Entries currently held, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Entries with a given tag.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.tag == tag)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render as text, one entry per line.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        if self.dropped > 0 {
            let _ = writeln!(s, "... {} earlier entries dropped ...", self.dropped);
        }
        for e in &self.entries {
            let _ = writeln!(s, "{:>14}  h{:<3} {:<16} {}", e.at.to_string(), e.host, e.tag, e.detail);
        }
        s
    }

    /// Forget everything (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }

    /// Fold per-shard rings into one cluster-wide view: entries in the
    /// canonical `(time, host)` order (stable, so each host's
    /// chronological sub-order survives), the oldest evicted down to
    /// capacity, and drop counts summed. Each host records into exactly
    /// one ring, so the fold reads identically under any shard count as
    /// long as no ring overflowed.
    pub fn merged<'a>(rings: impl IntoIterator<Item = &'a TraceRing>) -> TraceRing {
        let mut out: Option<TraceRing> = None;
        for r in rings {
            let o = out.get_or_insert_with(|| TraceRing::new(r.cap));
            o.enabled |= r.enabled;
            o.dropped += r.dropped;
            o.entries.extend(r.entries.iter().cloned());
        }
        let mut out = out.unwrap_or_default();
        out.canonicalize();
        out
    }

    /// Impose the canonical `(time, host)` order (stable) and evict down
    /// to capacity.
    fn canonicalize(&mut self) {
        self.entries.make_contiguous().sort_by_key(|e| (e.at, e.host));
        while self.entries.len() > self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::new(8);
        r.record(t(1), 0, "x", "y".into());
        assert!(r.is_empty());
        let mut ran = false;
        r.record_with(t(1), 0, "x", || {
            ran = true;
            "y".into()
        });
        assert!(!ran, "detail closure must not run while disabled");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = TraceRing::new(3);
        r.enable();
        for i in 0..5u64 {
            r.record(t(i), 0, "e", i.to_string());
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let first = r.entries().next().unwrap();
        assert_eq!(first.detail, "2");
    }

    #[test]
    fn tag_filter_and_text() {
        let mut r = TraceRing::new(16);
        r.enable();
        r.record(t(1), 0, "ep.load", "ep0".into());
        r.record(t(2), 1, "thread.wake", "t3".into());
        r.record(t(3), 0, "ep.load", "ep1".into());
        assert_eq!(r.with_tag("ep.load").count(), 2);
        let text = r.to_text();
        assert!(text.contains("ep.load"));
        assert!(text.contains("thread.wake"));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn merged_rings_read_in_canonical_order_and_count_drops() {
        let mut a = TraceRing::new(3);
        let mut b = TraceRing::new(3);
        a.enable();
        b.enable();
        for i in 0..4u64 {
            a.record(t(2 * i), 0, "e", format!("a{i}")); // a0 falls out of a
        }
        b.record(t(1), 1, "e", "b0".into());
        b.record(t(4), 1, "e", "b1".into());
        let m = TraceRing::merged([&a, &b]);
        let order: Vec<&str> = m.entries().map(|e| e.detail.as_str()).collect();
        // Five survivors, time-sorted (ties by host), evicted down to 3.
        assert_eq!(order, vec!["a2", "b1", "a3"]);
        assert_eq!(m.dropped(), 1 + 2);
        assert!(m.is_enabled());
    }
}
