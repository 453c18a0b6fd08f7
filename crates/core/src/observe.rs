//! The unified cluster observability handle.
//!
//! One entry point — [`crate::cluster::Cluster::telemetry`] — replaces
//! the former grab-bag of `enable_trace` / `trace_text` /
//! `set_debug_audit` and per-component stats spelunking:
//!
//! ```text
//! let tel = cluster.telemetry();
//! let before = tel.snapshot();              // flat metrics snapshot
//! /* ... run ... */
//! let tel = cluster.telemetry();
//! let delta = tel.delta_since(&before);     // counters subtracted
//! println!("{}", delta.to_table());
//! std::fs::write("trace.json", tel.export_perfetto())?;  // ui.perfetto.dev
//! tel.audit()?;                             // invariant check
//! ```
//!
//! Metric names are `host3.nic.retransmits`-style dotted paths: a host
//! scope (`host{N}`), a layer (`nic`, `os`), and the metric's short name
//! as enumerated by its [`MetricSet`]. Cluster-wide sets use a bare layer
//! prefix (`net.packets`, `trace.dropped_events`, `engine.*`).

use crate::cluster::Cluster;
use crate::world::World;
use vnet_sim::telemetry::{MetricValue, MetricsSnapshot, Telemetry};

/// Borrowed observability facade over a [`Cluster`] (see module docs).
///
/// Cheap to construct; holds no state of its own. Every read folds the
/// per-shard state on demand, and all mutation goes through
/// interior-mutable handles (the trace rings, the debug-audit flag), so a
/// shared borrow suffices.
pub struct ClusterTelemetry<'a> {
    c: &'a Cluster,
}

impl<'a> ClusterTelemetry<'a> {
    pub(crate) fn new(c: &'a Cluster) -> Self {
        ClusterTelemetry { c }
    }

    /// Whether span/handle telemetry hooks are attached
    /// ([`crate::config::ClusterConfig::telemetry`]). Snapshots work
    /// either way — component stats are always counted; only the
    /// registry metrics and the Perfetto span log need the hooks.
    pub fn enabled(&self) -> bool {
        self.c.worlds().any(|w| w.telemetry.is_some())
    }

    /// Flat snapshot of every metric in the cluster at the current
    /// simulated time: per-host stats — `host{N}.nic.*` / `host{N}.os.*`
    /// for full-fidelity hosts, coarse `host{N}.abs.*` counters for
    /// abstract ones — fabric aggregates (`net.*`), engine progress
    /// (`engine.*`), trace-ring drop accounting (`trace.*`), and — when
    /// telemetry hooks are attached — every registry metric and the
    /// span-log drop counter (`telemetry.dropped_spans`). Per-shard state
    /// is folded: host metrics in host order, fabric counters summed.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let c = self.c;
        let mut s = MetricsSnapshot::new(c.now());
        for w in c.worlds() {
            for h in w.host_ids() {
                w.slot(h).record_metrics(h, &mut s);
            }
        }
        record_net(&mut s, c.worlds());
        if let Some(ctl) = c.control() {
            s.record_set("ctl", ctl);
            s.record("ctl.quota_denials", MetricValue::Counter(c.quota_denials()));
        }
        s.record("engine.events_processed", MetricValue::Counter(c.events_processed()));
        s.record("engine.sim_time_us", MetricValue::Gauge(c.now().as_micros_f64()));
        s.record("trace.dropped_events", MetricValue::Counter(c.trace().dropped()));
        if self.enabled() {
            let mut dropped = 0;
            for tel in c.worlds().filter_map(|w| w.telemetry.as_ref()) {
                let t = tel.borrow();
                s.record_set("", &*t);
                dropped += t.dropped_spans();
            }
            s.record("telemetry.dropped_spans", MetricValue::Counter(dropped));
        }
        s
    }

    /// Snapshot, minus `earlier`: counters are subtracted (saturating),
    /// gauges and summaries take their later value. The canonical way to
    /// report "what happened during this phase".
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        self.snapshot().delta_since(earlier)
    }

    /// Every shard registry's span events folded into one (see
    /// [`Telemetry::fold_spans`]); `None` when hooks are detached.
    fn spans(&self) -> Option<Telemetry> {
        if !self.enabled() {
            return None;
        }
        let regs: Vec<_> =
            self.c.worlds().filter_map(|w| w.telemetry.as_ref()).map(|t| t.borrow()).collect();
        Some(Telemetry::fold_spans(regs.iter().map(|t| &**t)))
    }

    /// The span log as plain text in the canonical `(time, host)` order —
    /// a byte-comparable form for differential tests (see
    /// [`Telemetry::span_log`]). Empty when telemetry hooks are detached.
    pub fn span_log(&self) -> String {
        self.spans().map(|t| t.span_log()).unwrap_or_default()
    }

    /// Export the span log as Chrome trace-event / Perfetto JSON; load
    /// at <https://ui.perfetto.dev>. Each host is a process, each layer
    /// track (`nic.chan`, `nic.dma`, `nic.fw`, `os.seg`) a thread;
    /// retransmit/backoff/residency episodes are async spans, NACKs and
    /// faults are instants. An empty (but loadable) trace when telemetry
    /// hooks are detached.
    pub fn export_perfetto(&self) -> String {
        match self.spans() {
            Some(t) => t.export_chrome_trace(),
            None => "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n]}\n".to_string(),
        }
    }

    /// Check every cross-layer invariant observed so far (exactly-once
    /// delivery, credit conservation, channel discipline, frame
    /// accounting) plus live-state checks. `Err` carries a full report.
    /// Forwards to [`Cluster::audit`].
    pub fn audit(&self) -> Result<(), String> {
        self.c.audit()
    }

    /// Enable the causal trace ring (ring-buffered text records of
    /// residency and protocol transitions; see [`Self::trace_text`]) on
    /// every shard.
    pub fn trace_enable(&self) {
        for w in self.c.worlds() {
            w.trace.borrow_mut().enable();
        }
    }

    /// Disable the causal trace ring on every shard.
    pub fn trace_disable(&self) {
        for w in self.c.worlds() {
            w.trace.borrow_mut().disable();
        }
    }

    /// Render the causal trace collected so far (every shard's ring,
    /// folded in canonical order).
    pub fn trace_text(&self) -> String {
        self.c.trace().to_text()
    }

    /// Enable or disable the automatic debug-build invariant audit at
    /// run boundaries. Mutation tests that provoke violations on purpose
    /// disable it and inspect [`Self::audit`] directly.
    pub fn set_debug_audit(&self, on: bool) {
        self.c.set_debug_audit_flag(on);
    }
}

/// Record the `net.*` fabric metrics summed over every shard's fabric:
/// each link and each source host is exercised by exactly one shard
/// (see `Partition::link_owner`), so every counter is a disjoint sum. The
/// one gauge (the link count) is the same on every shard and is kept
/// once.
fn record_net<'w>(out: &mut MetricsSnapshot, worlds: impl Iterator<Item = &'w World>) {
    let mut sum: Vec<(String, MetricValue)> = Vec::new();
    for w in worlds {
        let mut one = MetricsSnapshot::new(out.at());
        one.record_set("net", &w.fabric);
        if sum.is_empty() {
            sum = one.entries().to_vec();
            continue;
        }
        for ((_, acc), (_, v)) in sum.iter_mut().zip(one.entries()) {
            if let (MetricValue::Counter(a), MetricValue::Counter(b)) = (acc, v) {
                *a += b;
            }
        }
    }
    for (name, v) in sum {
        out.record(name, v);
    }
}
