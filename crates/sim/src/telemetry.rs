//! Unified telemetry: the span log, metric enumeration, and exporters.
//!
//! This module is the observability substrate for the whole stack:
//!
//! * the **span log** ([`Telemetry`]) is the one event log: begin/end
//!   spans stamped with simulated time, recording episodes that cross
//!   layers — NIC firmware phases, DMA transfers, channel
//!   retransmit/backoff episodes, OS residency transitions — plus
//!   instantaneous markers. When telemetry is disabled components simply
//!   never attach a handle, so the fast path pays nothing (the same
//!   gating pattern as the invariant auditor);
//! * a **[`MetricSet`]** trait through which the component stat structs
//!   (`NicStats`, `OsStats`, fabric link counters) — the only counters —
//!   are enumerated generically into a [`MetricsSnapshot`];
//! * two **exporters**: a flat metrics snapshot/delta dump (JSON via
//!   [`MetricsSnapshot::to_json`], text table via
//!   [`MetricsSnapshot::to_table`]) and a Chrome trace-event / Perfetto
//!   JSON timeline fed from the spans
//!   ([`Telemetry::export_chrome_trace`]).
//!
//! # Metric naming
//!
//! Fully-qualified metric names are dot-separated, host-and-layer
//! prefixed: `host3.nic.retransmits`, `host0.os.remap_latency_us`,
//! `net.packets`. A [`MetricSet`] emits *short* names
//! (`retransmits`); the caller supplies the prefix when recording the
//! set into a snapshot ([`MetricsSnapshot::record_set`]).
//!
//! # Perfetto mapping
//!
//! Spans export as Chrome trace-event *async* events (`ph:"b"`/`"e"`)
//! keyed by category + id, because episodes on one host/layer track
//! overlap arbitrarily (two channels can be mid-retransmit at once) and
//! async events are the only phase type that renders overlap correctly.
//! Hosts map to Perfetto processes (`pid` = host index, process name
//! `hostN`) and layers to threads (`tid` per layer, thread name e.g.
//! `nic.chan`). Timestamps are fractional microseconds of simulated
//! time.

use crate::fxhash::FxHashMap;
use crate::stats::Sampler;
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Shared, single-threaded handle to a [`Telemetry`] span log.
pub type TelemetryHandle = Rc<RefCell<Telemetry>>;

// ---------------------------------------------------------------------------
// MetricSet: generic enumeration of metric-bearing structs
// ---------------------------------------------------------------------------

/// Five-number summary of a sampled distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a [`Sampler`] (clones internally; quantiles need a sort).
    pub fn from_sampler(s: &Sampler) -> Summary {
        let mut s = s.clone();
        Summary {
            count: s.count() as u64,
            mean: s.mean(),
            p50: s.quantile(0.5),
            p95: s.quantile(0.95),
            max: s.quantile(1.0),
        }
    }
}

/// One metric observation, as enumerated by a [`MetricSet`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Distribution summary.
    Summary(Summary),
}

/// Receives `(short_name, value)` pairs from a [`MetricSet`].
pub trait MetricVisitor {
    /// Report one metric. `name` is the short name (no host/layer prefix).
    fn metric(&mut self, name: &str, value: MetricValue);
}

/// A struct whose metrics can be enumerated generically.
///
/// Implemented by `NicStats`, `OsStats`, the fabric and the control
/// plane, so callers iterate metrics uniformly instead of reaching into
/// per-crate pub fields.
pub trait MetricSet {
    /// Enumerate every metric into `v`, using short dot-free names.
    fn visit_metrics(&self, v: &mut dyn MetricVisitor);

    /// Look up one metric by short name (linear scan via
    /// [`MetricSet::visit_metrics`]; fine off the hot path).
    fn metric(&self, name: &str) -> Option<MetricValue>
    where
        Self: Sized,
    {
        struct Find<'a> {
            name: &'a str,
            out: Option<MetricValue>,
        }
        impl MetricVisitor for Find<'_> {
            fn metric(&mut self, n: &str, v: MetricValue) {
                if self.out.is_none() && n == self.name {
                    self.out = Some(v);
                }
            }
        }
        let mut f = Find { name, out: None };
        self.visit_metrics(&mut f);
        f.out
    }

    /// Counter by short name (0 if absent or not a counter).
    fn counter_value(&self, name: &str) -> u64
    where
        Self: Sized,
    {
        match self.metric(name) {
            Some(MetricValue::Counter(n)) => n,
            _ => 0,
        }
    }

    /// Summary by short name (empty if absent or not a summary).
    fn summary_value(&self, name: &str) -> Summary
    where
        Self: Sized,
    {
        match self.metric(name) {
            Some(MetricValue::Summary(s)) => s,
            _ => Summary::default(),
        }
    }
}

struct PrefixVisitor<'a> {
    prefix: &'a str,
    out: &'a mut Vec<(String, MetricValue)>,
}

impl MetricVisitor for PrefixVisitor<'_> {
    fn metric(&mut self, name: &str, value: MetricValue) {
        let full = if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        };
        self.out.push((full, value));
    }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot: flat dump + delta + JSON/table exporters
// ---------------------------------------------------------------------------

/// A flat, named snapshot of every metric at one simulated instant.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    at: SimTime,
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot stamped `at`.
    pub fn new(at: SimTime) -> Self {
        MetricsSnapshot { at, entries: Vec::new() }
    }

    /// Simulated time the snapshot was taken.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// Record every metric of `set` under `prefix` (e.g. `"host3.nic"`).
    pub fn record_set(&mut self, prefix: &str, set: &dyn MetricSet) {
        let mut v = PrefixVisitor { prefix, out: &mut self.entries };
        set.visit_metrics(&mut v);
    }

    /// Record one metric under its fully-qualified name.
    pub fn record(&mut self, name: impl Into<String>, value: MetricValue) {
        self.entries.push((name.into(), value));
    }

    /// All `(name, value)` entries in recording order.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Look up a metric by fully-qualified name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name (0 if absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// The change since `earlier`: counters subtract (saturating),
    /// gauges and summaries take this snapshot's value. Metrics absent
    /// from `earlier` appear unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let before: HashMap<&str, &MetricValue> =
            earlier.entries.iter().map(|(n, v)| (n.as_str(), v)).collect();
        let entries = self
            .entries
            .iter()
            .map(|(n, v)| {
                let dv = match (v, before.get(n.as_str())) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    _ => v.clone(),
                };
                (n.clone(), dv)
            })
            .collect();
        MetricsSnapshot { at: self.at, entries }
    }

    /// Render as JSON: `{"at_us": ..., "metrics": {name: value, ...}}`.
    /// Counters are integers, gauges are numbers, summaries are objects
    /// with `count/mean/p50/p95/max`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.entries.len() * 48);
        s.push_str("{\n  \"at_us\": ");
        let _ = write!(s, "{}", json::num(self.at.as_micros_f64()));
        s.push_str(",\n  \"metrics\": {");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: ", json::str(name));
            match v {
                MetricValue::Counter(n) => {
                    let _ = write!(s, "{n}");
                }
                MetricValue::Gauge(g) => s.push_str(&json::num(*g)),
                MetricValue::Summary(m) => {
                    let _ = write!(
                        s,
                        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}}}",
                        m.count,
                        json::num(m.mean),
                        json::num(m.p50),
                        json::num(m.p95),
                        json::num(m.max),
                    );
                }
            }
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Render as an aligned two-column text table.
    pub fn to_table(&self) -> String {
        let w = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(6);
        let mut s = String::new();
        let _ = writeln!(s, "metrics @ {}", self.at);
        for (name, v) in &self.entries {
            match v {
                MetricValue::Counter(n) => {
                    let _ = writeln!(s, "  {name:<w$}  {n}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(s, "  {name:<w$}  {g:.3}");
                }
                MetricValue::Summary(m) => {
                    let _ = writeln!(
                        s,
                        "  {name:<w$}  n={} mean={:.2} p50={:.2} p95={:.2} max={:.2}",
                        m.count, m.mean, m.p50, m.p95, m.max
                    );
                }
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Identifier of an open span, returned by [`Telemetry::span_begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// Span/instant annotation, stored unformatted and rendered only at
/// export. Hot-path spans (per-message DMA transfers) use
/// [`SpanDetail::Bytes`], which costs no allocation to record; rare
/// episode spans carry free-form text.
#[derive(Clone, Debug, Default)]
pub enum SpanDetail {
    /// No annotation.
    #[default]
    Empty,
    /// A byte count, rendered as `"<n> B"`.
    Bytes(u32),
    /// Free-form text.
    Text(String),
}

impl SpanDetail {
    fn render(&self) -> Option<std::borrow::Cow<'_, str>> {
        match self {
            SpanDetail::Empty => None,
            SpanDetail::Bytes(b) => Some(format!("{b} B").into()),
            SpanDetail::Text(t) if t.is_empty() => None,
            SpanDetail::Text(t) => Some(t.as_str().into()),
        }
    }
}

impl From<String> for SpanDetail {
    fn from(s: String) -> Self {
        SpanDetail::Text(s)
    }
}

impl From<&str> for SpanDetail {
    fn from(s: &str) -> Self {
        SpanDetail::Text(s.to_string())
    }
}

#[derive(Clone, Debug)]
enum SpanEvent {
    Begin {
        at: SimTime,
        host: u32,
        layer: &'static str,
        name: &'static str,
        id: u64,
        detail: SpanDetail,
    },
    End { at: SimTime, id: u64 },
    Instant { at: SimTime, host: u32, layer: &'static str, name: &'static str, detail: SpanDetail },
}

// ---------------------------------------------------------------------------
// The span log
// ---------------------------------------------------------------------------

/// Set in the id of a span whose begin was dropped at capacity, so its
/// end is ignored. Host fields stay far below bit 63 (`host << 40`).
const DROPPED: u64 = 1 << 63;

/// The span log of one shard world: every span and instant its hosts
/// record, bounded at `span_cap` events.
#[derive(Debug, Default)]
pub struct Telemetry {
    spans: Vec<SpanEvent>,
    span_cap: usize,
    /// Accepted spans not yet ended. Each holds a reserved slot for its
    /// end, so the log never outgrows `span_cap` and every accepted span
    /// can close.
    open: usize,
    dropped_spans: u64,
    /// Per-host span sequence numbers. Span ids are `(host << 40) | seq`
    /// rather than a single global counter so that a parallel run — where
    /// hosts are spread over per-shard logs — assigns each span the same
    /// id a sequential run would (each host's spans open in host event
    /// order, which sharding preserves).
    span_seq: FxHashMap<u32, u64>,
}

impl SpanEvent {
    /// Canonical ordering key: `(time, host)`. Ends recover their host
    /// from the id's host field.
    fn order_key(&self) -> (SimTime, u32) {
        match *self {
            SpanEvent::Begin { at, host, .. } => (at, host),
            SpanEvent::End { at, id } => (at, (id >> 40) as u32),
            SpanEvent::Instant { at, host, .. } => (at, host),
        }
    }
}

impl Telemetry {
    /// Default span capacity: enough for long runs without unbounded
    /// growth (spans are episode-scale, not per-packet).
    pub const DEFAULT_SPAN_CAP: usize = 1 << 18;

    /// A fresh log with the default span capacity.
    pub fn new() -> Self {
        Self::with_span_cap(Self::DEFAULT_SPAN_CAP)
    }

    /// A fresh log holding at most `cap` events (ends included): it keeps
    /// the first events that fit, and later begins and instants are
    /// dropped and counted ([`Telemetry::dropped_spans`]).
    pub fn with_span_cap(cap: usize) -> Self {
        Telemetry { span_cap: cap.max(16), ..Default::default() }
    }

    /// A fresh shared handle.
    pub fn handle() -> TelemetryHandle {
        Rc::new(RefCell::new(Telemetry::new()))
    }

    /// Whether `n` more events fit beside the ends reserved by open spans.
    fn has_room(&self, n: usize) -> bool {
        self.spans.len() + self.open + n <= self.span_cap
    }

    /// Open a span on `host`'s `layer` track. Returns the id to pass to
    /// [`Telemetry::span_end`]. A span is accepted only with room for its
    /// end too; otherwise it is dropped (counted) and the returned id ends
    /// harmlessly. Either way it consumes the host's next sequence number.
    pub fn span_begin(
        &mut self,
        at: SimTime,
        host: u32,
        layer: &'static str,
        name: &'static str,
        detail: impl Into<SpanDetail>,
    ) -> SpanId {
        let seq = self.span_seq.entry(host).or_insert(0);
        *seq += 1;
        let id = ((host as u64) << 40) | *seq;
        if !self.has_room(2) {
            self.dropped_spans += 1;
            return SpanId(id | DROPPED);
        }
        self.open += 1;
        self.spans.push(SpanEvent::Begin { at, host, layer, name, id, detail: detail.into() });
        SpanId(id)
    }

    /// Close a span into the slot its begin reserved. The end of a span
    /// whose begin was dropped is ignored.
    pub fn span_end(&mut self, at: SimTime, id: SpanId) {
        if id.0 & DROPPED == 0 {
            self.open -= 1;
            self.spans.push(SpanEvent::End { at, id: id.0 });
        }
    }

    /// Record an instantaneous marker (e.g. a NACK with its reason).
    pub fn instant(
        &mut self,
        at: SimTime,
        host: u32,
        layer: &'static str,
        name: &'static str,
        detail: impl Into<SpanDetail>,
    ) {
        if !self.has_room(1) {
            self.dropped_spans += 1;
            return;
        }
        self.spans.push(SpanEvent::Instant { at, host, layer, name, detail: detail.into() });
    }

    /// Span/instant events dropped because the log hit capacity.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Number of span events currently held.
    pub fn span_events(&self) -> usize {
        self.spans.len()
    }

    /// Fold per-shard span logs into one log holding every span event
    /// (drop counts summed) — the cluster-wide view
    /// [`Telemetry::span_log`] and [`Telemetry::export_chrome_trace`]
    /// render. Both impose the canonical `(time, host)` order, and each
    /// host records into exactly one log, so the fold reads identically
    /// under any shard count.
    pub fn fold_spans<'a>(shards: impl IntoIterator<Item = &'a Telemetry>) -> Telemetry {
        let mut out = Telemetry::new();
        for sh in shards {
            out.spans.extend(sh.spans.iter().cloned());
            out.dropped_spans += sh.dropped_spans;
        }
        out
    }

    /// The span log in canonical `(time, host)` order. Within one
    /// `(time, host)` cell the original recording order is kept (stable
    /// sort), which is identical under any shard count because one host's
    /// events always come from one shard in order.
    fn canonical_spans(&self) -> Vec<&SpanEvent> {
        let mut order: Vec<&SpanEvent> = self.spans.iter().collect();
        order.sort_by_key(|ev| ev.order_key());
        order
    }

    /// Render the span log as plain text, one event per line, in the
    /// canonical `(time, host)` order — a byte-comparable form for
    /// differential tests (a parallel run must produce exactly the
    /// sequential run's log).
    pub fn span_log(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 48);
        for ev in self.canonical_spans() {
            match ev {
                SpanEvent::Begin { at, host, layer, name, id, detail } => {
                    let _ = write!(s, "t={at} h{host} {layer}/{name} begin 0x{id:x}");
                    if let Some(d) = detail.render() {
                        let _ = write!(s, " [{d}]");
                    }
                    s.push('\n');
                }
                SpanEvent::End { at, id } => {
                    let _ = writeln!(s, "t={at} h{} end 0x{id:x}", (id >> 40) as u32);
                }
                SpanEvent::Instant { at, host, layer, name, detail } => {
                    let _ = write!(s, "t={at} h{host} {layer}/{name} instant");
                    if let Some(d) = detail.render() {
                        let _ = write!(s, " [{d}]");
                    }
                    s.push('\n');
                }
            }
        }
        s
    }

    /// Export the span log as Chrome trace-event / Perfetto JSON.
    ///
    /// Emits `M` metadata naming each host process and layer thread,
    /// async `b`/`e` pairs for spans, and `i` instants. Load the result
    /// at <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn export_chrome_trace(&self) -> String {
        // Events are walked in canonical (time, host) order so the export
        // is identical for sequential and parallel runs of the same
        // simulation (shard folds only append; order is imposed here).
        let ordered = self.canonical_spans();
        // Assign stable tids per layer (first-seen order) and collect the
        // (host, layer) tracks actually used, for metadata.
        let mut layer_tids: Vec<&'static str> = Vec::new();
        let mut tracks: Vec<(u32, &'static str)> = Vec::new();
        let mut begin_info: HashMap<u64, (u32, &'static str, &'static str)> = HashMap::new();
        let note = |layer_tids: &mut Vec<&'static str>,
                        tracks: &mut Vec<(u32, &'static str)>,
                        host: u32,
                        layer: &'static str| {
            if !layer_tids.contains(&layer) {
                layer_tids.push(layer);
            }
            if !tracks.contains(&(host, layer)) {
                tracks.push((host, layer));
            }
        };
        for ev in &ordered {
            match ev {
                SpanEvent::Begin { host, layer, name, id, .. } => {
                    note(&mut layer_tids, &mut tracks, *host, layer);
                    begin_info.insert(*id, (*host, layer, name));
                }
                SpanEvent::Instant { host, layer, .. } => {
                    note(&mut layer_tids, &mut tracks, *host, layer);
                }
                SpanEvent::End { .. } => {}
            }
        }
        let tid_of = |layer: &str| -> usize {
            layer_tids.iter().position(|l| *l == layer).unwrap_or(0) + 1
        };

        let mut s = String::with_capacity(128 + self.spans.len() * 96);
        s.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let mut first = true;
        let sep = |s: &mut String, first: &mut bool| {
            if *first {
                *first = false;
            } else {
                s.push_str(",\n");
            }
        };

        let mut named_hosts: Vec<u32> = Vec::new();
        for &(host, layer) in &tracks {
            if !named_hosts.contains(&host) {
                named_hosts.push(host);
                sep(&mut s, &mut first);
                let _ = write!(
                    s,
                    "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {host}, \"args\": {{\"name\": \"host{host}\"}}}}"
                );
            }
            sep(&mut s, &mut first);
            let _ = write!(
                s,
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {host}, \"tid\": {}, \"args\": {{\"name\": {}}}}}",
                tid_of(layer),
                json::str(layer)
            );
        }

        for ev in &ordered {
            match ev {
                SpanEvent::Begin { at, host, layer, name, id, detail } => {
                    sep(&mut s, &mut first);
                    let _ = write!(
                        s,
                        "{{\"ph\": \"b\", \"cat\": {}, \"id\": \"0x{id:x}\", \"name\": {}, \"pid\": {host}, \"tid\": {}, \"ts\": {}",
                        json::str(layer),
                        json::str(name),
                        tid_of(layer),
                        json::num(at.as_micros_f64()),
                    );
                    match detail.render() {
                        None => s.push('}'),
                        Some(d) => {
                            let _ = write!(s, ", \"args\": {{\"detail\": {}}}}}", json::str(&d));
                        }
                    }
                }
                SpanEvent::End { at, id } => {
                    // Only accepted spans record an end.
                    let (host, layer, name) = begin_info[id];
                    sep(&mut s, &mut first);
                    let _ = write!(
                        s,
                        "{{\"ph\": \"e\", \"cat\": {}, \"id\": \"0x{id:x}\", \"name\": {}, \"pid\": {host}, \"tid\": {}, \"ts\": {}}}",
                        json::str(layer),
                        json::str(name),
                        tid_of(layer),
                        json::num(at.as_micros_f64()),
                    );
                }
                SpanEvent::Instant { at, host, layer, name, detail } => {
                    sep(&mut s, &mut first);
                    let _ = write!(
                        s,
                        "{{\"ph\": \"i\", \"s\": \"t\", \"name\": {}, \"pid\": {host}, \"tid\": {}, \"ts\": {}",
                        json::str(name),
                        tid_of(layer),
                        json::num(at.as_micros_f64()),
                    );
                    match detail.render() {
                        None => s.push('}'),
                        Some(d) => {
                            let _ = write!(s, ", \"args\": {{\"detail\": {}}}}}", json::str(&d));
                        }
                    }
                }
            }
        }
        s.push_str("\n]}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON: writer helpers + a parser for artifact validation
// ---------------------------------------------------------------------------

/// Dependency-free JSON helpers: string escaping, number formatting, and
/// a small recursive-descent parser used by tests and artifact checks to
/// validate exported telemetry without external crates.
pub mod json {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// A quoted, escaped JSON string literal for `s`.
    pub fn str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A finite JSON number literal for `v` (non-finite values become 0).
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_string()
        }
    }

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object (sorted by key).
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// Parse a complete JSON document.
        pub fn parse(text: &str) -> Result<Json, String> {
            let b = text.as_bytes();
            let mut pos = 0;
            let v = parse_value(b, &mut pos)?;
            skip_ws(b, &mut pos);
            if pos != b.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(v)
        }

        /// Member lookup (objects only).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// Lookup along a dot-separated member path
        /// (`"gate.events_per_sec"`).
        pub fn at(&self, path: &str) -> Option<&Json> {
            path.split('.').try_fold(self, |j, key| j.get(key))
        }

        /// String payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Numeric payload, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// Array payload, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }

        /// Object payload, if this is an object.
        pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
            match self {
                Json::Obj(m) => Some(m),
                _ => None,
            }
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut m = BTreeMap::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    skip_ws(b, pos);
                    let k = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    let v = parse_value(b, pos)?;
                    m.insert(k, v);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut a = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut s = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // is always on a char boundary).
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf8")?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::json::Json;
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let mut before = MetricsSnapshot::new(t(1));
        before.record("x", MetricValue::Counter(10));
        let mut after = MetricsSnapshot::new(t(2));
        after.record("x", MetricValue::Counter(17));
        after.record("g", MetricValue::Gauge(3.0));
        let d = after.delta_since(&before);
        assert_eq!(d.counter("x"), 7);
        assert_eq!(d.get("g"), Some(&MetricValue::Gauge(3.0)), "gauges take the later value");
        assert_eq!(d.at(), t(2));
    }

    #[test]
    fn snapshot_json_parses_and_matches() {
        let mut rtt = Sampler::default();
        rtt.record(61.02);
        let mut snap = MetricsSnapshot::new(t(5));
        snap.record("host1.nic.unbinds", MetricValue::Counter(3));
        snap.record("host1.nic.rtt_us", MetricValue::Summary(Summary::from_sampler(&rtt)));
        snap.record("telemetry.dropped_spans", MetricValue::Counter(2));
        let doc = Json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(doc.get("at_us").and_then(Json::as_f64), Some(5.0));
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(metrics.get("host1.nic.unbinds").and_then(Json::as_f64), Some(3.0));
        assert_eq!(metrics.get("telemetry.dropped_spans").and_then(Json::as_f64), Some(2.0));
        let rtt = metrics.get("host1.nic.rtt_us").expect("summary object");
        assert_eq!(rtt.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(snap.to_table().contains("host1.nic.unbinds"));
    }

    #[test]
    fn spans_export_balanced_chrome_trace() {
        let mut tel = Telemetry::new();
        let s1 = tel.span_begin(t(10), 0, "nic.chan", "retx_episode", "ch3");
        let s2 = tel.span_begin(t(12), 0, "nic.chan", "retx_episode", "ch4");
        tel.instant(t(13), 1, "nic.fw", "nack_rx", "NotResident");
        tel.span_end(t(20), s1);
        tel.span_end(t(25), s2);
        let doc = Json::parse(&tel.export_chrome_trace()).expect("valid JSON");
        let evs = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let phs: Vec<&str> =
            evs.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        assert_eq!(phs.iter().filter(|p| **p == "b").count(), 2);
        assert_eq!(phs.iter().filter(|p| **p == "e").count(), 2);
        assert_eq!(phs.iter().filter(|p| **p == "i").count(), 1);
        // Metadata names both processes and the layer threads.
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"host0") && names.contains(&"host1"));
        assert!(names.contains(&"nic.chan") && names.contains(&"nic.fw"));
        // b/e pairs agree on id and category.
        for e in evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("e")) {
            let id = e.get("id").and_then(Json::as_str).expect("end id");
            assert!(
                evs.iter().any(|b| b.get("ph").and_then(Json::as_str) == Some("b")
                    && b.get("id").and_then(Json::as_str) == Some(id)
                    && b.get("cat") == e.get("cat")),
                "every end pairs with a begin"
            );
        }
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let mut tel = Telemetry::with_span_cap(16);
        let mut ids = Vec::new();
        for i in 0..40 {
            ids.push(tel.span_begin(t(i), 0, "nic.chan", "retx_episode", String::new()));
        }
        // Each accepted span reserves a slot for its end: 8 of 40 fit.
        assert_eq!(tel.dropped_spans(), 32);
        assert_eq!(ids[39].0 & !DROPPED, 40, "dropped begins keep per-host numbering");
        for id in ids {
            tel.span_end(t(100), id);
        }
        tel.instant(t(101), 0, "nic.fw", "nack_rx", "full");
        assert_eq!(tel.dropped_spans(), 33);
        assert!(tel.span_events() <= 16, "log holds {} events past its cap", tel.span_events());
        // Ends whose begins were dropped are ignored, so the capped
        // export stays balanced.
        let doc = Json::parse(&tel.export_chrome_trace()).expect("valid JSON");
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let b = evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("b")).count();
        let e = evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("e")).count();
        assert_eq!(b, 8);
        assert_eq!(e, 8);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = Json::parse(r#"{"a": [1, 2.5, -3e2], "s": "x\"\\\nA", "b": true, "n": null}"#)
            .expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(3));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x\"\\\nA"));
        assert_eq!(doc.get("b"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert!(Json::parse("{\"unterminated\": ").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
        // Writer output survives its own escaping.
        let s = super::json::str("tab\tquote\"nl\n");
        let back = Json::parse(&s).unwrap();
        assert_eq!(back.as_str(), Some("tab\tquote\"nl\n"));
    }

    #[test]
    fn json_path_lookup_reads_exponents() {
        let doc = Json::parse(r#"{"gate": {"events_per_sec": 6.57e6}, "x": 1}"#).unwrap();
        assert_eq!(doc.at("gate.events_per_sec").and_then(Json::as_f64), Some(6.57e6));
        assert_eq!(doc.at("x").and_then(Json::as_f64), Some(1.0));
        assert!(doc.at("gate.missing").is_none());
        assert!(doc.at("x.y").is_none());
    }
}
