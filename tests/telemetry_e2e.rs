//! End-to-end tests of the unified telemetry layer: Perfetto export
//! schema, protocol-episode reconstruction across NIC and OS layers,
//! determinism with hooks attached, and drop accounting.

use vnet::apps::clientserver::{run_client_server_cluster, CsConfig, CsMode};
use vnet::prelude::*;
use vnet::sim::telemetry::json::Json;
use vnet::sim::Telemetry;
use vnet::Cluster;

/// Parse a Chrome trace export and return the `traceEvents` array.
fn trace_events(trace: &str) -> Vec<Json> {
    let doc = Json::parse(trace).expect("perfetto export must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|u| u.as_str()),
        Some("ns"),
        "displayTimeUnit header"
    );
    doc.get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array")
        .to_vec()
}

fn field<'a>(ev: &'a Json, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(|v| v.as_str())
}

/// Complete async episodes: names of every `b` event whose id also has a
/// matching `e` event.
fn complete_episodes(events: &[Json]) -> Vec<(String, String)> {
    let ends: Vec<&str> =
        events.iter().filter(|e| field(e, "ph") == Some("e")).filter_map(|e| field(e, "id")).collect();
    events
        .iter()
        .filter(|e| field(e, "ph") == Some("b"))
        .filter(|e| field(e, "id").is_some_and(|id| ends.contains(&id)))
        .map(|e| {
            (
                field(e, "cat").unwrap_or("").to_string(),
                field(e, "name").unwrap_or("").to_string(),
            )
        })
        .collect()
}

/// Golden schema test: an 8-host client/server run over a lossy fabric
/// exports a Perfetto trace with process/thread metadata, balanced async
/// spans, and at least one complete retransmission episode observable
/// end-to-end (channel retransmit span on the NIC, endpoint-load span in
/// the OS).
#[test]
fn perfetto_export_schema_golden() {
    let mut cs = CsConfig::small(7, CsMode::St, 8); // 7 clients + server = 8 hosts
    cs.warmup = SimDuration::from_millis(100);
    cs.measure = SimDuration::from_millis(300);
    cs.telemetry = true;
    cs.drop_prob = 0.05;
    let (_, c) = run_client_server_cluster(&cs);
    assert!(c.telemetry().enabled());

    let trace = c.telemetry().export_perfetto();
    let events = trace_events(&trace);
    assert!(events.len() > 20, "a lossy run must produce span traffic");

    // Metadata: every host that emitted events is a named process; the
    // per-layer tracks are named threads.
    let meta_names: Vec<&str> = events
        .iter()
        .filter(|e| field(e, "ph") == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()))
        .collect();
    assert!(meta_names.contains(&"host0"), "server process named: {meta_names:?}");
    assert!(meta_names.contains(&"nic.chan"), "channel track named");
    assert!(meta_names.contains(&"nic.dma"), "DMA track named");
    assert!(meta_names.contains(&"os.seg"), "OS residency track named");

    // Every event carries the mandatory fields.
    for ev in &events {
        let ph = field(ev, "ph").expect("ph");
        assert!(["M", "b", "e", "i"].contains(&ph), "unexpected phase {ph}");
        if ph != "M" {
            assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some_and(|t| t >= 0.0));
            assert!(ev.get("pid").and_then(|p| p.as_f64()).is_some());
        }
        if ph == "b" || ph == "e" {
            assert!(field(ev, "id").is_some(), "async events need ids");
            assert!(field(ev, "cat").is_some(), "async events need categories");
        }
    }

    // The acceptance episode: a complete retransmission episode on a
    // channel track plus a complete endpoint-load span on the OS track —
    // the same recovery visible across both layers.
    let done = complete_episodes(&events);
    assert!(
        done.iter().any(|(cat, name)| cat == "nic.chan" && name == "retx_episode"),
        "no complete retransmit episode in {} episodes",
        done.len()
    );
    assert!(
        done.iter().any(|(cat, name)| cat == "os.seg" && name == "ep_load"),
        "no complete endpoint-load span"
    );
    assert!(
        done.iter().any(|(cat, name)| cat == "nic.dma" && name.starts_with("dma_")),
        "no complete DMA transfer span"
    );
}

/// Thrash-regime episode reconstruction: overcommitting the 8-frame
/// interface (10 clients) produces the full §4 story in one trace —
/// NotResident NACK backoff parks on the sender, endpoint load *and*
/// eviction spans on the server's OS track.
#[test]
fn perfetto_reconstructs_thrash_episodes() {
    let mut cs = CsConfig::small(10, CsMode::St, 8);
    cs.warmup = SimDuration::from_millis(100);
    cs.measure = SimDuration::from_millis(400);
    cs.telemetry = true;
    let (r, c) = run_client_server_cluster(&cs);
    assert!(r.nacks_not_resident > 0, "thrash regime must NACK");

    let events = trace_events(&c.telemetry().export_perfetto());
    let done = complete_episodes(&events);
    assert!(
        done.iter().any(|(cat, name)| cat == "nic.chan" && name == "nack_backoff"),
        "no complete NACK-backoff episode"
    );
    assert!(
        done.iter().any(|(cat, name)| cat == "os.seg" && name == "ep_load"),
        "no complete endpoint-load span"
    );
    assert!(
        done.iter().any(|(cat, name)| cat == "os.seg" && name == "ep_unload"),
        "no complete endpoint-eviction span"
    );
    // NACK markers appear as instants with their reason attached.
    assert!(
        events.iter().any(|e| field(e, "ph") == Some("i") && field(e, "name") == Some("nack_tx")),
        "NACK instants on the firmware track"
    );
}

/// Telemetry must observe, never perturb: the same seeded workload with
/// hooks attached and detached produces byte-identical protocol behavior
/// (event counts, simulated clock, per-layer counters). Component stats
/// count with hooks detached too, so every counter reads the same.
#[test]
fn telemetry_does_not_perturb_protocol() {
    let run = |telemetry: bool| {
        let mut cs = CsConfig::small(4, CsMode::OneVn, 8);
        cs.warmup = SimDuration::from_millis(100);
        cs.measure = SimDuration::from_millis(300);
        cs.telemetry = telemetry;
        cs.drop_prob = 0.05;
        let (r, c) = run_client_server_cluster(&cs);
        let snap = c.telemetry().snapshot();
        (
            c.events_processed(),
            c.now(),
            snap.counter("host0.nic.data_sent"),
            snap.counter("host0.nic.retransmits"),
            snap.counter("host0.nic.frames_tx"),
            snap.counter("host0.nic.frames_rx"),
            snap.counter("host0.nic.dma_bytes"),
            snap.counter("host0.os.loads"),
            snap.counter("net.packets"),
            r.retransmits,
        )
    };
    let detached = run(false);
    let (_, _, _, _, frames_tx, frames_rx, dma_bytes, ..) = detached;
    assert!(
        frames_tx > 0 && frames_rx > 0 && dma_bytes > 0,
        "NIC frame and DMA counters count with hooks detached"
    );
    assert_eq!(detached, run(true), "telemetry hooks changed protocol behavior");
}

/// Span-log overflow surfaces in the unified snapshot as
/// `telemetry.dropped_spans` instead of vanishing silently, and the log
/// never outgrows its cap.
#[test]
fn span_log_drops_are_counted_in_snapshot() {
    let c = Cluster::builder().hosts(2).telemetry(true).build();
    assert_eq!(c.telemetry().snapshot().counter("telemetry.dropped_spans"), 0);
    let log = c.world_of(HostId(0)).telemetry.clone().expect("hooks attached");
    let cap = Telemetry::DEFAULT_SPAN_CAP;
    for _ in 0..cap + 10 {
        log.borrow_mut().instant(SimTime::ZERO, 0, "net", "test", "");
    }
    assert_eq!(c.telemetry().snapshot().counter("telemetry.dropped_spans"), 10);
    assert_eq!(log.borrow().span_events(), cap, "the log keeps the first events");
}

/// The builder and the unified handle compose: a telemetry-enabled
/// cluster built fluently exposes component metrics and an exportable
/// (possibly empty) trace; snapshot deltas subtract counters.
#[test]
fn builder_telemetry_snapshot_delta_roundtrip() {
    let mut c = Cluster::builder().hosts(2).telemetry(true).seed(7).build();
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.make_resident(a);
    c.make_resident(b);
    let before = c.telemetry().snapshot();
    c.run_for(SimDuration::from_millis(5));
    let delta = c.telemetry().delta_since(&before);
    // Counters in the delta never exceed the absolute snapshot.
    let after = c.telemetry().snapshot();
    for (name, _) in delta.entries() {
        assert!(delta.counter(name) <= after.counter(name), "delta {name} exceeds total");
    }
    // NIC frame and DMA counters appear under their full names.
    for name in ["host0.nic.frames_tx", "host0.nic.frames_rx", "host0.nic.dma_bytes"] {
        assert!(after.get(name).is_some(), "{name} missing from snapshot");
    }
    // Snapshot artifacts are valid JSON.
    let parsed = Json::parse(&after.to_json()).expect("metrics snapshot JSON");
    assert!(parsed.get("metrics").is_some());
}
