//! The §6.4 contention workloads (Figures 6 and 7).
//!
//! One server node, `n` client nodes, each client streaming requests as
//! fast as its 32-credit window allows. Five configurations:
//!
//! * **OneVN** — every client sends to one shared server endpoint.
//! * **ST-8 / ST-96** — one server endpoint per client, all polled by a
//!   single server thread, with 8 or 96 NI endpoint frames.
//! * **MT-8 / MT-96** — one server endpoint per client, one server thread
//!   per endpoint sleeping on its event mask.
//!
//! More than 8 clients overcommit the 8-frame interface and activate the
//! §4 virtualization machinery on the fly — exactly the paper's "page
//! thrash test".

use std::collections::HashMap;
use vnet_core::prelude::*;
use vnet_sim::stats::Sampler;
use vnet_sim::SimTime;

/// Server structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsMode {
    /// One shared server endpoint, single-threaded server.
    OneVn,
    /// Per-client server endpoints, single-threaded (polling) server.
    St,
    /// Per-client server endpoints, thread-per-endpoint server.
    Mt,
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct CsConfig {
    /// Number of client nodes.
    pub clients: u32,
    /// Server structure.
    pub mode: CsMode,
    /// NI endpoint frames on every node (8 or 96).
    pub frames: u32,
    /// Request payload size: 0 for Figure 6, 8192 for Figure 7.
    pub bytes: u32,
    /// Warm-up before counters reset.
    pub warmup: SimDuration,
    /// Measured steady-state interval (the paper uses 20 s).
    pub measure: SimDuration,
    /// Cluster seed.
    pub seed: u64,
    /// Enable the §8 adaptive-RTO extension on every NIC.
    pub adaptive_rto: bool,
    /// Enable the §8 ack-coalescing extension (30 µs window).
    pub ack_coalesce: bool,
    /// Attach the span log's hooks to every component; export via
    /// [`vnet_core::Cluster::telemetry`].
    pub telemetry: bool,
    /// Per-frame drop probability on the fabric (0.0 = lossless). Lossy
    /// runs exercise the retransmission/unbind machinery so their span
    /// logs carry complete recovery episodes.
    pub drop_prob: f64,
}

impl CsConfig {
    /// Figure-6-style config (small messages).
    pub fn small(clients: u32, mode: CsMode, frames: u32) -> Self {
        CsConfig {
            clients,
            mode,
            frames,
            bytes: 0,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(5),
            seed: 0xC5,
            adaptive_rto: false,
            ack_coalesce: false,
            telemetry: false,
            drop_prob: 0.0,
        }
    }

    /// Figure-7-style config (8 KB messages).
    pub fn bulk(clients: u32, mode: CsMode, frames: u32) -> Self {
        CsConfig { bytes: 8192, ..Self::small(clients, mode, frames) }
    }
}

/// Measured outcome.
#[derive(Clone, Debug)]
pub struct CsResult {
    /// Completed requests per second, per client, over the measure window.
    pub per_client: Vec<f64>,
    /// Sum of the above.
    pub aggregate: f64,
    /// Aggregate payload bandwidth, MB/s (bulk runs).
    pub aggregate_mb_s: f64,
    /// Server-node endpoint remaps per second during the window.
    pub remaps_per_sec: f64,
    /// Client-observed round-trip samples (µs), pooled.
    pub rtt_us: Sampler,
    /// NotResident NACKs received by clients during the window.
    pub nacks_not_resident: u64,
    /// RecvQueueFull NACKs received by clients during the window.
    pub nacks_queue_full: u64,
    /// Data-frame retransmissions across all NICs during the window.
    pub retransmits: u64,
    /// Total frames that crossed fabric links during the window (relative
    /// wire-occupancy metric; each hop counts).
    pub wire_frames: u64,
}

/// Client: saturate the credit window, poll replies, time round trips.
pub struct CsClient {
    ep: EpId,
    bytes: u32,
    /// Completed (replied) requests.
    pub completed: u64,
    /// Undeliverable returns (should stay 0).
    pub bounced: u64,
    /// RTT samples, µs.
    pub rtt: Sampler,
    inflight: HashMap<u64, SimTime>,
}

impl CsClient {
    /// Client over `ep` sending `bytes`-byte requests to translation 0.
    pub fn new(ep: EpId, bytes: u32) -> Self {
        CsClient {
            ep,
            bytes,
            completed: 0,
            bounced: 0,
            rtt: Sampler::default(),
            inflight: HashMap::new(),
        }
    }
}

impl ThreadBody for CsClient {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        let can_send;
        loop {
            match sys.request(self.ep, 0, 0, [0; 4], self.bytes) {
                Ok(uid) => {
                    self.inflight.insert(uid, sys.now());
                }
                Err(SendError::NoCredit)
                | Err(SendError::QueueFull)
                | Err(SendError::QuotaExceeded) => {
                    can_send = false;
                    break;
                }
                // (the Ok arm above loops; exit paths assign can_send)
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(SendError::BadIndex) | Err(SendError::TooLarge) => {
                    panic!("client misconfigured (translation or size)")
                }
            }
        }
        let mut drained = false;
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            drained = true;
            if m.undeliverable {
                self.bounced += 1;
                self.inflight.remove(&m.msg.uid);
            } else {
                self.completed += 1;
                if let Some(t0) = self.inflight.remove(&m.msg.corr) {
                    self.rtt.record((sys.now() - t0).as_micros_f64());
                }
            }
        }
        // With a full window and nothing drained, no client action is
        // possible until a reply arrives: sleep on the event mask. While
        // credits remain, keep the pipeline full by polling.
        if !can_send && !drained {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// Single-threaded server: polls every endpoint round-robin and replies.
/// With many resident endpoints this pays the uncached-poll tax of §6.4.
pub struct StServer {
    eps: Vec<EpId>,
    /// Requests served.
    pub served: u64,
    pending: Vec<(EpId, DeliveredMsg)>,
}

impl StServer {
    /// Server over the given endpoints.
    pub fn new(eps: Vec<EpId>) -> Self {
        StServer { eps, served: 0, pending: Vec::new() }
    }

    fn try_reply(sys: &mut Sys<'_>, ep: EpId, m: &DeliveredMsg) -> Result<(), Step> {
        match sys.reply(ep, m, 0, [m.msg.uid, 0, 0, 0], 0) {
            Ok(_) => Ok(()),
            Err(SendError::WouldBlock) => Err(Step::WaitResident(ep)),
            Err(_) => Err(Step::Yield), // queue full: retry next burst
        }
    }
}

impl ThreadBody for StServer {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        // Retry replies that could not be posted earlier.
        while let Some((ep, m)) = self.pending.pop() {
            match Self::try_reply(sys, ep, &m) {
                Ok(()) => self.served += 1,
                Err(step) => {
                    self.pending.push((ep, m));
                    return step;
                }
            }
        }
        for i in 0..self.eps.len() {
            let ep = self.eps[i];
            while let Some(m) = sys.poll(ep, QueueSel::Request) {
                match Self::try_reply(sys, ep, &m) {
                    Ok(()) => self.served += 1,
                    Err(step) => {
                        self.pending.push((ep, m));
                        return step;
                    }
                }
            }
        }
        // Single thread: poll forever (the paper's ST server has no way to
        // sleep on many endpoints at once).
        Step::Yield
    }
}

/// Multi-threaded server: one such thread per endpoint, sleeping on the
/// event mask while idle (§3.3). "Threads with empty endpoints remain
/// asleep until messages arrive."
pub struct MtServerThread {
    ep: EpId,
    /// Requests served by this thread.
    pub served: u64,
    pending: Option<DeliveredMsg>,
}

impl MtServerThread {
    /// Thread serving one endpoint.
    pub fn new(ep: EpId) -> Self {
        MtServerThread { ep, served: 0, pending: None }
    }
}

impl ThreadBody for MtServerThread {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        if let Some(m) = self.pending.take() {
            match sys.reply(self.ep, &m, 0, [m.msg.uid, 0, 0, 0], 0) {
                Ok(_) => self.served += 1,
                Err(SendError::WouldBlock) => {
                    self.pending = Some(m);
                    return Step::WaitResident(self.ep);
                }
                Err(_) => {
                    self.pending = Some(m);
                    return Step::Yield;
                }
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            match sys.reply(self.ep, &m, 0, [m.msg.uid, 0, 0, 0], 0) {
                Ok(_) => self.served += 1,
                Err(SendError::WouldBlock) => {
                    self.pending = Some(m);
                    return Step::WaitResident(self.ep);
                }
                Err(_) => {
                    self.pending = Some(m);
                    return Step::Yield;
                }
            }
        }
        Step::WaitEvent(self.ep)
    }
}

/// Run one client/server configuration end to end.
pub fn run_client_server(cs: &CsConfig) -> CsResult {
    run_client_server_cluster(cs).0
}

/// Like [`run_client_server`] but also hands back the finished cluster,
/// so callers can export telemetry artifacts (snapshot, Perfetto trace)
/// from the very run that produced the numbers.
pub fn run_client_server_cluster(cs: &CsConfig) -> (CsResult, Cluster) {
    let n = cs.clients;
    let mut cfg = ClusterConfig::now(n + 1)
        .with_frames(cs.frames)
        .with_seed(cs.seed)
        .with_telemetry(cs.telemetry);
    cfg.nic.frames = cs.frames;
    cfg.nic.adaptive_rto = cs.adaptive_rto;
    cfg.drop_prob = cs.drop_prob;
    if cs.ack_coalesce {
        cfg.nic.ack_coalesce = Some(SimDuration::from_micros(30));
    }
    let mut c = Cluster::new(cfg);
    let server_host = HostId(0);

    // Endpoints.
    let server_eps: Vec<GlobalEp> = match cs.mode {
        CsMode::OneVn => vec![c.create_endpoint(server_host)],
        CsMode::St | CsMode::Mt => {
            (0..n).map(|_| c.create_endpoint(server_host)).collect()
        }
    };
    let client_eps: Vec<GlobalEp> =
        (0..n).map(|i| c.create_endpoint(HostId(i + 1))).collect();
    for (i, &ce) in client_eps.iter().enumerate() {
        let se = match cs.mode {
            CsMode::OneVn => server_eps[0],
            _ => server_eps[i],
        };
        c.connect(ce, 0, se);
    }

    // Server threads.
    let mut server_tids = Vec::new();
    match cs.mode {
        CsMode::OneVn | CsMode::St => {
            let eps = server_eps.iter().map(|e| e.ep).collect();
            server_tids.push(c.spawn_thread(server_host, Box::new(StServer::new(eps))));
        }
        CsMode::Mt => {
            for e in &server_eps {
                server_tids
                    .push(c.spawn_thread(server_host, Box::new(MtServerThread::new(e.ep))));
            }
        }
    }
    // Client threads.
    let client_tids: Vec<(HostId, Tid)> = client_eps
        .iter()
        .enumerate()
        .map(|(i, &ce)| {
            let h = HostId(i as u32 + 1);
            (h, c.spawn_thread(h, Box::new(CsClient::new(ce.ep, cs.bytes))))
        })
        .collect();

    // Warm up, snapshot, measure.
    c.run_for(cs.warmup);
    let snap: Vec<u64> = client_tids
        .iter()
        .map(|&(h, t)| c.body::<CsClient>(h, t).unwrap().completed)
        .collect();
    let tel0 = c.telemetry().snapshot();

    c.run_for(cs.measure);

    let secs = cs.measure.as_secs_f64();
    let mut per_client = Vec::new();
    let mut rtt_pool = Sampler::default();
    for (i, &(h, t)) in client_tids.iter().enumerate() {
        let body = c.body::<CsClient>(h, t).unwrap();
        per_client.push((body.completed - snap[i]) as f64 / secs);
        let mut s = body.rtt.clone();
        // Pool a subsample to keep result sizes bounded.
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            if s.count() > 0 {
                rtt_pool.record(s.quantile(q));
            }
        }
    }
    let aggregate: f64 = per_client.iter().sum();
    // What happened during the measurement window, via the unified
    // telemetry snapshot delta (counters subtract; `net.packets` is the
    // fabric-wide frame total).
    let delta = c.telemetry().delta_since(&tel0);
    let nic_sum =
        |m: &str| -> u64 { (0..=n).map(|h| delta.counter(&format!("host{h}.nic.{m}"))).sum() };

    let result = CsResult {
        aggregate,
        aggregate_mb_s: aggregate * cs.bytes as f64 / 1e6,
        per_client,
        remaps_per_sec: delta.counter(&format!("host{}.os.loads", server_host.0)) as f64 / secs,
        rtt_us: rtt_pool,
        nacks_not_resident: nic_sum("nacks_rx_not_resident"),
        nacks_queue_full: nic_sum("nacks_rx_queue_full"),
        retransmits: nic_sum("retransmits"),
        wire_frames: delta.counter("net.packets"),
    };
    (result, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut cs: CsConfig) -> CsResult {
        cs.warmup = SimDuration::from_millis(300);
        cs.measure = SimDuration::from_millis(1500);
        run_client_server(&cs)
    }

    #[test]
    fn one_vn_single_client_near_peak() {
        let r = quick(CsConfig::small(1, CsMode::OneVn, 8));
        // One client against a 78K msg/s server: client-bound at roughly
        // window/RTT but still tens of thousands per second.
        assert!(r.aggregate > 30_000.0, "aggregate {}", r.aggregate);
        assert_eq!(r.remaps_per_sec, 0.0, "no remapping with one endpoint");
    }

    #[test]
    fn one_vn_scales_to_server_limit_with_fair_shares() {
        let r = quick(CsConfig::small(4, CsMode::OneVn, 8));
        assert!(r.aggregate > 50_000.0, "aggregate {}", r.aggregate);
        let max = r.per_client.iter().cloned().fold(0.0, f64::max);
        let min = r.per_client.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.25 * max, "unfair shares: {:?}", r.per_client);
    }

    #[test]
    fn st_overcommit_remaps_but_survives() {
        // 10 clients > 8 frames: the thrash regime.
        let r = quick(CsConfig::small(10, CsMode::St, 8));
        assert!(r.remaps_per_sec > 50.0, "remaps/s {}", r.remaps_per_sec);
        assert!(r.nacks_not_resident > 0, "must see NotResident NACKs");
        assert!(
            r.aggregate > 10_000.0,
            "graceful degradation, not collapse: {}",
            r.aggregate
        );
        // Every client still makes progress (fair service over time).
        for (i, &p) in r.per_client.iter().enumerate() {
            assert!(p > 100.0, "client {i} starved: {p}");
        }
    }

    #[test]
    fn mt_overcommit_is_resilient() {
        let r = quick(CsConfig::small(10, CsMode::Mt, 8));
        assert!(r.aggregate > 10_000.0, "MT aggregate {}", r.aggregate);
        assert!(r.remaps_per_sec > 50.0);
    }

    #[test]
    fn frames_96_avoid_remapping() {
        let r = quick(CsConfig::small(10, CsMode::St, 96));
        assert_eq!(r.remaps_per_sec, 0.0, "96 frames fit 10 endpoints");
        assert_eq!(r.nacks_not_resident, 0);
    }

    #[test]
    fn bulk_single_client_bandwidth() {
        let r = quick(CsConfig::bulk(1, CsMode::OneVn, 8));
        assert!(
            (15.0..46.8).contains(&r.aggregate_mb_s),
            "bulk MB/s {}",
            r.aggregate_mb_s
        );
    }
}
