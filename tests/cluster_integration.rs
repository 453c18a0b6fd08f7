//! Whole-stack integration tests: application threads → user-level library
//! → OS segment driver → NIC firmware → fabric and back, across multiple
//! nodes.

use vnet::prelude::*;
use vnet::{Cluster, ClusterConfig};

/// Echo thread used across tests. Replies are retried under send-queue
/// backpressure (dropping one would leak the client's credit).
struct Echo {
    ep: EpId,
    served: u64,
    pending: Vec<DeliveredMsg>,
}

impl Echo {
    fn new(ep: EpId) -> Self {
        Echo { ep, served: 0, pending: Vec::new() }
    }

    fn answer(&mut self, sys: &mut Sys<'_>, m: DeliveredMsg) {
        match sys.reply(self.ep, &m, 0, m.msg.args, m.msg.payload_bytes.min(64)) {
            Ok(_) => self.served += 1,
            Err(_) => self.pending.push(m),
        }
    }
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            let before = self.pending.len();
            self.answer(sys, m);
            if self.pending.len() > before {
                return Step::Yield; // still backpressured
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            self.answer(sys, m);
        }
        if self.pending.is_empty() {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// Client sending a fixed number of requests to one translation index.
struct Client {
    ep: EpId,
    idx: usize,
    total: u32,
    bytes: u32,
    sent: u32,
    replies: u32,
    bounces: u32,
}

impl Client {
    fn new(ep: EpId, idx: usize, total: u32, bytes: u32) -> Self {
        Client { ep, idx, total, bytes, sent: 0, replies: 0, bounces: 0 }
    }
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while self.sent < self.total {
            match sys.request(self.ep, self.idx, 1, [self.sent as u64, 0, 0, 0], self.bytes) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(e) => panic!("{e:?}"),
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if m.undeliverable {
                self.bounces += 1;
            } else {
                self.replies += 1;
            }
        }
        if self.replies + self.bounces == self.total {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

#[test]
fn three_party_virtual_network() {
    // Three processes on three nodes, all-pairs virtual network; each
    // rank sends to both peers and answers both peers.
    struct Both {
        ep: EpId,
        me: usize,
        total_each: u32,
        sent: [u32; 2],
        replies: u32,
        served: u64,
        pending: Vec<DeliveredMsg>,
    }
    impl Both {
        fn peer_idx(&self, k: usize) -> usize {
            let others: Vec<usize> = (0..3).filter(|&i| i != self.me).collect();
            others[k]
        }
    }
    impl ThreadBody for Both {
        fn run(&mut self, sys: &mut Sys<'_>) -> Step {
            let mut progressed = false;
            for k in 0..2usize {
                while self.sent[k] < self.total_each {
                    let idx = self.peer_idx(k);
                    match sys.request(self.ep, idx, 0, [0; 4], 0) {
                        Ok(_) => {
                            self.sent[k] += 1;
                            progressed = true;
                        }
                        Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                        Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                        Err(e) => panic!("{e:?}"),
                    }
                }
            }
            while let Some(m) = self.pending.pop() {
                if sys.reply(self.ep, &m, 0, [0; 4], 0).is_err() {
                    self.pending.push(m);
                    break;
                }
                self.served += 1;
                progressed = true;
            }
            while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
                if sys.reply(self.ep, &m, 0, [0; 4], 0).is_err() {
                    self.pending.push(m);
                } else {
                    self.served += 1;
                }
                progressed = true;
            }
            while sys.poll(self.ep, QueueSel::Reply).is_some() {
                self.replies += 1;
                progressed = true;
            }
            if self.replies == 2 * self.total_each
                && self.served >= 2 * self.total_each as u64
            {
                return Step::Exit;
            }
            if progressed {
                Step::Yield
            } else {
                Step::WaitEvent(self.ep)
            }
        }
    }

    let mut c = Cluster::new(ClusterConfig::now(3));
    let eps: Vec<GlobalEp> = (0..3).map(|i| c.create_endpoint(HostId(i))).collect();
    c.build_virtual_network(&eps);
    let tids: Vec<Tid> = (0..3)
        .map(|i| {
            c.spawn_thread(
                HostId(i as u32),
                Box::new(Both {
                    ep: eps[i].ep,
                    me: i,
                    total_each: 25,
                    sent: [0; 2],
                    replies: 0,
                    served: 0,
                    pending: Vec::new(),
                }),
            )
        })
        .collect();
    c.run_for(SimDuration::from_secs(5));
    for (i, &t) in tids.iter().enumerate() {
        let b: &Both = c.body(HostId(i as u32), t).unwrap();
        assert_eq!(b.replies, 50, "rank {i} replies");
        assert_eq!(b.served, 50, "rank {i} served");
    }
}

#[test]
fn bulk_and_small_interleaved() {
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    let small = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 60, 0)));
    // A second endpoint on host 0 streams bulk to the same server.
    let a2 = c.create_endpoint(HostId(0));
    c.connect(a2, 1, b);
    let bulk = c.spawn_thread(HostId(0), Box::new(Client::new(a2.ep, 1, 40, 8192)));
    c.run_for(SimDuration::from_secs(10));
    let s: &Client = c.body(HostId(0), small).unwrap();
    let l: &Client = c.body(HostId(0), bulk).unwrap();
    assert_eq!(s.replies, 60);
    assert_eq!(l.replies, 40);
    assert_eq!(s.bounces + l.bounces, 0);
}

#[test]
fn survives_transmission_errors_end_to_end() {
    let mut cfg = ClusterConfig::now(2);
    cfg.drop_prob = 0.05;
    cfg.corrupt_prob = 0.02;
    let mut c = Cluster::new(cfg);
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 100, 0)));
    c.run_for(SimDuration::from_secs(20));
    let cl: &Client = c.body(HostId(0), t).unwrap();
    assert_eq!(cl.replies, 100, "exactly-once delivery through a lossy fabric");
    assert_eq!(cl.bounces, 0);
    assert!(
        c.telemetry().snapshot().counter("host0.nic.retransmits") > 0,
        "losses must be recovered by retransmission"
    );
}

#[test]
fn endpoint_overcommit_on_one_host() {
    // 12 endpoints on one 8-frame host, each talking to its own peer on
    // the other host: every conversation completes despite remapping.
    let mut c = Cluster::new(ClusterConfig::now(2));
    let mut pairs = Vec::new();
    for _ in 0..12 {
        let a = c.create_endpoint(HostId(0));
        let b = c.create_endpoint(HostId(1));
        c.connect(a, 1, b);
        c.connect(b, 1, a);
        pairs.push((a, b));
    }
    let mut tids = Vec::new();
    for &(a, b) in &pairs {
        c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
        tids.push(c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 30, 0))));
    }
    c.run_for(SimDuration::from_secs(30));
    for (i, &t) in tids.iter().enumerate() {
        let cl: &Client = c.body(HostId(0), t).unwrap();
        assert_eq!(cl.replies, 30, "conversation {i} completes");
    }
    // Both hosts overcommitted: remapping must have occurred on h0 and h1.
    let snap = c.telemetry().snapshot();
    assert!(snap.counter("host0.os.unloads") > 0, "h0 evictions");
    assert!(snap.counter("host1.os.unloads") > 0, "h1 evictions");
}

#[test]
fn pageout_endpoint_comes_back() {
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    // Page the client endpoint out to the swap area before any use.
    assert!(c.world_of_mut(HostId(0)).os_mut(0).pageout(a.ep));
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 10, 0)));
    c.run_for(SimDuration::from_secs(5));
    let cl: &Client = c.body(HostId(0), t).unwrap();
    assert_eq!(cl.replies, 10, "swap-in (vm pageout path) must recover");
    assert!(c.telemetry().snapshot().counter("host0.os.page_ins") >= 1);
}

#[test]
fn full_now_cluster_smoke() {
    // All 100 nodes of the fat tree exchange one round with a neighbour.
    let mut c = Cluster::new(ClusterConfig::now(100));
    let eps: Vec<GlobalEp> =
        (0..100).map(|i| c.create_endpoint(HostId(i))).collect();
    // Pairwise rings: node i talks to node (i+50) % 100 (crosses spines).
    let mut tids = Vec::new();
    for i in 0..50u32 {
        let a = eps[i as usize];
        let b = eps[(i + 50) as usize];
        c.connect(a, 1, b);
        c.connect(b, 1, a);
        c.spawn_thread(HostId(i + 50), Box::new(Echo::new(b.ep)));
        tids.push((HostId(i), c.spawn_thread(HostId(i), Box::new(Client::new(a.ep, 1, 20, 0)))));
    }
    c.run_for(SimDuration::from_secs(5));
    for &(h, t) in &tids {
        let cl: &Client = c.body(h, t).unwrap();
        assert_eq!(cl.replies, 20, "pair at {h} completes");
    }
}

#[test]
fn deterministic_full_stack() {
    let run = |seed| {
        let mut c = Cluster::new(ClusterConfig::now(4).with_seed(seed));
        let eps: Vec<GlobalEp> = (0..4).map(|i| c.create_endpoint(HostId(i))).collect();
        c.build_virtual_network(&eps);
        for i in 1..4u32 {
            c.spawn_thread(HostId(i), Box::new(Echo::new(eps[i as usize].ep)));
        }
        let t = c.spawn_thread(HostId(0), Box::new(Client::new(eps[0].ep, 1, 50, 0)));
        c.run_for(SimDuration::from_millis(500));
        let cl: &Client = c.body(HostId(0), t).unwrap();
        let sent = c.telemetry().snapshot().counter("host0.nic.data_sent");
        (c.events_processed(), cl.replies, sent)
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).0, run(100).0, "different seeds explore different schedules");
}

#[test]
fn hot_swap_link_mid_conversation() {
    // §3.2: the substrate must "support hot-swap of links and switches for
    // incremental scaling and adapt to changes in the physical topology
    // transparently". Kill the server's receive link mid-stream, restore
    // it, and require every message to complete exactly once.
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 200, 0)));
    c.run_for(SimDuration::from_millis(2));
    // Crossbar link layout: link (hosts + dst) is the receive link of dst.
    let down = c.world_of(HostId(1)).fabric.topology().host_down_link(HostId(1));
    c.set_link_up(down, false);
    c.run_for(SimDuration::from_millis(40));
    c.set_link_up(down, true);
    c.run_for(SimDuration::from_secs(10));
    let cl: &Client = c.body(HostId(0), t).unwrap();
    assert_eq!(cl.replies + cl.bounces, 200, "stream must finish after the swap");
    assert!(cl.replies >= 190, "nearly all survive: {} replies {} bounces", cl.replies, cl.bounces);
    assert!(
        c.telemetry().snapshot().counter("host0.nic.retransmits") > 0,
        "the outage must be bridged by retransmission"
    );
}

#[test]
fn name_service_rendezvous() {
    let mut c = Cluster::new(ClusterConfig::now(2));
    let server = c.create_endpoint(HostId(1));
    c.register_name("nfs/server0", server);
    let client = c.create_endpoint(HostId(0));
    assert!(c.connect_by_name(client, 0, "nfs/server0"));
    assert!(!c.connect_by_name(client, 1, "no/such/name"));
    c.spawn_thread(HostId(1), Box::new(Echo::new(server.ep)));
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(client.ep, 0, 5, 0)));
    c.run_for(SimDuration::from_millis(50));
    let cl: &Client = c.body(HostId(0), t).unwrap();
    assert_eq!(cl.replies, 5, "named rendezvous carries real traffic");
}

#[test]
fn destroyed_endpoint_bounces_late_traffic() {
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    // Warm the pair with one exchange.
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 3, 0)));
    c.run_for(SimDuration::from_millis(50));
    assert_eq!(c.body::<Client>(HostId(0), t).unwrap().replies, 3);
    // Kill the server endpoint (process exit), then send again.
    c.destroy_endpoint(b);
    c.run_for(SimDuration::from_millis(20));
    assert!(!c.os(HostId(1)).exists(b.ep), "endpoint freed");
    let t2 = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 2, 0)));
    c.run_for(SimDuration::from_secs(2));
    let cl: &Client = c.body(HostId(0), t2).unwrap();
    assert_eq!(cl.bounces, 2, "traffic to a dead endpoint returns to sender");
    assert_eq!(cl.replies, 0);
}

#[test]
fn clean_runs_pass_the_invariant_audit() {
    // The cross-layer auditor observes every run (debug builds check at
    // each run_for boundary automatically); a healthy lossy run must come
    // out violation-free, with the ledger fully resolved.
    let mut cfg = ClusterConfig::now(2);
    cfg.drop_prob = 0.05;
    let mut c = Cluster::new(cfg);
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 50, 0)));
    c.run_for(SimDuration::from_secs(10));
    assert_eq!(c.body::<Client>(HostId(0), t).unwrap().replies, 50);
    c.audit().expect("healthy run must satisfy every invariant");
    let counters = c.auditor().counters();
    assert_eq!(counters.posted, counters.delivered, "every post resolved by a delivery");
    let snap = c.telemetry().snapshot();
    let retx = snap.counter("host0.nic.retransmits") + snap.counter("host1.nic.retransmits");
    assert!(retx > 0, "the lossy fabric forced retransmissions");
}

/// Mutation check: break exactly-once on purpose (uid dedup disabled,
/// aggressive unbind churn over a lossy link → a retransmitted copy lands
/// after its unbound original already delivered) and require the auditor
/// to catch it with the named invariant and the span-log tail.
#[test]
fn audit_catches_double_delivery() {
    let mut cfg = ClusterConfig::now(2);
    cfg.nic.dedup_window = 0; // the mutation: no duplicate suppression
    cfg.nic.max_retx_before_unbind = 1; // churn channels hard
    cfg.drop_prob = 0.30; // lose enough acks to force rebinds
    cfg.telemetry = true; // the report carries the span-log tail
    let mut c = Cluster::new(cfg);
    c.telemetry().set_debug_audit(false); // we *expect* violations; inspect manually
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    c.spawn_thread(HostId(1), Box::new(Echo::new(b.ep)));
    c.spawn_thread(HostId(0), Box::new(Client::new(a.ep, 1, 40, 0)));
    c.run_for(SimDuration::from_secs(30));
    let report = c.audit().expect_err("disabling dedup must break exactly-once");
    assert!(
        report.contains("audit.exactly-once"),
        "violation must be named:\n{report}"
    );
    assert!(
        report.contains("span log, last 64 of "),
        "report must carry the span-log tail:\n{report}"
    );
    assert!(report.contains("nic.fw/unbind instant"), "the tail shows the churn:\n{report}");
}

/// Mutation check: a component that acquires credits without limit (here
/// simulated by driving the auditor's hook directly, as a buggy user-level
/// library would) trips the credit-conservation invariant.
#[test]
fn audit_catches_credit_leak() {
    let mut c = Cluster::new(ClusterConfig::now(2));
    c.telemetry().set_debug_audit(false);
    let a = c.create_endpoint(HostId(0));
    let auditor = c.world_of(HostId(0)).auditor.clone();
    {
        let mut aud = auditor.borrow_mut();
        // 33 acquisitions against the 32-credit window, none released.
        for uid in 0..33u64 {
            aud.on_credit_acquire(c.now(), 0, a.ep.0, 0, 1000 + uid);
        }
    }
    let report = c.audit().expect_err("an overflowed credit window must be caught");
    assert!(
        report.contains("audit.credit-conservation"),
        "violation must be named:\n{report}"
    );
}

#[test]
fn process_exit_tears_everything_down() {
    let mut c = Cluster::new(ClusterConfig::now(2));
    let mut server_proc = vnet::corelib::cluster::Process::new(HostId(1));
    let sv = c.create_process_endpoint(&mut server_proc);
    c.spawn_process_thread(&mut server_proc, Box::new(Echo::new(sv.ep)));
    let cl = c.create_endpoint(HostId(0));
    c.connect(cl, 0, sv);
    let t = c.spawn_thread(HostId(0), Box::new(Client::new(cl.ep, 0, 5, 0)));
    c.run_for(SimDuration::from_millis(50));
    assert_eq!(c.body::<Client>(HostId(0), t).unwrap().replies, 5);
    // Kill the server process wholesale.
    c.exit_process(&server_proc);
    c.run_for(SimDuration::from_millis(20));
    assert!(!c.os(HostId(1)).exists(sv.ep), "endpoints freed on exit");
    assert_eq!(c.sched(HostId(1)).live_threads(), 0, "threads reaped on exit");
    // New traffic bounces.
    let t2 = c.spawn_thread(HostId(0), Box::new(Client::new(cl.ep, 0, 2, 0)));
    c.run_for(SimDuration::from_secs(2));
    assert_eq!(c.body::<Client>(HostId(0), t2).unwrap().bounces, 2);
}
