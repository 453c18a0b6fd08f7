//! Seeded property test for the migration building block: endpoints are
//! repeatedly paged out to swap and faulted back in **while client traffic
//! is flowing**, across several seeds. Residency state, credits, and the
//! NI frame ledger must all be conserved — the cross-layer auditor checks
//! every invariant, and every request must be answered exactly once.
//!
//! This isolates the §4 residency round trip (NicRw → HostRo → Disk →
//! PagingIn → Host → Loading → NicRw) that live migration is built from:
//! the control plane's `begin_migrate_out` is the same eviction machinery
//! with the remap path held shut.

use vnet::prelude::*;
use vnet::sim::telemetry::MetricSet;
use vnet::sim::SimRng;
use vnet::{Cluster, ClusterConfig};

/// Echo service; replies are retried under send-queue backpressure.
struct Echo {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        let stash = std::mem::take(&mut self.pending);
        for m in stash {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
            }
        }
        if self.pending.is_empty() {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// Client pushing `total` requests through translation index 1 (its pair
/// network lists the client itself at slot 0, the service at slot 1).
struct Client {
    ep: EpId,
    total: u32,
    sent: u32,
    replies: u32,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            assert!(!m.undeliverable, "pageout churn must never bounce a message");
            self.replies += 1;
        }
        while self.sent < self.total {
            match sys.request(self.ep, 1, 1, [u64::from(self.sent), 0, 0, 0], 0) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) | Err(SendError::QueueFull) => {
                    return Step::WaitEvent(self.ep)
                }
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(e) => panic!("send failed: {e:?}"),
            }
        }
        if self.replies >= self.total {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

/// One seeded run: 4 client/service pairs across 2 hosts with only 2 NI
/// frames per interface, so §4 residency churns constantly; between run
/// slices a seeded chooser forces LRU pageouts on both hosts so parked
/// endpoints round-trip through swap mid-conversation.
fn churn_run(seed: u64) {
    const PAIRS: usize = 4;
    let mut rng = SimRng::seed_from_u64(seed);
    let total = 30 + (rng.below(31) as u32); // 30..=60 requests per client

    let mut cfg = ClusterConfig::now(2).with_seed(seed).with_audit(true);
    cfg.nic.frames = 2; // frame pressure: 4 active endpoints, 2 frames
    let mut c = Cluster::new(cfg);

    let mut clients = Vec::new();
    for _ in 0..PAIRS {
        let cl = c.create_endpoint(HostId(0));
        let sv = c.create_endpoint(HostId(1));
        c.build_virtual_network(&[cl, sv]);
        c.spawn_thread(HostId(1), Box::new(Echo { ep: sv.ep, pending: Vec::new() }));
        let tid = c.spawn_thread(
            HostId(0),
            Box::new(Client { ep: cl.ep, total, sent: 0, replies: 0 }),
        );
        clients.push(tid);
    }

    // Churn phase: 160 slices of 250 µs (40 ms); each slice pages the
    // LRU parked endpoint out to swap on a seeded coin flip, per host.
    for _ in 0..160 {
        c.run_for(SimDuration::from_micros(250));
        for h in [HostId(1), HostId(0)] {
            if rng.below(2) == 0 {
                c.force_pageout_lru(h);
            }
        }
    }
    // Drain phase: no more forced pageouts; let every conversation finish.
    c.run_for(SimDuration::from_millis(200));

    for &tid in &clients {
        let cl: &Client = c.body(HostId(0), tid).expect("client body");
        assert_eq!(
            cl.replies, total,
            "seed {seed:#x}: client lost replies under pageout churn (sent {})",
            cl.sent
        );
    }
    // The churn actually exercised the round trip on the service host.
    let stats = c.os(HostId(1)).stats();
    assert!(stats.counter_value("page_outs") > 0, "seed {seed:#x}: no pageout happened");
    assert!(stats.counter_value("page_ins") > 0, "seed {seed:#x}: no pagein happened");
    // Residency census is conserved: everything settled out of swap and
    // out of transition once traffic stopped.
    let (resident, host, disk, trans) = c.os(HostId(1)).census();
    assert_eq!(resident + host + disk + trans, PAIRS, "endpoints leaked or vanished");
    assert_eq!(trans, 0, "endpoints stuck mid-transition after quiesce");
    // Credits and the frame ledger: every post resolved by exactly one
    // delivery, and the auditor (which also checks frame occupancy and
    // credit conservation continuously) saw nothing.
    let counters = c.auditor().counters();
    assert_eq!(counters.posted, counters.delivered, "unresolved or duplicated posts");
    if let Err(report) = c.audit() {
        panic!("seed {seed:#x} violated an invariant:\n{report}");
    }
}

#[test]
fn pageout_pagein_roundtrip_conserves_state_across_seeds() {
    for seed in [0x00AD_BEEF_u64, 0x1CEB_00DA, 0x5EED_0003, 0xFACE_FEED] {
        churn_run(seed);
    }
}
