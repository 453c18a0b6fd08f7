//! §3.2 — transparent hot-swap of links.
//!
//! "We cannot assume a perfectly reliable interconnect … because we want
//! the communication system to support hot-swap of links and switches for
//! incremental scaling and to adapt to changes in the physical topology
//! transparently. Thus, the substrate should mask transient transport and
//! reconfiguration errors, yet provide a clean way for error-aware
//! programs to handle serious conditions."
//!
//! This table takes a link down mid-stream for increasing outage
//! durations and reports how the delivery model responds: short outages
//! are masked entirely by retransmission; beyond the retry budget
//! (`max_unbind_cycles` of channel unbind/rebind), messages return to
//! their senders as undeliverable — the clean error path.

use vnet_bench::Table;
use vnet_core::prelude::*;
use vnet_core::{Cluster, ClusterConfig};
use vnet_sim::SimTime;

struct Echo {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            if sys.reply(self.ep, &m, 0, [0; 4], 0).is_err() {
                self.pending.push(m);
                return Step::Yield;
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            if sys.reply(self.ep, &m, 0, [0; 4], 0).is_err() {
                self.pending.push(m);
                return Step::Yield;
            }
        }
        Step::WaitEvent(self.ep)
    }
}

struct Client {
    ep: EpId,
    total: u32,
    sent: u32,
    pub replies: u32,
    pub bounces: u32,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while self.sent < self.total {
            match sys.request(self.ep, 0, 0, [0; 4], 0) {
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

fn run_outage(outage_ms: u64) -> (u32, u32, u64, f64) {
    let total = 300u32;
    let mut c = Cluster::new(ClusterConfig::now(2));
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.connect(a, 0, b);
    c.spawn_thread(HostId(1), Box::new(Echo { ep: b.ep, pending: vec![] }));
    let t = c.spawn_thread(HostId(0), Box::new(Client { ep: a.ep, total, sent: 0, replies: 0, bounces: 0 }));
    // Let the stream establish, then cut the server's receive link.
    c.run_for(SimDuration::from_millis(2));
    let down = c.world_of(HostId(1)).fabric.topology().host_down_link(HostId(1));
    c.set_link_up(down, false);
    c.run_for(SimDuration::from_millis(outage_ms));
    c.set_link_up(down, true);
    c.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let cl: &Client = c.body(HostId(0), t).expect("client");
    let retx = c.telemetry().snapshot().counter("host0.nic.retransmits");
    (cl.replies, cl.bounces, retx, c.now().as_secs_f64())
}

fn main() {
    vnet_bench::init_shards_env();
    let mut t = Table::new(
        "Section 3.2: link hot-swap — outage duration vs delivery outcome (300 requests)",
        &["outage (ms)", "delivered", "returned to sender", "retransmissions", "outcome"],
    );
    for outage in [0u64, 5, 20, 60, 150, 400, 1500] {
        let (ok, bounced, retx, _) = run_outage(outage);
        let outcome = if bounced == 0 {
            "masked (transparent)"
        } else if ok > 0 {
            "partial: tail returned to sender"
        } else {
            "error path: all returned to sender"
        };
        t.row(vec![
            outage.to_string(),
            ok.to_string(),
            bounced.to_string(),
            retx.to_string(),
            outcome.into(),
        ]);
        assert_eq!(ok + bounced, 300, "every message accounted for");
    }
    t.emit("tbl_hotswap");
    println!(
        "Short outages are bridged by the randomized-backoff retransmission of section 5.1;"
    );
    println!(
        "long ones exhaust the channel unbind budget and invoke the return-to-sender error"
    );
    println!("model of section 3.2 - no message is ever silently lost.");
}
