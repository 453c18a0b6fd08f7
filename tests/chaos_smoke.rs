//! Fixed-seed chaos smoke: one scheduled fault campaign — link flaps, a
//! whole-spine-switch failure, a degraded window, and Gilbert–Elliott
//! bursty errors — on the small fat tree, with the invariant auditor
//! forced on. The run must complete with **zero** violations, every
//! message resolved exactly once, at least one route failover, and the
//! bounded time-to-recovery check clean.
//!
//! Honors `VNET_SHARDS` (the CI chaos job runs it at 1 and 4 shards);
//! the explicit seed makes every run byte-reproducible.

use vnet::net::{FaultScheduleSpec, GilbertElliott, LinkId, TopologySpec};
use vnet::prelude::*;
use vnet::sim::MsgFate;

/// Echo server: replies to every request, retrying under backpressure.
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

/// Client: `total` requests to translation 0, counting replies.
struct Client {
    ep: EpId,
    total: u32,
    sent: u32,
    replies: u32,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while self.sent < self.total {
            match sys.request(self.ep, 0, 1, [self.sent as u64, 0, 0, 0], 0) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) => break,
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(e) => panic!("send failed: {e:?}"),
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if !m.undeliverable {
                self.replies += 1;
            }
        }
        if self.replies == self.total {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

fn at_us(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

/// The seeded campaign, on the small fat tree (H=8, L=4, S=2; link
/// layout: host-up `[0,8)`, leaf-down `[8,16)`, leaf-up `16 + l*S + s`,
/// spine-down `24 + l*S + s`; switches: leaves `0..4`, spines `4..6`):
/// two flaps on leaf uplinks, spine switch 0 dead for a millisecond, a
/// degraded spine-down window, and mild bursty errors throughout.
fn campaign() -> FaultScheduleSpec {
    FaultScheduleSpec::none()
        .flap(LinkId(16), at_us(300), at_us(1_500))
        .flap(LinkId(21), at_us(3_500), at_us(4_200))
        .fail_switch(4, at_us(2_000), at_us(3_000))
        .degrade(LinkId(27), at_us(1_000), at_us(4_000), 0.2, 0.05)
        .with_bursty(GilbertElliott::mild())
}

#[test]
fn seeded_campaign_recovers_clean() {
    let n: u32 = 8;
    let mut cfg = ClusterConfig::now(n)
        .with_seed(0xC4A0_57E5)
        .with_audit(true)
        .with_telemetry(true)
        .with_faults(campaign());
    cfg.topology = TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 };
    let mut c = Cluster::new(cfg);

    // Request ring: host i's client targets host (i+1) % n's server, so
    // every spine trunk carries traffic through every fault window.
    let servers: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    let clients: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    let total = 300;
    let mut tids = Vec::new();
    for h in 0..n {
        c.connect(clients[h as usize], 0, servers[((h + 1) % n) as usize]);
        c.spawn_thread(
            HostId(h),
            Box::new(Echo { ep: servers[h as usize].ep, pending: Vec::new() }),
        );
        let tid = c.spawn_thread(
            HostId(h),
            Box::new(Client { ep: clients[h as usize].ep, total, sent: 0, replies: 0 }),
        );
        tids.push((HostId(h), tid));
    }
    c.run_for(SimDuration::from_millis(30));

    // Bounded time-to-recovery: everything posted must be resolved well
    // before `horizon + bound` (the run left ~26 ms after the last
    // transition; demand a 10 ms bound).
    assert!(c.fault_horizon() == at_us(4_200), "campaign horizon");
    c.check_recovery(SimDuration::from_millis(10));
    if let Err(report) = c.audit() {
        panic!("chaos campaign must finish with zero violations:\n{report}");
    }

    // Exactly-once: every client got every reply, and the delivery ledger
    // holds no unresolved or bounced message.
    for &(h, tid) in &tids {
        let b: &Client = c.body(h, tid).expect("client body");
        assert_eq!(b.replies, total, "client on {h} must see every reply exactly once");
    }
    let ledger = c.auditor().ledger_snapshot();
    assert!(!ledger.is_empty());
    assert!(
        ledger.iter().all(|&(_, f)| f == MsgFate::Delivered),
        "every message must resolve to Delivered"
    );

    // The campaign must actually have exercised the recovery machinery:
    // fabric drops in every scheduled category, and at least one route
    // failover around a scheduled-down link.
    let snap = c.telemetry().snapshot();
    let nic = |m: &str| (0..n).map(|h| snap.counter(&format!("host{h}.nic.{m}"))).sum::<u64>();
    assert!(snap.counter("net.drop_link_down") > 0, "down windows must drop packets");
    assert!(snap.counter("net.drop_burst") > 0, "bursty chains must drop packets");
    assert!(nic("retransmits") > 0, "drops must provoke retransmissions");
    let failovers = nic("failovers");
    assert!(failovers > 0, "a flapped trunk with idle alternates must fail over");
    let log = c.telemetry().span_log();
    let logged = log.lines().filter(|l| l.contains(" nic.fw/failover ")).count() as u64;
    assert_eq!(logged, failovers, "span log and NIC stats must agree on failovers");
}
