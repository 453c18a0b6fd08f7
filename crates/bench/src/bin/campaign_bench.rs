//! Chaos-campaign bench: scheduled fault campaigns on the small fat
//! tree, reporting the **time-to-recovery distribution** — for every
//! message that entered trouble (its retransmission timer expired), the
//! time from that first expiry to its acknowledgment.
//!
//! Each scenario is one seeded campaign (§3.2's masked-error regime):
//! link flaps exercise route failover over the §5.1 multipath channels,
//! a whole-spine-switch failure forces every trunk through the surviving
//! spine, degrade windows and Gilbert–Elliott bursts exercise plain
//! retransmission. The invariant auditor runs throughout; every scenario
//! must finish with zero violations and every message delivered
//! exactly once.
//!
//! Accepts `--shards <n>` (or `VNET_SHARDS`) like every bench binary;
//! campaigns are delivered through the event queue, so the reported
//! distributions are byte-identical for any shard count.

use vnet_bench::Table;
use vnet_core::prelude::*;
use vnet_core::{Cluster, ClusterConfig};
use vnet_net::{FaultScheduleSpec, GilbertElliott, LinkId, TopologySpec};
use vnet_sim::stats::Sampler;
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
    replies: u32,
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
            assert!(!m.undeliverable, "campaign must mask faults, not bounce");
            self.replies += 1;
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

/// Small-fat-tree link layout (H=8, L=4, S=2): host-up `[0,8)`,
/// leaf-down `[8,16)`, leaf-up `16 + l*S + s`, spine-down `24 + l*S + s`;
/// switches: leaves `0..4`, spines `4..6`.
fn scenarios() -> Vec<(&'static str, FaultScheduleSpec)> {
    vec![
        (
            "link flaps (failover)",
            FaultScheduleSpec::none()
                .flap(LinkId(16), at_us(300), at_us(1_500))
                .flap(LinkId(21), at_us(3_500), at_us(4_200)),
        ),
        (
            "spine switch dead 1 ms",
            FaultScheduleSpec::none().fail_switch(4, at_us(2_000), at_us(3_000)),
        ),
        (
            "bursty errors (G-E mild)",
            FaultScheduleSpec::none().with_bursty(GilbertElliott::mild()),
        ),
        (
            "full campaign",
            FaultScheduleSpec::none()
                .flap(LinkId(16), at_us(300), at_us(1_500))
                .flap(LinkId(21), at_us(3_500), at_us(4_200))
                .fail_switch(4, at_us(2_000), at_us(3_000))
                .degrade(LinkId(27), at_us(1_000), at_us(4_000), 0.2, 0.05)
                .with_bursty(GilbertElliott::mild()),
        ),
    ]
}

const SEED: u64 = 0xC4A0_57E5;

struct RunOut {
    recovery: Sampler,
    failovers: u64,
    unbinds: u64,
    retransmits: u64,
    shards: u32,
}

/// Run one campaign over the request ring; panics unless it completes
/// clean (zero violations, every reply delivered, recovery bounded).
fn run_campaign(name: &str, spec: FaultScheduleSpec) -> RunOut {
    let n: u32 = 8;
    let total = 300u32;
    let mut cfg = ClusterConfig::now(n)
        .with_seed(SEED)
        .with_audit(true)
        .with_telemetry(true)
        .with_faults(spec);
    cfg.topology = TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 };
    let mut c = Cluster::new(cfg);
    let servers: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    let clients: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    let mut tids = Vec::new();
    for h in 0..n {
        c.connect(clients[h as usize], 0, servers[((h + 1) % n) as usize]);
        c.spawn_thread(HostId(h), Box::new(Echo { ep: servers[h as usize].ep, pending: vec![] }));
        let tid = c.spawn_thread(
            HostId(h),
            Box::new(Client { ep: clients[h as usize].ep, total, sent: 0, replies: 0 }),
        );
        tids.push((HostId(h), tid));
    }
    c.run_for(SimDuration::from_millis(30));
    c.check_recovery(SimDuration::from_millis(10));
    if let Err(report) = c.audit() {
        panic!("campaign '{name}' violated an invariant:\n{report}");
    }
    for &(h, tid) in &tids {
        let cl: &Client = c.body(h, tid).expect("client");
        assert_eq!(cl.replies, total, "campaign '{name}': client on {h} lost replies");
    }
    let mut out = RunOut {
        recovery: Sampler::default(),
        failovers: 0,
        unbinds: 0,
        retransmits: 0,
        shards: c.shards(),
    };
    for h in 0..n {
        let s = c.nic(HostId(h)).stats();
        out.recovery.absorb(&s.recovery_us());
        out.failovers += s.counter_value("failovers");
        out.unbinds += s.counter_value("unbinds");
        out.retransmits += s.counter_value("retransmits");
    }
    vnet_bench::emit_telemetry(&format!("campaign_{}", name.split(' ').next().unwrap()), &c);
    out
}

fn main() {
    vnet_bench::init_shards_env();
    let mut t = Table::new(
        "Chaos campaigns: time-to-recovery (first RTO expiry to ack), 8-host fat tree, \
         2400 requests, auditor on, zero violations required",
        &[
            "campaign",
            "troubled msgs",
            "p50 (us)",
            "p90 (us)",
            "p99 (us)",
            "max (us)",
            "failovers",
            "unbinds",
            "retransmits",
            "seed",
            "shards",
        ],
    );
    for (name, spec) in scenarios() {
        let mut r = run_campaign(name, spec);
        let mut row = vec![
            name.to_string(),
            r.recovery.count().to_string(),
            format!("{:.1}", r.recovery.quantile(0.5)),
            format!("{:.1}", r.recovery.quantile(0.9)),
            format!("{:.1}", r.recovery.quantile(0.99)),
            format!("{:.1}", r.recovery.quantile(1.0)),
            r.failovers.to_string(),
            r.unbinds.to_string(),
            r.retransmits.to_string(),
        ];
        row.extend(vnet_bench::repro_cells(SEED, r.shards));
        t.row(row);
    }
    t.emit("campaign_bench");
    println!("Every campaign completed with zero auditor violations and exactly-once delivery;");
    println!("flap scenarios recover by multipath failover (section 5.1 channels), switch and");
    println!("burst scenarios by randomized-backoff retransmission (section 5.3).");
}
