//! Mixed-fidelity smoke: a reduced-scale fat tree where a handful of
//! hosts run the complete machinery and the rest run the abstract LogP
//! model, under a full chaos campaign. The full-fidelity subset must keep
//! every cross-layer invariant (zero auditor violations, bounded
//! recovery) while abstract hosts stream background traffic through the
//! same faulty fabric.
//!
//! CI runs this under `VNET_SHARDS` ∈ {1, 4}, on every core and pinned
//! to two; the test deliberately leaves the shard count to the
//! environment.

use vnet::net::{FaultScheduleSpec, GilbertElliott, LinkId, TopologySpec};
use vnet::prelude::*;

/// Echo server: replies to every request, retrying under backpressure.
struct Echo {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
                self.pending.push(m);
                return Step::Yield;
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

/// Chaos on the 16-host fat tree (L=4 leaves × 4 hosts, S=2 spines).
/// Link layout: host-up `[0,16)`, leaf-down `[16,32)`, leaf-up
/// `32 + l*S + s`, spine-down `40 + l*S + s`; switches: leaves `0..4`,
/// spines `4..6`. The flap hits leaf 0's spine-0 uplink — the full
/// subset's trunk — and spine switch 4 dies outright for a window.
fn chaos() -> FaultScheduleSpec {
    FaultScheduleSpec::none()
        .flap(LinkId(32), at_us(300), at_us(1_500))
        .fail_switch(4, at_us(2_000), at_us(3_000))
        .degrade(LinkId(43), at_us(1_000), at_us(4_000), 0.2, 0.05)
        .with_bursty(GilbertElliott::mild())
}

/// One full-fidelity host per leaf, so the full ring crosses the
/// flapping trunk and the failing spine rather than hiding inside one
/// leaf.
const FULL_HOSTS: [u32; 4] = [0, 4, 8, 12];
const HOSTS: u32 = 16;

#[test]
fn mixed_fidelity_chaos_smoke() {
    let abstract_hosts = (0..HOSTS).filter(|h| !FULL_HOSTS.contains(h));
    let mut c = Cluster::builder()
        .hosts(HOSTS)
        .topology(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 4, spines: 2 })
        .seed(0x51FE)
        .audit(true) // force hooks on in release builds too
        .fidelity(abstract_hosts, Fidelity::Abstract)
        .faults(chaos())
        .build();
    assert_eq!(c.fidelity_of(HostId(0)), Fidelity::Full);
    assert_eq!(c.fidelity_of(HostId(1)), Fidelity::Abstract);

    // Full subset: a cross-leaf request ring 0 → 4 → 8 → 12 → 0.
    let servers: Vec<GlobalEp> =
        FULL_HOSTS.iter().map(|&h| c.create_endpoint(HostId(h))).collect();
    let clients: Vec<GlobalEp> =
        FULL_HOSTS.iter().map(|&h| c.create_endpoint(HostId(h))).collect();
    let mut tids = Vec::new();
    for (i, &h) in FULL_HOSTS.iter().enumerate() {
        c.connect(clients[i], 0, servers[(i + 1) % FULL_HOSTS.len()]);
        c.spawn_thread(HostId(h), Box::new(Echo { ep: servers[i].ep, pending: Vec::new() }));
        let tid = c.spawn_thread(
            HostId(h),
            Box::new(Client { ep: clients[i].ep, total: 100, sent: 0, replies: 0 }),
        );
        tids.push((HostId(h), tid));
    }
    // Abstract background load: every other host streams to abstract
    // peers across the tree, sharing (and contending on) the faulty
    // trunks the full subset depends on.
    for h in (0..HOSTS).filter(|h| !FULL_HOSTS.contains(h)) {
        let peers: Vec<HostId> = (0..HOSTS)
            .filter(|&p| p != h && !FULL_HOSTS.contains(&p))
            .map(HostId)
            .collect();
        c.drive_abstract(
            HostId(h),
            AbstractTraffic {
                peers,
                payload_bytes: 1024,
                mean_gap: SimDuration::from_micros(15),
                count: 400,
            },
        );
    }

    c.run_for(SimDuration::from_millis(40));
    c.check_recovery(SimDuration::from_millis(30));

    // Zero auditor violations on the full-fidelity subset.
    if let Err(report) = c.audit() {
        panic!("full subset must stay clean under chaos:\n{report}");
    }
    for &(h, tid) in &tids {
        let cl: &Client = c.body(h, tid).expect("client body");
        assert_eq!(cl.replies, 100, "client on {h} must finish despite the campaign");
    }
    // Abstract traffic flowed — and with no retransmission behind it at
    // this fidelity, campaign drops show up as recvd < sent.
    let mut sent = 0u64;
    let mut recvd = 0u64;
    for h in (0..HOSTS).filter(|h| !FULL_HOSTS.contains(h)) {
        let s = c.abs_stats(HostId(h)).expect("abstract host");
        assert_eq!(s.sent, 400, "host {h} must drain its driven traffic");
        sent += s.sent;
        recvd += s.recvd;
    }
    assert!(recvd > 0, "abstract traffic must be delivered");
    assert!(recvd <= sent, "abstract fidelity has no retransmission");
    // Coarse counters surface in snapshots under host{N}.abs.*.
    let snap = c.telemetry().snapshot();
    assert_eq!(snap.counter("host1.abs.sent"), 400);
    assert!(snap.counter("host0.os.loads") >= 1, "full host ran the residency machine");
}

/// All-abstract world over the delay-only fabric: the cheapest
/// configuration must still run end-to-end (routes, faults, counters),
/// with nothing for the auditor to observe.
#[test]
fn delay_fabric_all_abstract_runs() {
    let mut c = Cluster::builder()
        .hosts(HOSTS)
        .topology(TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 4, spines: 2 })
        .seed(0xAB50)
        .default_fidelity(Fidelity::Abstract)
        .fabric_fidelity(Fidelity::Abstract)
        .faults(chaos())
        .build();
    for h in 0..HOSTS {
        let peers: Vec<HostId> = (0..HOSTS).filter(|&p| p != h).map(HostId).collect();
        c.drive_abstract(
            HostId(h),
            AbstractTraffic {
                peers,
                payload_bytes: 256,
                mean_gap: SimDuration::from_micros(10),
                count: 200,
            },
        );
    }
    c.run_for(SimDuration::from_millis(10));
    c.audit().expect("no full-fidelity hosts, nothing to violate");
    let total: u64 = (0..HOSTS).map(|h| c.abs_stats(HostId(h)).unwrap().recvd).sum();
    assert!(total > 0, "delay-fabric traffic must be delivered");
    let snap = c.telemetry().snapshot();
    assert!(snap.counter("net.packets") > 0, "delay fabric reports net.* counters");
}

/// Full-only machinery must refuse abstract hosts loudly, not corrupt.
#[test]
#[should_panic(expected = "Fidelity::Abstract")]
fn endpoint_on_abstract_host_panics() {
    let mut c = Cluster::builder()
        .hosts(4)
        .fidelity([2, 3], Fidelity::Abstract)
        .build();
    let _ = c.create_endpoint(HostId(2));
}
