//! Property tests for the endpoint segment driver: under randomized fault
//! sequences — with a faithful mock NIC answering the driver protocol —
//! the four-state machine never overcommits frames and every requested
//! endpoint eventually becomes resident.
//!
//! Cases are generated from [`SimRng`] seeds rather than an external
//! property-testing crate, so the suite builds offline.

use std::collections::VecDeque;
use vnet_nic::{DriverMsg, DriverOp, EndpointImage, EpId, ProtectionKey};
use vnet_os::{OsConfig, OsEvent, OsOut, SegmentDriver};
use vnet_sim::{SimDuration, SimRng, SimTime};

/// A mock NIC + event queue that drives the segment driver's effects to
/// completion, mimicking the real pipeline's causality.
struct MockPipeline {
    now: SimTime,
    /// (due, event)
    timers: VecDeque<(SimTime, OsEvent)>,
    /// Pending NIC completions (due, message).
    nic: VecDeque<(SimTime, DriverMsg)>,
    loaded: std::collections::HashSet<EpId>,
    frames: u32,
}

impl MockPipeline {
    fn new(frames: u32) -> Self {
        MockPipeline {
            now: SimTime::ZERO,
            timers: VecDeque::new(),
            nic: VecDeque::new(),
            loaded: Default::default(),
            frames,
        }
    }

    fn absorb(&mut self, outs: Vec<OsOut>) {
        for o in outs {
            match o {
                OsOut::After(d, ev) => self.timers.push_back((self.now + d, ev)),
                OsOut::Nic(op) => match op {
                    DriverOp::Load { ep, clock, .. } => {
                        self.loaded.insert(ep);
                        assert!(
                            self.loaded.len() as u32 <= self.frames,
                            "NIC frames overcommitted: {} > {}",
                            self.loaded.len(),
                            self.frames
                        );
                        self.nic.push_back((
                            self.now + SimDuration::from_micros(150),
                            DriverMsg::Loaded { ep, clock: clock + 1 },
                        ));
                    }
                    DriverOp::Unload { ep, clock } => {
                        assert!(self.loaded.remove(&ep), "unload of non-loaded {ep}");
                        self.nic.push_back((
                            self.now + SimDuration::from_micros(200),
                            DriverMsg::Unloaded {
                                ep,
                                image: Box::new(EndpointImage::new(ProtectionKey::OPEN)),
                                clock: clock + 1,
                            },
                        ));
                    }
                    DriverOp::Register { .. }
                    | DriverOp::Unregister { .. }
                    | DriverOp::SetMask { .. } => {}
                },
            }
        }
    }

    /// Deliver the earliest pending event; returns false when quiescent.
    fn step(&mut self, d: &mut SegmentDriver) -> bool {
        let t_timer = self.timers.front().map(|&(t, _)| t);
        let t_nic = self.nic.front().map(|&(t, _)| t);
        match (t_timer, t_nic) {
            (None, None) => false,
            (a, b) => {
                let take_timer = match (a, b) {
                    (Some(x), Some(y)) => x <= y,
                    (Some(_), None) => true,
                    _ => false,
                };
                let mut outs = Vec::new();
                if take_timer {
                    let (t, ev) = self.timers.pop_front().unwrap();
                    self.now = t;
                    match ev {
                        OsEvent::DaemonStep => d.on_daemon_step(t, &mut outs),
                        OsEvent::PageInDone { ep } => d.on_page_in_done(t, ep, &mut outs),
                    }
                } else {
                    let (t, msg) = self.nic.pop_front().unwrap();
                    self.now = t;
                    d.on_nic_msg(t, msg, &mut outs);
                }
                self.absorb(outs);
                true
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum FaultOp {
    Write(usize),
    Proxy(usize),
    Pageout(usize),
}

fn random_fault(rng: &mut SimRng, n: usize) -> FaultOp {
    match rng.below(3) {
        0 => FaultOp::Write(rng.index(n)),
        1 => FaultOp::Proxy(rng.index(n)),
        _ => FaultOp::Pageout(rng.index(n)),
    }
}

/// Any interleaving of write faults, proxy faults, and pageouts over
/// more endpoints than frames drives every touched endpoint resident
/// (or parked) without ever overcommitting the NIC, and the driver
/// reaches quiescence.
#[test]
fn segment_driver_never_overcommits() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0x5E9 + case);
        let frames = 1 + rng.below(5) as u32;
        let n_eps = 1 + rng.index(11);
        let n_ops = 1 + rng.index(59);

        let mut d = SegmentDriver::new(OsConfig::default(), frames, 7);
        let mut pipe = MockPipeline::new(frames);
        let mut outs = Vec::new();
        let eps: Vec<EpId> = (0..n_eps)
            .map(|_| d.create_endpoint(SimTime::ZERO, ProtectionKey(1), &mut outs))
            .collect();
        pipe.absorb(std::mem::take(&mut outs));

        for _ in 0..n_ops {
            let op = random_fault(&mut rng, 12);
            let mut outs = Vec::new();
            match op {
                FaultOp::Write(i) if i < n_eps => {
                    let _ = d.touch_write(pipe.now, eps[i], &mut outs);
                }
                FaultOp::Proxy(i) if i < n_eps => {
                    d.proxy_fault(pipe.now, eps[i], &mut outs);
                }
                FaultOp::Pageout(i) if i < n_eps => {
                    let _ = d.pageout(eps[i]);
                }
                _ => {}
            }
            pipe.absorb(outs);
            // Interleave a little pipeline progress.
            pipe.step(&mut d);
        }
        // Drain to quiescence (bounded: the pipeline always terminates).
        let mut steps = 0;
        while pipe.step(&mut d) {
            steps += 1;
            assert!(steps < 100_000, "case {case}: remap pipeline diverged");
        }
        // Invariants at rest: occupancy within frames; no endpoint stuck in
        // a transition state; every endpoint accounted for.
        let (resident, host, disk, trans) = d.census();
        assert!(resident as u32 <= frames, "case {case}");
        assert_eq!(trans, 0, "case {case}: no endpoint may be stuck mid-transition");
        assert_eq!(resident + host + disk, n_eps, "case {case}");
        assert_eq!(d.remap_queue_depth(), 0, "case {case}");
    }
}
