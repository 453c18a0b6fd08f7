//! The LogP microbenchmark of Figure 3.
//!
//! Measures the four LogP parameters for small (16-byte) messages using
//! the stall/burst technique of Culler et al. ("LogP Performance
//! Assessment of Fast Network Interfaces"):
//!
//! * **o_s** — send overhead: CPU time consumed by issuing one request.
//! * **o_r** — receive overhead: CPU time consumed by draining one message.
//! * **RTT** — request/reply round-trip time; **L** = RTT/2 − o_s − o_r.
//! * **g** — the steady-state gap: issue a long credit-windowed burst of
//!   requests (replies flowing back) and divide the elapsed time by the
//!   message count; the rate-limiting pipeline stage sets the result.

use vnet_core::prelude::*;
use vnet_sim::stats::Sampler;
use vnet_sim::SimTime;

/// Measured LogP parameters, microseconds.
#[derive(Clone, Debug)]
pub struct LogPResult {
    /// Send overhead.
    pub os_us: f64,
    /// Receive overhead.
    pub or_us: f64,
    /// Latency (RTT/2 − o_s − o_r).
    pub l_us: f64,
    /// Gap per message in steady state.
    pub g_us: f64,
    /// Raw round-trip time.
    pub rtt_us: f64,
}

/// Echo server: replies to every request, forever. Polls continuously —
/// microbenchmark peers are dedicated processes, and "polling is more
/// efficient in parallel applications that communicate intensely" (§3.3).
pub struct EchoServer {
    /// Endpoint to serve.
    pub ep: EpId,
    /// Requests served.
    pub served: u64,
}

impl ThreadBody for EchoServer {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            // A full send queue cannot occur here: one client holds at most
            // 32 outstanding requests against a 64-deep send queue.
            sys.reply(self.ep, &m, m.msg.handler, m.msg.args, 0).expect("echo reply");
            self.served += 1;
        }
        Step::Yield
    }
}

/// Client driving the LogP measurement phases.
pub struct LogPClient {
    ep: EpId,
    /// Ping-pong round trips to measure.
    pub pingpongs: u32,
    /// Messages in the gap burst.
    pub burst: u32,
    phase: u8,
    iter: u32,
    sent_at: SimTime,
    burst_started: Option<SimTime>,
    burst_done: u32,
    /// RTT samples (µs).
    pub rtt: Sampler,
    /// o_s samples (µs).
    pub os: Sampler,
    /// o_r samples (µs).
    pub or: Sampler,
    /// Gap measurement (µs/message), available after the run.
    pub gap_us: Option<f64>,
}

impl LogPClient {
    /// Client on `ep` with default iteration counts.
    pub fn new(ep: EpId) -> Self {
        LogPClient {
            ep,
            pingpongs: 200,
            burst: 2_000,
            phase: 0,
            iter: 0,
            sent_at: SimTime::ZERO,
            burst_started: None,
            burst_done: 0,
            rtt: Sampler::default(),
            os: Sampler::default(),
            or: Sampler::default(),
            gap_us: None,
        }
    }

    /// Whether all phases completed.
    pub fn is_done(&self) -> bool {
        self.phase >= 2
    }
}

impl ThreadBody for LogPClient {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        match self.phase {
            // Phase 0: ping-pong. One outstanding request at a time; o_s
            // and o_r measured from the CPU time of the issue and drain.
            0 => {
                if sys.outstanding(self.ep) == 0 {
                    if self.iter >= self.pingpongs {
                        self.phase = 1;
                        self.iter = 0;
                        return Step::Yield;
                    }
                    let before = sys.elapsed();
                    sys.request(self.ep, 1, 0, [0; 4], 0).expect("pingpong send");
                    self.os.record((sys.elapsed() - before).as_micros_f64());
                    self.sent_at = sys.now() + before;
                    self.iter += 1;
                    return Step::Yield;
                }
                let before = sys.elapsed();
                if sys.poll(self.ep, QueueSel::Reply).is_some() {
                    let after = sys.elapsed();
                    // o_r: the full cost of draining the reply.
                    self.or.record((after - before).as_micros_f64());
                    // RTT spans PIO start to drain completion (the LogP
                    // round trip is 2(o_s + L + o_r)).
                    let rtt = (sys.now() + after) - self.sent_at;
                    self.rtt.record(rtt.as_micros_f64());
                }
                Step::Yield
            }
            // Phase 1: gap burst. Keep the credit window full until
            // `burst` messages have completed; g = elapsed / completed.
            1 => {
                if self.burst_started.is_none() {
                    self.burst_started = Some(sys.now());
                }
                loop {
                    match sys.request(self.ep, 1, 0, [0; 4], 0) {
                        Ok(_) => self.iter += 1,
                        Err(SendError::NoCredit) | Err(SendError::QueueFull) => break,
                        Err(e) => panic!("gap burst send failed: {e:?}"),
                    }
                    if self.iter >= self.burst {
                        break;
                    }
                }
                while sys.poll(self.ep, QueueSel::Reply).is_some() {
                    self.burst_done += 1;
                }
                if self.burst_done >= self.burst {
                    let elapsed = sys.now() - self.burst_started.unwrap();
                    self.gap_us = Some(elapsed.as_micros_f64() / self.burst_done as f64);
                    self.phase = 2;
                    return Step::Exit;
                }
                Step::Yield
            }
            _ => Step::Exit,
        }
    }
}

/// Run the LogP characterization on a fresh two-host cluster.
pub fn run_logp(cfg: ClusterConfig) -> LogPResult {
    let mut c = Cluster::new(cfg);
    let a = c.create_endpoint(HostId(0));
    let b = c.create_endpoint(HostId(1));
    c.build_virtual_network(&[a, b]);
    // Warm both endpoints so the measurement sees the steady state (§6.1
    // microbenchmarks run stand-alone with resident endpoints).
    c.make_resident(a);
    c.make_resident(b);
    c.spawn_thread(HostId(1), Box::new(EchoServer { ep: b.ep, served: 0 }));
    let t = c.spawn_thread(HostId(0), Box::new(LogPClient::new(a.ep)));
    c.run_for(SimDuration::from_secs(10));
    let client: &LogPClient = c.body(HostId(0), t).expect("client body");
    assert!(client.is_done(), "LogP phases must complete");
    let mut rtt = client.rtt.clone();
    let mut os = client.os.clone();
    let mut or = client.or.clone();
    let rtt_us = rtt.median();
    let os_us = os.median();
    let or_us = or.median();
    LogPResult {
        os_us,
        or_us,
        l_us: rtt_us / 2.0 - os_us - or_us,
        g_us: client.gap_us.expect("gap measured"),
        rtt_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_core::ClusterConfig;

    #[test]
    fn vn_logp_matches_calibration() {
        let r = run_logp(ClusterConfig::now(2));
        // Calibration targets from DESIGN.md §4 (tolerances are generous:
        // these are emergent, not table lookups).
        assert!((2.0..3.5).contains(&r.os_us), "o_s = {}", r.os_us);
        assert!((2.5..4.5).contains(&r.or_us), "o_r = {}", r.or_us);
        assert!((10.0..16.0).contains(&r.g_us), "g = {}", r.g_us);
        assert!((25.0..38.0).contains(&r.rtt_us), "RTT = {}", r.rtt_us);
        assert!(r.l_us > 0.0, "L = {}", r.l_us);
    }

    #[test]
    fn gam_logp_matches_calibration() {
        let r = run_logp(ClusterConfig::gam(2));
        assert!((1.2..2.5).contains(&r.os_us), "o_s = {}", r.os_us);
        assert!((4.5..8.0).contains(&r.g_us), "g = {}", r.g_us);
        assert!((19.0..30.0).contains(&r.rtt_us), "RTT = {}", r.rtt_us);
    }

    #[test]
    fn virtualization_ratios_match_paper() {
        let vn = run_logp(ClusterConfig::now(2));
        let gam = run_logp(ClusterConfig::gam(2));
        let rtt_ratio = vn.rtt_us / gam.rtt_us;
        let gap_ratio = vn.g_us / gam.g_us;
        // Paper §6.1: round trip +23%, gap x2.21, total overhead equal.
        assert!((1.1..1.45).contains(&rtt_ratio), "rtt ratio {rtt_ratio}");
        assert!((1.8..2.7).contains(&gap_ratio), "gap ratio {gap_ratio}");
        let ov_vn = vn.os_us + vn.or_us;
        let ov_gam = gam.os_us + gam.or_us;
        assert!(
            (ov_vn - ov_gam).abs() / ov_gam < 0.15,
            "total overhead should match: {ov_vn} vs {ov_gam}"
        );
    }
}
