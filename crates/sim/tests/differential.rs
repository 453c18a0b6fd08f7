//! Differential determinism: seeded random schedule/cancel/stop workloads
//! driven through both the production [`TimingWheel`] and the reference
//! BinaryHeap+tombstone scheduler ([`RefHeap`] — the exact pre-wheel
//! algorithm, kept for this purpose). Every case must produce a
//! byte-identical operation log (delivery order, cancel outcomes, drain
//! boundaries) and the same final clock.
//!
//! Workloads mix counter-ordered [`TimingWheel::schedule`] events with
//! caller-keyed [`TimingWheel::schedule_keyed`] ones, and one case drains
//! a large same-nanosecond burst while scheduling into it and cancelling
//! its members. Cases are generated from [`SimRng`] seeds, so the suite
//! builds offline with no property-testing dependency.

use std::fmt::Write as _;
use vnet_sim::{Due, RefHeap, SimRng, SimTime, TimingWheel};

/// The two schedulers behind one face so the driver below is the same
/// workload, operation for operation, on both.
trait Queue {
    type Id: Copy;
    fn schedule(&mut self, at: SimTime, ev: u64) -> Self::Id;
    fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: u64) -> Self::Id;
    fn cancel(&mut self, id: Self::Id) -> bool;
    fn pop_due(&mut self, deadline: SimTime) -> Due<u64>;
    fn len(&self) -> usize;
}

impl Queue for TimingWheel<u64> {
    type Id = vnet_sim::EventId;
    fn schedule(&mut self, at: SimTime, ev: u64) -> Self::Id {
        TimingWheel::schedule(self, at, ev)
    }
    fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: u64) -> Self::Id {
        TimingWheel::schedule_keyed(self, at, key, ev)
    }
    fn cancel(&mut self, id: Self::Id) -> bool {
        TimingWheel::cancel(self, id)
    }
    fn pop_due(&mut self, deadline: SimTime) -> Due<u64> {
        TimingWheel::pop_due(self, deadline)
    }
    fn len(&self) -> usize {
        TimingWheel::len(self)
    }
}

impl Queue for RefHeap<u64> {
    type Id = u64;
    fn schedule(&mut self, at: SimTime, ev: u64) -> Self::Id {
        RefHeap::schedule(self, at, ev)
    }
    fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: u64) -> Self::Id {
        RefHeap::schedule_keyed(self, at, key, ev)
    }
    fn cancel(&mut self, id: Self::Id) -> bool {
        RefHeap::cancel(self, id)
    }
    fn pop_due(&mut self, deadline: SimTime) -> Due<u64> {
        RefHeap::pop_due(self, deadline)
    }
    fn len(&self) -> usize {
        RefHeap::len(self)
    }
}

/// A random delay whose magnitude class is itself random, so cases cover
/// same-nanosecond ties, near-wheel slots, cascade levels, the 2^36 ns
/// horizon crossing into the spill heap, and far-future spill entries.
fn delay(rng: &mut SimRng) -> u64 {
    match rng.below(5) {
        0 => rng.below(4),                // ties and immediate events
        1 => rng.below(1_000),            // level 0
        2 => rng.below(1 << 20),          // mid levels
        3 => rng.below(1 << 37),          // horizon crossing / spill
        _ => rng.below(1 << 45),          // deep spill
    }
}

/// Schedule event `ev` at `at`: counter-ordered, or (one time in three)
/// under a key. Keys follow the engine's convention (bit 63 set) and are
/// unique through `ev` in the low bits, while the random middle bits put
/// keyed events at one nanosecond in an order unrelated to scheduling.
fn schedule_mixed<Q: Queue>(q: &mut Q, rng: &mut SimRng, at: u64, ev: u64) -> Q::Id {
    let at = SimTime::from_nanos(at);
    if rng.below(3) == 0 {
        q.schedule_keyed(at, (1 << 63) | (rng.below(1 << 20) << 24) | ev, ev)
    } else {
        q.schedule(at, ev)
    }
}

/// Replay one seeded workload, mirroring the engine's `run_until` clock
/// rules: fired events advance `now` to their timestamp; `AfterDeadline`
/// and `Empty` (under a finite deadline) advance it to the deadline; a
/// random "stop budget" abandons drains mid-deadline the way
/// `Ctx::stop` does. Returns the op log and the final clock.
fn drive<Q: Queue>(q: &mut Q, seed: u64) -> (String, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut now = 0u64;
    let mut next_ev = 0u64;
    let mut ids: Vec<Q::Id> = Vec::new();
    let mut log = String::new();
    for round in 0..200 {
        for _ in 0..rng.index(8) {
            let at = now + delay(&mut rng);
            ids.push(schedule_mixed(q, &mut rng, at, next_ev));
            next_ev += 1;
        }
        // Cancels target any ever-issued id, so most rounds also exercise
        // cancel-after-fire and double-cancel; the outcome is logged.
        for _ in 0..rng.index(4) {
            if !ids.is_empty() {
                let i = rng.index(ids.len());
                writeln!(log, "C{}", u8::from(q.cancel(ids[i]))).unwrap();
            }
        }
        let deadline = if rng.chance(0.1) { u64::MAX } else { now + delay(&mut rng) };
        let mut budget = rng.below(24);
        loop {
            if budget == 0 {
                writeln!(log, "S").unwrap(); // stopped mid-drain
                break;
            }
            budget -= 1;
            match q.pop_due(SimTime::from_nanos(deadline)) {
                Due::Event { at, ev } => {
                    now = at.as_nanos();
                    writeln!(log, "F {now} {ev}").unwrap();
                }
                Due::AfterDeadline => {
                    now = deadline;
                    writeln!(log, "A").unwrap();
                    break;
                }
                Due::Empty => {
                    if deadline != u64::MAX {
                        now = deadline;
                    }
                    writeln!(log, "E").unwrap();
                    break;
                }
            }
        }
        writeln!(log, "R{round} now={now} len={}", q.len()).unwrap();
    }
    (log, now)
}

#[test]
fn wheel_matches_reference_heap_on_seeded_workloads() {
    for case in 0..48u64 {
        let seed = 0xD1FF + case * 0x9E37_79B9;
        let (wheel_log, wheel_now) = drive(&mut TimingWheel::new(), seed);
        let (heap_log, heap_now) = drive(&mut RefHeap::new(), seed);
        if wheel_log != heap_log {
            let line = wheel_log
                .lines()
                .zip(heap_log.lines())
                .enumerate()
                .find(|(_, (w, h))| w != h);
            panic!(
                "case {case}: logs diverge at {:?} (wheel vs heap)",
                line.expect("some line differs")
            );
        }
        assert_eq!(wheel_now, heap_now, "case {case}: final clocks differ");
    }
}

/// Same differential, but with the drain deadline always at `SimTime::MAX`
/// (the engine's `step()` path) and heavier tie pressure.
#[test]
fn wheel_matches_reference_heap_under_tie_pressure() {
    for case in 0..16u64 {
        let seed = 0x7135 + case;
        let mut wheel = TimingWheel::new();
        let mut heap = RefHeap::new();
        let mut rng_w = SimRng::seed_from_u64(seed);
        let mut rng_h = SimRng::seed_from_u64(seed);
        let mut log_w = String::new();
        let mut log_h = String::new();
        for ev in 0..400u64 {
            let at_w = SimTime::from_nanos(rng_w.below(16));
            let at_h = SimTime::from_nanos(rng_h.below(16));
            wheel.schedule(at_w, ev);
            heap.schedule(at_h, ev);
        }
        while let Due::Event { at, ev } = wheel.pop_due(SimTime::MAX) {
            writeln!(log_w, "{} {}", at.as_nanos(), ev).unwrap();
        }
        while let Due::Event { at, ev } = heap.pop_due(SimTime::MAX) {
            writeln!(log_h, "{} {}", at.as_nanos(), ev).unwrap();
        }
        assert_eq!(log_w, log_h, "case {case}: tie-breaking diverged");
    }
}

/// A same-nanosecond burst of 8,192 mixed counter and keyed events,
/// drained while each pop may schedule more events at `now` (counter or
/// keyed), schedule just after it, cancel a random earlier id (often a
/// burst member that has not popped yet), or probe a deadline just
/// before `now`. Returns the op log.
fn burst<Q: Queue>(q: &mut Q, seed: u64) -> String {
    const BURST: u64 = 8192;
    let mut rng = SimRng::seed_from_u64(seed);
    let t0 = 1 + rng.below(1 << 20);
    let mut ids: Vec<Q::Id> = Vec::new();
    let mut next_ev = 0u64;
    let mut log = String::new();
    // A few events before the burst, so its slot is reached mid-run.
    for _ in 0..8 {
        let at = rng.below(t0);
        ids.push(schedule_mixed(q, &mut rng, at, next_ev));
        next_ev += 1;
    }
    for _ in 0..BURST {
        ids.push(schedule_mixed(q, &mut rng, t0, next_ev));
        next_ev += 1;
    }
    loop {
        match q.pop_due(SimTime::MAX) {
            Due::Event { at, ev } => {
                let now = at.as_nanos();
                writeln!(log, "F {now} {ev}").unwrap();
                if next_ev < 3 * BURST {
                    for _ in 0..rng.index(3) {
                        let at = if rng.chance(0.8) { now } else { now + 1 };
                        ids.push(schedule_mixed(q, &mut rng, at, next_ev));
                        next_ev += 1;
                    }
                }
                if rng.chance(0.3) {
                    let i = rng.index(ids.len());
                    writeln!(log, "C{}", u8::from(q.cancel(ids[i]))).unwrap();
                }
                if rng.chance(0.05) {
                    let d = q.pop_due(SimTime::from_nanos(now - 1));
                    writeln!(log, "A{}", u8::from(matches!(d, Due::AfterDeadline))).unwrap();
                }
            }
            Due::AfterDeadline => unreachable!("deadline is infinite"),
            Due::Empty => break,
        }
    }
    writeln!(log, "len={} scheduled={next_ev}", q.len()).unwrap();
    log
}

#[test]
fn wheel_matches_reference_heap_on_a_same_instant_burst() {
    for case in 0..4u64 {
        let seed = 0xB0B5 + case;
        let wheel_log = burst(&mut TimingWheel::new(), seed);
        let heap_log = burst(&mut RefHeap::new(), seed);
        if wheel_log != heap_log {
            let line = wheel_log
                .lines()
                .zip(heap_log.lines())
                .enumerate()
                .find(|(_, (w, h))| w != h);
            panic!("case {case}: burst logs diverge at {line:?} (wheel vs heap)");
        }
    }
}
