//! The discrete-event engine.
//!
//! A simulation is a [`SimWorld`] (all mutable state) plus an [`Engine`]
//! (clock + pending-event queue). The engine pops the earliest event,
//! advances the clock, and hands the event to the world together with a
//! [`Ctx`] through which the handler schedules follow-up events.
//!
//! Ties are broken by insertion order, which makes runs bit-reproducible:
//! two events at the same timestamp are delivered in the order they were
//! scheduled.
//!
//! The queue is a hierarchical [`TimingWheel`] (see [`crate::wheel`]
//! for the design); the per-event loop performs no heap
//! allocation — [`Ctx`] borrows the engine's wheel and writes scheduled
//! events straight into it.

use crate::time::{SimDuration, SimTime};
use crate::wheel::{Due, TimingWheel};

pub use crate::wheel::EventId;

/// The mutable state of a simulation, with its event handler.
pub trait SimWorld {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event. `ctx.now()` is the event's timestamp; follow-up
    /// events are scheduled through `ctx`.
    fn handle(&mut self, ev: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Scheduling context passed to event handlers.
///
/// Borrows the engine's timing wheel for the duration of one handler
/// call, so scheduling and cancellation write directly into the queue —
/// no per-event buffers, no allocation. The handler borrow
/// (`&mut World`) stays disjoint because the world and the wheel are
/// separate structures.
pub struct Ctx<'a, E> {
    now: SimTime,
    stop: bool,
    wheel: &'a mut TimingWheel<E>,
}

impl<E> Ctx<'_, E> {
    /// Timestamp of the event being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` to fire `delay` from now. Returns an id usable with
    /// [`Ctx::cancel`].
    pub fn schedule(&mut self, delay: SimDuration, ev: E) -> EventId {
        self.wheel.schedule(self.now + delay, ev)
    }

    /// Schedule `ev` at an absolute time. Debug builds panic if `at` lies
    /// in the past — a past timestamp is always a latent causality bug
    /// (in the parallel executor it would mean a cross-shard message
    /// arrived behind a shard's clock), and the old silent clamp-to-`now`
    /// let such bugs hide. Release builds keep the clamp so a production
    /// run degrades instead of aborting.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "schedule_at into the past: at={}ns < now={}ns",
            at.as_nanos(),
            self.now.as_nanos()
        );
        self.wheel.schedule(at.max(self.now), ev)
    }

    /// Schedule `ev` at an absolute time with an explicit same-time
    /// tie-break key (see [`TimingWheel::schedule_keyed`]). Used for
    /// fabric ingress events, whose ordering must be a pure function of
    /// `(time, source, per-source sequence)` rather than of which shard
    /// scheduled them first.
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, ev: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "schedule_keyed_at into the past: at={}ns < now={}ns",
            at.as_nanos(),
            self.now.as_nanos()
        );
        self.wheel.schedule_keyed(at.max(self.now), key, ev)
    }

    /// Cancel a previously scheduled event. Cancelling [`EventId::NONE`] or
    /// an already-fired event is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.wheel.cancel(id);
    }

    /// Request that the engine stop after this handler returns, leaving any
    /// remaining events unprocessed.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// The event loop: a clock and a timing wheel of pending events.
pub struct Engine<W: SimWorld> {
    now: SimTime,
    wheel: TimingWheel<W::Event>,
    events_processed: u64,
    last_event_at: Option<SimTime>,
}

impl<W: SimWorld> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: SimWorld> Engine<W> {
    /// An engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            wheel: TimingWheel::new(),
            events_processed: 0,
            last_event_at: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timestamp of the most recently handled event, if any. The parallel
    /// executor uses the maximum across shards to settle every clock on
    /// the same final time a sequential run would end at.
    pub fn last_event_at(&self) -> Option<SimTime> {
        self.last_event_at
    }

    /// Force the clock to exactly `t`. Used at parallel run boundaries to
    /// keep every shard's clock — and the merged cluster's — in lockstep:
    /// a settling shard overshoots to its final epoch's end, and the
    /// global last-event time (what a sequential run would end at) can be
    /// slightly behind that. `t` may therefore be below `now`, but never
    /// below an event this engine has already processed.
    pub fn sync_now(&mut self, t: SimTime) {
        debug_assert!(
            self.last_event_at.is_none_or(|l| t >= l),
            "sync_now behind an already-processed event"
        );
        self.now = t;
    }

    /// Conservative lower bound on the next pending event's timestamp
    /// (never later than the true minimum; see
    /// [`TimingWheel::next_at_bound`]), clamped up to the current clock.
    pub fn next_at_bound(&self) -> Option<SimTime> {
        self.wheel.next_at_bound().map(|t| t.max(self.now))
    }

    /// Keyed counterpart of [`Engine::schedule`] at an absolute time; see
    /// [`Ctx::schedule_keyed_at`].
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, ev: W::Event) -> EventId {
        self.wheel.schedule_keyed(at.max(self.now), key, ev)
    }

    /// Schedule at an absolute time from outside a handler.
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) -> EventId {
        debug_assert!(
            at >= self.now,
            "schedule_at into the past: at={}ns < now={}ns",
            at.as_nanos(),
            self.now.as_nanos()
        );
        self.wheel.schedule(at.max(self.now), ev)
    }

    /// Total number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of live pending events (cancelled events are excluded).
    pub fn queue_len(&self) -> usize {
        self.wheel.len()
    }

    /// Schedule an event from outside a handler (initial conditions).
    pub fn schedule(&mut self, delay: SimDuration, ev: W::Event) -> EventId {
        self.wheel.schedule(self.now + delay, ev)
    }

    /// Cancel an event scheduled via [`Engine::schedule`] (or a handler).
    pub fn cancel(&mut self, id: EventId) {
        self.wheel.cancel(id);
    }

    /// Run until the queue is empty or a handler calls [`Ctx::stop`].
    /// Returns the number of events processed by this call.
    pub fn run(&mut self, world: &mut W) -> u64 {
        self.run_until(world, SimTime::MAX)
    }

    /// Run until the queue empties, a handler stops the engine, or the next
    /// event lies strictly after `deadline`. The clock ends at the last
    /// processed event (or `deadline` if that is later and the queue still
    /// holds future events).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> u64 {
        let before = self.events_processed;
        loop {
            match self.wheel.pop_due(deadline) {
                Due::Empty => {
                    // Queue drained before the deadline: the clock still
                    // advances to it (callers use run_until as "sleep until").
                    if deadline != SimTime::MAX {
                        self.now = deadline;
                    }
                    break;
                }
                Due::AfterDeadline => {
                    self.now = deadline;
                    break;
                }
                Due::Event { at, ev } => {
                    debug_assert!(at >= self.now, "time went backwards");
                    self.now = at;
                    self.events_processed += 1;
                    self.last_event_at = Some(at);
                    let mut ctx = Ctx { now: at, stop: false, wheel: &mut self.wheel };
                    world.handle(ev, &mut ctx);
                    if ctx.stop {
                        break;
                    }
                }
            }
        }
        self.events_processed - before
    }

    /// Process exactly one live event, if any. Returns whether one fired.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.wheel.pop_due(SimTime::MAX) {
            Due::Event { at, ev } => {
                self.now = at;
                self.events_processed += 1;
                self.last_event_at = Some(at);
                let mut ctx = Ctx { now: at, stop: false, wheel: &mut self.wheel };
                world.handle(ev, &mut ctx);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, u32)>,
        respawn: bool,
        cancel_next: Option<EventId>,
    }

    impl SimWorld for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
            self.log.push((ctx.now().as_nanos(), ev));
            if self.respawn && ev < 5 {
                ctx.schedule(SimDuration::from_nanos(10), ev + 1);
            }
            if let Some(id) = self.cancel_next.take() {
                ctx.cancel(id);
            }
            if ev == 99 {
                ctx.stop();
            }
        }
    }

    fn world() -> Recorder {
        Recorder { log: vec![], respawn: false, cancel_next: None }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w = world();
        let mut e = Engine::new();
        e.schedule(SimDuration::from_nanos(30), 3);
        e.schedule(SimDuration::from_nanos(10), 1);
        e.schedule(SimDuration::from_nanos(20), 2);
        e.run(&mut w);
        assert_eq!(w.log, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn same_time_fifo_order() {
        let mut w = world();
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule(SimDuration::from_nanos(5), i);
        }
        e.run(&mut w);
        let evs: Vec<u32> = w.log.iter().map(|&(_, v)| v).collect();
        assert_eq!(evs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_chains() {
        let mut w = world();
        w.respawn = true;
        let mut e = Engine::new();
        e.schedule(SimDuration::from_nanos(0), 0);
        e.run(&mut w);
        assert_eq!(w.log.len(), 6); // 0..=5
        assert_eq!(e.now().as_nanos(), 50);
    }

    #[test]
    fn cancellation_from_engine() {
        let mut w = world();
        let mut e = Engine::new();
        let id = e.schedule(SimDuration::from_nanos(10), 1);
        e.schedule(SimDuration::from_nanos(20), 2);
        e.cancel(id);
        e.run(&mut w);
        assert_eq!(w.log, vec![(20, 2)]);
    }

    #[test]
    fn cancellation_from_handler() {
        let mut w = world();
        let mut e = Engine::new();
        e.schedule(SimDuration::from_nanos(5), 7);
        let victim = e.schedule(SimDuration::from_nanos(50), 8);
        w.cancel_next = Some(victim);
        e.run(&mut w);
        assert_eq!(w.log, vec![(5, 7)]);
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut w = world();
        let mut e = Engine::new();
        e.cancel(EventId::NONE);
        e.schedule(SimDuration::from_nanos(1), 1);
        e.run(&mut w);
        assert_eq!(w.log.len(), 1);
    }

    #[test]
    fn stop_leaves_queue() {
        let mut w = world();
        let mut e = Engine::new();
        e.schedule(SimDuration::from_nanos(1), 99);
        e.schedule(SimDuration::from_nanos(2), 1);
        e.run(&mut w);
        assert_eq!(w.log, vec![(1, 99)]);
        assert_eq!(e.queue_len(), 1);
        // Resume processes the remainder.
        e.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_until_deadline_preserves_future_events() {
        let mut w = world();
        let mut e = Engine::new();
        e.schedule(SimDuration::from_nanos(10), 1);
        e.schedule(SimDuration::from_nanos(100), 2);
        let n = e.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(n, 1);
        assert_eq!(e.now().as_nanos(), 50);
        e.run(&mut w);
        assert_eq!(w.log, vec![(10, 1), (100, 2)]);
    }

    #[test]
    fn step_single_event() {
        let mut w = world();
        let mut e = Engine::new();
        e.schedule(SimDuration::from_nanos(3), 4);
        assert!(e.step(&mut w));
        assert!(!e.step(&mut w));
        assert_eq!(w.log, vec![(3, 4)]);
    }

    #[test]
    fn cancel_after_fire_does_not_touch_reused_slot() {
        // The fired event's slab slot is recycled for event 2; the stale
        // id's generation no longer matches, so cancelling it must not
        // kill the new event.
        let mut w = world();
        let mut e = Engine::new();
        let stale = e.schedule(SimDuration::from_nanos(1), 1);
        e.run(&mut w);
        e.schedule(SimDuration::from_nanos(1), 2);
        e.cancel(stale);
        e.run(&mut w);
        assert_eq!(w.log, vec![(1, 1), (2, 2)]);
    }
}
