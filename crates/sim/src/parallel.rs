//! Conservative parallel discrete-event execution.
//!
//! This module runs N *shards* — each a self-contained single-threaded
//! simulation with its own [`TimingWheel`](crate::wheel::TimingWheel) —
//! on `std::thread::scope` workers, each stepping a contiguous group of
//! shards, synchronized in epochs bounded by one **lookahead** `L`: the
//! minimum simulated latency before an action one shard takes can be
//! observed by another. For the vnet stack that is the latency of a
//! cross-shard route's ascending segment, which is the same on every
//! such route; a packet injected at `t` cannot reach another shard's
//! ingress before `t + L`.
//!
//! ## Epoch protocol
//!
//! Each epoch: (1) every worker publishes, for each shard of its group,
//! the wheel's next-event bound plus, per destination, the earliest
//! delivery time of the cross-shard mail the shard generated last epoch;
//! (2) one spin barrier; (3) every worker computes the same *effective
//! bound* vector `Ḃ` — shard `i`'s wheel bound folded with the in-flight
//! mail addressed to `i` (the mail is ingested this epoch, so it is
//! accounted to its receiver) — ingests its shards' mail, then runs each
//! of its shards to that shard's own horizon
//!
//! ```text
//! E_i = min(Ḃ_i + 2L, min over j ≠ i of Ḃ_j + L) − 1
//! ```
//!
//! capped at the deadline. Any event still unprocessed anywhere has
//! timestamp `≥ Ḃ_j`, so mail it generates for another shard `i` is
//! stamped `≥ Ḃ_j + L > E_i`, and the earliest echo of `i`'s own sends
//! returns after a round trip, `≥ Ḃ_i + 2L` — always delivered before
//! the epoch that could observe it. A lone busy shard therefore gets a
//! `2L` window, and a run of one shard an open one. Publication slots
//! are double-buffered by epoch parity, so a single barrier per epoch
//! suffices. Empty stretches of simulated time cost nothing: the bounds
//! jump straight to the next event anywhere in the system.
//!
//! ## Barrier elision
//!
//! Two epochs' worth of barrier crossings are removed outright. Mail
//! scans are batched behind a per-epoch publication bitmap: a shard
//! that published no mail never forces the other shards to touch its
//! `n` mailbox slots. And the final epoch of a finite-deadline run is
//! detected *inside* the epoch — when every shard's horizon already
//! reaches the deadline (a fact each worker computes from the same
//! published bounds) the workers run their last window and exit without
//! re-publishing, re-barriering, or re-checking. Mail generated in that
//! last window is provably timestamped past the deadline; once the
//! workers have joined, [`run_conservative`] drains it from the shard
//! outboxes and delivers it itself, so every run returns with no mail in
//! flight.
//!
//! ## Worker groups
//!
//! The shards are stepped by at most `workers` threads (the caller's
//! core count), each owning a contiguous group of `⌈n / workers⌉`
//! shards that it steps in shard order every epoch; the last group runs
//! on the calling thread. One worker is the whole protocol on one thread
//! with no thread spawned; a worker per shard is a thread per shard; and
//! more shards than cores never puts more spinners on the barrier than
//! there are cores to run them. Mail between two shards of one group
//! goes through the same mailbox slots as mail between groups, so the
//! epoch schedule — and every result — is independent of the grouping.
//!
//! ## Determinism
//!
//! Results are byte-identical to a sequential run for any shard count
//! because *order never depends on arrival*: cross-shard mail is
//! scheduled with [`schedule_keyed`](crate::wheel::TimingWheel::schedule_keyed)
//! under a key that is a pure function of the traffic
//! (`INGRESS_KEY_BIT | source << 40 | per-source sequence`), and wheels
//! break same-time ties by key. A one-shard run (the sequential oracle)
//! routes the same messages through the same keyed path, so every shard
//! count processes the same events at the same timestamps in the same
//! order.
//!
//! ## `Send` discipline
//!
//! Shard state is `Rc`-linked and deliberately not `Send`. [`SendCell`]
//! is the audited escape hatch: constructing one is `unsafe`, with the
//! invariant that the wrapped value is a *closed* `Rc` graph — every
//! strong count is reachable only from inside the value — so moving the
//! whole cell between threads is sound. Mail itself must be genuinely
//! `Send` (the vnet stack's wire frames carry frozen `Arc` payloads, so
//! crossing a shard moves a pointer, not a copy of the body).

use crate::time::{SimDuration, SimTime};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Bit 63: set on every cross-shard ingress tie-break key so keyed events
/// sort after counter-scheduled events at the same nanosecond (the wheel
/// counter can never reach bit 63).
pub const INGRESS_KEY_BIT: u64 = 1 << 63;

/// The most shards one run may have: the per-epoch publication bitmap
/// is one `u64`, a bit per shard.
pub const MAX_SHARDS: usize = 64;

/// The epoch width of a one-shard run: ~18 simulated minutes, far
/// beyond any workload's horizon, so the "epoch" degenerates to one
/// `run_until` per bounds refresh.
const OPEN_HORIZON: u64 = 1 << 40;

/// Shard `me`'s epoch horizon (see the module docs) given the effective
/// bound vector `eff` (one entry per shard, `u64::MAX` = idle, at least
/// one busy) and the lookahead `look` in nanoseconds, capped at the
/// deadline. Every worker evaluates this from identical published data,
/// so any worker can also evaluate any *other* shard's horizon (the
/// final-epoch elision depends on that).
fn horizon(eff: &[u64], me: usize, look: u64, deadline_ns: u64) -> u64 {
    let e = if eff.len() == 1 {
        eff[0].saturating_add(OPEN_HORIZON)
    } else {
        let echo = look.saturating_mul(2);
        let hop = |(j, &b): (usize, &u64)| b.saturating_add(if j == me { echo } else { look });
        eff.iter().enumerate().map(hop).min().expect("no shards")
    };
    debug_assert_ne!(e, u64::MAX, "horizon of an idle system");
    (e - 1).min(deadline_ns)
}

/// One shard of a partitioned simulation, as seen by the executor.
///
/// Implementations are single-threaded simulations; the executor moves
/// each shard to a worker thread for the duration of a run and calls
/// these hooks strictly from that worker, separated by barriers, then
/// from the calling thread once every worker has joined (to deliver the
/// final epoch's leftover mail).
pub trait ParShard {
    /// A cross-shard message. Sent by value between workers, so it must
    /// be genuinely `Send` (share only atomically counted, frozen data).
    type Mail: Send;

    /// Process all pending events with timestamp ≤ `deadline`, leaving
    /// the local clock at `deadline`.
    fn run_until(&mut self, deadline: SimTime);

    /// Conservative lower bound on the next pending local event (`None`
    /// if idle). Must never exceed the true minimum.
    fn next_at_bound(&self) -> Option<SimTime>;

    /// Move mail generated by the last `run_until` into `out` as
    /// `(destination shard, delivery time, mail)`.
    fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>);

    /// Accept one message for local delivery at `at` (schedule it keyed).
    fn ingest(&mut self, at: SimTime, mail: Self::Mail);

    /// Timestamp of the last event this shard processed, if any.
    fn last_event_at(&self) -> Option<SimTime>;

    /// Current local clock.
    fn now(&self) -> SimTime;

    /// Force the local clock to exactly `t` (may rewind an epoch-end
    /// overshoot, never behind a processed event).
    fn sync_now(&mut self, t: SimTime);
}

/// Unsafe `Send`/`Sync` wrapper: asserts the wrapped value is a closed
/// `Rc` graph that is only ever *accessed* by one thread at a time (the
/// executor's barriers provide the hand-off). See the module docs.
pub struct SendCell<T>(T);

unsafe impl<T> Send for SendCell<T> {}

impl<T> SendCell<T> {
    /// Wrap `v`.
    ///
    /// # Safety
    /// Every `Rc`/`RefCell` reachable from `v` must be reachable *only*
    /// from `v` (no aliases outside the cell), and the caller must not
    /// access `v` while another thread owns the cell.
    pub unsafe fn new(v: T) -> Self {
        SendCell(v)
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.0
    }

    /// Shared access (single-thread phases only).
    pub fn get(&self) -> &T {
        &self.0
    }

    /// Exclusive access (single-thread phases only).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Busy-spin iterations before a waiter starts yielding its timeslice.
/// Epochs are often shorter than a mutex park/unpark (tens of µs), so a
/// short spin wins when every worker has a core; past the limit the
/// waiter must assume a peer got descheduled (a shared machine, or more
/// workers than cores) and `yield_now` so the peer can actually run —
/// unbounded spinning there collapses throughput to the scheduler tick.
const SPIN_LIMIT: u32 = 64;

/// Sense-reversing centralized spin barrier with a bounded spin (see
/// [`SPIN_LIMIT`]). `std::sync::Barrier` parks and wakes through a
/// mutex — tens of microseconds per crossing — while an epoch here is
/// often shorter than that.
struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier { count: AtomicUsize::new(0), sense: AtomicBool::new(false), n }
    }

    fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Double-buffered per-epoch publication slots, indexed by shard (not by
/// worker). All writes happen before the epoch barrier and all reads
/// after it (one parity apart for the mail a worker is still draining),
/// which is exactly the discipline that makes the `UnsafeCell` sound;
/// see the module docs for the lag argument.
struct Mailboxes<M> {
    n: usize,
    /// `[parity][src * n + dst]` — mail published by `src` for `dst`.
    #[allow(clippy::type_complexity)]
    slots: [Vec<UnsafeCell<Vec<(SimTime, M)>>>; 2],
    /// `[parity][shard]` — published wheel bound (`u64::MAX` when idle).
    /// Outbound mail is *not* folded in here; it is published per
    /// destination below and accounted to its receiver.
    wheel: [Vec<AtomicU64>; 2],
    /// `[parity][src * n + dst]` — earliest delivery time of the mail
    /// `src` published for `dst` this epoch (`u64::MAX` if none).
    mail_min: [Vec<AtomicU64>; 2],
    /// `[parity]` — bit `src` set iff `src` published any mail this
    /// epoch (only the worker stepping `src` flips it). Readers skip the
    /// whole slot scan when their senders' bits are clear, so quiet
    /// epochs touch one shared word instead of `n − 1` slot vectors.
    mail_bits: [AtomicU64; 2],
}

unsafe impl<M> Sync for Mailboxes<M> {}

impl<M> Mailboxes<M> {
    fn new(n: usize) -> Self {
        let mk_slots = || (0..n * n).map(|_| UnsafeCell::new(Vec::new())).collect();
        let mk_wheel = || (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mk_mail = || (0..n * n).map(|_| AtomicU64::new(u64::MAX)).collect();
        Mailboxes {
            n,
            slots: [mk_slots(), mk_slots()],
            wheel: [mk_wheel(), mk_wheel()],
            mail_min: [mk_mail(), mk_mail()],
            mail_bits: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// Run `shards` to `deadline` (or to quiescence when `deadline` is
/// [`SimTime::MAX`]) under conservative epoch synchronization with the
/// given `lookahead` — a positive lower bound on how long after the
/// event that sends it any mail is delivered — on at most `workers`
/// threads counting the calling one (see the module docs' worker
/// groups). At most [`MAX_SHARDS`] shards. Returns the final
/// simulated time: `deadline` when finite, otherwise the timestamp of
/// the last event processed anywhere. On return every shard's clock is
/// synchronized to that time and every shard outbox is empty: mail the
/// final epoch left there (all of it stamped past the deadline) has been
/// ingested by its destination shard. Delivery order is fixed by
/// `(time, key)`, so relaying it on one thread is exact.
pub fn run_conservative<S: ParShard>(
    shards: &mut [SendCell<S>],
    lookahead: SimDuration,
    deadline: SimTime,
    workers: usize,
) -> SimTime {
    let n = shards.len();
    assert!(n > 0, "no shards");
    assert!(n <= MAX_SHARDS, "publication bitmap caps the executor at {MAX_SHARDS} shards");
    assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
    let look = lookahead.as_nanos();
    let entry_now = shards.iter().map(|c| c.get().now()).max().unwrap();

    let per = n.div_ceil(workers.clamp(1, n));
    let boxes: Mailboxes<S::Mail> = Mailboxes::new(n);
    let barrier = SpinBarrier::new(n.div_ceil(per));
    std::thread::scope(|scope| {
        let (boxes, barrier) = (&boxes, &barrier);
        let mut groups = shards.chunks_mut(per).enumerate();
        // The last group runs on the calling thread; with one group this
        // makes the whole run thread-free.
        let (last, own) = groups.next_back().expect("no shards");
        let spawned: Vec<_> = groups
            .map(|(g, cells)| {
                scope.spawn(move || worker_loop(g * per, cells, boxes, barrier, look, deadline))
            })
            .collect();
        worker_loop(last * per, own, boxes, barrier, look, deadline);
        for w in spawned {
            w.join().expect("shard worker panicked");
        }
    });

    let mut leftover = Vec::new();
    for c in shards.iter_mut() {
        c.get_mut().drain_outbox(&mut leftover);
    }
    for (dst, at, mail) in leftover {
        debug_assert!(at > deadline, "undelivered mail within the deadline");
        shards[dst].get_mut().ingest(at, mail);
    }

    let final_now = if deadline != SimTime::MAX {
        deadline
    } else {
        // Settling: end exactly where a sequential run would — the last
        // event processed anywhere in *this* call, or the entry clock if
        // the system was already quiescent. Lifetime `last_event_at`
        // values from earlier runs are ≤ `entry_now`, so the max folds
        // both cases together.
        shards
            .iter()
            .filter_map(|c| c.get().last_event_at())
            .chain(std::iter::once(entry_now))
            .max()
            .unwrap()
    };
    for c in shards.iter_mut() {
        c.get_mut().sync_now(final_now);
    }
    final_now
}

/// One worker's epoch loop over its group `cells`, the shards
/// `base..base + cells.len()`, each stepped in shard order.
fn worker_loop<S: ParShard>(
    base: usize,
    cells: &mut [SendCell<S>],
    boxes: &Mailboxes<S::Mail>,
    barrier: &SpinBarrier,
    look: u64,
    deadline: SimTime,
) {
    let n = boxes.n;
    let deadline_ns = deadline.as_nanos();
    let mine = base..base + cells.len();
    let mut local_sense = false;
    // Per shard of the group: the mail its last window generated.
    let mut outboxes: Vec<Vec<(usize, SimTime, S::Mail)>> =
        cells.iter().map(|_| Vec::new()).collect();
    let mut dst_min = vec![u64::MAX; n];
    let mut eff = vec![u64::MAX; n];
    // Our shards' bits currently set in the shared bitmap, per parity, so
    // the word is only touched on a state change.
    let mut bits_set = [0u64; 2];
    let mut epoch: usize = 0;
    loop {
        let p = epoch % 2;
        // Publish, per shard: the wheel bound, and the previous epoch's
        // mail with its per-destination delivery minima. In-flight mail
        // counts toward its *receiver's* effective bound — it is
        // delivered (and ingested) this very epoch, so accounting it
        // there is exact and lets the horizon argument go through.
        let mut bits = 0u64;
        for ((me, cell), outbox) in mine.clone().zip(cells.iter()).zip(&mut outboxes) {
            let wheel = cell.get().next_at_bound().map_or(u64::MAX, |t| t.as_nanos());
            dst_min.fill(u64::MAX);
            if !outbox.is_empty() {
                bits |= 1u64 << me;
            }
            for (dst, at, mail) in outbox.drain(..) {
                debug_assert!(dst < n && dst != me, "bad mail routing");
                dst_min[dst] = dst_min[dst].min(at.as_nanos());
                // SAFETY: slot (p, me, dst) is written only by the worker
                // stepping `me`, before barrier `epoch`, and read only by
                // the worker stepping `dst`, after it.
                unsafe { (*boxes.slots[p][me * n + dst].get()).push((at, mail)) };
            }
            boxes.wheel[p][me].store(wheel, Ordering::Relaxed);
            for (dst, &m) in dst_min.iter().enumerate() {
                if dst != me {
                    boxes.mail_min[p][me * n + dst].store(m, Ordering::Relaxed);
                }
            }
        }
        // Only this worker flips its shards' bits, so XOR with the change
        // sets exactly `bits`.
        if bits != bits_set[p] {
            boxes.mail_bits[p].fetch_xor(bits ^ bits_set[p], Ordering::Relaxed);
            bits_set[p] = bits;
        }

        barrier.wait(&mut local_sense);

        // Everyone computes the same effective bounds from the same
        // slots: Ḃ_i = min(wheel_i, earliest mail addressed to i).
        for (i, e) in eff.iter_mut().enumerate() {
            let mut b = boxes.wheel[p][i].load(Ordering::Relaxed);
            for j in 0..n {
                if j != i {
                    b = b.min(boxes.mail_min[p][j * n + i].load(Ordering::Relaxed));
                }
            }
            *e = b;
        }
        let global = eff.iter().copied().min().unwrap();
        // Ingest mail addressed to our shards, scanning only senders that
        // actually published. Arrival order across sources is
        // irrelevant: delivery order is fixed by the (time, key) pairs.
        let bits = boxes.mail_bits[p].load(Ordering::Relaxed);
        if bits != 0 {
            for (me, cell) in mine.clone().zip(cells.iter_mut()) {
                for src in 0..n {
                    if src == me || bits & (1u64 << src) == 0 {
                        continue;
                    }
                    // SAFETY: slot (p, src, me) was sealed at barrier
                    // `epoch`; `src`'s worker will not touch it again
                    // until barrier `epoch + 1`.
                    let slot = unsafe { &mut *boxes.slots[p][src * n + me].get() };
                    for (at, mail) in slot.drain(..) {
                        cell.get_mut().ingest(at, mail);
                    }
                }
            }
        }

        if global == u64::MAX || global > deadline_ns {
            // Nothing anywhere at or before the deadline (quiescence when
            // the deadline is infinite). Align the clocks and leave —
            // every worker reaches this decision from the same data.
            if deadline != SimTime::MAX {
                cells.iter_mut().for_each(|c| c.get_mut().run_until(deadline));
            }
            return;
        }
        if (0..n).all(|i| horizon(&eff, i, look, deadline_ns) >= deadline_ns) {
            // Final-epoch elision: every shard's horizon reaches the
            // deadline (never true for an infinite one: horizons stay
            // below `u64::MAX`), so after this window there is nothing
            // left to exchange *before* it — each worker proves the same
            // fact from the same bounds and exits without another
            // barrier. Mail born in this window is stamped past the
            // deadline (the horizon argument, applied at the deadline)
            // and stays in the shard outboxes for `run_conservative` to
            // deliver.
            cells.iter_mut().for_each(|c| c.get_mut().run_until(deadline));
            return;
        }
        for ((me, cell), outbox) in mine.clone().zip(cells.iter_mut()).zip(&mut outboxes) {
            let shard = cell.get_mut();
            // Horizons are monotone in practice but the published bounds
            // are only *lower* bounds; never ask the wheel to run
            // backwards.
            let end = SimTime::from_nanos(horizon(&eff, me, look, deadline_ns)).max(shard.now());
            shard.run_until(end);
            shard.drain_outbox(outbox);
        }
        epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Engine, SimWorld};

    const LAT: u64 = 50;

    #[derive(Clone)]
    struct Pass {
        host: u32,
        hops_left: u64,
    }

    /// Toy world: hosts pass a token; each pass goes to
    /// `(host + 1) % total` after `LAT` ns. Hosts are partitioned into
    /// contiguous shards, so most passes cross a shard boundary.
    struct TokenWorld {
        lo: u32,
        hi: u32,
        total: u32,
        log: Vec<(u64, u32, u64)>,
        outbox: Vec<(u32, SimTime, u64, Pass)>,
        seqs: Vec<u64>,
    }

    impl SimWorld for TokenWorld {
        type Event = Pass;
        fn handle(&mut self, ev: Pass, ctx: &mut Ctx<'_, Pass>) {
            self.log.push((ctx.now().as_nanos(), ev.host, ev.hops_left));
            if ev.hops_left == 0 {
                return;
            }
            let nxt = (ev.host + 1) % self.total;
            let at = ctx.now() + SimDuration::from_nanos(LAT);
            let seq = &mut self.seqs[ev.host as usize];
            let key = INGRESS_KEY_BIT | ((ev.host as u64) << 40) | *seq;
            *seq += 1;
            let pass = Pass { host: nxt, hops_left: ev.hops_left - 1 };
            if nxt >= self.lo && nxt < self.hi {
                ctx.schedule_keyed_at(at, key, pass);
            } else {
                self.outbox.push((nxt, at, key, pass));
            }
        }
    }

    struct Shard {
        engine: Engine<TokenWorld>,
        world: TokenWorld,
        hosts_per_shard: u32,
    }

    impl ParShard for Shard {
        type Mail = (u64, Pass);
        fn run_until(&mut self, deadline: SimTime) {
            self.engine.run_until(&mut self.world, deadline);
        }
        fn next_at_bound(&self) -> Option<SimTime> {
            self.engine.next_at_bound()
        }
        fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>) {
            for (host, at, key, pass) in self.world.outbox.drain(..) {
                out.push(((host / self.hosts_per_shard) as usize, at, (key, pass)));
            }
        }
        fn ingest(&mut self, at: SimTime, (key, pass): Self::Mail) {
            self.engine.schedule_keyed_at(at, key, pass);
        }
        fn last_event_at(&self) -> Option<SimTime> {
            self.engine.last_event_at()
        }
        fn now(&self) -> SimTime {
            self.engine.now()
        }
        fn sync_now(&mut self, t: SimTime) {
            self.engine.sync_now(t);
        }
    }

    /// Run a token ring of `total_hosts` hosts split over `n_shards`
    /// shards on `workers` workers through each deadline of `legs` in
    /// turn, and return the merged event log. Every run must leave every
    /// shard outbox empty: the executor delivers the final epoch's
    /// leftover mail itself.
    fn run_sharded(
        n_shards: u32,
        total_hosts: u32,
        hops: u64,
        legs: &[SimTime],
        workers: usize,
    ) -> Vec<(u64, u32, u64)> {
        let per = total_hosts / n_shards;
        let mut shards: Vec<SendCell<Shard>> = (0..n_shards)
            .map(|s| {
                let lo = s * per;
                let hi = lo + per;
                let mut sh = Shard {
                    engine: Engine::new(),
                    world: TokenWorld {
                        lo,
                        hi,
                        total: total_hosts,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        seqs: vec![0; total_hosts as usize],
                    },
                    hosts_per_shard: per,
                };
                if lo == 0 {
                    sh.engine
                        .schedule(SimDuration::from_nanos(1), Pass { host: 0, hops_left: hops });
                }
                // SAFETY: freshly built, no external Rc references.
                unsafe { SendCell::new(sh) }
            })
            .collect();
        for &deadline in legs {
            run_conservative(&mut shards, SimDuration::from_nanos(LAT), deadline, workers);
            for (s, c) in shards.iter().enumerate() {
                assert!(
                    c.get().world.outbox.is_empty(),
                    "shard {s} of {n_shards} ({workers} workers) kept mail past {deadline:?}"
                );
            }
        }
        let mut log: Vec<(u64, u32, u64)> =
            shards.into_iter().flat_map(|c| c.into_inner().world.log).collect();
        log.sort();
        log
    }

    #[test]
    fn token_ring_matches_across_shard_and_worker_counts() {
        let want = run_sharded(1, 4, 37, &[SimTime::MAX], 1);
        assert_eq!(want.len(), 38);
        assert_eq!(want.last().unwrap().0, 1 + 37 * LAT);
        for n in [2, 4] {
            for workers in [1, 2, n as usize] {
                assert_eq!(
                    run_sharded(n, 4, 37, &[SimTime::MAX], workers),
                    want,
                    "{n} shards diverged on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn finite_deadline_cuts_identically() {
        let cut = SimTime::from_nanos(1 + 10 * LAT + 3);
        let want = run_sharded(1, 4, 37, &[cut], 1);
        assert_eq!(want.len(), 11, "10 hops + initial fire by the cut");
        // Resuming after the cut must pick up the mail the final epoch
        // left in flight: a cut run continued to quiescence equals an
        // uncut one.
        let whole = run_sharded(1, 4, 37, &[SimTime::MAX], 1);
        for n in [2, 4] {
            for workers in [1, 2, n as usize] {
                assert_eq!(run_sharded(n, 4, 37, &[cut], workers), want);
                assert_eq!(run_sharded(n, 4, 37, &[cut, SimTime::MAX], workers), whole);
            }
        }
    }

    #[test]
    fn uneven_groups_match_the_oracle() {
        // 3 shards over 2 workers: groups of 2 and 1, so the run carries
        // mail inside a worker's group and mail across workers. With one
        // host per shard every pass crosses shards, so the cut's final
        // epoch also leaves mail for the executor to deliver.
        let cut = SimTime::from_nanos(1 + 13 * LAT + 7);
        for hosts in [6, 3] {
            for legs in [&[SimTime::MAX][..], &[cut], &[cut, SimTime::MAX]] {
                assert_eq!(run_sharded(3, hosts, 41, legs, 2), run_sharded(1, hosts, 41, legs, 1));
            }
        }
    }

    #[test]
    fn oversubscribed_threads_still_complete_and_match() {
        // Regression for the bounded-spin barrier: more worker threads
        // than this machine has cores must neither livelock nor diverge.
        // (On a 1-core box this is the worst case: every barrier crossing
        // relies on the yield fallback.)
        let want = run_sharded(1, 8, 64, &[SimTime::MAX], 1);
        assert_eq!(run_sharded(8, 8, 64, &[SimTime::MAX], 8), want);
        let cut = SimTime::from_nanos(1 + 20 * LAT);
        let want = run_sharded(1, 8, 64, &[cut], 1);
        assert_eq!(run_sharded(8, 8, 64, &[cut], 8), want);
    }

    #[test]
    fn horizon_is_one_hop_from_others_and_a_round_trip_from_itself() {
        let (l, inf) = (100, u64::MAX);
        // Another shard's bound reaches shard 1 one hop later; shard 0's
        // own sends echo back only after a round trip, which is what
        // widens a lone busy shard's window.
        let eff = [500, inf, inf];
        assert_eq!(horizon(&eff, 1, l, inf), 500 + l - 1);
        assert_eq!(horizon(&eff, 0, l, inf), 500 + 2 * l - 1, "self-echo doubles the window");
        // Whichever constraint is tighter wins.
        let eff = [500, 550, inf];
        assert_eq!(horizon(&eff, 0, l, inf), 550 + l - 1);
        assert_eq!(horizon(&eff, 1, l, inf), 500 + l - 1);
        assert_eq!(horizon(&eff, 2, l, inf), 500 + l - 1);
        // The deadline caps every horizon.
        assert_eq!(horizon(&eff, 2, l, 520), 520);
        // A run of one shard has nothing to wait for.
        assert_eq!(horizon(&[500], 0, l, inf), 500 + OPEN_HORIZON - 1);
        assert_eq!(horizon(&[500], 0, l, 9_000), 9_000);
    }

    #[test]
    fn mailboxes_move_arcs_by_pointer() {
        use std::sync::Arc;
        // A frozen Arc payload crossing the executor must arrive as the
        // same allocation (zero-copy), not a clone of the bytes.
        struct ArcShard {
            engine: Engine<ArcWorld>,
            world: ArcWorld,
        }
        struct ArcWorld {
            me: usize,
            received: Vec<Arc<Vec<u64>>>,
            outbox: Vec<(usize, SimTime, Arc<Vec<u64>>)>,
        }
        impl SimWorld for ArcWorld {
            type Event = Arc<Vec<u64>>;
            fn handle(&mut self, ev: Arc<Vec<u64>>, ctx: &mut Ctx<'_, Self::Event>) {
                if self.me == 0 {
                    // Shard 0 originates: forward the payload untouched.
                    self.outbox.push((1, ctx.now() + SimDuration::from_nanos(LAT), ev));
                } else {
                    self.received.push(ev);
                }
            }
        }
        impl ParShard for ArcShard {
            type Mail = Arc<Vec<u64>>;
            fn run_until(&mut self, deadline: SimTime) {
                self.engine.run_until(&mut self.world, deadline);
            }
            fn next_at_bound(&self) -> Option<SimTime> {
                self.engine.next_at_bound()
            }
            fn drain_outbox(&mut self, out: &mut Vec<(usize, SimTime, Self::Mail)>) {
                for (dst, at, m) in self.world.outbox.drain(..) {
                    out.push((dst, at, m));
                }
            }
            fn ingest(&mut self, at: SimTime, mail: Self::Mail) {
                self.engine.schedule_keyed_at(at, INGRESS_KEY_BIT, mail);
            }
            fn last_event_at(&self) -> Option<SimTime> {
                self.engine.last_event_at()
            }
            fn now(&self) -> SimTime {
                self.engine.now()
            }
            fn sync_now(&mut self, t: SimTime) {
                self.engine.sync_now(t);
            }
        }
        let payload = Arc::new(vec![1u64, 2, 3, 4]);
        let before = Arc::as_ptr(&payload);
        let mut shards: Vec<SendCell<ArcShard>> = (0..2)
            .map(|me| {
                let mut sh = ArcShard {
                    engine: Engine::new(),
                    world: ArcWorld { me, received: Vec::new(), outbox: Vec::new() },
                };
                if me == 0 {
                    sh.engine.schedule(SimDuration::from_nanos(1), Arc::clone(&payload));
                }
                unsafe { SendCell::new(sh) }
            })
            .collect();
        run_conservative(&mut shards, SimDuration::from_nanos(LAT), SimTime::MAX, 2);
        let receiver = shards.pop().unwrap().into_inner();
        assert_eq!(receiver.world.received.len(), 1);
        let got = &receiver.world.received[0];
        assert_eq!(Arc::as_ptr(got), before, "payload was copied, not moved");
        assert_eq!(**got, vec![1, 2, 3, 4]);
        // Sender kept its handle and the count survived the crossing:
        // nothing along the path could have mutated the sealed payload.
        assert!(Arc::strong_count(&payload) >= 2);
    }
}
