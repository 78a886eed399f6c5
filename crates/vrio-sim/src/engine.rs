//! The discrete-event simulation engine.
//!
//! [`Engine<W>`] owns a priority queue of scheduled events over a
//! user-supplied world type `W`. An event is a plain function and one
//! `u64` argument ([`CallFn`]); firing it may mutate the world and
//! schedule further events. A caller keeps its per-event state in the
//! world and names it by the argument (a VM, a thread, a table slot), so
//! an event is `Copy + Send`, carries no heap state, and scheduling one
//! allocates nothing once the heap has grown. Ties in firing time are
//! broken by scheduling order (FIFO), which together with the
//! deterministic RNG makes every run bit-for-bit reproducible.
//!
//! The queue is a 4-ary min-heap in one `Vec` of 32-byte entries, each
//! keyed on one packed `u128`, `(at << 64) | seq`; `seq` is the
//! scheduling counter, so comparing keys orders by deadline and then by
//! scheduling order. The experiments keep few events on the heap (tens on
//! the racks, at most a few hundred on the lossy block runs; DESIGN.md
//! §10), where a shallow heap over a small array beats any bucketed queue.
//!
//! A callback that would schedule the very event the engine fires next
//! may instead carry on as that event ([`Engine::continue_at`]): inside
//! [`Engine::run`] and [`Engine::run_until`], when its deadline is
//! strictly earlier than every pending event and within the run's
//! deadline, the engine advances the clock and its counters exactly as
//! popping that event would, and the event never enters the heap.
//!
//! An event may be numbered now and queued later: [`Engine::reserve_at`]
//! takes the key [`Engine::schedule_at`] would give it, and
//! [`Engine::schedule_reserved`] queues the event under that key. Queued
//! before anything with a larger key pops, the event fires exactly where
//! `schedule_at` would have fired it, so a caller may keep events that
//! cannot fire next off the heap. A fixed grid of events (a sampling
//! interval, a supervisor's ticks) is one lazily queued series
//! ([`Engine::schedule_series`]): it reserves the scheduling numbers a
//! loop of `schedule_at` calls would take, but only its next occurrence
//! sits on the heap, and each occurrence queues the following one under
//! its reserved key as it fires. The heap stays as small as the live
//! events, not the whole grid.
//!
//! The observe-only probe ([`Engine::set_probe`]) is a plain
//! `fn(&mut W, SimTime)`: it is invoked *after* an event is popped off
//! the heap (or continued) and *before* it fires, so it never touches
//! event storage; a probe that only reads the world cannot perturb the
//! simulation, and enabling it is bit-identical on every model.
//!
//! The engine is plain data: the heap holds `(fn, u64)` entries, the
//! probe is a function pointer and the self-profiler is owned, so cloning
//! an engine together with its world forks the run.

use std::time::Instant;

use crate::profiler::Profiler;
use crate::time::{SimDuration, SimTime};

/// An event: a plain function called with the world, the engine and the
/// `u64` it was scheduled with.
pub type CallFn<W> = fn(&mut W, &mut Engine<W>, u64);

/// A heap entry: the event and its packed `(at << 64) | seq` key.
struct Entry<W> {
    key: u128,
    f: CallFn<W>,
    arg: u64,
}

// A heap entry is four words.
const _: () = assert!(std::mem::size_of::<Entry<()>>() == 32);

impl<W> Clone for Entry<W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W> Copy for Entry<W> {}

impl<W> Entry<W> {
    /// The deadline, in nanoseconds.
    fn at(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

/// The heap key of an event due at `at` with scheduling number `seq`.
fn key(at: u64, seq: u64) -> u128 {
    (u128::from(at) << 64) | u128::from(seq)
}

/// Children per heap node.
const ARITY: usize = 4;

/// The key of an event numbered but not yet queued
/// ([`Engine::reserve_at`]). Keys order as the events fire: by deadline,
/// then by scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Reserved(u128);

impl Reserved {
    /// The deadline the event was reserved for.
    pub fn at(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }

    /// The scheduling number the event was reserved with.
    fn seq(self) -> u64 {
        self.0 as u64
    }
}

/// The not yet queued rest of a series ([`Engine::schedule_series`]).
#[derive(Clone)]
struct Series<W> {
    f: CallFn<W>,
    arg: u64,
    /// Nanoseconds between occurrences.
    interval: u64,
    /// The key of the first occurrence not queued.
    next: Reserved,
    /// Occurrences not yet queued, at least one.
    left: u64,
}

/// A deterministic discrete-event simulator over a world type `W`.
///
/// # Examples
///
/// ```
/// use vrio_sim::{Engine, SimDuration, SimTime};
///
/// struct World { pings: u64 }
///
/// fn ping(w: &mut World, eng: &mut Engine<World>, left: u64) {
///     w.pings += 1;
///     // Events may schedule further events.
///     if left > 0 {
///         eng.schedule_in(SimDuration::micros(5), ping, left - 1);
///     }
/// }
///
/// let mut world = World { pings: 0 };
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::micros(5), ping, 1);
/// engine.run(&mut world);
/// assert_eq!(world.pings, 2);
/// assert_eq!(engine.now(), SimTime::from_nanos(10_000));
/// ```
#[derive(Clone)]
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    fired: u64,
    /// The 4-ary min-heap: node `i`'s children are `4i + 1 ..= 4i + 4`.
    heap: Vec<Entry<W>>,
    /// Series with occurrences still to queue, by slot; a series' queued
    /// occurrence names its slot.
    series: Vec<Option<Series<W>>>,
    /// Occurrences of every series not yet queued.
    unqueued: usize,
    /// The deadline of the `run`/`run_until` in progress, up to which a
    /// callback may continue ([`Engine::continue_at`]); `None` outside
    /// them, and in profiled runs, whose scopes time one event each.
    horizon: Option<SimTime>,
    /// Observe-only hook fired once per event, between pop and fire (see
    /// [`Engine::set_probe`]).
    probe: Option<fn(&mut W, SimTime)>,
    /// Wall-clock self-profiler, inert unless [`Engine::set_profiler`]
    /// installed an enabled one, so the hot path pays one branch when
    /// profiling is off.
    profiler: Profiler,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Creates an empty engine at `t = 0`.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            heap: Vec::new(),
            series: Vec::new(),
            unqueued: 0,
            horizon: None,
            probe: None,
            profiler: Profiler::off(),
        }
    }

    /// Installs an observe-only probe called with the world and the firing
    /// time of every event, just before its callback runs (the oracle's
    /// clock check). The probe cannot schedule events; one that only reads
    /// the world cannot perturb the simulation, and installing it does not
    /// affect reproducibility.
    pub fn set_probe(&mut self, probe: fn(&mut W, SimTime)) {
        self.probe = Some(probe);
    }

    /// Installs a wall-clock self-profiler. When it is enabled the engine
    /// times each event's queue pop (`engine.pop`), heap push
    /// (`engine.push`), probe run (`engine.probe`) and callback body
    /// (`engine.callback`), and no callback continues
    /// ([`Engine::continue_at`]), so each callback scope times one event.
    /// Profiling is observe-only for the simulation: results are
    /// bit-identical with it on or off (only wall-clock PROF output
    /// differs, which is excluded from byte-identity gates).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The engine's self-profiler, for callbacks timing scopes of their
    /// own and for the end-of-run export.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently pending, counting every occurrence of
    /// a series that has not fired yet. An event reserved
    /// ([`Engine::reserve_at`]) counts from when it is queued.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.unqueued
    }

    /// Schedules `f(world, engine, arg)` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// at the current time (still after all already-pending events at that
    /// time), and a debug assertion trips in test builds.
    pub fn schedule_at(&mut self, at: SimTime, f: CallFn<W>, arg: u64) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let r = self.reserve(at);
        self.queue(r, f, arg);
    }

    /// Takes the key [`Engine::schedule_at`]`(at, ..)` would give an event
    /// now, and queues nothing: the event goes on the heap later, through
    /// [`Engine::schedule_reserved`]. Until then it is not
    /// [`Engine::pending`] and nothing fires for it; a key never queued
    /// is simply dropped.
    ///
    /// The event fires exactly where `schedule_at` would have fired it
    /// if it is queued before any event with a larger key pops and before
    /// a callback continues past it ([`Engine::continue_at`]); the caller
    /// keeps that promise, typically by queueing an event with a smaller
    /// key that queues this one in turn.
    pub fn reserve_at(&mut self, at: SimTime) -> Reserved {
        debug_assert!(
            at >= self.now,
            "reserved an event in the past: {at} < {}",
            self.now
        );
        self.reserve(at)
    }

    /// Queues `f(world, engine, arg)` under a key taken earlier by
    /// [`Engine::reserve_at`] (or by a series), so that it fires where
    /// that key puts it. A deadline already past is clamped to now, behind
    /// the events due now.
    pub fn schedule_reserved(&mut self, r: Reserved, f: CallFn<W>, arg: u64) {
        debug_assert!(
            r.at() >= self.now,
            "queued a reserved event in the past: {} < {}",
            r.at(),
            self.now
        );
        self.queue(r, f, arg);
    }

    /// Queues an event under key `r`, its deadline clamped to now.
    fn queue(&mut self, r: Reserved, f: CallFn<W>, arg: u64) {
        let at = r.at().max(self.now).as_nanos();
        self.enqueue(Entry {
            key: key(at, r.seq()),
            f,
            arg,
        });
    }

    /// Takes the next scheduling number for an event due at `at`.
    fn reserve(&mut self, at: SimTime) -> Reserved {
        let r = Reserved(key(at.as_nanos(), self.seq));
        self.seq += 1;
        r
    }

    /// Schedules `f(world, engine, arg)` to fire `delay` after the current
    /// time.
    pub fn schedule_in(&mut self, delay: SimDuration, f: CallFn<W>, arg: u64) {
        self.schedule_at(self.now + delay, f, arg);
    }

    /// Schedules `f(world, engine, arg)` to fire immediately after all
    /// events already pending at the current time.
    pub fn schedule_now(&mut self, f: CallFn<W>, arg: u64) {
        self.schedule_at(self.now, f, arg);
    }

    /// Schedules `f(world, engine, arg)` at `first`, then every `interval`
    /// after it up to and including `last`, exactly as calling
    /// [`Engine::schedule_at`] for each occurrence in turn would: the
    /// occurrences take consecutive scheduling numbers now, so they fire
    /// in the same order among the other events, and [`Engine::pending`]
    /// counts them all. Only the next occurrence is queued, though; as it
    /// fires, it queues the following one under that one's reserved key
    /// ([`Engine::schedule_reserved`]), then runs `f`. An empty series
    /// (`first > last`) schedules nothing.
    ///
    /// # Panics
    ///
    /// If `interval` is zero.
    pub fn schedule_series(
        &mut self,
        first: SimTime,
        interval: SimDuration,
        last: SimTime,
        f: CallFn<W>,
        arg: u64,
    ) {
        assert!(!interval.is_zero(), "a series needs a positive interval");
        debug_assert!(
            first >= self.now,
            "scheduled series in the past: {first} < {}",
            self.now
        );
        if first > last {
            return;
        }
        let interval = interval.as_nanos();
        let left = (last - first).as_nanos() / interval;
        let head = self.reserve(first);
        self.seq += left;
        if left == 0 {
            return self.schedule_reserved(head, f, arg);
        }
        let rest = Series {
            f,
            arg,
            interval,
            next: Reserved(key(first.as_nanos() + interval, head.seq() + 1)),
            left,
        };
        let slot = match self.series.iter().position(Option::is_none) {
            Some(slot) => {
                self.series[slot] = Some(rest);
                slot
            }
            None => {
                self.series.push(Some(rest));
                self.series.len() - 1
            }
        };
        self.unqueued += left as usize;
        self.schedule_reserved(head, Self::fire_series, slot as u64);
    }

    /// The queued occurrence of the series in `slot` fires: queues the
    /// next occurrence under its reserved key (the last one as the plain
    /// event, freeing the slot), then runs the series' event.
    fn fire_series(world: &mut W, eng: &mut Engine<W>, slot: u64) {
        let s = eng.series[slot as usize]
            .as_mut()
            .expect("a queued occurrence names a live series");
        let (f, arg, next) = (s.f, s.arg, s.next);
        s.left -= 1;
        eng.unqueued -= 1;
        if s.left == 0 {
            eng.series[slot as usize] = None;
            eng.schedule_reserved(next, f, arg);
        } else {
            s.next = Reserved(key(next.at().as_nanos() + s.interval, next.seq() + 1));
            eng.schedule_reserved(next, Self::fire_series, slot);
        }
        f(world, eng, arg);
    }

    /// Lets the running callback carry on as the event it would otherwise
    /// schedule at `at`, when that event would fire next: inside
    /// [`Engine::run`] or [`Engine::run_until`], `at` is strictly earlier
    /// than every pending event (an equal deadline fires the pending event
    /// first, as it was scheduled first) and no later than the run's
    /// deadline. Then the clock, the fired and scheduling counters and the
    /// probe move as scheduling and popping that event would, and `true`
    /// is returned: the caller runs the event's body inline. Otherwise
    /// nothing changes and the caller schedules the event. A past `at` is
    /// clamped to now, as [`Engine::schedule_at`] clamps it.
    ///
    /// Only a callback whose remaining body is that event may continue:
    /// after it, nothing of the current event may run. The callback hands
    /// back the `world` it was called with, for the probe. Nothing
    /// continues under [`Engine::step`], nor in a profiled run.
    pub fn continue_at(&mut self, world: &mut W, at: SimTime) -> bool {
        let Some(horizon) = self.horizon else {
            return false;
        };
        let at = at.max(self.now);
        if at > horizon {
            return false;
        }
        if self
            .heap
            .first()
            .is_some_and(|top| top.at() <= at.as_nanos())
        {
            return false;
        }
        self.seq += 1;
        self.advance_to(at);
        if let Some(probe) = self.probe {
            probe(world, at);
        }
        true
    }

    /// Adds `entry`, its key already set, to the heap.
    fn enqueue(&mut self, entry: Entry<W>) {
        if self.profiler.enabled() {
            let t = Instant::now();
            self.sift_up(entry);
            self.profiler.record("engine.push", t.elapsed());
        } else {
            self.sift_up(entry);
        }
    }

    /// Adds `entry` at the bottom of the heap and moves it up past every
    /// parent with a larger key.
    fn sift_up(&mut self, entry: Entry<W>) {
        let mut i = self.heap.len();
        self.heap.push(entry);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key < entry.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// Removes and returns the minimum-key entry.
    fn pop(&mut self) -> Option<Entry<W>> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        // Sift `last` down from the root into the hole `top` left: move
        // the smallest child up until `last` is smaller than it.
        let heap = &mut self.heap[..];
        let n = heap.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let child = if let Some(c) = heap.get(first..first + ARITY) {
                // A full node: the smaller of each pair, then of the two.
                let c: &[Entry<W>; ARITY] = c.try_into().expect("a node has four children");
                let a = usize::from(c[1].key < c[0].key);
                let b = 2 + usize::from(c[3].key < c[2].key);
                first + if c[b].key < c[a].key { b } else { a }
            } else if first < n {
                // The one node with fewer than four children.
                (first + 1..n).fold(first, |m, c| if heap[c].key < heap[m].key { c } else { m })
            } else {
                break;
            };
            if last.key < heap[child].key {
                break;
            }
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = last;
        Some(top)
    }

    /// Fires the next pending event, advancing time to its deadline.
    /// Outside [`Engine::run`] and [`Engine::run_until`] no callback
    /// continues ([`Engine::continue_at`]), so exactly one event fires.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        if self.profiler.enabled() {
            return self.step_profiled(world);
        }
        match self.pop() {
            Some(e) => {
                let at = SimTime::from_nanos(e.at());
                self.advance_to(at);
                if let Some(probe) = self.probe {
                    probe(world, at);
                }
                (e.f)(world, self, e.arg);
                true
            }
            None => false,
        }
    }

    /// Moves the clock to `at`, the deadline of the event about to fire,
    /// and counts the event.
    fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.fired += 1;
    }

    /// [`Engine::step`] with wall-clock scopes around the heap pop, the
    /// probe and the callback. Identical event semantics — only timing is
    /// added.
    fn step_profiled(&mut self, world: &mut W) -> bool {
        let t = Instant::now();
        let popped = self.pop();
        self.profiler.record("engine.pop", t.elapsed());
        let Some(e) = popped else {
            return false;
        };
        let at = SimTime::from_nanos(e.at());
        self.advance_to(at);
        if let Some(probe) = self.probe {
            let t = Instant::now();
            probe(world, at);
            self.profiler.record("engine.probe", t.elapsed());
        }
        let t = Instant::now();
        (e.f)(world, self, e.arg);
        self.profiler.record("engine.callback", t.elapsed());
        true
    }

    /// Runs until no events remain.
    pub fn run(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `deadline`. Time is left at the last fired event (it does not jump to
    /// the deadline).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        self.horizon = (!self.profiler.enabled()).then_some(deadline);
        while self
            .heap
            .first()
            .is_some_and(|e| e.at() <= deadline.as_nanos())
        {
            self.step(world);
        }
        self.horizon = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfReport;

    /// Records its argument.
    fn push(w: &mut Vec<u32>, _: &mut Engine<Vec<u32>>, v: u64) {
        w.push(v as u32);
    }

    /// Counts a firing.
    fn hit(w: &mut u32, _: &mut Engine<u32>, _: u64) {
        *w += 1;
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(300), push, 3);
        eng.schedule_at(SimTime::from_nanos(100), push, 1);
        eng.schedule_at(SimTime::from_nanos(200), push, 2);
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_nanos(50), push, i);
        }
        eng.run(&mut order);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_before_later_events() {
        let mut hits = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), hit, 0);
        eng.schedule_at(SimTime::from_nanos(200), hit, 0);
        eng.schedule_at(SimTime::from_nanos(300), hit, 0);
        eng.run_until(&mut hits, SimTime::from_nanos(200));
        assert_eq!(hits, 2);
        assert_eq!(eng.now(), SimTime::from_nanos(200));
        assert_eq!(eng.pending(), 1);
        eng.run(&mut hits);
        assert_eq!(hits, 3);
    }

    #[test]
    fn chained_scheduling() {
        // An event chain: each fires 10ns later, 100 links.
        struct W {
            n: u32,
        }
        fn link(w: &mut W, eng: &mut Engine<W>, _: u64) {
            w.n += 1;
            if w.n < 100 {
                eng.schedule_in(SimDuration::nanos(10), link, 0);
            }
        }
        let mut w = W { n: 0 };
        let mut eng = Engine::new();
        eng.schedule_now(link, 0);
        eng.run(&mut w);
        assert_eq!(w.n, 100);
        assert_eq!(eng.now(), SimTime::from_nanos(990));
    }

    #[test]
    fn schedule_now_runs_after_pending_same_time_events() {
        fn first(w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>>, _: u64) {
            w.push(1);
            eng.schedule_now(push, 3);
        }
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::ZERO, first, 0);
        eng.schedule_at(SimTime::ZERO, push, 2);
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn engine_is_scenario_isolated_across_threads() {
        // The parallel sweep runner constructs one Engine + world per OS
        // thread. Nothing in the engine reaches for globals or thread-local
        // state, so identically-seeded runs on different threads are
        // bit-identical, and runs racing in parallel do not perturb each
        // other.
        fn add(w: &mut u64, _: &mut Engine<u64>, _: u64) {
            *w += 1;
        }
        fn run(seed: u64) -> (u64, SimTime) {
            let mut n = 0u64;
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..seed % 17 + 3 {
                eng.schedule_at(SimTime::from_nanos(i * 7), add, 0);
            }
            eng.run(&mut n);
            (n, eng.now())
        }
        let here: Vec<_> = (0..4u64).map(run).collect();
        let handles: Vec<_> = (0..4u64)
            .map(|s| std::thread::spawn(move || run(s)))
            .collect();
        let there: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(here, there);
    }

    #[test]
    fn profiled_run_fires_the_same_events_and_records_scopes() {
        fn two(w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>>, _: u64) {
            w.push(2);
            eng.schedule_in(SimDuration::nanos(50), push, 3);
        }
        fn run(profiled: bool) -> (Vec<u32>, SimTime, ProfReport) {
            let mut order: Vec<u32> = Vec::new();
            let mut eng: Engine<Vec<u32>> = Engine::new();
            eng.set_profiler(Profiler::new(profiled));
            eng.schedule_at(SimTime::from_nanos(200), two, 0);
            eng.schedule_at(SimTime::from_nanos(100), push, 1);
            eng.run(&mut order);
            (order, eng.now(), eng.profiler().export())
        }
        let (plain, plain_now, off) = run(false);
        let (profiled, prof_now, report) = run(true);
        assert_eq!(plain, profiled);
        assert_eq!(plain_now, prof_now);
        assert!(off.scopes.is_empty());
        for scope in ["engine.pop", "engine.push", "engine.callback"] {
            let s = report
                .scope(scope)
                .unwrap_or_else(|| panic!("missing {scope}"));
            assert!(s.calls >= 3, "{scope}: {} calls", s.calls);
        }
        // No probe installed: the probe scope never opened.
        assert!(report.scope("engine.probe").is_none());
    }

    #[test]
    fn past_schedule_clamps_behind_events_due_now() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(1000), push, 1);
        eng.step(&mut order);
        eng.schedule_at(SimTime::from_nanos(1000), push, 2);
        // The release-build path of a past schedule (debug builds assert).
        let past = eng.reserve(SimTime::from_nanos(5));
        eng.queue(past, push, 3);
        eng.schedule_at(SimTime::from_nanos(1000), push, 4);
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(eng.now(), SimTime::from_nanos(1000));
    }

    /// Records the time, then carries on 10 ns later `left` more times,
    /// inline whenever the engine lets it continue.
    fn tail(w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>>, mut left: u64) {
        loop {
            w.push(eng.now().as_nanos() as u32);
            if left == 0 {
                return;
            }
            left -= 1;
            let at = eng.now() + SimDuration::nanos(10);
            if !eng.continue_at(w, at) {
                eng.schedule_at(at, tail, left);
                return;
            }
        }
    }

    #[test]
    fn step_fires_exactly_one_event_even_when_its_tail_would_fire_next() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::ZERO, tail, 3);
        eng.schedule_at(SimTime::from_nanos(1000), push, 7);
        assert!(eng.step(&mut order));
        assert_eq!(order, vec![0]);
        assert_eq!((eng.events_fired(), eng.pending()), (1, 2));
        assert_eq!(eng.now(), SimTime::ZERO);
        eng.run(&mut order);
        assert_eq!(order, vec![0, 10, 20, 30, 7]);
        assert_eq!(eng.events_fired(), 5);
    }

    /// The probe of a counting world: marks each firing in the record.
    const PROBED: u32 = u32::MAX;

    fn mark_probe(w: &mut Vec<u32>, _: SimTime) {
        w.push(PROBED);
    }

    #[test]
    fn a_tail_continues_inside_run_and_counts_as_an_event() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.set_probe(mark_probe);
        eng.schedule_at(SimTime::ZERO, tail, 3);
        // A pending event tying the tail's third link fires before it.
        eng.schedule_at(SimTime::from_nanos(20), push, 7);
        eng.run(&mut order);
        // The probe fires before every event, the continued links too.
        let p = PROBED;
        assert_eq!(order, vec![p, 0, p, 10, p, 7, p, 20, p, 30]);
        assert_eq!(eng.events_fired(), 5);
        // Continued events took scheduling numbers: an event scheduled now
        // gets the one it would have had.
        assert_eq!(eng.seq, 5);
    }

    #[test]
    fn a_tail_stops_at_the_run_until_deadline() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::ZERO, tail, 3);
        eng.run_until(&mut order, SimTime::from_nanos(15));
        assert_eq!(order, vec![0, 10]);
        assert_eq!((eng.events_fired(), eng.pending()), (2, 1));
        assert_eq!(eng.now(), SimTime::from_nanos(10));
        // Outside a run, nothing continues.
        assert!(!eng.continue_at(&mut order, SimTime::from_nanos(11)));
        eng.run(&mut order);
        assert_eq!(order, vec![0, 10, 20, 30]);
    }

    #[test]
    fn calls_fire_by_deadline_then_schedule_order() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(20), push, 3);
        eng.schedule_at(SimTime::from_nanos(10), push, 1);
        eng.schedule_at(SimTime::from_nanos(10), push, 2);
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    /// A world holding an event reserved for later.
    #[derive(Default)]
    struct Held {
        order: Vec<u32>,
        held: Option<Reserved>,
    }

    fn record(w: &mut Held, _: &mut Engine<Held>, v: u64) {
        w.order.push(v as u32);
    }

    /// Records 0, then queues the held event.
    fn release_held(w: &mut Held, eng: &mut Engine<Held>, _: u64) {
        w.order.push(0);
        if let Some(r) = w.held.take() {
            eng.schedule_reserved(r, record, 1);
        }
    }

    #[test]
    fn a_reserved_event_fires_where_schedule_at_would_have_put_it() {
        type Fired = (Vec<u32>, u64, SimTime, u64);
        fn run(reserve: bool) -> (Fired, usize) {
            let mut w = Held::default();
            let mut eng: Engine<Held> = Engine::new();
            let at = SimTime::from_nanos(20);
            eng.schedule_at(SimTime::from_nanos(10), release_held, 0);
            // Ties event 1's deadline, scheduled before it.
            eng.schedule_at(at, record, 4);
            if reserve {
                let r = eng.reserve_at(at);
                assert_eq!(r.at(), at);
                w.held = Some(r);
            } else {
                eng.schedule_at(at, record, 1);
            }
            // Ties it too, scheduled after it.
            eng.schedule_at(at, record, 2);
            eng.schedule_at(SimTime::from_nanos(15), record, 3);
            let pending = eng.pending();
            eng.run(&mut w);
            let fired = (w.order, eng.events_fired(), eng.now(), eng.seq);
            (fired, pending)
        }
        let ((plain, plain_pending), (reserved, reserved_pending)) = (run(false), run(true));
        assert_eq!(plain.0, vec![0, 3, 4, 1, 2]);
        assert_eq!(plain, reserved);
        // A reserved event is pending only once it is queued.
        assert_eq!((plain_pending, reserved_pending), (5, 4));
    }

    #[test]
    fn a_reserved_event_never_queued_fires_nothing_but_keeps_its_number() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let dropped = eng.reserve_at(SimTime::from_nanos(5));
        eng.schedule_at(SimTime::from_nanos(5), push, 1);
        assert_eq!((eng.pending(), eng.seq), (1, 2));
        eng.run(&mut order);
        assert_eq!(order, vec![1]);
        assert_eq!(eng.events_fired(), 1);
        // Its key still orders before the event scheduled after it.
        let later = Reserved(key(5, 1));
        assert!(dropped < later);
    }

    #[test]
    fn an_empty_series_schedules_nothing() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let at = SimTime::from_nanos(100);
        eng.schedule_series(
            at,
            SimDuration::nanos(10),
            at - SimDuration::nanos(1),
            push,
            1,
        );
        assert_eq!((eng.pending(), eng.seq), (0, 0));
        eng.run(&mut order);
        assert!(order.is_empty());
        assert_eq!(eng.events_fired(), 0);
    }

    #[test]
    fn a_series_of_one_is_one_plain_event() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let at = SimTime::from_nanos(100);
        // `last` short of the second occurrence: one occurrence.
        eng.schedule_series(
            at,
            SimDuration::nanos(10),
            at + SimDuration::nanos(9),
            push,
            1,
        );
        eng.schedule_at(at, push, 2);
        assert_eq!((eng.pending(), eng.seq), (2, 2));
        assert!(eng.series.is_empty());
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2]);
        assert_eq!(eng.now(), at);
    }

    #[test]
    fn a_series_fires_as_its_schedule_at_loop_would() {
        fn run(lazy: bool) -> (Vec<u32>, Vec<usize>, u64) {
            let mut order = Vec::new();
            let mut eng: Engine<Vec<u32>> = Engine::new();
            eng.schedule_at(SimTime::from_nanos(20), push, 7);
            let (first, step) = (SimTime::from_nanos(10), SimDuration::nanos(10));
            let last = SimTime::from_nanos(40);
            if lazy {
                eng.schedule_series(first, step, last, push, 1);
            } else {
                let mut at = first;
                while at <= last {
                    eng.schedule_at(at, push, 1);
                    at += step;
                }
            }
            // Ties the series' third occurrence, scheduled after it.
            eng.schedule_at(SimTime::from_nanos(30), push, 8);
            let mut pending = vec![eng.pending()];
            while eng.step(&mut order) {
                pending.push(eng.pending());
            }
            (order, pending, eng.seq)
        }
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).0, vec![1, 7, 1, 1, 8, 1]);
    }

    #[test]
    #[should_panic(expected = "positive interval")]
    fn a_series_rejects_a_zero_interval() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let at = SimTime::from_nanos(100);
        eng.schedule_series(at, SimDuration::ZERO, at, push, 1);
    }

    #[test]
    fn a_tail_never_continues_past_a_queued_occurrence() {
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::ZERO, tail, 3);
        // Occurrences at 15 and 25: the tail's links at 10, 20 and 30
        // each continue only up to the next occurrence, which fires in
        // between even though it was never on the heap at the start.
        let step = SimDuration::nanos(10);
        eng.schedule_series(
            SimTime::from_nanos(15),
            step,
            SimTime::from_nanos(25),
            push,
            7,
        );
        assert_eq!(eng.pending(), 3);
        eng.run(&mut order);
        assert_eq!(order, vec![0, 10, 7, 20, 7, 30]);
        assert_eq!(eng.events_fired(), 6);
        assert!(eng.series.iter().all(Option::is_none));
    }
}
