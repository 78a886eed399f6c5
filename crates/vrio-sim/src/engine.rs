//! The discrete-event simulation engine.
//!
//! [`Engine<W, E>`] owns a priority queue of scheduled events over a
//! user-supplied world type `W`. The event payload type `E` implements
//! [`Dispatch<W>`]; firing an event may mutate the world and schedule
//! further events. Ties in firing time are broken by scheduling order
//! (FIFO), which together with the deterministic RNG makes every run
//! bit-for-bit reproducible.
//!
//! Two event representations share the one engine:
//!
//! - **Boxed events** (the default, `E = `[`BoxedEvent<W>`]): a
//!   `schedule_at` closure is boxed — one heap allocation per scheduled
//!   event — while [`Engine::schedule_call_at`] stores a plain function and
//!   its `u64` argument and allocates nothing. The testbed flows use both:
//!   closures for their completions, calls to resume a parked flow.
//! - **Typed events**: instantiate `Engine<W, E>` with a plain `enum`
//!   implementing [`Dispatch<W>`] and schedule with
//!   [`Engine::schedule_event_at`]. Events are stored *by value* in the
//!   heap's `Vec`, which retains its capacity across pops and so acts as a
//!   recycled arena: steady-state scheduling performs **zero heap
//!   allocations per event** (asserted by the counting-allocator perf
//!   harness in `vrio-bench`). A `Send`-able event enum is also the
//!   prerequisite for sharding the simulation across threads (ROADMAP
//!   item 1) — `Box<dyn FnOnce>` closures are neither `Send` nor
//!   serializable across shard boundaries.
//!
//! The queue is one [`BinaryHeap`] of `(at, seq, event)` entries,
//! min-ordered by `(at, seq)`; `seq` is the scheduling counter, so equal
//! deadlines fire in scheduling order. The experiments keep few events
//! pending (tens on the racks, at most a few thousand on the lossy block
//! runs; DESIGN.md §10), where a heap's `O(log n)` sifts over a small array
//! beat any bucketed queue.
//!
//! The observe-only probe ([`Engine::set_probe`]) stays a
//! `Box<dyn FnMut(SimTime)>` regardless of `E`: it is invoked in
//! [`Engine::step`] *after* the event is popped off the heap and *before*
//! it dispatches, so it never touches event storage and cannot perturb the
//! simulation — enabling it is bit-identical on every model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::profiler::Profiler;
use crate::time::{SimDuration, SimTime};

/// A scheduled closure-event callback (the payload of [`BoxedEvent`]).
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// A plain event function taking one `u64` argument: what
/// [`Engine::schedule_call_at`] schedules, without allocating.
pub type CallFn<W> = fn(&mut W, &mut Engine<W>, u64);

/// How an event payload fires. Implemented by [`BoxedEvent`] (closure
/// dispatch) and by user-defined typed event enums; the world interprets
/// the event, so a typed `E` needs no per-event heap state.
pub trait Dispatch<W>: Sized {
    /// Consumes the event, mutating the world and possibly scheduling
    /// further events.
    fn dispatch(self, world: &mut W, eng: &mut Engine<W, Self>);
}

/// The default event payload.
pub enum BoxedEvent<W> {
    /// A boxed `FnOnce` closure: one heap allocation per event.
    Closure(EventFn<W>),
    /// A plain function and its argument: no allocation.
    Call(CallFn<W>, u64),
}

impl<W> Dispatch<W> for BoxedEvent<W> {
    #[inline]
    fn dispatch(self, world: &mut W, eng: &mut Engine<W>) {
        match self {
            BoxedEvent::Closure(f) => f(world, eng),
            BoxedEvent::Call(f, arg) => f(world, eng, arg),
        }
    }
}

/// A heap entry, min-ordered by `(at, seq)`.
struct Entry<E> {
    at: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event simulator over a world type `W` and an
/// event payload type `E` (default: boxed closures).
///
/// # Examples
///
/// Closure events (the default instantiation):
///
/// ```
/// use vrio_sim::{Engine, SimDuration, SimTime};
///
/// struct World { pings: u32 }
///
/// let mut world = World { pings: 0 };
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::micros(5), |w: &mut World, eng| {
///     w.pings += 1;
///     // Events may schedule further events.
///     eng.schedule_in(SimDuration::micros(5), |w: &mut World, _| w.pings += 1);
/// });
/// engine.run(&mut world);
/// assert_eq!(world.pings, 2);
/// assert_eq!(engine.now(), SimTime::from_nanos(10_000));
/// ```
///
/// Typed events — no allocation per schedule, `Send`-able payloads:
///
/// ```
/// use vrio_sim::{Dispatch, Engine, SimDuration};
///
/// enum Ev { Ping, Pong }
/// impl Dispatch<u32> for Ev {
///     fn dispatch(self, w: &mut u32, eng: &mut Engine<u32, Ev>) {
///         *w += 1;
///         if matches!(self, Ev::Ping) {
///             eng.schedule_event_in(SimDuration::micros(1), Ev::Pong);
///         }
///     }
/// }
/// let mut hits = 0u32;
/// let mut eng: Engine<u32, Ev> = Engine::new();
/// eng.schedule_event_in(SimDuration::micros(1), Ev::Ping);
/// eng.run(&mut hits);
/// assert_eq!(hits, 2);
/// ```
pub struct Engine<W, E: Dispatch<W> = BoxedEvent<W>> {
    now: SimTime,
    seq: u64,
    fired: u64,
    queue: BinaryHeap<Entry<E>>,
    /// Observe-only hook fired once per event (see [`Engine::set_probe`]).
    /// Deliberately a boxed closure even on typed-event engines: it runs
    /// outside the event arena path (between pop and dispatch) and is
    /// installed O(1) times per run, so boxing it costs nothing on the hot
    /// path and keeps the hook maximally flexible.
    probe: Option<Box<dyn FnMut(SimTime)>>,
    /// Wall-clock self-profiler; `None` unless an enabled handle was
    /// installed (see [`Engine::set_profiler`]), so the hot path pays one
    /// branch when profiling is off.
    profiler: Option<Profiler>,
    /// `W` appears only in the `Dispatch` bound, not in any field.
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Dispatch<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: Dispatch<W>> Engine<W, E> {
    /// Creates an empty engine at `t = 0`.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            queue: BinaryHeap::new(),
            probe: None,
            profiler: None,
            _world: PhantomData,
        }
    }

    /// Installs an observe-only probe called with the firing time of every
    /// event, just before its callback runs (the tracing layer's event-fire
    /// hook). The probe cannot schedule events or touch the world, so it
    /// cannot perturb the simulation; replacing or clearing it does not
    /// affect reproducibility.
    pub fn set_probe<F>(&mut self, f: F)
    where
        F: FnMut(SimTime) + 'static,
    {
        self.probe = Some(Box::new(f));
    }

    /// Removes the event probe.
    pub fn clear_probe(&mut self) {
        self.probe = None;
    }

    /// Installs a wall-clock self-profiler. When the handle is enabled the
    /// engine times each event's queue pop (`engine.pop`), probe run
    /// (`engine.probe`) and callback body (`engine.callback`); a disabled
    /// handle is dropped so the hot path stays timestamp-free. Profiling is
    /// observe-only for the simulation: results are bit-identical with it
    /// on or off (only wall-clock PROF output differs, which is excluded
    /// from byte-identity gates).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler.enabled().then_some(profiler);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a typed event to fire at absolute time `at`, stored by
    /// value in the heap (no allocation once the heap has grown).
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// at the current time (still after all already-pending events at that
    /// time), and a debug assertion trips in test builds.
    pub fn schedule_event_at(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        self.push(at, ev);
    }

    /// Queues `ev` at `at`, clamped to now: a clamped event still gets the
    /// next `seq`, so it fires after everything already due now.
    fn push(&mut self, at: SimTime, ev: E) {
        let entry = Entry {
            at: at.max(self.now).as_nanos(),
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        if let Some(prof) = &self.profiler {
            let _g = prof.scope("engine.push");
            self.queue.push(entry);
        } else {
            self.queue.push(entry);
        }
    }

    /// Schedules a typed event to fire `delay` after the current time.
    pub fn schedule_event_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_event_at(self.now + delay, ev);
    }

    /// Schedules a typed event to fire immediately after all events already
    /// pending at the current time.
    pub fn schedule_event_now(&mut self, ev: E) {
        self.schedule_event_at(self.now, ev);
    }

    /// Fires the next pending event, advancing time to its deadline.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        if self.profiler.is_some() {
            return self.step_profiled(world);
        }
        match self.queue.pop() {
            Some(Entry { at, ev, .. }) => {
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.now);
                self.now = at;
                self.fired += 1;
                if let Some(probe) = &mut self.probe {
                    probe(at);
                }
                ev.dispatch(world, self);
                true
            }
            None => false,
        }
    }

    /// [`Engine::step`] with wall-clock scopes around the heap pop, the
    /// probe and the callback. Identical event semantics — only timing is
    /// added.
    fn step_profiled(&mut self, world: &mut W) -> bool {
        let prof = self
            .profiler
            .clone()
            .expect("step_profiled without profiler");
        let popped = {
            let _g = prof.scope("engine.pop");
            self.queue.pop()
        };
        match popped {
            Some(Entry { at, ev, .. }) => {
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.now);
                self.now = at;
                self.fired += 1;
                if let Some(probe) = &mut self.probe {
                    let _g = prof.scope("engine.probe");
                    probe(at);
                }
                let _g = prof.scope("engine.callback");
                ev.dispatch(world, self);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `deadline`. Time is left at the last fired event (it does not jump to
    /// the deadline).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(next) = self.queue.peek() {
            if SimTime::from_nanos(next.at) > deadline {
                break;
            }
            self.step(world);
        }
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, world: &mut W, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(world, deadline);
    }

    /// Runs while `cond` holds (checked before each event) and events remain.
    pub fn run_while<F>(&mut self, world: &mut W, mut cond: F)
    where
        F: FnMut(&W) -> bool,
    {
        while cond(world) && self.step(world) {}
    }
}

/// Closure scheduling — only on the default (boxed-closure) instantiation.
impl<W> Engine<W> {
    /// Schedules `f` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// at the current time (still after all already-pending events at that
    /// time), and a debug assertion trips in test builds.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_event_at(at, BoxedEvent::Closure(Box::new(f)));
    }

    /// Schedules `f(world, engine, arg)` to fire at absolute time `at`.
    /// Unlike [`Engine::schedule_at`] this boxes nothing: the event holds
    /// the function pointer and `arg` by value, so a caller that keeps its
    /// state elsewhere (and names it by `arg`) schedules without
    /// allocating. Same past-clamping as [`Engine::schedule_at`].
    pub fn schedule_call_at(&mut self, at: SimTime, f: CallFn<W>, arg: u64) {
        self.schedule_event_at(at, BoxedEvent::Call(f, arg));
    }

    /// Schedules `f` to fire `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules `f` to fire immediately after all events already pending at
    /// the current time.
    pub fn schedule_now<F>(&mut self, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_at(self.now, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(300), |w, _| w.push(3));
        eng.schedule_at(SimTime::from_nanos(100), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_nanos(200), |w, _| w.push(2));
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_nanos(50), move |w, _| w.push(i));
        }
        eng.run(&mut order);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_before_later_events() {
        let mut hits = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_nanos(200), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_nanos(300), |w, _| *w += 1);
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
        fn link(w: &mut W, eng: &mut Engine<W>) {
            w.n += 1;
            if w.n < 100 {
                eng.schedule_in(SimDuration::nanos(10), link);
            }
        }
        let mut w = W { n: 0 };
        let mut eng = Engine::new();
        eng.schedule_now(link);
        eng.run(&mut w);
        assert_eq!(w.n, 100);
        assert_eq!(eng.now(), SimTime::from_nanos(990));
    }

    #[test]
    fn run_while_condition() {
        let mut n = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..100u64 {
            eng.schedule_at(SimTime::from_nanos(i), |w, _| *w += 1);
        }
        eng.run_while(&mut n, |w| *w < 10);
        assert_eq!(n, 10);
    }

    #[test]
    fn schedule_now_runs_after_pending_same_time_events() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::ZERO, |w, eng| {
            w.push(1);
            eng.schedule_now(|w: &mut Vec<u32>, _| w.push(3));
        });
        eng.schedule_at(SimTime::ZERO, |w, _| w.push(2));
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
        fn run(seed: u64) -> (u64, SimTime) {
            let mut n = 0u64;
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..seed % 17 + 3 {
                eng.schedule_at(SimTime::from_nanos(i * 7), |w, _| *w += 1);
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
        fn run(profiled: bool) -> (Vec<u32>, SimTime, Profiler) {
            let mut order: Vec<u32> = Vec::new();
            let mut eng: Engine<Vec<u32>> = Engine::new();
            let prof = Profiler::new(profiled);
            eng.set_profiler(prof.clone());
            eng.schedule_at(SimTime::from_nanos(200), |w, eng| {
                w.push(2);
                eng.schedule_in(SimDuration::nanos(50), |w: &mut Vec<u32>, _| w.push(3));
            });
            eng.schedule_at(SimTime::from_nanos(100), |w, _| w.push(1));
            eng.run(&mut order);
            (order, eng.now(), prof)
        }
        let (plain, plain_now, off) = run(false);
        let (profiled, prof_now, prof) = run(true);
        assert_eq!(plain, profiled);
        assert_eq!(plain_now, prof_now);
        assert!(off.export().scopes.is_empty());
        let report = prof.export();
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
    fn run_for_is_relative() {
        let mut n = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_nanos(250), |w, _| *w += 1);
        eng.run_for(&mut n, SimDuration::nanos(150));
        assert_eq!(n, 1);
        eng.run_for(&mut n, SimDuration::nanos(300));
        assert_eq!(n, 2);
    }

    #[test]
    fn past_schedule_clamps_behind_events_due_now() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(1000), |w, _| w.push(1));
        eng.step(&mut order);
        eng.schedule_at(SimTime::from_nanos(1000), |w, _| w.push(2));
        // The release-build path of a past schedule (debug builds assert).
        eng.push(
            SimTime::from_nanos(5),
            BoxedEvent::Closure(Box::new(|w, _| w.push(3))),
        );
        eng.schedule_at(SimTime::from_nanos(1000), |w, _| w.push(4));
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(eng.now(), SimTime::from_nanos(1000));
    }

    #[test]
    fn calls_fire_in_order_with_closures() {
        fn call(w: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, arg: u64) {
            w.push(arg);
        }
        let mut order = Vec::new();
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_call_at(SimTime::from_nanos(20), call, 3);
        eng.schedule_at(SimTime::from_nanos(10), |w, _| w.push(1));
        eng.schedule_call_at(SimTime::from_nanos(10), call, 2);
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    /// Typed events fire interchangeably with closure events: same
    /// (time, seq) order, same world effects.
    #[test]
    fn typed_events_match_closure_engine() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Ev {
            Push(u32),
            Chain { left: u32, step: u64 },
        }
        impl Dispatch<Vec<u32>> for Ev {
            fn dispatch(self, w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>, Ev>) {
                match self {
                    Ev::Push(v) => w.push(v),
                    Ev::Chain { left, step } => {
                        w.push(left);
                        if left > 0 {
                            eng.schedule_event_in(
                                SimDuration::nanos(step),
                                Ev::Chain {
                                    left: left - 1,
                                    step,
                                },
                            );
                        }
                    }
                }
            }
        }
        // The typed enum is Send — the property sharded DES will rely on.
        fn assert_send<T: Send>() {}
        assert_send::<Ev>();

        fn typed(mut eng: Engine<Vec<u32>, Ev>) -> (Vec<u32>, SimTime, u64) {
            let mut w = Vec::new();
            eng.schedule_event_at(SimTime::from_nanos(50), Ev::Push(7));
            eng.schedule_event_at(SimTime::from_nanos(10), Ev::Chain { left: 3, step: 25 });
            eng.schedule_event_at(SimTime::from_nanos(50), Ev::Push(8));
            eng.run(&mut w);
            (w, eng.now(), eng.events_fired())
        }
        fn closures() -> (Vec<u32>, SimTime, u64) {
            let mut w = Vec::new();
            let mut eng: Engine<Vec<u32>> = Engine::new();
            fn chain(w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>>, left: u32, step: u64) {
                w.push(left);
                if left > 0 {
                    eng.schedule_in(SimDuration::nanos(step), move |w: &mut Vec<u32>, eng| {
                        chain(w, eng, left - 1, step);
                    });
                }
            }
            eng.schedule_at(SimTime::from_nanos(50), |w, _| w.push(7));
            eng.schedule_at(SimTime::from_nanos(10), |w, eng| chain(w, eng, 3, 25));
            eng.schedule_at(SimTime::from_nanos(50), |w, _| w.push(8));
            eng.run(&mut w);
            (w, eng.now(), eng.events_fired())
        }
        assert_eq!(typed(Engine::new()), closures());
    }
}
