//! Model-based tests of the engine's event queue: for arbitrary schedules
//! — same-time ties, stale deadlines, events scheduled from inside
//! callbacks, callbacks that carry on inline as their own next event
//! (`Engine::continue_at`), lazily queued series (`Engine::schedule_series`),
//! events reserved now and queued later (`Engine::reserve_at`) and
//! `run_until` boundaries — the engine must fire exactly what a
//! brute-force model fires when it always takes the pending `(at, seq)`
//! minimum; the model expands each series into one event per occurrence
//! and schedules each reserved event when it is reserved. Plus a
//! regression test that `schedule_now` bursts never reorder.

use proptest::prelude::*;
use vrio_sim::{Engine, Reserved, SimDuration, SimTime};

/// One scheduling instruction of a generated program, an event at an
/// absolute offset: a root which, when fired, schedules `children` more
/// events at the given relative delays (0 = same instant), a chain
/// which carries on to a next link at each of `delays` in turn, or a
/// series firing at `at` and every `interval` after it up to `last`
/// (none when `last < at`), or an event reserved at `at + after` and
/// queued by a gate event at `at`, scheduled just before the reservation.
#[derive(Debug, Clone)]
enum Op {
    Root { at: u64, children: Vec<u64> },
    Chain { at: u64, delays: Vec<u64> },
    Series { at: u64, interval: u64, last: u64 },
    Reserved { at: u64, after: u64 },
}

impl Op {
    fn at(&self) -> u64 {
        match self {
            Op::Root { at, .. }
            | Op::Chain { at, .. }
            | Op::Series { at, .. }
            | Op::Reserved { at, .. } => *at,
        }
    }
}

/// The recorded firing sequence: (event label, firing time).
type Trace = Vec<(u64, u64)>;

/// The label of the `i`-th child of the event labelled `parent`.
fn child_label(parent: u64, i: usize) -> u64 {
    (parent << 16) | (i as u64 + 1)
}

/// What a model event does when it fires.
#[derive(Debug, Clone)]
enum Action {
    /// Record `label`, then schedule `children` at the given delays.
    Root { label: u64, children: Vec<u64> },
    /// Record `label`.
    Leaf { label: u64 },
    /// Record link `link` of chain `label`, then schedule the next link
    /// at the chain's next delay.
    Chain { label: u64, link: usize },
    /// Record `label`: the gate that queues a reserved event, which the
    /// model has pending since its reservation.
    Gate { label: u64 },
}

/// The brute-force reference queue: pending events in a plain list, each
/// step removing the `(at, seq)` minimum by linear scan.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    pending: Vec<(u64, u64, Action)>,
    fired: u64,
    trace: Trace,
    /// Each chain's delays between links, by chain label.
    chains: Vec<Vec<u64>>,
    /// Reserved events whose gate has not fired: pending here, but not
    /// yet queued on the engine.
    held: usize,
}

impl Model {
    /// Queues `action` at `at`, clamped to now (the engine's contract).
    fn schedule(&mut self, at: u64, action: Action) {
        self.pending.push((at.max(self.now), self.seq, action));
        self.seq += 1;
    }

    /// The index of the pending `(at, seq)` minimum.
    fn next(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    /// Fires the pending minimum; `false` if nothing is pending.
    fn step(&mut self) -> bool {
        let Some(i) = self.next() else {
            return false;
        };
        let (at, _, action) = self.pending.swap_remove(i);
        self.now = at;
        self.fired += 1;
        match action {
            Action::Root { label, children } => {
                self.trace.push((label, at));
                for (i, d) in children.into_iter().enumerate() {
                    let label = child_label(label, i);
                    self.schedule(at + d, Action::Leaf { label });
                }
            }
            Action::Leaf { label } => self.trace.push((label, at)),
            Action::Gate { label } => {
                self.trace.push((label, at));
                self.held -= 1;
            }
            Action::Chain { label, link } => {
                self.trace.push((link_label(label, link), at));
                if let Some(&d) = self.chains[label as usize].get(link) {
                    let link = link + 1;
                    self.schedule(at + d, Action::Chain { label, link });
                }
            }
        }
        true
    }

    fn run(&mut self) {
        while self.step() {}
    }

    fn run_until(&mut self, deadline: u64) {
        while self.next().is_some_and(|i| self.pending[i].0 <= deadline) {
            self.step();
        }
    }
}

/// The label of link `link` of the chain labelled `chain`.
fn link_label(chain: u64, link: usize) -> u64 {
    (chain << 16) | link as u64
}

/// The engine's world: the trace, plus each root's child delays, which
/// a root event (its argument is its label) looks up when it fires, each
/// chain's link delays, and the reserved event each gate queues.
#[derive(Default)]
struct World {
    children: Vec<Vec<u64>>,
    chains: Vec<Vec<u64>>,
    held: Vec<Option<Reserved>>,
    trace: Trace,
}

/// Records the event labelled `label`.
fn leaf(w: &mut World, e: &mut Engine<World>, label: u64) {
    w.trace.push((label, e.now().as_nanos()));
}

/// Records root `label`, then schedules its children at their delays.
fn root(w: &mut World, e: &mut Engine<World>, label: u64) {
    leaf(w, e, label);
    for (i, &d) in w.children[label as usize].iter().enumerate() {
        e.schedule_in(SimDuration::nanos(d), leaf, child_label(label, i));
    }
}

/// Records the chain link labelled `arg`, then carries the chain on to
/// its next link: inline when the engine lets it continue, otherwise by
/// scheduling it.
fn chain(w: &mut World, e: &mut Engine<World>, mut arg: u64) {
    loop {
        leaf(w, e, arg);
        let (label, link) = (arg >> 16, (arg & 0xFFFF) as usize);
        let Some(&d) = w.chains[label as usize].get(link) else {
            return;
        };
        arg += 1;
        let at = e.now() + SimDuration::nanos(d);
        if !e.continue_at(w, at) {
            e.schedule_at(at, chain, arg);
            return;
        }
    }
}

/// Records gate `arg`, then queues the event its op reserved.
fn gate(w: &mut World, e: &mut Engine<World>, arg: u64) {
    leaf(w, e, arg);
    let r = w.held[(arg >> 16) as usize]
        .take()
        .expect("one gate per reservation");
    e.schedule_reserved(r, leaf, arg + 1);
}

/// Schedules root `label` on the engine: it records itself and schedules
/// `children` at the given delays, each recording itself. Labels are
/// scheduled in order from 0, so `label` indexes `w.children`.
fn schedule_root(w: &mut World, eng: &mut Engine<World>, at: u64, label: u64, children: Vec<u64>) {
    assert_eq!(w.children.len() as u64, label);
    w.children.push(children);
    eng.schedule_at(SimTime::from_nanos(at), root, label);
}

/// The `run_until` deadlines splitting a program's horizon into `chunks`
/// slices (none for 1 chunk = plain `run`).
fn chunk_deadlines(ops: &[Op], chunks: u64) -> Vec<u64> {
    if chunks <= 1 {
        return Vec::new();
    }
    let horizon = ops.iter().map(Op::at).max().unwrap_or(0) * 2 + 1000;
    (1..=chunks).map(|c| horizon * c / chunks).collect()
}

/// The state at a `run_until` boundary: trace length, clock, events fired
/// and events pending.
type Boundary = (usize, u64, u64, usize);

/// Runs `ops` on the engine through `run_until` at each deadline, then to
/// quiescence (stragglers past the horizon), and returns its trace and
/// its state at each deadline.
fn run_engine(ops: &[Op], deadlines: &[u64]) -> (Trace, Vec<Boundary>) {
    let mut eng = Engine::new();
    let mut w = World {
        held: vec![None; ops.len()],
        ..World::default()
    };
    for (label, op) in ops.iter().enumerate() {
        let label = label as u64;
        match op {
            Op::Root { at, children } => {
                w.chains.push(Vec::new());
                schedule_root(&mut w, &mut eng, *at, label, children.clone());
            }
            &Op::Reserved { at, after } => {
                w.children.push(Vec::new());
                w.chains.push(Vec::new());
                eng.schedule_at(SimTime::from_nanos(at), gate, link_label(label, 0));
                let r = eng.reserve_at(SimTime::from_nanos(at + after));
                assert_eq!(r.at(), SimTime::from_nanos(at + after));
                w.held[label as usize] = Some(r);
            }
            Op::Chain { at, delays } => {
                w.children.push(Vec::new());
                w.chains.push(delays.clone());
                eng.schedule_at(SimTime::from_nanos(*at), chain, link_label(label, 0));
            }
            &Op::Series { at, interval, last } => {
                w.children.push(Vec::new());
                w.chains.push(Vec::new());
                let (first, last) = (SimTime::from_nanos(at), SimTime::from_nanos(last));
                let interval = SimDuration::nanos(interval);
                eng.schedule_series(first, interval, last, leaf, link_label(label, 0));
            }
        }
    }
    let mut boundaries = Vec::new();
    for &d in deadlines {
        eng.run_until(&mut w, SimTime::from_nanos(d));
        let (now, fired) = (eng.now().as_nanos(), eng.events_fired());
        boundaries.push((w.trace.len(), now, fired, eng.pending()));
    }
    eng.run(&mut w);
    (w.trace, boundaries)
}

/// [`run_engine`] on the model.
fn run_model(ops: &[Op], deadlines: &[u64]) -> (Trace, Vec<Boundary>) {
    let mut model = Model::default();
    for (label, op) in ops.iter().enumerate() {
        let label = label as u64;
        match op {
            Op::Root { at, children } => {
                model.chains.push(Vec::new());
                let children = children.clone();
                model.schedule(*at, Action::Root { label, children });
            }
            &Op::Reserved { at, after } => {
                model.chains.push(Vec::new());
                let label = link_label(label, 0);
                model.schedule(at, Action::Gate { label });
                model.schedule(at + after, Action::Leaf { label: label + 1 });
                model.held += 1;
            }
            Op::Chain { at, delays } => {
                model.chains.push(delays.clone());
                model.schedule(*at, Action::Chain { label, link: 0 });
            }
            &Op::Series { at, interval, last } => {
                model.chains.push(Vec::new());
                let label = link_label(label, 0);
                for at in (at..=last).step_by(interval as usize) {
                    model.schedule(at, Action::Leaf { label });
                }
            }
        }
    }
    let mut boundaries = Vec::new();
    for &d in deadlines {
        model.run_until(d);
        let (now, fired) = (model.now, model.fired);
        let pending = model.pending.len() - model.held;
        boundaries.push((model.trace.len(), now, fired, pending));
    }
    model.run();
    (model.trace, boundaries)
}

/// Times packed into `0..64` with short delays, so chain links often tie
/// a pending event or land just before or after it.
fn dense() -> impl Strategy<Value = u64> {
    prop_oneof![3 => 0u64..64, 1 => 0u64..8]
}

/// A series from `at`, every `interval`, up to one ns short of `n`
/// intervals plus `r` ns on: empty when `n = r = 0` (and `at > 0`), a
/// single occurrence when `n = 0 < r <= interval`.
fn series((at, interval, n, r): (u64, u64, u64, u64)) -> Op {
    let last = (at + n * interval + r).saturating_sub(1);
    Op::Series { at, interval, last }
}

/// Deadline strategy mixing horizons: dense near-term ties, mid-range
/// values, and far-future ones up to 2^35 ns.
fn deadline() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..64,
        4 => 0u64..1_000,
        3 => 0u64..100_000,
        2 => 0u64..20_000_000,
        1 => 0u64..(1u64 << 35),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical firing sequences (labels AND times) from the engine and
    /// the model, for arbitrary schedules including re-entrant scheduling
    /// from inside callbacks, fired through 1–4 `run_until` chunks.
    #[test]
    fn engine_matches_model(
        ops in proptest::collection::vec(
            (deadline(), proptest::collection::vec(deadline(), 0..4))
                .prop_map(|(at, children)| Op::Root { at, children }),
            1..40,
        ),
        chunks in 1u64..5,
    ) {
        let deadlines = chunk_deadlines(&ops, chunks);
        prop_assert_eq!(run_engine(&ops, &deadlines), run_model(&ops, &deadlines));
    }

    /// Stale deadlines: absolute times scheduled between steps, often
    /// behind the clock once steps have advanced it, fire "now, after
    /// everything already due now". Release builds hand the stale time to
    /// the engine, which clamps it; debug builds assert on a past
    /// schedule, so there the program clamps first (the engine's own clamp
    /// is unit-tested in `engine.rs`).
    #[test]
    fn stale_deadlines_match_model(
        pushes in proptest::collection::vec((deadline(), 0u32..4), 1..200),
    ) {
        let mut eng: Engine<World> = Engine::new();
        let mut model = Model::default();
        let (mut got, mut now) = (World::default(), 0);
        for (label, &(at, steps)) in pushes.iter().enumerate() {
            let label = label as u64;
            let at = if cfg!(debug_assertions) { at.max(now) } else { at };
            schedule_root(&mut got, &mut eng, at, label, Vec::new());
            model.schedule(at, Action::Root { label, children: Vec::new() });
            for _ in 0..steps {
                prop_assert_eq!(eng.step(&mut got), model.step());
                now = eng.now().as_nanos();
            }
        }
        eng.run(&mut got);
        model.run();
        prop_assert_eq!(got.trace, model.trace);
        prop_assert_eq!(eng.pending(), 0);
    }

    /// Callbacks that carry on as their own next event: chains whose
    /// next link lands before the heap top (continued inline), on it (the
    /// pending event fires first) or past a `run_until` deadline (left
    /// for the next run), among roots that schedule children. The engine
    /// matches the model's trace, and its clock, event count and pending
    /// count at every `run_until` boundary.
    #[test]
    fn continuing_chains_match_model(
        ops in proptest::collection::vec(
            prop_oneof![
                (dense(), proptest::collection::vec(dense(), 0..3))
                    .prop_map(|(at, children)| Op::Root { at, children }),
                (dense(), proptest::collection::vec(dense(), 0..8))
                    .prop_map(|(at, delays)| Op::Chain { at, delays }),
                (deadline(), proptest::collection::vec(deadline(), 0..8))
                    .prop_map(|(at, delays)| Op::Chain { at, delays }),
            ],
            1..40,
        ),
        cuts in proptest::collection::vec(0u64..200, 0..5),
    ) {
        let mut deadlines = cuts;
        deadlines.sort_unstable();
        prop_assert_eq!(run_engine(&ops, &deadlines), run_model(&ops, &deadlines));
    }

    /// Lazily queued series among roots that schedule children and chains
    /// that continue inline: each occurrence fires where the model's
    /// one-event-per-occurrence expansion fires it, a chain continues only
    /// up to the next occurrence, and the trace, clock, event count and
    /// pending count (which counts unqueued occurrences) match the model
    /// at every `run_until` boundary. Empty series (`last < at`) and
    /// series of one occurrence come up too.
    #[test]
    fn series_match_model(
        ops in proptest::collection::vec(
            prop_oneof![
                (dense(), proptest::collection::vec(dense(), 0..3))
                    .prop_map(|(at, children)| Op::Root { at, children }),
                (dense(), proptest::collection::vec(dense(), 0..8))
                    .prop_map(|(at, delays)| Op::Chain { at, delays }),
                (dense(), 1u64..12, 0u64..16, 0u64..16).prop_map(series),
                (deadline(), 1u64..5_000, 0u64..16, 0u64..16).prop_map(series),
            ],
            1..30,
        ),
        cuts in proptest::collection::vec(0u64..200, 0..5),
    ) {
        let mut deadlines = cuts;
        deadlines.sort_unstable();
        prop_assert_eq!(run_engine(&ops, &deadlines), run_model(&ops, &deadlines));
    }

    /// Events reserved now and queued later, by a gate event at or before
    /// their deadline, among roots, continuing chains and series: each
    /// fires where the model, which schedules it when it is reserved,
    /// fires it, ties included; no chain continues past one still held;
    /// and the trace, clock, event count and pending count (which counts
    /// a reserved event once it is queued) match the model at every
    /// `run_until` boundary.
    #[test]
    fn reserved_events_match_model(
        ops in proptest::collection::vec(
            prop_oneof![
                1 => (dense(), proptest::collection::vec(dense(), 0..3))
                    .prop_map(|(at, children)| Op::Root { at, children }),
                1 => (dense(), proptest::collection::vec(dense(), 0..8))
                    .prop_map(|(at, delays)| Op::Chain { at, delays }),
                1 => (dense(), 1u64..12, 0u64..16, 0u64..16).prop_map(series),
                2 => (dense(), dense()).prop_map(|(at, after)| Op::Reserved { at, after }),
                1 => (deadline(), deadline()).prop_map(|(at, after)| Op::Reserved { at, after }),
            ],
            1..30,
        ),
        cuts in proptest::collection::vec(0u64..200, 0..5),
    ) {
        let mut deadlines = cuts;
        deadlines.sort_unstable();
        prop_assert_eq!(run_engine(&ops, &deadlines), run_model(&ops, &deadlines));
    }

    /// `run_until` leaves the engine in the model's state at the
    /// boundary: same fired prefix, pending count, clock and event count.
    #[test]
    fn run_until_boundaries_match_model(
        times in proptest::collection::vec(deadline(), 1..60),
        cut in 1u64..4,
    ) {
        let mut eng: Engine<World> = Engine::new();
        let mut model = Model::default();
        let mut got = World::default();
        for (label, &t) in times.iter().enumerate() {
            let label = label as u64;
            schedule_root(&mut got, &mut eng, t, label, Vec::new());
            model.schedule(t, Action::Root { label, children: Vec::new() });
        }
        let deadline = times.iter().max().unwrap() / cut;
        eng.run_until(&mut got, SimTime::from_nanos(deadline));
        model.run_until(deadline);
        prop_assert_eq!(&got.trace, &model.trace);
        prop_assert_eq!(eng.pending(), model.pending.len());
        prop_assert_eq!(eng.now().as_nanos(), model.now);
        prop_assert_eq!(eng.events_fired(), model.fired);
        eng.run(&mut got);
        model.run();
        prop_assert_eq!(got.trace, model.trace);
    }
}

/// Regression: a `schedule_now` burst fired from inside a callback must run
/// in exact submission order, after all events already pending at that
/// instant, and before anything later.
#[test]
fn schedule_now_bursts_never_reorder() {
    fn push(w: &mut Vec<u64>, _: &mut Engine<Vec<u64>>, n: u64) {
        w.push(n);
    }
    // A 100-event same-instant burst, each link re-entrantly scheduling
    // the next.
    fn link(w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>, n: u64) {
        w.push(n);
        if n < 103 {
            e.schedule_now(link, n + 1);
        }
    }
    fn burst(w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>, _: u64) {
        w.push(3);
        e.schedule_now(link, 4);
    }
    let mut eng: Engine<Vec<u64>> = Engine::new();
    // Three events pending at t=100 before the burst-emitting one.
    for i in 0..3u64 {
        eng.schedule_at(SimTime::from_nanos(100), push, i);
    }
    eng.schedule_at(SimTime::from_nanos(100), burst, 0);
    // A straggler at the same instant, scheduled before the burst ran
    // (so it fires before the burst's re-entrant children).
    eng.schedule_at(SimTime::from_nanos(100), push, 1000);
    let later = SimTime::from_nanos(101);
    eng.schedule_at(later, push, 2000);

    let mut order = Vec::new();
    eng.run(&mut order);
    let mut expected: Vec<u64> = vec![0, 1, 2, 3, 1000];
    expected.extend(4..=103);
    expected.push(2000);
    assert_eq!(order, expected);
    assert_eq!(eng.now(), later);
}
