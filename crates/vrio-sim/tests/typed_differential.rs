//! Differential oracle for the typed-event engine: arbitrary event
//! programs replayed on the typed-enum engine and on the boxed-closure
//! engine must yield an identical `(at, seq)` firing order and identical
//! world digests. `queue_props.rs` checks the queue against a model; this
//! replays the programs one representation level up: the payload stored
//! in the queue changes (enum by value vs `Box<dyn FnOnce>`), the
//! observable simulation must not.

use proptest::prelude::*;
use vrio_sim::{Dispatch, Engine, SimDuration, SimTime};

/// One scheduling instruction of a generated program: an event at an
/// absolute offset which, when fired, appends its label to the trace and
/// schedules `children` more events at the given relative delays
/// (0 = same instant).
#[derive(Debug, Clone)]
struct Op {
    at: u64,
    children: Vec<u64>,
}

/// The world: the firing trace plus a running FNV-1a digest folding in
/// every (label, firing-time) pair — a cheap stand-in for "all state the
/// events mutated".
#[derive(Default)]
struct World {
    trace: Vec<(u64, u64)>,
    digest: u64,
}

impl World {
    fn observe(&mut self, label: u64, at: u64) {
        self.trace.push((label, at));
        let mut h = if self.digest == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.digest
        };
        for b in label.to_le_bytes().into_iter().chain(at.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.digest = h;
    }
}

/// The typed event: the program is data, dispatched by the world — no
/// per-event heap state, `Send` by construction.
#[derive(Debug, Clone)]
enum Ev {
    /// A root op: fire `label`, then schedule children.
    Root { label: u64, children: Vec<u64> },
    /// A child: fire `label` only.
    Leaf { label: u64 },
}

impl Dispatch<World> for Ev {
    fn dispatch(self, w: &mut World, eng: &mut Engine<World, Ev>) {
        match self {
            Ev::Root { label, children } => {
                w.observe(label, eng.now().as_nanos());
                for (i, d) in children.into_iter().enumerate() {
                    let child = (label << 16) | (i as u64 + 1);
                    eng.schedule_event_in(SimDuration::nanos(d), Ev::Leaf { label: child });
                }
            }
            Ev::Leaf { label } => w.observe(label, eng.now().as_nanos()),
        }
    }
}

fn run_typed(mut eng: Engine<World, Ev>, ops: &[Op]) -> (Vec<(u64, u64)>, u64, u64) {
    for (label, op) in ops.iter().enumerate() {
        eng.schedule_event_at(
            SimTime::from_nanos(op.at),
            Ev::Root {
                label: label as u64,
                children: op.children.clone(),
            },
        );
    }
    let mut w = World::default();
    eng.run(&mut w);
    (w.trace, w.digest, eng.events_fired())
}

fn run_closures(mut eng: Engine<World>, ops: &[Op]) -> (Vec<(u64, u64)>, u64, u64) {
    for (label, op) in ops.iter().enumerate() {
        let children = op.children.clone();
        let id = label as u64;
        eng.schedule_at(SimTime::from_nanos(op.at), move |w: &mut World, e| {
            w.observe(id, e.now().as_nanos());
            for (i, &d) in children.iter().enumerate() {
                let child = (id << 16) | (i as u64 + 1);
                e.schedule_in(SimDuration::nanos(d), move |w: &mut World, e| {
                    w.observe(child, e.now().as_nanos());
                });
            }
        });
    }
    let mut w = World::default();
    eng.run(&mut w);
    (w.trace, w.digest, eng.events_fired())
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

fn program() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (deadline(), proptest::collection::vec(deadline(), 0..4))
            .prop_map(|(at, children)| Op { at, children }),
        0..40,
    )
}

proptest! {
    /// Typed-enum engine vs closure engine: identical firing order, world
    /// digest, and event count.
    #[test]
    fn typed_engine_matches_closure_reference(ops in program()) {
        prop_assert_eq!(run_typed(Engine::new(), &ops), run_closures(Engine::new(), &ops));
    }
}

/// Same-instant bursts scheduled from inside typed callbacks keep FIFO
/// order across representations (the burst regression `queue_props.rs`
/// pins, replayed for typed payloads).
#[test]
fn typed_same_instant_bursts_stay_fifo() {
    let ops: Vec<Op> = (0..16)
        .map(|i| Op {
            at: 100,
            children: vec![0, 0, i],
        })
        .collect();
    let a = run_typed(Engine::new(), &ops);
    let b = run_closures(Engine::new(), &ops);
    assert_eq!(a, b);
}
