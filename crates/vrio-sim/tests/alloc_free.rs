//! Scheduling allocates nothing once the engine's heap has grown: an event
//! is a plain function and a `u64` stored by value in the heap's `Vec`,
//! which keeps its capacity across pops. A warmed engine replays a steady
//! churn and a same-instant cascade with the allocator counter standing
//! still.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vrio_sim::{Engine, SimDuration};

/// Counts the allocations (and reallocations) of the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The counter is a `const`-initialized thread-local
// `Cell`, so bumping it neither allocates nor touches allocator memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A SplitMix64 stream plus the self-replenishing budget.
struct World {
    state: u64,
    remaining: u64,
    fired: u64,
}

impl World {
    fn new() -> Self {
        World {
            state: 0x5EED,
            remaining: 0,
            fired: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Churn: each fired event schedules one replacement within 1 ms until
/// the budget is spent, so the live set keeps its seeded size.
fn churn(w: &mut World, eng: &mut Engine<World>, _: u64) {
    w.fired += 1;
    if w.remaining > 0 {
        w.remaining -= 1;
        let d = w.next_u64() % 1_000_000;
        eng.schedule_in(SimDuration::nanos(d), churn, 0);
    }
}

/// Cascade: a same-instant chain, nudging time by 50 ns every 64 links.
fn cascade(w: &mut World, eng: &mut Engine<World>, _: u64) {
    w.fired += 1;
    if w.remaining > 0 {
        w.remaining -= 1;
        if w.fired.is_multiple_of(64) {
            eng.schedule_in(SimDuration::nanos(50), cascade, 0);
        } else {
            eng.schedule_now(cascade, 0);
        }
    }
}

/// A background event: fires once, schedules nothing.
fn background(w: &mut World, _: &mut Engine<World>, _: u64) {
    w.fired += 1;
}

/// Seeds `live` churn events and a budget of `total` firings in all.
fn seed_churn(w: &mut World, eng: &mut Engine<World>, live: u64, total: u64) {
    w.remaining = total - live;
    for _ in 0..live {
        let d = w.next_u64() % 1_000_000;
        eng.schedule_in(SimDuration::nanos(d), churn, 0);
    }
}

/// Seeds `pending` background events 10–20 ms out, below which a cascade
/// of the remaining budget crawls.
fn seed_cascade(w: &mut World, eng: &mut Engine<World>, pending: u64, total: u64) {
    for _ in 0..pending {
        let d = 10_000_000 + w.next_u64() % 10_000_000;
        eng.schedule_in(SimDuration::nanos(d), background, 0);
    }
    w.remaining = total - pending - 1;
    eng.schedule_now(cascade, 0);
}

/// Runs `seed` once to warm the engine, then again measured; returns the
/// allocations of the measured run and checks it fired `total` events.
fn warmed_allocs(seed: fn(&mut World, &mut Engine<World>, u64, u64), size: u64, total: u64) -> u64 {
    let mut eng = Engine::new();
    let mut w = World::new();
    seed(&mut w, &mut eng, size, total);
    eng.run(&mut w);
    assert_eq!(w.fired, total);

    w = World::new();
    seed(&mut w, &mut eng, size, total);
    let before = allocs();
    eng.run(&mut w);
    let n = allocs() - before;
    assert_eq!(w.fired, total);
    n
}

#[test]
fn warmed_churn_allocates_nothing_per_event() {
    assert_eq!(warmed_allocs(seed_churn, 4_096, 100_000), 0);
}

#[test]
fn warmed_cascades_allocate_nothing_per_event() {
    assert_eq!(warmed_allocs(seed_cascade, 1_024, 100_000), 0);
}
