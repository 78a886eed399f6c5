//! Parked flows resume without allocating: once a request's flow has
//! parked at its first wait, its later waits and its resumes must not
//! touch the allocator. A waiting flow lives in a slot of the testbed's
//! flow table and its resume event is a plain function plus the slot
//! index, so only the testbed's own data steps could allocate. The bare
//! testbed world discards the outcome.
//!
//! A request's data steps do allocate: the counts of a warmed netperf RR
//! and of a warmed 4 KB vRIO write and read are pinned, so a copy or
//! allocation added to the net or block path shows here. The ramdisk holds the wire bytes by reference,
//! which is pinned by address.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use vrio::{
    blk_request, net_request_response, Direction, InterpositionService, Testbed, TestbedConfig,
    Verdict,
};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::{CostModel, IoModel};
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

/// Issues one vRIO RR on VM 0. The empty request and response keep its
/// data steps (the guest's rx and tx copies) allocation-free, so what the
/// count sees is the flow's own waits and resumes.
fn rr(tb: &mut Testbed, eng: &mut Engine<Testbed>) {
    let app = SimDuration::micros(5);
    net_request_response(tb, eng, 0, Bytes::new(), 0, app, 0);
}

#[test]
fn a_parked_rr_waits_and_resumes_without_allocating() {
    let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
    let mut eng = Engine::new();
    // Warm-up: the step pool, the flow table, the engine's heap and the
    // memoized response reach their working sizes.
    for _ in 0..100 {
        rr(&mut tb, &mut eng);
        eng.run(&mut tb);
    }
    rr(&mut tb, &mut eng);
    assert_eq!(eng.pending(), 1, "the RR parked at its first wait");

    let (events, before) = (eng.events_fired(), allocs());
    eng.run(&mut tb);
    let resumes = eng.events_fired() - events;
    assert_eq!(allocs() - before, 0, "{resumes} resumes allocated");
    assert!(resumes >= 15, "the RR waited only {resumes} times");
}

#[test]
fn a_warmed_vrio_rr_allocates_only_its_fetched_response() {
    let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
    let mut eng = Engine::new();
    // netperf's transaction: a 1-byte request and a 1-byte response.
    let rr = |tb: &mut Testbed, eng: &mut Engine<Testbed>| {
        let (req, app) = (Bytes::from_static(b"?"), SimDuration::micros(5));
        net_request_response(tb, eng, 0, req, 1, app, 0);
        eng.run(tb);
    };
    for _ in 0..100 {
        rr(&mut tb, &mut eng);
    }
    let before = allocs();
    rr(&mut tb, &mut eng);
    // The back end's copy of the response it fetched from the tx ring is
    // the one allocation: the NetRx frame keeps its header beside the
    // request, and the guest reads the request into a reused buffer.
    assert_eq!(allocs() - before, 1, "1-byte vRIO RR");
}

/// What one 4 KB write carries (shared, as the Filebench writer's is).
static CHUNK: [u8; 4096] = [0xA5; 4096];

/// Issues block request `k` on VM 0, a write when `write`, else a read,
/// and runs it to its completion; returns the allocations it made.
fn blk(tb: &mut Testbed, eng: &mut Engine<Testbed>, k: u64, write: bool) -> u64 {
    let (id, sector) = (RequestId(k), 8 * (k % 64));
    let req = if write {
        BlockRequest::write(id, sector, Bytes::from_static(&CHUNK))
    } else {
        BlockRequest::read(id, sector, 4096)
    };
    let before = allocs();
    blk_request(tb, eng, 0, req, k);
    eng.run(tb);
    allocs() - before
}

#[test]
fn a_warmed_vrio_block_request_makes_a_pinned_number_of_allocations() {
    let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
    let mut eng = Engine::new();
    // Warm-up: the step pool, the flow and block tables, the heap, the
    // retransmission maps and the ramdisk pages reach their working sizes.
    for k in 0..200 {
        blk(&mut tb, &mut eng, k, k % 2 == 0);
    }
    // A write: the message the payload is fetched into, after room for
    // its headers (1), and its shared handle (1). The attempt waits in a
    // testbed table, and the ramdisk keeps the decoded payload itself.
    assert_eq!(blk(&mut tb, &mut eng, 1000, true), 2, "4 KB write");
    // A read: the message, headers and request id only (1), its shared
    // handle (1), and the data the guest reaps (1). The ramdisk hands out
    // its stored page.
    assert_eq!(blk(&mut tb, &mut eng, 1001, false), 3, "4 KB read");
}

/// The address of every payload the back end's interposition chain sees,
/// passed through unchanged.
#[derive(Clone)]
struct Witness(Arc<Mutex<Vec<(Direction, usize)>>>);

impl InterpositionService for Witness {
    fn name(&self) -> &'static str {
        "witness"
    }

    fn process(&mut self, dir: Direction, payload: Bytes) -> Verdict {
        self.0
            .lock()
            .unwrap()
            .push((dir, payload.as_ptr() as usize));
        Verdict::Pass(payload)
    }

    fn cost(&self, _: &CostModel, _: usize) -> SimDuration {
        SimDuration::ZERO
    }
}

#[test]
fn a_4k_write_is_stored_and_read_back_by_reference() {
    let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
    let seen = Arc::new(Mutex::new(Vec::new()));
    tb.chain.push(Box::new(Witness(seen.clone())));
    let mut eng = Engine::new();
    let page = |tb: &Testbed| tb.disk_stores[0].read(8 * 512, 4096).unwrap();

    // The worker interposes on the payload it decoded from the wire, and
    // the store keeps that very buffer: a copy of the guest's, fetched
    // from its ring once.
    blk(&mut tb, &mut eng, 1, true);
    let stored = page(&tb);
    assert_eq!(&stored[..], &CHUNK[..]);
    assert_ne!(stored.as_ptr(), CHUNK.as_ptr(), "fetched from the ring");
    let decoded = seen.lock().unwrap().clone();
    assert_eq!(decoded, [(Direction::Outbound, stored.as_ptr() as usize)]);

    // A read of the page (request 65 reads request 1's sector) hands the
    // stored page itself to the worker.
    blk(&mut tb, &mut eng, 65, false);
    let read = seen.lock().unwrap()[1];
    assert_eq!(read, (Direction::Inbound, stored.as_ptr() as usize));
    assert_eq!(page(&tb).as_ptr(), stored.as_ptr());
}
