//! Wall-clock microbenchmarks of the `vrio-sim` event engine, boxed-closure
//! and typed events, over three synthetic schedule shapes:
//!
//! * **churn** — a steady 32k-event live set with uniform near-term
//!   deadlines; every fired event schedules a replacement. Far more
//!   pending events than any experiment keeps (DESIGN.md §10), so every
//!   heap push/pop sifts over a large array: a stress case, not a model
//!   of the testbed.
//! * **cascade** — `schedule_now` bursts (same-instant chains) riding on a
//!   4k-event pending background.
//! * **mixed** — deadlines spread over six decades of horizon.
//!
//! These time the engine alone; the end-to-end measure of the simulator is
//! the repository benchmark in `perfbench/`.
//!
//! Two entry modes:
//!
//! * `cargo bench --bench engine` — criterion mode, reporting ns/iter and
//!   events/sec per event representation for each shape (`--quick`
//!   shrinks the event counts for CI smoke).
//! * `cargo bench --bench engine -- --perf OUT.json [--quick]` — the
//!   recorded perf harness: longer steady-state runs, plus an in-process
//!   `--sweep smoke` wall-time measurement, written as a schema-versioned
//!   `BENCH_perf` document that `checkbench --perf` gates against
//!   `benches/BENCH_perf_seed.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use criterion::{black_box, Criterion, Throughput};
use vrio_bench::{run_sweep, ReproConfig, SweepSpec};
use vrio_sim::{Dispatch, Engine, SimDuration, SimTime};
use vrio_trace::Json;

/// Schema version of the `BENCH_perf` document. v2 added the typed-event
/// engine shapes and the allocation counters; v3 replaced the
/// per-scheduler rates with boxed and typed rates on the one queue.
const PERF_SCHEMA_VERSION: u64 = 3;

/// Counting allocator: every heap allocation (and growth) bumps a relaxed
/// counter. This is how the perf harness proves the typed-event engine's
/// steady-state churn is allocation-free — the counter around a warmed run
/// must not move. Lives in the bench target (its own crate root) because
/// the `vrio-bench` library forbids unsafe code.
struct CountingAlloc;

/// Heap allocations observed since process start (alloc + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Delay distribution shaping one benchmark schedule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dist {
    /// Uniform in [0, 1 ms): the steady-churn case.
    Uniform,
    /// Same-instant bursts, nudging time by 50 ns every 64 events so the
    /// chain crawls below the pending background.
    Cascade,
    /// Four horizons from 4 µs to ~8.6 s.
    Mixed,
}

/// Benchmark world: a SplitMix64 stream plus the self-replenishing counter.
struct World {
    state: u64,
    remaining: u64,
    fired: u64,
    dist: Dist,
}

impl World {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn delay(&mut self) -> u64 {
        let r = self.next_u64();
        match self.dist {
            Dist::Uniform => r % 1_000_000,
            Dist::Cascade => {
                if self.fired.is_multiple_of(64) {
                    50
                } else {
                    0
                }
            }
            Dist::Mixed => match r & 3 {
                0 => (r >> 2) % (1 << 12),
                1 => (r >> 2) % (1 << 20),
                2 => (r >> 2) % (1 << 28),
                _ => (r >> 2) % (1 << 33),
            },
        }
    }
}

/// Each fired event schedules one replacement until the budget is spent, so
/// the live set stays at its seeded size throughout.
fn event(w: &mut World, eng: &mut Engine<World>) {
    w.fired += 1;
    if w.remaining > 0 {
        w.remaining -= 1;
        let d = w.delay();
        eng.schedule_in(SimDuration::nanos(d), event);
    }
}

/// The same self-replenishing schedule as a typed event: stored by value in
/// the heap's recycled `Vec`, so steady-state churn performs zero heap
/// allocations (asserted by the perf harness via [`ALLOCS`]).
enum Ev {
    /// The replenishing churn event (mirror of [`event`]).
    Tick,
    /// A parked cascade-background event: fires once, schedules nothing.
    Background,
}

impl Dispatch<World> for Ev {
    fn dispatch(self, w: &mut World, eng: &mut Engine<World, Ev>) {
        w.fired += 1;
        if matches!(self, Ev::Tick) && w.remaining > 0 {
            w.remaining -= 1;
            let d = w.delay();
            eng.schedule_event_in(SimDuration::nanos(d), Ev::Tick);
        }
    }
}

/// Runs one schedule to exhaustion; returns events fired (== `total`).
fn run_schedule(dist: Dist, total: u64) -> u64 {
    let mut eng = Engine::new();
    let mut w = World {
        state: 0x5EED ^ total,
        remaining: 0,
        fired: 0,
        dist,
    };
    match dist {
        Dist::Cascade => {
            // A pending background the bursts must not pay for: 4096 events
            // parked 10–20 ms out (the burst chain crawls ~50 ns per 64
            // events, staying well below them), firing once at the end.
            let background = 4096.min(total / 2);
            for _ in 0..background {
                let d = 10_000_000 + w.next_u64() % 10_000_000;
                eng.schedule_at(SimTime::from_nanos(d), |w: &mut World, _| w.fired += 1);
            }
            w.remaining = total - background - 1;
            eng.schedule_at(SimTime::ZERO, event);
        }
        _ => {
            // Steady live set: each fired event schedules its replacement.
            let live = 32_768.min(total / 2).max(1);
            w.remaining = total - live;
            for _ in 0..live {
                let d = w.delay();
                eng.schedule_at(SimTime::from_nanos(d), event);
            }
        }
    }
    eng.run(&mut w);
    assert_eq!(w.fired, total);
    w.fired
}

/// Seeds a typed-event engine with the same schedule (same SplitMix64
/// stream, same delays, same live-set sizing) as [`run_schedule`]. Delays
/// are scheduled relative to the engine's current time so a warmed engine
/// can be reseeded for steady-state measurement.
fn seed_typed(eng: &mut Engine<World, Ev>, w: &mut World, total: u64) {
    match w.dist {
        Dist::Cascade => {
            let background = 4096.min(total / 2);
            for _ in 0..background {
                let d = 10_000_000 + w.next_u64() % 10_000_000;
                eng.schedule_event_in(SimDuration::nanos(d), Ev::Background);
            }
            w.remaining = total - background - 1;
            eng.schedule_event_now(Ev::Tick);
        }
        _ => {
            let live = 32_768.min(total / 2).max(1);
            w.remaining = total - live;
            for _ in 0..live {
                let d = w.delay();
                eng.schedule_event_in(SimDuration::nanos(d), Ev::Tick);
            }
        }
    }
}

/// [`run_schedule`] on the typed-event engine: same schedule, no boxing.
fn run_schedule_typed(dist: Dist, total: u64) -> u64 {
    let mut eng: Engine<World, Ev> = Engine::new();
    let mut w = World {
        state: 0x5EED ^ total,
        remaining: 0,
        fired: 0,
        dist,
    };
    seed_typed(&mut eng, &mut w, total);
    eng.run(&mut w);
    assert_eq!(w.fired, total);
    w.fired
}

/// Allocations per fired event in a steady-state churn run, for both
/// engines. One full pass warms the queue (the heap's `Vec` grows to the
/// live set); an identical pass — same RNG stream, so the same delays and
/// live set — is then measured on the warm engine.
fn churn_allocs_per_event(typed: bool, total: u64) -> f64 {
    let mut w = World {
        state: 0x5EED ^ total,
        remaining: 0,
        fired: 0,
        dist: Dist::Uniform,
    };
    let allocs = if typed {
        let mut eng: Engine<World, Ev> = Engine::new();
        seed_typed(&mut eng, &mut w, total);
        eng.run(&mut w);
        w.state = 0x5EED ^ total;
        w.fired = 0;
        seed_typed(&mut eng, &mut w, total);
        let before = ALLOCS.load(Relaxed);
        eng.run(&mut w);
        ALLOCS.load(Relaxed) - before
    } else {
        let mut eng: Engine<World> = Engine::new();
        let seed_boxed = |eng: &mut Engine<World>, w: &mut World| {
            let live = 32_768.min(total / 2).max(1);
            w.remaining = total - live;
            for _ in 0..live {
                let d = w.delay();
                eng.schedule_in(SimDuration::nanos(d), event);
            }
        };
        seed_boxed(&mut eng, &mut w);
        eng.run(&mut w);
        w.state = 0x5EED ^ total;
        w.fired = 0;
        seed_boxed(&mut eng, &mut w);
        let before = ALLOCS.load(Relaxed);
        eng.run(&mut w);
        ALLOCS.load(Relaxed) - before
    };
    assert_eq!(w.fired, total);
    allocs as f64 / total as f64
}

const SHAPES: [(&str, Dist); 3] = [
    ("churn", Dist::Uniform),
    ("cascade", Dist::Cascade),
    ("mixed", Dist::Mixed),
];

/// Criterion mode: ns/iter + events/sec for every (shape, representation)
/// pair.
fn criterion_mode(total: u64) {
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(total));
    for (shape, dist) in SHAPES {
        g.bench_function(format!("{shape}_{}k_boxed", total / 1000), |b| {
            b.iter(|| black_box(run_schedule(dist, total)));
        });
        g.bench_function(format!("{shape}_{}k_typed", total / 1000), |b| {
            b.iter(|| black_box(run_schedule_typed(dist, total)));
        });
    }
    g.finish();
}

/// Steady-state events/sec: one warm-up run, then timed runs until at least
/// 3 repetitions and ~0.3 s of measurement; the best rate is reported
/// (minimum-noise estimator, standard for throughput benches).
fn measure_events_per_sec(run: impl Fn() -> u64, total: u64) -> f64 {
    run();
    let mut best = 0.0f64;
    let mut spent = 0.0f64;
    let mut reps = 0u32;
    while reps < 3 || spent < 0.3 {
        let t = Instant::now();
        run();
        let secs = t.elapsed().as_secs_f64();
        best = best.max(total as f64 / secs);
        spent += secs;
        reps += 1;
        if reps >= 20 {
            break;
        }
    }
    best
}

/// Perf-recording mode: writes the schema-versioned `BENCH_perf` document.
fn perf_mode(quick: bool, out: &str) {
    let total: u64 = if quick { 200_000 } else { 1_000_000 };
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (shape, dist) in SHAPES {
        let rate = measure_events_per_sec(|| run_schedule(dist, total), total);
        eprintln!("perf {shape:>8}/boxed: {:>12.0} events/sec", rate);
        metrics.push((format!("{shape}_boxed_events_per_sec"), rate));
        let rate = measure_events_per_sec(|| run_schedule_typed(dist, total), total);
        eprintln!("perf {shape:>8}/typed: {:>12.0} events/sec", rate);
        metrics.push((format!("{shape}_typed_events_per_sec"), rate));
    }
    let find = |name: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .expect("metric recorded above")
    };
    let typed_speedup = find("mixed_typed_events_per_sec") / find("mixed_boxed_events_per_sec");
    eprintln!("perf mixed typed speedup (typed/boxed): {typed_speedup:.2}x");

    // Allocation discipline: a warmed typed-event churn run must not touch
    // the allocator at all — the heap's `Vec` is the recycled arena.
    let typed_allocs = churn_allocs_per_event(true, total);
    let boxed_allocs = churn_allocs_per_event(false, total);
    eprintln!("perf churn allocs/event: typed {typed_allocs:.4}, boxed {boxed_allocs:.4}");
    assert_eq!(
        typed_allocs, 0.0,
        "typed-event steady-state churn allocated on the heap"
    );

    // End-to-end anchor: the smoke sweep, single-threaded, quick config —
    // the same work `repro --quick --sweep smoke --threads 1` does.
    let spec = SweepSpec::smoke(ReproConfig::quick());
    let t = Instant::now();
    let allocs_before = ALLOCS.load(Relaxed);
    let result = run_sweep(&spec, 1, false).expect("smoke sweep runs");
    let sweep_allocs = ALLOCS.load(Relaxed) - allocs_before;
    let sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let sweep_requests: u64 = result.results.iter().map(|r| r.completed).sum();
    let allocs_per_request = sweep_allocs as f64 / sweep_requests.max(1) as f64;
    eprintln!(
        "perf sweep smoke: {} scenarios in {sweep_ms:.0} ms \
         ({allocs_per_request:.1} allocs/request over {sweep_requests} requests)",
        result.results.len()
    );

    let mut fields: Vec<(&str, Json)> = vec![
        ("schema_version", Json::int(PERF_SCHEMA_VERSION)),
        ("kind", Json::str("perf")),
        ("quick", Json::Bool(quick)),
        ("events_per_run", Json::int(total)),
    ];
    let mut metric_fields: Vec<(&str, Json)> = metrics
        .iter()
        .map(|(k, v)| (k.as_str(), Json::Num(*v)))
        .collect();
    metric_fields.push(("mixed_typed_speedup", Json::Num(typed_speedup)));
    metric_fields.push(("churn_typed_allocs_per_event", Json::Num(typed_allocs)));
    metric_fields.push(("churn_boxed_allocs_per_event", Json::Num(boxed_allocs)));
    metric_fields.push(("sweep_allocs_per_request", Json::Num(allocs_per_request)));
    metric_fields.push(("sweep_smoke_wall_ms", Json::Num(sweep_ms)));
    fields.push(("metrics", Json::obj(metric_fields)));
    let doc = Json::obj(fields);
    std::fs::write(out, doc.render_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut perf_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--perf" {
            match it.next() {
                Some(p) => perf_out = Some(p.clone()),
                None => {
                    eprintln!("--perf needs an output path");
                    std::process::exit(1);
                }
            }
        }
        // Other flags (e.g. cargo's --bench) are criterion-compat noise.
    }
    match perf_out {
        Some(out) => perf_mode(quick, &out),
        None => criterion_mode(if quick { 50_000 } else { 1_000_000 }),
    }
}
