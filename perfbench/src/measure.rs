//! Host-side measurement primitives: process CPU time, peak RSS, a
//! counting allocator, the benchmark's own span recorder, a stable digest
//! hasher and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vrio_trace::Json;

// ---- process CPU time and memory --------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) the process has used, in ns.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- counting allocator ------------------------------------------------

/// Wraps the system allocator and counts allocations while
/// [`count_allocs`] is on. When off, each allocation pays one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

// ---- spans ---------------------------------------------------------------

/// One benchmark span: a named interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers (`"Testbed::new"`, `"netperf_rr"`, `"check"`, …).
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Scenario the span belongs to, if any.
    pub scenario: Option<usize>,
}

impl Span {
    /// Length of the span in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder, shared across the sweep's worker threads.
/// Spans are written out once, at the end of the run.
pub struct Spans {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &str, parent: Option<usize>, scenario: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
            scenario,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its length in ns.
    pub fn close(&self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end_ns = end_ns;
        spans[id].dur_ns()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn with<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        scenario: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, scenario);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::int(v as u64));
        Json::Arr(
            self.snapshot()
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::int(s.start_ns)),
                        ("end_ns", Json::int(s.end_ns)),
                        ("parent", opt(s.parent)),
                        ("scenario", opt(s.scenario)),
                    ])
                })
                .collect(),
        )
    }
}

/// Share of span `root`'s length covered by its direct children.
pub fn child_coverage(spans: &[Span], root: usize) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::dur_ns)
        .sum();
    covered as f64 / spans[root].dur_ns().max(1) as f64
}

// ---- digests -------------------------------------------------------------

/// 64-bit FNV-1a over a canonical byte stream of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

// ---- order statistics ------------------------------------------------------

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
