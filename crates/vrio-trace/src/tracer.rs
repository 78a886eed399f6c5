//! The request-lifecycle tracer: ring-buffered structured events plus
//! per-request stage accounting.
//!
//! A [`Tracer`] is plain data owned by the world it observes (the
//! testbed); it records through `&mut self`, and a clone is an
//! independent copy. When built from a [`TraceConfig`] whose sink is
//! [`TraceSink::Off`] it holds no allocation at all and every operation
//! is a single `Option` check, so instrumentation compiles down to
//! near-zero cost in untraced runs.
//!
//! Tracing is **observe-only by construction**: the tracer owns no RNG,
//! never schedules simulation events, and only reads timestamps handed to
//! it — enabling it cannot perturb simulation results (a property the
//! workspace integration tests assert bit-for-bit).

use std::collections::{BTreeMap, HashMap, VecDeque};

use vrio_sim::{SimDuration, SimTime};

use crate::breakdown::Breakdown;

/// Where trace events go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSink {
    /// Tracing disabled: all instrumentation is a no-op.
    #[default]
    Off,
    /// Keep the most recent `capacity` events in an in-memory ring buffer;
    /// older events are dropped (and counted in [`Tracer::dropped`]).
    Memory {
        /// Ring-buffer capacity in events.
        capacity: usize,
    },
}

/// Tracer configuration, carried by testbed configs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// The event sink; [`TraceSink::Off`] by default.
    pub sink: TraceSink,
}

impl TraceConfig {
    /// Default ring capacity used by [`TraceConfig::memory`]: enough for the
    /// quick repro experiments without unbounded growth (~8 events per
    /// request-response).
    pub const DEFAULT_CAPACITY: usize = 262_144;

    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig {
            sink: TraceSink::Off,
        }
    }

    /// In-memory ring sink with the default capacity.
    pub fn memory() -> Self {
        TraceConfig {
            sink: TraceSink::Memory {
                capacity: Self::DEFAULT_CAPACITY,
            },
        }
    }

    /// In-memory ring sink with an explicit capacity.
    pub fn memory_with_capacity(capacity: usize) -> Self {
        TraceConfig {
            sink: TraceSink::Memory { capacity },
        }
    }

    /// Whether this config enables tracing.
    pub fn enabled(&self) -> bool {
        self.sink != TraceSink::Off
    }
}

/// A stage of the paravirtual I/O request lifecycle (paper §2–3). Stage
/// transitions are recorded by [`Tracer::mark`]; the time between two marks
/// is attributed to the stage that was active before the transition, so the
/// per-stage durations of a request always sum exactly to its end-to-end
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client/generator turnaround before the request enters the guest.
    Generator,
    /// Guest driver work: building descriptors, publishing to the avail ring.
    GuestEnqueue,
    /// Virtqueue kick: the exit (sync models) or polling delay (sidecores).
    Kick,
    /// Transport encapsulation: vRIO header build + TX DMA.
    Encap,
    /// Time on the wire (both directions), including retransmission waits.
    Wire,
    /// IOhost worker poll/steering delay until a worker picks the request up.
    WorkerPickup,
    /// Backend service time (the paper's per-request I/O work).
    Backend,
    /// Device-side virtio processing: used-ring publication, buffer copies.
    Device,
    /// Interrupt delivery: injection plus guest ISR work.
    Interrupt,
    /// Application-level server work (e.g. netperf's server-side handling).
    AppWork,
    /// Guest completion path: reaping the used ring, waking the requester.
    Completion,
}

impl Stage {
    /// All stages, in lifecycle order.
    pub const ALL: [Stage; 11] = [
        Stage::Generator,
        Stage::GuestEnqueue,
        Stage::Kick,
        Stage::Encap,
        Stage::Wire,
        Stage::WorkerPickup,
        Stage::Backend,
        Stage::Device,
        Stage::Interrupt,
        Stage::AppWork,
        Stage::Completion,
    ];

    /// Stable snake_case name, used as the trace-event and JSON-report key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generator => "generator",
            Stage::GuestEnqueue => "guest_enqueue",
            Stage::Kick => "kick",
            Stage::Encap => "encap",
            Stage::Wire => "wire",
            Stage::WorkerPickup => "worker_pickup",
            Stage::Backend => "backend",
            Stage::Device => "device",
            Stage::Interrupt => "interrupt",
            Stage::AppWork => "app_work",
            Stage::Completion => "completion",
        }
    }

    /// Index into [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Number of lifecycle stages ([`Stage::ALL`]'s length).
pub const NUM_STAGES: usize = Stage::ALL.len();

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Phase of a recorded trace event (maps onto Chrome trace-event `ph`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// A duration slice (`ph: "X"`).
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event phase.
    pub phase: EventPhase,
    /// Event name (a [`Stage::name`], request kind, or instant label).
    pub name: &'static str,
    /// Start timestamp.
    pub ts: SimTime,
    /// Duration ([`SimDuration::ZERO`] for instants).
    pub dur: SimDuration,
    /// Thread (track) id within the process.
    pub tid: u32,
    /// Request id this event belongs to (0 = none).
    pub req: u64,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    kind: &'static str,
    tid: u32,
    t0: SimTime,
    last: SimTime,
    stage: Stage,
    acc: [SimDuration; NUM_STAGES],
}

#[derive(Debug, Clone)]
struct Inner {
    capacity: usize,
    pid: u32,
    process_name: String,
    thread_names: BTreeMap<u32, String>,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// The open spans, by request id.
    open: HashMap<u64, OpenSpan>,
    breakdown: Breakdown,
}

impl Inner {
    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Attributes the time since the last mark of `open`, the span of
    /// request `req`, to the stage that was active, emitting it as a
    /// slice unless it is empty.
    fn close_segment(&mut self, req: u64, open: &mut OpenSpan, now: SimTime) {
        let seg = now - open.last;
        open.acc[open.stage.index()] += seg;
        if !seg.is_zero() {
            self.push_event(TraceEvent {
                phase: EventPhase::Complete,
                name: open.stage.name(),
                ts: open.last,
                dur: seg,
                tid: open.tid,
                req,
            });
        }
    }
}

/// A snapshot of everything a tracer recorded, ready for Chrome export.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// Process id for the Chrome trace (one per testbed/model).
    pub pid: u32,
    /// Process display name (e.g. the `IoModel` name).
    pub process_name: String,
    /// Thread display names, keyed by tid.
    pub thread_names: Vec<(u32, String)>,
    /// All buffered events.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring buffer.
    pub dropped: u64,
}

/// The tracer. See the module docs for semantics; every method is a
/// no-op when the tracer was built from an `Off` config.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Inner>,
}

impl Tracer {
    /// Builds a tracer from a config (inert when the sink is `Off`).
    pub fn new(config: &TraceConfig) -> Self {
        match config.sink {
            TraceSink::Off => Tracer::default(),
            TraceSink::Memory { capacity } => Tracer {
                inner: Some(Inner {
                    capacity: capacity.max(1),
                    pid: 0,
                    process_name: String::new(),
                    thread_names: BTreeMap::new(),
                    events: VecDeque::new(),
                    dropped: 0,
                    open: HashMap::new(),
                    breakdown: Breakdown::default(),
                }),
            },
        }
    }

    /// Whether this tracer records anything. Instrumentation sites use this
    /// to skip even the cost of argument construction when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Names the Chrome-trace process this tracer's events belong to
    /// (`pid` groups all its tracks; one process per testbed/model).
    pub fn set_process(&mut self, pid: u32, name: &str) {
        if let Some(i) = &mut self.inner {
            i.pid = pid;
            i.process_name = name.to_string();
        }
    }

    /// Names a thread (track) within this tracer's process.
    pub fn set_thread_name(&mut self, tid: u32, name: &str) {
        if let Some(i) = &mut self.inner {
            i.thread_names.insert(tid, name.to_string());
        }
    }

    /// Opens the lifecycle span of request `req` (the caller's id, unique
    /// among open spans and never 0) of the given kind (`"rr"`,
    /// `"stream"`, `"blk"`, …) on track `tid`, starting in `stage` at time
    /// `now`. Its events carry `req`.
    pub fn begin(&mut self, req: u64, kind: &'static str, tid: u32, stage: Stage, now: SimTime) {
        let Some(i) = &mut self.inner else { return };
        i.open.insert(
            req,
            OpenSpan {
                kind,
                tid,
                t0: now,
                last: now,
                stage,
                acc: [SimDuration::ZERO; NUM_STAGES],
            },
        );
    }

    /// Records a stage transition on request `req`'s open span: the time
    /// since the previous mark is attributed (and emitted as a slice) for
    /// the stage that was active, then the span enters `stage`. A request
    /// with no open span is ignored.
    pub fn mark(&mut self, req: u64, stage: Stage, now: SimTime) {
        let Some(i) = &mut self.inner else { return };
        let Some(mut open) = i.open.remove(&req) else {
            return;
        };
        i.close_segment(req, &mut open, now);
        open.stage = stage;
        open.last = now;
        i.open.insert(req, open);
    }

    /// Closes request `req`'s span at `now`: the trailing segment is
    /// attributed to the current stage, a request-level slice spanning
    /// the whole lifetime is emitted, and the per-stage durations are
    /// folded into the breakdown.
    pub fn end(&mut self, req: u64, now: SimTime) {
        let Some(i) = &mut self.inner else { return };
        let Some(mut open) = i.open.remove(&req) else {
            return;
        };
        i.close_segment(req, &mut open, now);
        let total = now - open.t0;
        i.push_event(TraceEvent {
            phase: EventPhase::Complete,
            name: open.kind,
            ts: open.t0,
            dur: total,
            tid: open.tid,
            req,
        });
        i.breakdown.record(open.kind, &open.acc, total);
    }

    /// Discards request `req`'s open span without recording it (e.g. a
    /// request whose frame was dropped and abandoned rather than retried).
    pub fn abort(&mut self, req: u64) {
        let Some(i) = &mut self.inner else { return };
        i.open.remove(&req);
    }

    /// Emits a point-in-time marker (exits, interrupts, faults, retx, …).
    pub fn instant(&mut self, name: &'static str, tid: u32, now: SimTime) {
        let Some(i) = &mut self.inner else { return };
        i.push_event(TraceEvent {
            phase: EventPhase::Instant,
            name,
            ts: now,
            dur: SimDuration::ZERO,
            tid,
            req: 0,
        });
    }

    /// Emits a standalone duration slice on a track (used to replay
    /// `BusyTracker` intervals as per-core utilization tracks).
    pub fn slice(&mut self, name: &'static str, tid: u32, start: SimTime, end: SimTime) {
        let Some(i) = &mut self.inner else { return };
        i.push_event(TraceEvent {
            phase: EventPhase::Complete,
            name,
            ts: start,
            dur: end - start,
            tid,
            req: 0,
        });
    }

    /// Events evicted from the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped)
    }

    /// Number of events currently buffered.
    pub fn buffered(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.events.len())
    }

    /// Spans begun but not yet ended/aborted.
    pub fn open_spans(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.open.len())
    }

    /// Snapshot of the per-kind latency breakdown accumulated so far.
    pub fn breakdown(&self) -> Breakdown {
        self.inner
            .as_ref()
            .map_or_else(Breakdown::default, |i| i.breakdown.clone())
    }

    /// Snapshot of everything recorded, for Chrome export.
    pub fn export(&self) -> TraceExport {
        match &self.inner {
            None => TraceExport {
                pid: 0,
                process_name: String::new(),
                thread_names: Vec::new(),
                events: Vec::new(),
                dropped: 0,
            },
            Some(i) => TraceExport {
                pid: i.pid,
                process_name: i.process_name.clone(),
                thread_names: i
                    .thread_names
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect(),
                events: i.events.iter().cloned().collect(),
                dropped: i.dropped,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_inert() {
        let mut t = Tracer::new(&TraceConfig::off());
        assert!(!t.enabled());
        t.begin(1, "rr", 1, Stage::Generator, SimTime::ZERO);
        t.mark(1, Stage::Wire, SimTime::from_nanos(10));
        t.end(1, SimTime::from_nanos(20));
        assert_eq!(t.open_spans(), 0);
        t.instant("x", 0, SimTime::ZERO);
        assert_eq!(t.buffered(), 0);
        assert!(t.breakdown().kinds().next().is_none());
    }

    #[test]
    fn span_segments_sum_to_total() {
        let mut t = Tracer::new(&TraceConfig::memory_with_capacity(64));
        let s = 1;
        t.begin(s, "rr", 1, Stage::GuestEnqueue, SimTime::from_nanos(100));
        t.mark(s, Stage::Wire, SimTime::from_nanos(400));
        t.mark(s, Stage::Backend, SimTime::from_nanos(1000));
        t.end(s, SimTime::from_nanos(1500));
        let bd = t.breakdown();
        let kb = bd.kind("rr").unwrap();
        assert_eq!(kb.completed, 1);
        let sum: f64 = Stage::ALL.iter().map(|st| kb.stage_mean_us(*st)).sum();
        assert!((sum - kb.total.mean()).abs() < 1e-9);
        assert!((kb.total.mean() - 1.4).abs() < 1e-12); // 1400 ns = 1.4 µs
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Tracer::new(&TraceConfig::memory_with_capacity(4));
        for i in 0..10u64 {
            t.instant("tick", 0, SimTime::from_nanos(i));
        }
        assert_eq!(t.buffered(), 4);
        assert_eq!(t.dropped(), 6);
        let ex = t.export();
        assert_eq!(ex.events[0].ts, SimTime::from_nanos(6));
    }

    #[test]
    fn zero_length_segments_emit_no_events() {
        let mut t = Tracer::new(&TraceConfig::memory_with_capacity(64));
        let s = 1;
        t.begin(s, "rr", 1, Stage::Kick, SimTime::from_nanos(5));
        t.mark(s, Stage::Wire, SimTime::from_nanos(5)); // zero-length kick
        t.end(s, SimTime::from_nanos(10));
        // Events: wire segment + request slice (no kick segment).
        assert_eq!(t.buffered(), 2);
    }

    #[test]
    fn abort_discards_without_recording() {
        let mut t = Tracer::new(&TraceConfig::memory_with_capacity(64));
        let s = 1;
        t.begin(s, "blk", 1, Stage::GuestEnqueue, SimTime::ZERO);
        assert_eq!(t.open_spans(), 1);
        t.abort(s);
        assert_eq!(t.open_spans(), 0);
        assert!(t.breakdown().kind("blk").is_none());
    }
}
