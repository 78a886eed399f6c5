//! # vrio-trace
//!
//! The observability layer of the vRIO reproduction: request-lifecycle
//! tracing, a metrics registry, bounded-memory histograms, and
//! machine-readable report/trace export.
//!
//! The paper's argument is an accounting argument — *where* each
//! microsecond of a paravirtual I/O request goes (Table 3's per-request
//! events, Table 4's tails, Figure 15's per-core utilization). This crate
//! makes that accounting observable per request:
//!
//! * [`Tracer`] — a zero-overhead-when-disabled, ring-buffered structured
//!   event tracer. Flows open a span per request ([`Tracer::begin`]) and
//!   mark lifecycle [`Stage`] transitions; per-stage durations sum exactly
//!   to the end-to-end latency by construction. Tracing is observe-only:
//!   no RNG draws, no event scheduling, bit-identical simulation results.
//! * [`LogHistogram`] — an HDR-style log-bucketed histogram with bounded
//!   memory and ≤ 1 % relative percentile error
//!   ([`LogHistogram::RELATIVE_ERROR_BOUND`]), replacing the exact-sample
//!   [`vrio_sim::Histogram`] sort on hot percentile paths.
//! * [`MetricsRegistry`] — named counters / gauges / histograms with
//!   deterministic JSON export.
//! * [`render_chrome_trace`] — Chrome trace-event JSON (Perfetto-loadable),
//!   with testbeds as processes and vCPUs / sidecore workers as threads.
//! * [`Breakdown`] — the per-model, per-stage latency decomposition behind
//!   the stable-schema `BENCH_*.json` reports
//!   ([`REPORT_SCHEMA_VERSION`]).
//!
//! ## Example
//!
//! ```
//! use vrio_sim::SimTime;
//! use vrio_trace::{render_chrome_trace, Stage, TraceConfig, Tracer};
//!
//! let mut tracer = Tracer::new(&TraceConfig::memory());
//! tracer.set_process(0, "vrio");
//! let span = tracer.begin("rr", 1000, Stage::GuestEnqueue, SimTime::ZERO);
//! tracer.mark(span, Stage::Wire, SimTime::from_nanos(700));
//! tracer.end(span, SimTime::from_nanos(2_000));
//!
//! let breakdown = tracer.breakdown();
//! let rr = breakdown.kind("rr").unwrap();
//! assert!((rr.stage_sum_us() - rr.total.mean()).abs() < 1e-12);
//!
//! let chrome = render_chrome_trace(&[tracer.export()]);
//! assert!(chrome.starts_with('['));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod chrome;
mod hist;
mod json;
mod metrics;
mod slo;
mod timeseries;
mod tracer;

pub use breakdown::{Breakdown, KindBreakdown, StageAcc, REPORT_SCHEMA_VERSION};
pub use chrome::{render_chrome_trace, render_chrome_trace_with_counters};
pub use hist::LogHistogram;
pub use json::{Json, JsonError};
pub use metrics::MetricsRegistry;
pub use slo::{DropCause, SloLedger, TenantSlo};
pub use timeseries::{
    Sample, Telemetry, TelemetryConfig, TelemetryExport, TrackExport, TrackId, TrackKind,
    TELEM_SCHEMA_VERSION,
};
pub use tracer::{
    EventPhase, SpanId, Stage, TraceConfig, TraceEvent, TraceExport, TraceSink, Tracer, NUM_STAGES,
};
