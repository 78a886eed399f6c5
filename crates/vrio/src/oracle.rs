//! The simulation oracle: an **observe-only invariant checker** wired into
//! the testbed flows and the engine probe.
//!
//! The testbed's value rests on the claim that every protocol mechanism is
//! real executable code over real bytes. The oracle turns that claim into
//! machine-checked *laws* that hold across every flow, model and fault
//! schedule:
//!
//! * **Exactly-once completion** — every request a generator begins is
//!   completed exactly once (or explicitly dropped by a modeled loss),
//!   even across retransmission, failover and failback
//!   ([`Oracle::flow_begin`] / [`Oracle::flow_complete`] /
//!   [`Oracle::flow_drop`] / [`Oracle::finish`]).
//! * **Descriptor conservation** — virtqueue push/pop/complete never leaks
//!   or duplicates ring slots, checked against live
//!   [`vrio_virtio::RingOps`] counters: every ring state present at a
//!   lifecycle mark is audited once ([`Oracle::audit_queue`]).
//! * **Byte conservation** — payloads survive encapsulation → wire →
//!   decapsulation unchanged, including the fake-TCP TSO
//!   segmentation/reassembly path ([`Oracle::check_parts`],
//!   [`Oracle::check_skb`]).
//! * **Per-device FIFO steering** — a device's requests never migrate to a
//!   different IOhost worker while any are in flight
//!   ([`Oracle::steer_assign`] / [`Oracle::steer_release`]).
//! * **Monotone causality** — lifecycle marks of one request never run
//!   backwards in time, and neither does the engine clock
//!   ([`Oracle::on_mark`] / [`Oracle::on_engine_event`]).
//!
//! Like the tracer, the oracle is **strictly observe-only**: it owns no
//! RNG and schedules no events, so enabling it is bit-identical to
//! disabling it (asserted under active fault injection in
//! `tests/oracle.rs`). The testbed owns its oracle, and a run's result
//! takes it over; its ledger sits in a `RefCell`, so every method takes
//! `&self` and a finished result can still be checked. A clone is an
//! independent copy, as a fork of its world needs. Violations are recorded,
//! not panicked, so a run can complete and report everything it found;
//! [`Oracle::assert_clean`] is the panicking gate for tests and CI.
//!
//! To add an invariant: add a recording method on [`Oracle`] (it must draw
//! no randomness and schedule nothing), call it from the flow or probe
//! site that observes the relevant state, and give violations a stable
//! `invariant` name plus a message carrying enough identifiers (VM, queue,
//! span, counts) to act on.

use std::cell::RefCell;

use vrio_hv::QueueAudit;
use vrio_sim::SimTime;
use vrio_trace::Stage;

/// Configuration for the oracle: plain data so [`TestbedConfig`] stays
/// `Send`; the live oracle is built by `Testbed::new`.
///
/// [`TestbedConfig`]: crate::TestbedConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleConfig {
    enabled: bool,
}

impl OracleConfig {
    /// Oracle disabled (the default): every hook is a no-op.
    pub fn off() -> Self {
        OracleConfig { enabled: false }
    }

    /// Oracle enabled: invariants are checked inline at every hook site.
    pub fn on() -> Self {
        OracleConfig { enabled: true }
    }

    /// Whether this configuration enables the oracle.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Handle to one request in the exactly-once ledger, returned by
/// [`Oracle::flow_begin`]. Copyable plain data, so flow steps and tables
/// hold it by value; [`FlowToken::NONE`] is the inert handle returned
/// when the oracle is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowToken(u64);

impl FlowToken {
    /// The inert token (all ledger operations on it are no-ops).
    pub const NONE: FlowToken = FlowToken(0);
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated invariant class
    /// (`"exactly-once"`, `"descriptor-conservation"`,
    /// `"byte-conservation"`, `"fifo-steering"`, `"causality"`).
    pub invariant: &'static str,
    /// Human-actionable description: what law broke, where, and the
    /// observed vs expected values.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.message)
    }
}

/// Summary of an oracle run: how much was checked and what broke.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Total individual invariant checks performed.
    pub checks: u64,
    /// Flows entered into the exactly-once ledger.
    pub flows_begun: u64,
    /// Flows completed exactly once.
    pub flows_completed: u64,
    /// Flows explicitly dropped by a modeled loss.
    pub flows_dropped: u64,
    /// Recorded violations (capped; see `violations_dropped`).
    pub violations: Vec<Violation>,
    /// Violations beyond the recording cap (counted, not stored).
    pub violations_dropped: u64,
}

/// How an exactly-once ledger entry was closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closed {
    Completed,
    Dropped,
}

/// One request's exactly-once ledger entry.
#[derive(Debug, Clone, Copy)]
enum FlowState {
    Open {
        kind: &'static str,
        begun: SimTime,
        /// The time of the flow's last lifecycle mark; `begun` before the
        /// first.
        last_mark: SimTime,
    },
    Closed {
        kind: &'static str,
        how: Closed,
    },
    /// Reported leaked by [`Oracle::finish`]; a later closure counts as
    /// one of a flow that was never begun.
    Leaked,
}

/// Recorded violations are capped to keep a badly broken run from
/// ballooning; the overflow is still counted.
const MAX_VIOLATIONS: usize = 256;

#[derive(Default, Clone)]
struct Inner {
    checks: u64,
    /// The exactly-once ledger: tokens are dense from 1, so token `t`
    /// lives at index `t - 1`.
    flows: Vec<FlowState>,
    flows_completed: u64,
    flows_dropped: u64,
    /// Per-device steering state, indexed by device: (requests in
    /// flight, owning worker), `None` before the device's first request.
    steer: Vec<Option<(u64, usize)>>,
    /// Sanctioned steering handoffs (failover re-pins), counted so chaos
    /// reports can show how often devices migrated between IOhosts.
    steer_handoffs: u64,
    last_engine_event: Option<SimTime>,
    violations: Vec<Violation>,
    violations_dropped: u64,
}

impl Inner {
    fn steer_state(&self, device: u32) -> Option<(u64, usize)> {
        self.steer.get(device as usize).copied().flatten()
    }

    fn steer_slot(&mut self, device: u32) -> &mut Option<(u64, usize)> {
        let at = device as usize;
        if at >= self.steer.len() {
            self.steer.resize(at + 1, None);
        }
        &mut self.steer[at]
    }

    fn violate(&mut self, invariant: &'static str, message: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { invariant, message });
        } else {
            self.violations_dropped += 1;
        }
    }
}

/// The oracle: inert when the config left it off; a clone copies the
/// ledger. The private `oracle` module's docs
/// give the invariant catalog and the observe-only construction.
#[derive(Clone, Default)]
pub struct Oracle {
    inner: Option<RefCell<Inner>>,
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Oracle(off)"),
            Some(i) => {
                let i = i.borrow();
                write!(
                    f,
                    "Oracle(checks: {}, violations: {})",
                    i.checks,
                    i.violations.len()
                )
            }
        }
    }
}

impl Oracle {
    /// Builds an oracle from the configuration.
    pub fn new(config: &OracleConfig) -> Self {
        Oracle {
            inner: config.enabled.then(RefCell::default),
        }
    }

    /// Whether the oracle is recording.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- exactly-once request ledger ------------------------------------

    /// Enters a new request into the ledger. Call once per generated
    /// request; the token identifies it for the lifetime of the flow.
    pub fn flow_begin(&self, kind: &'static str, now: SimTime) -> FlowToken {
        let Some(inner) = &self.inner else {
            return FlowToken::NONE;
        };
        let mut i = inner.borrow_mut();
        i.flows.push(FlowState::Open {
            kind,
            begun: now,
            last_mark: now,
        });
        FlowToken(i.flows.len() as u64)
    }

    /// Records that a flow's request or response was lost to a modeled
    /// drop (firewall, channel loss, IOhost outage) with no retransmission
    /// to recover it. Closes the ledger entry: a later completion of the
    /// same flow is a violation.
    pub fn flow_drop(&self, token: FlowToken, now: SimTime) {
        self.close_flow(token, now, Closed::Dropped);
    }

    /// Records a flow completion. Every begun flow must reach exactly one
    /// of [`Oracle::flow_complete`] / [`Oracle::flow_drop`]; a second
    /// closure or a completion of an unknown token is a violation.
    pub fn flow_complete(&self, token: FlowToken, now: SimTime) {
        self.close_flow(token, now, Closed::Completed);
    }

    fn close_flow(&self, token: FlowToken, now: SimTime, how: Closed) {
        let Some(inner) = &self.inner else { return };
        if token == FlowToken::NONE {
            return;
        }
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let how_name = |how: Closed| match how {
            Closed::Completed => "completed",
            Closed::Dropped => "dropped",
        };
        // Tokens come only from `flow_begin`, so they index the ledger.
        let at = (token.0 - 1) as usize;
        match i.flows.get(at).copied() {
            Some(FlowState::Open { kind, begun, .. }) => {
                i.flows[at] = FlowState::Closed { kind, how };
                if now < begun {
                    i.violate(
                        "causality",
                        format!(
                            "{kind} flow {} closed at {now:?}, before it began at {begun:?}",
                            token.0
                        ),
                    );
                }
                match how {
                    Closed::Completed => i.flows_completed += 1,
                    Closed::Dropped => i.flows_dropped += 1,
                }
            }
            Some(FlowState::Closed { kind, how: prev }) => {
                let msg = format!(
                    "{kind} flow {} closed twice: already {} and now {} at {now:?} \
                     — a completion was delivered more than once",
                    token.0,
                    how_name(prev),
                    how_name(how),
                );
                i.violate("exactly-once", msg);
            }
            Some(FlowState::Leaked) | None => {
                let msg = format!(
                    "flow {} {} at {now:?} but was never begun — \
                     a completion appeared out of thin air",
                    token.0,
                    how_name(how),
                );
                i.violate("exactly-once", msg);
            }
        }
    }

    /// End-of-run ledger audit: every flow still open leaked — it was
    /// begun but neither completed nor accounted as a modeled drop. Call
    /// after the engine drains.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let mut leaked = Vec::new();
        for (at, entry) in i.flows.iter_mut().enumerate() {
            if let FlowState::Open { kind, begun, .. } = *entry {
                leaked.push((at + 1, kind, begun));
                *entry = FlowState::Leaked;
            }
        }
        for (token, kind, begun) in leaked {
            i.violate(
                "exactly-once",
                format!(
                    "{kind} flow {token} begun at {begun:?} never completed nor dropped \
                     — the request leaked"
                ),
            );
        }
    }

    // ---- descriptor conservation -----------------------------------------

    /// Checks one virtqueue snapshot against the conservation laws:
    /// nothing is popped before it is published, completed before it is
    /// popped, or reaped before it is completed; in-flight chains equal
    /// published minus reaped; the free list plus in-flight chains never
    /// exceed the ring (each live chain pins at least one descriptor); and
    /// the exact law `free + pinned == capacity`, which holds for every
    /// ring layout because the driver tracks pinned slots incrementally —
    /// an indirect chain pins one main-ring slot, a direct chain one per
    /// segment, so packed or indirect rings cannot silently bypass the
    /// audit. When indirect tables are negotiated the table books are
    /// checked too (`free + in_use == capacity` from two independently
    /// maintained books). The testbed calls it at lifecycle marks for
    /// every queue whose VM touched its rings since its last audit, so
    /// each ring state a mark sees is audited once (debug builds verify
    /// every skipped queue against its last audited snapshot).
    pub fn audit_queue(&self, vm: usize, q: &QueueAudit) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let scope = |law: &str| format!("vm{vm}/{}: {law}", q.name);
        let published = q.driver.chains_published;
        let popped = q.device.chains_popped;
        let pushed = q.device.used_pushed;
        let reaped = q.driver.used_reaped;
        if popped > published {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (popped {popped} > published {published}) — the device popped a \
                     chain the driver never published",
                    scope("chains_popped <= chains_published")
                ),
            );
        }
        if pushed > popped {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (pushed {pushed} > popped {popped}) — a used element was pushed \
                     for a chain that was never popped",
                    scope("used_pushed <= chains_popped")
                ),
            );
        }
        if reaped > pushed {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (reaped {reaped} > pushed {pushed}) — the driver reaped a \
                     completion the device never pushed",
                    scope("used_reaped <= used_pushed")
                ),
            );
        }
        let in_flight = u64::from(q.in_flight_chains);
        if published < reaped || published - reaped != in_flight {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (published {published} - reaped {reaped} != in-flight {in_flight}) \
                     — a ring slot was leaked or duplicated",
                    scope("in_flight == published - reaped")
                ),
            );
        }
        let capacity = usize::from(q.capacity);
        if q.free_descriptors > capacity {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (free {} > capacity {capacity}) — a descriptor was freed twice",
                    scope("free <= capacity"),
                    q.free_descriptors
                ),
            );
        }
        if q.free_descriptors + usize::from(q.in_flight_chains) > capacity {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (free {} + in-flight {} > capacity {capacity}) — an in-flight \
                     chain's descriptors were returned to the free list early",
                    scope("free + in_flight <= capacity"),
                    q.free_descriptors,
                    q.in_flight_chains
                ),
            );
        }
        let pinned = usize::from(q.pinned_descriptors);
        if q.free_descriptors + pinned != capacity {
            let verdict = if q.free_descriptors + pinned < capacity {
                "leaked — allocated but owned by no live chain and not on the free list"
            } else {
                "freed twice — on the free list while still pinned by a chain"
            };
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (free {} + pinned {pinned} != capacity {capacity}) — the {} \
                     ring's two books disagree: a main-ring descriptor was {verdict}",
                    scope("free + pinned == capacity"),
                    q.free_descriptors,
                    q.layout
                ),
            );
        }
        if let Some(ind) = q.indirect {
            let cap = u32::from(ind.capacity);
            let sum = u32::from(ind.free) + u32::from(ind.in_use);
            if sum < cap {
                i.violate(
                    "descriptor-conservation",
                    format!(
                        "{} (free {} + in-use {} < capacity {}) — an indirect table slot \
                         leaked: a chain was reaped without releasing its table slot \
                         back to the pool",
                        scope("indirect free + in_use == capacity"),
                        ind.free,
                        ind.in_use,
                        ind.capacity
                    ),
                );
            } else if sum > cap {
                i.violate(
                    "descriptor-conservation",
                    format!(
                        "{} (free {} + in-use {} > capacity {}) — an indirect table \
                         entry was double-freed: a slot sits on the free list while a \
                         live chain still references it",
                        scope("indirect free + in_use == capacity"),
                        ind.free,
                        ind.in_use,
                        ind.capacity
                    ),
                );
            }
        }
    }

    // ---- byte conservation ------------------------------------------------

    /// [`Oracle::check_parts`] with one expected part. Every caller in
    /// the workspace passes its parts to `check_parts`; this stays only
    /// for perfbench's self-test, a package outside the workspace.
    pub fn check_bytes(&self, what: &'static str, expected: &[u8], actual: &[u8]) {
        self.check_parts(what, &[expected], actual);
    }

    /// Checks that a payload survived a transformation pipeline
    /// byte-for-byte (encapsulation → wire → decapsulation): `actual`
    /// must be the `expected` parts back to back. One check, with no
    /// concatenation unless it fails.
    pub fn check_parts(&self, what: &'static str, expected: &[&[u8]], actual: &[u8]) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let mut rest = actual;
        let same = expected
            .iter()
            .all(|part| match rest.split_at_checked(part.len()) {
                Some((head, tail)) if head == *part => {
                    rest = tail;
                    true
                }
                _ => false,
            });
        if same && rest.is_empty() {
            return;
        }
        let expected = &expected.concat()[..];
        let msg = if expected.len() != actual.len() {
            format!(
                "{what}: byte count changed in flight — {} bytes in, {} bytes out",
                expected.len(),
                actual.len()
            )
        } else {
            let at = expected
                .iter()
                .zip(actual)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            format!(
                "{what}: payload corrupted in flight — first difference at byte {at} \
                 ({:#04x} became {:#04x}) of {}",
                expected[at],
                actual[at],
                expected.len()
            )
        };
        i.violate("byte-conservation", msg);
    }

    /// Like [`Oracle::check_parts`] but compares a reassembled [`Skb`]
    /// against the expected wire bytes *without linearizing it* — the
    /// zero-copy path's byte-conservation check. Counts as one check, same
    /// as `check_parts`, so enabling it is output-identical.
    ///
    /// [`Skb`]: vrio_net::Skb
    pub fn check_skb(&self, what: &'static str, expected: &[u8], skb: &vrio_net::Skb) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if skb.eq_contents(expected) {
            return;
        }
        i.violate(
            "byte-conservation",
            format!(
                "{what}: reassembled skb differs from the wire image — {} bytes in, \
                 {} bytes out",
                expected.len(),
                skb.len()
            ),
        );
    }

    /// End-of-run SKB pool audit: every buffer acquired from the pool must
    /// have been returned. A leaked SKB means payload bytes left the
    /// conservation books while still alive — recorded under the
    /// byte-conservation invariant. Call alongside [`Oracle::finish`].
    pub fn audit_pool(&self, what: &'static str, pool: &vrio_net::SkbPool) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if let Err(e) = pool.leak_check() {
            i.violate(
                "byte-conservation",
                format!(
                    "{what}: {e} — payload bytes are still held by an skb that never \
                     returned to the pool"
                ),
            );
        }
    }

    // ---- per-device FIFO steering -----------------------------------------

    /// Records a steering decision: `device`'s next request was assigned
    /// to `worker`. While the device has requests in flight they must all
    /// stay on the same worker — otherwise per-device FIFO ordering is
    /// lost (paper §4.1).
    pub fn steer_assign(&self, device: u32, worker: usize) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let (inflight, owner) = i.steer_state(device).unwrap_or((0, worker));
        if inflight > 0 && owner != worker {
            i.violate(
                "fifo-steering",
                format!(
                    "device {device} steered to worker {worker} while {inflight} \
                     request(s) are in flight on worker {owner} — per-device FIFO \
                     ordering is broken"
                ),
            );
        }
        // Track the latest decision so one bug reports once per switch.
        *i.steer_slot(device) = Some((inflight + 1, worker));
    }

    /// Records a *sanctioned* steering handoff: `device`'s next request
    /// was deliberately re-pinned to `worker` because its previous owner
    /// sat on a failed (or just-recovered) IOhost. Unlike
    /// [`Oracle::steer_assign`] this does not flag the owner change — the
    /// failover ladder hands device state off deterministically — but it
    /// still counts the in-flight request and the handoff itself, so the
    /// fifo-steering invariant resumes on the new owner and chaos reports
    /// can surface migration counts.
    pub fn steer_handoff(&self, device: u32, worker: usize) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let (inflight, owner) = i.steer_state(device).unwrap_or((0, worker));
        if owner != worker {
            i.steer_handoffs += 1;
        }
        *i.steer_slot(device) = Some((inflight + 1, worker));
    }

    /// Sanctioned steering handoffs recorded via [`Oracle::steer_handoff`]
    /// (0 when the oracle is off).
    pub fn steer_handoffs(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().steer_handoffs)
    }

    /// Records a steering completion: one of `device`'s in-flight requests
    /// finished. A completion with nothing in flight is a violation.
    pub fn steer_release(&self, device: u32) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        match i.steer.get_mut(device as usize) {
            Some(Some((inflight, _))) if *inflight > 0 => *inflight -= 1,
            _ => i.violate(
                "fifo-steering",
                format!(
                    "device {device} completed a request with none in flight — \
                     a completion was double-counted"
                ),
            ),
        }
    }

    // ---- monotone causality -----------------------------------------------

    /// Observes a lifecycle mark of flow `token`. A flow's marks must
    /// never run backwards in time. Marks of a closed flow (a stale
    /// block attempt that the retransmission overtook) and of no flow
    /// ([`FlowToken::NONE`]) are skipped.
    pub fn on_mark(&self, token: FlowToken, stage: Stage, now: SimTime) {
        let Some(inner) = &self.inner else { return };
        if token == FlowToken::NONE {
            return;
        }
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let at = (token.0 - 1) as usize;
        let Some(FlowState::Open { last_mark, .. }) = i.flows.get_mut(at) else {
            return;
        };
        if now >= *last_mark {
            *last_mark = now;
            return;
        }
        let prev = *last_mark;
        i.violate(
            "causality",
            format!(
                "flow {} marked '{stage}' at {now:?}, before its previous mark \
                 at {prev:?} — lifecycle stages ran backwards",
                token.0
            ),
        );
    }

    /// Observes one engine event firing (wired through
    /// `Engine::set_probe`). The simulated clock must be monotone.
    pub fn on_engine_event(&self, now: SimTime) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if let Some(last) = i.last_engine_event {
            if now < last {
                i.violate(
                    "causality",
                    format!("engine event fired at {now:?}, before the previous at {last:?}"),
                );
            }
        }
        i.last_engine_event = Some(now);
    }

    // ---- reporting ---------------------------------------------------------

    /// Total individual invariant checks performed so far.
    pub fn checks(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.borrow().checks)
    }

    /// All recorded violations (empty when the oracle is off or clean).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.borrow().violations.clone())
    }

    /// Whether no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.inner
            .as_ref()
            .is_none_or(|inner| inner.borrow().violations.is_empty())
    }

    /// Snapshot of the run's oracle accounting.
    pub fn report(&self) -> OracleReport {
        match &self.inner {
            None => OracleReport {
                checks: 0,
                flows_begun: 0,
                flows_completed: 0,
                flows_dropped: 0,
                violations: Vec::new(),
                violations_dropped: 0,
            },
            Some(inner) => {
                let i = inner.borrow();
                OracleReport {
                    checks: i.checks,
                    flows_begun: i.flows.len() as u64,
                    flows_completed: i.flows_completed,
                    flows_dropped: i.flows_dropped,
                    violations: i.violations.clone(),
                    violations_dropped: i.violations_dropped,
                }
            }
        }
    }

    /// Panics with every recorded violation if any exists. The CI gate:
    /// `context` names the run for the failure message.
    pub fn assert_clean(&self, context: &str) {
        let violations = self.violations();
        if violations.is_empty() {
            return;
        }
        let mut msg = format!(
            "oracle found {} violation(s) in {context} (after {} checks):\n",
            violations.len(),
            self.checks()
        );
        for v in &violations {
            msg.push_str("  - ");
            msg.push_str(&v.to_string());
            msg.push('\n');
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio_virtio::{IndirectAudit, RingOps};

    fn on() -> Oracle {
        Oracle::new(&OracleConfig::on())
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + vrio_sim::SimDuration::micros(us)
    }

    fn healthy_queue() -> QueueAudit {
        QueueAudit {
            name: "net-tx",
            layout: "split",
            capacity: 256,
            free_descriptors: 255,
            pinned_descriptors: 1,
            in_flight_chains: 1,
            indirect: None,
            driver: RingOps {
                chains_published: 10,
                used_reaped: 9,
                driver_kicks: 10,
                kicks_suppressed: 0,
                chains_popped: 0,
                used_pushed: 0,
                driver_signals: 0,
                signals_suppressed: 0,
            },
            device: RingOps {
                chains_published: 0,
                used_reaped: 0,
                driver_kicks: 0,
                kicks_suppressed: 0,
                chains_popped: 10,
                used_pushed: 9,
                driver_signals: 9,
                signals_suppressed: 0,
            },
        }
    }

    #[test]
    fn disabled_oracle_is_inert_and_clean() {
        let o = Oracle::new(&OracleConfig::off());
        assert!(!o.enabled());
        let tok = o.flow_begin("x", t(0));
        assert_eq!(tok, FlowToken::NONE);
        o.flow_complete(tok, t(1));
        o.finish();
        o.audit_queue(0, &healthy_queue());
        assert_eq!(o.checks(), 0);
        assert!(o.is_clean());
        o.assert_clean("inert");
    }

    #[test]
    fn clean_lifecycle_records_no_violations() {
        let o = on();
        let a = o.flow_begin("net_rr", t(0));
        let b = o.flow_begin("blk", t(1));
        o.audit_queue(0, &healthy_queue());
        o.steer_assign(0, 1);
        o.steer_release(0);
        o.check_parts("wire", &[b"payload"], b"payload");
        o.flow_complete(a, t(5));
        o.flow_drop(b, t(6));
        o.finish();
        let r = o.report();
        assert!(o.is_clean(), "{:?}", r.violations);
        assert_eq!(r.flows_begun, 2);
        assert_eq!(r.flows_completed, 1);
        assert_eq!(r.flows_dropped, 1);
        assert!(r.checks >= 6);
    }

    // ---- seeded violations: one per invariant class, proving the oracle
    // fires with an actionable message ------------------------------------

    #[test]
    fn seeded_double_completion_fires_exactly_once() {
        let o = on();
        let tok = o.flow_begin("net_rr", t(0));
        o.flow_complete(tok, t(5));
        o.flow_complete(tok, t(9)); // a duplicate completion delivery
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "exactly-once");
        assert!(v[0].message.contains("closed twice"), "{}", v[0].message);
        assert!(
            v[0].message.contains("net_rr"),
            "names the flow kind: {}",
            v[0].message
        );
    }

    #[test]
    fn seeded_dropped_completion_fires_exactly_once_leak() {
        let o = on();
        let kept = o.flow_begin("blk", t(0));
        let _lost = o.flow_begin("blk", t(1));
        o.flow_complete(kept, t(5));
        // `lost`'s completion never arrives and no drop was modeled.
        o.finish();
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "exactly-once");
        assert!(v[0].message.contains("leaked"), "{}", v[0].message);
        assert!(v[0].message.contains("blk"), "{}", v[0].message);
    }

    #[test]
    fn seeded_corrupt_ring_counters_fire_descriptor_conservation() {
        let o = on();
        // The device "completes" a chain it never popped.
        let mut q = healthy_queue();
        q.device.used_pushed = q.device.chains_popped + 1;
        o.audit_queue(3, &q);
        let v = o.violations();
        assert!(!v.is_empty());
        assert_eq!(v[0].invariant, "descriptor-conservation");
        assert!(v[0].message.contains("vm3/net-tx"), "{}", v[0].message);
        assert!(v[0].message.contains("never popped"), "{}", v[0].message);

        // A descriptor freed while its chain is still in flight.
        let o = on();
        let mut q = healthy_queue();
        q.free_descriptors = 256;
        q.pinned_descriptors = 0;
        o.audit_queue(0, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("free 256"), "{}", v[0].message);

        // In-flight accounting that disagrees with the ops counters
        // (a leaked ring slot).
        let o = on();
        let mut q = healthy_queue();
        q.in_flight_chains = 7;
        o.audit_queue(0, &q);
        let v = o.violations();
        assert!(
            v.iter().any(|v| v.message.contains("leaked or duplicated")),
            "{v:?}"
        );
    }

    #[test]
    fn seeded_pinned_leak_fires_and_names_the_layout() {
        let o = on();
        let mut q = healthy_queue();
        q.layout = "packed";
        q.pinned_descriptors = 0; // one chain in flight yet nothing pinned
        o.audit_queue(2, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "descriptor-conservation");
        assert!(v[0].message.contains("vm2/net-tx"), "{}", v[0].message);
        assert!(v[0].message.contains("packed"), "{}", v[0].message);
        assert!(v[0].message.contains("leaked"), "{}", v[0].message);

        // The opposite book error: a pinned descriptor also on the free list.
        let o = on();
        let mut q = healthy_queue();
        q.pinned_descriptors = 2;
        o.audit_queue(0, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("freed twice"), "{}", v[0].message);
    }

    #[test]
    fn seeded_leaked_indirect_slot_fires() {
        let o = on();
        let mut q = healthy_queue();
        q.indirect = Some(IndirectAudit {
            capacity: 128,
            free: 126,
            in_use: 1,
        });
        o.audit_queue(1, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "descriptor-conservation");
        assert!(v[0].message.contains("vm1/net-tx"), "{}", v[0].message);
        assert!(
            v[0].message.contains("indirect table slot leaked"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("without releasing"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn seeded_indirect_double_free_fires() {
        let o = on();
        let mut q = healthy_queue();
        q.indirect = Some(IndirectAudit {
            capacity: 128,
            free: 128,
            in_use: 1,
        });
        o.audit_queue(1, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("double-freed"), "{}", v[0].message);
        assert!(
            v[0].message.contains("free 128 + in-use 1 > capacity 128"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn clean_indirect_books_record_no_violations() {
        let o = on();
        let mut q = healthy_queue();
        q.indirect = Some(IndirectAudit {
            capacity: 128,
            free: 127,
            in_use: 1,
        });
        o.audit_queue(0, &q);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn seeded_truncated_payload_fires_byte_conservation() {
        let o = on();
        o.check_parts("blk tso reassembly", &[b"0123456789"], b"01234");
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "byte-conservation");
        assert!(
            v[0].message.contains("10 bytes in, 5 bytes out"),
            "{}",
            v[0].message
        );

        let o = on();
        o.check_parts("wire", &[b"abcdef"], b"abXdef");
        let v = o.violations();
        assert!(
            v[0].message.contains("first difference at byte 2"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn seeded_leaked_skb_fires_byte_conservation() {
        let o = on();
        let mut pool = vrio_net::SkbPool::new();
        let kept = pool.acquire(0);
        let _leaked = pool.acquire(0);
        pool.release(kept).unwrap();
        o.audit_pool("skb pool", &pool);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "byte-conservation");
        assert!(
            v[0].message
                .contains("1 skb(s) acquired but never returned"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("never returned to the pool"),
            "{}",
            v[0].message
        );

        // A balanced pool is clean.
        let o = on();
        let mut pool = vrio_net::SkbPool::new();
        let skb = pool.acquire(0);
        pool.release(skb).unwrap();
        o.audit_pool("skb pool", &pool);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn seeded_worker_migration_fires_fifo_steering() {
        let o = on();
        o.steer_assign(7, 0);
        o.steer_assign(7, 1); // migrates while one request is in flight
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fifo-steering");
        assert!(v[0].message.contains("device 7"), "{}", v[0].message);
        assert!(v[0].message.contains("worker 1"), "{}", v[0].message);

        let o = on();
        o.steer_release(3); // completion with nothing in flight
        let v = o.violations();
        assert_eq!(v[0].invariant, "fifo-steering");
        assert!(v[0].message.contains("none in flight"), "{}", v[0].message);
    }

    #[test]
    fn sanctioned_handoff_does_not_fire_fifo_steering() {
        let o = on();
        o.steer_assign(7, 0);
        o.steer_release(7);
        // Failover re-pins the device to a worker on the backup IOhost:
        // sanctioned, counted, not a violation.
        o.steer_handoff(7, 1);
        o.steer_assign(7, 1); // FIFO affinity resumes on the new owner
        o.steer_release(7);
        o.steer_release(7);
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.steer_handoffs(), 1);
        // A handoff that lands on the current owner is not a migration.
        o.steer_handoff(7, 1);
        assert_eq!(o.steer_handoffs(), 1);
    }

    #[test]
    fn seeded_reordered_marks_fire_causality() {
        let o = on();
        let flow = o.flow_begin("net_rr", t(10));
        o.on_mark(flow, Stage::GuestEnqueue, t(10));
        o.on_mark(flow, Stage::Wire, t(12));
        o.on_mark(flow, Stage::Backend, t(11)); // runs backwards
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "causality");
        assert!(v[0].message.contains("backwards"), "{}", v[0].message);

        // The engine clock running backwards is also caught.
        let o = on();
        o.on_engine_event(t(5));
        o.on_engine_event(t(4));
        let v = o.violations();
        assert_eq!(v[0].invariant, "causality");
        assert!(v[0].message.contains("engine event"), "{}", v[0].message);
    }

    #[test]
    fn inert_spans_are_skipped() {
        // With tracing off every flow shares SpanId::NONE, so marks are
        // ordered per flow: interleaved flows are not time travel.
        let o = on();
        let a = o.flow_begin("net_rr", t(0));
        let b = o.flow_begin("blk", t(0));
        o.on_mark(a, Stage::Wire, t(10));
        o.on_mark(b, Stage::Wire, t(5));
        // Marks of no flow, and of a closed one, are not checked.
        o.on_mark(FlowToken::NONE, Stage::Wire, t(1));
        o.flow_complete(a, t(12));
        o.on_mark(a, Stage::Interrupt, t(11));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn assert_clean_panics_with_every_violation_listed() {
        let o = on();
        o.check_parts("a", &[b"x"], b"y");
        o.steer_release(0);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.assert_clean("unit test")))
                .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2 violation(s) in unit test"), "{msg}");
        assert!(msg.contains("[byte-conservation]"), "{msg}");
        assert!(msg.contains("[fifo-steering]"), "{msg}");
    }

    #[test]
    fn violation_recording_is_capped_but_counted() {
        let o = on();
        for _ in 0..(MAX_VIOLATIONS + 10) {
            o.steer_release(0);
        }
        let r = o.report();
        assert_eq!(r.violations.len(), MAX_VIOLATIONS);
        assert_eq!(r.violations_dropped, 10);
    }

    #[test]
    fn clones_are_independent() {
        let o = on();
        let tok = o.flow_begin("x", t(0));
        let fork = o.clone();
        o.flow_complete(tok, t(1));
        o.finish();
        assert!(o.is_clean());
        assert_eq!(o.report().flows_completed, 1);
        // The copy's entry is still open: closing it there is its own
        // first closure, and its ledger never saw the original's.
        assert_eq!(fork.report().flows_completed, 0);
        fork.flow_complete(tok, t(2));
        assert!(fork.is_clean());
    }
}
