//! The step program: the plain data a compiled flow is made of, the
//! interpreter that runs it as chained engine events, and the bodies of
//! the data steps the flows share.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::{DropCause, SpanId, Stage};

use super::blk::BlkExec;
use super::{HasTestbed, Testbed};
use crate::admission::Decision;
use crate::interpose::Direction;
use crate::oracle::FlowToken;
use crate::proto::{VrioMsg, VrioMsgKind};
use crate::transport::ResponseAction;

/// Which resource a step charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CoreRef {
    /// Load-generator core serving VM `i`.
    Gen(usize),
    /// Backend core `i`: an Elvis sidecore, a vhost core, or a vRIO worker.
    Backend(usize),
    /// The shared per-generator-machine resource (NIC/PCIe/memory bus).
    GenMachine(usize),
    /// The VMhost `i` uplink (wire serialization).
    HostLink(usize),
    /// The uplink of IOhost `i` (0 = primary, 1.. = N+1 backups).
    IohostLink(usize),
    /// Block device `i`.
    Disk(usize),
}

/// A counter a step increments (Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum CounterKind {
    /// Synchronous guest exit.
    Exit,
    /// Virtual interrupt handled by the guest.
    GuestIntr,
    /// Host-performed interrupt injection.
    Injection,
    /// Physical interrupt at the VMhost.
    HostIntr,
    /// Physical interrupt at the IOhost.
    IohostIntr,
}

/// One step of a compiled flow: plain data that [`run_steps`]
/// interprets. Queueing, contention and saturation emerge from the FIFO
/// charges; the data steps run the real plumbing (virtqueue operations,
/// vRIO encapsulation, interposition, the retransmission transport).
pub(super) enum Step {
    /// Pure latency (wire propagation, DMA, ELI delivery).
    Fixed(SimDuration),
    /// FIFO charge against a resource; the flow waits for completion.
    Charge(CoreRef, SimDuration),
    /// Charge a resource without waiting (asynchronous completion work).
    ChargeAsync(CoreRef, SimDuration),
    /// Charge VM `i`'s VCPU (serializing with other guest work) and wait.
    ChargeVm(usize, SimDuration),
    /// Charge VM `i`'s VCPU without waiting (async completion handling).
    ChargeVmAsync(usize, SimDuration),
    /// Increment a Table 3 counter.
    Count(CounterKind),
    /// Polling pickup at backend `i`: poll interval plus the mwait wake
    /// penalty if the worker was idle.
    Pickup(usize),
    /// Mark a packet as designated for a backend (rx-ring occupancy +1).
    RingPush(usize),
    /// Mark the packet picked up by its backend (occupancy −1).
    RingPop(usize),
    /// Record a stage transition on an open trace span. Processed inline
    /// (never scheduled), so pushing marks into a flow perturbs neither
    /// event ordering nor RNG streams — traced runs stay bit-identical.
    Mark(SpanId, Stage),
    /// A net frame for VM `vm` reaches IOhost worker `backend`
    /// ([`Testbed::iohost_arrival`]). A drop ends the flow and closes its
    /// oracle entry and SLO record: the request is lost, and TCP above
    /// retransmits.
    NetArrival {
        vm: usize,
        backend: usize,
        flow: FlowToken,
    },
    /// A block frame reaches the IOhost, through the same gate. A drop
    /// ends only this attempt; the retransmission timer recovers it.
    BlkArrival { vm: usize, backend: usize },
    /// Hand a frame to the guest's rx ring ([`Testbed::deliver_rx`]).
    DeliverRx(Box<RxFrame>),
    /// The guest transmits the canonical `len`-byte response.
    SendTx { vm: usize, len: usize },
    /// The back end fetches VM `vm`'s transmitted frame into `slot`
    /// ([`Testbed::fetch_tx`]).
    FetchTx {
        vm: usize,
        dir: Option<Direction>,
        slot: Rc<RefCell<Bytes>>,
    },
    /// The vRIO worker interposes outbound on a fetched response; a drop
    /// verdict leaves it unchanged.
    InterposeTx(Rc<RefCell<Bytes>>),
    /// Release VM `vm`'s steering designation on `backend`.
    ReleaseBackend { vm: usize, backend: usize },
    /// Execute a block attempt on the store ([`Testbed::blk_execute`]).
    BlkExecute(Rc<BlkExec>),
    /// The transport receives a block response: anything but the
    /// accepted response of a still-outstanding attempt ends the flow.
    RetxAccept { vm: usize, wire_id: u64 },
    /// A duplicated response frame right behind the original; it must
    /// filter as stale, so the guest never sees a second completion.
    StaleDuplicate { vm: usize, wire_id: u64 },
}

// Flows move every step through a queue, so steps stay this small: the
// one large payload, an rx frame, is boxed.
const _: () = assert!(std::mem::size_of::<Step>() <= 32);

/// A frame for VM `vm`'s rx ring. A vRIO frame arrives as the encoded
/// `NetRx` message, which the VMhost transport decodes and the oracle
/// checks against the `payload` the worker sent.
pub(super) struct RxFrame {
    pub vm: usize,
    pub payload: Bytes,
    pub encoded: Option<Bytes>,
}

impl Step {
    /// Delivers a plain (unencapsulated) frame to VM `vm`.
    pub fn deliver(vm: usize, payload: Bytes) -> Step {
        Step::DeliverRx(Box::new(RxFrame {
            vm,
            payload,
            encoded: None,
        }))
    }
}

/// A flow-completion continuation.
pub(super) type FlowDone<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// A flow's step program under construction.
pub(super) struct Program {
    steps: VecDeque<Step>,
    /// The span stage marks go to; `None` when neither the tracer nor the
    /// oracle is on, so the program carries no marks at all.
    span: Option<SpanId>,
}

impl Program {
    /// Appends a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push_back(step);
    }

    /// Appends a stage transition on the flow's span ([`Step::Mark`]).
    pub fn mark(&mut self, stage: Stage) {
        if let Some(span) = self.span {
            self.steps.push_back(Step::Mark(span, stage));
        }
    }

    /// Runs the program as chained engine events, then `done`.
    pub fn run<W: HasTestbed>(self, w: &mut W, eng: &mut Engine<W>, done: FlowDone<W>) {
        run_steps(w, eng, self.steps, done);
    }
}

/// What the interpreter does after a step.
enum Next {
    /// Run the next step now (after the last step: the flow completed).
    Go,
    /// Resume the flow at this instant.
    Wait(SimTime),
    /// The flow ends here (a dropped frame or a stale response).
    Stop,
}

/// The flows waiting on the engine. A waiting flow's steps and completion
/// stay in a slot, and the resume event carries only the slot index
/// ([`Engine::schedule_call_at`]), so once the table and the engine's heap
/// have grown, a wait allocates nothing.
#[derive(Default)]
pub(super) struct FlowTable {
    slots: Vec<Parked>,
    /// Indices of the unoccupied slots.
    free: Vec<usize>,
}

/// One [`FlowTable`] slot.
#[derive(Default)]
struct Parked {
    steps: VecDeque<Step>,
    /// The completion as an `Option<FlowDone<W>>`, erased because the
    /// table does not know the world type. The box outlives the flow: the
    /// next flow parked here reuses it.
    done: Option<Box<dyn Any>>,
}

impl FlowTable {
    /// Parks a flow, returning its slot.
    fn park<W: HasTestbed>(&mut self, steps: VecDeque<Step>, done: FlowDone<W>) -> usize {
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Parked::default());
            self.slots.len() - 1
        });
        let slot = &mut self.slots[i];
        slot.steps = steps;
        match slot.done.as_mut().and_then(|d| d.downcast_mut()) {
            Some(cell) => *cell = Some(done),
            None => slot.done = Some(Box::new(Some(done))),
        }
        i
    }

    /// Frees slot `i`, returning the completion of the flow parked there.
    fn unpark<W: HasTestbed>(&mut self, i: usize) -> FlowDone<W> {
        self.free.push(i);
        self.slots[i]
            .done
            .as_mut()
            .and_then(|d| d.downcast_mut::<Option<FlowDone<W>>>())
            .and_then(Option::take)
            .expect("a flow is parked in the slot")
    }
}

/// Executes a compiled flow as chained engine events: parks it in the
/// [`FlowTable`] and runs it up to its first wait.
fn run_steps<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    steps: VecDeque<Step>,
    done: FlowDone<W>,
) {
    let slot = w.tb().flows.park(steps, done);
    resume(w, eng, slot as u64);
}

/// Runs the flow parked in `slot` up to its next wait, when it stays
/// parked, or to its end, when its slot is freed.
fn resume<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, slot: u64) {
    let i = slot as usize;
    let tb = w.tb();
    let mut steps = std::mem::take(&mut tb.flows.slots[i].steps);
    match tb.advance(&mut steps, eng.now()) {
        Next::Go => {
            let done = tb.flows.unpark::<W>(i);
            tb.recycle_steps(steps);
            done(w, eng);
        }
        Next::Wait(at) => {
            tb.flows.slots[i].steps = steps;
            eng.schedule_call_at(at, resume::<W>, slot);
        }
        Next::Stop => {
            // A stopped flow's completion never runs.
            drop(tb.flows.unpark::<W>(i));
            tb.recycle_steps(steps);
        }
    }
}

/// `Go` for a zero delay, otherwise wait it out.
fn after(now: SimTime, d: SimDuration) -> Next {
    if d.is_zero() {
        Next::Go
    } else {
        Next::Wait(now + d)
    }
}

impl Testbed {
    /// An empty program, on recycled queue storage, whose stage marks go
    /// to `span`.
    pub(super) fn program(&mut self, span: SpanId) -> Program {
        let tracing = self.trace.enabled() || self.oracle.enabled();
        Program {
            steps: self.step_pool.pop().unwrap_or_default(),
            span: tracing.then_some(span),
        }
    }

    /// Returns a flow's step-queue storage to the pool (capped so a burst
    /// of aborted flows cannot hoard memory). The steps of a stopped flow
    /// are discarded.
    fn recycle_steps(&mut self, mut steps: VecDeque<Step>) {
        if self.step_pool.len() < 64 {
            steps.clear();
            self.step_pool.push(steps);
        }
    }

    /// Runs `steps` at `now` until one waits or stops the flow, or they
    /// run out ([`Next::Go`]).
    fn advance(&mut self, steps: &mut VecDeque<Step>, now: SimTime) -> Next {
        while let Some(mut step) = steps.pop_front() {
            if let Step::Fixed(total) = &mut step {
                // Coalesce a run of consecutive fixed delays into one
                // scheduled event. Pure latencies have no observable
                // effect in between (no resource state, no counters, no
                // rng), so summing them is exact: the flow resumes at the
                // same instant, it just skips the intermediate no-op
                // wakeups.
                while let Some(Step::Fixed(next)) = steps.front() {
                    *total += *next;
                    steps.pop_front();
                }
            }
            match self.exec(step, now) {
                Next::Go => {}
                stop_or_wait => return stop_or_wait,
            }
        }
        Next::Go
    }

    /// Runs one step at `now`.
    fn exec(&mut self, step: Step, now: SimTime) -> Next {
        match step {
            Step::Fixed(d) => return after(now, d),
            Step::Charge(core, work) => return Next::Wait(self.resource(core).charge(now, work)),
            Step::ChargeAsync(core, work) => {
                self.resource(core).charge(now, work);
            }
            Step::ChargeVm(vm, work) => return Next::Wait(self.vms[vm].cpu.run(now, work)),
            Step::ChargeVmAsync(vm, work) => {
                self.vms[vm].cpu.run(now, work);
            }
            Step::Count(kind) => self.count(kind),
            Step::Pickup(b) => return after(now, self.pickup_delay(b, now)),
            Step::RingPush(b) => {
                self.backends[b].pending += 1;
                let doorbell = self.worker_poll[b].on_arrival(now);
                if self.config.adaptive_poll.enabled && doorbell {
                    // In adaptive mode an interrupt-mode arrival pays a
                    // physical IOhost interrupt; polled arrivals are free.
                    self.count(CounterKind::IohostIntr);
                }
            }
            Step::RingPop(b) => {
                let p = &mut self.backends[b].pending;
                *p = p.saturating_sub(1);
                self.worker_poll[b].on_activity(now);
            }
            Step::Mark(span, stage) => {
                self.trace.mark(span, stage, now);
                if self.oracle.enabled() {
                    self.oracle.on_mark(span, stage, now);
                    self.audit_rings();
                }
            }
            Step::NetArrival { vm, backend, flow } => {
                if let Err(cause) = self.iohost_arrival(vm, backend, now) {
                    self.oracle.flow_drop(flow, now);
                    self.slo.record_drop(vm, cause);
                    return Next::Stop;
                }
            }
            Step::BlkArrival { vm, backend } => {
                if self.iohost_arrival(vm, backend, now).is_err() {
                    return Next::Stop;
                }
            }
            Step::DeliverRx(frame) => self.deliver_rx(*frame),
            Step::SendTx { vm, len } => {
                let payload = self.resp_payload(len);
                self.vms[vm].net_send(&payload).expect("tx slot");
            }
            Step::FetchTx { vm, dir, slot } => *slot.borrow_mut() = self.fetch_tx(vm, dir),
            Step::InterposeTx(slot) => {
                let payload = slot.take();
                *slot.borrow_mut() = self.interpose_transform(Direction::Outbound, payload);
            }
            Step::ReleaseBackend { vm, backend } => self.release_backend(vm, backend),
            Step::BlkExecute(exec) => self.blk_execute(&exec),
            Step::RetxAccept { vm, wire_id } => {
                if !matches!(
                    self.retx[vm].on_response(wire_id, now),
                    ResponseAction::Accept { .. }
                ) {
                    return Next::Stop;
                }
            }
            Step::StaleDuplicate { vm, wire_id } => {
                let r = self.retx[vm].on_response(wire_id, now);
                debug_assert!(matches!(r, ResponseAction::Stale));
            }
        }
        Next::Go
    }

    /// A frame from VM `vm` lands on IOhost worker `backend`'s rx ring
    /// (already counted by [`Step::RingPush`]): the one arrival gate of
    /// every remote leg. Each loss is attributed to exactly one cause,
    /// tested in order: the IOhost is down, the ring overflowed, the
    /// channel lost the frame (uniform loss, then the fault injector),
    /// and finally overload-aware admission (disabled by default), which
    /// sheds at the door instead of queueing toward a timeout. Sheds are
    /// not channel drops: the request never entered the ring. A drop
    /// undoes the ring designation and returns its cause.
    fn iohost_arrival(&mut self, vm: usize, backend: usize, now: SimTime) -> Result<(), DropCause> {
        let iohost = backend / self.config.backend_cores;
        let lost = if self.iohost_failed(iohost, now) {
            Some(DropCause::Outage)
        } else if self.backends[backend].pending > self.config.iohost_rx_ring {
            Some(DropCause::ShedQueue)
        } else if self.rng.chance(self.config.channel_loss) || self.fault_drop(now) {
            Some(DropCause::FaultLoss)
        } else {
            None
        };
        let cause = match lost {
            Some(cause) => {
                self.channel_drops += 1;
                cause
            }
            None => {
                let depth = self.backends[backend].pending;
                match self.admission[iohost].offer(vm, depth, now) {
                    Decision::Admit => return Ok(()),
                    Decision::ShedQueue => DropCause::ShedQueue,
                    Decision::ShedFair => DropCause::ShedFair,
                    Decision::ShedBreaker => DropCause::ShedBreaker,
                }
            }
        };
        self.backends[backend].pending -= 1;
        self.release_backend(vm, backend);
        Err(cause)
    }

    /// Hands `frame` to its VM's rx ring, and the guest receives it and
    /// reposts the buffer.
    fn deliver_rx(&mut self, frame: RxFrame) {
        let payload = match frame.encoded {
            Some(encoded) => {
                let msg = VrioMsg::decode(encoded).expect("valid vRIO message");
                assert_eq!(msg.hdr.kind, VrioMsgKind::NetRx);
                self.oracle
                    .check_bytes("net_rr encap->decap", &frame.payload, &msg.payload);
                msg.payload
            }
            None => frame.payload,
        };
        let vm = &mut self.vms[frame.vm];
        vm.net_deliver_rx(&payload).expect("rx posted");
        vm.net_recv().expect("recv").expect("delivered");
        vm.net_refill_rx().expect("refill");
    }

    /// The back end fetches VM `vm`'s transmitted frame from the tx ring
    /// and completes it, interposing in `dir` when given (a drop verdict
    /// yields an empty payload).
    fn fetch_tx(&mut self, vm: usize, dir: Option<Direction>) -> Bytes {
        let (head, _hdr, payload) = self.vms[vm]
            .net_fetch_tx()
            .expect("fetch")
            .expect("guest transmitted");
        self.vms[vm].net_complete_tx(head).expect("complete");
        self.vms[vm].net_reap_tx().expect("reap");
        match dir {
            Some(dir) => self.interpose(dir, payload).0.unwrap_or_default(),
            None => payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use vrio_block::{BlockRequest, RequestId};
    use vrio_hv::IoModel;

    use super::*;
    use crate::oracle::OracleConfig;
    use crate::testbed::{blk_request, net_request_response, TestbedConfig};

    fn rack(vms: usize) -> (Testbed, Engine<Testbed>) {
        let mut config = TestbedConfig::simple(IoModel::Vrio, vms);
        config.oracle = OracleConfig::on();
        (Testbed::new(config), Engine::new())
    }

    /// Runs one lifecycle mark and returns the oracle checks it made. The
    /// span is inert, so every check is a queue audit.
    fn mark(tb: &mut Testbed) -> u64 {
        let before = tb.oracle.checks();
        tb.exec(Step::Mark(SpanId::NONE, Stage::Wire), SimTime::ZERO);
        tb.oracle.checks() - before
    }

    /// Issues one RR and one block read on VM `vm`.
    fn traffic(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: usize) {
        let req = Bytes::from_static(b"ping");
        net_request_response(tb, eng, vm, req, 64, SimDuration::ZERO, |_, _, _| {});
        let read = BlockRequest::read(RequestId(1), 0, 4096);
        blk_request(tb, eng, vm, read, |_, _, _| {});
    }

    /// Runs `eng` dry, returning the oracle checks each event made.
    fn checks_per_event(tb: &mut Testbed, eng: &mut Engine<Testbed>) -> Vec<u64> {
        let mut per_event = Vec::new();
        let mut before = tb.oracle.checks();
        while eng.step(tb) {
            per_event.push(tb.oracle.checks() - before);
            before = tb.oracle.checks();
        }
        per_event
    }

    #[test]
    fn marks_audit_only_the_vms_whose_rings_moved() {
        let (mut seven, mut eng7) = rack(7);
        let (mut one, mut eng1) = rack(1);
        // The first mark audits all 7 × 3 queues; one on an unchanged
        // rack audits nothing.
        assert_eq!(mark(&mut seven), 21);
        assert_eq!(mark(&mut seven), 0);
        assert_eq!(mark(&mut one), 3);

        // With traffic on VM 0 only, every event of the 7-VM rack checks
        // exactly what the 1-VM rack's does: no mark re-audits VMs 1–6.
        traffic(&mut seven, &mut eng7, 0);
        traffic(&mut one, &mut eng1, 0);
        let vm0 = checks_per_event(&mut seven, &mut eng7);
        assert_eq!(vm0, checks_per_event(&mut one, &mut eng1));

        // A request on VM 3 then is audited as the only VM of a fresh
        // rack would be: VM 3's queues, not VM 0's quiet ones.
        let (mut fresh, mut eng_fresh) = rack(1);
        mark(&mut fresh);
        traffic(&mut seven, &mut eng7, 3);
        traffic(&mut fresh, &mut eng_fresh, 0);
        assert_eq!(
            checks_per_event(&mut seven, &mut eng7),
            checks_per_event(&mut fresh, &mut eng_fresh)
        );

        // Any ring method moves the epoch, so the next mark re-audits
        // that VM's three queues and nothing else.
        mark(&mut seven);
        seven.vms[3].net_refill_rx().unwrap();
        assert_eq!(mark(&mut seven), 3);
        seven.oracle.finish();
        seven.oracle.assert_clean("7-VM audit locality");
    }
}
