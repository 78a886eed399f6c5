//! The step program: the plain data a compiled flow is made of, the
//! interpreter that runs it as chained engine events, and the bodies of
//! the data steps the flows share.

use bytes::Bytes;
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::{DropCause, RequestKind, Stage};

use super::blk::{self, BlkExec};
use super::net::NetFlow;
use super::{req_track, HasTestbed, RrOutcome, Testbed};
use crate::admission::Decision;
use crate::interpose::Direction;
use crate::proto::{VrioMsg, VrioMsgKind, VRIO_HDR_SIZE};
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

/// One step of a compiled flow: plain data that [`Program::run`]
/// interprets. Queueing, contention and saturation emerge from the FIFO
/// charges; the data steps run the real plumbing (virtqueue operations,
/// vRIO encapsulation, interposition, the retransmission transport).
#[derive(Clone, Copy)]
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
    /// Record a stage transition of the flow's request on its trace span
    /// and oracle ledger entry. Processed inline (never scheduled), so
    /// pushing marks into a flow perturbs neither event ordering nor RNG
    /// streams — traced runs stay bit-identical.
    Mark(Stage),
    /// A net frame for VM `vm` reaches IOhost worker `backend`
    /// ([`Testbed::iohost_arrival`]). A drop ends the flow and closes its
    /// records ([`Next::Lost`]): the request is lost, and TCP above
    /// retransmits.
    NetArrival { vm: usize, backend: usize },
    /// A block frame reaches the IOhost, through the same gate. A drop
    /// ends only this attempt; the retransmission timer recovers it.
    BlkArrival { vm: usize, backend: usize },
    /// Hand the frame the flow carries to the guest's rx ring
    /// ([`Testbed::deliver_rx`]).
    DeliverRx,
    /// The guest transmits the canonical `len`-byte response. When its tx
    /// ring is full, the request is shed ([`DropCause::ShedQueue`]).
    SendTx { vm: usize, len: usize },
    /// The back end fetches VM `vm`'s transmitted frame into the flow's
    /// data ([`Testbed::fetch_tx`]).
    FetchTx { vm: usize, dir: Option<Direction> },
    /// The vRIO worker interposes outbound on the flow's fetched response;
    /// a drop verdict leaves it unchanged.
    InterposeTx,
    /// Release VM `vm`'s steering designation on `backend`.
    ReleaseBackend { vm: usize, backend: usize },
    /// Execute the block attempt the flow carries on the store
    /// ([`Testbed::blk_execute`]); a read's data becomes the flow's data.
    BlkExecute,
    /// VM `vm`'s transport receives the response to attempt `wire_id` of
    /// the block request in slot `blk` ([`Testbed::blk_response`]):
    /// anything but the accepted response of the request's outstanding
    /// attempt ends the flow.
    RetxAccept { vm: usize, blk: usize, wire_id: u64 },
    /// A duplicated response frame right behind the original; it must
    /// filter as stale, so the guest never sees a second completion.
    StaleDuplicate { vm: usize, blk: usize, wire_id: u64 },
}

// Flows keep their steps in a `Vec`, so steps stay this small and plain:
// a flow's request id and the one large payload it carries, an rx frame
// or a block attempt, wait in its slot, where the steps find them. Steps,
// flow tables and block tables hold no shared or thread-bound state, and
// neither does the testbed as a whole: it owns its observers, so it and
// its engine clone into an independent fork of the run.
const _: () = {
    assert!(std::mem::size_of::<Step>() <= 32);
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Step>();
    const fn assert_send<T: Send>() {}
    assert_send::<Step>();
    assert_send::<FlowTable>();
    assert_send::<Slab<blk::BlkReq>>();
    assert_send::<Testbed>();
    const fn assert_clone<T: Clone>() {}
    assert_clone::<Testbed>();
    assert_clone::<Engine<Testbed>>();
};

/// A frame for VM `vm`'s rx ring. A vRIO frame is a `NetRx` message: its
/// encoded header travels beside the `payload` the worker sent, which
/// is never copied into one buffer with it. The VMhost transport decodes
/// the two, and the oracle checks what the guest reads against `payload`.
#[derive(Clone)]
pub(super) struct RxFrame {
    pub vm: usize,
    pub payload: Bytes,
    /// A vRIO frame's encoded [`crate::VrioHdr`]; `None` for a frame the
    /// back end hands the guest as it is.
    pub vrio_hdr: Option<[u8; VRIO_HDR_SIZE]>,
}

/// What runs when a flow's steps run out. A stopped flow (a dropped
/// frame, a stale response) never reaches its end.
#[derive(Clone)]
pub(super) enum FlowEnd {
    /// Close a request-response's records and hand the world its outcome
    /// with the response the flow fetched ([`HasTestbed::on_rr`]).
    Rr { net: NetFlow, tag: u64 },
    /// Close a stream batch's records and tell the world
    /// ([`HasTestbed::on_stream`]).
    Stream { net: NetFlow, tag: u64 },
    /// A block request was submitted: run its local back end.
    BlkLocal(usize),
    /// A block request was submitted: send its first vRIO attempt and arm
    /// that attempt's retransmission timer.
    BlkVrio(usize),
    /// A block attempt responded: complete the request with the data the
    /// flow read.
    BlkDone(usize),
}

/// The one large payload a flow carries to the data step that takes it.
/// No flow carries more than one: a frame for the guest or a block
/// attempt.
#[derive(Clone)]
pub(super) enum Payload {
    /// The frame its [`Step::DeliverRx`] hands the guest.
    Rx(RxFrame),
    /// The attempt its [`Step::BlkExecute`] executes.
    Blk(BlkExec),
}

/// A flow's step program under construction.
pub(super) struct Program {
    steps: Vec<Step>,
    /// Whether the tracer or the oracle is on; when neither is, the
    /// program carries no marks at all.
    marks: bool,
    /// The request the flow's marks go to.
    id: u64,
    payload: Option<Payload>,
}

// The flows that compile programs are generic over the world, so they are
// instantiated in the workload's crate: `push` and `mark` are `inline` so
// that they can inline there.
impl Program {
    /// Appends a step.
    #[inline]
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Appends a stage transition of the flow's request ([`Step::Mark`]).
    #[inline]
    pub fn mark(&mut self, stage: Stage) {
        if self.marks {
            self.steps.push(Step::Mark(stage));
        }
    }

    /// Appends the step delivering to VM `vm` the frame `payload`,
    /// arriving as a vRIO message with the encoded header `vrio_hdr` if
    /// given ([`RxFrame`]); the program carries the frame until then.
    pub fn deliver(&mut self, vm: usize, payload: Bytes, vrio_hdr: Option<[u8; VRIO_HDR_SIZE]>) {
        let frame = RxFrame {
            vm,
            payload,
            vrio_hdr,
        };
        self.carry(Payload::Rx(frame));
        self.steps.push(Step::DeliverRx);
    }

    /// Appends the step executing block attempt `x`; the program carries
    /// the attempt until then.
    pub fn execute(&mut self, x: BlkExec) {
        self.carry(Payload::Blk(x));
        self.steps.push(Step::BlkExecute);
    }

    fn carry(&mut self, payload: Payload) {
        debug_assert!(self.payload.is_none(), "a flow carries one payload");
        self.payload = Some(payload);
    }

    /// Runs the program as chained engine events: parks it in the
    /// [`FlowTable`] and runs it up to its first wait; `end` runs when
    /// the steps run out. The caller's event goes on after this returns,
    /// so the flow never continues inline from here
    /// ([`Engine::continue_at`]).
    pub fn run<W: HasTestbed>(self, w: &mut W, eng: &mut Engine<W>, end: FlowEnd) {
        let slot = w.tb().flows.insert(Parked {
            steps: self.steps,
            next: 0,
            id: self.id,
            data: Bytes::new(),
            payload: self.payload,
            end,
        });
        drive(w, eng, slot, false);
    }
}

/// What the interpreter does after a step.
enum Next {
    /// Run the next step now (after the last step: the flow completed).
    Go,
    /// Resume the flow at this instant.
    Wait(SimTime),
    /// The block attempt ends here (a dropped frame or a stale response);
    /// its request lives on.
    Stop,
    /// The request is lost at the arrival gate for this cause: the flow
    /// ends and its records close as a drop. The steering designations
    /// its steps still hold stay taken.
    Lost(DropCause),
    /// The request is dropped here for this cause: the flow ends, the
    /// steering designations its steps still hold are released, and its
    /// records close as a drop.
    Drop(DropCause),
}

/// Index-addressed storage with a free list: an entry keeps its index
/// until it is removed, and a removed entry's index is reused. Once the
/// table has grown, inserting allocates nothing.
#[derive(Clone)]
pub(super) struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Indices of the unoccupied slots.
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value`, returning its index.
    pub fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Removes and returns the entry at `i`.
    pub fn remove(&mut self, i: usize) -> T {
        let value = self.slots[i].take().expect("slab slot is live");
        self.free.push(i);
        value
    }

    /// The entry at `i`, if one lives there.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.slots.get_mut(i).and_then(Option::as_mut)
    }

    /// The number of live entries.
    #[cfg(test)]
    pub fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.slots[i].as_ref().expect("slab slot is live")
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.slots[i].as_mut().expect("slab slot is live")
    }
}

/// The flows waiting on the engine. A flow runs in place in its slot: its
/// steps, payload and data never leave it until the flow ends, and the
/// resume event carries only the slot index, so once the table and the
/// engine's heap have grown, a wait allocates nothing. Freeing a slot
/// drops whatever payload its flow still carries.
pub(super) type FlowTable = Slab<Parked>;

/// One [`FlowTable`] slot.
#[derive(Clone)]
pub(super) struct Parked {
    steps: Vec<Step>,
    /// The index of the next step to run.
    next: usize,
    /// The request the flow's marks go to.
    id: u64,
    /// The payload its [`Step::DeliverRx`] or [`Step::BlkExecute`] takes;
    /// `None` when it carries none, or once that step ran.
    payload: Option<Payload>,
    /// What the flow's data steps produced: the response a
    /// [`Step::FetchTx`] fetched, or the data a [`Step::BlkExecute`] read.
    data: Bytes,
    end: FlowEnd,
}

/// The event that resumes the flow parked in `slot`.
fn resume<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, slot: u64) {
    drive(w, eng, slot as usize, true);
}

/// Runs the flow parked in slot `i` up to its next wait, when it stays
/// parked, or to its end, when its slot is freed. When `tail` is set the
/// flow's resume event is what is running, and nothing of it follows a
/// wait, so the flow carries on inline through every wait that would
/// fire next anyway ([`Engine::continue_at`]).
fn drive<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, i: usize, tail: bool) {
    let outcome = loop {
        match w.tb().advance(i, eng.now()) {
            Next::Wait(at) if tail && eng.continue_at(w, at) => {}
            outcome => break outcome,
        }
    };
    let tb = w.tb();
    match outcome {
        Next::Wait(at) => eng.schedule_at(at, resume::<W>, i as u64),
        Next::Go => {
            let Parked {
                steps, data, end, ..
            } = tb.flows.remove(i);
            tb.recycle_steps(steps);
            finish(w, eng, end, data);
        }
        how => {
            let Parked {
                steps, next, end, ..
            } = tb.flows.remove(i);
            tb.end_early(&steps[next..], end, how, eng.now());
            tb.recycle_steps(steps);
        }
    }
}

/// Runs a flow's end, with the data its steps produced.
fn finish<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, end: FlowEnd, data: Bytes) {
    let now = eng.now();
    match end {
        FlowEnd::Rr { net, tag } => {
            let latency = net.complete(w.tb(), now);
            let response = data;
            w.on_rr(eng, tag, RrOutcome { latency, response });
        }
        FlowEnd::Stream { net, tag } => {
            net.complete(w.tb(), now);
            w.on_stream(eng, tag);
        }
        FlowEnd::BlkLocal(blk) => blk::local_backend(w, eng, blk),
        FlowEnd::BlkVrio(blk) => blk::vrio_send(w, eng, blk),
        FlowEnd::BlkDone(blk) => blk::respond(w, eng, blk, &data),
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
    /// Mints the next request id, counting from 1, and opens request
    /// `kind`'s trace span and oracle ledger entry under it at `t0`: the
    /// one name the request's observers know it by.
    pub(super) fn begin_request(
        &mut self,
        kind: RequestKind,
        vm: usize,
        stage: Stage,
        t0: SimTime,
    ) -> u64 {
        self.requests += 1;
        let id = self.requests;
        self.trace.begin(id, kind, req_track(vm), stage, t0);
        self.oracle.flow_begin(id, kind, t0);
        id
    }

    /// An empty program, on recycled step storage, whose stage marks go
    /// to request `id`.
    pub(super) fn program(&mut self, id: u64) -> Program {
        Program {
            steps: self.step_pool.pop().unwrap_or_default(),
            marks: self.trace.enabled() || self.oracle.enabled(),
            id,
            payload: None,
        }
    }

    /// Returns a flow's step storage to the pool (capped so a burst of
    /// aborted flows cannot hoard memory).
    fn recycle_steps(&mut self, mut steps: Vec<Step>) {
        if self.step_pool.len() < 64 {
            steps.clear();
            self.step_pool.push(steps);
        }
    }

    /// Ends a flow that stopped (`how`) before its `unrun` steps ran:
    /// closes the records of a request lost or dropped there, after a
    /// drop releasing the steering designations the unrun steps hold.
    fn end_early(&mut self, unrun: &[Step], end: FlowEnd, how: Next, now: SimTime) {
        let cause = match how {
            Next::Lost(cause) => cause,
            Next::Drop(cause) => {
                for step in unrun {
                    if let Step::ReleaseBackend { vm, backend } = *step {
                        self.release_backend(vm, backend);
                    }
                }
                cause
            }
            _ => return,
        };
        let FlowEnd::Rr { net, .. } = end else {
            unreachable!("only request-responses are lost or dropped mid-flow");
        };
        net.dropped(self, cause, now);
    }

    /// Runs the flow in slot `i` from its cursor at `now` until a step
    /// waits or stops the flow, or the steps run out ([`Next::Go`]); the
    /// cursor is left at the first step not run. The steps are read where
    /// the flow is parked, one at a time, and its cursor moves past each
    /// before it runs.
    fn advance(&mut self, i: usize, now: SimTime) -> Next {
        loop {
            let flow = &mut self.flows[i];
            let Some(mut step) = flow.steps.get(flow.next).copied() else {
                return Next::Go;
            };
            flow.next += 1;
            if let Step::Fixed(total) = &mut step {
                // Coalesce a run of consecutive fixed delays into one
                // scheduled event. Pure latencies have no observable
                // effect in between (no resource state, no counters, no
                // rng), so summing them is exact: the flow resumes at the
                // same instant, it just skips the intermediate no-op
                // wakeups.
                while let Some(Step::Fixed(d)) = flow.steps.get(flow.next) {
                    *total += *d;
                    flow.next += 1;
                }
            }
            match self.exec(step, i, now) {
                Next::Go => {}
                stop_or_wait => return stop_or_wait,
            }
        }
    }

    /// Runs one step of the flow in slot `i` at `now`. Data steps write
    /// the flow's data in its slot.
    fn exec(&mut self, step: Step, i: usize, now: SimTime) -> Next {
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
            Step::Mark(stage) => {
                let id = self.flows[i].id;
                self.trace.mark(id, stage, now);
                if self.oracle.enabled() {
                    self.oracle.on_mark(id, stage, now);
                    self.audit_rings();
                }
            }
            Step::NetArrival { vm, backend } => {
                if let Err(cause) = self.iohost_arrival(vm, backend, now) {
                    return Next::Lost(cause);
                }
            }
            Step::BlkArrival { vm, backend } => {
                if self.iohost_arrival(vm, backend, now).is_err() {
                    return Next::Stop;
                }
            }
            Step::DeliverRx => {
                let Some(Payload::Rx(frame)) = self.flows[i].payload.take() else {
                    unreachable!("a delivering flow carries its frame");
                };
                self.deliver_rx(frame);
            }
            Step::SendTx { vm, len } => {
                let payload = self.resp_payload(len);
                if self.rings(vm).net_send(&payload).is_err() {
                    // More responses in flight than the tx ring holds:
                    // the guest sheds this one.
                    return Next::Drop(DropCause::ShedQueue);
                }
            }
            Step::FetchTx { vm, dir } => self.flows[i].data = self.fetch_tx(vm, dir),
            Step::InterposeTx => {
                let payload = std::mem::take(&mut self.flows[i].data);
                self.flows[i].data = self.interpose_transform(Direction::Outbound, payload);
            }
            Step::ReleaseBackend { vm, backend } => self.release_backend(vm, backend),
            Step::BlkExecute => {
                let Some(Payload::Blk(x)) = self.flows[i].payload.take() else {
                    unreachable!("an executing flow carries its attempt");
                };
                self.flows[i].data = self.blk_execute(x);
            }
            Step::RetxAccept { vm, blk, wire_id } => {
                if self.blk_response(vm, blk, wire_id, now) == ResponseAction::Stale {
                    return Next::Stop;
                }
            }
            Step::StaleDuplicate { vm, blk, wire_id } => {
                let r = self.blk_response(vm, blk, wire_id, now);
                debug_assert_eq!(r, ResponseAction::Stale);
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

    /// Hands `frame` to its VM's rx ring, and the guest receives it into
    /// the testbed's reused buffer and reposts the ring buffer. The VMhost
    /// transport decodes a vRIO frame first, and the oracle checks what
    /// the guest read against the payload the worker sent.
    fn deliver_rx(&mut self, frame: RxFrame) {
        let mut read = std::mem::take(&mut self.rx_read);
        let vm = self.rings(frame.vm);
        match frame.vrio_hdr {
            Some(hdr) => {
                let msg =
                    VrioMsg::decode_parts(&hdr, frame.payload.clone()).expect("valid vRIO message");
                assert_eq!(msg.hdr.kind, VrioMsgKind::NetRx);
                vm.net_deliver_rx(&msg.payload).expect("rx posted");
            }
            None => vm.net_deliver_rx(&frame.payload).expect("rx posted"),
        }
        assert!(vm.net_recv_into(&mut read).expect("recv"), "delivered");
        vm.net_refill_rx().expect("refill");
        if frame.vrio_hdr.is_some() {
            self.oracle
                .check_parts("net_rr encap->decap", &[&frame.payload], &read);
        }
        self.rx_read = read;
    }

    /// The back end fetches VM `vm`'s transmitted frame from the tx ring
    /// and completes it, interposing in `dir` when given (a drop verdict
    /// yields an empty payload).
    fn fetch_tx(&mut self, vm: usize, dir: Option<Direction>) -> Bytes {
        let rings = self.rings(vm);
        let (head, _hdr, payload) = rings
            .net_fetch_tx()
            .expect("fetch")
            .expect("guest transmitted");
        rings.net_complete_tx(head).expect("complete");
        rings.net_reap_tx().expect("reap");
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
    use vrio_net::{FaultConfig, GeConfig};

    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::oracle::OracleConfig;
    use crate::proto::DeviceId;
    use crate::testbed::{blk_request, net_request_response, TestbedConfig};

    fn rack(vms: usize) -> (Testbed, Engine<Testbed>) {
        let mut config = TestbedConfig::simple(IoModel::Vrio, vms);
        config.oracle = OracleConfig::on();
        (Testbed::new(config), Engine::new())
    }

    /// Runs one lifecycle mark and returns the oracle checks it made. The
    /// mark belongs to no request (id 0), so every check is a queue
    /// audit; it runs as the one step of a flow parked for it.
    fn mark(tb: &mut Testbed) -> u64 {
        let before = tb.oracle.checks();
        let i = tb.flows.insert(Parked {
            steps: vec![Step::Mark(Stage::Wire)],
            next: 0,
            id: 0,
            data: Bytes::new(),
            payload: None,
            end: FlowEnd::BlkDone(0),
        });
        assert!(matches!(tb.advance(i, SimTime::ZERO), Next::Go));
        tb.flows.remove(i);
        tb.oracle.checks() - before
    }

    /// Issues one RR and one block read on VM `vm`.
    fn traffic(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: usize) {
        let req = Bytes::from_static(b"ping");
        net_request_response(tb, eng, vm, req, 64, SimDuration::ZERO, 0);
        let read = BlockRequest::read(RequestId(1), 0, 4096);
        blk_request(tb, eng, vm, read, 0);
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

        // A ring method moves its own queue's epoch, so the next mark
        // re-audits that one queue of that VM and nothing else.
        mark(&mut seven);
        seven.rings(3).net_refill_rx().unwrap();
        assert_eq!(mark(&mut seven), 1);
        seven.oracle.finish();
        seven.oracle.assert_clean("7-VM audit locality");
    }

    /// Issues request `k` of the lossy rack: an RR and a block request
    /// on VM `k % 4`, alternating writes and reads.
    fn lossy_traffic(tb: &mut Testbed, eng: &mut Engine<Testbed>, k: u64) {
        let vm = (k % 4) as usize;
        let req = Bytes::from_static(b"lossy");
        net_request_response(tb, eng, vm, req, 64, SimDuration::micros(4), k);
        let (id, sector) = (RequestId(k + 1), 8 * (k % 32));
        let blk = if k.is_multiple_of(2) {
            BlockRequest::write(id, sector, Bytes::from(vec![k as u8; 4096]))
        } else {
            BlockRequest::read(id, sector, 4096)
        };
        blk_request(tb, eng, vm, blk, k);
    }

    /// The lossy 4-VM rack: bursty loss, duplicates, and a block
    /// retransmission budget small enough to give up.
    fn lossy_rack() -> TestbedConfig {
        let mut config = TestbedConfig::simple(IoModel::Vrio, 4);
        config.faults = FaultConfig {
            ge: Some(GeConfig {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.6,
            }),
            delay_spike_prob: 0.0,
            delay_spike: SimDuration::ZERO,
            duplicate_prob: 0.2,
        };
        config.retx.initial_timeout = SimDuration::micros(200);
        config.retx.max_attempts = 2;
        config
    }

    /// Runs 400 requests of `lossy_traffic` on a testbed of `config` to
    /// completion.
    fn drain_lossy(config: TestbedConfig) -> Testbed {
        let mut tb = Testbed::new(config);
        let mut eng = Engine::new();
        for k in 0..400 {
            let at = SimTime::ZERO + SimDuration::micros(20) * k;
            eng.schedule_at(at, lossy_traffic, k);
        }
        eng.run(&mut tb);
        tb
    }

    #[test]
    fn no_slot_outlives_its_flow() {
        let mut config = lossy_rack();
        config.trace = vrio_trace::TraceConfig::memory();
        let tb = drain_lossy(config);

        // The run took every path that ends a flow early or late.
        assert!(tb.slo.total_dropped() > 0, "no RR was dropped");
        let retx = tb.reliability_report();
        assert!(retx.retransmissions > 0, "no block request retransmitted");
        assert!(retx.device_errors > 0, "no block request gave up");
        assert!(retx.stale_responses > 0, "no response was stale");
        assert_eq!(retx.block_completed + retx.device_errors, 400);
        // Drained: nothing parked (so no payload left waiting for a
        // step), no block request left in the table, and every span
        // closed, those of requests lost at the arrival gate included.
        assert_eq!(tb.flows.occupied(), 0, "parked flows outlived the run");
        assert_eq!(tb.blks.occupied(), 0, "block requests outlived the run");
        assert_eq!(tb.trace.open_spans(), 0, "spans outlived the run");
        assert!(
            tb.retx_timers.iter().all(Vec::is_empty),
            "armed retransmission timers outlived the run"
        );
    }

    #[test]
    fn marks_of_overtaken_attempts_leave_the_oracle_clean() {
        // Delay spikes longer than the retransmission timeout: a block
        // attempt slowed by one is overtaken by its retransmission, and
        // its program can go on marking the request after it completed.
        // Nothing is lost or duplicated, so every stale response comes
        // from such an attempt.
        let mut config = TestbedConfig::simple(IoModel::Vrio, 4);
        config.faults = FaultConfig {
            ge: None,
            delay_spike_prob: 0.1,
            delay_spike: SimDuration::millis(2),
            duplicate_prob: 0.0,
        };
        config.retx.initial_timeout = SimDuration::micros(200);
        config.trace = vrio_trace::TraceConfig::memory();
        config.oracle = OracleConfig::on();
        let mut tb = drain_lossy(config);
        tb.oracle.finish();
        let retx = tb.reliability_report();
        assert!(retx.stale_responses > 0, "no attempt was overtaken");
        // Every flow closed; the marks that came after stayed out of the
        // ledger.
        let report = tb.oracle.report();
        assert_eq!(report.flows_begun, 800);
        assert_eq!(report.flows_completed + report.flows_dropped, 800);
        tb.oracle.assert_clean("traced rack with delay spikes");
    }

    /// Closed-loop block threads on every VM of a testbed, reissuing on
    /// each completion until a deadline.
    struct ClosedBlk {
        tb: Testbed,
        until: SimTime,
        next_id: u64,
        samples: usize,
    }

    impl HasTestbed for ClosedBlk {
        fn tb(&mut self) -> &mut Testbed {
            &mut self.tb
        }

        fn on_blk(&mut self, eng: &mut Engine<Self>, thread: u64, _: crate::BlkOutcome) {
            issue_blk(self, eng, thread);
        }
    }

    /// Thread `thread` (four per VM, the last two writing) issues its
    /// next 4 KB request.
    fn issue_blk(w: &mut ClosedBlk, eng: &mut Engine<ClosedBlk>, thread: u64) {
        if eng.now() >= w.until {
            return;
        }
        w.next_id += 1;
        let (id, sector) = (RequestId(w.next_id), 8 * (w.next_id % 64));
        let req = if thread % 4 >= 2 {
            BlockRequest::write(id, sector, Bytes::from_static(&[0xA5; 4096]))
        } else {
            BlockRequest::read(id, sector, 4096)
        };
        blk_request(w, eng, (thread / 4) as usize, req, thread);
    }

    fn sample(w: &mut ClosedBlk, eng: &mut Engine<ClosedBlk>, _: u64) {
        w.tb.sample_telemetry(eng.now());
        w.samples += 1;
    }

    #[test]
    fn a_lossless_block_run_queues_one_timer_per_vm() {
        let vms = 7;
        let mut config = TestbedConfig::simple(IoModel::Vrio, vms).with_backend_cores(2);
        config.telemetry = vrio_trace::TelemetryConfig::sampling(SimDuration::micros(100));
        let initial = config.retx.initial_timeout;
        let until = SimTime::ZERO + initial * 3u64;
        let mut w = ClosedBlk {
            tb: Testbed::new(config),
            until,
            next_id: 0,
            samples: 0,
        };
        let mut eng = Engine::new();
        let grid = SimDuration::micros(100);
        eng.schedule_series(SimTime::ZERO, grid, until, sample, 0);
        let occurrences = eng.pending();
        for thread in 0..4 * vms as u64 {
            issue_blk(&mut w, &mut eng, thread);
        }
        // Every pending event is a parked flow's resume, a queued timer or
        // an occurrence of the series still to come. The first attempts' timers run on
        // the initial timeout and the later ones on the far shorter RTO,
        // so until the first ones have fired a VM may have two queued;
        // after that, one.
        while eng.step(&mut w) {
            let tb = &w.tb;
            let per_vm = if eng.now() <= SimTime::ZERO + initial {
                2
            } else {
                1
            };
            let queued = eng.pending() - tb.flows.occupied() - (occurrences - w.samples);
            assert!(
                queued <= per_vm * vms,
                "{} pending at {}: {} flows and {queued} timers",
                eng.pending(),
                eng.now(),
                tb.flows.occupied()
            );
        }
        assert!(w.tb.reliability_report().block_completed > 1000);
        assert_eq!(w.tb.reliability_report().retransmissions, 0);
    }

    /// Issues one RR on VM `vm`.
    fn rr_on(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: u64) {
        let req = Bytes::from_static(b"surge");
        net_request_response(tb, eng, vm as usize, req, 64, SimDuration::micros(4), vm);
    }

    #[test]
    fn a_full_tx_ring_sheds_the_response() {
        let mut config = TestbedConfig::simple(IoModel::Vrio, 4);
        config.oracle = OracleConfig::on();
        config.admission = AdmissionConfig {
            enabled: true,
            ..AdmissionConfig::default()
        };
        let mut tb = Testbed::new(config);
        let mut eng = Engine::new();
        // An RR every 1.25 µs over 4 VMs puts more responses in flight
        // on each VM than its tx ring holds.
        for k in 0..1600 {
            let at = SimTime::ZERO + SimDuration::nanos(1250) * k;
            eng.schedule_at(at, rr_on, k % 4);
        }
        eng.run(&mut tb);
        assert!(tb.slo.total_drops_of(DropCause::ShedQueue) > 0);
        assert_eq!(tb.flows.occupied(), 0, "parked flows outlived the run");
        tb.oracle.finish();
        tb.oracle.assert_clean("tx ring overflow");
        // A shed response released its outbound steering designation.
        for client in 0..4 {
            let dev = DeviceId { client, device: 0 };
            assert_eq!(
                tb.steering[0].inflight_of(dev),
                0,
                "vm{client} still steered"
            );
        }
    }

    #[test]
    fn an_open_breaker_sheds_as_breaker_drops() {
        let mut config = TestbedConfig::simple(IoModel::Vrio, 16);
        config.admission = AdmissionConfig {
            enabled: true,
            queue_cap: 1,
            hard_cap: 2,
            window: SimDuration::micros(100),
            breaker_shed_frac: 0.1,
            breaker_cooldown: SimDuration::micros(200),
            ..AdmissionConfig::default()
        };
        let mut tb = Testbed::new(config);
        let mut eng = Engine::new();
        // An arrival every 1.25 µs overloads the one worker: its queue
        // hits the hard cap, and the queue sheds trip the breaker.
        for k in 0..1600 {
            let at = SimTime::ZERO + SimDuration::nanos(1250) * k;
            eng.schedule_at(at, rr_on, k % 16);
        }
        eng.run(&mut tb);
        for cause in [DropCause::ShedQueue, DropCause::ShedBreaker] {
            assert!(tb.slo.total_drops_of(cause) > 0, "no {cause:?} drops");
        }
    }
}
