//! Block flows: local (Elvis/baseline) back ends and the vRIO remote
//! path with its retransmission protocol (paper section 4.5).

use bytes::Bytes;
use vrio_block::{BlockKind, BlockRequest};
use vrio_hv::IoModel;
use vrio_net::{reassemble_train, segment_message_into, MTU_VRIO_JUMBO};
use vrio_sim::{Engine, Reserved, SimDuration, SimTime};
use vrio_trace::{SpanId, Stage};

use super::flow::{CoreRef, CounterKind, FlowEnd, Step};
use super::{req_track, BlkOutcome, HasTestbed, Testbed};
use crate::interpose::Direction;
use crate::oracle::FlowToken;
use crate::proto::{DeviceId, VrioMsg, VrioMsgKind, VRIO_HDR_SIZE};
use crate::transport::{Attempt, ResponseAction, TimeoutAction};

/// One in-flight block request, kept in the testbed's block table until
/// no event can name it. Its flows and its retransmission timer name it
/// by table index.
#[derive(Clone)]
pub(super) struct BlkReq {
    vm: usize,
    req: BlockRequest,
    /// The request's chain head on the VM's block ring.
    head: u16,
    /// The vRIO `BlkReq` message of the latest attempt: its headers, the
    /// request id and the write payload the back end fetched from the
    /// ring, in one buffer. A local back end uses only the payload, and
    /// only a vRIO retransmission encodes the message anew.
    msg: Bytes,
    t0: SimTime,
    span: SpanId,
    flow: FlowToken,
    /// The world's name for the request ([`HasTestbed::on_blk`]).
    tag: u64,
    /// vRIO: the transport's record of the latest attempt, whose timer
    /// is armed (a request has one armed timer at a time). Retired once
    /// the request is accepted or fails, and for a local back end.
    attempt: Attempt,
    /// The events to come that name the request: its completion and, on
    /// vRIO, the end of its timer chain. The last of them frees the slot.
    /// On vRIO either can come last: the accepted attempt may still be
    /// charging the guest's CPU when a queued timer fires and finds it
    /// stale.
    holders: u8,
}

/// One of the events naming block request `blk` is done with it; the
/// last frees its slot.
fn release(tb: &mut Testbed, blk: usize) {
    let b = &mut tb.blks[blk];
    b.holders -= 1;
    if b.holders == 0 {
        tb.blks.remove(blk);
    }
}

/// An armed retransmission timer: the engine key reserved for it where
/// the timer was armed, the block request it names, and whether its
/// event is on the engine's heap.
///
/// A VM keeps its timers in one short list, one per block request in
/// flight, and queues a timer only when it can fire next among them:
/// every timer not queued has a queued timer of the same VM with a
/// smaller key. That queued timer fires first, so the engine's earliest
/// event, and with it the firing order and every continuation
/// ([`Engine::continue_at`]), is the one it would be with every timer
/// queued; when it fires, it queues the next ([`retx_timeout`]).
#[derive(Clone, Copy)]
pub(super) struct RetxTimer {
    key: Reserved,
    blk: usize,
    queued: bool,
}

/// Whether every unqueued timer of `timers` has a queued one before it.
fn timers_ordered(timers: &[RetxTimer]) -> bool {
    let first_queued = timers.iter().filter(|t| t.queued).map(|t| t.key).min();
    timers
        .iter()
        .all(|t| t.queued || first_queued.is_some_and(|q| q < t.key))
}

/// Arms block request `blk`'s retransmission timer to fire `timeout`
/// from now, under the key scheduling it now would take; it is queued
/// only if no queued timer of its VM comes before it.
fn arm<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: usize, timeout: SimDuration) {
    let key = eng.reserve_at(eng.now() + timeout);
    let tb = w.tb();
    let timers = &mut tb.retx_timers[tb.blks[blk].vm];
    let queued = !timers.iter().any(|t| t.queued && t.key < key);
    if queued {
        eng.schedule_reserved(key, retx_timeout::<W>, blk as u64);
    }
    timers.push(RetxTimer { key, blk, queued });
    debug_assert!(timers_ordered(timers));
}

/// Queues the earliest unqueued timer of `timers` if no queued timer
/// comes before it any more.
fn queue_next<W: HasTestbed>(timers: &mut [RetxTimer], eng: &mut Engine<W>) {
    let first_queued = timers.iter().filter(|t| t.queued).map(|t| t.key).min();
    let next = timers
        .iter_mut()
        .filter(|t| !t.queued)
        .min_by_key(|t| t.key);
    if let Some(t) = next {
        if first_queued.is_none_or(|q| t.key < q) {
            t.queued = true;
            eng.schedule_reserved(t.key, retx_timeout::<W>, t.blk as u64);
        }
    }
    debug_assert!(timers_ordered(timers));
}

/// Completes block request `blk` on the guest's block ring with `status`
/// and the `read` data, and hands the outcome to the world. The one
/// completion of every block request: local and remote responses and
/// retransmission device errors. The transport accepts at most one
/// response per request and gives up only on a request still
/// outstanding, so each request completes once.
fn complete<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: usize, status: u8, read: &[u8]) {
    let tb = w.tb();
    let b = &tb.blks[blk];
    let (vm, id, head, t0, span, flow, tag) = (b.vm, b.req.id, b.head, b.t0, b.span, b.flow, b.tag);
    let mut reaped = std::mem::take(&mut tb.blk_reaped);
    let rings = tb.rings(vm);
    rings.blk_complete(head, status, read).expect("complete");
    rings.blk_reap_into(&mut reaped).expect("reap");
    let own = reaped.iter().position(|c| c.id == id);
    let c = reaped.swap_remove(own.expect("own completion"));
    reaped.clear();
    tb.blk_reaped = reaped;
    let now = eng.now();
    if status == vrio_virtio::BLK_S_IOERR {
        tb.trace.instant("blk_device_error", req_track(vm), now);
    }
    tb.trace.end(span, now);
    // The oracle observes the completion exactly when the guest does.
    tb.oracle.flow_complete(flow, now);
    w.on_blk(
        eng,
        tag,
        BlkOutcome {
            latency: now - t0,
            status: c.status,
            data: c.data,
        },
    );
}

/// A block attempt's response reached the guest: completes the request
/// with the data the attempt read.
pub(super) fn respond<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: usize, read: &[u8]) {
    complete(w, eng, blk, vrio_virtio::BLK_S_OK, read);
    let tb = w.tb();
    // A timer never queued goes now: the request is accepted, so it could
    // only have found it stale.
    let timers = &mut tb.retx_timers[tb.blks[blk].vm];
    if let Some(k) = timers.iter().position(|t| t.blk == blk && !t.queued) {
        timers.swap_remove(k);
        release(tb, blk);
    }
    release(tb, blk);
}

/// Sends the latest vRIO attempt of block request `blk`, its first or a
/// retransmission, and arms its retransmission timer.
pub(super) fn vrio_send<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: usize) {
    vrio_attempt(w, eng, blk);
    let timeout = w.tb().blks[blk].attempt.timeout();
    arm(w, eng, blk, timeout);
}

/// What a back end executes for one block attempt, kept in the
/// testbed's attempt table until it runs or its flow stops. Each attempt
/// has its own, because two attempts of one request can be in flight at
/// once, and an attempt can still reach its back end after its request
/// completed.
#[derive(Clone)]
pub(super) struct BlkExec {
    vm: usize,
    req: BlockRequest,
    /// A vRIO attempt's message as sent; for a local back end, the write
    /// payload it fetched from the guest's block ring (empty for reads).
    data: Bytes,
    /// The vRIO attempt's wire id (`None` for a local back end).
    wire_id: Option<u64>,
}

/// Bytes before the payload in a vRIO `BlkReq` message: the header and
/// the guest's request id.
const BLK_MSG_PREFIX: usize = VRIO_HDR_SIZE + 8;

/// The vRIO device a VM's block requests name.
fn blk_device(vm: usize) -> DeviceId {
    DeviceId {
        client: vm as u32,
        device: 1,
    }
}

/// Bytes the request moves: the payload of writes, the data returned by
/// reads. Interposition and device service are charged on these.
fn moved_bytes(req: &BlockRequest) -> usize {
    match req.kind {
        BlockKind::Write => req.data.len(),
        BlockKind::Read => req.len as usize,
        BlockKind::Flush => 0,
    }
}

impl Testbed {
    /// Executes a block attempt against the VM's backing store (real
    /// bytes). A vRIO worker first receives and decodes the message, and
    /// a write stores the payload it decoded; a local back end stores what
    /// it fetched from the ring. Interposition transforms the data that
    /// moves: write payloads before they reach the store, read data
    /// before it returns. Returns the data read (empty but for a read).
    pub(super) fn blk_execute(&mut self, x: BlkExec) -> Bytes {
        let BlkExec {
            vm,
            req,
            data,
            wire_id,
        } = x;
        let payload = match wire_id {
            None => data,
            Some(wire_id) => self.blk_receive(&req, data, wire_id),
        };
        match req.kind {
            BlockKind::Write => {
                let data = self.interpose_transform(Direction::Outbound, payload);
                self.disk_stores[vm]
                    .write_bytes(req.byte_offset(), &data)
                    .expect("in range");
            }
            BlockKind::Read => {
                let data = self.disk_stores[vm]
                    .read(req.byte_offset(), u64::from(req.len))
                    .expect("in range");
                if !data.is_empty() {
                    return self.interpose_transform(Direction::Inbound, data);
                }
            }
            BlockKind::Flush => {}
        }
        Bytes::new()
    }

    /// A vRIO worker receives `enc`, attempt `wire_id` of `req`, and
    /// decodes it: returns the write payload the message carries.
    fn blk_receive(&mut self, req: &BlockRequest, enc: Bytes, wire_id: u64) -> Bytes {
        // Messages larger than the channel MTU really segment with the
        // fake-TCP TSO path and reassemble zero-copy at the worker.
        if enc.len() > MTU_VRIO_JUMBO {
            let msg_id = self.fresh_msg_id();
            // Batched train: the whole segment train is emitted into a
            // recycled scratch vector and reassembled through the SKB
            // pool in this one event — steady state allocates nothing.
            let mut segs = std::mem::take(&mut self.tso_scratch);
            segment_message_into(enc.clone(), MTU_VRIO_JUMBO, msg_id, &mut segs)
                .expect("block message within TSO bound");
            let skb =
                reassemble_train(&mut segs, &mut self.skb_pool).expect("consistent fragments");
            self.tso_scratch = segs;
            assert_eq!(
                skb.bytes_copied(),
                0,
                "TSO segment->reassemble path must not copy payload bytes"
            );
            self.oracle
                .check_skb("blk tso segment->reassemble", &enc, &skb);
            self.skb_pool
                .release(skb)
                .expect("reassembled skb returns to the pool exactly once");
        }
        // Decode the request the worker actually received.
        let msg = VrioMsg::decode(enc).expect("valid blk message");
        assert_eq!(msg.hdr.kind, VrioMsgKind::BlkReq);
        assert_eq!(msg.hdr.request_id, wire_id);
        // What the worker decoded is what the front end held.
        let id = req.id.0.to_le_bytes();
        self.oracle
            .check_parts("blk encap->decap", &[&id, &req.data], &msg.payload);
        msg.payload.slice(id.len()..)
    }

    /// VM `vm`'s transport receives the response to attempt `wire_id` of
    /// the block request in slot `blk`. It is stale unless the slot is
    /// live, holds a request of `vm`, and that request's record holds
    /// `wire_id` outstanding. Wire ids rise per VM, so (`vm`, `wire_id`)
    /// names one attempt for the whole run, even once a superseded
    /// attempt's slot has been freed and reused.
    pub(super) fn blk_response(
        &mut self,
        vm: usize,
        blk: usize,
        wire_id: u64,
        now: SimTime,
    ) -> ResponseAction {
        let mut retired = Attempt::default();
        let record = match self.blks.get_mut(blk) {
            Some(b) if b.vm == vm => &mut b.attempt,
            _ => &mut retired,
        };
        self.retx[vm].on_response(record, wire_id, now)
    }
}

// ---------------------------------------------------------------------------
// Flow: block request (Filebench, §5 "Making a Local Device Remote")
// ---------------------------------------------------------------------------

/// Issues one block request from VM `vm` against its (local or remote)
/// block device. For vRIO the full retransmission protocol of §4.5 runs:
/// unique wire ids, 10 ms doubling timeouts, stale-response filtering, and
/// a device error after the attempt budget is exhausted.
///
/// The world receives the outcome through [`HasTestbed::on_blk`] with
/// `tag`: exactly once, with `BLK_S_IOERR` if retransmission gives up.
///
/// The optimum model has no block path ("there is no such thing as an
/// SRIOV ramdisk" — §5); calling this under `IoModel::Optimum` panics.
pub fn blk_request<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    req: BlockRequest,
    tag: u64,
) {
    let tb = w.tb();
    let model = tb.config.model;
    assert!(
        model != IoModel::Optimum,
        "the optimum (SRIOV) model has no paravirtual block path (paper section 5)"
    );
    let t0 = eng.now();
    let costs = tb.config.costs.clone();
    let span = tb
        .trace
        .begin("blk", req_track(vm), Stage::GuestEnqueue, t0);
    let flow = tb.oracle.flow_begin("blk", t0);

    // The front-end publishes the request on the real virtio ring; the
    // local back-end half (sidecore/vhost/transport) fetches it at once,
    // straight into the vRIO message after its header and request id.
    let id = req.id.0.to_le_bytes();
    let mut msg = Vec::with_capacity(BLK_MSG_PREFIX + req.data.len());
    msg.extend_from_slice(&[0; VRIO_HDR_SIZE]);
    msg.extend_from_slice(&id);
    let rings = tb.rings(vm);
    rings.blk_submit(&req).expect("blk ring slot");
    let (head, _hdr) = rings
        .blk_fetch_into(&mut msg)
        .expect("fetch")
        .expect("just submitted");

    // Guest-side submission CPU.
    let mut submit_work = tb.jitter(costs.guest_block_layer) / 2;
    if model == IoModel::Baseline {
        tb.count(CounterKind::Exit);
        submit_work += costs.exit;
    }
    let mut prologue = tb.program(span, flow);
    prologue.push(Step::ChargeVm(vm, submit_work));

    let mut b = BlkReq {
        vm,
        req,
        head,
        msg: Bytes::new(),
        t0,
        span,
        flow,
        tag,
        attempt: Attempt::default(),
        holders: 1,
    };
    let end = match model {
        IoModel::Elvis | IoModel::Baseline => {
            b.msg = Bytes::from(msg);
            FlowEnd::BlkLocal(tb.blks.insert(b))
        }
        IoModel::Vrio | IoModel::VrioNoPoll => {
            b.attempt = tb.retx[vm].send(eng.now());
            let (kind, wire_id) = (VrioMsgKind::BlkReq, b.attempt.wire_id());
            VrioMsg::encode_in_place(kind, blk_device(vm), wire_id, &mut msg);
            b.msg = Bytes::from(msg);
            b.holders = 2;
            FlowEnd::BlkVrio(tb.blks.insert(b))
        }
        IoModel::Optimum => unreachable!("checked above"),
    };
    prologue.run(w, eng, end);
}

/// Elvis / baseline: the block back-end runs on the local sidecore or
/// vhost core and the device is local.
pub(super) fn local_backend<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: usize) {
    let tb = w.tb();
    let b = &tb.blks[blk];
    let (vm, span, flow) = (b.vm, b.span, b.flow);
    let (req, fetched) = (b.req.clone(), b.msg.slice(BLK_MSG_PREFIX..));
    let model = tb.config.model;
    let costs = tb.config.costs.clone();
    let backend = tb.pick_backend_at(vm, 0); // local models: iohost unused
    let mut s = tb.program(span, flow);
    s.mark(Stage::Backend);

    let moved = moved_bytes(&req);
    let icost = tb.interpose_cost(moved);
    match model {
        IoModel::Elvis => {
            s.push(Step::Fixed(costs.poll_pickup));
            let w_be = tb.jitter(costs.elvis_backend_blk) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
        }
        IoModel::Baseline => {
            // The baseline block path is far heavier than its net path:
            // QEMU/vhost-blk AIO submission, two physical interrupts
            // (submission kick wakeup + device completion), and full data
            // copies on the vhost core.
            s.push(Step::Count(CounterKind::HostIntr));
            s.push(Step::Count(CounterKind::HostIntr));
            let copy = costs.copy_cost(moved.max(4096));
            let w_be = tb.jitter(
                costs.vhost_wakeup + costs.vhost_backend * 5u64 + costs.host_interrupt * 2u64,
            ) + copy
                + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
        }
        _ => unreachable!(),
    }

    // Device service (FIFO), then real data movement on the ramdisk.
    let svc = tb.config.block_profile.service_time(req.kind, moved as u64);
    s.mark(Stage::Device);
    s.push(Step::Charge(CoreRef::Disk(vm), svc));
    s.push(tb.blk_execute_step(BlkExec {
        vm,
        req,
        data: fetched,
        wire_id: None,
    }));

    // Completion pass back to the guest.
    s.mark(Stage::Interrupt);
    match model {
        IoModel::Elvis => {
            let w_done = tb.jitter(costs.elvis_backend_blk) / 2;
            s.push(Step::Charge(CoreRef::Backend(backend), w_done));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
        }
        IoModel::Baseline => {
            let w_done = tb.jitter(costs.vhost_backend) / 2;
            s.push(Step::Charge(CoreRef::Backend(backend), w_done));
            s.push(Step::Count(CounterKind::Injection));
            s.push(Step::Charge(
                CoreRef::Backend(backend),
                costs.interrupt_injection,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::Count(CounterKind::Exit)); // EOI
        }
        _ => unreachable!(),
    }
    let w_guest = match model {
        IoModel::Baseline => costs.guest_interrupt + costs.exit + costs.guest_block_layer / 2,
        _ => costs.guest_interrupt + costs.guest_block_layer / 2,
    };
    s.push(Step::ChargeVm(vm, tb.jitter(w_guest)));

    s.run(w, eng, FlowEnd::BlkDone(blk));
}

/// One vRIO block attempt: encapsulate, traverse the channel, execute at
/// the IOhost, and return the response — subject to loss and stale
/// filtering.
fn vrio_attempt<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: usize) {
    let tb = w.tb();
    let b = &tb.blks[blk];
    let (vm, t0, span, flow) = (b.vm, b.t0, b.span, b.flow);
    let (wire_id, req) = (b.attempt.wire_id(), b.req.clone());
    // Transport: the encapsulated message (real bytes: header, request id
    // and payload in one buffer), segmented if needed.
    let encoded = b.msg.clone();
    let model = tb.config.model;
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let mut s = tb.program(span, flow);
    s.mark(Stage::Encap);

    let frags = vrio_net::fragment_count(encoded.len().max(1), MTU_VRIO_JUMBO) as u64;
    let w_tx = tb.jitter(costs.vrio_encap) + costs.segment_per_frag * frags;
    s.push(Step::ChargeVm(vm, w_tx));
    s.mark(Stage::Wire);
    s.push(Step::Fixed(costs.nic_dma));
    s.push(Step::Charge(
        CoreRef::HostLink(host),
        tb.wire(encoded.len() + 54),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.push(Step::Fixed(tb.fault_delay(t0)));
    s.push(Step::Fixed(costs.nic_dma));

    // Arrival at the IOhost. The route is re-resolved per *attempt*, so
    // a retransmission after a primary crash deterministically lands on
    // the next live backup once the health ladder has observed the
    // outage. A crashed IOhost blackholes the frame and an admission
    // shed is handled exactly like a lost frame: the retransmission
    // machinery re-offers the request later, by which point the outage,
    // overload or breaker window may have passed (or the device errors).
    let iohost = tb.blk_route(vm, eng.now());
    let backend = tb.pick_backend_at(vm, iohost);
    s.push(Step::RingPush(backend));
    s.push(Step::BlkArrival { vm, backend });
    s.mark(Stage::WorkerPickup);
    if model == IoModel::VrioNoPoll {
        s.push(Step::Count(CounterKind::IohostIntr));
        s.push(Step::Charge(
            CoreRef::Backend(backend),
            costs.host_interrupt,
        ));
    } else {
        s.push(Step::Pickup(backend));
    }
    s.push(Step::RingPop(backend));
    s.mark(Stage::Backend);

    // Worker: reassemble, decode, interpose, execute on the remote store.
    let moved = moved_bytes(&req);
    let icost = tb.interpose_cost(moved);
    let mut w_worker = tb.jitter(costs.vrio_worker_blk) + costs.reassemble_per_frag * frags + icost;
    // Zero-copy write discipline: only unaligned edges are copied; reads
    // must be fully copied out of the block system (§4.4).
    match req.kind {
        BlockKind::Write => {
            let edges = vrio_block::unaligned_edge_bytes(req.byte_offset(), req.data.len());
            w_worker += costs.copy_cost(edges);
        }
        BlockKind::Read => {
            w_worker += costs.copy_cost(req.len as usize);
        }
        BlockKind::Flush => {}
    }
    s.push(Step::Charge(CoreRef::Backend(backend), w_worker));

    let svc = tb.config.block_profile.service_time(req.kind, moved as u64);
    s.mark(Stage::Device);
    s.push(Step::Charge(CoreRef::Disk(vm), svc));
    s.push(tb.blk_execute_step(BlkExec {
        vm,
        req,
        data: encoded,
        wire_id: Some(wire_id),
    }));
    s.push(Step::ReleaseBackend { vm, backend });

    // Response path: worker -> wire -> transport -> guest.
    //
    // Known defect, kept so outputs stay byte-identical: the response is
    // sized here, while the program is built and before `BlkExecute` has
    // read anything, so every response — a 4 KB read's included — is
    // charged as a bare 17-byte message (95 wire bytes, one fragment).
    // EXPERIMENTS.md "Known deviations" records it.
    let resp_len = 17;
    let resp_frags = vrio_net::fragment_count(resp_len, MTU_VRIO_JUMBO) as u64;
    // The response pass is short: the request's reassembled buffer is
    // reused and the NIC's TSO does the segmentation (section 4.4).
    s.mark(Stage::Backend);
    let w_resp = tb.jitter(costs.vrio_worker_blk) / 4 + costs.segment_per_frag * resp_frags;
    s.push(Step::Charge(CoreRef::Backend(backend), w_resp));
    if model == IoModel::VrioNoPoll {
        s.push(Step::Count(CounterKind::IohostIntr));
        s.push(Step::ChargeAsync(
            CoreRef::Backend(backend),
            costs.host_interrupt,
        ));
    }
    s.mark(Stage::Wire);
    s.push(Step::Charge(
        CoreRef::IohostLink(iohost),
        tb.wire(resp_len + 54 + 24),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.push(Step::Fixed(tb.fault_delay(t0)));
    s.push(Step::Fixed(costs.nic_dma));

    // Transport receive: stale filtering, then guest completion.
    s.push(Step::RetxAccept { vm, blk, wire_id });
    if tb.fault_duplicate(t0) {
        s.push(Step::StaleDuplicate { vm, blk, wire_id });
    }
    s.push(Step::Fixed(costs.eli_delivery));
    s.push(Step::Count(CounterKind::GuestIntr));
    s.mark(Stage::Interrupt);
    let w_guest = tb.jitter(
        costs.guest_interrupt
            + costs.vrio_decap
            + costs.reassemble_per_frag * resp_frags
            + costs.guest_block_layer / 2,
    );
    s.push(Step::ChargeVm(vm, w_guest));

    s.run(w, eng, FlowEnd::BlkDone(blk));
}

/// The retransmission timer of block request `blk`'s latest vRIO attempt:
/// retransmits, gives up with a device error, or — the request having
/// been accepted — finds its record retired, which ends the timer chain.
/// Late responses of earlier attempts can name the slot after it is freed;
/// [`Testbed::blk_response`] finds them stale. The timer leaves its VM's
/// list first,
/// and the VM's next timer is queued if it now comes first.
pub(super) fn retx_timeout<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, blk: u64) {
    let i = blk as usize;
    let now = eng.now();
    let tb = w.tb();
    debug_assert!(
        tb.blks.get_mut(i).is_some(),
        "retransmission timer of a freed block slot"
    );
    let vm = tb.blks[i].vm;
    let timers = &mut tb.retx_timers[vm];
    let fired = timers.iter().position(|t| t.blk == i);
    let fired = timers.swap_remove(fired.expect("a firing timer is armed"));
    debug_assert!(fired.queued && fired.key.at() == now);
    queue_next(timers, eng);
    match tb.retx[vm].on_timeout(&mut tb.blks[i].attempt, now) {
        TimeoutAction::Stale => release(tb, i),
        TimeoutAction::Retransmit => {
            tb.trace.instant("retx", req_track(vm), now);
            let b = &mut tb.blks[i];
            let mut msg = VrioMsg::decode(b.msg.clone()).expect("the request's own message");
            msg.hdr.request_id = b.attempt.wire_id();
            b.msg = msg.encode();
            vrio_send(w, eng, i);
        }
        TimeoutAction::DeviceError => {
            // The completion and the end of the timer chain at once.
            complete(w, eng, i, vrio_virtio::BLK_S_IOERR, &[]);
            w.tb().blks.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use vrio_block::RequestId;

    use super::*;
    use crate::oracle::OracleConfig;
    use crate::testbed::TestbedConfig;
    use crate::transport::RetxConfig;

    #[test]
    fn a_write_stores_the_bytes_that_crossed_the_wire() {
        let mut config = TestbedConfig::simple(IoModel::Vrio, 1);
        config.oracle = OracleConfig::on();
        let mut tb = Testbed::new(config);
        let held = Bytes::from(vec![0xAA; 4096]);
        let req = BlockRequest::write(RequestId(7), 8, held.clone());
        // The channel carries other bytes than the front end held.
        let sent = [0x55; 4096];
        let mut msg = vec![0; VRIO_HDR_SIZE];
        msg.extend_from_slice(&7u64.to_le_bytes());
        msg.extend_from_slice(&sent);
        VrioMsg::encode_in_place(VrioMsgKind::BlkReq, blk_device(0), 3, &mut msg);
        let encoded = Bytes::from(msg);
        let x = BlkExec {
            vm: 0,
            req,
            data: encoded.clone(),
            wire_id: Some(3),
        };
        tb.blk_execute(x);
        let stored = tb.disk_stores[0].read(8 * 512, 4096).unwrap();
        assert_eq!(&stored[..], &sent[..], "the store holds the wire bytes");
        // By reference: the stored page is the wire message's payload.
        assert_eq!(stored.as_ptr(), encoded[BLK_MSG_PREFIX..].as_ptr());
        let violations = tb.oracle.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].message.contains("blk encap->decap"));
    }

    /// Sets the channel's uniform loss to `p` percent.
    fn set_loss(tb: &mut Testbed, _: &mut Engine<Testbed>, p: u64) {
        tb.config.channel_loss = p as f64 / 100.0;
    }

    /// Issues block request `id`: a write of sector `id`.
    fn issue(tb: &mut Testbed, eng: &mut Engine<Testbed>, id: u64) {
        let req = BlockRequest::write(RequestId(id), id, Bytes::from(vec![id as u8; 512]));
        blk_request(tb, eng, 0, req, id);
    }

    /// Issues block request `vm + 1` on VM `vm`: a write of sector 8.
    fn issue_on(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: u64) {
        let req = BlockRequest::write(RequestId(vm + 1), 8, Bytes::from(vec![vm as u8; 512]));
        blk_request(tb, eng, vm as usize, req, vm);
    }

    #[test]
    fn a_superseded_response_never_completes_another_vms_request_in_its_slot() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 2));
        let mut eng = Engine::new();
        let us = |n| SimTime::ZERO + SimDuration::micros(n);
        // VM 0's first attempt, wire id 1, is lost; its retransmission,
        // wire id 2, completes the request, and the drained run frees
        // the request's slot.
        eng.schedule_at(us(0), set_loss, 100);
        eng.schedule_at(us(0), issue_on, 0);
        eng.schedule_at(us(100), set_loss, 0);
        eng.run(&mut tb);
        assert_eq!(tb.retx[0].stats.retransmissions, 1);
        assert_eq!(tb.retx[0].stats.completed, 1);
        assert_eq!(tb.blks.occupied(), 0);

        // VM 1's first request takes the freed slot under its own first
        // wire id, 1.
        issue_on(&mut tb, &mut eng, 1);
        let blk = 0;
        assert_eq!(tb.blks[blk].vm, 1);
        assert_eq!(tb.blks[blk].attempt.wire_id(), 1);

        // The response to VM 0's superseded attempt straggles in, naming
        // the slot and wire id 1: it is stale, and VM 1's request stays
        // outstanding.
        let now = eng.now();
        assert_eq!(tb.blk_response(0, blk, 1, now), ResponseAction::Stale);
        assert_eq!(tb.retx[0].stats.stale_responses, 1);
        assert!(tb.blks[blk].attempt.is_outstanding());

        // VM 1's request completes once, under its own response.
        eng.run(&mut tb);
        assert_eq!(tb.retx[1].stats.completed, 1);
        assert_eq!(tb.retx[1].stats.stale_responses, 0);
        assert_eq!(tb.reliability_report().block_completed, 2);
        assert_eq!(tb.blks.occupied(), 0);
    }

    #[test]
    fn a_timer_armed_after_the_rto_shrinks_fires_at_its_own_deadline() {
        let mut config = TestbedConfig::simple(IoModel::Vrio, 1);
        config.retx = RetxConfig {
            initial_timeout: SimDuration::millis(2),
            min_rto: SimDuration::micros(10),
            ..RetxConfig::default()
        };
        let mut tb = Testbed::new(config);
        let mut eng = Engine::new();
        let us = |n| SimTime::ZERO + SimDuration::micros(n);
        // Two requests before any RTT sample arm 2 ms timers; their
        // responses sample the RTT, so the RTO falls far below 2 ms.
        eng.schedule_at(us(0), issue, 1);
        eng.schedule_at(us(0), issue, 2);
        // The third request is lost, under the shrunken RTO.
        eng.schedule_at(us(100), set_loss, 100);
        eng.schedule_at(us(100), issue, 3);
        eng.run_until(&mut tb, us(100));
        assert_eq!(tb.reliability_report().block_completed, 2);
        assert!(tb.retx[0].current_rto() < SimDuration::micros(200));
        while tb.retx_timers[0].len() < 2 {
            eng.step(&mut tb);
        }

        // Request 1's timer is still queued (it will find its request
        // stale at 2 ms); request 2's was never queued and went with its
        // completion. Request 3's timer comes before request 1's, so it
        // was queued as it was armed.
        let timers = &tb.retx_timers[0];
        assert_eq!(timers.len(), 2);
        assert!(timers.iter().all(|t| t.queued));
        let own = timers.iter().map(|t| t.key).min().unwrap();
        assert!(own.at() < us(2000));
        let blk = timers.iter().find(|t| t.key == own).unwrap().blk;
        assert_eq!(tb.blks[blk].req.id, RequestId(3));

        // It retransmits at its own deadline, not at request 1's.
        eng.run_until(&mut tb, own.at() - SimDuration::nanos(1));
        assert_eq!(tb.reliability_report().retransmissions, 0);
        eng.run_until(&mut tb, own.at());
        assert_eq!(tb.reliability_report().retransmissions, 1);

        // With the loss over, everything completes and drains.
        set_loss(&mut tb, &mut eng, 0);
        eng.run(&mut tb);
        assert_eq!(tb.reliability_report().block_completed, 3);
        assert!(tb.retx_timers[0].is_empty());
        assert_eq!(tb.blks.occupied(), 0);
    }
}
