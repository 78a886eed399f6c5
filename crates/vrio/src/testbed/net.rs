//! Network flows: netperf request-response (and its local-virtio
//! fallback during IOhost outages) and batched stream traffic.

use bytes::Bytes;
use vrio_hv::IoModel;
use vrio_net::MTU_VRIO_JUMBO;
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::{DropCause, SpanId, Stage};

use super::flow::{CoreRef, CounterKind, FlowEnd, Step};
use super::{req_track, HasTestbed, Testbed};
use crate::health::Route;
use crate::interpose::Direction;
use crate::oracle::FlowToken;
use crate::proto::{DeviceId, VrioMsg, VrioMsgKind, VRIO_HDR_SIZE};

/// One net request's observer records: its trace span, oracle ledger
/// entry and SLO tenant.
#[derive(Clone, Copy)]
pub(super) struct NetFlow {
    vm: usize,
    t0: SimTime,
    span: SpanId,
    flow: FlowToken,
}

impl NetFlow {
    /// Opens the request's records at `t0`.
    fn begin(tb: &mut Testbed, kind: &'static str, vm: usize, stage: Stage, t0: SimTime) -> Self {
        let span = tb.trace.begin(kind, req_track(vm), stage, t0);
        let flow = tb.oracle.flow_begin(kind, t0);
        tb.slo.offer(vm);
        NetFlow { vm, t0, span, flow }
    }

    /// Closes the records of a request completed at `now`, returning its
    /// latency.
    pub(super) fn complete(self, tb: &mut Testbed, now: SimTime) -> SimDuration {
        let latency = now - self.t0;
        tb.trace.end(self.span, now);
        tb.oracle.flow_complete(self.flow, now);
        tb.slo.complete(self.vm, latency.as_micros_f64());
        latency
    }

    /// Closes the records of a request dropped at `now` for `cause`.
    pub(super) fn dropped(self, tb: &mut Testbed, cause: DropCause, now: SimTime) {
        tb.trace.abort(self.span);
        tb.oracle.flow_drop(self.flow, now);
        tb.slo.record_drop(self.vm, cause);
    }

    /// Closes the records of a request the back end's interposition chain
    /// dropped while the flow was being compiled.
    fn firewalled(self, tb: &mut Testbed) {
        self.dropped(tb, DropCause::Firewall, self.t0);
    }
}

// ---------------------------------------------------------------------------
// Flow: network request-response (netperf RR, Apache/Memcached transactions)
// ---------------------------------------------------------------------------

/// Issues one request-response against VM `vm`: an external generator sends
/// `req` and the guest answers with `resp_len` bytes after `app_time` of
/// guest CPU. The world receives the measured outcome through
/// [`HasTestbed::on_rr`] with `tag`; a lost or firewalled request never
/// completes.
#[allow(clippy::too_many_arguments)]
pub fn net_request_response<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    req: Bytes,
    resp_len: usize,
    app_time: SimDuration,
    tag: u64,
) {
    let tb = w.tb();
    let model = tb.config.model;
    // §4.6 fault tolerance: the VMhost's redundancy ladder picks the
    // first live IOhost (primary, then N+1 backups). Only when *every*
    // target has failed over (and until failback completes) do vRIO
    // front-ends fall back to local virtio. The VMhost has no sidecores,
    // so the vhost work lands on the VM's own core.
    let route = if matches!(model, IoModel::Vrio | IoModel::VrioNoPoll) {
        tb.net_route(vm, eng.now())
    } else {
        Route::Remote(0)
    };
    let iohost = match route {
        Route::Remote(k) => k,
        Route::Local => return fallback_request_response(w, eng, vm, req, resp_len, app_time, tag),
    };
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let t0 = eng.now();
    // Lifecycle span: stage transitions ride the step list as inline
    // `Step::Mark`s, so tracing never reorders events or touches RNG.
    let f = NetFlow::begin(tb, "net_rr", vm, Stage::Generator, t0);
    let req_wire = req.len() + 64; // headers on the wire
    let resp_wire = resp_len + 64;
    // Responses larger than one MSS leave as multiple wire packets, each
    // taking a back-end pass (the effect that saturates Elvis sidecores
    // under Apache-style transactions, Fig 5/12).
    let packets = (resp_len.div_ceil(1448)).max(1) as u64;

    let mut s = tb.program(f.span, f.flow);

    // 1. Generator sends the request.
    let gen_work = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_work));
    s.mark(Stage::Wire);
    s.push(Step::Charge(CoreRef::HostLink(host), tb.wire(req_wire)));
    s.push(Step::Fixed(tb.config.hop_latency));

    // 2. Inbound delivery to the guest, per model.
    let backend = tb.pick_backend_at(vm, iohost);
    match model {
        IoModel::Optimum => {
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(tb.deliver_step(vm, req.clone(), None));
            s.mark(Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
        IoModel::Elvis => {
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Count(CounterKind::HostIntr));
            s.mark(Stage::Backend);
            let w_irq = tb.jitter(costs.host_interrupt);
            s.push(Step::Charge(CoreRef::Backend(backend), w_irq));
            let (fwd, icost) = tb.interpose(Direction::Inbound, req.clone());
            let w_be = tb.jitter(costs.elvis_backend_net) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
            let Some(fwd) = fwd else {
                return f.firewalled(tb);
            };
            s.push(tb.deliver_step(vm, fwd, None));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.mark(Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
        IoModel::Vrio | IoModel::VrioNoPoll => {
            // Frame lands at the IOhost NIC first.
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::RingPush(backend));
            // The IOhost arrival gate (net traffic: a drop means the
            // request is simply lost; TCP above retransmits).
            s.push(Step::NetArrival { vm, backend });
            s.mark(Stage::WorkerPickup);
            if model == IoModel::VrioNoPoll {
                s.push(Step::Count(CounterKind::IohostIntr));
                let w_irq = tb.jitter(costs.host_interrupt);
                s.push(Step::Charge(CoreRef::Backend(backend), w_irq));
            } else {
                s.push(Step::Pickup(backend));
            }
            s.push(Step::RingPop(backend));
            s.mark(Stage::Backend);
            // Worker: interpose, encapsulate as a vRIO NetRx message, and
            // retransmit toward the VMhost (real protocol bytes).
            let (fwd, icost) = tb.interpose(Direction::Inbound, req.clone());
            let Some(fwd) = fwd else {
                return f.firewalled(tb);
            };
            let msg = VrioMsg::new(
                VrioMsgKind::NetRx,
                DeviceId {
                    client: vm as u32,
                    device: 0,
                },
                0,
                fwd,
            );
            let wire_len = VRIO_HDR_SIZE + msg.payload.len();
            let w_worker = tb.jitter(costs.vrio_worker_net + costs.reassemble_per_frag) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_worker));
            s.push(Step::ReleaseBackend { vm, backend });
            if model == IoModel::VrioNoPoll {
                // The IOhost's own transmit-completion interrupt.
                s.push(Step::Count(CounterKind::IohostIntr));
                s.push(Step::ChargeAsync(
                    CoreRef::Backend(backend),
                    costs.host_interrupt,
                ));
            }
            s.mark(Stage::Wire);
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Charge(
                CoreRef::IohostLink(iohost),
                tb.wire(wire_len + 54),
            ));
            s.push(Step::Fixed(tb.config.hop_latency));
            s.push(Step::Fixed(tb.fault_delay(t0)));
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
            // Transport decapsulates (real decode) and hands to front-end.
            s.push(tb.deliver_step(vm, msg.payload, Some(msg.hdr.encode())));
            s.mark(Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.vrio_decap + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
        IoModel::Baseline => {
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Count(CounterKind::HostIntr));
            s.mark(Stage::Backend);
            let w_irq = tb.jitter(costs.host_interrupt);
            s.push(Step::Charge(CoreRef::Backend(backend), w_irq));
            let (fwd, icost) = tb.interpose(Direction::Inbound, req.clone());
            let w_be = tb.jitter(costs.vhost_wakeup + costs.vhost_backend) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
            let Some(fwd) = fwd else {
                return f.firewalled(tb);
            };
            s.push(tb.deliver_step(vm, fwd, None));
            s.push(Step::Count(CounterKind::Injection));
            s.push(Step::Charge(
                CoreRef::Backend(backend),
                costs.interrupt_injection,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::Count(CounterKind::Exit)); // EOI exit
            s.mark(Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.exit + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
    }

    // 3. Guest application work + transmit of the response.
    s.mark(Stage::AppWork);
    let w_app = tb.jitter(app_time);
    s.push(Step::ChargeVm(vm, w_app));
    s.mark(Stage::Kick);
    s.push(Step::SendTx { vm, len: resp_len });
    // GSO amortizes the per-packet guest cost for multi-packet responses.
    let mut w_tx = tb.jitter(costs.guest_stack_tx) * (1.0 + 0.3 * (packets - 1) as f64);
    if matches!(model, IoModel::Vrio | IoModel::VrioNoPoll) {
        let frags = vrio_net::fragment_count(resp_len.max(1), MTU_VRIO_JUMBO) as u64;
        w_tx += tb.jitter(costs.vrio_encap) + costs.segment_per_frag * frags;
    }
    if model == IoModel::Baseline {
        // The transmit kick traps.
        s.push(Step::Count(CounterKind::Exit));
        w_tx += costs.exit;
    }
    s.push(Step::ChargeVm(vm, w_tx));

    // 4. Outbound path back to the generator, per model.
    let backend_out = tb.pick_backend_at(vm, iohost);
    match model {
        IoModel::Optimum => {
            s.push(Step::FetchTx { vm, dir: None });
            s.push(Step::Fixed(costs.nic_dma));
            // Asynchronous transmit-completion interrupt to the guest.
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::ChargeVmAsync(vm, costs.guest_interrupt));
        }
        IoModel::Elvis => {
            s.mark(Stage::WorkerPickup);
            s.push(Step::Fixed(costs.poll_pickup));
            s.mark(Stage::Backend);
            let w_be = tb.jitter(costs.elvis_backend_net) * packets;
            s.push(Step::Charge(CoreRef::Backend(backend_out), w_be));
            s.push(Step::FetchTx {
                vm,
                dir: Some(Direction::Outbound),
            });
            s.push(Step::Fixed(costs.nic_dma));
            // Physical tx-completion interrupts land on the sidecore
            // (hardware coalescing merges them into one *counted* event,
            // but the handler work scales with the packet count).
            s.push(Step::Count(CounterKind::HostIntr));
            s.push(Step::ChargeAsync(
                CoreRef::Backend(backend_out),
                costs.host_interrupt * packets,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::ChargeVmAsync(vm, costs.guest_interrupt));
        }
        IoModel::Vrio | IoModel::VrioNoPoll => {
            s.push(Step::FetchTx { vm, dir: None });
            s.mark(Stage::Wire);
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Charge(
                CoreRef::HostLink(host),
                tb.wire(resp_wire + 54),
            ));
            s.push(Step::Fixed(tb.config.hop_latency));
            s.push(Step::Fixed(tb.fault_delay(t0)));
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::RingPush(backend_out));
            s.push(Step::NetArrival {
                vm,
                backend: backend_out,
            });
            s.mark(Stage::WorkerPickup);
            if model == IoModel::VrioNoPoll {
                // Interrupt-driven IOhost: the response arrives as several
                // jumbo fragments, each raising an interrupt that also
                // disrupts the worker's cache/pipeline (coalescing merges
                // them into one *counted* event).
                s.push(Step::Count(CounterKind::IohostIntr));
                let frags = vrio_net::fragment_count(resp_len.max(1), MTU_VRIO_JUMBO) as u64;
                let w_irq = tb.jitter(costs.host_interrupt) * frags * 2.0;
                s.push(Step::Charge(CoreRef::Backend(backend_out), w_irq));
            } else {
                s.push(Step::Pickup(backend_out));
            }
            s.push(Step::RingPop(backend_out));
            s.mark(Stage::Backend);
            // The worker re-segments the message into `packets` wire
            // packets for the outside world; per-packet work is batched.
            let w_worker = tb.jitter(costs.vrio_worker_net + costs.reassemble_per_frag)
                + (costs.vrio_worker_net * (packets - 1)) * 0.75;
            s.push(Step::Charge(CoreRef::Backend(backend_out), w_worker));
            // Worker decapsulates the client's NetTx and interposes.
            s.push(Step::InterposeTx);
            s.push(Step::ReleaseBackend {
                vm,
                backend: backend_out,
            });
            if model == IoModel::VrioNoPoll {
                // Transmit-completion interrupts for the outbound wire
                // packets (coalesced into one counted event).
                s.push(Step::Count(CounterKind::IohostIntr));
                s.push(Step::ChargeAsync(
                    CoreRef::Backend(backend_out),
                    (costs.host_interrupt * packets.div_ceil(2)) * 2.0,
                ));
            }
            // Guest's ELI transmit-completion interrupt.
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::ChargeVmAsync(vm, costs.guest_interrupt));
            s.push(Step::Fixed(costs.nic_dma));
        }
        IoModel::Baseline => {
            s.mark(Stage::Backend);
            let w_be = tb.jitter(costs.vhost_wakeup + costs.vhost_backend) * packets;
            s.push(Step::Charge(CoreRef::Backend(backend_out), w_be));
            s.push(Step::FetchTx {
                vm,
                dir: Some(Direction::Outbound),
            });
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Count(CounterKind::HostIntr));
            s.push(Step::ChargeAsync(
                CoreRef::Backend(backend_out),
                costs.host_interrupt * packets,
            ));
            // Asynchronous tx-completion injection into the guest + EOI exit
            // (one per wire packet; a single counted event after coalescing).
            s.push(Step::Count(CounterKind::Injection));
            s.push(Step::ChargeAsync(
                CoreRef::Backend(backend_out),
                costs.interrupt_injection * packets,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::Count(CounterKind::Exit));
            s.push(Step::ChargeVmAsync(
                vm,
                (costs.guest_interrupt + costs.exit) * packets,
            ));
        }
    }

    // 5. Wire back to the generator and receive.
    s.mark(Stage::Wire);
    s.push(Step::Charge(CoreRef::HostLink(host), tb.wire(resp_wire)));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.mark(Stage::Completion);
    let gen_rx = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_rx));
    let tail = tb.tail_extra();
    if !tail.is_zero() {
        s.push(Step::Fixed(tail));
    }

    s.run(w, eng, FlowEnd::Rr { net: f, tag });
}

/// The §4.6 fallback data path: local virtio on a sidecore-less VMhost.
/// Functionally the baseline model, except every vhost/interrupt cost is
/// charged to the VM's own core — the price of surviving without the
/// IOhost (no interposition services run; they lived at the IOhost).
fn fallback_request_response<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    req: Bytes,
    resp_len: usize,
    app_time: SimDuration,
    tag: u64,
) {
    let tb = w.tb();
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let t0 = eng.now();
    let f = NetFlow::begin(tb, "net_rr_fallback", vm, Stage::Generator, t0);
    let packets = (resp_len.div_ceil(1448)).max(1) as u64;
    let mut s = tb.program(f.span, f.flow);

    let gen_work = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_work));
    s.mark(Stage::Wire);
    s.push(Step::Charge(
        CoreRef::HostLink(host),
        tb.wire(req.len() + 64),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.push(Step::Fixed(costs.nic_dma));
    // Inbound: interrupt + vhost pass + injection, all on the VM core.
    s.push(Step::Count(CounterKind::HostIntr));
    s.mark(Stage::Backend);
    let w_in = tb.jitter(
        costs.host_interrupt + costs.vhost_wakeup + costs.vhost_backend + costs.interrupt_injection,
    );
    s.push(Step::Count(CounterKind::Injection));
    s.push(Step::ChargeVm(vm, w_in));
    s.push(tb.deliver_step(vm, req.clone(), None));
    s.push(Step::Count(CounterKind::GuestIntr));
    s.push(Step::Count(CounterKind::Exit)); // EOI
    s.mark(Stage::Interrupt);
    let w_rx = tb.jitter(costs.guest_interrupt + costs.exit + costs.guest_stack_rx);
    s.push(Step::ChargeVm(vm, w_rx));
    s.mark(Stage::AppWork);
    s.push(Step::ChargeVm(vm, tb.jitter(app_time)));
    s.mark(Stage::Kick);
    s.push(Step::SendTx { vm, len: resp_len });
    // Outbound: kick exit + vhost pass per packet, all on the VM core.
    s.push(Step::Count(CounterKind::Exit));
    let w_tx = tb.jitter(costs.guest_stack_tx + costs.exit)
        + (costs.vhost_wakeup + costs.vhost_backend) * packets;
    s.push(Step::ChargeVm(vm, w_tx));
    s.push(Step::FetchTx { vm, dir: None });
    s.push(Step::Fixed(costs.nic_dma));
    s.push(Step::Count(CounterKind::HostIntr));
    s.push(Step::Count(CounterKind::Injection));
    s.push(Step::Count(CounterKind::GuestIntr));
    s.push(Step::Count(CounterKind::Exit));
    s.push(Step::ChargeVmAsync(
        vm,
        (costs.host_interrupt + costs.interrupt_injection + costs.guest_interrupt + costs.exit)
            * packets,
    ));
    s.mark(Stage::Wire);
    s.push(Step::Charge(
        CoreRef::HostLink(host),
        tb.wire(resp_len + 64),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.mark(Stage::Completion);
    let gen_rx = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_rx));

    s.run(w, eng, FlowEnd::Rr { net: f, tag });
}

// ---------------------------------------------------------------------------
// Flow: netperf TCP stream (batched)
// ---------------------------------------------------------------------------

/// Transmits one ring batch of `msgs` stream messages of `msg_bytes` each
/// from VM `vm` toward its generator; the world hears of the received
/// batch through [`HasTestbed::on_stream`] with `tag`. Stream traffic is processed in large batches at every
/// stage (rings, NIC, worker), so its per-message costs come from the
/// amortized `stream_*` entries of the cost model.
pub fn stream_batch<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    msgs: u64,
    msg_bytes: u64,
    tag: u64,
) {
    let tb = w.tb();
    let model = tb.config.model;
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let bytes = msgs * msg_bytes;
    let t0 = eng.now();
    // Coarse three-stage span: guest batch production, backend+wire
    // traversal, generator-side receive.
    let f = NetFlow::begin(tb, "stream_batch", vm, Stage::GuestEnqueue, t0);
    let mut s = tb.program(f.span, f.flow);

    // Guest produces the batch.
    let mut per_msg = costs.stream_guest_per_msg;
    match model {
        IoModel::Vrio | IoModel::VrioNoPoll => per_msg += costs.stream_vrio_guest_extra,
        IoModel::Baseline => per_msg += costs.stream_baseline_guest_extra,
        _ => {}
    }
    s.push(Step::ChargeVm(vm, per_msg * msgs));
    s.mark(Stage::Backend);

    // Backend processing + wire path. Streams keep riding whatever
    // IOhost the VM last routed to (no per-batch health consult: batches
    // are fire-and-forget, and re-probing here would perturb heartbeat
    // accounting for stream-only runs).
    let iohost = tb.vm_route[vm];
    let backend = tb.pick_backend_at(vm, iohost);
    let wire = tb.wire(bytes as usize);
    // Local back ends process the batch before it leaves the VMhost.
    match model {
        IoModel::Elvis => s.push(Step::Charge(
            CoreRef::Backend(backend),
            costs.stream_elvis_backend_per_msg * msgs,
        )),
        IoModel::Baseline => s.push(Step::Charge(
            CoreRef::Backend(backend),
            costs.stream_vhost_per_msg * msgs,
        )),
        _ => {}
    }
    s.push(Step::Charge(CoreRef::HostLink(host), wire));
    if matches!(model, IoModel::Vrio | IoModel::VrioNoPoll) {
        // vRIO: across the rack to the IOhost worker, out its uplink.
        s.push(Step::Fixed(tb.config.hop_latency));
        let mut w_worker = costs.stream_vrio_worker_per_msg * msgs;
        if model == IoModel::VrioNoPoll {
            // Interrupt-driven IOhost: per-batch interrupt pair.
            w_worker += costs.host_interrupt * 2u64;
        }
        s.push(Step::Charge(CoreRef::Backend(backend), w_worker));
        s.push(Step::ReleaseBackend { vm, backend });
        s.push(Step::Charge(CoreRef::IohostLink(iohost), wire));
    }
    s.push(Step::Fixed(tb.config.hop_latency));
    s.mark(Stage::Completion);

    // Generator machine + core receive the batch.
    let gm_work = SimDuration::for_bytes_at_gbps(bytes, costs.gen_machine_gbps);
    s.push(Step::Charge(CoreRef::GenMachine(host), gm_work));
    s.push(Step::Charge(
        CoreRef::Gen(vm),
        costs.stream_gen_per_msg * msgs,
    ));

    s.run(w, eng, FlowEnd::Stream { net: f, tag });
}
