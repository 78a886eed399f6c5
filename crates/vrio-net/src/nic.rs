//! NIC model: receive/transmit rings, SRIOV virtual functions, and the
//! poll-vs-interrupt completion modes whose contrast drives the paper's
//! Table 3 and Figure 5.
//!
//! The NIC here is a passive data structure — rings, counters, and demux
//! logic. The event wiring (DMA latencies, interrupt delivery, sidecore
//! polling cadence) lives in the testbed orchestration (`vrio::testbed`),
//! which charges the costs from `vrio_hv::CostModel`.

use std::collections::VecDeque;

use crate::frame::Frame;
use crate::mac::MacAddr;

/// Default receive-ring capacity. The paper found 512 too small under load
/// at the IOhost ("increasing the vRIO receive ring buffers (Rx) from 512
/// to 4096 packets ... eliminated this problem", §4.5).
pub const RX_RING_DEFAULT: usize = 512;
/// The enlarged receive ring the paper settled on for the IOhost.
pub const RX_RING_LARGE: usize = 4096;

/// How completions reach the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicMode {
    /// The NIC raises interrupts (the baseline and Elvis physical path).
    Interrupt,
    /// A sidecore polls the rings; the NIC never interrupts (vRIO's IOhost).
    Poll,
}

/// A bounded packet ring with drop accounting.
///
/// # Examples
///
/// ```
/// use vrio_net::PacketRing;
///
/// let mut ring: PacketRing<u32> = PacketRing::new(2);
/// assert!(ring.push(1).is_ok());
/// assert!(ring.push(2).is_ok());
/// assert!(ring.push(3).is_err()); // full: dropped
/// assert_eq!(ring.drops(), 1);
/// assert_eq!(ring.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct PacketRing<T> {
    cap: usize,
    items: VecDeque<T>,
    drops: u64,
    enqueued: u64,
}

impl<T> PacketRing<T> {
    /// Creates a ring holding up to `cap` packets.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be nonzero");
        PacketRing {
            cap,
            items: VecDeque::with_capacity(cap.min(1024)),
            drops: 0,
            enqueued: 0,
        }
    }

    /// Capacity in packets.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueues a packet; on overflow the packet is dropped (returned in
    /// the `Err`) and the drop counter advances — tail-drop, like hardware.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.cap {
            self.drops += 1;
            return Err(item);
        }
        self.enqueued += 1;
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest packet.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Dequeues up to `max` packets — the batch a worker takes per poll.
    pub fn pop_batch(&mut self, max: usize) -> Vec<T> {
        let n = self.items.len().min(max);
        self.items.drain(..n).collect()
    }

    /// Packets dropped due to overflow.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets successfully enqueued over the ring's lifetime.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }
}

/// Counters a NIC port maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames delivered into the rx ring.
    pub rx_frames: u64,
    /// Frames dropped because the rx ring was full.
    pub rx_drops: u64,
    /// Frames sent from the tx ring.
    pub tx_frames: u64,
    /// Interrupts this port raised (0 in poll mode).
    pub interrupts: u64,
}

/// One NIC port — either a physical function or an SRIOV virtual function.
#[derive(Debug, Clone)]
pub struct NicPort {
    /// The port's MAC address.
    pub mac: MacAddr,
    /// Completion mode.
    pub mode: NicMode,
    /// Receive ring.
    pub rx: PacketRing<Frame>,
    /// Transmit ring.
    pub tx: PacketRing<Frame>,
    /// Counters.
    pub stats: NicStats,
}

impl NicPort {
    /// Creates a port with the given MAC, mode, and rx-ring capacity.
    pub fn new(mac: MacAddr, mode: NicMode, rx_cap: usize) -> Self {
        NicPort {
            mac,
            mode,
            rx: PacketRing::new(rx_cap),
            tx: PacketRing::new(rx_cap),
            stats: NicStats::default(),
        }
    }

    /// Delivers a frame into the receive ring. Returns `true` if the frame
    /// was accepted, and whether an interrupt should be raised (only in
    /// interrupt mode, and only if the ring was previously empty — a crude
    /// but standard coalescing model).
    pub fn receive(&mut self, frame: Frame) -> RxOutcome {
        let was_empty = self.rx.is_empty();
        match self.rx.push(frame) {
            Ok(()) => {
                self.stats.rx_frames += 1;
                let interrupt = self.mode == NicMode::Interrupt && was_empty;
                if interrupt {
                    self.stats.interrupts += 1;
                }
                RxOutcome::Accepted { interrupt }
            }
            Err(_) => {
                self.stats.rx_drops += 1;
                RxOutcome::Dropped
            }
        }
    }

    /// Takes up to `max` received frames (the poll path).
    pub fn poll_rx(&mut self, max: usize) -> Vec<Frame> {
        self.rx.pop_batch(max)
    }

    /// Queues a frame for transmission.
    pub fn transmit(&mut self, frame: Frame) -> Result<(), Frame> {
        let r = self.tx.push(frame);
        if r.is_ok() {
            self.stats.tx_frames += 1;
        }
        r
    }

    /// Drains up to `max` frames from the tx ring (the wire side).
    pub fn drain_tx(&mut self, max: usize) -> Vec<Frame> {
        self.tx.pop_batch(max)
    }
}

/// An adaptive interrupt-coalescing state machine, as configured via
/// `ethtool -C` on real NICs: an interrupt fires when either `max_frames`
/// have accumulated or `max_delay` has elapsed since the first pending
/// frame — whichever comes first. The paper notes that Elvis's and the
/// baseline's interrupt costs persist "despite the fact that both the
/// hardware (NIC) and software (OS) employ interrupt coalescing" (§5).
///
/// # Examples
///
/// ```
/// use vrio_net::Coalescer;
/// use vrio_sim::{SimDuration, SimTime};
///
/// let mut c = Coalescer::new(4, SimDuration::micros(20));
/// let t = SimTime::ZERO;
/// assert_eq!(c.on_frame(t), None);                 // 1 pending
/// assert_eq!(c.on_frame(t), None);                 // 2
/// assert_eq!(c.on_frame(t), None);                 // 3
/// assert_eq!(c.on_frame(t), Some(t));              // 4th: fire now
/// // A lone frame fires when the delay timer expires instead.
/// let t2 = SimTime::from_nanos(100_000);
/// assert_eq!(c.on_frame(t2), None);
/// assert_eq!(c.deadline(), Some(t2 + SimDuration::micros(20)));
/// assert_eq!(c.on_timer(t2 + SimDuration::micros(20)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Coalescer {
    max_frames: u32,
    max_delay: vrio_sim::SimDuration,
    pending: u32,
    first_pending_at: Option<vrio_sim::SimTime>,
    /// Interrupts raised over the coalescer's lifetime.
    pub interrupts: u64,
    /// Frames that have passed through.
    pub frames: u64,
}

impl Coalescer {
    /// Creates a coalescer firing after `max_frames` frames or `max_delay`,
    /// whichever comes first. `max_frames` must be nonzero.
    pub fn new(max_frames: u32, max_delay: vrio_sim::SimDuration) -> Self {
        assert!(max_frames > 0, "max_frames must be nonzero");
        Coalescer {
            max_frames,
            max_delay,
            pending: 0,
            first_pending_at: None,
            interrupts: 0,
            frames: 0,
        }
    }

    /// Records a frame arrival at `now`. Returns `Some(fire_time)` when the
    /// frame threshold is reached (the caller raises the interrupt and the
    /// pending state resets); otherwise the delay timer keeps running.
    pub fn on_frame(&mut self, now: vrio_sim::SimTime) -> Option<vrio_sim::SimTime> {
        self.frames += 1;
        self.pending += 1;
        if self.first_pending_at.is_none() {
            self.first_pending_at = Some(now);
        }
        if self.pending >= self.max_frames {
            self.pending = 0;
            self.first_pending_at = None;
            self.interrupts += 1;
            return Some(now);
        }
        None
    }

    /// The instant the delay timer would fire, if frames are pending.
    pub fn deadline(&self) -> Option<vrio_sim::SimTime> {
        self.first_pending_at.map(|t| t + self.max_delay)
    }

    /// The delay timer fires at `now`: returns how many pending frames the
    /// interrupt covers (0 if the threshold path already fired).
    pub fn on_timer(&mut self, now: vrio_sim::SimTime) -> u32 {
        match self.deadline() {
            Some(d) if now >= d => {
                let covered = self.pending;
                self.pending = 0;
                self.first_pending_at = None;
                if covered > 0 {
                    self.interrupts += 1;
                }
                covered
            }
            _ => 0,
        }
    }

    /// Achieved coalescing ratio: frames per interrupt.
    pub fn frames_per_interrupt(&self) -> f64 {
        if self.interrupts == 0 {
            0.0
        } else {
            self.frames as f64 / self.interrupts as f64
        }
    }
}

/// Outcome of delivering a frame to a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Frame accepted into the ring.
    Accepted {
        /// Whether the port raises an interrupt for it.
        interrupt: bool,
    },
    /// Ring full; frame dropped.
    Dropped,
}

/// An SRIOV-capable NIC: one physical function plus virtual functions that
/// can be individually assigned to VMs (paper §2 "SRIOV").
///
/// # Examples
///
/// ```
/// use vrio_net::{EtherType, Frame, MacAddr, NicMode, SriovNic};
/// use bytes::Bytes;
///
/// let mut nic = SriovNic::new(MacAddr::local(0), NicMode::Interrupt, 512);
/// let vf = nic.add_vf(MacAddr::local(1), NicMode::Poll, 4096);
///
/// // Frames demux by destination MAC to the owning VF.
/// let f = Frame::new(MacAddr::local(1), MacAddr::local(9), EtherType::Vrio, Bytes::new());
/// nic.deliver(f);
/// assert_eq!(nic.vf(vf).rx.len(), 1);
/// assert_eq!(nic.pf().rx.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SriovNic {
    pf: NicPort,
    vfs: Vec<NicPort>,
}

/// Identifies a virtual function within its NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VfId(pub usize);

impl SriovNic {
    /// Creates a NIC whose physical function has the given MAC and mode.
    pub fn new(pf_mac: MacAddr, mode: NicMode, rx_cap: usize) -> Self {
        SriovNic {
            pf: NicPort::new(pf_mac, mode, rx_cap),
            vfs: Vec::new(),
        }
    }

    /// Instantiates a virtual function with its own MAC, mode and ring size.
    pub fn add_vf(&mut self, mac: MacAddr, mode: NicMode, rx_cap: usize) -> VfId {
        self.vfs.push(NicPort::new(mac, mode, rx_cap));
        VfId(self.vfs.len() - 1)
    }

    /// The physical function.
    pub fn pf(&self) -> &NicPort {
        &self.pf
    }

    /// The physical function, mutably.
    pub fn pf_mut(&mut self) -> &mut NicPort {
        &mut self.pf
    }

    /// A virtual function.
    pub fn vf(&self, id: VfId) -> &NicPort {
        &self.vfs[id.0]
    }

    /// A virtual function, mutably.
    pub fn vf_mut(&mut self, id: VfId) -> &mut NicPort {
        &mut self.vfs[id.0]
    }

    /// Demuxes an incoming frame by destination MAC: a VF with a matching
    /// MAC receives it; broadcast goes everywhere; otherwise the PF takes
    /// it. Returns what happened.
    pub fn deliver(&mut self, frame: Frame) -> RxOutcome {
        if frame.dst.is_broadcast() {
            let mut any = RxOutcome::Dropped;
            for vf in &mut self.vfs {
                // Refcount clone: the payload `Bytes` is shared, so fanning a
                // broadcast out to every port copies headers only (§4.4).
                let o = vf.receive(frame.clone());
                if matches!(o, RxOutcome::Accepted { .. }) {
                    any = o;
                }
            }
            let o = self.pf.receive(frame);
            if matches!(o, RxOutcome::Accepted { .. }) {
                any = o;
            }
            return any;
        }
        for vf in &mut self.vfs {
            if vf.mac == frame.dst {
                return vf.receive(frame);
            }
        }
        self.pf.receive(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use bytes::Bytes;

    fn frame(dst: MacAddr) -> Frame {
        Frame::new(
            dst,
            MacAddr::local(99),
            EtherType::Ipv4,
            Bytes::from_static(b"x"),
        )
    }

    #[test]
    fn ring_fifo_and_overflow() {
        let mut r = PacketRing::new(3);
        for i in 0..3 {
            r.push(i).unwrap();
        }
        assert_eq!(r.push(3), Err(3));
        assert_eq!(r.drops(), 1);
        assert_eq!(r.pop(), Some(0));
        assert_eq!(r.pop_batch(10), vec![1, 2]);
        assert!(r.is_empty());
        assert_eq!(r.enqueued(), 3);
    }

    #[test]
    fn interrupt_mode_raises_on_empty_ring_only() {
        let mut p = NicPort::new(MacAddr::local(0), NicMode::Interrupt, 8);
        assert_eq!(
            p.receive(frame(MacAddr::local(0))),
            RxOutcome::Accepted { interrupt: true }
        );
        // Second frame coalesces: ring non-empty, no new interrupt.
        assert_eq!(
            p.receive(frame(MacAddr::local(0))),
            RxOutcome::Accepted { interrupt: false }
        );
        assert_eq!(p.stats.interrupts, 1);
        p.poll_rx(10);
        assert_eq!(
            p.receive(frame(MacAddr::local(0))),
            RxOutcome::Accepted { interrupt: true }
        );
    }

    #[test]
    fn poll_mode_never_interrupts() {
        let mut p = NicPort::new(MacAddr::local(0), NicMode::Poll, 8);
        for _ in 0..5 {
            assert_eq!(
                p.receive(frame(MacAddr::local(0))),
                RxOutcome::Accepted { interrupt: false }
            );
        }
        assert_eq!(p.stats.interrupts, 0);
        assert_eq!(p.poll_rx(3).len(), 3);
        assert_eq!(p.poll_rx(3).len(), 2);
    }

    #[test]
    fn rx_overflow_drops_and_counts() {
        let mut p = NicPort::new(MacAddr::local(0), NicMode::Poll, 2);
        p.receive(frame(MacAddr::local(0)));
        p.receive(frame(MacAddr::local(0)));
        assert_eq!(p.receive(frame(MacAddr::local(0))), RxOutcome::Dropped);
        assert_eq!(p.stats.rx_drops, 1);
        assert_eq!(p.stats.rx_frames, 2);
    }

    #[test]
    fn sriov_demux_by_mac() {
        let mut nic = SriovNic::new(MacAddr::local(0), NicMode::Interrupt, 8);
        let vf0 = nic.add_vf(MacAddr::local(1), NicMode::Poll, 8);
        let vf1 = nic.add_vf(MacAddr::local(2), NicMode::Poll, 8);
        nic.deliver(frame(MacAddr::local(1)));
        nic.deliver(frame(MacAddr::local(2)));
        nic.deliver(frame(MacAddr::local(2)));
        nic.deliver(frame(MacAddr::local(42))); // unknown -> PF
        assert_eq!(nic.vf(vf0).rx.len(), 1);
        assert_eq!(nic.vf(vf1).rx.len(), 2);
        assert_eq!(nic.pf().rx.len(), 1);
    }

    #[test]
    fn sriov_broadcast_goes_everywhere() {
        let mut nic = SriovNic::new(MacAddr::local(0), NicMode::Poll, 8);
        nic.add_vf(MacAddr::local(1), NicMode::Poll, 8);
        nic.add_vf(MacAddr::local(2), NicMode::Poll, 8);
        nic.deliver(frame(MacAddr::BROADCAST));
        assert_eq!(nic.pf().rx.len(), 1);
        assert_eq!(nic.vf(VfId(0)).rx.len(), 1);
        assert_eq!(nic.vf(VfId(1)).rx.len(), 1);
    }

    #[test]
    fn broadcast_fanout_shares_payload_allocation() {
        // The deliver path clones the Frame per port, but the payload is a
        // refcounted `Bytes`: every copy received must point at the SAME
        // backing allocation as the original — no payload bytes duplicated.
        let payload = Bytes::from(vec![0xABu8; 4096]);
        let base = payload.as_ptr();
        let mut nic = SriovNic::new(MacAddr::local(0), NicMode::Poll, 8);
        nic.add_vf(MacAddr::local(1), NicMode::Poll, 8);
        nic.add_vf(MacAddr::local(2), NicMode::Poll, 8);
        nic.deliver(Frame::new(
            MacAddr::BROADCAST,
            MacAddr::local(9),
            EtherType::Vrio,
            payload,
        ));
        for vf in [VfId(0), VfId(1)] {
            let got = nic
                .vf_mut(vf)
                .poll_rx(1)
                .pop()
                .expect("broadcast delivered");
            assert_eq!(got.payload.as_ptr(), base);
        }
        let got = nic.pf_mut().poll_rx(1).pop().expect("pf copy");
        assert_eq!(got.payload.as_ptr(), base);
    }

    #[test]
    fn ring_size_constants_match_paper() {
        assert_eq!(RX_RING_DEFAULT, 512);
        assert_eq!(RX_RING_LARGE, 4096);
    }

    #[test]
    fn coalescer_frame_threshold() {
        let mut c = Coalescer::new(3, vrio_sim::SimDuration::micros(50));
        let t = vrio_sim::SimTime::ZERO;
        assert!(c.on_frame(t).is_none());
        assert!(c.on_frame(t).is_none());
        assert!(c.on_frame(t).is_some());
        assert_eq!(c.interrupts, 1);
        assert_eq!(c.deadline(), None); // state reset
    }

    #[test]
    fn coalescer_timer_path_covers_stragglers() {
        let mut c = Coalescer::new(64, vrio_sim::SimDuration::micros(10));
        let t = vrio_sim::SimTime::from_nanos(5_000);
        c.on_frame(t);
        c.on_frame(t + vrio_sim::SimDuration::micros(2));
        // Timer anchored at the FIRST pending frame.
        let d = c.deadline().unwrap();
        assert_eq!(d, t + vrio_sim::SimDuration::micros(10));
        assert_eq!(c.on_timer(d - vrio_sim::SimDuration::nanos(1)), 0); // early: no-op
        assert_eq!(c.on_timer(d), 2);
        assert_eq!(c.interrupts, 1);
        assert_eq!(c.on_timer(d), 0, "idempotent after firing");
    }

    #[test]
    fn coalescer_ratio_improves_with_batching() {
        let mut c = Coalescer::new(8, vrio_sim::SimDuration::micros(100));
        let t = vrio_sim::SimTime::ZERO;
        for _ in 0..64 {
            c.on_frame(t);
        }
        assert_eq!(c.interrupts, 8);
        assert_eq!(c.frames_per_interrupt(), 8.0);
    }

    #[test]
    fn transmit_and_drain() {
        let mut p = NicPort::new(MacAddr::local(0), NicMode::Poll, 4);
        p.transmit(frame(MacAddr::local(5))).unwrap();
        p.transmit(frame(MacAddr::local(6))).unwrap();
        let out = p.drain_tx(10);
        assert_eq!(out.len(), 2);
        assert_eq!(p.stats.tx_frames, 2);
    }
}
