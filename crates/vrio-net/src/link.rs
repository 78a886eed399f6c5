//! Links and the rack switch.
//!
//! A [`Link`] models one cable: bandwidth, propagation delay, MTU, and an
//! optional loss probability (Ethernet is unreliable — paper §4.5 builds
//! the block retransmission protocol on exactly this property). The
//! [`Switch`] is a learning L2 switch with per-port forwarding.

use vrio_sim::{SimDuration, SimRng};

use crate::frame::Frame;
use crate::mac::MacAddr;
use std::collections::HashMap;

/// One full-duplex cable.
///
/// # Examples
///
/// ```
/// use vrio_net::Link;
/// use vrio_sim::SimDuration;
///
/// let link = Link::ethernet_10g();
/// // 1250-byte frame at 10 Gbps: 1us serialization + 0.3us propagation.
/// let t = link.transfer_time(1250);
/// assert_eq!(t, SimDuration::nanos(1_300));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    /// Bandwidth in gigabits per second.
    pub gbps: f64,
    /// Fixed propagation + PHY latency per traversal.
    pub propagation: SimDuration,
    /// Maximum payload size carried without segmentation.
    pub mtu: usize,
    /// Probability an individual frame is lost in transit.
    pub loss_probability: f64,
}

impl Link {
    /// A 10 GbE link with typical in-rack latency and standard MTU.
    pub fn ethernet_10g() -> Self {
        Link {
            gbps: 10.0,
            propagation: SimDuration::nanos(300),
            mtu: crate::frame::MTU_STANDARD,
            loss_probability: 0.0,
        }
    }

    /// A 40 GbE link (the VMhost/IOhost channel in the paper's §3 setups).
    pub fn ethernet_40g() -> Self {
        Link {
            gbps: 40.0,
            ..Link::ethernet_10g()
        }
    }

    /// Returns a copy with jumbo MTU (vRIO's 8100-byte channel framing).
    pub fn with_jumbo_mtu(mut self) -> Self {
        self.mtu = crate::frame::MTU_VRIO_JUMBO;
        self
    }

    /// Returns a copy with the given loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss_probability = p;
        self
    }

    /// Serialization plus propagation time for `bytes` on the wire.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes_at_gbps(bytes as u64, self.gbps) + self.propagation
    }

    /// Rolls the loss dice for one frame.
    pub fn drops_frame(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.loss_probability)
    }
}

/// Identifies a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub usize);

/// Where the switch decides to send a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Forward {
    /// Unicast out one known port.
    Port(PortId),
    /// Flood out all ports except the ingress (unknown MAC or broadcast).
    Flood(Vec<PortId>),
}

/// A learning layer-2 switch.
///
/// # Examples
///
/// ```
/// use vrio_net::{EtherType, Forward, Frame, MacAddr, PortId, Switch};
/// use bytes::Bytes;
///
/// let mut sw = Switch::new(3);
/// let a = MacAddr::local(1);
/// let b = MacAddr::local(2);
///
/// // First frame from a on port 0: b unknown -> flood, and a is learned.
/// let f1 = Frame::new(b, a, EtherType::Ipv4, Bytes::new());
/// assert_eq!(sw.forward(PortId(0), &f1), Forward::Flood(vec![PortId(1), PortId(2)]));
///
/// // Reply from b on port 2: a is known -> unicast to port 0.
/// let f2 = Frame::new(a, b, EtherType::Ipv4, Bytes::new());
/// assert_eq!(sw.forward(PortId(2), &f2), Forward::Port(PortId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Switch {
    ports: usize,
    fdb: HashMap<MacAddr, PortId>,
}

impl Switch {
    /// Creates a switch with `ports` ports.
    pub fn new(ports: usize) -> Self {
        Switch {
            ports,
            fdb: HashMap::new(),
        }
    }

    /// Statically pins `mac` to `port` (the operator configuration §4.6
    /// suggests for routing IOclient traffic to the proper IOhost).
    pub fn pin(&mut self, mac: MacAddr, port: PortId) {
        assert!(port.0 < self.ports, "port out of range");
        self.fdb.insert(mac, port);
    }

    /// Learns the source, then decides where to forward a frame arriving on
    /// `ingress`.
    pub fn forward(&mut self, ingress: PortId, frame: &Frame) -> Forward {
        assert!(ingress.0 < self.ports, "ingress port out of range");
        if !frame.src.is_multicast() {
            self.fdb.insert(frame.src, ingress);
        }
        if !frame.dst.is_multicast() {
            if let Some(&out) = self.fdb.get(&frame.dst) {
                if out != ingress {
                    return Forward::Port(out);
                }
                // Destination hairpins on the ingress port: filter (drop).
                return Forward::Flood(Vec::new());
            }
        }
        Forward::Flood(
            (0..self.ports)
                .map(PortId)
                .filter(|&p| p != ingress)
                .collect(),
        )
    }

    /// Looks up a MAC in the forwarding database.
    pub fn lookup(&self, mac: MacAddr) -> Option<PortId> {
        self.fdb.get(&mac).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use bytes::Bytes;

    fn frame(dst: MacAddr, src: MacAddr) -> Frame {
        Frame::new(dst, src, EtherType::Ipv4, Bytes::new())
    }

    #[test]
    fn link_transfer_time_components() {
        let l = Link::ethernet_40g();
        // 5000 bytes at 40Gbps = 1000ns + 300ns propagation.
        assert_eq!(l.transfer_time(5000), SimDuration::nanos(1_300));
    }

    #[test]
    fn jumbo_and_loss_builders() {
        let l = Link::ethernet_10g().with_jumbo_mtu().with_loss(0.5);
        assert_eq!(l.mtu, 8100);
        let mut rng = SimRng::seed_from(1);
        let drops = (0..1000).filter(|_| l.drops_frame(&mut rng)).count();
        assert!((400..600).contains(&drops), "drops={drops}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        Link::ethernet_10g().with_loss(1.5);
    }

    #[test]
    fn switch_learns_and_unicasts() {
        let mut sw = Switch::new(4);
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        // a talks on port 1; b unknown so flood.
        match sw.forward(PortId(1), &frame(b, a)) {
            Forward::Flood(ports) => assert_eq!(ports.len(), 3),
            other => panic!("expected flood, got {other:?}"),
        }
        assert_eq!(sw.lookup(a), Some(PortId(1)));
        // b replies on port 3: unicast to a's port.
        assert_eq!(
            sw.forward(PortId(3), &frame(a, b)),
            Forward::Port(PortId(1))
        );
        assert_eq!(sw.lookup(b), Some(PortId(3)));
    }

    #[test]
    fn broadcast_floods() {
        let mut sw = Switch::new(3);
        let out = sw.forward(PortId(0), &frame(MacAddr::BROADCAST, MacAddr::local(1)));
        assert_eq!(out, Forward::Flood(vec![PortId(1), PortId(2)]));
    }

    #[test]
    fn hairpin_is_filtered() {
        let mut sw = Switch::new(2);
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        sw.pin(a, PortId(0));
        sw.pin(b, PortId(0));
        // b -> a arrives on the port where a already lives: filtered.
        assert_eq!(
            sw.forward(PortId(0), &frame(a, b)),
            Forward::Flood(Vec::new())
        );
    }

    #[test]
    fn station_move_relearns() {
        let mut sw = Switch::new(3);
        let a = MacAddr::local(1);
        sw.forward(PortId(0), &frame(MacAddr::local(9), a));
        assert_eq!(sw.lookup(a), Some(PortId(0)));
        // a migrates (live migration between VMhosts!) and talks on port 2.
        sw.forward(PortId(2), &frame(MacAddr::local(9), a));
        assert_eq!(sw.lookup(a), Some(PortId(2)));
    }
}
