//! # vrio-net
//!
//! The Ethernet substrate of the vRIO reproduction: MAC addressing, the
//! SKB model with Linux's 17-fragment/4 KB-page constraints, TSO
//! segmentation with fake TCP headers and zero-copy reassembly (paper
//! §4.3–§4.4), and channel fault injection (Gilbert–Elliott loss).
//!
//! These are passive data structures plus pure logic. The hardware itself
//! (NIC rings, polling versus interrupts, link bandwidth and latency, the
//! switch hop) is a calibrated cost step of the `vrio` crate's testbed,
//! which also decides who polls what when.
//!
//! ## The paper's MTU-8100 invariant, executable
//!
//! ```
//! use vrio_net::{segment_message, Reassembler, MTU_VRIO_JUMBO};
//! use bytes::Bytes;
//!
//! // A maximal 64 KB TCP message segments into 9 fragments at MTU 8100...
//! let msg = Bytes::from(vec![7u8; 65_536]);
//! let segs = segment_message(msg.clone(), MTU_VRIO_JUMBO, 42).unwrap();
//! assert_eq!(segs.len(), 9);
//!
//! // ...which reassemble zero-copy into exactly 17 SKB page slots.
//! let mut r = Reassembler::new();
//! let mut skb = None;
//! for s in segs {
//!     if let Some(done) = r.offer(0, s).unwrap() {
//!         skb = Some(done);
//!     }
//! }
//! let mut skb = skb.unwrap();
//! assert_eq!(skb.frag_slots(), 17);
//! assert_eq!(skb.bytes_copied(), 0);
//! assert_eq!(skb.linearize(), msg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod mac;
mod pool;
mod skb;
mod tso;

pub use fault::{
    FaultConfig, FaultConfigError, FaultInjector, FaultStats, GeConfig, GilbertElliott,
};
pub use mac::{MacAddr, ParseMacError};
pub use pool::{PoolError, SkbPool};
pub use skb::{Frag, Skb, SkbError, MAX_SKB_FRAGS, PAGE_SIZE};
pub use tso::{
    fragment_count, internet_checksum, reassemble_train, segment_message, segment_message_into,
    FakeTcpHdr, Reassembler, Segment, TsoError, FAKE_TCP_HDR_SIZE, MAX_TSO_MSG, MTU_VRIO_JUMBO,
};

/// Default receive-ring capacity. The paper found 512 too small under load
/// at the IOhost ("increasing the vRIO receive ring buffers (Rx) from 512
/// to 4096 packets ... eliminated this problem", §4.5).
pub const RX_RING_DEFAULT: usize = 512;
/// The enlarged receive ring the paper settled on for the IOhost.
pub const RX_RING_LARGE: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_size_constants_match_paper() {
        assert_eq!(RX_RING_DEFAULT, 512);
        assert_eq!(RX_RING_LARGE, 4096);
    }
}
