//! TCP segmentation offload (TSO) with *fake* TCP/IP headers, and zero-copy
//! reassembly — paper §4.3–§4.4.
//!
//! vRIO works at the raw Ethernet level, but modern NICs will happily
//! segment any buffer that *looks* like TCP. The transport therefore
//! prepends a fake TCP/IP header (the STT trick) so the NIC hardware slices
//! up to [`MAX_TSO_MSG`] (64 KB) messages into MTU-sized fragments. On the
//! receive side the I/O hypervisor reassembles the original message into an
//! SKB without copying, which is possible precisely because vRIO picks MTU
//! 8100: each fragment plus headers fits in two 4 KB pages, and
//! `64 KB = 8 x 8100 + 736` needs `8 x 2 + 1 = 17` pages — the exact SKB
//! fragment budget.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::skb::{Skb, SkbError, PAGE_SIZE};

/// Maximum TSO message: the largest TCP/IP buffer (64 KB).
pub const MAX_TSO_MSG: usize = 65_536;

/// The jumbo MTU vRIO chooses (paper §4.4): 8100 bytes, so that each TSO
/// fragment plus headers fits in two 4 KB pages and a 64 KB message fits in
/// the 17 fragments a Linux SKB can map.
pub const MTU_VRIO_JUMBO: usize = 8100;

/// The RFC 1071 internet checksum (one's-complement sum of 16-bit words).
/// Real NICs compute this in hardware for TSO segments; the fake-TCP
/// path fills and verifies it so corrupted fragments are caught.
///
/// # Examples
///
/// ```
/// use vrio_net::internet_checksum;
///
/// let data = [0x45u8, 0x00, 0x00, 0x3c];
/// let c = internet_checksum(&data);
/// // Folding the checksum back in yields zero (the receiver's check).
/// let mut with = data.to_vec();
/// with.extend_from_slice(&c.to_be_bytes());
/// assert_eq!(internet_checksum(&with), 0);
/// ```
pub fn internet_checksum(data: &[u8]) -> u16 {
    checksum_fold(checksum_add(0, data))
}

/// Adds `data`'s 16-bit big-endian words into a running one's-complement
/// accumulator. Spans must start at an even byte offset of the logical
/// buffer (word sums are order-independent but not alignment-independent);
/// an odd-length span pads its final byte with zero, so only the true tail
/// of the buffer may be odd.
fn checksum_add(mut sum: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Folds the accumulator's carries back in and returns the one's-complement.
fn checksum_fold(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}
/// Size of the fake IP (20) + TCP (20) header prepended to each segment.
pub const FAKE_TCP_HDR_SIZE: usize = 40;

/// The fake TCP/IP header fields the vRIO transport actually uses.
///
/// The encoding occupies a real 40-byte IPv4+TCP layout; reassembly state is
/// smuggled in the TCP sequence/ack fields exactly as the STT draft does:
/// `seq` carries the fragment's byte offset, `ack` the message id, and the
/// IP `total length` the full message size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FakeTcpHdr {
    /// Message identifier (unique per in-flight message per sender).
    pub msg_id: u32,
    /// Byte offset of this fragment within the message.
    pub offset: u32,
    /// Total message length in bytes.
    pub total_len: u32,
}

impl FakeTcpHdr {
    /// Encodes into the 40-byte fake IPv4+TCP layout.
    pub fn encode(&self) -> [u8; FAKE_TCP_HDR_SIZE] {
        let mut b = [0u8; FAKE_TCP_HDR_SIZE];
        b[0] = 0x45; // IPv4, IHL=5
        b[2..4].copy_from_slice(&((self.total_len.min(0xffff)) as u16).to_be_bytes());
        b[9] = 6; // protocol = TCP
                  // We also stash the full 32-bit total length in the (unused here)
                  // IP id + fragment-offset words, since real IP total_len is 16-bit.
        b[4..8].copy_from_slice(&self.total_len.to_be_bytes());
        // TCP header starts at offset 20.
        b[20 + 4..20 + 8].copy_from_slice(&self.offset.to_be_bytes()); // seq
        b[20 + 8..20 + 12].copy_from_slice(&self.msg_id.to_be_bytes()); // ack
        b[20 + 12] = 5 << 4; // data offset = 5 words
        b
    }

    /// Decodes from wire bytes. Returns `None` if too short or not shaped
    /// like the fake header.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() < FAKE_TCP_HDR_SIZE || b[0] != 0x45 || b[9] != 6 {
            return None;
        }
        Some(FakeTcpHdr {
            total_len: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            offset: u32::from_be_bytes([b[24], b[25], b[26], b[27]]),
            msg_id: u32::from_be_bytes([b[28], b[29], b[30], b[31]]),
        })
    }
}

/// One TSO segment: fake header plus a zero-copy slice of the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The fake TCP/IP header describing this fragment.
    pub hdr: FakeTcpHdr,
    /// The fragment's message bytes (a slice of the original, no copy).
    pub chunk: Bytes,
}

impl Segment {
    /// Serializes header + chunk into one wire payload, filling the TCP
    /// checksum field over the whole segment (as the NIC's checksum
    /// offload would).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(FAKE_TCP_HDR_SIZE + self.chunk.len());
        b.put_slice(&self.hdr.encode());
        b.put_slice(&self.chunk);
        let csum = internet_checksum(&b);
        b[20 + 16..20 + 18].copy_from_slice(&csum.to_be_bytes());
        b.freeze()
    }

    /// Parses a wire payload into header + chunk (zero-copy slice),
    /// verifying the checksum. A corrupted segment decodes to `None` — the
    /// receiver drops it and retransmission recovers.
    pub fn decode(mut wire: Bytes) -> Option<Segment> {
        let hdr = FakeTcpHdr::decode(&wire)?;
        // Verify without copying the wire: sum the spans around the 16-bit
        // checksum field (bytes 36..38, even-aligned, so word boundaries are
        // preserved) — arithmetically identical to zeroing the field in a
        // scratch copy and recomputing.
        const CSUM_OFF: usize = 20 + 16;
        let stored = u16::from_be_bytes([wire[CSUM_OFF], wire[CSUM_OFF + 1]]);
        let sum = checksum_add(0, &wire[..CSUM_OFF]);
        let sum = checksum_add(sum, &wire[CSUM_OFF + 2..]);
        if checksum_fold(sum) != stored {
            return None;
        }
        let chunk = wire.split_off(FAKE_TCP_HDR_SIZE);
        Some(Segment { hdr, chunk })
    }

    /// Pages this fragment occupies on receive, headers included — 2 pages
    /// for a full 8100-byte fragment, 1 for the short tail (§4.4).
    pub fn pages(&self) -> usize {
        (self.chunk.len() + FAKE_TCP_HDR_SIZE)
            .div_ceil(PAGE_SIZE)
            .max(1)
    }
}

/// Errors raised by segmentation or reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsoError {
    /// The message exceeds the 64 KB TCP/IP maximum.
    MessageTooLong {
        /// Offending length.
        len: usize,
    },
    /// The message is empty.
    EmptyMessage,
    /// A fragment disagrees with previously seen fragments of its message.
    InconsistentFragment,
    /// Reassembly would exceed the SKB page budget (cannot be zero-copy).
    Skb(SkbError),
}

impl std::fmt::Display for TsoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsoError::MessageTooLong { len } => {
                write!(
                    f,
                    "message of {len} bytes exceeds the {MAX_TSO_MSG}-byte TSO maximum"
                )
            }
            TsoError::EmptyMessage => write!(f, "cannot segment an empty message"),
            TsoError::InconsistentFragment => write!(f, "fragment inconsistent with its message"),
            TsoError::Skb(e) => write!(f, "reassembly not zero-copy: {e}"),
        }
    }
}

impl std::error::Error for TsoError {}

impl From<SkbError> for TsoError {
    fn from(e: SkbError) -> Self {
        TsoError::Skb(e)
    }
}

/// Segments `msg` into MTU-sized fragments with fake TCP headers.
///
/// Follows the paper's arithmetic: each fragment carries up to `mtu` bytes
/// of message payload (the 54 bytes of Ethernet + fake headers ride along
/// and still fit the two-page receive budget for `mtu = 8100`).
///
/// # Examples
///
/// ```
/// use vrio_net::{segment_message, MTU_VRIO_JUMBO};
/// use bytes::Bytes;
///
/// let msg = Bytes::from(vec![0u8; 65_536]);
/// let segs = segment_message(msg, MTU_VRIO_JUMBO, 1).unwrap();
/// // The paper's worked example: 9 fragments, the 9th of 736 bytes.
/// assert_eq!(segs.len(), 9);
/// assert_eq!(segs[8].chunk.len(), 736);
/// // Total receive pages: 8 fragments x 2 pages + 1 x 1 page = 17.
/// let pages: usize = segs.iter().map(|s| s.pages()).sum();
/// assert_eq!(pages, 17);
/// ```
pub fn segment_message(msg: Bytes, mtu: usize, msg_id: u32) -> Result<Vec<Segment>, TsoError> {
    let mut segs = Vec::with_capacity(msg.len().div_ceil(mtu.max(1)));
    segment_message_into(msg, mtu, msg_id, &mut segs)?;
    Ok(segs)
}

/// [`segment_message`] into a caller-provided scratch vector, which is
/// cleared first and keeps its capacity across calls — the zero-allocation
/// path for emitting a whole TSO segment train from one scheduled event
/// (pair with [`reassemble_train`]).
pub fn segment_message_into(
    msg: Bytes,
    mtu: usize,
    msg_id: u32,
    segs: &mut Vec<Segment>,
) -> Result<(), TsoError> {
    segs.clear();
    if msg.is_empty() {
        return Err(TsoError::EmptyMessage);
    }
    if msg.len() > MAX_TSO_MSG {
        return Err(TsoError::MessageTooLong { len: msg.len() });
    }
    assert!(mtu > 0, "MTU must be nonzero");
    let total_len = msg.len() as u32;
    let mut offset = 0usize;
    while offset < msg.len() {
        let take = (msg.len() - offset).min(mtu);
        segs.push(Segment {
            hdr: FakeTcpHdr {
                msg_id,
                offset: offset as u32,
                total_len,
            },
            chunk: msg.slice(offset..offset + take),
        });
        offset += take;
    }
    Ok(())
}

/// Reassembles a complete in-order segment train — the batch produced by
/// [`segment_message_into`] and delivered by one scheduled event — into a
/// zero-copy SKB drawn from `pool`. The scratch vector is drained (its
/// capacity survives for the next train).
///
/// This is the fast path next to [`Reassembler::offer`]: because the whole
/// train arrives at once there is no partial-message state to keep, so it
/// skips the per-message `HashMap` entry and chunk-list allocation the
/// incremental path pays. The train must be self-consistent — one
/// `msg_id`, contiguous offsets from zero, totalling `total_len` — or
/// [`TsoError::InconsistentFragment`] is returned.
pub fn reassemble_train(
    segs: &mut Vec<Segment>,
    pool: &mut crate::SkbPool,
) -> Result<Skb, TsoError> {
    let Some(first) = segs.first() else {
        return Err(TsoError::EmptyMessage);
    };
    let (msg_id, total_len) = (first.hdr.msg_id, first.hdr.total_len);
    let mut expected_offset = 0u32;
    for seg in segs.iter() {
        if seg.hdr.msg_id != msg_id
            || seg.hdr.total_len != total_len
            || seg.hdr.offset != expected_offset
        {
            return Err(TsoError::InconsistentFragment);
        }
        expected_offset += seg.chunk.len() as u32;
    }
    if expected_offset != total_len {
        return Err(TsoError::InconsistentFragment);
    }
    let mut skb = pool.acquire(0);
    for seg in segs.drain(..) {
        let pages = seg.pages();
        if let Err(e) = skb.add_frag_spanning(seg.chunk, pages) {
            // Hand the storage back before reporting: a malformed train
            // must not leak pool accounting.
            let _ = pool.release(skb);
            return Err(e.into());
        }
    }
    Ok(skb)
}

/// Number of fragments a message of `len` bytes produces at `mtu`.
pub fn fragment_count(len: usize, mtu: usize) -> usize {
    len.div_ceil(mtu)
}

#[derive(Clone)]
struct Partial {
    total_len: u32,
    received: u32,
    chunks: Vec<Segment>,
}

/// Reassembles TSO-segmented messages into zero-copy [`Skb`]s, tolerating
/// out-of-order and duplicated fragments.
///
/// Keyed by `(flow, msg_id)` where `flow` identifies the sender (the caller
/// usually passes a NIC or device index).
///
/// # Examples
///
/// ```
/// use vrio_net::{segment_message, Reassembler, MTU_VRIO_JUMBO};
/// use bytes::Bytes;
///
/// let msg = Bytes::from((0..50_000u32).map(|i| i as u8).collect::<Vec<_>>());
/// let mut segs = segment_message(msg.clone(), MTU_VRIO_JUMBO, 7).unwrap();
/// segs.reverse(); // arrive out of order
///
/// let mut r = Reassembler::new();
/// let mut done = None;
/// for seg in segs {
///     if let Some(skb) = r.offer(0, seg).unwrap() {
///         done = Some(skb);
///     }
/// }
/// let mut skb = done.expect("message completed");
/// assert_eq!(skb.bytes_copied(), 0); // zero-copy reassembly
/// assert_eq!(skb.linearize(), msg);
/// ```
#[derive(Default, Clone)]
pub struct Reassembler {
    partials: HashMap<(u64, u32), Partial>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Number of messages currently being reassembled.
    pub fn in_progress(&self) -> usize {
        self.partials.len()
    }

    /// Offers one fragment of flow `flow`. Returns the completed message as
    /// a zero-copy SKB when this fragment completes it.
    pub fn offer(&mut self, flow: u64, seg: Segment) -> Result<Option<Skb>, TsoError> {
        let key = (flow, seg.hdr.msg_id);
        let total_len = seg.hdr.total_len;
        if seg.hdr.offset + seg.chunk.len() as u32 > total_len {
            return Err(TsoError::InconsistentFragment);
        }
        let partial = self.partials.entry(key).or_insert_with(|| Partial {
            total_len,
            received: 0,
            chunks: Vec::new(),
        });
        if partial.total_len != total_len {
            return Err(TsoError::InconsistentFragment);
        }
        if partial
            .chunks
            .iter()
            .any(|c| c.hdr.offset == seg.hdr.offset)
        {
            return Ok(None); // duplicate: drop silently, like TCP
        }
        partial.received += seg.chunk.len() as u32;
        partial.chunks.push(seg);
        if partial.received < partial.total_len {
            return Ok(None);
        }
        // Complete: build the SKB in offset order, zero copy.
        let mut partial = self.partials.remove(&key).expect("just inserted");
        partial.chunks.sort_by_key(|c| c.hdr.offset);
        let mut skb = Skb::with_headroom(0);
        for c in partial.chunks {
            let pages = c.pages();
            skb.add_frag_spanning(c.chunk, pages)?;
        }
        Ok(Some(skb))
    }

    /// Drops all partial state for `flow` (e.g. after a device reset).
    pub fn reset_flow(&mut self, flow: u64) {
        self.partials.retain(|&(f, _), _| f != flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FakeTcpHdr {
            msg_id: 77,
            offset: 8100,
            total_len: 65_536,
        };
        assert_eq!(FakeTcpHdr::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(FakeTcpHdr::decode(&[0u8; 39]).is_none());
        let mut b = FakeTcpHdr {
            msg_id: 1,
            offset: 0,
            total_len: 1,
        }
        .encode();
        b[0] = 0x46; // wrong IHL
        assert!(FakeTcpHdr::decode(&b).is_none());
    }

    #[test]
    fn segment_encode_decode_roundtrip() {
        let seg = Segment {
            hdr: FakeTcpHdr {
                msg_id: 3,
                offset: 100,
                total_len: 200,
            },
            chunk: Bytes::from_static(b"hello world"),
        };
        assert_eq!(Segment::decode(seg.encode()).unwrap(), seg);
    }

    #[test]
    fn corrupted_segment_fails_checksum() {
        let seg = Segment {
            hdr: FakeTcpHdr {
                msg_id: 1,
                offset: 0,
                total_len: 100,
            },
            chunk: Bytes::from(vec![7u8; 100]),
        };
        let wire = seg.encode();
        assert!(Segment::decode(wire.clone()).is_some());
        // Flip one payload byte: the checksum catches it.
        let mut bad = wire.to_vec();
        bad[60] ^= 0x01;
        assert!(Segment::decode(Bytes::from(bad)).is_none());
        // Flip a header byte (the offset field): also caught.
        let mut bad = wire.to_vec();
        bad[25] ^= 0x80;
        assert!(Segment::decode(Bytes::from(bad)).is_none());
    }

    #[test]
    fn checksum_reference_values() {
        // RFC 1071 example: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
        // Odd-length input pads with zero.
        assert_eq!(internet_checksum(&[0xFF]), !0xff00u16);
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn paper_fragment_arithmetic_at_mtu_8100() {
        // 64KB - 8*8100 = 736 (paper section 4.4).
        assert_eq!(MTU_VRIO_JUMBO, 8100);
        assert_eq!(65_536 - 8 * 8100, 736);
        let segs = segment_message(Bytes::from(vec![0u8; 65_536]), 8100, 0).unwrap();
        assert_eq!(segs.len(), 9);
        for s in &segs[..8] {
            assert_eq!(s.chunk.len(), 8100);
            assert_eq!(s.pages(), 2);
        }
        assert_eq!(segs[8].chunk.len(), 736);
        assert_eq!(segs[8].pages(), 1);
        assert_eq!(segs.iter().map(Segment::pages).sum::<usize>(), 17);
    }

    #[test]
    fn mtu_constants_match_paper() {
        // Paper §4.4: vRIO's jumbo MTU is 8100, not the 1500 standard nor
        // the 9000 jumbo maximum, because a full fragment plus its fake TCP
        // header must fit in two 4 KB pages.
        assert_eq!(MTU_VRIO_JUMBO, 8100);
        const { assert!(MTU_VRIO_JUMBO + FAKE_TCP_HDR_SIZE <= 2 * PAGE_SIZE) };
        const { assert!(9000 + FAKE_TCP_HDR_SIZE > 2 * PAGE_SIZE) };
        // ...and so a maximal 64 KB message maps into one SKB's 17 fragments.
        let segs = segment_message(Bytes::from(vec![0u8; MAX_TSO_MSG]), MTU_VRIO_JUMBO, 0).unwrap();
        let pages: usize = segs.iter().map(Segment::pages).sum();
        assert!(pages <= crate::MAX_SKB_FRAGS);
    }

    #[test]
    fn mtu_9000_would_break_two_page_invariant() {
        // The paper's reason for NOT using the maximal jumbo frame: a
        // 9000-byte fragment + headers exceeds two 4KB pages.
        let segs = segment_message(Bytes::from(vec![0u8; 18_000]), 9000, 0).unwrap();
        assert!(segs[0].pages() > 2);
    }

    #[test]
    fn small_message_single_fragment() {
        let segs = segment_message(Bytes::from_static(b"tiny"), 8100, 5).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].hdr.offset, 0);
        assert_eq!(segs[0].hdr.total_len, 4);
    }

    #[test]
    fn oversized_and_empty_messages_rejected() {
        let err = segment_message(Bytes::from(vec![0u8; MAX_TSO_MSG + 1]), 8100, 0).unwrap_err();
        assert_eq!(
            err,
            TsoError::MessageTooLong {
                len: MAX_TSO_MSG + 1
            }
        );
        assert_eq!(
            segment_message(Bytes::new(), 8100, 0).unwrap_err(),
            TsoError::EmptyMessage
        );
    }

    #[test]
    fn reassembly_in_order() {
        let msg = Bytes::from((0..20_000).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let segs = segment_message(msg.clone(), 8100, 9).unwrap();
        let mut r = Reassembler::new();
        let mut out = None;
        for s in segs {
            if let Some(skb) = r.offer(1, s).unwrap() {
                out = Some(skb);
            }
        }
        assert_eq!(out.unwrap().linearize(), msg);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn reassembly_ignores_duplicates() {
        let msg = Bytes::from(vec![9u8; 10_000]);
        let segs = segment_message(msg.clone(), 8100, 2).unwrap();
        let mut r = Reassembler::new();
        assert!(r.offer(0, segs[0].clone()).unwrap().is_none());
        assert!(r.offer(0, segs[0].clone()).unwrap().is_none()); // dup
        let skb = r.offer(0, segs[1].clone()).unwrap().expect("complete");
        assert_eq!(skb.len(), 10_000);
    }

    #[test]
    fn interleaved_messages_and_flows() {
        let m1 = Bytes::from(vec![1u8; 16_000]);
        let m2 = Bytes::from(vec![2u8; 16_000]);
        let s1 = segment_message(m1.clone(), 8100, 1).unwrap();
        let s2 = segment_message(m2.clone(), 8100, 1).unwrap(); // same id, different flow
        let mut r = Reassembler::new();
        assert!(r.offer(0, s1[0].clone()).unwrap().is_none());
        assert!(r.offer(1, s2[0].clone()).unwrap().is_none());
        assert_eq!(r.in_progress(), 2);
        let d1 = r.offer(0, s1[1].clone()).unwrap().unwrap();
        let d2 = r.offer(1, s2[1].clone()).unwrap().unwrap();
        assert_eq!(d1.frags().next().unwrap().data[0], 1);
        assert_eq!(d2.frags().next().unwrap().data[0], 2);
    }

    #[test]
    fn inconsistent_fragment_detected() {
        let mut r = Reassembler::new();
        let good = Segment {
            hdr: FakeTcpHdr {
                msg_id: 1,
                offset: 0,
                total_len: 100,
            },
            chunk: Bytes::from(vec![0u8; 50]),
        };
        r.offer(0, good).unwrap();
        let bad = Segment {
            hdr: FakeTcpHdr {
                msg_id: 1,
                offset: 50,
                total_len: 200,
            }, // wrong total
            chunk: Bytes::from(vec![0u8; 50]),
        };
        assert_eq!(r.offer(0, bad).unwrap_err(), TsoError::InconsistentFragment);
        let overflow = Segment {
            hdr: FakeTcpHdr {
                msg_id: 2,
                offset: 90,
                total_len: 100,
            },
            chunk: Bytes::from(vec![0u8; 50]), // runs past total
        };
        assert_eq!(
            r.offer(0, overflow).unwrap_err(),
            TsoError::InconsistentFragment
        );
    }

    #[test]
    fn reset_flow_clears_partials() {
        let mut r = Reassembler::new();
        let seg = Segment {
            hdr: FakeTcpHdr {
                msg_id: 1,
                offset: 0,
                total_len: 100,
            },
            chunk: Bytes::from(vec![0u8; 50]),
        };
        r.offer(3, seg.clone()).unwrap();
        r.offer(4, seg).unwrap();
        r.reset_flow(3);
        assert_eq!(r.in_progress(), 1);
    }

    #[test]
    fn wire_roundtrip_reassembly_copies_no_payload_bytes() {
        // Full encap→decap audit: segment, serialize each segment to wire
        // bytes, decode (checksum verified without a scratch copy),
        // reassemble, and verify content — with the SKB's copy counter at
        // zero throughout. Only `Segment::encode` copies (it *builds* the
        // wire image, as the NIC's DMA engine would).
        let msg = Bytes::from((0..60_000u32).map(|i| (i % 253) as u8).collect::<Vec<_>>());
        let segs = segment_message(msg.clone(), 8100, 11).unwrap();
        let mut r = Reassembler::new();
        let mut done = None;
        for seg in segs {
            let decoded = Segment::decode(seg.encode()).expect("checksum verifies");
            if let Some(skb) = r.offer(0, decoded).unwrap() {
                done = Some(skb);
            }
        }
        let skb = done.expect("message completed");
        assert_eq!(skb.bytes_copied(), 0);
        assert!(skb.eq_contents(&msg));
        assert_eq!(skb.bytes_copied(), 0); // the comparison copied nothing either
    }

    #[test]
    fn fragment_count_helper() {
        assert_eq!(fragment_count(65_536, 8100), 9);
        assert_eq!(fragment_count(8100, 8100), 1);
        assert_eq!(fragment_count(8101, 8100), 2);
        assert_eq!(fragment_count(1, 1500), 1);
    }

    #[test]
    fn train_roundtrip_matches_incremental_reassembly() {
        let msg = Bytes::from((0..50_000u32).map(|i| i as u8).collect::<Vec<_>>());
        let mut pool = crate::SkbPool::new();
        let mut scratch = Vec::new();

        // Batched path: segment into the scratch, reassemble the whole
        // train in one call.
        segment_message_into(msg.clone(), 8100, 3, &mut scratch).unwrap();
        let skb = reassemble_train(&mut scratch, &mut pool).unwrap();
        assert!(scratch.is_empty());
        assert_eq!(skb.bytes_copied(), 0);
        assert!(skb.eq_contents(&msg));

        // Incremental path for comparison.
        let mut r = Reassembler::new();
        let mut done = None;
        for seg in segment_message(msg.clone(), 8100, 3).unwrap() {
            if let Some(s) = r.offer(0, seg).unwrap() {
                done = Some(s);
            }
        }
        let inc = done.unwrap();
        assert_eq!(inc.frag_slots(), skb.frag_slots());
        assert!(inc.eq_contents(&msg));

        // Returning the SKB and re-running the train recycles all storage.
        pool.release(skb).unwrap();
        segment_message_into(msg.clone(), 8100, 4, &mut scratch).unwrap();
        let skb2 = reassemble_train(&mut scratch, &mut pool).unwrap();
        assert_eq!(pool.recycled(), 1);
        assert!(skb2.eq_contents(&msg));
        pool.release(skb2).unwrap();
        pool.leak_check().unwrap();
    }

    #[test]
    fn train_rejects_inconsistent_and_leaks_nothing() {
        let msg = Bytes::from(vec![1u8; 20_000]);
        let mut pool = crate::SkbPool::new();
        let mut segs = Vec::new();
        segment_message_into(msg.clone(), 8100, 9, &mut segs).unwrap();
        segs.swap(0, 1); // out of order: the batched path demands in-order trains
        assert_eq!(
            reassemble_train(&mut segs, &mut pool).unwrap_err(),
            TsoError::InconsistentFragment
        );
        segs.clear();
        assert_eq!(
            reassemble_train(&mut segs, &mut pool).unwrap_err(),
            TsoError::EmptyMessage
        );
        // A truncated train (missing tail) is inconsistent too.
        segment_message_into(msg, 8100, 9, &mut segs).unwrap();
        segs.pop();
        assert_eq!(
            reassemble_train(&mut segs, &mut pool).unwrap_err(),
            TsoError::InconsistentFragment
        );
        pool.leak_check().unwrap();
    }
}
