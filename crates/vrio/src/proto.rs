//! The vRIO encapsulation protocol.
//!
//! Every message between an IOclient's transport driver and the I/O
//! hypervisor is a raw-Ethernet payload of
//! `[VrioHdr][virtio metadata + data]`, optionally TSO-segmented with the
//! fake TCP header from `vrio-net`. The header reuses the virtio protocol's
//! metadata ("we directly reuse the virtio protocol", §4.1): front-end
//! device identifier, request type, request size, and — for block traffic —
//! the unique request id that drives retransmission (§4.5).

use bytes::Bytes;

/// Size of an encoded [`VrioHdr`].
pub const VRIO_HDR_SIZE: usize = 24;

/// What a vRIO message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VrioMsgKind {
    /// A net front-end transmit (IOclient -> IOhost -> world).
    NetTx,
    /// A net packet destined for a front-end (world -> IOhost -> IOclient).
    NetRx,
    /// A block request (IOclient -> IOhost).
    BlkReq,
    /// A block response (IOhost -> IOclient).
    BlkResp,
    /// Control plane: create a paravirtual device at the IOclient.
    CtrlCreateDevice,
    /// Control plane: destroy a paravirtual device.
    CtrlDestroyDevice,
    /// Control plane acknowledgement.
    CtrlAck,
    /// Liveness probe from an IOclient's VMhost to the IOhost; the payload
    /// is empty and `request_id` carries the probe sequence number.
    Heartbeat,
    /// The IOhost's answer to a [`VrioMsgKind::Heartbeat`], echoing the
    /// probe sequence number.
    HeartbeatAck,
}

impl VrioMsgKind {
    fn to_wire(self) -> u8 {
        match self {
            VrioMsgKind::NetTx => 1,
            VrioMsgKind::NetRx => 2,
            VrioMsgKind::BlkReq => 3,
            VrioMsgKind::BlkResp => 4,
            VrioMsgKind::CtrlCreateDevice => 5,
            VrioMsgKind::CtrlDestroyDevice => 6,
            VrioMsgKind::CtrlAck => 7,
            VrioMsgKind::Heartbeat => 8,
            VrioMsgKind::HeartbeatAck => 9,
        }
    }

    fn from_wire(v: u8) -> Option<Self> {
        Some(match v {
            1 => VrioMsgKind::NetTx,
            2 => VrioMsgKind::NetRx,
            3 => VrioMsgKind::BlkReq,
            4 => VrioMsgKind::BlkResp,
            5 => VrioMsgKind::CtrlCreateDevice,
            6 => VrioMsgKind::CtrlDestroyDevice,
            7 => VrioMsgKind::CtrlAck,
            8 => VrioMsgKind::Heartbeat,
            9 => VrioMsgKind::HeartbeatAck,
            _ => return None,
        })
    }
}

/// Identifies a front-end device across the rack: client id plus per-client
/// device index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId {
    /// The IOclient (VM or bare-metal host) owning the device.
    pub client: u32,
    /// The device index within the client.
    pub device: u16,
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}.{}", self.client, self.device)
    }
}

/// The vRIO message header.
///
/// # Examples
///
/// ```
/// use vrio::{DeviceId, VrioHdr, VrioMsgKind};
///
/// let hdr = VrioHdr {
///     kind: VrioMsgKind::BlkReq,
///     device: DeviceId { client: 3, device: 1 },
///     request_id: 42,
///     len: 4096,
/// };
/// let bytes = hdr.encode();
/// assert_eq!(VrioHdr::decode(&bytes).unwrap(), hdr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VrioHdr {
    /// Message kind.
    pub kind: VrioMsgKind,
    /// Originating/target front-end device.
    pub device: DeviceId,
    /// Unique request identifier; fresh per retransmission for block
    /// traffic (§4.5), 0 for net traffic.
    pub request_id: u64,
    /// Payload length following the header.
    pub len: u32,
}

impl VrioHdr {
    /// Encodes to the wire layout.
    pub fn encode(&self) -> [u8; VRIO_HDR_SIZE] {
        let mut b = [0u8; VRIO_HDR_SIZE];
        b[0] = b'V'; // magic
        b[1] = self.kind.to_wire();
        b[2..6].copy_from_slice(&self.device.client.to_le_bytes());
        b[6..8].copy_from_slice(&self.device.device.to_le_bytes());
        b[8..16].copy_from_slice(&self.request_id.to_le_bytes());
        b[16..20].copy_from_slice(&self.len.to_le_bytes());
        b
    }

    /// Decodes from wire bytes; `None` if short or malformed. Bytes
    /// 20..24 are reserved and must be zero on the wire.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() < VRIO_HDR_SIZE || b[0] != b'V' {
            return None;
        }
        if b[20..VRIO_HDR_SIZE] != [0u8; 4] {
            return None;
        }
        Some(VrioHdr {
            kind: VrioMsgKind::from_wire(b[1])?,
            device: DeviceId {
                client: u32::from_le_bytes([b[2], b[3], b[4], b[5]]),
                device: u16::from_le_bytes([b[6], b[7]]),
            },
            request_id: u64::from_le_bytes(b[8..16].try_into().expect("checked")),
            len: u32::from_le_bytes([b[16], b[17], b[18], b[19]]),
        })
    }
}

/// A full vRIO message: header plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VrioMsg {
    /// The header.
    pub hdr: VrioHdr,
    /// Payload (virtio metadata + data), zero-copy handle.
    pub payload: Bytes,
}

impl VrioMsg {
    /// Creates a message; the header's `len` is set from the payload.
    pub fn new(kind: VrioMsgKind, device: DeviceId, request_id: u64, payload: Bytes) -> Self {
        VrioMsg {
            hdr: VrioHdr {
                kind,
                device,
                request_id,
                len: payload.len() as u32,
            },
            payload,
        }
    }

    /// Serializes header + payload into one buffer.
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::with_capacity(VRIO_HDR_SIZE + self.payload.len());
        b.extend_from_slice(&self.hdr.encode());
        b.extend_from_slice(&self.payload);
        Bytes::from(b)
    }

    /// Encodes in place a message whose payload already sits in `buf`
    /// after [`VRIO_HDR_SIZE`] bytes of room: writes the header there, so
    /// `buf` holds what [`VrioMsg::new`] plus [`VrioMsg::encode`] return
    /// for that payload, with the payload never copied.
    ///
    /// # Panics
    ///
    /// If `buf` is shorter than a header.
    pub fn encode_in_place(kind: VrioMsgKind, device: DeviceId, request_id: u64, buf: &mut [u8]) {
        let hdr = VrioHdr {
            kind,
            device,
            request_id,
            len: (buf.len() - VRIO_HDR_SIZE) as u32,
        };
        buf[..VRIO_HDR_SIZE].copy_from_slice(&hdr.encode());
    }

    /// Parses a buffer into a message (payload is a zero-copy slice).
    /// Returns `None` on a malformed header or when the header's `len`
    /// disagrees with the actual payload length in either direction — a
    /// truncated *or* padded frame is corrupt, not salvageable.
    pub fn decode(mut wire: Bytes) -> Option<VrioMsg> {
        let hdr: [u8; VRIO_HDR_SIZE] = wire.get(..VRIO_HDR_SIZE)?.try_into().expect("header-sized");
        let payload = wire.split_off(VRIO_HDR_SIZE);
        VrioMsg::decode_parts(&hdr, payload)
    }

    /// Parses a message that travels as its encoded header beside its
    /// payload, as a vRIO NetRx frame does, with the checks of
    /// [`VrioMsg::decode`]; nothing is copied or allocated.
    pub fn decode_parts(hdr: &[u8; VRIO_HDR_SIZE], payload: Bytes) -> Option<VrioMsg> {
        let hdr = VrioHdr::decode(hdr)?;
        if payload.len() != hdr.len as usize {
            return None;
        }
        Some(VrioMsg { hdr, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_in_place_is_encoding() {
        let device = DeviceId {
            client: 2,
            device: 1,
        };
        for payload in [&[][..], &[0xA5; 100][..]] {
            let msg = VrioMsg::new(
                VrioMsgKind::BlkReq,
                device,
                9,
                Bytes::from(payload.to_vec()),
            );
            let mut buf = vec![0xFF; VRIO_HDR_SIZE];
            buf.extend_from_slice(payload);
            VrioMsg::encode_in_place(VrioMsgKind::BlkReq, device, 9, &mut buf);
            assert_eq!(buf, &msg.encode()[..]);
            assert_eq!(VrioMsg::decode(Bytes::from(buf)), Some(msg));
        }
    }

    #[test]
    fn header_roundtrip_all_kinds() {
        for kind in [
            VrioMsgKind::NetTx,
            VrioMsgKind::NetRx,
            VrioMsgKind::BlkReq,
            VrioMsgKind::BlkResp,
            VrioMsgKind::CtrlCreateDevice,
            VrioMsgKind::CtrlDestroyDevice,
            VrioMsgKind::CtrlAck,
            VrioMsgKind::Heartbeat,
            VrioMsgKind::HeartbeatAck,
        ] {
            let hdr = VrioHdr {
                kind,
                device: DeviceId {
                    client: 7,
                    device: 2,
                },
                request_id: u64::MAX,
                len: 123,
            };
            assert_eq!(VrioHdr::decode(&hdr.encode()).unwrap(), hdr);
        }
    }

    #[test]
    fn bad_magic_and_kind_rejected() {
        let hdr = VrioHdr {
            kind: VrioMsgKind::NetTx,
            device: DeviceId {
                client: 0,
                device: 0,
            },
            request_id: 0,
            len: 0,
        };
        let mut b = hdr.encode();
        b[0] = b'X';
        assert!(VrioHdr::decode(&b).is_none());
        let mut b = hdr.encode();
        b[1] = 200;
        assert!(VrioHdr::decode(&b).is_none());
        assert!(VrioHdr::decode(&[0u8; 10]).is_none());
    }

    #[test]
    fn message_roundtrip() {
        let m = VrioMsg::new(
            VrioMsgKind::BlkReq,
            DeviceId {
                client: 1,
                device: 0,
            },
            99,
            Bytes::from_static(b"payload bytes"),
        );
        let back = VrioMsg::decode(m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.hdr.len, 13);
    }

    #[test]
    fn a_header_beside_its_payload_decodes_as_the_encoded_message() {
        let m = VrioMsg::new(
            VrioMsgKind::NetRx,
            DeviceId {
                client: 3,
                device: 0,
            },
            0,
            Bytes::from_static(b"netperf"),
        );
        let hdr = m.hdr.encode();
        assert_eq!(
            VrioMsg::decode_parts(&hdr, m.payload.clone()),
            Some(m.clone())
        );
        // A payload longer or shorter than its header's `len` is corrupt.
        for len in [6, 8] {
            let payload = Bytes::from(vec![b'x'; len]);
            assert_eq!(VrioMsg::decode_parts(&hdr, payload), None, "{len} bytes");
        }
    }

    #[test]
    fn truncated_message_rejected() {
        let m = VrioMsg::new(
            VrioMsgKind::NetTx,
            DeviceId {
                client: 1,
                device: 0,
            },
            0,
            Bytes::from(vec![0u8; 100]),
        );
        let wire = m.encode();
        let truncated = wire.slice(0..wire.len() - 1);
        assert!(VrioMsg::decode(truncated).is_none());
    }

    #[test]
    fn padded_message_rejected() {
        // A frame longer than the header claims is corrupt too: accepting
        // it would silently deliver a payload the sender never framed.
        let m = VrioMsg::new(
            VrioMsgKind::BlkResp,
            DeviceId {
                client: 2,
                device: 1,
            },
            5,
            Bytes::from(vec![7u8; 32]),
        );
        let mut padded = m.encode().to_vec();
        padded.push(0xFF);
        assert!(VrioMsg::decode(Bytes::from(padded)).is_none());
    }

    #[test]
    fn nonzero_reserved_bytes_rejected() {
        let hdr = VrioHdr {
            kind: VrioMsgKind::Heartbeat,
            device: DeviceId {
                client: 1,
                device: 0,
            },
            request_id: 17,
            len: 0,
        };
        let mut b = hdr.encode();
        assert!(VrioHdr::decode(&b).is_some());
        b[21] = 1;
        assert!(VrioHdr::decode(&b).is_none());
    }

    #[test]
    fn device_id_display() {
        assert_eq!(
            DeviceId {
                client: 4,
                device: 1
            }
            .to_string(),
            "dev4.1"
        );
    }
}
