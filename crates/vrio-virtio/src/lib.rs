//! # vrio-virtio
//!
//! The virtio protocol substrate of the vRIO reproduction: a faithful
//! implementation of the virtio 1.0 *split virtqueue* over a byte-addressed
//! [`GuestMemory`], plus the virtio-net and virtio-blk request formats and
//! feature negotiation.
//!
//! All four I/O models the paper compares (baseline virtio, Elvis, SRIOV,
//! and vRIO itself) speak this protocol at the guest boundary; they differ
//! only in *who* processes the rings and *where* (paper §2, Figure 4). The
//! vRIO transport reuses the virtio metadata verbatim when encapsulating
//! requests for the remote IOhost (§4.1).
//!
//! ## Quick tour
//!
//! ```
//! use vrio_virtio::{
//!     BlkHdr, BlkReqKind, DeviceQueue, DriverQueue, GuestAddr, GuestMemory,
//!     VirtqueueLayout, BLK_HDR_SIZE, BLK_S_OK,
//! };
//!
//! // One shared guest-physical memory, a queue laid out inside it.
//! let mut mem = GuestMemory::new(0x10000);
//! let layout = VirtqueueLayout::new(16, GuestAddr(0x100));
//! let mut driver = DriverQueue::new(layout);
//! let mut device = DeviceQueue::new(layout);
//!
//! // Guest publishes a block write: header + payload readable, status writable.
//! let hdr = BlkHdr::new(BlkReqKind::Out, 8);
//! mem.write(GuestAddr(0x4000), &hdr.encode()).unwrap();
//! mem.write(GuestAddr(0x4100), &[0xAB; 512]).unwrap();
//! driver
//!     .add_chain(
//!         &mut mem,
//!         &[(GuestAddr(0x4000), 16), (GuestAddr(0x4100), 512)],
//!         &[(GuestAddr(0x4400), 1)],
//!     )
//!     .unwrap();
//!
//! // Back-end pops, decodes and completes it.
//! let chain = device.pop_avail(&mem).unwrap().unwrap();
//! let mut hdr = [0; BLK_HDR_SIZE];
//! chain.read_readable(&mem, 0, &mut hdr).unwrap();
//! let parsed = BlkHdr::decode(&hdr).unwrap();
//! assert_eq!(parsed.sector, 8);
//! chain.write_writable_parts(&mut mem, &[&[BLK_S_OK]]).unwrap();
//! device.push_used(&mut mem, chain.head, 1).unwrap();
//! assert!(driver.poll_used(&mem).unwrap().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blk;
mod features;
mod mem;
mod net;
mod packed;
mod queue;
mod ring;

pub use blk::{
    is_sector_aligned, BlkHdr, BlkReqKind, BLK_HDR_SIZE, BLK_S_IOERR, BLK_S_OK, BLK_S_UNSUPP,
    BLK_T_FLUSH, BLK_T_IN, BLK_T_OUT, SECTOR_SIZE,
};
pub use features::{Feature, FeatureSet};
pub use mem::{GuestAddr, GuestMemory, MemError, PAGE_SIZE};
pub use net::{NetHdr, GSO_NONE, GSO_TCPV4, NET_HDR_SIZE};
pub use packed::{
    PackedDeviceQueue, PackedDriverQueue, PackedLayout, PACKED_DESC_F_AVAIL, PACKED_DESC_F_USED,
    RING_EVENT_FLAGS_DESC, RING_EVENT_FLAGS_DISABLE, RING_EVENT_FLAGS_ENABLE,
};
pub use queue::{
    ring_pair, DeviceRing, DriverRing, IndirectAudit, IndirectTables, RingConfig, RingLayout,
    MAX_INDIRECT_SEGS,
};
pub use ring::{
    vring_need_event, DescChain, DeviceQueue, DriverQueue, QueueError, RingOps, UsedElem,
    VirtqueueLayout, DESC_F_INDIRECT, DESC_F_NEXT, DESC_F_WRITE,
};
