//! # vrio-block
//!
//! The block-device substrate of the vRIO reproduction: an in-memory
//! [`Ramdisk`] holding real bytes, [`DeviceProfile`]s for the devices the
//! paper measures (ramdisk, SATA SSD, FusionIO PCIe SSD), the
//! [`BlockGate`] implementing the guest disk-scheduler invariant that
//! vRIO's retransmission protocol relies on (§4.5), and the unaligned-edge
//! count behind the zero-copy write path (§4.4). The disk queue itself is
//! a FIFO disk resource of the `vrio` crate's testbed.
//!
//! ## Example: the zero-copy write discipline
//!
//! ```
//! use vrio_block::{unaligned_edge_bytes, Ramdisk};
//!
//! // A DMA buffer lands at an unaligned device offset. The worker writes
//! // the aligned interior [512, 5120) directly and copies only the edges
//! // [300, 512) and [5120, 5300) (§4.4).
//! let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
//! let copied = unaligned_edge_bytes(300, payload.len());
//! assert_eq!(copied, 212 + 180);
//! assert!(payload.len() - copied > 8 * copied);
//!
//! let mut disk = Ramdisk::new(1 << 20);
//! disk.write(300, &payload).unwrap();
//! assert_eq!(&disk.read(300, 5000).unwrap()[..], &payload[..]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backing;
mod gate;
mod request;

pub use backing::{BlockError, DeviceProfile, Ramdisk};
pub use gate::BlockGate;
pub use request::{unaligned_edge_bytes, BlockKind, BlockRequest, RequestId};
