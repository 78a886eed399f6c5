//! Backing stores: a real in-memory ramdisk plus performance profiles for
//! the devices the paper measures against (ramdisk, SATA SSD, FusionIO
//! PCIe SSD).

use bytes::Bytes;
use vrio_sim::SimDuration;
use vrio_virtio::{GuestAddr, GuestMemory};

use crate::request::BlockKind;

/// Errors raised by backing-store access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The access runs past the end of the device.
    OutOfRange {
        /// Byte offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The device requires sector-aligned access (O_DIRECT semantics).
    Unaligned {
        /// Byte offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
    },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::OutOfRange {
                offset,
                len,
                capacity,
            } => {
                write!(
                    f,
                    "block access [{offset}, +{len}) beyond capacity {capacity}"
                )
            }
            BlockError::Unaligned { offset, len } => {
                write!(f, "unaligned O_DIRECT access [{offset}, +{len})")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// An in-memory block device holding real bytes — the "1 GB ramdisk per VM"
/// of the paper's Filebench experiments (§5).
///
/// The bytes live in the same lazily paged store as guest memory, so a
/// ramdisk costs only the 4 KB pages that have been written.
///
/// # Examples
///
/// ```
/// use vrio_block::Ramdisk;
///
/// let mut disk = Ramdisk::new(1 << 20);
/// disk.write(4096, &[0xAA; 512]).unwrap();
/// assert_eq!(&disk.read(4096, 512).unwrap()[..4], &[0xAA; 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Ramdisk {
    store: GuestMemory,
    require_aligned: bool,
}

impl Ramdisk {
    /// Creates a zero-filled ramdisk of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Ramdisk {
            store: GuestMemory::new(capacity),
            require_aligned: false,
        }
    }

    /// Creates a ramdisk that rejects unaligned access (O_DIRECT mode).
    pub fn new_direct(capacity: usize) -> Self {
        Ramdisk {
            store: GuestMemory::new(capacity),
            require_aligned: true,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.store.size()
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), BlockError> {
        if self.require_aligned && !vrio_virtio::is_sector_aligned(offset, len) {
            return Err(BlockError::Unaligned { offset, len });
        }
        if offset.checked_add(len).map(|end| end <= self.capacity()) != Some(true) {
            return Err(BlockError::OutOfRange {
                offset,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    /// Reads `len` bytes at byte `offset`.
    pub fn read(&self, offset: u64, len: u64) -> Result<Bytes, BlockError> {
        self.check(offset, len)?;
        Ok(self
            .store
            .read_bytes(GuestAddr(offset), len)
            .expect("range checked"))
    }

    /// Writes `data` at byte `offset`.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        self.check(offset, data.len() as u64)?;
        self.store
            .write(GuestAddr(offset), data)
            .expect("range checked");
        Ok(())
    }
}

/// Performance profile of a block device: fixed per-request latency plus a
/// bandwidth term.
///
/// # Examples
///
/// ```
/// use vrio_block::{DeviceProfile, BlockKind};
/// use vrio_sim::SimDuration;
///
/// let ssd = DeviceProfile::sata_ssd();
/// let t = ssd.service_time(BlockKind::Read, 4096);
/// assert!(t > ssd.service_time(BlockKind::Read, 512));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Fixed latency for a read request.
    pub read_latency: SimDuration,
    /// Fixed latency for a write request.
    pub write_latency: SimDuration,
    /// Sustained bandwidth in gigabytes per second.
    pub gbytes_per_sec: f64,
    /// Human-readable name for reports.
    pub name: &'static str,
}

impl DeviceProfile {
    /// DRAM-backed ramdisk: the paper's stand-in for "future, faster I/O
    /// devices" (§5). Sub-microsecond access, memory bandwidth.
    pub fn ramdisk() -> Self {
        DeviceProfile {
            read_latency: SimDuration::nanos(700),
            write_latency: SimDuration::nanos(700),
            gbytes_per_sec: 10.0,
            name: "ramdisk",
        }
    }

    /// A SATA SSD of the 2015 era (the paper's secondary block target).
    pub fn sata_ssd() -> Self {
        DeviceProfile {
            read_latency: SimDuration::micros(90),
            write_latency: SimDuration::micros(60),
            gbytes_per_sec: 0.5,
            name: "sata-ssd",
        }
    }

    /// FusionIO SX300 PCIe SSD: 2.7 GB/s, tens-of-microseconds latency
    /// (§3's device-consolidation candidate).
    pub fn pcie_ssd() -> Self {
        DeviceProfile {
            read_latency: SimDuration::micros(20),
            write_latency: SimDuration::micros(15),
            gbytes_per_sec: 2.7,
            name: "pcie-ssd",
        }
    }

    /// Service time for a request of `bytes` of the given kind.
    pub fn service_time(&self, kind: BlockKind, bytes: u64) -> SimDuration {
        let fixed = match kind {
            BlockKind::Read => self.read_latency,
            BlockKind::Write => self.write_latency,
            BlockKind::Flush => self.write_latency * 2u64,
        };
        let xfer = SimDuration::from_secs_f64(bytes as f64 / (self.gbytes_per_sec * 1e9));
        fixed + xfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramdisk_roundtrip() {
        let mut d = Ramdisk::new(8192);
        d.write(100, b"hello").unwrap();
        assert_eq!(&d.read(100, 5).unwrap()[..], b"hello");
        assert_eq!(d.capacity(), 8192);
    }

    #[test]
    fn ramdisk_bounds() {
        let mut d = Ramdisk::new(1024);
        assert!(matches!(
            d.read(1020, 8),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.write(1024, &[1]),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(d.read(u64::MAX, 1).is_err()); // overflow safe
    }

    #[test]
    fn direct_mode_rejects_unaligned() {
        let mut d = Ramdisk::new_direct(8192);
        assert!(matches!(
            d.read(100, 512),
            Err(BlockError::Unaligned { .. })
        ));
        assert!(matches!(
            d.write(512, &[0; 100]),
            Err(BlockError::Unaligned { .. })
        ));
        assert!(d.write(512, &[0; 512]).is_ok());
        assert!(d.read(0, 4096).is_ok());
    }

    #[test]
    fn profiles_ordered_by_speed() {
        let ram = DeviceProfile::ramdisk();
        let pcie = DeviceProfile::pcie_ssd();
        let sata = DeviceProfile::sata_ssd();
        let t = |p: &DeviceProfile| p.service_time(BlockKind::Read, 4096);
        assert!(t(&ram) < t(&pcie));
        assert!(t(&pcie) < t(&sata));
    }

    #[test]
    fn service_time_scales_with_bytes() {
        let p = DeviceProfile::pcie_ssd();
        let small = p.service_time(BlockKind::Write, 512);
        let big = p.service_time(BlockKind::Write, 1 << 20);
        assert!(big > small * 2u64);
        // Flush costs more than write.
        assert!(p.service_time(BlockKind::Flush, 0) > p.service_time(BlockKind::Write, 0));
    }
}
