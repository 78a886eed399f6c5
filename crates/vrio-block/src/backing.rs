//! Backing stores: a real in-memory ramdisk plus performance profiles for
//! the devices the paper measures against (ramdisk, SATA SSD, FusionIO
//! PCIe SSD).

use bytes::Bytes;
use vrio_sim::SimDuration;
use vrio_virtio::PAGE_SIZE;

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
/// The store keeps each written 4 KB page as shared [`Bytes`], so a page
/// costs nothing until it is written and moves no more than a device
/// would:
///
/// - a write that covers a whole page stores the caller's buffer by
///   reference ([`Ramdisk::write_bytes`]); a partial write copies the page
///   first, so every other holder of the old page keeps its bytes;
/// - a read within one page returns a slice of the stored page (or of one
///   static zero page); a read across pages copies once.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use vrio_block::Ramdisk;
///
/// let mut disk = Ramdisk::new(1 << 20);
/// disk.write(4096, &[0xAA; 512]).unwrap();
/// assert_eq!(&disk.read(4096, 512).unwrap()[..4], &[0xAA; 4]);
///
/// // A whole page is stored by reference and read back without a copy.
/// let page = Bytes::from(vec![0x55; 4096]);
/// disk.write_bytes(8192, &page).unwrap();
/// assert_eq!(disk.read(8192, 4096).unwrap().as_ptr(), page.as_ptr());
/// ```
#[derive(Clone)]
pub struct Ramdisk {
    /// The pages written so far, by page index; an empty entry, or one
    /// past the end, reads as zero. Grown at the first write, so a fresh
    /// ramdisk allocates nothing.
    pages: Vec<Bytes>,
    capacity: u64,
    require_aligned: bool,
}

impl std::fmt::Debug for Ramdisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resident = self.pages.iter().filter(|p| !p.is_empty()).count();
        f.debug_struct("Ramdisk")
            .field("capacity", &self.capacity)
            .field("resident_pages", &resident)
            .field("require_aligned", &self.require_aligned)
            .finish()
    }
}

/// What every page reads as until its first write.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Calls `f` with each page-bounded piece of `[start, start + len)`, in
/// order: `(page, offset in page, offset in range, piece length)`.
fn for_each_piece(start: usize, len: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut done = 0;
    while done < len {
        let at = start + done;
        let off = at % PAGE_SIZE;
        let n = (PAGE_SIZE - off).min(len - done);
        f(at / PAGE_SIZE, off, done, n);
        done += n;
    }
}

impl Ramdisk {
    /// Creates a zero-filled ramdisk of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Ramdisk {
            pages: Vec::new(),
            capacity: capacity as u64,
            require_aligned: false,
        }
    }

    /// Creates a ramdisk that rejects unaligned access (O_DIRECT mode).
    pub fn new_direct(capacity: usize) -> Self {
        Ramdisk {
            require_aligned: true,
            ..Ramdisk::new(capacity)
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
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

    /// The bytes of page `index`.
    fn page(&self, index: usize) -> &[u8] {
        match self.pages.get(index) {
            Some(page) if !page.is_empty() => page,
            _ => &ZERO_PAGE,
        }
    }

    /// Reads `len` bytes at byte `offset`. A read within one page shares
    /// the stored page; a read across pages copies once.
    pub fn read(&self, offset: u64, len: u64) -> Result<Bytes, BlockError> {
        self.check(offset, len)?;
        let (start, len) = (offset as usize, len as usize);
        let off = start % PAGE_SIZE;
        if len == 0 {
            return Ok(Bytes::new());
        }
        if off + len <= PAGE_SIZE {
            return Ok(match self.pages.get(start / PAGE_SIZE) {
                Some(page) if !page.is_empty() => page.slice(off..off + len),
                _ => Bytes::from_static(&ZERO_PAGE[off..off + len]),
            });
        }
        let mut out = Vec::with_capacity(len);
        for_each_piece(start, len, |page, off, _, n| {
            out.extend_from_slice(&self.page(page)[off..off + n]);
        });
        Ok(Bytes::from(out))
    }

    /// Writes `data` at byte `offset`, copying it.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        self.check(offset, data.len() as u64)?;
        self.store(offset as usize, data, None);
        Ok(())
    }

    /// Writes `data` at byte `offset`. A write of at most one page that
    /// covers a whole page is stored by reference: the page shares
    /// `data`'s buffer, and a later read of it returns that buffer. A
    /// longer write copies, so that one stored page never keeps a
    /// multi-page buffer alive; a page-long `data` keeps alive only the
    /// buffer it is a view of (for the vRIO worker, the one decoded
    /// message: a page plus its headers).
    pub fn write_bytes(&mut self, offset: u64, data: &Bytes) -> Result<(), BlockError> {
        self.check(offset, data.len() as u64)?;
        let shared = (data.len() <= PAGE_SIZE).then_some(data);
        self.store(offset as usize, data, shared);
        Ok(())
    }

    /// Stores the checked range `data` at `start`: a whole page as a view
    /// of `shared` when given, else as a copy; part of a page into a copy
    /// of that page.
    fn store(&mut self, start: usize, data: &[u8], shared: Option<&Bytes>) {
        if data.is_empty() {
            return;
        }
        if self.pages.is_empty() {
            self.pages = vec![Bytes::new(); (self.capacity as usize).div_ceil(PAGE_SIZE)];
        }
        for_each_piece(start, data.len(), |index, off, at, n| {
            let piece = &data[at..at + n];
            let page = &mut self.pages[index];
            *page = if n == PAGE_SIZE {
                match shared {
                    Some(buf) => buf.slice(at..at + n),
                    None => Bytes::copy_from_slice(piece),
                }
            } else {
                // Copy-on-write: the old page may be shared.
                let mut copy = if page.is_empty() {
                    vec![0; PAGE_SIZE]
                } else {
                    page.to_vec()
                };
                copy[off..off + n].copy_from_slice(piece);
                Bytes::from(copy)
            };
        });
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
