//! A byte-addressed guest-physical memory space.
//!
//! Virtqueues are laid out in guest memory exactly as the virtio 1.0 split
//! ring specifies; both the guest driver and the (IO)host device side
//! operate over the same [`GuestMemory`], just as the real guest and the
//! real host touch the same physical pages.

use std::fmt;

use bytes::Bytes;

/// A guest-physical address.
///
/// # Examples
///
/// ```
/// use vrio_virtio::GuestAddr;
///
/// let a = GuestAddr(0x1000);
/// assert_eq!(a.offset(16), GuestAddr(0x1010));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GuestAddr(pub u64);

impl GuestAddr {
    /// Returns the address `bytes` past this one.
    pub const fn offset(self, bytes: u64) -> GuestAddr {
        GuestAddr(self.0 + bytes)
    }
}

impl fmt::Display for GuestAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Errors raised by guest-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access `[addr, addr+len)` falls outside the memory space.
    OutOfBounds {
        /// Start of the faulting access.
        addr: GuestAddr,
        /// Length of the faulting access.
        len: u64,
        /// Size of the memory space.
        size: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, size } => {
                write!(
                    f,
                    "guest access [{addr}, +{len}) out of bounds (size {size:#x})"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Bytes per guest page.
pub const PAGE_SIZE: usize = 4096;

type Page = [u8; PAGE_SIZE];

/// What every page reads as until its first write.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// A guest-physical memory space backed by lazily allocated 4 KB pages.
///
/// A page is allocated on its first write; until then it reads as zero
/// through one shared zero page, so a large, sparsely used space costs
/// only the pages actually written. Reads copy out
/// ([`GuestMemory::read_into`], [`GuestMemory::read_append`],
/// [`GuestMemory::read_bytes`]), since a range may span pages that are not
/// contiguous on the host.
///
/// # Examples
///
/// ```
/// use vrio_virtio::{GuestAddr, GuestMemory};
///
/// let mut mem = GuestMemory::new(4096);
/// mem.write(GuestAddr(0x10), &[1, 2, 3]).unwrap();
/// let mut buf = [0; 3];
/// mem.read_into(GuestAddr(0x10), &mut buf).unwrap();
/// assert_eq!(buf, [1, 2, 3]);
/// mem.write_u32_le(GuestAddr(0x20), 0xdead_beef).unwrap();
/// assert_eq!(mem.read_u32_le(GuestAddr(0x20)).unwrap(), 0xdead_beef);
/// ```
#[derive(Clone)]
pub struct GuestMemory {
    pages: Vec<Option<Box<Page>>>,
    size: u64,
}

impl fmt::Debug for GuestMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuestMemory")
            .field("size", &self.size)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

impl GuestMemory {
    /// Creates a memory space of `size` bytes that reads as zero. No page
    /// is allocated until it is written.
    pub fn new(size: usize) -> Self {
        GuestMemory {
            pages: vec![None; size.div_ceil(PAGE_SIZE)],
            size: size as u64,
        }
    }

    /// Size of the memory space in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of pages allocated so far (pages written at least once).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    #[inline]
    fn check(&self, addr: GuestAddr, len: u64) -> Result<usize, MemError> {
        match addr.0.checked_add(len) {
            Some(end) if end <= self.size => Ok(addr.0 as usize),
            _ => Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.size,
            }),
        }
    }

    #[inline]
    fn page(&self, index: usize) -> &Page {
        self.pages[index].as_deref().unwrap_or(&ZERO_PAGE)
    }

    #[inline]
    fn page_mut(&mut self, index: usize) -> &mut Page {
        match &mut self.pages[index] {
            Some(page) => page,
            slot => Self::allocate(slot),
        }
    }

    /// Allocates a zeroed page into an empty slot: once per page written.
    #[cold]
    #[inline(never)]
    fn allocate(slot: &mut Option<Box<Page>>) -> &mut Page {
        slot.insert(
            vec![0; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("page-sized allocation"),
        )
    }

    /// Calls `f` with each page-bounded piece of the checked range
    /// `[start, start + len)`, in order: `(page, offset in page, offset
    /// in range, piece length)`.
    #[inline]
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

    /// Copies the checked range starting at `start` into `buf`, page by page.
    #[inline(never)]
    fn copy_out(&self, start: usize, buf: &mut [u8]) {
        Self::for_each_piece(start, buf.len(), |page, off, at, n| {
            buf[at..at + n].copy_from_slice(&self.page(page)[off..off + n]);
        });
    }

    /// Copies `data` into the checked range starting at `start`, page by page.
    #[inline(never)]
    fn copy_in(&mut self, start: usize, data: &[u8]) {
        Self::for_each_piece(start, data.len(), |page, off, at, n| {
            self.page_mut(page)[off..off + n].copy_from_slice(&data[at..at + n]);
        });
    }

    /// Fills `buf` with the bytes at `addr`.
    pub fn read_into(&self, addr: GuestAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len() as u64)?;
        self.copy_out(start, buf);
        Ok(())
    }

    /// Appends the `len` bytes at `addr` to `out`, without zero-filling
    /// `out` first.
    pub fn read_append(
        &self,
        addr: GuestAddr,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), MemError> {
        let start = self.check(addr, len)?;
        out.reserve(len as usize);
        Self::for_each_piece(start, len as usize, |page, off, _, n| {
            out.extend_from_slice(&self.page(page)[off..off + n]);
        });
        Ok(())
    }

    /// Copies the `len` bytes at `addr` into new [`Bytes`], with a single
    /// allocation when the range lies inside one page.
    pub fn read_bytes(&self, addr: GuestAddr, len: u64) -> Result<Bytes, MemError> {
        let start = self.check(addr, len)?;
        let (off, n) = (start % PAGE_SIZE, len as usize);
        if n == 0 {
            Ok(Bytes::new())
        } else if off + n <= PAGE_SIZE {
            Ok(Bytes::copy_from_slice(
                &self.page(start / PAGE_SIZE)[off..off + n],
            ))
        } else {
            let mut out = Vec::new();
            self.read_append(addr, len, &mut out)?;
            Ok(Bytes::from(out))
        }
    }

    /// Writes `data` at `addr`.
    pub fn write(&mut self, addr: GuestAddr, data: &[u8]) -> Result<(), MemError> {
        let start = self.check(addr, data.len() as u64)?;
        self.copy_in(start, data);
        Ok(())
    }

    /// Reads `N` bytes at `addr`; an access inside one page takes the
    /// inlined path, one crossing a page boundary the out-of-line copy.
    #[inline]
    fn read_array<const N: usize>(&self, addr: GuestAddr) -> Result<[u8; N], MemError> {
        let start = self.check(addr, N as u64)?;
        let off = start % PAGE_SIZE;
        let mut b = [0; N];
        if off + N <= PAGE_SIZE {
            b.copy_from_slice(&self.page(start / PAGE_SIZE)[off..off + N]);
        } else {
            self.copy_out(start, &mut b);
        }
        Ok(b)
    }

    /// Writes `N` bytes at `addr`, with the same fast path as
    /// [`GuestMemory::read_array`].
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: GuestAddr, b: [u8; N]) -> Result<(), MemError> {
        let start = self.check(addr, N as u64)?;
        let off = start % PAGE_SIZE;
        if off + N <= PAGE_SIZE {
            self.page_mut(start / PAGE_SIZE)[off..off + N].copy_from_slice(&b);
        } else {
            self.copy_in(start, &b);
        }
        Ok(())
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16_le(&self, addr: GuestAddr) -> Result<u16, MemError> {
        self.read_array(addr).map(u16::from_le_bytes)
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16_le(&mut self, addr: GuestAddr, v: u16) -> Result<(), MemError> {
        self.write_array(addr, v.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32_le(&self, addr: GuestAddr) -> Result<u32, MemError> {
        self.read_array(addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32_le(&mut self, addr: GuestAddr, v: u32) -> Result<(), MemError> {
        self.write_array(addr, v.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64_le(&self, addr: GuestAddr) -> Result<u64, MemError> {
        self.read_array(addr).map(u64::from_le_bytes)
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64_le(&mut self, addr: GuestAddr, v: u64) -> Result<(), MemError> {
        self.write_array(addr, v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = GuestMemory::new(256);
        mem.write(GuestAddr(10), b"hello").unwrap();
        let mut buf = [0; 5];
        mem.read_into(GuestAddr(10), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn scalar_roundtrips() {
        let mut mem = GuestMemory::new(64);
        mem.write_u16_le(GuestAddr(0), 0x1234).unwrap();
        mem.write_u32_le(GuestAddr(2), 0x5678_9abc).unwrap();
        mem.write_u64_le(GuestAddr(6), 0xdead_beef_cafe_f00d)
            .unwrap();
        assert_eq!(mem.read_u16_le(GuestAddr(0)).unwrap(), 0x1234);
        assert_eq!(mem.read_u32_le(GuestAddr(2)).unwrap(), 0x5678_9abc);
        assert_eq!(
            mem.read_u64_le(GuestAddr(6)).unwrap(),
            0xdead_beef_cafe_f00d
        );
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = GuestMemory::new(8);
        mem.write_u32_le(GuestAddr(0), 0x0102_0304).unwrap();
        let mut out = Vec::new();
        mem.read_append(GuestAddr(0), 4, &mut out).unwrap();
        assert_eq!(out, [0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut mem = GuestMemory::new(16);
        assert!(mem.read_into(GuestAddr(15), &mut [0; 2]).is_err());
        assert!(mem.write(GuestAddr(16), &[0]).is_err());
        assert!(mem.read_into(GuestAddr(u64::MAX), &mut [0; 2]).is_err()); // overflow-safe
        assert!(mem
            .read_append(GuestAddr(u64::MAX), 2, &mut Vec::new())
            .is_err());
        assert!(mem.read_into(GuestAddr(0), &mut [0; 16]).is_ok());
    }

    #[test]
    fn fresh_memory_holds_no_pages() {
        let mut mem = GuestMemory::new(10 * PAGE_SIZE + 7);
        assert_eq!(mem.resident_pages(), 0);
        assert_eq!(mem.read_u64_le(GuestAddr(0x2000)).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 0, "a read allocates nothing");
        mem.write_u16_le(GuestAddr(0x2fff), 0xabcd).unwrap();
        assert_eq!(mem.resident_pages(), 2, "a crossing write fills both pages");
        assert_eq!(mem.read_u16_le(GuestAddr(0x2fff)).unwrap(), 0xabcd);
    }

    #[test]
    fn error_display() {
        let e = MemError::OutOfBounds {
            addr: GuestAddr(0x20),
            len: 4,
            size: 16,
        };
        let s = e.to_string();
        assert!(s.contains("0x20"), "{s}");
    }
}
