//! Block request types and the unaligned-edge count behind the zero-copy
//! write path.

use bytes::Bytes;
use vrio_virtio::SECTOR_SIZE;

/// Kind of block operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
    /// Flush the volatile write cache.
    Flush,
}

/// A unique, monotonically assigned request identifier: the guest
/// matches each completion to its request by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// One block request as it travels from front-end to back-end.
#[derive(Debug, Clone)]
pub struct BlockRequest {
    /// Unique id (fresh per retransmission).
    pub id: RequestId,
    /// Operation kind.
    pub kind: BlockKind,
    /// First sector addressed.
    pub sector: u64,
    /// Length in bytes (reads: how much to read; writes: `data.len()`).
    pub len: u32,
    /// Payload for writes; empty otherwise.
    pub data: Bytes,
}

impl BlockRequest {
    /// A read of `len` bytes starting at `sector`.
    pub fn read(id: RequestId, sector: u64, len: u32) -> Self {
        BlockRequest {
            id,
            kind: BlockKind::Read,
            sector,
            len,
            data: Bytes::new(),
        }
    }

    /// A write of `data` starting at `sector`.
    pub fn write(id: RequestId, sector: u64, data: Bytes) -> Self {
        let len = data.len() as u32;
        BlockRequest {
            id,
            kind: BlockKind::Write,
            sector,
            len,
            data,
        }
    }

    /// A cache flush.
    pub fn flush(id: RequestId) -> Self {
        BlockRequest {
            id,
            kind: BlockKind::Flush,
            sector: 0,
            len: 0,
            data: Bytes::new(),
        }
    }

    /// Byte offset of the first addressed sector.
    pub fn byte_offset(&self) -> u64 {
        self.sector * SECTOR_SIZE
    }

    /// Sector range `[first, last]` this request touches (empty for flush).
    pub fn sector_range(&self) -> std::ops::Range<u64> {
        let sectors = (u64::from(self.len)).div_ceil(SECTOR_SIZE);
        self.sector..self.sector + sectors
    }
}

/// Bytes of a `len`-byte write at device byte `offset` that lie outside
/// its sector-aligned interior: the unaligned edges, which the zero-copy
/// write path (paper §4.4) copies while it writes the interior straight
/// from the DMA buffer. A write that covers no whole sector is all edge.
///
/// # Examples
///
/// ```
/// use vrio_block::unaligned_edge_bytes;
///
/// // A 2000-byte write at offset 100: the interior is [512, 2048), the
/// // edges are [100, 512) and [2048, 2100).
/// assert_eq!(unaligned_edge_bytes(100, 2000), 412 + 52);
/// assert_eq!(unaligned_edge_bytes(1024, 4096), 0);
/// assert_eq!(unaligned_edge_bytes(10, 100), 100);
/// ```
pub fn unaligned_edge_bytes(offset: u64, len: usize) -> usize {
    let end = offset + len as u64;
    let first_aligned = offset.div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
    let last_aligned = end / SECTOR_SIZE * SECTOR_SIZE;
    if first_aligned >= last_aligned {
        return len;
    }
    len - (last_aligned - first_aligned) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_aligned_buffer_is_all_interior() {
        assert_eq!(unaligned_edge_bytes(1024, 4096), 0);
    }

    #[test]
    fn tiny_unaligned_buffer_is_all_edge() {
        assert_eq!(unaligned_edge_bytes(10, 100), 100);
        assert_eq!(unaligned_edge_bytes(500, 24), 24);
    }

    #[test]
    fn request_constructors() {
        let r = BlockRequest::read(RequestId(1), 8, 4096);
        assert_eq!(r.byte_offset(), 4096);
        assert_eq!(r.sector_range(), 8..16);
        let w = BlockRequest::write(RequestId(2), 0, Bytes::from(vec![0u8; 512]));
        assert_eq!(w.len, 512);
        assert_eq!(w.sector_range(), 0..1);
        let f = BlockRequest::flush(RequestId(3));
        assert_eq!(f.sector_range(), 0..0);
    }

    #[test]
    fn partial_sector_rounds_up() {
        let r = BlockRequest::read(RequestId(1), 4, 513);
        assert_eq!(r.sector_range(), 4..6);
    }
}
