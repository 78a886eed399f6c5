//! Property tests for the paged guest memory: under arbitrary sequences of
//! byte-range and scalar accesses it behaves exactly like a flat,
//! zero-initialised `Vec<u8>` of the same size, including page-crossing
//! accesses, the last partial page, and out-of-bounds and overflowing
//! addresses, and it allocates only the pages that were written.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vrio_virtio::{GuestAddr, GuestMemory, MemError, PAGE_SIZE};

/// Where an access starts, relative to the memory it is resolved against.
#[derive(Debug, Clone, Copy)]
enum Anchor {
    /// Anywhere in `[0, size + 64)`, as a fraction of that span.
    Anywhere(u16),
    /// `delta` bytes from the start of page `page` (wrapping over the pages).
    PageEdge { page: u8, delta: i8 },
    /// `delta` bytes from the end of the memory.
    End(i8),
    /// `back` bytes below `u64::MAX`, where `addr + len` overflows.
    Overflow(u8),
}

impl Anchor {
    fn resolve(self, size: u64) -> u64 {
        let pages = size.div_ceil(PAGE_SIZE as u64);
        match self {
            Anchor::Anywhere(f) => (size + 64) * u64::from(f) / u64::from(u16::MAX),
            Anchor::PageEdge { page, delta } => {
                let edge = (u64::from(page) % (pages + 1)) * PAGE_SIZE as u64;
                edge.saturating_add_signed(i64::from(delta))
            }
            Anchor::End(delta) => size.saturating_add_signed(i64::from(delta)),
            Anchor::Overflow(back) => u64::MAX - u64::from(back),
        }
    }
}

fn anchor() -> impl Strategy<Value = Anchor> {
    prop_oneof![
        2 => any::<u16>().prop_map(Anchor::Anywhere),
        3 => (any::<u8>(), -12i8..12).prop_map(|(page, delta)| Anchor::PageEdge { page, delta }),
        2 => (-24i8..8).prop_map(Anchor::End),
        1 => (0u8..16).prop_map(Anchor::Overflow),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Write(Anchor, Vec<u8>),
    ReadInto(Anchor, usize),
    /// Appends to a buffer already holding `prefix` bytes.
    ReadAppend(Anchor, usize, usize),
    ReadBytes(Anchor, usize),
    WriteScalar(Anchor, u8, u64),
    ReadScalar(Anchor, u8),
}

/// Byte width of a scalar access.
fn width() -> impl Strategy<Value = u8> {
    prop_oneof![Just(2u8), Just(4u8), Just(8u8)]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (anchor(), proptest::collection::vec(any::<u8>(), 0..(2 * PAGE_SIZE + 64)))
            .prop_map(|(a, data)| Op::Write(a, data)),
        2 => (anchor(), 0usize..(2 * PAGE_SIZE + 64)).prop_map(|(a, len)| Op::ReadInto(a, len)),
        2 => (anchor(), 0usize..(PAGE_SIZE + 64), 0usize..8)
            .prop_map(|(a, len, prefix)| Op::ReadAppend(a, len, prefix)),
        2 => (anchor(), 0usize..(PAGE_SIZE + 64)).prop_map(|(a, len)| Op::ReadBytes(a, len)),
        3 => (anchor(), width(), any::<u64>()).prop_map(|(a, w, v)| Op::WriteScalar(a, w, v)),
        2 => (anchor(), width()).prop_map(|(a, w)| Op::ReadScalar(a, w)),
    ]
}

/// The flat reference: in bounds iff `addr + len` neither overflows nor
/// passes the end, with the error the paged memory must report.
fn model_range(model: &[u8], addr: u64, len: u64) -> Result<std::ops::Range<usize>, MemError> {
    match addr.checked_add(len) {
        Some(end) if end <= model.len() as u64 => Ok(addr as usize..end as usize),
        _ => Err(MemError::OutOfBounds {
            addr: GuestAddr(addr),
            len,
            size: model.len() as u64,
        }),
    }
}

fn write_scalar(mem: &mut GuestMemory, addr: GuestAddr, width: u8, v: u64) -> Result<(), MemError> {
    match width {
        2 => mem.write_u16_le(addr, v as u16),
        4 => mem.write_u32_le(addr, v as u32),
        _ => mem.write_u64_le(addr, v),
    }
}

fn read_scalar(mem: &GuestMemory, addr: GuestAddr, width: u8) -> Result<u64, MemError> {
    match width {
        2 => mem.read_u16_le(addr).map(u64::from),
        4 => mem.read_u32_le(addr).map(u64::from),
        _ => mem.read_u64_le(addr),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paged_memory_matches_a_flat_reference(
        pages in 1usize..6,
        tail in prop_oneof![Just(0usize), 1usize..PAGE_SIZE],
        ops in proptest::collection::vec(op(), 1..48),
    ) {
        let size = pages * PAGE_SIZE + tail;
        let mut mem = GuestMemory::new(size);
        let mut model = vec![0u8; size];
        let mut written_pages = BTreeSet::new();
        prop_assert_eq!(mem.size(), size as u64);
        prop_assert_eq!(mem.resident_pages(), 0);

        for op in ops {
            match op {
                Op::Write(a, data) => {
                    let addr = a.resolve(size as u64);
                    let want = model_range(&model, addr, data.len() as u64);
                    let got = mem.write(GuestAddr(addr), &data);
                    prop_assert_eq!(got, want.clone().map(|_| ()));
                    if let Ok(r) = want {
                        written_pages.extend(r.clone().map(|b| b / PAGE_SIZE));
                        model[r].copy_from_slice(&data);
                    }
                }
                Op::ReadInto(a, len) => {
                    let addr = a.resolve(size as u64);
                    let mut buf = vec![0xEEu8; len];
                    let got = mem.read_into(GuestAddr(addr), &mut buf);
                    match model_range(&model, addr, len as u64) {
                        Ok(r) => {
                            prop_assert_eq!(got, Ok(()));
                            prop_assert_eq!(&buf[..], &model[r]);
                        }
                        Err(e) => prop_assert_eq!(got, Err(e)),
                    }
                }
                Op::ReadAppend(a, len, prefix) => {
                    let addr = a.resolve(size as u64);
                    let mut out = vec![0xAAu8; prefix];
                    let got = mem.read_append(GuestAddr(addr), len as u64, &mut out);
                    let mut want = vec![0xAAu8; prefix];
                    match model_range(&model, addr, len as u64) {
                        Ok(r) => {
                            prop_assert_eq!(got, Ok(()));
                            want.extend_from_slice(&model[r]);
                        }
                        Err(e) => prop_assert_eq!(got, Err(e)),
                    }
                    prop_assert_eq!(out, want);
                }
                Op::ReadBytes(a, len) => {
                    let addr = a.resolve(size as u64);
                    let got = mem.read_bytes(GuestAddr(addr), len as u64);
                    let want = model_range(&model, addr, len as u64).map(|r| model[r].to_vec());
                    prop_assert_eq!(got.map(|b| b.to_vec()), want);
                }
                Op::WriteScalar(a, width, v) => {
                    let addr = a.resolve(size as u64);
                    let want = model_range(&model, addr, u64::from(width));
                    let got = write_scalar(&mut mem, GuestAddr(addr), width, v);
                    prop_assert_eq!(got, want.clone().map(|_| ()));
                    if let Ok(r) = want {
                        written_pages.extend(r.clone().map(|b| b / PAGE_SIZE));
                        model[r].copy_from_slice(&v.to_le_bytes()[..usize::from(width)]);
                    }
                }
                Op::ReadScalar(a, width) => {
                    let addr = a.resolve(size as u64);
                    let got = read_scalar(&mem, GuestAddr(addr), width);
                    let want = model_range(&model, addr, u64::from(width)).map(|r| {
                        let mut le = [0u8; 8];
                        le[..r.len()].copy_from_slice(&model[r]);
                        u64::from_le_bytes(le)
                    });
                    prop_assert_eq!(got, want);
                }
            }
            // Only written pages are ever allocated, reads included.
            prop_assert_eq!(mem.resident_pages(), written_pages.len());
        }

        let mut all = vec![0xEEu8; size];
        mem.read_into(GuestAddr(0), &mut all).unwrap();
        prop_assert_eq!(all, model);
    }
}
