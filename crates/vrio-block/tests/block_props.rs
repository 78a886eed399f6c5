//! Property tests for the block substrate: the unaligned-edge count
//! matches a byte-by-byte count, the gate never admits overlapping requests,
//! and the ramdisk reads back what a flat byte array would.

use bytes::Bytes;
use proptest::prelude::*;
use vrio_block::{unaligned_edge_bytes, BlockError, BlockGate, BlockRequest, Ramdisk, RequestId};

const PAGE: u64 = 4096;

/// The model ramdisk's capacity: eight pages, the last one short, so
/// whole-page accesses of the last page run out of range.
const CAPACITY: u64 = 8 * PAGE - 512;

/// One generated access: `(shape, page, offset in page, length)`, turned
/// into a byte range by [`access`].
type Shape = (u8, u64, u64, u64);

/// The byte range `(offset, len)` of a generated access: a whole aligned
/// page, part of one page, a run across pages, or anywhere at all (out of
/// range included).
fn access((shape, page, off, len): Shape) -> (u64, u64) {
    match shape {
        0 => (page * PAGE, PAGE),
        1 => (page * PAGE + off, 1 + len % (PAGE - off)),
        2 => (page * PAGE + off, PAGE + len),
        _ => (page * PAGE + off, len % 5000),
    }
}

/// The error the model expects for an access of `len` bytes at `offset`.
fn model_error(direct: bool, offset: u64, len: u64) -> Option<BlockError> {
    if direct && !(offset.is_multiple_of(512) && len.is_multiple_of(512)) {
        Some(BlockError::Unaligned { offset, len })
    } else if offset + len > CAPACITY {
        Some(BlockError::OutOfRange {
            offset,
            len,
            capacity: CAPACITY,
        })
    } else {
        None
    }
}

fn shape() -> impl Strategy<Value = Shape> {
    (0u8..4, 0u64..9, 0u64..PAGE, 0u64..3 * PAGE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn unaligned_edge_bytes_count_the_bytes_outside_whole_sectors(
        offset in 0u64..10_000,
        len in 0usize..20_000,
    ) {
        // A byte is interior when the whole sector holding it lies inside
        // the write; every other byte is an edge the worker copies.
        let end = offset + len as u64;
        let edges = (offset..end)
            .filter(|&b| {
                let sector = b / 512 * 512;
                sector < offset || sector + 512 > end
            })
            .count();
        prop_assert_eq!(unaligned_edge_bytes(offset, len), edges);
    }

    #[test]
    fn gate_never_admits_overlaps(
        ops in proptest::collection::vec((0u64..64, 1u64..16, any::<bool>()), 1..100),
    ) {
        let mut gate = BlockGate::new();
        let mut in_flight: Vec<BlockRequest> = Vec::new();
        let mut submitted = 0u64;
        let mut completed = 0usize;
        for (i, (sector, sectors, complete_one)) in ops.into_iter().enumerate() {
            let req = BlockRequest::write(
                RequestId(i as u64),
                sector,
                Bytes::from(vec![0u8; (sectors * 512) as usize]),
            );
            submitted += 1;
            if let Some(r) = gate.submit(req) {
                in_flight.push(r);
            }
            // Invariant after every step: pairwise disjoint in-flight ranges.
            for (x, a) in in_flight.iter().enumerate() {
                for b in in_flight.iter().skip(x + 1) {
                    let (ra, rb) = (a.sector_range(), b.sector_range());
                    prop_assert!(ra.start >= rb.end || rb.start >= ra.end,
                        "overlapping in-flight: {:?} vs {:?}", ra, rb);
                }
            }
            if complete_one && !in_flight.is_empty() {
                let done = in_flight.remove(0);
                completed += 1;
                in_flight.extend(gate.complete(done.id));
            }
        }
        // Drain: completing everything must eventually release everything.
        let mut guard = 0;
        while !in_flight.is_empty() {
            let done = in_flight.remove(0);
            completed += 1;
            in_flight.extend(gate.complete(done.id));
            guard += 1;
            prop_assert!(guard < 10_000, "gate failed to drain");
        }
        prop_assert_eq!(completed as u64, submitted);
        prop_assert_eq!(gate.pending(), 0);
    }

    #[test]
    fn ramdisk_write_read_identity(
        offset in 0u64..4096,
        data in proptest::collection::vec(any::<u8>(), 1..4096),
    ) {
        let mut d = Ramdisk::new(16384);
        d.write(offset, &data).unwrap();
        prop_assert_eq!(&d.read(offset, data.len() as u64).unwrap()[..], &data[..]);
    }

    #[test]
    fn ramdisk_matches_a_flat_array(
        direct in any::<bool>(),
        ops in proptest::collection::vec(
            (any::<bool>(), shape(), any::<u8>(), any::<bool>(), shape()),
            1..60,
        ),
    ) {
        let mut disk = if direct {
            Ramdisk::new_direct(CAPACITY as usize)
        } else {
            Ramdisk::new(CAPACITY as usize)
        };
        let mut model = vec![0u8; CAPACITY as usize];
        // Every buffer written or read so far, with the bytes it held
        // then: the store may share it, and no later write may change it.
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for (is_write, at, fill, by_ref, probe) in ops {
            let (offset, len) = access(at);
            if is_write {
                let data: Vec<u8> = (0..len).map(|i| fill ^ (i as u8)).collect();
                let buf = Bytes::from(data.clone());
                let result = if by_ref {
                    disk.write_bytes(offset, &buf)
                } else {
                    disk.write(offset, &data)
                };
                prop_assert_eq!(result.err(), model_error(direct, offset, len));
                if model_error(direct, offset, len).is_none() {
                    let start = offset as usize;
                    model[start..start + len as usize].copy_from_slice(&data);
                }
                held.push((buf, data));
            } else {
                let result = disk.read(offset, len);
                match model_error(direct, offset, len) {
                    Some(e) => prop_assert_eq!(result.err(), Some(e)),
                    None => {
                        let got = result.unwrap();
                        let start = offset as usize;
                        prop_assert_eq!(&got[..], &model[start..start + len as usize]);
                        held.push((got.clone(), got.to_vec()));
                    }
                }
            }
            // A second read anywhere agrees with the model too.
            let (offset, len) = access(probe);
            if model_error(false, offset, len).is_none() && !direct {
                let got = disk.read(offset, len).unwrap();
                let start = offset as usize;
                prop_assert_eq!(&got[..], &model[start..start + len as usize]);
            }
            for (page, bytes) in &held {
                prop_assert_eq!(&page[..], &bytes[..], "a write changed a shared buffer");
            }
        }
    }
}
