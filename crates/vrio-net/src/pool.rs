//! Recycling pool for SKB backing stores.
//!
//! Every SKB owns two heap blocks — the linear buffer and the fragment
//! list. On the simulator's hot path an SKB lives for exactly one
//! reassembled message, so allocating those blocks fresh per message is
//! pure churn. [`SkbPool`] keeps the storage of released SKBs and hands it
//! back on the next [`SkbPool::acquire`]: steady state performs zero heap
//! allocations per SKB (the capacity of the recycled vectors is the
//! arena).
//!
//! The pool is also an accounting device: it counts acquisitions and
//! returns, so a flow that drops an SKB without returning it is a
//! detectable leak ([`SkbPool::leak_check`]), and returning more SKBs than
//! were acquired is a detectable double return ([`SkbPool::release`]).
//! The testbed wires these counters into the oracle's conservation
//! probes — a leaked SKB is payload bytes that left circulation, exactly
//! the class of bug byte conservation exists to catch.

use crate::skb::Skb;

/// Pool accounting errors. The `Display` messages are exact and stable —
/// unit tests and the oracle probe match on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// More SKBs were returned than acquired.
    DoubleReturn,
    /// SKBs were acquired but never returned.
    Leak {
        /// How many SKBs are still outstanding.
        outstanding: u64,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::DoubleReturn => {
                write!(
                    f,
                    "skb pool: double return — more SKBs returned than acquired"
                )
            }
            PoolError::Leak { outstanding } => {
                write!(
                    f,
                    "skb pool leak: {outstanding} skb(s) acquired but never returned"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A recycling pool of SKB backing stores (linear buffers + fragment
/// lists), with acquire/return accounting.
///
/// # Examples
///
/// ```
/// use vrio_net::SkbPool;
/// use bytes::Bytes;
///
/// let mut pool = SkbPool::new();
/// let mut skb = pool.acquire(64);
/// skb.add_frag(Bytes::from_static(b"payload")).unwrap();
/// pool.release(skb).unwrap();
/// assert_eq!(pool.outstanding(), 0);
/// // The next acquire reuses the returned storage: no fresh allocation.
/// let skb = pool.acquire(64);
/// pool.release(skb).unwrap();
/// assert_eq!(pool.recycled(), 1);
/// pool.leak_check().unwrap();
/// ```
#[derive(Debug, Default, Clone)]
pub struct SkbPool {
    /// Retired linear buffers, cleared but with capacity intact.
    bufs: Vec<Vec<u8>>,
    /// Retired fragment lists, cleared but with capacity intact.
    frag_lists: Vec<Vec<crate::skb::Frag>>,
    acquired: u64,
    returned: u64,
    recycled: u64,
}

impl SkbPool {
    /// An empty pool.
    pub fn new() -> Self {
        SkbPool::default()
    }

    /// Takes an empty SKB with `headroom` bytes reserved, reusing retired
    /// storage when any is pooled (zero allocations on the steady path).
    pub fn acquire(&mut self, headroom: usize) -> Skb {
        self.acquired += 1;
        match (self.bufs.pop(), self.frag_lists.pop()) {
            (Some(buf), Some(frags)) => {
                self.recycled += 1;
                Skb::from_recycled(headroom, buf, frags)
            }
            (buf, frags) => {
                // Partial hits put the piece back rather than mixing fresh
                // and recycled halves (keeps the books trivially simple).
                if let Some(b) = buf {
                    self.bufs.push(b);
                }
                if let Some(fl) = frags {
                    self.frag_lists.push(fl);
                }
                Skb::with_headroom(headroom)
            }
        }
    }

    /// Returns an SKB's storage to the pool. Payload `Bytes` handles held
    /// by the fragments are dropped here (their refcounts release); only
    /// the empty vectors are retained.
    pub fn release(&mut self, skb: Skb) -> Result<(), PoolError> {
        if self.returned == self.acquired {
            return Err(PoolError::DoubleReturn);
        }
        self.returned += 1;
        let (mut buf, mut frags) = skb.into_storage();
        buf.clear();
        frags.clear();
        self.bufs.push(buf);
        self.frag_lists.push(frags);
        Ok(())
    }

    /// SKBs handed out over the pool's lifetime.
    pub fn acquired(&self) -> u64 {
        self.acquired
    }

    /// SKBs returned over the pool's lifetime.
    pub fn returned(&self) -> u64 {
        self.returned
    }

    /// Acquisitions that reused retired storage instead of allocating.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// SKBs currently live (acquired and not yet returned).
    pub fn outstanding(&self) -> u64 {
        self.acquired - self.returned
    }

    /// End-of-run audit: every acquired SKB must have come back.
    pub fn leak_check(&self) -> Result<(), PoolError> {
        match self.outstanding() {
            0 => Ok(()),
            outstanding => Err(PoolError::Leak { outstanding }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn acquire_release_recycles_storage() {
        let mut pool = SkbPool::new();
        let mut skb = pool.acquire(16);
        skb.append_linear(b"0123456789abcdef0123456789abcdef");
        skb.add_frag(Bytes::from_static(b"frag")).unwrap();
        pool.release(skb).unwrap();
        assert_eq!(pool.acquired(), 1);
        assert_eq!(pool.returned(), 1);
        assert_eq!(pool.recycled(), 0);

        // Second acquire reuses the retired buffers and starts clean.
        let skb = pool.acquire(16);
        assert_eq!(pool.recycled(), 1);
        assert_eq!(skb.len(), 0);
        assert_eq!(skb.headroom(), 16);
        assert_eq!(skb.bytes_copied(), 0);
        assert_eq!(skb.frag_slots(), 0);
        pool.release(skb).unwrap();
    }

    #[test]
    fn double_return_error_is_exact() {
        let mut pool = SkbPool::new();
        let skb = pool.acquire(0);
        pool.release(skb).unwrap();
        let err = pool.release(Skb::with_headroom(0)).unwrap_err();
        assert_eq!(err, PoolError::DoubleReturn);
        assert_eq!(
            err.to_string(),
            "skb pool: double return — more SKBs returned than acquired"
        );
    }

    #[test]
    fn leak_error_is_exact() {
        let mut pool = SkbPool::new();
        let _leaked = pool.acquire(0);
        let _leaked2 = pool.acquire(0);
        let err = pool.leak_check().unwrap_err();
        assert_eq!(err, PoolError::Leak { outstanding: 2 });
        assert_eq!(
            err.to_string(),
            "skb pool leak: 2 skb(s) acquired but never returned"
        );
        assert_eq!(pool.outstanding(), 2);
    }

    #[test]
    fn release_drops_fragment_payload_handles() {
        let payload = Bytes::from(vec![7u8; 4096]);
        let mut pool = SkbPool::new();
        let mut skb = pool.acquire(0);
        skb.add_frag(payload.clone()).unwrap();
        // Pool + here: the payload is referenced twice while the SKB lives.
        pool.release(skb).unwrap();
        // After release only our handle remains; the pooled vector kept
        // capacity but no Bytes references.
        assert_eq!(payload.len(), 4096);
        let skb = pool.acquire(0);
        assert_eq!(skb.frag_slots(), 0);
        pool.release(skb).unwrap();
    }
}
