//! Programmable I/O interposition — the capability that justifies the whole
//! interposable-I/O design space (paper §1) and that SRIOV gives up.
//!
//! The I/O hypervisor runs an [`InterpositionChain`] over every message it
//! processes on behalf of a device. Each [`InterpositionService`] really
//! transforms or inspects the bytes (encryption is real AES-256-CTR,
//! intrusion detection really scans, dedup really hashes), and reports a
//! CPU cost the testbed charges to the worker's core.

use bytes::Bytes;
use vrio_hv::CostModel;
use vrio_sim::SimDuration;

use crate::aes::AesCtr;
use std::collections::HashMap;
use std::collections::HashSet;

/// Traffic direction through the interposition layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From the IOclient toward the device/world.
    Outbound,
    /// From the device/world toward the IOclient.
    Inbound,
}

/// Verdict of an interposition pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver (possibly transformed) payload.
    Pass(Bytes),
    /// Drop the message (firewall/IDS rejection).
    Drop {
        /// Human-readable reason for logs.
        reason: &'static str,
    },
}

/// One pluggable interposition service: plain data, so a testbed that
/// runs it can be cloned ([`BoxClone`]) and sent to another thread.
pub trait InterpositionService: BoxClone + Send {
    /// Service name for reports.
    fn name(&self) -> &'static str;

    /// Processes one message, returning a verdict.
    fn process(&mut self, dir: Direction, payload: Bytes) -> Verdict;

    /// CPU time this service consumes for a payload of `len` bytes.
    fn cost(&self, costs: &CostModel, len: usize) -> SimDuration;
}

/// Clones a boxed service; every `Clone` service has it.
pub trait BoxClone {
    /// A boxed copy of the service.
    fn box_clone(&self) -> Box<dyn InterpositionService>;
}

impl<T: InterpositionService + Clone + 'static> BoxClone for T {
    fn box_clone(&self) -> Box<dyn InterpositionService> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn InterpositionService> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Seamless AES-256-CTR encryption of outbound data, decryption of inbound
/// (the paper's §5 imbalance experiment interposes exactly this).
#[derive(Clone)]
pub struct EncryptionService {
    out_stream_key: [u8; 32],
    nonce_out: u64,
    nonce_in: u64,
}

impl EncryptionService {
    /// Creates a service with the given key.
    pub fn new(key: [u8; 32]) -> Self {
        EncryptionService {
            out_stream_key: key,
            nonce_out: 1,
            nonce_in: 1,
        }
    }

    /// Decrypts a payload that was encrypted with the service's `n`-th
    /// outbound nonce — for tests and for the storage back-end.
    pub fn decrypt_nth(&self, n: u64, data: &[u8]) -> Vec<u8> {
        AesCtr::new(&self.out_stream_key, n).process(data)
    }
}

impl InterpositionService for EncryptionService {
    fn name(&self) -> &'static str {
        "aes-256-encryption"
    }

    fn process(&mut self, dir: Direction, payload: Bytes) -> Verdict {
        let nonce = match dir {
            Direction::Outbound => {
                let n = self.nonce_out;
                self.nonce_out += 1;
                n
            }
            Direction::Inbound => {
                let n = self.nonce_in;
                self.nonce_in += 1;
                n
            }
        };
        let transformed = AesCtr::new(&self.out_stream_key, nonce).process(&payload);
        Verdict::Pass(Bytes::from(transformed))
    }

    fn cost(&self, costs: &CostModel, len: usize) -> SimDuration {
        costs.aes_cost(len)
    }
}

/// A stateless packet filter over byte-prefix rules.
#[derive(Clone)]
pub struct FirewallService {
    /// Prefixes that cause a drop.
    deny_prefixes: Vec<Vec<u8>>,
    /// Messages dropped so far.
    pub dropped: u64,
}

impl FirewallService {
    /// Creates a firewall denying payloads starting with any given prefix.
    pub fn new(deny_prefixes: Vec<Vec<u8>>) -> Self {
        FirewallService {
            deny_prefixes,
            dropped: 0,
        }
    }
}

impl InterpositionService for FirewallService {
    fn name(&self) -> &'static str {
        "firewall"
    }

    fn process(&mut self, _dir: Direction, payload: Bytes) -> Verdict {
        for p in &self.deny_prefixes {
            if payload.starts_with(p) {
                self.dropped += 1;
                return Verdict::Drop {
                    reason: "firewall deny rule",
                };
            }
        }
        Verdict::Pass(payload)
    }

    fn cost(&self, _costs: &CostModel, _len: usize) -> SimDuration {
        SimDuration::nanos(120)
    }
}

/// Byte/message metering (the "monitoring and accounting" benefit of
/// interposition).
#[derive(Default, Clone)]
pub struct MeteringService {
    /// Messages seen per direction (outbound, inbound).
    pub messages: (u64, u64),
    /// Bytes seen per direction.
    pub bytes: (u64, u64),
}

impl MeteringService {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        MeteringService::default()
    }
}

impl InterpositionService for MeteringService {
    fn name(&self) -> &'static str {
        "metering"
    }

    fn process(&mut self, dir: Direction, payload: Bytes) -> Verdict {
        match dir {
            Direction::Outbound => {
                self.messages.0 += 1;
                self.bytes.0 += payload.len() as u64;
            }
            Direction::Inbound => {
                self.messages.1 += 1;
                self.bytes.1 += payload.len() as u64;
            }
        }
        Verdict::Pass(payload)
    }

    fn cost(&self, _costs: &CostModel, _len: usize) -> SimDuration {
        SimDuration::nanos(40)
    }
}

/// Content-hash deduplication detector (for storage streams): counts how
/// many payloads were byte-identical to an earlier one.
#[derive(Default, Clone)]
pub struct DedupService {
    seen: HashSet<u64>,
    /// Number of duplicate payloads observed.
    pub duplicates: u64,
}

impl DedupService {
    /// Creates an empty dedup index.
    pub fn new() -> Self {
        DedupService::default()
    }

    fn hash(data: &[u8]) -> u64 {
        // FNV-1a, good enough for dedup detection in tests.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

impl InterpositionService for DedupService {
    fn name(&self) -> &'static str {
        "dedup"
    }

    fn process(&mut self, _dir: Direction, payload: Bytes) -> Verdict {
        if !self.seen.insert(Self::hash(&payload)) {
            self.duplicates += 1;
        }
        Verdict::Pass(payload)
    }

    fn cost(&self, costs: &CostModel, len: usize) -> SimDuration {
        // One pass over the bytes, comparable to a copy.
        costs.copy_cost(len)
    }
}

/// Signature-based intrusion detection: scans payloads for byte patterns.
#[derive(Clone)]
pub struct IntrusionDetectionService {
    signatures: Vec<Vec<u8>>,
    /// Messages that matched a signature (passed through but flagged).
    pub alerts: u64,
    /// Whether matching messages are dropped (IPS mode) or only flagged.
    pub drop_on_match: bool,
}

impl IntrusionDetectionService {
    /// Creates an IDS with the given signatures (detection only).
    pub fn new(signatures: Vec<Vec<u8>>) -> Self {
        IntrusionDetectionService {
            signatures,
            alerts: 0,
            drop_on_match: false,
        }
    }

    fn matches(&self, payload: &[u8]) -> bool {
        self.signatures
            .iter()
            .any(|sig| !sig.is_empty() && payload.windows(sig.len()).any(|w| w == &sig[..]))
    }
}

impl InterpositionService for IntrusionDetectionService {
    fn name(&self) -> &'static str {
        "intrusion-detection"
    }

    fn process(&mut self, _dir: Direction, payload: Bytes) -> Verdict {
        if self.matches(&payload) {
            self.alerts += 1;
            if self.drop_on_match {
                return Verdict::Drop {
                    reason: "IDS signature match",
                };
            }
        }
        Verdict::Pass(payload)
    }

    fn cost(&self, costs: &CostModel, len: usize) -> SimDuration {
        // Multi-pattern scan: ~3x a plain copy pass.
        costs.copy_cost(len) * 3u64
    }
}

/// Run-length compression of storage payloads (counting achieved ratio).
#[derive(Default, Clone)]
pub struct CompressionService {
    /// Total input bytes.
    pub bytes_in: u64,
    /// Total compressed bytes.
    pub bytes_out: u64,
}

impl CompressionService {
    /// Creates a zeroed compressor.
    pub fn new() -> Self {
        CompressionService::default()
    }

    /// Simple RLE: `(count, byte)` pairs. Real enough to measure ratios on
    /// zero-heavy storage payloads.
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == b && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    /// Inverse of [`Self::compress`].
    pub fn decompress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for pair in data.chunks_exact(2) {
            out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
        }
        out
    }
}

impl InterpositionService for CompressionService {
    fn name(&self) -> &'static str {
        "compression"
    }

    fn process(&mut self, dir: Direction, payload: Bytes) -> Verdict {
        // Measure-only: transforming in both directions transparently would
        // require framing; we account for the ratio and pass through.
        if dir == Direction::Outbound {
            let c = Self::compress(&payload);
            self.bytes_in += payload.len() as u64;
            self.bytes_out += c.len() as u64;
        }
        Verdict::Pass(payload)
    }

    fn cost(&self, costs: &CostModel, len: usize) -> SimDuration {
        costs.copy_cost(len) * 2u64
    }
}

/// An ordered chain of interposition services, applied per message.
///
/// # Examples
///
/// ```
/// use vrio::{Direction, EncryptionService, InterpositionChain, MeteringService, Verdict};
/// use vrio_hv::CostModel;
/// use bytes::Bytes;
///
/// let mut chain = InterpositionChain::new();
/// chain.push(Box::new(MeteringService::new()));
/// chain.push(Box::new(EncryptionService::new([3u8; 32])));
///
/// let costs = CostModel::calibrated();
/// let (verdict, cpu) = chain.apply(&costs, Direction::Outbound, Bytes::from_static(b"secret"));
/// match verdict {
///     Verdict::Pass(out) => assert_ne!(&out[..], b"secret"), // encrypted
///     Verdict::Drop { .. } => unreachable!(),
/// }
/// assert!(cpu > vrio_sim::SimDuration::ZERO);
/// ```
#[derive(Default, Clone)]
pub struct InterpositionChain {
    services: Vec<Box<dyn InterpositionService>>,
    /// Per-service message counts, keyed by service name.
    pub processed: HashMap<&'static str, u64>,
}

impl InterpositionChain {
    /// An empty (pass-through, zero-cost) chain.
    pub fn new() -> Self {
        InterpositionChain::default()
    }

    /// Appends a service to the end of the chain.
    pub fn push(&mut self, svc: Box<dyn InterpositionService>) {
        self.services.push(svc);
    }

    /// Number of services installed.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// CPU cost of running the chain over `len` bytes, without touching
    /// any data (for charging ahead of a deferred transformation).
    pub fn cost_only(&self, costs: &CostModel, len: usize) -> SimDuration {
        self.services.iter().map(|svc| svc.cost(costs, len)).sum()
    }

    /// Applies every service in order, accumulating CPU cost. Stops at the
    /// first [`Verdict::Drop`].
    pub fn apply(
        &mut self,
        costs: &CostModel,
        dir: Direction,
        mut payload: Bytes,
    ) -> (Verdict, SimDuration) {
        let mut total = SimDuration::ZERO;
        for svc in &mut self.services {
            total += svc.cost(costs, payload.len());
            *self.processed.entry(svc.name()).or_insert(0) += 1;
            match svc.process(dir, payload) {
                Verdict::Pass(p) => payload = p,
                drop @ Verdict::Drop { .. } => return (drop, total),
            }
        }
        (Verdict::Pass(payload), total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_bytes(v: Verdict) -> Bytes {
        match v {
            Verdict::Pass(b) => b,
            Verdict::Drop { reason } => panic!("unexpected drop: {reason}"),
        }
    }

    #[test]
    fn encryption_roundtrips_through_chain() {
        let key = [5u8; 32];
        let mut svc = EncryptionService::new(key);
        let ct =
            pass_bytes(svc.process(Direction::Outbound, Bytes::from_static(b"attack at dawn")));
        assert_ne!(&ct[..], b"attack at dawn");
        // First outbound message used nonce 1.
        assert_eq!(svc.decrypt_nth(1, &ct), b"attack at dawn");
    }

    #[test]
    fn firewall_drops_matching_prefixes() {
        let mut fw = FirewallService::new(vec![b"EVIL".to_vec()]);
        assert!(matches!(
            fw.process(Direction::Inbound, Bytes::from_static(b"EVIL payload")),
            Verdict::Drop { .. }
        ));
        assert!(matches!(
            fw.process(Direction::Inbound, Bytes::from_static(b"GOOD payload")),
            Verdict::Pass(_)
        ));
        assert_eq!(fw.dropped, 1);
    }

    #[test]
    fn metering_counts_both_directions() {
        let mut m = MeteringService::new();
        m.process(Direction::Outbound, Bytes::from(vec![0u8; 100]));
        m.process(Direction::Inbound, Bytes::from(vec![0u8; 50]));
        m.process(Direction::Inbound, Bytes::from(vec![0u8; 25]));
        assert_eq!(m.messages, (1, 2));
        assert_eq!(m.bytes, (100, 75));
    }

    #[test]
    fn dedup_detects_repeats() {
        let mut d = DedupService::new();
        d.process(Direction::Outbound, Bytes::from_static(b"block-a"));
        d.process(Direction::Outbound, Bytes::from_static(b"block-b"));
        d.process(Direction::Outbound, Bytes::from_static(b"block-a"));
        assert_eq!(d.duplicates, 1);
    }

    #[test]
    fn ids_flags_and_optionally_drops() {
        let mut ids = IntrusionDetectionService::new(vec![b"exploit".to_vec()]);
        let v = ids.process(
            Direction::Inbound,
            Bytes::from_static(b"payload exploit here"),
        );
        assert!(matches!(v, Verdict::Pass(_)));
        assert_eq!(ids.alerts, 1);
        ids.drop_on_match = true;
        let v = ids.process(Direction::Inbound, Bytes::from_static(b"another exploit"));
        assert!(matches!(v, Verdict::Drop { .. }));
    }

    #[test]
    fn compression_roundtrip_and_ratio() {
        let data = vec![0u8; 1000];
        let c = CompressionService::compress(&data);
        assert!(c.len() < 20);
        assert_eq!(CompressionService::decompress(&c), data);
        let mixed: Vec<u8> = (0..500).map(|i| (i % 7) as u8).collect();
        assert_eq!(
            CompressionService::decompress(&CompressionService::compress(&mixed)),
            mixed
        );
    }

    #[test]
    fn chain_applies_in_order_and_stops_on_drop() {
        let mut chain = InterpositionChain::new();
        chain.push(Box::new(FirewallService::new(vec![b"BAD".to_vec()])));
        chain.push(Box::new(MeteringService::new()));
        let costs = CostModel::calibrated();
        let (v, _) = chain.apply(
            &costs,
            Direction::Outbound,
            Bytes::from_static(b"BAD stuff"),
        );
        assert!(matches!(v, Verdict::Drop { .. }));
        // Firewall saw it; metering (after the drop) did not.
        assert_eq!(chain.processed["firewall"], 1);
        assert!(!chain.processed.contains_key("metering"));
        let (v, cpu) = chain.apply(&costs, Direction::Outbound, Bytes::from_static(b"ok"));
        assert!(matches!(v, Verdict::Pass(_)));
        assert!(cpu > SimDuration::ZERO);
        assert_eq!(chain.processed["metering"], 1);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn empty_chain_is_free_passthrough() {
        let mut chain = InterpositionChain::new();
        let costs = CostModel::calibrated();
        let (v, cpu) = chain.apply(&costs, Direction::Inbound, Bytes::from_static(b"x"));
        assert_eq!(pass_bytes(v), Bytes::from_static(b"x"));
        assert_eq!(cpu, SimDuration::ZERO);
        assert!(chain.is_empty());
    }
}
