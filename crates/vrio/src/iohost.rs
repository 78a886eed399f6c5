//! The I/O hypervisor's control plane and worker steering policy
//! (paper §4.1).
//!
//! The I/O hypervisor is a set of workers, each on its own sidecore. An
//! idle worker takes a batch off a NIC receive ring and divides it into
//! sub-batches across workers, subject to the ordering rule: *for each
//! virtual device D, so long as a still-unprocessed packet of D is
//! designated for worker W, subsequent requests of D are steered to W as
//! well* — preserving per-device FIFO order without any cross-worker
//! synchronization on the data path.

use std::collections::HashMap;

use vrio_sim::{SimDuration, SimTime};

use crate::proto::DeviceId;

/// Identifies a worker (sidecore) within the IOhost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

/// The per-device steering table.
///
/// # Examples
///
/// ```
/// use vrio::{DeviceId, Steering, WorkerId};
///
/// let mut s = Steering::new(2);
/// let d = DeviceId { client: 0, device: 0 };
///
/// let w1 = s.assign(d);
/// let w2 = s.assign(d); // still in flight: must stay on the same worker
/// assert_eq!(w1, w2);
///
/// s.complete(d);
/// s.complete(d); // both drained: the device may now move
/// assert_eq!(s.inflight_of(d), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Steering {
    workers: usize,
    /// Per device, indexed by client and then device index: the worker
    /// its unprocessed packets are designated for, and how many there
    /// are. A device with none is unbound.
    inflight: Vec<Vec<(WorkerId, u64)>>,
    /// Per-worker count of currently designated packets, for least-loaded
    /// placement of unbound devices.
    load: Vec<u64>,
    /// Packets steered because of the affinity rule (vs freely placed).
    pub affinity_hits: u64,
}

impl Steering {
    /// Creates a steering table over `workers` workers.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "at least one worker required");
        Steering {
            workers,
            inflight: Vec::new(),
            load: vec![0; workers],
            affinity_hits: 0,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Unprocessed packets currently designated for device `d`'s worker.
    pub fn inflight_of(&self, d: DeviceId) -> u64 {
        self.inflight
            .get(d.client as usize)
            .and_then(|devs| devs.get(usize::from(d.device)))
            .map_or(0, |&(_, n)| n)
    }

    /// Current queue depth of worker `w`.
    pub fn load_of(&self, w: WorkerId) -> u64 {
        self.load[w.0]
    }

    /// Steers one packet of device `d`, returning the worker that must
    /// process it.
    pub fn assign(&mut self, d: DeviceId) -> WorkerId {
        let (c, dev) = (d.client as usize, usize::from(d.device));
        if self.inflight.len() <= c {
            self.inflight.resize_with(c + 1, Vec::new);
        }
        let devs = &mut self.inflight[c];
        if devs.len() <= dev {
            devs.resize(dev + 1, (WorkerId(0), 0));
        }
        let (w, n) = &mut devs[dev];
        if *n > 0 {
            *n += 1;
            self.load[w.0] += 1;
            self.affinity_hits += 1;
            return *w;
        }
        // Unbound device: place on the least-loaded worker.
        *w = WorkerId(
            (0..self.workers)
                .min_by_key(|&i| self.load[i])
                .expect("workers > 0"),
        );
        *n = 1;
        self.load[w.0] += 1;
        *w
    }

    /// Records that one packet of device `d` finished processing.
    ///
    /// A completion for an unbound device (or one more completion than
    /// assignments — a double-complete) is a caller bug: it trips a
    /// `debug_assert` in debug builds and is ignored in release builds
    /// (saturating decrements, never underflow).
    pub fn complete(&mut self, d: DeviceId) {
        let bound = self
            .inflight
            .get_mut(d.client as usize)
            .and_then(|devs| devs.get_mut(usize::from(d.device)))
            .filter(|&&mut (_, n)| n > 0);
        let Some((w, n)) = bound else {
            debug_assert!(false, "completion for unbound device {d}");
            return;
        };
        self.load[w.0] = self.load[w.0].saturating_sub(1);
        *n -= 1;
    }

    /// Splits a batch of packets into per-worker sub-batches under the
    /// affinity rule (the idle-worker dispatch of §4.1). Returns one vector
    /// per worker; relative order within each is the arrival order.
    pub fn split_batch<T>(&mut self, batch: Vec<(DeviceId, T)>) -> Vec<Vec<(DeviceId, T)>> {
        let mut out: Vec<Vec<(DeviceId, T)>> = (0..self.workers).map(|_| Vec::new()).collect();
        for (dev, pkt) in batch {
            let w = self.assign(dev);
            out[w.0].push((dev, pkt));
        }
        out
    }
}

// ---- adaptive worker polling ---------------------------------------------

/// Configuration of the poll↔interrupt switching of an IOhost worker.
///
/// Disabled by default: every arrival then raises a doorbell, exactly the
/// seed behavior. When enabled, a worker polls its rings for up to
/// [`AdaptivePollConfig::poll_window`] of idleness after the last activity
/// before falling back to interrupt mode — arrivals during the window are
/// absorbed without a doorbell (batched), arrivals after it pay one
/// doorbell and re-enter polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePollConfig {
    /// Whether adaptive switching is active.
    pub enabled: bool,
    /// The poll budget: how long a polling worker spins past its last
    /// activity before re-arming interrupts.
    pub poll_window: SimDuration,
}

impl AdaptivePollConfig {
    /// The seed behavior: no adaptive switching, every arrival kicks.
    pub fn disabled() -> Self {
        AdaptivePollConfig {
            enabled: false,
            poll_window: SimDuration::micros(50),
        }
    }

    /// Adaptive switching with the given poll budget.
    pub fn windowed(poll_window: SimDuration) -> Self {
        AdaptivePollConfig {
            enabled: true,
            poll_window,
        }
    }
}

impl Default for AdaptivePollConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Which notification regime a worker is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// The worker sleeps; the next arrival must ring a doorbell.
    Interrupt,
    /// The worker spins on its rings; arrivals need no doorbell.
    Polling,
}

/// The per-worker poll↔interrupt state machine.
///
/// Pure and deterministic: the mode after any sequence of
/// [`WorkerPoll::on_arrival`]/[`WorkerPoll::on_activity`] calls is a
/// function of the event times alone — no randomness, no wall clock — so
/// runs replay bit-identically per seed. Doorbell counts are monotone in
/// the window: a doorbell fires only when the gap since the last activity
/// exceeds [`AdaptivePollConfig::poll_window`], and the set of gaps
/// exceeding the window can only shrink as the window grows.
///
/// # Examples
///
/// ```
/// use vrio::{AdaptivePollConfig, PollMode, WorkerPoll};
/// use vrio_sim::{SimDuration, SimTime};
///
/// let mut p = WorkerPoll::new(AdaptivePollConfig::windowed(SimDuration::micros(10)));
/// let t = |us| SimTime::ZERO + SimDuration::micros(us);
///
/// assert!(p.on_arrival(t(0)), "first arrival rings the doorbell");
/// assert_eq!(p.mode(), PollMode::Polling);
/// assert!(!p.on_arrival(t(5)), "inside the window: absorbed");
/// assert!(p.on_arrival(t(100)), "idle past the window: doorbell again");
/// assert_eq!(p.doorbells, 2);
/// ```
#[derive(Debug, Clone)]
pub struct WorkerPoll {
    config: AdaptivePollConfig,
    mode: PollMode,
    last_activity: SimTime,
    /// Interrupt→polling transitions (each cost one doorbell).
    pub to_polling: u64,
    /// Polling→interrupt fallbacks (idle past the poll window).
    pub to_interrupt: u64,
    /// Arrivals absorbed while polling, i.e. doorbells elided.
    pub polled_arrivals: u64,
    /// Doorbells actually rung (every arrival when disabled).
    pub doorbells: u64,
}

impl WorkerPoll {
    /// A worker starting in interrupt mode.
    pub fn new(config: AdaptivePollConfig) -> Self {
        WorkerPoll {
            config,
            mode: PollMode::Interrupt,
            last_activity: SimTime::ZERO,
            to_polling: 0,
            to_interrupt: 0,
            polled_arrivals: 0,
            doorbells: 0,
        }
    }

    /// The configuration this worker runs under.
    pub fn config(&self) -> AdaptivePollConfig {
        self.config
    }

    /// The current mode, as of the last observed event.
    pub fn mode(&self) -> PollMode {
        self.mode
    }

    /// Records a request arrival at `now`; returns whether the arrival
    /// must ring a doorbell (always when switching is disabled).
    pub fn on_arrival(&mut self, now: SimTime) -> bool {
        if !self.config.enabled {
            self.doorbells += 1;
            return true;
        }
        self.check_idle(now);
        self.last_activity = now;
        match self.mode {
            PollMode::Interrupt => {
                self.mode = PollMode::Polling;
                self.to_polling += 1;
                self.doorbells += 1;
                true
            }
            PollMode::Polling => {
                self.polled_arrivals += 1;
                false
            }
        }
    }

    /// Records ring work (a pickup, a completion push) at `now`, keeping
    /// the poll window open.
    pub fn on_activity(&mut self, now: SimTime) {
        if !self.config.enabled {
            return;
        }
        self.check_idle(now);
        if self.mode == PollMode::Polling {
            self.last_activity = now;
        }
    }

    /// Advances the idle clock without recording activity (e.g. from a
    /// telemetry sampler), applying the polling→interrupt fallback if the
    /// window has lapsed.
    pub fn tick(&mut self, now: SimTime) {
        if self.config.enabled {
            self.check_idle(now);
        }
    }

    fn check_idle(&mut self, now: SimTime) {
        if self.mode == PollMode::Polling && now.since(self.last_activity) > self.config.poll_window
        {
            self.mode = PollMode::Interrupt;
            self.to_interrupt += 1;
        }
    }
}

/// Kind of paravirtual device the control plane manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A paravirtual network device.
    Net,
    /// A paravirtual block device.
    Blk,
}

/// A registered device and its back-end binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// What kind of front-end this is.
    pub kind: DeviceKind,
    /// Index of the backing resource at the IOhost (a block store for blk
    /// devices, a NIC/bridge for net devices).
    pub backing: usize,
}

/// Errors from the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The device id is already registered.
    AlreadyExists(DeviceId),
    /// The device id is not registered.
    NotFound(DeviceId),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::AlreadyExists(d) => write!(f, "device {d} already exists"),
            ControlError::NotFound(d) => write!(f, "device {d} not found"),
        }
    }
}

impl std::error::Error for ControlError {}

/// The device registry: in vRIO, devices are created and destroyed *via the
/// I/O hypervisor*, not the local hypervisor (paper §4.1) — the transport
/// driver's secondary role is executing these commands at the IOclient.
///
/// # Examples
///
/// ```
/// use vrio::{DeviceId, DeviceKind, DeviceRegistry, DeviceSpec};
///
/// let mut reg = DeviceRegistry::new();
/// let d = DeviceId { client: 1, device: 0 };
/// reg.create(d, DeviceSpec { kind: DeviceKind::Blk, backing: 0 }).unwrap();
/// assert_eq!(reg.lookup(d).unwrap().kind, DeviceKind::Blk);
/// reg.destroy(d).unwrap();
/// assert!(reg.lookup(d).is_none());
/// ```
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    devices: HashMap<DeviceId, DeviceSpec>,
    /// Create/destroy commands issued (the control-plane traffic counter).
    pub commands: u64,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Registers a device, to be announced to its IOclient via a
    /// `CtrlCreateDevice` message.
    pub fn create(&mut self, id: DeviceId, spec: DeviceSpec) -> Result<(), ControlError> {
        if self.devices.contains_key(&id) {
            return Err(ControlError::AlreadyExists(id));
        }
        self.devices.insert(id, spec);
        self.commands += 1;
        Ok(())
    }

    /// Destroys a device.
    pub fn destroy(&mut self, id: DeviceId) -> Result<DeviceSpec, ControlError> {
        self.commands += 1;
        self.devices.remove(&id).ok_or(ControlError::NotFound(id))
    }

    /// Looks a device up.
    pub fn lookup(&self, id: DeviceId) -> Option<&DeviceSpec> {
        self.devices.get(&id)
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// All devices of a client (e.g. to tear down on migration away).
    pub fn devices_of(&self, client: u32) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self
            .devices
            .keys()
            .filter(|d| d.client == client)
            .copied()
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(c: u32, d: u16) -> DeviceId {
        DeviceId {
            client: c,
            device: d,
        }
    }

    #[test]
    fn affinity_holds_while_inflight() {
        let mut s = Steering::new(4);
        let d = dev(0, 0);
        let w = s.assign(d);
        for _ in 0..10 {
            assert_eq!(s.assign(d), w);
        }
        assert_eq!(s.inflight_of(d), 11);
        assert_eq!(s.affinity_hits, 10);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "completion for unbound device")
    )]
    fn double_complete_saturates_instead_of_underflowing() {
        let mut s = Steering::new(2);
        let d = dev(0, 0);
        let w = s.assign(d);
        s.complete(d);
        // The drained entry is gone; a stray second completion is a caller
        // bug — debug builds assert, release builds saturate and ignore.
        s.complete(d);
        assert_eq!(s.inflight_of(d), 0);
        assert_eq!(s.load_of(w), 0, "load must not underflow");
        // The table keeps working after the stray completion.
        assert!(s.assign(d).0 < 2);
        assert_eq!(s.inflight_of(d), 1);
    }

    #[test]
    fn device_can_move_after_drain() {
        let mut s = Steering::new(2);
        let a = dev(0, 0);
        let w_a = s.assign(a);
        // Load the other worker's candidate: bind b elsewhere.
        let b = dev(1, 0);
        let w_b = s.assign(b);
        assert_ne!(w_a, w_b);
        // Drain a, then pile load onto a's old worker via b.
        s.complete(a);
        for _ in 0..5 {
            s.assign(b);
        }
        // a rebinds to the now-least-loaded worker (its old one).
        let w_a2 = s.assign(a);
        assert_eq!(w_a2, w_a);
    }

    #[test]
    fn least_loaded_placement() {
        let mut s = Steering::new(3);
        // Three fresh devices spread across the three workers: all three
        // assignments distinct (checked pairwise, no clone+sort scratch).
        let ws: Vec<WorkerId> = (0..3).map(|i| s.assign(dev(i, 0))).collect();
        let distinct = ws
            .iter()
            .enumerate()
            .all(|(i, w)| ws[..i].iter().all(|prev| prev != w));
        assert!(distinct, "devices should spread: {ws:?}");
    }

    #[test]
    fn split_batch_preserves_per_device_order() {
        let mut s = Steering::new(3);
        let batch: Vec<(DeviceId, u32)> = (0..30).map(|i| (dev(i % 5, 0), i)).collect();
        let subs = s.split_batch(batch);
        assert_eq!(subs.len(), 3);
        // Each device's packets all landed on one worker, in order.
        for c in 0..5u32 {
            let mut found: Vec<(usize, Vec<u32>)> = Vec::new();
            for (w, sub) in subs.iter().enumerate() {
                let seq: Vec<u32> = sub
                    .iter()
                    .filter(|(d, _)| d.client == c)
                    .map(|&(_, p)| p)
                    .collect();
                if !seq.is_empty() {
                    found.push((w, seq));
                }
            }
            assert_eq!(found.len(), 1, "device {c} split across workers");
            // In order == already sorted; check adjacency instead of
            // allocating a sorted copy.
            let seq = &found[0].1;
            assert!(
                seq.windows(2).all(|w| w[0] <= w[1]),
                "device {c} out of order: {seq:?}"
            );
        }
    }

    #[test]
    fn registry_lifecycle() {
        let mut reg = DeviceRegistry::new();
        let d = dev(2, 1);
        reg.create(
            d,
            DeviceSpec {
                kind: DeviceKind::Net,
                backing: 0,
            },
        )
        .unwrap();
        assert_eq!(
            reg.create(
                d,
                DeviceSpec {
                    kind: DeviceKind::Net,
                    backing: 0
                }
            ),
            Err(ControlError::AlreadyExists(d))
        );
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.destroy(d).unwrap().kind, DeviceKind::Net);
        assert_eq!(reg.destroy(d), Err(ControlError::NotFound(d)));
        assert!(reg.is_empty());
    }

    #[test]
    fn devices_of_client() {
        let mut reg = DeviceRegistry::new();
        for i in 0..3 {
            reg.create(
                dev(7, i),
                DeviceSpec {
                    kind: DeviceKind::Blk,
                    backing: i as usize,
                },
            )
            .unwrap();
        }
        reg.create(
            dev(8, 0),
            DeviceSpec {
                kind: DeviceKind::Net,
                backing: 0,
            },
        )
        .unwrap();
        assert_eq!(reg.devices_of(7), vec![dev(7, 0), dev(7, 1), dev(7, 2)]);
        assert_eq!(reg.devices_of(9), Vec::<DeviceId>::new());
    }
}
