//! # vrio — Paravirtual Remote I/O
//!
//! A full reproduction of **"Paravirtual Remote I/O"** (Kuperman et al.,
//! ASPLOS 2016): rack-scale consolidation of paravirtual-I/O sidecores
//! onto a remote *IOhost*, splitting the hypervisor into a local part that
//! runs VMs and a remote *I/O hypervisor* that processes their paravirtual
//! I/O.
//!
//! The crate provides:
//!
//! * the **vRIO wire protocol** ([`VrioMsg`], [`VrioHdr`]) carried over raw
//!   Ethernet with fake-TCP TSO segmentation (§4.1/§4.3);
//! * the **transport driver**'s reliability machinery — [`BlockRetx`] with
//!   unique wire ids, 10 ms doubling timeouts and stale-response filtering
//!   (§4.5) — and the switchable [`TransportMode`] enabling live migration
//!   (§4.6);
//! * the **I/O hypervisor**'s worker [`Steering`] (per-device ordering
//!   without cross-worker synchronization) and control-plane
//!   [`DeviceRegistry`] (§4.1);
//! * **programmable interposition** ([`InterpositionChain`]) with real
//!   services: from-scratch AES-256-CTR [`EncryptionService`], firewall,
//!   metering, dedup, intrusion detection, compression (§1, §5);
//! * the **rack testbed** ([`Testbed`]) — a deterministic discrete-event
//!   model of the paper's 7-server evaluation setup that runs all five I/O
//!   model configurations (baseline virtio, Elvis, vRIO, vRIO-without-
//!   polling, SRIOV+ELI optimum) over real virtqueues and real protocol
//!   bytes, with every hardware cost taken from the calibrated
//!   [`vrio_hv::CostModel`].
//!
//! ## Quickstart: one request-response under vRIO
//!
//! ```
//! use bytes::Bytes;
//! use vrio::{net_request_response, HasTestbed, RrOutcome, Testbed, TestbedConfig};
//! use vrio_hv::IoModel;
//! use vrio_sim::{Engine, SimDuration};
//!
//! // The engine's world: the rack plus what the workload keeps. Flows
//! // hand their outcomes to it, named by the tag they were issued with.
//! struct World {
//!     tb: Testbed,
//!     outcome: Option<RrOutcome>,
//! }
//!
//! impl HasTestbed for World {
//!     fn tb(&mut self) -> &mut Testbed {
//!         &mut self.tb
//!     }
//!
//!     fn on_rr(&mut self, _: &mut Engine<Self>, _tag: u64, o: RrOutcome) {
//!         self.outcome = Some(o);
//!     }
//! }
//!
//! let tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
//! let mut w = World { tb, outcome: None };
//! let mut eng = Engine::new();
//! let ping = Bytes::from_static(b"ping");
//! net_request_response(&mut w, &mut eng, 0, ping, 4, SimDuration::micros(4), 0);
//! eng.run(&mut w);
//!
//! let o = w.outcome.unwrap();
//! assert_eq!(o.response.len(), 4);
//! // The paper's Table 3 accounting: vRIO induces 2 events per
//! // request-response, like bare-metal SRIOV+ELI.
//! assert_eq!(w.tb.counters.sum(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod aes;
mod client;
mod dynamic;
mod health;
mod interpose;
mod iohost;
mod oracle;
mod proto;
mod testbed;
mod transport;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionError, Decision, TenantStats};
pub use aes::{Aes256, AesCtr};
pub use client::{ClientFlavor, IoClient, MigrationError};
pub use dynamic::{
    simulate_consolidated, simulate_local_dynamic, AllocationReport, DynamicAllocator,
    DynamicConfig,
};
pub use health::{
    validate_outage_schedule, HealthConfig, HealthConfigError, HealthMonitor, HealthState,
    HealthStats, Outage, OutageScheduleError, RedundancyMonitor, Route,
};
pub use interpose::{
    BoxClone, CompressionService, DedupService, Direction, EncryptionService, FirewallService,
    InterpositionChain, InterpositionService, IntrusionDetectionService, MeteringService, Verdict,
};
pub use iohost::{
    AdaptivePollConfig, ControlError, DeviceKind, DeviceRegistry, DeviceSpec, PollMode, Steering,
    WorkerId, WorkerPoll,
};
pub use oracle::{Oracle, OracleConfig, OracleReport, Violation};
pub use proto::{DeviceId, VrioHdr, VrioMsg, VrioMsgKind, VRIO_HDR_SIZE};
pub use testbed::{
    blk_request, net_request_response, stream_batch, BlkOutcome, HasTestbed, Resource, RrOutcome,
    Testbed, TestbedConfig,
};
pub use transport::{
    Attempt, BlockRetx, ResponseAction, RetxConfig, RetxConfigError, RetxStats, TimeoutAction,
    TransportMode,
};
pub use vrio_virtio::{RingConfig, RingOps};
