//! # vrio-hv
//!
//! The hypervisor substrate of the vRIO reproduction: everything that runs
//! on a VMhost.
//!
//! * [`Vm`] — guest memory with real virtqueue-backed net and block devices
//!   (both the guest-driver half and the back-end half, over shared
//!   memory — Figure 4 of the paper);
//! * [`GuestCpu`] — a VCPU serializing thread bursts with
//!   voluntary/involuntary context-switch accounting (the mechanism behind
//!   the paper's Figure 14 anomaly);
//! * [`CostModel`] — every hardware/OS cost as a documented, calibrated
//!   nanosecond constant;
//! * [`IoModel`] / [`EventCounters`] / [`table3_expected`] — the five I/O
//!   model configurations and their per-request exit/interrupt accounting
//!   (the paper's Table 3).
//!
//! The comparator back-ends themselves (baseline vhost thread, Elvis
//! sidecore, SRIOV passthrough) are event orchestrations over these parts;
//! they live in `vrio::testbed` next to the vRIO data path so that all four
//! models share one workload harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod costs;
mod counters;
mod guest;
mod vm;

pub use costs::CostModel;
pub use counters::{table3_expected, EventCounters, IoModel, ReliabilityCounters};
pub use guest::GuestCpu;
pub use vm::{BlkCompletion, DeviceError, QueueAudit, VirtioBlkDevice, VirtioNetDevice, Vm, VmId};
