//! Dynamo: data center-wide power management (ISCA 2016), end to end.
//!
//! This crate couples every substrate in the workspace into a runnable
//! datacenter simulation with the full Dynamo control plane deployed on
//! top, mirroring the production configuration of §IV of the paper:
//!
//! * the [`powerinfra`] topology (MSB → SB → RPP → rack → server) with
//!   breaker models,
//! * a [`Fleet`] of simulated servers — columns of state served to
//!   the controllers through the [`dynamo_agent`] request handler —
//!   driven by [`workloads`] service processes and traffic patterns,
//! * a [`DynamoSystem`] of controllers — one
//!   [`dynamo_controller::LeafController`] per RPP (rack level skipped,
//!   as at Facebook), one [`dynamo_controller::UpperController`] per SB
//!   and MSB — coordinated through contractual limits,
//! * [`Telemetry`] recording 3-second device power traces, capping
//!   events, breaker trips and alerts.
//!
//! # Quickstart
//!
//! ```
//! use dcsim::SimDuration;
//! use dynamo::DatacenterBuilder;
//! use workloads::ServiceKind;
//!
//! // A small one-RPP datacenter running web servers, with Dynamo on.
//! let mut dc = DatacenterBuilder::new()
//!     .sbs_per_msb(1)
//!     .rpps_per_sb(1)
//!     .racks_per_rpp(2)
//!     .servers_per_rack(10)
//!     .uniform_service(ServiceKind::Web)
//!     .seed(7)
//!     .build();
//! dc.run_for(SimDuration::from_secs(60));
//! let root = dc.topology().root();
//! assert!(dc.device_power(root).as_watts() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod control_plane;
mod datacenter;
mod events;
mod failover;
mod fleet;
mod grid;
mod leaf_exec;
mod obs;
mod report;
mod shard;
mod telemetry;
mod upper_exec;
mod validator;

pub use builder::{DatacenterBuilder, ServicePlan};
pub use control_plane::{DynamoSystem, SystemConfig};
pub use datacenter::{Datacenter, DatacenterState, ParallelMode};
pub use dynobs::ObsConfig;
pub use dynpool::WorkerPool;
pub use events::{ControllerEvent, ControllerEventKind, PhasePolicy};
pub use fleet::{Fleet, FleetState, FleetStats, TickTraffic};
pub use grid::{DcupsBankConfig, GridConfig, GridLayer, GridSummary};
pub use obs::{Observability, TickPhase, TICK_PHASES};
pub use report::{LevelSummary, RunReport};
pub use telemetry::{Telemetry, TelemetryConfig, TelemetryState};
pub use validator::{BreakerValidator, ValidationAlert, ValidatorState};

/// Maps a workload-simulator service to the controller-facing metadata
/// triple (name, priority, SLA floor). This is the seam where production
/// Dynamo would read a service metadata store.
pub fn service_class_of(kind: workloads::ServiceKind) -> dynamo_controller::ServiceClass {
    dynamo_controller::ServiceClass::new(kind.label(), kind.priority(), kind.sla_min_cap())
}
