//! # legaliot
//!
//! Umbrella crate for the reproduction of Singh et al., *Big ideas paper: Policy-driven
//! middleware for a legally-compliant Internet of Things* (ACM/IFIP/USENIX Middleware
//! 2016). It re-exports the workspace crates so examples, integration tests and
//! downstream users can depend on a single crate.
//!
//! See `README.md` for an overview; its "Workspace layout" table lists every crate and
//! what it simulates, and `tests/figures.rs` is the figure-by-figure reproduction.
//!
//! ```
//! use legaliot::core::HomeMonitoringScenario;
//!
//! let mut scenario = HomeMonitoringScenario::build(42);
//! scenario.run_sanitiser_endorsement();
//! let outcome = scenario.run(2);
//! assert!(outcome.delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use legaliot_audit as audit;
pub use legaliot_compliance as compliance;
pub use legaliot_context as context;
pub use legaliot_core as core;
pub use legaliot_dataplane as dataplane;
pub use legaliot_fleet as fleet;
pub use legaliot_ifc as ifc;
pub use legaliot_iot as iot;
pub use legaliot_kernel as kernel;
pub use legaliot_middleware as middleware;
pub use legaliot_net as net;
pub use legaliot_obs as obs;
pub use legaliot_policy as policy;
