//! Placement-as-a-service: a resident daemon that amortizes placement
//! analysis and communication-plan compilation across requests.
//!
//! The paper's workflow is compile-once/run-many: the placement search
//! (§5) and the batched [`CommPlan`] are pure functions of the program
//! text, the overlap automaton, the mesh and `P` — so a long-running
//! server can memoize both and serve repeat requests at execution cost
//! only: a request whose text, placement and plan are all cached runs
//! the engine on the plan's kernel and inputs and checksums the
//! outputs, nothing else. This crate provides that server:
//!
//! | module | contents |
//! |---|---|
//! | [`hash`] | FNV-1a content hashing, text/placement/plan key derivation |
//! | [`cache`] | bounded LRU with single-flight builds |
//! | [`protocol`] | newline-delimited JSON requests/events |
//! | [`flight`] | bounded flight recorder of recent request spans |
//! | [`service`] | caches + admission control + engine execution + live metrics |
//! | [`daemon`] | the Unix-domain-socket listener |
//! | [`client`] | a small blocking client |
//!
//! The `syncplace-serve` binary wraps it all (`start`/`ping`/`req`/
//! `stop`); OPERATIONS.md is the operator's guide and DESIGN.md §10
//! the architecture rationale.
//!
//! # In-process quickstart
//!
//! ```
//! use syncplace_server::protocol::{parse_request, Request};
//! use syncplace_server::service::{Service, ServiceConfig};
//!
//! let svc = Service::new(ServiceConfig::default());
//! let req = parse_request(
//!     "{\"op\":\"run\",\"program\":\"testiv\",\"mesh\":{\"nx\":6,\"ny\":6},\"p\":2}",
//! )
//! .unwrap();
//! let Request::Run(req) = req else { unreachable!() };
//! let cold = svc.run(&req).unwrap();
//! let hot = svc.run(&req).unwrap();
//! assert_eq!(cold.checksum, hot.checksum); // bitwise-identical outputs
//! ```
//!
//! [`CommPlan`]: syncplace::runtime::CommPlan

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod flight;
pub mod hash;
pub mod protocol;
pub mod service;

pub use cache::{CacheStats, Lookup, LruCache};
pub use client::Client;
pub use daemon::{Daemon, DaemonHandle};
pub use flight::{FlightEvent, FlightRecorder, RequestSpan};
pub use protocol::{MeshSpec, ProgramSpec, Request, RunRequest};
pub use service::{
    RunOutcome, ServeError, Service, ServiceConfig, ServiceStats, ShedReason, METRIC_KEYS,
};
