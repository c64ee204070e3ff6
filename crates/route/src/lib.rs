//! Routing for the multi-mode tool flow.
//!
//! A mode-aware PathFinder negotiated-congestion [`Router`] over the
//! routing-resource graph of `mm-arch`:
//!
//! * with one mode it is the conventional VPR router used for the MDR
//!   baseline;
//! * with several modes it is a TRoute-style *connection router*: every
//!   connection carries an activation function and wires may be shared by
//!   connections whose activation sets are disjoint (they are never live
//!   simultaneously);
//! * above a configurable fanout threshold
//!   ([`RouterOptions::steiner_fanout`]) nets are decomposed along a
//!   rectilinear (Hanan-grid) Steiner topology and routed segment by
//!   segment inside small local boxes, so broadcast-shaped nets stop
//!   paying a whole-fabric search per sink.
//!
//! [`min_channel_width`] finds the smallest routable channel width, which
//! the paper relaxes by 20% for its experiments, VPR-style by routing at
//! trial widths: width 4 first, then the width its wire demand predicts,
//! walked to the routable/unroutable boundary. [`nets_for_circuit`] and
//! [`verify_routing`] connect placed circuits to the router and check the
//! result.
//!
//! # Example
//!
//! ```
//! use mm_arch::{Architecture, RoutingGraph, Site};
//! use mm_boolexpr::ModeSet;
//! use mm_route::{Router, RouterOptions, RouteNet, RouteSink};
//!
//! let arch = Architecture::new(4, 4, 4);
//! let rrg = RoutingGraph::build(&arch);
//! let net = RouteNet {
//!     name: "demo".into(),
//!     source: rrg.logic_source(Site::new(1, 1, 0)),
//!     sinks: vec![RouteSink {
//!         node: rrg.logic_sink(Site::new(4, 4, 0)),
//!         activation: ModeSet::of(&[0]),
//!     }],
//! };
//! let mut router = Router::new(&rrg, RouterOptions::default());
//! let routing = router.route(std::slice::from_ref(&net));
//! assert!(routing.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod minw;
mod nets;
pub mod reference;
mod router;

pub use minw::{min_channel_width, relaxed_width, MinWidthResult, WidthProbe};
pub use nets::{nets_for_circuit, verify_routing};
pub use router::{
    NetRoute, RouteNet, RouteSink, RouteTreeNode, Router, RouterOptions, Routing, MAX_ROUTE_CRIT,
    REROUTE_ALL_ITERS,
};
