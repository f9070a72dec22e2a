//! # ncc-butterfly — butterfly emulation and communication primitives
//!
//! §2.2 and Appendix B of the paper build a toolbox of primitives on an
//! emulated butterfly network, which everything else (MST, orientation,
//! BFS, MIS, matching, coloring) is written against:
//!
//! | primitive | paper | bound |
//! |---|---|---|
//! | [`aggregate_and_broadcast`] | Thm 2.2 | `O(log n)` |
//! | [`aggregate`] | Thm 2.3 | `O(L/n + (ℓ₁+ℓ̂₂)/log n + log n)` |
//! | [`multicast_setup`] | Thm 2.4 | `O(L/n + ℓ/log n + log n)`, congestion `O(L/n + log n)` |
//! | [`multicast`](multicast::multicast) | Thm 2.5 | `O(C + ℓ̂/log n + log n)` |
//! | [`multi_aggregate`] | Thm 2.6 | `O(C + log n)` |
//!
//! Every node with identifier `< 2^d` (`d = ⌊log₂ n⌋`) emulates one complete
//! *column* of the `d`-dimensional butterfly; nodes with identifier `≥ 2^d`
//! attach to a proxy column. A butterfly communication round maps to one NCC
//! round because a column touches `O(log n)` butterfly edges and each node
//! may send/receive `O(log n)` messages (§2.2).
//!
//! ## One pipeline per primitive
//!
//! Each primitive is implemented once, as a *composable sub-protocol*
//! ([`ab_sub`], [`aggregation_sub`], [`multicast_setup_sub`],
//! [`multicast_sub`], [`multi_aggregate_sub`]): a short sequence of
//! streamed pipeline stages (scatter while combining, spread while
//! delivering) that run as lanes of one [`ncc_model::Mux`]. Aggregation,
//! Multi-Aggregation and the member-fired combine
//! ([`multicast_aggregate_sub`]) share one combining pipeline and one
//! lane type ([`aggregation::CombineSub`]); they differ only in what feeds
//! the scatter ([`aggregation::Front`]: nothing, the multicast tree spread
//! re-keyed at the leaves, or a whole multicast whose members fire on
//! their copies), in the delivery window and in the shape of their output.
//! Concurrent primitive instances **share rounds, capacity and at most
//! one sync per stage** instead of queuing — the §2 "run many instances in parallel"
//! argument, executable (see [`compose`] and the [`Dag`] scheduler in
//! [`schedule`]). The blocking functions in the table above are wrappers:
//! they build the sub and hand it to [`run_alone`], a one-node [`Dag`] —
//! except [`aggregate_and_broadcast`], one plain program that the engine
//! executes directly, since it is the stage barrier itself.
//!
//! ## Stage synchronisation
//!
//! The paper interleaves a token-passing variant of Aggregate-and-Broadcast
//! to synchronise phase boundaries (App. B.1). Here the engine's quiescence
//! detection plays the token protocol's role, and an **explicit in-model
//! A&B run ([`sync_barrier`]) is charged after every stage whose end no
//! node can tell locally** so round totals include the synchronisation
//! cost, exactly as the paper's bounds do. A stage whose length every node
//! knows in advance ([`StageEnd::Within`]: aggregation's delivery) ends on
//! the clock instead: it is padded with idle rounds up to that bound, never
//! longer than the barrier it replaces.
//!
//! # Example: global minimum in `O(log n)` rounds
//!
//! ```
//! use ncc_butterfly::{aggregate_and_broadcast, MinU64};
//! use ncc_model::{Engine, NetConfig};
//!
//! let n = 100;
//! let mut engine = Engine::new(NetConfig::new(n, 7));
//! let inputs: Vec<Option<u64>> = (0..n as u64).map(|v| Some(1000 - v)).collect();
//! let (results, stats) = aggregate_and_broadcast(&mut engine, inputs, &MinU64).unwrap();
//! assert!(results.iter().all(|r| *r == Some(1000 - 99))); // everyone learns the min
//! assert!(stats.rounds <= 2 * 7 + 3);                      // 2·⌈log₂ n⌉ + O(1)
//! ```

pub mod aggregation;
pub mod combine;
pub mod compose;
pub mod mctree;
pub mod multicast;
// Reachable for the criterion bench and the differential test; not API.
#[doc(hidden)]
pub mod queue;
pub mod schedule;
pub mod seed;
pub mod topology;

pub use aggregation::{
    ab_sub, aggregate, aggregate_and_broadcast, aggregation_sub, multi_aggregate,
    multi_aggregate_sub, multicast_aggregate_sub, send_due, sync_barrier, AbSub, AggregationSpec,
    AggregationSub, GroupedDeliveries, McAggSub, MultiAggSub, ScheduleProgram, ScheduleState,
};
pub use combine::{Aggregate, MaxU64, MinByKey, MinU64, SumPair, SumU64, XorPair, XorSum, XorU64};
pub use compose::{lane_seed, Dag, DagOutputs, Dep, Deps, Lane, LaneSub, ProtoNode, StageEnd};
pub use mctree::{multicast_setup, multicast_setup_sub, self_joins, McSetupSub, MulticastTrees};
pub use multicast::{multicast, multicast_sub, MulticastSub};
pub use schedule::{
    default_lane_budget, run_alone, DagRun, LaneRecord, Owed, PackedStage, SchedReport,
};
pub use seed::broadcast_seed;
pub use topology::{Butterfly, GroupId};
