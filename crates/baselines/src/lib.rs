//! # ncc-baselines — reference points for the reproduction
//!
//! Three families of baselines:
//!
//! * [`sequential`] — centralised greedy algorithms (MIS, matching,
//!   coloring) used to sanity-check solution *quality* (the paper's
//!   algorithms compute maximal/proper solutions, not optimal ones, so the
//!   comparison is validity plus size ratios);
//! * [`naive`] — what §1/§2.2 argue against: direct neighbor-to-neighbor
//!   communication on the capacitated clique. The implementation respects
//!   the capacity bound *deterministically* via sender-id TDMA slots, which
//!   makes its cost `Θ(n/log n)` rounds per communication phase on
//!   high-degree graphs — the contrast experiment E16 measures against the
//!   `O(a + log n)` primitive stack;
//! * [`dissemination`] — gossip and broadcast protocols matching the
//!   intro's bounds: gossip needs `Ω(n/log n)` rounds (Θ̃(n) bits per round
//!   network-wide), broadcast `Ω(log n / log log n)` (fan-out `Θ(log n)`
//!   doubling).

pub mod dissemination;
pub mod naive;
pub mod sequential;

pub use dissemination::{broadcast_all, gossip_all, round_cap};
pub use naive::{naive_bfs, NaiveBfsResult};
pub use sequential::{greedy_coloring, greedy_matching, greedy_mis};
