//! Execution statistics.
//!
//! The paper's results are *round complexity* bounds plus the standing claim
//! (Lemma 4.11) that no node ever sends or receives more than `O(log n)`
//! messages per round. These counters are the measured side of both: the
//! experiment harness prints them next to the theoretical bound for every
//! table and theorem.

use serde::{Deserialize, Serialize};

/// Statistics for a single round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Messages handed to the network this round (after send-cap check).
    pub sent: u64,
    /// Messages delivered to inboxes next round.
    pub delivered: u64,
    /// Messages dropped because a destination exceeded its receive cap.
    /// Disjoint from `truncated`: a dropped message was `sent` first.
    pub dropped: u64,
    /// Messages cut by permissive-mode send-cap truncation. Disjoint from
    /// `dropped`: a truncated message never reached the network and is not
    /// part of `sent`.
    pub truncated: u64,
    /// Destinations whose pre-drop in-degree exceeded the receive cap.
    pub over_cap_dsts: u64,
    /// Total payload bits sent.
    pub bits: u64,
    /// Maximum messages sent by any single node this round.
    pub max_out: u64,
    /// Maximum messages addressed to any single node this round
    /// (before the receive cap is applied).
    pub max_in: u64,
    /// Largest per-ordered-edge load this round. Only measured by models
    /// with pairwise budgets (Congested Clique edges, hybrid local edges);
    /// 0 under plain NCC.
    pub max_edge_load: u64,
    /// Number of nodes that executed their step function this round.
    pub active_nodes: u64,
    /// Send-cap violations observed (permissive mode only; strict mode errors).
    pub send_cap_violations: u64,
    /// Model rounds charged by the active network model's cost accounting
    /// (the k-machine conversion of Appendix A); 0 for models that charge
    /// nothing beyond the engine round itself.
    pub km_rounds: u64,
}

/// Accumulated statistics for a full execution (or a phase of one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Number of communication rounds consumed.
    pub rounds: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    /// Send-side permissive truncations; disjoint from `dropped` (see
    /// [`RoundStats::truncated`]), so `lost() == dropped + truncated`.
    pub truncated: u64,
    /// Sum over rounds of destinations that exceeded the receive cap.
    pub over_cap_dsts: u64,
    pub bits: u64,
    /// Max over rounds of the per-round max out-degree.
    pub max_out: u64,
    /// Max over rounds of the per-round max in-degree (pre-drop).
    pub max_in: u64,
    /// Max over rounds of the per-round max per-edge load (pairwise-budget
    /// models only; 0 under plain NCC).
    pub max_edge_load: u64,
    pub send_cap_violations: u64,
    /// Sum over rounds of active node counts (total "node-rounds" of work).
    /// This is the `sum_active` quantity the sparse-activity engine bounds:
    /// a round costs O(active + messages), so `node_rounds` — not
    /// `rounds × n` — is the real step-phase work of an execution.
    pub node_rounds: u64,
    /// Max over rounds of the active node count — how wide the widest
    /// round was. Together with `node_rounds` this shows how sparse an
    /// execution's activity actually is (`node_rounds / rounds` is the
    /// mean, `peak_active` the worst case).
    pub peak_active: u64,
    /// Total model rounds charged by the network model's cost accounting
    /// (k-machine rounds under the `KMachine` model; 0 otherwise).
    pub km_rounds: u64,
}

impl ExecStats {
    /// Folds one round's numbers into the running totals.
    ///
    /// Asserts (in debug builds) the conservation law that keeps `dropped`
    /// and `truncated` disjoint: every message handed to the network is
    /// delivered or dropped — truncated messages were never handed over.
    pub fn absorb_round(&mut self, r: &RoundStats) {
        debug_assert_eq!(
            r.delivered + r.dropped,
            r.sent,
            "sent messages must be exactly delivered + dropped (truncated are not sent)"
        );
        self.rounds += 1;
        self.sent += r.sent;
        self.delivered += r.delivered;
        self.dropped += r.dropped;
        self.truncated += r.truncated;
        self.over_cap_dsts += r.over_cap_dsts;
        self.bits += r.bits;
        self.max_out = self.max_out.max(r.max_out);
        self.max_in = self.max_in.max(r.max_in);
        self.max_edge_load = self.max_edge_load.max(r.max_edge_load);
        self.send_cap_violations += r.send_cap_violations;
        self.node_rounds += r.active_nodes;
        self.peak_active = self.peak_active.max(r.active_nodes);
        self.km_rounds += r.km_rounds;
    }

    /// Merges the totals of another execution (phase) into this one.
    /// Rounds add; maxima take the max.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rounds += other.rounds;
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.truncated += other.truncated;
        self.over_cap_dsts += other.over_cap_dsts;
        self.bits += other.bits;
        self.max_out = self.max_out.max(other.max_out);
        self.max_in = self.max_in.max(other.max_in);
        self.max_edge_load = self.max_edge_load.max(other.max_edge_load);
        self.send_cap_violations += other.send_cap_violations;
        self.node_rounds += other.node_rounds;
        self.peak_active = self.peak_active.max(other.peak_active);
        self.km_rounds += other.km_rounds;
    }

    /// `true` when no message was lost and no cap was violated — the
    /// "w.h.p. clean execution" the paper's analyses assume.
    pub fn clean(&self) -> bool {
        self.dropped == 0 && self.send_cap_violations == 0
    }

    /// Peak per-node per-round load (max of send-side and receive-side),
    /// the quantity Lemma 4.11 bounds by `O(log n)`.
    pub fn peak_load(&self) -> u64 {
        self.max_out.max(self.max_in)
    }

    /// Messages lost for any reason. The two counters are disjoint by
    /// construction — `dropped` messages were sent and hit the receive cap,
    /// `truncated` messages were cut at the sender and never sent — so the
    /// sum never double-counts a message.
    pub fn lost(&self) -> u64 {
        self.dropped + self.truncated
    }
}

/// Resident heap footprint of an engine's long-lived state, by component
/// (see `Engine::resident_bytes`). Capacity-based estimates of what a
/// warm engine holds between executions — a cost report for sizing
/// n = 10⁷ deployments, never part of a deterministic snapshot
/// (`ExecStats`/`RoundStats` stay untouched so records do not drift).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct MemoryFootprint {
    /// Per-node RNG streams and their stale flags (the one unavoidable
    /// O(n) column).
    pub node_rngs: usize,
    /// Activity lists: active/next-active/awake id columns + trace buffer.
    pub activity_lists: usize,
    /// Router tables: start/len/counts columns, cursors, sample scratch.
    pub router_tables: usize,
    /// Recycled payload-typed buffers (send buffer, inbox arena,
    /// per-worker shards), summed over payload types seen so far.
    pub payload_bufs: usize,
}

impl MemoryFootprint {
    pub fn total(&self) -> usize {
        self.node_rngs + self.activity_lists + self.router_tables + self.payload_bufs
    }

    /// Average resident bytes per node — the headline scaling number.
    pub fn per_node(&self, n: usize) -> f64 {
        self.total() as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(sent: u64, max_out: u64, max_in: u64) -> RoundStats {
        RoundStats {
            sent,
            delivered: sent,
            dropped: 0,
            truncated: 0,
            over_cap_dsts: 0,
            bits: sent * 10,
            max_out,
            max_in,
            active_nodes: 4,
            ..RoundStats::default()
        }
    }

    #[test]
    fn km_rounds_accumulate_and_edge_load_maxes() {
        let mut e = ExecStats::default();
        let mut r1 = round(4, 1, 1);
        r1.km_rounds = 3;
        r1.max_edge_load = 2;
        let mut r2 = round(4, 1, 1);
        r2.km_rounds = 5;
        r2.max_edge_load = 7;
        e.absorb_round(&r1);
        e.absorb_round(&r2);
        assert_eq!(e.km_rounds, 8);
        assert_eq!(e.max_edge_load, 7);
        let mut other = ExecStats::default();
        other.absorb_round(&r1);
        e.merge(&other);
        assert_eq!(e.km_rounds, 11);
        assert_eq!(e.max_edge_load, 7);
    }

    #[test]
    fn absorb_accumulates() {
        let mut e = ExecStats::default();
        e.absorb_round(&round(10, 3, 5));
        e.absorb_round(&round(20, 7, 2));
        assert_eq!(e.rounds, 2);
        assert_eq!(e.sent, 30);
        assert_eq!(e.max_out, 7);
        assert_eq!(e.max_in, 5);
        assert_eq!(e.node_rounds, 8);
        assert_eq!(e.peak_active, 4);
        assert!(e.clean());
        assert_eq!(e.peak_load(), 7);
    }

    #[test]
    fn peak_active_maxes_across_rounds_and_merges() {
        let mut a = ExecStats::default();
        let mut r1 = round(1, 1, 1);
        r1.active_nodes = 9;
        let mut r2 = round(1, 1, 1);
        r2.active_nodes = 2;
        a.absorb_round(&r1);
        a.absorb_round(&r2);
        assert_eq!(a.peak_active, 9);
        assert_eq!(a.node_rounds, 11);
        let mut b = ExecStats::default();
        let mut r3 = round(1, 1, 1);
        r3.active_nodes = 30;
        b.absorb_round(&r3);
        a.merge(&b);
        assert_eq!(a.peak_active, 30);
        assert_eq!(a.node_rounds, 41);
    }

    #[test]
    fn merge_adds_rounds_and_maxes() {
        let mut a = ExecStats::default();
        a.absorb_round(&round(1, 1, 9));
        let mut b = ExecStats::default();
        b.absorb_round(&round(2, 8, 1));
        b.absorb_round(&round(2, 2, 1));
        a.merge(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.sent, 5);
        assert_eq!(a.max_out, 8);
        assert_eq!(a.max_in, 9);
    }

    #[test]
    fn dirty_when_drops() {
        let mut e = ExecStats::default();
        let mut r = round(5, 1, 1);
        r.delivered = 4;
        r.dropped = 1;
        r.over_cap_dsts = 1;
        e.absorb_round(&r);
        assert!(!e.clean());
        assert_eq!(e.over_cap_dsts, 1);
    }

    #[test]
    fn lost_is_disjoint_sum_of_dropped_and_truncated() {
        let mut e = ExecStats::default();
        let mut r = round(10, 2, 6);
        r.delivered = 7;
        r.dropped = 3; // receive-cap drops: part of `sent`
        r.truncated = 4; // send-side truncation: never sent
        e.absorb_round(&r);
        assert_eq!(e.sent, 10);
        assert_eq!(e.dropped, 3);
        assert_eq!(e.truncated, 4);
        assert_eq!(e.lost(), 7);
        // conservation: sent splits exactly into delivered + dropped
        assert_eq!(e.delivered + e.dropped, e.sent);
    }

    #[test]
    #[should_panic(expected = "delivered + dropped")]
    #[cfg(debug_assertions)]
    fn absorb_rejects_double_counted_losses() {
        let mut e = ExecStats::default();
        let mut r = round(5, 1, 1);
        // delivered still 5: a message counted both delivered and dropped
        r.dropped = 1;
        e.absorb_round(&r);
    }
}
