//! [`Engine::idle_rounds`] — the idle rounds a fixed-duration stage is
//! padded with — steps no node and never touches the allocator, yet is
//! charged round for round like an empty executed round. One test, so
//! no concurrent test can pollute the counting allocator.

use ncc_model::{
    Capacity, Ctx, Engine, Envelope, NetConfig, NetworkModel, NodeProgram, RecvPolicy,
};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// NCC semantics plus a k-machine-style charge: one model round per
/// round, one more per delivered message.
struct PerRound;

impl NetworkModel for PerRound {
    fn name(&self) -> &'static str {
        "per-round"
    }
    fn recv_policy(&self, cap: &Capacity) -> RecvPolicy {
        RecvPolicy::NodeCap { recv: cap.recv }
    }
    fn wants_delivered_pairs(&self) -> bool {
        true
    }
    fn charge_round(&mut self, _round: u64, delivered: &[ncc_model::TraceEvent]) -> u64 {
        1 + delivered.len() as u64
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Sends nothing and stays asleep: one executed round of `init`.
struct Silent;

impl NodeProgram for Silent {
    type State = ();
    type Payload = u64;
    fn init(&self, _st: &mut (), _ctx: &mut Ctx<'_, u64>) {}
    fn round(&self, _st: &mut (), _inbox: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {}
}

#[test]
fn idle_rounds_are_charged_like_empty_rounds_and_allocate_nothing() {
    let n = 1 << 12;
    let mut eng = Engine::with_model(NetConfig::new(n, 3), Box::new(PerRound));
    let empty = eng.execute(&Silent, &mut vec![(); n]).unwrap();
    assert_eq!((empty.rounds, empty.km_rounds, empty.sent), (1, 1, 0));

    let before = common::allocs();
    let idle = eng.idle_rounds(1000);
    assert_eq!(common::allocs() - before, 0, "idle rounds allocated");

    assert_eq!((idle.rounds, idle.km_rounds), (1000, 1000));
    assert_eq!((idle.sent, idle.node_rounds, idle.peak_active), (0, 0, 0));
    assert_eq!(eng.global_round(), 1001);
    assert_eq!((eng.total.rounds, eng.total.km_rounds), (1001, 1001));
    assert_eq!(eng.idle_rounds(0), ncc_model::ExecStats::default());
}
