//! Failure injection: the model's drop semantics under squeezed capacity,
//! and strict-mode enforcement.

use ncc::baselines::gossip_all;
use ncc::model::{Capacity, Ctx, Engine, Envelope, NetConfig, NodeProgram};

/// A protocol that ignores the receive cap: everyone floods node 0.
struct HotSpot;
impl NodeProgram for HotSpot {
    type State = u64;
    type Payload = u64;
    fn init(&self, _st: &mut u64, ctx: &mut Ctx<'_, u64>) {
        if ctx.id != 0 {
            ctx.send(0, ctx.id as u64);
        }
    }
    fn round(&self, st: &mut u64, inbox: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {
        *st += inbox.len() as u64;
    }
}

#[test]
fn squeezed_receive_cap_drops_and_counts() {
    // a hot-spot flood against a tiny receive cap: the network must drop
    // the excess, deliver an arbitrary subset, and count every loss
    let n = 256;
    let cfg = NetConfig::new(n, 1)
        .with_capacity(Capacity::squeezed(64, 4))
        .permissive();
    let mut eng = Engine::new(cfg);
    let mut states = vec![0u64; n];
    let stats = eng.execute(&HotSpot, &mut states).unwrap();
    assert_eq!(stats.dropped, (n - 1 - 4) as u64, "squeezed cap must drop");
    assert_eq!(states[0], 4, "exactly recv-cap messages delivered");
    assert_eq!(
        stats.delivered + stats.dropped,
        stats.sent,
        "every sent message is either delivered or dropped"
    );
}

#[test]
fn strict_mode_flags_oversend_in_algorithms() {
    // under an absurdly small send cap, the dissemination protocol
    // (which sizes its batches from the configured cap) still works —
    // capacity awareness is part of protocol design
    let n = 128;
    let cfg = NetConfig::new(n, 2).with_capacity(Capacity::squeezed(2, 2));
    let mut eng = Engine::new(cfg);
    let stats = gossip_all(&mut eng).unwrap();
    // with cap 2 the rotation takes ⌈(n−1)/2⌉ ≈ 64 rounds
    assert!(stats.rounds >= 60, "rounds {}", stats.rounds);
    assert!(stats.clean());
}

#[test]
fn deterministic_drop_selection() {
    let run = |seed: u64| {
        let cfg = NetConfig::new(64, seed)
            .with_capacity(Capacity::squeezed(64, 3))
            .permissive();
        let mut eng = Engine::new(cfg);
        gossip_all(&mut eng).unwrap()
    };
    assert_eq!(run(5), run(5));
    let a = run(5);
    let b = run(6);
    assert_eq!(a.sent, b.sent);
    // drop *choices* differ by seed but totals are schedule-determined here
    assert_eq!(a.dropped, b.dropped);
}

#[test]
fn unbounded_capacity_never_drops() {
    let cfg = NetConfig::new(128, 3).with_capacity(Capacity::unbounded());
    let mut eng = Engine::new(cfg);
    let stats = gossip_all(&mut eng).unwrap();
    assert_eq!(stats.dropped, 0);
    // with no cap the gossip batch is sized by `usize::MAX`… the protocol
    // still derives its schedule from the configured cap, so it simply
    // finishes in very few rounds
    assert!(stats.rounds <= 3, "rounds {}", stats.rounds);
}

/// Receive-cap drops make the algorithms lose messages they wait for; a
/// lost message must surface as a typed error (or a record with a
/// verdict), never as a panic. Every registry algorithm on a small dense
/// graph under two tight receive caps, with the default send cap.
#[test]
fn receive_cap_drops_never_panic() {
    use ncc::runner::{algorithms, run_checked, FamilySpec, ScenarioSpec};
    let mut panics = Vec::new();
    let mut runs = 0;
    for algo in algorithms() {
        for seed in 0..6 {
            for recv in [2, 4] {
                let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 32, seed).with_capacity(
                    Capacity {
                        recv,
                        ..Capacity::default_for(32)
                    },
                );
                let scn = spec.build().expect("spec builds");
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = run_checked(*algo, &mut scn.engine(), &scn);
                }));
                runs += 1;
                if run.is_err() {
                    panics.push(format!("{} seed={seed} recv={recv}", algo.name()));
                }
            }
        }
    }
    assert_eq!(runs, 10 * 6 * 2);
    assert!(panics.is_empty(), "panicked: {panics:?}");
}

/// A Barabási–Albert graph under a receive cap of 8 on which orientation's
/// U_low re-identification never converged (`identification did not
/// converge`): the drops must end in a record or a typed error.
#[test]
fn orientation_under_drops_returns_instead_of_panicking() {
    use ncc::graph::gen::barabasi_albert;
    use ncc::hashing::SharedRandomness;
    let n = 128;
    let g = barabasi_albert(n, 4, 15);
    let cfg =
        NetConfig::new(n, 15).with_capacity(Capacity::squeezed(Capacity::default_for(n).send, 8));
    let mut eng = Engine::new(cfg);
    let _ = ncc::core::orient(&mut eng, &SharedRandomness::new(15 ^ 0xABCD), &g);
}

/// MST's FindMin packs `default_lane_budget(n) − 1` bucket lanes beside
/// the coin multicast. On every MST row of the standard grid, which
/// covers all four network models, the run stays `Verified` with no message
/// dropped, truncated or over the send cap, and peaks at half the node
/// capacity at most: bucket lanes that shared a group id, hence a
/// butterfly column, once peaked at 42 of 48 at n = 64. Every step-0
/// FindMin stage packs exactly the lane budget, with no split.
#[test]
fn mst_findmin_fills_the_lane_budget_within_capacity() {
    use ncc::butterfly::default_lane_budget;
    use ncc::model::ModelSpec;
    use ncc::runner::{find_algorithm, standard_grid, Verdict};
    let mst = find_algorithm("mst").expect("mst is registered");
    let specs = standard_grid();
    for model in [
        ModelSpec::Ncc,
        ModelSpec::CongestedClique { edge_cap: 48 },
        ModelSpec::KMachine {
            k: 8,
            link_capacity: 1,
        },
        ModelSpec::HybridLocal { local_edge_cap: 8 },
    ] {
        assert!(specs.iter().any(|s| s.model == model), "{model:?}");
    }
    for spec in &specs {
        let scn = spec.build().expect("spec builds");
        let mut eng = scn.engine();
        let prep = ncc::core::prepare(&mut eng, spec.seed, None).expect("seed agreement");
        let out = mst.run_main(&mut eng, &scn, &prep).expect("mst runs");
        let label = spec.label();
        assert_eq!(out.verdict, Verdict::Verified, "{label}");
        let cap = spec.capacity.send.min(spec.capacity.recv) as u64;
        for s in [&prep.report.total, &out.stats] {
            let faults = (s.dropped, s.truncated, s.send_cap_violations);
            assert_eq!(faults, (0, 0, 0), "{label}: (dropped, truncated, over cap)");
            assert!(
                s.peak_load() <= cap / 2,
                "{label}: peak load {} of {cap}",
                s.peak_load()
            );
        }
        let plan = out.plan.expect("mst is DAG-declared");
        let budget = default_lane_budget(spec.n);
        // step 0's scatter-and-combine stage carries the coin multicast
        let step0: Vec<_> = plan
            .stages
            .iter()
            .filter(|st| st.lanes.iter().any(|l| l.label.ends_with(":find0:coin")))
            .collect();
        assert_eq!(step0.len() as u32, out.phases.expect("phases"), "{label}");
        for st in step0 {
            assert_eq!((st.lanes.len(), st.deferred.len()), (budget, 0), "{label}");
        }
        assert_eq!(plan.splits(), 0, "{label}");
    }
}
