//! A hand-fused driver: the oracle the DAG scheduler is checked against.
//!
//! It runs one stage per call on nothing but `MuxBuilder`,
//! `Engine::execute`, `sync_barrier` and `Engine::idle_rounds`: every
//! lane it is given, paced to an even share of the node capacity,
//! becomes one lane of a shared mux execution, and the
//! stage then pays one sync, decided here from the lanes' `StageEnd`s
//! without the scheduler's rule. It never carries a sync into the next
//! stage; that saving is the scheduler's alone. A chain of lanes is one
//! call per stage, the caller building each stage's lanes from the
//! previous one's outputs.

use ncc_butterfly::{sync_barrier, LaneSub, StageEnd};
use ncc_model::{Capacity, Engine, ExecStats, MuxBuilder, NetConfig};

/// What [`run_fused`] did, summed over its calls.
#[derive(Default)]
pub struct Fused {
    /// Every execution and every sync.
    pub stats: ExecStats,
    /// Shared stage executions.
    pub stages: usize,
    /// The most lanes one stage ran.
    pub max_lanes: usize,
}

/// Runs `lanes` as one fused stage and adds it to `fused`. After the
/// stage it pays nothing if every lane ended self-synchronized, idle
/// rounds up to the largest bound if every lane ends within one and that
/// is no longer than a barrier, and a `sync_barrier` otherwise.
pub fn run_fused<'a>(
    engine: &mut Engine,
    fused: &mut Fused,
    lanes: &mut [&mut (dyn LaneSub<'a> + 'a)],
) {
    let n = engine.n();
    let unbounded = NetConfig::new(n, 0).with_capacity(Capacity::unbounded());
    let barrier = sync_barrier(&mut Engine::new(unbounded)).unwrap().rounds;
    let mut b = MuxBuilder::new(n);
    let ends: Vec<StageEnd> = lanes.iter().map(|lane| lane.stage_end()).collect();
    // every lane gets an even share of the send and receive capacity,
    // the budget §2's parallel instances split
    let (cap, k) = (engine.config().capacity, lanes.len().max(1));
    let share = ((cap.send / k).max(1), (cap.recv / k).max(1));
    let ids: Vec<_> = lanes
        .iter_mut()
        .map(|lane| {
            lane.pace(share);
            lane.install(&mut b)
        })
        .collect();
    fused.stages += 1;
    fused.max_lanes = fused.max_lanes.max(lanes.len());
    let (mux, mut states) = b.build();
    let stats = engine.execute(&mux, &mut states).unwrap();
    fused.stats.merge(&stats);
    for (lane, id) in lanes.iter_mut().zip(ids) {
        lane.collect(id, &mut states);
    }
    let bound = ends.iter().try_fold(0, |max, end| match end {
        StageEnd::Within(bound) => Some(max.max(*bound)),
        _ => None,
    });
    let sync = match bound {
        _ if ends.iter().all(|end| *end == StageEnd::SelfSync) => ExecStats::default(),
        Some(bound) if bound - stats.rounds <= barrier => engine.idle_rounds(bound - stats.rounds),
        _ => sync_barrier(engine).unwrap(),
    };
    fused.stats.merge(&sync);
}
