//! A hand-fused driver: the oracle the DAG scheduler is checked against.
//!
//! It runs sub-protocols stage by stage on nothing but `MuxBuilder`,
//! `Engine::execute`, `sync_barrier` and `Engine::idle_rounds`: the
//! current stage of every unfinished sub becomes one lane of a shared mux
//! execution, and the stage then pays one sync, decided here from the
//! lanes' `StageEnd`s without the scheduler's rule. It never carries a
//! sync into the next stage; that saving is the scheduler's alone.

use ncc_butterfly::{sync_barrier, LaneSub, StageEnd};
use ncc_model::{Capacity, Engine, ExecStats, MuxBuilder, NetConfig};

/// What [`run_fused`] did.
pub struct Fused {
    /// Every execution and every sync.
    pub stats: ExecStats,
    /// Shared stage executions.
    pub stages: usize,
    /// The most lanes one stage ran.
    pub max_lanes: usize,
}

/// Runs `subs` to completion, their current stages fused stage by stage.
/// After each stage it pays nothing if every lane ended self-synchronized,
/// idle rounds up to the largest bound if every lane ends within one and
/// that is no longer than a barrier, and a `sync_barrier` otherwise.
pub fn run_fused<'a>(engine: &mut Engine, subs: &mut [&mut (dyn LaneSub<'a> + 'a)]) -> Fused {
    let n = engine.n();
    let unbounded = NetConfig::new(n, 0).with_capacity(Capacity::unbounded());
    let barrier = sync_barrier(&mut Engine::new(unbounded)).unwrap().rounds;
    let mut fused = Fused {
        stats: ExecStats::default(),
        stages: 0,
        max_lanes: 0,
    };
    loop {
        let mut b = MuxBuilder::new(n);
        let mut installed = Vec::new();
        let mut ends = Vec::new();
        for (i, sub) in subs.iter_mut().enumerate() {
            let end = sub.stage_end();
            if let Some(id) = sub.install(&mut b) {
                installed.push((i, id));
                ends.push(end);
            }
        }
        if installed.is_empty() {
            return fused;
        }
        fused.stages += 1;
        fused.max_lanes = fused.max_lanes.max(installed.len());
        let (mux, mut states) = b.build();
        let stats = engine.execute(&mux, &mut states).unwrap();
        fused.stats.merge(&stats);
        for &(i, id) in &installed {
            subs[i].collect(id, &mut states);
        }
        let bound = ends.iter().try_fold(0, |max, end| match end {
            StageEnd::Within(bound) => Some(max.max(*bound)),
            _ => None,
        });
        let sync = match bound {
            _ if ends.iter().all(|end| *end == StageEnd::SelfSync) => ExecStats::default(),
            Some(bound) if bound - stats.rounds <= barrier => {
                engine.idle_rounds(bound - stats.rounds)
            }
            _ => sync_barrier(engine).unwrap(),
        };
        fused.stats.merge(&sync);
    }
}
