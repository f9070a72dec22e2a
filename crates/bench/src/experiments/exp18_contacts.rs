//! E18 (supplementary) — contact-set sizes, motivated by the paper's
//! conclusion: *"all of our algorithms still achieve the presented runtimes
//! if … they initially only know Θ(log n) random nodes"*, because almost
//! all communication flows through the butterfly overlay whose per-node
//! contact set is `O(log n)` fixed columns.
//!
//! This experiment measures, per algorithm, how many *distinct* nodes each
//! node actually sends to over a full execution: the butterfly accounts
//! for `O(log n)` of them; random injections, deliveries and rendezvous
//! add slowly-growing tails. Reported: median and max distinct contacts,
//! and their ratio to `log₂ n`.

use crate::{arboricity_workload, engine, f2, lg, Table, SEED};
use ncc_core::prepare;
use ncc_model::{NodeId, TraceEvent, TraceSink};
use std::sync::{Arc, Mutex};

/// Counts distinct destinations per source.
struct ContactSink(Arc<Mutex<Vec<std::collections::BTreeSet<NodeId>>>>);

impl TraceSink for ContactSink {
    fn on_round(&mut self, _round: u64, delivered: &[TraceEvent]) {
        let mut sets = self.0.lock().unwrap();
        for ev in delivered {
            sets[ev.src as usize].insert(ev.dst);
        }
    }
}

pub fn run() -> Vec<ncc_runner::RunRecord> {
    println!("# E18 — distinct contacts per node across full executions");
    let n = 256usize;
    let g = arboricity_workload(n, 3, SEED);
    let mut t = Table::new(&["algorithm", "median", "max", "median/log2n", "max/log2n"]);

    let run = |label: &str, which: u8, t: &mut Table| {
        let sets = Arc::new(Mutex::new(vec![std::collections::BTreeSet::new(); n]));
        let mut eng = engine(n, SEED + which as u64);
        eng.set_sink(Box::new(ContactSink(sets.clone())));
        let prep = prepare(&mut eng, SEED + 9, Some(&g)).unwrap();
        let (shared, bt) = (prep.shared(), prep.trees());
        match which {
            0 => {
                let _ = ncc_core::bfs(&mut eng, shared, bt, &g, 0).unwrap();
            }
            1 => {
                let _ = ncc_core::mis(&mut eng, shared, bt, &g).unwrap();
            }
            2 => {
                let _ = ncc_core::maximal_matching(&mut eng, shared, bt, &g).unwrap();
            }
            _ => {
                let _ = ncc_core::coloring(&mut eng, shared, &bt.orientation, &g).unwrap();
            }
        }
        let mut sizes: Vec<usize> = sets.lock().unwrap().iter().map(|s| s.len()).collect();
        sizes.sort_unstable();
        let median = sizes[n / 2];
        let max = *sizes.last().unwrap();
        t.row(vec![
            label.into(),
            median.to_string(),
            max.to_string(),
            f2(median as f64 / lg(n)),
            f2(max as f64 / lg(n)),
        ]);
    };
    run("prepare+BFS", 0, &mut t);
    run("prepare+MIS", 1, &mut t);
    run("prepare+Matching", 2, &mut t);
    run("prepare+Coloring", 3, &mut t);
    t.print();
    println!("\ninterpretation: medians of a few·log n distinct contacts support the");
    println!("conclusion's remark that Θ(log n) initial contacts (plus graph neighbors");
    println!("and overlay-introduced ones) suffice — nodes never need the full clique.");
    Vec::new()
}
