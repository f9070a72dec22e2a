//! The workload table and the inputs each workload derives from the seed.
//!
//! A single spec's cost is a random variable of its seed — Boruvka's
//! Heads/Tails phase count moves `mst` rounds by ±12 % between seeds, an
//! extra orientation phase moves `bfs` by 10 % — so a workload is a *pool*
//! of specs drawn from the benchmark seed, sized so that the pool mean
//! moves by under 2 % between seeds. Ops cycle through the pool.

use ncc_runner::{FamilySpec, ScenarioSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `G(n, p)` at mean degree 12. With `n` a power of two that puts
    /// `m ≈ 6n` midway between two powers of two: at degree 16 the edge
    /// arrays sit exactly on a `Vec` doubling boundary, and which side a
    /// seed lands on moved peak RSS between 16.5 and 20 MB at n = 4096.
    Gnp12,
    /// R-MAT with `8 n` edge samples.
    Rmat8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An op is `Engine::reset` + `Algorithm::run`, in this process.
    InProcess,
    /// An op is one request to an `ncc-serve` over loopback TCP.
    Serve { cache_capacity: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub algorithm: &'static str,
    pub family: Family,
    pub n: usize,
    /// Specs drawn from the seed; ops visit them round-robin.
    pub pool: usize,
    /// Warm-up ops (in process) or requests (serve) per pool spec, all
    /// part of set-up. A constant, not a flag: the first run on a new
    /// engine pays first-touch page faults.
    pub warmups: usize,
    /// Set-ups per run; `setup_s` is their median. One for the pool
    /// workloads, whose set-up is a whole pass of warm-up ops already.
    pub setup_reps: usize,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dag_bfs",
        algorithm: "bfs",
        family: Family::Gnp12,
        n: 1024,
        pool: 24,
        warmups: 1,
        setup_reps: 1,
        kind: Kind::InProcess,
    },
    Workload {
        name: "dag_mst",
        algorithm: "mst",
        family: Family::Gnp12,
        n: 64,
        pool: 40,
        warmups: 1,
        setup_reps: 1,
        kind: Kind::InProcess,
    },
    Workload {
        name: "scale_broadcast",
        algorithm: "broadcast",
        family: Family::Rmat8,
        n: 1_000_000,
        pool: 1,
        warmups: 3,
        setup_reps: 3,
        kind: Kind::InProcess,
    },
    Workload {
        name: "serve_warm",
        algorithm: "bfs",
        family: Family::Gnp12,
        n: 256,
        pool: 16,
        warmups: 2,
        setup_reps: 3,
        kind: Kind::Serve { cache_capacity: 16 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the stream every input of the benchmark is drawn from.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The `i`-th spec of this workload under benchmark seed `seed`. The
    /// spec seed is a hash of (benchmark seed, workload, index), so no
    /// two workloads and no two indices share a scenario.
    pub fn spec(&self, seed: u64, i: u64) -> ScenarioSpec {
        let tag = (self.name.bytes()).fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        let spec_seed = splitmix64(splitmix64(seed ^ tag).wrapping_add(i)) >> 16;
        let family = match self.family {
            Family::Gnp12 => FamilySpec::Gnp {
                p: 12.0 / self.n as f64,
            },
            Family::Rmat8 => FamilySpec::Rmat { edge_factor: 8 },
        };
        ScenarioSpec::new(family, self.n, spec_seed)
    }

    pub fn pool_specs(&self, seed: u64, pool: usize) -> Vec<ScenarioSpec> {
        (0..pool as u64).map(|i| self.spec(seed, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_function_of_seed_workload_and_index() {
        let w = find("dag_bfs").unwrap();
        assert_eq!(w.spec(7, 3), w.spec(7, 3));
        assert_ne!(w.spec(7, 3).seed, w.spec(7, 4).seed);
        assert_ne!(w.spec(7, 3).seed, w.spec(8, 3).seed);
        assert_ne!(
            w.spec(7, 3).seed,
            find("serve_warm").unwrap().spec(7, 3).seed
        );
        assert_eq!(w.spec(7, 0).threads, 1);
        assert_eq!(w.pool_specs(7, w.pool).len(), w.pool);
    }

    #[test]
    fn warm_pool_fits_the_cache_it_is_meant_to_hit() {
        for w in &WORKLOADS {
            if let Kind::Serve { cache_capacity } = w.kind {
                assert!(w.pool <= cache_capacity, "{} would evict", w.name);
            }
        }
    }
}
