//! The serve wire protocol: newline-delimited JSON, one [`Request`] per
//! line in, one [`Response`] per line out.
//!
//! The same protocol runs over both fronts (stdio and the local TCP
//! listener). Responses are *streamed per request* in completion order —
//! a slow run does not head-of-line-block a fast one — and every response
//! echoes the request `id`, so clients correlate out-of-order completions.
//!
//! All payloads are the existing typed values of the runner layer:
//! requests carry a [`ScenarioSpec`], successful runs return the full
//! [`RunRecord`] (byte-identical to what a batch `ncc-cli run --json`
//! would have produced — residency must not fork the record history), and
//! failures return a typed [`Response::Error`] rather than a dropped
//! connection. Malformed lines (unparseable JSON) get an error response
//! with `id: None`, since no id could be recovered.
//!
//! ```text
//! → {"Run":{"id":1,"algorithm":"mst","spec":{...}}}
//! ← {"Record":{"id":1,"cache_hit":false,"spec_hash":"9f2a…","record":{...}}}
//! → {"Stats":{"id":2}}
//! ← {"Stats":{"id":2,"stats":{"cache":{...},"served":1,...}}}
//! → {"Shutdown":{"id":3}}
//! ← {"Shutdown":{"id":3}}
//! ```

use ncc_runner::{RunRecord, ScenarioSpec};
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;

/// One client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Execute `algorithm` on `spec`; the scenario build is served from
    /// the content-addressed cache when resident.
    Run {
        id: u64,
        algorithm: String,
        spec: ScenarioSpec,
    },
    /// Report coordinator counters (cache, served/error totals, pool
    /// shape).
    Stats { id: u64 },
    /// Stop accepting work and exit once in-flight requests drain.
    Shutdown { id: u64 },
}

impl Request {
    /// The request's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Run { id, .. } | Request::Stats { id } | Request::Shutdown { id } => *id,
        }
    }
}

/// One server response line.
///
/// `Record` dwarfs the other variants (a full `RunRecord` with its stage
/// breakdown), but responses are transient — built, serialized, dropped,
/// one at a time per worker — so the size asymmetry never accumulates;
/// boxing would only buy an allocation per response. (The vendored serde
/// subset has no `Box<T>` impls to lean on either.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// A completed run: the typed record plus cache provenance (`cache_hit`
    /// and the content hash the artifact is addressed by).
    Record {
        id: u64,
        cache_hit: bool,
        spec_hash: String,
        record: RunRecord,
    },
    /// A failed request: unknown algorithm (with a "did you mean"
    /// suggestion when one is close), unbuildable spec, or a malformed
    /// line (`id: None` — the id could not be recovered from the input).
    Error { id: Option<u64>, error: String },
    /// Counter snapshot, answering [`Request::Stats`].
    Stats { id: u64, stats: ServeStats },
    /// Acknowledges [`Request::Shutdown`]; the daemon exits after this.
    Shutdown { id: u64 },
}

impl Response {
    /// Serializes to the single wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("Response serializes")
    }

    /// Parses one wire line.
    pub fn from_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// Coordinator counters: the cache's hit/miss/eviction totals plus the
/// request totals and the worker-pool shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    pub cache: CacheStats,
    /// Requests answered with a `Record`.
    pub served: u64,
    /// Requests answered with an `Error`.
    pub errors: u64,
    /// Worker threads executing requests.
    pub workers: u64,
    /// Runs that reused a resident engine via `Engine::reset` instead of
    /// building a fresh one (worker-local engine residency).
    pub engine_reuses: u64,
}

/// Parses one request line. `Err` carries the parse error text for the
/// typed error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line).map_err(|e| format!("malformed request: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_runner::FamilySpec;

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::Run {
                id: 7,
                algorithm: "mst".into(),
                spec: ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 64, 3),
            },
            Request::Stats { id: 8 },
            Request::Shutdown { id: 9 },
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            assert!(!line.contains('\n'), "wire lines are single lines");
            let back = parse_request(&line).unwrap();
            assert_eq!(back, req);
            assert_eq!(back.id(), req.id());
        }
    }

    #[test]
    fn malformed_lines_report_instead_of_panicking() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"Run\":{}}").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn response_lines_round_trip() {
        let resp = Response::Error {
            id: Some(4),
            error: "unknown algorithm".into(),
        };
        let back = Response::from_line(&resp.to_line()).unwrap();
        match back {
            Response::Error { id, error } => {
                assert_eq!(id, Some(4));
                assert!(error.contains("unknown"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let stats = Response::Stats {
            id: 5,
            stats: ServeStats {
                served: 3,
                ..ServeStats::default()
            },
        };
        assert!(stats.to_line().contains("\"served\":3"));
    }
}
