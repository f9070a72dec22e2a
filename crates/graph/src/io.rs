//! Plain-text graph I/O.
//!
//! A minimal interchange format so workloads can be exported, diffed, and
//! re-run outside the generators:
//!
//! ```text
//! # comment
//! n <node-count>
//! e <u> <v> [weight]
//! ```
//!
//! A weight column is parsed (a missing weight means weight 1); the
//! graph read back is unweighted.

use crate::graph::Graph;
use crate::{NodeId, Weight};

/// Serialises a graph to the edge-list format.
pub fn write_graph(g: &Graph) -> String {
    let mut s = String::with_capacity(16 + 12 * g.m());
    s.push_str(&format!("n {}\n", g.n()));
    for (u, v) in g.edges() {
        s.push_str(&format!("e {u} {v}\n"));
    }
    s
}

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type ParsedEdges = (usize, Vec<(NodeId, NodeId, Weight)>);

fn parse_lines(text: &str) -> Result<ParsedEdges, ParseError> {
    let mut n: Option<usize> = None;
    let mut edges = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: &str| ParseError {
            line: i + 1,
            message: message.to_string(),
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("n") => {
                let v = parts
                    .next()
                    .ok_or_else(|| err("missing node count"))?
                    .parse()
                    .map_err(|_| err("bad node count"))?;
                n = Some(v);
            }
            Some("e") => {
                let u: NodeId = parts
                    .next()
                    .ok_or_else(|| err("missing endpoint"))?
                    .parse()
                    .map_err(|_| err("bad endpoint"))?;
                let v: NodeId = parts
                    .next()
                    .ok_or_else(|| err("missing endpoint"))?
                    .parse()
                    .map_err(|_| err("bad endpoint"))?;
                let w: Weight = match parts.next() {
                    Some(t) => t.parse().map_err(|_| err("bad weight"))?,
                    None => 1,
                };
                edges.push((u, v, w));
            }
            Some(tok) => return Err(err(&format!("unknown directive '{tok}'"))),
            None => unreachable!(),
        }
    }
    let n = n.ok_or(ParseError {
        line: 0,
        message: "missing 'n' directive".into(),
    })?;
    for &(u, v, _) in &edges {
        if u as usize >= n || v as usize >= n {
            return Err(ParseError {
                line: 0,
                message: format!("edge ({u},{v}) out of range for n = {n}"),
            });
        }
    }
    Ok((n, edges))
}

/// Parses an unweighted graph (weights, if present, are discarded).
pub fn read_graph(text: &str) -> Result<Graph, ParseError> {
    let (n, edges) = parse_lines(text)?;
    Ok(Graph::from_edges(
        n,
        edges.into_iter().map(|(u, v, _)| (u, v)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::graph::WeightedGraph;

    /// Serialises a weighted graph.
    fn write_weighted(g: &WeightedGraph) -> String {
        let mut s = String::with_capacity(16 + 16 * g.m());
        s.push_str(&format!("n {}\n", g.n()));
        for (u, v, w) in g.weighted_edges() {
            s.push_str(&format!("e {u} {v} {w}\n"));
        }
        s
    }

    /// Parses a weighted graph.
    fn read_weighted(text: &str) -> Result<WeightedGraph, ParseError> {
        let (n, edges) = parse_lines(text)?;
        Ok(WeightedGraph::from_weighted_edges(n, edges))
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = gen::gnp(30, 0.2, 5);
        let text = write_graph(&g);
        let back = read_graph(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_weighted() {
        let g = gen::with_random_weights(&gen::gnp(25, 0.25, 6), 500, 7);
        let text = write_weighted(&g);
        let back = read_weighted(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = read_graph("# header\n\nn 3\ne 0 1\n# mid\ne 1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn default_weight_is_one() {
        let g = read_weighted("n 2\ne 0 1\n").unwrap();
        assert_eq!(g.weight_of(0, 1), Some(1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = read_graph("n 3\nz 0 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown"));
        let e = read_graph("e 0 1\n").unwrap_err();
        assert!(e.message.contains("missing 'n'"));
        let e = read_graph("n 2\ne 0 5\n").unwrap_err();
        assert!(e.message.contains("out of range"));
    }
}
