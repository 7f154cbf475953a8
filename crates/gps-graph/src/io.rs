//! Edge-list I/O.
//!
//! Real-world corpora (e.g. networkrepository.com, SNAP) ship as white-space
//! separated edge lists with assorted comment conventions and sparse node
//! ids. [`EdgeFileStream`] is the one parser for them: it reads lazily, one
//! line at a time, skips `#`/`%` comment lines, accepts extra columns
//! (weights/timestamps are ignored), drops self-loops and relabels arbitrary
//! `u64` ids onto the dense `u32` space via [`NodeRelabeler`].
//! [`read_edge_list`] collects that stream into memory and — matching the
//! paper's preprocessing — drops duplicate edges on the way, so the result
//! is a simple undirected graph.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::GraphError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::types::{Edge, NodeId};

/// Maps sparse external `u64` node identifiers onto dense internal [`NodeId`]s.
#[derive(Debug, Default)]
pub struct NodeRelabeler {
    map: FxHashMap<u64, NodeId>,
}

impl NodeRelabeler {
    /// Creates an empty relabeler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the dense id for `external`, allocating the next free id on
    /// first sight.
    pub fn relabel(&mut self, external: u64) -> Result<NodeId, GraphError> {
        if let Some(&id) = self.map.get(&external) {
            return Ok(id);
        }
        let next = self.map.len();
        if next > u32::MAX as usize {
            return Err(GraphError::NodeSpaceExhausted);
        }
        let id = next as NodeId;
        self.map.insert(external, id);
        Ok(id)
    }

    /// Number of distinct nodes seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no nodes have been seen.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Lazy single-pass reader over a white-space separated edge list.
///
/// Yields `Result<Edge, GraphError>` per data line, reusing one line
/// buffer, so sampling an edge list far larger than memory needs memory
/// only for the reservoir and the node relabeling table. Lines starting
/// with `#` or `%` and blank lines are skipped; each data line must begin
/// with two integer fields, and further fields are ignored. Self-loops are
/// dropped (the paper's graphs have none) and ids are relabeled densely in
/// first-seen order. A malformed line yields [`GraphError::Parse`] with its
/// 1-based line number, and the stream goes on after it.
///
/// Duplicates are *not* dropped here: that would mean remembering every
/// past edge. The GPS sampler already skips duplicates of currently
/// sampled edges; [`read_edge_list`] drops them all.
pub struct EdgeFileStream<R: Read> {
    reader: BufReader<R>,
    relabeler: NodeRelabeler,
    line: String,
    lineno: usize,
}

impl EdgeFileStream<std::fs::File> {
    /// Opens a file for streaming.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        Ok(Self::new(std::fs::File::open(path)?))
    }
}

impl<R: Read> EdgeFileStream<R> {
    /// Wraps any reader (files, sockets, pipes, compressed readers, …).
    pub fn new(reader: R) -> Self {
        EdgeFileStream {
            reader: BufReader::new(reader),
            relabeler: NodeRelabeler::new(),
            line: String::new(),
            lineno: 0,
        }
    }

    fn relabeled(&mut self, a: u64, b: u64) -> Result<Edge, GraphError> {
        Ok(Edge::new(
            self.relabeler.relabel(a)?,
            self.relabeler.relabel(b)?,
        ))
    }
}

impl<R: Read> Iterator for EdgeFileStream<R> {
    type Item = Result<Edge, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Err(e) => return Some(Err(GraphError::Io(e))),
                Ok(0) => return None,
                Ok(_) => {}
            }
            self.lineno += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with(['#', '%']) {
                continue;
            }
            let mut fields = trimmed.split_whitespace().map(str::parse::<u64>);
            let (Some(Ok(a)), Some(Ok(b))) = (fields.next(), fields.next()) else {
                return Some(Err(GraphError::Parse {
                    line: self.lineno,
                    content: trimmed.chars().take(80).collect(),
                }));
            };
            if a != b {
                return Some(self.relabeled(a, b));
            }
        }
    }
}

/// Reads a whole edge list from `reader` into memory: the edges of an
/// [`EdgeFileStream`] in stream order, each duplicate (in either
/// orientation) dropped as it is read. Stops at the first error.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Vec<Edge>, GraphError> {
    let mut seen = FxHashSet::default();
    EdgeFileStream::new(reader)
        .filter(|item| match item {
            Ok(edge) => seen.insert(edge.key()),
            Err(_) => true,
        })
        .collect()
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Vec<Edge>, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes edges as `u v` lines (buffered; one syscall per ~8 KiB).
pub fn write_edge_list<W: Write>(writer: W, edges: &[Edge]) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    for e in edges {
        writeln!(w, "{} {}", e.u(), e.v())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes edges to a file path. See [`write_edge_list`].
pub fn write_edge_list_file<P: AsRef<Path>>(path: P, edges: &[Edge]) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(file, edges)
}

/// Removes duplicates (in either orientation) from an in-memory edge list,
/// preserving first-occurrence order. Self-loops cannot be represented by
/// [`Edge`], so the result is a simple graph edge list.
pub fn simplify(edges: &[Edge]) -> Vec<Edge> {
    let mut seen = FxHashSet::default();
    edges
        .iter()
        .copied()
        .filter(|e| seen.insert(e.key()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blank_lines_and_extra_columns() {
        let input = "# a comment\n% another\n\n1 2\n2 3 17.5\n3 1 42 1999\n";
        let edges = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(edges.len(), 3);
        // Relabeling is first-seen order: 1→0, 2→1, 3→2.
        assert_eq!(edges[0], Edge::new(0, 1));
        assert_eq!(edges[1], Edge::new(1, 2));
        assert_eq!(edges[2], Edge::new(0, 2));
    }

    #[test]
    fn dedupes_both_orientations() {
        let input = "5 9\n9 5\n5 9\n5 6\n";
        let edges = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn self_loops_skipped_or_rejected() {
        let input = "1 1\n1 2\n";
        let edges = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(edges.len(), 1);

        // Self-loops are always skipped, never rejected: a list of nothing
        // else reads as an empty graph, not an error.
        let edges = read_edge_list("3 3\n4 4\n".as_bytes()).unwrap();
        assert!(edges.is_empty());
    }

    #[test]
    fn self_loops_are_dropped_silently() {
        let input = "5 5\n5 6\n";
        let edges: Vec<Edge> = EdgeFileStream::new(input.as_bytes())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(edges.len(), 1);
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let input = "1 2\nnot numbers\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 3)];
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &edges).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(back, edges);
    }

    #[test]
    fn relabeler_is_stable_and_bounded() {
        let mut r = NodeRelabeler::new();
        assert_eq!(r.relabel(10_000_000_000).unwrap(), 0);
        assert_eq!(r.relabel(7).unwrap(), 1);
        assert_eq!(r.relabel(10_000_000_000).unwrap(), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn simplify_preserves_order() {
        let edges = vec![
            Edge::new(3, 4),
            Edge::new(1, 2),
            Edge::new(4, 3),
            Edge::new(1, 2),
            Edge::new(2, 5),
        ];
        assert_eq!(
            simplify(&edges),
            vec![Edge::new(3, 4), Edge::new(1, 2), Edge::new(2, 5)]
        );
    }

    #[test]
    fn streams_edges_lazily_with_relabeling() {
        let input = "# header\n100 200\n200 300\n\n% note\n100 300 7.5\n";
        let edges: Vec<Edge> = EdgeFileStream::new(input.as_bytes())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let input = "1 2\nbad line\n3 4\n";
        let mut stream = EdgeFileStream::new(input.as_bytes());
        assert!(stream.next().unwrap().is_ok());
        match stream.next().unwrap() {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // The stream recovers and continues after an error.
        assert!(stream.next().unwrap().is_ok());
        assert!(stream.next().is_none());
    }

    #[test]
    fn streams_every_line_of_a_long_list() {
        use std::fmt::Write as _;
        // A 300-edge path written as text with sparse ids.
        let mut text = String::new();
        for i in 0..300u32 {
            writeln!(text, "{} {}", i * 7 + 1, (i + 1) * 7 + 1).unwrap();
        }
        let mut edges = 0u32;
        for r in EdgeFileStream::new(text.as_bytes()) {
            r.unwrap();
            edges += 1;
        }
        assert_eq!(edges, 300);
    }
}
