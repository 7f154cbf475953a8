//! Stream adapters and checkpoint scheduling.
//!
//! An edge stream in this workspace is simply an `Iterator<Item = Edge>`;
//! samplers consume edges one at a time and never look ahead, matching the
//! paper's single-pass model. This module adds the scheduling helpers the
//! experiments need: [`Checkpoints`] picks the stream positions at which the
//! "vs. time" experiments (paper Figure 3, Table 3) compare estimates to
//! exact counts.

use gps_graph::types::Edge;

/// A set of stream positions (1-based edge counts) at which to snapshot
/// estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoints {
    positions: Vec<usize>,
}

impl Checkpoints {
    /// `count` checkpoints evenly spaced over a stream of `stream_len` edges,
    /// ending exactly at `stream_len`.
    pub fn linear(stream_len: usize, count: usize) -> Self {
        assert!(count > 0, "need at least one checkpoint");
        let positions = (1..=count)
            .map(|i| (stream_len as u128 * i as u128 / count as u128) as usize)
            .filter(|&p| p > 0)
            .collect::<Vec<_>>();
        let mut dedup = positions;
        dedup.dedup();
        Checkpoints { positions: dedup }
    }

    /// Geometrically spaced checkpoints from `start` to `stream_len`
    /// (inclusive), multiplying by `factor` (> 1) each step. Used for
    /// sample-size sweeps plotted on log axes (paper Figure 2).
    pub fn geometric(start: usize, stream_len: usize, factor: f64) -> Self {
        assert!(factor > 1.0, "factor must exceed 1");
        assert!(start > 0, "start must be positive");
        let mut positions = vec![];
        let mut x = start as f64;
        while (x as usize) < stream_len {
            positions.push(x as usize);
            x *= factor;
        }
        positions.push(stream_len);
        positions.dedup();
        Checkpoints { positions }
    }

    /// Explicit positions (must be strictly increasing).
    pub fn explicit(positions: Vec<usize>) -> Self {
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be increasing"
        );
        Checkpoints { positions }
    }

    /// The checkpoint positions.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Streams `edges` through `on_edge`, invoking `at_checkpoint(t)` after
    /// the `t`-th edge whenever `t` is a checkpoint.
    pub fn drive<I, F, G>(&self, edges: I, mut on_edge: F, mut at_checkpoint: G)
    where
        I: IntoIterator<Item = Edge>,
        F: FnMut(Edge),
        G: FnMut(usize),
    {
        let mut next = 0usize;
        for (idx, edge) in edges.into_iter().enumerate() {
            on_edge(edge);
            let t = idx + 1;
            while next < self.positions.len() && self.positions[next] == t {
                at_checkpoint(t);
                next += 1;
            }
        }
    }
}

/// Groups an edge stream into fixed-size batches — the feed unit of
/// `gps-engine`'s sharded ingest (one channel send per batch amortizes
/// synchronization over `size` edges). The final batch holds the
/// remainder and may be shorter; no batch is empty.
///
/// ```
/// use gps_graph::Edge;
/// use gps_stream::batched;
///
/// let edges: Vec<Edge> = (0..10).map(|i| Edge::new(i, i + 1)).collect();
/// let batches: Vec<Vec<Edge>> = batched(edges, 4).collect();
/// assert_eq!(batches.len(), 3);
/// assert_eq!(batches[0].len(), 4);
/// assert_eq!(batches[2].len(), 2);
/// ```
///
/// # Panics
/// Panics if `size == 0`.
pub fn batched<I>(edges: I, size: usize) -> Batched<I::IntoIter>
where
    I: IntoIterator<Item = Edge>,
{
    assert!(size > 0, "batch size must be positive");
    Batched {
        inner: edges.into_iter(),
        size,
    }
}

/// Iterator returned by [`batched`].
#[derive(Clone, Debug)]
pub struct Batched<I> {
    inner: I,
    size: usize,
}

impl<I: Iterator<Item = Edge>> Iterator for Batched<I> {
    type Item = Vec<Edge>;

    fn next(&mut self) -> Option<Vec<Edge>> {
        let mut batch = Vec::with_capacity(self.size);
        while batch.len() < self.size {
            match self.inner.next() {
                Some(e) => batch.push(e),
                None => break,
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_checkpoints_end_at_stream_len() {
        let c = Checkpoints::linear(100, 4);
        assert_eq!(c.positions(), &[25, 50, 75, 100]);
        let c = Checkpoints::linear(7, 3);
        assert_eq!(*c.positions().last().unwrap(), 7);
    }

    #[test]
    fn geometric_checkpoints_grow_and_terminate() {
        let c = Checkpoints::geometric(10, 1000, 10.0);
        assert_eq!(c.positions(), &[10, 100, 1000]);
        let c = Checkpoints::geometric(10, 10, 2.0);
        assert_eq!(c.positions(), &[10]);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn explicit_rejects_unsorted() {
        Checkpoints::explicit(vec![5, 3]);
    }

    #[test]
    fn drive_fires_checkpoints_in_order() {
        let edges: Vec<Edge> = (0..10).map(|i| Edge::new(i, i + 1)).collect();
        let c = Checkpoints::explicit(vec![3, 7, 10]);
        let mut seen_edges = 0;
        let mut fired = vec![];
        c.drive(edges, |_| seen_edges += 1, |t| fired.push(t));
        assert_eq!(seen_edges, 10);
        assert_eq!(fired, vec![3, 7, 10]);
    }

    #[test]
    fn drive_ignores_checkpoints_past_stream_end() {
        let edges: Vec<Edge> = (0..5).map(|i| Edge::new(i, i + 1)).collect();
        let c = Checkpoints::explicit(vec![2, 9]);
        let mut fired = vec![];
        c.drive(edges, |_| {}, |t| fired.push(t));
        assert_eq!(fired, vec![2]);
    }

    #[test]
    fn batched_covers_the_stream_in_order() {
        let edges: Vec<Edge> = (0..23).map(|i| Edge::new(i, i + 1)).collect();
        let batches: Vec<Vec<Edge>> = batched(edges.clone(), 5).collect();
        assert_eq!(batches.len(), 5);
        assert!(batches[..4].iter().all(|b| b.len() == 5));
        assert_eq!(batches[4].len(), 3);
        let flat: Vec<Edge> = batches.into_iter().flatten().collect();
        assert_eq!(flat, edges, "batching must preserve stream order");
        // Exact multiple: no trailing empty batch.
        assert_eq!(batched(edges, 23).count(), 1);
        assert_eq!(batched(Vec::<Edge>::new(), 4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn batched_rejects_zero_size() {
        let _ = batched(Vec::<Edge>::new(), 0);
    }
}
