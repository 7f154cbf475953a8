//! Saving and restoring reference samples.
//!
//! The paper's post-stream estimation exists to let GPS "construct a
//! reference sample of edges to support retrospective graph queries" (§1).
//! A reference sample is only useful if it can outlive the process that
//! built it, so this module serializes the sampler's estimation-relevant
//! state — sampled edges with weights and priorities, the threshold `z*`,
//! and the stream position — to a simple line-oriented text format:
//!
//! ```text
//! gps-sample v1
//! capacity 20000
//! arrivals 265000
//! threshold 417.22914
//! edges 20000
//! 17 94 10.0 241.9018...
//! ...
//! ```
//!
//! The format is deliberately plain (no binary framing, no dependencies):
//! samples are inspectable with standard tools and diff cleanly. Weights,
//! priorities and the threshold round-trip exactly (Rust's shortest-exact
//! float formatting), so estimates from a restored sample equal estimates
//! from the original up to float summation order — the rebuilt adjacency
//! map may iterate neighbors in a different order, which can shift sums by
//! an ULP.
//!
//! A second section kind, `gps-sample v2`, additionally carries the
//! in-stream estimator's full accumulator state (paper Algorithm 3): an
//! `acc` header with the five global count/variance accumulators, and two
//! extra per-record columns for the per-edge covariance accumulators
//! `C̃_k(△), C̃_k(Λ)`:
//!
//! ```text
//! gps-sample v2
//! capacity 20000
//! arrivals 265000
//! threshold 417.22914
//! acc 81.5 12.25 912.0 55.5 7.75
//! edges 20000
//! 17 94 10.0 241.9018... 0.0 1.5
//! ...
//! ```
//!
//! A loaded section is exactly what Algorithm 3 keeps: one [`SavedRecord`]
//! per sampled edge (edge, weight, priority and the covariance pair, which
//! is zero in a v1 section) and, for v2, the [`InStreamTotals`]. The
//! sampler holds the same data in a different shape — a 32-byte slab record
//! per edge that keeps neither the ids nor the priority, which live in the
//! adjacency's node slots and in the heap — so the writer builds each
//! saved record from those three places, and [`SavedSample::into_sampler`]
//! splits it back into them. Restoring a v2 section is
//! [`SavedSample::into_sampler`] followed by
//! [`InStreamEstimator::resume`] with its totals, and is *exact*: the
//! resumed estimator's estimates are bit-identical to the saved one's at
//! the save watermark, and the cross-snapshot covariance terms keep
//! accumulating correctly afterwards — unlike a v1 restore, which re-seeds
//! the accumulators from a post-stream estimate (see
//! [`InStreamEstimator::from_sampler`]). Both section kinds compose in the
//! same container streams ([`load_section`] dispatches on the magic line).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

#[cfg(doc)]
use crate::in_stream::InStreamEstimator;
use crate::in_stream::InStreamTotals;
use crate::reservoir::GpsSampler;
use crate::weights::EdgeWeight;
use gps_graph::types::Edge;
use gps_graph::FxHashSet;

/// Magic first line of the sample-only format.
const MAGIC: &str = "gps-sample v1";

/// Magic first line of the sample + in-stream-accumulators format.
const MAGIC_V2: &str = "gps-sample v2";

/// Errors arising from saving/loading samples.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the expected magic/version line.
    BadHeader(String),
    /// A malformed line (1-based index within the file).
    Parse {
        /// Line number.
        line: usize,
        /// Offending content (truncated).
        content: String,
    },
    /// Edge count declared in the header does not match the body.
    CountMismatch {
        /// Header-declared count.
        declared: usize,
        /// Actual parsed count.
        found: usize,
    },
    /// The section parses but describes no sampler state: a zero capacity,
    /// more records than the capacity, or the same edge twice.
    Invalid(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::BadHeader(h) => write!(f, "not a gps-sample file (header {h:?})"),
            PersistError::Parse { line, content } => {
                write!(f, "cannot parse sample line {line}: {content:?}")
            }
            PersistError::CountMismatch { declared, found } => {
                write!(f, "sample declares {declared} edges but contains {found}")
            }
            PersistError::Invalid(reason) => write!(f, "invalid sample section: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// One sampled edge in a saved section: a record line's fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SavedRecord {
    /// The sampled edge.
    pub edge: Edge,
    /// Its sampling weight `w(k)`.
    pub weight: f64,
    /// Its priority `r(k) = w(k)/u(k)`.
    pub priority: f64,
    /// In-stream triangle covariance accumulator `C̃_k(△)` (zero in a
    /// `gps-sample v1` section).
    pub cov_tri: f64,
    /// In-stream wedge covariance accumulator `C̃_k(Λ)` (zero in a
    /// `gps-sample v1` section).
    pub cov_wedge: f64,
}

const _: () = assert!(std::mem::size_of::<SavedRecord>() == 40);

/// A sample loaded from disk, ready to become a sampler again.
#[derive(Clone, Debug, PartialEq)]
pub struct SavedSample {
    /// Reservoir capacity `m`.
    pub capacity: usize,
    /// Stream position when saved.
    pub arrivals: u64,
    /// Threshold `z*` when saved.
    pub threshold: f64,
    /// The sampled records, in the sampler's slot order.
    pub records: Vec<SavedRecord>,
    /// The global in-stream accumulators (`gps-sample v2` sections only;
    /// `None` for v1).
    pub totals: Option<InStreamTotals>,
}

impl SavedSample {
    /// Rebuilds a sampler from the saved records, covariance pairs
    /// included; [`InStreamEstimator::resume`] with [`SavedSample::totals`]
    /// makes it an estimator again. Pass the weight function to use if the
    /// sampler will keep consuming the stream; for purely retrospective use
    /// any weight function works (stored weights are what estimation
    /// reads).
    ///
    /// # Panics
    /// On records [`load_section`] would have rejected: more records than
    /// the capacity, a duplicate edge, or a weight, priority or threshold
    /// out of range.
    pub fn into_sampler<W: EdgeWeight>(self, weight_fn: W, seed: u64) -> GpsSampler<W> {
        GpsSampler::restore(
            self.capacity,
            weight_fn,
            seed,
            self.threshold,
            self.arrivals,
            self.records,
        )
    }
}

/// Writes the sampler's estimation state to `writer` as a `gps-sample v1`
/// section.
pub fn save<W: EdgeWeight, Out: Write>(
    sampler: &GpsSampler<W>,
    writer: Out,
) -> Result<(), PersistError> {
    write_section(sampler, None, writer)
}

/// Saves to a file path. See [`save`].
pub fn save_file<W: EdgeWeight, P: AsRef<std::path::Path>>(
    sampler: &GpsSampler<W>,
    path: P,
) -> Result<(), PersistError> {
    save(sampler, std::fs::File::create(path)?)
}

/// Writes an in-stream estimator's state as a `gps-sample v2` section:
/// the two halves [`InStreamEstimator::into_parts`] returns — a sampler,
/// whose records carry the per-edge covariance accumulators, and the
/// global [`InStreamTotals`]. Restoring is exact (see the module docs).
pub fn save_with_totals<W: EdgeWeight, Out: Write>(
    sampler: &GpsSampler<W>,
    totals: &InStreamTotals,
    writer: Out,
) -> Result<(), PersistError> {
    write_section(sampler, Some(totals), writer)
}

/// The one section writer: v1 without `totals`, v2 (an `acc` header line
/// and the covariance pair on every record) with them.
fn write_section<W: EdgeWeight, Out: Write>(
    sampler: &GpsSampler<W>,
    totals: Option<&InStreamTotals>,
    writer: Out,
) -> Result<(), PersistError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{}", if totals.is_some() { MAGIC_V2 } else { MAGIC })?;
    writeln!(w, "capacity {}", sampler.capacity())?;
    writeln!(w, "arrivals {}", sampler.arrivals())?;
    writeln!(w, "threshold {}", sampler.threshold())?;
    if let Some(t) = totals {
        writeln!(
            w,
            "acc {} {} {} {} {}",
            t.n_tri, t.v_tri, t.n_wedge, t.v_wedge, t.tri_wedge_cov
        )?;
    }
    writeln!(w, "edges {}", sampler.len())?;
    for r in sampler.saved_records() {
        write!(
            w,
            "{} {} {} {}",
            r.edge.u(),
            r.edge.v(),
            r.weight,
            r.priority
        )?;
        if totals.is_some() {
            write!(w, " {} {}", r.cov_tri, r.cov_wedge)?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a saved sample from `reader`. The input must contain exactly one
/// sample section: trailing non-blank content (e.g. more body lines than
/// the header declared, or a second concatenated section — use
/// [`load_section`] for those) is a [`PersistError::Parse`] pointing at
/// the first offending line.
pub fn load<R: Read>(reader: R) -> Result<SavedSample, PersistError> {
    let mut r = BufReader::new(reader);
    let sample = load_section(&mut r)?;
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        if !line.trim().is_empty() {
            return Err(PersistError::Parse {
                line: 0,
                content: format!(
                    "trailing content after the declared records: {}",
                    line.trim_end().chars().take(60).collect::<String>()
                ),
            });
        }
    }
    Ok(sample)
}

/// Reads one `gps-sample v1` **or** `gps-sample v2` section from `reader`
/// (the magic line selects the kind), consuming exactly the header plus the
/// declared number of body records (interspersed blank lines allowed) and
/// leaving the reader positioned immediately after — so container formats
/// can concatenate sections (`gps-engine`'s sharded snapshot stores one
/// section per shard, of either kind). Line numbers in errors are relative
/// to the start of the section.
///
/// Every field is validated on load — weights and priorities must be
/// finite and positive, the threshold finite and non-negative, the
/// accumulators finite, the capacity positive and at least the record
/// count, and no edge may appear twice — so a section that loads can
/// always be restored without panicking: anything else is a
/// [`PersistError`], never a corrupt sampler. Every
/// consumed line must carry its newline terminator (the writer always
/// emits one): a file cut mid-line errors instead of parsing a shortened
/// final number as a silently different value.
pub fn load_section<R: BufRead>(r: &mut R) -> Result<SavedSample, PersistError> {
    let mut line = String::new();
    let mut lineno = 0usize;
    let mut read_line = |r: &mut R, line: &mut String| -> Result<bool, PersistError> {
        line.clear();
        lineno += 1;
        Ok(r.read_line(line)? != 0)
    };
    let parse_err = |lineno: usize, line: &str| PersistError::Parse {
        line: lineno,
        content: line.trim_end().chars().take(80).collect(),
    };

    if !read_line(r, &mut line)? {
        return Err(PersistError::BadHeader(line.trim_end().to_string()));
    }
    let v2 = match line.trim_end() {
        m if m == MAGIC => false,
        m if m == MAGIC_V2 => true,
        other => return Err(PersistError::BadHeader(other.to_string())),
    };

    let mut header = |r: &mut R, line: &mut String, key: &str| -> Result<String, PersistError> {
        if !read_line(r, line)? {
            return Err(parse_err(0, ""));
        }
        // The writer terminates every line; a missing terminator means the
        // file was cut mid-line, and a truncated final number would
        // otherwise parse as a silently different value. (The magic line
        // is exempt: garbage there reports BadHeader instead.)
        if !line.ends_with('\n') {
            return Err(parse_err(
                0,
                &format!("truncated line: {}", line.trim_end()),
            ));
        }
        let trimmed = line.trim_end();
        match trimmed.strip_prefix(key).and_then(|v| v.strip_prefix(' ')) {
            Some(v) => Ok(v.to_string()),
            None => Err(parse_err(0, trimmed)),
        }
    };

    let capacity: usize = header(r, &mut line, "capacity")?
        .parse()
        .map_err(|_| parse_err(2, &line))?;
    if capacity == 0 {
        return Err(PersistError::Invalid("capacity 0".into()));
    }
    let arrivals: u64 = header(r, &mut line, "arrivals")?
        .parse()
        .map_err(|_| parse_err(3, &line))?;
    let threshold: f64 = header(r, &mut line, "threshold")?
        .parse()
        .map_err(|_| parse_err(4, &line))?;
    if !(threshold >= 0.0 && threshold.is_finite()) {
        return Err(parse_err(4, &line));
    }
    let acc = if v2 {
        let acc_line = header(r, &mut line, "acc")?;
        let mut fields = acc_line.split_whitespace().map(|f| {
            f.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| parse_err(5, &acc_line))
        });
        let mut next = || {
            fields
                .next()
                .unwrap_or_else(|| Err(parse_err(5, &acc_line)))
        };
        let acc = [next()?, next()?, next()?, next()?, next()?];
        if fields.next().is_some() {
            return Err(parse_err(5, &acc_line));
        }
        Some(acc)
    } else {
        None
    };
    let header_lines = if v2 { 6 } else { 5 };
    let count: usize = header(r, &mut line, "edges")?
        .parse()
        .map_err(|_| parse_err(header_lines, &line))?;
    // Cap the pre-allocation: `count` comes from the file, and a corrupt
    // header must surface as CountMismatch (EOF before `count` records),
    // not a capacity-overflow panic. The vector still grows to any honest
    // count.
    let mut records = Vec::with_capacity(count.min(1 << 20));
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.reserve(count.min(1 << 20));
    let mut body_line = header_lines;
    while records.len() < count {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(PersistError::CountMismatch {
                declared: count,
                found: records.len(),
            });
        }
        body_line += 1;
        // Same truncation guard as the header lines: a record cut
        // mid-line must error, not parse a shortened number.
        if !line.ends_with('\n') {
            return Err(parse_err(
                body_line,
                &format!("truncated line: {}", line.trim_end()),
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let mut next = || fields.next().ok_or_else(|| parse_err(body_line, trimmed));
        let u: u32 = next()?.parse().map_err(|_| parse_err(body_line, trimmed))?;
        let v: u32 = next()?.parse().map_err(|_| parse_err(body_line, trimmed))?;
        let weight: f64 = next()?.parse().map_err(|_| parse_err(body_line, trimmed))?;
        let priority: f64 = next()?.parse().map_err(|_| parse_err(body_line, trimmed))?;
        if !(weight.is_finite() && weight > 0.0 && priority.is_finite() && priority > 0.0) {
            return Err(parse_err(body_line, trimmed));
        }
        let edge = Edge::try_new(u, v).ok_or_else(|| parse_err(body_line, trimmed))?;
        let mut record = SavedRecord {
            edge,
            weight,
            priority,
            cov_tri: 0.0,
            cov_wedge: 0.0,
        };
        if v2 {
            record.cov_tri = next()?.parse().map_err(|_| parse_err(body_line, trimmed))?;
            record.cov_wedge = next()?.parse().map_err(|_| parse_err(body_line, trimmed))?;
            if !(record.cov_tri.is_finite() && record.cov_wedge.is_finite()) {
                return Err(parse_err(body_line, trimmed));
            }
        }
        if !seen.insert(edge.key()) {
            return Err(PersistError::Invalid(format!(
                "line {body_line}: duplicate edge {edge}"
            )));
        }
        records.push(record);
    }
    // Checked once the body is read, so a declared count the body cannot
    // back is a CountMismatch whatever the capacity says.
    if count > capacity {
        return Err(PersistError::Invalid(format!(
            "{count} records exceed capacity {capacity}"
        )));
    }
    let totals = acc.map(
        |[n_tri, v_tri, n_wedge, v_wedge, tri_wedge_cov]| InStreamTotals {
            n_tri,
            v_tri,
            n_wedge,
            v_wedge,
            tri_wedge_cov,
        },
    );
    Ok(SavedSample {
        capacity,
        arrivals,
        threshold,
        records,
        totals,
    })
}

/// Loads from a file path. See [`load`].
pub fn load_file<P: AsRef<std::path::Path>>(path: P) -> Result<SavedSample, PersistError> {
    load(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::in_stream::InStreamEstimator;
    use crate::post_stream;
    use crate::weights::{TriangleWeight, UniformWeight};

    fn loaded_sampler() -> GpsSampler<TriangleWeight> {
        let mut s = GpsSampler::new(12, TriangleWeight::default(), 3);
        let mut edges = vec![];
        for base in 0..15u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        s.process_stream(edges);
        assert!(s.threshold() > 0.0);
        s
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let sampler = loaded_sampler();
        let mut buf = Vec::new();
        save(&sampler, &mut buf).unwrap();
        let saved = load(buf.as_slice()).unwrap();
        assert_eq!(saved.capacity, sampler.capacity());
        assert_eq!(saved.arrivals, sampler.arrivals());
        assert_eq!(saved.threshold, sampler.threshold());
        assert_eq!(saved.records.len(), sampler.len());
    }

    #[test]
    fn restored_sampler_estimates_identically() {
        let sampler = loaded_sampler();
        let original = post_stream::estimate(&sampler);
        let mut buf = Vec::new();
        save(&sampler, &mut buf).unwrap();
        let restored = load(buf.as_slice()).unwrap().into_sampler(UniformWeight, 0);
        let again = post_stream::estimate(&restored);
        // Equal up to float summation order (see module docs).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
        assert!(close(original.triangles.value, again.triangles.value));
        assert!(close(original.triangles.variance, again.triangles.variance));
        assert!(close(original.wedges.value, again.wedges.value));
        assert!(close(original.tri_wedge_cov, again.tri_wedge_cov));
    }

    #[test]
    fn restored_sampler_can_keep_streaming() {
        let sampler = loaded_sampler();
        let mut buf = Vec::new();
        save(&sampler, &mut buf).unwrap();
        let mut restored = load(buf.as_slice())
            .unwrap()
            .into_sampler(TriangleWeight::default(), 7);
        let before = restored.arrivals();
        restored.process(Edge::new(900, 901));
        assert_eq!(restored.arrivals(), before + 1);
        assert_eq!(restored.len(), restored.capacity());
        // Threshold can only grow.
        assert!(restored.threshold() >= sampler.threshold());
    }

    #[test]
    fn sections_compose_on_one_reader() {
        // Two samples written back to back load as two sections — the
        // container contract gps-engine's sharded snapshot relies on.
        let a = loaded_sampler();
        let mut b = GpsSampler::new(6, TriangleWeight::default(), 9);
        b.process_stream((0..30u32).map(|i| Edge::new(i, i + 1)));
        let mut buf = Vec::new();
        save(&a, &mut buf).unwrap();
        save(&b, &mut buf).unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        let sa = load_section(&mut r).unwrap();
        let sb = load_section(&mut r).unwrap();
        assert_eq!(sa.records.len(), a.len());
        assert_eq!(sa.threshold, a.threshold());
        assert_eq!(sb.records.len(), b.len());
        assert_eq!(sb.capacity, 6);
        // The reader is exhausted: a third section is a BadHeader (EOF).
        assert!(matches!(
            load_section(&mut r),
            Err(PersistError::BadHeader(_))
        ));
        // But the strict single-sample entry point rejects the same input,
        // pointing at the first trailing line (the second section's magic).
        match load(buf.as_slice()) {
            Err(PersistError::Parse { content, .. }) => {
                assert!(content.contains("trailing content"), "{content}");
                assert!(content.contains("gps-sample"), "{content}");
            }
            other => panic!("expected trailing-content Parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_input() {
        assert!(matches!(
            load("nonsense".as_bytes()),
            Err(PersistError::BadHeader(_))
        ));
        let bad_body = "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 1\nx y z w\n";
        assert!(matches!(
            load(bad_body.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
        let bad_count =
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 2\n0 1 1.0 2.0\n";
        assert!(matches!(
            load(bad_count.as_bytes()),
            Err(PersistError::CountMismatch { .. })
        ));
        // A corrupt (absurd) declared count must error, not panic on
        // pre-allocation.
        let huge_count = format!(
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges {}\n0 1 1.0 2.0\n",
            u64::MAX
        );
        assert!(matches!(
            load(huge_count.as_bytes()),
            Err(PersistError::CountMismatch { .. })
        ));
        let self_loop =
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 1\n3 3 1.0 2.0\n";
        assert!(matches!(
            load(self_loop.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
    }

    #[test]
    fn v2_round_trip_is_bit_exact() {
        // Save an estimator mid-stream (with evictions, so the per-edge
        // accumulators are non-trivial), reload, and require bit-identical
        // estimates and accumulator state.
        let mut est = InStreamEstimator::new(12, TriangleWeight::default(), 3);
        let mut edges = vec![];
        for base in 0..15u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        est.process_stream(edges);
        assert!(est.sampler().threshold() > 0.0);
        let before = est.estimates();
        let totals = est.totals();
        let covariances = |s: &GpsSampler<TriangleWeight>| -> Vec<(f64, f64)> {
            let records = s.view().records();
            records.iter().map(|r| (r.cov_tri, r.cov_wedge)).collect()
        };
        let per_edge = covariances(est.sampler());
        assert!(
            per_edge.iter().any(|&(t, w)| t != 0.0 || w != 0.0),
            "stream too small to exercise per-edge accumulators"
        );

        let mut buf = Vec::new();
        save_with_totals(est.sampler(), &totals, &mut buf).unwrap();
        let saved = load(buf.as_slice()).unwrap();
        assert_eq!(saved.totals, Some(totals));
        let sampler = saved.into_sampler(TriangleWeight::default(), 3);
        let restored = InStreamEstimator::resume(sampler, totals);
        let after = restored.estimates();
        assert_eq!(
            before.triangles.value.to_bits(),
            after.triangles.value.to_bits()
        );
        assert_eq!(
            before.triangles.variance.to_bits(),
            after.triangles.variance.to_bits()
        );
        assert_eq!(before.wedges.value.to_bits(), after.wedges.value.to_bits());
        assert_eq!(
            before.wedges.variance.to_bits(),
            after.wedges.variance.to_bits()
        );
        assert_eq!(
            before.tri_wedge_cov.to_bits(),
            after.tri_wedge_cov.to_bits()
        );
        assert_eq!(restored.totals(), totals);
        assert_eq!(covariances(restored.sampler()), per_edge);
    }

    #[test]
    fn v1_and_v2_sections_compose_on_one_reader() {
        let sampler = loaded_sampler();
        let mut est = InStreamEstimator::new(6, TriangleWeight::default(), 9);
        est.process_stream((0..30u32).map(|i| Edge::new(i, i + 1)));
        let mut buf = Vec::new();
        save(&sampler, &mut buf).unwrap();
        save_with_totals(est.sampler(), &est.totals(), &mut buf).unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        let s1 = load_section(&mut r).unwrap();
        let s2 = load_section(&mut r).unwrap();
        assert!(s1.totals.is_none());
        assert_eq!(s2.totals, Some(est.totals()), "v2 section carries totals");
        assert_eq!(s2.records.len(), est.sampler().len());
    }

    #[test]
    fn v2_rejects_malformed_sections() {
        // Truncated acc header.
        let bad_acc = "gps-sample v2\ncapacity 4\narrivals 9\nthreshold 1.5\nacc 1 2 3\nedges 0\n";
        assert!(matches!(
            load(bad_acc.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
        // Non-finite accumulator.
        let nan_acc =
            "gps-sample v2\ncapacity 4\narrivals 9\nthreshold 1.5\nacc 1 2 3 4 NaN\nedges 0\n";
        assert!(matches!(
            load(nan_acc.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
        // Record missing the covariance columns.
        let short_record = "gps-sample v2\ncapacity 4\narrivals 9\nthreshold 1.5\n\
             acc 0 0 0 0 0\nedges 1\n0 1 1.0 2.0\n";
        assert!(matches!(
            load(short_record.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
        // Missing acc header entirely (v1 body under a v2 magic).
        let no_acc = "gps-sample v2\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 0\n";
        assert!(matches!(
            load(no_acc.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
    }

    #[test]
    fn loaded_sections_never_restore_to_a_corrupt_sampler() {
        // Values that parse as floats but would make `into_sampler` panic
        // (non-positive or non-finite weights/priorities, bad thresholds)
        // must be rejected at load time.
        for body in [
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 1\n0 1 -1.0 2.0\n",
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 1\n0 1 1.0 0.0\n",
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold 1.5\nedges 1\n0 1 inf 2.0\n",
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold NaN\nedges 0\n",
            "gps-sample v1\ncapacity 4\narrivals 9\nthreshold -2.0\nedges 0\n",
        ] {
            assert!(
                matches!(load(body.as_bytes()), Err(PersistError::Parse { .. })),
                "accepted: {body}"
            );
        }
    }

    /// A saved 12-capacity sampler's section with one line edited.
    fn edited_section(edit: impl Fn(&str) -> String) -> String {
        let mut buf = Vec::new();
        save(&loaded_sampler(), &mut buf).unwrap();
        edit(std::str::from_utf8(&buf).unwrap())
    }

    /// Replaces the second record line with a copy of the first.
    fn duplicate_first_record(text: &str) -> String {
        let mut lines: Vec<&str> = text.lines().collect();
        let first = lines
            .iter()
            .position(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .unwrap();
        lines[first + 1] = lines[first];
        lines.join("\n") + "\n"
    }

    /// Sets the weight column of the first record to `0`.
    fn zero_first_weight(text: &str) -> String {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let first = lines
            .iter()
            .position(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .unwrap();
        let mut fields: Vec<&str> = lines[first].split(' ').collect();
        fields[2] = "0";
        lines[first] = fields.join(" ");
        lines.join("\n") + "\n"
    }

    #[test]
    fn sections_that_parse_but_cannot_restore_are_invalid() {
        // One-line edits of a real section: each still parses line by line,
        // and each would make GpsSampler::restore panic if it loaded.
        let shrunk = edited_section(|t| t.replace("capacity 12", "capacity 2"));
        assert!(matches!(
            load(shrunk.as_bytes()),
            Err(PersistError::Invalid(_))
        ));
        let zero_cap = edited_section(|t| t.replace("capacity 12", "capacity 0"));
        assert!(matches!(
            load(zero_cap.as_bytes()),
            Err(PersistError::Invalid(_))
        ));
        match load(edited_section(duplicate_first_record).as_bytes()) {
            Err(PersistError::Invalid(reason)) => assert!(reason.contains("duplicate"), "{reason}"),
            other => panic!("expected a duplicate-edge error, got {other:?}"),
        }
        assert!(matches!(
            load(edited_section(zero_first_weight).as_bytes()),
            Err(PersistError::Parse { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let sampler = loaded_sampler();
        let path = std::env::temp_dir().join("gps-persist-test.sample");
        save_file(&sampler, &path).unwrap();
        let saved = load_file(&path).unwrap();
        assert_eq!(saved.records.len(), sampler.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let e = PersistError::CountMismatch {
            declared: 5,
            found: 3,
        };
        assert!(format!("{e}").contains("5"));
        let e = PersistError::BadHeader("x".into());
        assert!(format!("{e}").contains("gps-sample"));
    }
}
