//! Saving and restoring sharded reference samples.
//!
//! A sharded engine's estimation state is its per-shard samples plus the
//! routing parameters needed to keep consuming the stream consistently
//! (the engine seed drives the edge partition, so a restored engine sends
//! every future arrival — including duplicates of already-sampled edges —
//! to the shard that owns it). The format composes the existing
//! single-reservoir machinery: an engine header followed by one
//! `gps-sample` section per shard, in shard order, parsed back with
//! `gps_core::persist::load_section`:
//!
//! ```text
//! gps-engine v1
//! seed 42
//! shards 4
//! capacity 16000
//! crc 1b7c3a9f00e2d415
//! <gps-sample section of shard 0>
//! ...
//! <gps-sample section of shard 3>
//! ```
//!
//! The `crc` header line (FNV-1a over the canonical header values and the
//! raw section bytes) makes *any* corruption — truncation anywhere, any
//! bit flip — a guaranteed [`PersistError`] instead of a silently
//! different restore; a corruption property test pins this. The line is
//! optional on load, so hand-written or pre-crc files still parse (their
//! protection is then only the structural validation).
//!
//! A plain engine writes `gps-sample v1` sections; an **estimating** engine
//! writes `v2` sections that additionally carry each shard's in-stream
//! accumulators and per-edge covariance contributions, so a restored
//! serving engine's in-stream estimates are **bit-identical** to the
//! original's at the save watermark — not merely re-seeded from the
//! post-stream estimate. (This is also the substrate the engine's crash
//! checkpoints are built on; see the `gps-engine` crate docs.)
//!
//! A [`SavedEngine`] becomes a running engine again through the one
//! constructor, [`ShardedGps::launch`] with
//! [`Launch::resume`](crate::Launch::resume) set. The snapshot supplies the
//! samplers, the in-stream states and the stream position; the caller's
//! [`EngineConfig`] supplies everything else (checkpointing, cadences,
//! timeouts), and must name the snapshot's seed, capacity and shard count.
//! Like `GpsSampler::restore`, a restored engine
//! estimates identically to the original (up to float summation order from
//! adjacency rebuild) and may keep consuming the stream with fresh —
//! statistically equivalent — RNG draws.

use crate::engine::{EngineConfig, ShardedGps};
use crate::partition::shard_seed;
use gps_core::persist::{self, PersistError, SavedSample};
use gps_core::weights::EdgeWeight;
use gps_core::{GpsSampler, InStreamState};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Magic first line of the engine container format.
const MAGIC: &str = "gps-engine v1";

/// FNV-1a over `bytes`, continuing from `h` (seed with [`FNV_OFFSET`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The container checksum: FNV-1a over the canonical header value lines
/// (`seed …`, `shards …`, `capacity …`) followed by the raw bytes of every
/// section. Hashing the *canonical re-rendering* of the parsed header
/// values (rather than the header bytes as written) keeps the check
/// order-independent of cosmetic whitespace while still catching any edit
/// that changes a parsed value.
fn container_crc(seed: u64, shards: usize, capacity: usize, sections: &[u8]) -> u64 {
    let header = format!("seed {seed}\nshards {shards}\ncapacity {capacity}\n");
    fnv1a(fnv1a(FNV_OFFSET, header.as_bytes()), sections)
}

/// A sharded sample loaded from disk, ready to become an engine again.
#[derive(Clone, Debug, PartialEq)]
pub struct SavedEngine {
    /// Engine seed (drives the edge partition and shard RNG seeds).
    pub seed: u64,
    /// Total reservoir budget `m`.
    pub capacity: usize,
    /// Per-shard samples, in shard order.
    pub shards: Vec<SavedSample>,
}

impl SavedEngine {
    /// Stream position when saved (sum of per-shard arrivals — every
    /// arrival reaches exactly one shard).
    pub fn pushed(&self) -> u64 {
        self.shards.iter().map(|s| s.arrivals).sum()
    }

    /// The per-shard samplers and in-stream states of an engine resumed
    /// on `cfg` (see [`Launch::resume`](crate::Launch::resume)).
    ///
    /// # Panics
    /// Panics if the snapshot's seed, capacity or shard count differs from
    /// `cfg`'s, if its shard budgets do not sum to its capacity, or on
    /// invalid per-shard records (see `GpsSampler::restore`).
    pub(crate) fn restore<W: EdgeWeight + Clone>(
        self,
        cfg: &EngineConfig,
        weight_fn: &W,
    ) -> Vec<(GpsSampler<W>, Option<InStreamState>)> {
        for (field, saved, config) in [
            ("seed", self.seed, cfg.seed),
            ("capacity", self.capacity as u64, cfg.capacity as u64),
            ("shards", self.shards.len() as u64, cfg.shards as u64),
        ] {
            assert!(
                saved == config,
                "snapshot {field} {saved} does not match config {field} {config}"
            );
        }
        let total: usize = self.shards.iter().map(|s| s.capacity).sum();
        assert_eq!(
            total, self.capacity,
            "shard budgets sum to {total}, header declares {}",
            self.capacity
        );
        let shards = self.shards.into_iter().enumerate().map(|(i, shard)| {
            let sampler = GpsSampler::restore(
                shard.capacity,
                weight_fn.clone(),
                shard_seed(cfg.seed, i),
                shard.threshold,
                shard.arrivals,
                shard.records,
            );
            (sampler, shard.in_stream)
        });
        shards.collect()
    }
}

impl<W: EdgeWeight + Clone + Send + 'static> ShardedGps<W> {
    /// Writes the engine's estimation state to `writer` (finishing the
    /// engine first if needed): the engine header, then one persisted
    /// sample section per shard — `gps-sample v2` (with the shard's
    /// in-stream accumulator state, for exact resume) when the engine ran
    /// in estimating mode, `v1` otherwise.
    pub fn save<Out: Write>(&mut self, writer: Out) -> Result<(), PersistError> {
        self.finish();
        let (cfg, samplers, states, _) = self.parts();
        // Sections are staged in memory so the checksum can cover their
        // exact bytes; engine snapshots are sample-sized, not stream-sized.
        let mut sections = Vec::new();
        for (sampler, state) in samplers.iter().zip(states) {
            match state {
                Some(totals) => persist::save_with_totals(sampler, totals, &mut sections)?,
                None => persist::save(sampler, &mut sections)?,
            }
        }
        let crc = container_crc(cfg.seed, cfg.shards, cfg.capacity, &sections);
        let mut w = BufWriter::new(writer);
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "seed {}", cfg.seed)?;
        writeln!(w, "shards {}", cfg.shards)?;
        writeln!(w, "capacity {}", cfg.capacity)?;
        writeln!(w, "crc {crc:016x}")?;
        w.write_all(&sections)?;
        w.flush()?;
        Ok(())
    }

    /// Saves to a file path. See [`ShardedGps::save`].
    pub fn save_file<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<(), PersistError> {
        self.save(std::fs::File::create(path)?)
    }
}

/// Reads a saved engine from `reader`.
pub fn load_engine<R: Read>(reader: R) -> Result<SavedEngine, PersistError> {
    let mut r = BufReader::new(reader);
    let mut line = String::new();
    let read_header =
        |r: &mut BufReader<R>, line: &mut String, key: &str| -> Result<String, PersistError> {
            line.clear();
            r.read_line(line)?;
            let trimmed = line.trim_end();
            match trimmed.strip_prefix(key).and_then(|v| v.strip_prefix(' ')) {
                Some(v) => Ok(v.to_string()),
                None => Err(PersistError::Parse {
                    line: 0,
                    content: trimmed.chars().take(80).collect(),
                }),
            }
        };

    line.clear();
    r.read_line(&mut line)?;
    if line.trim_end() != MAGIC {
        return Err(PersistError::BadHeader(line.trim_end().to_string()));
    }
    let parse_err = |line: &str| PersistError::Parse {
        line: 0,
        content: line.trim_end().chars().take(80).collect(),
    };
    let seed: u64 = read_header(&mut r, &mut line, "seed")?
        .parse()
        .map_err(|_| parse_err(&line))?;
    let num_shards: usize = read_header(&mut r, &mut line, "shards")?
        .parse()
        .map_err(|_| parse_err(&line))?;
    let capacity: usize = read_header(&mut r, &mut line, "capacity")?
        .parse()
        .map_err(|_| parse_err(&line))?;
    // Sanity-bound before allocating: a corrupt header must surface as a
    // PersistError, not a capacity-overflow panic. Every shard costs at
    // least one OS thread on restore, so the bound loses nothing real.
    const MAX_SHARDS: usize = 1 << 16;
    if num_shards == 0 || num_shards > MAX_SHARDS {
        return Err(parse_err(&format!("shards {num_shards}")));
    }
    // Optional `crc` header line; everything after it is section bytes.
    line.clear();
    r.read_line(&mut line)?;
    let declared_crc = line
        .trim_end()
        .strip_prefix("crc ")
        .map(|h| u64::from_str_radix(h, 16).map_err(|_| parse_err(&line)))
        .transpose()?;
    let mut sections = Vec::new();
    if declared_crc.is_none() {
        // No checksum (pre-crc or hand-written file): the line we just
        // consumed is the first section's magic line.
        sections.extend_from_slice(line.as_bytes());
    }
    r.read_to_end(&mut sections)?;
    if let Some(declared) = declared_crc {
        let actual = container_crc(seed, num_shards, capacity, &sections);
        if actual != declared {
            return Err(parse_err(&format!(
                "crc {declared:016x} (sections hash to {actual:016x})"
            )));
        }
    }
    let mut body: &[u8] = &sections;
    let mut shards = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        shards.push(persist::load_section(&mut body)?);
    }
    // Validate the header/body consistency here, so corrupt files error at
    // load time instead of panicking later on resume.
    let total: usize = shards.iter().map(|s| s.capacity).sum();
    if total != capacity {
        return Err(parse_err(&format!(
            "capacity {capacity} (shard budgets sum to {total})"
        )));
    }
    Ok(SavedEngine {
        seed,
        capacity,
        shards,
    })
}

/// Loads from a file path. See [`load_engine`].
pub fn load_engine_file<P: AsRef<std::path::Path>>(path: P) -> Result<SavedEngine, PersistError> {
    load_engine(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Estimation, Launch};
    use gps_core::weights::{TriangleWeight, UniformWeight};
    use gps_graph::types::Edge;

    fn loaded_engine() -> ShardedGps<TriangleWeight> {
        let mut engine = ShardedGps::new(24, TriangleWeight::default(), 9, 3);
        let mut edges = vec![];
        for base in 0..40u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        engine.push_stream(edges);
        engine.finish();
        engine
    }

    /// Resumes `saved` on the default config of its own seed, capacity
    /// and shard count.
    fn resume<W: EdgeWeight + Clone + Send + 'static>(
        saved: SavedEngine,
        weight_fn: W,
        estimation: Estimation,
    ) -> ShardedGps<W> {
        let cfg = EngineConfig::new(saved.capacity, saved.shards.len(), saved.seed);
        let launch = Launch {
            estimation,
            resume: Some(saved),
            ..Launch::default()
        };
        ShardedGps::launch(cfg, weight_fn, launch)
    }

    #[test]
    fn round_trip_preserves_every_shard() {
        let mut engine = loaded_engine();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let saved = load_engine(buf.as_slice()).unwrap();
        assert_eq!(saved.seed, engine.seed());
        assert_eq!(saved.capacity, engine.capacity());
        assert_eq!(saved.shards.len(), engine.num_shards());
        assert_eq!(saved.pushed(), engine.pushed());
        for (section, sampler) in saved.shards.iter().zip(engine.samplers()) {
            assert_eq!(section.records.len(), sampler.len());
            assert_eq!(section.threshold, sampler.threshold());
            assert_eq!(section.arrivals, sampler.arrivals());
        }
    }

    #[test]
    fn restored_engine_estimates_identically() {
        let mut engine = loaded_engine();
        let original = engine.estimate();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let saved = load_engine(buf.as_slice()).unwrap();
        let mut restored = resume(saved, UniformWeight, Estimation::PostStream);
        let again = restored.estimate();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
        assert!(close(original.triangles.value, again.triangles.value));
        assert!(close(original.triangles.variance, again.triangles.variance));
        assert!(close(original.wedges.value, again.wedges.value));
        assert!(close(original.tri_wedge_cov, again.tri_wedge_cov));
    }

    #[test]
    fn restored_engine_keeps_routing_consistently() {
        let mut engine = loaded_engine();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let saved = load_engine(buf.as_slice()).unwrap();
        let mut restored = resume(saved, TriangleWeight::default(), Estimation::PostStream);
        assert_eq!(restored.pushed(), engine.pushed());
        // Re-push every edge the original engine sampled: all must be
        // recognized as duplicates, which requires the rebuilt partition
        // to route each edge back to the shard that holds it.
        let sampled: Vec<Edge> = engine
            .samplers()
            .iter()
            .flat_map(|s| s.edges().map(|se| se.edge).collect::<Vec<_>>())
            .collect();
        let expect = sampled.len() as u64;
        restored.push_stream(sampled);
        restored.finish();
        let dups: u64 = restored.samplers().iter().map(|s| s.duplicates()).sum();
        assert_eq!(dups, expect, "restored partition must match the original");
    }

    #[test]
    fn serving_round_trip_resumes_in_stream_estimates_exactly() {
        let launch = Launch {
            estimation: Estimation::InStream(None),
            ..Launch::default()
        };
        let mut engine = ShardedGps::launch(
            EngineConfig::new(24, 3, 9),
            TriangleWeight::default(),
            launch,
        );
        let mut edges = vec![];
        for base in 0..40u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        engine.push_stream(edges);
        engine.finish();
        let original = engine.estimate_in_stream();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let saved = load_engine(buf.as_slice()).unwrap();
        // Estimating engines write v2 sections: every shard carries its
        // in-stream accumulator state.
        assert!(saved.shards.iter().all(|s| s.in_stream.is_some()));
        let mut restored = resume(saved, TriangleWeight::default(), Estimation::InStream(None));
        // Exact resume: at the save watermark the restored engine's
        // in-stream estimates are bit-identical to the original's — the
        // accumulators were restored, not re-seeded from the post-stream
        // estimate.
        let again = restored.estimate_in_stream();
        assert_eq!(
            original.triangles.value.to_bits(),
            again.triangles.value.to_bits()
        );
        assert_eq!(
            original.triangles.variance.to_bits(),
            again.triangles.variance.to_bits()
        );
        assert_eq!(
            original.wedges.value.to_bits(),
            again.wedges.value.to_bits()
        );
        assert_eq!(
            original.wedges.variance.to_bits(),
            again.wedges.variance.to_bits()
        );
        assert_eq!(
            original.tri_wedge_cov.to_bits(),
            again.tri_wedge_cov.to_bits()
        );
    }

    #[test]
    fn plain_engine_still_writes_v1_sections() {
        let mut engine = loaded_engine();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let saved = load_engine(buf.as_slice()).unwrap();
        assert!(saved.shards.iter().all(|s| s.in_stream.is_none()));
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("gps-sample v1"));
        assert!(!text.contains("gps-sample v2"));
    }

    #[test]
    fn rejects_garbage_input() {
        assert!(matches!(
            load_engine("nonsense".as_bytes()),
            Err(PersistError::BadHeader(_))
        ));
        assert!(matches!(
            load_engine("gps-engine v1\nseed x\n".as_bytes()),
            Err(PersistError::Parse { .. })
        ));
        // A corrupt shard count must error, not panic on pre-allocation.
        let huge = format!("gps-engine v1\nseed 1\nshards {}\ncapacity 1\n", u64::MAX);
        assert!(matches!(
            load_engine(huge.as_bytes()),
            Err(PersistError::Parse { .. })
        ));
        // Declares 2 shards but contains 1 section.
        let mut engine = ShardedGps::new(4, UniformWeight, 1, 1);
        engine.push(Edge::new(0, 1));
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("shards 1", "shards 2");
        assert!(load_engine(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_capacity_inconsistent_with_shard_budgets() {
        let mut engine = loaded_engine(); // total capacity 24
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        // The engine header is the first "capacity" line; the per-shard
        // sections declare their own. Corrupt the header only — and drop
        // the checksum line (which would catch the edit first) so this
        // exercises the structural capacity-sum check crc-less files rely
        // on.
        let text: String = String::from_utf8(buf)
            .unwrap()
            .replacen("capacity 24", "capacity 99", 1)
            .lines()
            .filter(|l| !l.starts_with("crc "))
            .map(|l| format!("{l}\n"))
            .collect();
        match load_engine(text.as_bytes()) {
            Err(PersistError::Parse { content, .. }) => {
                assert!(content.contains("capacity 99"), "{content}");
            }
            other => panic!("expected capacity-mismatch Parse error, got {other:?}"),
        }
    }

    #[test]
    fn checksum_catches_header_and_section_edits() {
        let mut engine = loaded_engine();
        let mut buf = Vec::new();
        engine.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\ncrc "), "save must write a checksum line");
        // A value edit that is structurally valid (both headers stay
        // consistent) is still rejected by the checksum.
        let seed_edit = text.replacen("seed 9", "seed 8", 1);
        assert!(load_engine(seed_edit.as_bytes()).is_err());
        // So is any section-byte edit, even one that would parse.
        let idx = text.find("gps-sample").unwrap();
        let mut bytes = text.clone().into_bytes();
        bytes[idx + 30] ^= 0x01;
        assert!(load_engine(bytes.as_slice()).is_err());
        // Dropping the crc line entirely keeps the file loadable
        // (pre-checksum compatibility).
        let no_crc: String = text
            .lines()
            .filter(|l| !l.starts_with("crc "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(load_engine(no_crc.as_bytes()).is_ok());
    }

    /// Resumes a snapshot of the 24-edge, 3-shard, seed-9 engine on `cfg`.
    fn resume_on(cfg: EngineConfig) {
        let mut buf = Vec::new();
        loaded_engine().save(&mut buf).unwrap();
        let launch = Launch {
            resume: Some(load_engine(buf.as_slice()).unwrap()),
            ..Launch::default()
        };
        let _ = ShardedGps::launch(cfg, UniformWeight, launch);
    }

    #[test]
    #[should_panic(expected = "snapshot seed 9 does not match config seed 8")]
    fn resume_rejects_a_config_with_another_seed() {
        resume_on(EngineConfig::new(24, 3, 8));
    }

    #[test]
    #[should_panic(expected = "snapshot capacity 24 does not match config capacity 30")]
    fn resume_rejects_a_config_with_another_capacity() {
        resume_on(EngineConfig::new(30, 3, 9));
    }

    #[test]
    #[should_panic(expected = "snapshot shards 3 does not match config shards 2")]
    fn resume_rejects_a_config_with_another_shard_count() {
        resume_on(EngineConfig::new(24, 2, 9));
    }

    #[test]
    fn file_round_trip() {
        let mut engine = loaded_engine();
        let path = std::env::temp_dir().join("gps-engine-snapshot-test.sample");
        engine.save_file(&path).unwrap();
        let saved = load_engine_file(&path).unwrap();
        assert_eq!(saved.shards.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
