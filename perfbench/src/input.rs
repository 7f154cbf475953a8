//! The seeded input stream and its exact triangle count, generated once
//! per (parameters, seed) and cached beside the build output.
//!
//! Generation runs in a child process (`perfbench --generate-inputs`), so
//! the measuring process never carries the generator's heap: its resident
//! set before the first engine is built is the loaded stream and nothing
//! else, which keeps `mem_mb` comparable between cached and fresh runs.

use gps_graph::{CsrGraph, Edge};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Holme–Kim node count.
pub const NODES: u32 = 2_000_000;
/// Holme–Kim edges per new node.
pub const EDGES_PER_NODE: usize = 4;
/// Holme–Kim triad-formation probability.
pub const TRIAD_P: f64 = 0.5;
/// Cached input files kept; older ones are deleted (each is ~64 MB).
const KEEP_CACHED: usize = 12;
const MAGIC: &[u8; 8] = b"GPSBIN01";
/// Decorrelates the permutation from the generator, which uses the seed as is.
const PERMUTE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The workload input: a permuted edge stream and its exact triangle count.
pub struct Inputs {
    pub stream: Vec<Edge>,
    pub exact_triangles: u64,
}

/// The build directory the executable lives in (`<target>` of
/// `<target>/release/perfbench`); cached inputs and written traces go
/// beside it, never into the source tree.
pub fn build_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| std::io::Error::other("executable has no build directory"))
}

/// The cache file for `seed` (parameters are part of the name).
fn cache_path(seed: u64) -> std::io::Result<PathBuf> {
    let dir = build_dir()?.join("perfbench-inputs");
    Ok(dir.join(format!(
        "hk-n{NODES}-k{EDGES_PER_NODE}-p{TRIAD_P}-s{seed}.bin"
    )))
}

/// Generates the inputs for `seed` and writes them to the cache. This is
/// the body of the `--generate-inputs` child process.
pub fn generate_to_cache(seed: u64) -> std::io::Result<()> {
    let edges = gps_stream::gen::holme_kim(NODES, EDGES_PER_NODE, TRIAD_P, seed);
    let exact_triangles = gps_graph::exact::triangle_count(&CsrGraph::from_edges(&edges));
    let stream = gps_stream::permuted(&edges, seed ^ PERMUTE_SALT);
    drop(edges);
    let path = cache_path(seed)?;
    let dir = path.parent().expect("cache path has a directory");
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let mut bytes = Vec::with_capacity(24 + stream.len() * 8);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&exact_triangles.to_le_bytes());
    bytes.extend_from_slice(&(stream.len() as u64).to_le_bytes());
    for e in &stream {
        bytes.extend_from_slice(&e.u().to_le_bytes());
        bytes.extend_from_slice(&e.v().to_le_bytes());
    }
    // A cache, not a record: no fsync. The rename keeps readers from seeing
    // a partial file, and `read` rejects any file whose length is off.
    std::fs::File::create(&tmp)?.write_all(&bytes)?;
    std::fs::rename(&tmp, &path)?;
    prune(dir)
}

/// Deletes all but the `KEEP_CACHED` most recently written inputs.
fn prune(dir: &Path) -> std::io::Result<()> {
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    files.sort();
    let excess = files.len().saturating_sub(KEEP_CACHED);
    for (_, path) in files.into_iter().take(excess) {
        std::fs::remove_file(path)?;
    }
    Ok(())
}

/// Loads the inputs for `seed`, generating them in a child process first
/// if they are not cached. Returns the inputs and the generation time in
/// seconds (`None` when the cache already held them).
pub fn load(seed: u64) -> Result<(Inputs, Option<f64>), String> {
    let path = cache_path(seed).map_err(|e| format!("locating the input cache: {e}"))?;
    let mut generated = None;
    if !path.exists() {
        let start = Instant::now();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args(["--generate-inputs", "--seed", &seed.to_string()])
            .status()
            .map_err(|e| format!("starting the input generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generator failed: {status}"));
        }
        generated = Some(start.elapsed().as_secs_f64());
    }
    let inputs = read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok((inputs, generated))
}

fn read(path: &Path) -> std::io::Result<Inputs> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt input cache");
    if bytes.len() < 24 || &bytes[..8] != MAGIC {
        return Err(bad());
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let exact_triangles = word(8);
    let len = usize::try_from(word(16)).map_err(|_| bad())?;
    if bytes.len() != 24 + len.checked_mul(8).ok_or_else(bad)? {
        return Err(bad());
    }
    let half = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4 bytes"));
    let stream = bytes[24..]
        .chunks_exact(8)
        .map(|c| Edge::try_new(half(&c[..4]), half(&c[4..])).ok_or_else(bad))
        .collect::<std::io::Result<Vec<Edge>>>()?;
    Ok(Inputs {
        stream,
        exact_triangles,
    })
}
