//! Harness configuration from CLI flags / environment variables.

use std::path::PathBuf;

/// Shared experiment configuration.
///
/// Flags (all optional): `--scale <f64>`, `--seed <u64>`, `--out <dir>`,
/// `--threads <n>`, `--shards <n>`.
/// Environment fallbacks: `GPS_SCALE`, `GPS_SEED`, `GPS_OUT`,
/// `GPS_THREADS`, `GPS_SHARDS`.
///
/// `scale` multiplies every workload's size knobs; 1.0 builds graphs of
/// roughly 2–3 × 10⁵ edges each (laptop-friendly stand-ins for the paper's
/// 10⁶–10⁸-edge datasets; see DESIGN.md §5).
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload scale multiplier.
    pub scale: f64,
    /// Base RNG seed for the whole experiment.
    pub seed: u64,
    /// Directory for TSV output (created on demand); `None` disables files.
    pub out_dir: Option<PathBuf>,
    /// Worker threads for parallel estimation.
    pub threads: usize,
    /// Shard count for `gps-engine` workloads (the `scaling` bench and the
    /// sharded-ingest example read this as the top of their shard axis).
    pub shards: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 1.0,
            seed: 42,
            out_dir: Some(PathBuf::from("results")),
            threads: 4,
            shards: 4,
        }
    }
}

impl Config {
    /// Parses `std::env::args` plus environment-variable fallbacks.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Ok(v) = std::env::var("GPS_SCALE") {
            if let Ok(x) = v.parse() {
                cfg.scale = x;
            }
        }
        if let Ok(v) = std::env::var("GPS_SEED") {
            if let Ok(x) = v.parse() {
                cfg.seed = x;
            }
        }
        if let Ok(v) = std::env::var("GPS_OUT") {
            cfg.out_dir = Some(PathBuf::from(v));
        }
        if let Ok(v) = std::env::var("GPS_THREADS") {
            if let Ok(x) = v.parse() {
                cfg.threads = x;
            }
        }
        if let Ok(v) = std::env::var("GPS_SHARDS") {
            if let Ok(x) = v.parse() {
                cfg.shards = x;
            }
        }
        let args: Vec<String> = std::env::args().collect();
        cfg.apply_args(&args);
        cfg
    }

    /// Applies `--flag value` pairs from an argument list (exposed for
    /// tests).
    pub fn apply_args(&mut self, args: &[String]) {
        let mut i = 0;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Ok(x) = args[i + 1].parse() {
                        self.scale = x;
                    }
                    i += 2;
                }
                "--seed" => {
                    if let Ok(x) = args[i + 1].parse() {
                        self.seed = x;
                    }
                    i += 2;
                }
                "--out" => {
                    self.out_dir = Some(PathBuf::from(&args[i + 1]));
                    i += 2;
                }
                "--threads" => {
                    if let Ok(x) = args[i + 1].parse() {
                        self.threads = x;
                    }
                    i += 2;
                }
                "--shards" => {
                    if let Ok(x) = args[i + 1].parse() {
                        self.shards = x;
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        assert!(self.scale > 0.0, "--scale must be positive");
        assert!(self.shards > 0, "--shards must be positive");
    }

    /// A sub-seed derived from the base seed and a label (keeps independent
    /// experiments on independent RNG streams).
    pub fn sub_seed(&self, label: &str) -> u64 {
        let mut h = self.seed ^ 0x9e3779b97f4a7c15;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Writes a TSV artifact if an output directory is configured; returns
    /// the path written.
    pub fn write_tsv(&self, name: &str, content: &str) -> Option<PathBuf> {
        let dir = self.out_dir.as_ref()?;
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let path = dir.join(name);
        std::fs::write(&path, content).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_override_defaults() {
        let mut cfg = Config::default();
        let args: Vec<String> = [
            "prog",
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--threads",
            "2",
            "--out",
            "/tmp/x",
            "--shards",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cfg.apply_args(&args);
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(cfg.shards, 8);
    }

    #[test]
    fn unknown_flags_are_skipped() {
        let mut cfg = Config::default();
        let args: Vec<String> = ["prog", "--bogus", "--scale", "2.0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        cfg.apply_args(&args);
        assert_eq!(cfg.scale, 2.0);
    }

    #[test]
    fn sub_seeds_differ_by_label() {
        let cfg = Config::default();
        assert_ne!(cfg.sub_seed("a"), cfg.sub_seed("b"));
        assert_eq!(cfg.sub_seed("a"), cfg.sub_seed("a"));
    }

    #[test]
    fn write_tsv_respects_disabled_output() {
        let cfg = Config {
            out_dir: None,
            ..Default::default()
        };
        assert!(cfg.write_tsv("x.tsv", "a\n").is_none());
    }
}
