//! The three serve workloads and one measured pass of a workload: build a
//! `ServeEngine`, push the stream through `push_batch` while one reader
//! thread polls the published epochs, finish, and query.
//!
//! Load generation is one producer (this thread) plus one reader thread;
//! the system under test adds its S = 2 shard workers and, in
//! `paced-serve`, the scrape listener.

use crate::measure::{cpu_seconds, live_rss_bytes, ns};
use gps_core::{TriadEstimates, TriangleWeight};
use gps_engine::FaultPlan;
use gps_graph::Edge;
use gps_serve::{
    EpochSubscription, EpochTrace, EstimateEpoch, QueryHandle, ServeConfig, ServeEngine,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shard workers `S`.
pub const SHARDS: usize = 2;
/// Edges per `push_batch` call.
pub const BATCH: usize = 1024;
/// Engine seed; the workload seed only shapes the input stream.
pub const ENGINE_SEED: u64 = 42;
/// Per-shard arrivals between recovery checkpoints, where a workload
/// checkpoints (and the replay's checkpoint positions everywhere).
pub const CHECKPOINT_EVERY: u64 = 65_536;
/// The scripted crash site: shard 1 panics at its 2,000,000th arrival.
pub const CRASH: (usize, u64) = (1, 2_000_000);
/// Reader poll period for `QueryHandle::latest()`.
const POLL: Duration = Duration::from_micros(100);
/// How often a traced reader copies the flight recorder; at the fastest
/// epoch rate (~3 per ms) 5 ms stays well inside its 64-trace window.
const TRACE_COPY: Duration = Duration::from_millis(5);
/// Scrape GETs and `telemetry()` calls a traced pass times after finish.
const PROBE_CALLS: usize = 32;
/// `estimate()` calls timed per pass, at least.
const QUERIES: usize = 3;
/// Time per pass spent repeating `estimate()` beyond `QUERIES` calls.
const QUERY_BUDGET: Duration = Duration::from_millis(100);

/// One benchmark workload. All share the stream, `S`, the batch size,
/// and the triangle weight; they differ in what the engine and reader do.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Total reservoir budget `m`.
    pub capacity: usize,
    /// `EngineConfig::checkpoint_every` (0 = off).
    pub checkpoint_every: u64,
    /// Scripted `FaultPlan::panic_at(shard, arrival)`.
    pub crash: Option<(usize, u64)>,
    /// Open-loop rate in edges/s; `None` pushes as fast as backpressure
    /// allows (closed loop).
    pub rate: Option<f64>,
    /// Subscriptions the reader drains with `try_recv` on every poll.
    pub subscriptions: usize,
    /// `GET /metrics` period against the scrape endpoint.
    pub scrape_every: Option<Duration>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk-ingest",
        capacity: 200_000,
        checkpoint_every: 0,
        crash: None,
        rate: None,
        subscriptions: 0,
        scrape_every: None,
    },
    Workload {
        name: "checkpointed-ingest",
        capacity: 200_000,
        checkpoint_every: CHECKPOINT_EVERY,
        crash: Some(CRASH),
        rate: None,
        subscriptions: 0,
        scrape_every: None,
    },
    Workload {
        name: "paced-serve",
        capacity: 32_000,
        checkpoint_every: 0,
        crash: None,
        rate: Some(2_000_000.0),
        subscriptions: 8,
        scrape_every: Some(Duration::from_millis(100)),
    },
];

/// A `(start, duration)` span in ns since the pass's clock origin.
pub type Span = (u64, u64);

/// What the reader thread saw.
#[derive(Default)]
pub struct ReaderLog {
    /// Duration of every `latest()` call.
    pub read_ns: Vec<u64>,
    /// Start of every `latest()` call (traced passes only).
    pub read_at: Vec<u64>,
    /// Per new epoch version: first observation minus the due time of the
    /// batch that carried its `edges_seen`-th arrival.
    pub fresh_ns: Vec<u64>,
    /// `latest()` calls that returned `None` after an epoch was seen.
    pub none_after_first: u64,
    pub last_version: u64,
    pub recvs: u64,
    /// `try_recv` spans (traced passes only).
    pub recv: Vec<Span>,
    pub scrapes: u64,
    pub scrape_failures: u64,
    /// Scrape GET round trips.
    pub scrape: Vec<Span>,
    /// Flight-recorder copies by epoch version (traced passes only).
    pub traces: BTreeMap<u64, EpochTrace>,
}

/// Everything one pass measured.
pub struct Pass {
    pub traced: bool,
    pub setup_s: f64,
    pub pushed: u64,
    /// First push until `finish()` returned.
    pub ingest_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Per batch: `push_batch` return minus the batch's due time.
    pub late_ns: Vec<u64>,
    /// `push_batch` spans (traced passes only).
    pub push: Vec<Span>,
    pub finish_s: f64,
    /// `ServeEngine::estimate()` durations.
    pub query_s: Vec<f64>,
    /// Live resident set after `finish()` minus before the engine was built.
    pub mem_bytes: u64,
    pub reader: ReaderLog,
    pub final_epoch: EstimateEpoch,
    pub in_stream: TriadEstimates,
    pub degraded: bool,
    pub lost: u64,
    pub shard_arrivals: Vec<u64>,
    /// Traced passes: telemetry counters and gauges read after finish.
    pub counters: BTreeMap<&'static str, u64>,
    /// Traced passes: `ServeEngine::telemetry()` durations.
    pub snapshot_ns: Vec<u64>,
}

/// Telemetry the traced pass reads after finish.
pub const TELEMETRY: [&str; 6] = [
    "gps_engine_checkpoints_total",
    "gps_engine_checkpoint_bytes_total",
    "gps_engine_restarts_total",
    "gps_engine_lost_arrivals_total",
    "gps_serve_epochs_published_total",
    "gps_engine_queue_depth_highwater",
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    fn build(&self) -> ServeEngine<TriangleWeight> {
        let mut cfg = ServeConfig::new(self.capacity, SHARDS, ENGINE_SEED);
        cfg.engine.checkpoint_every = self.checkpoint_every;
        match self.crash {
            Some((shard, at)) => ServeEngine::with_config_and_faults(
                cfg,
                TriangleWeight::default(),
                FaultPlan::new().panic_at(shard, at),
            ),
            None => ServeEngine::with_config(cfg, TriangleWeight::default()),
        }
    }

    /// Builds an engine; returns it, its handle, and the seconds the
    /// construction took (workers spawned, channels open: the first push
    /// can go). Before returning it also waits for the launch epoch both
    /// workers publish, so every pass starts from the same state; that
    /// wait is a cross-thread wake-up, not set-up work, and is not timed.
    fn set_up(&self) -> (ServeEngine<TriangleWeight>, QueryHandle, f64) {
        let start = Instant::now();
        let serve = self.build();
        let setup_s = start.elapsed().as_secs_f64();
        let handle = serve.handle();
        handle
            .wait_for_edges(0)
            .expect("workers publish a launch epoch");
        (serve, handle, setup_s)
    }

    /// Set-up time of an engine that is finished again at once.
    pub fn setup_probe(&self) -> f64 {
        let (mut serve, _, setup_s) = self.set_up();
        serve.finish();
        setup_s
    }

    /// One full pass over `stream`, bracketed by live resident-set
    /// readings (which hand freed heap back to the kernel, so every pass
    /// starts from the same cold heap).
    pub fn run_pass(&self, stream: &[Edge], traced: bool) -> Pass {
        let rss_before = live_rss_bytes();
        let (mut serve, handle, setup_s) = self.set_up();
        let scrape = self.scrape_every.map(|every| {
            let addr = serve
                .start_scrape("127.0.0.1:0")
                .expect("loopback scrape endpoint binds");
            (addr, every)
        });
        let subs: Vec<EpochSubscription> = (0..self.subscriptions)
            .map(|_| handle.subscribe().expect("engine is live"))
            .collect();
        // A traced closed-loop pass keeps one undrained subscription so that
        // `try_recv` has queued epochs to time after finish.
        let mut probe_sub = (traced && self.subscriptions == 0)
            .then(|| handle.subscribe())
            .flatten();
        let batches = stream.len().div_ceil(BATCH);
        // Due time (ns since `origin`, plus one so 0 means "not yet due").
        let due: Vec<AtomicU64> = (0..batches).map(|_| AtomicU64::new(0)).collect();
        let origin = Instant::now();
        let mut late_ns = Vec::with_capacity(batches);
        let mut push = Vec::new();

        let (reader, ingest_s, finish_s, cpu_s) = std::thread::scope(|s| {
            let (handle, due) = (&handle, &due);
            let reader = s.spawn(move || read_loop(handle, subs, scrape, due, origin, traced));
            let cpu0 = cpu_seconds();
            let start = Instant::now();
            for (i, chunk) in stream.chunks(BATCH).enumerate() {
                let due_at = match self.rate {
                    Some(rate) => {
                        let at = start + Duration::from_secs_f64((i * BATCH) as f64 / rate);
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        at
                    }
                    None => Instant::now(),
                };
                // ordering: Relaxed — the reader only dereferences a batch
                // whose arrivals an epoch already reports, and that epoch
                // reached it through the engine's channels and the board's
                // seqlock, which this store is sequenced before.
                due[i].store(ns(due_at - origin) + 1, Ordering::Relaxed);
                let call = Instant::now();
                serve.push_batch(chunk);
                let done = Instant::now();
                late_ns.push(ns(done.saturating_duration_since(due_at)));
                if traced {
                    push.push((ns(call - origin), ns(done - call)));
                }
            }
            let finish_start = Instant::now();
            serve.finish();
            let end = Instant::now();
            let cpu_s = cpu_seconds() - cpu0;
            let reader = reader.join().expect("reader thread panicked");
            (
                reader,
                (end - start).as_secs_f64(),
                (end - finish_start).as_secs_f64(),
                cpu_s,
            )
        });
        let mem_bytes = live_rss_bytes().saturating_sub(rss_before);

        // `estimate()` recomputes from the retained samples on every call,
        // so one pass yields many query timings: at least `QUERIES`, and
        // as many more as fit in `QUERY_BUDGET`.
        let mut query_s = Vec::new();
        let queries = Instant::now();
        while query_s.len() < QUERIES || queries.elapsed() < QUERY_BUDGET {
            let query = Instant::now();
            std::hint::black_box(serve.estimate());
            query_s.push(query.elapsed().as_secs_f64());
        }
        let in_stream = serve.estimate_in_stream();
        let final_epoch = handle.latest().expect("finish publishes a final epoch");

        let mut pass = Pass {
            traced,
            setup_s,
            pushed: serve.pushed(),
            ingest_s,
            cpu_s,
            late_ns,
            push,
            finish_s,
            query_s,
            mem_bytes,
            reader,
            final_epoch,
            in_stream,
            degraded: serve.health().degraded(),
            lost: serve.health().lost_arrivals,
            shard_arrivals: serve
                .engine()
                .samplers()
                .iter()
                .map(|s| s.arrivals())
                .collect(),
            counters: BTreeMap::new(),
            snapshot_ns: Vec::new(),
        };
        if traced {
            copy_traces(&handle, &mut pass.reader.traces);
            if let Some(sub) = probe_sub.as_mut() {
                drain(sub, origin, true, &mut pass.reader);
            }
            if self.scrape_every.is_none() {
                let addr = serve
                    .start_scrape("127.0.0.1:0")
                    .expect("loopback scrape endpoint binds");
                for _ in 0..PROBE_CALLS {
                    scrape_once(addr, origin, &mut pass.reader);
                }
            }
            for _ in 0..PROBE_CALLS {
                let t = Instant::now();
                std::hint::black_box(serve.telemetry());
                pass.snapshot_ns.push(ns(t.elapsed()));
            }
            let snap = serve.telemetry();
            for name in TELEMETRY {
                if let Some(v) = snap.counter_value(name).or_else(|| snap.gauge_value(name)) {
                    pass.counters.insert(name, v);
                }
            }
        }
        pass
    }
}

/// The reader thread: polls `latest()` every `POLL`, drains the
/// subscriptions, scrapes on its period, and stops once the board is
/// closed (never on the watermark: lost arrivals keep it below `pushed`).
fn read_loop(
    handle: &QueryHandle,
    mut subs: Vec<EpochSubscription>,
    scrape: Option<(SocketAddr, Duration)>,
    due: &[AtomicU64],
    origin: Instant,
    traced: bool,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut next_poll = Instant::now();
    let mut next_scrape = scrape.map(|(_, every)| next_poll + every);
    let mut next_copy = next_poll;
    loop {
        let closed = handle.is_closed();
        let call = Instant::now();
        let epoch = handle.latest();
        let seen = Instant::now();
        log.read_ns.push(ns(seen - call));
        if traced {
            log.read_at.push(ns(call - origin));
        }
        match epoch {
            None if log.last_version > 0 => log.none_after_first += 1,
            Some(e) if e.version > log.last_version => {
                log.last_version = e.version;
                if e.edges_seen > 0 {
                    let batch =
                        usize::try_from((e.edges_seen - 1) / BATCH as u64).unwrap_or(usize::MAX);
                    // ordering: Relaxed — see the producer's store.
                    let due_ns = due.get(batch).map_or(0, |d| d.load(Ordering::Relaxed));
                    if due_ns > 0 {
                        log.fresh_ns
                            .push(ns(seen - origin).saturating_sub(due_ns - 1));
                    }
                }
            }
            _ => {}
        }
        for sub in &mut subs {
            drain(sub, origin, traced, &mut log);
        }
        let now = Instant::now();
        if let (Some((addr, every)), Some(at)) = (scrape, next_scrape.as_mut()) {
            if now >= *at {
                scrape_once(addr, origin, &mut log);
                *at += every;
            }
        }
        if traced && now >= next_copy {
            copy_traces(handle, &mut log.traces);
            next_copy = now + TRACE_COPY;
        }
        if closed {
            return log;
        }
        next_poll += POLL;
        let now = Instant::now();
        if next_poll > now {
            std::thread::sleep(next_poll - now);
        } else {
            next_poll = now;
        }
    }
}

/// `try_recv` until the subscription has nothing queued.
fn drain(sub: &mut EpochSubscription, origin: Instant, traced: bool, log: &mut ReaderLog) {
    loop {
        let t = Instant::now();
        let got = sub.try_recv();
        if traced {
            log.recv.push((ns(t - origin), ns(t.elapsed())));
        }
        log.recvs += 1;
        if got.is_none() {
            return;
        }
    }
}

/// One `GET /metrics` round trip on a fresh loopback connection (the
/// endpoint closes every connection after its response).
fn scrape_once(addr: SocketAddr, origin: Instant, log: &mut ReaderLog) {
    let t = Instant::now();
    let ok = (|| -> std::io::Result<bool> {
        let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        conn.set_read_timeout(Some(Duration::from_secs(2)))?;
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
        let mut body = Vec::new();
        conn.read_to_end(&mut body)?;
        let text = String::from_utf8_lossy(&body);
        Ok(text.starts_with("HTTP/1.1 200") && text.contains("gps_engine_arrivals_total"))
    })()
    .unwrap_or(false);
    log.scrape.push((ns(t - origin), ns(t.elapsed())));
    log.scrapes += 1;
    if !ok {
        log.scrape_failures += 1;
    }
}

/// Copies the flight recorder, keeping for each version the copy that
/// carries its first observation.
fn copy_traces(handle: &QueryHandle, into: &mut BTreeMap<u64, EpochTrace>) {
    for trace in handle.recent_traces(64) {
        let settled = into
            .get(&trace.version)
            .is_some_and(|t| t.first_observed_ns.is_some());
        if !settled {
            into.insert(trace.version, trace);
        }
    }
}
