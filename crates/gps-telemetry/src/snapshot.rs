//! [`TelemetrySnapshot`]: the immutable capture of a [`crate::Registry`],
//! with the stable-subset filter, text exposition, and a
//! fingerprint for reproducibility pinning.

use crate::metric::{bucket_upper_bound, Stability, BUCKETS};
use crate::ring::Event;
use std::fmt::Write as _;

/// One counter at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Registered metric name.
    pub name: String,
    /// Determinism class declared at registration.
    pub stability: Stability,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Registered metric name.
    pub name: String,
    /// Determinism class declared at registration.
    pub stability: Stability,
    /// Level at snapshot time.
    pub value: u64,
}

/// One histogram at snapshot time — a consistent `(count, sum, buckets)`
/// triple copied under the seqlock read protocol, so
/// `buckets.iter().sum() == count` always holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Registered metric name.
    pub name: String,
    /// Determinism class declared at registration.
    pub stability: Stability,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Per-bucket sample counts (see [`crate::bucket_of`]).
    pub buckets: [u64; BUCKETS],
}

/// An immutable capture of a registry: metrics sorted by name, the
/// retained event window, and the event-loss count.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events dropped because the ring was full.
    pub events_lost: u64,
}

impl TelemetrySnapshot {
    /// The deterministic subset: only [`Stability::Stable`] metrics, no
    /// events. In a threaded engine the event ring interleaves shard
    /// threads nondeterministically (and timing-class gauges measure
    /// scheduling), so reproducibility suites pin `stable()` — equal
    /// bit-for-bit across same-seed runs. Single-threaded producers
    /// (gps-sim) can pin the full snapshot instead.
    pub fn stable(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .filter(|c| c.stability == Stability::Stable)
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|g| g.stability == Stability::Stable)
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|h| h.stability == Stability::Stable)
                .cloned()
                .collect(),
            events: Vec::new(),
            events_lost: 0,
        }
    }

    /// Look up a counter's value by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge's level by name.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Look up a histogram sample by name.
    pub fn histogram_sample(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus-style text exposition.
    ///
    /// Histograms emit cumulative `_bucket{le="…"}` lines only at
    /// occupied buckets (plus the mandatory `+Inf`), `le` being the
    /// bucket's inclusive upper bound. Events are emitted as trailing
    /// `# event` comment lines, and the loss count as a real counter
    /// (`gps_telemetry_events_lost_total`) so scrapers see it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            let _ = writeln!(out, "{} {}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            let _ = writeln!(out, "{} {}", g.name, g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let mut cumulative = 0u64;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{}_bucket{{le=\"{}\"}} {}",
                    h.name,
                    bucket_upper_bound(b),
                    cumulative
                );
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
        }
        let _ = writeln!(out, "# TYPE gps_telemetry_events_lost_total counter");
        let _ = writeln!(out, "gps_telemetry_events_lost_total {}", self.events_lost);
        for e in &self.events {
            let shard = match e.shard {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            };
            let epoch = match e.epoch {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "# event at={} kind={} shard={} epoch={} detail={}",
                e.at,
                e.kind.as_str(),
                shard,
                epoch,
                e.detail
            );
        }
        out
    }

    /// FNV-1a hash of the text exposition — a stable 64-bit digest for
    /// reproducibility suites (`a.stable().fingerprint() ==
    /// b.stable().fingerprint()` pins the deterministic subset without
    /// storing the full rendering).
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_text().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use crate::metric::Stability;
    use crate::registry::Registry;
    use crate::ring::{Event, EventKind};

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("gps_demo_arrivals_total", Stability::Stable)
            .add(10);
        reg.counter("gps_demo_drops_total", Stability::Timing)
            .add(2);
        reg.gauge("gps_demo_depth", Stability::Timing).set(5);
        let h = reg.histogram("gps_demo_latency_ns", Stability::Stable);
        h.record(0);
        h.record(3);
        h.record(3);
        reg.event(Event {
            at: 7,
            kind: EventKind::DegradedEpoch,
            shard: None,
            epoch: Some(3),
            detail: 1,
        });
        reg
    }

    #[test]
    fn text_exposition_shape() {
        let text = sample_registry().snapshot().to_text();
        assert!(text.contains("# TYPE gps_demo_arrivals_total counter"));
        assert!(text.contains("gps_demo_arrivals_total 10"));
        assert!(text.contains("# TYPE gps_demo_depth gauge"));
        // 0 lands in bucket 0 (le="0"), the two 3s in bucket 2 (le="3");
        // cumulative counts: 1 then 3.
        assert!(text.contains("gps_demo_latency_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("gps_demo_latency_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("gps_demo_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("gps_demo_latency_ns_sum 6"));
        assert!(text.contains("gps_demo_latency_ns_count 3"));
        assert!(text.contains("gps_telemetry_events_lost_total 0"));
        assert!(text.contains("# event at=7 kind=degraded_epoch shard=- epoch=3 detail=1"));
    }

    #[test]
    fn stable_filters_timing_and_events() {
        let snap = sample_registry().snapshot();
        let stable = snap.stable();
        assert_eq!(stable.counters.len(), 1);
        assert_eq!(stable.counters[0].name, "gps_demo_arrivals_total");
        assert!(stable.gauges.is_empty());
        assert_eq!(stable.histograms.len(), 1);
        assert!(stable.events.is_empty());
        // Lookup helpers resolve on both views.
        assert_eq!(snap.counter_value("gps_demo_drops_total"), Some(2));
        assert_eq!(stable.counter_value("gps_demo_drops_total"), None);
        assert_eq!(snap.gauge_value("gps_demo_depth"), Some(5));
        assert_eq!(
            stable
                .histogram_sample("gps_demo_latency_ns")
                .map(|h| h.count),
            Some(3)
        );
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let reg = sample_registry();
        reg.counter("gps_demo_arrivals_total", Stability::Stable)
            .incr();
        assert_ne!(reg.snapshot().fingerprint(), a.fingerprint());
    }
}
