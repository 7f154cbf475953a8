//! Summary statistics and the process/machine probes every result is
//! reported beside.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Percentile `q ∈ [0, 1]` of whole-nanosecond samples, reading each
/// sample `v` as spread evenly over `[v − ½, v + ½)`: the result
/// interpolates inside the 1 ns bin the percentile falls in, so a latency
/// that sits on a few integer values still moves continuously with its
/// distribution. `None` for no samples.
pub fn percentile(samples: &[u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let target = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let idx = (target as usize).min(sorted.len() - 1);
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - below;
    Some(v as f64 - 0.5 + (target - below as f64) / ties as f64)
}

/// Median of floating-point samples (mean of the middle pair for even
/// counts); `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `NaN` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nanoseconds in `d`, saturating at `u64::MAX`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// CPU seconds (user + system, all threads) this process has used so far,
/// from `/proc/self/stat`. Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux target this benchmark runs on.
    (tick(11) + tick(12)) as f64 / 100.0
}

extern "C" {
    /// glibc: returns free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resident set size in bytes after handing free heap back to the
/// kernel, so the figure counts live allocations, not how much freed
/// memory the allocator happened to keep.
pub fn live_rss_bytes() -> u64 {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator already holds as free; glibc allows it from any thread at
    // any time.
    unsafe {
        malloc_trim(0);
    }
    rss_bytes()
}

/// Resident set size of this process in bytes (`VmRSS`).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// What the machine can show: the logical CPU count, and how much of a
/// second core a second spinning thread actually gets.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Work done by two spinning threads ÷ twice the work of one: 1.0 on
    /// two real cores, 0.5 when both share one core's quota.
    pub spin_efficiency: f64,
}

impl Machine {
    /// Runs the spin probe: three rounds of one thread then two threads
    /// spinning 100 ms each, reporting the median round (about 0.6 s).
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let window = Duration::from_millis(100);
        let rounds: Vec<f64> = (0..3)
            .map(|_| {
                let one = spin_threads(1, window);
                spin_threads(2, window) / (2.0 * one)
            })
            .collect();
        Machine {
            nproc,
            spin_efficiency: median(&rounds),
        }
    }
}

/// Total spin iterations `threads` threads complete in `window`.
fn spin_threads(threads: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut iters = 0u64;
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                // ordering: Relaxed — a stop flag; the count is summed after
                // the scope joins every thread.
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..4096 {
                        x = black_box(x.rotate_left(5) ^ 0x2545_F491_4F6C_DD1D);
                    }
                    iters += 4096;
                }
                // ordering: Relaxed — read only after the scope joins.
                total.fetch_add(iters, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        // ordering: Relaxed — see the spinning threads.
        stop.store(true, Ordering::Relaxed);
    });
    // ordering: Relaxed — every writer was joined by the scope.
    total.load(Ordering::Relaxed) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_inside_the_nanosecond_bin() {
        let xs = [5u64, 1, 4, 2, 3];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 0.0), Some(0.5));
        assert_eq!(percentile(&xs, 1.0), Some(5.5));
        // Ten samples at 7 ns: the median sits mid-bin, p90 near its top.
        let ties = [7u64; 10];
        assert_eq!(percentile(&ties, 0.5), Some(7.0));
        assert_eq!(percentile(&ties, 0.9), Some(7.4));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
