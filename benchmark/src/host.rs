//! The host's speed, timed by a fixed kernel that no engine change
//! touches.
//!
//! A shared 2-vCPU container, the reference machine, runs in speed
//! states that last minutes. In a slow one, a run's best latencies, its
//! set-up time and this kernel's best time rise together. Dividing a
//! run's times by the kernel's best over the same run takes the state
//! out; multiplying by [`REFERENCE`] keeps them in milliseconds and
//! seconds. README.md gives the measurements.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's best time on the reference machine (a 2-vCPU Intel Xeon
/// container) in its fast state. Scaled times are times on that machine.
pub const REFERENCE: Duration = Duration::from_micros(5_000);

/// Integers the kernel sorts: 2 MiB, more than a core's L2 cache.
const LEN: usize = 1 << 18;

/// The kernel: sort a copy of [`LEN`] pseudo-random integers into a
/// buffer allocated once, so the heap the engine leaves behind does
/// not touch it. Keeps its best time.
pub struct HostProbe {
    src: Vec<u64>,
    buf: Vec<u64>,
    best: Duration,
    samples: usize,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let src = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        HostProbe {
            src,
            buf: Vec::with_capacity(LEN),
            best: Duration::MAX,
            samples: 0,
        }
    }

    /// Runs the kernel once and says how long that took.
    pub fn sample(&mut self) -> Duration {
        let start = Instant::now();
        self.buf.clear();
        self.buf.extend_from_slice(black_box(&self.src));
        self.buf.sort_unstable();
        black_box(&self.buf);
        let elapsed = start.elapsed();
        self.best = self.best.min(elapsed);
        self.samples += 1;
        elapsed
    }

    /// The kernel's best time so far.
    pub fn best(&self) -> Duration {
        self.best
    }

    /// How many times the kernel ran.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The factor that turns a time measured on this host, in its state
    /// during the samples, into a time on the reference machine.
    pub fn scale(&self) -> f64 {
        REFERENCE.as_secs_f64() / self.best.as_secs_f64()
    }
}
