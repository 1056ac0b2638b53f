//! The host-speed reference: a fixed pointer chase, run in short slices
//! on the workload's own thread between chunks of its work.
//!
//! On a shared host the core the benchmark runs on is slowed, for
//! seconds to minutes at a time, by other tenants' load on that core and
//! on the caches: on one 2-CPU host a `rack_backlog` repeat ran at 17 to
//! 33 tasks/s within ten minutes, and the median of 10 runs' throughput
//! spread 40–60% (IQR ÷ median). A slice timed right after each chunk
//! slows with the chunk: scaling each chunk by its slice cut the
//! run-to-run variation of the same seed from 8–12% to 4–5% (coefficient
//! of variation, 6 runs each of `rack_backlog` and `hetero_faults`). The
//! same chase on a second thread did not track the workload at all, so
//! the slowing is the core's own and the slice must share it. The
//! tracking is not exact: when the host ran twice as fast as in its slow
//! spells, the scaled throughput still read 5–15% higher, as the chase
//! cannot get faster than memory latency allows.
//!
//! The chase and its table are the benchmark's own, so no change to the
//! simulator speeds them up or slows them down, except through what the
//! simulator leaves in the shared last-level cache.

use std::time::Instant;

/// 64 MB of table: about a rack workload's own footprint, far past the
/// core's private caches.
const TABLE: usize = 1 << 23;
/// Dependent loads per slice: 50–110 µs on the host it was sized on.
const LOADS: usize = 2048;
/// The slice time, in seconds, that a reference second assumes: about
/// the slice's median in that host's slow spells, so reference and host
/// seconds read alike there.
pub const NOMINAL_S: f64 = 100e-6;

pub struct Reference {
    table: Vec<u64>,
    x: u64,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            x: 0x1234_5678,
        }
    }

    /// Runs one slice and returns its host seconds.
    pub fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.x;
        for _ in 0..LOADS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x ^ self.table[x as usize & (TABLE - 1)]) as usize & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.x = std::hint::black_box(x);
        t0.elapsed().as_secs_f64()
    }
}
