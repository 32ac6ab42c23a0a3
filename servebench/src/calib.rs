//! Host speed reference.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent from one second to the next, mostly because neighbours load
//! the shared caches and memory. Each repetition times a fixed reference
//! loop right before and right after its serving call; the loop is built
//! from `std` alone (no repository crate), so a change to the program
//! cannot move it. The serving path feels such a slowdown less than the
//! reference loop does (see [`correction`]), so wall-clock metrics are
//! divided by a damped host speed: they read as if the host had run at
//! its reference speed throughout.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference-loop iterations per second that define speed 1.0: a round
/// figure near the loop's median rate on a 2-vCPU Xeon host.
pub const REFERENCE_RATE: f64 = 9_000_000.0;

/// Table the loop reads and writes at random: a few MiB, so the
/// reference feels cache and memory contention as the program does.
const TABLE_WORDS: usize = 1 << 19;

/// Iterations between clock reads.
const CHUNK: u64 = 1024;

/// Reference-loop iterations per second over a window of `window`:
/// random table reads and writes, SipHash over a small buffer and
/// ordered-map inserts and removals (allocation), in a fixed mix.
#[must_use]
pub fn rate(window: Duration) -> f64 {
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    let mut iterations = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..CHUNK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (TABLE_WORDS - 1);
            acc = acc.rotate_left(5) ^ table[slot];
            table[slot] = acc.wrapping_add(x);
            let mut h = DefaultHasher::new();
            h.write_u64(acc);
            h.write_u64(x);
            acc ^= h.finish();
            if x & 7 == 0 {
                map.insert(x >> 40, acc);
                if map.len() > 4096 {
                    map.pop_first();
                }
            }
        }
        iterations += CHUNK;
        let elapsed = start.elapsed();
        if elapsed >= window {
            black_box((acc, map.len()));
            return iterations as f64 / elapsed.as_secs_f64();
        }
    }
}

/// The host's speed relative to [`REFERENCE_RATE`] from two reference
/// rates taken around one measured interval (their geometric mean).
#[must_use]
pub fn speed(before: f64, after: f64) -> f64 {
    (before * after).sqrt() / REFERENCE_RATE
}

/// The factor a repetition's wall-clock rates are divided by (and its
/// times multiplied by): the square root of its host speed, 1.0 when no
/// speed was measured. Across repetitions on a 2-vCPU Xeon host, the
/// log of each workload's serving throughput moved with the log of the
/// reference speed at a slope of 0.4 to 0.5 (correlation 0.6 to 0.8):
/// the serving path waits on memory for a smaller share of its time
/// than the reference loop, so it feels about half its slowdown.
#[must_use]
pub fn correction(speed: f64) -> f64 {
    if speed.is_finite() && speed > 0.0 {
        speed.sqrt()
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_positive_and_speed_is_the_geometric_mean() {
        let r = rate(Duration::from_millis(20));
        assert!(r > 0.0 && r.is_finite());
        let s = speed(REFERENCE_RATE / 2.0, REFERENCE_RATE * 2.0);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correction_is_the_damped_speed() {
        assert!((correction(0.81) - 0.9).abs() < 1e-12);
        assert_eq!(correction(1.0), 1.0);
        // No measurement: no correction.
        assert_eq!(correction(0.0), 1.0);
        assert_eq!(correction(f64::NAN), 1.0);
    }
}
