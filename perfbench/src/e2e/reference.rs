//! A fixed computation timed between the reps, so a rep's wall time can be
//! read in units of how fast the machine ran at that moment.
//!
//! On a shared host the machine's speed drifts. On a 2-vCPU VM the same
//! rep's wall time moved by up to ±25% within minutes, its CPU time moving
//! with it, so neither more reps nor a longer run averages it out. Dividing
//! each rep's wall time by the mean of the reference times taken just
//! before and after it cancels much of the drift. Over ten seeds in a
//! noisy hour, the interquartile spread of the per-run medians fell from
//! 0.19 to 0.05 of the median on `table2-hid` and from 0.14 to 0.07 on
//! `tall`; in quiet hours both forms spread 0.04–0.12.
//!
//! The computation is benchmark code, never the program's, so a change to
//! the program cannot move it. It runs on two threads like the pair
//! fan-out and `--threads 2`, and does what the search's inner loops do:
//! hash, allocate, sort and compare short strings.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Reference runs are spaced at least this far apart, so short reps do not
/// spend most of a run on them.
pub const EVERY: Duration = Duration::from_secs(2);

/// Items each thread processes; about 0.3 s on the VM above, long enough
/// that the reference's own jitter stays small.
const ITEMS: u64 = 3_000_000;

/// Wall time of one reference run, in seconds.
pub fn run() -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for thread in 0..2 {
            s.spawn(move || std::hint::black_box(work(thread)));
        }
    });
    started.elapsed().as_secs_f64()
}

/// One thread's share: a checksum, so the work cannot be optimized away.
fn work(thread: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ thread;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut values = Vec::with_capacity(ITEMS as usize);
    let mut words = Vec::new();
    for i in 0..ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(x % 100_000).or_default() += i;
        values.push(x);
        if i % 8 == 0 {
            words.push(format!("v{}", x % 10_000));
        }
    }
    values.sort_unstable();
    words.sort();
    words.dedup();
    counts.len() as u64 ^ values[values.len() / 2] ^ words.len() as u64
}
