//! The machine's speed, measured beside the checks so that the
//! reported times can be scaled to a fixed speed.
//!
//! The virtual machines this benchmark runs on share their cores with
//! other guests, and their speed shifts by a fifth or more between
//! runs and within one: a fixed loop took 0.23 s in one slice and
//! 0.37 s in another, a busy loop on the other vCPU slowed a check by
//! 10-16%, and in five-run trials of the single-threaded `pdr-suite`
//! with the same code every time metric spread 15-39%. Process CPU
//! time moved as much as wall time (the slowdown is slower cycles, not
//! time stolen from the guest), and the machine has no cycle or
//! instruction counters, so no clock removes it.
//!
//! So the client also times a fixed reference [`kernel`], code of the
//! benchmark's own that no change to the verifier touches, once before
//! the first set-up or pass and again after each, and every reported
//! time is scaled by `REFERENCE_MS / t`, with `t` the median kernel
//! time around that set-up or pass: the time it would have taken at
//! the speed at which the kernel takes [`REFERENCE_MS`]. The kernel
//! allocates, reads back and frees many small objects on the client
//! thread's heap, as the front end, the blaster and the engines do;
//! of the kernels tried (pointer chasing in and beyond the L2 cache,
//! plain arithmetic, allocation), only this one followed the set-up's
//! speed from one process to the next.

use crate::rng::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel's time, in milliseconds, at the speed every time is
/// scaled to. On the 2-vCPU Xeon virtual machine the baseline was taken
/// on, a run's median kernel time ranged 0.68–1.19 ms.
pub const REFERENCE_MS: f64 = 1.0;

/// Kernel runs per [`Speed::sample`].
const RUNS_PER_SAMPLE: usize = 5;

/// One run of the reference kernel: build many small vectors, like a
/// clause database, read them back in a random order, bucket keys in a
/// hash map, and free it all. Returns a value that depends on all of
/// its work, so the optimiser cannot drop any of it.
pub fn kernel() -> u64 {
    let mut rng = Rng::new(0x5EED, 0);
    let clauses: Vec<Vec<u32>> = (0..4096)
        .map(|_| {
            (0..2 + rng.below(7))
                .map(|_| rng.next_u64() as u32)
                .collect()
        })
        .collect();
    let mut lits = 0u64;
    for _ in 0..clauses.len() {
        let c = &clauses[rng.below(clauses.len())];
        lits += c.iter().map(|&l| u64::from(l)).sum::<u64>();
    }
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..8192 {
        buckets.entry(rng.next_u64() % 1021).or_default().push(i);
    }
    lits ^ buckets.values().map(|b| b.len() as u64).sum::<u64>()
}

/// Kernel times collected over a run: one sample of
/// [`RUNS_PER_SAMPLE`] runs before the first piece of measured work
/// and one after each, so piece `i` lies between samples `i` and
/// `i + 1`.
pub struct Speed {
    threads: usize,
    samples: Vec<Vec<f64>>,
}

impl Speed {
    /// Speed as seen by `threads` threads at once: as many as the
    /// measured work keeps busy, so that a slow core the work runs on
    /// slows the kernel too.
    pub fn new(threads: usize) -> Speed {
        Speed {
            threads,
            samples: Vec::new(),
        }
    }

    /// Time [`RUNS_PER_SAMPLE`] kernel runs on each thread, in
    /// milliseconds.
    pub fn sample(&mut self) {
        let runs = || -> Vec<f64> {
            (0..RUNS_PER_SAMPLE)
                .map(|_| time_kernel().as_secs_f64() * 1e3)
                .collect()
        };
        let mut times = Vec::new();
        std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads).map(|_| s.spawn(runs)).collect();
            times.extend(runs());
            for h in others {
                times.extend(h.join().expect("the kernel does not panic"));
            }
        });
        self.samples.push(times);
    }

    /// Median kernel time over the whole run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(self.samples.iter().flatten())
    }

    /// The factor that turns a time measured in piece `i` into one at
    /// the reference speed, from the kernel runs just before and just
    /// after it, so a shift of the host's speed within the run is
    /// followed.
    pub fn scale(&self, i: usize) -> f64 {
        REFERENCE_MS / median(self.samples[i].iter().chain(&self.samples[i + 1]))
    }
}

fn median<'a>(ms: impl Iterator<Item = &'a f64>) -> f64 {
    crate::stats::median(&crate::stats::sorted(ms.copied().collect()))
}

fn time_kernel() -> Duration {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_sample_times_the_kernel_on_every_thread() {
        let mut speed = Speed::new(2);
        speed.sample();
        speed.sample();
        assert_eq!(speed.samples.len(), 2);
        assert!(speed.samples.iter().all(|s| s.len() == 2 * RUNS_PER_SAMPLE));
        assert!(speed.scale(0) > 0.0);
    }

    #[test]
    fn scale_is_reference_over_the_neighbouring_median() {
        let speed = Speed {
            threads: 1,
            samples: vec![vec![3.6, 3.6, 3.6], vec![3.6, 100.0, 1.8], vec![0.9; 3]],
        };
        assert_eq!(speed.median_ms(), 3.6);
        // Piece 0 sees 1.8, 3.6 (four times) and 100: the median is 3.6.
        assert!((speed.scale(0) - REFERENCE_MS / 3.6).abs() < 1e-12);
        // Piece 1 sees 0.9 (three times), 1.8, 3.6 and 100: the
        // nearest-rank median (third of six) is 0.9.
        assert!((speed.scale(1) - REFERENCE_MS / 0.9).abs() < 1e-12);
    }
}
