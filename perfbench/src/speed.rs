//! Host speed: a fixed reference kernel timed next to the measured work,
//! so CPU times can be scaled to one reference speed.
//!
//! On a shared virtual host the CPU time of the same work swings by
//! ±10–35 % over a few seconds as other guests load the physical cores
//! and caches; the hypervisor's steal accounting does not see it. The
//! kernel — a shortest-path search on a grid graph, the router's
//! wavefront pattern — is the benchmark's own code, so no change to the
//! program moves it: a change in its CPU time is the host's. A CPU time
//! `t` measured while the kernel took `k` seconds per call is reported as
//! `t × REFERENCE_S ÷ k`, the time on a host where the kernel takes
//! [`REFERENCE_S`]. Alternating set-ups with kernel samples showed a
//! correlation of 0.83 between the two and halved the set-up time's
//! interquartile range. In a timed phase the job threads are bound to
//! CPUs, one probe thread samples each of those CPUs, and a job is
//! scaled by its own CPU's samples ([`Samples::kernel_on`]).

use crate::cpu;
use crate::stats::median;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Side of the kernel's grid graph.
const GRID: usize = 96;
/// CPU seconds of one kernel call at the reference speed (about its
/// median on a quiet 2-vCPU Xeon host).
pub const REFERENCE_S: f64 = 0.0008;
/// Kernel calls per probe-thread sample (4 ms of every 100 ms on one
/// CPU at the reference speed).
const PROBE_CALLS: usize = 5;
/// Kernel calls per sample around a set-up.
const BRACKET_CALLS: usize = 20;
/// Pause between the probe thread's samples.
const PERIOD: Duration = Duration::from_millis(100);

/// One shortest-path search over a `GRID × GRID` grid with hashed edge
/// weights; returns a checksum so the work cannot be optimised away.
#[must_use]
pub fn kernel() -> u64 {
    let weight = |u: usize, v: usize| {
        let h = ((u * 31 + v) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        1 + (h >> 60) as u32
    };
    let mut dist = vec![u32::MAX; GRID * GRID];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(Reverse((0u32, 0usize)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        let (x, y) = (u % GRID, u / GRID);
        let neighbours = [
            (x > 0, u.wrapping_sub(1)),
            (x + 1 < GRID, u + 1),
            (y > 0, u.wrapping_sub(GRID)),
            (y + 1 < GRID, u + GRID),
        ];
        for (_, v) in neighbours.into_iter().filter(|&(exists, _)| exists) {
            let nd = d + weight(u, v);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist.iter().map(|&d| u64::from(d)).sum()
}

/// CPU seconds per kernel call, over `calls` calls on this thread.
#[must_use]
pub fn sample(calls: usize) -> f64 {
    let c = cpu::thread();
    for _ in 0..calls {
        std::hint::black_box(kernel());
    }
    (cpu::thread() - c) / calls as f64
}

/// `cpu_s`, measured while the kernel took `kernel_s` per call, at the
/// reference speed.
#[must_use]
pub fn scale(cpu_s: f64, kernel_s: f64) -> f64 {
    cpu_s * REFERENCE_S / kernel_s
}

/// Runs `f` between two kernel samples; `f` returns its result and the
/// CPU seconds it measured, which come back at the reference speed. For
/// work with nothing else running, such as a set-up.
pub fn bracket<T>(f: impl FnOnce() -> (T, f64)) -> (T, f64) {
    let before = sample(BRACKET_CALLS);
    let (out, spent) = f();
    (out, scale(spent, (before + sample(BRACKET_CALLS)) / 2.0))
}

/// The CPU each of `workers` threads is bound to: the allowed CPUs in
/// turn.
#[must_use]
pub fn worker_cpus(workers: usize) -> Vec<usize> {
    let allowed = cpu::allowed();
    (0..workers).map(|w| allowed[w % allowed.len()]).collect()
}

/// Threads sampling the kernel every [`PERIOD`], one bound to each CPU
/// the work runs on, while the work runs on other threads.
pub struct Probe {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<Sample>>>,
}

/// Starts one probe thread bound to each of `cpus`.
#[must_use]
pub fn probe(cpus: &[usize]) -> Probe {
    let stop = Arc::new(AtomicBool::new(false));
    let mut distinct = cpus.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let threads = distinct
        .into_iter()
        .map(|core| {
            let flag = Arc::clone(&stop);
            std::thread::spawn(move || {
                cpu::pin(core);
                // At least one sample, however short the work.
                let mut samples = Vec::new();
                loop {
                    let t = Instant::now();
                    let s = sample(PROBE_CALLS);
                    samples.push(Sample {
                        at: t + t.elapsed() / 2,
                        core,
                        s,
                    });
                    if flag.load(Ordering::Relaxed) {
                        return samples;
                    }
                    std::thread::sleep(PERIOD);
                }
            })
        })
        .collect();
    Probe { stop, threads }
}

impl Probe {
    /// Stops the probe and returns its samples.
    ///
    /// # Panics
    ///
    /// Panics if a probe thread panicked.
    #[must_use]
    pub fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        Samples(
            self.threads
                .into_iter()
                .flat_map(|t| t.join().expect("the probe threads do not panic"))
                .collect(),
        )
    }
}

/// One kernel sample: when and on which CPU it was taken, and its CPU
/// seconds per call.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    core: usize,
    s: f64,
}

/// A probe's samples.
#[derive(Debug, Clone)]
pub struct Samples(Vec<Sample>);

impl Samples {
    /// CPU seconds the probe threads spent sampling.
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        self.0.iter().map(|x| x.s * PROBE_CALLS as f64).sum()
    }

    /// Median kernel seconds per call over `[from, to]` on every probed
    /// CPU, or over every sample if fewer than three fall inside.
    #[must_use]
    pub fn kernel_s(&self, from: Instant, to: Instant) -> f64 {
        self.median_inside(from, to, |_| true)
            .unwrap_or_else(|| median(&self.0.iter().map(|x| x.s).collect::<Vec<_>>()))
    }

    /// The same on CPU `core` alone, for work bound to it: the virtual
    /// CPUs of a shared host run at different speeds, and scaling a
    /// job's CPU time by its own CPU's samples instead of all of them cut
    /// the spread of one job's executions in a run from 0.10 to 0.04.
    /// Falls back to [`Self::kernel_s`] with fewer than three samples.
    #[must_use]
    pub fn kernel_on(&self, core: usize, from: Instant, to: Instant) -> f64 {
        self.median_inside(from, to, |x| x.core == core)
            .unwrap_or_else(|| self.kernel_s(from, to))
    }

    fn median_inside(
        &self,
        from: Instant,
        to: Instant,
        keep: impl Fn(&Sample) -> bool,
    ) -> Option<f64> {
        let inside: Vec<f64> = self
            .0
            .iter()
            .filter(|x| (from..=to).contains(&x.at) && keep(x))
            .map(|x| x.s)
            .collect();
        (inside.len() >= 3).then(|| median(&inside))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
        let s = sample(3);
        assert!(s > 0.0 && s < 0.1, "{s}");
        assert!((scale(2.0, 2.0 * REFERENCE_S) - 1.0).abs() < 1e-12);
    }
}
