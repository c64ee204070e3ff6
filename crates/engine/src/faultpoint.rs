//! Deterministic fault injection for chaos testing.
//!
//! A *fault point* is a named site in the serving stack where a failure
//! can be injected on demand: the cache read/write paths, the worker
//! execution path, the connection handler. Production code asks
//! [`fire`] at each site; when the subsystem is disarmed (the default)
//! that is a single relaxed atomic load returning `false`, so the hot
//! path pays nothing measurable. Tests, the chaos bench and
//! `mmflow serve --fault-spec` arm points with a seeded spec string:
//!
//! ```text
//! seed=7,cache_read_io=0.25,worker_panic=1,stall_ms=50
//! ```
//!
//! Each point carries a firing rate in `[0, 1]`. Decisions are drawn
//! from a splitmix64 stream keyed by `(seed, point, hit-index)`, so a
//! given spec produces the same firing pattern per point across runs —
//! failures found by a chaos storm are replayable by seed.
//!
//! The registry is process-global (one serving process, one fault
//! plan). Tests that arm faults must serialize on a lock and disarm
//! when done.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Cache read returns unusable bytes (exercises quarantine + recompute).
pub const CACHE_READ_IO: &str = "cache_read_io";
/// Cache write is torn mid-entry (exercises checksum detection).
pub const CACHE_WRITE_PARTIAL: &str = "cache_write_partial";
/// The worker thread panics mid-job (exercises isolation + retry).
pub const WORKER_PANIC: &str = "worker_panic";
/// The job wedges for `stall_ms` (exercises the deadline watchdog).
pub const JOB_STALL: &str = "job_stall";
/// The connection drops mid-stream (exercises purge + client resubmit).
pub const CONN_DROP: &str = "conn_drop";

/// Every known fault point, in spec order.
pub const ALL_POINTS: [&str; 5] = [
    CACHE_READ_IO,
    CACHE_WRITE_PARTIAL,
    WORKER_PANIC,
    JOB_STALL,
    CONN_DROP,
];

/// How long [`JOB_STALL`] wedges a job when no `stall_ms` is given.
const DEFAULT_STALL_MS: u64 = 100;

/// The single global fault plan. `armed` is the only thing the hot
/// path reads; everything else is touched only while armed or when a
/// plan is (dis)armed.
struct Registry {
    armed: AtomicBool,
    seed: AtomicU64,
    stall_ms: AtomicU64,
    /// Firing rate per point, as `f64` bits (0.0 when unset).
    rates: [AtomicU64; 5],
    /// Times each point was *asked* while armed (fired or not).
    hits: [AtomicU64; 5],
    /// Times each point actually fired.
    fired: [AtomicU64; 5],
}

static REGISTRY: Registry = Registry {
    armed: AtomicBool::new(false),
    seed: AtomicU64::new(0),
    stall_ms: AtomicU64::new(DEFAULT_STALL_MS),
    rates: [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ],
    hits: [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ],
    fired: [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ],
};

fn point_index(point: &str) -> Option<usize> {
    ALL_POINTS.iter().position(|&p| p == point)
}

/// splitmix64: a full-period, well-mixed 64-bit permutation — the
/// decision stream for a point is `mix(seed ^ salt(point) ^ n)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn point_salt(index: usize) -> u64 {
    // Distinct odd salts decorrelate the per-point streams.
    (index as u64).wrapping_mul(0xa076_1d64_78bd_642f) | 1
}

/// Arms the registry from a spec string: comma-separated
/// `name=value` entries where `name` is a fault point (value = firing
/// rate in `[0, 1]`), `seed` (u64), or `stall_ms` (u64). A bare point
/// name means rate 1. Re-arming replaces the previous plan and resets
/// all counters.
///
/// # Errors
///
/// Returns a message naming the offending entry on unknown points or
/// unparsable values; the registry is left disarmed.
pub fn arm(spec: &str) -> Result<(), String> {
    disarm();
    let mut rates = [0.0f64; 5];
    let mut seed = 0u64;
    let mut stall_ms = DEFAULT_STALL_MS;
    for raw in spec.split(',') {
        let entry = raw.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, value) = match entry.split_once('=') {
            Some((n, v)) => (n.trim(), Some(v.trim())),
            None => (entry, None),
        };
        match name {
            "seed" => {
                let v = value.ok_or_else(|| "seed needs a value".to_string())?;
                seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed '{v}' (want u64)"))?;
            }
            "stall_ms" => {
                let v = value.ok_or_else(|| "stall_ms needs a value".to_string())?;
                stall_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad stall_ms '{v}' (want u64)"))?;
            }
            _ => {
                let index = point_index(name).ok_or_else(|| {
                    format!(
                        "unknown fault point '{name}' (known: {})",
                        ALL_POINTS.join(", ")
                    )
                })?;
                let rate = match value {
                    None => 1.0,
                    Some(v) => {
                        let r = v
                            .parse::<f64>()
                            .map_err(|_| format!("bad rate '{v}' for '{name}'"))?;
                        if !(0.0..=1.0).contains(&r) {
                            return Err(format!("rate {r} for '{name}' outside [0, 1]"));
                        }
                        r
                    }
                };
                rates[index] = rate;
            }
        }
    }
    REGISTRY.seed.store(seed, Ordering::Relaxed);
    REGISTRY.stall_ms.store(stall_ms, Ordering::Relaxed);
    for (i, rate) in rates.iter().enumerate() {
        REGISTRY.rates[i].store(rate.to_bits(), Ordering::Relaxed);
        REGISTRY.hits[i].store(0, Ordering::Relaxed);
        REGISTRY.fired[i].store(0, Ordering::Relaxed);
    }
    // Release-publish the plan: a `fire` that observes `armed` also
    // observes the rates/seed stored above.
    REGISTRY.armed.store(true, Ordering::Release);
    silence_injected_panics();
    Ok(())
}

/// Marker every injected panic payload carries, so the panic hook can
/// tell deliberate chaos from a real bug.
pub const INJECTED_PANIC: &str = "injected fault";

/// Installs (once per process) a panic hook that swallows the
/// message/backtrace spam of payloads carrying [`INJECTED_PANIC`] —
/// they are caught and retried by design — while delegating everything
/// else to the previous hook.
fn silence_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Disarms every fault point. All subsequent [`fire`] calls are
/// single-load no-ops again; counters keep their final values.
pub fn disarm() {
    REGISTRY.armed.store(false, Ordering::Release);
}

/// Whether any fault plan is armed.
#[must_use]
pub fn armed() -> bool {
    REGISTRY.armed.load(Ordering::Relaxed)
}

/// Asks whether `point` fires at this site, advancing its decision
/// stream. Disarmed: one relaxed load, always `false`. Unknown point
/// names never fire (callers pass the constants above).
#[must_use]
pub fn fire(point: &str) -> bool {
    if !REGISTRY.armed.load(Ordering::Acquire) {
        return false;
    }
    let Some(index) = point_index(point) else {
        return false;
    };
    let rate = f64::from_bits(REGISTRY.rates[index].load(Ordering::Relaxed));
    if rate <= 0.0 {
        return false;
    }
    let n = REGISTRY.hits[index].fetch_add(1, Ordering::Relaxed);
    let seed = REGISTRY.seed.load(Ordering::Relaxed);
    let draw = splitmix64(seed ^ point_salt(index) ^ n);
    // Top 53 bits → uniform in [0, 1).
    let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
    let fired = uniform < rate;
    if fired {
        REGISTRY.fired[index].fetch_add(1, Ordering::Relaxed);
    }
    fired
}

/// The stall duration [`JOB_STALL`] sites should sleep for when fired.
#[must_use]
pub fn stall_duration() -> std::time::Duration {
    std::time::Duration::from_millis(REGISTRY.stall_ms.load(Ordering::Relaxed))
}

/// Times `point` actually fired since the last [`arm`].
#[must_use]
pub fn fired_count(point: &str) -> u64 {
    point_index(point).map_or(0, |i| REGISTRY.fired[i].load(Ordering::Relaxed))
}

/// Times `point` was consulted while armed since the last [`arm`].
#[must_use]
pub fn hit_count(point: &str) -> u64 {
    point_index(point).map_or(0, |i| REGISTRY.hits[i].load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests that arm it serialize here.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_points_never_fire() {
        let _guard = LOCK.lock().unwrap();
        disarm();
        assert!(!armed());
        for point in ALL_POINTS {
            assert!(!fire(point));
        }
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let _guard = LOCK.lock().unwrap();
        arm("seed=1,cache_read_io=1,worker_panic=0").unwrap();
        for _ in 0..32 {
            assert!(fire(CACHE_READ_IO));
            assert!(!fire(WORKER_PANIC));
            assert!(!fire(CONN_DROP), "unlisted point stays at rate 0");
        }
        assert_eq!(fired_count(CACHE_READ_IO), 32);
        assert_eq!(hit_count(CACHE_READ_IO), 32);
        assert_eq!(fired_count(WORKER_PANIC), 0);
        disarm();
    }

    #[test]
    fn same_seed_reproduces_the_firing_pattern() {
        let _guard = LOCK.lock().unwrap();
        let pattern = |seed: u64| -> Vec<bool> {
            arm(&format!("seed={seed},job_stall=0.4")).unwrap();
            let p = (0..64).map(|_| fire(JOB_STALL)).collect();
            disarm();
            p
        };
        let a = pattern(42);
        let b = pattern(42);
        let c = pattern(43);
        assert_eq!(a, b, "same seed, same decisions");
        assert_ne!(a, c, "different seed, different decisions");
        assert!(
            a.iter().any(|&f| f) && !a.iter().all(|&f| f),
            "rate 0.4 mixes"
        );
    }

    #[test]
    fn bare_point_name_means_rate_one() {
        let _guard = LOCK.lock().unwrap();
        arm("conn_drop").unwrap();
        assert!(fire(CONN_DROP));
        disarm();
    }

    #[test]
    fn stall_ms_is_configurable() {
        let _guard = LOCK.lock().unwrap();
        arm("job_stall=1,stall_ms=7").unwrap();
        assert_eq!(stall_duration(), std::time::Duration::from_millis(7));
        disarm();
    }

    #[test]
    fn bad_specs_are_rejected_and_leave_the_registry_disarmed() {
        let _guard = LOCK.lock().unwrap();
        assert!(arm("no_such_point=1").is_err());
        assert!(arm("cache_read_io=1.5").is_err());
        assert!(arm("cache_read_io=abc").is_err());
        assert!(arm("seed=nope").is_err());
        assert!(!armed());
    }
}
