//! CPU clocks: the time a thread or a process spent on a CPU, read with
//! `clock_gettime` (Linux, 64-bit `time_t`).
//!
//! The benchmark times the flow's work on these clocks rather than on the
//! wall clock. On a virtual machine with steal-time accounting (a
//! paravirtualised Linux guest) they leave out the time the hypervisor
//! gave the virtual CPU to another guest, which on a shared host moves
//! the wall time of the same job by tens of percent within an hour.
//!
//! It also binds threads to CPUs (`sched_setaffinity`), so a job's CPU
//! time can be scaled by the speed of the CPU it ran on (see
//! [`crate::speed`]).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// 64-bit words of a CPU mask: 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the calling thread has used so far.
///
/// # Panics
///
/// Panics if the kernel has no per-thread CPU clock.
#[must_use]
pub fn thread() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID).expect("a per-thread CPU clock")
}

/// CPU seconds this process has used so far, over every thread, exited
/// ones included.
///
/// # Panics
///
/// Panics if the kernel has no per-process CPU clock.
#[must_use]
pub fn process() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID).expect("a per-process CPU clock")
}

/// CPU seconds process `pid` has used so far, over every thread, exited
/// ones included; `None` once it is gone.
#[must_use]
pub fn of_process(pid: u32) -> Option<f64> {
    let mut clock = 0i32;
    // SAFETY: `clock` is a valid, writable clock id for the call.
    let rc = unsafe { clock_getcpuclockid(i32::try_from(pid).ok()?, &mut clock) };
    if rc != 0 {
        return None;
    }
    read(clock)
}

/// The CPUs this process may run on, in ascending order.
///
/// # Panics
///
/// Panics if the kernel reports no CPU mask.
#[must_use]
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Binds the calling thread to CPU `cpu`.
///
/// # Panics
///
/// Panics if the kernel refuses, as for a CPU outside [`allowed`].
pub fn pin(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "cannot bind a thread to CPU {cpu}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_count_work_and_not_sleep() {
        let t0 = thread();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let t1 = thread();
        assert!(t1 - t0 > 0.001, "{t0} -> {t1}");
        std::thread::sleep(std::time::Duration::from_millis(100));
        let t2 = thread();
        assert!(t2 - t1 < 0.02, "sleeping is not CPU time: {}", t2 - t1);
        let p = process();
        assert!(p >= t2);
        assert!(of_process(std::process::id()).unwrap() >= p);
    }

    #[test]
    fn a_thread_binds_to_an_allowed_cpu() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            pin(last);
            assert_eq!(allowed(), vec![last]);
        })
        .join()
        .unwrap();
        assert_eq!(allowed(), cpus, "only the bound thread changed");
    }
}
