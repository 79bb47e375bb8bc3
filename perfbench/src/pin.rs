//! Pinning to one CPU for set-up timings.
//!
//! A single-threaded set-up that the scheduler moves between CPUs runs
//! up to half again as long as one that stays put, and whether it moves
//! differs from run to run. Set-up is therefore timed on one CPU: the
//! calling thread is pinned while it builds in-process state or spawns a
//! server (a child inherits the mask), then restored.

/// `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc != 0 {
        crate::fail(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
}

/// The CPUs the calling thread may run on.
fn cpus(mask: &Mask) -> Vec<usize> {
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Runs `f` with the calling thread pinned to its `nth` allowed CPU
/// (counting round), then restores the thread's mask. Processes spawned
/// inside `f` keep the pin. Set-ups pin to CPUs in turn, so that one
/// CPU's neighbours do not set a run's figure.
pub fn pinned<T>(nth: usize, f: impl FnOnce() -> T) -> T {
    let Some(old) = get() else { return f() };
    let allowed = cpus(&old);
    if allowed.is_empty() {
        return f();
    }
    let cpu = allowed[nth % allowed.len()];
    let mut one: Mask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set(&one);
    let out = f();
    set(&old);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_for_the_closure_and_restores_after() {
        let before = get().expect("affinity readable");
        let allowed = cpus(&before);
        for nth in 0..=allowed.len() {
            let inside = pinned(nth, || get().expect("affinity readable"));
            assert_eq!(cpus(&inside), vec![allowed[nth % allowed.len()]]);
            assert_eq!(get().expect("affinity readable"), before);
        }
    }
}
