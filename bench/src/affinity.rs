//! CPU pinning through the allowed-CPU mask.
//!
//! Two spinning threads that the scheduler happens to place on one core
//! replay ~5× faster than on two (the waiter's spin is simply not running
//! while the other thread works), and the placement flips from process to
//! process. Every benchmark-owned thread therefore pins itself to one CPU
//! of the set the process is *allowed* to run on, and reads the mask back
//! to check that the kernel took it.

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` is 1024 bits on Linux.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed; the kernel only reads it. pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

/// The CPUs the calling thread may run on, ascending. Empty when the
/// platform has no affinity call (everything then runs unpinned).
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let Some(mask) = sys::get() else {
            return Vec::new();
        };
        (0..sys::WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Vec::new()
    }
}

/// The process's CPU set, captured before any thread pinned itself.
#[derive(Debug, Clone)]
pub struct Cpus {
    allowed: Vec<usize>,
}

impl Cpus {
    /// Capture the calling thread's allowed set. Call once, from `main`,
    /// before pinning anything.
    #[must_use]
    pub fn detect() -> Cpus {
        Cpus {
            allowed: allowed_cpus(),
        }
    }

    /// Number of CPUs the process may use (0 = unknown platform).
    #[must_use]
    pub fn count(&self) -> usize {
        self.allowed.len()
    }

    /// Pin the calling thread to the `slot`-th allowed CPU (wrapping) and
    /// verify with a read-back. Returns whether the thread is now pinned.
    pub fn pin(&self, slot: usize) -> bool {
        #[cfg(target_os = "linux")]
        {
            if self.allowed.is_empty() {
                return false;
            }
            let cpu = self.allowed[slot % self.allowed.len()];
            let mut mask = [0u64; sys::WORDS];
            mask[cpu / 64] |= 1 << (cpu % 64);
            sys::set(&mask) && sys::get() == Some(mask)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = slot;
            false
        }
    }

    /// Give the calling thread the whole allowed set back (threads it
    /// spawns afterwards inherit it). Used around code whose threads the
    /// benchmark cannot pin itself.
    pub fn unpin(&self) {
        #[cfg(target_os = "linux")]
        {
            if self.allowed.is_empty() {
                return;
            }
            let mut mask = [0u64; sys::WORDS];
            for &cpu in &self.allowed {
                mask[cpu / 64] |= 1 << (cpu % 64);
            }
            sys::set(&mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_reads_back_and_unpin_restores() {
        let cpus = Cpus::detect();
        if cpus.count() == 0 {
            return;
        }
        // Run on a scratch thread so the test harness thread keeps its mask.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(cpus.pin(0));
                assert_eq!(allowed_cpus(), vec![cpus.allowed[0]]);
                cpus.unpin();
                assert_eq!(allowed_cpus(), cpus.allowed);
            });
        });
    }
}
