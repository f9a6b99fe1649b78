//! Spare-core accounting for codec work moved off the calling thread.
//!
//! A reclaim batch's oracle misses are independent codec runs, so
//! [`SchemeContext::resolve_batch`](crate::SchemeContext::resolve_batch)
//! can spread them over helper threads. It may only use cores nobody else
//! is using: the experiment runner already keeps one worker per core busy
//! while a grid is saturated, and helpers on top of that would only
//! oversubscribe the host. Runner workers therefore count themselves here
//! ([`BusyCores::worker`]), a batch claims helpers only from the cores left
//! over, and the helpers stay counted while they run. A saturated grid
//! leaves none, and runs exactly as it would without fan-out. The rule has
//! no setting: the host's core count decides it. The calling thread
//! occupies a core whether or not it is counted (a runner worker is, the
//! main thread is not), so a batch gets at most `cores - max(busy, 1)`
//! helpers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Threads currently counted as occupying a core: runner workers plus
/// batch helpers. `Relaxed` throughout: the count publishes no other data,
/// and a stale read only makes one batch take one helper more or fewer.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// The host's available parallelism, or `None` when the platform cannot
/// report it. The lookup reads cgroup files on Linux, far too slow to
/// repeat per batch, so it runs once per process.
#[must_use]
pub fn available_parallelism() -> Option<usize> {
    static CORES: OnceLock<Option<usize>> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .ok()
            .map(std::num::NonZeroUsize::get)
    })
}

/// The cores fan-out counts on: [`available_parallelism`], or 1 when the
/// platform cannot report it, which turns fan-out off.
#[must_use]
pub fn host_cores() -> usize {
    available_parallelism().unwrap_or(1)
}

/// A claim on busy cores, released when dropped.
#[derive(Debug)]
#[must_use = "the cores are released as soon as the claim drops"]
pub struct BusyCores(usize);

impl BusyCores {
    /// Count the calling thread as busy for as long as the claim lives.
    /// Experiment-runner workers hold one while they run cells.
    pub fn worker() -> Self {
        BUSY.fetch_add(1, Ordering::Relaxed);
        BusyCores(1)
    }

    /// Claim up to `wanted` spare cores for helper threads. The calling
    /// thread occupies a core whether or not it is counted (a runner
    /// worker is, the main thread is not), so the claim is at most
    /// `cores - max(busy, 1)`; it may be zero.
    pub(crate) fn spare(wanted: usize) -> Self {
        let cores = host_cores();
        let mut busy = BUSY.load(Ordering::Relaxed);
        loop {
            let claim = cores.saturating_sub(busy.max(1)).min(wanted);
            if claim == 0 {
                return BusyCores(0);
            }
            match BUSY.compare_exchange_weak(
                busy,
                busy + claim,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return BusyCores(claim),
                Err(now) => busy = now,
            }
        }
    }

    /// How many cores the claim holds.
    #[must_use]
    pub(crate) fn count(&self) -> usize {
        self.0
    }
}

impl Drop for BusyCores {
    fn drop(&mut self) {
        if self.0 > 0 {
            BUSY.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `BUSY` is process-wide and other tests in this crate may hold claims
    // concurrently, so these only assert bounds that hold regardless.
    #[test]
    fn spare_claims_never_exceed_the_cores_left_over() {
        let cores = host_cores();
        assert!(cores >= 1);
        let claim = BusyCores::spare(usize::MAX);
        assert!(claim.count() < cores, "the calling thread keeps one core");
        let workers: Vec<BusyCores> = (0..cores).map(|_| BusyCores::worker()).collect();
        assert_eq!(
            BusyCores::spare(8).count(),
            0,
            "a saturated host has no spare"
        );
        drop(workers);
        assert_eq!(
            BusyCores::spare(0).count(),
            0,
            "nothing wanted, nothing claimed"
        );
    }
}
