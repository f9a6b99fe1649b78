//! Self-profiler: host wall-clock attribution by simulator phase.
//!
//! The `--bench-json` harness wants to know *where* a cell's wall-clock
//! goes — codec work, zpool/LRU bookkeeping, the event queue, or the flash
//! I/O model — without perturbing the simulation. The profiler is therefore:
//!
//! * **process-global atomics**, not thread-locals: `run_grid` fans cells
//!   out over scoped worker threads, and all of them must land in the same
//!   accumulators;
//! * **host-time only**: spans read `Instant`, never the simulated clock,
//!   and nothing in the simulation ever reads the profiler back;
//! * **outermost-wins**: a span opened inside another span is a no-op (a
//!   per-thread depth counter guards re-entry), so nested hook sites —
//!   e.g. flash retirement inside a flash submit — are not double-counted;
//! * **disabled by default**: `span()` is one relaxed atomic load until the
//!   bench harness calls [`enable`]`(true)`.
//!
//! Phase totals are summed *thread* time, not wall time: codec work a reclaim
//! batch moves onto helper threads is still counted (each helper opens its
//! own `Codec` span), so totals may exceed a cell's wall-clock.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Simulator phases the profiler attributes host time to. Everything not
/// covered by a span is the cell's residual ("other": per-page simulation
/// bookkeeping, scheme logic, table formatting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Compression / decompression kernel work (including oracle misses).
    Codec,
    /// Zpool store/fault/release and LRU bookkeeping.
    Zpool,
    /// The flash I/O model (submit, fault-in, retirement, release sweeps).
    Io,
    /// Event-queue push/pop.
    Queue,
}

/// All attributable phases, in display order.
pub const PHASES: [Phase; 4] = [Phase::Codec, Phase::Zpool, Phase::Io, Phase::Queue];

impl Phase {
    /// Stable lower-case label (used as the JSON key in bench reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Codec => "codec",
            Phase::Zpool => "zpool",
            Phase::Io => "io",
            Phase::Queue => "queue",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Codec => 0,
            Phase::Zpool => 1,
            Phase::Io => 2,
            Phase::Queue => 3,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASE_NANOS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Turns the profiler on or off process-wide. The bench harness enables it
/// once; everything else leaves it off so `span()` stays a single load.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is currently accumulating.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every phase accumulator (called between bench cells).
pub fn reset() {
    for nanos in &PHASE_NANOS {
        nanos.store(0, Ordering::Relaxed);
    }
}

/// Opens a span attributing host time to `phase` until the guard drops.
/// Disabled profiler or a span already open on this thread → no-op guard.
#[must_use]
pub fn span(phase: Phase) -> PhaseSpan {
    if !ENABLED.load(Ordering::Relaxed) {
        return PhaseSpan { inner: None };
    }
    let outermost = SPAN_DEPTH.with(|depth| {
        let current = depth.get();
        depth.set(current + 1);
        current == 0
    });
    PhaseSpan {
        inner: Some(SpanInner {
            phase,
            start: outermost.then(Instant::now),
        }),
    }
}

struct SpanInner {
    phase: Phase,
    start: Option<Instant>,
}

/// Guard returned by [`span`]; accumulates elapsed host time on drop.
pub struct PhaseSpan {
    inner: Option<SpanInner>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            SPAN_DEPTH.with(|depth| depth.set(depth.get().saturating_sub(1)));
            if let Some(start) = inner.start {
                let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                PHASE_NANOS[inner.phase.index()].fetch_add(elapsed, Ordering::Relaxed);
            }
        }
    }
}

/// A snapshot of accumulated per-phase host time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    nanos: [u64; 4],
}

impl PhaseBreakdown {
    /// Accumulated host nanoseconds for `phase`.
    #[must_use]
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Accumulated host milliseconds for `phase`.
    #[must_use]
    pub fn millis(&self, phase: Phase) -> f64 {
        self.nanos[phase.index()] as f64 / 1e6
    }

    /// Sum over all phases, milliseconds.
    #[must_use]
    pub fn total_millis(&self) -> f64 {
        self.nanos.iter().map(|&n| n as f64 / 1e6).sum()
    }
}

/// Reads the current accumulators (does not reset them).
#[must_use]
pub fn snapshot() -> PhaseBreakdown {
    let mut nanos = [0u64; 4];
    for phase in PHASES {
        nanos[phase.index()] = PHASE_NANOS[phase.index()].load(Ordering::Relaxed);
    }
    PhaseBreakdown { nanos }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global state, so every assertion about it
    // lives in this one test (cargo runs tests in one process, threaded).
    #[test]
    fn spans_accumulate_only_when_enabled_and_outermost() {
        reset();
        {
            let _off = span(Phase::Codec);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(snapshot().nanos(Phase::Codec), 0, "disabled profiler");

        enable(true);
        {
            let _outer = span(Phase::Zpool);
            {
                // Nested span: must not double-count (outermost wins).
                let _inner = span(Phase::Io);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        {
            let _queue = span(Phase::Queue);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        enable(false);

        let breakdown = snapshot();
        assert_eq!(breakdown.nanos(Phase::Io), 0, "nested span not counted");
        assert!(breakdown.nanos(Phase::Zpool) > 0, "outer span counted");
        assert!(breakdown.nanos(Phase::Queue) > 0);
        assert!(breakdown.total_millis() >= breakdown.millis(Phase::Zpool));

        reset();
        assert_eq!(snapshot(), PhaseBreakdown::default());
    }
}
