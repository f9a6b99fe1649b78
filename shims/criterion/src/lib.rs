//! Offline stand-in for `criterion` (see `shims/README.md`).
//!
//! Provides the harness surface the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, benchmark groups, per-input
//! benches, throughput annotation — and really measures wall-clock time,
//! printing one line per benchmark. It performs none of criterion's
//! statistical analysis; the numbers are indicative only, which matches how
//! the workspace treats host-side wall-clock (simulated latency comes from
//! the calibrated cost model, not from these benches).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness state, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Accepted for API compatibility; the shim ignores the target time.
    pub fn measurement_time(self, _d: Duration) -> Self {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single free-standing benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut group = self.benchmark_group(id.clone());
        group.bench_with_input(BenchmarkId::from_parameter(""), &(), |b, ()| f(b));
        group.finish();
        self
    }
}

/// Units for reporting throughput alongside time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The routine processes this many bytes per iteration (reported in
    /// binary units, GiB/s).
    Bytes(u64),
    /// The routine processes this many bytes per iteration (reported in
    /// decimal units, MB/s).
    BytesDecimal(u64),
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A two-part id: function name plus parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    /// An id distinguished only by its parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// A named collection of benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotates subsequent benchmarks with a per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f` with `input`, timing the routine passed to
    /// [`Bencher::iter`].
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: self.criterion.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut bencher, input);
        self.report(&id, bencher.mean);
        self
    }

    /// Benchmarks `f` with no input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchIdOrName>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().0;
        self.bench_with_input(id, &(), |b, ()| f(b))
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, mean: Duration) {
        let rate = match self.throughput {
            Some(Throughput::Bytes(bytes)) if mean > Duration::ZERO => {
                let gib_s = bytes as f64 / mean.as_secs_f64() / (1u64 << 30) as f64;
                format!("  ({gib_s:.3} GiB/s)")
            }
            Some(Throughput::BytesDecimal(bytes)) if mean > Duration::ZERO => {
                let mb_s = bytes as f64 / mean.as_secs_f64() / 1e6;
                format!("  ({mb_s:.1} MB/s)")
            }
            Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                let elem_s = n as f64 / mean.as_secs_f64();
                format!("  ({elem_s:.0} elem/s)")
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: {:>12.3} µs/iter{}",
            self.name,
            id.label,
            mean.as_secs_f64() * 1e6,
            rate
        );
    }
}

/// Adapter so `bench_function` accepts either a string or a [`BenchmarkId`].
pub struct BenchIdOrName(BenchmarkId);

impl From<&str> for BenchIdOrName {
    fn from(s: &str) -> Self {
        BenchIdOrName(BenchmarkId::from_parameter(s))
    }
}

impl From<String> for BenchIdOrName {
    fn from(s: String) -> Self {
        BenchIdOrName(BenchmarkId::from_parameter(s))
    }
}

impl From<BenchmarkId> for BenchIdOrName {
    fn from(id: BenchmarkId) -> Self {
        BenchIdOrName(id)
    }
}

/// Passed to the benchmark closure; [`Bencher::iter`] times the routine.
pub struct Bencher {
    samples: usize,
    mean: Duration,
}

impl Bencher {
    /// Times `routine`, running one warm-up plus `sample_size` measured
    /// iterations, and records the mean per-iteration time.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        black_box(routine()); // warm-up
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(routine());
        }
        self.mean = start.elapsed() / self.samples as u32;
    }
}

/// Opaque value barrier preventing the optimizer from deleting the routine.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Bundles benchmark functions into a group runner, mirroring criterion's
/// macro of the same name. Both the `name/config/targets` and the positional
/// forms are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Generates `fn main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_measures_and_reports() {
        let mut criterion = Criterion::default().sample_size(3);
        let mut group = criterion.benchmark_group("shim_smoke");
        group.throughput(Throughput::Bytes(1024));
        let mut runs = 0u32;
        group.bench_with_input(BenchmarkId::new("count", 1), &7u64, |b, &x| {
            b.iter(|| {
                runs += 1;
                x * 2
            })
        });
        group.finish();
        assert_eq!(runs, 4, "one warm-up plus sample_size iterations");
    }

    criterion_group! {
        name = demo_group;
        config = Criterion::default().sample_size(2);
        targets = demo_target
    }

    fn demo_target(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn macro_generated_group_runs() {
        demo_group();
    }
}
