//! The repository benchmark: drives `ariadne_sim::MobileSystem` on one
//! thread through a seeded workload, scheme after scheme, and prints every
//! metric with its unit. The last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload relaunch_cycle --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, timed from outside by spans around calls into each
//! crate's public functions, and writes the spans to `perfbench/out/`.

mod report;
mod spans;
mod stats;
mod workloads;

use ariadne::compress::{Algorithm, ChunkSize, ChunkedCodec};
use ariadne::mem::{CpuActivity, PAGE_SIZE};
use ariadne::sim::{EngineEvent, MobileSystem, RelaunchKind, SimulationConfig};
use ariadne::trace::{AppWorkload, ScenarioEvent};
use ariadne::zram::{OracleStats, SchemeContext, SchemeStats};
use report::{Digest, Outcome};
use spans::{Span, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, SUB_SEEDS};

/// Pages per app fed to the codec and oracle probes of the traced run.
const PROBE_PAGES_PER_APP: usize = 256;

/// The step kinds of `MobileSystem::step`, in reporting order.
const STEP_KINDS: [&str; 9] = [
    "sim.step.launch",
    "sim.step.relaunch",
    "sim.step.kswapd",
    "sim.step.pressure",
    "sim.step.drain",
    "sim.step.io_complete",
    "sim.step.lmkd",
    "sim.step.background",
    "sim.step.idle",
];

/// The LZO chunk sizes ZRAM and Ariadne compress with.
const LZO_CHUNKS: [(&str, usize); 4] = [
    ("compress.lzo_1k", 1024),
    ("compress.lzo_2k", 2048),
    ("compress.lzo_4k", 4096),
    ("compress.lzo_16k", 16384),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    println!(
        "check_failures {} ({} of {} checks failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// What one scheme's run left in the simulated ledgers.
struct Ledger {
    scheme: String,
    /// Relaunch latencies in full-scale simulated milliseconds.
    latencies_ms: Vec<f64>,
    cold_relaunches: usize,
    launches: usize,
    kills: usize,
    events: usize,
    stats: SchemeStats,
    oracle: OracleStats,
    scale: f64,
    digest: u64,
}

/// One pass over every scheme of one simulation of a workload.
struct Repeat {
    /// Which simulation of the workload (below `SUB_SEEDS`).
    part: usize,
    setup_s: f64,
    run_s: f64,
    ledgers: Vec<Ledger>,
    /// The spans recorded, if the repeat was traced.
    spans: Vec<Span>,
}

/// Set up and run every scheme of simulation `part` of `workload` once,
/// checking each system.
fn run_repeat(
    workload: Workload,
    seed: u64,
    part: usize,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Repeat {
    let mut repeat = Repeat {
        part,
        setup_s: 0.0,
        run_s: 0.0,
        ledgers: Vec::new(),
        spans: Vec::new(),
    };
    for spec in workload.schemes() {
        let scheme = spec.label();
        tracer.set_scheme(&scheme);

        let setup_started = Instant::now();
        let setup = tracer.begin("setup");
        let config = workload.config(workloads::sub_seed(seed, part));
        let scenario = tracer.time("trace.scenario", || workload.scenario(&config));
        let mut system = tracer.time("sim.system_new", || MobileSystem::new(spec, config));
        tracer.end(setup);
        let run_started = Instant::now();
        let run = tracer.begin("run");
        system.enqueue(&scenario);
        if tracer.enabled() {
            loop {
                let start_ns = tracer.now_ns();
                let Some(event) = system.step() else { break };
                let end_ns = tracer.now_ns();
                tracer.record(step_kind(event), start_ns, end_ns);
            }
        } else {
            while system.step().is_some() {}
        }
        tracer.end(run);
        let run_ended = Instant::now();
        repeat.setup_s += (run_started - setup_started).as_secs_f64();
        repeat.run_s += (run_ended - run_started).as_secs_f64();

        let leak = system.scheme().leak_check();
        outcome.check(leak.is_ok(), || format!("{scheme}: leak_check: {leak:?}"));
        let (scheduled, measured) = (scenario.relaunch_count(), system.measurements().len());
        outcome.check(scheduled == measured, || {
            format!("{scheme}: {scheduled} relaunches scheduled, {measured} measured")
        });
        repeat
            .ledgers
            .push(ledger(&system, scheme, workloads::launches(&scenario)));
    }
    tracer.set_scheme("-");
    repeat.spans = tracer.take_spans();
    repeat
}

fn step_kind(event: EngineEvent) -> &'static str {
    match event {
        EngineEvent::App(ScenarioEvent::Launch(_)) => STEP_KINDS[0],
        EngineEvent::App(ScenarioEvent::Relaunch { .. }) => STEP_KINDS[1],
        EngineEvent::KswapdWake => STEP_KINDS[2],
        EngineEvent::App(ScenarioEvent::Pressure { .. }) => STEP_KINDS[3],
        EngineEvent::DrainTick => STEP_KINDS[4],
        EngineEvent::IoComplete => STEP_KINDS[5],
        EngineEvent::LmkdWake => STEP_KINDS[6],
        EngineEvent::App(ScenarioEvent::Background(_)) => STEP_KINDS[7],
        EngineEvent::App(ScenarioEvent::Idle { .. }) => STEP_KINDS[8],
    }
}

/// Read the ledgers out of a finished system and digest them: the relaunch
/// measurements, `SchemeStats`, kill records and oracle counters.
fn ledger(system: &MobileSystem, scheme: String, launches: usize) -> Ledger {
    let scale = system.config().scale;
    let mut digest = Digest::default();
    for m in system.measurements() {
        let mut found_in: Vec<String> = m
            .found_in
            .iter()
            .map(|(location, pages)| format!("{location:?}={pages}"))
            .collect();
        found_in.sort();
        let _ = write!(
            digest,
            "{}|{:?}|{}|{}|{}|{found_in:?};",
            m.app,
            m.kind,
            m.latency.as_nanos(),
            m.io_stall.as_nanos(),
            m.pages_accessed
        );
    }
    let mut stats = system.stats().clone();
    let oracle = system.oracle_stats();
    let _ = write!(digest, "{stats:?}|{:?}|{oracle:?}", system.kill_records());
    // The per-page logs are in the digest; keeping them for every repeat
    // would make peak RSS grow with the number of repeats.
    stats.compression_log = Vec::new();
    stats.swapin_sector_trace = Vec::new();
    Ledger {
        scheme,
        latencies_ms: system
            .measurements()
            .iter()
            .map(|m| m.full_scale_millis(scale))
            .collect(),
        cold_relaunches: system.measurements_of(RelaunchKind::Cold).len(),
        launches,
        kills: system.kills(),
        events: system.events_processed(),
        stats,
        oracle,
        scale: scale as f64,
        digest: digest.value(),
    }
}

/// Repeat the workload's simulations in turn until `seconds` have passed
/// and at least `min_repeats` ran. Every repeat's ledgers must equal those
/// of the first repeat of the same simulation. Repeat `index` is traced
/// when `traced(index)` holds.
fn repeat_for(
    args: &Args,
    min_repeats: usize,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    traced: impl Fn(usize) -> bool,
) -> Vec<Repeat> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut repeats: Vec<Repeat> = Vec::new();
    while repeats.len() < min_repeats || started.elapsed() < budget {
        let index = repeats.len();
        tracer.set_enabled(traced(index));
        let repeat = run_repeat(args.workload, args.seed, index % SUB_SEEDS, tracer, outcome);
        if let Some(first) = repeats.get(repeat.part) {
            for (a, b) in first.ledgers.iter().zip(&repeat.ledgers) {
                outcome.check(a.digest == b.digest, || {
                    format!("{}: ledgers differ between repeats", b.scheme)
                });
            }
        }
        repeats.push(repeat);
    }
    repeats
}

/// The cost of one pass over every simulation: the sum over simulations of
/// the median of that simulation's values.
fn per_pass(values: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut by_part: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (part, value) in values {
        by_part.entry(part).or_default().push(value);
    }
    by_part.values().map(|v| stats::median(v)).sum()
}

/// The ledgers of one scheme across every simulation, pooled.
struct Pooled<'a> {
    ledgers: Vec<&'a Ledger>,
}

impl<'a> Pooled<'a> {
    /// Scheme `index` of the first `SUB_SEEDS` repeats (one per simulation).
    fn new(repeats: &'a [Repeat], index: usize) -> Self {
        Pooled {
            ledgers: repeats[..SUB_SEEDS]
                .iter()
                .map(|r| &r.ledgers[index])
                .collect(),
        }
    }

    fn sum(&self, f: impl Fn(&Ledger) -> usize) -> f64 {
        self.ledgers.iter().map(|l| f(l)).sum::<usize>() as f64
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.ledgers
            .iter()
            .flat_map(|l| l.latencies_ms.iter().copied())
            .collect()
    }

    /// Full-scale simulated milliseconds of a `SchemeStats` duration.
    fn full_ms(&self, f: impl Fn(&SchemeStats) -> ariadne::compress::CostNanos) -> f64 {
        self.ledgers
            .iter()
            .map(|l| f(&l.stats).as_millis_f64() * l.scale)
            .sum()
    }

    fn compression_ratio(&self) -> f64 {
        let before = self.sum(|l| l.stats.bytes_before_compression);
        let after = self.sum(|l| l.stats.bytes_after_compression);
        if after > 0.0 {
            before / after
        } else {
            1.0
        }
    }

    fn cold_starts(&self) -> f64 {
        self.sum(|l| l.launches + l.cold_relaunches)
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end_run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(args.workload.name(), false);
    // The first repeat warms the allocator and caches; it is checked but
    // not timed. Every simulation is timed at least once after it.
    let repeats = repeat_for(args, 2 * SUB_SEEDS, &mut tracer, &mut outcome, |_| false);
    let timed = &repeats[1..];
    print_context(args, &repeats, timed.len());

    let bytes_in: f64 = (0..args.workload.schemes().len())
        .map(|i| Pooled::new(&repeats, i).sum(|l| l.stats.bytes_before_compression))
        .sum();
    let run_s = per_pass(timed.iter().map(|r| (r.part, r.run_s)));
    outcome.metric(
        "setup_s",
        per_pass(timed.iter().map(|r| (r.part, r.setup_s))),
        "s",
    );
    outcome.metric("run_s", run_s, "s");
    outcome.metric("swap_out_mb_per_s", bytes_in / 1e6 / run_s, "MB/s");
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");

    let ariadne = Pooled::new(&repeats, args.workload.schemes().len() - 1);
    let latencies = ariadne.latencies_ms();
    let (p90, _) = tail_percentile(&latencies);
    outcome.metric("relaunch_p50_ms", stats::percentile(&latencies, 50), "ms");
    outcome.metric("relaunch_p90_ms", stats::percentile(&latencies, p90), "ms");
    outcome.metric(
        "swap_cpu_ms",
        ariadne.full_ms(SchemeStats::compression_cpu),
        "ms",
    );
    outcome.metric("compression_ratio", ariadne.compression_ratio(), "ratio");
    outcome.metric("cold_starts", ariadne.cold_starts(), "count");
    outcome
}

/// The percentile reported as `relaunch_p90_ms`: the 90th, or the highest
/// one with ten samples beyond it when there are fewer than 100.
fn tail_percentile(latencies: &[f64]) -> (u32, usize) {
    let p = stats::highest_supported_percentile(latencies.len(), 10).map_or(50, |p| p.min(90));
    (p, latencies.len())
}

/// Print the simulated numbers of every scheme over every simulation (the
/// baseline's are context, not gated) and the digest of all ledgers.
fn print_context(args: &Args, repeats: &[Repeat], timed: usize) {
    println!(
        "perfbench workload={} seed={} simulations={SUB_SEEDS} timed_repeats={timed}",
        args.workload.name(),
        args.seed
    );
    for index in 0..args.workload.schemes().len() {
        let pooled = Pooled::new(repeats, index);
        let latencies = pooled.latencies_ms();
        let (p, n) = tail_percentile(&latencies);
        println!(
            "  {:<24} relaunches={n} p50={:.3}ms p{p}={:.3}ms swap_cpu={:.3}ms ratio={:.4} kills={} cold_starts={} events={}",
            pooled.ledgers[0].scheme,
            stats::percentile(&latencies, 50),
            stats::percentile(&latencies, p),
            pooled.full_ms(SchemeStats::compression_cpu),
            pooled.compression_ratio(),
            pooled.sum(|l| l.kills),
            pooled.cold_starts(),
            pooled.sum(|l| l.events),
        );
        if p != 90 {
            println!("  note: relaunch_p90_ms is the p{p} of {n} relaunches (fewer than 100)");
        }
    }
    let run_s: Vec<String> = repeats.iter().map(|r| format!("{:.3}", r.run_s)).collect();
    println!(
        "  run_s of each repeat (simulations in turn): {}",
        run_s.join(" ")
    );
    let mut digest = Digest::default();
    for repeat in &repeats[..SUB_SEEDS] {
        for ledger in &repeat.ledgers {
            let _ = write!(digest, "{:016x}", ledger.digest);
        }
    }
    println!("sim_digest {:016x}", digest.value());
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 if unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Every duration of the spans called `name`, in ms.
fn durations_ms<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
}

/// The traced run: per-layer metrics, timed from outside.
fn traced_run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(args.workload.name(), false);
    // Untraced and traced repeats alternate; the first (untraced) one warms
    // up and is not timed. With an odd number of simulations, every
    // simulation is traced and untraced at least once in the first
    // `2 * SUB_SEEDS + 1` repeats.
    let repeats = repeat_for(
        args,
        2 * SUB_SEEDS + 1,
        &mut tracer,
        &mut outcome,
        |index| index % 2 == 1,
    );
    print_context(args, &repeats, repeats.len() - 1);

    let traced: Vec<&Repeat> = repeats.iter().skip(1).step_by(2).collect();
    let untraced = repeats.iter().skip(2).step_by(2);
    let traced_run_s = per_pass(traced.iter().map(|r| (r.part, r.run_s)));
    let untraced_run_s = per_pass(untraced.map(|r| (r.part, r.run_s)));

    // sim: every step, keyed by the event it dispatched. Totals and counts
    // are per pass over every simulation; percentiles pool every call.
    let per_pass_of =
        |f: &dyn Fn(&[Span]) -> f64| per_pass(traced.iter().map(|r| (r.part, f(&r.spans))));
    let total_ms =
        |name: &'static str| per_pass_of(&|spans: &[Span]| durations_ms(spans, name).sum());
    for kind in STEP_KINDS {
        let all: Vec<f64> = traced
            .iter()
            .flat_map(|r| durations_ms(&r.spans, kind))
            .collect();
        let count = per_pass_of(&|spans: &[Span]| durations_ms(spans, kind).count() as f64);
        outcome.metric(format!("{kind}.count"), count, "count");
        outcome.metric(format!("{kind}.total_ms"), total_ms(kind), "ms");
        outcome.metric(format!("{kind}.p50_ms"), stats::percentile(&all, 50), "ms");
        outcome.metric(format!("{kind}.p99_ms"), stats::percentile(&all, 99), "ms");
    }
    let schemes = args.workload.schemes().len();
    let pooled: Vec<Pooled> = (0..schemes).map(|i| Pooled::new(&repeats, i)).collect();
    let events: f64 = pooled.iter().map(|p| p.sum(|l| l.events)).sum();
    outcome.metric("sim.events", events, "count");
    outcome.metric("sim.system_new_ms", total_ms("sim.system_new"), "ms");
    outcome.metric("trace.scenario_ms", total_ms("trace.scenario"), "ms");

    // Self time of the harness's own spans: what a pass spends around the
    // calls it times.
    for (metric, name) in [
        ("harness.setup.self_ms", "setup"),
        ("harness.run.self_ms", "run"),
    ] {
        let self_ms = per_pass_of(&|spans: &[Span]| {
            spans::self_times(spans)
                .get(name)
                .map_or(0.0, |t| t.1 as f64 / 1e6)
        });
        outcome.metric(metric, self_ms, "ms");
    }
    outcome.metric("harness.traced_run_s", traced_run_s, "s");
    outcome.metric("harness.untraced_run_s", untraced_run_s, "s");
    outcome.metric(
        "harness.tracing_overhead_s",
        traced_run_s - untraced_run_s,
        "s",
    );

    // trace, compress, zram: the layer calls on this workload's own pages.
    tracer.set_enabled(true);
    let config = args.workload.config(workloads::sub_seed(args.seed, 0));
    let probe_spans = probe_layers(config, &mut tracer, &mut outcome);

    // Work counters: host work over every scheme, simulated ledgers of
    // Ariadne (the gated scheme), each summed over every simulation.
    let sum = |f: &dyn Fn(&Ledger) -> usize| pooled.iter().map(|p| p.sum(f)).sum::<f64>();
    outcome.metric(
        "compress.bytes_in",
        sum(&|l| l.stats.bytes_before_compression),
        "bytes",
    );
    outcome.metric("compress.ops", sum(&|l| l.stats.compression_ops), "count");
    let hits = sum(&|l| l.oracle.hits);
    let misses = sum(&|l| l.oracle.misses);
    outcome.metric("zram.oracle.hits", hits, "count");
    outcome.metric("zram.oracle.misses", misses, "count");
    outcome.metric("zram.oracle.hit_ratio", ratio(hits, hits + misses), "ratio");
    outcome.metric(
        "zram.oracle.bytes_saved",
        sum(&|l| l.oracle.bytes_saved),
        "bytes",
    );

    let ariadne = &pooled[schemes - 1];
    outcome.metric("sim.kills", ariadne.sum(|l| l.kills), "count");
    outcome.metric(
        "mem.zpool.entries",
        ariadne.sum(|l| l.stats.zpool.entries),
        "count",
    );
    outcome.metric(
        "mem.zpool.stores",
        ariadne.sum(|l| l.stats.zpool.stores),
        "count",
    );
    outcome.metric(
        "mem.zpool.removals",
        ariadne.sum(|l| l.stats.zpool.removals),
        "count",
    );
    let zpool_bytes = ariadne.sum(|l| l.stats.zpool.compressed_bytes);
    outcome.metric("mem.zpool.compressed_bytes", zpool_bytes, "bytes");
    let flash_bytes = ariadne.sum(|l| l.stats.flash.bytes_written);
    let physical = ariadne.sum(|l| l.stats.flash.physical_bytes_written);
    outcome.metric("mem.flash.bytes_written", flash_bytes, "bytes");
    let waf = if flash_bytes > 0.0 {
        physical / flash_bytes
    } else {
        1.0
    };
    outcome.metric("mem.flash.waf", waf, "ratio");
    outcome.metric(
        "mem.flash.faults",
        ariadne.sum(|l| l.stats.flash.reads),
        "count",
    );
    outcome.metric(
        "mem.io_stall_ms",
        ariadne.full_ms(|s| s.io_stall_time),
        "ms",
    );
    let p_hits = ariadne.sum(|l| l.stats.predecomp_hits);
    let p_wasted = ariadne.sum(|l| l.stats.predecomp_wasted);
    outcome.metric("core.predecomp.hits", p_hits, "count");
    outcome.metric("core.predecomp.wasted", p_wasted, "count");
    outcome.metric(
        "core.predecomp.hit_ratio",
        ratio(p_hits, p_hits + p_wasted),
        "ratio",
    );
    for (name, activity) in [
        ("core.cpu.compress_ms", CpuActivity::Compression),
        ("core.cpu.decompress_ms", CpuActivity::Decompression),
        ("core.cpu.reclaim_ms", CpuActivity::ReclaimScan),
        ("core.cpu.io_ms", CpuActivity::SwapIo),
    ] {
        outcome.metric(name, ariadne.full_ms(|s| s.cpu.total_for(activity)), "ms");
    }

    let mut blocks: Vec<&[Span]> = traced.iter().map(|r| r.spans.as_slice()).collect();
    blocks.push(&probe_spans);
    write_spans(args, &blocks, &mut outcome);
    outcome
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Time the trace, compress and zram layers directly on the workload's page
/// data: workload generation, page synthesis, the LZO kernel at each chunk
/// size, and the oracle's cold and repeated consultation. Every number comes
/// from the spans around the calls, which are returned.
fn probe_layers(config: SimulationConfig, tracer: &mut Tracer, outcome: &mut Outcome) -> Vec<Span> {
    let mut workloads: Vec<AppWorkload> = Vec::new();
    for _ in 0..3 {
        workloads = tracer.time("trace.workloads", || config.workloads());
    }

    let ctx = SchemeContext::new(config.seed, &workloads);
    let mut page = [0u8; PAGE_SIZE];
    let mut app_bytes: Vec<Vec<u8>> = Vec::new();
    for workload in &workloads {
        let mut bytes = Vec::with_capacity(PROBE_PAGES_PER_APP * PAGE_SIZE);
        for spec in workload.pages.iter().take(PROBE_PAGES_PER_APP) {
            tracer.time("trace.fill_page_bytes", || {
                ctx.fill_page_bytes(spec.page, &mut page)
            });
            bytes.extend_from_slice(black_box(&page));
        }
        app_bytes.push(bytes);
    }
    let probe_bytes: usize = app_bytes.iter().map(Vec::len).sum();

    let mut scratch = Vec::new();
    for (name, chunk_bytes) in LZO_CHUNKS {
        let chunk = ChunkSize::new(chunk_bytes).expect("the chunk sizes of Figure 6 are valid");
        let codec = ChunkedCodec::new(Algorithm::Lzo, chunk);
        let mut bytes_in = 0;
        for bytes in &app_bytes {
            let len = tracer.time(name, || {
                codec.compressed_len_only(black_box(bytes), &mut scratch)
            });
            bytes_in += len.map_or(0, |l| l.original_len);
        }
        outcome.check(bytes_in == probe_bytes, || {
            format!("{name}: compressed {bytes_in} of {probe_bytes} bytes")
        });
    }

    // A fresh context has a cold oracle: the first consultation of a page
    // misses and runs the kernel, the second is served from the cache.
    let ctx = SchemeContext::new(config.seed, &workloads);
    let mut wrong = Vec::new();
    for workload in &workloads {
        for spec in workload.pages.iter().take(PROBE_PAGES_PER_APP) {
            let pages = [spec.page];
            for (name, expect_hit) in [
                ("zram.compress_pages.miss", false),
                ("zram.compress_pages.hit", true),
            ] {
                let result = tracer.time(name, || {
                    ctx.compress_pages(&pages, Algorithm::Lzo, ChunkSize::k4())
                });
                if result.hit != expect_hit {
                    wrong.push(spec.page);
                }
            }
        }
    }
    outcome.check(wrong.is_empty(), || {
        format!("oracle: first consultation hit or repeat missed for {wrong:?}")
    });

    let spans = tracer.take_spans();
    let durations = |name| durations_ms(&spans, name).collect::<Vec<f64>>();
    let mb_per_s = |name| probe_bytes as f64 / 1e3 / durations(name).iter().sum::<f64>();
    outcome.metric(
        "trace.workloads_ms",
        stats::median(&durations("trace.workloads")),
        "ms",
    );
    outcome.metric(
        "trace.fill_mb_per_s",
        mb_per_s("trace.fill_page_bytes"),
        "MB/s",
    );
    for (name, _) in LZO_CHUNKS {
        outcome.metric(format!("{name}.mb_per_s"), mb_per_s(name), "MB/s");
    }
    let median_us = |name| stats::median(&durations(name)) * 1e3;
    outcome.metric(
        "zram.oracle.miss_us",
        median_us("zram.compress_pages.miss"),
        "us",
    );
    outcome.metric(
        "zram.oracle.hit_us",
        median_us("zram.compress_pages.hit"),
        "us",
    );
    spans
}

/// Write every recorded span as JSON lines to
/// `perfbench/out/spans-<workload>-<seed>.jsonl`.
fn write_spans(args: &Args, blocks: &[&[Span]], outcome: &mut Outcome) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans::write_jsonl(blocks, &mut out)?;
        std::io::Write::flush(&mut out)
    });
    outcome.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    let count: usize = blocks.iter().map(|b| b.len()).sum();
    println!("spans {count} written to {}", path.display());
}
