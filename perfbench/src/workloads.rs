//! The benchmark workloads. Each one puts most of the simulator's host time
//! in a different layer; see `README.md` for the map.

use ariadne::core::SizeConfig;
use ariadne::sim::experiments::{lifetime, ExperimentOptions};
use ariadne::sim::{SchemeSpec, SimulationConfig};
use ariadne::trace::{
    AdversarialMix, AppName, DeviceClass, ScenarioBuilder, ScenarioEvent, TimedScenario,
};

/// Relaunch rounds of the two cycles: ten apps per round, so Ariadne
/// measures 100 relaunches per simulation, enough for a 90th percentile
/// with ten samples beyond it.
pub const CYCLE_ROUNDS: usize = 10;

/// Share of the resident anonymous bytes each pressure spike of the two
/// cycles reclaims.
pub const CYCLE_PRESSURE_PERCENT: u8 = 45;

/// Simulated hours of the kill soak: eight measured relaunches an hour, so
/// 13 hours give 104 per simulation.
pub const SOAK_HOURS: u64 = 13;

/// Independent simulations per workload, each with its own seed derived
/// from the benchmark seed. Pooling them keeps the simulated metrics of one
/// run close to those of another seed: a single kill soak's relaunch
/// percentiles swing by tens of percent from seed to seed.
pub const SUB_SEEDS: usize = 3;

/// The seed of simulation `part` (below [`SUB_SEEDS`]) of benchmark seed
/// `seed`. Distinct for distinct `(seed, part)` pairs while `seed` stays
/// below 2^62.
#[must_use]
pub fn sub_seed(seed: u64, part: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add(part as u64)
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Launch all ten apps on the flagship, then relaunch them round-robin
    /// under pressure: the codec-dominated regime of Figures 10 and 11.
    RelaunchCycle,
    /// Hours of hog-then-exit churn on the 2 GB eMMC device with lmkd
    /// armed: oracle hits, events, flash and kills.
    KillSoak,
    /// The relaunch cycle with every app's pages incompressible: the codec
    /// finds no matches and Ariadne's zpool overflows to flash.
    IncompressibleCycle,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RelaunchCycle,
        Workload::KillSoak,
        Workload::IncompressibleCycle,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RelaunchCycle => "relaunch_cycle",
            Workload::KillSoak => "kill_soak",
            Workload::IncompressibleCycle => "incompressible_cycle",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulation configuration for simulation seed `seed` (see
    /// [`sub_seed`]).
    #[must_use]
    pub fn config(self, seed: u64) -> SimulationConfig {
        match self {
            Workload::RelaunchCycle => SimulationConfig::new(seed),
            Workload::IncompressibleCycle => SimulationConfig::new(seed)
                .with_incompressible(AdversarialMix::Incompressible.incompressible_apps()),
            Workload::KillSoak => lifetime::cell_config(
                &ExperimentOptions {
                    seed,
                    ..ExperimentOptions::full()
                },
                DeviceClass::Entry2Gb,
                AdversarialMix::HogChurn,
            ),
        }
    }

    /// The schemes run, baseline first. The last is Ariadne, whose
    /// simulated numbers are the gated ones.
    #[must_use]
    pub fn schemes(self) -> [SchemeSpec; 2] {
        let ariadne = SchemeSpec::ariadne_ehl(SizeConfig::k1_k2_k16());
        match self {
            Workload::RelaunchCycle | Workload::IncompressibleCycle => [SchemeSpec::Zram, ariadne],
            Workload::KillSoak => [SchemeSpec::Zswap, ariadne],
        }
    }

    /// The event stream, which `config` fills with `seed`'s page data.
    #[must_use]
    pub fn scenario(self, config: &SimulationConfig) -> TimedScenario {
        match self {
            Workload::RelaunchCycle | Workload::IncompressibleCycle => {
                relaunch_cycle(config.relaunches)
            }
            Workload::KillSoak => TimedScenario::lifetime(AdversarialMix::HogChurn, SOAK_HOURS),
        }
    }
}

/// Launch every app, then relaunch them round-robin, each relaunch landing
/// with a pressure spike and cycling through the `relaunches` traces every
/// workload carries.
fn relaunch_cycle(relaunches: usize) -> TimedScenario {
    let mut builder = ScenarioBuilder::new("relaunch_cycle");
    for app in AppName::ALL {
        builder = builder
            .launch(app)
            .after_millis(100)
            .background(app)
            .after_millis(100);
    }
    for round in 0..CYCLE_ROUNDS {
        for app in AppName::ALL {
            builder = builder
                .relaunch_under_pressure(app, round % relaunches.max(1), CYCLE_PRESSURE_PERCENT)
                .after_millis(200)
                .background(app)
                .after_millis(100);
        }
    }
    builder.with_background_drains().build()
}

/// Number of `Launch` events in `scenario`: each is a process start.
#[must_use]
pub fn launches(scenario: &TimedScenario) -> usize {
    scenario
        .events
        .iter()
        .filter(|timed| matches!(timed.event, ScenarioEvent::Launch(_)))
        .count()
}
