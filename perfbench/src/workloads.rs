//! The named workloads. Each one is built from the invocation's seed;
//! README.md records why each was chosen.

use oversub::experiments::ExpOpts;
use oversub::locks::SpinPolicy;
use oversub::simcore::SimTime;
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::SpinlockStress;
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::{MachineSpec, Mechanisms, RunConfig};

/// Every workload the benchmark runs; BENCHMARK.json lists the same.
pub const NAMES: [&str; 3] = ["tick-512c", "memcached-16T", "spin-bwd-32T"];

/// Builds a fresh simulated workload for one run.
pub type Factory = Box<dyn Fn() -> Box<dyn Workload>>;

/// One simulation configuration, run again and again.
pub struct SingleRun {
    pub name: &'static str,
    pub cfg: RunConfig,
    pub mk: Factory,
}

/// How long each operation simulates: the benchmark's own length, or a
/// tiny one for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Length {
    Full,
    // Only the self-test builds tiny runs.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// The seed a workload uses when none is given.
pub fn default_seed(name: &str) -> u64 {
    if name == "tick-512c" {
        11
    } else {
        42
    }
}

/// The options of the paper-sweep pass the ledger times: the quick scale
/// `sweep_wall` also uses.
pub fn sweep_opts(seed: u64, len: Length) -> ExpOpts {
    let scale = match len {
        Length::Full => ExpOpts::quick().scale,
        Length::Tiny => 0.001,
    };
    ExpOpts { scale, seed }
}

/// The single-run workload called `name`, built from `seed`.
pub fn single_run(name: &str, seed: u64, len: Length) -> Option<SingleRun> {
    let run = match name {
        "tick-512c" => {
            // 8 threads on 512 cores: nearly every event is a BWD tick on
            // an idle core.
            let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
            SingleRun {
                name: "tick-512c",
                cfg: RunConfig::vanilla(512)
                    .with_machine(MachineSpec::PaperN(512))
                    .with_mech(Mechanisms::optimized())
                    .with_seed(seed)
                    .with_max_time(SimTime::from_millis(300)),
                mk: Box::new(move || Box::new(Skeleton::scaled(profile, 8, 0.60).with_salt(seed))),
            }
        }
        "memcached-16T" => {
            // Open-loop clients at 60k ops/s against 16 workers on 8
            // server cores: the futex/epoll wake path and the latency
            // digest.
            let cpus = Memcached::paper(16, 8, 60_000.0).total_cpus();
            SingleRun {
                name: "memcached-16T",
                cfg: RunConfig::vanilla(cpus)
                    .with_mech(Mechanisms::optimized())
                    .with_seed(seed)
                    .with_max_time(SimTime::from_millis(300)),
                mk: Box::new(|| Box::new(Memcached::paper(16, 8, 60_000.0))),
            }
        }
        "spin-bwd-32T" => {
            // 32 ticket-lock threads on 8 cores: every core runs a spinner
            // that BWD has to detect. Runs to completion.
            SingleRun {
                name: "spin-bwd-32T",
                cfg: RunConfig::vanilla(8)
                    .with_machine(MachineSpec::Paper8Cores)
                    .with_mech(Mechanisms::optimized())
                    .with_seed(seed),
                mk: Box::new(|| Box::new(SpinlockStress::fig13(32, SpinPolicy::ticket(), 1600))),
            }
        }
        _ => return None,
    };
    Some(match len {
        Length::Full => run,
        Length::Tiny => SingleRun {
            cfg: run.cfg.with_max_time(SimTime::from_millis(2)),
            ..run
        },
    })
}
