//! Experiment drivers: one function per figure and table of the paper.
//!
//! Each driver runs the required simulation arms and renders the same rows
//! or series the paper reports as a [`oversub_metrics::TextTable`] (also
//! exportable as CSV). `oversub_bench::experiment_set` lists them all, and
//! its `all_experiments` binary prints them.
//!
//! All drivers accept an [`ExpOpts`] whose `scale` shrinks per-run phase
//! counts proportionally in every arm — relative results are preserved
//! while quick runs finish in seconds.
//!
//! Layout: `figures` holds the per-figure drivers, `tables` the paper's
//! tables, and `ablations` the sweeps and extensions beyond the paper.
//! Everything is re-exported here, so callers keep using
//! `experiments::fig09_vb_blocking` etc.

mod ablations;
mod figures;
mod tables;

pub use ablations::{
    ablation_bwd_heuristics, ablation_bwd_interval, ablation_hugepages, ablation_migration_cost,
    ablation_vb_auto_disable, ablation_wakeup_cost, ext_forkjoin_dynamic_threading,
    ext_neighbour_tails, ext_overload_frontier, ext_pipeline_cascade, ext_web_serving,
    multi_seed_makespan, seed_sensitivity,
};
pub use figures::{
    fig01_survey, fig02_direct_cost, fig03_sync_intervals, fig04_indirect_cost, fig09_vb_blocking,
    fig10a_primitives_threads, fig10b_primitives_cores, fig11_elasticity, fig12_memcached,
    fig13_spinlocks, fig14_custom_spin, fig15_shfllock,
};
pub use tables::{table1_runtime_stats, table2_bwd_tp, table3_bwd_fp};

use crate::config::{MachineSpec, Mechanisms, RunConfig};
use crate::sweep::Sweep;
use oversub_metrics::RunReport;
use oversub_workloads::skeletons::{BenchProfile, Skeleton};

/// Options shared by all experiment drivers.
#[derive(Clone, Copy, Debug)]
pub struct ExpOpts {
    /// Phase-count scale (1.0 = paper-sized runs).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExpOpts {
    /// Fast runs for CI / smoke testing.
    pub fn quick() -> Self {
        ExpOpts {
            scale: 0.08,
            seed: 42,
        }
    }

    /// Full-sized runs for the bench harness.
    pub fn full() -> Self {
        ExpOpts {
            scale: 0.5,
            seed: 42,
        }
    }
}

/// Submit one benchmark-skeleton arm (the paper's 8-core container shape)
/// to a [`Sweep`] batch; returns the arm's result index.
pub fn submit_skeleton(
    sweep: &mut Sweep,
    name: &str,
    threads: usize,
    machine: MachineSpec,
    mech: Mechanisms,
    opts: ExpOpts,
) -> usize {
    let profile = BenchProfile::by_name(name).expect("known benchmark");
    let cfg = RunConfig::vanilla(8)
        .with_machine(machine)
        .with_mech(mech)
        .with_seed(opts.seed);
    let scale = opts.scale;
    let salt = opts.seed;
    sweep.add(format!("{name}/{threads}T"), cfg, move || {
        Box::new(Skeleton::scaled(profile, threads, scale).with_salt(salt))
    })
}

/// Run a benchmark skeleton on the paper's 8-core container (4+4 across
/// two sockets) with the given thread count and mechanisms.
pub fn run_skeleton(
    name: &str,
    threads: usize,
    machine: MachineSpec,
    mech: Mechanisms,
    opts: ExpOpts,
) -> RunReport {
    let mut sweep = Sweep::new();
    submit_skeleton(&mut sweep, name, threads, machine, mech, opts);
    sweep
        .run()
        .pop()
        .expect("single-arm sweep yields one report")
}

/// Submit the arms shared by Figure 9 and Table 1 on one machine shape;
/// returns the (8T vanilla, 32T vanilla, 32T optimized) result indices.
pub(super) fn fig09_submit(
    sweep: &mut Sweep,
    name: &str,
    machine: MachineSpec,
    opts: ExpOpts,
) -> (usize, usize, usize) {
    let base = submit_skeleton(sweep, name, 8, machine.clone(), Mechanisms::vanilla(), opts);
    let over = submit_skeleton(
        sweep,
        name,
        32,
        machine.clone(),
        Mechanisms::vanilla(),
        opts,
    );
    let opt = submit_skeleton(sweep, name, 32, machine, Mechanisms::optimized(), opts);
    (base, over, opt)
}

pub(super) fn fmt_x(v: f64) -> String {
    format!("{v:.2}")
}

pub(super) fn fmt_s(r: &RunReport) -> String {
    format!("{:.3}", r.makespan_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOpts {
        ExpOpts {
            scale: 0.02,
            seed: 7,
        }
    }

    #[test]
    fn fig03_counts_all_benchmarks() {
        let t = fig03_sync_intervals();
        assert_eq!(t.len(), 11);
        let total: usize = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn fig02_is_flat() {
        let t = fig02_direct_cost(tiny());
        assert_eq!(t.len(), 8);
        // Direct CS cost must stay within a few percent at any thread
        // count (the paper's 0.2% claim; we allow slack on tiny runs).
        for line in t.to_csv().lines().skip(1) {
            let v: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!((0.9..=1.1).contains(&v), "fig2 not flat: {line}");
        }
    }

    #[test]
    fn table2_sensitivity_is_high() {
        let t = table2_bwd_tp(tiny());
        assert_eq!(t.len(), 10);
        for line in t.to_csv().lines().skip(1) {
            let sens: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert!(sens > 80.0, "sensitivity too low: {line}");
        }
    }
}
