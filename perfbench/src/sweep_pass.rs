//! The paper sweep's part of the per-layer ledger: one full pass over the
//! experiment set on the sweep pool, timed driver by driver.

use std::hint::black_box;
use std::time::Instant;

use oversub::experiments::ExpOpts;
use oversub::sweep;
use oversub_bench::experiment_set;

use crate::output::{ratio, Metrics};

/// Short metric names for the entries of the experiment set, keyed by
/// their descriptions (which are unique; the ids are not).
const SLUGS: &[(&str, &str)] = &[
    ("oversubscription survey", "fig01"),
    ("direct cost of context switching", "fig02"),
    ("synchronization intervals", "fig03"),
    ("indirect cost of context switching (us per CS)", "fig04"),
    ("virtual blocking on blocking benchmarks", "fig09"),
    ("VB speedup vs threads (1 core)", "fig10a"),
    ("VB speedup vs cores (32 threads)", "fig10b"),
    ("CPU elasticity", "fig11"),
    ("memcached", "fig12"),
    ("spinlocks in a container", "fig13a"),
    ("spinlocks in KVM (PLE arm)", "fig13b"),
    ("user-customized spinning", "fig14"),
    ("SHFLLOCK comparison", "fig15"),
    ("runtime statistics", "table1"),
    ("BWD true positives", "table2"),
    ("BWD false positives", "table3"),
    ("BWD interval sweep", "ablation_bwd_interval"),
    ("BWD heuristics", "ablation_bwd_heuristics"),
    ("VB auto-disable", "ablation_vb_auto_disable"),
    ("migration-cost sensitivity", "ablation_migration_cost"),
    ("wakeup-path cost sweep", "ablation_wakeup_cost"),
    ("pipeline cascade", "ext_pipeline_cascade"),
    ("web serving", "ext_web_serving"),
    ("dynamic threading vs oversubscription", "ext_forkjoin"),
    (
        "neighbour-aware mechanism vs VB/BWD on tail latency",
        "ext_neighbour_tails",
    ),
    (
        "overload goodput frontier (deadline + retry + shedding)",
        "ext_overload_frontier",
    ),
    ("huge pages remove the TLB benefit", "ablation_hugepages"),
    ("seed sensitivity", "seed_sensitivity"),
];

/// The metric slug of the experiment described as `desc`.
pub fn slug(desc: &str) -> Result<&'static str, String> {
    SLUGS
        .iter()
        .find(|(d, _)| *d == desc)
        .map(|(_, s)| *s)
        .ok_or_else(|| format!("experiment '{desc}' has no metric name in perfbench"))
}

/// Workers per pass: two, or fewer on a smaller host.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// One pass from a cold run cache, timed driver by driver, then the
/// sweep's counters.
pub fn sweep_ledger(o: ExpOpts, m: &mut Metrics) -> Result<(), String> {
    sweep::reset();
    sweep::set_jobs(jobs());
    let mut per_driver = Vec::new();
    for (_, desc, driver) in experiment_set(o) {
        let name = slug(desc)?;
        let t0 = Instant::now();
        black_box(driver().render());
        per_driver.push((name, t0.elapsed().as_secs_f64()));
    }
    let s = sweep::stats();
    m.push("sweep.cache_hits", s.cache_hits as f64, "count");
    m.push("sweep.cache_misses", s.cache_misses as f64, "count");
    m.push("sweep.uncached_runs", s.uncached_runs as f64, "count");
    m.push("sweep.pool_jobs", s.pool.jobs as f64, "count");
    m.push(
        "sweep.pool_utilization",
        ratio(
            s.pool.busy_ns as f64,
            s.pool.wall_ns as f64 * s.pool.workers as f64,
        ),
        "ratio",
    );
    for (name, wall_s) in per_driver {
        m.push(format!("experiments.{name}_ms"), wall_s * 1e3, "ms");
    }
    Ok(())
}
