//! The paper's evaluation as one list: every figure, table, ablation and
//! extension driver ([`experiment_set`]), the `--only` selection over it
//! ([`select`]) and the text form the `all_experiments` binary prints
//! ([`render`]). `export_report` dumps one run's full report as JSON.

use oversub::experiments::{self as exp, ExpOpts};
use oversub::metrics::TextTable;
use oversub::ExecEnv;

/// One entry of the full regeneration set: (id, description, driver).
pub type Experiment = (&'static str, &'static str, Box<dyn Fn() -> TextTable>);

/// Every figure, table, ablation, and extension driver, in report order.
/// Each driver batches its own arms onto the sweep pool, so the list
/// itself is iterated sequentially.
pub fn experiment_set(o: ExpOpts) -> Vec<Experiment> {
    vec![
        (
            "Figure 1",
            "oversubscription survey",
            Box::new(move || exp::fig01_survey(o)),
        ),
        (
            "Figure 2",
            "direct cost of context switching",
            Box::new(move || exp::fig02_direct_cost(o)),
        ),
        (
            "Figure 3",
            "synchronization intervals",
            Box::new(exp::fig03_sync_intervals),
        ),
        (
            "Figure 4",
            "indirect cost of context switching (us per CS)",
            Box::new(move || exp::fig04_indirect_cost(o)),
        ),
        (
            "Figure 9",
            "virtual blocking on blocking benchmarks",
            Box::new(move || exp::fig09_vb_blocking(o)),
        ),
        (
            "Figure 10a",
            "VB speedup vs threads (1 core)",
            Box::new(move || exp::fig10a_primitives_threads(o)),
        ),
        (
            "Figure 10b",
            "VB speedup vs cores (32 threads)",
            Box::new(move || exp::fig10b_primitives_cores(o)),
        ),
        (
            "Figure 11",
            "CPU elasticity",
            Box::new(move || exp::fig11_elasticity(o)),
        ),
        (
            "Figure 12",
            "memcached",
            Box::new(move || exp::fig12_memcached(o)),
        ),
        (
            "Figure 13a",
            "spinlocks in a container",
            Box::new(move || exp::fig13_spinlocks(ExecEnv::Container, o)),
        ),
        (
            "Figure 13b",
            "spinlocks in KVM (PLE arm)",
            Box::new(move || exp::fig13_spinlocks(ExecEnv::Vm, o)),
        ),
        (
            "Figure 14",
            "user-customized spinning",
            Box::new(move || exp::fig14_custom_spin(o)),
        ),
        (
            "Figure 15",
            "SHFLLOCK comparison",
            Box::new(move || exp::fig15_shfllock(o)),
        ),
        (
            "Table 1",
            "runtime statistics",
            Box::new(move || exp::table1_runtime_stats(o)),
        ),
        (
            "Table 2",
            "BWD true positives",
            Box::new(move || exp::table2_bwd_tp(o)),
        ),
        (
            "Table 3",
            "BWD false positives",
            Box::new(move || exp::table3_bwd_fp(o)),
        ),
        (
            "Ablation",
            "BWD interval sweep",
            Box::new(move || exp::ablation_bwd_interval(o)),
        ),
        (
            "Ablation",
            "BWD heuristics",
            Box::new(move || exp::ablation_bwd_heuristics(o)),
        ),
        (
            "Ablation",
            "VB auto-disable",
            Box::new(move || exp::ablation_vb_auto_disable(o)),
        ),
        (
            "Ablation",
            "migration-cost sensitivity",
            Box::new(move || exp::ablation_migration_cost(o)),
        ),
        (
            "Ablation",
            "wakeup-path cost sweep",
            Box::new(move || exp::ablation_wakeup_cost(o)),
        ),
        (
            "Extension",
            "pipeline cascade",
            Box::new(move || exp::ext_pipeline_cascade(o)),
        ),
        (
            "Extension",
            "web serving",
            Box::new(move || exp::ext_web_serving(o)),
        ),
        (
            "Extension",
            "dynamic threading vs oversubscription",
            Box::new(move || exp::ext_forkjoin_dynamic_threading(o)),
        ),
        (
            "Extension",
            "neighbour-aware mechanism vs VB/BWD on tail latency",
            Box::new(move || exp::ext_neighbour_tails(o)),
        ),
        (
            "Extension",
            "overload goodput frontier (deadline + retry + shedding)",
            Box::new(move || exp::ext_overload_frontier(o)),
        ),
        (
            "Ablation",
            "huge pages remove the TLB benefit",
            Box::new(move || exp::ablation_hugepages(o)),
        ),
        (
            "Methodology",
            "seed sensitivity",
            Box::new(move || exp::seed_sensitivity(o)),
        ),
    ]
}

/// The entries of `set` that the `--only` ids select, in set order; all
/// of `set` when `only` is empty. An id selects the entries whose id
/// equals it or equals it plus one sub-figure letter, so `Figure 13`
/// selects `Figure 13a` and `Figure 13b` but `Figure 1` does not select
/// `Figure 10a`. An id that selects nothing is an error, and its message
/// lists the ids.
pub fn select(set: Vec<Experiment>, only: &[String]) -> Result<Vec<Experiment>, String> {
    // The rest of the id after `want`: nothing or one sub-figure letter.
    let selects = |want: &str, id: &str| {
        matches!(
            id.strip_prefix(want).map(str::as_bytes),
            Some([] | [b'a'..=b'z'])
        )
    };
    if let Some(unknown) = only
        .iter()
        .find(|o| !set.iter().any(|(id, _, _)| selects(o, id)))
    {
        let mut ids: Vec<&str> = Vec::new();
        for (id, _, _) in &set {
            if !ids.contains(id) {
                ids.push(id);
            }
        }
        return Err(format!(
            "unknown experiment id '{unknown}'; ids: {}",
            ids.join(", ")
        ));
    }
    Ok(set
        .into_iter()
        .filter(|(id, _, _)| only.is_empty() || only.iter().any(|o| selects(o, id)))
        .collect())
}

/// Run `set` and render it as `all_experiments` prints it: for each
/// entry a `==== id: desc` header, its aligned table and a blank line,
/// or with `csv` only the table's CSV.
pub fn render(set: Vec<Experiment>, csv: bool) -> String {
    let mut out = String::new();
    for (id, desc, f) in set {
        let table = f();
        if csv {
            out.push_str(&table.to_csv());
        } else {
            out.push_str(&format!("==== {id}: {desc}\n"));
            out.push_str(&table.render());
            out.push('\n');
        }
    }
    out
}

/// The full experiment set as `all_experiments` prints it at its
/// default flags.
pub fn render_experiment_set(o: ExpOpts) -> String {
    render(experiment_set(o), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oversub::sweep;

    fn selected(only: &[&str]) -> Result<Vec<&'static str>, String> {
        let only: Vec<String> = only.iter().map(|o| o.to_string()).collect();
        select(experiment_set(ExpOpts::quick()), &only)
            .map(|set| set.iter().map(|(id, _, _)| *id).collect())
    }

    #[test]
    fn only_selects_an_id_and_its_sub_figures() {
        assert_eq!(
            selected(&["Figure 13"]),
            Ok(vec!["Figure 13a", "Figure 13b"])
        );
        assert_eq!(selected(&["Figure 10b"]), Ok(vec!["Figure 10b"]));
        assert_eq!(selected(&["Figure 1"]), Ok(vec!["Figure 1"]));
        // Set order, whatever the flag order.
        assert_eq!(
            selected(&["Table 2", "Figure 2"]),
            Ok(vec!["Figure 2", "Table 2"])
        );
        assert_eq!(selected(&["Ablation"]).map(|ids| ids.len()), Ok(6));
        assert_eq!(selected(&[]).map(|ids| ids.len()), Ok(28));
        for unknown in ["Figure 5", "Figure", "figure 1", ""] {
            let err = selected(&["Figure 1", unknown]).unwrap_err();
            assert!(
                err.contains(&format!("'{unknown}'")) && err.contains("Figure 10a, Figure 10b"),
                "{err}"
            );
        }
    }

    /// The whole paper sweep renders the same bytes on one worker as on
    /// four, from a cold run cache each time, and every arm reaches the
    /// pool: 693 runs, 109 cache hits, none uncached. A pool that merged
    /// results in completion order instead of submission order fails it.
    #[test]
    #[ignore = "9 s in release and 60 s in debug on 2 vCPUs; CI runs it in release"]
    fn full_set_is_byte_identical_across_jobs() {
        let pass = |jobs| {
            sweep::reset();
            sweep::set_jobs(jobs);
            let out = render_experiment_set(ExpOpts::quick());
            let s = sweep::stats();
            (
                out,
                (s.pool.jobs, s.cache_hits, s.cache_misses, s.uncached_runs),
            )
        };
        let (sequential, sequential_counts) = pass(1);
        let (parallel, parallel_counts) = pass(4);
        let first_diff = sequential
            .bytes()
            .zip(parallel.bytes())
            .position(|(a, b)| a != b);
        assert_eq!(
            (first_diff, sequential.len()),
            (None, parallel.len()),
            "jobs=1 vs jobs=4: (first differing byte, length)"
        );
        assert_eq!(sequential_counts, (693, 109, 693, 0), "jobs=1");
        assert_eq!(parallel_counts, (693, 109, 693, 0), "jobs=4");
    }
}
