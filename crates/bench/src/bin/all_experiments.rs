//! Regenerate the paper's figures and tables, the ablations and the
//! extensions: every entry of [`oversub_bench::experiment_set`], or those
//! that `--only <id>` (repeatable) selects. An id selects itself plus
//! sub-figure letters (`--only 'Figure 13'` prints 13a and 13b); an
//! unknown id exits 2 and lists the ids. `--scale` sets the run size
//! (default 0.25, `--quick` 0.08, `--full` 1.0), `--jobs` the sweep
//! workers (default `OVERSUB_JOBS` or the host's parallelism; the output
//! is byte-identical at any count), and `--csv` prints each table as CSV
//! without its header.
use oversub::experiments::ExpOpts;
use oversub_bench::{experiment_set, render, select};

const USAGE: &str =
    "usage: all_experiments [--only ID]... [--scale F] [--seed N] [--jobs N] [--csv] [--quick] [--full]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut opts = ExpOpts {
        scale: 0.25,
        seed: 42,
    };
    let mut csv = false;
    let mut only = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--only" => only.push(it.next().unwrap_or_else(|| fail("--only needs an id"))),
            "--scale" => {
                opts.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--scale needs a float"));
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--seed needs an integer"));
            }
            "--jobs" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail("--jobs needs a positive integer"));
                oversub::sweep::set_jobs(n);
            }
            "--csv" => csv = true,
            "--quick" => opts.scale = 0.08,
            "--full" => opts.scale = 1.0,
            other => fail(&format!("unknown argument: {other}")),
        }
    }
    let set = select(experiment_set(opts), &only).unwrap_or_else(|e| fail(&e));
    print!("{}", render(set, csv));
    let s = oversub::sweep::stats();
    eprintln!(
        "[sweep] jobs={} pool-jobs={} cache-hits={} cache-misses={} uncached={} utilization={}.{:03}",
        oversub::sweep::jobs(),
        s.pool.jobs,
        s.cache_hits,
        s.cache_misses,
        s.uncached_runs,
        s.pool.utilization_milli() / 1000,
        s.pool.utilization_milli() % 1000,
    );
}
