//! perfbench: the simulator's end-to-end benchmark and per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tick-512c|memcached-16T|spin-bwd-32T> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation measures one workload for `--seconds` of closed-loop
//! operations (one simulated run after another), checks every operation's
//! output, and prints a readable summary followed by one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. README.md beside this file defines every metric and
//! workload.

mod alloc;
mod check;
mod layers;
mod output;
mod single;
mod sweep_pass;
mod workloads;

use output::{Metrics, Outcome};
use workloads::Length;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Timed operations each invocation makes at the least, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// Environment variables the engine or the sweep read that would change
/// what is measured: the reference engine, per-event tracing and audits,
/// intra-run sharding, and the run cache of the ledger's sweep pass.
const ENGINE_ENV: [&str; 6] = [
    "OVERSUB_REFERENCE_ENGINE",
    "OVERSUB_TRACE",
    "OVERSUB_CHECK",
    "OVERSUB_TRACE_CPU",
    "OVERSUB_SHARDS",
    "OVERSUB_RUN_CACHE",
];

const USAGE: &str = "usage: perfbench --workload <tick-512c|memcached-16T|spin-bwd-32T> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}'"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| workloads::default_seed(&workload));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Measure one workload: the timed operations, then either the end-to-end
/// metrics or the per-layer ledger.
fn bench(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    len: Length,
) -> Result<Outcome, String> {
    let run = workloads::single_run(workload, seed, len)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut out = Outcome::default();
    let stats = single::timed_runs(&run, seconds, MIN_REPS, &mut out)?;
    let mut m = Metrics::default();
    if !trace {
        single::end_to_end(&stats, &mut m);
    } else {
        single::engine_ledger(&run, &stats, &mut m);
        layers::probes(seed, &stats.reference, &mut m);
        sweep_pass::sweep_ledger(workloads::sweep_opts(seed, len), &mut m)?;
        push_harness(&stats.walls_s, &mut m);
    }
    out.metrics = m;
    Ok(out)
}

/// Host-noise figures of the timed loop, reported beside the ledger.
fn push_harness(walls_s: &[f64], m: &mut Metrics) {
    m.push("harness.wall_ms_p50", output::median(walls_s) * 1e3, "ms");
    m.push(
        "harness.wall_ms_p90",
        output::quantile(walls_s, 0.9) * 1e3,
        "ms",
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} engine=optimized shards=1 \
         host_cpus={} sweep_jobs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sweep_pass::jobs(),
    );
    // Runs nothing else yet, so no other thread reads the environment.
    for var in ENGINE_ENV {
        if std::env::var_os(var).is_some() {
            println!("perfbench: ignoring {var}: it would change what is measured");
            std::env::remove_var(var);
        }
    }
    let out = match bench(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Length::Full,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for metric in &out.metrics.0 {
        println!("  {:<36} {:>16} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "operations: {} attempted, {} failed (share {})",
        out.attempted,
        out.failed,
        output::ratio(out.failed as f64, out.attempted as f64)
    );
    if let Some(why) = &out.first_failure {
        println!("first failure: {why}");
    }
    println!("{}", out.to_json_line());
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use oversub::run_counted;

    use super::*;
    use crate::check::{check_invariants, check_json};

    /// The sweep's run cache and its counters are process-wide, so tests
    /// that run the simulator take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every entry of one list in BENCHMARK.json, which
    /// holds one entry per line.
    fn listed(section: &str) -> Vec<(String, String)> {
        let start = SPEC
            .find(&format!("\"{section}\""))
            .expect("section is present");
        let body = &SPEC[start..];
        let body = &body[..body.find(']').expect("section ends")];
        let field = |line: &str, key: &str| {
            let tag = format!("\"{key}\": \"");
            line.find(&tag).map(|i| {
                let rest = &line[i + tag.len()..];
                rest[..rest.find('"').expect("quoted value")].to_string()
            })
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
            .collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload tick-512c --seed 5 --seconds 2 --trace 1"),
            Ok(Args {
                workload: "tick-512c".into(),
                seed: 5,
                seconds: 2.0,
                trace: true,
            })
        );
        assert_eq!(parse("--workload memcached-16T").map(|a| a.seed), Ok(42));
        assert_eq!(parse("--workload tick-512c").map(|a| a.seed), Ok(11));
        for bad in [
            "",
            "--workload nope",
            "--workload paper-sweep",
            "--workload tick-512c --trace 2",
            "--workload tick-512c --seconds -1",
            "--workload tick-512c --seed",
            "--workload tick-512c --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn every_workload_emits_every_listed_metric_with_its_unit() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        for (name, _) in listed("workloads") {
            assert!(workloads::NAMES.contains(&name.as_str()), "{name}");
        }
        for workload in workloads::NAMES {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let seed = workloads::default_seed(workload);
                let out =
                    bench(workload, seed, 0.0, trace, Length::Tiny).expect("the benchmark runs");
                assert!(out.correct(), "{workload}: {:?}", out.first_failure);
                assert!(out.attempted >= MIN_REPS as u64);
                let got: Vec<(String, String)> = out
                    .metrics
                    .0
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, listed(section), "{workload} trace={trace}");
                for m in &out.metrics.0 {
                    assert!(m.value.is_finite() && m.value >= 0.0, "{workload}: {m:?}");
                }
                if !trace {
                    for m in &out.metrics.0 {
                        assert!(m.value > 0.0, "{workload}: end-to-end {m:?} is zero");
                    }
                }
            }
        }
    }

    #[test]
    fn a_corrupted_report_is_a_failed_operation() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let run = workloads::single_run("memcached-16T", 42, Length::Tiny).expect("known workload");
        let mut wl = (run.mk)();
        let (report, _) = run_counted(&mut *wl, &run.cfg, run.name);
        assert!(report.completed_ops > 0, "the tiny run serves requests");
        let reference = report.to_json();

        let mut miscounted = report.clone();
        miscounted.completed_ops += 1;
        let mut drifted = report.clone();
        drifted.makespan_ns += 1;
        let mut broken = report.clone();
        broken.diagnostics.push(oversub::Diagnostic {
            kind: "event-order".into(),
            ..Default::default()
        });

        let check = |r: &oversub::RunReport| {
            check_invariants(r).and_then(|()| check_json(&r.to_json(), &reference))
        };
        let mut out = Outcome::default();
        for r in [&report, &miscounted, &drifted, &broken] {
            out.record(check(r));
        }
        assert_eq!((out.attempted, out.failed), (4, 3));
        assert!(!out.correct());
        assert!(out
            .to_json_line()
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 3,"));
    }
}
