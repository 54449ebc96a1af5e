//! Tickless idle against the ticking reference engine.
//!
//! The optimized engine lets an idle core's BWD tick lapse, settles the
//! skipped ticks in closed form when the core is next touched, and
//! re-arms the tick when a task starts there (DESIGN.md §14.4). The
//! reference engine keeps every tick. Every run here is made on both
//! engines and their canonical report JSON must match byte for byte.
//!
//! - The constructed-tie tests land an event on the exact nanosecond of
//!   an idle core's cadence point, where only the tie rule decides
//!   whether the tick at that instant counts. Each searches for its
//!   timing first and asserts it was hit, so it cannot pass vacuously.
//! - The differential sweep covers workload families that keep waking
//!   idle cores, plus PAUSE-loop spinners in a VM, whose PLE spin exits
//!   live in re-armable timer slots (DESIGN.md §14.6).
//!   `differential_sweep_heavy` is the long version
//!   (`cargo test --release --test tickless -- --ignored`, about a minute).

use oversub::hw::CpuId;
use oversub::locks::SpinPolicy;
use oversub::simcore::SimTime;
use oversub::task::{Action, ScriptProgram, SyncOp};
use oversub::trace::TraceKind;
use oversub::workload::{ThreadSpec, Workload, WorldBuilder};
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::{Primitive, PrimitiveStress, SpinlockStress};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::workloads::webserving::WebServing;
use oversub::{
    run_counted, run_traced, ElasticEvent, MachineSpec, Mechanisms, RunConfig, RunReport,
};

/// The BWD tick interval and a core's phase (`cpu · 7,919 ns`, as the
/// engine staggers them): CPU `c` ticks at `INTERVAL + phase + k·INTERVAL`.
const INTERVAL: u64 = 100_000;

fn is_cadence_point(cpu: u64, t: u64) -> bool {
    t % INTERVAL == (cpu * 7_919) % INTERVAL
}

/// Run `mk()` on both engines and assert byte-identical reports. Returns
/// the optimized report and the `(optimized, reference)` event counts.
fn assert_same(
    mut mk: impl FnMut() -> Box<dyn Workload>,
    cfg: &RunConfig,
    label: &str,
) -> (RunReport, u64, u64) {
    let (opt, opt_events) =
        run_counted(&mut *mk(), &cfg.clone().with_reference_engine(false), label);
    let (reference, ref_events) =
        run_counted(&mut *mk(), &cfg.clone().with_reference_engine(true), label);
    assert_eq!(
        opt.to_json(),
        reference.to_json(),
        "{label}: optimized engine diverged from reference"
    );
    assert!(
        opt_events <= ref_events,
        "{label}: optimized engine popped more events ({opt_events} > {ref_events})"
    );
    (opt, opt_events, ref_events)
}

// ---------------------------------------------------------------------
// Constructed ties
// ---------------------------------------------------------------------

/// Two pinned tasks on a 2-CPU machine. Task 0 (CPU 0) computes `a_ns`;
/// with `wake = Some((tail_ns, b_ns))` it then posts a semaphore and
/// computes `tail_ns` more. Task 1 (CPU 1, only with `wake`) blocks on
/// that semaphore at start, so CPU 1 idles and its tick lapses until the
/// post wakes it; it then computes `b_ns` and exits.
#[derive(Clone, Copy, Debug)]
struct Duo {
    a_ns: u64,
    wake: Option<(u64, u64)>,
}

impl Workload for Duo {
    fn name(&self) -> &str {
        "duo"
    }

    fn build(&mut self, w: &mut WorldBuilder) {
        let sem = w.semaphore(0);
        let mut a = vec![Action::Compute { ns: self.a_ns }];
        if let Some((tail_ns, b_ns)) = self.wake {
            a.push(Action::Sync(SyncOp::SemPost(sem)));
            a.push(Action::Compute { ns: tail_ns });
            let b = vec![
                Action::Sync(SyncOp::SemWait(sem)),
                Action::Compute { ns: b_ns },
            ];
            w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(a))).pinned_to(CpuId(0)));
            w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(b))).pinned_to(CpuId(1)));
        } else {
            w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(a))).pinned_to(CpuId(0)));
        }
    }
}

fn duo_cfg() -> RunConfig {
    RunConfig::vanilla(2)
        .with_machine(MachineSpec::PaperN(2))
        .with_mech(Mechanisms::bwd_only())
        .with_seed(3)
}

/// `(makespan, start time of task 1's second stint on CPU 1)` of a
/// traced optimized run.
fn duo_timeline(duo: Duo) -> (u64, Option<u64>) {
    let cfg = duo_cfg().traced();
    let (report, trace) = run_traced(&mut duo.clone(), &cfg);
    let wake = trace
        .events()
        .filter(|e| e.cpu == 1 && e.task.0 == 1 && e.kind == TraceKind::Run)
        .map(|e| e.at.as_nanos())
        .nth(1);
    (report.makespan_ns, wake)
}

/// Find `x` with `f(x) == target`, for an `f` that moves one for one
/// with `x` except at rare steps: re-aim at the residual a few times.
fn solve(target: u64, mut x: u64, f: impl Fn(u64) -> u64) -> u64 {
    for _ in 0..6 {
        let got = f(x);
        if got == target {
            return x;
        }
        x = (x + target).checked_sub(got).expect("target out of reach");
    }
    panic!("no input lands exactly on {target}");
}

/// The run ends exactly on an idle CPU's cadence point: the final exit
/// on CPU 0 pops at a time where CPU 1's lapsed tick is also due.
#[test]
fn run_ending_on_an_idle_cadence_point_matches_reference() {
    for target in [507_919, 707_919] {
        assert!(is_cadence_point(1, target));
        let a_ns = solve(target, target - 3_000, |a_ns| {
            duo_timeline(Duo { a_ns, wake: None }).0
        });
        for a_ns in a_ns - 1..=a_ns + 1 {
            let duo = Duo { a_ns, wake: None };
            let (_, opt_events, ref_events) =
                assert_same(|| Box::new(duo), &duo_cfg(), "duo/exit-on-cadence");
            assert!(opt_events < ref_events, "CPU 1's tick never lapsed");
        }
        assert_eq!(duo_timeline(Duo { a_ns, wake: None }).0, target);
    }
}

/// A task starts on a CPU whose tick has lapsed, at exactly that CPU's
/// cadence point: the settle at the wake decides whether the tick at that
/// instant came first.
#[test]
fn task_start_on_a_dormant_cadence_point_matches_reference() {
    for target in [407_919, 507_919] {
        let shape = |a_ns| Duo {
            a_ns,
            wake: Some((20_000, 30_000)),
        };
        let a_ns = solve(target, target - 5_000, |a_ns| {
            duo_timeline(shape(a_ns)).1.expect("task 1 never woke")
        });
        for a_ns in a_ns - 1..=a_ns + 1 {
            let duo = shape(a_ns);
            let (_, opt_events, ref_events) =
                assert_same(|| Box::new(duo), &duo_cfg(), "duo/start-on-cadence");
            assert!(opt_events < ref_events, "CPU 1's tick never lapsed");
        }
        assert_eq!(duo_timeline(shape(a_ns)).1, Some(target));
    }
}

/// An event was queued for exactly the cadence point at which a woken
/// CPU's tick is re-armed, before the wake: task 0's exit is scheduled
/// for 507,919 ns, then task 1 wakes on CPU 1 just after 500,000 ns and
/// exits again before 507,919 ns. The re-armed tick must pop before the
/// exit, as the ticking engine's tick (drawn at 407,919 ns) does; a
/// re-arm keyed at the wake would pop after it and lose the tick.
#[test]
fn event_queued_for_the_rearmed_cadence_point_matches_reference() {
    let target = 507_919;
    let wake_at = 503_000;
    let a_ns = solve(wake_at, wake_at - 5_000, |a_ns| {
        duo_timeline(Duo {
            a_ns,
            wake: Some((5_000, 1_000)),
        })
        .1
        .expect("task 1 never woke")
    });
    let shape = |tail_ns| Duo {
        a_ns,
        wake: Some((tail_ns, 1_000)),
    };
    let tail_ns = solve(target, 4_000, |tail_ns| duo_timeline(shape(tail_ns)).0);
    let (makespan, wake) = duo_timeline(shape(tail_ns));
    assert_eq!(makespan, target);
    let wake = wake.expect("task 1 never woke");
    assert!(
        (500_000..target - 1_500).contains(&wake),
        "wake at {wake} is not between CPU 0's last tick and the exit"
    );
    for tail_ns in tail_ns - 1..=tail_ns + 1 {
        let duo = shape(tail_ns);
        assert_same(|| Box::new(duo), &duo_cfg(), "duo/queued-for-rearm");
    }
}

/// Elastic events are scheduled at construction, so one due at an idle
/// CPU's cadence point pops before that CPU's tick. Taking CPU 3 offline
/// exactly there must not count the tick, which the ticking engine takes
/// as a no-op on an offline CPU; bringing it back exactly on its next
/// cadence point must not lose one either.
#[test]
fn elastic_event_on_a_dormant_cadence_point_matches_reference() {
    let shrink = 523_757;
    let grow = 823_757;
    assert!(is_cadence_point(3, shrink) && is_cadence_point(3, grow));
    let mut cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_mech(Mechanisms::bwd_only())
        .with_seed(3);
    cfg.elastic = vec![
        ElasticEvent {
            at: SimTime::from_nanos(shrink),
            cores: 2,
        },
        ElasticEvent {
            at: SimTime::from_nanos(grow),
            cores: 4,
        },
    ];
    let duo = Duo {
        a_ns: 1_500_000,
        wake: None,
    };
    let (report, opt_events, ref_events) =
        assert_same(|| Box::new(duo), &cfg, "duo/elastic-on-cadence");
    assert!(opt_events < ref_events, "no tick ever lapsed");
    assert!(report.makespan_ns > grow);
}

/// A max-time stop exactly on an idle CPU's cadence point: nothing due
/// at the cap pops, so the tick there must not be counted.
#[test]
fn max_time_stop_on_a_dormant_cadence_point_matches_reference() {
    let cap = 507_919;
    assert!(is_cadence_point(1, cap));
    let cfg = duo_cfg().with_max_time(SimTime::from_nanos(cap));
    let duo = Duo {
        a_ns: 1_000_000,
        wake: None,
    };
    let (report, opt_events, ref_events) =
        assert_same(|| Box::new(duo), &cfg, "duo/stop-on-cadence");
    assert!(opt_events < ref_events, "CPU 1's tick never lapsed");
    assert_eq!(report.makespan_ns, cap);
}

// ---------------------------------------------------------------------
// Differential sweep
// ---------------------------------------------------------------------

/// One sweep scale: the differential sweep's families at a given length.
struct Scale {
    seeds: std::ops::Range<u64>,
    skeleton_phase: f64,
    skeleton_ms: u64,
    server_ms: u64,
    spin_policies: usize,
    spin_iters: usize,
    primitive_rounds: usize,
}

fn differential_sweep(s: &Scale) {
    for seed in s.seeds.clone() {
        // Every skeleton profile, 8 threads on 64 mostly idle CPUs: tasks
        // keep waking lapsed cores at barriers and joins.
        for p in BenchProfile::all() {
            let cfg = RunConfig::vanilla(64)
                .with_machine(MachineSpec::PaperN(64))
                .with_mech(Mechanisms::optimized())
                .with_seed(seed)
                .with_max_time(SimTime::from_millis(s.skeleton_ms));
            let label = format!("skeleton/{}/8T/64c/seed{seed}", p.name);
            let (_, opt, reference) = assert_same(
                || Box::new(Skeleton::scaled(p, 8, s.skeleton_phase).with_salt(seed)),
                &cfg,
                &label,
            );
            assert!(opt < reference, "{label}: no tick ever lapsed");
        }
        // Memcached at three shapes: few workers on spare cores, the
        // paper's shape, and oversubscribed.
        for (workers, cores, rate) in [(4, 8, 20_000.0), (16, 8, 40_000.0), (32, 4, 60_000.0)] {
            let cpus = Memcached::paper(workers, cores, rate).total_cpus();
            let cfg = RunConfig::vanilla(cpus)
                .with_mech(Mechanisms::optimized())
                .with_seed(seed)
                .with_max_time(SimTime::from_millis(s.server_ms));
            assert_same(
                || Box::new(Memcached::paper(workers, cores, rate)),
                &cfg,
                &format!("memcached/{workers}T/{cores}c/seed{seed}"),
            );
        }
        // Web serving with elastic events on CPU 0's cadence points
        // (phase 0, so every multiple of 100 µs).
        let cpus = WebServing::new(24, 8, 50_000.0).total_cpus();
        let mut cfg = RunConfig::vanilla(cpus)
            .with_mech(Mechanisms::optimized())
            .with_seed(seed)
            .with_max_time(SimTime::from_millis(s.server_ms));
        let at =
            |k: u64| SimTime::from_nanos(k * s.server_ms * 1_000_000 / 5 / INTERVAL * INTERVAL);
        cfg.elastic = vec![
            ElasticEvent {
                at: at(1),
                cores: 3,
            },
            ElasticEvent {
                at: at(2),
                cores: 8,
            },
            ElasticEvent {
                at: at(3),
                cores: 5,
            },
        ];
        assert_same(
            || Box::new(WebServing::new(24, 8, 50_000.0)),
            &cfg,
            &format!("web/24T/8c/elastic/seed{seed}"),
        );
        // Spin-lock and primitive stress with spare cores.
        for (threads, cpus) in [(2, 4), (4, 8), (6, 16), (3, 64)] {
            for policy in SpinPolicy::all().into_iter().take(s.spin_policies) {
                let cfg = RunConfig::vanilla(cpus)
                    .with_machine(MachineSpec::PaperN(cpus))
                    .with_mech(Mechanisms::optimized())
                    .with_seed(seed);
                assert_same(
                    || Box::new(SpinlockStress::fig13(threads, policy, s.spin_iters)),
                    &cfg,
                    &format!("spin/{}/{threads}T/{cpus}c/seed{seed}", policy.name),
                );
            }
            for prim in [Primitive::Mutex, Primitive::Cond, Primitive::Barrier] {
                let cfg = RunConfig::vanilla(cpus)
                    .with_machine(MachineSpec::PaperN(cpus))
                    .with_mech(Mechanisms::optimized())
                    .with_seed(seed);
                assert_same(
                    || {
                        Box::new(PrimitiveStress::new(
                            threads,
                            s.primitive_rounds,
                            prim,
                            2_000,
                        ))
                    },
                    &cfg,
                    &format!("{}/{threads}T/{cpus}c/seed{seed}", prim.label()),
                );
            }
        }
        // PAUSE-loop spinners in a VM, where PLE arms spin exits. With
        // BWD as well, a tick on a spinner shifts its segment, which
        // re-arms the pending exit.
        let bwd_ple = Mechanisms {
            ple: true,
            ..Mechanisms::bwd_only()
        };
        for (mech, name) in [(Mechanisms::ple_only(), "ple"), (bwd_ple, "bwd+ple")] {
            let cfg = RunConfig::vanilla(8)
                .with_machine(MachineSpec::PaperN(8))
                .with_mech(mech)
                .with_seed(seed)
                .in_vm();
            let label = format!("spin-vm/malth/16T/8c/{name}/seed{seed}");
            let (report, _, _) = assert_same(
                || Box::new(SpinlockStress::fig13(16, SpinPolicy::malth(), 200)),
                &cfg,
                &label,
            );
            let exits = report.mech("ple").map_or(0, |m| m.spin_exits);
            assert!(exits > 0, "{label}: no PLE spin exit fired");
        }
    }
}

#[test]
fn differential_sweep_quick() {
    differential_sweep(&Scale {
        seeds: 5..7,
        skeleton_phase: 0.05,
        skeleton_ms: 20,
        server_ms: 20,
        spin_policies: 2,
        spin_iters: 16,
        primitive_rounds: 60,
    });
}

#[test]
#[ignore = "about a minute in release; run with --ignored"]
fn differential_sweep_heavy() {
    differential_sweep(&Scale {
        seeds: 1..31,
        skeleton_phase: 0.3,
        skeleton_ms: 300,
        server_ms: 300,
        spin_policies: usize::MAX,
        spin_iters: 160,
        primitive_rounds: 2_000,
    });
}
