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
//!   idle cores, PAUSE-loop spinners in a VM, whose PLE spin exits live
//!   in re-armable timer slots (DESIGN.md §14.6), and cells for each
//!   part of the held-back reschedule test and each of its triggers
//!   (DESIGN.md §8): skip releases left on regrown cores, VB waiters
//!   across an elastic shrink and grow, and all-pinned machines. A
//!   constructed case pins the event counts of a held-back reschedule
//!   whose CPU goes offline before it is due.
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

/// Task 1 (CPU 1) computes, then blocks on a semaphore through a long
/// kernel entry; task 0 (CPU 0) computes and then posts it. Both pinned.
struct OfflineInsideBlock;

impl Workload for OfflineInsideBlock {
    fn name(&self) -> &str {
        "offline-inside-block"
    }

    fn build(&mut self, w: &mut WorldBuilder) {
        let sem = w.semaphore(0);
        let poster = vec![
            Action::Compute { ns: 600_000 },
            Action::Sync(SyncOp::SemPost(sem)),
        ];
        let waiter = vec![
            Action::Compute { ns: 100_000 },
            Action::Sync(SyncOp::SemWait(sem)),
            Action::Compute { ns: 10_000 },
        ];
        w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(poster))).pinned_to(CpuId(0)));
        w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(waiter))).pinned_to(CpuId(1)));
    }
}

/// A held-back reschedule whose CPU goes offline before it is due: task
/// 1's block requests a reschedule of CPU 1 at the end of a 200 µs
/// kernel entry, with nothing to run or pull, so it is held back. CPU 1
/// goes offline inside that entry and comes back before the post. The
/// online-set change must queue the reschedule under its drawn key, as
/// the reference engine pops it there. The pinned event counts catch a
/// reschedule kept back instead (DESIGN.md §8).
#[test]
fn reschedule_held_back_on_a_cpu_going_offline_is_queued() {
    let mut cfg = RunConfig::vanilla(2)
        .with_machine(MachineSpec::PaperN(2))
        .with_seed(3);
    cfg.sched.syscall_entry_ns = 200_000;
    cfg.elastic = vec![
        ElasticEvent {
            at: SimTime::from_micros(200),
            cores: 1,
        },
        ElasticEvent {
            at: SimTime::from_micros(400),
            cores: 2,
        },
    ];
    let (_, opt, reference) = assert_same(
        || Box::new(OfflineInsideBlock),
        &cfg,
        "offline-inside-block",
    );
    assert_eq!((opt, reference), (11, 13));
}

/// Task 0 (on CPU 0) computes `a_ns`, then posts a semaphore; task 1
/// (on CPU 1) computes `b_ns`, then waits on it through a long kernel
/// entry and computes a little more. Neither is pinned.
#[derive(Clone, Copy, Debug)]
struct PostWait {
    a_ns: u64,
    b_ns: u64,
}

impl Workload for PostWait {
    fn name(&self) -> &str {
        "post-wait"
    }

    fn build(&mut self, w: &mut WorldBuilder) {
        let sem = w.semaphore(0);
        let poster = vec![
            Action::Compute { ns: self.a_ns },
            Action::Sync(SyncOp::SemPost(sem)),
        ];
        let waiter = vec![
            Action::Compute { ns: self.b_ns },
            Action::Sync(SyncOp::SemWait(sem)),
            Action::Compute { ns: 10_000 },
        ];
        w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(poster))));
        w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(waiter))));
    }
}

/// The wait's kernel entry: 350 µs, long enough for CPU 1's tick to lapse
/// while the reschedule it requests is pending.
const LONG_ENTRY_NS: u64 = 350_000;

fn post_wait_cfg() -> RunConfig {
    let mut cfg = duo_cfg();
    cfg.sched.syscall_entry_ns = LONG_ENTRY_NS;
    cfg
}

/// `(task 1's block, its second start on CPU 1)` in a traced optimized
/// run.
fn post_wait_timeline(pw: PostWait) -> (u64, Option<u64>) {
    let (_, trace) = run_traced(&mut pw.clone(), &post_wait_cfg().traced());
    let on_cpu1 = |kind: TraceKind| {
        trace
            .events()
            .filter(move |e| e.task.0 == 1 && e.kind == kind && e.cpu == 1)
            .map(|e| e.at.as_nanos())
    };
    let block = on_cpu1(TraceKind::Sleep)
        .next()
        .expect("task 1 never blocked");
    let start = on_cpu1(TraceKind::Run).nth(1);
    (block, start)
}

/// A held-back reschedule is queued under the key it drew when it was
/// requested, not a fresh one. Task 1 blocks on CPU 1 and requests its
/// reschedule at `T`, the end of the wait's kernel entry and exactly a
/// cadence point of CPU 1, whose tick has lapsed by then. Nothing can
/// run there, so the reschedule is held back. Task 0's post, 5 µs before
/// `T`, wakes task 1 onto CPU 1; that queues the held-back reschedule,
/// which starts task 1 at `T`. Keyed as drawn at the block, it pops
/// before the tick at `T`, as in the ticking engine; keyed at the post,
/// it would settle that tick as an idle one first.
#[test]
fn held_back_reschedule_keeps_its_drawn_key() {
    let target = 1_007_919;
    assert!(is_cadence_point(1, target));
    // The wait's kernel entry: the entry cost plus an uncontended futex
    // bucket lock (transfer and hold).
    let entry = LONG_ENTRY_NS + 25 + 150;
    let shape = |a_ns, b_ns| PostWait { a_ns, b_ns };
    let b_ns = solve(target - entry, 600_000, |b_ns| {
        post_wait_timeline(shape(2_000_000, b_ns)).0
    });
    let a_ns = target - 5_000;
    assert_eq!(
        post_wait_timeline(shape(a_ns, b_ns)).1,
        Some(target),
        "the held-back reschedule did not start task 1"
    );
    for a_ns in a_ns - 1..=a_ns + 1 {
        let pw = shape(a_ns, b_ns);
        let (_, opt_events, ref_events) =
            assert_same(|| Box::new(pw), &post_wait_cfg(), "post-wait/held-back-key");
        assert!(opt_events < ref_events, "no reschedule was held back");
    }
}

/// `SpinlockStress` ticket spinners plus one extra thread, pinned to the
/// last CPU, that blocks at start on a semaphore nobody posts.
struct SpinnersAndParkedWaiter {
    spinners: SpinlockStress,
    cpu: usize,
}

impl Workload for SpinnersAndParkedWaiter {
    fn name(&self) -> &str {
        "spinners+parked-waiter"
    }

    fn build(&mut self, w: &mut WorldBuilder) {
        self.spinners.build(w);
        let sem = w.semaphore(0);
        let wait = vec![Action::Sync(SyncOp::SemWait(sem))];
        w.spawn(ThreadSpec::new(Box::new(ScriptProgram::once(wait))).pinned_to(CpuId(self.cpu)));
    }
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
        // Held-back reschedules (DESIGN.md §8): a cell for each part of
        // the hold-back test and each trigger that re-checks it. BWD
        // spinners under an elastic shrink then grow: the shrink moves
        // skip-flagged spinners off cores whose skip releases stay
        // behind, so the regrown idle cores may not be held back.
        let k = s.spin_iters as u64;
        let elastic = |shrink_at: u64, grow_at: u64| {
            vec![
                ElasticEvent {
                    at: SimTime::from_nanos(shrink_at),
                    cores: 3,
                },
                ElasticEvent {
                    at: SimTime::from_nanos(grow_at),
                    cores: 8,
                },
            ]
        };
        let mut cfg = RunConfig::vanilla(8)
            .with_machine(MachineSpec::PaperN(8))
            .with_mech(Mechanisms::optimized())
            .with_seed(seed);
        cfg.elastic = elastic(k * 100_000, k * 200_000);
        let label = format!("spin/ticket/16T/8c/elastic/seed{seed}");
        let (report, _, _) = assert_same(
            || {
                Box::new(SpinlockStress::fig13(
                    16,
                    SpinPolicy::ticket(),
                    s.spin_iters,
                ))
            },
            &cfg,
            &label,
        );
        assert!(
            report.makespan_ns > k * 200_000,
            "{label}: ended before the grow"
        );
        let cleared = report.mech("bwd").map_or(0, |m| m.skips_cleared);
        assert!(cleared > 0, "{label}: no skip flag was released");
        // The same spinners beside a waiter VB-parked on the last core,
        // pinned there, so that core keeps its parked task while offline
        // and comes back idle with only it and the skip releases the
        // moved spinners left: its reschedule may not be held back
        // (auto-disable off, so a lone waiter parks).
        let vb_bwd = Mechanisms {
            vb_auto_disable: false,
            ..Mechanisms::optimized()
        };
        let mut cfg = RunConfig::vanilla(8)
            .with_machine(MachineSpec::PaperN(8))
            .with_mech(vb_bwd)
            .with_seed(seed)
            .with_max_time(SimTime::from_nanos(k * 600_000));
        cfg.elastic = elastic(k * 100_000, k * 200_000);
        let label = format!("spin+parked/ticket/16T/8c/elastic/seed{seed}");
        let (report, _, _) = assert_same(
            || {
                Box::new(SpinnersAndParkedWaiter {
                    spinners: SpinlockStress::fig13(16, SpinPolicy::ticket(), s.spin_iters),
                    cpu: 7,
                })
            },
            &cfg,
            &label,
        );
        let parks = report.mech("vb").map_or(0, |m| m.parks);
        assert!(parks > 0, "{label}: the waiter never parked");
        // A VB workload shrunk and regrown while waiters are queued on
        // other cores: parked tasks move, and idle cores see waiters.
        let r = s.primitive_rounds as u64;
        for prim in [Primitive::Mutex, Primitive::Cond] {
            let mut cfg = RunConfig::vanilla(8)
                .with_machine(MachineSpec::PaperN(8))
                .with_mech(Mechanisms::optimized())
                .with_seed(seed);
            cfg.elastic = elastic(r * 5_000, r * 10_000);
            let label = format!("{}/16T/8c/elastic/seed{seed}", prim.label());
            let (report, _, _) = assert_same(
                || Box::new(PrimitiveStress::new(16, s.primitive_rounds, prim, 2_000)),
                &cfg,
                &label,
            );
            assert!(
                report.makespan_ns > r * 10_000,
                "{label}: ended before the grow"
            );
        }
        // An all-pinned machine: no task can be pulled anywhere, so
        // every idle core's reschedule is held back whatever the waiters.
        for (threads, cpus) in [(12, 8), (8, 16)] {
            for prim in [Primitive::Mutex, Primitive::Barrier] {
                let mut cfg = RunConfig::vanilla(cpus)
                    .with_machine(MachineSpec::PaperN(cpus))
                    .with_mech(Mechanisms::optimized())
                    .with_seed(seed);
                cfg.pinned = true;
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
                    &format!("{}/{threads}T/{cpus}c/pinned/seed{seed}", prim.label()),
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
