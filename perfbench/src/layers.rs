//! Layer probes: timed calls into each layer crate's public functions,
//! outside any simulation run. They are the same on every workload.

use std::hint::black_box;
use std::time::Instant;

use oversub::hw::{CoreHw, CpuId, MemModel, NormalCodeRates, Topology};
use oversub::ksync::{FutexParams, FutexTable};
use oversub::locks::{SpinLock, SpinPolicy};
use oversub::metrics::LatencyDigest;
use oversub::sched::{CfsRq, Pick, SchedParams, Scheduler, StopReason};
use oversub::simcore::{EventQueue, SimRng, SimTime};
use oversub::task::{Action, FnProgram, FutexKey, Task, TaskId, TaskTable};
use oversub::RunReport;
use oversub_bwd::{BwdParams, Detector};

use crate::output::{median, Metrics};

/// Timed samples per probe; each probe reports the median.
const SAMPLES: usize = 31;
/// Calls per sample for the nanosecond-scale probes.
const INNER: u32 = 2_000;
/// Requests the memcached workload completes in its 300 ms run.
const DIGEST_SAMPLES: usize = 17_055;

/// Median over [`SAMPLES`] of the host seconds `body` takes on a fresh
/// input from `setup` (set-up not timed).
fn sample<S, T>(mut setup: impl FnMut() -> S, mut body: impl FnMut(S) -> T) -> f64 {
    let walls: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            black_box(body(black_box(input)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Median host nanoseconds of one call of `f`, timed [`INNER`] calls at a
/// time.
fn per_call_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    sample(
        || (),
        |()| {
            for _ in 0..INNER {
                black_box(f());
            }
        },
    ) * 1e9
        / f64::from(INNER)
}

fn tasks(n: usize) -> TaskTable {
    let mut tt = TaskTable::new();
    for i in 0..n {
        tt.push(Task::new(
            TaskId(i),
            Box::new(FnProgram::new("nop", |_| Action::Exit)),
            CpuId(0),
        ));
    }
    tt
}

fn one_core_scheduler(vb: bool, tt: &mut TaskTable) -> Scheduler {
    let mut sched = Scheduler::new(
        Topology::flat(1),
        SchedParams::default(),
        MemModel::default(),
        vb,
    );
    for i in 0..tt.len() {
        sched.enqueue_new(tt, TaskId(i), CpuId(0), SimTime::ZERO);
    }
    sched
}

/// Eight tasks blocked on one futex, ready for a bulk wake.
fn blocked_on_futex(vb: bool) -> (Scheduler, TaskTable, FutexTable, FutexKey) {
    let mut tt = tasks(9);
    let mut sched = one_core_scheduler(vb, &mut tt);
    let mut futex = FutexTable::new(FutexParams {
        vb_enabled: vb,
        vb_auto_disable: false,
        ..FutexParams::default()
    });
    let key = FutexKey(0x1000);
    for _ in 0..8 {
        let Pick::Run(t, _) = sched.pick_next(&mut tt, CpuId(0)) else {
            panic!("a runnable task is queued");
        };
        sched.start(&mut tt, CpuId(0), t, SimTime::ZERO);
        futex.futex_wait(&mut sched, &mut tt, t, key, CpuId(0), SimTime::ZERO);
    }
    (sched, tt, futex, key)
}

/// Push every layer probe into `m`. `seed` drives the random inputs;
/// `report` is the subject of the JSON round trip.
pub fn probes(seed: u64, report: &RunReport, m: &mut Metrics) {
    // bwd: one window check on a core that spun, and on one that ran
    // normal code.
    let mut spin_hw = CoreHw::new();
    spin_hw.note_spin(0x5000, 0x4FF0, 30_000, 4);
    let mut busy_hw = CoreHw::new();
    busy_hw.note_normal_execution(100_000, &NormalCodeRates::default(), 7);
    let mut det = Detector::new(BwdParams::default());
    m.push(
        "bwd.window_check_spin_ns",
        per_call_ns(|| det.check_window(&spin_hw)),
        "ns",
    );
    m.push(
        "bwd.window_check_busy_ns",
        per_call_ns(|| det.check_window(&busy_hw)),
        "ns",
    );

    // simcore: one-shot events at random times, then per-CPU periodic
    // ticks re-armed as they fire.
    let mut rng = SimRng::new(seed);
    let times: Vec<SimTime> = (0..1_000)
        .map(|_| SimTime::from_nanos(rng.gen_range(1_000_000)))
        .collect();
    let pop_1k = sample(
        || (),
        |()| {
            let mut q = EventQueue::new();
            for (i, &at) in times.iter().enumerate() {
                q.schedule_nocancel(at, i);
            }
            let mut n = 0usize;
            while q.pop().is_some() {
                n += 1;
            }
            n
        },
    );
    m.push("simcore.queue_pop_1k_us", pop_1k * 1e6, "us");
    let ticks = sample(
        || (),
        |()| {
            let mut q = EventQueue::new();
            for cpu in 0..64u64 {
                q.schedule_periodic(SimTime::from_nanos(100_000 + cpu * 7_919), cpu);
            }
            for _ in 0..10_000 {
                let (t, cpu) = q.pop().expect("periodic streams never drain");
                q.schedule_periodic(t + 100_000, cpu);
            }
        },
    );
    m.push("simcore.queue_ticks_64cpu_us", ticks * 1e6, "us");

    // sched: a cached pick over 32 tasks whose 8 leftmost are skip-flagged,
    // and 32 pick/start/stop rounds on one core.
    let mut tt = tasks(32);
    for i in 0..tt.len() {
        tt.vruntime[i] = 1_000 * (i as u64 + 1);
        tt.bwd_skip[i] = i < 8;
    }
    let mut rq = CfsRq::new();
    for tid in tt.ids() {
        rq.enqueue(&tt, tid);
    }
    m.push(
        "sched.pick_next_ns",
        per_call_ns(|| rq.pick_next(&tt)),
        "ns",
    );
    let rounds = sample(
        || {
            let mut tt = tasks(32);
            let sched = one_core_scheduler(false, &mut tt);
            (sched, tt)
        },
        |(mut sched, mut tt)| {
            for k in 0..32u64 {
                let Pick::Run(t, _) = sched.pick_next(&mut tt, CpuId(0)) else {
                    break;
                };
                let now = SimTime::from_micros(k * 10);
                sched.start(&mut tt, CpuId(0), t, now);
                sched.stop_current(&mut tt, CpuId(0), now + 5_000, StopReason::Preempted);
            }
        },
    );
    m.push("sched.pick_start_stop_32_us", rounds * 1e6, "us");

    // ksync: wake all 8 waiters of one futex, vanilla and virtual blocking.
    for (name, vb) in [
        ("ksync.futex_wake8_vanilla_us", false),
        ("ksync.futex_wake8_vb_us", true),
    ] {
        let wake = sample(
            || blocked_on_futex(vb),
            |(mut sched, mut tt, mut futex, key)| {
                futex.futex_wake(&mut sched, &mut tt, key, 8, CpuId(0), SimTime::ZERO)
            },
        );
        m.push(name, wake * 1e6, "us");
    }

    // locks: hand an MCS lock down a chain of 8 contenders.
    let handoff = sample(
        || {
            let mut l = SpinLock::new(SpinPolicy::mcs(), 1);
            l.acquire(TaskId(0), 0);
            for i in 1..8 {
                l.acquire(TaskId(i), i % 2);
            }
            l
        },
        |mut l| {
            let mut holder = TaskId(0);
            for _ in 1..8 {
                let (_, next) = l.release(holder, 0);
                let w = next.expect("MCS grants in FIFO order");
                l.try_claim(w).expect("the granted waiter can claim");
                holder = w;
            }
            holder
        },
    );
    m.push("locks.spin_handoff_8_ns", handoff * 1e9, "ns");

    // metrics: a request digest as large as memcached's, and a report's
    // JSON round trip.
    let latencies: Vec<u64> = (0..DIGEST_SAMPLES)
        .map(|_| 10_000 + rng.gen_range(2_000_000))
        .collect();
    let digest = sample(
        || (),
        |()| {
            let mut d = LatencyDigest::new();
            for &v in &latencies {
                d.record(v);
            }
            d.p99()
        },
    );
    m.push("metrics.digest_p99_us", digest * 1e6, "us");
    let roundtrip = sample(
        || (),
        |()| RunReport::from_json(&report.to_json()).expect("a report parses back"),
    );
    m.push("metrics.report_json_roundtrip_us", roundtrip * 1e6, "us");
}
