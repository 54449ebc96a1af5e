//! Load balancing: periodic rebalance and idle stealing.
//!
//! This is the subsystem responsible for the "excessive, unnecessary
//! migrations" the paper blames on vanilla blocking (§2.4): sleeping
//! threads vanish from a CPU's load, the balancer sees imbalance, migrates
//! tasks, and when the sleepers wake the imbalance flips. Under virtual
//! blocking, parked tasks still count as load ([`CpuState::load`]), so the
//! balancer stays quiet.
//!
//! [`CpuState::load`]: crate::cpu::CpuState::load

use crate::sched::{MigrationEvent, Scheduler};
use oversub_hw::CpuId;
use oversub_simcore::SimTime;
use oversub_task::{TaskId, TaskTable};

/// Cost charged to the balancing CPU per balance pass.
pub const BALANCE_PASS_NS: u64 = 2_000;
/// Extra cost per migrated task (dequeue, lock both queues, enqueue).
pub const MIGRATE_OP_NS: u64 = 1_200;

impl Scheduler {
    /// Pull one migration victim from `from` to `to`, updating stats and
    /// charging the cache-refill penalty to the task.
    fn do_migrate(
        &mut self,
        tasks: &mut TaskTable,
        victim: TaskId,
        from: CpuId,
        to: CpuId,
    ) -> MigrationEvent {
        let cross = !self.topo.same_node(from, to);
        let old_min = self.cpus[from.0].rq.min_vruntime();
        let new_min = self.cpus[to.0].rq.min_vruntime();
        self.cpus[from.0].rq.dequeue(tasks, victim);
        // Re-base vruntime into the destination queue, as CFS does — but
        // cap the carried lag at one scheduling period. Queue min_vruntimes
        // are only loosely comparable (an idle queue's floor lags
        // arbitrarily), and an uncapped re-base compounds across repeated
        // migrations until vruntimes overflow into the VB tail region.
        let lag = tasks.vruntime[victim.0]
            .saturating_sub(old_min)
            .min(self.params.target_latency_ns);
        tasks.vruntime[victim.0] = new_min.saturating_add(lag);
        tasks.last_cpu[victim.0] = to;
        if cross {
            tasks.stats[victim.0].migrations_remote += 1;
        } else {
            tasks.stats[victim.0].migrations_local += 1;
        }
        let refill = self
            .mem
            .migration_refill_ns(tasks.footprint_bytes[victim.0], cross);
        self.add_penalty(victim, refill);
        self.cpus[to.0].rq.enqueue(tasks, victim);
        MigrationEvent {
            task: victim,
            from,
            to,
            cross_node: cross,
        }
    }

    /// Choose a migration victim on `from` movable to `to`: a schedulable,
    /// unpinned task whose cpuset allows the destination, preferring the
    /// one that has waited longest (highest vruntime — most cache-cold),
    /// never a VB-parked task.
    fn pick_victim(&self, tasks: &TaskTable, from: CpuId, to: CpuId) -> Option<TaskId> {
        self.cpus[from.0]
            .rq
            .schedulable_tasks(tasks)
            .filter(|&t| tasks.pinned[t.0].is_none() && tasks.allows(t, to) && !tasks.bwd_skip[t.0])
            .last()
    }

    /// Periodic balance pass run by `cpu`. Returns performed migrations and
    /// the kernel time the pass consumed on `cpu`.
    pub fn periodic_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: SimTime,
    ) -> (Vec<MigrationEvent>, u64) {
        self.cpus[cpu.0].next_balance = now + self.params.balance_interval_ns;
        let my_load = self.cpus[cpu.0].load();
        let mut migrations = Vec::new();
        let mut cost = BALANCE_PASS_NS;

        if !self.online[cpu.0] {
            return (migrations, 0);
        }
        if !self.reference && self.waiting_queues() == 0 {
            // No runqueue anywhere holds a schedulable waiter, so
            // `pick_victim` would return `None` for every source and the
            // pass below would migrate nothing at cost `BALANCE_PASS_NS`
            // (an imbalanced-looking source can only carry VB-parked
            // tasks, which are never victims). Same result, O(1).
            return (migrations, cost);
        }
        // Find the busiest CPU, in-node candidates preferred via a lower
        // imbalance threshold (CFS balances smaller domains more often).
        let mut busiest: Option<(CpuId, usize, bool)> = None;
        for c in self.topo.cpu_ids() {
            if c == cpu {
                continue;
            }
            let load = self.cpus[c.0].load();
            let in_node = self.topo.same_node(c, cpu);
            let threshold_pct = if in_node {
                self.params.balance_imbalance_pct
            } else {
                self.params.balance_imbalance_pct * 2
            };
            let imbalanced =
                load * 100 > my_load * (100 + threshold_pct as usize) && load >= my_load + 2;
            if imbalanced {
                match busiest {
                    // Prefer in-node sources, then higher load.
                    Some((_, bl, bn)) if (in_node, load) <= (bn, bl) => {}
                    _ => busiest = Some((c, load, in_node)),
                }
            }
        }

        if let Some((src, src_load, _)) = busiest {
            // Pull roughly half the imbalance, at least one task.
            let to_pull = ((src_load - my_load) / 2).max(1);
            for _ in 0..to_pull {
                if self.cpus[src.0].load() <= self.cpus[cpu.0].load() + 1 {
                    break;
                }
                let Some(victim) = self.pick_victim(tasks, src, cpu) else {
                    break;
                };
                migrations.push(self.do_migrate(tasks, victim, src, cpu));
                cost += MIGRATE_OP_NS;
            }
        }
        (migrations, cost)
    }

    /// Idle balance: `cpu` just ran out of schedulable work; try to steal
    /// one task. Returns the migration (if any) and the time spent.
    pub fn idle_pull(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        _now: SimTime,
    ) -> (Option<MigrationEvent>, u64) {
        if !self.params.idle_balance || !self.online[cpu.0] {
            return (None, 0);
        }
        if !self.reference && self.waiting_queues() == 0 {
            // No runqueue anywhere has a schedulable waiter, so the scan
            // below would find no candidate. Same result, O(1) — this is
            // the common case on wake-heavy workloads, where most resched
            // pokes find an idle machine.
            return (None, BALANCE_PASS_NS / 2);
        }
        // Steal from the most loaded CPU that has at least 2 queued
        // schedulable tasks (leave it one).
        let mut best: Option<(CpuId, usize, bool)> = None;
        for c in self.topo.cpu_ids() {
            if c == cpu {
                continue;
            }
            // A CPU is a steal candidate if it has a waiting schedulable
            // task beyond the one running.
            let waiting = self.cpus[c.0].rq.nr_schedulable();
            if waiting == 0 {
                continue;
            }
            let in_node = self.topo.same_node(c, cpu);
            let key = (in_node, waiting);
            match best {
                Some((_, bw, bn)) if key <= (bn, bw) => {}
                _ => best = Some((c, waiting, in_node)),
            }
        }
        let Some((src, _, _)) = best else {
            return (None, BALANCE_PASS_NS / 2);
        };
        match self.pick_victim(tasks, src, cpu) {
            Some(victim) => {
                let ev = self.do_migrate(tasks, victim, src, cpu);
                (Some(ev), BALANCE_PASS_NS / 2 + MIGRATE_OP_NS)
            }
            None => (None, BALANCE_PASS_NS / 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SchedParams;
    use crate::sched::Pick;
    use oversub_hw::{MemModel, Topology};
    use oversub_task::{Action, FnProgram, Task, TaskId, TaskTable};

    fn mk_sched(topo: Topology) -> Scheduler {
        Scheduler::new(topo, SchedParams::default(), MemModel::default(), false)
    }

    fn mk_tasks(n: usize) -> TaskTable {
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

    #[test]
    fn periodic_balance_pulls_from_busiest() {
        let mut s = mk_sched(Topology::flat(2));
        let mut tasks = mk_tasks(4);
        let now = SimTime::ZERO;
        for i in 0..4 {
            s.enqueue_new(&mut tasks, TaskId(i), CpuId(0), now);
        }
        let (migs, cost) = s.periodic_balance(&mut tasks, CpuId(1), now);
        assert!(!migs.is_empty(), "idle cpu should pull");
        assert!(cost >= BALANCE_PASS_NS);
        for m in &migs {
            assert_eq!(m.from, CpuId(0));
            assert_eq!(m.to, CpuId(1));
            assert!(!m.cross_node);
        }
        // Loads should now be closer.
        let l0 = s.cpus[0].load();
        let l1 = s.cpus[1].load();
        assert!(l0.abs_diff(l1) <= 2, "loads {l0} vs {l1}");
    }

    #[test]
    fn balanced_queues_do_not_migrate() {
        let mut s = mk_sched(Topology::flat(2));
        let mut tasks = mk_tasks(4);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(2), CpuId(1), now);
        s.enqueue_new(&mut tasks, TaskId(3), CpuId(1), now);
        let (migs, _) = s.periodic_balance(&mut tasks, CpuId(1), now);
        assert!(migs.is_empty());
    }

    #[test]
    fn vb_parked_tasks_stabilize_load() {
        let mut s = mk_sched(Topology::flat(2));
        let mut tasks = mk_tasks(4);
        let now = SimTime::ZERO;
        for i in 0..4 {
            s.enqueue_new(&mut tasks, TaskId(i), CpuId(0), now);
        }
        // Park all four under VB (still on cpu0's queue, still load).
        for i in 0..4 {
            let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
                panic!()
            };
            s.start(&mut tasks, CpuId(0), t, now);
            s.stop_current(
                &mut tasks,
                CpuId(0),
                now,
                crate::sched::StopReason::VirtualBlock,
            );
            let _ = t;
            let _ = i;
        }
        assert_eq!(s.cpus[0].rq.nr_vb_parked(), 4);
        // Balancer must not steal parked tasks even though cpu1 is idle.
        let (migs, _) = s.periodic_balance(&mut tasks, CpuId(1), now);
        assert!(migs.is_empty(), "VB-parked tasks must never migrate");
        let (mig, _) = s.idle_pull(&mut tasks, CpuId(1), now);
        assert!(mig.is_none());
    }

    #[test]
    fn idle_pull_steals_one() {
        let mut s = mk_sched(Topology::flat(2));
        let mut tasks = mk_tasks(3);
        let now = SimTime::ZERO;
        for i in 0..3 {
            s.enqueue_new(&mut tasks, TaskId(i), CpuId(0), now);
        }
        let (mig, cost) = s.idle_pull(&mut tasks, CpuId(1), now);
        let mig = mig.expect("should steal");
        assert_eq!(mig.from, CpuId(0));
        assert!(cost > 0);
        assert_eq!(tasks.last_cpu[mig.task.0], CpuId(1));
        assert_eq!(tasks.stats[mig.task.0].migrations_local, 1);
    }

    #[test]
    fn pinned_tasks_are_never_stolen() {
        let mut s = mk_sched(Topology::flat(2));
        let mut tasks = mk_tasks(2);
        tasks.pinned[0] = Some(CpuId(0));
        tasks.pinned[1] = Some(CpuId(0));
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);
        let (mig, _) = s.idle_pull(&mut tasks, CpuId(1), now);
        assert!(mig.is_none());
    }

    #[test]
    fn cross_node_migration_is_marked() {
        let mut s = mk_sched(Topology::numa(2, 1, 1));
        let mut tasks = mk_tasks(3);
        let now = SimTime::ZERO;
        for i in 0..3 {
            tasks.footprint_bytes[i] = 1 << 20;
            s.enqueue_new(&mut tasks, TaskId(i), CpuId(0), now);
        }
        let (mig, _) = s.idle_pull(&mut tasks, CpuId(1), now);
        let mig = mig.expect("steal across nodes");
        assert!(mig.cross_node);
        assert_eq!(tasks.stats[mig.task.0].migrations_remote, 1);
        // Cross-node moves come with a pending cache penalty.
        assert!(s.take_penalty(mig.task) > 0);
    }

    #[test]
    fn in_node_source_preferred() {
        // cpu0+cpu1 on node0, cpu2+cpu3 on node1. cpu1 idle; cpu0 and cpu2
        // both loaded; stealing should prefer cpu0 (same node).
        let mut s = mk_sched(Topology::numa(2, 2, 1));
        let mut tasks = mk_tasks(6);
        let now = SimTime::ZERO;
        for i in 0..3 {
            s.enqueue_new(&mut tasks, TaskId(i), CpuId(0), now);
        }
        for i in 3..6 {
            s.enqueue_new(&mut tasks, TaskId(i), CpuId(2), now);
        }
        let (mig, _) = s.idle_pull(&mut tasks, CpuId(1), now);
        assert_eq!(mig.expect("steal").from, CpuId(0));
    }
}
