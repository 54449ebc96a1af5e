//! CFS-like scheduler with virtual-blocking and busy-waiting-detection
//! hooks.
//!
//! Structure:
//! - [`params`]: scheduler constants (3 ms latency, 750 µs granularity,
//!   1.5 µs context switch, wakeup-path cost model).
//! - [`rq`]: the vruntime-ordered runqueue; virtual blocking parks tasks in
//!   the tail region above [`rq::VB_TAIL_BASE`].
//! - [`cpu`]: per-CPU state, including the runqueue lock and the monitored
//!   LBR/PMC hardware state.
//! - [`sched`]: the [`Scheduler`] — wake paths (vanilla and VB),
//!   pick/start/stop, SMT factor.
//! - [`balance`]: periodic and idle load balancing, the source of the
//!   migration storms the paper measures in Table 1.

pub mod balance;
pub mod cpu;
pub mod params;
pub mod rq;
#[allow(clippy::module_inception)]
pub mod sched;

pub use balance::{BALANCE_PASS_NS, MIGRATE_OP_NS};
pub use cpu::{CpuState, CpuTimeStats};
pub use params::SchedParams;
pub use rq::{CfsRq, WaiterBoard, VB_TAIL_BASE};
pub use sched::{MigrationEvent, Pick, Scheduler, StopReason, WakeOutcome};
