//! Engine helpers shared by the simulation workloads: building plain
//! and decorated engines, and driving them in fixed sim-time chunks.

use crate::calib::Calibrator;
use crate::ledger::{Ledger, TimedGen, TimedScheduler};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::{Duration, SimTime};
use batchsched::engine::Engine;
use batchsched::trace::{Counts, Tracer};
use batchsched::{SimConfig, SimReport};
use std::time::Instant;

/// Ring capacity of the traced engines. Only the exact counters are
/// read, and they stay exact when old records are overwritten.
const RING: usize = 1024;

/// An engine whose scheduler and workload generator are wrapped in the
/// ledger's timing decorators, with a counting tracer attached.
pub fn traced_engine(cfg: &SimConfig) -> Engine {
    // The same stream derivation as `Engine::new`, so the decorated run
    // sees exactly the arrivals and transactions the plain one does.
    let mut master = Xoshiro256::seed_from_u64(cfg.seed);
    let arrival_rng = master.fork();
    let workload_rng = master.fork();
    let genr = Box::new(TimedGen::new(cfg.workload.build(workload_rng)));
    let mut e = Engine::with_generator(cfg, genr, arrival_rng);
    e.replace_scheduler(Box::new(TimedScheduler::new(
        cfg.scheduler.build(&cfg.costs),
    )));
    e.set_tracer(Tracer::ring(RING));
    e
}

/// `arrived == completed + in_flight + killed`, or a description of the
/// violation.
pub fn conservation(e: &Engine) -> Result<(), String> {
    let (a, c, f, k) = (e.arrived(), e.completed(), e.in_flight(), e.killed());
    if a == c + f + k {
        Ok(())
    } else {
        Err(format!(
            "{}: conservation broken at {:?}: arrived {a} != completed {c} + in flight {f} + killed {k}",
            e.label(),
            e.now()
        ))
    }
}

/// Every field of a report, bit-exact (Debug prints floats in their
/// shortest round-trip form).
pub fn report_bytes(r: &SimReport) -> String {
    format!("{r:?}")
}

/// Result of driving one plain engine to its horizon in chunks.
pub struct ChunkedRun {
    pub report: SimReport,
    /// Host nanoseconds of each `run_until` chunk.
    pub chunk_ns: Vec<u64>,
    /// Chunks after which the conservation check failed.
    pub failed_chunks: u64,
    pub errors: Vec<String>,
}

/// Drive `e` to its horizon in `chunk`-long `run_until` calls, timing
/// each, checking conservation and ticking `cal` at every boundary.
pub fn run_chunked(mut e: Engine, chunk: Duration, cal: &mut Calibrator) -> ChunkedRun {
    let horizon = e.horizon();
    let mut chunk_ns = Vec::new();
    let mut failed_chunks = 0;
    let mut errors = Vec::new();
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += chunk;
        let start = Instant::now();
        e.run_until(t);
        chunk_ns.push(start.elapsed().as_nanos() as u64);
        if let Err(msg) = conservation(&e) {
            failed_chunks += 1;
            errors.push(msg);
        }
        cal.tick();
    }
    ChunkedRun {
        report: e.report(),
        chunk_ns,
        failed_chunks,
        errors,
    }
}

/// Result of driving one decorated engine to its horizon.
pub struct TracedRun {
    pub report: SimReport,
    pub counts: Counts,
    /// Scheduler telemetry summed over chunk boundaries, with the number
    /// of samples.
    pub locks_held: u64,
    pub wtpg_nodes: u64,
    pub wtpg_edges: u64,
    pub samples: u64,
    pub errors: Vec<String>,
}

/// [`run_chunked`] on a decorated engine, one ledger span per chunk
/// named after the scheduler.
pub fn run_traced(cfg: &SimConfig, chunk: Duration, ledger: &mut Ledger) -> TracedRun {
    let mut e = traced_engine(cfg);
    let label = cfg.scheduler.label();
    let horizon = e.horizon();
    let (mut locks_held, mut wtpg_nodes, mut wtpg_edges, mut samples) = (0, 0, 0, 0);
    let mut errors = Vec::new();
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += chunk;
        ledger.span(&label, || ((), e.run_until(t)));
        let tel = e.scheduler().telemetry();
        locks_held += tel.locks_held as u64;
        wtpg_nodes += tel.wtpg_nodes as u64;
        wtpg_edges += tel.wtpg_edges as u64;
        samples += 1;
        if let Err(msg) = conservation(&e) {
            errors.push(msg);
        }
    }
    let report = e.report();
    let counts = e.take_trace().expect("traced engine has a tracer").counts;
    TracedRun {
        report,
        counts,
        locks_held,
        wtpg_nodes,
        wtpg_edges,
        samples,
        errors,
    }
}
