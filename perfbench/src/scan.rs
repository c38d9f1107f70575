//! `scan_heavy`: the 100-DPN scan-heavy point — one exclusive
//! 400-object scan per transaction, DD = 2, λ at ~72 % of capacity,
//! C2PL. Nearly every event is a DPN slice rotation, so the event queue
//! and the machine model do the work and the scheduler is a few per
//! cent: the bypass case for scheduler optimisations.

use crate::calib::Calibrator;
use crate::ledger::Ledger;
use crate::sim::{run_chunked, run_traced};
use crate::workloads::{digest_of, sim_layers, Metrics, Pass, Segment, Traced, Workload};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::experiments::scan_heavy_point;
use batchsched::SimConfig;
use std::time::Instant;

/// ~18 000 transactions and ~1.5e7 events.
const HORIZON: Duration = Duration::from_secs(100_000);
/// 1000 chunks a pass, so p90 has 100 samples beyond it.
const CHUNK: Duration = Duration::from_secs(100);

pub struct ScanHeavy {
    seed: u64,
}

impl ScanHeavy {
    pub fn new(seed: u64) -> Self {
        ScanHeavy { seed }
    }

    fn config(&self) -> SimConfig {
        let mut c = scan_heavy_point(HORIZON);
        c.seed = self.seed;
        c
    }
}

impl Workload for ScanHeavy {
    type Prepared = Engine;

    fn setup(&self) -> Engine {
        Engine::new(&self.config())
    }

    fn run(&self, engine: Engine, cal: &mut Calibrator) -> Pass {
        let start = Instant::now();
        let run = run_chunked(engine, CHUNK, cal);
        let wall_ns = start.elapsed().as_nanos() as u64;
        Pass {
            wall_ns,
            ops: run.chunk_ns.len() as u64,
            failed: run.failed_chunks,
            sim_secs: HORIZON.as_secs_f64(),
            digest: digest_of([&run.report]),
            segments: run.chunk_ns.into_iter().map(Segment::op).collect(),
            errors: run.errors,
        }
    }

    fn traced(&self) -> Traced {
        let mut ledger = Ledger::new();
        let cfg = self.config();
        let start = Instant::now();
        let runs = [(cfg.scheduler, run_traced(&cfg, CHUNK, &mut ledger))];
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (mut metrics, mut exact, mut errors) = (Metrics::new(), Vec::new(), Vec::new());
        sim_layers(&ledger, &runs, &mut metrics, &mut exact, &mut errors);
        Traced {
            wall_ns,
            metrics,
            exact,
            digest: digest_of([&runs[0].1.report]),
            errors,
            ledger,
        }
    }
}
