//! `overload`: Exp. 1 (16 files, DD = 1) at λ = 1.1, past the
//! machine's saturation, for every scheduler kind. The backlog grows
//! over the run, so scheduler decisions, the engine's retry sweep and
//! admission scan do almost all the work and their host cost per event
//! grows with sim time.

use crate::calib::Calibrator;
use crate::ledger::Ledger;
use crate::sim::{run_chunked, run_traced};
use crate::workloads::{
    digest_of, sim_layers, sub_seeds, Metrics, Pass, Segment, Traced, Workload,
};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;
use batchsched::{SimConfig, WorkloadKind};
use std::time::Instant;

/// Long enough for a backlog of ~500 transactions, by which time C2PL
/// spends ~10x more host time per event than at the start. Longer
/// horizons grow it further (~120 µs at 1000 s) but cost superlinearly.
const HORIZON: Duration = Duration::from_secs(600);
const CHUNK: Duration = Duration::from_secs(5);
/// Input streams per pass. The host cost of one stream's backlog varies
/// by ~15 % from seed to seed; sixteen of them average that down to a
/// few per cent.
const STREAMS: usize = 16;

pub struct Overload {
    configs: Vec<SimConfig>,
}

impl Overload {
    pub fn new(seed: u64) -> Self {
        let mut configs = Vec::new();
        for s in sub_seeds(seed, STREAMS) {
            for kind in SchedulerKind::ALL {
                let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
                c.lambda_tps = 1.1;
                c.dd = 1;
                c.horizon = HORIZON;
                c.seed = s;
                configs.push(c);
            }
        }
        Overload { configs }
    }
}

impl Workload for Overload {
    type Prepared = Vec<Engine>;

    fn setup(&self) -> Vec<Engine> {
        self.configs.iter().map(Engine::new).collect()
    }

    fn run(&self, engines: Vec<Engine>, cal: &mut Calibrator) -> Pass {
        let start = Instant::now();
        let runs: Vec<_> = engines
            .into_iter()
            .map(|e| run_chunked(e, CHUNK, cal))
            .collect();
        let wall_ns = start.elapsed().as_nanos() as u64;
        Pass {
            wall_ns,
            segments: runs
                .iter()
                .flat_map(|r| r.chunk_ns.iter().map(|&ns| Segment::op(ns)))
                .collect(),
            ops: runs.iter().map(|r| r.chunk_ns.len() as u64).sum(),
            failed: runs.iter().map(|r| r.failed_chunks).sum(),
            sim_secs: runs.len() as f64 * HORIZON.as_secs_f64(),
            digest: digest_of(runs.iter().map(|r| &r.report)),
            errors: runs.into_iter().flat_map(|r| r.errors).collect(),
        }
    }

    fn traced(&self) -> Traced {
        let mut ledger = Ledger::new();
        let start = Instant::now();
        let runs: Vec<_> = self
            .configs
            .iter()
            .map(|c| (c.scheduler, run_traced(c, CHUNK, &mut ledger)))
            .collect();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (mut metrics, mut exact, mut errors) = (Metrics::new(), Vec::new(), Vec::new());
        sim_layers(&ledger, &runs, &mut metrics, &mut exact, &mut errors);
        Traced {
            wall_ns,
            metrics,
            exact,
            digest: digest_of(runs.iter().map(|(_, r)| &r.report)),
            errors,
            ledger,
        }
    }
}
