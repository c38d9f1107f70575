//! `paper_repro`: every paper artifact at quick fidelity, through the
//! same executor, bisection and point cache users run, on a fresh
//! (empty) cache each pass.
//!
//! Its input is the paper's configuration, seed included, so every pass
//! is checked against the golden table hashes. The benchmark seed does
//! not enter it: at other simulation seeds the bisections take other
//! paths and a pass does between 0.65x and 1.15x the work (five seeds
//! measured), far more spread than a timing bound can absorb.

use crate::calib::Calibrator;
use crate::ledger::Ledger;
use crate::sim::{report_bytes, run_traced};
use crate::workloads::{sim_layers, Metrics, Pass, Segment, Traced, Workload};
use batchsched::des::Duration;
use batchsched::experiments::{run_artifact_with, ExpOptions, ARTIFACT_IDS};
use batchsched::sched::SchedulerKind;
use batchsched::sim::Simulator;
use batchsched::{ExecCtx, SimConfig, WorkloadKind};
use std::time::Instant;

/// The seed the golden hashes were taken at, and the benchmark's
/// default seed.
pub const DEFAULT_SEED: u64 = 0x5EED_BA7C;

/// FNV-1a of each artifact's rendered table at quick fidelity and the
/// default seed; the repository's determinism tests pin the same
/// values.
const GOLDEN: [(&str, u64); 12] = [
    ("fig8", 0xcd26cd3df8091310),
    ("table2", 0xd134324c420ce3ed),
    ("fig9", 0xfbd69094188e993c),
    ("table3", 0x1a35c8cc818750e6),
    ("fig10", 0xb032eaca38824799),
    ("fig11", 0x9d893e80b4cca078),
    ("table4", 0x073f6876f26412f9),
    ("fig12", 0xda21eafa3dd26982),
    ("fig13", 0x54ecc37c9d5d5325),
    ("table5", 0xf2c13016c980e8ea),
    ("fig8x", 0xa7627f7f0b500e46),
    ("fig10x", 0xd96c06ed62640cc6),
];

/// Chunk of the decorated paper-point runs in the traced pass.
const CHUNK: Duration = Duration::from_secs(5);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Executor worker threads. One: the host-speed calibration runs on the
/// calling thread and sees only the core it runs on, and a second
/// worker on the other vCPU is slowed by neighbours it cannot see.
const JOBS: usize = 1;

pub struct PaperRepro;

/// One pass over the artifacts.
struct Artifacts {
    wall_ns: u64,
    /// Per artifact: id, host nanoseconds, points requested, hash.
    each: Vec<(&'static str, u64, u64, u64)>,
    sim_runs: u64,
    hits: u64,
    horizon: Duration,
}

impl PaperRepro {
    /// Run every artifact once; `between` runs after each, outside its
    /// timing.
    fn artifacts(
        &self,
        (opts, ctx): (ExpOptions, ExecCtx),
        ledger: Option<&mut Ledger>,
        between: &mut dyn FnMut(),
    ) -> Artifacts {
        let mut ledger = ledger;
        let start = Instant::now();
        let mut each = Vec::new();
        for id in ARTIFACT_IDS {
            let before = ctx.cache().sim_runs() + ctx.cache().hits();
            let t = Instant::now();
            let table = match ledger.as_deref_mut() {
                Some(l) => l.span(id, || (run_artifact_with(id, &opts, &ctx).table, 0)),
                None => run_artifact_with(id, &opts, &ctx).table,
            };
            let ns = t.elapsed().as_nanos() as u64;
            let points = ctx.cache().sim_runs() + ctx.cache().hits() - before;
            each.push((id, ns, points, fnv1a(table.render().as_bytes())));
            between();
        }
        Artifacts {
            wall_ns: start.elapsed().as_nanos() as u64,
            each,
            sim_runs: ctx.cache().sim_runs(),
            hits: ctx.cache().hits(),
            horizon: opts.horizon,
        }
    }

    /// Check every artifact against its golden hash; returns the points
    /// of failed artifacts.
    fn check(&self, a: &Artifacts, errors: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        for (&(id, _, points, got), &(gid, want)) in a.each.iter().zip(&GOLDEN) {
            debug_assert_eq!(id, gid, "GOLDEN out of order");
            if got != want {
                errors.push(format!(
                    "{id}: table hash {got:#018x}, expected {want:#018x}"
                ));
                failed += points;
            }
        }
        failed
    }

    /// Fig. 8's λ = 0.8 cell, for every scheduler kind: the paper point
    /// the scheduler ledger is taken at.
    fn paper_point(&self, kind: SchedulerKind) -> SimConfig {
        let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        c.horizon = ExpOptions::quick().horizon;
        c.seed = DEFAULT_SEED;
        c.lambda_tps = 0.8;
        c
    }
}

fn digest(a: &Artifacts) -> String {
    a.each
        .iter()
        .map(|e| format!("{}={:#018x}", e.0, e.3))
        .collect::<Vec<_>>()
        .join(" ")
}

impl Workload for PaperRepro {
    type Prepared = (ExpOptions, ExecCtx);

    fn setup(&self) -> (ExpOptions, ExecCtx) {
        let opts = ExpOptions::quick().with_jobs(JOBS);
        let ctx = ExecCtx::new(JOBS);
        (opts, ctx)
    }

    fn run(&self, prepared: Self::Prepared, cal: &mut Calibrator) -> Pass {
        let a = self.artifacts(prepared, None, &mut || cal.tick());
        let mut errors = Vec::new();
        let failed = self.check(&a, &mut errors);
        Pass {
            wall_ns: a.wall_ns,
            segments: a.each.iter().map(|e| Segment::op(e.1)).collect(),
            ops: a.each.iter().map(|e| e.2).sum(),
            failed,
            sim_secs: a.sim_runs as f64 * a.horizon.as_secs_f64(),
            digest: digest(&a),
            errors,
        }
    }

    fn traced(&self) -> Traced {
        let mut ledger = Ledger::new();
        let a = self.artifacts(self.setup(), Some(&mut ledger), &mut || {});
        let mut errors = Vec::new();
        self.check(&a, &mut errors);
        let (mut metrics, mut exact) = (Metrics::new(), Vec::new());
        metrics.insert("core.sim_runs".into(), a.sim_runs as f64);
        metrics.insert("core.cache_hits".into(), a.hits as f64);
        exact.push(("core.sim_runs".into(), a.sim_runs));
        exact.push(("core.cache_hits".into(), a.hits));
        for &(id, ns, points, _) in &a.each {
            metrics.insert(format!("core.{id}.s"), ns as f64 / 1e9);
            exact.push((format!("core.{id}.points"), points));
        }
        let runs: Vec<_> = SchedulerKind::ALL
            .iter()
            .map(|&k| (k, run_traced(&self.paper_point(k), CHUNK, &mut ledger)))
            .collect();
        sim_layers(&ledger, &runs, &mut metrics, &mut exact, &mut errors);
        for (k, run) in &runs {
            if report_bytes(&run.report) != report_bytes(&Simulator::run(&self.paper_point(*k))) {
                errors.push(format!(
                    "{k}: decorated paper point differs from the plain run"
                ));
            }
        }
        Traced {
            wall_ns: a.wall_ns,
            metrics,
            exact,
            digest: digest(&a),
            errors,
            ledger,
        }
    }
}
