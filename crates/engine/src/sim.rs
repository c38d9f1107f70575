//! The historical batch-run simulator API.
//!
//! [`Simulator`] is what the drivers, experiments and tests have always
//! used — build from a [`SimConfig`], run to the horizon, read the
//! report. It is an alias of [`Engine`]: there is one event loop, and
//! this module only adds the one-call batch runs.

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::metrics::SimReport;
use bds_des::time::Duration;
use bds_metrics::TimeSeries;
use bds_trace::{TraceData, Tracer};

/// The discrete-event simulator: the [`Engine`] under its historical
/// name.
pub type Simulator = Engine;

impl Engine {
    /// Run to the horizon and report.
    pub fn run(cfg: &SimConfig) -> SimReport {
        let mut sim = Engine::new(cfg);
        sim.run_to_horizon();
        sim.report()
    }

    /// Run with a ring-buffer tracer of the given capacity and return
    /// both the report and the captured trace. The report is
    /// byte-identical to an untraced [`Engine::run`] of the same
    /// configuration — tracing only observes.
    pub fn run_traced(cfg: &SimConfig, capacity: usize) -> (SimReport, TraceData) {
        let mut sim = Engine::new(cfg);
        sim.set_tracer(Tracer::ring(capacity));
        sim.run_to_horizon();
        let report = sim.report();
        let data = sim.take_trace().expect("ring tracer was installed");
        (report, data)
    }

    /// Run with time-series sampling every `dt` of simulated time,
    /// returning the report and the sampled series. The report is
    /// byte-identical to an unsampled [`Engine::run`] of the same
    /// configuration — sampling only observes.
    pub fn run_with_metrics(cfg: &SimConfig, dt: Duration) -> (SimReport, TimeSeries) {
        let mut sim = Engine::new(cfg);
        sim.set_metrics_interval(dt);
        sim.run_to_horizon();
        let report = sim.report();
        let series = sim.take_metrics().expect("sampler was installed");
        (report, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadKind;
    use bds_des::time::SimTime;
    use bds_sched::SchedulerKind;
    use bds_trace::EventKind;

    fn cfg(kind: SchedulerKind) -> SimConfig {
        let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        c.horizon = Duration::from_secs(200_000 / 1000); // 200 s
        c.lambda_tps = 0.5;
        c
    }

    #[test]
    fn nodc_light_load_rt_matches_service_time() {
        // At a very light load with DD = 1 the response time is just the
        // sum of per-step scans (7.2 s) plus small CN costs.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 0.02;
        c.horizon = Duration::from_secs(2000);
        let r = Simulator::run(&c);
        assert!(r.completed >= 20, "completed {}", r.completed);
        let rt = r.mean_rt_secs();
        assert!(
            (rt - 7.2).abs() < 0.3,
            "light-load RT should be ≈ 7.2 s, got {rt}"
        );
    }

    #[test]
    fn nodc_dd8_light_load_speedup() {
        // With DD = 8 every scan runs 8-way parallel: RT ≈ 7.2/8 ≈ 0.9 s.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 0.02;
        c.dd = 8;
        c.horizon = Duration::from_secs(2000);
        let r = Simulator::run(&c);
        let rt = r.mean_rt_secs();
        assert!(rt < 1.2, "DD=8 light-load RT should be ≈ 0.9 s, got {rt}");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let c = cfg(SchedulerKind::Low(2)).with_lambda(0.6);
        let a = Simulator::run(&c);
        let b = Simulator::run(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let a = Simulator::run(&c);
        let b = Simulator::run(&c.clone().with_seed(123));
        assert_ne!(a.completed, b.completed);
    }

    #[test]
    fn all_schedulers_complete_work() {
        for kind in SchedulerKind::PAPER_SET {
            let c = cfg(kind).with_lambda(0.4);
            let r = Simulator::run(&c);
            // OPT genuinely thrashes under this contention level (the
            // paper's Fig. 8 shows it saturating first), so only demand
            // meaningful forward progress.
            assert!(
                r.completed > r.arrived / 4,
                "{kind}: completed only {} of {}",
                r.completed,
                r.arrived
            );
            assert!(r.mean_rt_secs() > 0.0);
        }
    }

    #[test]
    fn mpl_caps_live_transactions() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(1.2).with_mpl(4);
        let r = Simulator::run(&c);
        assert!(r.mean_live <= 4.01, "mean live {} exceeds mpl", r.mean_live);
    }

    #[test]
    fn overload_grows_queue() {
        // λ beyond capacity (≈ 1.11 TPS for Pattern 1 on 8 nodes): the
        // backlog at the horizon must be substantial under NODC.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 1.4;
        c.horizon = Duration::from_secs(2000);
        let r = Simulator::run(&c);
        assert!(
            r.arrived > r.completed + 100,
            "arrived {} completed {}",
            r.arrived,
            r.completed
        );
        assert!(r.dpn_utilization > 0.9, "dpn {}", r.dpn_utilization);
    }

    #[test]
    fn step_records_match_trace_records() {
        // Stepping with a tap yields exactly the records a ring tracer
        // captures over the bulk run, and the same report: one event
        // loop, one event vocabulary. The faulted plan adds crashes,
        // recoveries, a CN stall and link losses.
        let faulted = cfg(SchedulerKind::C2pl).with_lambda(0.6).with_faults(
            bds_fault::FaultPlan::parse("crash=1@40x20,stall=60x5,loss=25,retry=1000:8000:2")
                .expect("plan parses"),
        );
        let cases = [
            (cfg(SchedulerKind::Gow).with_lambda(0.6), None),
            (cfg(SchedulerKind::Opt).with_lambda(0.6), Some("validation")),
            (cfg(SchedulerKind::Wdl).with_lambda(0.6), Some("scheduler")),
            (faulted, Some("fault")),
        ];
        for (c, cause) in cases {
            let label = c.scheduler.label();
            let bulk = Simulator::run(&c);
            let (traced, ring) = Simulator::run_traced(&c, 1 << 22);
            assert_eq!(traced, bulk, "{label}: tracing perturbed the run");
            assert_eq!(ring.dropped, 0, "{label}: ring wrapped");
            let mut e = Engine::new(&c);
            let mut recs = Vec::new();
            let mut steps = 0u64;
            while e.step_into(&mut recs).is_some() {
                steps += 1;
            }
            assert_eq!(e.report(), bulk, "{label}: stepped report differs");
            assert_eq!(steps, bulk.events, "{label}: step count");
            assert!(recs == ring.records, "{label}: step records differ");
            if let Some(cause) = cause {
                let n = recs
                    .iter()
                    .filter(|r| matches!(r.kind, EventKind::Abort { cause: c, .. } if c.name() == cause))
                    .count();
                assert!(n > 0, "{label}: no {cause} aborts to compare");
            }
            if c.faults.is_empty() {
                continue;
            }
            for name in ["fault_injected", "node_recovered"] {
                assert!(
                    recs.iter().any(|r| r.kind.name() == name),
                    "{label}: no {name} record"
                );
            }
        }
    }

    #[test]
    fn step_into_forwards_to_an_installed_tracer() {
        let c = cfg(SchedulerKind::Gow).with_lambda(0.6);
        let mut e = Engine::new(&c);
        e.set_tracer(Tracer::ring(1 << 20));
        let mut recs = Vec::new();
        while e.step_into(&mut recs).is_some() {}
        let data = e.take_trace().expect("ring tracer was installed");
        assert!(!recs.is_empty());
        assert!(data.records == recs, "the ring missed stepped records");
    }

    #[test]
    fn run_until_interleaving_matches_bulk_run() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let bulk = Simulator::run(&c);
        let mut e = Engine::new(&c);
        let mut n = 0u64;
        for ms in [10_000u64, 50_000, 120_000, 200_000] {
            n += e.run_until(SimTime::from_millis(ms));
        }
        assert_eq!(e.report(), bulk);
        assert_eq!(n, bulk.events);
    }

    #[test]
    fn profiled_run_matches_bulk_run() {
        // The host profiler only observes: same report as the plain
        // loop, with every pump pass counted in the event-queue phase.
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let bulk = Simulator::run(&c);
        let mut e = Engine::new(&c);
        e.set_profiler(bds_obs::Profiler::on());
        e.run_to_horizon();
        assert_eq!(e.report(), bulk);
        let prof = e.take_profile().expect("profiler was on");
        let eq = &prof.phases[bds_obs::Phase::EventQueue as usize];
        assert!(eq.count >= bulk.events && eq.sampled > 0);
    }
}
