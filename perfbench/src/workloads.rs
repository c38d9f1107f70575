//! What every workload provides, and the per-layer metrics shared by
//! the workloads that drive engines directly.

use crate::calib::Calibrator;
use crate::ledger::{Entry, Ledger};
use crate::sim::{report_bytes, TracedRun};
use crate::stats::ratio;
use batchsched::sched::SchedulerKind;
use std::collections::BTreeMap;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// One timed pass of a workload's fixed work.
pub struct Pass {
    /// Host nanoseconds of the pass, set-up excluded.
    pub wall_ns: u64,
    /// The pass's work as consecutive timed pieces, in order.
    pub segments: Vec<Segment>,
    /// Operations attempted, and those whose output check failed.
    pub ops: u64,
    pub failed: u64,
    /// Simulated seconds the pass advanced, summed over its runs.
    pub sim_secs: f64,
    /// Every output of the pass, bit-exact: equal inputs must give
    /// equal digests, traced or not.
    pub digest: String,
    pub errors: Vec<String>,
}

/// One timed piece of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub ns: u64,
    /// Whether the piece is one of the workload's operations, whose
    /// latency is reported.
    pub op: bool,
}

impl Segment {
    pub fn op(ns: u64) -> Self {
        Segment { ns, op: true }
    }
}

/// One traced pass: the per-layer ledger of the same fixed work.
pub struct Traced {
    pub wall_ns: u64,
    pub metrics: Metrics,
    /// Deterministic work counts; two traced passes at one seed must
    /// agree on every one.
    pub exact: Vec<(String, u64)>,
    pub digest: String,
    pub errors: Vec<String>,
    pub ledger: Ledger,
}

pub trait Workload {
    /// Everything a pass starts from: configurations and engines.
    type Prepared;
    /// Build the configurations and engines of one pass (timed as
    /// `setup_s`).
    fn setup(&self) -> Self::Prepared;
    /// Run one pass on freshly set-up state, ticking `cal` once after
    /// each of its timed segments.
    fn run(&self, prepared: Self::Prepared, cal: &mut Calibrator) -> Pass;
    /// Run the same work with the ledger's decorators installed.
    fn traced(&self) -> Traced;
}

/// Per-layer metrics, exact counts and fidelity checks for decorated
/// engine runs, one per scheduler kind in `runs`. Each run's chunk spans
/// are named after its scheduler label.
pub fn sim_layers(
    ledger: &Ledger,
    runs: &[(SchedulerKind, TracedRun)],
    metrics: &mut Metrics,
    exact: &mut Vec<(String, u64)>,
    errors: &mut Vec<String>,
) {
    let labels: Vec<String> = runs.iter().map(|(k, _)| k.label()).collect();
    let ours = |name: &str| labels.iter().any(|l| l == name);
    let all = ledger.children_where(ours);
    let spans: Vec<_> = ledger.spans.iter().filter(|s| ours(&s.name)).collect();
    let span_ns: u64 = spans.iter().map(|s| s.dur_ns).sum();
    let self_ns: u64 = spans.iter().map(|s| s.self_ns()).sum();
    let sched_ns = all.ns_in(&Entry::SCHED);

    let mut put = |name: &str, v: f64| {
        metrics.insert(name.to_string(), v);
    };
    for e in Entry::ALL {
        let a = all.get(e);
        put(
            &format!("{}.ns_per_call", e.name()),
            ratio(a.ns as f64, a.calls as f64),
        );
        exact.push((format!("{}.calls", e.name()), a.calls));
    }
    for e in [Entry::TryStart, Entry::Request, Entry::Commit, Entry::Abort] {
        put(&format!("{}.calls", e.name()), all.get(e).calls as f64);
    }
    put(
        "workload.next_batch.calls",
        all.get(Entry::NextBatch).calls as f64,
    );
    put(
        "sched.try_start.admit_ratio",
        ratio(all.admits as f64, all.get(Entry::TryStart).calls as f64),
    );
    put(
        "sched.request.grant_ratio",
        ratio(all.grants as f64, all.get(Entry::Request).calls as f64),
    );
    put("sched.busy_share", ratio(sched_ns as f64, span_ns as f64));

    let (mut events, mut commits, mut quanta, mut cn_bursts) = (0, 0, 0, 0);
    let (mut dispatches, mut admissions) = (0, 0);
    let (mut dpn_util, mut cn_util) = (0.0, 0.0);
    let (mut locks, mut nodes, mut edges, mut samples) = (0, 0, 0, 0);
    for (i, (kind, run)) in runs.iter().enumerate() {
        let (r, c) = (&run.report, &run.counts);
        errors.extend(run.errors.iter().cloned());
        events += r.events;
        commits += r.completed;
        quanta += c.quanta;
        cn_bursts += c.cn_bursts;
        dispatches += c.step_dispatches;
        admissions += c.admissions;
        dpn_util += r.dpn_utilization;
        cn_util += r.cn_utilization;
        locks += run.locks_held;
        nodes += run.wtpg_nodes;
        edges += run.wtpg_edges;
        samples += run.samples;
        exact.push((format!("run{i}.{kind}.events"), r.events));
        exact.push((format!("run{i}.{kind}.quanta"), c.quanta));
        exact.push((format!("run{i}.{kind}.trace_total"), c.total()));
    }
    // Per kind, over every run of that kind: spans are named by kind.
    for kind in SchedulerKind::ALL {
        let label = kind.label();
        let of_kind: Vec<&TracedRun> = runs
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, r)| r)
            .collect();
        if of_kind.is_empty() {
            continue;
        }
        let mine = ledger.children_where(|n| n == label);
        let (k_self, k_events) = spans
            .iter()
            .filter(|s| s.name == label)
            .fold((0, 0), |(a, b), s| (a + s.self_ns(), b + s.events));
        let sum = |f: fn(&TracedRun) -> u64| of_kind.iter().map(|r| f(r)).sum::<u64>();
        put(
            &format!("sched.{label}.ns_per_commit"),
            ratio(
                mine.ns_in(&Entry::SCHED) as f64,
                sum(|r| r.report.completed) as f64,
            ),
        );
        put(
            &format!("engine.{label}.self_ns_per_event"),
            ratio(k_self as f64, k_events as f64),
        );
        // The decorator must see exactly the calls the engine counts.
        let checks = [
            (
                "sched.request calls",
                mine.get(Entry::Request).calls,
                sum(|r| r.report.lock_requests),
            ),
            (
                "sched.commit calls",
                mine.get(Entry::Commit).calls,
                sum(|r| r.report.completed),
            ),
            (
                "try_start admits",
                mine.admits,
                sum(|r| r.counts.admissions),
            ),
            ("chunk events", k_events, sum(|r| r.report.events)),
        ];
        for (what, got, want) in checks {
            if got != want {
                errors.push(format!("{label}: {what} = {got}, engine counted {want}"));
            }
        }
    }
    let n = runs.len() as f64;
    put(
        "engine.retests_per_dispatch",
        ratio(all.get(Entry::Request).calls as f64, dispatches as f64),
    );
    put(
        "engine.starts_per_admit",
        ratio(all.get(Entry::TryStart).calls as f64, admissions as f64),
    );
    put(
        "engine.self_ns_per_event",
        ratio(self_ns as f64, events as f64),
    );
    put("des.events", events as f64);
    put(
        "des.events_per_commit",
        ratio(events as f64, commits as f64),
    );
    put("machine.quanta", quanta as f64);
    put(
        "machine.quanta_per_commit",
        ratio(quanta as f64, commits as f64),
    );
    put("machine.cn_bursts", cn_bursts as f64);
    put("machine.dpn_util", ratio(dpn_util, n));
    put("machine.cn_util", ratio(cn_util, n));
    put("wtpg.nodes_mean", ratio(nodes as f64, samples as f64));
    put("wtpg.edges_mean", ratio(edges as f64, samples as f64));
    put("sched.locks_held_mean", ratio(locks as f64, samples as f64));
}

/// `n` run seeds drawn from the benchmark seed. Averaging a pass over
/// several independent input streams keeps its work, and so its time,
/// from swinging with one stream's luck; the first is the seed itself.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = batchsched::des::rng::Xoshiro256::seed_from_u64(seed);
    std::iter::once(seed)
        .chain(std::iter::repeat_with(|| rng.next_u64()))
        .take(n)
        .collect()
}

/// The digest of a list of reports, in order.
pub fn digest_of<'a>(reports: impl IntoIterator<Item = &'a batchsched::SimReport>) -> String {
    reports
        .into_iter()
        .map(report_bytes)
        .collect::<Vec<_>>()
        .join("\n")
}
