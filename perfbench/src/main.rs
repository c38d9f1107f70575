//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_repro|overload|scan_heavy|checkpoint>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload's fixed work in a closed loop (the next pass starts
//! when the previous one returns) for about `--seconds`, checks every
//! output, and prints one JSON result as the last line of stdout. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates plain and decorated passes and reports the per-layer
//! ledger. A readable summary goes to stderr. See `perfbench/README.md`.

mod calib;
mod checkpoint;
mod ledger;
mod overload;
mod paper;
mod scan;
mod sim;
mod stats;
mod workloads;

use calib::Calibrator;
use stats::{median, ms, peak_rss_mib, quantile, ratio};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Pass, Segment, Traced, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_repro|overload|scan_heavy|checkpoint> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Fewest passes a run makes, whatever `--seconds` says, so medians
/// have something to choose from.
const MIN_PASSES: usize = 3;
/// Fewest traced passes of a traced run: the exact-count repeatability
/// check needs two.
const MIN_TRACED: usize = 2;
/// Set-up batches timed before each pass; `setup_s` is the median of
/// all of them, each scaled to nominal host speed (see `calib`), so it
/// samples the whole run rather than one moment.
const SETUP_BATCHES_PER_PASS: usize = 10;
/// Each set-up batch repeats the set-up until it has lasted this long.
const SETUP_BATCH_NS: u128 = 2_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.replace('_', "").parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: paper::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value).ok_or(format!("bad seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    value: f64,
    unit: &'static str,
    /// How many samples the value summarises, for the stderr summary.
    samples: usize,
}

impl Metric {
    fn new(value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            value,
            unit,
            samples,
        }
    }
}

/// What a run found: counts for the result line, plus every problem.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, p: &Pass, first_digest: &str) {
        self.attempted += p.ops;
        let mut failed = p.failed;
        if p.digest != first_digest {
            self.errors.push(
                "a pass produced different output than the first pass on the same inputs".into(),
            );
            failed = p.ops;
        }
        self.failed += failed;
        self.errors.extend(p.errors.iter().cloned());
    }
}

/// Time per repetition of building (and discarding) one pass's state,
/// in seconds. Each repetition drops the previous one's state first, so
/// the allocator reuses memory and page faults do not dominate.
fn setup_batch<W: Workload>(w: &W) -> f64 {
    let t = Instant::now();
    let mut reps = 0u32;
    while t.elapsed().as_nanos() < SETUP_BATCH_NS {
        std::hint::black_box(w.setup());
        reps += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

fn run_pass<W: Workload>(w: &W, cal: &mut Calibrator) -> Pass {
    let prepared = w.setup();
    w.run(prepared, cal)
}

/// Each segment's median scaled time over the passes, in nanoseconds,
/// with its operation flag. Every pass repeats the same segments in the
/// same order, so segment `i` is the same work in each. The scaling (see
/// `calib`) takes out most of the host's speed states; the median drops
/// what is left at either end, such as a moment another process held
/// the core. `None` if the passes disagree on their segments, which only
/// a failed pass causes.
fn median_segments(passes: &[Pass]) -> Option<Vec<Segment>> {
    let first = &passes[0].segments;
    if passes.iter().any(|p| p.segments.len() != first.len()) {
        return None;
    }
    Some(
        first
            .iter()
            .enumerate()
            .map(|(i, seg)| {
                let times: Vec<f64> = passes.iter().map(|p| p.segments[i].ns as f64).collect();
                Segment {
                    ns: median(&times) as u64,
                    op: seg.op,
                }
            })
            .collect(),
    )
}

fn end_to_end<W: Workload>(w: &W, seconds: f64, out: &mut Outcome) -> Vec<(&'static str, Metric)> {
    let start = Instant::now();
    let mut cal = Calibrator::new();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut slowdowns = Vec::new();
    loop {
        // One calibration window: the set-up batches and the pass, each
        // timed piece followed by one tick.
        let mut batches = Vec::new();
        for _ in 0..SETUP_BATCHES_PER_PASS {
            batches.push(setup_batch(w));
            cal.tick();
        }
        let mut pass = run_pass(w, &mut cal);
        let scales = cal.close_window();
        if scales.len() != batches.len() + pass.segments.len() {
            out.errors.push(format!(
                "{} calibration ticks for {} timed pieces",
                scales.len(),
                batches.len() + pass.segments.len()
            ));
        }
        let (for_setup, for_segments) = scales.split_at(batches.len().min(scales.len()));
        setups.extend(batches.iter().zip(for_setup).map(|(s, k)| s * k));
        for (seg, k) in pass.segments.iter_mut().zip(for_segments) {
            seg.ns = (seg.ns as f64 * k).round() as u64;
        }
        slowdowns.push(median(&scales.iter().map(|k| 1.0 / k).collect::<Vec<_>>()));
        passes.push(pass);
        let spent = start.elapsed().as_secs_f64();
        let per_pass = spent / passes.len() as f64;
        if passes.len() >= MIN_PASSES && spent + per_pass > seconds {
            break;
        }
    }
    for p in &passes {
        out.absorb(p, &passes[0].digest);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("pass walls (s): {}", shown.join(" "));
    let typical = median_segments(&passes).unwrap_or_else(|| {
        out.errors.push("passes timed different segments".into());
        passes[0].segments.clone()
    });
    let shown: Vec<String> = slowdowns.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "calibration kernel time / nominal, median per pass ({} samples, fastest {} ns): {}",
        cal.samples(),
        cal.fastest_ns(),
        shown.join(" ")
    );
    let wall = typical.iter().map(|s| s.ns).sum::<u64>() as f64 / 1e9;
    let ops: Vec<f64> = typical.iter().filter(|s| s.op).map(|s| ms(s.ns)).collect();
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        out.errors.push(e);
        0.0
    });
    let n = passes.len();
    vec![
        ("setup_s", Metric::new(median(&setups), "s", setups.len())),
        ("wall_s", Metric::new(wall, "s", n)),
        (
            "sim_s_per_s",
            Metric::new(passes[0].sim_secs / wall, "s/s", n),
        ),
        (
            "op_p50_ms",
            Metric::new(quantile(&ops, 0.5), "ms", ops.len()),
        ),
        (
            "op_p90_ms",
            Metric::new(quantile(&ops, 0.9), "ms", ops.len()),
        ),
        ("peak_rss_mib", Metric::new(rss, "MiB", 1)),
    ]
}

/// Unit of every per-layer metric, by name. Every name is printed on
/// every workload; a layer the workload does not enter reads 0.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for e in ledger::Entry::SCHED {
        m.push((format!("{}.ns_per_call", e.name()), "ns/call"));
    }
    for c in ["try_start", "request", "commit", "abort"] {
        m.push((format!("sched.{c}.calls"), "count"));
    }
    m.push(("sched.try_start.admit_ratio".into(), "ratio"));
    m.push(("sched.request.grant_ratio".into(), "ratio"));
    m.push(("sched.busy_share".into(), "ratio"));
    for k in batchsched::sched::SchedulerKind::ALL {
        m.push((format!("sched.{}.ns_per_commit", k.label()), "ns/commit"));
    }
    m.push(("engine.retests_per_dispatch".into(), "ratio"));
    m.push(("engine.starts_per_admit".into(), "ratio"));
    m.push(("engine.self_ns_per_event".into(), "ns/event"));
    for k in batchsched::sched::SchedulerKind::ALL {
        m.push((
            format!("engine.{}.self_ns_per_event", k.label()),
            "ns/event",
        ));
    }
    for (name, unit) in [
        ("des.events", "count"),
        ("des.events_per_commit", "ratio"),
        ("machine.quanta", "count"),
        ("machine.quanta_per_commit", "ratio"),
        ("machine.cn_bursts", "count"),
        ("machine.dpn_util", "ratio"),
        ("machine.cn_util", "ratio"),
        ("wtpg.nodes_mean", "count"),
        ("wtpg.edges_mean", "count"),
        ("sched.locks_held_mean", "count"),
        ("workload.next_batch.calls", "count"),
        ("workload.next_batch.ns_per_call", "ns/call"),
        ("core.sim_runs", "count"),
        ("core.cache_hits", "count"),
    ] {
        m.push((name.into(), unit));
    }
    for id in batchsched::experiments::ARTIFACT_IDS {
        m.push((format!("core.{id}.s"), "s"));
    }
    for (name, unit) in [
        ("snapshot.capture_ms_p50", "ms"),
        ("snapshot.encode_ms_p50", "ms"),
        ("snapshot.decode_ms_p50", "ms"),
        ("snapshot.restore_ms_p50", "ms"),
        ("snapshot.checkpoint_p90_ms", "ms"),
        ("snapshot.restore_p90_ms", "ms"),
        ("snapshot.bytes_max", "bytes"),
        ("snapshot.bytes_per_live_txn", "bytes"),
        ("snapshot.bytes_growth", "ratio"),
        ("snapshot.oplog_overhead_pct", "%"),
        ("bench.traced_overhead_pct", "%"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// Where the traced run's spans are written: inside the build
/// directory, which is never committed.
fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(".bench_build")
        .join("spans")
        .join(format!("{workload}-{seed:#x}.json"))
}

fn per_layer<W: Workload>(w: &W, args: &Args, out: &mut Outcome) -> Vec<(String, Metric)> {
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    loop {
        plain.push(run_pass(w, &mut Calibrator::off()));
        traced.push(w.traced());
        let spent = start.elapsed().as_secs_f64();
        let per_pair = spent / traced.len() as f64;
        if traced.len() >= MIN_TRACED && spent + per_pair > args.seconds {
            break;
        }
    }
    let first = &plain[0];
    for p in &plain {
        out.absorb(p, &first.digest);
    }
    for (i, t) in traced.iter().enumerate() {
        if t.digest != first.digest {
            out.errors.push(format!(
                "traced pass {i} produced different output than the plain pass"
            ));
        }
        if t.exact != traced[0].exact {
            let diff: Vec<String> = t
                .exact
                .iter()
                .zip(&traced[0].exact)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{} {} vs {}", a.0, a.1, b.1))
                .collect();
            out.errors.push(format!(
                "traced pass {i} counted different work than traced pass 0: {}",
                diff.join(", ")
            ));
        }
        out.errors.extend(t.errors.iter().cloned());
    }

    let plain_wall = median(&plain.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_ns as f64).collect();
    // Report the traced pass of median wall time.
    let mid = median(&traced_walls);
    let pick = traced
        .iter()
        .min_by(|a, b| {
            (a.wall_ns as f64 - mid)
                .abs()
                .total_cmp(&(b.wall_ns as f64 - mid).abs())
        })
        .expect("at least one traced pass");

    let path = spans_path(&args.workload, args.seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, pick.ledger.to_json()));
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }

    let mut values: BTreeMap<String, f64> = pick.metrics.clone();
    values.insert(
        "bench.traced_overhead_pct".into(),
        100.0 * (ratio(mid, plain_wall) - 1.0),
    );
    let catalog = per_layer_units();
    for name in values.keys() {
        if !catalog.iter().any(|(n, _)| n == name) {
            out.errors
                .push(format!("metric '{name}' missing from the catalog"));
        }
    }
    catalog
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            (name, Metric::new(value, unit, traced.len()))
        })
        .collect()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run<W: Workload>(w: W, args: &Args) {
    let mut out = Outcome::default();
    let metrics: Vec<(String, Metric)> = if args.trace {
        per_layer(&w, args, &mut out)
    } else {
        end_to_end(&w, args.seconds, &mut out)
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect()
    };
    for (name, m) in &metrics {
        if !m.value.is_finite() {
            out.errors.push(format!("metric {name} is not finite"));
        }
        eprintln!("{name:36} {:>16.6} {:9} (n={})", m.value, m.unit, m.samples);
    }
    eprintln!(
        "ops_failed_ratio                     {:>16.6} ratio     ({} of {} ops)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    if out.attempted == 0 {
        out.errors.push("no operation ran".into());
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {:#x} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    match args.workload.as_str() {
        "paper_repro" => run(paper::PaperRepro, &args),
        "overload" => run(overload::Overload::new(args.seed), &args),
        "scan_heavy" => run(scan::ScanHeavy::new(args.seed), &args),
        "checkpoint" => run(checkpoint::Checkpoint::new(args.seed), &args),
        other => {
            eprintln!("unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
