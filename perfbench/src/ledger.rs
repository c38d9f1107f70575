//! The per-layer host-cost ledger, measured from outside the program.
//!
//! Two decorators time every call into a layer's public entry points:
//! [`TimedScheduler`] wraps a `Box<dyn Scheduler>` (installed with
//! `Engine::replace_scheduler`) and [`TimedGen`] wraps a workload
//! generator (passed to `Engine::with_generator`). Both add into a
//! thread-local accumulator; the engine runs on the calling thread, so
//! no synchronisation is needed and the decorators stay `Send`.
//!
//! The workload code brackets each unit of work (a `run_until` chunk, an
//! artifact, a checkpoint cycle) in a parent [`Span`]. On close, the
//! accumulated children are moved into that span, so memory grows with
//! the number of parents, never with the number of calls.

use batchsched::sched::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use batchsched::trace::{JsonArr, JsonObj};
use batchsched::workload::gen::{GenCursor, WorkloadGen};
use batchsched::workload::{BatchSpec, FileId};
use batchsched::wtpg::TxnId;
use std::cell::RefCell;
use std::time::Instant;

/// A timed entry point: one per (layer, function) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    Register,
    TryStart,
    Request,
    StepComplete,
    Validate,
    Commit,
    Abort,
    NextBatch,
}

impl Entry {
    pub const ALL: [Entry; 8] = [
        Entry::Register,
        Entry::TryStart,
        Entry::Request,
        Entry::StepComplete,
        Entry::Validate,
        Entry::Commit,
        Entry::Abort,
        Entry::NextBatch,
    ];
    /// Entries that belong to the scheduler layer.
    pub const SCHED: [Entry; 7] = [
        Entry::Register,
        Entry::TryStart,
        Entry::Request,
        Entry::StepComplete,
        Entry::Validate,
        Entry::Commit,
        Entry::Abort,
    ];

    /// Metric name of the entry, `layer.function`.
    pub fn name(self) -> &'static str {
        match self {
            Entry::Register => "sched.register",
            Entry::TryStart => "sched.try_start",
            Entry::Request => "sched.request",
            Entry::StepComplete => "sched.step_complete",
            Entry::Validate => "sched.validate",
            Entry::Commit => "sched.commit",
            Entry::Abort => "sched.abort",
            Entry::NextBatch => "workload.next_batch",
        }
    }
}

/// Calls and total host nanoseconds of one entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub ns: u64,
}

impl Agg {
    pub fn add(&mut self, other: Agg) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Child aggregates plus the decision outcomes the decorator saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Children {
    pub aggs: [Agg; Entry::ALL.len()],
    /// `try_start` calls answered `Admit`.
    pub admits: u64,
    /// `request` calls answered `Granted`.
    pub grants: u64,
}

impl Children {
    pub fn get(&self, e: Entry) -> Agg {
        self.aggs[e as usize]
    }

    pub fn add(&mut self, other: &Children) {
        for (a, b) in self.aggs.iter_mut().zip(other.aggs) {
            a.add(b);
        }
        self.admits += other.admits;
        self.grants += other.grants;
    }

    /// Host nanoseconds spent in the given entries.
    pub fn ns_in(&self, entries: &[Entry]) -> u64 {
        entries.iter().map(|&e| self.get(e).ns).sum()
    }
}

/// A parent span: one unit of workload work with its children folded in.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: a scheduler label, an artifact id or `"chain"`.
    pub name: String,
    /// Host nanoseconds since the ledger's epoch at open.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Engine events processed inside the span (0 where not known).
    pub events: u64,
    pub children: Children,
}

impl Span {
    /// Duration minus the part its children cover.
    pub fn self_ns(&self) -> u64 {
        let covered = self.children.ns_in(&Entry::ALL);
        self.dur_ns.saturating_sub(covered)
    }
}

thread_local! {
    static OPEN: RefCell<Children> = RefCell::new(Children::default());
}

#[inline]
fn record(e: Entry, since: Instant) {
    let ns = since.elapsed().as_nanos() as u64;
    OPEN.with(|c| {
        let mut c = c.borrow_mut();
        let a = &mut c.aggs[e as usize];
        a.calls += 1;
        a.ns += ns;
    });
}

/// Collects the parent spans of one traced pass.
pub struct Ledger {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Ledger {
    pub fn new() -> Self {
        // Drop anything a previous ledger left open on this thread.
        OPEN.with(|c| *c.borrow_mut() = Children::default());
        Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `work` as one parent span; `work` returns the number of
    /// engine events it processed.
    pub fn span<R>(&mut self, name: &str, work: impl FnOnce() -> (R, u64)) -> R {
        OPEN.with(|c| *c.borrow_mut() = Children::default());
        let start = Instant::now();
        let (out, events) = work();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let children = OPEN.with(|c| std::mem::take(&mut *c.borrow_mut()));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            events,
            children,
        });
        out
    }

    /// Children summed over the spans whose name passes `keep`.
    pub fn children_where(&self, keep: impl Fn(&str) -> bool) -> Children {
        let mut sum = Children::default();
        for s in self.spans.iter().filter(|s| keep(&s.name)) {
            sum.add(&s.children);
        }
        sum
    }

    /// Render every span as one JSON document (written out when the
    /// benchmark ends).
    pub fn to_json(&self) -> String {
        let mut spans = JsonArr::new();
        for s in &self.spans {
            let mut o = JsonObj::new();
            o.str("name", &s.name);
            o.int("start_ns", s.start_ns);
            o.int("dur_ns", s.dur_ns);
            o.int("self_ns", s.self_ns());
            o.int("events", s.events);
            o.int("admits", s.children.admits);
            o.int("grants", s.children.grants);
            let mut children = JsonObj::new();
            for e in Entry::ALL {
                let a = s.children.get(e);
                if a.calls > 0 {
                    let mut c = JsonObj::new();
                    c.int("calls", a.calls);
                    c.int("ns", a.ns);
                    children.raw(e.name(), &c.finish());
                }
            }
            o.raw("children", &children.finish());
            spans.raw(&o.finish());
        }
        spans.finish()
    }
}

/// Scheduler decorator timing every trait call. Decisions are passed
/// through untouched, so the simulation is the same as undecorated.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler { inner }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        let t = Instant::now();
        self.inner.register(id, spec);
        record(Entry::Register, t);
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        let t = Instant::now();
        let out = self.inner.try_start(id);
        record(Entry::TryStart, t);
        if out.decision == StartDecision::Admit {
            OPEN.with(|c| c.borrow_mut().admits += 1);
        }
        out
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let t = Instant::now();
        let out = self.inner.request(id, step);
        record(Entry::Request, t);
        if out.decision == ReqDecision::Granted {
            OPEN.with(|c| c.borrow_mut().grants += 1);
        }
        out
    }

    fn step_complete(&mut self, id: TxnId, step: usize) {
        let t = Instant::now();
        self.inner.step_complete(id, step);
        record(Entry::StepComplete, t);
    }

    fn validate(&mut self, id: TxnId) -> Outcome<bool> {
        let t = Instant::now();
        let out = self.inner.validate(id);
        record(Entry::Validate, t);
        out
    }

    fn commit(&mut self, id: TxnId) -> Vec<FileId> {
        let t = Instant::now();
        let out = self.inner.commit(id);
        record(Entry::Commit, t);
        out
    }

    fn abort(&mut self, id: TxnId) -> Vec<FileId> {
        let t = Instant::now();
        let out = self.inner.abort(id);
        record(Entry::Abort, t);
        out
    }

    fn commit_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        let t = Instant::now();
        self.inner.commit_into(id, released);
        record(Entry::Commit, t);
    }

    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        let t = Instant::now();
        self.inner.abort_into(id, released);
        record(Entry::Abort, t);
    }

    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        let t = Instant::now();
        self.inner.forget(id, released);
        record(Entry::Abort, t);
    }

    fn live_count(&self) -> usize {
        self.inner.live_count()
    }

    fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        self.inner.drain_constraints()
    }

    fn telemetry(&self) -> SchedTelemetry {
        self.inner.telemetry()
    }

    fn audit_invariant(&self) -> Option<Result<(), String>> {
        self.inner.audit_invariant()
    }
}

/// Workload-generator decorator timing `next_batch`.
pub struct TimedGen {
    inner: Box<dyn WorkloadGen>,
}

impl TimedGen {
    pub fn new(inner: Box<dyn WorkloadGen>) -> Self {
        TimedGen { inner }
    }
}

impl WorkloadGen for TimedGen {
    fn next_batch(&mut self) -> BatchSpec {
        let t = Instant::now();
        let out = self.inner.next_batch();
        record(Entry::NextBatch, t);
        out
    }

    fn num_files(&self) -> u32 {
        self.inner.num_files()
    }

    fn mean_demand(&self) -> f64 {
        self.inner.mean_demand()
    }

    fn save_cursor(&self) -> Option<GenCursor> {
        self.inner.save_cursor()
    }

    fn load_cursor(&mut self, cursor: &GenCursor) -> bool {
        self.inner.load_cursor(cursor)
    }
}
