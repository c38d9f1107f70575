//! The typed trace event model.
//!
//! One [`Rec`] per observable simulator action, covering the full
//! transaction lifecycle: arrival, admission, lock request/grant/block/
//! deny, WTPG edge insertion, per-DPN cohort execution and round-robin
//! CPU quanta, control-node CPU bursts, certification, commit, abort and
//! restart. Scheduler refusals carry a static `reason` string (e.g.
//! C2PL's `"predicted-deadlock"`, LOW's `"E(q)>E(p)"`, GOW's
//! `"critical-path"`), so analyzers can attribute denied time to policy.

use crate::json::JsonObj;
use bds_des::time::{Duration, SimTime};
use bds_workload::FileId;
use bds_wtpg::TxnId;

/// One trace record: the instant it was emitted plus its payload.
///
/// Span-like events ([`EventKind::Quantum`], [`EventKind::CnCpu`]) carry
/// their own `start`; `at` is the span's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Emission time (for spans: the end of the span).
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Why a transaction attempt was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// OPT certification failed at commit.
    Validation,
    /// The scheduler ordered a restart (restart-oriented protocols).
    Scheduler,
    /// An injected fault (DPN crash) destroyed the attempt's cohorts.
    Fault,
}

impl AbortCause {
    /// Short static name (`"validation"`, `"scheduler"`, `"fault"`).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::Validation => "validation",
            AbortCause::Scheduler => "scheduler",
            AbortCause::Fault => "fault",
        }
    }
}

/// The payload of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction arrived and was registered with the scheduler.
    Arrival {
        /// The arriving transaction.
        txn: TxnId,
    },
    /// Admission granted: the transaction is live (and, under ASL, holds
    /// its whole lock set).
    Admit {
        /// The admitted transaction.
        txn: TxnId,
    },
    /// Admission refused by the scheduler; the transaction stays queued.
    AdmitRefuse {
        /// The refused transaction.
        txn: TxnId,
        /// Policy reason (`"chain-form"`, `"k-conflict"`, …).
        reason: &'static str,
    },
    /// A lock request was submitted to the scheduler.
    LockRequest {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// File whose lock is requested.
        file: FileId,
    },
    /// The lock request was granted.
    LockGrant {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Granted file.
        file: FileId,
    },
    /// The request conflicts with a currently held lock (the paper's
    /// "blocked").
    LockBlock {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Contested file.
        file: FileId,
        /// Why the scheduler blocked it.
        reason: &'static str,
    },
    /// The request was refused by scheduler policy (the paper's
    /// "delayed").
    LockDeny {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Contested file.
        file: FileId,
        /// Policy reason (`"predicted-deadlock"`, `"E(q)>E(p)"`, …).
        reason: &'static str,
    },
    /// The scheduler ordered the requester aborted and restarted
    /// (restart-oriented protocols such as WDL).
    LockRestart {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Contested file.
        file: FileId,
        /// Policy reason (`"wait-depth"`, …).
        reason: &'static str,
    },
    /// A precedence edge `from → to` entered the wait-for/WTPG state.
    WtpgEdge {
        /// Transaction ordered first.
        from: TxnId,
        /// Transaction ordered after `from`.
        to: TxnId,
    },
    /// A step's cohorts were dispatched to their DPNs.
    StepDispatch {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
    },
    /// Every cohort of the step finished and the completion message was
    /// processed at the control node.
    StepDone {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
    },
    /// One cohort of a step entered a DPN's ready queue.
    CohortStart {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
        /// The DPN serving this cohort.
        node: u32,
    },
    /// One cohort of a step completed its scan on a DPN.
    CohortFinish {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
        /// The DPN that served this cohort.
        node: u32,
    },
    /// A round-robin CPU slice `[start, at]` ran on a DPN.
    Quantum {
        /// Transaction whose cohort ran.
        txn: TxnId,
        /// The DPN the slice ran on.
        node: u32,
        /// Slice start (the record's `at` is the slice end).
        start: SimTime,
    },
    /// A CPU burst `[start, at]` served by the control node's FCFS CPU.
    CnCpu {
        /// Transaction the burst was charged to, when attributable.
        txn: Option<TxnId>,
        /// What the burst paid for (`"sot"`, `"sched"`, `"msg"`, `"cot"`).
        what: &'static str,
        /// Burst start (the record's `at` is the burst end).
        start: SimTime,
    },
    /// Commit certification verdict (locking schedulers always pass; OPT
    /// validates backward).
    Certify {
        /// The certified transaction.
        txn: TxnId,
        /// Whether certification passed.
        ok: bool,
    },
    /// The transaction committed.
    Commit {
        /// The committed transaction.
        txn: TxnId,
    },
    /// The transaction's current attempt was aborted.
    Abort {
        /// The aborted transaction.
        txn: TxnId,
        /// Why the attempt died.
        cause: AbortCause,
    },
    /// The transaction re-entered the start queue after its restart
    /// delay.
    Restart {
        /// The restarting transaction.
        txn: TxnId,
    },
    /// A fault-plan action fired (DPN crash, CN stall, link loss, …).
    FaultInjected {
        /// The affected DPN, or `None` for machine-wide faults (CN
        /// stalls, link faults).
        node: Option<u32>,
        /// What happened (`"dpn-crash"`, `"cn-stall"`, `"link-loss"`).
        what: &'static str,
        /// How long the fault lasts, when the action says so (CN
        /// stalls).
        dur: Option<Duration>,
    },
    /// A transaction was dropped permanently after exhausting its
    /// fault-retry budget.
    TxnKilled {
        /// The killed transaction.
        txn: TxnId,
        /// How many times it had been fault-killed (== the retry cap).
        attempts: u32,
    },
    /// A crashed DPN came back up and accepts cohorts again.
    NodeRecovered {
        /// The recovered DPN.
        node: u32,
    },
}

impl EventKind {
    /// Short static name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::Admit { .. } => "admit",
            EventKind::AdmitRefuse { .. } => "admit_refuse",
            EventKind::LockRequest { .. } => "lock_request",
            EventKind::LockGrant { .. } => "lock_grant",
            EventKind::LockBlock { .. } => "lock_block",
            EventKind::LockDeny { .. } => "lock_deny",
            EventKind::LockRestart { .. } => "lock_restart",
            EventKind::WtpgEdge { .. } => "wtpg_edge",
            EventKind::StepDispatch { .. } => "step_dispatch",
            EventKind::StepDone { .. } => "step_done",
            EventKind::CohortStart { .. } => "cohort_start",
            EventKind::CohortFinish { .. } => "cohort_finish",
            EventKind::Quantum { .. } => "quantum",
            EventKind::CnCpu { .. } => "cn_cpu",
            EventKind::Certify { .. } => "certify",
            EventKind::Commit { .. } => "commit",
            EventKind::Abort { .. } => "abort",
            EventKind::Restart { .. } => "restart",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::TxnKilled { .. } => "txn_killed",
            EventKind::NodeRecovered { .. } => "node_recovered",
        }
    }

    /// The transaction this event belongs to, when there is exactly one.
    pub fn txn(&self) -> Option<TxnId> {
        match *self {
            EventKind::Arrival { txn }
            | EventKind::Admit { txn }
            | EventKind::AdmitRefuse { txn, .. }
            | EventKind::LockRequest { txn, .. }
            | EventKind::LockGrant { txn, .. }
            | EventKind::LockBlock { txn, .. }
            | EventKind::LockDeny { txn, .. }
            | EventKind::LockRestart { txn, .. }
            | EventKind::StepDispatch { txn, .. }
            | EventKind::StepDone { txn, .. }
            | EventKind::CohortStart { txn, .. }
            | EventKind::CohortFinish { txn, .. }
            | EventKind::Quantum { txn, .. }
            | EventKind::Certify { txn, .. }
            | EventKind::Commit { txn }
            | EventKind::Abort { txn, .. }
            | EventKind::Restart { txn }
            | EventKind::TxnKilled { txn, .. } => Some(txn),
            EventKind::CnCpu { txn, .. } => txn,
            EventKind::WtpgEdge { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::NodeRecovered { .. } => None,
        }
    }
}

impl Rec {
    /// Render as one flat JSON object: `{"e": <kind name>, "at_ms", …}`
    /// followed by the payload's fields (times as `*_ms`).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("e", self.kind.name());
        o.int("at_ms", self.at.as_millis());
        if let Some(txn) = self.kind.txn() {
            o.int("txn", txn.0);
        }
        match self.kind {
            EventKind::Arrival { .. }
            | EventKind::Admit { .. }
            | EventKind::Commit { .. }
            | EventKind::Restart { .. } => {}
            EventKind::AdmitRefuse { reason, .. } => o.str("reason", reason),
            EventKind::LockRequest { step, file, .. } | EventKind::LockGrant { step, file, .. } => {
                o.int("step", u64::from(step));
                o.int("file", u64::from(file.0));
            }
            EventKind::LockBlock {
                step, file, reason, ..
            }
            | EventKind::LockDeny {
                step, file, reason, ..
            }
            | EventKind::LockRestart {
                step, file, reason, ..
            } => {
                o.int("step", u64::from(step));
                o.int("file", u64::from(file.0));
                o.str("reason", reason);
            }
            EventKind::WtpgEdge { from, to } => {
                o.int("from", from.0);
                o.int("to", to.0);
            }
            EventKind::StepDispatch { step, .. } | EventKind::StepDone { step, .. } => {
                o.int("step", u64::from(step));
            }
            EventKind::CohortStart { step, node, .. }
            | EventKind::CohortFinish { step, node, .. } => {
                o.int("step", u64::from(step));
                o.int("node", u64::from(node));
            }
            EventKind::Quantum { node, start, .. } => {
                o.int("node", u64::from(node));
                o.int("start_ms", start.as_millis());
            }
            EventKind::CnCpu { what, start, .. } => {
                o.str("what", what);
                o.int("start_ms", start.as_millis());
            }
            EventKind::Certify { ok, .. } => o.bool("ok", ok),
            EventKind::Abort { cause, .. } => o.str("cause", cause.name()),
            EventKind::FaultInjected { node, what, dur } => {
                if let Some(n) = node {
                    o.int("node", u64::from(n));
                }
                o.str("what", what);
                if let Some(d) = dur {
                    o.int("dur_ms", d.as_millis());
                }
            }
            EventKind::TxnKilled { attempts, .. } => o.int("attempts", u64::from(attempts)),
            EventKind::NodeRecovered { node } => o.int("node", u64::from(node)),
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_txn_extraction() {
        let k = EventKind::Commit { txn: TxnId(7) };
        assert_eq!(k.name(), "commit");
        assert_eq!(k.txn(), Some(TxnId(7)));
        let e = EventKind::WtpgEdge {
            from: TxnId(1),
            to: TxnId(2),
        };
        assert_eq!(e.txn(), None);
        let c = EventKind::CnCpu {
            txn: None,
            what: "sot",
            start: SimTime::ZERO,
        };
        assert_eq!(c.txn(), None);
        assert_eq!(c.name(), "cn_cpu");
    }

    #[test]
    fn records_render_as_flat_json() {
        let abort = Rec {
            at: SimTime::from_millis(1500),
            kind: EventKind::Abort {
                txn: TxnId(3),
                cause: AbortCause::Validation,
            },
        };
        assert_eq!(
            abort.to_json(),
            r#"{"e":"abort","at_ms":1500,"txn":3,"cause":"validation"}"#
        );
        let stall = Rec {
            at: SimTime::from_millis(20),
            kind: EventKind::FaultInjected {
                node: None,
                what: "cn-stall",
                dur: Some(Duration::from_millis(250)),
            },
        };
        assert_eq!(
            stall.to_json(),
            r#"{"e":"fault_injected","at_ms":20,"what":"cn-stall","dur_ms":250}"#
        );
    }
}
