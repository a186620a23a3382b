//! The counters against the trail, to the unit: a counter bumped without its evidence,
//! or evidence written without its count, fails a run the oracle alone would pass.

use legaliot_audit::{AuditEvent, AuditRecord};
use legaliot_dataplane::{AuditDetail, DataplaneStats};

/// Checks that `stats` equal a fold of `shard_records` — every shard's records, from a
/// graceful shutdown or recovered from disk, without the control-plane log — under the
/// audit `detail` the run had.
///
/// Summarised: Σ `FlowSummary.allowed` = `delivered` and Σ `FlowSummary.denied` =
/// `denied`. Full: allowed `FlowChecked` records = `delivered`, denied ones + Σ
/// `FlowSummary.denied` = `denied`, and Σ `FlowSummary.allowed` = 0. Both: Σ
/// `DeliveryLost.lost` over all but abandoned hand-offs (whose delivery was counted) =
/// `deliveries_lost`, Σ `DeliveryDropped.dropped` = `receiver_dropped`, and one
/// `ShardRestarted` record per `shard_restarts`.
///
/// # Errors
///
/// Each equation that does not hold, one per line, with both sides.
pub fn reconcile<'a>(
    stats: &DataplaneStats,
    shard_records: impl IntoIterator<Item = &'a AuditRecord>,
    detail: AuditDetail,
) -> Result<(), String> {
    // `FlowChecked` records allowed and denied, and the `FlowSummary` totals.
    let (mut allowed, mut denied, mut summary_allowed, mut summary_denied) = (0, 0, 0, 0);
    let (mut lost, mut dropped, mut restarts) = (0, 0, 0);
    // An abandoned hand-off's delivery was counted `delivered`, not lost.
    let abandoned = |cause: &str| cause.starts_with("mailbox hand-off abandoned");
    for record in shard_records {
        match &record.event {
            AuditEvent::FlowChecked { decision, .. } if decision.is_allowed() => allowed += 1,
            AuditEvent::FlowChecked { .. } => denied += 1,
            AuditEvent::FlowSummary { allowed: pair_allowed, denied: pair_denied, .. } => {
                summary_allowed += pair_allowed;
                summary_denied += pair_denied;
            }
            AuditEvent::DeliveryLost { lost: n, cause, .. } if !abandoned(cause) => lost += n,
            AuditEvent::DeliveryDropped { dropped: n, .. } => dropped += n,
            AuditEvent::ShardRestarted { .. } => restarts += 1,
            _ => {}
        }
    }
    let mut equations = match detail {
        AuditDetail::Summarised => vec![
            ("delivered = Σ FlowSummary.allowed", stats.delivered, summary_allowed),
            ("denied = Σ FlowSummary.denied", stats.denied, summary_denied),
        ],
        AuditDetail::Full => vec![
            ("delivered = allowed checks", stats.delivered, allowed),
            ("denied = denied checks + FlowSummary denials", stats.denied, denied + summary_denied),
            ("0 = Σ FlowSummary.allowed", 0, summary_allowed),
        ],
    };
    equations.extend([
        ("deliveries_lost = Σ DeliveryLost.lost", stats.deliveries_lost, lost),
        ("receiver_dropped = Σ DeliveryDropped.dropped", stats.receiver_dropped, dropped),
        ("shard_restarts = ShardRestarted records", stats.shard_restarts, restarts),
    ]);
    let unequal: Vec<String> = equations
        .into_iter()
        .filter(|(_, counted, evidenced)| counted != evidenced)
        .map(|(equation, counted, evidenced)| format!("{equation}: {counted} ≠ {evidenced}"))
        .collect();
    unequal.is_empty().then_some(()).ok_or_else(|| unequal.join("\n"))
}
