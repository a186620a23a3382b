//! Crash-recovery inspector for durable audit segment directories: scans a
//! shard's on-disk segments, verifies the cross-segment hash chain, and prints
//! per-segment record counts plus the exact truncation report — every byte the
//! recovery discarded, and why.
//!
//! Run against a real directory (e.g. one produced by a dataplane configured
//! with [`legaliot::dataplane::PersistenceConfig`]):
//!
//! ```text
//! cargo run --example audit_recover -- /path/to/shard-0
//! ```
//!
//! Run with no arguments for a self-contained demo: it writes a chained
//! segment store to a temp directory, tears the final segment mid-frame (a
//! simulated crash during `segment.write`), then recovers and reports.

use std::path::{Path, PathBuf};

use legaliot::audit::{AuditEvent, AuditLog, RecoveryReport, SegmentStore};

fn recover_and_report(dir: &Path) -> RecoveryReport {
    let report = match SegmentStore::recover(dir) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("cannot recover {}: {error}", dir.display());
            std::process::exit(2);
        }
    };

    println!("recovered {}", dir.display());
    println!("  segments:");
    for segment in &report.segments {
        println!(
            "    seq {:>4}  {:>6} records  {:>8} bytes  {}",
            segment.sequence,
            segment.records,
            segment.bytes,
            segment.path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        );
    }
    if report.segments.is_empty() {
        println!("    (none)");
    }

    if report.truncations.is_empty() {
        println!("  truncations: none — clean shutdown");
    } else {
        println!("  truncations:");
        for t in &report.truncations {
            println!(
                "    seq {:>4}  cut to {:>8} B, dropped {:>6} B after {} records: {}",
                t.sequence, t.offset, t.bytes_dropped, t.records_recovered_before, t.reason,
            );
        }
        // Not every reported segment was cut: a segment in the retired v1 format, one
        // whose anchor does not chain, and everything behind either stay on disk.
        let kept = report
            .truncations
            .iter()
            .filter(|t| std::fs::metadata(&t.path).is_ok_and(|m| m.len() > t.offset))
            .count();
        if kept > 0 {
            println!("  left untouched as evidence: {kept} of the segments above (see reasons)");
        }
    }

    println!(
        "  chain: {} records, initial anchor {:#018x}, head {:#018x}, next id {}",
        report.records.len(),
        report.initial_anchor,
        report.head_hash,
        report.next_id,
    );
    println!("  verification: {}", if report.chain.is_intact() { "INTACT" } else { "BROKEN" });
    report
}

/// Builds a three-segment store, then tears the last segment mid-frame the way
/// a crash during `segment.write` would.
fn build_torn_demo_dir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("legaliot-audit-recover-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut log = AuditLog::new("demo-shard");
    for i in 0..10u64 {
        log.record(
            AuditEvent::PolicyFired {
                policy: format!("retention-policy-{i}"),
                trigger: "reading".into(),
                actions: 1,
            },
            100 + i,
        );
    }
    let mut store = SegmentStore::create(&dir, 0, 4).expect("create demo store");
    for record in log.records() {
        store.append(record);
    }
    store.seal();

    // Tear the newest segment 5 bytes short of a frame boundary.
    let mut segments: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    segments.sort();
    let last = segments.last().expect("demo store has segments");
    let len = std::fs::metadata(last).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(last).unwrap().set_len(len - 5).unwrap();
    println!(
        "demo: wrote 10 records across {} segments, then tore {} to {} bytes ({} short)\n",
        segments.len(),
        last.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        len - 5,
        5,
    );
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [dir] => {
            let report = recover_and_report(Path::new(dir));
            std::process::exit(if report.chain.is_intact() { 0 } else { 1 });
        }
        [] => {
            let dir = build_torn_demo_dir();
            let report = recover_and_report(&dir);
            assert!(report.chain.is_intact(), "demo recovery must verify");
            assert_eq!(report.truncations.len(), 1, "demo tear must be reported");

            // Recovery repaired the directory in place: a second scan is clean,
            // and a resumed log extends the recovered chain.
            println!("\nre-scanning the repaired directory:");
            let again = recover_and_report(&dir);
            assert!(again.is_clean(), "second recovery must be clean");
            let mut resumed = again.resume_log("demo-shard");
            resumed.record(
                AuditEvent::PolicyFired {
                    policy: "post-recovery".into(),
                    trigger: "restart".into(),
                    actions: 1,
                },
                200,
            );
            let mut combined = again.records.clone();
            combined.extend(resumed.records().iter().cloned());
            assert!(
                AuditLog::verify_records(again.initial_anchor, &combined).is_intact(),
                "resumed chain must verify"
            );
            println!(
                "\nresumed log continues the chain: record {} anchors on {:#018x}",
                again.next_id, again.head_hash
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        _ => {
            eprintln!("usage: audit_recover [SEGMENT_DIR]");
            std::process::exit(64);
        }
    }
}
