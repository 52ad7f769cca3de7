//! Property tests of the assignment-manifest sidecar: any generated
//! sequence of assignment/delivery events must survive a write → reopen
//! round trip with the same indexed state, and `done` must stay terminal.

use proptest::prelude::*;
use std::path::PathBuf;
use surepath_runner::manifest::{
    ManifestRecord, MANIFEST_ASSIGNED, MANIFEST_DONE, MANIFEST_RECLAIMED,
};
use surepath_runner::AssignmentManifest;

fn temp_manifest(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("surepath-runner-manifest-props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("prop-{tag}-{}.manifest.jsonl", std::process::id()))
}

/// Raw event material, decoded into (job, worker, kind) by [`decode`] —
/// kind 0 = assigned, 1 = done, 2 = reclaimed. The vendored proptest has no
/// tuple strategies, so one u64 carries all three fields; the small
/// job/worker universes make collisions — re-assignments, repeat
/// deliveries, reclaim-after-done replays — actually happen.
fn events() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..u64::MAX, 0..=40)
}

fn decode(raw: u64) -> (u64, u64, u64) {
    (raw % 12, (raw >> 4) % 5, (raw >> 8) % 3)
}

fn event_fp(job: u64) -> String {
    format!("{:016x}", job.wrapping_mul(0x9e3779b97f4a7c15))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manifest_round_trips_through_reopen(raw in events(), tag in 0u64..u64::MAX) {
        let path = temp_manifest(tag);
        let _ = std::fs::remove_file(&path);
        let mut live = AssignmentManifest::open(&path).unwrap();
        for &event in &raw {
            let (job, worker, kind) = decode(event);
            let fp = event_fp(job);
            let worker = format!("w{worker}");
            match kind {
                1 => live.record_done(&fp, &worker).unwrap(),
                2 => live.record_reclaimed(&fp, &worker).unwrap(),
                _ => live.record_assigned(&fp, &worker).unwrap(),
            }
        }
        let live_records: Vec<ManifestRecord> =
            live.records_in_order().cloned().collect();
        drop(live);

        // Reopen: identical index, identical order, no corruption.
        let reopened = AssignmentManifest::open_read_only(&path).unwrap();
        let reopened_records: Vec<ManifestRecord> =
            reopened.records_in_order().cloned().collect();
        prop_assert_eq!(&reopened_records, &live_records);
        prop_assert_eq!(reopened.corrupt_lines, 0);

        // Invariants of the indexed state: done is terminal and statuses
        // are canonical.
        for record in &reopened_records {
            prop_assert!(
                record.status == MANIFEST_ASSIGNED
                    || record.status == MANIFEST_DONE
                    || record.status == MANIFEST_RECLAIMED,
                "unexpected status {:?}",
                record.status
            );
            let fp_done = raw.iter().any(|&event| {
                let (job, _, kind) = decode(event);
                kind == 1 && event_fp(job) == record.fp
            });
            if record.status == MANIFEST_DONE {
                // Every event stream that delivered this fp keeps it done.
                prop_assert!(fp_done, "done without a delivery event");
            } else {
                // And `done` is terminal: no later assign/reclaim replay may
                // have downgraded a delivered fingerprint.
                prop_assert!(!fp_done, "a delivered fingerprint was downgraded");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
