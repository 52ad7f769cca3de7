//! Assignment manifests: the `<store>.manifest.jsonl` sidecar of a
//! distributed campaign.
//!
//! The result store records *finished* jobs; the manifest records
//! *assignments* — which worker each job fingerprint was handed to, and
//! whether a result came back. That distinction is what lets `--report`
//! tell **missing** (never assigned anywhere) from **assigned elsewhere /
//! in-flight**, and lets a coordinator restarted after a crash tell that an
//! earlier serve of the grid left work behind.
//!
//! Like the store, the manifest is append-only JSONL, flushed per record,
//! tolerant of a truncated final line, and indexed last-writer-wins on
//! reopen (`done` beats `assigned`). Unknown keys are ignored, so lines
//! written by older coordinators, which carried one more column, still
//! load.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Assignment states a manifest records.
pub const MANIFEST_ASSIGNED: &str = "assigned";
/// See [`MANIFEST_ASSIGNED`].
pub const MANIFEST_DONE: &str = "done";
/// A lease taken back before delivery — the worker's connection died or it
/// re-introduced itself (re-Hello) while the lease was still live. The job
/// is back in the coordinator's queue; a later `assigned` line supersedes
/// this.
pub const MANIFEST_RECLAIMED: &str = "reclaimed";

/// One manifest line: a job fingerprint's latest assignment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestRecord {
    /// The job fingerprint (see [`crate::fingerprint`]).
    pub fp: String,
    /// The worker the job was handed to (or that delivered the result).
    pub worker: String,
    /// `"assigned"` or `"done"`.
    pub status: String,
}

/// The manifest sidecar path of a result store:
/// `results/grid.jsonl` → `results/grid.manifest.jsonl`.
pub fn manifest_path(store: &Path) -> PathBuf {
    store.with_extension("manifest.jsonl")
}

/// An append-only, fingerprint-indexed assignment manifest.
#[derive(Debug)]
pub struct AssignmentManifest {
    path: PathBuf,
    /// `None` for read-only manifests.
    writer: Option<BufWriter<File>>,
    /// fingerprint → latest record (`done` beats `assigned`).
    records: HashMap<String, ManifestRecord>,
    /// Fingerprints in first-seen order, for deterministic iteration.
    order: Vec<String>,
    /// Unparseable lines seen on reopen.
    pub corrupt_lines: usize,
}

impl AssignmentManifest {
    fn index(
        path: &Path,
        tolerate_missing: bool,
    ) -> std::io::Result<(HashMap<String, ManifestRecord>, Vec<String>, usize)> {
        let mut records = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut corrupt_lines = 0;
        match std::fs::read_to_string(path) {
            Ok(existing) => {
                for line in existing.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match serde_json::from_str::<ManifestRecord>(line) {
                        Ok(record) => {
                            // `done` is terminal; otherwise the latest
                            // assignment wins (a re-offered job's new worker).
                            let keep_old =
                                records.get(&record.fp).is_some_and(|old: &ManifestRecord| {
                                    old.status == MANIFEST_DONE && record.status != MANIFEST_DONE
                                });
                            if !keep_old {
                                if !records.contains_key(&record.fp) {
                                    order.push(record.fp.clone());
                                }
                                records.insert(record.fp.clone(), record);
                            }
                        }
                        Err(_) => corrupt_lines += 1,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && tolerate_missing => {}
            Err(e) => return Err(e),
        }
        Ok((records, order, corrupt_lines))
    }

    /// Opens (or creates) the manifest at `path` for appending.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let (records, order, corrupt_lines) = Self::index(path, true)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AssignmentManifest {
            path: path.to_path_buf(),
            writer: Some(BufWriter::new(file)),
            records,
            order,
            corrupt_lines,
        })
    }

    /// Starts a new, empty manifest at `path` for appending, discarding the
    /// lines of any earlier one.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Self::open(path),
        }
    }

    /// Opens the manifest read-only; a missing file is an error.
    pub fn open_read_only(path: &Path) -> std::io::Result<Self> {
        let (records, order, corrupt_lines) = Self::index(path, false)?;
        Ok(AssignmentManifest {
            path: path.to_path_buf(),
            writer: None,
            records,
            order,
            corrupt_lines,
        })
    }

    /// The manifest's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, record: ManifestRecord) -> std::io::Result<()> {
        let Some(writer) = &mut self.writer else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "manifest was opened read-only",
            ));
        };
        let line = serde_json::to_string(&record).expect("manifest record serializes");
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        // Flush per record: assignments must survive a coordinator crash.
        writer.flush()?;
        // Index with the same rule reopen applies: `done` is terminal, a
        // stale re-assignment cannot resurrect an in-flight state.
        let keep_old = self
            .records
            .get(&record.fp)
            .is_some_and(|old| old.status == MANIFEST_DONE && record.status != MANIFEST_DONE);
        if !keep_old {
            if !self.records.contains_key(&record.fp) {
                self.order.push(record.fp.clone());
            }
            self.records.insert(record.fp.clone(), record);
        }
        Ok(())
    }

    /// Records that `fp` was handed to `worker`.
    pub fn record_assigned(&mut self, fp: &str, worker: &str) -> std::io::Result<()> {
        self.append(ManifestRecord {
            fp: fp.to_string(),
            worker: worker.to_string(),
            status: MANIFEST_ASSIGNED.to_string(),
        })
    }

    /// Records that `worker` delivered `fp`'s result.
    pub fn record_done(&mut self, fp: &str, worker: &str) -> std::io::Result<()> {
        self.append(ManifestRecord {
            fp: fp.to_string(),
            worker: worker.to_string(),
            status: MANIFEST_DONE.to_string(),
        })
    }

    /// Records that `fp`'s lease to `worker` was taken back undelivered
    /// (disconnect or re-Hello reclaim) and the job re-queued.
    pub fn record_reclaimed(&mut self, fp: &str, worker: &str) -> std::io::Result<()> {
        self.append(ManifestRecord {
            fp: fp.to_string(),
            worker: worker.to_string(),
            status: MANIFEST_RECLAIMED.to_string(),
        })
    }

    /// The latest record for a fingerprint, if any.
    pub fn record(&self, fp: &str) -> Option<&ManifestRecord> {
        self.records.get(fp)
    }

    /// All indexed records in first-seen order.
    pub fn records_in_order(&self) -> impl Iterator<Item = &ManifestRecord> {
        self.order.iter().filter_map(|fp| self.records.get(fp))
    }

    /// Number of indexed fingerprints.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the manifest is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The fingerprints assigned to a worker but not (yet) delivered —
    /// "in-flight" from the coordinator's point of view. `is_complete`
    /// consults the result store: a record the store already holds is not
    /// in-flight even if the manifest's `done` line was lost to a crash.
    pub fn in_flight<'a>(&'a self, is_complete: &dyn Fn(&str) -> bool) -> Vec<&'a ManifestRecord> {
        self.records_in_order()
            .filter(|r| r.status == MANIFEST_ASSIGNED && !is_complete(&r.fp))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_manifest(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("surepath-runner-manifest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.manifest.jsonl", std::process::id()))
    }

    #[test]
    fn manifest_path_derives_from_the_store_path() {
        assert_eq!(
            manifest_path(Path::new("results/grid.jsonl")),
            PathBuf::from("results/grid.manifest.jsonl")
        );
    }

    #[test]
    fn append_then_reopen_keeps_latest_status() {
        let path = temp_manifest("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = AssignmentManifest::open(&path).unwrap();
            m.record_assigned("aaaa", "w1").unwrap();
            m.record_assigned("bbbb", "w2").unwrap();
            m.record_done("aaaa", "w1").unwrap();
            // A re-offer after lease expiry: the new worker's assignment wins.
            m.record_assigned("bbbb", "w3").unwrap();
        }
        let m = AssignmentManifest::open(&path).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.record("aaaa").unwrap().status, MANIFEST_DONE);
        assert_eq!(m.record("bbbb").unwrap().worker, "w3");
        // `done` is terminal: a stale assignment replayed later cannot
        // resurrect an in-flight state.
        let mut m = AssignmentManifest::open(&path).unwrap();
        m.record_assigned("aaaa", "w9").unwrap();
        assert_eq!(m.record("aaaa").unwrap().status, MANIFEST_DONE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reclaimed_supersedes_assigned_but_never_done() {
        let path = temp_manifest("reclaimed");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = AssignmentManifest::open(&path).unwrap();
            m.record_assigned("aaaa", "w1").unwrap();
            m.record_assigned("bbbb", "w1").unwrap();
            m.record_done("bbbb", "w1").unwrap();
            // The worker's connection died: `aaaa` is reclaimed, `bbbb` was
            // already delivered and must stay done.
            m.record_reclaimed("aaaa", "w1").unwrap();
            m.record_reclaimed("bbbb", "w1").unwrap();
        }
        let m = AssignmentManifest::open(&path).unwrap();
        assert_eq!(m.record("aaaa").unwrap().status, MANIFEST_RECLAIMED);
        assert_eq!(m.record("bbbb").unwrap().status, MANIFEST_DONE);
        // A reclaimed job is not in flight (it sits in a queue, unassigned).
        let nothing_complete = |_: &str| false;
        assert!(m.in_flight(&nothing_complete).is_empty());
        // A re-offer puts it back in flight under the new worker.
        let mut m = AssignmentManifest::open(&path).unwrap();
        m.record_assigned("aaaa", "w2").unwrap();
        let in_flight = m.in_flight(&nothing_complete);
        assert_eq!(in_flight.len(), 1);
        assert_eq!(in_flight[0].worker, "w2");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_flight_consults_the_store_for_lost_done_lines() {
        let path = temp_manifest("in-flight");
        let _ = std::fs::remove_file(&path);
        let mut m = AssignmentManifest::open(&path).unwrap();
        m.record_assigned("aaaa", "w1").unwrap();
        m.record_assigned("bbbb", "w1").unwrap();
        m.record_assigned("cccc", "w2").unwrap();
        m.record_done("bbbb", "w1").unwrap();
        // The store knows `cccc` completed even though no `done` line landed
        // (coordinator crashed between the two writes).
        let complete = |fp: &str| fp == "cccc";
        let in_flight = m.in_flight(&complete);
        assert_eq!(in_flight.len(), 1);
        assert_eq!(in_flight[0].fp, "aaaa");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_tolerated() {
        let path = temp_manifest("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = AssignmentManifest::open(&path).unwrap();
            m.record_assigned("aaaa", "w1").unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"fp\":\"bbbb\",\"wor").unwrap();
        }
        let m = AssignmentManifest::open(&path).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.corrupt_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifests_with_the_old_shard_column_still_load() {
        let path = temp_manifest("old-column");
        std::fs::write(
            &path,
            "{\"fp\":\"aaaa\",\"shard\":3,\"worker\":\"w1\",\"status\":\"assigned\"}\n",
        )
        .unwrap();
        let mut m = AssignmentManifest::open(&path).unwrap();
        assert_eq!(m.corrupt_lines, 0);
        assert_eq!(m.record("aaaa").unwrap().worker, "w1");
        m.record_done("aaaa", "w1").unwrap();
        drop(m);
        let text = std::fs::read_to_string(&path).unwrap();
        let appended = text.lines().nth(1).unwrap();
        assert!(!appended.contains("shard"), "{appended}");
        let m = AssignmentManifest::open_read_only(&path).unwrap();
        assert_eq!((m.len(), m.corrupt_lines), (1, 0));
        assert_eq!(m.record("aaaa").unwrap().status, MANIFEST_DONE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_only_open_rejects_writes_and_missing_files() {
        let path = temp_manifest("read-only");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = AssignmentManifest::open(&path).unwrap();
            m.record_assigned("aaaa", "w1").unwrap();
        }
        let mut ro = AssignmentManifest::open_read_only(&path).unwrap();
        assert_eq!(ro.len(), 1);
        assert!(ro.record_assigned("bbbb", "w1").is_err());
        let missing = temp_manifest("read-only-missing");
        let _ = std::fs::remove_file(&missing);
        assert!(AssignmentManifest::open_read_only(&missing).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
