//! The resumable JSONL result store.
//!
//! Every completed job becomes one JSON line:
//!
//! ```text
//! {"fp":"<16-hex fingerprint>","status":"ok","job":{...},"result":{...}}
//! {"fp":"<16-hex fingerprint>","status":"failed","job":{...},"error":"..."}
//! ```
//!
//! Records are **appended and flushed as jobs finish**, so an interrupted
//! campaign keeps everything it has already paid for. On reopen the store
//! indexes the `ok` fingerprints; the campaign driver skips those jobs and
//! re-runs only the missing (or previously failed) ones. A truncated final
//! line — the signature of a hard kill mid-write — is tolerated and simply
//! re-run.
//!
//! After a campaign completes, [`ResultStore::finalize`] rewrites the file
//! in canonical grid order (atomically, via a temp file + rename). Since
//! record contents are deterministic, two runs of the same spec produce
//! **byte-identical** stores, whatever the thread scheduling was.
//!
//! # Schema versioning
//!
//! The record line layout above is [`STORE_SCHEMA_VERSION`] and evolves
//! additively: new payload fields (e.g. the `latency_hist` sparse histogram
//! a result may carry since schema 1 rev "latency observatory") appear as
//! extra keys, and readers treat an absent key as `None`. Payloads that need
//! their own evolution carry an embedded version tag — the latency histogram
//! serializes as `{"v":1,"b":[[bucket,count],...]}` and readers reject
//! unknown `"v"` values instead of misdecoding. Both rules together mean a
//! store written before a field existed still loads, reports and diffs
//! exactly as it always did, while rewriting *never* reorders or rewrites
//! old records' bytes.
//!
//! The engine-counter field (schema 1 rev "observability") follows both
//! rules: an `ok` result may carry a `counters` key — the sparse
//! `{"v":1,"c":[[slot,count],...]}` encoding of `hyperx_sim`'s
//! `CounterRegistry`, occupied slots ascending so the bytes are a function
//! of the counts alone — and `--report --counters` merges the registries
//! by exact addition, skipping records without the key. Pre-observability
//! stores therefore report, diff and merge unchanged, and a mixed-era
//! merged store stays byte-deterministic.
//!
//! Observability sidecars (`<store>.timings.jsonl`, `<store>.manifest.jsonl`,
//! `<store>.trace.jsonl`) live *next to* the store, never inside it: the
//! store file holds results only, which is what keeps its bytes identical
//! with tracing on or off.

use crate::fingerprint::job_fingerprint;
use crate::spec::JobSpec;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Version of the store's record line layout (see the module docs: the
/// layout evolves additively, so this only bumps on a breaking change that
/// old readers could not ignore).
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// One stored record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StoreRecord {
    /// The job fingerprint (see [`crate::fingerprint`]).
    pub fp: String,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// The job that produced this record.
    pub job: JobSpec,
    /// The result payload (present when `status == "ok"`).
    pub result: Option<Value>,
    /// The failure message (present when `status == "failed"`).
    pub error: Option<String>,
}

/// The indexed contents of a store file: records by fingerprint, first-seen
/// order, and the corrupt-line tally.
type IndexedRecords = (HashMap<String, StoreRecord>, Vec<String>, usize);

/// An append-only, fingerprint-indexed JSONL result store.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// `None` for read-only stores (see [`ResultStore::open_read_only`]).
    writer: Option<BufWriter<File>>,
    /// fingerprint → record, last-writer-wins (an `ok` overwrites a stale
    /// `failed` from an earlier run).
    records: HashMap<String, StoreRecord>,
    /// Fingerprints in first-seen (file) order, so consumers that render
    /// reports can iterate deterministically. In a finalized store this is
    /// the canonical grid order.
    order: Vec<String>,
    /// Lines that could not be parsed when reopening (corruption tally).
    pub corrupt_lines: usize,
}

impl ResultStore {
    fn index(path: &Path, tolerate_missing: bool) -> std::io::Result<IndexedRecords> {
        let mut records = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut corrupt_lines = 0;
        match std::fs::read_to_string(path) {
            Ok(existing) => {
                for line in existing.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match serde_json::from_str::<StoreRecord>(line) {
                        Ok(record) => {
                            // `ok` beats `failed`; otherwise last wins.
                            let keep_old =
                                records.get(&record.fp).is_some_and(|old: &StoreRecord| {
                                    old.status == "ok" && record.status != "ok"
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

    /// Opens (or creates) the store at `path` for appending, indexing
    /// existing records.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let (records, order, corrupt_lines) = Self::index(path, true)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(ResultStore {
            path: path.to_path_buf(),
            writer: Some(BufWriter::new(file)),
            records,
            order,
            corrupt_lines,
        })
    }

    /// Opens the store at `path` read-only: no file is created, no write
    /// access is required (archived stores on read-only media report fine),
    /// and a missing file is an error rather than an empty store. Appending
    /// or finalizing a read-only store fails.
    pub fn open_read_only(path: &Path) -> std::io::Result<Self> {
        let (records, order, corrupt_lines) = Self::index(path, false)?;
        Ok(ResultStore {
            path: path.to_path_buf(),
            writer: None,
            records,
            order,
            corrupt_lines,
        })
    }

    /// Whether a job with this fingerprint already completed successfully.
    pub fn is_complete(&self, fingerprint: &str) -> bool {
        self.records
            .get(fingerprint)
            .is_some_and(|r| r.status == "ok")
    }

    /// Number of successfully completed records.
    pub fn completed_count(&self) -> usize {
        self.records.values().filter(|r| r.status == "ok").count()
    }

    /// The record for a fingerprint, if any.
    pub fn record(&self, fingerprint: &str) -> Option<&StoreRecord> {
        self.records.get(fingerprint)
    }

    /// All indexed records (unordered).
    pub fn records(&self) -> impl Iterator<Item = &StoreRecord> {
        self.records.values()
    }

    /// All indexed records in first-seen (file) order — the canonical grid
    /// order for a finalized store. Report renderers must use this (not
    /// [`ResultStore::records`]) so their output is deterministic.
    pub fn records_in_order(&self) -> impl Iterator<Item = &StoreRecord> {
        self.order.iter().filter_map(|fp| self.records.get(fp))
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, record: StoreRecord) -> std::io::Result<()> {
        let Some(writer) = &mut self.writer else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "store was opened read-only",
            ));
        };
        let line = serde_json::to_string(&record).expect("record serializes");
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        // Flush per record: an interrupted campaign must keep what finished.
        writer.flush()?;
        if !self.records.contains_key(&record.fp) {
            self.order.push(record.fp.clone());
        }
        self.records.insert(record.fp.clone(), record);
        Ok(())
    }

    /// Streams one successful result to disk.
    pub fn append_ok(&mut self, job: &JobSpec, result: Value) -> std::io::Result<()> {
        self.append(StoreRecord {
            fp: job_fingerprint(job),
            status: "ok".to_string(),
            job: job.clone(),
            result: Some(result),
            error: None,
        })
    }

    /// Streams one failure to disk. Failed jobs are *not* treated as
    /// complete: a later run retries them.
    pub fn append_failed(&mut self, job: &JobSpec, error: String) -> std::io::Result<()> {
        self.append(StoreRecord {
            fp: job_fingerprint(job),
            status: "failed".to_string(),
            job: job.clone(),
            result: None,
            error: Some(error),
        })
    }

    /// Rewrites the store in canonical order — `jobs` order for `ok`
    /// records, then still-failing jobs in the same order — dropping
    /// duplicates and corruption. Atomic (temp file + rename). Makes
    /// completed campaign stores byte-identical across runs.
    pub fn finalize(&mut self, jobs: &[JobSpec]) -> std::io::Result<()> {
        if self.writer.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "store was opened read-only",
            ));
        }
        let mut ordered: Vec<&StoreRecord> = Vec::new();
        let mut listed = std::collections::HashSet::new();
        for status in ["ok", "failed"] {
            for job in jobs {
                let fp = job_fingerprint(job);
                if let Some(record) = self.records.get(&fp) {
                    if record.status == status && listed.insert(fp) {
                        ordered.push(record);
                    }
                }
            }
        }
        // Records outside the current grid — other campaigns sharing the
        // store, or a spec that shrank — are preserved after the grid's own,
        // grouped by (campaign, kind) but otherwise in first-seen order: for
        // a campaign that already finalized, that is its own canonical grid
        // order, so finalizing campaign B never scrambles campaign A's
        // report order.
        let mut extras: Vec<&StoreRecord> = self
            .order
            .iter()
            .filter_map(|fp| self.records.get(fp))
            .filter(|r| !listed.contains(&r.fp))
            .collect();
        extras.sort_by_key(|r| (r.job.campaign.clone(), r.job.kind.clone()));
        ordered.extend(extras);

        let canonical_order: Vec<String> = ordered.iter().map(|r| r.fp.clone()).collect();

        let mut text = String::new();
        for record in &ordered {
            text.push_str(&serde_json::to_string(record).expect("record serializes"));
            text.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &self.path)?;
        self.order = canonical_order;
        // Reopen the append handle on the renamed file.
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.writer = Some(BufWriter::new(file));
        Ok(())
    }
}

/// Groups records by their point fingerprint (job fingerprint minus the
/// seed): each returned entry is one campaign grid point with all of its
/// replica records, in the iteration order of `records` (first record of a
/// point fixes the point's position, replicas keep their relative order).
/// This is how report renderers and `--diff` recover the replication
/// structure from a flat store — it works equally for stores written with
/// the `replicas` dimension and for old stores with explicit seed grids.
pub fn group_replicas<'a>(
    records: impl IntoIterator<Item = &'a StoreRecord>,
) -> Vec<(String, Vec<&'a StoreRecord>)> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&StoreRecord>> = HashMap::new();
    for record in records {
        let point = crate::fingerprint::point_fingerprint(&record.job);
        if !groups.contains_key(&point) {
            order.push(point.clone());
        }
        groups.entry(point).or_default().push(record);
    }
    order
        .into_iter()
        .map(|point| {
            let replicas = groups.remove(&point).expect("grouped above");
            (point, replicas)
        })
        .collect()
}

/// What [`merge_stores`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeSummary {
    /// Records read across all input shards (post-dedup within each shard).
    pub read: usize,
    /// Records written to the merged store.
    pub written: usize,
    /// Records dropped because another shard had the same fingerprint
    /// (`ok` beats `failed`; among equals the earlier shard wins).
    pub duplicates: usize,
}

/// The content-based sort key used for merged stores: grid dimensions in
/// expansion order (campaign, kind, topology, mechanism, traffic, scenario,
/// root, VCs, load, seed, …), so a merged store reads like a finalized one
/// rather than hashing records into fingerprint order. Loads compare via
/// their bit pattern, which matches numeric order for the (0, 1] range the
/// validator enforces.
fn job_sort_key(job: &JobSpec) -> impl Ord + '_ {
    (
        (&job.campaign, &job.kind, &job.sides, job.concentration),
        (&job.mechanism, &job.traffic, &job.scenario, &job.root),
        (job.vcs, job.load.map(f64::to_bits), job.seed),
        (
            job.warmup,
            job.measure,
            job.packets_per_server,
            job.sample_window,
        ),
    )
}

/// Merges sharded result stores into one.
///
/// Campaigns can be split across processes or machines by giving each shard
/// its own store (fingerprints are machine-independent, so the records
/// compose). This reads every input shard, dedups by fingerprint (`ok` beats
/// `failed`; among records of equal status the earliest-listed shard wins)
/// and writes the union to `output` sorted by the jobs' grid dimensions —
/// a canonical, report-friendly order that does not depend on shard listing
/// order, so merging the same shards always produces identical bytes.
pub fn merge_stores(output: &Path, inputs: &[PathBuf]) -> std::io::Result<MergeSummary> {
    let mut merged: HashMap<String, StoreRecord> = HashMap::new();
    let mut read = 0;
    let mut duplicates = 0;
    for input in inputs {
        let shard = ResultStore::open_read_only(input)?;
        for record in shard.records_in_order() {
            read += 1;
            let keep_old = merged
                .get(&record.fp)
                .is_some_and(|old| !(old.status != "ok" && record.status == "ok"));
            if keep_old {
                duplicates += 1;
            } else {
                if merged.contains_key(&record.fp) {
                    duplicates += 1;
                }
                merged.insert(record.fp.clone(), record.clone());
            }
        }
    }
    let mut ordered: Vec<&StoreRecord> = merged.values().collect();
    ordered.sort_by(|a, b| {
        job_sort_key(&a.job)
            .cmp(&job_sort_key(&b.job))
            .then(a.fp.cmp(&b.fp))
    });
    let mut text = String::new();
    for record in &ordered {
        text.push_str(&serde_json::to_string(record).expect("record serializes"));
        text.push('\n');
    }
    if let Some(parent) = output.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = output.with_extension("jsonl.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, output)?;
    Ok(MergeSummary {
        read,
        written: ordered.len(),
        duplicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seed: u64) -> JobSpec {
        JobSpec {
            campaign: "store-test".into(),
            sides: vec![4, 4],
            mechanism: Some("polsp".into()),
            traffic: Some("uniform".into()),
            scenario: Some("none".into()),
            load: Some(0.5),
            seed,
            ..JobSpec::default()
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("surepath-runner-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn append_then_reopen_indexes_completions() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ResultStore::open(&path).unwrap();
            store
                .append_ok(&job(1), serde_json::to_value(&1u64).unwrap())
                .unwrap();
            store.append_failed(&job(2), "sim stalled".into()).unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        assert!(store.is_complete(&job_fingerprint(&job(1))));
        assert!(
            !store.is_complete(&job_fingerprint(&job(2))),
            "failures are retried"
        );
        assert!(!store.is_complete(&job_fingerprint(&job(3))));
        assert_eq!(store.completed_count(), 1);
        assert_eq!(store.corrupt_lines, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_tolerated() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append_ok(&job(1), Value::Null).unwrap();
        }
        // Simulate a hard kill mid-write: a partial record at the end.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"fp\":\"deadbeef\",\"status\":\"o").unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.completed_count(), 1);
        assert_eq!(store.corrupt_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deeply_nested_line_counts_as_corrupt() {
        let path = temp_path("deep");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append_ok(&job(1), Value::Null).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all("[".repeat(200_000).as_bytes()).unwrap();
            f.write_all(b"\n").unwrap();
        }
        for store in [
            ResultStore::open_read_only(&path).unwrap(),
            ResultStore::open(&path).unwrap(),
        ] {
            assert_eq!(store.completed_count(), 1);
            assert_eq!(store.corrupt_lines, 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ok_records_shadow_stale_failures() {
        let path = temp_path("shadow");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ResultStore::open(&path).unwrap();
            store
                .append_failed(&job(5), "first try died".into())
                .unwrap();
            store.append_ok(&job(5), Value::Bool(true)).unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        let fp = job_fingerprint(&job(5));
        assert!(store.is_complete(&fp));
        assert_eq!(store.record(&fp).unwrap().status, "ok");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finalize_produces_canonical_byte_identical_files() {
        let jobs: Vec<JobSpec> = (0..6).map(job).collect();
        let render = |order: &[usize]| -> String {
            let path = temp_path(&format!("canon-{}", order[0]));
            let _ = std::fs::remove_file(&path);
            let mut store = ResultStore::open(&path).unwrap();
            for &i in order {
                store
                    .append_ok(&jobs[i], serde_json::to_value(&(i as u64 * 10)).unwrap())
                    .unwrap();
            }
            store.finalize(&jobs).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            text
        };
        // Two different completion orders must serialize identically.
        let a = render(&[0, 1, 2, 3, 4, 5]);
        let b = render(&[5, 3, 1, 4, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 6);
    }

    #[test]
    fn read_only_open_needs_no_write_access_and_rejects_writes() {
        let path = temp_path("read-only");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append_ok(&job(1), Value::Null).unwrap();
        }
        let mut ro = ResultStore::open_read_only(&path).unwrap();
        assert_eq!(ro.completed_count(), 1);
        assert!(ro.append_ok(&job(2), Value::Null).is_err());
        assert!(ro.finalize(&[job(1)]).is_err());
        // A missing file is an error, not a silently created empty store.
        let missing = temp_path("read-only-missing");
        let _ = std::fs::remove_file(&missing);
        assert!(ResultStore::open_read_only(&missing).is_err());
        assert!(!missing.exists(), "read-only open must not create files");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_in_order_follows_file_order() {
        let path = temp_path("ordered");
        let _ = std::fs::remove_file(&path);
        let jobs: Vec<JobSpec> = [4u64, 1, 3].iter().map(|&s| job(s)).collect();
        {
            let mut store = ResultStore::open(&path).unwrap();
            for j in &jobs {
                store
                    .append_ok(j, serde_json::to_value(&j.seed).unwrap())
                    .unwrap();
            }
            let seeds: Vec<u64> = store.records_in_order().map(|r| r.job.seed).collect();
            assert_eq!(seeds, vec![4, 1, 3], "live store follows append order");
        }
        let reopened = ResultStore::open(&path).unwrap();
        let seeds: Vec<u64> = reopened.records_in_order().map(|r| r.job.seed).collect();
        assert_eq!(seeds, vec![4, 1, 3], "reopened store follows file order");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finalize_resets_iteration_to_canonical_grid_order() {
        let path = temp_path("ordered-final");
        let _ = std::fs::remove_file(&path);
        let jobs: Vec<JobSpec> = (1..=3).map(job).collect();
        let mut store = ResultStore::open(&path).unwrap();
        for j in jobs.iter().rev() {
            store.append_ok(j, Value::Null).unwrap();
        }
        store.finalize(&jobs).unwrap();
        let seeds: Vec<u64> = store.records_in_order().map(|r| r.job.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_stores_combines_shards_deterministically() {
        let shard_a = temp_path("merge-a");
        let shard_b = temp_path("merge-b");
        let out_ab = temp_path("merge-out-ab");
        let out_ba = temp_path("merge-out-ba");
        for p in [&shard_a, &shard_b, &out_ab, &out_ba] {
            let _ = std::fs::remove_file(p);
        }
        {
            let mut a = ResultStore::open(&shard_a).unwrap();
            a.append_ok(&job(1), Value::Bool(true)).unwrap();
            a.append_failed(&job(2), "shard-a died".into()).unwrap();
            let mut b = ResultStore::open(&shard_b).unwrap();
            b.append_ok(&job(2), Value::Bool(true)).unwrap();
            b.append_ok(&job(3), Value::Bool(true)).unwrap();
        }
        let summary = merge_stores(&out_ab, &[shard_a.clone(), shard_b.clone()]).unwrap();
        assert_eq!(summary.read, 4);
        assert_eq!(summary.written, 3);
        assert_eq!(summary.duplicates, 1);

        let merged = ResultStore::open(&out_ab).unwrap();
        assert_eq!(merged.completed_count(), 3, "ok from shard b healed job 2");
        // Merged records come back in grid order (here: by seed), not in
        // fingerprint-hash order — reports over merged stores stay readable.
        let seeds: Vec<u64> = merged.records_in_order().map(|r| r.job.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);

        // Shard listing order must not change the merged bytes.
        merge_stores(&out_ba, &[shard_b.clone(), shard_a.clone()]).unwrap();
        assert_eq!(
            std::fs::read(&out_ab).unwrap(),
            std::fs::read(&out_ba).unwrap()
        );
        for p in [&shard_a, &shard_b, &out_ab, &out_ba] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn group_replicas_preserves_point_order_and_gathers_seeds() {
        // Three points (loads), two replicas each, interleaved like a store
        // in completion order.
        let point = |load: f64, seed: u64| {
            let mut j = job(seed);
            j.load = Some(load);
            StoreRecord {
                fp: job_fingerprint(&j),
                status: "ok".into(),
                job: j,
                result: Some(Value::Null),
                error: None,
            }
        };
        let records = vec![
            point(0.1, 1),
            point(0.2, 1),
            point(0.1, 2),
            point(0.3, 1),
            point(0.2, 2),
            point(0.3, 2),
        ];
        let groups = group_replicas(&records);
        assert_eq!(groups.len(), 3);
        for (_, replicas) in &groups {
            assert_eq!(replicas.len(), 2);
            assert_eq!(
                replicas.iter().map(|r| r.job.seed).collect::<Vec<_>>(),
                vec![1, 2]
            );
        }
        // Point order follows the first appearance of each point.
        let loads: Vec<f64> = groups
            .iter()
            .map(|(_, replicas)| replicas[0].job.load.unwrap())
            .collect();
        assert_eq!(loads, vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn finalize_keeps_out_of_grid_records() {
        let path = temp_path("extras");
        let _ = std::fs::remove_file(&path);
        let mut store = ResultStore::open(&path).unwrap();
        store.append_ok(&job(1), Value::Null).unwrap();
        store.append_ok(&job(99), Value::Null).unwrap();
        store.finalize(&[job(1)]).unwrap();
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.completed_count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finalizing_one_campaign_preserves_the_others_canonical_order() {
        // Two campaigns share a store (the figure binaries do this). After
        // campaign A finalizes in grid order and campaign B then runs and
        // finalizes, A's records must still read back in A's grid order —
        // report rendering depends on it.
        let path = temp_path("two-campaigns");
        let _ = std::fs::remove_file(&path);
        let job_in = |campaign: &str, seed: u64| JobSpec {
            campaign: campaign.into(),
            seed,
            ..job(seed)
        };
        let grid_a: Vec<JobSpec> = (1..=4).map(|s| job_in("a", s)).collect();
        let grid_b: Vec<JobSpec> = (1..=3).map(|s| job_in("b", s)).collect();
        let mut store = ResultStore::open(&path).unwrap();
        // Campaign A completes out of order, then finalizes canonically.
        for j in [&grid_a[2], &grid_a[0], &grid_a[3], &grid_a[1]] {
            store.append_ok(j, Value::Null).unwrap();
        }
        store.finalize(&grid_a).unwrap();
        // Campaign B completes out of order, then finalizes.
        for j in [&grid_b[1], &grid_b[2], &grid_b[0]] {
            store.append_ok(j, Value::Null).unwrap();
        }
        store.finalize(&grid_b).unwrap();

        let reopened = ResultStore::open(&path).unwrap();
        let a_seeds: Vec<u64> = reopened
            .records_in_order()
            .filter(|r| r.job.campaign == "a")
            .map(|r| r.job.seed)
            .collect();
        assert_eq!(a_seeds, vec![1, 2, 3, 4], "campaign A stays in grid order");
        let b_seeds: Vec<u64> = reopened
            .records_in_order()
            .filter(|r| r.job.campaign == "b")
            .map(|r| r.job.seed)
            .collect();
        assert_eq!(b_seeds, vec![1, 2, 3]);
        let _ = std::fs::remove_file(&path);
    }
}
