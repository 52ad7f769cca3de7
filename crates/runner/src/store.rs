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
//! # Lines, not trees
//!
//! In memory the store holds, per fingerprint, the record's status, its
//! (campaign, kind) and its **canonical line**: the record serialized once,
//! when it is appended or loaded. No parsed record is kept. `finalize`
//! streams the kept lines to the temp file in canonical order, re-serializing
//! nothing, and readers ([`ResultStore::record`],
//! [`ResultStore::records_in_order`] and friends, behind `--report`,
//! `--diff`, `--merge` and the figure binaries) parse lines on demand. A
//! parsed result tree takes several times the memory of its line, which is
//! why a coordinator folding thousands of results keeps lines only.
//!
//! A loaded line is kept in its re-serialized form. For a line this store
//! wrote, that is the line itself; for one that does not re-serialize to
//! itself — written before a job field existed, say — it is exactly what a
//! rewrite has always produced in its place.
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
//! exactly as it always did. Rewriting never reorders a campaign's records,
//! but it does write each record's re-serialized line: a line written before
//! a nullable job field existed gains that field as `null` (the first golden
//! batch line without `"root":null` comes back 12 bytes longer).
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

/// A kept record's status, as `finalize` orders records: `ok` first, then
/// `failed`; a line with any other status stays outside the grid order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Ok,
    Failed,
    Other,
}

impl Status {
    fn of(status: &str) -> Status {
        match status {
            "ok" => Status::Ok,
            "failed" => Status::Failed,
            _ => Status::Other,
        }
    }
}

/// One kept record: its status, its (campaign, kind) group and its
/// canonical line, newline included — the exact bytes `finalize` writes.
#[derive(Debug)]
struct Entry {
    status: Status,
    /// Index into [`ResultStore::groups`].
    group: u32,
    line: Box<str>,
}

/// Parses a kept line. Every kept line is a record serialized by this
/// module, so it always parses.
fn parse_line(line: &str) -> StoreRecord {
    serde_json::from_str(line).expect("a kept store line parses")
}

/// An append-only, fingerprint-indexed JSONL result store.
///
/// The store keeps each fingerprint's status and canonical line — never a
/// parsed record — and readers parse lines on demand (see the module docs).
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    /// `None` for read-only stores (see [`ResultStore::open_read_only`]).
    writer: Option<File>,
    /// One entry per fingerprint, in first-seen (file) order, so readers
    /// iterate deterministically. In a finalized store this is the
    /// canonical grid order.
    entries: Vec<Entry>,
    /// fingerprint → index into `entries`. Last writer wins, except that
    /// on reopen an `ok` line is never replaced by a later non-`ok` one.
    index: HashMap<String, usize>,
    /// The distinct (campaign, kind) pairs the entries belong to.
    groups: Vec<(String, String)>,
    /// Lines that could not be parsed when reopening (corruption tally).
    pub corrupt_lines: usize,
}

impl ResultStore {
    /// Indexes the store file at `path`, without a write handle.
    fn load(path: &Path, tolerate_missing: bool) -> std::io::Result<Self> {
        let mut store = ResultStore {
            path: path.to_path_buf(),
            writer: None,
            entries: Vec::new(),
            index: HashMap::new(),
            groups: Vec::new(),
            corrupt_lines: 0,
        };
        let existing = match std::fs::read_to_string(path) {
            Ok(existing) => existing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && tolerate_missing => {
                return Ok(store)
            }
            Err(e) => return Err(e),
        };
        for line in existing.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(record) = serde_json::from_str::<StoreRecord>(line) else {
                store.corrupt_lines += 1;
                continue;
            };
            // `ok` beats `failed`; otherwise last wins.
            let keep_old = store
                .index
                .get(&record.fp)
                .is_some_and(|&i| store.entries[i].status == Status::Ok && record.status != "ok");
            if !keep_old {
                // The kept line is the record re-serialized: for a line
                // written by this store that is the line itself, and for
                // one written before a field existed it is what `finalize`
                // has always written in its place.
                let entry = store.entry_for(&record);
                store.keep(record.fp, entry);
            }
        }
        Ok(store)
    }

    /// Opens (or creates) the store at `path` for appending, indexing
    /// existing records.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut store = Self::load(path, true)?;
        store.writer = Some(OpenOptions::new().create(true).append(true).open(path)?);
        Ok(store)
    }

    /// Opens the store at `path` read-only: no file is created, no write
    /// access is required (archived stores on read-only media report fine),
    /// and a missing file is an error rather than an empty store. Appending
    /// or finalizing a read-only store fails.
    pub fn open_read_only(path: &Path) -> std::io::Result<Self> {
        Self::load(path, false)
    }

    /// The entry that keeps `record`: its status, group and serialized
    /// line.
    fn entry_for(&mut self, record: &StoreRecord) -> Entry {
        let mut line = serde_json::to_string(record).expect("record serializes");
        line.push('\n');
        let job = &record.job;
        let group = match self
            .groups
            .iter()
            .position(|(campaign, kind)| *campaign == job.campaign && *kind == job.kind)
        {
            Some(group) => group,
            None => {
                self.groups.push((job.campaign.clone(), job.kind.clone()));
                self.groups.len() - 1
            }
        };
        Entry {
            status: Status::of(&record.status),
            group: group as u32,
            line: line.into_boxed_str(),
        }
    }

    /// Keeps `entry` under `fp`, replacing any earlier entry in place.
    fn keep(&mut self, fp: String, entry: Entry) {
        match self.index.get(&fp) {
            Some(&slot) => self.entries[slot] = entry,
            None => {
                self.index.insert(fp, self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    fn read_only_error() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "store was opened read-only",
        )
    }

    /// Whether a job with this fingerprint already completed successfully.
    pub fn is_complete(&self, fingerprint: &str) -> bool {
        self.index
            .get(fingerprint)
            .is_some_and(|&i| self.entries[i].status == Status::Ok)
    }

    /// Whether the store holds a line for this fingerprint, `ok` or failed.
    pub fn holds(&self, fingerprint: &str) -> bool {
        self.index.contains_key(fingerprint)
    }

    /// Number of successfully completed records.
    pub fn completed_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status == Status::Ok)
            .count()
    }

    /// The record for a fingerprint, if any, parsed from its line.
    pub fn record(&self, fingerprint: &str) -> Option<StoreRecord> {
        self.index
            .get(fingerprint)
            .map(|&i| parse_line(&self.entries[i].line))
    }

    /// All records, parsed on demand, in no promised order.
    pub fn records(&self) -> impl Iterator<Item = StoreRecord> + '_ {
        self.records_in_order()
    }

    /// All records in first-seen (file) order — the canonical grid order
    /// for a finalized store — parsed on demand. Report renderers must use
    /// this (not [`ResultStore::records`]) so their output is
    /// deterministic.
    pub fn records_in_order(&self) -> impl Iterator<Item = StoreRecord> + '_ {
        self.entries.iter().map(|e| parse_line(&e.line))
    }

    /// The (campaign, kind) pairs of the records, in first-seen (file)
    /// order. Reads no line.
    pub fn groups(&self) -> Vec<(String, String)> {
        let mut seen = vec![false; self.groups.len()];
        let mut groups = Vec::new();
        for entry in &self.entries {
            let group = entry.group as usize;
            if !std::mem::replace(&mut seen[group], true) {
                groups.push(self.groups[group].clone());
            }
        }
        groups
    }

    /// The records of one (campaign, kind) in [`ResultStore::records_in_order`]
    /// order, parsed on demand; lines of other groups are not read.
    pub fn records_of<'a>(
        &'a self,
        campaign: &str,
        kind: &str,
    ) -> impl Iterator<Item = StoreRecord> + 'a {
        let group = self
            .groups
            .iter()
            .position(|(c, k)| c == campaign && k == kind)
            .map(|g| g as u32);
        self.entries
            .iter()
            .filter(move |e| Some(e.group) == group)
            .map(|e| parse_line(&e.line))
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams a record whose fingerprint the caller already holds to disk,
    /// normalised as every record is written: an `ok` record carries its
    /// result (`null` if it has none) and no error; any other becomes
    /// `failed`, with no result and its error (`unknown error` if it has
    /// none). The caller vouches that `record.fp` is the fingerprint of
    /// `record.job`: the coordinator checks a delivered record against its
    /// grid's fingerprints and appends it without hashing the job again.
    pub fn append_delivered(&mut self, mut record: StoreRecord) -> std::io::Result<()> {
        if record.status == "ok" {
            record.result.get_or_insert(Value::Null);
            record.error = None;
        } else {
            record.status = "failed".to_string();
            record.result = None;
            record
                .error
                .get_or_insert_with(|| "unknown error".to_string());
        }
        if self.writer.is_none() {
            return Err(Self::read_only_error());
        }
        let entry = self.entry_for(&record);
        // One write per record, straight to the file: an interrupted
        // campaign keeps what finished.
        self.writer
            .as_mut()
            .expect("checked above")
            .write_all(entry.line.as_bytes())?;
        self.keep(record.fp, entry);
        Ok(())
    }

    /// Streams one successful result to disk.
    pub fn append_ok(&mut self, job: &JobSpec, result: Value) -> std::io::Result<()> {
        self.append_delivered(StoreRecord {
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
        self.append_delivered(StoreRecord {
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
        let fingerprints: Vec<String> = jobs.iter().map(job_fingerprint).collect();
        self.finalize_by_fingerprint(&fingerprints)
    }

    /// [`ResultStore::finalize`] for a grid given by its jobs' fingerprints,
    /// in grid order, for callers that already hold them.
    ///
    /// The kept lines stream to the temp file as they are: nothing is
    /// re-serialized and the store's text is never built in one string.
    pub fn finalize_by_fingerprint(&mut self, fingerprints: &[String]) -> std::io::Result<()> {
        if self.writer.is_none() {
            return Err(Self::read_only_error());
        }
        let mut order: Vec<usize> = Vec::with_capacity(self.entries.len());
        let mut listed = vec![false; self.entries.len()];
        for status in [Status::Ok, Status::Failed] {
            for fp in fingerprints {
                if let Some(&i) = self.index.get(fp) {
                    if self.entries[i].status == status && !std::mem::replace(&mut listed[i], true)
                    {
                        order.push(i);
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
        let mut extras: Vec<usize> = (0..self.entries.len()).filter(|&i| !listed[i]).collect();
        extras.sort_by(|&a, &b| {
            self.groups[self.entries[a].group as usize]
                .cmp(&self.groups[self.entries[b].group as usize])
        });
        order.extend(extras);

        let tmp = self.path.with_extension("jsonl.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        for &i in &order {
            out.write_all(self.entries[i].line.as_bytes())?;
        }
        out.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&tmp, &self.path)?;

        // Iteration follows the file from here on.
        let mut position = vec![0; order.len()];
        for (new, &old) in order.iter().enumerate() {
            position[old] = new;
        }
        let mut slots: Vec<Option<Entry>> = std::mem::take(&mut self.entries)
            .into_iter()
            .map(Some)
            .collect();
        self.entries = order
            .iter()
            .map(|&old| slots[old].take().expect("each entry is ordered once"))
            .collect();
        for slot in self.index.values_mut() {
            *slot = position[*slot];
        }
        // Reopen the append handle on the renamed file.
        self.writer = Some(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?,
        );
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
    // fingerprint → (whether ok, job, kept line): the job orders the merged
    // store, the line is written as it is.
    let mut merged: HashMap<String, (bool, JobSpec, Box<str>)> = HashMap::new();
    let mut read = 0;
    let mut duplicates = 0;
    for input in inputs {
        let shard = ResultStore::open_read_only(input)?;
        for entry in shard.entries {
            let record = parse_line(&entry.line);
            let ok = entry.status == Status::Ok;
            read += 1;
            let keep_old = merged
                .get(&record.fp)
                .is_some_and(|(old_ok, _, _)| *old_ok || !ok);
            if keep_old {
                duplicates += 1;
            } else {
                if merged.contains_key(&record.fp) {
                    duplicates += 1;
                }
                merged.insert(record.fp, (ok, record.job, entry.line));
            }
        }
    }
    let mut ordered: Vec<(&String, &JobSpec, &str)> = merged
        .iter()
        .map(|(fp, (_, job, line))| (fp, job, &**line))
        .collect();
    ordered.sort_by(|a, b| job_sort_key(a.1).cmp(&job_sort_key(b.1)).then(a.0.cmp(b.0)));
    if let Some(parent) = output.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = output.with_extension("jsonl.tmp");
    let mut out = BufWriter::new(File::create(&tmp)?);
    for (_, _, line) in &ordered {
        out.write_all(line.as_bytes())?;
    }
    out.into_inner().map_err(|e| e.into_error())?;
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
    fn a_line_without_a_nullable_field_finalizes_to_its_reserialized_bytes() {
        // The first golden batch line, as a store written before the job's
        // `root` field existed would hold it: finalize writes the line as
        // the record re-serializes, `"root":null` included — the bytes a
        // rewrite has always produced.
        let golden = include_str!("../../../tests/fixtures/golden_store.jsonl")
            .lines()
            .next()
            .unwrap();
        let legacy = golden.replacen("\"root\":null,", "", 1);
        assert_eq!(legacy.len() + 12, golden.len());
        let path = temp_path("legacy-line");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.corrupt_lines, 0);
        let record = store.records_in_order().next().unwrap();
        assert!(store.is_complete(&record.fp));
        store.finalize(&[record.job]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{golden}\n")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_shared_store_keeps_the_other_campaigns_lines_in_order() {
        // Campaigns `c` and `a` finalize first; when `b` finalizes, their
        // lines follow b's grid as extras, grouped by (campaign, kind) and
        // otherwise in the order their own finalize left them.
        let path = temp_path("shared-bytes");
        let _ = std::fs::remove_file(&path);
        let job_in = |campaign: &str, seed: u64| JobSpec {
            campaign: campaign.into(),
            ..job(seed)
        };
        let grid = |campaign: &str| -> Vec<JobSpec> {
            (1..=3).map(|seed| job_in(campaign, seed)).collect()
        };
        let mut store = ResultStore::open(&path).unwrap();
        for campaign in ["c", "a"] {
            for j in grid(campaign).iter().rev() {
                store
                    .append_ok(j, serde_json::to_value(&j.seed).unwrap())
                    .unwrap();
            }
            store.finalize(&grid(campaign)).unwrap();
        }
        let before = std::fs::read_to_string(&path).unwrap();
        let of = |text: &str, campaign: &str| -> Vec<String> {
            text.lines()
                .filter(|line| line.contains(&format!("\"campaign\":\"{campaign}\"")))
                .map(str::to_string)
                .collect()
        };
        for j in grid("b").iter().rev() {
            store.append_failed(j, "flaky".into()).unwrap();
        }
        store.finalize(&grid("b")).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        let expected: Vec<String> = [of(&after, "b"), of(&before, "a"), of(&before, "c")].concat();
        assert_eq!(after.lines().collect::<Vec<_>>(), expected);
        assert_eq!(
            store
                .records_in_order()
                .map(|r| r.job.campaign)
                .collect::<Vec<_>>(),
            ["b", "b", "b", "a", "a", "a", "c", "c", "c"]
        );
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
