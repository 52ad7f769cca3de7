//! Output checks: every job of a finalized store succeeded without stalling,
//! and the store's metrics digest matches across paths and the pinned value.
//!
//! The model has not been checked against hardware or against the paper's
//! numbers, so correctness here means "the same bytes as before", never an
//! error figure.

use serde::Value;
use surepath_runner::fingerprint::fnv1a64;
use surepath_runner::StoreRecord;

/// The seed whose digests `digests.json` pins.
pub const PINNED_SEED: u64 = 1;

const PINNED: &str = include_str!("../digests.json");

/// What a finalized store holds.
#[derive(Debug)]
pub struct StoreCheck {
    /// `fnv1a64` over each ok record's `result` without `counters`, one JSON
    /// line per record in store order, as 16 hex digits.
    pub digest: String,
    /// Records in the store.
    pub records: usize,
    /// Failed records plus ok records whose result says `stalled: true`.
    pub failed: usize,
}

/// Parses a finalized store and computes its metrics digest. Counters are
/// left out of the digest so that a change to what the engine counts does
/// not read as a change to what it simulates.
pub fn check_store(text: &str) -> Result<StoreCheck, String> {
    let mut hashed = String::new();
    let mut records = 0;
    let mut failed = 0;
    for (n, line) in text.lines().enumerate() {
        let record: StoreRecord =
            serde_json::from_str(line).map_err(|e| format!("store line {}: {e}", n + 1))?;
        records += 1;
        let result = match (&record.status[..], record.result) {
            ("ok", Some(Value::Object(fields))) => fields,
            _ => {
                failed += 1;
                continue;
            }
        };
        if result
            .iter()
            .any(|(k, v)| k == "stalled" && v.as_bool() == Some(true))
        {
            failed += 1;
        }
        let metrics: Vec<(String, Value)> = result
            .into_iter()
            .filter(|(k, _)| k != "counters")
            .collect();
        hashed
            .push_str(&serde_json::to_string(&Value::Object(metrics)).map_err(|e| e.to_string())?);
        hashed.push('\n');
    }
    Ok(StoreCheck {
        digest: format!("{:016x}", fnv1a64(hashed.as_bytes())),
        records,
        failed,
    })
}

/// The pinned seed-1 digest of `workload`, if `digests.json` has one.
pub fn pinned_digest(workload: &str) -> Option<String> {
    let pins: Value = serde_json::from_str(PINNED).expect("digests.json is valid JSON");
    pins["digests"][workload].as_str().map(str::to_string)
}

/// Checks `digest` against the pin when the run used the pinned seed.
pub fn verify_pinned(workload: &str, seed: u64, digest: &str) -> Result<(), String> {
    if seed != PINNED_SEED {
        return Ok(());
    }
    match pinned_digest(workload) {
        Some(pin) if pin == digest => Ok(()),
        Some(pin) => Err(format!(
            "{workload}: metrics digest {digest} differs from the pinned seed-{PINNED_SEED} \
             digest {pin}"
        )),
        None => Err(format!(
            "{workload}: digests.json pins no seed-{PINNED_SEED} digest (this run gives {digest})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"fp":"a","status":"ok","job":{"campaign":"c","kind":"rate","sides":[4,4],"concentration":null,"mechanism":null,"traffic":null,"scenario":null,"root":null,"load":0.5,"seed":1,"vcs":null,"warmup":null,"measure":null,"packets_per_server":null,"sample_window":null},"result":{"accepted_load":0.5,"stalled":false,"counters":{"v":1,"c":[[0,3]]}},"error":null}"#;

    #[test]
    fn digest_ignores_counters_but_not_metrics() {
        let base = check_store(OK).unwrap();
        assert_eq!(base.records, 1);
        assert_eq!(base.failed, 0);
        let other_counters = OK.replace("[[0,3]]", "[[0,4]]");
        assert_eq!(check_store(&other_counters).unwrap().digest, base.digest);
        let other_metrics = OK.replace("\"accepted_load\":0.5", "\"accepted_load\":0.6");
        assert_ne!(check_store(&other_metrics).unwrap().digest, base.digest);
    }

    #[test]
    fn failed_and_stalled_records_count_as_failures() {
        let stalled = OK.replace("\"stalled\":false", "\"stalled\":true");
        assert_eq!(check_store(&stalled).unwrap().failed, 1);
        let failed = OK
            .replace("\"status\":\"ok\"", "\"status\":\"failed\"")
            .replace(
                "\"result\":{\"accepted_load\":0.5,\"stalled\":false,\"counters\":{\"v\":1,\"c\":[[0,3]]}}",
                "\"result\":null",
            );
        assert_eq!(check_store(&failed).unwrap().failed, 1);
        assert!(check_store("{not json").is_err());
    }

    #[test]
    fn pins_apply_only_to_the_pinned_seed() {
        assert!(verify_pinned("rate-2d-paper", PINNED_SEED + 1, "anything").is_ok());
        for w in &crate::workloads::WORKLOADS {
            let pin = pinned_digest(w.name).expect("every workload is pinned");
            assert!(verify_pinned(w.name, PINNED_SEED, &pin).is_ok());
            assert!(verify_pinned(w.name, PINNED_SEED, "0000000000000000").is_err());
        }
    }
}
