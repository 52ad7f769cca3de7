//! The coordinator/worker wire protocol.
//!
//! One JSON document per line over a plain TCP stream (`std::net` only — the
//! build environment has no crates.io, and a length-prefixed binary framing
//! would buy nothing for messages this small). The conversation is entirely
//! **worker-driven**: the worker introduces itself, then asks for jobs and
//! streams results back; the coordinator only ever replies, exactly once
//! per request. That keeps the coordinator's per-connection state machine
//! trivial — read one request, answer it — and means a dead worker is
//! detected exactly where it matters, on the blocking read of its next
//! request.
//!
//! Replies come back **in request order**, and every frame goes out in one
//! write. The worker keeps one request in flight: it writes the next
//! request only once the last one is answered, so every reply, `Drained`
//! included, reaches it before its next request leaves. A request written
//! behind an unanswered one could fail after the coordinator answered the
//! first with `Drained`, and take that answer down with the connection; on
//! a link that drops connections, such a worker would then look for a
//! coordinator that has already finished.
//!
//! Messages are the vendored serde's externally tagged enum encoding, e.g.
//! `{"Fetch":{"max":8}}` and `"Drained"`. Results travel as full
//! [`StoreRecord`]s — the same JSON the store writes — so the coordinator
//! folds them in after one check, and the final store is byte-identical to
//! a local run's.

use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use surepath_runner::{JobSpec, StoreRecord};

/// The longest the coordinator holds a `Fetch` it has nothing to answer
/// with, in milliseconds. Only the `Fetch` of a connection that holds no
/// lease is held; it is answered as soon as a lease reclaim gives it work
/// or the grid drains, and with `Wait` once the hold runs out.
/// [`DRAIN_LINGER_MILLIS`] is derived from it — change them together.
pub const WAIT_BACKOFF_MILLIS: u64 = 100;

/// How long the coordinator keeps a silent connection open after the
/// campaign completes, so a worker between two requests still gets its
/// final `Drained` instead of a closed socket. Must comfortably exceed
/// [`WAIT_BACKOFF_MILLIS`] (10x here). `surepath campaign --spawn-local`
/// also gives its spawned workers this long to exit once the coordinator
/// has returned, then stops them.
pub const DRAIN_LINGER_MILLIS: u64 = WAIT_BACKOFF_MILLIS * 10;

/// What a worker sends to the coordinator.
// `Deliver` dwarfs the other variants (it carries a whole store record);
// boxing it would complicate the derived wire format for no win — requests
// are transient, one per read.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// First message on a connection: who is asking.
    Hello {
        /// A human-diagnosable worker id (host + pid or a test name). It
        /// keys leases and manifest rows; two concurrent workers must not
        /// share one.
        worker: String,
        /// The session nonce from a previous `Welcome`, if this is a
        /// reconnect (`None` on a fresh connection). Purely diagnostic: the
        /// coordinator reclaims stale leases by worker id either way, but
        /// the nonce lets both sides log "resumed session" vs "joined".
        session: Option<String>,
    },
    /// Ask for up to `max` jobs.
    Fetch {
        /// Upper bound on the batch size: the worker's `chunk` less the
        /// jobs it already holds.
        max: usize,
    },
    /// Deliver one finished job, in store-record form, plus its wall-clock
    /// (which goes to the timings sidecar, never the store).
    Deliver {
        /// The completed record (`ok` or `failed`), exactly as a local run
        /// would have appended it.
        record: StoreRecord,
        /// Wall-clock milliseconds the job took on the worker.
        millis: u64,
    },
}

/// What the coordinator replies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Answer to `Hello`: the campaign being served and the worker's home
    /// shard (its preferred queue; stealing crosses shards automatically).
    Welcome {
        /// Name of the campaign whose grid is being served.
        campaign: String,
        /// The worker's home shard index.
        shard: usize,
        /// This coordinator process's session nonce. A reconnecting worker
        /// seeing a new nonce knows the coordinator restarted (informational
        /// — the campaign fingerprint is what gates resumption).
        session: String,
        /// Fingerprint of the campaign grid being served (name + every job
        /// fingerprint). A reconnecting worker that sees a different value
        /// is talking to a *different campaign* and must abort loudly
        /// instead of folding foreign results.
        fingerprint: String,
    },
    /// Answer to `Fetch`/`Deliver`: jobs to run.
    Assign {
        /// The leased jobs (at most the requested `max`).
        jobs: Vec<JobSpec>,
    },
    /// Answer to `Fetch`: nothing to hand out right now, but leased jobs
    /// are still in flight — ask again. The coordinator has already waited
    /// (up to [`WAIT_BACKOFF_MILLIS`]) for a connection holding no lease;
    /// one holding leases asks again after its next delivery. Also the
    /// acknowledgement of a `Deliver`.
    Wait {
        /// How long to wait before asking again; this coordinator always
        /// quotes 0.
        millis: u64,
    },
    /// Answer to `Fetch` or `Deliver`: the grid is drained; the worker can
    /// exit.
    Drained,
    /// The request violated the protocol (first message not `Hello`, a
    /// record for a job that was never part of the grid, …).
    ProtocolError {
        /// What went wrong.
        message: String,
    },
}

/// Writes one message as a JSON line and flushes it. The line and its
/// newline go out in one `write_all`, so on an unbuffered socket a frame
/// is one write, never a body and a separate newline.
pub fn write_message<T: Serialize>(writer: &mut impl Write, message: &T) -> std::io::Result<()> {
    let mut line = serde_json::to_string(message).expect("protocol message serializes");
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Reads one message line. `Ok(None)` is a clean EOF (the peer hung up
/// between messages). A line cut off before its newline is an
/// `UnexpectedEof` error — the peer died mid-frame, a transport failure
/// like any other — while a complete line that does not parse is
/// `InvalidData` (the peer is not speaking the protocol).
pub fn read_message<T: Deserialize>(reader: &mut impl BufRead) -> std::io::Result<Option<T>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("connection closed mid-frame after {} byte(s)", line.len()),
        ));
    }
    serde_json::from_str(line.trim_end())
        .map(Some)
        .map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed protocol message: {e}"),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn job(seed: u64) -> JobSpec {
        JobSpec {
            campaign: "wire".into(),
            sides: vec![4, 4],
            mechanism: Some("polsp".into()),
            load: Some(0.5),
            seed,
            ..JobSpec::default()
        }
    }

    #[test]
    fn messages_round_trip_through_the_line_framing() {
        let requests = vec![
            Request::Hello {
                worker: "host:1234".into(),
                session: None,
            },
            Request::Hello {
                worker: "host:1234".into(),
                session: Some("sess-1".into()),
            },
            Request::Fetch { max: 8 },
            Request::Deliver {
                record: StoreRecord {
                    fp: surepath_runner::job_fingerprint(&job(1)),
                    status: "ok".into(),
                    job: job(1),
                    result: Some(serde::Value::Bool(true)),
                    error: None,
                },
                millis: 42,
            },
        ];
        let mut buf: Vec<u8> = Vec::new();
        for r in &requests {
            write_message(&mut buf, r).unwrap();
        }
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 4);
        let mut reader = BufReader::new(buf.as_slice());
        for expected in &requests {
            let got: Request = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert_eq!(read_message::<Request>(&mut reader).unwrap(), None, "EOF");
    }

    #[test]
    fn replies_round_trip_including_unit_variants() {
        let replies = vec![
            Reply::Welcome {
                campaign: "fig06".into(),
                shard: 3,
                session: "pid-1234-0".into(),
                fingerprint: "cafe0000cafe0000".into(),
            },
            Reply::Assign {
                jobs: vec![job(1), job(2)],
            },
            Reply::Wait { millis: 150 },
            Reply::Drained,
            Reply::ProtocolError {
                message: "hello first".into(),
            },
        ];
        let mut buf: Vec<u8> = Vec::new();
        for r in &replies {
            write_message(&mut buf, r).unwrap();
        }
        let mut reader = BufReader::new(buf.as_slice());
        for expected in &replies {
            let got: Reply = read_message(&mut reader).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
    }

    #[test]
    fn garbage_is_an_error_not_a_silent_eof() {
        let mut reader = BufReader::new(b"not json at all\n".as_slice());
        let err = read_message::<Request>(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_frame_cut_before_its_newline_is_a_transport_error() {
        let mut frame = Vec::new();
        write_message(&mut frame, &Reply::Wait { millis: 5 }).unwrap();
        frame.pop();
        for cut in [frame.len() / 2, frame.len()] {
            let mut reader = BufReader::new(&frame[..cut]);
            let err = read_message::<Reply>(&mut reader).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        }
    }

    #[test]
    fn deeply_nested_frame_is_an_error_not_a_stack_overflow() {
        // One line from a peer must never abort the process.
        let mut frame = "[".repeat(200_000).into_bytes();
        frame.push(b'\n');
        let mut reader = BufReader::new(frame.as_slice());
        let err = read_message::<Request>(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }
}
