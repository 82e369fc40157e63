//! The newline-delimited line protocol.
//!
//! One JSON object per line, both directions. Requests carry the plan
//! as an embedded TOML string (the `mcs run --plan` format — the
//! service speaks exactly the serialization the CLI already writes);
//! responses are tagged by an `event` field. All full-width 64-bit
//! values (plan hashes, float bit patterns) travel as fixed-width hex
//! strings because JSON numbers cannot represent a full `u64`; counter
//! fields (ids, tallies, statistics) ride as plain JSON numbers and
//! are exact below 2^53, far beyond any real session.
//!
//! Decoding never panics: any malformed frame — truncated JSON,
//! garbage bytes, a well-formed object missing fields, an embedded
//! plan that fails TOML validation — maps to a typed [`ProtoError`],
//! mirroring the trend pipeline's `TrendError::Corrupt` discipline.
//!
//! Both ends cut lines off the socket with one reader, [`read_frame`]:
//! a request frame is at most [`MAX_FRAME_BYTES`], and a frame that is
//! not UTF-8 is a typed [`FrameError`], not a dead stream.

use mcs_core::engine::RunPlan;
use mcs_prof::value::{escape_json, JsonValue};

use std::fmt;
use std::io::{BufRead, Read};
use std::sync::Arc;

use crate::hash::{hash_hex, parse_hash_hex};
use crate::result::ServedResult;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line is not valid JSON at all (truncated frame, garbage).
    Corrupt {
        /// Parser diagnostic.
        detail: String,
    },
    /// Valid JSON, but not a valid message (unknown command/event,
    /// missing or mistyped field).
    Invalid {
        /// What was wrong.
        detail: String,
    },
    /// The embedded plan TOML failed to parse or validate.
    BadPlan {
        /// The plan parser's diagnostic.
        detail: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
            ProtoError::Invalid { detail } => write!(f, "invalid message: {detail}"),
            ProtoError::BadPlan { detail } => write!(f, "bad plan: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The longest request frame the server reads, in bytes before the
/// `\n` (a `\r` of a CRLF ending counts). Plan frames are ~0.3–1 KB,
/// so only a hostile or broken client reaches it. The client reads the
/// server's frames uncapped: a result frame grows ~38 B per batch and
/// admission bounds no batch count, so a valid result can be larger.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why [`read_frame`] could not produce a line.
#[derive(Debug)]
pub enum FrameError {
    /// The socket failed.
    Io(std::io::Error),
    /// No newline within `cap` bytes. The stream cannot be
    /// resynchronised mid-frame, so the reader must hang up.
    TooLong {
        /// The cap the frame exceeded.
        cap: usize,
    },
    /// The frame is not UTF-8. The stream is still in sync: the next
    /// frame starts after this one's newline.
    NotUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::TooLong { cap } => {
                write!(
                    f,
                    "frame exceeds the {cap}-byte cap; closing the connection"
                )
            }
            FrameError::NotUtf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

/// Read one newline-terminated frame of at most `cap` bytes into `buf`
/// and return it without its `\n` or `\r\n`. A final frame cut off by
/// EOF is returned as is; a clean EOF is `Ok(None)`. Never buffers more
/// than `cap + 1` bytes.
pub fn read_frame<'b>(
    r: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    cap: usize,
) -> Result<Option<&'b str>, FrameError> {
    buf.clear();
    let n = r
        .by_ref()
        .take((cap as u64).saturating_add(1))
        .read_until(b'\n', buf)
        .map_err(FrameError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > cap {
        return Err(FrameError::TooLong { cap });
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| FrameError::NotUtf8)
}

/// Submission priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Default class; scheduled after every queued high-priority job.
    Normal,
    /// Jumps the normal queue (but never preempts a running job).
    High,
}

impl Priority {
    /// Wire keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a plan for execution (or cache/coalesce service).
    Submit {
        /// The plan to run.
        plan: Box<RunPlan>,
        /// Scheduling class.
        priority: Priority,
        /// Stream per-batch progress events for this submission.
        progress: bool,
    },
    /// Ask for a scheduler statistics snapshot.
    Stats,
}

impl Request {
    /// Encode as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit {
                plan,
                priority,
                progress,
            } => format!(
                "{{\"cmd\":\"submit\",\"plan_toml\":\"{}\",\"priority\":\"{}\",\"progress\":{}}}",
                escape_json(&plan.to_toml()),
                priority.keyword(),
                progress
            ),
            Request::Stats => "{\"cmd\":\"stats\"}".to_string(),
        }
    }

    /// Decode one line. Never panics.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = JsonValue::parse(line).map_err(|e| ProtoError::Corrupt { detail: e })?;
        let cmd = v
            .get("cmd")
            .and_then(|c| c.as_str())
            .ok_or_else(|| ProtoError::Invalid {
                detail: "missing string field `cmd`".to_string(),
            })?;
        match cmd {
            "submit" => {
                let toml = v.get("plan_toml").and_then(|p| p.as_str()).ok_or_else(|| {
                    ProtoError::Invalid {
                        detail: "submit: missing string field `plan_toml`".to_string(),
                    }
                })?;
                let plan = RunPlan::from_toml(toml).map_err(|e| ProtoError::BadPlan {
                    detail: e.to_string(),
                })?;
                let priority = match v.get("priority").and_then(|p| p.as_str()) {
                    None | Some("normal") => Priority::Normal,
                    Some("high") => Priority::High,
                    Some(other) => {
                        return Err(ProtoError::Invalid {
                            detail: format!("submit: unknown priority \"{other}\""),
                        })
                    }
                };
                let progress = match v.get("progress") {
                    None => false,
                    Some(p) => p.as_bool().ok_or_else(|| ProtoError::Invalid {
                        detail: "submit: `progress` must be a boolean".to_string(),
                    })?,
                };
                Ok(Request::Submit {
                    plan: Box::new(plan),
                    priority,
                    progress,
                })
            }
            "stats" => Ok(Request::Stats),
            other => Err(ProtoError::Invalid {
                detail: format!("unknown cmd \"{other}\""),
            }),
        }
    }
}

/// How an accepted submission will be (or was) served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Answered from the result cache; no execution.
    Cache,
    /// Attached to an identical in-flight job; no new execution.
    Coalesced,
    /// Queued for a cold run.
    Scheduled,
    /// The result of a cold run this submission triggered or joined.
    Run,
}

impl Source {
    /// Wire keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Source::Cache => "cache",
            Source::Coalesced => "coalesced",
            Source::Scheduled => "scheduled",
            Source::Run => "run",
        }
    }

    fn from_keyword(s: &str) -> Option<Source> {
        match s {
            "cache" => Some(Source::Cache),
            "coalesced" => Some(Source::Coalesced),
            "scheduled" => Some(Source::Scheduled),
            "run" => Some(Source::Run),
            _ => None,
        }
    }
}

/// Why a submission was refused. Typed — admission control is part of
/// the API, not an error string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is full; resubmit later.
    QueueFull {
        /// Jobs queued at decision time.
        queued: u64,
        /// The configured admission cap.
        cap: u64,
    },
    /// The scheduler is draining for shutdown; only cache hits are
    /// still served.
    Draining,
    /// The service cannot run this plan (e.g. fixed-source mode).
    Unsupported {
        /// What was unsupported.
        detail: String,
    },
}

impl RejectReason {
    fn keyword(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue-full",
            RejectReason::Draining => "draining",
            RejectReason::Unsupported { .. } => "unsupported",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { queued, cap } => {
                write!(f, "queue full ({queued} queued, cap {cap})")
            }
            RejectReason::Draining => write!(f, "scheduler draining"),
            RejectReason::Unsupported { detail } => write!(f, "unsupported: {detail}"),
        }
    }
}

/// A point-in-time scheduler statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total submissions seen (accepted or rejected).
    pub submitted: u64,
    /// Submissions answered straight from the cache.
    pub cache_hits: u64,
    /// Submissions attached to an identical in-flight job.
    pub coalesced: u64,
    /// Cold engine executions started.
    pub cold_runs: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Jobs queued right now.
    pub queued: u64,
    /// Jobs executing right now.
    pub running: u64,
    /// Results resident in the cache.
    pub cache_entries: u64,
    /// Cross-section lookups performed by the service's shared
    /// `XsContext`s (cumulative; evicted problems keep their count).
    pub xs_lookups: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was admitted; a `Result` event will follow.
    Accepted {
        /// Connection-local submission id (assigned in submit order).
        id: u64,
        /// Canonical plan hash.
        plan_hash: u64,
        /// How it will be served.
        source: Source,
    },
    /// The submission was refused; no further events for this id.
    Rejected {
        /// Connection-local submission id.
        id: u64,
        /// Typed refusal.
        reason: RejectReason,
    },
    /// One batch of the job backing this submission completed.
    Progress {
        /// Connection-local submission id.
        id: u64,
        /// Batches completed so far.
        completed: u64,
        /// Total batches of the plan.
        total: u64,
        /// Whether the batch was active (tallied).
        active: bool,
        /// Track-length k of the batch, as IEEE-754 bits.
        k_bits: u64,
        /// Shannon entropy of the batch, as bits.
        entropy_bits: u64,
    },
    /// The submission's final result.
    Result {
        /// Connection-local submission id.
        id: u64,
        /// `Cache` for a hit, `Run` for a fresh (or joined) execution.
        source: Source,
        /// The deterministic result record.
        result: Arc<ServedResult>,
    },
    /// Statistics snapshot (answers a `stats` request).
    Stats(StatsSnapshot),
    /// The previous line could not be decoded.
    Error {
        /// Diagnostic.
        detail: String,
    },
}

impl Response {
    /// Encode as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Accepted {
                id,
                plan_hash,
                source,
            } => format!(
                "{{\"event\":\"accepted\",\"id\":{},\"plan_hash\":\"{}\",\"source\":\"{}\"}}",
                id,
                hash_hex(*plan_hash),
                source.keyword()
            ),
            Response::Rejected { id, reason } => {
                let extra = match reason {
                    RejectReason::QueueFull { queued, cap } => {
                        format!(",\"queued\":{queued},\"cap\":{cap}")
                    }
                    RejectReason::Draining => String::new(),
                    RejectReason::Unsupported { detail } => {
                        format!(",\"detail\":\"{}\"", escape_json(detail))
                    }
                };
                format!(
                    "{{\"event\":\"rejected\",\"id\":{},\"reason\":\"{}\"{}}}",
                    id,
                    reason.keyword(),
                    extra
                )
            }
            Response::Progress {
                id,
                completed,
                total,
                active,
                k_bits,
                entropy_bits,
            } => format!(
                concat!(
                    "{{\"event\":\"progress\",\"id\":{},\"completed\":{},",
                    "\"total\":{},\"active\":{},\"k\":\"{}\",\"entropy\":\"{}\"}}"
                ),
                id,
                completed,
                total,
                active,
                hash_hex(*k_bits),
                hash_hex(*entropy_bits)
            ),
            Response::Result { id, source, result } => format!(
                "{{\"event\":\"result\",\"id\":{},\"source\":\"{}\",\"result\":{}}}",
                id,
                source.keyword(),
                result.to_json()
            ),
            Response::Stats(s) => format!(
                concat!(
                    "{{\"event\":\"stats\",\"submitted\":{},\"cache_hits\":{},",
                    "\"coalesced\":{},\"cold_runs\":{},\"rejected\":{},",
                    "\"queued\":{},\"running\":{},\"cache_entries\":{},",
                    "\"xs_lookups\":{}}}"
                ),
                s.submitted,
                s.cache_hits,
                s.coalesced,
                s.cold_runs,
                s.rejected,
                s.queued,
                s.running,
                s.cache_entries,
                s.xs_lookups
            ),
            Response::Error { detail } => format!(
                "{{\"event\":\"error\",\"detail\":\"{}\"}}",
                escape_json(detail)
            ),
        }
    }

    /// Decode one line. Never panics.
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let v = JsonValue::parse(line).map_err(|e| ProtoError::Corrupt { detail: e })?;
        let event = v
            .get("event")
            .and_then(|e| e.as_str())
            .ok_or_else(|| ProtoError::Invalid {
                detail: "missing string field `event`".to_string(),
            })?;
        let int = |key: &str| -> Result<u64, ProtoError> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| ProtoError::Invalid {
                    detail: format!("{event}: bad or missing integer field `{key}`"),
                })
        };
        let hex = |key: &str| -> Result<u64, ProtoError> {
            v.get(key)
                .and_then(|x| x.as_str())
                .and_then(parse_hash_hex)
                .ok_or_else(|| ProtoError::Invalid {
                    detail: format!("{event}: bad or missing hex field `{key}`"),
                })
        };
        let word = |key: &str| -> Result<&str, ProtoError> {
            v.get(key)
                .and_then(|x| x.as_str())
                .ok_or_else(|| ProtoError::Invalid {
                    detail: format!("{event}: bad or missing string field `{key}`"),
                })
        };
        match event {
            "accepted" => Ok(Response::Accepted {
                id: int("id")?,
                plan_hash: hex("plan_hash")?,
                source: Source::from_keyword(word("source")?).ok_or_else(|| {
                    ProtoError::Invalid {
                        detail: "accepted: unknown source".to_string(),
                    }
                })?,
            }),
            "rejected" => {
                let reason = match word("reason")? {
                    "queue-full" => RejectReason::QueueFull {
                        queued: int("queued")?,
                        cap: int("cap")?,
                    },
                    "draining" => RejectReason::Draining,
                    "unsupported" => RejectReason::Unsupported {
                        detail: word("detail")?.to_string(),
                    },
                    other => {
                        return Err(ProtoError::Invalid {
                            detail: format!("rejected: unknown reason \"{other}\""),
                        })
                    }
                };
                Ok(Response::Rejected {
                    id: int("id")?,
                    reason,
                })
            }
            "progress" => Ok(Response::Progress {
                id: int("id")?,
                completed: int("completed")?,
                total: int("total")?,
                active: v.get("active").and_then(|a| a.as_bool()).ok_or_else(|| {
                    ProtoError::Invalid {
                        detail: "progress: `active` must be a boolean".to_string(),
                    }
                })?,
                k_bits: hex("k")?,
                entropy_bits: hex("entropy")?,
            }),
            "result" => {
                let rv = v.get("result").ok_or_else(|| ProtoError::Invalid {
                    detail: "result: missing `result` object".to_string(),
                })?;
                Ok(Response::Result {
                    id: int("id")?,
                    source: Source::from_keyword(word("source")?).ok_or_else(|| {
                        ProtoError::Invalid {
                            detail: "result: unknown source".to_string(),
                        }
                    })?,
                    result: Arc::new(
                        ServedResult::from_value(rv)
                            .map_err(|detail| ProtoError::Invalid { detail })?,
                    ),
                })
            }
            "stats" => Ok(Response::Stats(StatsSnapshot {
                submitted: int("submitted")?,
                cache_hits: int("cache_hits")?,
                coalesced: int("coalesced")?,
                cold_runs: int("cold_runs")?,
                rejected: int("rejected")?,
                queued: int("queued")?,
                running: int("running")?,
                cache_entries: int("cache_entries")?,
                xs_lookups: int("xs_lookups")?,
            })),
            "error" => Ok(Response::Error {
                detail: word("detail")?.to_string(),
            }),
            other => Err(ProtoError::Invalid {
                detail: format!("unknown event \"{other}\""),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::plan_hash;
    use crate::result::tests::sample;

    #[test]
    fn submit_round_trips_with_plan_intact() {
        let req = Request::Submit {
            plan: Box::new(RunPlan::default()),
            priority: Priority::High,
            progress: true,
        };
        let back = Request::parse(&req.to_line()).expect("decode");
        match (&req, &back) {
            (Request::Submit { plan: a, .. }, Request::Submit { plan: b, .. }) => {
                assert_eq!(plan_hash(a), plan_hash(b));
            }
            _ => panic!("variant changed in transit"),
        }
        assert_eq!(req, back);
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::Accepted {
                id: 3,
                plan_hash: u64::MAX,
                source: Source::Coalesced,
            },
            Response::Rejected {
                id: 9,
                reason: RejectReason::QueueFull {
                    queued: 64,
                    cap: 64,
                },
            },
            Response::Rejected {
                id: 10,
                reason: RejectReason::Draining,
            },
            Response::Rejected {
                id: 11,
                reason: RejectReason::Unsupported {
                    detail: "fixed-source mode".to_string(),
                },
            },
            Response::Progress {
                id: 0,
                completed: 2,
                total: 8,
                active: false,
                k_bits: 1.0123_f64.to_bits(),
                entropy_bits: 5.5_f64.to_bits(),
            },
            Response::Result {
                id: 1,
                source: Source::Cache,
                result: Arc::new(sample(42)),
            },
            Response::Stats(StatsSnapshot {
                submitted: 10,
                cache_hits: 4,
                coalesced: 3,
                cold_runs: 3,
                rejected: 0,
                queued: 1,
                running: 2,
                cache_entries: 3,
                xs_lookups: 123_456,
            }),
            Response::Error {
                detail: "corrupt frame: line 1: bad token".to_string(),
            },
        ];
        for r in responses {
            assert_eq!(Response::parse(&r.to_line()).expect("decode"), r);
        }
    }

    #[test]
    fn garbage_and_truncation_yield_typed_errors() {
        for junk in [
            "",
            "not json",
            "{\"cmd\":",
            "\u{1}\u{2}\u{3}",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"submit\",\"plan_toml\":\"[plan]\\nparticles = 0\\n\"}",
            "{\"event\":\"result\",\"id\":1}",
            "{\"event\":\"warp\"}",
            "{\"cmd\":\"warp\"}",
            "{}",
        ] {
            assert!(Request::parse(junk).is_err(), "request: {junk:?}");
            assert!(Response::parse(junk).is_err(), "response: {junk:?}");
        }
        // Truncations of a valid frame must error, never panic.
        let line = Request::Submit {
            plan: Box::new(RunPlan::default()),
            priority: Priority::Normal,
            progress: false,
        }
        .to_line();
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            let _ = Request::parse(&line[..cut]);
        }
    }

    /// Every frame `read_frame` yields from `wire` under `cap`, until
    /// EOF or the first error.
    fn frames(wire: &[u8], cap: usize) -> (Vec<String>, Option<FrameError>) {
        let mut r = wire;
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_frame(&mut r, &mut buf, cap) {
                Ok(Some(line)) => out.push(line.to_string()),
                Ok(None) => return (out, None),
                Err(e) => return (out, Some(e)),
            }
        }
    }

    #[test]
    fn read_frame_accepts_exactly_the_cap_and_not_one_byte_more() {
        let mut wire = vec![b'x'; MAX_FRAME_BYTES];
        wire.push(b'\n');
        let (lines, err) = frames(&wire, MAX_FRAME_BYTES);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].len(), MAX_FRAME_BYTES);
        assert!(err.is_none());

        let mut wire = vec![b'x'; MAX_FRAME_BYTES + 1];
        wire.push(b'\n');
        let (lines, err) = frames(&wire, MAX_FRAME_BYTES);
        assert!(lines.is_empty());
        assert!(
            matches!(
                err,
                Some(FrameError::TooLong {
                    cap: MAX_FRAME_BYTES
                })
            ),
            "{err:?}"
        );

        // Uncapped, as the client reads the server's frames.
        let (lines, err) = frames(&wire, usize::MAX);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].len(), MAX_FRAME_BYTES + 1);
        assert!(err.is_none());
    }

    #[test]
    fn read_frame_strips_crlf_and_lf() {
        let (lines, err) = frames(b"a\r\nb\n\r\n\nc\rd\n", MAX_FRAME_BYTES);
        assert_eq!(lines, ["a", "b", "", "", "c\rd"]);
        assert!(err.is_none());
    }

    #[test]
    fn read_frame_returns_a_partial_frame_at_eof_then_none() {
        let (lines, err) = frames(b"{\"cmd\":\"stats\"}\n{\"cmd\":", MAX_FRAME_BYTES);
        assert_eq!(lines, ["{\"cmd\":\"stats\"}", "{\"cmd\":"]);
        assert!(err.is_none());
        let (lines, err) = frames(b"", MAX_FRAME_BYTES);
        assert!(lines.is_empty() && err.is_none(), "clean EOF is Ok(None)");
    }

    #[test]
    fn read_frame_reports_non_utf8_and_stays_in_sync() {
        let mut r: &[u8] = b"\xff\xfe\nok\n";
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut buf, MAX_FRAME_BYTES),
            Err(FrameError::NotUtf8)
        ));
        assert_eq!(
            read_frame(&mut r, &mut buf, MAX_FRAME_BYTES).expect("next frame"),
            Some("ok")
        );
        assert_eq!(
            read_frame(&mut r, &mut buf, MAX_FRAME_BYTES).expect("eof"),
            None
        );
    }
}
