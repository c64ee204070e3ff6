//! The `mmflow serve` wire protocol: newline-delimited JSON frames.
//!
//! A serve session is one bidirectional byte stream (Unix or TCP
//! socket). Both directions are line-oriented JSON:
//!
//! * **client → server** — one object per line, tagged by a `"cmd"`
//!   member: [`Request::Batch`] submits a batch spec, [`Request::Ping`]
//!   probes liveness, [`Request::Shutdown`] asks the server to stop
//!   accepting and drain.
//! * **server → client** — per-job result records are streamed **raw**:
//!   exactly the bytes `mmflow batch` writes ([`crate::JobResult::to_json_line`]),
//!   which is what makes serve output byte-identical to batch output.
//!   Every other server line is a typed [`Frame`], an object carrying a
//!   `"type"` member. Result records never contain a top-level `"type"`
//!   member (their fields are `name`/`flow`/`status`/…), so the two are
//!   unambiguous; [`classify`] implements that split for clients.
//!
//! One batch exchange is:
//!
//! ```text
//! C: {"cmd":"batch","spec":"suite:fir","k":4,"seed":7}
//! S: {"type":"accepted","jobs":25}
//! S: {"name":"fir5+fir7","flow":"dcs","status":"ok","metrics":{…}}
//! S: …one raw record line per job, in job order…
//! S: {"type":"summary","summary":{"jobs":25,"ok":24,"failed":1,…}}
//! ```
//!
//! A job that fails yields a raw record with `"status":"error"` plus the
//! failing stage — the batch still completes and the summary still
//! arrives. A *request*-level failure (unparsable frame, unknown spec)
//! yields one `{"type":"error",…}` frame instead of the
//! accepted/records/summary sequence; the connection stays usable.

use crate::job::{load_spec_with_modes, FlowOverrides, Job};
use crate::json::{self, ObjBuilder, Value};
use mm_flow::FlowOptions;

/// Protocol version, carried in every `accepted` frame. Frames may grow
/// members (unknown members are ignored), but semantic breaks bump this
/// so clients can detect a server speaking a different dialect.
///
/// Version 2 added job priorities (`"priority"` on batch requests) and
/// the backpressure frames `busy` / `queued`: a server at capacity now
/// answers instead of stalling the client in the accept backlog. Still
/// within version 2 (optional members only): `busy` frames may carry
/// the observed `p95_ms` behind an SLO shed and the `slo_ms` it
/// exceeded, and `error` frames for
/// malformed request lines may carry the `offset`/`line` of the
/// offender.
pub const PROTOCOL_VERSION: u64 = 2;

/// Highest admissible job priority (priorities are `0..=MAX_PRIORITY`,
/// higher runs first).
pub const MAX_PRIORITY: u8 = 9;

/// Priority of requests that do not ask for one.
pub const DEFAULT_PRIORITY: u8 = 1;

/// A batch: the spec reference plus the options `mmflow batch` exposes.
/// `mmflow batch` and `mmflow pareto` build one from their command line
/// and a submit sends one to the service, so a submit can reproduce any
/// batch invocation byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The batch spec: a JSON spec file path, a directory of BLIF mode
    /// groups, or `suite:<name>[:<modes>]`.
    pub spec: String,
    /// LUT width for directory BLIFs and generated suites.
    pub k: usize,
    /// Modes per problem for generated suites (`mmflow batch --modes`);
    /// an explicit `suite:<name>:<modes>` spec suffix wins. File and
    /// directory specs carry their own mode lists and reject this.
    pub modes: Option<usize>,
    /// Run only the first N jobs.
    pub max_jobs: Option<usize>,
    /// Flow-option overrides (seed, width, effort, iteration and width
    /// caps, Steiner fanout).
    pub overrides: FlowOverrides,
    /// Scheduling priority (`0..=MAX_PRIORITY`, higher runs first);
    /// batches compete for workers at this level before fairness ties
    /// within a level are broken per client.
    pub priority: u8,
    /// Append per-stage telemetry (`"stages":[{"name","ms","cache"}]`)
    /// to every streamed record (`mmflow batch --emit-stage-times`).
    /// Off by default — and off the wire when off — so default records
    /// stay byte-identical across protocol generations (an optional
    /// member within protocol version 2).
    pub emit_stage_times: bool,
}

impl BatchRequest {
    /// A request with default options (k = 4, no overrides).
    #[must_use]
    pub fn new(spec: impl Into<String>) -> Self {
        Self {
            spec: spec.into(),
            k: 4,
            modes: None,
            max_jobs: None,
            overrides: FlowOverrides::default(),
            priority: DEFAULT_PRIORITY,
            emit_stage_times: false,
        }
    }

    /// The jobs the request runs: its spec loaded at `k` and `modes`
    /// under the default flow options with its overrides applied, cut to
    /// the first `max_jobs`. The one batch resolution, shared by `mmflow
    /// batch`, `mmflow pareto` and the service.
    ///
    /// # Errors
    ///
    /// Fails as [`crate::load_spec`] does, and on a `modes` count for a
    /// spec that is not a generated suite.
    pub fn jobs(&self) -> Result<Vec<Job>, String> {
        let options = self.overrides.apply(&FlowOptions::default());
        let mut jobs = load_spec_with_modes(&self.spec, &options, self.k, self.modes)?.jobs;
        if let Some(n) = self.max_jobs {
            jobs.truncate(n);
        }
        Ok(jobs)
    }
}

/// One client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a batch; the server answers `accepted`, raw records and a
    /// `summary` trailer (or one `error` frame).
    Batch(BatchRequest),
    /// Liveness probe; the server answers `pong`.
    Ping,
    /// Stop accepting connections and drain in-flight batches; the
    /// server answers `shutting_down` before the listener closes.
    Shutdown,
}

impl Request {
    /// Serializes the request as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        match self {
            Request::Ping => ObjBuilder::new().field("cmd", "ping").build().to_json(),
            Request::Shutdown => ObjBuilder::new().field("cmd", "shutdown").build().to_json(),
            Request::Batch(b) => {
                let mut o = ObjBuilder::new()
                    .field("cmd", "batch")
                    .field("spec", b.spec.as_str())
                    .field("k", b.k);
                if let Some(m) = b.modes {
                    o = o.field("modes", m);
                }
                if let Some(n) = b.max_jobs {
                    o = o.field("max_jobs", n);
                }
                o = b.overrides.write(o);
                if b.priority != DEFAULT_PRIORITY {
                    o = o.field("priority", b.priority as usize);
                }
                if b.emit_stage_times {
                    o = o.field("emit_stage_times", true);
                }
                o.build().to_json()
            }
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Fails with a description on malformed JSON, a missing/unknown
    /// `cmd`, or invalid member types — the server turns that into an
    /// `error` frame, never a dropped connection.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("request needs a \"cmd\" string")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "batch" => {
                let spec = v
                    .get("spec")
                    .and_then(Value::as_str)
                    .ok_or("batch request needs a \"spec\" string")?
                    .to_string();
                let usize_field = |key: &str| -> Result<Option<usize>, String> {
                    v.get(key)
                        .map(|f| {
                            f.as_usize()
                                .ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
                        })
                        .transpose()
                };
                let mut request = BatchRequest::new(spec);
                request.k = usize_field("k")?.unwrap_or(4);
                request.modes = usize_field("modes")?;
                request.max_jobs = usize_field("max_jobs")?;
                request.overrides = FlowOverrides::from_json(&v)?;
                if let Some(p) = usize_field("priority")? {
                    if p > MAX_PRIORITY as usize {
                        return Err(format!("\"priority\" must be 0..={MAX_PRIORITY}"));
                    }
                    request.priority = p as u8;
                }
                if let Some(emit) = v.get("emit_stage_times") {
                    request.emit_stage_times = emit
                        .as_bool()
                        .ok_or("\"emit_stage_times\" must be a boolean")?;
                }
                Ok(Request::Batch(request))
            }
            other => Err(format!("unknown cmd '{other}' (batch|ping|shutdown)")),
        }
    }
}

/// One typed server → client frame (everything that is *not* a raw
/// result record).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// The batch parsed; this many records will follow.
    Accepted {
        /// Jobs the batch resolved to (after `max_jobs` truncation).
        jobs: usize,
    },
    /// The batch trailer: the engine summary (timings, cache counters).
    Summary {
        /// The [`crate::BatchReport::summary_value`] object.
        summary: Value,
    },
    /// A request-level failure (bad frame, unknown spec, …).
    Error {
        /// What went wrong.
        message: String,
        /// For malformed request lines: the byte offset of the start of
        /// the offending line within the connection's request stream.
        offset: Option<u64>,
        /// For malformed request lines: a truncated echo of the
        /// offending line, so clients can debug blind.
        line: Option<String>,
    },
    /// Backpressure: the request was *not* admitted because a capacity
    /// bound is exhausted. The connection (when `scope` is `"jobs"`)
    /// stays usable — retry after draining; a `"connections"` busy
    /// frame precedes the server closing the freshly accepted socket.
    Busy {
        /// Which bound rejected: `"connections"`, `"jobs"` or `"slo"`
        /// (latency-driven load shedding).
        scope: String,
        /// Current occupancy of that bound (for `"slo"`: jobs queued).
        queued: usize,
        /// The bound itself (for `"slo"`: the queue depth, as for
        /// `"jobs"`).
        capacity: usize,
        /// For `"slo"` rejections: the observed p95 job latency (ms)
        /// that triggered the shed, so clients can modulate backoff.
        p95_ms: Option<f64>,
        /// For `"slo"` rejections: the configured SLO (ms) the p95
        /// exceeded.
        slo_ms: Option<f64>,
    },
    /// The batch was admitted behind other work: this many jobs sit in
    /// the scheduler queue ahead of its first job. Purely informative —
    /// records still follow in order.
    Queued {
        /// Jobs queued ahead in the scheduler.
        ahead: usize,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`]: the server drains and
    /// exits.
    ShuttingDown,
}

impl Frame {
    /// Serializes the frame as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        match self {
            Frame::Accepted { jobs } => ObjBuilder::new()
                .field("type", "accepted")
                .field("protocol", PROTOCOL_VERSION as usize)
                .field("jobs", *jobs)
                .build()
                .to_json(),
            Frame::Summary { summary } => ObjBuilder::new()
                .field("type", "summary")
                .field("summary", summary.clone())
                .build()
                .to_json(),
            Frame::Error {
                message,
                offset,
                line,
            } => {
                let mut o = ObjBuilder::new()
                    .field("type", "error")
                    .field("error", message.as_str());
                if let Some(off) = offset {
                    o = o.field("offset", *off as usize);
                }
                if let Some(echo) = line {
                    o = o.field("line", echo.as_str());
                }
                o.build().to_json()
            }
            Frame::Busy {
                scope,
                queued,
                capacity,
                p95_ms,
                slo_ms,
            } => {
                let mut o = ObjBuilder::new()
                    .field("type", "busy")
                    .field("scope", scope.as_str())
                    .field("queued", *queued)
                    .field("capacity", *capacity);
                if let Some(p95) = p95_ms {
                    o = o.field("p95_ms", (*p95 * 100.0).round() / 100.0);
                }
                if let Some(slo) = slo_ms {
                    o = o.field("slo_ms", *slo);
                }
                o.build().to_json()
            }
            Frame::Queued { ahead } => ObjBuilder::new()
                .field("type", "queued")
                .field("ahead", *ahead)
                .build()
                .to_json(),
            Frame::Pong => ObjBuilder::new().field("type", "pong").build().to_json(),
            Frame::ShuttingDown => ObjBuilder::new()
                .field("type", "shutting_down")
                .build()
                .to_json(),
        }
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// Fails with a description on malformed JSON or an unknown type.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
        Self::from_value(&v)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("frame needs a \"type\" string")?;
        match kind {
            "accepted" => Ok(Frame::Accepted {
                jobs: v
                    .get("jobs")
                    .and_then(Value::as_usize)
                    .ok_or("accepted frame needs a \"jobs\" count")?,
            }),
            "summary" => Ok(Frame::Summary {
                summary: v
                    .get("summary")
                    .cloned()
                    .ok_or("summary frame needs a \"summary\" object")?,
            }),
            "error" => Ok(Frame::Error {
                message: v
                    .get("error")
                    .and_then(Value::as_str)
                    .ok_or("error frame needs an \"error\" string")?
                    .to_string(),
                offset: v.get("offset").and_then(Value::as_u64),
                line: v.get("line").and_then(Value::as_str).map(str::to_string),
            }),
            "busy" => Ok(Frame::Busy {
                scope: v
                    .get("scope")
                    .and_then(Value::as_str)
                    .ok_or("busy frame needs a \"scope\" string")?
                    .to_string(),
                queued: v
                    .get("queued")
                    .and_then(Value::as_usize)
                    .ok_or("busy frame needs a \"queued\" count")?,
                capacity: v
                    .get("capacity")
                    .and_then(Value::as_usize)
                    .ok_or("busy frame needs a \"capacity\" count")?,
                p95_ms: v.get("p95_ms").and_then(Value::as_f64),
                slo_ms: v.get("slo_ms").and_then(Value::as_f64),
            }),
            "queued" => Ok(Frame::Queued {
                ahead: v
                    .get("ahead")
                    .and_then(Value::as_usize)
                    .ok_or("queued frame needs an \"ahead\" count")?,
            }),
            "pong" => Ok(Frame::Pong),
            "shutting_down" => Ok(Frame::ShuttingDown),
            other => Err(format!("unknown frame type '{other}'")),
        }
    }
}

/// One server → client line, as a client sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerLine<'a> {
    /// A raw per-job result record — print it verbatim to stay
    /// byte-identical with `mmflow batch`.
    Record(&'a str),
    /// A typed protocol frame.
    Frame(Frame),
}

/// Splits a server line into record vs frame: any JSON object carrying a
/// top-level `"type"` member is a frame; everything else that parses is
/// a raw record.
///
/// # Errors
///
/// Fails on lines that are not valid JSON or carry an unknown frame
/// type.
pub fn classify(line: &str) -> Result<ServerLine<'_>, String> {
    let v = json::parse(line).map_err(|e| format!("malformed server line: {e}"))?;
    if v.get("type").is_some() {
        Frame::from_value(&v).map(ServerLine::Frame)
    } else {
        Ok(ServerLine::Record(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MAX_CHANNEL_WIDTH;
    use mm_flow::WidthChoice;
    use proptest::prelude::*;

    #[test]
    fn requests_roundtrip() {
        let mut batch = BatchRequest::new("suite:fir");
        batch.k = 5;
        batch.modes = Some(3);
        batch.max_jobs = Some(3);
        batch.overrides = FlowOverrides {
            seed: Some(u64::MAX),
            width: Some(12),
            effort: Some(1.5),
            max_iterations: Some(30),
            max_width: Some(24),
            steiner_fanout: Some(48),
        };
        batch.priority = 7;
        batch.emit_stage_times = true;
        for request in [Request::Batch(batch), Request::Ping, Request::Shutdown] {
            let line = request.to_json_line();
            assert_eq!(Request::parse(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn batch_defaults_and_small_seed() {
        let line = r#"{"cmd":"batch","spec":"jobs/","seed":7}"#;
        let Request::Batch(b) = Request::parse(line).unwrap() else {
            panic!("not a batch");
        };
        assert_eq!(b.spec, "jobs/");
        assert_eq!(b.k, 4);
        assert_eq!(b.overrides.seed, Some(7));
        assert_eq!(b.modes, None);
        assert_eq!(b.max_jobs, None);
        assert_eq!(b.priority, DEFAULT_PRIORITY);
        // The default priority stays off the wire, so version-1 servers
        // keep accepting default-priority requests unchanged.
        assert!(!Request::Batch(BatchRequest::new("x"))
            .to_json_line()
            .contains("priority"));
        // Likewise stage-time telemetry: off by default and off the
        // wire, so old servers keep accepting default requests.
        assert!(!b.emit_stage_times);
        assert!(!Request::Batch(BatchRequest::new("x"))
            .to_json_line()
            .contains("emit_stage_times"));

        // Small seeds serialize as plain numbers.
        let mut request = BatchRequest::new("x");
        request.overrides.seed = Some(7);
        let line = Request::Batch(request).to_json_line();
        assert!(line.contains("\"seed\":7"), "{line}");
    }

    #[test]
    fn bad_requests_are_described() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse(r#"{"cmd":"explode"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"batch"}"#).is_err(), "no spec");
        assert!(Request::parse(r#"{"cmd":"batch","spec":"s","k":"x"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"batch","spec":"s","seed":true}"#).is_err());
        assert!(
            Request::parse(r#"{"cmd":"batch","spec":"s","priority":10}"#).is_err(),
            "priorities are capped at MAX_PRIORITY"
        );
    }

    #[test]
    fn zero_channel_widths_are_refused_naming_the_field() {
        let line = |field: &str, value: usize| {
            format!(r#"{{"cmd":"batch","spec":"suite:regexp","{field}":{value}}}"#)
        };
        for field in ["width", "max_width"] {
            let err = Request::parse(&line(field, 0)).unwrap_err();
            assert!(
                err.contains(&format!("\"{field}\" must be a positive channel width")),
                "{err}"
            );
            let err = Request::parse(&line(field, MAX_CHANNEL_WIDTH + 1)).unwrap_err();
            assert!(
                err.contains(&format!(
                    "\"{field}\" must be a channel width of at most {MAX_CHANNEL_WIDTH}"
                )),
                "{err}"
            );
            assert!(Request::parse(&line(field, 1)).is_ok());
            assert!(Request::parse(&line(field, MAX_CHANNEL_WIDTH)).is_ok());
        }
        let err = Request::parse(&line("max_iterations", 0)).unwrap_err();
        assert!(
            err.contains("\"max_iterations\" must be a positive iteration cap"),
            "{err}"
        );
        assert!(Request::parse(&line("max_iterations", 1)).is_ok());
    }

    /// A batch request line that sets every member.
    const FULL_BATCH: &str = concat!(
        r#"{"cmd":"batch","spec":"suite:regexp","k":4,"modes":2,"max_jobs":3,"#,
        r#""seed":7,"width":12,"effort":1.5,"max_iterations":30,"max_width":24,"#,
        r#""steiner_fanout":48,"priority":7,"emit_stage_times":true}"#
    );

    /// Replaces the value of numeric member `key` in [`FULL_BATCH`]-shaped
    /// `line` (values there end at the next `,` or `}`).
    fn replace_member(line: &str, key: &str, value: &str) -> String {
        let start = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let end = start + line[start..].find([',', '}']).unwrap();
        format!("{}{value}{}", &line[..start], &line[end..])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Seeded mutations of a valid batch line: `Request::parse` always
        /// returns, and every batch it accepts resolves to a width, a
        /// width cap and an iteration cap the flows can run with.
        #[test]
        fn mutated_batch_lines_parse_without_panics_into_runnable_options(
            member in 0usize..10,
            value in 0usize..9,
            replace: bool,
            byte_ops in 0usize..=2,
            op_seed: u64,
        ) {
            use rand::{Rng, SeedableRng};
            const NUMERIC: [&str; 10] = [
                "k", "modes", "max_jobs", "seed", "width", "effort",
                "max_iterations", "max_width", "steiner_fanout", "priority",
            ];
            const VALUES: [&str; 9] = [
                "0", "1025", "20000", "65536", "-1", "1e308",
                "18446744073709551616", "\"12\"", "[12]",
            ];
            let mut line = if replace {
                replace_member(FULL_BATCH, NUMERIC[member], VALUES[value])
            } else {
                FULL_BATCH.to_string()
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(op_seed);
            for _ in 0..byte_ops {
                let mut bytes = line.into_bytes();
                let n = bytes.len();
                match rng.gen_range(0..3) {
                    0 if n > 0 => {
                        // Flip one bit of an ASCII byte (it stays ASCII).
                        let i = rng.gen_range(0..n);
                        bytes[i] ^= 1u8 << rng.gen_range(0..7);
                    }
                    1 => bytes.truncate(rng.gen_range(0..=n)),
                    _ if n > 0 => {
                        let a = rng.gen_range(0..n);
                        let b = rng.gen_range(a..=n);
                        let at = rng.gen_range(0..=n);
                        let span = bytes[a..b].to_vec();
                        bytes.splice(at..at, span);
                    }
                    _ => {}
                }
                line = String::from_utf8(bytes).expect("ASCII mutations stay UTF-8");
            }
            let parsed = std::panic::catch_unwind(|| Request::parse(&line));
            prop_assert!(parsed.is_ok(), "Request::parse panicked on {line:?}");
            if let Ok(Ok(Request::Batch(b))) = parsed {
                let o = b.overrides.apply(&FlowOptions::default());
                let caps = 1..=MAX_CHANNEL_WIDTH;
                if let WidthChoice::Fixed(w) = o.width {
                    prop_assert!(caps.contains(&w), "width {w} from {line:?}");
                }
                prop_assert!(caps.contains(&o.max_width), "max_width {} from {line:?}", o.max_width);
                prop_assert!(
                    o.router.max_iterations >= 1,
                    "max_iterations 0 from {line:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_efforts_are_refused_naming_the_field() {
        for effort in ["0", "-2", "1e308", "100.5"] {
            let line = format!(r#"{{"cmd":"batch","spec":"suite:regexp","effort":{effort}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert!(
                err.contains("\"effort\" must be an annealing effort above 0 and at most 100"),
                "{effort}: {err}"
            );
        }
        for effort in ["0.05", "1", "100"] {
            let line = format!(r#"{{"cmd":"batch","spec":"suite:regexp","effort":{effort}}}"#);
            assert!(Request::parse(&line).is_ok(), "{effort}");
        }
    }

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Accepted { jobs: 9 },
            Frame::Summary {
                summary: ObjBuilder::new().field("jobs", 9usize).build(),
            },
            Frame::Error {
                message: "nope".into(),
                offset: None,
                line: None,
            },
            Frame::Error {
                message: "malformed request: expected value at byte 0".into(),
                offset: Some(4096),
                line: Some("{\"cmd\":".into()),
            },
            Frame::Busy {
                scope: "jobs".into(),
                queued: 128,
                capacity: 128,
                p95_ms: None,
                slo_ms: None,
            },
            Frame::Busy {
                scope: "slo".into(),
                queued: 12,
                capacity: 128,
                p95_ms: Some(38.25),
                slo_ms: Some(0.5),
            },
            Frame::Queued { ahead: 40 },
            Frame::Pong,
            Frame::ShuttingDown,
        ];
        for frame in frames {
            let line = frame.to_json_line();
            assert_eq!(Frame::parse(&line).unwrap(), frame, "{line}");
        }
        // The accepted frame announces the protocol dialect.
        let line = Frame::Accepted { jobs: 9 }.to_json_line();
        assert!(line.contains("\"protocol\":2"), "{line}");
    }

    #[test]
    fn classification_separates_records_from_frames() {
        let record = r#"{"name":"j","flow":"mdr","status":"ok","metrics":{}}"#;
        assert_eq!(classify(record).unwrap(), ServerLine::Record(record));
        let error = r#"{"name":"j","flow":"pair","status":"error","stage":"route","error":"x"}"#;
        assert_eq!(classify(error).unwrap(), ServerLine::Record(error));
        assert_eq!(
            classify(r#"{"type":"pong"}"#).unwrap(),
            ServerLine::Frame(Frame::Pong)
        );
        assert!(classify("garbage").is_err());
        assert!(classify(r#"{"type":"martian"}"#).is_err());
    }

    #[test]
    fn request_overrides_map_onto_flow_options() {
        let line = concat!(
            r#"{"cmd":"batch","spec":"s","seed":9,"width":11,"effort":2,"#,
            r#""max_iterations":17,"max_width":33,"steiner_fanout":64}"#
        );
        let Request::Batch(batch) = Request::parse(line).unwrap() else {
            panic!("not a batch");
        };
        let o = batch.overrides.apply(&FlowOptions::default());
        assert_eq!(o.placer.seed, 9);
        assert_eq!(o.width, WidthChoice::Fixed(11));
        assert!((o.placer.inner_num - 2.0).abs() < 1e-12);
        assert_eq!(o.router.max_iterations, 17);
        assert_eq!(o.max_width, 33);
        assert_eq!(o.router.steiner_fanout, 64);
        // No overrides ⇒ the base options pass through untouched.
        let untouched = BatchRequest::new("s")
            .overrides
            .apply(&FlowOptions::default());
        assert_eq!(untouched, FlowOptions::default());
    }
}
