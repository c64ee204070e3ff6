//! A line-protocol client for the batch service.
//!
//! `mmflow submit`, the serve benchmark and embedders all need the same
//! exchange — send one request, split the response stream into raw
//! records and typed frames, stop at the trailer — so the loop lives
//! here once instead of being hand-rolled per caller. (The protocol
//! *tests* deliberately keep their own raw loops: asserting on the exact
//! frame sequence is their job.)
//!
//! # Retrying
//!
//! [`Client::submit_with_retries`] survives two failure classes the
//! plain [`Client::submit`] surfaces raw:
//!
//! * **`busy` frames** (queue depth, connection cap, SLO shedding) —
//!   exponential backoff with jitter, then resubmit on the same
//!   connection;
//! * **transport failures mid-batch** (server restarted, connection
//!   dropped) — reconnect and resubmit.
//!
//! Resubmission is safe because batches are idempotent: jobs are
//! deterministic and content-cached, so a re-run streams byte-identical
//! records. To keep the caller's view exactly-once, records are
//! buffered per attempt and only released to the callback after the
//! summary trailer arrives — a half-streamed failed attempt is
//! discarded wholesale, never double-delivered.

use crate::server::{Listen, SocketStream};
use mm_engine::json::Value;
use mm_engine::protocol::{classify, BatchRequest, Frame, Request, ServerLine};
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

/// Default bound on a connection attempt (see
/// [`Client::connect_with_timeout`]).
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// What a successful batch submission returned.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Jobs the server accepted (after `max_jobs` truncation).
    pub accepted: usize,
    /// Jobs queued ahead of this batch at admission (from the server's
    /// `queued` frame; `0` when the batch started immediately).
    pub queued_ahead: usize,
    /// The summary trailer (job counts, timings, cache counters).
    pub summary: Value,
    /// Submission attempts that failed (busy backoff or reconnect)
    /// before this outcome; `0` on first-try success.
    pub retries: u32,
}

impl BatchOutcome {
    /// Jobs the summary reports as failed.
    #[must_use]
    pub fn failed_jobs(&self) -> usize {
        self.summary
            .get("failed")
            .and_then(Value::as_usize)
            .unwrap_or(0)
    }
}

/// Why the server declined a batch without running it. The connection
/// stays usable in both cases.
#[derive(Debug, Clone)]
pub enum Rejection {
    /// A structured `busy` frame: capacity backpressure, retry later.
    Busy {
        /// What was full: `"connections"`, `"jobs"` or `"slo"`.
        scope: String,
        /// Occupancy the server reported.
        queued: usize,
        /// The configured capacity of that bound (for `"slo"` the queue
        /// depth).
        capacity: usize,
        /// The observed p95 batch latency (ms) when the SLO controller
        /// shed the batch; absent for plain capacity rejections.
        p95_ms: Option<f64>,
        /// The SLO (ms) that p95 exceeded; absent for plain capacity
        /// rejections.
        slo_ms: Option<f64>,
    },
    /// An `error` frame: the request itself was refused (bad spec,
    /// draining server, …).
    Error(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Busy {
                scope,
                queued,
                capacity,
                p95_ms,
                slo_ms,
            } => {
                write!(f, "server busy ({scope}: {queued}/{capacity}")?;
                if let Some(p95) = p95_ms {
                    write!(f, ", observed p95 {p95:.2} ms")?;
                }
                if let Some(slo) = slo_ms {
                    write!(f, " over a {slo} ms SLO")?;
                }
                write!(f, ")")
            }
            Rejection::Error(message) => write!(f, "{message}"),
        }
    }
}

/// One connected protocol session.
#[derive(Debug)]
pub struct Client {
    listen: Listen,
    connect_timeout: Duration,
    writer: SocketStream,
    reader: BufReader<SocketStream>,
}

impl Client {
    /// Connects to a serving address, bounding the attempt by
    /// [`DEFAULT_CONNECT_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be reached in time; the error names
    /// the address so `mmflow submit` surfaces a useful diagnosis.
    pub fn connect(listen: &Listen) -> std::io::Result<Self> {
        Self::connect_with_timeout(listen, DEFAULT_CONNECT_TIMEOUT)
    }

    /// [`Client::connect`] with an explicit connection-attempt bound.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be reached within `timeout`.
    pub fn connect_with_timeout(listen: &Listen, timeout: Duration) -> std::io::Result<Self> {
        let writer = SocketStream::connect_timeout(listen, timeout).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "cannot connect to {listen} (timeout {}s): {e}",
                    timeout.as_secs()
                ),
            )
        })?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            listen: listen.clone(),
            connect_timeout: timeout,
            writer,
            reader,
        })
    }

    /// Replaces a dead connection with a fresh one to the same address.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = Self::connect_with_timeout(&self.listen, self.connect_timeout)?;
        self.writer = fresh.writer;
        self.reader = fresh.reader;
        Ok(())
    }

    fn send(&mut self, request: &Request) -> std::io::Result<()> {
        let mut line = request.to_json_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-exchange",
            ));
        }
        Ok(line)
    }

    fn read_frame(&mut self) -> std::io::Result<Frame> {
        let line = self.read_line()?;
        match classify(line.trim_end()).map_err(invalid_data)? {
            ServerLine::Frame(frame) => Ok(frame),
            ServerLine::Record(record) => Err(invalid_data(format!(
                "expected a frame, got a record: {record}"
            ))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a non-`pong` answer.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.send(&Request::Ping)?;
        match self.read_frame()? {
            Frame::Pong => Ok(()),
            other => Err(invalid_data(format!("expected pong, got {other:?}"))),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a missing acknowledgement.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.read_frame()? {
            Frame::ShuttingDown => Ok(()),
            other => Err(invalid_data(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }

    /// Submits one batch and streams it: `on_record` receives every raw
    /// record line (without the trailing newline) in job order —
    /// byte-identical to `mmflow batch` stdout.
    ///
    /// Returns `Ok(Err(rejection))` when the server declines the batch
    /// — an `error` frame (bad request) or a `busy` frame (capacity
    /// backpressure, worth retrying). The connection stays usable.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a mid-stream disconnect, or a frame
    /// that violates the protocol.
    pub fn submit(
        &mut self,
        request: &BatchRequest,
        mut on_record: impl FnMut(&str) -> std::io::Result<()>,
    ) -> std::io::Result<Result<BatchOutcome, Rejection>> {
        self.send(&Request::Batch(request.clone()))?;
        let mut accepted = 0usize;
        let mut queued_ahead = 0usize;
        loop {
            let line = self.read_line()?;
            match classify(line.trim_end()).map_err(invalid_data)? {
                ServerLine::Record(record) => on_record(record)?,
                ServerLine::Frame(Frame::Accepted { jobs }) => accepted = jobs,
                ServerLine::Frame(Frame::Queued { ahead }) => queued_ahead = ahead,
                ServerLine::Frame(Frame::Summary { summary }) => {
                    return Ok(Ok(BatchOutcome {
                        accepted,
                        queued_ahead,
                        summary,
                        retries: 0,
                    }));
                }
                ServerLine::Frame(Frame::Error { message, .. }) => {
                    return Ok(Err(Rejection::Error(message)));
                }
                ServerLine::Frame(Frame::Busy {
                    scope,
                    queued,
                    capacity,
                    p95_ms,
                    slo_ms,
                }) => {
                    return Ok(Err(Rejection::Busy {
                        scope,
                        queued,
                        capacity,
                        p95_ms,
                        slo_ms,
                    }));
                }
                ServerLine::Frame(other) => {
                    return Err(invalid_data(format!("unexpected frame: {other:?}")));
                }
            }
        }
    }

    /// [`Client::submit`] with up to `retries` additional attempts.
    ///
    /// `busy` frames back off exponentially (with jitter) and resubmit
    /// on the same connection; transport failures reconnect first.
    /// Records are buffered per attempt and released to `on_record`
    /// only after the summary trailer arrives, so a failed attempt's
    /// partial stream is discarded — the caller sees every record of
    /// the winning attempt exactly once, never a duplicate from a
    /// retry. Non-retryable rejections (`error` frames) return
    /// immediately.
    ///
    /// # Errors
    ///
    /// Fails when transport errors outlive the retry budget.
    pub fn submit_with_retries(
        &mut self,
        request: &BatchRequest,
        retries: u32,
        mut on_record: impl FnMut(&str) -> std::io::Result<()>,
    ) -> std::io::Result<Result<BatchOutcome, Rejection>> {
        let mut attempt = 0u32;
        loop {
            let mut records: Vec<String> = Vec::new();
            let submitted = self.submit(request, |record| {
                records.push(record.to_string());
                Ok(())
            });
            match submitted {
                Ok(Ok(mut outcome)) => {
                    for record in &records {
                        on_record(record)?;
                    }
                    outcome.retries = attempt;
                    return Ok(Ok(outcome));
                }
                Ok(Err(rejection)) => {
                    if !matches!(rejection, Rejection::Busy { .. }) || attempt >= retries {
                        return Ok(Err(rejection));
                    }
                    attempt += 1;
                    std::thread::sleep(backoff(attempt));
                }
                Err(error) => {
                    if attempt >= retries {
                        return Err(error);
                    }
                    attempt += 1;
                    std::thread::sleep(backoff(attempt));
                    // Best effort: if the reconnect fails too, the next
                    // submit errors out and consumes another attempt.
                    let _ = self.reconnect();
                }
            }
        }
    }
}

/// Exponential backoff with jitter: 10 ms base doubling per attempt
/// (capped at 640 ms), sleeping between half and one-and-a-half bases.
/// Jitter comes from the standard library's randomly seeded hasher —
/// enough to decorrelate a thundering herd without a rand dependency.
fn backoff(attempt: u32) -> Duration {
    use std::hash::{BuildHasher, Hasher};
    let base = 10u64 << (attempt.min(7) - 1).min(6);
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u32(attempt);
    let jitter = hasher.finish() % base.max(1);
    Duration::from_millis(base / 2 + jitter)
}

fn invalid_data(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_stays_bounded() {
        for attempt in 1..12 {
            let d = backoff(attempt);
            assert!(d >= Duration::from_millis(5), "attempt {attempt}: {d:?}");
            assert!(d < Duration::from_millis(1280), "attempt {attempt}: {d:?}");
        }
        // The cap: late attempts never exceed 640 ms base.
        assert!(backoff(30) < Duration::from_millis(1280));
    }

    #[test]
    fn connect_failure_is_a_structured_error_naming_the_address() {
        // Bind-then-drop guarantees a port nothing listens on.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let listen = Listen::Tcp(format!("127.0.0.1:{port}"));
        let err = Client::connect_with_timeout(&listen, Duration::from_millis(500))
            .expect_err("nothing listens there");
        let message = err.to_string();
        assert!(
            message.contains(&format!("cannot connect to tcp:127.0.0.1:{port}")),
            "error must name the address: {message}"
        );
    }

    #[test]
    fn slo_rejection_names_the_p95_and_the_slo() {
        let busy = Rejection::Busy {
            scope: "slo".into(),
            queued: 0,
            capacity: 64,
            p95_ms: Some(0.66),
            slo_ms: Some(0.5),
        };
        assert_eq!(
            busy.to_string(),
            "server busy (slo: 0/64, observed p95 0.66 ms over a 0.5 ms SLO)"
        );
    }

    #[test]
    fn connect_to_a_missing_unix_socket_fails_fast() {
        let listen = Listen::Unix("/nonexistent/mmflow-test.sock".into());
        let t0 = std::time::Instant::now();
        assert!(Client::connect(&listen).is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "unix connect must not hang"
        );
    }
}
