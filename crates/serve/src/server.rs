//! The batch service: a blocking accept loop, one thread per admitted
//! connection, scheduler admission, ordered result streaming and
//! graceful drain.
//!
//! # Connection model
//!
//! Every admitted connection (at most `max_connections` at a time) is
//! served by its own scoped thread: it reads one request line at a time,
//! resolves and admits batches to the [`Scheduler`], and writes each
//! batch's records in job order as the workers deliver them. Job
//! execution never happens on a connection thread — the scheduler's
//! workers do that — so a slow spec resolution or a panicking request
//! costs only its own client. An idle connection, like the idle accept
//! loop, waits in a blocking call and costs no CPU.
//!
//! # Backpressure
//!
//! Capacity is never a silent stall:
//!
//! * a connection over `max_connections` receives one structured
//!   `busy` frame (`scope: "connections"`) and is closed;
//! * a batch that would overflow the job queue is rejected whole with a
//!   `busy` frame (`scope: "jobs"`) — the connection stays usable and
//!   the client retries;
//! * an admitted batch that has to wait is told so with a `queued`
//!   frame carrying the number of jobs ahead of it;
//! * a client that reads slowly blocks only its own connection's
//!   writes, and one that accepts no bytes for 30 s is dropped;
//! * a connection that has not completed a request line a minute after
//!   it started waiting for one is closed, so clients that connect and
//!   send nothing cannot hold every slot.

use crate::scheduler::{panic_message, ClientId, JobTask, Scheduler, Task};
use mm_engine::faultpoint;
use mm_engine::json::{ObjBuilder, Value};
use mm_engine::protocol::{BatchRequest, Frame, Request};
use mm_engine::{BatchReport, Engine, EngineOptions, EngineStats, Job, JobError, JobResult};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix-domain socket at this path (removed and re-created on
    /// bind; the server owns the path).
    Unix(PathBuf),
    /// A TCP address (`host:port`; port `0` lets the OS pick).
    Tcp(String),
}

impl Listen {
    /// Parses a `--listen` value: `unix:<path>` / `tcp:<host:port>`
    /// explicitly, else anything with a `/` is a socket path and
    /// anything with a `:` is a TCP address.
    ///
    /// # Errors
    ///
    /// Fails on values that match neither form.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            return Ok(Listen::Unix(path.into()));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Ok(Listen::Tcp(addr.to_string()));
        }
        if s.contains('/') {
            return Ok(Listen::Unix(s.into()));
        }
        if s.contains(':') {
            return Ok(Listen::Tcp(s.to_string()));
        }
        Err(format!(
            "cannot interpret listen address '{s}' (use unix:<path> or tcp:<host:port>)"
        ))
    }
}

impl std::fmt::Display for Listen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
            Listen::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads, all taking jobs from one queue (`0` = one per
    /// CPU).
    pub threads: usize,
    /// Stage-cache root shared by every connection; `None` disables
    /// caching.
    pub cache_dir: Option<PathBuf>,
    /// Connections handled concurrently; an excess client receives a
    /// structured `busy` frame (`scope: "connections"`) and is closed
    /// instead of stalling in the accept backlog. At least 1.
    pub max_connections: usize,
    /// Queued (not yet running) jobs the queue admits before batches
    /// bounce with a `busy` frame (`scope: "jobs"`). At least 1.
    pub queue_depth: usize,
    /// p95 sojourn-latency SLO in milliseconds, finite and above 0. When
    /// set, batches are shed lowest-priority-first once the observed p95
    /// exceeds it (`busy` frame, `scope: "slo"`, carrying the p95 and
    /// the SLO);
    /// priority 9 is never shed. `None` keeps plain queue-depth
    /// admission only.
    pub slo_ms: Option<f64>,
    /// Per-job execution deadline in milliseconds; a job still running
    /// past it is declared stuck by the watchdog and answered with a
    /// structured `timeout` error record while the other workers keep
    /// serving. `0` disables the watchdog.
    pub deadline_ms: u64,
    /// Deterministic fault-injection spec
    /// (e.g. `"seed=7,worker_panic=0.1,stall_ms=20"`) armed at bind —
    /// see [`mm_engine::faultpoint`]. `None` leaves every fault point a
    /// compiled-in no-op.
    pub fault_spec: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            cache_dir: None,
            max_connections: 8,
            queue_depth: 256,
            slo_ms: None,
            deadline_ms: 30_000,
            fault_spec: None,
        }
    }
}

/// What a finished server did, for the operator's exit line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections served.
    pub connections: u64,
    /// Batches admitted and executed.
    pub batches: u64,
    /// Jobs executed across all batches.
    pub jobs: u64,
    /// Connections turned away with a `busy` frame at `max_connections`.
    pub rejected_connections: u64,
    /// Batches bounced with a `busy` frame by queue-depth admission.
    pub rejected_batches: u64,
    /// Queued jobs purged because their client disconnected.
    pub purged_jobs: u64,
    /// Jobs the watchdog declared stuck and answered with a `timeout`
    /// record.
    pub timed_out_jobs: u64,
    /// Batches shed by the SLO admission controller.
    pub shed_batches: u64,
    /// Panicking job executions that were retried (transient faults
    /// recovered to the same deterministic result).
    pub panic_retries: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    batches: AtomicU64,
    jobs: AtomicU64,
    rejected_connections: AtomicU64,
    rejected_batches: AtomicU64,
    purged_jobs: AtomicU64,
    panic_retries: AtomicU64,
}

#[derive(Debug)]
struct ServerState {
    shutdown: AtomicBool,
    next_client: AtomicU64,
    counters: Counters,
    /// Where the listener is bound (TCP port 0 resolved).
    listen: Listen,
    /// Every admitted connection still open — its length is the number
    /// of occupied connection slots — with a handle the drain uses to
    /// end its read, and whether it is waiting for a request line.
    open: Mutex<HashMap<ClientId, (SocketStream, bool)>>,
}

impl ServerState {
    /// Starts the drain, once: the accept loop stops, and a connection
    /// waiting for a request reads only what its client has already
    /// sent. The accept loop waits in a blocking `accept`, so one
    /// connection to the listen address wakes it; it sees the flag and
    /// counts nothing.
    fn begin_drain(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for (stream, waiting) in self.open.lock().expect("connection registry").values() {
            if *waiting {
                let _ = stream.shutdown_read();
            }
        }
        let _ = SocketStream::connect_timeout(&self.listen, Duration::from_secs(1));
    }

    /// Marks whether `client` waits for its next request line. The drain
    /// ends only waiting reads, so a batch that streams meanwhile still
    /// sees its client hang up, and its client may still send lines for
    /// the drain to answer; a connection that starts waiting once the
    /// drain has begun ends its own read.
    fn set_waiting(&self, client: ClientId, waiting: bool) {
        let mut open = self.open.lock().expect("connection registry");
        if let Some((stream, is_waiting)) = open.get_mut(&client) {
            *is_waiting = waiting;
            if waiting && self.shutdown.load(Ordering::Relaxed) {
                let _ = stream.shutdown_read();
            }
        }
    }
}

/// A clonable remote control for a running [`Server`] — the programmatic
/// equivalent of the protocol's `shutdown` frame.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Asks the server to stop accepting and drain in-flight work.
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum StreamInner {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// One connected byte stream over either transport — used by the server
/// for accepted connections and by clients (`mmflow submit`) for
/// outbound ones, so the transport dispatch lives in exactly one place.
pub struct SocketStream(StreamInner);

impl SocketStream {
    /// Connects with a bound on the TCP connection attempt — a routed
    /// but unresponsive address fails in `timeout` instead of the
    /// kernel's (minutes-long) default. Unix sockets connect or fail
    /// immediately; the timeout does not apply.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be reached within the timeout.
    pub fn connect_timeout(listen: &Listen, timeout: Duration) -> std::io::Result<Self> {
        Ok(SocketStream(match listen {
            Listen::Unix(path) => StreamInner::Unix(UnixStream::connect(path)?),
            Listen::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let mut last_error = None;
                let mut stream = None;
                for resolved in addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_error = Some(e),
                    }
                }
                match stream {
                    Some(s) => StreamInner::Tcp(s),
                    None => {
                        return Err(last_error.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                format!("{addr} resolved to no addresses"),
                            )
                        }))
                    }
                }
            }
        }))
    }

    /// A second handle to the same socket (e.g. a buffered read half
    /// next to the write half).
    ///
    /// # Errors
    ///
    /// Fails if the descriptor cannot be duplicated.
    pub fn try_clone(&self) -> std::io::Result<SocketStream> {
        Ok(SocketStream(match &self.0 {
            StreamInner::Unix(s) => StreamInner::Unix(s.try_clone()?),
            StreamInner::Tcp(s) => StreamInner::Tcp(s.try_clone()?),
        }))
    }

    /// Bounds blocking reads (shared by all clones of the socket).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.set_read_timeout(timeout),
            StreamInner::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds blocking writes (shared by all clones of the socket).
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.set_write_timeout(timeout),
            StreamInner::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Switches the socket (all clones) between blocking and
    /// non-blocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.set_nonblocking(nonblocking),
            StreamInner::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Ends reading: a blocked or later read returns what the peer has
    /// already sent, then end-of-file.
    fn shutdown_read(&self) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.shutdown(Shutdown::Read),
            StreamInner::Tcp(s) => s.shutdown(Shutdown::Read),
        }
    }
}

impl std::fmt::Debug for SocketStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            StreamInner::Unix(_) => write!(f, "SocketStream(unix)"),
            StreamInner::Tcp(_) => write!(f, "SocketStream(tcp)"),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match &mut self.0 {
            StreamInner::Unix(s) => s.read(buf),
            StreamInner::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match &mut self.0 {
            StreamInner::Unix(s) => s.write(buf),
            StreamInner::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.0 {
            StreamInner::Unix(s) => s.flush(),
            StreamInner::Tcp(s) => s.flush(),
        }
    }
}

/// Upper bound on one request line — far above any real batch request,
/// far below harm.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// A client that accepts no bytes for this long mid-stream is declared
/// gone.
const WRITE_STALL: Duration = Duration::from_secs(30);

/// A connection that has not completed a request line this long after
/// it started waiting for one is closed, freeing its slot. Bytes that
/// trickle in meanwhile do not extend it; a batch that streams is not
/// waiting for a line.
const IDLE_REQUEST: Duration = Duration::from_secs(60);

/// How often a connection waiting for its batch's next result checks,
/// without blocking, whether its client has hung up.
const HANGUP_POLL: Duration = Duration::from_millis(10);

/// The long-running batch service.
///
/// One [`Engine`] (and therefore one stage cache) and one [`Scheduler`]
/// are shared by every connection: concurrent clients submit batches
/// whose jobs interleave fairly on the workers and warm the same cache,
/// while each connection's result stream stays in its own batch's job
/// order — byte-identical to `mmflow batch` on the same spec.
pub struct Server {
    engine: Arc<Engine>,
    scheduler: Arc<Scheduler>,
    listener: Listener,
    state: Arc<ServerState>,
    max_connections: usize,
    /// [`IDLE_REQUEST`], which the tests shorten.
    idle_request: Duration,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("listen", &self.state.listen)
            .field("threads", &self.scheduler.threads())
            .field("max_connections", &self.max_connections)
            .finish()
    }
}

impl Server {
    /// Binds the listener and starts the scheduler's workers (but
    /// accepts nothing until [`Server::run`]). A stale Unix socket path
    /// is removed first — the server owns it.
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`], naming the
    /// option, on an SLO that is not finite and above 0, a zero queue
    /// depth or connection cap, or a malformed fault spec; otherwise if
    /// the socket cannot be bound or the cache directory cannot be
    /// created.
    pub fn bind(listen: &Listen, options: &ServeOptions) -> std::io::Result<Self> {
        let invalid =
            |message: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, message);
        if let Some(slo) = options
            .slo_ms
            .filter(|slo| !(slo.is_finite() && *slo > 0.0))
        {
            return Err(invalid(format!(
                "slo_ms must be a finite latency above 0 ms, got {slo}"
            )));
        }
        if options.queue_depth == 0 {
            return Err(invalid("queue_depth must be at least 1, got 0".to_string()));
        }
        if options.max_connections == 0 {
            return Err(invalid(
                "max_connections must be at least 1, got 0".to_string(),
            ));
        }
        if let Some(spec) = &options.fault_spec {
            faultpoint::arm(spec).map_err(invalid)?;
        }
        let scheduler = Arc::new(Scheduler::new(
            options.threads,
            options.queue_depth,
            (options.deadline_ms > 0).then(|| Duration::from_millis(options.deadline_ms)),
            options.slo_ms,
        ));
        let engine = Arc::new(Engine::new(EngineOptions {
            threads: scheduler.threads(),
            cache_dir: options.cache_dir.clone(),
            // The service is long-running and re-serves identical legs;
            // the in-memory memo is what keeps warm hits off the disk.
            result_memo: 4096,
        })?);
        let (listener, listen) = match listen {
            Listen::Unix(path) => {
                if path.exists() {
                    // Only a *stale socket* may be removed: a path that
                    // is not a socket at all (a typo'd --listen hitting
                    // a real file) must never be unlinked, and one that
                    // still answers belongs to a live server.
                    use std::os::unix::fs::FileTypeExt;
                    if !std::fs::symlink_metadata(path)?.file_type().is_socket() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("{} exists and is not a socket", path.display()),
                        ));
                    }
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("{} is already being served", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Listen::Unix(path.clone()),
                )
            }
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                // Report the *bound* address (resolves port 0).
                let bound = listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.clone());
                (Listener::Tcp(listener), Listen::Tcp(bound))
            }
        };
        Ok(Self {
            engine,
            scheduler,
            listener,
            state: Arc::new(ServerState {
                shutdown: AtomicBool::new(false),
                next_client: AtomicU64::new(1),
                counters: Counters::default(),
                listen,
                open: Mutex::new(HashMap::new()),
            }),
            max_connections: options.max_connections,
            idle_request: IDLE_REQUEST,
        })
    }

    /// Where the server actually listens (TCP port 0 resolved).
    #[must_use]
    pub fn listen_addr(&self) -> &Listen {
        &self.state.listen
    }

    /// The shared engine (for tests and embedding).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The job scheduler (for tests and embedding).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// A remote control that can request shutdown from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested (protocol `shutdown` frame or
    /// [`ServerHandle::shutdown`]), then drains: the accept loop stops,
    /// every connection — including batches still executing on the
    /// workers — runs to completion, and the workers are joined
    /// before this returns.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot accept.
    pub fn run(self) -> std::io::Result<ServeReport> {
        let Server {
            engine,
            scheduler,
            listener,
            state,
            max_connections,
            idle_request,
        } = self;
        let ctx = Ctx {
            engine: &engine,
            scheduler: &scheduler,
            state: &state,
            idle_request,
        };
        std::thread::scope(|scope| -> std::io::Result<()> {
            loop {
                let accepted = match &listener {
                    Listener::Unix(l) => {
                        l.accept().map(|(s, _)| SocketStream(StreamInner::Unix(s)))
                    }
                    Listener::Tcp(l) => l.accept().map(|(s, _)| SocketStream(StreamInner::Tcp(s))),
                };
                let mut stream = match accepted {
                    Ok(stream) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Drain the open connections; the scope joins
                        // them before the error is returned.
                        state.begin_drain();
                        return Err(e);
                    }
                };
                if state.shutdown.load(Ordering::Relaxed) {
                    // The drain's wake-up (or a client racing it): neither
                    // served nor counted.
                    return Ok(());
                }
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let slot = {
                    let mut open = state.open.lock().expect("connection registry");
                    if open.len() < max_connections {
                        let client = state.next_client.fetch_add(1, Ordering::Relaxed);
                        open.insert(client, (handle, false));
                        Ok(Slot {
                            state: &state,
                            client,
                        })
                    } else {
                        Err(open.len())
                    }
                };
                let slot = match slot {
                    Ok(slot) => slot,
                    Err(occupied) => {
                        // Over capacity: answer, don't stall. The frame
                        // is best-effort — a client that never reads
                        // forfeits it, bounded by the write timeout.
                        state
                            .counters
                            .rejected_connections
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                        let frame = Frame::Busy {
                            scope: "connections".to_string(),
                            queued: occupied,
                            capacity: max_connections,
                            p95_ms: None,
                            slo_ms: None,
                        };
                        let _ = stream.write_all((frame.to_json_line() + "\n").as_bytes());
                        continue;
                    }
                };
                if let StreamInner::Tcp(s) = &stream.0 {
                    let _ = s.set_nodelay(true);
                }
                // A thread that cannot start drops the closure, and with
                // it the connection and its slot.
                match std::thread::Builder::new()
                    .spawn_scoped(scope, move || serve_connection(ctx, stream, slot))
                {
                    Ok(_) => {
                        state.counters.connections.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => eprintln!("serve: connection dropped, no thread for it: {e}"),
                }
            }
        })?;
        // Every connection thread has exited: every connection is closed
        // and every admitted batch has streamed its summary. Join the
        // workers (drains any purge-raced stragglers) before reporting.
        let shed_batches = scheduler.shed_batches();
        let timed_out_jobs = scheduler.stats().timed_out;
        drop(scheduler);
        if let Listen::Unix(path) = &state.listen {
            let _ = std::fs::remove_file(path);
        }
        drop(engine);
        Ok(ServeReport {
            connections: state.counters.connections.load(Ordering::Relaxed),
            batches: state.counters.batches.load(Ordering::Relaxed),
            jobs: state.counters.jobs.load(Ordering::Relaxed),
            rejected_connections: state.counters.rejected_connections.load(Ordering::Relaxed),
            rejected_batches: state.counters.rejected_batches.load(Ordering::Relaxed),
            purged_jobs: state.counters.purged_jobs.load(Ordering::Relaxed),
            timed_out_jobs,
            shed_batches,
            panic_retries: state.counters.panic_retries.load(Ordering::Relaxed),
        })
    }
}

/// Everything a connection thread needs.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    engine: &'a Arc<Engine>,
    scheduler: &'a Scheduler,
    state: &'a Arc<ServerState>,
    idle_request: Duration,
}

/// An occupied connection slot; dropping it frees the slot and the
/// drain's handle to the connection.
struct Slot<'a> {
    state: &'a ServerState,
    client: ClientId,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.state
            .open
            .lock()
            .expect("connection registry")
            .remove(&self.client);
    }
}

/// Serves one admitted connection on its own thread until its client
/// leaves, a `shutdown` frame or the drain ends it, or its handler
/// panics — which costs this client a best-effort `error` frame and its
/// connection, and nobody else anything.
fn serve_connection(ctx: Ctx<'_>, stream: SocketStream, slot: Slot<'_>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_write_timeout(Some(WRITE_STALL));
    let mut conn = Conn {
        reader: BufReader::new(LineReader {
            stream: read_half,
            deadline: None,
        }),
        writer: stream,
        client: slot.client,
        consumed: 0,
    };
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| conn.serve(&ctx)));
    if let Err(panic) = served {
        let _ = conn.send(&Frame::Error {
            message: format!("request failed: {}", panic_message(panic.as_ref())),
            offset: None,
            line: None,
        });
    }
}

/// Per-batch reorder buffer: the workers finish jobs in any order,
/// the connection's thread takes them strictly in job order, woken by
/// each delivery.
struct Collector {
    slots: Mutex<Vec<Option<JobResult>>>,
    ready: Condvar,
}

impl Collector {
    fn deliver(&self, index: usize, result: JobResult) {
        self.slots.lock().expect("collector lock")[index] = Some(result);
        self.ready.notify_one();
    }

    /// Takes result `index`, waiting for it at most `timeout`.
    fn take(&self, index: usize, timeout: Duration) -> Option<JobResult> {
        let slots = self.slots.lock().expect("collector lock");
        let (mut slots, _) = self
            .ready
            .wait_timeout_while(slots, timeout, |slots| slots[index].is_none())
            .expect("collector lock");
        slots[index].take()
    }
}

/// An admitted batch until its last record is out. Dropped before that
/// — the client vanished, a write failed, `conn_drop` fired, the
/// handler panicked — it cancels the batch: queued jobs are purged,
/// jobs not yet started see the cancel flag, fairness lanes are freed.
struct Admission<'a> {
    ctx: Ctx<'a>,
    client: ClientId,
    cancel: Arc<AtomicBool>,
    streamed: bool,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        if !self.streamed {
            self.cancel.store(true, Ordering::Relaxed);
            let purged = self.ctx.scheduler.cancel_client(self.client) as u64;
            self.ctx
                .state
                .counters
                .purged_jobs
                .fetch_add(purged, Ordering::Relaxed);
        }
    }
}

/// A connection's read half. While a request line is awaited, each read
/// waits only until the line's deadline, so bytes that trickle in do
/// not extend it.
struct LineReader {
    stream: SocketStream,
    deadline: Option<Instant>,
}

impl Read for LineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        self.stream.read(buf)
    }
}

/// One admitted connection.
struct Conn {
    reader: BufReader<LineReader>,
    writer: SocketStream,
    client: ClientId,
    /// Request-stream bytes consumed so far — the byte offset of the
    /// next line, echoed in malformed-request error frames.
    consumed: u64,
}

impl Conn {
    /// The request loop: one request at a time, so lines a client
    /// pipelines behind a batch wait, unread, until its summary is out.
    fn serve(&mut self, ctx: &Ctx<'_>) {
        loop {
            ctx.state.set_waiting(self.client, true);
            let line = self.next_line(ctx.idle_request);
            ctx.state.set_waiting(self.client, false);
            let (offset, line) = match line {
                Some(Ok(line)) => line,
                None => return,
                Some(Err(offset)) => {
                    let _ = self.send(&Frame::Error {
                        message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                        offset: Some(offset),
                        line: None,
                    });
                    return;
                }
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if ctx.state.shutdown.load(Ordering::Relaxed) {
                // A draining server accepts nothing new, but stays
                // polite: shutdown/ping still get their ack (so a
                // concurrent `submit --shutdown` sees success),
                // anything else gets an error frame.
                let frame = match Request::parse(line) {
                    Ok(Request::Shutdown) => Frame::ShuttingDown,
                    Ok(Request::Ping) => Frame::Pong,
                    _ => Frame::Error {
                        message: "server is shutting down".to_string(),
                        offset: None,
                        line: None,
                    },
                };
                let _ = self.send(&frame);
                return;
            }
            let sent = match Request::parse(line) {
                Err(message) => {
                    // A malformed request names the crime scene: where
                    // in the byte stream it sits and (truncated) what it
                    // said, so a client batching thousands of lines can
                    // find the bad one.
                    let echo: String = line.chars().take(120).collect();
                    self.send(&Frame::Error {
                        message,
                        offset: Some(offset),
                        line: Some(echo),
                    })
                }
                Ok(Request::Ping) => self.send(&Frame::Pong),
                Ok(Request::Shutdown) => {
                    ctx.state.begin_drain();
                    let _ = self.send(&Frame::ShuttingDown);
                    return;
                }
                Ok(Request::Batch(batch)) => self.run_batch(ctx, &batch),
            };
            if sent.is_err() {
                return;
            }
        }
    }

    /// The next request line (newline stripped, lossily decoded) with
    /// its byte offset; `Err(offset)` for a line over
    /// [`MAX_REQUEST_LINE`]; `None` once the client is gone — end of
    /// stream, a read error, a last line without its newline, or no
    /// complete line within `idle`.
    fn next_line(&mut self, idle: Duration) -> Option<Result<(u64, String), u64>> {
        let limit = MAX_REQUEST_LINE as u64 + 1;
        let mut bytes = Vec::new();
        self.reader.get_mut().deadline = Some(Instant::now() + idle);
        let read = self
            .reader
            .by_ref()
            .take(limit)
            .read_until(b'\n', &mut bytes);
        self.reader.get_mut().deadline = None;
        match read {
            Ok(_) if bytes.last() == Some(&b'\n') => {}
            Ok(n) if n as u64 == limit => return Some(Err(self.consumed)),
            _ => return None,
        }
        let offset = self.consumed;
        self.consumed += bytes.len() as u64;
        bytes.pop();
        Some(Ok((offset, String::from_utf8_lossy(&bytes).into_owned())))
    }

    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.write_line(frame.to_json_line())
    }

    fn write_line(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Whether the client has hung up, checked without blocking. Bytes
    /// it pipelined meanwhile stay buffered for the next request; with
    /// some already buffered, a vanished client shows at the next write
    /// instead.
    fn client_gone(&mut self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        if self.reader.get_ref().stream.set_nonblocking(true).is_err() {
            return false;
        }
        let gone = match self.reader.fill_buf() {
            Ok(bytes) => bytes.is_empty(),
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
            ),
        };
        let _ = self.reader.get_ref().stream.set_nonblocking(false);
        gone
    }

    /// Resolves a batch request, admits it to the scheduler and streams
    /// its frames, records (in job order) and summary. A spec that does
    /// not resolve gets an `error` frame and a full queue a `busy` frame;
    /// the connection stays usable either way. `Err` means the
    /// connection is done for.
    fn run_batch(&mut self, ctx: &Ctx<'_>, request: &BatchRequest) -> std::io::Result<()> {
        let jobs = match request.jobs() {
            Ok(jobs) => jobs,
            Err(message) => {
                return self.send(&Frame::Error {
                    message,
                    offset: None,
                    line: None,
                })
            }
        };
        let n = jobs.len();
        let t0 = Instant::now();
        let cache_before = ctx.engine.cache().map(|c| c.stats()).unwrap_or_default();
        let collector = Arc::new(Collector {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            ready: Condvar::new(),
        });
        let cancel = Arc::new(AtomicBool::new(false));
        let tasks: Vec<JobTask> = jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| job_task(ctx, index, job, &collector, &cancel))
            .collect();
        let admitted = match ctx
            .scheduler
            .submit_jobs(self.client, request.priority, tasks)
        {
            Ok(admitted) => admitted,
            Err(rejected) => {
                ctx.state
                    .counters
                    .rejected_batches
                    .fetch_add(1, Ordering::Relaxed);
                let scope = if rejected.p95_ms.is_some() {
                    "slo"
                } else {
                    "jobs"
                };
                return self.send(&Frame::Busy {
                    scope: scope.to_string(),
                    queued: rejected.queued,
                    capacity: rejected.capacity,
                    p95_ms: rejected.p95_ms,
                    slo_ms: rejected.slo_ms,
                });
            }
        };
        ctx.state.counters.batches.fetch_add(1, Ordering::Relaxed);
        let mut admission = Admission {
            ctx: *ctx,
            client: self.client,
            cancel,
            streamed: false,
        };
        // Fault injection (`conn_drop`): the connection dies abruptly
        // once half the records have streamed — before any frame when
        // that is none — like a client killed mid-batch.
        let drop_at = faultpoint::fire(faultpoint::CONN_DROP).then_some(n / 2);
        let dropped = || std::io::Error::from(std::io::ErrorKind::ConnectionAborted);
        if drop_at == Some(0) {
            return Err(dropped());
        }
        self.send(&Frame::Accepted { jobs: n })?;
        if admitted.ahead > 0 {
            self.send(&Frame::Queued {
                ahead: admitted.ahead,
            })?;
        }
        let mut results = Vec::with_capacity(n);
        for index in 0..n {
            if drop_at == Some(index) {
                return Err(dropped());
            }
            let result = loop {
                if let Some(result) = collector.take(index, HANGUP_POLL) {
                    break result;
                }
                if self.client_gone() {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
            };
            self.write_line(if request.emit_stage_times {
                result.to_json_line_with_stages()
            } else {
                result.to_json_line()
            })?;
            results.push(result);
        }
        admission.streamed = true;

        let mut stats = EngineStats::from_results(&results);
        // Cache activity attributed to this batch; with concurrent
        // connections the attribution is approximate (the counters are
        // engine-wide), never the records.
        let cache = ctx
            .engine
            .cache()
            .map(|c| c.stats().since(cache_before))
            .unwrap_or_default();
        stats.quarantined = cache.corrupt as usize;
        let report = BatchReport {
            results,
            stats,
            cache,
            wall: t0.elapsed(),
            threads: ctx.engine.threads(),
        };
        let mut summary = report.summary_value();
        if let Value::Obj(members) = &mut summary {
            members.push(("shards".to_string(), queue_stats_value(ctx.scheduler)));
        }
        self.send(&Frame::Summary { summary })
    }
}

/// Wraps job `index` of a batch for the scheduler: it runs unless the
/// batch was cancelled first, and exactly one of {completion, watchdog
/// timeout} delivers its collector slot.
fn job_task(
    ctx: &Ctx<'_>,
    index: usize,
    mut job: Job,
    collector: &Arc<Collector>,
    cancel: &Arc<AtomicBool>,
) -> JobTask {
    // The workers are shared by every connection — one worker per job,
    // no intra-job fan-out on top (results are byte-identical either
    // way).
    if job.options.intra_parallelism == 0 {
        job.options.intra_parallelism = 1;
    }
    let name = job.name.clone();
    let flow = job.flow;
    let engine = Arc::clone(ctx.engine);
    let deadline = ctx.scheduler.deadline();
    let collector = Arc::clone(collector);
    let timeout_collector = Arc::clone(&collector);
    let cancel = Arc::clone(cancel);
    let state = Arc::clone(ctx.state);
    // Both deliveries race for this flag; the loser drops its record.
    let delivered = Arc::new(AtomicBool::new(false));
    let timeout_delivered = Arc::clone(&delivered);
    let run: Task = Box::new(move || {
        let result = if cancel.load(Ordering::Relaxed) {
            JobResult::failed(
                job.name.clone(),
                job.flow,
                JobError::engine("cancelled: client disconnected"),
                Duration::ZERO,
            )
        } else {
            // Counted here — not at admission — so the operator's exit
            // report only claims jobs that actually ran.
            state.counters.jobs.fetch_add(1, Ordering::Relaxed);
            execute_with_retries(&engine, &job, &state.counters)
        };
        if delivered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            collector.deliver(index, result);
        }
    });
    let on_timeout: Task = Box::new(move || {
        if timeout_delivered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let deadline = deadline.unwrap_or_default();
            let error = JobError::timeout(format!(
                "job exceeded the {} ms deadline and was declared stuck",
                deadline.as_millis()
            ));
            timeout_collector.deliver(index, JobResult::failed(name, flow, error, deadline));
        }
    });
    JobTask {
        run,
        on_timeout: Some(on_timeout),
    }
}

/// Job executions that may retry after a (real or injected) panic
/// before the job is declared failed. Transient faults recover to the
/// byte-identical deterministic result; a persistent panic burns all
/// attempts and degrades to one structured error record.
const MAX_JOB_ATTEMPTS: u32 = 8;

/// Runs one job, converting panics into bounded retries. The `job_stall`
/// and `worker_panic` fault points live here — compiled to no-ops when
/// the registry is disarmed.
fn execute_with_retries(engine: &Engine, job: &Job, counters: &Counters) -> JobResult {
    if faultpoint::fire(faultpoint::JOB_STALL) {
        std::thread::sleep(faultpoint::stall_duration());
    }
    let mut attempts = 0;
    loop {
        attempts += 1;
        // A panic inside a flow is an engine bug (or an injected fault),
        // but in a daemon it must degrade to a retry and at worst one
        // failed job: without the catch the collector slot would never
        // be delivered and the batch would hang.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if faultpoint::fire(faultpoint::WORKER_PANIC) {
                panic!("injected fault: worker panic");
            }
            engine.execute_job(job)
        }));
        match run {
            Ok(result) => return result,
            Err(panic) if attempts >= MAX_JOB_ATTEMPTS => {
                let error = JobError::engine(format!(
                    "job panicked ({attempts} attempts): {}",
                    panic_message(panic.as_ref())
                ));
                return JobResult::failed(job.name.clone(), job.flow, error, Duration::ZERO);
            }
            Err(_) => {
                counters.panic_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The scheduler's queue counters for the summary frame: a one-element
/// array under the `shards` key, the wire shape clients already read.
fn queue_stats_value(scheduler: &Scheduler) -> Value {
    let s = scheduler.stats();
    Value::Arr(vec![ObjBuilder::new()
        .field("executed", s.executed)
        .field("purged", s.purged)
        .field("timed_out", s.timed_out)
        .field("queued", s.queued)
        .field("peak_queued", s.peak_queued)
        .field("p95_ms", (s.p95_ms * 100.0).round() / 100.0)
        .build()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_without_a_request_line_frees_its_slot() {
        let dir = std::env::temp_dir().join(format!("mm_serve_idle_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("idle.sock");
        let options = ServeOptions {
            threads: 1,
            max_connections: 1,
            ..ServeOptions::default()
        };
        let mut server = Server::bind(&Listen::Unix(socket.clone()), &options).unwrap();
        server.idle_request = Duration::from_millis(300);
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let ping = |stream: &mut UnixStream, reader: &mut BufReader<UnixStream>| {
            stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };

        // The slot's holder is answered, then trickles a byte every 50 ms
        // without ever completing a line.
        let mut idle = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(idle.try_clone().unwrap());
        assert_eq!(ping(&mut idle, &mut reader), "{\"type\":\"pong\"}\n");
        idle.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let start = Instant::now();
        loop {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "an idle connection kept its slot"
            );
            let _ = idle.write_all(b" ");
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => panic!("unexpected line {line:?}"),
                Err(_) => {}
            }
        }
        assert!(start.elapsed() >= Duration::from_millis(150));

        // The freed slot admits the next client.
        let mut next = UnixStream::connect(&socket).unwrap();
        let mut next_reader = BufReader::new(next.try_clone().unwrap());
        assert_eq!(ping(&mut next, &mut next_reader), "{\"type\":\"pong\"}\n");
        drop((next, next_reader));
        handle.shutdown();
        let report = thread.join().unwrap().unwrap();
        assert_eq!((report.connections, report.rejected_connections), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
