//! The batch service: accept loop, multiplexed connection reactors,
//! scheduler admission, ordered result streaming and graceful drain.
//!
//! # Connection model
//!
//! Connections are *multiplexed*, not thread-per-connection: a small
//! fixed set of reactor threads each owns many non-blocking sockets and
//! drives them through a per-connection state machine (read request
//! lines → admit batches to the [`Scheduler`] → pump in-order results
//! into the outbound buffer → flush). Job execution never happens on a
//! reactor thread — the scheduler's sharded worker groups do that — so
//! a reactor's only work per connection is parsing, admission and byte
//! shuffling, and hundreds of idle connections cost no threads.
//!
//! # Backpressure
//!
//! Capacity is never a silent stall:
//!
//! * a connection over `max_connections` receives one structured
//!   `busy` frame (`scope: "connections"`) and is closed;
//! * a batch that would overflow a shard queue is rejected whole with a
//!   `busy` frame (`scope: "jobs"`) — the connection stays usable and
//!   the client retries;
//! * an admitted batch that has to wait is told so with a `queued`
//!   frame carrying the number of jobs ahead of it.

use crate::scheduler::{panic_message, ClientId, JobTask, Scheduler, Task};
use mm_engine::faultpoint;
use mm_engine::json::{ObjBuilder, Value};
use mm_engine::protocol::{BatchRequest, Frame, Request};
use mm_engine::{
    load_spec_with_modes, BatchReport, CacheStats, Engine, EngineOptions, EngineStats, Job,
    JobCacheInfo, JobError, JobResult,
};
use mm_flow::FlowOptions;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Worker threads across all shards (`0` = one per CPU).
    pub threads: usize,
    /// Stage-cache root shared by every connection; `None` disables
    /// caching.
    pub cache_dir: Option<PathBuf>,
    /// Connections handled concurrently; an excess client receives a
    /// structured `busy` frame (`scope: "connections"`) and is closed
    /// instead of stalling in the accept backlog.
    pub max_connections: usize,
    /// Worker groups (shards) the threads are split into; jobs are
    /// routed by content fingerprint so identical legs share a shard.
    /// `0` = one group per two workers (capped at 8).
    pub workers: usize,
    /// Queued (not yet running) jobs each shard admits before batches
    /// bounce with a `busy` frame (`scope: "jobs"`).
    pub queue_depth: usize,
    /// p95 sojourn-latency SLO in milliseconds. When set, batches are
    /// shed lowest-priority-first once a target shard's observed p95
    /// exceeds it (`busy` frame, `scope: "slo"`, carrying the p95);
    /// priority 9 is never shed. `None` keeps plain queue-depth
    /// admission only.
    pub slo_ms: Option<f64>,
    /// Per-job execution deadline in milliseconds; a job still running
    /// past it is declared stuck by the watchdog and answered with a
    /// structured `timeout` error record while the shard keeps serving.
    /// `0` disables the watchdog.
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
            workers: 0,
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
    /// Batches bounced with a `busy` frame by shard-queue admission.
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
    active: AtomicUsize,
    next_client: AtomicU64,
    counters: Counters,
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
        self.state.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Relaxed)
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
    /// Connects to a serving address.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be reached.
    pub fn connect(listen: &Listen) -> std::io::Result<Self> {
        Ok(SocketStream(match listen {
            Listen::Unix(path) => StreamInner::Unix(UnixStream::connect(path)?),
            Listen::Tcp(addr) => StreamInner::Tcp(TcpStream::connect(addr.as_str())?),
        }))
    }

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
    ///
    /// # Errors
    ///
    /// Fails if the option cannot be set.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.set_read_timeout(timeout),
            StreamInner::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds blocking writes (shared by all clones of the socket).
    ///
    /// # Errors
    ///
    /// Fails if the option cannot be set.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.set_write_timeout(timeout),
            StreamInner::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Switches the socket between blocking and non-blocking mode (the
    /// reactors multiplex connections in non-blocking mode).
    ///
    /// # Errors
    ///
    /// Fails if the option cannot be set.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match &self.0 {
            StreamInner::Unix(s) => s.set_nonblocking(nonblocking),
            StreamInner::Tcp(s) => s.set_nonblocking(nonblocking),
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
/// far below harm. Also the inbound buffering bound per connection:
/// a client pipelining past it is simply not read until the buffer
/// drains (socket-level backpressure).
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Outbound buffering high-water mark: result pumping pauses (results
/// wait in their collector slots) until the client reads us back below
/// it.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// A client that accepts no bytes for this long mid-stream is declared
/// gone.
const WRITE_STALL: Duration = Duration::from_secs(30);

/// How long an idle reactor parks before re-polling its sockets.
const REACTOR_PARK: Duration = Duration::from_millis(1);

/// Reactor threads multiplexing the connections (they only parse, admit
/// and shuffle bytes; jobs run on the scheduler's workers).
const REACTOR_THREADS: usize = 2;

/// Wakes a parked reactor (new connection, delivered result).
#[derive(Debug, Default)]
struct Waker {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    fn wake(&self) {
        *self.flag.lock().expect("waker lock") = true;
        self.cv.notify_all();
    }

    fn park(&self, timeout: Duration) {
        let mut flag = self.flag.lock().expect("waker lock");
        if !*flag {
            let (guard, _) = self.cv.wait_timeout(flag, timeout).expect("waker lock");
            flag = guard;
        }
        *flag = false;
    }
}

/// The long-running batch service.
///
/// One [`Engine`] (and therefore one stage cache) and one sharded
/// [`Scheduler`] are shared by every connection: concurrent clients
/// submit batches whose jobs interleave fairly on the worker groups and
/// warm the same cache, while each connection's result stream stays in
/// its own batch's job order — byte-identical to `mmflow batch` on the
/// same spec.
pub struct Server {
    engine: Arc<Engine>,
    scheduler: Arc<Scheduler>,
    listener: Listener,
    listen: Listen,
    state: Arc<ServerState>,
    max_connections: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("listen", &self.listen)
            .field("threads", &self.scheduler.threads())
            .field("shards", &self.scheduler.shards())
            .field("max_connections", &self.max_connections)
            .finish()
    }
}

impl Server {
    /// Binds the listener and starts the scheduler's worker groups (but
    /// accepts nothing until [`Server::run`]). A stale Unix socket path
    /// is removed first — the server owns it.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be bound or the cache directory cannot
    /// be created.
    pub fn bind(listen: &Listen, options: &ServeOptions) -> std::io::Result<Self> {
        if let Some(spec) = &options.fault_spec {
            faultpoint::arm(spec).map_err(|message| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
            })?;
        }
        let scheduler = Arc::new(Scheduler::new(
            options.workers,
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
            listen,
            state: Arc::new(ServerState {
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                next_client: AtomicU64::new(1),
                counters: Counters::default(),
            }),
            max_connections: options.max_connections.max(1),
        })
    }

    /// Where the server actually listens (TCP port 0 resolved).
    #[must_use]
    pub fn listen_addr(&self) -> &Listen {
        &self.listen
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
    /// [`ServerHandle::shutdown`]), then drains: the listener closes,
    /// every connection — including batches still executing on the
    /// worker groups — runs to completion, and the workers are joined
    /// before this returns.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot be polled.
    pub fn run(self) -> std::io::Result<ServeReport> {
        let Server {
            engine,
            scheduler,
            listener,
            listen,
            state,
            max_connections,
        } = self;
        match &listener {
            Listener::Unix(l) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        let reactors: Vec<ReactorHandle> = (0..REACTOR_THREADS)
            .map(|_| ReactorHandle {
                inbox: Mutex::new(Vec::new()),
                waker: Arc::new(Waker::default()),
                load: AtomicUsize::new(0),
            })
            .collect();
        std::thread::scope(|scope| -> std::io::Result<()> {
            for reactor in &reactors {
                let ctx = Ctx {
                    engine: &engine,
                    scheduler: &scheduler,
                    state: &state,
                };
                scope.spawn(move || run_reactor(&ctx, reactor));
            }
            loop {
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let accepted = match &listener {
                    Listener::Unix(l) => {
                        l.accept().map(|(s, _)| SocketStream(StreamInner::Unix(s)))
                    }
                    Listener::Tcp(l) => l.accept().map(|(s, _)| SocketStream(StreamInner::Tcp(s))),
                };
                let stream = match accepted {
                    Ok(stream) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Wake the reactors out of their parks so the
                        // drain below cannot deadlock on an I/O error.
                        state.shutdown.store(true, Ordering::Relaxed);
                        for reactor in &reactors {
                            reactor.waker.wake();
                        }
                        return Err(e);
                    }
                };
                if state.active.load(Ordering::Relaxed) >= max_connections {
                    // Over capacity: answer, don't stall. The frame is
                    // best-effort — a client that never reads forfeits
                    // it, bounded by the write timeout.
                    state
                        .counters
                        .rejected_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let mut stream = stream;
                    let frame = Frame::Busy {
                        scope: "connections".to_string(),
                        queued: state.active.load(Ordering::Relaxed),
                        capacity: max_connections,
                        p95_ms: None,
                    };
                    let _ = stream
                        .write_all((frame.to_json_line() + "\n").as_bytes())
                        .and_then(|()| stream.flush());
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if let StreamInner::Tcp(s) = &stream.0 {
                    let _ = s.set_nodelay(true);
                }
                state.active.fetch_add(1, Ordering::Relaxed);
                state.counters.connections.fetch_add(1, Ordering::Relaxed);
                let conn = Conn::new(stream, state.next_client.fetch_add(1, Ordering::Relaxed));
                // Least-loaded reactor takes the new connection.
                let reactor = reactors
                    .iter()
                    .min_by_key(|r| r.load.load(Ordering::Relaxed))
                    .expect("at least one reactor");
                reactor.load.fetch_add(1, Ordering::Relaxed);
                reactor.inbox.lock().expect("inbox lock").push(conn);
                reactor.waker.wake();
            }
            for reactor in &reactors {
                reactor.waker.wake();
            }
            Ok(())
        })?;
        // Reactors have exited: every connection is closed and every
        // admitted batch has streamed its summary. Join the workers
        // (drains any purge-raced stragglers) before reporting.
        let shed_batches = scheduler.shed_batches();
        let timed_out_jobs: u64 = scheduler.stats().iter().map(|s| s.timed_out).sum();
        drop(scheduler);
        if let Listen::Unix(path) = &listen {
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

/// Everything a reactor needs to drive its connections.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    engine: &'a Arc<Engine>,
    scheduler: &'a Arc<Scheduler>,
    state: &'a Arc<ServerState>,
}

struct ReactorHandle {
    inbox: Mutex<Vec<Conn>>,
    waker: Arc<Waker>,
    load: AtomicUsize,
}

/// One reactor: adopt assigned connections, tick them all, park briefly
/// when nothing progressed. Exits when shutdown is requested and its
/// last connection is gone.
fn run_reactor(ctx: &Ctx<'_>, reactor: &ReactorHandle) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        {
            let mut inbox = reactor.inbox.lock().expect("inbox lock");
            conns.append(&mut inbox);
        }
        let mut progressed = false;
        let mut index = 0;
        while index < conns.len() {
            let tick = conns[index].tick(ctx, &reactor.waker);
            progressed |= tick.progressed;
            if tick.close {
                let mut conn = conns.swap_remove(index);
                conn.abandon_stream(ctx);
                ctx.state.active.fetch_sub(1, Ordering::Relaxed);
                reactor.load.fetch_sub(1, Ordering::Relaxed);
            } else {
                index += 1;
            }
        }
        if conns.is_empty()
            && ctx.state.shutdown.load(Ordering::Relaxed)
            && reactor.inbox.lock().expect("inbox lock").is_empty()
        {
            return;
        }
        if !progressed {
            reactor.waker.park(REACTOR_PARK);
        }
    }
}

/// Per-batch reorder buffer: shard workers finish jobs in any order,
/// the owning reactor consumes them strictly in job order. Delivery
/// wakes the reactor so results stream without waiting out a park.
struct Collector {
    slots: Mutex<Vec<Option<JobResult>>>,
    waker: Arc<Waker>,
}

impl Collector {
    fn deliver(&self, index: usize, result: JobResult) {
        {
            let mut slots = self.slots.lock().expect("collector lock");
            slots[index] = Some(result);
        }
        self.waker.wake();
    }

    fn try_take(&self, index: usize) -> Option<JobResult> {
        self.slots.lock().expect("collector lock")[index].take()
    }
}

/// An admitted batch mid-stream on one connection.
struct Streaming {
    collector: Arc<Collector>,
    cancel: Arc<AtomicBool>,
    next: usize,
    total: usize,
    results: Vec<JobResult>,
    t0: Instant,
    cache_before: CacheStats,
    /// Append per-stage telemetry to every streamed record (the
    /// request's `emit_stage_times` member). Default records stay the
    /// exact `mmflow batch` bytes.
    emit_stage_times: bool,
    /// Fault injection (`conn_drop`): abruptly close the connection once
    /// this many records have streamed — simulates a client killed
    /// mid-batch.
    drop_at: Option<usize>,
}

struct TickResult {
    progressed: bool,
    close: bool,
}

/// One multiplexed connection's state machine.
struct Conn {
    stream: SocketStream,
    client: ClientId,
    inbuf: Vec<u8>,
    /// Consumed prefix of `inbuf` (compacted between ticks).
    inpos: usize,
    /// Total request-stream bytes consumed so far — the byte offset of
    /// the next unread line, echoed in malformed-request error frames.
    consumed: u64,
    out: Vec<u8>,
    /// Flushed prefix of `out` (compacted when fully flushed).
    outpos: usize,
    last_write_progress: Instant,
    eof: bool,
    close_after_flush: bool,
    streaming: Option<Streaming>,
}

impl Conn {
    fn new(stream: SocketStream, client: ClientId) -> Self {
        Self {
            stream,
            client,
            inbuf: Vec::new(),
            inpos: 0,
            consumed: 0,
            out: Vec::new(),
            outpos: 0,
            last_write_progress: Instant::now(),
            eof: false,
            close_after_flush: false,
            streaming: None,
        }
    }

    fn queue_frame(&mut self, frame: &Frame) {
        self.out.extend_from_slice(frame.to_json_line().as_bytes());
        self.out.push(b'\n');
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.outpos
    }

    /// Cancels and purges a batch this connection will never stream
    /// (client vanished): queued jobs are dropped, in-flight jobs see
    /// the cancel flag, fairness lanes are freed.
    fn abandon_stream(&mut self, ctx: &Ctx<'_>) {
        if let Some(streaming) = self.streaming.take() {
            streaming.cancel.store(true, Ordering::Relaxed);
            let purged = ctx.scheduler.cancel_client(self.client) as u64;
            ctx.state
                .counters
                .purged_jobs
                .fetch_add(purged, Ordering::Relaxed);
        }
    }

    /// One multiplexing step: read what's there, process requests,
    /// pump stream results, flush what fits.
    fn tick(&mut self, ctx: &Ctx<'_>, waker: &Arc<Waker>) -> TickResult {
        let mut progressed = false;

        // Read phase — runs even mid-stream so a vanished client is
        // noticed by its EOF, not only by a write failure.
        if !self.eof && !self.close_after_flush {
            let mut buf = [0u8; 4096];
            while self.inbuf.len() - self.inpos <= MAX_REQUEST_LINE {
                match self.stream.read(&mut buf) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.inbuf.extend_from_slice(&buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.eof = true;
                        break;
                    }
                }
            }
            // A single line may not exceed the cap; a pipelining client
            // is merely left unread (backpressure), never disconnected.
            if self.streaming.is_none()
                && self.inbuf.len() - self.inpos > MAX_REQUEST_LINE
                && !self.inbuf[self.inpos..].contains(&b'\n')
            {
                self.queue_frame(&Frame::Error {
                    message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    offset: Some(self.consumed),
                    line: None,
                });
                self.close_after_flush = true;
            }
        }

        // Process phase — one request at a time; a batch in flight
        // parks pipelined lines in the buffer until its summary is out.
        while self.streaming.is_none() && !self.close_after_flush {
            let Some((offset, line)) = self.take_line() else {
                break;
            };
            progressed = true;
            let line = line.trim().to_string();
            if line.is_empty() {
                continue;
            }
            if ctx.state.shutdown.load(Ordering::Relaxed) {
                // A draining server accepts nothing new, but stays
                // polite: shutdown/ping still get their ack (so a
                // concurrent `submit --shutdown` sees success),
                // anything else gets an error frame.
                let frame = match Request::parse(&line) {
                    Ok(Request::Shutdown) => Frame::ShuttingDown,
                    Ok(Request::Ping) => Frame::Pong,
                    _ => Frame::Error {
                        message: "server is shutting down".to_string(),
                        offset: None,
                        line: None,
                    },
                };
                self.queue_frame(&frame);
                self.close_after_flush = true;
                break;
            }
            match Request::parse(&line) {
                Err(message) => {
                    // A malformed request names the crime scene: where
                    // in the byte stream it sits and (truncated) what it
                    // said, so a client batching thousands of lines can
                    // find the bad one.
                    let echo: String = line.chars().take(120).collect();
                    self.queue_frame(&Frame::Error {
                        message,
                        offset: Some(offset),
                        line: Some(echo),
                    });
                }
                Ok(Request::Ping) => self.queue_frame(&Frame::Pong),
                Ok(Request::Shutdown) => {
                    self.queue_frame(&Frame::ShuttingDown);
                    ctx.state.shutdown.store(true, Ordering::Relaxed);
                    self.close_after_flush = true;
                }
                Ok(Request::Batch(batch)) => {
                    self.admit_batch(ctx, waker, &batch);
                    progressed = true;
                }
            }
        }

        // Stream phase — move ready in-order results into the outbound
        // buffer, then the summary trailer.
        if let Some(streaming) = &mut self.streaming {
            if streaming.drop_at.is_some_and(|at| streaming.next >= at) {
                // Fault injection: the connection dies mid-batch. The
                // close path purges queued jobs and frees lanes exactly
                // like a real vanished client.
                return TickResult {
                    progressed: true,
                    close: true,
                };
            }
            while streaming.next < streaming.total && self.out.len() - self.outpos < OUT_HIGH_WATER
            {
                let Some(result) = streaming.collector.try_take(streaming.next) else {
                    break;
                };
                let mut record = if streaming.emit_stage_times {
                    result.to_json_line_with_stages()
                } else {
                    result.to_json_line()
                };
                record.push('\n');
                self.out.extend_from_slice(record.as_bytes());
                streaming.results.push(result);
                streaming.next += 1;
                progressed = true;
            }
            if streaming.next == streaming.total {
                let streaming = self.streaming.take().expect("streaming state");
                self.finish_batch(ctx, streaming);
                progressed = true;
            }
        }

        // Flush phase.
        while self.outpos < self.out.len() {
            match self.stream.write(&self.out[self.outpos..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.outpos += n;
                    self.last_write_progress = Instant::now();
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.eof = true;
                    break;
                }
            }
        }
        if self.outpos == self.out.len() && self.outpos > 0 {
            self.out.clear();
            self.outpos = 0;
        }

        // Close decisions.
        let flushed = self.out_pending() == 0;
        let close = (self.eof && (self.streaming.is_some() || flushed || !self.has_line()))
            || (self.close_after_flush && flushed && self.streaming.is_none())
            || (!flushed && self.last_write_progress.elapsed() > WRITE_STALL)
            || (ctx.state.shutdown.load(Ordering::Relaxed)
                && self.streaming.is_none()
                && flushed
                && !self.has_line());
        TickResult { progressed, close }
    }

    /// Extracts the next complete request line from the inbound buffer,
    /// with the byte offset of its start in this connection's request
    /// stream (for error-frame diagnostics).
    fn take_line(&mut self) -> Option<(u64, String)> {
        let rest = &self.inbuf[self.inpos..];
        let nl = rest.iter().position(|b| *b == b'\n')?;
        let offset = self.consumed;
        let line = String::from_utf8_lossy(&rest[..nl]).into_owned();
        self.inpos += nl + 1;
        self.consumed += nl as u64 + 1;
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        }
        Some((offset, line))
    }

    fn has_line(&self) -> bool {
        self.inbuf[self.inpos..].contains(&b'\n')
    }

    /// Resolves a batch request and submits its jobs to the scheduler;
    /// on admission the connection enters streaming state, on rejection
    /// it receives a `busy` frame and stays usable.
    fn admit_batch(&mut self, ctx: &Ctx<'_>, waker: &Arc<Waker>, request: &BatchRequest) {
        let options = request.flow_options(&FlowOptions::default());
        let mut batch =
            match load_spec_with_modes(&request.spec, &options, request.k, request.modes) {
                Ok(batch) => batch,
                Err(message) => {
                    return self.queue_frame(&Frame::Error {
                        message,
                        offset: None,
                        line: None,
                    })
                }
            };
        if let Some(n) = request.max_jobs {
            batch.jobs.truncate(n);
        }
        let mut jobs = batch.jobs;
        // The worker groups are shared by every connection — one worker
        // per job, no intra-job fan-out on top (results are
        // byte-identical either way).
        for job in &mut jobs {
            if job.options.intra_parallelism == 0 {
                job.options.intra_parallelism = 1;
            }
        }
        let n = jobs.len();
        let t0 = Instant::now();
        let cache_before = ctx.engine.cache().map(|c| c.stats()).unwrap_or_default();
        let collector = Arc::new(Collector {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            waker: Arc::clone(waker),
        });
        let cancel = Arc::new(AtomicBool::new(false));
        let deadline = ctx.scheduler.deadline();
        let tasks: Vec<JobTask> = jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| {
                let fingerprint = job.fingerprint();
                let name = job.name.clone();
                let flow = job.flow;
                let engine = Arc::clone(ctx.engine);
                let collector = Arc::clone(&collector);
                let timeout_collector = Arc::clone(&collector);
                let cancel = Arc::clone(&cancel);
                let state = Arc::clone(ctx.state);
                // Exactly one of {completion, watchdog timeout} delivers
                // the collector slot: both race for this flag, the loser
                // drops its record.
                let delivered = Arc::new(AtomicBool::new(false));
                let timeout_delivered = Arc::clone(&delivered);
                let run: Task = Box::new(move || {
                    let result = if cancel.load(Ordering::Relaxed) {
                        JobResult {
                            name: job.name.clone(),
                            flow: job.flow,
                            outcome: Err(JobError::engine("cancelled: client disconnected")),
                            cache: JobCacheInfo::default(),
                            duration: Duration::ZERO,
                            stages: Vec::new(),
                        }
                    } else {
                        // Counted here — not at admission — so the
                        // operator's exit report only claims jobs that
                        // actually ran.
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
                        timeout_collector.deliver(
                            index,
                            JobResult {
                                name,
                                flow,
                                outcome: Err(JobError::timeout(format!(
                                    "job exceeded the {} ms deadline and was declared stuck",
                                    deadline.as_millis()
                                ))),
                                cache: JobCacheInfo::default(),
                                duration: deadline,
                                stages: Vec::new(),
                            },
                        );
                    }
                });
                JobTask {
                    fingerprint,
                    run,
                    on_timeout: Some(on_timeout),
                }
            })
            .collect();
        match ctx
            .scheduler
            .submit_jobs(self.client, request.priority, tasks)
        {
            Ok(admitted) => {
                ctx.state.counters.batches.fetch_add(1, Ordering::Relaxed);
                self.queue_frame(&Frame::Accepted { jobs: n });
                if admitted.ahead > 0 {
                    self.queue_frame(&Frame::Queued {
                        ahead: admitted.ahead,
                    });
                }
                // Fault injection: decide *now* whether this connection
                // will be killed mid-batch (once at least half the
                // records have streamed).
                let drop_at = faultpoint::fire(faultpoint::CONN_DROP).then_some(n / 2);
                self.streaming = Some(Streaming {
                    collector,
                    cancel,
                    next: 0,
                    total: n,
                    results: Vec::with_capacity(n),
                    t0,
                    cache_before,
                    emit_stage_times: request.emit_stage_times,
                    drop_at,
                });
            }
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
                self.queue_frame(&Frame::Busy {
                    scope: scope.to_string(),
                    queued: rejected.queued,
                    capacity: rejected.capacity,
                    p95_ms: rejected.p95_ms,
                });
            }
        }
    }

    /// Builds and queues the summary trailer of a fully streamed batch.
    fn finish_batch(&mut self, ctx: &Ctx<'_>, streaming: Streaming) {
        let mut stats = EngineStats::from_results(&streaming.results);
        // Cache activity attributed to this batch; with concurrent
        // connections the attribution is approximate (the counters
        // are engine-wide), never the records.
        let cache = ctx
            .engine
            .cache()
            .map(|c| c.stats().since(streaming.cache_before))
            .unwrap_or_default();
        stats.quarantined = cache.corrupt as usize;
        let report = BatchReport {
            results: streaming.results,
            stats,
            cache,
            wall: streaming.t0.elapsed(),
            threads: ctx.engine.threads(),
        };
        let mut summary = report.summary_value();
        if let Value::Obj(members) = &mut summary {
            members.push(("shards".to_string(), shard_stats_value(ctx.scheduler)));
        }
        self.queue_frame(&Frame::Summary { summary });
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
                return JobResult {
                    name: job.name.clone(),
                    flow: job.flow,
                    outcome: Err(JobError::engine(format!(
                        "job panicked ({attempts} attempts): {}",
                        panic_message(panic.as_ref())
                    ))),
                    cache: JobCacheInfo::default(),
                    duration: Duration::ZERO,
                    stages: Vec::new(),
                }
            }
            Err(_) => {
                counters.panic_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Per-shard scheduler counters as a JSON array for the summary frame.
fn shard_stats_value(scheduler: &Scheduler) -> Value {
    Value::Arr(
        scheduler
            .stats()
            .into_iter()
            .map(|s| {
                ObjBuilder::new()
                    .field("executed", s.executed)
                    .field("purged", s.purged)
                    .field("timed_out", s.timed_out)
                    .field("queued", s.queued)
                    .field("peak_queued", s.peak_queued)
                    .field("p95_ms", (s.p95_ms * 100.0).round() / 100.0)
                    .build()
            })
            .collect(),
    )
}
