#![warn(missing_docs)]

//! Concurrent HTTP/JSON serving front end for the Aqua middleware.
//!
//! The serving story so far ends at a Rust API ([`aqua::Aqua::run`]);
//! this crate puts a network in front of it without taking on an async
//! runtime the build environment doesn't have. The shape is a classic
//! reactor: **one epoll thread owns every socket** (accept, read, parse,
//! write — nothing blocking), and a small **worker pool owns the query
//! work** (the only part that can take milliseconds). The two sides meet
//! at a bounded job queue going one way and a completion list + `eventfd`
//! wakeup coming back.
//!
//! Three serving behaviors live here rather than in the middleware:
//!
//! - **Coalescing**: identical in-flight queries (same relation, same
//!   *normalized* SQL — the plan cache's key) are answered once; every
//!   waiting connection gets a copy of the one result. A thundering herd
//!   of dashboards refreshing the same panel costs one execution.
//! - **Admission control**: the job queue is bounded; a `/query` arriving
//!   when it is full is answered `503` immediately instead of queueing
//!   behind work the client will have timed out on anyway. Coalesced
//!   followers ride the existing job and are never shed.
//! - **Protocol hygiene**: HTTP/1.1 keep-alive, pipelining (one query in
//!   flight per connection), malformed requests answered `4xx` and closed.
//!
//! Endpoints: `POST /query` (JSON `{"sql": ..., "relation": ...}` or a
//! raw SQL body), `GET /stats` (JSON metrics snapshot, server + backend
//! merged), `GET /metrics` (Prometheus text), `GET /healthz`.

pub mod backend;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod http;
pub mod json;
pub mod sys;
pub mod timer;

pub use backend::{BackendError, QueryBackend};
#[cfg(feature = "chaos")]
pub use chaos::ChaosConfig;

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use std::{io, thread};

use engine::CancelToken;
use sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use timer::TimerWheel;

/// `Retry-After` header value on 503/504 responses (integer seconds —
/// the header's only portable form).
const RETRY_AFTER_SECS: &str = "1";
/// Machine-readable backoff hint in 503/504 JSON bodies. Finer-grained
/// than the header: a shed queue usually drains in well under a second.
const RETRY_AFTER_MS: u64 = 100;

/// Lock a mutex, recovering from poisoning. A worker panic while holding
/// a shared lock must not take the whole server down: every structure
/// behind these locks (queue, singleflight table, completion list) is
/// valid after any partial mutation — at worst a request is answered
/// twice or shed spuriously.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render an error response; retryable statuses (503/504) get a
/// `Retry-After` header and a `retry_after_ms` body hint.
fn error_response(status: u16, message: &str, keep_alive: bool) -> Vec<u8> {
    let retryable = status == 503 || status == 504;
    let body = json::render_error_status(message, status, retryable.then_some(RETRY_AFTER_MS));
    if retryable {
        http::response_with(
            status,
            "application/json",
            body.as_bytes(),
            keep_alive,
            &[("Retry-After", RETRY_AFTER_SECS)],
        )
    } else {
        http::response(status, "application/json", body.as_bytes(), keep_alive)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8600` (port 0 picks an ephemeral
    /// port — read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Query worker threads; 0 means one per available core.
    pub workers: usize,
    /// Jobs the queue holds before `/query` starts answering 503.
    pub queue_depth: usize,
    /// Default per-query deadline in milliseconds; 0 disables. Requests
    /// override it with an `x-deadline-ms` header. Expired queries are
    /// answered 504 — before execution when the deadline passed while
    /// queued, or mid-scan via cooperative cancellation.
    pub deadline_ms: u64,
    /// Close a connection whose request head/body stalls this long
    /// mid-parse (slow-loris defense); 0 disables.
    pub read_timeout_ms: u64,
    /// Close a connection that won't accept response bytes for this long;
    /// 0 disables.
    pub write_timeout_ms: u64,
    /// Close a keep-alive connection idle this long; 0 disables.
    pub idle_timeout_ms: u64,
    /// Hard cap on concurrent connections; excess accepts are answered
    /// 503 and closed immediately. 0 disables.
    pub max_connections: usize,
    /// Grace period for [`Server::shutdown_graceful`]: in-flight queries
    /// get 75% of it to finish, then are force-cancelled (answered 504)
    /// for the remainder.
    pub drain_grace_ms: u64,
    /// Deterministic fault injection in the reactor's socket I/O
    /// (feature `chaos`; test builds only).
    #[cfg(feature = "chaos")]
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_depth: 64,
            deadline_ms: 0,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
            max_connections: 1024,
            drain_grace_ms: 5_000,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// One queued query execution.
struct Job {
    key: QueryKey,
    /// Absolute deadline shared by every coalesced waiter (followers
    /// adopt the leader's deadline — they ride its execution).
    deadline: Option<Instant>,
}

/// Coalescing key: target relation + normalized SQL. Unnormalizable SQL
/// keys on its raw text — such queries still coalesce when byte-identical
/// and all get the same 400.
type QueryKey = (Option<String>, String);

/// A connection waiting on a query result.
struct Waiter {
    fd: i32,
    generation: u64,
    keep_alive: bool,
}

/// A rendered response headed back to the reactor.
struct Completion {
    fd: i32,
    generation: u64,
    bytes: Vec<u8>,
    close_after: bool,
}

/// State shared between the reactor, the workers, and [`Server`].
struct Shared {
    backend: Arc<dyn QueryBackend>,
    registry: Arc<obs::Registry>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_depth: usize,
    /// Singleflight table: key → connections waiting on the in-flight
    /// execution. Presence of a key means a job is queued or running.
    inflight: Mutex<HashMap<QueryKey, Vec<Waiter>>>,
    completions: Mutex<Vec<Completion>>,
    /// Wakes the reactor when completions are pushed or shutdown begins.
    wakeup: EventFd,
    shutdown: AtomicBool,
    /// Graceful-drain phase: stop accepting, finish in-flight work.
    draining: AtomicBool,
    /// Set once drain reaches quiescence (no queued, running, or
    /// undelivered work); polled by [`Server::shutdown_graceful`].
    drained: AtomicBool,
    /// Cooperative kill switch threaded into every query's
    /// [`CancelToken`]; set when the drain grace budget runs low so
    /// running scans abort at their next chunk boundary.
    force_cancel: Arc<AtomicBool>,
    /// Workers that have exited; the reactor's teardown waits for all of
    /// them so completions pushed by a finishing worker are still
    /// delivered (generation-checked) instead of racing the teardown.
    workers_done: AtomicUsize,
    worker_count: usize,
    config: ServerConfig,
    /// Serving-critical signals, always-on even under `obs-off` (the
    /// concurrency suite synchronizes on them, and operators need them
    /// regardless of the metrics feature) — same pattern as aqua's cache
    /// counters. Folded into every snapshot via `set_counter`.
    shed: AtomicU64,
    coalesced: AtomicU64,
    served: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    reaped_read: AtomicU64,
    reaped_write: AtomicU64,
    reaped_idle: AtomicU64,
    reaped_accept: AtomicU64,
    /// Live fault injector (feature `chaos`).
    #[cfg(feature = "chaos")]
    chaos: Option<chaos::Chaos>,
}

impl Shared {
    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        if obs::ENABLED {
            self.registry.counter(&obs::label(name, labels)).inc();
        }
    }

    /// The server-side snapshot: registry metrics plus the always-on
    /// serving counters and the live queue depth.
    fn server_snapshot(&self) -> obs::Snapshot {
        let mut snap = self.registry.snapshot();
        snap.set_counter("server_shed_total", self.shed.load(Ordering::Relaxed));
        snap.set_counter(
            "server_coalesced_total",
            self.coalesced.load(Ordering::Relaxed),
        );
        snap.set_counter("server_served_total", self.served.load(Ordering::Relaxed));
        snap.set_counter(
            "server_timeouts_total",
            self.timeouts.load(Ordering::Relaxed),
        );
        snap.set_counter(
            "server_worker_panics_total",
            self.panics.load(Ordering::Relaxed),
        );
        for (reason, counter) in [
            ("read", &self.reaped_read),
            ("write", &self.reaped_write),
            ("idle", &self.reaped_idle),
            ("accept", &self.reaped_accept),
        ] {
            snap.set_counter(
                &obs::label("server_conns_reaped_total", &[("reason", reason)]),
                counter.load(Ordering::Relaxed),
            );
        }
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.chaos {
            snap.set_counter("server_chaos_injected_total", chaos.injected_total());
        }
        snap.set_gauge("server_queue_depth", lock_recover(&self.queue).len() as i64);
        snap
    }

    fn reaped_total(&self) -> u64 {
        self.reaped_read.load(Ordering::Relaxed)
            + self.reaped_write.load(Ordering::Relaxed)
            + self.reaped_idle.load(Ordering::Relaxed)
            + self.reaped_accept.load(Ordering::Relaxed)
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst)
    }
}

/// What a graceful shutdown accomplished — the CLI logs this as the
/// shutdown summary.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Successful (200) query responses delivered over the server's life.
    pub served: u64,
    /// Requests shed with 503 (queue full, drain, or connection cap).
    pub shed: u64,
    /// Requests answered 504 (deadline expired or drain force-cancel).
    pub timed_out: u64,
    /// Worker panics caught and converted to 500s.
    pub panics: u64,
    /// Connections reaped by read/write/idle timeouts or the accept cap.
    pub reaped: u64,
    /// Wall-clock milliseconds the drain took.
    pub drain_ms: u64,
    /// True when every in-flight request completed (none force-cancelled,
    /// no completions dropped) and the backend flush succeeded.
    pub clean: bool,
}

/// A running server: reactor + workers bound to a local address. Dropping
/// it (or calling [`Server::shutdown`]) stops every thread and closes
/// every connection.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `backend` per `config`.
    pub fn bind(config: ServerConfig, backend: Arc<dyn QueryBackend>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let worker_count = if config.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        #[cfg(feature = "chaos")]
        let chaos = config.chaos.map(chaos::Chaos::new);
        let shared = Arc::new(Shared {
            backend,
            registry: Arc::new(obs::Registry::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            inflight: Mutex::new(HashMap::new()),
            completions: Mutex::new(Vec::new()),
            wakeup: EventFd::new()?,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            force_cancel: Arc::new(AtomicBool::new(false)),
            workers_done: AtomicUsize::new(0),
            worker_count,
            config,
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            served: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            reaped_read: AtomicU64::new(0),
            reaped_write: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            reaped_accept: AtomicU64::new(0),
            #[cfg(feature = "chaos")]
            chaos,
        });

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("query-worker-{i}"))
                    .spawn(move || {
                        // Respawn-in-place: a panic that escapes the
                        // per-job catch (bookkeeping, rendering) restarts
                        // the loop instead of silently shrinking the pool.
                        loop {
                            if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_ok() {
                                break; // normal shutdown exit
                            }
                            shared.panics.fetch_add(1, Ordering::Relaxed);
                        }
                        shared.workers_done.fetch_add(1, Ordering::SeqCst);
                        shared.wakeup.notify();
                    })?,
            );
        }

        let reactor_shared = Arc::clone(&shared);
        let reactor = thread::Builder::new()
            .name("reactor".into())
            .spawn(move || {
                if let Err(e) = reactor_loop(listener, &reactor_shared) {
                    // Nothing to do but note it; bind errors already
                    // surfaced synchronously.
                    eprintln!("server reactor exited: {e}");
                }
            })?;

        Ok(Server {
            addr,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-side metrics registry (per-endpoint request counters,
    /// connection counts) — also merged into `/stats` and `/metrics`
    /// responses.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.shared.registry
    }

    /// Snapshot of the server-side metrics: the registry plus the
    /// always-on shed/coalesce counters and live queue depth, which are
    /// meaningful on both obs feature legs.
    pub fn snapshot(&self) -> obs::Snapshot {
        self.shared.server_snapshot()
    }

    /// Stop accepting, close every connection, and join all threads.
    /// In-flight queries run to completion but their responses may be
    /// dropped; use [`Server::shutdown_graceful`] to deliver them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Graceful drain: stop accepting, let in-flight and queued queries
    /// finish (with their responses delivered) for 75% of the configured
    /// grace period, force-cancel stragglers (they answer 504) for the
    /// rest, flush the backend, then tear everything down.
    pub fn shutdown_graceful(mut self) -> DrainReport {
        let start = Instant::now();
        let grace = Duration::from_millis(self.shared.config.drain_grace_ms.max(1));
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify();

        let soft = grace.mul_f64(0.75);
        while start.elapsed() < soft && !self.shared.drained.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(2));
        }
        let forced = !self.shared.drained.load(Ordering::SeqCst);
        if forced {
            // Out of patience: running scans abort at their next chunk
            // boundary and answer 504; those responses still get the
            // remaining 25% of the grace budget to flush out.
            self.shared.force_cancel.store(true, Ordering::SeqCst);
            self.shared.queue_cv.notify_all();
            while start.elapsed() < grace && !self.shared.drained.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(2));
            }
        }
        let drained = self.shared.drained.load(Ordering::SeqCst);
        let flushed = self.shared.backend.flush();
        if let Err(e) = &flushed {
            eprintln!("server: backend flush failed during drain: {e}");
        }
        self.stop();
        DrainReport {
            served: self.shared.served.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            timed_out: self.shared.timeouts.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
            reaped: self.shared.reaped_total(),
            drain_ms: start.elapsed().as_millis() as u64,
            clean: drained && !forced && flushed.is_ok(),
        }
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        self.shared.wakeup.notify();
        // Workers first: they drain the remaining queue and push their
        // final completions. The reactor's teardown then delivers those
        // (generation-checked) before closing — joining the reactor first
        // used to race completions against freed connections.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.wakeup.notify();
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let (relation, sql) = (&job.key.0, &job.key.1);
        // Execution admission: a job whose deadline passed while it sat in
        // the queue is answered 504 without touching the backend.
        let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
        let (status, body) = if expired {
            (
                504,
                json::render_error_status(
                    "deadline expired before execution started",
                    504,
                    Some(RETRY_AFTER_MS),
                ),
            )
        } else {
            let mut token = CancelToken::with_flag(Arc::clone(&shared.force_cancel));
            if let Some(d) = job.deadline {
                token = token.and_deadline(d);
            }
            // Panic isolation: a panicking backend costs this request a
            // 500, not the worker thread (and not the waiters — they are
            // removed and answered below either way).
            match catch_unwind(AssertUnwindSafe(|| {
                shared.backend.answer_sql(relation.as_deref(), sql, &token)
            })) {
                Ok(Ok(served)) => (200, json::render_answer(&served)),
                Ok(Err(e)) => {
                    let status = e.status();
                    let retry = (status == 503 || status == 504).then_some(RETRY_AFTER_MS);
                    (
                        status,
                        json::render_error_status(e.message(), status, retry),
                    )
                }
                Err(_) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    (
                        500,
                        json::render_error_status(
                            "query execution panicked; the worker recovered",
                            500,
                            None,
                        ),
                    )
                }
            }
        };
        if status == 504 {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let waiters = lock_recover(&shared.inflight)
            .remove(&job.key)
            .unwrap_or_default();
        if status == 200 {
            shared
                .served
                .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        }
        let retry_headers: &[(&str, &str)] = if status == 503 || status == 504 {
            &[("Retry-After", RETRY_AFTER_SECS)]
        } else {
            &[]
        };
        let status_str = status.to_string();
        {
            let mut completions = lock_recover(&shared.completions);
            for w in &waiters {
                completions.push(Completion {
                    fd: w.fd,
                    generation: w.generation,
                    bytes: http::response_with(
                        status,
                        "application/json",
                        body.as_bytes(),
                        w.keep_alive,
                        retry_headers,
                    ),
                    close_after: !w.keep_alive,
                });
            }
        }
        if obs::ENABLED {
            for _ in &waiters {
                shared.count(
                    "server_requests_total",
                    &[("endpoint", "/query"), ("status", &status_str)],
                );
            }
        }
        shared.wakeup.notify();
    }
}

// ---------------------------------------------------------------------
// Reactor side
// ---------------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

struct Conn {
    stream: TcpStream,
    generation: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// A `/query` is in flight; parsing is paused so responses stay in
    /// request order.
    busy: bool,
    close_after_flush: bool,
    /// Events currently registered with epoll.
    interest: u32,
    /// When this connection should be reaped (None while a query is in
    /// flight — the job's own deadline governs then). The source of
    /// truth; timer-wheel entries are hints validated against it.
    timeout_at: Option<Instant>,
    /// Earliest pending wheel entry for this connection, so refreshing a
    /// deadline (every keep-alive request) doesn't flood the wheel.
    scheduled_at: Option<Instant>,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

struct Reactor<'a> {
    epoll: Epoll,
    listener: TcpListener,
    shared: &'a Shared,
    conns: HashMap<i32, Conn>,
    next_generation: u64,
    wheel: TimerWheel,
    /// Local mirror of `Shared::draining`, set once on the transition.
    draining: bool,
}

/// Wheel tick: a tenth of the shortest enabled timeout, clamped to
/// [10ms, 1s]. Coarse is fine — timeouts are hygiene, not scheduling.
fn timer_tick(config: &ServerConfig) -> Duration {
    let min_ms = [
        config.read_timeout_ms,
        config.write_timeout_ms,
        config.idle_timeout_ms,
    ]
    .into_iter()
    .filter(|&ms| ms > 0)
    .min()
    .unwrap_or(10_000);
    Duration::from_millis((min_ms / 10).clamp(10, 1000))
}

fn reactor_loop(listener: TcpListener, shared: &Shared) -> io::Result<()> {
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(shared.wakeup.raw_fd(), EPOLLIN, TOKEN_WAKEUP)?;
    let tick = timer_tick(&shared.config);
    let mut r = Reactor {
        epoll,
        listener,
        shared,
        conns: HashMap::new(),
        next_generation: 0,
        wheel: TimerWheel::new(tick, 256),
        draining: false,
    };
    let mut events = [EpollEvent { events: 0, data: 0 }; 256];
    loop {
        // Block until I/O, the next timer tick, or (while draining) a
        // short poll so quiescence is noticed promptly.
        let timeout_ms = if r.draining {
            10
        } else {
            r.wheel.poll_timeout_ms(-1)
        };
        let n = r.epoll.wait(&mut events, timeout_ms)?;
        if shared.shutdown.load(Ordering::SeqCst) {
            r.teardown();
            return Ok(());
        }
        if !r.draining && shared.is_draining() {
            r.enter_drain();
        }
        for ev in &events[..n] {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => r.accept_ready(),
                TOKEN_WAKEUP => {
                    shared.wakeup.drain();
                    r.drain_completions();
                }
                fd => {
                    let fd = fd as i32;
                    if bits & (EPOLLERR | EPOLLHUP) != 0 {
                        r.close(fd);
                        continue;
                    }
                    if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                        r.readable(fd);
                    }
                    if bits & EPOLLOUT != 0 {
                        r.writable(fd);
                    }
                }
            }
        }
        r.sweep_timeouts();
        if r.draining {
            r.check_quiescent();
        }
    }
}

impl Reactor<'_> {
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _peer)) => {
                    // Hard cap: shed at accept time with a synchronous
                    // best-effort 503 instead of tracking a connection we
                    // have no capacity for.
                    let cap = self.shared.config.max_connections;
                    if cap > 0 && self.conns.len() >= cap {
                        let _ = stream.write(&error_response(
                            503,
                            "connection limit reached, retry later",
                            false,
                        ));
                        self.shared.reaped_accept.fetch_add(1, Ordering::Relaxed);
                        self.shared.shed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let generation = self.next_generation;
                    self.next_generation += 1;
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(fd, interest, fd as u64).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        fd,
                        Conn {
                            stream,
                            generation,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            busy: false,
                            close_after_flush: false,
                            interest,
                            timeout_at: None,
                            scheduled_at: None,
                        },
                    );
                    self.refresh_timeout(fd);
                    if obs::ENABLED {
                        self.shared
                            .registry
                            .counter("server_connections_total")
                            .inc();
                        self.shared
                            .registry
                            .gauge("server_connections_active")
                            .add(1);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Recompute the connection's reap deadline from its state and make
    /// sure a wheel entry covers it. The wheel is advisory (entries are
    /// validated against `timeout_at` on expiry), so skipping a reschedule
    /// when an earlier entry is already pending is safe and keeps wheel
    /// growth to O(connections), not O(requests).
    fn refresh_timeout(&mut self, fd: i32) {
        let config = &self.shared.config;
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let ms = if conn.busy {
            0 // the in-flight job's deadline governs
        } else if conn.pending_write() {
            config.write_timeout_ms
        } else if !conn.read_buf.is_empty() {
            config.read_timeout_ms
        } else {
            config.idle_timeout_ms
        };
        let at = (ms > 0).then(|| Instant::now() + Duration::from_millis(ms));
        conn.timeout_at = at;
        if let Some(at) = at {
            if conn.scheduled_at.is_none_or(|s| s > at) {
                conn.scheduled_at = Some(at);
                self.wheel.schedule(at, fd, conn.generation);
            }
        }
    }

    /// Reap connections whose deadline has genuinely passed; revalidate
    /// and reschedule wheel entries whose deadline moved.
    fn sweep_timeouts(&mut self) {
        if self.wheel.is_empty() {
            return;
        }
        let now = Instant::now();
        for (fd, generation) in self.wheel.expired(now) {
            let reap = {
                let Some(conn) = self.conns.get_mut(&fd) else {
                    continue; // closed since scheduling
                };
                if conn.generation != generation {
                    continue; // fd reused by a newer connection
                }
                conn.scheduled_at = None;
                match conn.timeout_at {
                    Some(t) if t <= now => {
                        let counter = if conn.pending_write() {
                            &self.shared.reaped_write
                        } else if !conn.read_buf.is_empty() {
                            &self.shared.reaped_read
                        } else {
                            &self.shared.reaped_idle
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                    Some(t) => {
                        // Deadline moved (activity since scheduling):
                        // re-arm for the new one.
                        conn.scheduled_at = Some(t);
                        self.wheel.schedule(t, fd, generation);
                        false
                    }
                    None => false, // busy: job deadline governs
                }
            };
            if reap {
                self.close(fd);
            }
        }
    }

    /// One-time transition into drain. The listener stays registered:
    /// accepting keeps `/healthz` probeable (a load balancer needs to
    /// *observe* `ready:false` to move traffic) and turns would-be
    /// queries into fast 503s instead of connections hanging in the
    /// backlog. New *work* is refused; every response says
    /// `Connection: close`, so established clients peel off on their own.
    fn enter_drain(&mut self) {
        self.draining = true;
    }

    /// Declare quiescence once no work is queued, running, undelivered,
    /// or unflushed. Idle connections don't block quiescence — drain is
    /// about work, not sockets (teardown closes them). `Conn::busy`
    /// covers the worker's window between removing a job from `inflight`
    /// and pushing its completions.
    fn check_quiescent(&mut self) {
        if self.shared.drained.load(Ordering::SeqCst) {
            return;
        }
        let quiescent = self.conns.values().all(|c| !c.busy && !c.pending_write())
            && lock_recover(&self.shared.queue).is_empty()
            && lock_recover(&self.shared.inflight).is_empty()
            && lock_recover(&self.shared.completions).is_empty();
        if quiescent {
            self.shared.drained.store(true, Ordering::SeqCst);
        }
    }

    /// Bounded post-shutdown teardown: keep delivering completions
    /// (generation-checked) until every worker has exited and the
    /// completion list is empty, then best-effort flush and drop all
    /// connections. This is what makes `Server::shutdown` race-free: a
    /// worker finishing mid-teardown still gets its response out.
    fn teardown(&mut self) {
        let start = Instant::now();
        let mut events = [EpollEvent { events: 0, data: 0 }; 16];
        loop {
            self.shared.wakeup.drain();
            self.drain_completions();
            let workers_done =
                self.shared.workers_done.load(Ordering::SeqCst) >= self.shared.worker_count;
            if (workers_done && lock_recover(&self.shared.completions).is_empty())
                || start.elapsed() > Duration::from_secs(1)
            {
                break;
            }
            let _ = self.epoll.wait(&mut events, 5);
        }
        let fds: Vec<i32> = self.conns.keys().copied().collect();
        for fd in fds {
            self.flush(fd);
        }
    }

    fn close(&mut self, fd: i32) {
        if let Some(conn) = self.conns.remove(&fd) {
            let _ = self.epoll.delete(fd);
            drop(conn); // closes the socket
            if obs::ENABLED {
                self.shared
                    .registry
                    .gauge("server_connections_active")
                    .add(-1);
            }
        }
    }

    fn readable(&mut self, fd: i32) {
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            let mut chunk = [0u8; 16 * 1024];
            loop {
                // Chaos (test builds): shrink this read to one byte or
                // pretend EINTR. Level-triggered epoll re-reports unread
                // data, so both are pure delay, never loss.
                #[cfg(feature = "chaos")]
                let limit = match self.shared.chaos.as_ref().map(|c| c.on_read()) {
                    Some(chaos::Action::Eintr) => break,
                    Some(chaos::Action::Partial) => 1,
                    _ => chunk.len(),
                };
                #[cfg(not(feature = "chaos"))]
                let limit = chunk.len();
                match conn.stream.read(&mut chunk[..limit]) {
                    Ok(0) => {
                        should_close = true;
                        break;
                    }
                    Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
        }
        if should_close {
            self.close(fd);
            return;
        }
        self.process_requests(fd);
    }

    /// Parse and dispatch as many complete requests as the ordering rule
    /// allows (stop while a query response is pending).
    fn process_requests(&mut self, fd: i32) {
        loop {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            if conn.busy || conn.close_after_flush || conn.read_buf.is_empty() {
                break;
            }
            match http::parse(&conn.read_buf) {
                http::Parse::Complete { request, consumed } => {
                    conn.read_buf.drain(..consumed);
                    self.dispatch(fd, request);
                }
                http::Parse::Partial => break,
                http::Parse::Error { status, reason } => {
                    let body = json::render_error(reason);
                    let resp = http::response(status, "application/json", body.as_bytes(), false);
                    conn.read_buf.clear();
                    conn.close_after_flush = true;
                    self.shared.count(
                        "server_requests_total",
                        &[("endpoint", "malformed"), ("status", &status.to_string())],
                    );
                    self.enqueue_write(fd, &resp);
                    break;
                }
            }
        }
        self.flush(fd);
    }

    fn dispatch(&mut self, fd: i32, request: http::Request) {
        let endpoint = request.path.clone();
        // During drain every response says `Connection: close` so
        // keep-alive clients move on instead of idling into the reaper.
        let keep_alive = request.keep_alive && !self.draining;
        let (status, content_type, body) = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                // Liveness vs readiness: the process is alive (it
                // answered), but a draining server must fail load
                // balancer readiness probes so traffic moves elsewhere.
                let ready = !self.draining && !self.shared.is_draining();
                (
                    if ready { 200 } else { 503 },
                    "application/json",
                    format!("{{\"live\":true,\"ready\":{ready}}}"),
                )
            }
            ("GET", "/stats") => {
                let mut snap = self.shared.backend.stats();
                snap.merge(&self.shared.server_snapshot());
                (200, "application/json", snap.to_json())
            }
            ("GET", "/metrics") => {
                let mut snap = self.shared.backend.stats();
                snap.merge(&self.shared.server_snapshot());
                (200, "text/plain; version=0.0.4", snap.to_prometheus())
            }
            ("POST", "/query") => {
                self.dispatch_query(fd, &request);
                return;
            }
            ("GET", "/query") => (
                405,
                "application/json",
                json::render_error("use POST for /query"),
            ),
            _ => (
                404,
                "application/json",
                json::render_error("no such endpoint"),
            ),
        };
        self.shared.count(
            "server_requests_total",
            &[("endpoint", &endpoint), ("status", &status.to_string())],
        );
        if status == 200 {
            self.shared.served.fetch_add(1, Ordering::Relaxed);
        }
        let resp = http::response(status, content_type, body.as_bytes(), keep_alive);
        if !keep_alive {
            if let Some(conn) = self.conns.get_mut(&fd) {
                conn.close_after_flush = true;
            }
        }
        self.enqueue_write(fd, &resp);
    }

    /// `/query`: extract SQL, coalesce with identical in-flight work or
    /// enqueue a job, shedding when the queue is full or the server is
    /// draining.
    fn dispatch_query(&mut self, fd: i32, request: &http::Request) {
        if self.draining || self.shared.is_draining() {
            self.shed_query(fd, "server is draining, not accepting new queries", false);
            return;
        }
        let parsed = parse_query_body(&request.body);
        let (relation, sql) = match parsed {
            Ok(rs) => rs,
            Err(msg) => {
                self.shared.count(
                    "server_requests_total",
                    &[("endpoint", "/query"), ("status", "400")],
                );
                let resp = error_response(400, &msg, request.keep_alive);
                self.enqueue_write(fd, &resp);
                return;
            }
        };
        // Effective deadline: the request's `x-deadline-ms` override, else
        // the server default (0 = none). Converted to an absolute instant
        // here so queue wait counts against it.
        let deadline_ms = request.deadline_ms.or_else(|| {
            (self.shared.config.deadline_ms > 0).then_some(self.shared.config.deadline_ms)
        });
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        // Coalescing key = the plan cache's key, so "identical" here means
        // identical after case/whitespace/literal normalization.
        let key: QueryKey = (relation, engine::sql::normalize(&sql).unwrap_or(sql));
        let generation = match self.conns.get(&fd) {
            Some(c) => c.generation,
            None => return,
        };
        let waiter = Waiter {
            fd,
            generation,
            keep_alive: request.keep_alive,
        };
        let mut inflight = lock_recover(&self.shared.inflight);
        if let Some(waiters) = inflight.get_mut(&key) {
            // Followers adopt the in-flight leader's deadline; their own
            // is moot since they share its execution.
            waiters.push(waiter);
            drop(inflight);
            self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
        } else {
            let mut queue = lock_recover(&self.shared.queue);
            if queue.len() >= self.shared.queue_depth {
                drop(queue);
                drop(inflight);
                self.shed_query(fd, "server overloaded, retry later", request.keep_alive);
                return;
            }
            inflight.insert(key.clone(), vec![waiter]);
            queue.push_back(Job { key, deadline });
            drop(queue);
            drop(inflight);
            self.shared.queue_cv.notify_one();
        }
        if let Some(conn) = self.conns.get_mut(&fd) {
            conn.busy = true;
        }
    }

    /// Answer a `/query` with a 503 (Retry-After header + structured
    /// body). `keep_alive: false` also closes the connection after the
    /// flush (the drain path always does).
    fn shed_query(&mut self, fd: i32, message: &str, keep_alive: bool) {
        self.shared.shed.fetch_add(1, Ordering::Relaxed);
        self.shared.count(
            "server_requests_total",
            &[("endpoint", "/query"), ("status", "503")],
        );
        let resp = error_response(503, message, keep_alive);
        if !keep_alive {
            if let Some(conn) = self.conns.get_mut(&fd) {
                conn.close_after_flush = true;
            }
        }
        self.enqueue_write(fd, &resp);
    }

    fn drain_completions(&mut self) {
        let completions = std::mem::take(&mut *lock_recover(&self.shared.completions));
        for c in completions {
            let Some(conn) = self.conns.get_mut(&c.fd) else {
                continue; // connection closed while the query ran
            };
            if conn.generation != c.generation {
                continue; // fd reused by a newer connection
            }
            conn.busy = false;
            if c.close_after {
                conn.close_after_flush = true;
            }
            conn.write_buf.extend_from_slice(&c.bytes);
            // The response is queued; pipelined requests may now proceed.
            self.process_requests(c.fd);
        }
    }

    fn enqueue_write(&mut self, fd: i32, bytes: &[u8]) {
        if let Some(conn) = self.conns.get_mut(&fd) {
            conn.write_buf.extend_from_slice(bytes);
        }
    }

    fn writable(&mut self, fd: i32) {
        self.flush(fd);
    }

    /// Write as much buffered response data as the socket accepts, then
    /// reconcile epoll interest (EPOLLOUT iff bytes remain) and close if a
    /// `Connection: close` response finished flushing.
    fn flush(&mut self, fd: i32) {
        let mut should_close = false;
        {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            while conn.pending_write() {
                // Chaos (test builds): shrink this write to one byte or
                // pretend EINTR; EPOLLOUT interest resumes it either way.
                #[cfg(feature = "chaos")]
                let end = match self.shared.chaos.as_ref().map(|c| c.on_write()) {
                    Some(chaos::Action::Eintr) => break,
                    Some(chaos::Action::Partial) => conn.write_pos + 1,
                    _ => conn.write_buf.len(),
                };
                #[cfg(not(feature = "chaos"))]
                let end = conn.write_buf.len();
                match conn.stream.write(&conn.write_buf[conn.write_pos..end]) {
                    Ok(0) => {
                        should_close = true;
                        break;
                    }
                    Ok(n) => conn.write_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        should_close = true;
                        break;
                    }
                }
            }
            if !should_close && !conn.pending_write() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.close_after_flush {
                    should_close = true;
                }
            }
            if !should_close {
                let want = EPOLLIN | EPOLLRDHUP | if conn.pending_write() { EPOLLOUT } else { 0 };
                if want != conn.interest {
                    conn.interest = want;
                    let _ = self.epoll.modify(fd, want, fd as u64);
                }
            }
        }
        if should_close {
            self.close(fd);
        } else {
            self.refresh_timeout(fd);
        }
    }
}

/// Extract `(relation, sql)` from a `/query` body: either a flat JSON
/// object with a required `sql` field and optional `relation`, or a raw
/// SQL string.
fn parse_query_body(body: &[u8]) -> Result<(Option<String>, String), String> {
    let text = std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("empty request body; send {\"sql\": \"...\"} or raw SQL".into());
    }
    if trimmed.starts_with('{') {
        let mut fields = json::parse_flat_object(trimmed).map_err(|e| format!("bad JSON: {e}"))?;
        let sql = fields
            .remove("sql")
            .ok_or_else(|| "missing \"sql\" field".to_string())?;
        Ok((fields.remove("relation"), sql))
    } else {
        Ok((None, trimmed.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_body_forms() {
        let (rel, sql) = parse_query_body(br#"{"sql": "SELECT 1", "relation": "census"}"#).unwrap();
        assert_eq!(rel.as_deref(), Some("census"));
        assert_eq!(sql, "SELECT 1");
        let (rel, sql) = parse_query_body(b"SELECT state FROM census GROUP BY state").unwrap();
        assert!(rel.is_none());
        assert!(sql.starts_with("SELECT"));
        assert!(parse_query_body(b"").is_err());
        assert!(parse_query_body(br#"{"relation": "census"}"#).is_err());
        assert!(parse_query_body(br#"{"sql": 1}"#).is_err());
    }
}
