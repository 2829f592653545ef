//! Fault-tolerance integration tests: deadlines and cooperative
//! cancellation, worker panic isolation, connection hygiene (timeouts,
//! caps), graceful drain, and the shutdown/completion teardown race.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aqua::{
    AnswerProvenance, ApproximateAnswer, Aqua, AquaConfig, Request, SamplingStrategy, ServedAnswer,
};
use engine::{CancelToken, QueryResult};
use relation::{DataType, RelationBuilder, Value};
use server::{BackendError, QueryBackend, Server, ServerConfig};

// -----------------------------------------------------------------
// Harness (trimmed copy of http_integration's client)
// -----------------------------------------------------------------

struct Response {
    status: u16,
    body: String,
    keep_alive: bool,
    retry_after: Option<String>,
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut retry_after = None;
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().unwrap();
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = Some(value.to_string());
        }
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Response {
        status,
        body: String::from_utf8(body).unwrap(),
        keep_alive,
        retry_after,
    }
}

fn send_query(stream: &mut TcpStream, sql: &str, deadline_ms: Option<u64>) {
    let body = format!("{{\"sql\": \"{}\"}}", sql.replace('"', "\\\""));
    let deadline = deadline_ms
        .map(|ms| format!("x-deadline-ms: {ms}\r\n"))
        .unwrap_or_default();
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\n{deadline}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("write request");
}

fn query(addr: SocketAddr, sql: &str, deadline_ms: Option<u64>) -> Response {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    send_query(&mut s, sql, deadline_ms);
    read_response(&mut s)
}

fn get(stream: &mut TcpStream, path: &str) -> Response {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    read_response(stream)
}

fn census_aqua() -> Arc<Aqua> {
    let mut b = RelationBuilder::new()
        .column("state", DataType::Str)
        .column("income", DataType::Float);
    for i in 0..300i64 {
        let st = if i % 3 == 0 { "NY" } else { "CA" };
        b.push_row(&[Value::str(st), Value::from(1000.0 + i as f64)])
            .unwrap();
    }
    let config = AquaConfig {
        space: 90,
        strategy: SamplingStrategy::Congress,
        ..AquaConfig::default()
    };
    Arc::new(Aqua::build(b.finish(), vec![relation::ColumnId(0)], config).unwrap())
}

fn dummy_answer(sql: &str) -> Arc<ServedAnswer> {
    Arc::new(ServedAnswer {
        answer: ApproximateAnswer {
            result: QueryResult::new(vec![sql.to_string()], Vec::new()),
            bounds: Vec::new(),
            confidence: 0.95,
            provenance: AnswerProvenance::Sampled,
        },
        rewritten: String::new(),
    })
}

/// Spins until its cancel token fires (a stalled scan that cooperates),
/// then reports the timeout the way a cancelled engine scan would.
struct StallBackend {
    entered: AtomicUsize,
}

impl QueryBackend for StallBackend {
    fn answer_sql(
        &self,
        _relation: Option<&str>,
        sql: &str,
        cancel: &CancelToken,
    ) -> Result<Arc<ServedAnswer>, BackendError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let give_up = Instant::now() + Duration::from_secs(20);
        while !cancel.is_cancelled() {
            if Instant::now() > give_up {
                return Ok(dummy_answer(sql)); // test bug guard: don't hang
            }
            thread::sleep(Duration::from_millis(1));
        }
        Err(BackendError::Timeout("query cancelled mid-scan".into()))
    }

    fn stats(&self) -> obs::Snapshot {
        obs::Registry::new().snapshot()
    }
}

/// Panics on any SQL containing "boom"; answers everything else.
struct PanicBackend;

impl QueryBackend for PanicBackend {
    fn answer_sql(
        &self,
        _relation: Option<&str>,
        sql: &str,
        _cancel: &CancelToken,
    ) -> Result<Arc<ServedAnswer>, BackendError> {
        if sql.contains("boom") {
            panic!("injected backend panic");
        }
        Ok(dummy_answer(sql))
    }

    fn stats(&self) -> obs::Snapshot {
        obs::Registry::new().snapshot()
    }
}

/// Parks queries on a gate (like http_integration's BlockingBackend) but
/// also records flush calls, for drain tests.
struct GateBackend {
    entered: AtomicUsize,
    gate: Mutex<bool>,
    cv: Condvar,
    flushed: AtomicBool,
}

impl GateBackend {
    fn new() -> Arc<GateBackend> {
        Arc::new(GateBackend {
            entered: AtomicUsize::new(0),
            gate: Mutex::new(false),
            cv: Condvar::new(),
            flushed: AtomicBool::new(false),
        })
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "backend never saw {n} queries");
            thread::sleep(Duration::from_millis(2));
        }
    }
}

impl QueryBackend for GateBackend {
    fn answer_sql(
        &self,
        _relation: Option<&str>,
        sql: &str,
        _cancel: &CancelToken,
    ) -> Result<Arc<ServedAnswer>, BackendError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut released = self.gate.lock().unwrap();
        while !*released {
            released = self.cv.wait(released).unwrap();
        }
        Ok(dummy_answer(sql))
    }

    fn stats(&self) -> obs::Snapshot {
        obs::Registry::new().snapshot()
    }

    fn flush(&self) -> Result<(), String> {
        self.flushed.store(true, Ordering::SeqCst);
        Ok(())
    }
}

// -----------------------------------------------------------------
// Deadlines
// -----------------------------------------------------------------

#[test]
fn deadline_cancels_stalled_scan_with_504() {
    let backend = Arc::new(StallBackend {
        entered: AtomicUsize::new(0),
    });
    let server = Server::bind(
        ServerConfig::default(),
        Arc::clone(&backend) as Arc<dyn QueryBackend>,
    )
    .unwrap();
    let addr = server.local_addr();

    let deadline_ms = 50u64;
    let start = Instant::now();
    let r = query(addr, "SELECT stall", Some(deadline_ms));
    let elapsed = start.elapsed();
    assert_eq!(r.status, 504, "body: {}", r.body);
    // Acceptance bound: the 504 arrives well before 2x the deadline
    // (scheduling slack allowed on loaded CI boxes).
    assert!(
        elapsed < Duration::from_millis(deadline_ms * 2 + 500),
        "504 took {elapsed:?} for a {deadline_ms}ms deadline"
    );
    // Retryable errors carry both the header and the body hint.
    assert_eq!(r.retry_after.as_deref(), Some("1"));
    assert!(r.body.contains("\"retry_after_ms\":"), "body: {}", r.body);
    assert!(r.body.contains("\"status\":504"));
    assert_eq!(backend.entered.load(Ordering::SeqCst), 1);

    let snap = server.snapshot();
    assert_eq!(snap.counter("server_timeouts_total"), 1);
    server.shutdown();
}

#[test]
fn server_default_deadline_applies_without_header() {
    let backend = Arc::new(StallBackend {
        entered: AtomicUsize::new(0),
    });
    let config = ServerConfig {
        deadline_ms: 50,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, backend as Arc<dyn QueryBackend>).unwrap();
    let r = query(server.local_addr(), "SELECT stall", None);
    assert_eq!(r.status, 504, "body: {}", r.body);
    server.shutdown();
}

#[test]
fn expired_queue_wait_rejected_before_execution() {
    // One worker parked on the gate; a second query with a tiny deadline
    // queues behind it long enough to expire, and must be 504'd without
    // ever reaching the backend.
    let backend = GateBackend::new();
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&backend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    let first = thread::spawn(move || query(addr, "SELECT hold", None));
    backend.wait_entered(1);

    let second = thread::spawn(move || query(addr, "SELECT expires", Some(30)));
    thread::sleep(Duration::from_millis(120)); // let the deadline lapse in queue
    backend.release();

    assert_eq!(first.join().unwrap().status, 200);
    let r = second.join().unwrap();
    assert_eq!(r.status, 504, "body: {}", r.body);
    assert!(r.body.contains("before execution"), "body: {}", r.body);
    // The expired job never reached the backend.
    assert_eq!(backend.entered.load(Ordering::SeqCst), 1);
    server.shutdown();
}

#[test]
fn cancelled_aqua_scan_counts_in_metrics() {
    // Engine-level check of the acceptance criterion's counter: a
    // deadline that has already passed cancels the scan at its first
    // chunk boundary and increments aqua_scan_cancelled_total.
    let aqua = census_aqua();
    let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    let err = aqua
        .run(&Request {
            cancel: Some(&expired),
            ..Request::sql("SELECT state, COUNT(*) AS c FROM census GROUP BY state")
        })
        .expect_err("expired deadline must cancel");
    assert!(matches!(
        err,
        aqua::AquaError::Engine(engine::EngineError::Cancelled)
    ));
    // Counter only exists when metrics are compiled in (obs-off leg
    // still exercises the cancellation itself above).
    if obs::ENABLED {
        assert_eq!(aqua.stats().counter("aqua_scan_cancelled_total"), 1);
    }

    // The same query without a token still answers (cancellation leaves
    // no residue in the caches).
    assert!(aqua
        .answer_sql_shared("SELECT state, COUNT(*) AS c FROM census GROUP BY state")
        .is_ok());
}

// -----------------------------------------------------------------
// Panic isolation
// -----------------------------------------------------------------

#[test]
fn worker_panic_becomes_500_and_worker_survives() {
    let config = ServerConfig {
        workers: 1, // the single worker must survive its own panic
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::new(PanicBackend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    let r = query(addr, "SELECT boom", None);
    assert_eq!(r.status, 500, "body: {}", r.body);
    assert!(r.body.contains("panicked"), "body: {}", r.body);

    // The same (sole) worker keeps serving.
    let r = query(addr, "SELECT fine", None);
    assert_eq!(r.status, 200, "body: {}", r.body);

    let snap = server.snapshot();
    assert_eq!(snap.counter("server_worker_panics_total"), 1);
    server.shutdown();
}

// -----------------------------------------------------------------
// Connection hygiene
// -----------------------------------------------------------------

#[test]
fn slow_loris_and_idle_connections_are_reaped() {
    let config = ServerConfig {
        read_timeout_ms: 100,
        idle_timeout_ms: 100,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, census_aqua()).unwrap();
    let addr = server.local_addr();

    // Slow loris: half a request head, then silence.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"POST /query HTTP/1.1\r\nHost:").unwrap();
    // Idle: connects and never sends a byte.
    let mut idle = TcpStream::connect(addr).unwrap();

    for s in [&mut loris, &mut idle] {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 64];
        // The server must cut the connection (EOF / reset), not hang.
        match s.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("unexpected {n} bytes from a timed-out connection"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("expected EOF or reset, got {e}"),
        }
    }

    let snap = server.snapshot();
    let reaped: u64 = ["read", "idle"]
        .iter()
        .map(|r| snap.counter(&obs::label("server_conns_reaped_total", &[("reason", r)])))
        .sum();
    assert!(
        reaped >= 2,
        "expected both connections reaped, got {reaped}"
    );
    server.shutdown();
}

#[test]
fn connection_cap_sheds_at_accept() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, census_aqua()).unwrap();
    let addr = server.local_addr();

    // Two established connections (verified live with a healthz each).
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(get(&mut a, "/healthz").status, 200);
    assert_eq!(get(&mut b, "/healthz").status, 200);

    // The third is answered 503 at accept time and closed.
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let r = read_response(&mut c);
    assert_eq!(r.status, 503);
    assert!(!r.keep_alive);
    assert_eq!(r.retry_after.as_deref(), Some("1"));
    assert!(r.body.contains("connection limit"), "body: {}", r.body);
    server.shutdown();
}

// -----------------------------------------------------------------
// Graceful drain
// -----------------------------------------------------------------

#[test]
fn graceful_drain_completes_inflight_and_reports_clean() {
    let backend = GateBackend::new();
    let config = ServerConfig {
        workers: 1,
        drain_grace_ms: 10_000,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&backend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    // Baseline answer body for bitwise comparison.
    {
        let b = Arc::clone(&backend);
        thread::spawn(move || {
            b.wait_entered(1);
            b.release();
        });
    }
    let baseline = query(addr, "SELECT drained", None);
    assert_eq!(baseline.status, 200);

    // Re-arm the gate and park an in-flight query.
    *backend.gate.lock().unwrap() = false;
    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_query(&mut inflight, "SELECT drained", None);
    backend.wait_entered(2);

    // A pre-drain keep-alive connection to probe /healthz mid-drain.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(get(&mut probe, "/healthz").status, 200);

    let drainer = thread::spawn(move || server.shutdown_graceful());
    thread::sleep(Duration::from_millis(100)); // let drain begin

    // Readiness flips while the process stays live; drain responses close.
    let h = get(&mut probe, "/healthz");
    assert_eq!(h.status, 503);
    assert!(h.body.contains("\"ready\":false"), "body: {}", h.body);
    assert!(h.body.contains("\"live\":true"));
    assert!(!h.keep_alive);

    // The in-flight query completes with a bit-identical answer.
    backend.release();
    let r = read_response(&mut inflight);
    assert_eq!(r.status, 200);
    assert_eq!(r.body, baseline.body, "drained answer must be identical");

    let report = drainer.join().unwrap();
    assert!(report.clean, "drain should be clean: {report:?}");
    assert!(report.served >= 2);
    assert_eq!(report.timed_out, 0);
    assert!(backend.flushed.load(Ordering::SeqCst), "flush() must run");
}

#[test]
fn drain_rejects_new_queries_with_503() {
    let backend = GateBackend::new();
    let config = ServerConfig {
        workers: 1,
        drain_grace_ms: 10_000,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&backend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_query(&mut inflight, "SELECT hold", None);
    backend.wait_entered(1);

    // Open the probe before drain starts (accepting stops at drain).
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(get(&mut probe, "/healthz").status, 200);

    let drainer = thread::spawn(move || server.shutdown_graceful());
    thread::sleep(Duration::from_millis(100));

    send_query(&mut probe, "SELECT new", None);
    let r = read_response(&mut probe);
    assert_eq!(r.status, 503, "body: {}", r.body);
    assert!(r.body.contains("draining"), "body: {}", r.body);
    assert_eq!(r.retry_after.as_deref(), Some("1"));

    backend.release();
    assert_eq!(read_response(&mut inflight).status, 200);
    let report = drainer.join().unwrap();
    assert!(report.clean, "{report:?}");
}

#[test]
fn drain_force_cancels_stragglers_with_504() {
    // A backend that only yields to cancellation: the soft phase can't
    // finish it, so the drain must force-cancel and still deliver a 504.
    let backend = Arc::new(StallBackend {
        entered: AtomicUsize::new(0),
    });
    let config = ServerConfig {
        workers: 1,
        drain_grace_ms: 400,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&backend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_query(&mut inflight, "SELECT forever", None);
    let deadline = Instant::now() + Duration::from_secs(10);
    while backend.entered.load(Ordering::SeqCst) < 1 {
        assert!(Instant::now() < deadline);
        thread::sleep(Duration::from_millis(2));
    }

    let report = server.shutdown_graceful();
    assert!(!report.clean, "forced drain is not clean: {report:?}");
    assert_eq!(report.timed_out, 1);

    // The straggler still got its 504 before teardown.
    let r = read_response(&mut inflight);
    assert_eq!(r.status, 504, "body: {}", r.body);
}

// -----------------------------------------------------------------
// Teardown race (issue: completions during shutdown)
// -----------------------------------------------------------------

#[test]
fn shutdown_delivers_completions_from_finishing_workers() {
    let backend = GateBackend::new();
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&backend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_query(&mut inflight, "SELECT racing", None);
    backend.wait_entered(1);

    // Shutdown while the worker is mid-query; release the gate after the
    // teardown has begun. The worker's completion must still be delivered
    // (generation-checked) instead of racing the reactor's exit.
    let stopper = thread::spawn(move || server.shutdown());
    thread::sleep(Duration::from_millis(50));
    backend.release();
    stopper.join().unwrap();

    let r = read_response(&mut inflight);
    assert_eq!(r.status, 200, "body: {}", r.body);
}
