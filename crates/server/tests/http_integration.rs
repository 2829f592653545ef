//! End-to-end tests through real sockets: an ephemeral-port server,
//! plain `std::net::TcpStream` clients, and assertions on status codes,
//! bodies, metrics, keep-alive, coalescing, and load shedding.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use aqua::{AnswerProvenance, ApproximateAnswer, Aqua, AquaConfig, SamplingStrategy, ServedAnswer};
use engine::{CancelToken, QueryResult};
use relation::{DataType, RelationBuilder, Value};
use server::{BackendError, QueryBackend, Server, ServerConfig};

// -----------------------------------------------------------------
// Minimal blocking HTTP client
// -----------------------------------------------------------------

struct Client {
    stream: TcpStream,
}

struct Response {
    status: u16,
    body: String,
    keep_alive: bool,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client { stream }
    }

    fn send_raw(&mut self, raw: &[u8]) {
        self.stream.write_all(raw).expect("write request");
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> Response {
        let body = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send_raw(raw.as_bytes());
        self.read_response()
    }

    /// Read exactly one response (head + `Content-Length` body).
    fn read_response(&mut self) -> Response {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed mid-response: {buf:?}");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        let mut keep_alive = true;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.trim().eq_ignore_ascii_case("close");
            }
        }
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        Response {
            status,
            body: String::from_utf8(body).unwrap(),
            keep_alive,
        }
    }
}

fn query_once(addr: SocketAddr, sql: &str) -> Response {
    let mut c = Client::connect(addr);
    c.request(
        "POST",
        "/query",
        Some(&format!("{{\"sql\": \"{}\"}}", sql.replace('"', "\\\""))),
    )
}

// -----------------------------------------------------------------
// Backends
// -----------------------------------------------------------------

fn census_aqua() -> Arc<Aqua> {
    let mut b = RelationBuilder::new()
        .column("state", DataType::Str)
        .column("income", DataType::Float);
    for i in 0..400i64 {
        let st = match i % 10 {
            0 => "WY",
            1..=3 => "NY",
            _ => "CA",
        };
        b.push_row(&[Value::str(st), Value::from(1000.0 + i as f64)])
            .unwrap();
    }
    let config = AquaConfig {
        space: 120,
        strategy: SamplingStrategy::Congress,
        ..AquaConfig::default()
    };
    let grouping = vec![relation::ColumnId(0)];
    Arc::new(Aqua::build(b.finish(), grouping, config).unwrap())
}

/// A backend that parks every `/query` until `release()` — makes queue
/// overflow deterministic instead of a timing race.
struct BlockingBackend {
    entered: AtomicUsize,
    gate: Mutex<bool>,
    cv: Condvar,
}

impl BlockingBackend {
    fn new() -> Arc<BlockingBackend> {
        Arc::new(BlockingBackend {
            entered: AtomicUsize::new(0),
            gate: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_entered(&self, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(
                std::time::Instant::now() < deadline,
                "backend never saw {n} queries"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl QueryBackend for BlockingBackend {
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
        drop(released);
        Ok(Arc::new(ServedAnswer {
            answer: ApproximateAnswer {
                result: QueryResult::new(vec![sql.to_string()], Vec::new()),
                bounds: Vec::new(),
                confidence: 0.95,
                provenance: AnswerProvenance::Sampled,
            },
            rewritten: String::new(),
        }))
    }

    fn stats(&self) -> obs::Snapshot {
        obs::Registry::new().snapshot()
    }
}

// -----------------------------------------------------------------
// Tests
// -----------------------------------------------------------------

#[test]
fn happy_path_and_keep_alive() {
    let server = Server::bind(ServerConfig::default(), census_aqua()).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    let r = c.request("GET", "/healthz", None);
    assert_eq!(
        (r.status, r.body.as_str()),
        (200, r#"{"live":true,"ready":true}"#)
    );
    assert!(r.keep_alive);

    // Same connection serves a query next — keep-alive works.
    let r = c.request(
        "POST",
        "/query",
        Some(r#"{"sql": "SELECT state, AVG(income) AS a FROM census GROUP BY state"}"#),
    );
    assert_eq!(r.status, 200, "body: {}", r.body);
    assert!(r.body.contains("\"provenance\":\"sampled\""));
    assert!(r.body.contains("\"aggregates\":[\"a\"]"));
    assert!(r.body.contains("\"rewritten\":\"SELECT"));
    assert!(r.body.contains("CA") && r.body.contains("NY") && r.body.contains("WY"));
    assert!(r.body.contains("\"bounds\":["));

    // Raw SQL body (no JSON wrapper) works too.
    let r = c.request(
        "POST",
        "/query",
        Some("SELECT state, COUNT(*) AS c FROM census GROUP BY state"),
    );
    assert_eq!(r.status, 200, "body: {}", r.body);

    server.shutdown();
}

#[test]
fn concurrent_clients_agree() {
    let server = Server::bind(ServerConfig::default(), census_aqua()).unwrap();
    let addr = server.local_addr();
    let sql = "SELECT state, SUM(income) AS s FROM census GROUP BY state";

    let baseline = query_once(addr, sql);
    assert_eq!(baseline.status, 200);

    let handles: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                let mut results = Vec::new();
                for _ in 0..10 {
                    // Vary spelling: equivalent queries must coalesce to
                    // identical answers through normalization.
                    let spelled = if i % 2 == 0 {
                        sql.to_string()
                    } else {
                        sql.to_lowercase().replace("sum", "SUM")
                    };
                    results.push(query_once(addr, &spelled));
                }
                results
            })
        })
        .collect();
    for h in handles {
        for r in h.join().unwrap() {
            assert_eq!(r.status, 200, "body: {}", r.body);
            assert_eq!(r.body, baseline.body, "answers must be bit-identical");
        }
    }
    server.shutdown();
}

#[test]
fn malformed_sql_and_bad_requests() {
    let server = Server::bind(ServerConfig::default(), census_aqua()).unwrap();
    let addr = server.local_addr();

    let r = query_once(addr, "SELEKT nope");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"error\":"), "body: {}", r.body);

    let r = query_once(addr, "SELECT bogus_col FROM census GROUP BY bogus_col");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"error\":"));

    let mut c = Client::connect(addr);
    let r = c.request("POST", "/query", Some(r#"{"relation": "census"}"#));
    assert_eq!(r.status, 400);
    assert!(r.body.contains("missing \\\"sql\\\"") || r.body.contains("missing"));

    let mut c = Client::connect(addr);
    let r = c.request("GET", "/nope", None);
    assert_eq!(r.status, 404);
    let r = c.request("GET", "/query", None);
    assert_eq!(r.status, 405);

    // Malformed HTTP gets an error response and a closed connection.
    let mut c = Client::connect(addr);
    c.send_raw(b"NOT AN HTTP REQUEST AT ALL\r\n\r\n");
    let r = c.read_response();
    assert_eq!(r.status, 400);
    assert!(!r.keep_alive);

    server.shutdown();
}

#[test]
fn load_shedding_returns_503_and_coalescing_bypasses_it() {
    let backend = BlockingBackend::new();
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Arc::clone(&backend) as Arc<dyn QueryBackend>).unwrap();
    let addr = server.local_addr();

    // First query: dequeued by the single worker, which parks in the
    // backend. Queue is now empty.
    let first = thread::spawn(move || query_once(addr, "SELECT a"));
    backend.wait_entered(1);

    // Second (distinct) query fills the depth-1 queue.
    let second = thread::spawn(move || query_once(addr, "SELECT b"));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.snapshot().gauge("server_queue_depth") < 1 {
        assert!(std::time::Instant::now() < deadline, "job never queued");
        thread::sleep(Duration::from_millis(5));
    }

    // Third distinct query: queue full, shed immediately with 503.
    let shed = query_once(addr, "SELECT c");
    assert_eq!(shed.status, 503);
    assert!(shed.body.contains("overloaded"));

    // An *identical* in-flight query coalesces instead of shedding.
    let coalesced = thread::spawn(move || query_once(addr, "SELECT a"));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.snapshot().counter("server_coalesced_total") < 1 {
        assert!(std::time::Instant::now() < deadline, "never coalesced");
        thread::sleep(Duration::from_millis(5));
    }

    backend.release();
    let r1 = first.join().unwrap();
    let r2 = second.join().unwrap();
    let r3 = coalesced.join().unwrap();
    assert_eq!((r1.status, r2.status, r3.status), (200, 200, 200));
    // The coalesced answer is the same execution's output.
    assert_eq!(r1.body, r3.body);
    // The worker ran exactly twice: "SELECT a" (shared) and "SELECT b".
    assert_eq!(backend.entered.load(Ordering::SeqCst), 2);

    let snap = server.snapshot();
    assert_eq!(snap.counter("server_shed_total"), 1);
    assert_eq!(snap.counter("server_coalesced_total"), 1);
    server.shutdown();
}

#[test]
fn stats_and_metrics_endpoints() {
    let aqua = census_aqua();
    let server = Server::bind(ServerConfig::default(), aqua.clone()).unwrap();
    let addr = server.local_addr();

    // Three good queries (two identical) and one malformed.
    let sql = "SELECT state, COUNT(*) AS c FROM census GROUP BY state";
    // One ground-truth scan beside them, as an accuracy monitor would run.
    aqua.exact_sql(sql).unwrap();
    assert_eq!(query_once(addr, sql).status, 200);
    assert_eq!(query_once(addr, sql).status, 200);
    assert_eq!(
        query_once(
            addr,
            "SELECT state, SUM(income) AS s FROM census GROUP BY state"
        )
        .status,
        200
    );
    assert_eq!(query_once(addr, "SELEKT").status, 400);

    let mut c = Client::connect(addr);
    let stats = c.request("GET", "/stats", None);
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"counters\""));
    // Inside the JSON body the label quotes are escaped. Per-endpoint
    // request counters ride the obs registry, so they only exist when
    // metrics are compiled in.
    if obs::ENABLED {
        assert!(
            stats
                .body
                .contains("server_requests_total{endpoint=\\\"/query\\\",status=\\\"200\\\"}"),
            "stats body missing per-endpoint counter: {}",
            stats.body
        );
    }
    // The backend's plan/answer-cache counters surface through /stats.
    assert!(stats.body.contains("aqua_plan_cache_hits_total"));
    assert!(stats.body.contains("aqua_answer_cache_hits_total"));

    let metrics = c.request("GET", "/metrics", None);
    assert_eq!(metrics.status, 200);

    // Prometheus exposition parses: every non-comment line is
    // `name{labels} value` or `name value` with a numeric value.
    let mut seen = std::collections::HashMap::new();
    for line in metrics.body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric metric value: {line}"
        );
        seen.insert(name.to_string(), value.to_string());
    }
    if obs::ENABLED {
        assert_eq!(
            seen.get("server_requests_total{endpoint=\"/query\",status=\"200\"}")
                .map(String::as_str),
            Some("3"),
            "per-endpoint success counter"
        );
        assert_eq!(
            seen.get("server_requests_total{endpoint=\"/query\",status=\"400\"}")
                .map(String::as_str),
            Some("1"),
            "per-endpoint error counter"
        );
        // Two distinct texts reached the synopsis; the repeat hit the
        // answer cache and skipped the bounds pass.
        assert_eq!(
            seen.get("aqua_bounds_latency_us_count").map(String::as_str),
            Some("2"),
            "bounds-pass histogram"
        );
        // The exact scan is its own span, not an answered query.
        assert_eq!(seen["aqua_exact_queries_total"], "1");
        assert_eq!(seen["aqua_exact_latency_us_count"], "1");
    }
    // The always-on serving signals are present on both feature legs.
    assert_eq!(seen.get("server_shed_total").map(String::as_str), Some("0"));
    // Two identical queries → the second hit the answer cache.
    assert!(seen.contains_key("aqua_answer_cache_hits_total"));
    assert_eq!(seen["aqua_answer_cache_hits_total"], "1");
    // The workload profile feeding the adaptive tuner is visible to
    // scrapers: the three answered queries (including the cache hit) were
    // profiled, independent of the obs feature.
    assert_eq!(
        seen.get("aqua_profile_queries").map(String::as_str),
        Some("3")
    );
    assert!(seen.contains_key("aqua_profile_groupings"));

    server.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let server = Server::bind(ServerConfig::default(), census_aqua()).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr);
    c.send_raw(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let r = c.read_response();
    assert_eq!(r.status, 200);
    assert!(!r.keep_alive);
    // Server closes: next read returns EOF.
    let mut buf = [0u8; 16];
    assert_eq!(c.stream.read(&mut buf).unwrap_or(0), 0);

    server.shutdown();
}
