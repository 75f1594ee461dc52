//! Golden test for the shared-port HTTP surface: `/healthz`, 404s, and
//! a `/metrics` scrape whose body must be byte-identical to
//! [`rlwe_obs::render`].
//!
//! One sequential test function on purpose: the registry is process
//! global, so concurrent tests in this binary would race the golden
//! byte comparison. Separate test *files* are separate processes and
//! stay isolated.

use rlwe_server::http::METRICS_CONTENT_TYPE;
use rlwe_server::{http_get, serve, ServerConfig};
use std::time::{Duration, Instant};

/// Polls until `cond` holds or a generous deadline passes.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn http_surface_serves_health_notfound_and_a_golden_metrics_body() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        seed: [9u8; 32],
        ..ServerConfig::default()
    };
    let handle = serve(config).unwrap();
    let addr = handle.local_addr();

    // --- /healthz ---
    let health = http_get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    // --- unknown path ---
    let missing = http_get(addr, "/nope").unwrap();
    assert_eq!(missing.status, 404);

    // --- non-GET ---
    // http_get only speaks GET; drive a POST by hand.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.0 405 "), "got: {text}");
    }

    // Let the prior connections' close accounting settle so the gauge
    // values in the scrape below are quiescent.
    let metrics = handle.metrics();
    wait_for("prior connections to close", || {
        metrics.active_connections() == 0
    });

    // --- /metrics: golden byte comparison ---
    // The scrape connection releases its own accounting before
    // rendering, so on a quiet server the served body must be
    // byte-identical to a render() taken after the scrape.
    let scrape = http_get(addr, "/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    assert_eq!(
        scrape.header("Content-Type"),
        Some(METRICS_CONTENT_TYPE),
        "Prometheus text exposition content type"
    );
    assert_eq!(
        scrape.header("Content-Length"),
        Some(scrape.body.len().to_string().as_str())
    );
    wait_for("scrape connection to close", || {
        metrics.active_connections() == 0
    });
    let local = rlwe_obs::render();
    assert_eq!(
        String::from_utf8_lossy(&scrape.body),
        local,
        "served /metrics body drifted from rlwe_obs::render()"
    );

    // The body carries the server's own series, engine series, and the
    // scrapes we just made.
    let body = String::from_utf8_lossy(&scrape.body);
    for series in [
        "rlwe_server_connections_accepted_total",
        "rlwe_server_connections_active",
        "rlwe_server_worker_threads",
        "rlwe_server_http_requests_total",
    ] {
        assert!(body.contains(series), "missing series {series}");
    }
    assert!(
        body.contains(r#"rlwe_server_http_requests_total{path="/healthz"} 1"#),
        "healthz scrape not counted: {body}"
    );
    // The path counter increments before the method check, so the 405
    // POST above also counted toward /metrics: POST + this GET = 2.
    assert!(
        body.contains(r#"rlwe_server_http_requests_total{path="/metrics"} 2"#),
        "metrics requests not counted"
    );
    assert!(
        body.contains(r#"rlwe_server_http_requests_total{path="other"} 1"#),
        "404 path not counted as other"
    );

    handle.shutdown();
}
