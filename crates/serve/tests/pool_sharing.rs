//! Width-sharing regression test: a burst of concurrent `/solve` requests
//! must all be clamped onto the ONE width the server fixed at startup,
//! `/healthz` must report that width, and `GET /healthz` must answer
//! during load without blocking behind in-flight solves.

use std::time::{Duration, Instant};

use parallel_ri::registry;
use ri_core::engine::json::Value;
use ri_core::engine::{RunConfig, ServeRequest, ServeResponse, WorkloadSpec};
use ri_serve::http;
use ri_serve::{ServeConfig, Server};

const POOL_WIDTH: usize = 3;

#[test]
fn concurrent_solves_share_one_pool_and_healthz_stays_responsive() {
    let server = Server::start(
        registry(),
        ServeConfig {
            threads: POOL_WIDTH,
            executors: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();
    assert_eq!(server.pool_width(), POOL_WIDTH);

    // Phase 1: a burst of concurrent parallel solves across problems,
    // with client-requested thread counts that differ from the server's
    // width — the server must clamp every one of them onto it.
    let names = registry().names();
    let responses: Vec<http::HttpResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let names = &names;
                s.spawn(move || {
                    let mut request = ServeRequest::new(names[i % names.len()]);
                    request.workload = WorkloadSpec::new(256, 4);
                    // Deliberately ask for widths 1..=12.
                    request.config = RunConfig::new().seed(1).parallel().threads(i + 1);
                    http::request(
                        addr,
                        "POST",
                        "/solve",
                        Some(&request.to_json()),
                        Duration::from_secs(120),
                    )
                    .expect("transport")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for resp in &responses {
        assert_eq!(resp.status, 200, "{}", resp.body);
        let served = ServeResponse::from_json(&resp.body).expect("parseable");
        assert_eq!(
            served.config.threads,
            Some(POOL_WIDTH),
            "server must clamp requested widths onto its one width"
        );
    }

    // Phase 2: /healthz during load. Saturate both executors with slower
    // solves, then health-check mid-flight: it must answer promptly (it
    // is served by the connection thread from atomics, not the solve
    // queue) and report the queue counters.
    let in_flight = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let mut request = ServeRequest::new("delaunay");
                    request.workload = WorkloadSpec::new(6_000, 8);
                    request.config = RunConfig::new().parallel();
                    http::request(
                        addr,
                        "POST",
                        "/solve",
                        Some(&request.to_json()),
                        Duration::from_secs(180),
                    )
                    .expect("transport")
                })
            })
            .collect();

        // Give the burst a moment to be admitted, then health-check
        // while solves are (very likely still) running.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let health = http::request(addr, "GET", "/healthz", None, Duration::from_secs(5))
            .expect("healthz during load");
        let elapsed = t0.elapsed();
        assert_eq!(health.status, 200);
        assert!(
            elapsed < Duration::from_secs(3),
            "healthz took {elapsed:?} — it must not wait behind solves"
        );
        let doc = ri_core::engine::json::parse(&health.body).expect("healthz JSON");
        for key in ["queue_depth", "inflight", "served"] {
            assert!(
                doc.get(key).and_then(Value::as_usize).is_some(),
                "healthz missing `{key}`: {}",
                health.body
            );
        }
        assert_eq!(
            doc.get("pool_threads").and_then(Value::as_usize),
            Some(POOL_WIDTH),
            "healthz must report the server's width: {}",
            health.body
        );

        let solves: Vec<http::HttpResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        solves
    });
    for resp in &in_flight {
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    server.shutdown();
}
