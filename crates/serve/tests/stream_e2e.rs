//! End-to-end streaming tests: boot `ri-serve` in-process and drive the
//! `/stream` lifecycle over real TCP — open / batch / inspect / close,
//! final-answer equality with one-shot `/solve`, admission and TTL
//! eviction, health counters, structured errors, and panic isolation.

use std::time::Duration;

use parallel_ri::registry;
use ri_core::engine::json::{self, Value};
use ri_core::engine::registry::{ErasedIncremental, ErasedProblem, OutputSummary};
use ri_core::engine::session::BatchDelta;
use ri_core::engine::{
    Registry, RunConfig, RunReport, ServeError, ServeErrorKind, ServeRequest, ServeResponse,
    WorkloadSpec,
};
use ri_serve::http;
use ri_serve::{ServeConfig, Server};

const POOL_WIDTH: usize = 2;

fn start_server(cfg_mut: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig {
        threads: POOL_WIDTH,
        executors: 2,
        ..ServeConfig::default()
    };
    cfg_mut(&mut cfg);
    Server::start(registry(), cfg).expect("server starts")
}

fn request(server: &Server, method: &str, path: &str, body: Option<&str>) -> http::HttpResponse {
    http::request(
        server.local_addr(),
        method,
        path,
        body,
        Duration::from_secs(120),
    )
    .expect("transport round-trip")
}

fn parse(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("unparseable body `{body}`: {e}"))
}

fn health_num(server: &Server, key: &str) -> f64 {
    let health = parse(&request(server, "GET", "/healthz", None).body);
    health
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("healthz missing `{key}`"))
}

#[test]
fn stream_lifecycle_matches_one_shot_solve() {
    let server = start_server(|_| {});
    let open_body =
        r#"{"problem":"sort","workload":{"n":48,"seed":7},"config":{"seed":3,"mode":"parallel"}}"#;
    let opened = request(&server, "POST", "/stream", Some(open_body));
    assert_eq!(opened.status, 200, "{}", opened.body);
    let info = parse(&opened.body);
    let id = info.get("session").unwrap().as_str().unwrap().to_string();
    assert_eq!(info.get("capacity"), Some(&Value::Num(48.0)));
    assert_eq!(info.get("native"), Some(&Value::Bool(true)));
    assert_eq!(health_num(&server, "sessions_open"), 1.0);

    // Three batches; the delta carries batch position + trace each time.
    let mut last = None;
    for (i, count) in [16, 16, 16].into_iter().enumerate() {
        let resp = request(
            &server,
            "POST",
            &format!("/stream/{id}/batch"),
            Some(&format!("{{\"count\":{count}}}")),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = parse(&resp.body);
        assert_eq!(body.get("session").unwrap().as_str(), Some(id.as_str()));
        let delta = BatchDelta::from_value(&body).expect("delta parses");
        assert_eq!(delta.batch, i);
        assert!(!delta.pending);
        assert!(!delta.trace.rounds.is_empty());
        last = Some(delta);
    }
    let last = last.unwrap();
    assert!(last.complete);

    // The final streamed answer equals the one-shot /solve of the same
    // workload + config — batch-split invariance over the wire.
    let mut one_shot = ServeRequest::new("sort");
    one_shot.workload = WorkloadSpec::new(48, 7);
    one_shot.config = RunConfig::new().seed(3).parallel();
    let solved = request(&server, "POST", "/solve", Some(&one_shot.to_json()));
    assert_eq!(solved.status, 200, "{}", solved.body);
    let solved = ServeResponse::from_json(&solved.body).unwrap();
    assert_eq!(
        Value::Obj(last.answer.clone()).write(),
        Value::Obj(solved.summary.answer().to_vec()).write()
    );

    // GET info, then close; the session is gone afterwards.
    let info = parse(&request(&server, "GET", &format!("/stream/{id}"), None).body);
    assert_eq!(info.get("complete"), Some(&Value::Bool(true)));
    assert_eq!(info.get("batches"), Some(&Value::Num(3.0)));
    let closed = request(&server, "DELETE", &format!("/stream/{id}"), None);
    assert_eq!(closed.status, 200);
    assert_eq!(health_num(&server, "sessions_open"), 0.0);
    assert_eq!(health_num(&server, "sessions_closed"), 1.0);
    assert_eq!(health_num(&server, "batches_served"), 3.0);
    let gone = request(
        &server,
        "POST",
        &format!("/stream/{id}/batch"),
        Some(r#"{"count":1}"#),
    );
    assert_eq!(gone.status, 404, "{}", gone.body);
    server.shutdown();
}

#[test]
fn session_admission_and_ttl_eviction() {
    // Admission: one session slot; the second open is a retryable 503.
    let server = start_server(|cfg| cfg.max_sessions = 1);
    let open = r#"{"problem":"sort","workload":{"n":16,"seed":1}}"#;
    assert_eq!(request(&server, "POST", "/stream", Some(open)).status, 200);
    let full = request(&server, "POST", "/stream", Some(open));
    assert_eq!(full.status, 503, "{}", full.body);
    let err = parse(&full.body);
    assert_eq!(
        err.get("error").unwrap().get("retryable"),
        Some(&Value::Bool(true)),
        "another shard may have room: {}",
        full.body
    );
    server.shutdown();

    // TTL: an idle session is evicted by a later request's sweep.
    let server = start_server(|cfg| cfg.session_ttl_ms = 60);
    let opened = parse(&request(&server, "POST", "/stream", Some(open)).body);
    let id = opened.get("session").unwrap().as_str().unwrap().to_string();
    std::thread::sleep(Duration::from_millis(120));
    let batch = request(
        &server,
        "POST",
        &format!("/stream/{id}/batch"),
        Some(r#"{"count":1}"#),
    );
    assert_eq!(batch.status, 404, "evicted: {}", batch.body);
    assert!(health_num(&server, "sessions_evicted") >= 1.0);
    server.shutdown();
}

#[test]
fn stream_errors_are_structured() {
    let server = start_server(|_| {});

    // Unknown problem → 404 envelope at open.
    let resp = request(
        &server,
        "POST",
        "/stream",
        Some(r#"{"problem":"nope","workload":{"n":8}}"#),
    );
    assert_eq!(resp.status, 404, "{}", resp.body);

    // Zero capacity → 400.
    let resp = request(
        &server,
        "POST",
        "/stream",
        Some(r#"{"problem":"sort","workload":{"n":0}}"#),
    );
    assert_eq!(resp.status, 400, "{}", resp.body);

    // Bad batch bodies and overfeeds → 400 with the session intact.
    let opened = parse(
        &request(
            &server,
            "POST",
            "/stream",
            Some(r#"{"problem":"sort","workload":{"n":8,"seed":1}}"#),
        )
        .body,
    );
    let id = opened.get("session").unwrap().as_str().unwrap().to_string();
    let path = format!("/stream/{id}/batch");
    assert_eq!(
        request(&server, "POST", &path, Some(r#"{"count":0}"#)).status,
        400
    );
    assert_eq!(
        request(&server, "POST", &path, Some(r#"{"count":99}"#)).status,
        400
    );
    assert_eq!(
        request(&server, "POST", &path, Some(r#"{"count":8}"#)).status,
        200
    );

    // Method mismatches and bad paths.
    assert_eq!(request(&server, "GET", "/stream", None).status, 405);
    assert_eq!(
        request(&server, "PUT", &format!("/stream/{id}"), None).status,
        405
    );
    assert_eq!(request(&server, "GET", "/stream/", None).status, 404);
    assert_eq!(
        request(&server, "GET", &format!("/stream/{id}/nope"), None).status,
        404,
        "sub-paths other than /batch do not exist"
    );
    server.shutdown();
}

/// A stream adapter that panics in `feed`.
struct PanickingAdapter;

impl ErasedIncremental for PanickingAdapter {
    fn name(&self) -> &str {
        "boom"
    }
    fn capacity(&self) -> usize {
        8
    }
    fn absorbed(&self) -> usize {
        0
    }
    fn native(&self) -> bool {
        true
    }
    fn approx_bytes(&self) -> usize {
        64
    }
    fn feed(&mut self, _count: usize, _cfg: &RunConfig) -> Result<(BatchDelta, RunReport), String> {
        panic!("adapter exploded mid-batch");
    }
}

/// A panicking adapter costs its own session, never the shard: the batch
/// is answered `500 internal`, the session is evicted, and the only
/// connection slot comes back. A panic the session store does not catch
/// (here: in the adapter's constructor) is answered `500` by the server
/// skeleton, with the slot likewise released.
#[test]
fn panicking_adapter_evicts_its_session_with_a_500() {
    struct Stub;
    impl ErasedProblem for Stub {
        fn name(&self) -> &str {
            "boom"
        }
        fn solve_erased(&self, _cfg: &RunConfig) -> (OutputSummary, RunReport) {
            (OutputSummary::new(), RunReport::new("boom"))
        }
    }
    let mut reg = Registry::new();
    reg.register("boom", "panics when streamed", |_| Ok(Box::new(Stub)));
    reg.register_incremental("boom", |spec| {
        assert!(spec.seed != 666, "constructor exploded");
        Ok(Box::new(PanickingAdapter))
    });
    let server = Server::start(
        reg,
        ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let internal = |resp: &http::HttpResponse| {
        assert_eq!(resp.status, 500, "{}", resp.body);
        let err = ServeError::from_json(&resp.body).expect("structured 500");
        assert_eq!(err.kind, ServeErrorKind::Internal);
        assert!(!err.retryable);
    };

    let opened = request(
        &server,
        "POST",
        "/stream",
        Some(r#"{"session_id":"b1","problem":"boom","workload":{"n":8,"seed":1}}"#),
    );
    assert_eq!(opened.status, 200, "{}", opened.body);

    let batch = request(&server, "POST", "/stream/b1/batch", Some(r#"{"count":4}"#));
    internal(&batch);
    assert!(batch.body.contains("adapter exploded"), "{}", batch.body);
    assert_eq!(request(&server, "GET", "/stream/b1", None).status, 404);
    assert_eq!(request(&server, "GET", "/healthz", None).status, 200);
    assert_eq!(health_num(&server, "sessions_evicted"), 1.0);
    assert_eq!(health_num(&server, "sessions_open"), 0.0);

    let open_panics = request(
        &server,
        "POST",
        "/stream",
        Some(r#"{"problem":"boom","workload":{"n":8,"seed":666}}"#),
    );
    internal(&open_panics);
    assert!(open_panics.body.contains("constructor exploded"));
    assert_eq!(open_panics.header("connection"), Some("close"));
    assert_eq!(request(&server, "GET", "/healthz", None).status, 200);
    server.shutdown();
}
