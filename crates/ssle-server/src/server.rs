//! The daemon: accept loop, routing, and the worker pool.
//!
//! [`spawn`] binds a `TcpListener`, starts a fixed pool of worker threads
//! (each looping `queue.next_job()` → `LocalService::run_job` →
//! `queue.complete()`), and starts the accept thread. Connections are
//! handled inline on the accept thread: every route is a queue/cache lookup
//! that completes in microseconds — the actual experiment work happens on
//! the workers, never on a request — so a connection never waits behind a
//! running job. Per-connection concurrency limits stay on the roadmap.
//!
//! A worker stores a successful result into the content-addressed cache
//! *before* flipping the record to done, so by the time a poller sees
//! `done` the document is already durable (the disk-persistence test keys
//! on this ordering).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use analysis::table::json_escape;
use analysis::{ExperimentService, JobSpec, JobState, LocalService, ServiceHealth};

use crate::cache::ResultCache;
use crate::http::{self, Request};
use crate::queue::JobQueue;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests rely on this).
    pub addr: String,
    /// Worker pool size; [`spawn`] rejects 0 with [`ServerError::NoWorkers`].
    pub workers: usize,
    /// Result-cache directory; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            cache_dir: None,
        }
    }
}

/// Why the daemon failed to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Binding or inspecting the listener failed.
    Bind(String),
    /// The cache directory could not be prepared.
    Cache(String),
    /// The configuration asks for no workers, so no job would ever run.
    NoWorkers,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Bind(why) => write!(f, "cannot bind listener: {why}"),
            ServerError::Cache(why) => write!(f, "cannot prepare result cache: {why}"),
            ServerError::NoWorkers => write!(f, "the worker pool needs at least one worker"),
        }
    }
}

impl std::error::Error for ServerError {}

struct Shared {
    queue: JobQueue,
    cache: ResultCache,
    workers: u64,
    stopping: AtomicBool,
}

/// A running daemon: its bound address plus the thread handles needed to
/// stop it. Dropping the handle without calling [`ServerHandle::shutdown`]
/// leaves the daemon running for the rest of the process (which is what the
/// binary wants, via [`ServerHandle::join`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A direct (no-HTTP) health snapshot, for in-process assertions.
    pub fn health(&self) -> ServiceHealth {
        self.shared.queue.health(self.shared.workers)
    }

    /// Stops accepting, drains the workers, and joins every thread. Jobs
    /// still pending are abandoned; the one a worker is mid-flight on
    /// finishes first.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.shutdown();
        // The accept thread is parked in accept(2); a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Blocks on the accept thread forever — daemon mode.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the daemon described by `config`.
pub fn spawn(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    if config.workers == 0 {
        return Err(ServerError::NoWorkers);
    }
    let cache = match &config.cache_dir {
        Some(dir) => ResultCache::with_dir(dir).map_err(|e| ServerError::Cache(e.to_string()))?,
        None => ResultCache::in_memory(),
    };
    let listener = TcpListener::bind(&config.addr).map_err(|e| ServerError::Bind(e.to_string()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServerError::Bind(e.to_string()))?;
    let shared = Arc::new(Shared {
        queue: JobQueue::new(),
        cache,
        workers: config.workers as u64,
        stopping: AtomicBool::new(false),
    });
    let workers = (0..config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        Some(std::thread::spawn(move || accept_loop(&listener, &shared)))
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept,
        workers,
    })
}

fn worker_loop(shared: &Shared) {
    let service = LocalService;
    while let Some((key, spec)) = shared.queue.next_job() {
        let outcome = service.run_job(&spec).map_err(|e| e.to_string());
        if let Ok(document) = &outcome {
            // A cache-write failure degrades persistence, not correctness:
            // the job still completes from memory.
            let _ = shared.cache.store(&key, document);
        }
        shared.queue.complete(&key, outcome);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(mut stream) = stream {
            handle_connection(&mut stream, shared);
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let (status, body) = match http::read_request(stream) {
        Err(error) => (400, error_json(&error.to_string())),
        Ok(request) => route(&request, shared),
    };
    let _ = http::write_response(stream, status, &body);
}

/// Dispatches one parsed request to its route, returning status + body.
fn route(request: &Request, shared: &Shared) -> (u16, String) {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/jobs") => submit_route(&request.body, shared),
        ("GET", "/healthz") => (200, shared.queue.health(shared.workers).to_json()),
        ("GET", target) if target.strip_prefix("/jobs/").is_some_and(|r| !r.is_empty()) => {
            // Checked non-empty in the guard; default is unreachable.
            let rest = target.strip_prefix("/jobs/").unwrap_or_default();
            match rest.strip_suffix("/result") {
                Some(key) => result_route(key, shared),
                None => status_route(rest, shared),
            }
        }
        (_, "/jobs" | "/healthz") => (405, error_json("method not allowed on this route")),
        _ => (404, error_json("no such route")),
    }
}

fn submit_route(body: &str, shared: &Shared) -> (u16, String) {
    let spec = match JobSpec::parse_json(body).and_then(|spec| spec.validate().map(|()| spec)) {
        Ok(spec) => spec,
        Err(error) => return (400, error_json(&error.to_string())),
    };
    let status = shared.queue.submit(spec, &shared.cache);
    let code = if status.state == JobState::Queued {
        202
    } else {
        200
    };
    (code, status.to_json())
}

fn status_route(key: &str, shared: &Shared) -> (u16, String) {
    match shared.queue.status(key) {
        Some(status) => (200, status.to_json()),
        None => (404, error_json("no such job")),
    }
}

fn result_route(key: &str, shared: &Shared) -> (u16, String) {
    let Some(record) = shared.queue.record(key) else {
        return (404, error_json("no such job"));
    };
    match record.state {
        JobState::Done => match record.result {
            Some(document) => (200, document),
            None => (500, error_json("done without a result document")),
        },
        JobState::Failed => (
            500,
            error_json(record.error.as_deref().unwrap_or("job failed")),
        ),
        JobState::Queued | JobState::Running => {
            // Not an error: the poll answer, on the result endpoint.
            match shared.queue.status(key) {
                Some(status) => (202, status.to_json()),
                None => (404, error_json("no such job")),
            }
        }
    }
}

/// The error body shape every non-2xx response uses.
pub fn error_json(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json_escape(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::Scale;
    use std::io::{Read, Write};

    fn start() -> ServerHandle {
        spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_dir: None,
        })
        .unwrap()
    }

    /// One raw round-trip against a live server (no client crate here —
    /// this exercises the server alone).
    fn raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn spawn_rejects_an_empty_worker_pool() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache_dir: None,
        };
        assert_eq!(spawn(config).err(), Some(ServerError::NoWorkers));
    }

    #[test]
    fn healthz_and_routing_respond_over_a_real_socket() {
        let server = start();
        let addr = server.addr();
        let health = raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"workers\":1"), "{health}");

        let missing = raw(
            addr,
            "GET /jobs/feedfacefeedface HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");

        let wrong_method = raw(addr, "DELETE /jobs HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(wrong_method.starts_with("HTTP/1.1 405 "), "{wrong_method}");

        let nonsense = raw(addr, "GET /teapot HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(nonsense.starts_with("HTTP/1.1 404 "), "{nonsense}");

        let garbage = raw(addr, "POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\nnop");
        assert!(garbage.starts_with("HTTP/1.1 400 "), "{garbage}");
        server.shutdown();
    }

    #[test]
    fn submit_executes_and_serves_the_result() {
        let server = start();
        let addr = server.addr();
        let spec = JobSpec::new("sweep", Scale::Tiny);
        let body = spec.canonical_json();
        let submit = raw(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(
            submit.starts_with("HTTP/1.1 202 ") || submit.starts_with("HTTP/1.1 200 "),
            "{submit}"
        );
        assert!(submit.contains(&spec.cache_key()), "{submit}");
        // Poll until done (bounded by attempts, not wall-clock reads).
        let mut done = false;
        for _ in 0..600 {
            let poll = raw(
                addr,
                &format!("GET /jobs/{} HTTP/1.1\r\nHost: t\r\n\r\n", spec.cache_key()),
            );
            if poll.contains("\"state\":\"done\"") {
                done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(done, "sweep tiny did not finish");
        let result = raw(
            addr,
            &format!(
                "GET /jobs/{}/result HTTP/1.1\r\nHost: t\r\n\r\n",
                spec.cache_key()
            ),
        );
        assert!(result.starts_with("HTTP/1.1 200 OK\r\n"), "{result}");
        assert!(result.contains("\"title\""), "{result}");
        server.shutdown();
    }

    #[test]
    fn invalid_specs_are_rejected_with_400() {
        let server = start();
        let body = "{\"experiment\":\"e42\",\"scale\":\"tiny\"}";
        let response = raw(
            server.addr(),
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("unknown experiment"), "{response}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_work_pending() {
        let server = start();
        // Leave a job queued so shutdown has something to abandon.
        let spec = JobSpec::new("sweep", Scale::Tiny).seed(424242);
        let body = spec.canonical_json();
        let _ = raw(
            server.addr(),
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        server.shutdown();
    }
}
