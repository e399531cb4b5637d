//! `ed-serve` — a fail-closed attack-assessment service over the
//! economic-dispatch stack.
//!
//! Zero external dependencies: std `TcpListener` for transport, the
//! in-tree [`queue::BoundedQueue`] for admission control, and the
//! `ed-core` resilient/certified solvers for the work itself. The design
//! invariants, in decreasing order of importance:
//!
//! 1. **Fail closed.** No dispatch leaves the process unless it passed
//!    the independent [`SafetyGate`](ed_core::dispatch::SafetyGate) (and,
//!    on `/certify`, carries a passing certificate). Every "no" is a
//!    typed JSON refusal with a machine-readable `reason`.
//! 2. **The process never dies on a request.** Handler panics are caught
//!    per request and become typed 500s; a panic that escapes the request
//!    scope kills only that worker thread, and a replacement is spawned.
//! 3. **Overload is explicit.** A bounded queue refuses admission with
//!    `503 Retry-After` when full; deadlines propagate from the
//!    `X-Deadline-Ms` header into the solve budget, and work that cannot
//!    finish in time is refused at admission or shed at dequeue — never
//!    silently half-done.
//! 4. **Shutdown drains.** SIGTERM stops admission, lets workers finish
//!    every queued request, then exits 0.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod signal;

use crate::handlers::{handle_work, AppState, Response, ServerConfig};
use crate::http::{read_request, write_response, Request};
use crate::metrics::{bump, metrics};
use crate::queue::{BoundedQueue, PushError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Socket read/write timeout — bounds how long a slow client can hold a
/// worker or the acceptor.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Cap on the `X-Deadline-Ms` header — a deadline past this is a client
/// bug, not a plan.
const MAX_DEADLINE_MS: u64 = 600_000;

/// One admitted unit of work.
struct Job {
    stream: TcpStream,
    req: Request,
    deadline: Instant,
}

type WorkerRegistry = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// A running service instance.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: WorkerRegistry,
    queue: Arc<BoundedQueue<Job>>,
    /// Shared state, exposed for in-process harnesses (soak, tests).
    pub state: Arc<AppState>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let state = Arc::new(AppState { cache: cache::WarmCache::new(), cfg: cfg.clone() });
        let stop = Arc::new(AtomicBool::new(false));
        let workers: WorkerRegistry = Arc::new(Mutex::new(Vec::new()));

        for i in 0..cfg.workers.max(1) {
            spawn_worker(i, Arc::clone(&state), Arc::clone(&queue), Arc::clone(&workers));
        }

        let acceptor = {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("ed-serve-accept".to_string())
                .spawn(move || accept_loop(listener, state, queue, stop))
                .expect("spawning the acceptor thread")
        };

        Ok(Server { addr, stop, acceptor: Some(acceptor), workers, queue, state })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current queue depth (for harnesses).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Blocks until the acceptor exits (stop flag or OS signal), then
    /// drains: closes the queue, joins every worker (they finish all
    /// queued requests first), and returns the number of requests still
    /// queued at the moment admission stopped.
    pub fn join(mut self) -> usize {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let in_flight = self.queue.len();
        self.queue.close();
        loop {
            let handle = {
                let mut reg = self
                    .workers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                reg.pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        in_flight
    }

    /// Graceful programmatic shutdown: stop admission, drain, join.
    /// Returns the number of requests drained after admission stopped.
    pub fn shutdown(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.join()
    }
}

/// Spawns one supervised worker thread and registers its handle. If the
/// worker body panics (a panic that escaped the per-request catch), the
/// dying thread spawns its own replacement before unwinding finishes —
/// the pool never shrinks while the queue is open.
fn spawn_worker(index: usize, state: Arc<AppState>, queue: Arc<BoundedQueue<Job>>, registry: WorkerRegistry) {
    let reg_for_child = Arc::clone(&registry);
    let handle = thread::Builder::new()
        .name(format!("ed-serve-worker-{index}"))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(&state, &queue)));
            if outcome.is_err() {
                bump(&metrics().workers_replaced);
                if !queue.is_closed() {
                    spawn_worker(index, state, queue, reg_for_child);
                }
            }
        })
        .expect("spawning a worker thread");
    registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(handle);
}

/// Consumes jobs until the queue is closed and drained.
fn worker_loop(state: &AppState, queue: &BoundedQueue<Job>) {
    while let Some(mut job) = queue.pop() {
        // Deadline re-check at dequeue: the client asked for an answer by
        // `deadline`; starting a solve we already know cannot make it is
        // wasted work AND a lie — shed instead.
        let response = if Instant::now() >= job.deadline {
            bump(&metrics().shed_deadline);
            Response {
                status: 503,
                body: "{\"status\":\"shed\",\"reason\":\"deadline_expired_in_queue\",\"detail\":\"deadline passed before a worker was free\"}".to_string(),
                retry_after: Some(1),
                poison_worker: false,
            }
        } else {
            match catch_unwind(AssertUnwindSafe(|| handle_work(state, &job.req, job.deadline))) {
                Ok(resp) => resp,
                Err(payload) => {
                    bump(&metrics().worker_panics);
                    Response {
                        status: 500,
                        body: format!(
                            "{{\"status\":\"error\",\"reason\":\"worker_panicked\",\"detail\":\"{}\"}}",
                            ed_obs::escape(&payload_string(payload.as_ref()))
                        ),
                        retry_after: None,
                        poison_worker: false,
                    }
                }
            }
        };
        let poison = response.poison_worker;
        send_response(&mut job.stream, &response);
        if poison {
            // Deliberate chaos: unwinds out of `worker_loop`, exercising
            // the supervisor's replace-on-death path.
            panic!("chaos: worker killed after responding");
        }
    }
}

fn send_response(stream: &mut TcpStream, response: &Response) {
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = response.retry_after {
        extra.push(("retry-after", secs.to_string()));
    }
    if write_response(stream, response.status, &extra, &response.body).is_err() {
        bump(&metrics().write_failures);
    }
}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Accepts connections, answers control endpoints inline, and admits
/// work to the queue — or refuses with typed backpressure.
fn accept_loop(
    listener: TcpListener,
    state: Arc<AppState>,
    queue: Arc<BoundedQueue<Job>>,
    stop: Arc<AtomicBool>,
) {
    loop {
        if stop.load(Ordering::Relaxed) || signal::shutdown_requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                bump(&metrics().accepted);
                handle_connection(stream, &state, &queue);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<AppState>, queue: &Arc<BoundedQueue<Job>>) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            bump(&metrics().http_errors);
            let body = format!(
                "{{\"status\":\"error\",\"reason\":\"http\",\"detail\":\"{}\"}}",
                ed_obs::escape(&e.to_string())
            );
            if write_response(&mut stream, e.status(), &[], &body).is_err() {
                bump(&metrics().write_failures);
            }
            return;
        }
    };

    // Control endpoints answer inline — they must stay responsive even
    // when the work queue is saturated (that is their whole job).
    if req.method == "GET" {
        match req.path.as_str() {
            "/healthz" => {
                respond_inline(&mut stream, 200, "{\"status\":\"ok\"}".to_string());
                return;
            }
            "/readyz" => {
                let depth = queue.len();
                let capacity = queue.capacity();
                let ready = !queue.is_closed() && depth < capacity;
                let status = if ready { 200 } else { 503 };
                respond_inline(
                    &mut stream,
                    status,
                    format!(
                        "{{\"ready\":{ready},\"queue_depth\":{depth},\"queue_capacity\":{capacity}}}"
                    ),
                );
                return;
            }
            "/atlas" => {
                let resp = handlers::handle_atlas(state);
                respond_inline(&mut stream, resp.status, resp.body);
                return;
            }
            "/metrics" => {
                let trace = if ed_obs::enabled() {
                    ed_obs::snapshot().to_json()
                } else {
                    "null".to_string()
                };
                respond_inline(
                    &mut stream,
                    200,
                    format!(
                        "{{\"service\":{},\"warm_cases\":{},\"trace\":{}}}",
                        metrics().to_json(),
                        state.cache.len(),
                        trace
                    ),
                );
                return;
            }
            _ => {}
        }
    }

    // --- Admission control. ---
    let deadline_ms = match req.header("x-deadline-ms") {
        None => state.cfg.default_deadline_ms,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) if ms <= MAX_DEADLINE_MS => ms,
            _ => {
                bump(&metrics().refused);
                respond_inline(
                    &mut stream,
                    400,
                    format!(
                        "{{\"status\":\"refused\",\"reason\":\"bad_deadline\",\"detail\":\"x-deadline-ms must be an integer in [1, {MAX_DEADLINE_MS}]\"}}"
                    ),
                );
                return;
            }
        },
    };
    // A zero/expired deadline is refused here, before any queueing or
    // solving: admission control does not accept work it cannot finish.
    if deadline_ms == 0 {
        bump(&metrics().refused_deadline_admission);
        bump(&metrics().refused);
        respond_inline(
            &mut stream,
            422,
            "{\"status\":\"refused\",\"reason\":\"deadline_expired_at_admission\",\"detail\":\"deadline of 0 ms cannot admit any work\"}".to_string(),
        );
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);

    match queue.try_push(Job { stream, req, deadline }) {
        Ok(_depth) => bump(&metrics().queued),
        Err(PushError::Full(job)) => {
            bump(&metrics().rejected_queue_full);
            let mut stream = job.stream;
            let extra = [("retry-after", "1".to_string())];
            let body = format!(
                "{{\"status\":\"rejected\",\"reason\":\"queue_full\",\"detail\":\"admission queue at capacity {}\"}}",
                queue.capacity()
            );
            if write_response(&mut stream, 503, &extra, &body).is_err() {
                bump(&metrics().write_failures);
            }
        }
        Err(PushError::Closed(job)) => {
            let mut stream = job.stream;
            let body = "{\"status\":\"rejected\",\"reason\":\"shutting_down\",\"detail\":\"server is draining\"}";
            if write_response(&mut stream, 503, &[], body).is_err() {
                bump(&metrics().write_failures);
            }
        }
    }
}

fn respond_inline(stream: &mut TcpStream, status: u16, body: String) {
    if write_response(stream, status, &[], &body).is_err() {
        bump(&metrics().write_failures);
    }
}
