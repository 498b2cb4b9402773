//! The concurrent analysis service.
//!
//! Architecture (std only — no async runtime):
//!
//! * one event-loop thread owns the nonblocking listener and every open
//!   connection, multiplexed through an epoll [`Poller`] (the server runs
//!   on Linux only): an idle keep-alive connection costs one table entry,
//!   not a thread;
//! * connections are *pipelined*: the loop frames each complete request
//!   line, up to `pipeline_depth` may be in flight per connection (past
//!   that the connection is suspended from the poller — backpressure —
//!   until responses drain), and responses may complete out of order,
//!   paired by the envelope's optional `"id"`;
//! * the loop answers a *plain cache hit* itself: a program request whose
//!   source-memo and result entries are both present, that no shed,
//!   expiry, admission or degrade rule touches, that is not profiled and
//!   whose key this node owns.  It runs the same stage functions as a
//!   worker in lookup-only form (`plain_hit`), counts nothing until it
//!   answers, and writes without blocking; a hit costs no queue hand-off
//!   and no thread switch;
//! * every other line becomes a job in a bounded queue, carrying the
//!   loop's decode of it, and a fixed pool of worker threads runs the
//!   rest: errors, admin kinds, misses and CPU-bound analysis, relays to
//!   peers, degraded and shed answers.  When the job queue is full the
//!   request is *shed* immediately with a structured busy response (the
//!   429 of this protocol) rather than left to time out;
//! * responses go out through each connection's writer, whose lock is
//!   held only across nonblocking writes: bytes the socket does not take
//!   stay as the writer's tail, sent ahead of the next response, and a
//!   tail the loop leaves is sent by a flush job, which is never shed;
//! * with `peers` configured, the node joins a shard tier: each
//!   content-address is looked up on the consistent-hash
//!   [`ring`](crate::ring) and requests owned by another node are
//!   relayed one hop ([`cluster`](crate::cluster)), so the tier's caches
//!   stay coherent and cached bytes stay identical on every node;
//! * a `shutdown` admin request (or the idle timeout) flips one flag:
//!   the event loop stops accepting and reading, workers drain the
//!   queued jobs, and [`serve`] returns.
//!
//! Analysis results flow through the sharded content-addressed
//! [`ResultCache`], so identical requests — concurrent or repeated —
//! simulate once and return bit-identical bytes.  In front of it, a
//! bounded *source memo* maps each raw request's content address to its
//! result-cache key and admission estimate, so a byte-identical repeat
//! skips parsing, validation and pretty-printing (see `key_request`).
//!
//! A request passes through named stages, each with one home that both
//! the worker path (`respond`) and the loop's attempt (`plain_hit`)
//! call: decode, admin, shed, expire, key, admit, degrade, route,
//! lookup/compute and encode.  The stages count nothing themselves; the
//! worker path counts what it answers, and the loop defers anything it
//! would have to refuse.

use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use mbb_core::cache::Cache;
use mbb_ir::budget::Budget;
use mbb_ir::Program;
use mbb_obs::json::Json;

use crate::analysis;
use crate::cache::{self, ResultCache};
use crate::cluster::{Cluster, Route};
use crate::error::{ErrorKind, ServeError};
use crate::faults::{self, Site};
use crate::metrics::Metrics;
use crate::overload::{
    self, Brownout, BrownoutConfig, Class, DegradeAction, Reason, BROWNOUT_BEAM, BROWNOUT_STEPS,
    BROWNOUT_TARGET, CLASS_WEIGHTS,
};
use crate::poll::Poller;
use crate::protocol::{self, Frame, Kind, Request, RequestBudget};
use crate::sync::{lock, wait_timeout};

/// Server configuration (see `mbbc serve` for the CLI spelling).
#[derive(Clone, Debug)]
pub struct Config {
    /// Bind address; port 0 picks a free port (reported via `on_ready`).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Result-cache capacity in bytes (0 disables storage).
    pub cache_bytes: u64,
    /// Parsed requests allowed to wait for a worker before new ones are
    /// shed with a busy response.
    pub queue_depth: usize,
    /// Per-connection quiescence timeout (a connection with no in-flight
    /// requests and no buffered bytes is closed after this long idle) and
    /// per-response write deadline.
    pub read_timeout: Duration,
    /// Exit after this long with no connections and no work (`None` =
    /// serve until a `shutdown` request).
    pub idle_timeout: Option<Duration>,
    /// Step-quota cap per request: the most innermost-loop iterations one
    /// request's analysis may interpret (`None` = unlimited).  A request
    /// envelope's own `budget.max_steps` can tighten this, never loosen
    /// it.  Overruns get a structured `deadline_exceeded` error.
    pub request_max_steps: Option<u64>,
    /// Wall-deadline cap per request, with the same tighten-only
    /// interaction with the envelope's `budget.deadline_ms`.
    pub request_deadline: Option<Duration>,
    /// Brown-out controller: under sustained pressure, progressively drop
    /// profile splicing, clamp search width/depth, and shed the lowest
    /// class (see `overload::Brownout`).
    pub brownout: bool,
    /// In-flight requests allowed per connection before the event loop
    /// stops reading it (pipelining backpressure), and the most of one
    /// connection's lines the loop frames per readiness round.
    pub pipeline_depth: usize,
    /// The shard tier's full membership (`host:port` per node, identical
    /// on every node); empty = no tier, serve standalone.
    pub peers: Vec<String>,
    /// This node's own name in `peers`.  Empty = the bound address, which
    /// is only right when `addr` is the externally reachable name.
    pub advertise: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache_bytes: 32 << 20,
            queue_depth: 64,
            read_timeout: Duration::from_secs(10),
            idle_timeout: None,
            // ~4.3G innermost iterations: far above every paper workload,
            // but a guaranteed stop for an effectively unbounded nest.
            request_max_steps: Some(1 << 32),
            request_deadline: None,
            brownout: true,
            pipeline_depth: 32,
            peers: Vec::new(),
            advertise: String::new(),
        }
    }
}

/// The budget a request actually runs under: per axis, the tighter of the
/// server's cap and the client's ask.
fn effective_budget(cfg: &Config, req: RequestBudget) -> Budget {
    let max_steps = match (cfg.request_max_steps, req.max_steps) {
        (Some(cap), Some(ask)) => Some(cap.min(ask)),
        (cap, ask) => cap.or(ask),
    };
    let ask_wall = req.deadline_ms.map(Duration::from_millis);
    let wall = match (cfg.request_deadline, ask_wall) {
        (Some(cap), Some(ask)) => Some(cap.min(ask)),
        (cap, ask) => cap.or(ask),
    };
    Budget { max_steps, wall }
}

/// The per-connection state shared between the event loop (which reads,
/// frames and answers plain hits) and the workers (which answer the
/// rest).
struct ConnShared {
    /// The write side.  Its lock is held only across nonblocking writes,
    /// never across a wait, so the event loop never blocks on it.
    writer: Mutex<Writer>,
    /// Requests queued or executing for this connection, flush jobs
    /// included.
    inflight: AtomicUsize,
    /// A flush job for the writer's tail is queued or running.  Changed
    /// only under the writer lock, so no tail is left without a job;
    /// while set, the event loop frames no more of this connection's
    /// lines.  The loop reads it without the lock: it publishes nothing
    /// else, and a stale value only moves the next framing by a round.
    backlogged: AtomicBool,
    /// Set when either side severs the connection; writers bail early.
    closed: AtomicBool,
}

/// A connection's response stream.
struct Writer {
    /// A clone of the connection's (nonblocking) stream.
    stream: TcpStream,
    /// Response bytes accepted but not yet taken by the socket.  Every
    /// write sends them first, so responses go out whole and in the order
    /// they were written.
    tail: Vec<u8>,
    /// Bytes the socket has taken over the connection's life.
    sent: u64,
}

/// One unit of worker work.
struct Job {
    conn: Arc<ConnShared>,
    work: Work,
}

enum Work {
    /// A request line the event loop did not answer.
    Line(Line),
    /// Send the connection's tail.  Never shed.
    Flush,
}

/// A request line on its way to a worker.
struct Line {
    bytes: Vec<u8>,
    /// The event loop's decode of `bytes`, so no line is decoded twice:
    /// `None` when that decode panicked.
    decoded: Option<Result<Request, ServeError>>,
    /// On-CPU time the event loop already spent on the line.
    spent: Duration,
    /// Queue-entry instant: the wall deadline keeps running while the job
    /// waits, so queue time is charged against the request's budget.
    enqueued_at: Instant,
}

struct Shared {
    cfg: Config,
    /// Jobs waiting for a worker — request-granular, so one slow
    /// connection cannot convoy every other connection.
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    cache: ResultCache,
    /// The source memo: raw request content address → (result-cache key,
    /// admission estimate in ms), one entry of weight 1 per
    /// [`MEMO_BYTES_PER_ENTRY`] of result budget.
    memo: Cache<(u64, u64)>,
    overload: Mutex<Brownout>,
    cluster: Cluster,
}

/// Result-cache bytes per source-memo entry.  A memo entry only pays off
/// while its result is cached, and cached results run ~1–2 KB, so one
/// entry per KiB covers every result the cache can hold (32,768 entries,
/// ~2 MB, at the default 32 MiB); with the result cache off, the memo
/// holds nothing.
const MEMO_BYTES_PER_ENTRY: u64 = 1024;

impl Shared {
    fn new(cfg: Config) -> Shared {
        let workers = cfg.workers.max(1);
        // One shard per worker (rounded up to a power of two) keeps lock
        // contention off the fast path without over-allocating.
        let shards = workers.next_power_of_two().min(64);
        // Membership errors are surfaced by `serve` before any Shared is
        // built; a direct construction with a bad list degrades to
        // standalone rather than panicking mid-test.
        let cluster = Cluster::new(&cfg.peers, &cfg.advertise, cfg.read_timeout)
            .unwrap_or_else(|_| Cluster::single(cfg.read_timeout));
        Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::default(),
            cache: ResultCache::new(cfg.cache_bytes, shards),
            memo: Cache::new(cfg.cache_bytes / MEMO_BYTES_PER_ENTRY, shards, |_| 1),
            overload: Mutex::new(Brownout::new(BrownoutConfig::default())),
            cluster,
            cfg,
        }
    }
}

/// A handle to a running server: metrics access and remote shutdown.
/// Handed to the `on_ready` callback; integration tests keep it to poll
/// gauges deterministically instead of racing the request path.
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// The live metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The live result cache (for its counters).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The live tier view (for its per-peer counters).
    pub fn cluster(&self) -> &Cluster {
        &self.shared.cluster
    }

    /// Initiates the same graceful drain as a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }
}

/// Runs [`serve`] on a new thread and waits until it listens: the
/// in-process server of the integration tests, `mbb-load --spawn` and the
/// cluster smoke's single-node reference.  Returns the bound address, the
/// handle and the serving thread, which ends once the server drains.
pub fn spawn(cfg: Config) -> std::io::Result<(SocketAddr, Handle, std::thread::JoinHandle<()>)> {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let ready = tx.clone();
        // `serve` fails only before it listens: hand the error back.
        if let Err(e) = serve(cfg, move |addr, handle| {
            let _ = ready.send(Ok((addr, handle)));
        }) {
            let _ = tx.send(Err(e));
        }
    });
    let (addr, handle) = rx
        .recv_timeout(Duration::from_secs(10))
        .map_err(|_| std::io::Error::other("server did not come up within 10 s"))??;
    Ok((addr, handle, thread))
}

/// Runs the service until shut down.  `on_ready` receives the bound
/// address (resolving port 0) and a [`Handle`] once the listener exists —
/// after it returns, connections are being accepted.  Binding, a bad tier
/// membership and a poller that cannot be opened are errors returned
/// before `on_ready` runs.
pub fn serve(mut cfg: Config, on_ready: impl FnOnce(SocketAddr, Handle)) -> std::io::Result<()> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    if cfg.advertise.is_empty() {
        cfg.advertise = addr.to_string();
    }
    // Surface a bad tier membership as a bind-time error, not a node that
    // silently forwards nothing.
    Cluster::new(&cfg.peers, &cfg.advertise, cfg.read_timeout)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN)?;
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared::new(cfg));
    on_ready(addr, Handle { shared: Arc::clone(&shared) });

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            scope.spawn(move || worker(&shared));
        }
        event_loop(&listener, poller, &shared);
        // Wake every worker so it can observe the flag and drain out.
        shared.cv.notify_all();
    });
    Ok(())
}

const LISTENER_TOKEN: u64 = 0;

/// Per-connection event-loop state.  The event loop owns the reading
/// half; `shared` is what the workers see.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    /// Bytes read but not yet framed into requests.
    buf: Vec<u8>,
    /// Registered with the poller.  False while suspended on the
    /// pipeline cap (backpressure) or after EOF.
    registered: bool,
    eof: bool,
    /// Complete lines were left in `buf` when this round's share ran out.
    more: bool,
    last_activity: Instant,
}

/// The readiness loop: accepts, reads, frames requests, answers plain
/// cache hits, queues the rest, and closes quiescent connections.  It
/// never blocks on a socket — every write it makes is nonblocking, and
/// what a socket does not take is left to a flush job — and never runs
/// analysis.
fn event_loop(listener: &TcpListener, mut poller: Poller, shared: &Shared) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = LISTENER_TOKEN + 1;
    let mut ready: Vec<u64> = Vec::new();
    let mut last_activity = Instant::now();
    let mut last_tick = Instant::now();

    while !shared.shutdown.load(Ordering::SeqCst) {
        // Resume connections suspended on the pipeline cap (responses may
        // have drained, making their buffered lines processable again)
        // and those with lines left over from the last round.
        let mut doomed: Vec<u64> = Vec::new();
        let mut behind = false;
        for (&tok, conn) in conns.iter_mut() {
            if conn.registered && !conn.more {
                continue;
            }
            if !drain_buf(conn, shared) {
                doomed.push(tok);
                continue;
            }
            behind |= conn.more;
            watch(&mut poller, tok, conn, shared);
        }
        for tok in doomed {
            close_conn(&mut conns, &mut poller, tok, shared);
        }

        ready.clear();
        // Lines left over: look for readiness, but come straight back.
        let wait = if behind { Duration::ZERO } else { Duration::from_millis(20) };
        poller.wait(&mut ready, wait);

        for &tok in &ready {
            if tok == LISTENER_TOKEN {
                accept_burst(listener, &mut poller, &mut conns, &mut next_token, shared);
                last_activity = Instant::now();
                continue;
            }
            let Some(conn) = conns.get_mut(&tok) else {
                continue; // stale event for a connection closed this round
            };
            if faults::fire(Site::ConnRead) {
                // Injected fault: the connection drops mid-stream.
                close_conn(&mut conns, &mut poller, tok, shared);
                continue;
            }
            if !read_into_buf(conn) || !drain_buf(conn, shared) {
                close_conn(&mut conns, &mut poller, tok, shared);
                continue;
            }
            conn.last_activity = Instant::now();
            last_activity = conn.last_activity;
            watch(&mut poller, tok, conn, shared);
            if conn_done(conn) {
                close_conn(&mut conns, &mut poller, tok, shared);
            }
        }

        // Housekeeping tick: decay the brown-out EWMAs while no requests
        // complete (so a drained server walks back to level 0 instead of
        // freezing at its storm level) and sweep quiescent connections.
        if last_tick.elapsed() >= Duration::from_millis(50) {
            last_tick = Instant::now();
            observe_pressure(shared, Duration::ZERO);
            let stale: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    let inflight = c.shared.inflight.load(Ordering::Relaxed);
                    let quiesced = inflight == 0 && !c.buf.contains(&b'\n');
                    (c.shared.closed.load(Ordering::Relaxed) && inflight == 0)
                        || (c.eof && quiesced)
                        // Quiescence, not per-read, is what times a
                        // pipelined connection out: no in-flight requests
                        // AND no buffered bytes for the whole window.
                        || (quiesced
                            && c.buf.is_empty()
                            && c.last_activity.elapsed() >= shared.cfg.read_timeout)
                })
                .map(|(&tok, _)| tok)
                .collect();
            for tok in stale {
                close_conn(&mut conns, &mut poller, tok, shared);
            }
        }
        if let Some(idle) = shared.cfg.idle_timeout {
            let quiet = conns.is_empty()
                && shared.metrics.workers_busy.load(Ordering::Relaxed) == 0
                && lock(&shared.queue).is_empty();
            if quiet && last_activity.elapsed() >= idle {
                shared.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// Keeps a connection registered with the poller exactly while it may be
/// read.  At EOF there is nothing further to read, ever; at the pipeline
/// cap the loop stops reading until responses drain (backpressure), and
/// the resume pass revisits the connection every round until then.
fn watch(poller: &mut Poller, tok: u64, conn: &mut Conn, shared: &Shared) {
    let want = !conn.eof && !at_cap(conn, shared);
    if want && !conn.registered {
        conn.registered = poller.register(conn.stream.as_raw_fd(), tok).is_ok();
    } else if !want && conn.registered {
        poller.deregister(conn.stream.as_raw_fd());
        conn.registered = false;
    }
}

/// True when a connection has nothing left to do: the client half-closed
/// and every pipelined response has been written.
fn conn_done(conn: &Conn) -> bool {
    conn.eof && !conn.buf.contains(&b'\n') && conn.shared.inflight.load(Ordering::Relaxed) == 0
}

/// Accepts every pending connection (the listener is level-triggered, so
/// stopping early would be re-reported anyway; draining keeps the accept
/// backlog short under a connect storm).
fn accept_burst(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Shared,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let Ok(writer) = stream.try_clone() else { continue };
                let tok = *next_token;
                *next_token += 1;
                let mut conn = Conn {
                    shared: Arc::new(ConnShared {
                        writer: Mutex::new(Writer { stream: writer, tail: Vec::new(), sent: 0 }),
                        inflight: AtomicUsize::new(0),
                        backlogged: AtomicBool::new(false),
                        closed: AtomicBool::new(false),
                    }),
                    stream,
                    buf: Vec::new(),
                    registered: false,
                    eof: false,
                    more: false,
                    last_activity: Instant::now(),
                };
                shared.metrics.connections_open.fetch_add(1, Ordering::Relaxed);
                if poller.register(conn.stream.as_raw_fd(), tok).is_ok() {
                    conn.registered = true;
                }
                conns.insert(tok, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Removes a connection and severs the socket.  `shutdown` (not a writer
/// lock) severs so a worker mid-write is interrupted, not waited on.
fn close_conn(conns: &mut HashMap<u64, Conn>, poller: &mut Poller, tok: u64, shared: &Shared) {
    if let Some(conn) = conns.remove(&tok) {
        if conn.registered {
            poller.deregister(conn.stream.as_raw_fd());
        }
        conn.shared.closed.store(true, Ordering::Relaxed);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        shared.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Pulls every available byte off the socket.  Returns `false` when the
/// connection is dead.  On EOF any complete buffered lines still run; a
/// partial trailing line is discarded, matching the blocking framing.
fn read_into_buf(conn: &mut Conn) -> bool {
    let mut tmp = [0u8; 8192];
    loop {
        if conn.buf.len() > protocol::MAX_REQUEST_BYTES + 1 {
            // Enough buffered to either frame requests or answer
            // too-large; stop pulling (level-triggered readiness
            // re-reports the remainder), also while earlier rounds'
            // lines still wait for their share.
            return true;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
            Ok(n) => conn.buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// The pipeline cap: past this many in-flight requests, or while a tail
/// waits for its flush job, the event loop stops reading the connection
/// until responses drain.
fn at_cap(conn: &Conn, shared: &Shared) -> bool {
    conn.shared.inflight.load(Ordering::Relaxed) >= shared.cfg.pipeline_depth.max(1)
        || conn.shared.backlogged.load(Ordering::Relaxed)
}

/// Frames complete lines out of the read buffer, answering plain hits on
/// the spot and queueing the rest, and stops at the pipeline cap (the
/// line stays buffered).  Returns `false` when the connection must close
/// (framing is unrecoverable).
///
/// Fairness without a knob: one call takes at most `pipeline_depth`
/// lines — answered, queued or shed — and flags `more` when complete
/// lines remain, so a client that floods the loop waits its turn behind
/// every other connection instead of holding the loop for its whole
/// buffer.
fn drain_buf(conn: &mut Conn, shared: &Shared) -> bool {
    let mut share = shared.cfg.pipeline_depth.max(1);
    conn.more = false;
    loop {
        if conn.shared.closed.load(Ordering::Relaxed) {
            return false;
        }
        let nl = match protocol::frame(&conn.buf, protocol::MAX_REQUEST_BYTES) {
            Frame::Line(nl) => nl,
            Frame::Incomplete => return true, // need more bytes
            Frame::TooLarge => {
                answer_too_large(conn, shared);
                return false;
            }
        };
        if at_cap(conn, shared) {
            return true; // backpressure: leave the line buffered
        }
        if share == 0 {
            conn.more = true;
            return true;
        }
        share -= 1;
        let mut line: Vec<u8> = conn.buf.drain(..=nl).collect();
        line.pop(); // the newline
        if line.is_empty() {
            continue; // tolerate keep-alive blank lines
        }
        if let Attempt::Deferred(decoded, spent) = attempt(&line, &conn.shared, shared) {
            enqueue(line, decoded, spent, conn, shared);
        }
    }
}

/// Answers an over-long line with a structured error.  The caller closes
/// the connection: the line framing cannot be resynchronised, and what
/// the socket does not take at once goes down with it.
fn answer_too_large(conn: &Conn, shared: &Shared) {
    let e = ServeError::new(
        ErrorKind::TooLarge,
        format!("request exceeds {} bytes", protocol::MAX_REQUEST_BYTES),
    );
    shared.metrics.count_error(e.kind);
    let mut resp = protocol::error_response(&e);
    resp.push('\n');
    send(&mut lock(&conn.shared.writer), &conn.shared, resp.as_bytes());
}

/// Queues one framed request, or sheds it with a busy response when the
/// queue is full.  The shed is request-level: the connection stays open
/// and later requests may be admitted.
fn enqueue(
    bytes: Vec<u8>,
    decoded: Option<Result<Request, ServeError>>,
    spent: Duration,
    conn: &Conn,
    shared: &Shared,
) {
    let mut q = lock(&shared.queue);
    if q.len() >= shared.cfg.queue_depth {
        drop(q);
        shared.metrics.count_shed_conn();
        shared.metrics.busy_total.fetch_add(1, Ordering::Relaxed);
        shared.metrics.count_error(ErrorKind::Busy);
        let mut resp = protocol::error_response(&ServeError::busy());
        resp.push('\n');
        let mut w = lock(&conn.shared.writer);
        send(&mut w, &conn.shared, resp.as_bytes());
        flush_later(&w, &conn.shared, shared);
        return;
    }
    conn.shared.inflight.fetch_add(1, Ordering::Relaxed);
    let line = Line { bytes, decoded, spent, enqueued_at: Instant::now() };
    q.push_back(Job { conn: Arc::clone(&conn.shared), work: Work::Line(line) });
    shared.metrics.queue_depth.store(q.len() as u64, Ordering::Relaxed);
    drop(q);
    shared.cv.notify_one();
}

/// Queues a flush job for a tail the event loop left, unless one is
/// already queued or running.  Called under the writer lock `w`, the
/// lock the flush job clears `backlogged` under, so no tail is left
/// without a job to send it.
fn flush_later(w: &Writer, conn: &Arc<ConnShared>, shared: &Shared) {
    if w.tail.is_empty()
        || conn.closed.load(Ordering::Relaxed)
        || conn.backlogged.swap(true, Ordering::Relaxed)
    {
        return;
    }
    conn.inflight.fetch_add(1, Ordering::Relaxed);
    let mut q = lock(&shared.queue);
    q.push_back(Job { conn: Arc::clone(conn), work: Work::Flush });
    shared.metrics.queue_depth.store(q.len() as u64, Ordering::Relaxed);
    drop(q);
    shared.cv.notify_one();
}

/// The one write routine: appends one response line to the connection's
/// stream without ever waiting.  The tail goes first, then as much of
/// `line` as the socket takes now; the rest joins the tail.
fn send(w: &mut Writer, conn: &ConnShared, line: &[u8]) {
    if conn.closed.load(Ordering::Relaxed) {
        return;
    }
    if faults::fire(Site::ConnWriteShort) {
        // Injected fault: half a response, then a dropped connection.
        // The newline never arrives, so a client can not mistake the
        // prefix for a frame.
        w.tail.extend_from_slice(&line[..line.len() / 2]);
        push(w, conn);
        sever(w, conn);
        return;
    }
    if w.tail.is_empty() {
        match write_nb(&mut w.stream, line) {
            Ok(n) => {
                w.sent += n as u64;
                w.tail.extend_from_slice(&line[n..]);
            }
            Err(_) => sever(w, conn),
        }
    } else {
        w.tail.extend_from_slice(line);
        push(w, conn);
    }
}

/// Sends as much of the tail as the socket takes now.
fn push(w: &mut Writer, conn: &ConnShared) {
    match write_nb(&mut w.stream, &w.tail) {
        Ok(n) if n == w.tail.len() => {
            w.sent += n as u64;
            w.tail = Vec::new(); // drop the capacity a large tail grew
        }
        Ok(n) => {
            w.sent += n as u64;
            w.tail.drain(..n);
        }
        Err(_) => sever(w, conn),
    }
}

/// Severs a connection whose writes failed or timed out.
fn sever(w: &Writer, conn: &ConnShared) {
    let _ = w.stream.shutdown(std::net::Shutdown::Both);
    conn.closed.store(true, Ordering::Relaxed);
}

/// Writes what the socket takes now: the byte count, or the error that
/// makes the connection unusable.
fn write_nb(stream: &mut TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match stream.write(&buf[n..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Pushes the tail until `sent` holds, sleeping between attempts without
/// the lock, and severs the connection if it has not by `timeout`.
/// Returns the writer lock taken when it held (or the connection died).
fn wait_sent(
    conn: &ConnShared,
    timeout: Duration,
    sent: impl Fn(&Writer) -> bool,
) -> MutexGuard<'_, Writer> {
    let deadline = Instant::now() + timeout;
    loop {
        let mut w = lock(&conn.writer);
        if !w.tail.is_empty() {
            push(&mut w, conn);
        }
        if sent(&w) || conn.closed.load(Ordering::Relaxed) {
            return w;
        }
        if Instant::now() >= deadline {
            sever(&w, conn);
            return w;
        }
        drop(w);
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Writes one response line from a worker, which may wait: up to
/// `timeout` for the line to leave, then the connection is severed.
fn write_line(conn: &ConnShared, line: &[u8], timeout: Duration) {
    let end = {
        let mut w = lock(&conn.writer);
        send(&mut w, conn, line);
        if w.tail.is_empty() {
            return;
        }
        w.sent + w.tail.len() as u64
    };
    drop(wait_sent(conn, timeout, |w| w.sent >= end));
}

/// Worker loop: pop a job, serve it, repeat; exit once shutdown is
/// flagged *and* the queue is drained.
///
/// Per-request panics are already caught in [`process_line`]; if one
/// still escapes `handle_job` (a failure outside a request), the worker
/// counts a respawn and continues in place rather than unwinding out of
/// the pool — the loop *is* the respawned worker.
fn worker(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    shared.metrics.queue_depth.store(q.len() as u64, Ordering::Relaxed);
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = wait_timeout(&shared.cv, q, Duration::from_millis(100));
            }
        };
        let Some(job) = job else { return };
        if faults::fire(Site::WorkerStall) {
            // Injected fault: the worker stalls with the job already
            // popped, so queued requests age toward expiry.
            if let Some(d) = faults::handler_delay() {
                std::thread::sleep(d);
            }
        }
        let conn = Arc::clone(&job.conn);
        shared.metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_job(job, shared)));
        shared.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
        // The in-flight count must drop even if the handler escaped, or
        // the connection would stay suspended forever.
        conn.inflight.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            shared.metrics.worker_respawns_total.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serves one job end to end: charge queue wait, run the request, write
/// the response to the owning connection; or send a connection's tail.
fn handle_job(job: Job, shared: &Shared) {
    let line = match job.work {
        Work::Line(line) => line,
        Work::Flush => {
            let w = wait_sent(&job.conn, shared.cfg.read_timeout, |w| w.tail.is_empty());
            job.conn.backlogged.store(false, Ordering::Relaxed);
            drop(w);
            return;
        }
    };
    let queue_age = line.enqueued_at.elapsed();
    let (mut resp, drain) = process_line(&line.bytes, line.decoded, line.spent, shared, queue_age);
    resp.push('\n');
    write_line(&job.conn, resp.as_bytes(), shared.cfg.read_timeout);
    if drain {
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.cv.notify_all();
    }
}

/// Processes one request line; returns the response line (no newline)
/// and whether a graceful drain was requested.  `decoded` is the event
/// loop's decode of `line`, if it made one, and `spent` the on-CPU time
/// the loop already spent on it.
///
/// This is the panic-isolation boundary: a panic anywhere in request
/// handling — a transform bug, a poisoned invariant, an injected fault —
/// is caught here and answered with a structured `internal` error, so the
/// connection and worker keep serving.
fn process_line(
    line: &[u8],
    decoded: Option<Result<Request, ServeError>>,
    spent: Duration,
    shared: &Shared,
    queue_age: Duration,
) -> (String, bool) {
    let meter = mbb_obs::Meter::start();
    // The request's `"id"`, captured as soon as it parses so even error
    // and panic responses pair up under pipelining.
    let mut rid: Option<String> = None;
    let out =
        catch_unwind(AssertUnwindSafe(|| respond(line, decoded, shared, queue_age, &mut rid)));
    let busy = meter.finish().busy() + spent;
    shared.metrics.latency.observe(busy);
    observe_pressure(shared, busy);
    match out {
        Ok(Ok((resp, drain))) => (resp, drain),
        Ok(Err(e)) => {
            shared.metrics.count_error(e.kind);
            (protocol::error_response_with_id(&e, rid.as_deref()), false)
        }
        Err(_panic) => {
            shared.metrics.panics_total.fetch_add(1, Ordering::Relaxed);
            let e =
                ServeError::new(ErrorKind::Internal, "internal error: request handler panicked");
            shared.metrics.count_error(e.kind);
            (protocol::error_response_with_id(&e, rid.as_deref()), false)
        }
    }
}

/// Feeds the brown-out controller one observation — queue fullness and a
/// busy-time reading (both normalised per-1024) — and publishes the
/// possibly-updated level for the lock-free request path.
fn observe_pressure(shared: &Shared, busy: Duration) {
    if !shared.cfg.brownout {
        return;
    }
    let cap = shared.cfg.queue_depth.max(1) as u64;
    let queue_frac = shared.metrics.queue_depth.load(Ordering::Relaxed).saturating_mul(1024) / cap;
    let target = BROWNOUT_TARGET.as_nanos() as u64;
    let busy_ns = busy.as_nanos().min(u64::MAX as u128) as u64;
    let busy_frac = busy_ns.saturating_mul(1024) / target;
    let level = lock(&shared.overload).observe(queue_frac, busy_frac);
    shared.metrics.brownout_level.store(level as u64, Ordering::Relaxed);
    shared.metrics.brownout_level_max.fetch_max(level as u64, Ordering::Relaxed);
}

/// What the event loop did with one request line.
enum Attempt {
    /// Answered from the caches: counted and handed to the writer.
    Answered,
    /// Left to a worker, with nothing counted: the loop's decode (`None`
    /// if it panicked) and the on-CPU time spent.
    Deferred(Option<Result<Request, ServeError>>, Duration),
}

/// The event loop's attempt at one line: answer it here if it is a plain
/// cache hit ([`plain_hit`]) and the connection's writer is free, or
/// defer it.  A panic anywhere before the answer defers the line to the
/// worker path, whose panic boundary answers it.
fn attempt(line: &[u8], conn: &Arc<ConnShared>, shared: &Shared) -> Attempt {
    let meter = mbb_obs::Meter::start();
    let decoded = catch_unwind(|| decode(line)).ok();
    if let Some(Ok(req)) = &decoded {
        if let Ok(Some(hit)) = catch_unwind(AssertUnwindSafe(|| plain_hit(req, shared))) {
            let writer = match conn.writer.try_lock() {
                Ok(w) => Some(w),
                Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            };
            if let Some(mut w) = writer {
                count_hit(shared, req, &hit, meter.finish().busy());
                send(&mut w, conn, hit.resp.as_bytes());
                flush_later(&w, conn, shared);
                return Attempt::Answered;
            }
        }
    }
    Attempt::Deferred(decoded, meter.finish().busy())
}

/// A plain cache hit, ready to write.
struct Hit {
    /// The request's source-memo key.
    source_key: u64,
    /// Its result-cache key.
    key: u64,
    /// The response line, newline included.
    resp: String,
}

/// The stages in lookup-only form: `Some` exactly when the worker path
/// would answer `req` from the result cache with no side trip — a
/// program kind, not profiled, both the memo and the result entry
/// present, a key this node owns (or a relay it must serve), and no
/// shed, expiry, admission or degrade rule firing at queue age 0.
/// Counts nothing and stamps nothing.
fn plain_hit(req: &Request, shared: &Shared) -> Option<Hit> {
    if !req.kind.takes_program() || req.profile {
        return None;
    }
    let mut plan = plan(shared, req, Duration::ZERO).ok()?;
    let source_key = source_key(req.kind, &plan.opts.machine.name, &plan.flags, plan.src);
    let (key, est_ms) = shared.memo.peek(source_key)?;
    admit(&plan, est_ms).ok()?;
    if !degrade(&mut plan).is_empty() {
        return None;
    }
    if !req.forwarded && shared.cluster.peek_route(key) != Route::Local {
        return None;
    }
    let val = shared.cache.peek(key)?;
    let mut resp = protocol::ok_response(req.kind, true, &val, req.id.as_deref());
    resp.push('\n');
    Some(Hit { source_key, key, resp })
}

/// Counts a hit answered on the event loop exactly as the worker path
/// counts the same hit: the request, the memo hit, the local route, the
/// result hit, the CPU histogram and the brown-out observation.
fn count_hit(shared: &Shared, req: &Request, hit: &Hit, busy: Duration) {
    count_request(shared, req);
    shared.memo.record_hit(hit.source_key);
    if !req.forwarded {
        // The `route` stage's count; the ring is fixed, so it decides
        // what `peek_route` did.
        let decided = shared.cluster.route(hit.key);
        debug_assert_eq!(decided, Route::Local);
        shared.metrics.route_local_total.fetch_add(1, Ordering::Relaxed);
    }
    shared.cache.record_hit(hit.key);
    shared.metrics.latency.observe(busy);
    observe_pressure(shared, busy);
    shared.metrics.loop_answers_total.fetch_add(1, Ordering::Relaxed);
}

/// The worker path: every stage in order, each refusal counted and
/// answered, misses computed.
fn respond(
    line: &[u8],
    decoded: Option<Result<Request, ServeError>>,
    shared: &Shared,
    queue_age: Duration,
    rid: &mut Option<String>,
) -> Result<(String, bool), ServeError> {
    if faults::fire(Site::HandlerDelay) {
        if let Some(d) = faults::handler_delay() {
            std::thread::sleep(d);
        }
    }
    if faults::fire(Site::HandlerPanic) {
        panic!("{}", faults::PANIC_PAYLOAD);
    }
    let req = match decoded {
        Some(decoded) => decoded?,
        None => decode(line)?,
    };
    rid.clone_from(&req.id);
    let id = req.id.as_deref();
    count_request(shared, &req);
    if let Some(answer) = admin(shared, &req) {
        return Ok(answer);
    }
    let kind = req.kind;
    let mut plan = plan(shared, &req, queue_age).map_err(|r| r.count(shared))?;
    let keyed =
        key_request(shared, kind, &plan.opts.machine.name, &plan.flags, plan.src, plan.deadline)?;
    admit(&plan, keyed.est_ms).map_err(|r| r.count(shared))?;
    let actions = degrade(&mut plan);
    let Plan { src, level, opts, sp, deadline, .. } = plan;
    // The program is parsed again only when this request runs the
    // analysis and its key came from the memo.
    let compute = |prog: Option<Program>| -> Result<analysis::Analysis, ServeError> {
        let prog = match prog {
            Some(p) => p,
            None => analysis::load(src)?,
        };
        analysis::run(kind, &prog, &opts, &sp)
    };
    if !actions.is_empty() {
        for &a in &actions {
            shared.metrics.count_degraded(a);
        }
        let a = compute(keyed.prog)?;
        let val = Json::obj([("text", Json::str(a.text)), ("data", a.data)]).render_compact();
        let degraded = Json::obj([
            ("level", Json::UInt(level)),
            ("actions", Json::Arr(actions.iter().map(|a| Json::str(a.as_str())).collect())),
        ])
        .render_compact();
        return Ok((protocol::degraded_response(kind, &degraded, &val, id), false));
    }
    if req.profile {
        // Profiles describe *this* execution (wall/CPU time), so a
        // profiled request bypasses the cache in both directions: it
        // neither reads a cached result nor stores one.
        let a = compute(keyed.prog)?;
        let mut pairs = vec![("text", Json::str(a.text)), ("data", a.data)];
        if let Some(p) = &a.profile {
            shared.metrics.record_phases(p);
            pairs.push(("profile", analysis::profile_json(p)));
        }
        let val = Json::obj(pairs).render_compact();
        return Ok((protocol::ok_response(kind, false, &val, id), false));
    }
    let key = keyed.key;
    if !req.forwarded {
        if let Some(resp) = route(shared, key, line) {
            return Ok((resp, false));
        }
    }
    let (val, hit) = shared.cache.get_or_compute_until(key, deadline, || {
        let a = compute(keyed.prog)?;
        Ok(Json::obj([("text", Json::str(a.text)), ("data", a.data)]).render_compact())
    })?;
    Ok((protocol::ok_response(kind, hit, &val, id), false))
}

/// The `decode` stage: one line's request envelope.
fn decode(line: &[u8]) -> Result<Request, ServeError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| ServeError::new(ErrorKind::BadRequest, "request is not UTF-8"))?;
    protocol::parse_request(text)
}

/// Counts a decoded request, and a relay from a peer.
fn count_request(shared: &Shared, req: &Request) {
    shared.metrics.count_request(req.kind);
    if req.forwarded {
        shared.metrics.forwarded_in_total.fetch_add(1, Ordering::Relaxed);
        shared.cluster.count_forwarded_in();
    }
}

/// The `admin` stage: the answer to a kind that takes no program.
fn admin(shared: &Shared, req: &Request) -> Option<(String, bool)> {
    let id = req.id.as_deref();
    let answer = match req.kind {
        Kind::Metrics => {
            let text = shared.metrics.render(shared.cache.stats(), shared.memo.stats());
            let result = Json::obj([("text", Json::str(text))]).render_compact();
            (protocol::ok_response(Kind::Metrics, false, &result, id), false)
        }
        Kind::Shutdown => {
            let result = Json::obj([("draining", Json::Bool(true))]).render_compact();
            (protocol::ok_response(Kind::Shutdown, false, &result, id), true)
        }
        Kind::Machines => {
            let a = analysis::machines();
            let result =
                Json::obj([("text", Json::str(a.text)), ("data", a.data)]).render_compact();
            (protocol::ok_response(Kind::Machines, false, &result, id), false)
        }
        Kind::ClusterStats => {
            let result = shared.cluster.stats_json();
            (protocol::ok_response(Kind::ClusterStats, false, &result, id), false)
        }
        Kind::Health => {
            let ctl = lock(&shared.overload);
            let result = Json::obj([
                ("status", Json::str(ctl.status())),
                ("level", Json::UInt(ctl.level() as u64)),
                (
                    "max_level",
                    Json::UInt(shared.metrics.brownout_level_max.load(Ordering::Relaxed)),
                ),
                ("queue_pressure", Json::UInt(ctl.queue_ewma())),
                ("busy_pressure", Json::UInt(ctl.busy_ewma())),
                ("shed_total", Json::UInt(shared.metrics.shed_total())),
                ("brownout_enabled", Json::Bool(shared.cfg.brownout)),
            ])
            .render_compact();
            (protocol::ok_response(Kind::Health, false, &result, id), false)
        }
        _ => return None,
    };
    Some(answer)
}

/// A stage's refusal: the error that answers it and, for a shed rule, the
/// `mbb_serve_shed_total` cell it counts under.  Stages count nothing:
/// the worker path counts the refusals it answers, and the event loop
/// defers a line any stage would refuse.
struct Refusal {
    err: ServeError,
    shed: Option<(Class, Reason)>,
}

impl Refusal {
    fn shed(class: Class, reason: Reason, err: ServeError) -> Refusal {
        Refusal { err, shed: Some((class, reason)) }
    }

    /// Counts the refusal and hands back its error.
    fn count(self, shared: &Shared) -> ServeError {
        if let Some((class, reason)) = self.shed {
            shared.metrics.count_shed(class, reason);
        }
        self.err
    }
}

impl From<ServeError> for Refusal {
    fn from(err: ServeError) -> Refusal {
        Refusal { err, shed: None }
    }
}

/// A program request past its envelope: what the stages after `admin`
/// read.
struct Plan<'r> {
    src: &'r str,
    class: Class,
    /// The published brown-out level.  Only the controller stores to
    /// this gauge (and only when `cfg.brownout` is on), so it stays 0
    /// when the controller is disabled — but reading it unconditionally
    /// lets tests pin a level without racing the controller.
    level: u64,
    opts: analysis::Options,
    /// [`Flags::key`](protocol::Flags::key), for the cache keys.
    flags: String,
    sp: analysis::SearchParams,
    /// Where the remaining wall budget runs out: a request that joins an
    /// identical in-flight compute stops waiting for it here.
    deadline: Option<Instant>,
}

/// The `shed` and `expire` stages, and the options every later stage
/// reads.
fn plan<'r>(shared: &Shared, req: &'r Request, queue_age: Duration) -> Result<Plan<'r>, Refusal> {
    let class = Class::of(req.kind);
    let level = shared.metrics.brownout_level.load(Ordering::Relaxed);
    shed(shared, class, level)?;
    let src = req.program.as_deref().expect("enforced by parse_request");
    let mut opts = req.flags.to_options(&req.machine)?;
    opts.budget = effective_budget(&shared.cfg, req.budget);
    opts.budget.wall = expire(opts.budget.wall, queue_age, class)?;
    let deadline = opts.budget.wall.map(|wall| Instant::now() + wall);
    opts.profile = req.profile;
    opts.engine = req.engine;
    // Search width/depth come from the flags (and are part of the cache
    // key via `Flags::key`); the seed stays at the crate default so
    // responses are a pure function of the request.
    let defaults = analysis::SearchParams::default();
    let sp = analysis::SearchParams {
        beam: req.flags.beam.map_or(defaults.beam, |b| b as usize),
        steps: req.flags.search_steps.map_or(defaults.steps, |s| s as usize),
        ..defaults
    };
    Ok(Plan { src, class, level, opts, flags: req.flags.key(), sp, deadline })
}

/// The `shed` stage.  Priority shedding: as the request queue fills past
/// a class's threshold, that class is refused with a structured busy —
/// low classes give way first, admin traffic never does.  At brown-out
/// level 3 the lowest class is shed outright.
fn shed(shared: &Shared, class: Class, level: u64) -> Result<(), Refusal> {
    let depth = shared.metrics.queue_depth.load(Ordering::Relaxed);
    let weight = u64::from(CLASS_WEIGHTS[class.index()]);
    if depth * 100 > (shared.cfg.queue_depth as u64) * weight {
        return Err(Refusal::shed(
            class,
            Reason::Saturation,
            ServeError::new(
                ErrorKind::Busy,
                format!(
                    "shedding {} traffic: accept queue {depth}/{} is past the class threshold ({weight}%)",
                    class.as_str(),
                    shared.cfg.queue_depth
                ),
            ),
        ));
    }
    if level >= 3 && class == Class::Search {
        return Err(Refusal::shed(
            class,
            Reason::Brownout,
            ServeError::new(
                ErrorKind::Busy,
                "brown-out level 3: optimize-search is shed until pressure drops",
            ),
        ));
    }
    Ok(())
}

/// The `expire` stage: the wall deadline has been running since the
/// request was queued, so the time it spent waiting for a worker is
/// charged, and expiry is answered without ever touching the analysis
/// layer.  Returns the remaining wall budget.
fn expire(
    wall: Option<Duration>,
    queue_age: Duration,
    class: Class,
) -> Result<Option<Duration>, Refusal> {
    let Some(wall) = wall else { return Ok(None) };
    if queue_age >= wall {
        return Err(Refusal::shed(
            class,
            Reason::Expired,
            ServeError::new(
                ErrorKind::DeadlineExceeded,
                format!(
                    "deadline of {}ms expired after {}ms in the accept queue",
                    wall.as_millis(),
                    queue_age.as_millis()
                ),
            ),
        ));
    }
    Ok(Some(wall - queue_age))
}

/// The `admit` stage.  Cost-based admission: a request that cannot
/// possibly finish inside its remaining deadline is rejected up front.
fn admit(plan: &Plan<'_>, est_ms: u64) -> Result<(), Refusal> {
    match plan.opts.budget.wall {
        Some(remaining) if Duration::from_millis(est_ms) > remaining => Err(Refusal::shed(
            plan.class,
            Reason::Admission,
            ServeError::new(
                ErrorKind::DeadlineExceeded,
                format!(
                    "admission: estimated cost ~{est_ms}ms cannot fit the remaining {}ms deadline",
                    remaining.as_millis()
                ),
            ),
        )),
        _ => Ok(()),
    }
}

/// The `degrade` stage.  Brown-out degradation: level 1 drops profile
/// splicing, level 2 also clamps search width/depth.  Either action makes
/// the response *degraded*: it carries an explicit marker and bypasses
/// the result cache in both directions (the profile rule), so cached
/// bytes stay identical at every level.  Returns the actions applied.
fn degrade(plan: &mut Plan<'_>) -> Vec<DegradeAction> {
    let mut actions = Vec::new();
    if plan.level >= 1 && plan.opts.profile {
        plan.opts.profile = false;
        actions.push(DegradeAction::NoProfile);
    }
    let sp = &mut plan.sp;
    if plan.level >= 2
        && plan.class == Class::Search
        && (sp.beam > BROWNOUT_BEAM || sp.steps > BROWNOUT_STEPS)
    {
        sp.beam = sp.beam.min(BROWNOUT_BEAM);
        sp.steps = sp.steps.min(BROWNOUT_STEPS);
        actions.push(DegradeAction::SearchClamp);
    }
    actions
}

/// The `route` stage.  Shard routing: if another node owns this
/// content-address, relay the request one hop (never re-forward a
/// relay) so the whole tier shares one cache fill per unique key, and
/// return the peer's answer.  A failed relay falls back to computing
/// locally — correctness never depends on a peer being up.
fn route(shared: &Shared, key: u64, line: &[u8]) -> Option<String> {
    let Route::Peer(peer) = shared.cluster.route(key) else {
        shared.metrics.route_local_total.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    shared.metrics.route_forward_total.fetch_add(1, Ordering::Relaxed);
    let text = std::str::from_utf8(line).expect("a decoded line is UTF-8");
    match shared.cluster.forward(peer, text) {
        Ok(resp) => Some(resp),
        Err(_) => {
            shared.metrics.forward_errors_total.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// What the `key` stage hands on to the rest of a program request.
struct Keyed {
    /// The result-cache key.
    key: u64,
    /// [`overload::estimate_cost_ms`] of the program, for admission.
    est_ms: u64,
    /// The parsed program, when this request had to parse it.
    prog: Option<Program>,
}

/// The source memo's key for a request: the
/// [`cache_key`](mbb_core::canon::cache_key) layout over the raw source.
fn source_key(kind: Kind, machine: &str, flags: &str, src: &str) -> u64 {
    mbb_core::canon::cache_key(kind.as_str(), machine, flags, src)
}

/// The `key` stage of a program request: its result-cache key and
/// admission estimate.
///
/// The key addresses the *resolved* machine name (aliases collapse,
/// scaled variants stay distinct), the flags and the canonical
/// pretty-printed program (formatting collapses).  Parsing, validation
/// and pretty-printing are pure functions of the request text, so the
/// source memo maps the raw text's own content address — the same
/// [`cache_key`](mbb_core::canon::cache_key) layout over the raw source
/// instead of the canonical one — to the key and the estimate, and a
/// byte-identical repeat costs one hash and one lookup.  On a memo miss
/// the program is loaded here, in the same place an invalid program
/// always fails, keyed by [`program_key`](mbb_core::canon::program_key)
/// (the printer hashed as it renders) and handed on.  Errors are never memoised; a caller
/// that joins an identical in-flight fill stops waiting at `deadline`.
fn key_request(
    shared: &Shared,
    kind: Kind,
    machine: &str,
    flags: &str,
    src: &str,
    deadline: Option<Instant>,
) -> Result<Keyed, ServeError> {
    let mut prog = None;
    let ((key, est_ms), _) = shared.memo.get_or_compute(
        source_key(kind, machine, flags, src),
        cache::wait_until(deadline),
        || {
            let p = analysis::load(src)?;
            let key = mbb_core::canon::program_key(kind.as_str(), machine, flags, &p);
            let est = overload::estimate_cost_ms(&p, kind);
            prog = Some(p);
            Ok((key, est))
        },
    )?;
    Ok(Keyed { key, est_ms, prog })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one request line as a worker does, never under another
    /// test's fault plan.
    fn run(shared: &Shared, line: &str, queue_age: Duration) -> (String, bool) {
        let _faults = crate::faults::TEST_LOCK.read().unwrap_or_else(|p| p.into_inner());
        process_line(line.as_bytes(), None, Duration::ZERO, shared, queue_age)
    }

    fn process(shared: &Shared, line: &str) -> Json {
        let (resp, _) = run(shared, line, Duration::ZERO);
        Json::parse(&resp).expect("response is valid JSON")
    }

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared::new(Config::default()))
    }

    const REQ: &str = "{\"schema\":\"mbb-serve/1\",\"kind\":\"report\",\"program\":\"array a[64]\\nscalar s = 0  // printed\\nfor i = 0, 63\\n  s = (s + a[i])\\nend for\\n\"}";

    #[test]
    fn report_request_round_trips_and_caches() {
        let shared = test_shared();
        let first = process(&shared, REQ);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let text = first.get("result").and_then(|r| r.get("text")).and_then(|t| t.as_str());
        assert!(text.unwrap().contains("CPU utilisation bound"));

        let second = process(&shared, REQ);
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.get("result"), second.get("result"), "hit must equal miss");
        assert_eq!(shared.cache.stats().hits, 1);
        assert_eq!(shared.metrics.requests_of(Kind::Report), 2);
        // The byte-identical repeat was keyed from the source memo.
        let memo = shared.memo.stats();
        assert_eq!((memo.hits, memo.misses, memo.entries), (1, 1, 1), "{memo:?}");
    }

    #[test]
    fn a_repeat_without_a_result_cache_recomputes_the_same_bytes() {
        let shared = Arc::new(Shared::new(Config { cache_bytes: 0, ..Config::default() }));
        let (first, _) = run(&shared, REQ, Duration::ZERO);
        let (second, _) = run(&shared, REQ, Duration::ZERO);
        assert_eq!(first, second, "a recompute must reproduce the bytes");
        assert!(first.contains("\"cached\":false"), "{first}");
        // With no result budget the memo holds nothing either.
        let memo = shared.memo.stats();
        assert_eq!((memo.hits, memo.misses, memo.entries), (0, 2, 0), "{memo:?}");
        assert_eq!(shared.cache.stats().misses, 2);
    }

    #[test]
    fn formatting_differences_share_a_cache_entry() {
        let shared = test_shared();
        process(&shared, REQ);
        // Same program, different whitespace and a comment.
        let noisy = REQ.replace("array a[64]\\n", "array   a[64]   // demand\\n\\n");
        let resp = process(&shared, &noisy);
        assert_eq!(resp.get("cached"), Some(&Json::Bool(true)), "{resp:?}");
        // Different raw text: the memo misses, the canonical key hits.
        let memo = shared.memo.stats();
        assert_eq!((memo.hits, memo.misses, memo.entries), (0, 2, 2), "{memo:?}");
    }

    #[test]
    fn parse_and_validate_errors_carry_distinct_codes() {
        let shared = test_shared();
        let bad_syntax = "{\"schema\":\"mbb-serve/1\",\"kind\":\"report\",\"program\":\"for i = 0, 3\\n  bogus[i] = 1\\nend for\\n\"}";
        let dup = "{\"schema\":\"mbb-serve/1\",\"kind\":\"report\",\"program\":\"array a[16]\\nfor i = 0, 3\\n  for i = 0, 3\\n    a[i] = 1\\n  end for\\nend for\\n\"}";
        // Each sent twice: an error is never memoised, so the repeat
        // parses again and fails the same way.
        for (line, code, exit) in [(bad_syntax, "parse", 3), (dup, "validate", 4)] {
            let (first, _) = run(&shared, line, Duration::ZERO);
            let (second, _) = run(&shared, line, Duration::ZERO);
            assert_eq!(first, second);
            let e = Json::parse(&first).unwrap();
            let err = e.get("error").unwrap();
            assert_eq!(err.get("code").and_then(|c| c.as_str()), Some(code));
            assert_eq!(err.get("exit_code"), Some(&Json::UInt(exit)));
        }
        assert_eq!(shared.metrics.errors_of(ErrorKind::Parse), 2);
        assert_eq!(shared.metrics.errors_of(ErrorKind::Validate), 2);
        // Failed analyses must not occupy cache or memo entries.
        assert_eq!(shared.cache.stats().entries, 0);
        let memo = shared.memo.stats();
        assert_eq!((memo.hits, memo.misses, memo.entries), (0, 4, 0), "{memo:?}");
    }

    #[test]
    fn exhaustive_fusion_beyond_its_bound_is_a_bad_request_not_a_panic() {
        let shared = test_shared();
        let mut program = String::from("scalar s = 0  // printed\n");
        for k in 0..=mbb_core::fusion::EXHAUSTIVE_MAX_NESTS {
            program +=
                &format!("array a{k}[64]\nfor i{k} = 0, 63\n  s = (s + a{k}[i{k}])\nend for\n");
        }
        for kind in ["optimize", "optimize-search"] {
            let line = Json::obj([
                ("schema", Json::str("mbb-serve/1")),
                ("kind", Json::str(kind)),
                ("program", Json::str(program.clone())),
                ("options", Json::obj([("fusion", Json::str("exhaustive"))])),
            ])
            .render_compact();
            let resp = process(&shared, &line);
            let err = resp.get("error").unwrap_or_else(|| panic!("{kind}: {resp:?}"));
            assert_eq!(err.get("code").and_then(|c| c.as_str()), Some("bad-request"), "{kind}");
            assert_eq!(err.get("exit_code"), Some(&Json::UInt(2)), "{kind}");
            let message = err.get("message").and_then(|m| m.as_str()).unwrap_or_default();
            assert!(message.contains("at most 12 nests"), "{kind}: {message}");
        }
        assert_eq!(shared.metrics.errors_of(ErrorKind::BadRequest), 2);
        assert_eq!(shared.metrics.errors_of(ErrorKind::Internal), 0);
        assert_eq!(shared.cache.stats().entries, 0);
    }

    #[test]
    fn metrics_request_reports_the_traffic_so_far() {
        let shared = test_shared();
        process(&shared, REQ);
        let m = process(&shared, "{\"schema\":\"mbb-serve/1\",\"kind\":\"metrics\"}");
        let text = m
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(|t| t.as_str())
            .expect("metrics text");
        assert!(text.contains("mbb_serve_requests_total{kind=\"report\"} 1"), "{text}");
        assert!(text.contains("mbb_serve_cache_misses_total 1"), "{text}");
        assert!(text.contains("mbb_serve_route_total{dest=\"local\"} 1"), "{text}");
    }

    #[test]
    fn shutdown_request_flags_a_drain() {
        let shared = test_shared();
        let (resp, drain) =
            run(&shared, "{\"schema\":\"mbb-serve/1\",\"kind\":\"shutdown\"}", Duration::ZERO);
        assert!(drain);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("result").and_then(|r| r.get("draining")), Some(&Json::Bool(true)));
    }

    #[test]
    fn id_echo_pairs_responses_with_requests() {
        let shared = test_shared();
        let with_id = REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"id\":\"r-1\"");
        let resp = process(&shared, &with_id);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("r-1"), "{resp:?}");
        // The id is not part of the cache key: the id-less twin hits.
        let twin = process(&shared, REQ);
        assert_eq!(twin.get("cached"), Some(&Json::Bool(true)), "{twin:?}");
        assert!(twin.get("id").is_none(), "{twin:?}");

        // Errors after parse echo the id too, so pipelined failures still
        // pair up.
        let bad = "{\"schema\":\"mbb-serve/1\",\"kind\":\"report\",\"id\":7,\"program\":\"for i = 0, 3\\n  bogus[i] = 1\\nend for\\n\"}";
        let e = process(&shared, bad);
        assert_eq!(e.get("ok"), Some(&Json::Bool(false)), "{e:?}");
        assert_eq!(e.get("id"), Some(&Json::UInt(7)), "{e:?}");
        // Pre-parse failures have no id to echo.
        let garbage = process(&shared, "not json");
        assert_eq!(garbage.get("ok"), Some(&Json::Bool(false)), "{garbage:?}");
        assert!(garbage.get("id").is_none(), "{garbage:?}");
    }

    #[test]
    fn cluster_stats_reports_the_single_node_shape() {
        let shared = test_shared();
        let resp =
            process(&shared, "{\"schema\":\"mbb-serve/1\",\"kind\":\"cluster-stats\",\"id\":1}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("id"), Some(&Json::UInt(1)), "{resp:?}");
        let r = resp.get("result").expect("result");
        assert_eq!(r.get("schema").and_then(Json::as_str), Some("mbb-cluster-stats/1"));
        assert_eq!(r.get("nodes"), Some(&Json::UInt(0)));
        assert_eq!(r.get("forwarded_in"), Some(&Json::UInt(0)));
    }

    #[test]
    fn forwarded_requests_are_counted_and_never_reforwarded() {
        let me = "127.0.0.1:1".to_string();
        let peer = "127.0.0.1:2".to_string();
        let shared = Arc::new(Shared::new(Config {
            peers: vec![me.clone(), peer],
            advertise: me,
            ..Config::default()
        }));
        let fwd = REQ.replace("{\"schema\"", "{\"fwd\":true,\"schema\"");
        let resp = process(&shared, &fwd);
        // Served locally regardless of ring ownership: a relay is one hop.
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(shared.metrics.forwarded_in_total.load(Ordering::Relaxed), 1);
        assert_eq!(shared.cluster.forwarded_in(), 1);
        assert_eq!(shared.metrics.route_forward_total.load(Ordering::Relaxed), 0);
        assert_eq!(shared.metrics.route_local_total.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tier_mode_falls_back_to_local_when_the_peer_is_down() {
        let me = "127.0.0.1:1".to_string();
        let peer = "127.0.0.1:2".to_string();
        let shared = Arc::new(Shared::new(Config {
            peers: vec![me.clone(), peer],
            advertise: me,
            ..Config::default()
        }));
        let resp = process(&shared, REQ);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let local = shared.metrics.route_local_total.load(Ordering::Relaxed);
        let fwd = shared.metrics.route_forward_total.load(Ordering::Relaxed);
        assert_eq!(local + fwd, 1, "exactly one routing decision");
        if fwd == 1 {
            // The peer is down: the relay failed and the local fallback
            // still produced a full answer.
            assert_eq!(shared.metrics.forward_errors_total.load(Ordering::Relaxed), 1);
        }
        assert_eq!(shared.cache.stats().entries, 1, "fallback fills the local cache");
    }

    /// ~2.6M innermost iterations: quick unbudgeted, far over any small
    /// step quota.
    const BIG_REQ: &str = "{\"schema\":\"mbb-serve/1\",\"kind\":\"optimize\",\"program\":\"array a[8]\\nscalar s = 0  // printed\\nfor i = 0, 327679\\n  for j = 0, 7\\n    s = (s + a[j])\\n  end for\\nend for\\n\"}";

    fn error_code(resp: &Json) -> Option<String> {
        resp.get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()).map(str::to_string)
    }

    #[test]
    fn config_step_cap_turns_unbounded_optimize_into_deadline_exceeded() {
        let shared =
            Arc::new(Shared::new(Config { request_max_steps: Some(4096), ..Config::default() }));
        let resp = process(&shared, BIG_REQ);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        assert_eq!(error_code(&resp).as_deref(), Some("deadline_exceeded"), "{resp:?}");
        assert_eq!(shared.metrics.errors_of(ErrorKind::DeadlineExceeded), 1);
        // Budget errors are not cached, and the worker serves normal
        // requests afterwards.
        assert_eq!(shared.cache.stats().entries, 0);
        let ok = process(&shared, REQ);
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok:?}");
    }

    #[test]
    fn envelope_budget_tightens_but_cannot_loosen_the_config_cap() {
        let shared = test_shared(); // default cap: 2^32 steps
        let tight = BIG_REQ.replace(
            "\"kind\":\"optimize\"",
            "\"kind\":\"optimize\",\"budget\":{\"max_steps\":4096}",
        );
        let resp = process(&shared, &tight);
        assert_eq!(error_code(&resp).as_deref(), Some("deadline_exceeded"), "{resp:?}");

        let shared =
            Arc::new(Shared::new(Config { request_max_steps: Some(4096), ..Config::default() }));
        let loose = BIG_REQ.replace(
            "\"kind\":\"optimize\"",
            "\"kind\":\"optimize\",\"budget\":{\"max_steps\":99999999999}",
        );
        let resp = process(&shared, &loose);
        assert_eq!(
            error_code(&resp).as_deref(),
            Some("deadline_exceeded"),
            "a client ask must not loosen the server cap: {resp:?}"
        );
    }

    #[test]
    fn a_waiter_stops_at_its_own_deadline_not_the_leaders() {
        // `budget` is not part of the cache key, so a request with a short
        // deadline can join the compute of an identical unbounded request.
        let _faults = crate::faults::TEST_LOCK.read().unwrap_or_else(|p| p.into_inner());
        let shared = test_shared();
        let req = protocol::parse_request(REQ).unwrap();
        let opts = req.flags.to_options(&req.machine).unwrap();
        let prog = analysis::load(req.program.as_deref().unwrap()).unwrap();
        let key = mbb_core::canon::cache_key(
            req.kind.as_str(),
            &opts.machine.name,
            &req.flags.key(),
            &analysis::canonical_source(&prog),
        );
        // The unbounded leader holds the key until released (or 5 s pass).
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (started, leading) = std::sync::mpsc::channel::<()>();
        let leader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared.cache.get_or_compute(key, || {
                    started.send(()).unwrap();
                    let _ = held.recv_timeout(Duration::from_secs(5));
                    Ok("{}".to_string())
                })
            })
        };
        leading.recv().unwrap();
        let tight = REQ
            .replace("\"kind\":\"report\"", "\"kind\":\"report\",\"budget\":{\"deadline_ms\":50}");
        let t = Instant::now();
        let (resp, _) =
            process_line(tight.as_bytes(), None, Duration::ZERO, &shared, Duration::ZERO);
        let waited = t.elapsed();
        let resp = Json::parse(&resp).unwrap();
        let _ = release.send(());
        leader.join().unwrap().unwrap();
        assert_eq!(error_code(&resp).as_deref(), Some("deadline_exceeded"), "{resp:?}");
        assert!(waited < Duration::from_millis(2500), "waited {waited:?} on a 50 ms deadline");
        assert_eq!(shared.cache.stats().hits, 0, "an abandoned wait is not a hit");
    }

    #[test]
    fn effective_budget_takes_the_tighter_axis() {
        let cfg = Config {
            request_max_steps: Some(1000),
            request_deadline: Some(Duration::from_millis(50)),
            ..Config::default()
        };
        let b =
            effective_budget(&cfg, RequestBudget { max_steps: Some(2000), deadline_ms: Some(10) });
        assert_eq!(b.max_steps, Some(1000));
        assert_eq!(b.wall, Some(Duration::from_millis(10)));
        let b = effective_budget(&cfg, RequestBudget::default());
        assert_eq!(b.max_steps, Some(1000));
        assert_eq!(b.wall, Some(Duration::from_millis(50)));
        let none = Config { request_max_steps: None, request_deadline: None, ..Config::default() };
        assert!(effective_budget(&none, RequestBudget::default()).is_unlimited());
    }

    #[test]
    fn injected_handler_panic_yields_internal_error_and_counts() {
        let _t = crate::faults::TEST_LOCK.write().unwrap_or_else(|p| p.into_inner());
        let shared = test_shared();
        let process = |line: &str| {
            Json::parse(
                &process_line(line.as_bytes(), None, Duration::ZERO, &shared, Duration::ZERO).0,
            )
            .unwrap()
        };
        let resp = {
            let _g = crate::faults::install(
                crate::faults::FaultPlan::new(3).rate(Site::HandlerPanic, 1024),
            );
            process(REQ)
        };
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        assert_eq!(error_code(&resp).as_deref(), Some("internal"), "{resp:?}");
        assert_eq!(shared.metrics.panics_total.load(Ordering::Relaxed), 1);
        assert_eq!(shared.metrics.errors_of(ErrorKind::Internal), 1);
        // Disarmed again: the same request now succeeds on the same state.
        let ok = process(REQ);
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok:?}");
    }

    #[test]
    fn profiled_requests_carry_spans_and_bypass_the_cache() {
        let shared = test_shared();
        let profiled = REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"profile\":true");

        // Warm the cache with the plain request first.
        let plain = process(&shared, REQ);
        assert_eq!(plain.get("cached"), Some(&Json::Bool(false)));

        let resp = process(&shared, &profiled);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        // Same program + machine, but per-execution data: no cache read...
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp:?}");
        let result = resp.get("result").expect("result object");
        let profile = result.get("profile").expect("profile object in result");
        let Some(Json::Arr(spans)) = profile.get("spans") else {
            panic!("profile.spans array missing: {profile:?}");
        };
        let names: Vec<&str> =
            spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"measure"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("nest:")), "{names:?}");
        assert!(profile.get("nest_table").is_some(), "{profile:?}");
        // ...and the analysis text/data agree with the unprofiled answer.
        assert_eq!(result.get("text"), plain.get("result").and_then(|r| r.get("text")));
        assert_eq!(result.get("data"), plain.get("result").and_then(|r| r.get("data")));
        // ...and no cache write either: still just the plain entry.
        assert_eq!(shared.cache.stats().entries, 1);
        assert_eq!(shared.cache.stats().hits, 0);

        // Phase timings landed in the metrics (bounded span names only).
        let (_, count) = shared.metrics.phase_of("measure").expect("measure phase recorded");
        assert_eq!(count, 1);

        // A later plain request still hits the warm entry.
        let again = process(&shared, REQ);
        assert_eq!(again.get("cached"), Some(&Json::Bool(true)), "{again:?}");

        // A profiled repeat is keyed from the memo but still parses, runs
        // and carries its own profile.
        let memo_hits = shared.memo.stats().hits;
        let repeat = process(&shared, &profiled);
        assert_eq!(shared.memo.stats().hits, memo_hits + 1);
        assert_eq!(repeat.get("cached"), Some(&Json::Bool(false)), "{repeat:?}");
        let result = repeat.get("result").expect("result object");
        assert!(result.get("profile").and_then(|p| p.get("spans")).is_some(), "{result:?}");
        assert_eq!(result.get("text"), plain.get("result").and_then(|r| r.get("text")));
        assert_eq!(shared.metrics.phase_of("measure").map(|(_, n)| n), Some(2));
    }

    #[test]
    fn profiled_optimize_reports_before_and_after_tables() {
        let shared = test_shared();
        let req = REQ.replace("\"kind\":\"report\"", "\"kind\":\"optimize\",\"profile\":true");
        let resp = process(&shared, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let profile = resp.get("result").and_then(|r| r.get("profile")).expect("profile in result");
        assert!(profile.get("nest_table_before").is_some(), "{profile:?}");
        assert!(profile.get("nest_table_after").is_some(), "{profile:?}");
        assert_eq!(shared.cache.stats().entries, 0, "profiled runs must not populate the cache");
    }

    #[test]
    fn machine_scaling_does_not_collide_in_the_cache() {
        let shared = test_shared();
        let scaled =
            REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"machine\":\"origin/64\"");
        process(&shared, REQ);
        let resp = process(&shared, &scaled);
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp:?}");
        // But the alias `origin2000` collapses onto `origin`.
        let alias =
            REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"machine\":\"origin2000\"");
        let resp = process(&shared, &alias);
        assert_eq!(resp.get("cached"), Some(&Json::Bool(true)), "{resp:?}");
    }

    #[test]
    fn out_of_range_machine_scales_are_bad_requests_not_panics() {
        let shared = test_shared();
        for machine in ["origin/0", "origin/100000000"] {
            let req = REQ.replace(
                "\"kind\":\"report\"",
                &format!("\"kind\":\"report\",\"machine\":\"{machine}\""),
            );
            let resp = process(&shared, &req);
            assert_eq!(error_code(&resp).as_deref(), Some("bad-request"), "{machine}: {resp:?}");
        }
        assert_eq!(shared.metrics.panics_total.load(Ordering::Relaxed), 0);
        assert_eq!(shared.metrics.errors_of(ErrorKind::BadRequest), 2);
    }

    /// Two fusable nests: a producer into `res` and a reduction over it.
    const SEARCH_REQ: &str = "{\"schema\":\"mbb-serve/1\",\"kind\":\"optimize-search\",\"program\":\"array res[64]\\narray data[64]\\nscalar sum = 0  // printed\\nfor i = 0, 63\\n  res[i] = (res[i] + data[i])\\nend for\\nfor j = 0, 63\\n  sum = (sum + res[j])\\nend for\\n\",\"options\":{\"beam\":2,\"search_steps\":2}}";

    #[test]
    fn optimize_search_round_trips_and_repeats_byte_identically_from_cache() {
        let shared = test_shared();
        let (first_raw, _) = run(&shared, SEARCH_REQ, Duration::ZERO);
        let first = Json::parse(&first_raw).expect("valid JSON");
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let result = first.get("result").expect("result in response");
        let text = result.get("text").and_then(|t| t.as_str()).expect("text in result");
        assert!(text.contains("winning sequence:"), "{text}");
        assert!(text.contains("equivalence:      verified"), "{text}");
        let search = result.get("data").and_then(|d| d.get("search")).expect("search stats");
        assert!(search.get("best_spec").is_some(), "{search:?}");
        assert!(search.get("fixed_spec").is_some(), "{search:?}");

        // A second identical request is a cache hit, and the response
        // bytes differ from the miss only in the `cached` flag.
        let (second_raw, _) = run(&shared, SEARCH_REQ, Duration::ZERO);
        let second = Json::parse(&second_raw).expect("valid JSON");
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)), "{second:?}");
        assert_eq!(
            first_raw.replace("\"cached\":false", "\"cached\":true"),
            second_raw,
            "cache hit must replay the response byte-for-byte"
        );
        assert_eq!(shared.cache.stats().hits, 1);
        assert_eq!(shared.metrics.requests_of(Kind::OptimizeSearch), 2);
    }

    #[test]
    fn queue_expiry_answers_deadline_exceeded_without_consulting_analysis() {
        let shared = Arc::new(Shared::new(Config {
            request_deadline: Some(Duration::from_millis(50)),
            ..Config::default()
        }));
        // A program that *fails validation* (duplicate loop variable): if
        // the expired request ever reached `analysis::load`, the answer
        // would be a `validate` error, not `deadline_exceeded`.
        let invalid = "{\"schema\":\"mbb-serve/1\",\"kind\":\"report\",\"program\":\"array a[16]\\nfor i = 0, 3\\n  for i = 0, 3\\n    a[i] = 1\\n  end for\\nend for\\n\"}";
        let (resp, _) = run(&shared, invalid, Duration::from_millis(200));
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(error_code(&doc).as_deref(), Some("deadline_exceeded"), "{doc:?}");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("exit_code")),
            Some(&Json::UInt(6)),
            "{doc:?}"
        );
        assert_eq!(shared.metrics.shed_of(Class::Report, Reason::Expired), 1);
        assert_eq!(shared.metrics.errors_of(ErrorKind::Validate), 0, "analysis was consulted");
        assert_eq!(shared.cache.stats().entries, 0);
        // The same line un-aged is a plain validate error: the expiry
        // branch, not the program, produced the deadline answer.
        let fresh = process(&shared, invalid);
        assert_eq!(error_code(&fresh).as_deref(), Some("validate"), "{fresh:?}");
    }

    #[test]
    fn queue_age_tightens_the_remaining_wall_deadline() {
        // 50ms deadline minus 40ms queueing leaves ~10ms: far too little
        // for the ~2.6M-iteration program, so admission rejects it.
        let shared = Arc::new(Shared::new(Config {
            request_deadline: Some(Duration::from_millis(50)),
            ..Config::default()
        }));
        let (resp, _) = run(&shared, BIG_REQ, Duration::from_millis(40));
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(error_code(&doc).as_deref(), Some("deadline_exceeded"), "{doc:?}");
        assert_eq!(shared.metrics.shed_of(Class::Optimize, Reason::Admission), 1);
    }

    #[test]
    fn admission_rejects_oversized_programs() {
        let cfg = Config { request_deadline: Some(Duration::from_millis(1)), ..Config::default() };
        let shared = Arc::new(Shared::new(cfg));
        // The repeat is admitted or refused on the memoised estimate,
        // exactly as the first request was on the parsed program.
        for sent in 1..=2 {
            let resp = process(&shared, BIG_REQ);
            assert_eq!(error_code(&resp).as_deref(), Some("deadline_exceeded"), "{resp:?}");
            assert_eq!(shared.metrics.shed_of(Class::Optimize, Reason::Admission), sent);
            let msg = resp
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(|m| m.as_str())
                .unwrap_or_default()
                .to_string();
            assert!(msg.starts_with("admission:"), "{msg}");
        }
        let memo = shared.memo.stats();
        assert_eq!((memo.hits, memo.misses), (1, 1), "{memo:?}");
    }

    #[test]
    fn class_thresholds_shed_low_priority_traffic_first() {
        let shared = Arc::new(Shared::new(Config { queue_depth: 10, ..Config::default() }));
        // Pretend the request queue sits at 7/10: past search (30%) and
        // optimize (60%), under report (90%) and admin (100%).
        shared.metrics.queue_depth.store(7, Ordering::Relaxed);
        let search = process(&shared, SEARCH_REQ);
        assert_eq!(error_code(&search).as_deref(), Some("busy"), "{search:?}");
        let opt = process(&shared, &REQ.replace("\"kind\":\"report\"", "\"kind\":\"optimize\""));
        assert_eq!(error_code(&opt).as_deref(), Some("busy"), "{opt:?}");
        let report = process(&shared, REQ);
        assert_eq!(report.get("ok"), Some(&Json::Bool(true)), "{report:?}");
        let health = process(&shared, "{\"schema\":\"mbb-serve/1\",\"kind\":\"health\"}");
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)), "{health:?}");
        assert_eq!(shared.metrics.shed_of(Class::Search, Reason::Saturation), 1);
        assert_eq!(shared.metrics.shed_of(Class::Optimize, Reason::Saturation), 1);
        assert_eq!(shared.metrics.shed_of(Class::Report, Reason::Saturation), 0);
    }

    #[test]
    fn health_reports_status_level_and_shed_totals() {
        let shared = test_shared();
        let resp = process(&shared, "{\"schema\":\"mbb-serve/1\",\"kind\":\"health\"}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let r = resp.get("result").expect("result");
        assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(r.get("level"), Some(&Json::UInt(0)));
        assert_eq!(r.get("max_level"), Some(&Json::UInt(0)));
        assert_eq!(r.get("shed_total"), Some(&Json::UInt(0)));
        assert!(r.get("queue_pressure").is_some() && r.get("busy_pressure").is_some(), "{r:?}");

        // The high-water mark survives after the live level drops back.
        shared.metrics.brownout_level.store(2, Ordering::Relaxed);
        shared.metrics.brownout_level_max.fetch_max(2, Ordering::Relaxed);
        shared.metrics.brownout_level.store(0, Ordering::Relaxed);
        let resp = process(&shared, "{\"schema\":\"mbb-serve/1\",\"kind\":\"health\"}");
        let r = resp.get("result").expect("result");
        assert_eq!(r.get("level"), Some(&Json::UInt(0)));
        assert_eq!(r.get("max_level"), Some(&Json::UInt(2)));
    }

    #[test]
    fn brownout_level_one_drops_profile_and_marks_the_response_degraded() {
        let shared = test_shared();
        shared.metrics.brownout_level.store(1, Ordering::Relaxed);
        let profiled = REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"profile\":true");
        let resp = process(&shared, &profiled);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)));
        let degraded = resp.get("degraded").expect("degraded marker");
        assert_eq!(degraded.get("level"), Some(&Json::UInt(1)), "{degraded:?}");
        assert_eq!(
            degraded.get("actions"),
            Some(&Json::Arr(vec![Json::str("no-profile")])),
            "{degraded:?}"
        );
        // Profile splicing was skipped: no profile object in the result.
        assert!(resp.get("result").and_then(|r| r.get("profile")).is_none(), "{resp:?}");
        // Degraded responses bypass the cache entirely.
        assert_eq!(shared.cache.stats().entries, 0);
        assert_eq!(shared.metrics.degraded_of(DegradeAction::NoProfile), 1);
        // An unprofiled request at level 1 is untouched: cached, no marker.
        // (The controller re-publishes the live level after every request,
        // so pin it again for each request under test.)
        shared.metrics.brownout_level.store(1, Ordering::Relaxed);
        let plain = process(&shared, REQ);
        assert!(plain.get("degraded").is_none(), "{plain:?}");
        assert_eq!(plain.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(shared.cache.stats().entries, 1);
    }

    #[test]
    fn brownout_level_two_clamps_search_and_level_three_sheds_it() {
        let shared = test_shared();
        // Warm the cache at level 0 with a wide search.
        let wide = SEARCH_REQ.replace(
            "\"options\":{\"beam\":2,\"search_steps\":2}",
            "\"options\":{\"beam\":4,\"search_steps\":5}",
        );
        let (baseline_raw, _) = run(&shared, &wide, Duration::ZERO);
        let baseline = Json::parse(&baseline_raw).unwrap();
        assert_eq!(baseline.get("ok"), Some(&Json::Bool(true)), "{baseline:?}");

        shared.metrics.brownout_level.store(2, Ordering::Relaxed);
        let resp = process(&shared, &wide);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let degraded = resp.get("degraded").expect("degraded marker at level 2");
        assert_eq!(
            degraded.get("actions"),
            Some(&Json::Arr(vec![Json::str("search-clamp")])),
            "{degraded:?}"
        );
        // Clamped runs never read or write the cache, even with a warm
        // entry for the same request line.
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp:?}");
        assert_eq!(shared.cache.stats().hits, 0);
        assert_eq!(shared.metrics.degraded_of(DegradeAction::SearchClamp), 1);
        // A request already within the clamp is served normally.  (Pin the
        // level again: the controller re-publishes it after each request.)
        shared.metrics.brownout_level.store(2, Ordering::Relaxed);
        let narrow = process(&shared, SEARCH_REQ);
        assert!(narrow.get("degraded").is_none(), "{narrow:?}");

        shared.metrics.brownout_level.store(3, Ordering::Relaxed);
        let shed = process(&shared, SEARCH_REQ);
        assert_eq!(error_code(&shed).as_deref(), Some("busy"), "{shed:?}");
        assert_eq!(shared.metrics.shed_of(Class::Search, Reason::Brownout), 1);
        // Higher classes still flow at level 3 (with the profile action
        // available but unused here).
        shared.metrics.brownout_level.store(3, Ordering::Relaxed);
        let report = process(&shared, REQ);
        assert_eq!(report.get("ok"), Some(&Json::Bool(true)), "{report:?}");

        // Back at level 0 the warm entry replays byte-identically.
        shared.metrics.brownout_level.store(0, Ordering::Relaxed);
        let (hit_raw, _) = run(&shared, &wide, Duration::ZERO);
        assert_eq!(
            baseline_raw.replace("\"cached\":false", "\"cached\":true"),
            hit_raw,
            "cache bytes must be untouched by intervening brown-out traffic"
        );
    }

    #[test]
    fn profiled_searches_fold_their_candidate_spans_into_one_score_phase() {
        let shared = test_shared();
        let other = SEARCH_REQ.replace("array res[64]", "array res[80]");
        for req in [SEARCH_REQ, other.as_str()] {
            let profiled = req.replace("\"kind\"", "\"profile\":true,\"kind\"");
            let resp = process(&shared, &profiled);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
            // The profile keeps each candidate's own span.
            let profile = resp.get("result").and_then(|r| r.get("profile"));
            let Some(Json::Arr(spans)) = profile.and_then(|p| p.get("spans")) else {
                panic!("profile.spans array missing: {resp:?}");
            };
            let names: Vec<&str> =
                spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
            assert!(names.iter().any(|n| n.starts_with("score:")), "{names:?}");
        }
        let text = shared.metrics.render(shared.cache.stats(), shared.memo.stats());
        assert!(!text.contains("span=\"score:"), "per-candidate labels leaked:\n{text}");
        let (_, scored) = shared.metrics.phase_of("score").expect("one score phase");
        assert!(scored >= 2, "{scored}");
        assert_eq!(text.matches("mbb_serve_phase_seconds_count{span=\"score\"}").count(), 1);
    }

    #[test]
    fn optimize_search_beam_variants_key_separately_but_defaults_collapse() {
        let shared = test_shared();
        process(&shared, SEARCH_REQ);
        // Different beam: a different search, so a different cache entry.
        let wider = SEARCH_REQ.replace("\"beam\":2", "\"beam\":3");
        let resp = process(&shared, &wider);
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp:?}");
        // Spelling out the defaults collapses onto omitting them.
        let spelled = SEARCH_REQ.replace(
            "\"options\":{\"beam\":2,\"search_steps\":2}",
            "\"options\":{\"beam\":4,\"search_steps\":5}",
        );
        let explicit = process(&shared, &spelled);
        let implicit = process(
            &shared,
            &SEARCH_REQ.replace(",\"options\":{\"beam\":2,\"search_steps\":2}", ""),
        );
        assert_eq!(explicit.get("cached"), Some(&Json::Bool(false)), "{explicit:?}");
        assert_eq!(implicit.get("cached"), Some(&Json::Bool(true)), "{implicit:?}");
    }

    #[test]
    fn optimize_search_rejects_out_of_range_options() {
        let shared = test_shared();
        let huge = SEARCH_REQ.replace("\"beam\":2", "\"beam\":65");
        let resp = process(&shared, &huge);
        assert_eq!(error_code(&resp).as_deref(), Some("bad-request"), "{resp:?}");
        let zero = SEARCH_REQ.replace("\"search_steps\":2", "\"search_steps\":0");
        let resp = process(&shared, &zero);
        assert_eq!(error_code(&resp).as_deref(), Some("bad-request"), "{resp:?}");
    }

    #[test]
    fn optimize_search_honours_a_request_deadline() {
        let shared = test_shared();
        let big_search = BIG_REQ.replace(
            "\"kind\":\"optimize\"",
            "\"kind\":\"optimize-search\",\"budget\":{\"deadline_ms\":1}",
        );
        let resp = process(&shared, &big_search);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        let err = resp.get("error").expect("error payload");
        assert_eq!(err.get("code").and_then(|c| c.as_str()), Some("deadline_exceeded"));
        assert_eq!(err.get("exit_code"), Some(&Json::UInt(6)));
        // Budget errors must not occupy cache entries.
        assert_eq!(shared.cache.stats().entries, 0);
    }

    /// Two triangular nests: admission assumes 2^16 trips for each, so a
    /// `report` is estimated at ~2 ms while it really runs ~70 steps.
    const TRI_REQ: &str = "{\"schema\":\"mbb-serve/1\",\"kind\":\"report\",\"program\":\"array a[8]\\nscalar s = 0  // printed\\nfor i = 0, 7\\n  for j = 0, i\\n    s = (s + a[j])\\n  end for\\nend for\\nfor k = 0, 7\\n  for m = 0, k\\n    s = (s + a[m])\\n  end for\\nend for\\n\"}";

    /// A connection's shared half over a real loopback socket, and the
    /// client end that reads its responses.
    fn conn_pair() -> (Arc<ConnShared>, std::io::BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let conn = Arc::new(ConnShared {
            writer: Mutex::new(Writer { stream: server, tail: Vec::new(), sent: 0 }),
            inflight: AtomicUsize::new(0),
            backlogged: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        });
        (conn, std::io::BufReader::new(client))
    }

    /// The counters a scrape shows, less the ones a timing or the loop
    /// itself moves: CPU-time sums and buckets, and the loop answers.
    fn counters(shared: &Shared) -> String {
        shared
            .metrics
            .render(shared.cache.stats(), shared.memo.stats())
            .lines()
            .filter(|l| {
                !l.contains("_seconds_bucket")
                    && !l.contains("_seconds_sum")
                    && !l.contains("loop_answers_total")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Sends `probe`, after `warm`, to two servers built from `cfg` with
    /// the brown-out level pinned at `level`: one as the event loop does
    /// (its attempt, and a worker for a deferred line, carrying the
    /// loop's decode) and one down the worker path alone.  Asserts that a
    /// deferred attempt counted nothing and that both servers end with
    /// the same counters; returns both responses and whether the loop
    /// answered.
    fn twin(cfg: &Config, warm: &[&str], level: u64, probe: &str) -> (String, String, bool) {
        let _faults = crate::faults::TEST_LOCK.read().unwrap_or_else(|p| p.into_inner());
        let [via_loop, via_worker] = [(); 2].map(|_| {
            let shared = Shared::new(cfg.clone());
            for line in warm {
                process_line(line.as_bytes(), None, Duration::ZERO, &shared, Duration::ZERO);
            }
            shared.metrics.brownout_level.store(level, Ordering::Relaxed);
            shared
        });
        let (conn, mut reader) = conn_pair();
        let before = counters(&via_loop);
        let answered = match attempt(probe.as_bytes(), &conn, &via_loop) {
            Attempt::Answered => true,
            Attempt::Deferred(decoded, spent) => {
                assert_eq!(counters(&via_loop), before, "a deferred attempt counted");
                assert!(decoded.is_some(), "the loop's decode rides along");
                let (mut resp, _) =
                    process_line(probe.as_bytes(), decoded, spent, &via_loop, Duration::ZERO);
                resp.push('\n');
                write_line(&conn, resp.as_bytes(), Duration::from_secs(5));
                false
            }
        };
        let mut looped = String::new();
        std::io::BufRead::read_line(&mut reader, &mut looped).unwrap();
        let (worked, _) =
            process_line(probe.as_bytes(), None, Duration::ZERO, &via_worker, Duration::ZERO);
        assert_eq!(counters(&via_loop), counters(&via_worker), "counters diverged for {probe}");
        let loop_answers = via_loop.metrics.loop_answers_total.load(Ordering::Relaxed);
        assert_eq!(loop_answers, u64::from(answered));
        (looped.trim_end().to_string(), worked, answered)
    }

    #[test]
    fn a_loop_hit_leaves_the_bytes_and_counters_of_a_worker_hit() {
        let cfg = Config { brownout: false, ..Config::default() };
        let with_id = REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"id\":\"r-9\"");
        for (probe, level) in [(REQ, 0), (with_id.as_str(), 0), (REQ, 1), (REQ, 2), (REQ, 3)] {
            let (looped, worked, answered) = twin(&cfg, &[REQ], level, probe);
            assert!(answered, "a plain repeat at level {level} is answered on the loop");
            assert_eq!(looped, worked, "level {level}");
            assert!(looped.contains("\"cached\":true"), "{looped}");
        }
    }

    #[test]
    fn the_loop_defers_everything_but_a_plain_hit_and_the_bytes_stay() {
        let cfg = Config { brownout: false, ..Config::default() };
        let wide = SEARCH_REQ.replace(
            "\"options\":{\"beam\":2,\"search_steps\":2}",
            "\"options\":{\"beam\":4,\"search_steps\":5}",
        );
        let noisy = REQ.replace("array a[64]\\n", "array   a[64]   // demand\\n\\n");
        let refused = TRI_REQ
            .replace("\"kind\":\"report\"", "\"kind\":\"report\",\"budget\":{\"deadline_ms\":1}");
        let cases: [(&str, &[&str], u64, &str); 7] = [
            ("an admission refusal", &[TRI_REQ], 0, &refused),
            ("a clamped search", &[&wide], 2, &wide),
            ("a shed search", &[SEARCH_REQ], 3, SEARCH_REQ),
            ("a memo miss", &[REQ], 0, &noisy),
            ("a result miss", &[], 0, REQ),
            ("an admin kind", &[], 0, "{\"schema\":\"mbb-serve/1\",\"kind\":\"machines\"}"),
            ("a malformed line", &[], 0, "{\"schema\":\"mbb-serve/1\""),
        ];
        for (what, warm, level, probe) in cases {
            let (looped, worked, answered) = twin(&cfg, warm, level, probe);
            assert!(!answered, "{what} was answered on the loop");
            assert_eq!(looped, worked, "{what}");
        }
        let (looped, ..) = twin(&cfg, &[TRI_REQ], 0, &refused);
        assert!(looped.contains("admission:"), "{looped}");
    }

    #[test]
    fn a_profiled_repeat_is_deferred_and_still_profiled() {
        let cfg = Config { brownout: false, ..Config::default() };
        let profiled = REQ.replace("\"kind\":\"report\"", "\"kind\":\"report\",\"profile\":true");
        let (looped, _, answered) = twin(&cfg, &[REQ], 0, &profiled);
        assert!(!answered);
        let doc = Json::parse(&looped).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)), "{looped}");
        assert!(doc.get("result").and_then(|r| r.get("profile")).is_some(), "{looped}");
    }

    #[test]
    fn a_busy_writer_defers_the_hit_before_counting() {
        let _faults = crate::faults::TEST_LOCK.read().unwrap_or_else(|p| p.into_inner());
        let shared = Shared::new(Config { brownout: false, ..Config::default() });
        process_line(REQ.as_bytes(), None, Duration::ZERO, &shared, Duration::ZERO);
        let (conn, _reader) = conn_pair();
        let before = counters(&shared);
        let held = lock(&conn.writer);
        assert!(matches!(
            attempt(REQ.as_bytes(), &conn, &shared),
            Attempt::Deferred(Some(Ok(_)), _)
        ));
        drop(held);
        assert_eq!(counters(&shared), before);
        assert!(matches!(attempt(REQ.as_bytes(), &conn, &shared), Attempt::Answered));
    }
}
