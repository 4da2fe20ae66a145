//! JSON-lines-over-TCP front end.
//!
//! One request per line, one *final* response line per request, answered
//! in order per connection; concurrency comes from concurrent
//! connections feeding the shared worker pool. Requests that opt in via
//! a `progress` spec additionally get zero or more `{"type":"progress"}`
//! lines before their final line — same connection, same order, never
//! interleaved with another request's frames (one connection serves one
//! request at a time). Malformed lines get a structured `error` response
//! instead of killing the connection (or a worker). A client that
//! disconnects before its response is delivered — or mid-stream between
//! progress frames — cancels its in-flight work cooperatively; the write
//! failure is absorbed.
//!
//! Shutdown: stop accepting, wake connection readers via their read
//! timeout, drain the service (everything admitted is still answered),
//! then join every thread.

use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::journal::{FollowEvent, JournalFollower};
use crate::json::{obj, Value};
use crate::protocol::{ErrorKind, Frame, Request, RequestBody, Response};
use crate::service::{Pending, Service, SvcConfig};

/// Poll interval connection readers use to observe shutdown.
const READ_POLL: Duration = Duration::from_millis(50);
/// A request line longer than this is refused as malformed.
const MAX_LINE_BYTES: usize = 1 << 20;
/// Cadence of replication heartbeat frames and of the primary's
/// journal-sibling heartbeat file. Standbys declare the primary dead
/// after missing a few of these (see `standby::DEAD_AFTER_BEATS`).
pub const REPL_HEARTBEAT: Duration = Duration::from_millis(150);
/// How often a replication stream polls the journal for new records.
const REPL_POLL: Duration = Duration::from_millis(20);

/// Path of the primary-liveness heartbeat file, a sibling of the
/// journal (`<journal>.hb`). File-follow standbys watch its mtime.
pub fn heartbeat_path(journal: &std::path::Path) -> PathBuf {
    let mut name = journal.file_name().unwrap_or_default().to_os_string();
    name.push(".hb");
    journal.with_file_name(name)
}

struct ServerShared {
    service: Service,
    stopping: AtomicBool,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Replication sessions ever opened; stream faults from the fault
    /// plan hit only session 0, so a reconnecting standby recovers (the
    /// injected drop/stall models a transient network failure, not a
    /// permanently broken path).
    repl_sessions: std::sync::atomic::AtomicU64,
}

/// A running TCP server; dropping it (or calling
/// [`shutdown`](ServerHandle::shutdown)) drains and stops everything.
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    heartbeat_thread: Option<std::thread::JoinHandle<()>>,
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// requests on top of a freshly started [`Service`].
pub fn serve(addr: &str, config: SvcConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let journal_path = config.journal.as_ref().map(|j| j.path.clone());
    let shared = Arc::new(ServerShared {
        service: Service::try_start(config)?,
        stopping: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
        repl_sessions: std::sync::atomic::AtomicU64::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("svc-accept".into())
        .spawn(move || {
            let conn_shared = Arc::clone(&accept_shared);
            let serve = move |stream| connection_loop(stream, &conn_shared);
            let (stopping, conns) = (&accept_shared.stopping, &accept_shared.conns);
            accept_loop(&listener, READ_POLL, "svc-conn", stopping, conns, serve);
        })
        .expect("spawn acceptor");
    // Journalled primaries advertise liveness by touching `<journal>.hb`
    // every heartbeat; a fault-plan "crash" (degraded journal) stops the
    // beat so file-follow standbys see the primary as dead even though
    // the test process is still alive.
    let heartbeat_thread = journal_path.map(|path| {
        let hb_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("svc-heartbeat".into())
            .spawn(move || heartbeat_loop(&path, &hb_shared))
            .expect("spawn heartbeat")
    });
    Ok(ServerHandle { shared, addr: local, accept_thread: Some(accept_thread), heartbeat_thread })
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics of the underlying service.
    pub fn metrics(&self) -> crate::stats::MetricsSnapshot {
        self.shared.service.metrics()
    }

    /// Direct access to the underlying service (in-process submissions
    /// share the pool and cache with TCP clients).
    pub fn service(&self) -> &Service {
        &self.shared.service
    }

    /// Connection-thread handles currently tracked by the acceptor.
    /// Finished handles are reaped on each accept, so under steady churn
    /// this stays bounded by the number of *live* connections (plus any
    /// that finished since the last accept) instead of growing by one
    /// per connection ever served.
    pub fn tracked_connections(&self) -> usize {
        self.shared.conns.lock().expect("conns lock").len()
    }

    /// Graceful shutdown: refuse new connections and requests, drain
    /// admitted work, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.heartbeat_thread.take() {
            let _ = t.join();
        }
        // Drain admitted work; pending replies unblock connection
        // threads waiting on them.
        self.shared.service.shutdown();
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for c in conns {
            let _ = c.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accepts connections on the nonblocking `listener` until `stopping`
/// is set, serving each on its own thread named `name` and sleeping
/// `poll` between empty accepts. Both front ends (primary and standby)
/// run it. Finished connection threads are joined on each accept:
/// without the sweep a long-lived server kept one JoinHandle per
/// connection it ever served until shutdown.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    poll: Duration,
    name: &str,
    stopping: &AtomicBool,
    conns: &Mutex<Vec<std::thread::JoinHandle<()>>>,
    serve: impl Fn(TcpStream) + Clone + Send + 'static,
) {
    while !stopping.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let serve = serve.clone();
                let handle = std::thread::Builder::new()
                    .name(name.into())
                    .spawn(move || serve(stream))
                    .expect("spawn connection");
                let mut conns = conns.lock().expect("conns lock");
                let (done, live): (Vec<_>, Vec<_>) = conns.drain(..).partition(|h| h.is_finished());
                for h in done {
                    let _ = h.join(); // instant: the thread has finished
                }
                *conns = live;
                conns.push(handle);
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(_) => break,
        }
    }
}

/// Touches the primary heartbeat file every [`REPL_HEARTBEAT`] until
/// shutdown, and stops beating for good once the journal degrades
/// (fencing, fault-plan crash, or repeated fsync failure).
fn heartbeat_loop(journal: &std::path::Path, shared: &Arc<ServerShared>) {
    let path = heartbeat_path(journal);
    let mut tick: u64 = 0;
    while !shared.stopping.load(Ordering::Acquire) {
        let degraded = shared.service.journal_stats().is_some_and(|s| s.degraded);
        if degraded {
            break;
        }
        tick += 1;
        let epoch = shared.service.journal_stats().map_or(0, |s| s.epoch);
        let _ = std::fs::write(&path, format!("{{\"tick\":{tick},\"epoch\":{epoch}}}\n"));
        std::thread::sleep(REPL_HEARTBEAT);
    }
}

/// Serves one replication stream on the connection's own thread.
///
/// Frames, one JSON object per line:
/// - `{"type":"repl-record","line":"<raw journal line>"}` — a journal
///   record exactly as written (checksum seal included);
/// - `{"type":"repl-reset"}` — the journal rotated or truncated; the
///   standby must discard its image and rebuild from the records that
///   follow;
/// - `{"type":"repl-corrupt"}` — a complete-but-corrupt line was
///   skipped (the standby counts it, mirroring replay quarantine);
/// - `{"type":"repl-hb","epoch":E,"appended":N,"degraded":0|1}` — sent
///   every [`REPL_HEARTBEAT`] even when idle; `degraded:1` tells the
///   standby the primary's journal is dead (crashed or fenced).
///
/// Fault hooks from the journal's [`SvcFaultPlan`](crate::fault::SvcFaultPlan):
/// `drop_stream_after` closes the connection after N record frames;
/// `stall_stream_after` keeps it open but silent (no heartbeats), so
/// the standby must detect death by timeout rather than EOF.
fn replication_loop(stream: &mut TcpStream, shared: &Arc<ServerShared>, id: u64) {
    let Some(journal_cfg) = shared.service.config().journal.clone() else {
        return;
    };
    // Stream faults are one-shot: only the first replication session
    // ever opened sees them, so a standby's reconnect makes progress.
    let session = shared.repl_sessions.fetch_add(1, Ordering::SeqCst);
    let fault = if session == 0 {
        journal_cfg.fault.unwrap_or_default()
    } else {
        crate::fault::SvcFaultPlan::default()
    };
    let mut follower = JournalFollower::new(&journal_cfg.path);
    let mut sent_records: u64 = 0;
    let mut last_hb: Option<Instant> = None;
    loop {
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        let events = follower.poll().unwrap_or_default();
        for event in events {
            let frame = match event {
                FollowEvent::Record { line, .. } => {
                    obj(vec![("type", "repl-record".into()), ("line", line.into())])
                }
                FollowEvent::Reset => obj(vec![("type", "repl-reset".into())]),
                FollowEvent::Corrupt { .. } => obj(vec![("type", "repl-corrupt".into())]),
            };
            let is_record =
                matches!(frame.get("type").and_then(Value::as_str), Some("repl-record"));
            if write_line(stream, &frame.to_json()).is_err() {
                return; // standby gone
            }
            if is_record {
                sent_records += 1;
                if fault.drop_stream_after.is_some_and(|n| sent_records >= n) {
                    return; // injected drop: close the connection
                }
                if fault.stall_stream_after.is_some_and(|n| sent_records >= n) {
                    // Injected stall: hold the connection open, send
                    // nothing more (not even heartbeats).
                    while !shared.stopping.load(Ordering::Acquire) {
                        std::thread::sleep(READ_POLL);
                    }
                    return;
                }
            }
        }
        if last_hb.is_none_or(|t| t.elapsed() >= REPL_HEARTBEAT) {
            let stats = shared.service.journal_stats().unwrap_or_default();
            let hb = obj(vec![
                ("type", "repl-hb".into()),
                ("id", id.into()),
                ("epoch", stats.epoch.into()),
                ("appended", stats.appended.into()),
                ("degraded", u64::from(stats.degraded).into()),
            ]);
            if write_line(stream, &hb.to_json()).is_err() {
                return;
            }
            last_hb = Some(Instant::now());
        }
        std::thread::sleep(REPL_POLL);
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let mut lines = LineReader::new(&stream, READ_POLL);
    let stopping = || shared.stopping.load(Ordering::Acquire);
    while let Some(line) = lines.next_line(&mut stream, stopping) {
        // A panic while handling one request must cost exactly that
        // request, not the connection (and certainly not the server):
        // contain it and answer with a structured error.
        let handled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_line(shared, &line)))
                .unwrap_or_else(|_| {
                    Handled::One(Response::Error {
                        id: line_request_id(&line),
                        kind: ErrorKind::Internal,
                        message: "request handler panicked".into(),
                    })
                });
        match handled {
            Handled::One(response) => {
                if write_line(&mut stream, &response.to_json()).is_err() {
                    return; // client gone mid-response; nothing to deliver
                }
            }
            Handled::Replicate(id) => {
                // The connection is now a one-way record stream; it ends
                // when the standby disconnects, the server stops, or a
                // fault plan drops it.
                replication_loop(&mut stream, shared, id);
                return;
            }
            Handled::Stream(pending) => {
                // Drain the reply frame-by-frame: zero or more progress
                // lines, then exactly one final line. A write failure
                // means the watcher is gone — cancel the in-flight work
                // so a dropped `--progress` session does not keep burning
                // the pool, and let the worker's remaining sends fail
                // harmlessly into the dropped receiver.
                loop {
                    match pending.recv_frame() {
                        Frame::Progress(p) => {
                            if write_line(&mut stream, &p.to_json()).is_err() {
                                pending.cancel();
                                return;
                            }
                        }
                        Frame::Final(response) => {
                            if write_line(&mut stream, &response.to_json()).is_err() {
                                return;
                            }
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Newline framing of request lines, shared by the primary's and the
/// standby's front ends: buffers reads, splits on `\n`, skips blank
/// lines, observes shutdown at each read timeout, and refuses a line
/// that outgrows [`MAX_LINE_BYTES`].
pub(crate) struct LineReader {
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline; the
    /// search resumes here after a read instead of rescanning.
    scanned: usize,
}

impl LineReader {
    /// Prepares `stream` for serving lines: `TCP_NODELAY`, so every
    /// reply line leaves at once, and a `poll` read timeout, the
    /// cadence at which a blocked read checks for shutdown.
    pub(crate) fn new(stream: &TcpStream, poll: Duration) -> LineReader {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(poll));
        LineReader { buf: Vec::new(), scanned: 0 }
    }

    /// The next non-blank request line, or `None` once the connection
    /// should end: the peer closed it or a read failed, `stopping()`
    /// held at a read timeout, or the pending line grew past
    /// [`MAX_LINE_BYTES`] without a newline — then a `malformed` error
    /// was written first.
    pub(crate) fn next_line(
        &mut self,
        stream: &mut TcpStream,
        stopping: impl Fn() -> bool,
    ) -> Option<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let nl = self.scanned + at;
                let line = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
                self.buf.drain(..=nl);
                self.scanned = 0;
                if !line.trim().is_empty() {
                    return Some(line);
                }
                continue;
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                let refuse = Response::Error {
                    id: 0,
                    kind: ErrorKind::Malformed,
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                };
                let _ = write_line(stream, &refuse.to_json());
                return None;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return None, // EOF
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                    if stopping() {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
    }
}

/// One newline-terminated protocol frame, written and flushed (the
/// stream has `TCP_NODELAY` set, so a progress line reaches the watcher
/// immediately instead of sitting in a send buffer behind the final).
pub(crate) fn write_line(stream: &mut TcpStream, json: &str) -> std::io::Result<()> {
    let mut out = String::with_capacity(json.len() + 1);
    out.push_str(json);
    out.push('\n');
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// How a request line gets answered: inline with one response, or by
/// draining a worker reply that may stream progress frames first.
enum Handled {
    One(Response),
    Stream(Pending),
    /// The connection becomes a long-lived replication stream; the id
    /// is echoed in heartbeat frames so clients can correlate.
    Replicate(u64),
}

/// Best effort at extracting an id even from a broken request line.
pub(crate) fn line_request_id(line: &str) -> u64 {
    crate::json::Value::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(crate::json::Value::as_u64))
        .unwrap_or(0)
}

fn handle_line(shared: &Arc<ServerShared>, line: &str) -> Handled {
    let request = match Request::from_json(line) {
        Ok(r) => r,
        Err(message) => {
            let id = line_request_id(line);
            // A syntactically fine request carrying an unusable tenant
            // tag is the caller's bug, not a framing problem — answer
            // `invalid` so clients don't retry it as a transport error.
            let kind = if message.starts_with("invalid tenant") {
                ErrorKind::Invalid
            } else {
                ErrorKind::Malformed
            };
            return Handled::One(Response::Error { id, kind, message });
        }
    };
    let id = request.id;
    if shared.service.panic_on_request_id() == Some(id) {
        panic!("injected front-end panic (request {id})");
    }
    if matches!(request.body, RequestBody::Metrics) {
        // Health endpoint: answered inline, never queued, works under
        // overload.
        let rows = shared.service.metrics().all_rows();
        return Handled::One(Response::Metrics { id, rows });
    }
    if matches!(request.body, RequestBody::Replicate) {
        // Served out-of-band by this connection's own thread; it never
        // enters the queue, so replication survives overload.
        if shared.service.config().journal.is_none() {
            return Handled::One(Response::Error {
                id,
                kind: ErrorKind::Invalid,
                message: "replication requires a journalled primary (--journal)".into(),
            });
        }
        return Handled::Replicate(id);
    }
    if let RequestBody::Attach { job } = request.body {
        // A cheap index lookup, answered inline like metrics — so a
        // client can re-fetch its finished run even while the queue is
        // shedding new work.
        return Handled::One(shared.service.attach(id, job));
    }
    match shared.service.submit(request) {
        Ok(pending) => {
            // Requests on one connection are answered in order; the
            // frame drain (including its blocking waits) is bounded by
            // service drain on shutdown. Non-opted requests never
            // receive progress frames, so their wire behavior is
            // byte-identical to the pre-streaming protocol.
            Handled::Stream(pending)
        }
        Err(rejected) => Handled::One(rejected.to_response(id)),
    }
}
