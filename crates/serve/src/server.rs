//! The daemon: a `std::net::TcpListener` accept loop, one thread per
//! connection, one scheduler shared by all of them.
//!
//! The listener blocks in `accept`, so a new connection is served at
//! once. Connection reads carry a short timeout, so a shutdown request
//! (protocol `shutdown`, SIGINT/SIGTERM via the CLI's cancel token, or
//! a test calling [`Server::shutdown`]) is observed within a poll
//! interval by every connection thread. [`Server::shutdown`] raises the
//! flag, stops the scheduler (in-flight rounds drain and write final
//! checkpoints, workers join, the spool is left consistent), then wakes
//! the blocked `accept` with one loopback connection of its own; the
//! accept loop exits on the first connection it accepts after the flag
//! is raised. A hostile or hung client can therefore never wedge the
//! daemon's exit.

use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use seugrade_engine::CancelToken;

use crate::json::Value;
use crate::proto::{self, Request};
use crate::scheduler::Scheduler;
use crate::spool::Spool;

/// Default listen address of `repro -- serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7463";

/// Default worker-pool width.
pub const DEFAULT_WORKERS: usize = 2;

/// Hard cap on one request line; a longer line is rejected with a
/// structured error and the connection closes (there is no way to
/// resynchronize). Generous because inline netlists travel in-line.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024 * 1024;

/// How often blocked connection loops re-check the shutdown flag, and
/// the longest a job's queued chunk event lines wait for a hand-over
/// while chunks keep landing.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Worker-pool width — how many campaign rounds run concurrently.
    pub workers: usize,
    /// Spool root for per-job checkpoints, specs and results.
    pub spool: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_owned(),
            workers: DEFAULT_WORKERS,
            spool: PathBuf::from("serve-spool"),
        }
    }
}

/// Shared by the accept loop and every connection thread.
struct Daemon {
    scheduler: Scheduler,
    shutdown: AtomicBool,
}

impl Daemon {
    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running daemon. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops it gracefully.
pub struct Server {
    daemon: Arc<Daemon>,
    accept: Option<thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listener, scans the spool (resuming every incomplete
    /// spooled job) and starts the worker pool and accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind and spool I/O failures.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let spool = Spool::open(&config.spool)?;
        let scheduler = Scheduler::start(spool, config.workers)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let daemon = Arc::new(Daemon { scheduler, shutdown: AtomicBool::new(false) });
        let accept_daemon = Arc::clone(&daemon);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_daemon));
        Ok(Server { daemon, accept: Some(accept), local_addr })
    }

    /// The bound address (the actual port when `addr` asked for `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Raises the shutdown flag without blocking (connections observe it
    /// within a poll interval; the accept loop and the workers stop in
    /// [`shutdown`](Server::shutdown)).
    pub fn request_shutdown(&self) {
        self.daemon.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested from any side.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.daemon.shutdown_requested()
    }

    /// Blocks until shutdown is requested — by a protocol `shutdown`
    /// command or by `external` (the CLI's SIGINT/SIGTERM token)
    /// tripping. Does not stop the daemon; call
    /// [`shutdown`](Server::shutdown) next.
    pub fn serve_until(&self, external: &CancelToken) {
        while !self.daemon.shutdown_requested() && !external.is_cancelled() {
            thread::sleep(POLL);
        }
    }

    /// Graceful stop: cancels every in-flight job cooperatively (each
    /// drains its round and writes a final atomic checkpoint), joins
    /// the workers, then wakes and joins the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.request_shutdown();
        self.daemon.scheduler.stop();
        if let Some(handle) = self.accept.take() {
            // If the wake-up connection cannot be made, the accept
            // thread is left blocked rather than joined: it serves
            // nothing more and ends with the process.
            if TcpStream::connect(wake_addr(self.local_addr)).is_ok() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The address that reaches a listener bound to `bound`: itself, or
/// the loopback of the same family when bound to an unspecified
/// address (`0.0.0.0`, `::`).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Accepts connections until the first one after shutdown is requested
/// (normally [`Server::shutdown`]'s own wake-up connection).
fn accept_loop(listener: &TcpListener, daemon: &Arc<Daemon>) {
    loop {
        let accepted = listener.accept();
        if daemon.shutdown_requested() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let daemon = Arc::clone(daemon);
                thread::spawn(move || handle_connection(&daemon, stream));
            }
            // Transient failures (e.g. out of descriptors): back off
            // instead of spinning.
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// Reads newline-delimited requests off one connection with a bounded
/// buffer and a read timeout, so shutdown is never blocked on a silent
/// peer.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum ReadLine {
    Line(Vec<u8>),
    Eof,
    TooLong,
    Shutdown,
}

impl LineReader {
    fn next(&mut self, daemon: &Daemon) -> ReadLine {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return ReadLine::Line(line);
            }
            if self.buf.len() > MAX_REQUEST_BYTES {
                return ReadLine::TooLong;
            }
            if daemon.shutdown_requested() {
                return ReadLine::Shutdown;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadLine::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => return ReadLine::Eof,
            }
        }
    }
}

fn handle_connection(daemon: &Arc<Daemon>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader { stream, buf: Vec::new() };
    let mut line_no = 0usize;
    loop {
        let line = match reader.next(daemon) {
            ReadLine::Line(line) => line,
            ReadLine::Eof | ReadLine::Shutdown => return,
            ReadLine::TooLong => {
                let msg =
                    format!("request line exceeds {MAX_REQUEST_BYTES} bytes; closing connection");
                let _ = send(&mut writer, &proto::err_response(line_no + 1, &msg));
                return;
            }
        };
        line_no += 1;
        let Ok(text) = String::from_utf8(line) else {
            if send(&mut writer, &proto::err_response(line_no, "request is not valid UTF-8"))
                .is_err()
            {
                return;
            }
            continue;
        };
        if text.trim().is_empty() {
            // Blank keep-alive lines are tolerated and not numbered as
            // requests.
            line_no -= 1;
            continue;
        }
        if !dispatch(daemon, &text, line_no, &mut writer) {
            return;
        }
    }
}

/// Handles one request line; returns false when the connection should
/// close (write failure, or a stream that ended at shutdown).
fn dispatch(daemon: &Arc<Daemon>, line: &str, line_no: usize, writer: &mut TcpStream) -> bool {
    let request = match proto::parse_request(line) {
        Ok(request) => request,
        Err(e) => return send(writer, &proto::err_response(line_no, &e.msg)).is_ok(),
    };
    let response = match request {
        Request::Ping => proto::ok_response(vec![("pong", Value::Bool(true))]),
        Request::Submit(spec) => match daemon.scheduler.submit(*spec) {
            Ok(job) => proto::ok_response(vec![("job", Value::str(job.id.clone()))]),
            Err(msg) => proto::err_response(line_no, &msg),
        },
        Request::Status { job } => match daemon.scheduler.job(&job) {
            Some(job) => proto::ok_response(vec![("job", job.snapshot_value())]),
            None => proto::err_response(line_no, &format!("unknown job {job:?}")),
        },
        Request::List => {
            let jobs = daemon.scheduler.jobs().iter().map(|j| j.snapshot_value()).collect();
            proto::ok_response(vec![("jobs", Value::Arr(jobs))])
        }
        Request::Cancel { job } => match daemon.scheduler.cancel(&job) {
            Ok(state) => proto::ok_response(vec![
                ("job", Value::str(job)),
                ("state", Value::str(state.label())),
            ]),
            Err(msg) => proto::err_response(line_no, &msg),
        },
        Request::Resume { job } => match daemon.scheduler.resume(&job) {
            Ok(()) => proto::ok_response(vec![
                ("job", Value::str(job)),
                ("state", Value::str("queued")),
            ]),
            Err(msg) => proto::err_response(line_no, &msg),
        },
        Request::Shutdown => {
            // Flag first: a client that reads the `stopping` reply must
            // already see `shutdown_requested()`.
            daemon.shutdown.store(true, Ordering::SeqCst);
            let response = proto::ok_response(vec![("stopping", Value::Bool(true))]);
            return send(writer, &response).is_ok();
        }
        Request::Stream { job } => {
            let Some(job) = daemon.scheduler.job(&job) else {
                let msg = format!("unknown job {job:?}");
                return send(writer, &proto::err_response(line_no, &msg)).is_ok();
            };
            // Subscribe first: a client that has read the acknowledgment
            // misses no event line handed over after it.
            let events = job.subscribe();
            if send(
                writer,
                &proto::ok_response(vec![("streaming", Value::str(job.id.clone()))]),
            )
            .is_err()
            {
                return false;
            }
            return stream_events(daemon, &events, writer);
        }
    };
    send(writer, &response).is_ok()
}

/// Forwards a job's event lines until the job reaches a terminal state
/// (its channel closes), the client hangs up, or the daemon shuts
/// down. Each received batch, one or more lines, is one socket write.
/// Returns whether the connection may continue in request mode.
fn stream_events(daemon: &Daemon, events: &Receiver<String>, writer: &mut TcpStream) -> bool {
    loop {
        match events.recv_timeout(POLL) {
            Ok(lines) => {
                if send(writer, &lines).is_err() {
                    return false;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if daemon.shutdown_requested() {
                    return false;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return true,
        }
    }
}

fn send(writer: &mut TcpStream, line: &str) -> io::Result<()> {
    proto::write_line(writer, line)
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::client::Client;
    use crate::proto::JobSpec;

    fn config(tag: &str, addr: &str) -> ServerConfig {
        let spool = std::env::temp_dir()
            .join(format!("seugrade-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        ServerConfig { addr: addr.to_owned(), workers: 1, spool }
    }

    /// Runs `Server::shutdown` on another thread and fails (rather than
    /// hangs) unless it returns within a second.
    fn shutdown_within_a_second(mut server: Server) {
        let (done, returned) = std::sync::mpsc::channel();
        thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        returned.recv_timeout(Duration::from_secs(1)).expect("shutdown returns within 1 s");
    }

    /// Binds a daemon at `addr`, parks an idle client on it, and checks
    /// that `shutdown` wakes the blocked accept promptly.
    fn shutdown_is_prompt_with_an_idle_client(tag: &str, addr: &str) {
        let config = config(tag, addr);
        let server = Server::bind(&config).unwrap();
        let mut idle = Client::connect(wake_addr(server.local_addr())).unwrap();
        idle.ping().unwrap();
        // Let the accept thread block again before stopping.
        thread::sleep(Duration::from_millis(50));
        shutdown_within_a_second(server);
        drop(idle);
        std::fs::remove_dir_all(&config.spool).unwrap();
    }

    #[test]
    fn shutdown_wakes_a_blocked_accept_on_loopback() {
        shutdown_is_prompt_with_an_idle_client("loopback", "127.0.0.1:0");
    }

    #[test]
    fn shutdown_wakes_a_blocked_accept_on_an_unspecified_address() {
        shutdown_is_prompt_with_an_idle_client("unspecified", "0.0.0.0:0");
    }

    #[test]
    fn wake_addr_maps_unspecified_addresses_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7463"), "127.0.0.1:7463");
        assert_eq!(wake("[::]:7463"), "[::1]:7463");
        assert_eq!(wake("10.1.2.3:9"), "10.1.2.3:9");
    }

    #[test]
    fn protocol_shutdown_then_server_shutdown_leaves_the_spool_consistent() {
        let config = config("protocol", "127.0.0.1:0");
        let mut spec = JobSpec::registry("s27");
        spec.vectors = 120;
        spec.round = 2;
        let (reference, _) = crate::reference_run(&spec).unwrap();

        let server = Server::bind(&config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let id = client.submit(&spec).unwrap();
        let started = Instant::now();
        while client.status(&id).unwrap().get("rounds").and_then(Value::as_usize) == Some(0) {
            assert!(started.elapsed() < Duration::from_secs(60), "no round landed");
            thread::sleep(Duration::from_millis(2));
        }
        client.shutdown().unwrap();
        assert!(server.shutdown_requested());
        shutdown_within_a_second(server);
        let job_dir = config.spool.join(&id);
        assert!(
            job_dir.join("result.json").exists() || job_dir.join("job.ckpt").exists(),
            "an incomplete job must leave its checkpoint"
        );

        let server = Server::bind(&config).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let done = client.wait(&id, Duration::from_secs(60)).unwrap();
        assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
        assert_eq!(
            done.get("digest").and_then(Value::as_str),
            Some(proto::digest_hex(reference).as_str()),
            "the next daemon life resumes to the solo digest"
        );
        drop(server);
        std::fs::remove_dir_all(&config.spool).unwrap();
    }
}
