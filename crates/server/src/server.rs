//! The TCP front end: blocking connection threads over
//! `std::net::TcpListener` and one serial dispatch turn — no executor,
//! no external event library.
//!
//! Design: an acceptor thread blocks on `listener.incoming()` and gives
//! each accepted socket its own `sqe-conn` thread, which loops blocking
//! `read` → [`parse_request`] every complete request → dispatch → one
//! `write_all` of the replies, so the server wakes when bytes arrive,
//! not on a timer. Only `catch_unwind(door.handle(..))` runs under the
//! server's dispatch turn, a mutex all its connections share: requests
//! are handled one at a time, while reads and writes happen outside the
//! turn, so a stalled peer holds no one up. Dispatch stays serial on
//! purpose: one never-seen estimate keeps a core busy, and concurrent
//! dispatch raised the cold p95 from 92–106 ms to 126–150 ms on a
//! 2-core host (DESIGN.md §4k).
//!
//! Shutdown sets the stop flag, wakes the acceptor with a loopback
//! connect, shuts down every live socket through the acceptor's registry
//! of `try_clone`d streams, and joins every thread.
//!
//! ## Failpoints
//!
//! Three chaos sites model the ways a front end loses a request, each at
//! a point where the admission accounting makes leaks impossible by
//! construction:
//!
//! - `server::accept` — fires **before** the connection is tracked: the
//!   socket is dropped (client sees a reset), nothing was acquired.
//! - `server::read` — fires after a read, **before** parsing: the
//!   connection dies with bytes in its buffer; no token or permit was
//!   taken yet.
//! - `server::respond` — fires **after** [`FrontDoor::handle`] returned:
//!   every token was spent and every RAII permit already released inside
//!   `handle`; the client just never hears the answer (connection
//!   closed). The chaos suite asserts both pools return to idle.
//!
//! They fire on server threads, so only process-wide arms reach them,
//! not [`failpoint::arm_on_current_thread`] ones.
//!
//! A panic inside `handle` (e.g. an armed estimator failpoint) is caught
//! with `catch_unwind`, answered as a 500, and the connection keeps
//! serving — the service layer has already quarantined and recovered.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use sqe_core::failpoint;

use crate::http::{parse_request, Parse, Response, MAX_BODY, MAX_HEAD};
use crate::tenant::FrontDoor;

/// Server counters (relaxed; monitoring only).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Requests fully parsed and dispatched.
    pub requests: AtomicU64,
    /// Responses written back.
    pub responses: AtomicU64,
    /// Connections dropped for unparseable input.
    pub parse_errors: AtomicU64,
    /// Connections killed by the `server::accept` failpoint.
    pub accept_failures: AtomicU64,
    /// Connections killed by the `server::read` failpoint or IO errors.
    pub read_failures: AtomicU64,
    /// Responses suppressed by the `server::respond` failpoint.
    pub respond_failures: AtomicU64,
    /// Dispatches that panicked and were answered 500.
    pub handler_panics: AtomicU64,
}

/// A running server: address, stop flag, acceptor thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    acceptor: Option<JoinHandle<Vec<Conn>>>,
}

impl ServerHandle {
    /// The bound address (use port 0 in `spawn` to get an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stops accepting, closes every live connection, and joins every
    /// server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The acceptor only sees the flag once `accept` returns.
        let _ = TcpStream::connect(loopback(self.addr));
        for Conn { stream, thread } in acceptor.join().unwrap_or_default() {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// `addr`, with an unspecified IP replaced by loopback of its family.
fn loopback(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    }
}

/// A live connection: a clone of its socket (to shut it down from
/// outside) and its thread.
struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// Shuts its socket down when dropped, so every exit from a connection
/// thread, panics included, gives the peer EOF — the registry's clone
/// keeps the descriptor open.
struct Closing(TcpStream);

impl Drop for Closing {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves on new threads until
/// the handle is shut down or dropped.
pub fn spawn(door: Arc<FrontDoor>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let acceptor = {
        let (stop, stats) = (Arc::clone(&stop), Arc::clone(&stats));
        std::thread::Builder::new()
            .name("sqe-server".to_string())
            .spawn(move || accept_loop(listener, door, &stop, stats))?
    };
    Ok(ServerHandle {
        addr: local,
        stop,
        stats,
        acceptor: Some(acceptor),
    })
}

/// Accepts until the stop flag is set and returns the connections still
/// tracked, for the handle to close and join.
fn accept_loop(
    listener: TcpListener,
    door: Arc<FrontDoor>,
    stop: &AtomicBool,
    stats: Arc<ServerStats>,
) -> Vec<Conn> {
    let turn = Arc::new(Mutex::new(()));
    let mut conns: Vec<Conn> = Vec::new();
    for socket in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(socket) = socket else { continue };
        if failpoint::fire_err("server::accept").is_err() {
            // Dropped before tracking: the peer sees a reset, and no
            // server-side state was created.
            stats.accept_failures.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // Clients that open one connection per request would otherwise
        // grow the registry without bound.
        conns.retain(|c| !c.thread.is_finished());
        let Ok(stream) = socket.try_clone() else {
            continue;
        };
        let (door, turn, conn_stats) = (Arc::clone(&door), Arc::clone(&turn), Arc::clone(&stats));
        let spawned = std::thread::Builder::new()
            .name("sqe-conn".to_string())
            .spawn(move || converse(&mut Closing(socket), &door, &turn, &conn_stats));
        if let Ok(thread) = spawned {
            stats.accepted.fetch_add(1, Ordering::Relaxed);
            conns.push(Conn { stream, thread });
        }
    }
    conns
}

/// Serves one connection until the peer closes, a request asks to
/// close, or the connection fails.
fn converse(
    Closing(stream): &mut Closing,
    door: &FrontDoor,
    turn: &Mutex<()>,
    stats: &ServerStats,
) {
    let (mut inbuf, mut outbuf) = (Vec::new(), Vec::new());
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut scratch) {
            Ok(0) => return, // peer closed
            Ok(n) if failpoint::fire_err("server::read").is_ok() => n,
            // An IO error, or the connection dies mid-read: bytes
            // discarded before any token or permit was taken.
            _ => {
                stats.read_failures.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        inbuf.extend_from_slice(&scratch[..n]);
        if inbuf.len() > MAX_HEAD + MAX_BODY + 4 {
            stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Answer every complete pipelined request in the buffer.
        let mut close = false;
        while !close {
            match parse_request(&inbuf) {
                Parse::Incomplete => break,
                Parse::Bad(why) => {
                    stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::text(400, format!("{why}\n"));
                    outbuf.extend_from_slice(&resp.to_bytes(false));
                    close = true;
                }
                Parse::Done { request, consumed } => {
                    inbuf.drain(..consumed);
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    let handled = {
                        let _turn = turn.lock();
                        std::panic::catch_unwind(AssertUnwindSafe(|| door.handle(&request)))
                    };
                    let response = handled.unwrap_or_else(|_| {
                        // The service layer has already quarantined +
                        // recovered; the front end just reports the loss.
                        stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                        Response::text(500, "internal error\n")
                    });
                    if failpoint::fire_err("server::respond").is_err() {
                        // All accounting inside handle() is settled
                        // (tokens spent, permits released); only the
                        // bytes are lost.
                        stats.respond_failures.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    let keep_alive = !request.wants_close();
                    outbuf.extend_from_slice(&response.to_bytes(keep_alive));
                    stats.responses.fetch_add(1, Ordering::Relaxed);
                    close = !keep_alive;
                }
            }
        }
        if stream.write_all(&outbuf).is_err() || close {
            return;
        }
        outbuf.clear();
    }
}
