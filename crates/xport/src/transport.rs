//! The [`Transport`] trait and its two implementations: the byte pipe
//! under the wire boundary.
//!
//! A transport is a *nonblocking* bidirectional octet stream with an
//! explicit establishment state.  The contract mirrors what a PPP
//! driver sees from a serial device or a socket:
//!
//! * [`Transport::send`]/[`Transport::recv`] never block — they move
//!   what the kernel will take ([`IoOp::Did`]), report a full buffer /
//!   empty pipe ([`IoOp::WouldBlock`]), or report peer loss
//!   ([`IoOp::Closed`], after which [`Transport::established`] is
//!   false).  Short reads and short writes are normal, not errors.
//! * [`Transport::establish`] (re)creates the pipe without blocking the
//!   driver: a client re-dials, a server re-accepts from its retained
//!   listener, an in-process pipe reopens.  The engine calls it until
//!   it succeeds, then runs the session's `lower_up` — which is what
//!   turns a reconnect into an RFC 1661 renegotiation.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::lock;

/// Outcome of one nonblocking send/recv attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Moved this many bytes (possibly fewer than offered — a short
    /// op).
    Did(usize),
    /// The pipe is healthy but cannot move bytes right now
    /// (EWOULDBLOCK / full peer window / empty pipe).
    WouldBlock,
    /// The peer is gone (EOF, reset, broken pipe).  The transport has
    /// torn its stream down; re-establish before retrying.
    Closed,
}

/// A nonblocking byte pipe a [`crate::LinkEngine`] pumps the wire
/// through.
pub trait Transport: Send {
    /// A byte pipe currently exists.
    fn established(&self) -> bool;

    /// Try to (re)create the pipe.  Returns `Ok(true)` once connected;
    /// `Ok(false)` means "not yet, retry later" (peer not listening,
    /// no pending accept).  Must not block the driver for long.
    fn establish(&mut self) -> io::Result<bool>;

    /// Write as many of `buf`'s bytes as the pipe will take.
    fn send(&mut self, buf: &[u8]) -> io::Result<IoOp>;

    /// Read into `buf`, returning how many bytes arrived.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<IoOp>;

    /// Human-readable endpoint description for labels and traces.
    fn describe(&self) -> String;
}

/// Map an I/O error to the nonblocking contract: would-block and
/// interrupt are flow control, connection-lifetime errors are
/// [`IoOp::Closed`], anything else propagates.
fn classify(e: io::Error) -> io::Result<IoOp> {
    use io::ErrorKind::*;
    match e.kind() {
        WouldBlock | Interrupted => Ok(IoOp::WouldBlock),
        ConnectionReset | ConnectionAborted | BrokenPipe | UnexpectedEof | NotConnected => {
            Ok(IoOp::Closed)
        }
        _ => Err(e),
    }
}

// ---------------------------------------------------------------- TCP

enum TcpRole {
    /// We dial; the address is retained for reconnects.
    Client(SocketAddr),
    /// We accept; the listener is retained so a reconnect is just the
    /// next accept.
    Server(TcpListener),
}

/// The wire over a TCP socket (loopback in tests, any route in
/// production).  Nagle is disabled: LCP packets are latency-sensitive
/// and the wire already batches.
pub struct TcpTransport {
    role: TcpRole,
    stream: Option<TcpStream>,
}

impl TcpTransport {
    /// Dial `addr` now (blocking once, at construction) and keep the
    /// address for nonblocking re-dials.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        Self::tune(&stream)?;
        Ok(TcpTransport {
            role: TcpRole::Client(peer),
            stream: Some(stream),
        })
    }

    /// Bind a listener on `addr` (port 0 for ephemeral) and accept the
    /// peer lazily from the driver loop.
    pub fn listen(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport {
            role: TcpRole::Server(listener),
            stream: None,
        })
    }

    /// The bound (server) or dialled (client) address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match &self.role {
            TcpRole::Server(l) => l.local_addr(),
            TcpRole::Client(a) => Ok(*a),
        }
    }

    fn tune(stream: &TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)
    }
}

impl Transport for TcpTransport {
    fn established(&self) -> bool {
        self.stream.is_some()
    }

    fn establish(&mut self) -> io::Result<bool> {
        if self.stream.is_some() {
            return Ok(true);
        }
        match &self.role {
            TcpRole::Server(listener) => match listener.accept() {
                Ok((stream, _)) => {
                    Self::tune(&stream)?;
                    self.stream = Some(stream);
                    Ok(true)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
                Err(e) => Err(e),
            },
            TcpRole::Client(addr) => {
                // A short timeout keeps the driver responsive while the
                // peer is down; failure just means "retry next spin".
                match TcpStream::connect_timeout(addr, Duration::from_millis(25)) {
                    Ok(stream) => {
                        Self::tune(&stream)?;
                        self.stream = Some(stream);
                        Ok(true)
                    }
                    Err(_) => Ok(false),
                }
            }
        }
    }

    fn send(&mut self, buf: &[u8]) -> io::Result<IoOp> {
        use std::io::Write;
        let Some(stream) = &mut self.stream else {
            return Ok(IoOp::Closed);
        };
        match stream.write(buf) {
            Ok(0) => {
                self.stream = None;
                Ok(IoOp::Closed)
            }
            Ok(n) => Ok(IoOp::Did(n)),
            Err(e) => {
                let op = classify(e)?;
                if op == IoOp::Closed {
                    self.stream = None;
                }
                Ok(op)
            }
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<IoOp> {
        use std::io::Read;
        let Some(stream) = &mut self.stream else {
            return Ok(IoOp::Closed);
        };
        match stream.read(buf) {
            // A zero-byte read on a readable TCP socket is EOF.
            Ok(0) => {
                self.stream = None;
                Ok(IoOp::Closed)
            }
            Ok(n) => Ok(IoOp::Did(n)),
            Err(e) => {
                let op = classify(e)?;
                if op == IoOp::Closed {
                    self.stream = None;
                }
                Ok(op)
            }
        }
    }

    fn describe(&self) -> String {
        match (&self.role, self.local_addr()) {
            (TcpRole::Client(_), Ok(a)) => format!("tcp->{a}"),
            (TcpRole::Server(_), Ok(a)) => format!("tcp@{a}"),
            _ => "tcp".into(),
        }
    }
}

// ------------------------------------------------------ in-process pipe

/// One direction of the in-process pipe.
#[derive(Debug, Default)]
struct Lane {
    buf: std::collections::VecDeque<u8>,
    open: bool,
}

type SharedLane = Arc<Mutex<Lane>>;

/// A deterministic in-process transport: two bounded byte lanes shared
/// between the pair, with scriptable stalls and severs.  The test
/// double for the socket transports — every behaviour the engine must
/// survive (short ops, EWOULDBLOCK, peer loss mid-run, reconnect) can
/// be produced on demand, with no kernel timing in the loop.
pub struct PipeTransport {
    tx: SharedLane,
    rx: SharedLane,
    cap: usize,
    /// Remaining send/recv calls that report [`IoOp::WouldBlock`]
    /// regardless of lane state (a scripted peer stall).  Shared with
    /// [`PipeControl`] so a test can inject stalls after the transport
    /// has been boxed into an engine.
    stall_ops: Arc<Mutex<u64>>,
    /// Recorded copy of every byte sent, when tapping is enabled.
    tap: Option<Arc<Mutex<Vec<u8>>>>,
}

/// A remote control for one [`PipeTransport`] end, usable while the
/// transport itself is owned by an engine/driver: script stalls and
/// sever the connection from the test harness.
#[derive(Clone)]
pub struct PipeControl {
    tx: SharedLane,
    rx: SharedLane,
    stall_ops: Arc<Mutex<u64>>,
}

impl PipeControl {
    /// Make the controlled end's next `ops` send/recv calls report
    /// [`IoOp::WouldBlock`].
    pub fn stall(&self, ops: u64) {
        *lock(&self.stall_ops) += ops;
    }

    /// Sever the connection: both lanes close and drop their bytes, so
    /// each end observes [`IoOp::Closed`] and must re-establish — the
    /// deterministic mid-run disconnect.
    pub fn sever(&self) {
        for lane in [&self.tx, &self.rx] {
            let mut l = lock(lane);
            l.open = false;
            l.buf.clear();
        }
    }
}

impl PipeTransport {
    /// A connected pair with the default 64 KiB lane capacity.
    pub fn pair() -> (PipeTransport, PipeTransport) {
        Self::pair_with_capacity(64 * 1024)
    }

    /// A connected pair whose lanes hold at most `cap` bytes — small
    /// capacities force short writes, exercising the staging rings.
    pub fn pair_with_capacity(cap: usize) -> (PipeTransport, PipeTransport) {
        let a2b: SharedLane = Arc::new(Mutex::new(Lane {
            buf: Default::default(),
            open: true,
        }));
        let b2a: SharedLane = Arc::new(Mutex::new(Lane {
            buf: Default::default(),
            open: true,
        }));
        let a = PipeTransport {
            tx: a2b.clone(),
            rx: b2a.clone(),
            cap,
            stall_ops: Arc::new(Mutex::new(0)),
            tap: None,
        };
        let b = PipeTransport {
            tx: b2a,
            rx: a2b,
            cap,
            stall_ops: Arc::new(Mutex::new(0)),
            tap: None,
        };
        (a, b)
    }

    /// Make the next `ops` send/recv calls report
    /// [`IoOp::WouldBlock`] — a scripted peer stall.
    pub fn stall(&mut self, ops: u64) {
        *lock(&self.stall_ops) += ops;
    }

    /// Sever the connection: both lanes close and drop their bytes, so
    /// each end observes [`IoOp::Closed`] and must re-establish — the
    /// deterministic mid-run disconnect.
    pub fn sever(&self) {
        PipeControl {
            tx: self.tx.clone(),
            rx: self.rx.clone(),
            stall_ops: self.stall_ops.clone(),
        }
        .sever();
    }

    /// A remote control for this end, for scripting after the
    /// transport is boxed away.
    pub fn control(&self) -> PipeControl {
        PipeControl {
            tx: self.tx.clone(),
            rx: self.rx.clone(),
            stall_ops: self.stall_ops.clone(),
        }
    }

    /// Record every byte this end sends; returns the shared tap.
    pub fn tap_tx(&mut self) -> Arc<Mutex<Vec<u8>>> {
        let tap = Arc::new(Mutex::new(Vec::new()));
        self.tap = Some(tap.clone());
        tap
    }
}

impl Transport for PipeTransport {
    fn established(&self) -> bool {
        lock(&self.tx).open && lock(&self.rx).open
    }

    fn establish(&mut self) -> io::Result<bool> {
        // Reopening is symmetric and idempotent: each end marks both
        // lanes open; whichever end re-establishes first simply waits
        // for the other to start pumping.
        for lane in [&self.tx, &self.rx] {
            let mut l = lock(lane);
            if !l.open {
                l.open = true;
                l.buf.clear();
            }
        }
        Ok(true)
    }

    fn send(&mut self, buf: &[u8]) -> io::Result<IoOp> {
        {
            let mut stalls = lock(&self.stall_ops);
            if *stalls > 0 {
                *stalls -= 1;
                return Ok(IoOp::WouldBlock);
            }
        }
        let mut lane = lock(&self.tx);
        if !lane.open {
            return Ok(IoOp::Closed);
        }
        let free = self.cap - lane.buf.len().min(self.cap);
        let n = buf.len().min(free);
        if n == 0 {
            return Ok(IoOp::WouldBlock);
        }
        lane.buf.extend(&buf[..n]);
        drop(lane);
        if let Some(tap) = &self.tap {
            lock(tap).extend_from_slice(&buf[..n]);
        }
        Ok(IoOp::Did(n))
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<IoOp> {
        {
            let mut stalls = lock(&self.stall_ops);
            if *stalls > 0 {
                *stalls -= 1;
                return Ok(IoOp::WouldBlock);
            }
        }
        let mut lane = lock(&self.rx);
        let n = buf.len().min(lane.buf.len());
        if n == 0 {
            return Ok(if lane.open {
                IoOp::WouldBlock
            } else {
                IoOp::Closed
            });
        }
        for slot in buf.iter_mut().take(n) {
            *slot = lane.buf.pop_front().expect("checked length");
        }
        Ok(IoOp::Did(n))
    }

    fn describe(&self) -> String {
        "pipe".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_moves_bytes_and_respects_capacity() {
        let (mut a, mut b) = PipeTransport::pair_with_capacity(4);
        assert!(a.established());
        assert_eq!(a.send(b"hello").unwrap(), IoOp::Did(4)); // short write
        assert_eq!(a.send(b"o").unwrap(), IoOp::WouldBlock); // lane full
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), IoOp::Did(4));
        assert_eq!(&buf[..4], b"hell");
        assert_eq!(b.recv(&mut buf).unwrap(), IoOp::WouldBlock);
    }

    #[test]
    fn pipe_stall_and_sever_follow_the_contract() {
        let (mut a, mut b) = PipeTransport::pair();
        a.stall(2);
        assert_eq!(a.send(b"x").unwrap(), IoOp::WouldBlock);
        assert_eq!(a.send(b"x").unwrap(), IoOp::WouldBlock);
        assert_eq!(a.send(b"x").unwrap(), IoOp::Did(1));
        a.sever();
        assert!(!a.established());
        let mut buf = [0u8; 4];
        assert_eq!(b.recv(&mut buf).unwrap(), IoOp::Closed);
        assert_eq!(b.send(b"y").unwrap(), IoOp::Closed);
        assert!(a.establish().unwrap());
        assert!(b.establish().unwrap());
        assert_eq!(a.send(b"z").unwrap(), IoOp::Did(1));
        assert_eq!(b.recv(&mut buf).unwrap(), IoOp::Did(1));
        assert_eq!(buf[0], b'z');
    }

    #[test]
    fn tcp_loopback_round_trips_under_the_contract() {
        let mut server = TcpTransport::listen("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        assert!(!server.established());
        assert!(!server.establish().expect("no pending accept"));
        let mut client = TcpTransport::connect(addr).expect("dial");
        assert!(client.established());
        // Accept may need a beat on a loaded host.
        for _ in 0..200 {
            if server.establish().expect("accept") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(server.established());
        assert_eq!(client.send(b"ping").unwrap(), IoOp::Did(4));
        let mut buf = [0u8; 8];
        let mut got = 0;
        for _ in 0..200 {
            match server.recv(&mut buf[got..]).unwrap() {
                IoOp::Did(n) => got += n,
                IoOp::WouldBlock => std::thread::sleep(Duration::from_millis(1)),
                IoOp::Closed => panic!("peer alive"),
            }
            if got == 4 {
                break;
            }
        }
        assert_eq!(&buf[..4], b"ping");
        // Drop the client: the server observes Closed, re-listens, and
        // a re-dial re-establishes.
        drop(client);
        loop {
            match server.recv(&mut buf).unwrap() {
                IoOp::Closed => break,
                IoOp::WouldBlock => std::thread::sleep(Duration::from_millis(1)),
                IoOp::Did(_) => {}
            }
        }
        assert!(!server.established());
        let client2 = TcpTransport::connect(addr).expect("re-dial");
        assert!(client2.established());
        for _ in 0..200 {
            if server.establish().expect("re-accept") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(server.established());
    }
}
