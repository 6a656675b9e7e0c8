//! Readiness-driven I/O reactor for the serve layer.
//!
//! One event-loop thread owns every client socket of a server (or
//! router) process. Connections are nonblocking; reads feed an
//! incremental [`FrameDecoder`](crate::protocol::FrameDecoder), writes
//! go through per-connection buffers that are flushed in batches at
//! the end of each event-loop iteration. CPU-bound work still runs on
//! the bounded `WorkerPool`: workers complete requests onto the
//! reactor's op queue ([`ReactorCtl`]) and wake the loop through a
//! self-pipe, so the reactor never blocks on anything but `epoll_wait`.
//!
//! The op queue carries *encoded frames*: whoever produces a response
//! or a push — a pool worker, the stream hub, a service's `on_frame` —
//! has turned it into bytes and checked the frame cap, while it knew the
//! request's id. The loop copies and writes; all it encodes itself is
//! the `bad_request` that answers an undecodable frame.
//!
//! Flow control is built in:
//!
//! * a connection whose peer stops draining accumulates bytes in its
//!   write buffer; past the high-water mark the reactor stops *reading*
//!   from it (natural TCP backpressure), and resumes below the
//!   low-water mark;
//! * subscription pushes carry a pending counter that is decremented
//!   only when the push's bytes have fully reached the socket, so the
//!   slow-consumer cap in the stream hub measures real backlog;
//! * idle connections are evicted by a coarse timer wheel when an
//!   `idle_timeout` is configured.
//!
//! The module speaks to `epoll` directly through a small `extern "C"`
//! block — the vendored-dependency policy rules out mio, and std
//! already links libc on Linux, so no new dependency is introduced.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cobra_obs::{Counter, Gauge, Registry};
use serde_json::Value;

use crate::protocol::{self, ErrorKind, FrameDecoder, FrameError};

/// Stop reading from a connection once this many unflushed bytes are
/// queued for it; resume below [`LOW_WATER`].
const HIGH_WATER: usize = 256 * 1024;
const LOW_WATER: usize = 64 * 1024;

/// How long a closing connection gets to drain its write buffer before
/// the reactor drops it regardless.
const CLOSE_FLUSH_WINDOW: Duration = Duration::from_secs(2);

/// Reads issued per readiness event before yielding to other
/// connections (level-triggered epoll re-arms anything left over).
const READS_PER_EVENT: usize = 4;

/// Raw epoll plumbing. std links libc on Linux, so declaring the
/// symbols ourselves costs nothing and keeps the dependency policy
/// intact.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const RLIMIT_NOFILE: c_int = 7;

    /// Matches the kernel ABI: packed on x86-64, naturally aligned
    /// elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

/// Raises the soft `RLIMIT_NOFILE` toward `want` (capped by the hard
/// limit) and returns the soft limit now in effect. Connection sweeps
/// and the reactor smoke test need thousands of fds per process.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = sys::Rlimit { cur: 0, max: 0 };
    // Safety: plain out-parameter call; `lim` outlives the call.
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    let target = want.min(lim.max);
    let new = sys::Rlimit {
        cur: target,
        max: lim.max,
    };
    // Safety: plain in-parameter call; `new` outlives the call.
    if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &new) } == 0 {
        target
    } else {
        lim.cur
    }
}

fn set_sndbuf(stream: &TcpStream, bytes: usize) {
    let val = bytes as i32;
    // Safety: fd is owned by `stream` and valid for the duration of
    // the call; optval points at a live i32 of the advertised length.
    unsafe {
        sys::setsockopt(
            stream.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_SNDBUF,
            &val as *const i32 as *const std::os::raw::c_void,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Thin owner of an epoll instance.
struct Poller {
    epfd: i32,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // Safety: no pointers involved; returns an fd or -1.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // Safety: epfd and fd are live; `ev` outlives the call (DEL
        // ignores the pointer but we pass a valid one anyway).
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for events; `timeout_ms` of -1 blocks indefinitely.
    /// EINTR is reported as zero events.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // Safety: `events` is a live, writable slice of the advertised
        // length.
        let rc = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // Safety: we own epfd and drop it exactly once.
        unsafe { sys::close(self.epfd) };
    }
}

/// Opaque identity of one client connection inside a reactor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ConnId(pub(crate) u64);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// What the reactor asks of the layer above it. Both the query server
/// and the router implement this; everything socket-shaped lives below
/// the trait.
pub trait Service: Send + Sync + 'static {
    /// A complete, well-formed frame arrived on `conn`. Runs on the
    /// reactor thread — anything CPU-bound must be handed to a worker
    /// pool, with the response coming back through [`ReactorCtl`].
    fn on_frame(&self, conn: ConnId, frame: Value);

    /// `conn` is gone (peer closed, error, idle eviction, or a
    /// server-initiated close finished flushing). Called exactly once
    /// per connection the service ever saw a frame from, and runs on
    /// the reactor thread.
    fn on_close(&self, conn: ConnId);
}

/// One queued instruction for the reactor.
pub(crate) enum Op {
    /// Queue an encoded response frame on a connection.
    Send { conn: ConnId, frame: Vec<u8> },
    /// Queue an encoded push frame; `pending` is decremented once the
    /// frame's bytes have fully reached the socket (or the connection
    /// died).
    Push {
        conn: ConnId,
        frame: Vec<u8>,
        pending: Arc<AtomicUsize>,
    },
    /// Stop reading `conn`, flush what is queued (bounded by
    /// [`CLOSE_FLUSH_WINDOW`]), then drop it.
    Close { conn: ConnId },
    /// Close the listener: no new connections, existing ones live on.
    Drain,
    /// Flush-and-close every connection, then exit the event loop.
    Stop,
}

struct CtlInner {
    ops: Mutex<Vec<Op>>,
    wake_tx: UnixStream,
    /// Read end, taken by the reactor thread at startup.
    wake_rx: Mutex<Option<UnixStream>>,
}

/// Handle for talking to a reactor from any thread: worker-pool
/// completions, the stream hub, and shutdown all go through here.
/// Cloning is cheap; every enqueue tickles the reactor's self-pipe.
#[derive(Clone)]
pub struct ReactorCtl {
    inner: Arc<CtlInner>,
}

impl ReactorCtl {
    /// Builds the op queue and its self-pipe. Standalone so the stream
    /// hub can be unit-tested without a live socket loop.
    pub fn new() -> io::Result<ReactorCtl> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(ReactorCtl {
            inner: Arc::new(CtlInner {
                ops: Mutex::new(Vec::new()),
                wake_tx,
                wake_rx: Mutex::new(Some(wake_rx)),
            }),
        })
    }

    fn enqueue(&self, op: Op) {
        let was_empty = {
            let mut ops = self.inner.ops.lock().expect("reactor op queue poisoned");
            let was_empty = ops.is_empty();
            ops.push(op);
            was_empty
        };
        // One wake byte per queue *batch*, not per op: a non-empty
        // queue means an earlier enqueue's byte is still in the pipe
        // (the reactor drains the waker before taking the queue), so
        // completions arriving in bursts cost one syscall, not N. A
        // full pipe likewise means a wakeup is already pending.
        if was_empty {
            let _ = (&self.inner.wake_tx).write(&[1]);
        }
    }

    /// Queues an encoded response frame (length prefix included) for
    /// `conn`.
    pub fn send(&self, conn: ConnId, frame: Vec<u8>) {
        self.enqueue(Op::Send { conn, frame });
    }

    /// Queues an encoded push frame; `pending` is released when the
    /// bytes are on the wire or the connection is torn down.
    pub fn send_push(&self, conn: ConnId, frame: Vec<u8>, pending: Arc<AtomicUsize>) {
        self.enqueue(Op::Push {
            conn,
            frame,
            pending,
        });
    }

    /// Asks the reactor to flush and drop `conn`.
    pub fn close(&self, conn: ConnId) {
        self.enqueue(Op::Close { conn });
    }

    /// Stops accepting new connections (the listener socket closes).
    pub fn drain(&self) {
        self.enqueue(Op::Drain);
    }

    /// Flushes and closes everything, then the reactor thread exits.
    pub fn stop(&self) {
        self.enqueue(Op::Stop);
    }

    /// Drains the queued ops — reactor side, and test hook for hub
    /// unit tests that run without an event loop.
    pub(crate) fn take_ops(&self) -> Vec<Op> {
        std::mem::take(&mut *self.inner.ops.lock().expect("reactor op queue poisoned"))
    }

    fn take_wake_rx(&self) -> Option<UnixStream> {
        let mut rx = self.inner.wake_rx.lock().expect("reactor waker poisoned");
        rx.take()
    }
}

/// Reactor tuning handed over at spawn time.
pub struct ReactorConfig {
    /// Thread name, for diagnostics.
    pub name: String,
    /// Evict connections with no traffic in either direction for this
    /// long. `None` disables the timer wheel entirely.
    pub idle_timeout: Option<Duration>,
    /// Clamp the kernel send buffer of accepted sockets. Test aid: a
    /// tiny `SO_SNDBUF` makes slow consumers visible to the push
    /// backlog accounting instead of hiding megabytes in the kernel.
    pub sndbuf: Option<usize>,
}

/// One outbound segment: either a run of coalesced response frames or
/// a single push frame carrying its backlog counter.
struct OutSeg {
    data: Vec<u8>,
    written: usize,
    pending: Option<Arc<AtomicUsize>>,
}

/// Per-connection write buffer. Small response frames coalesce into a
/// shared segment so a burst of completions flushes in one syscall;
/// push frames keep their own segment so their `pending` counter drops
/// exactly when *their* bytes hit the wire.
#[derive(Default)]
struct OutBuf {
    segs: VecDeque<OutSeg>,
    bytes: usize,
}

impl OutBuf {
    fn enqueue(&mut self, data: Vec<u8>, pending: Option<Arc<AtomicUsize>>) {
        self.bytes += data.len();
        if pending.is_none() {
            if let Some(last) = self.segs.back_mut() {
                if last.pending.is_none()
                    && last.written == 0
                    && last.data.len() + data.len() <= 64 * 1024
                {
                    last.data.extend_from_slice(&data);
                    return;
                }
            }
        }
        self.segs.push_back(OutSeg {
            data,
            written: 0,
            pending,
        });
    }

    fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Writes as much as the socket accepts. Returns the number of
    /// bytes that left the buffer; `WouldBlock` is not an error.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        let mut sent = 0usize;
        while let Some(seg) = self.segs.front_mut() {
            match stream.write(&seg.data[seg.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    seg.written += n;
                    sent += n;
                    self.bytes -= n;
                    if seg.written == seg.data.len() {
                        if let Some(seg) = self.segs.pop_front() {
                            if let Some(pending) = seg.pending {
                                pending.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(sent)
    }

    /// Releases the backlog counters of everything still queued —
    /// called when the connection dies with pushes on board.
    fn abandon(&mut self) {
        for seg in self.segs.drain(..) {
            if let Some(pending) = seg.pending {
                pending.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.bytes = 0;
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: OutBuf,
    /// Events currently registered with epoll, to skip no-op MODs.
    interest: u32,
    last_activity: Instant,
    /// Reads above HIGH_WATER are paused until the buffer drains to
    /// LOW_WATER; hysteresis avoids flapping the interest mask.
    paused: bool,
    /// Set once the reactor decided to close: no more reads, drop as
    /// soon as (or before, see `doomed`) the write buffer drains.
    closing: bool,
    /// Whether the service has been told about this connection's end.
    notified: bool,
}

/// Coarse hashed timer wheel for idle eviction. Slots cover `tick`
/// each; entries re-arm lazily, so a touch costs nothing until the
/// wheel sweeps past the connection.
struct IdleWheel {
    timeout: Duration,
    tick: Duration,
    slots: Vec<Vec<u64>>,
    cursor: usize,
    cursor_time: Instant,
}

impl IdleWheel {
    fn new(timeout: Duration, now: Instant) -> IdleWheel {
        let tick = (timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        // Enough slots to place `timeout` in the future from any
        // cursor position, plus slack for lazy re-arming.
        let n = (timeout.as_nanos() / tick.as_nanos()).max(1) as usize + 2;
        IdleWheel {
            timeout,
            tick,
            slots: vec![Vec::new(); n],
            cursor: 0,
            cursor_time: now,
        }
    }

    fn schedule(&mut self, id: u64, due: Instant) {
        let ahead = if due > self.cursor_time {
            ((due - self.cursor_time).as_nanos() / self.tick.as_nanos()) as usize + 1
        } else {
            1
        };
        let ahead = ahead.min(self.slots.len() - 1);
        let slot = (self.cursor + ahead) % self.slots.len();
        self.slots[slot].push(id);
    }

    /// Advances the cursor up to `now` and returns every id whose slot
    /// fired. Callers re-check real idle time and re-arm survivors.
    fn advance(&mut self, now: Instant) -> Vec<u64> {
        let mut fired = Vec::new();
        while self.cursor_time + self.tick <= now {
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.cursor_time += self.tick;
            fired.append(&mut self.slots[self.cursor]);
        }
        fired
    }

    /// When the next slot with entries comes due, for the epoll
    /// timeout.
    fn next_due(&self) -> Option<Instant> {
        for k in 1..=self.slots.len() {
            if !self.slots[(self.cursor + k) % self.slots.len()].is_empty() {
                return Some(self.cursor_time + self.tick * k as u32);
            }
        }
        None
    }
}

struct Metrics {
    connections: Arc<Gauge>,
    idle_closed: Arc<Gauge>,
    wakeups: Arc<Counter>,
    events: Arc<Counter>,
    flush_batch: Arc<Counter>,
    accepted: Arc<Counter>,
}

struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    waker: UnixStream,
    ctl: ReactorCtl,
    service: Arc<dyn Service>,
    config: ReactorConfig,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    wheel: Option<IdleWheel>,
    /// Connections given a bounded flush window before a forced drop,
    /// in deadline order.
    doomed: VecDeque<(Instant, u64)>,
    /// Connections with bytes enqueued this iteration, flushed as one
    /// batch at the end of it.
    dirty: Vec<u64>,
    stopping: bool,
    metrics: Metrics,
}

/// Starts a reactor thread on `listener`. The `ctl` handle must come
/// from [`ReactorCtl::new`] and not be attached to another reactor.
pub fn spawn(
    listener: TcpListener,
    ctl: &ReactorCtl,
    config: ReactorConfig,
    registry: &Registry,
    service: Arc<dyn Service>,
) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let waker = ctl
        .take_wake_rx()
        .ok_or_else(|| io::Error::other("reactor ctl already attached to a reactor"))?;
    let poller = Poller::new()?;
    poller.ctl(
        sys::EPOLL_CTL_ADD,
        listener.as_raw_fd(),
        sys::EPOLLIN,
        TOKEN_LISTENER,
    )?;
    poller.ctl(
        sys::EPOLL_CTL_ADD,
        waker.as_raw_fd(),
        sys::EPOLLIN,
        TOKEN_WAKER,
    )?;
    let metrics = Metrics {
        connections: registry.gauge("serve.connections", &[]),
        idle_closed: registry.gauge("serve.idle_closed", &[]),
        wakeups: registry.counter("reactor.wakeups", &[]),
        events: registry.counter("reactor.events", &[]),
        flush_batch: registry.counter("reactor.flush_batch", &[]),
        accepted: registry.counter("serve.accepted", &[]),
    };
    let now = Instant::now();
    let mut reactor = Reactor {
        poller,
        listener: Some(listener),
        waker,
        ctl: ctl.clone(),
        service,
        conns: HashMap::new(),
        next_id: 1,
        wheel: config.idle_timeout.map(|t| IdleWheel::new(t, now)),
        config,
        doomed: VecDeque::new(),
        dirty: Vec::new(),
        stopping: false,
        metrics,
    };
    let name = reactor.config.name.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || reactor.run())
}

impl Reactor {
    fn run(&mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            if self.stopping && self.conns.is_empty() {
                break;
            }
            let timeout = self.poll_timeout();
            let n = match self.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("cobra-serve: reactor poll failed: {e}");
                    break;
                }
            };
            if n > 0 {
                self.metrics.events.add(n as u64);
            }
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct before use.
                let token = ev.data;
                let mask = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.metrics.wakeups.inc();
                        self.drain_waker();
                    }
                    id => self.conn_event(id, mask, &mut scratch),
                }
            }
            self.apply_ops();
            self.run_timers();
            self.flush_dirty();
        }
    }

    /// Epoll timeout: sleep until the nearest timer (idle wheel slot or
    /// doomed-connection deadline), or forever when none is armed.
    fn poll_timeout(&self) -> i32 {
        let mut due: Option<Instant> = self.wheel.as_ref().and_then(|w| w.next_due());
        if let Some(&(deadline, _)) = self.doomed.front() {
            due = Some(due.map_or(deadline, |d| d.min(deadline)));
        }
        match due {
            None => -1,
            Some(at) => {
                let now = Instant::now();
                if at <= now {
                    0
                } else {
                    at.duration_since(now).as_millis().min(60_000) as i32 + 1
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        for _ in 0..256 {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if let Err(e) = self.register(stream) {
                        eprintln!("cobra-serve: failed to register connection: {e}");
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Likely EMFILE: shed load briefly instead of
                    // spinning on a level-triggered listener.
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.config.sndbuf {
            set_sndbuf(&stream, bytes);
        }
        let id = self.next_id;
        self.next_id += 1;
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        self.poller
            .ctl(sys::EPOLL_CTL_ADD, stream.as_raw_fd(), interest, id)?;
        let now = Instant::now();
        self.conns.insert(
            id,
            Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: OutBuf::default(),
                interest,
                last_activity: now,
                paused: false,
                closing: false,
                notified: false,
            },
        );
        if let Some(wheel) = self.wheel.as_mut() {
            wheel.schedule(id, now + wheel.timeout);
        }
        self.metrics.accepted.inc();
        self.metrics.connections.add(1);
        Ok(())
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, id: u64, mask: u32, scratch: &mut [u8]) {
        if !self.conns.contains_key(&id) {
            return;
        }
        if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.drop_conn(id);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            self.read_ready(id, scratch);
        }
        if mask & sys::EPOLLOUT != 0 {
            self.flush_conn(id);
        }
    }

    fn read_ready(&mut self, id: u64, scratch: &mut [u8]) {
        for _ in 0..READS_PER_EVENT {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.closing {
                return;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    self.drop_conn(id);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.extend(&scratch[..n]);
                    if !self.decode_frames(id) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(id);
                    return;
                }
            }
        }
    }

    /// Drains complete frames out of `id`'s decoder. Returns false if
    /// the connection was torn down while decoding.
    fn decode_frames(&mut self, id: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.service.on_frame(ConnId(id), frame);
                }
                Ok(None) => return true,
                Err(e) => {
                    // A broken payload ends at a known boundary, so the
                    // stream resyncs and the session lives on. A broken
                    // prefix is beyond resync: report, flush, close.
                    let (why, fatal) = match e {
                        FrameError::Json(e) => (format!("invalid JSON in frame: {e}"), false),
                        FrameError::Oversized(len) => (
                            format!(
                                "frame of {len} bytes exceeds the {} byte cap",
                                protocol::MAX_FRAME_LEN
                            ),
                            true,
                        ),
                        FrameError::Io(_) => unreachable!("decoder does not perform I/O"),
                    };
                    // No request id can be read out of either: answer under 0.
                    let err = protocol::err_response(0, ErrorKind::BadRequest, why);
                    self.enqueue_frame(id, protocol::encode_reply(&err), None);
                    if fatal {
                        self.begin_close(id);
                        return false;
                    }
                }
            }
        }
    }

    /// Queues one encoded frame on `id`, marking it dirty for the
    /// end-of-iteration batch flush.
    fn enqueue_frame(&mut self, id: u64, bytes: Vec<u8>, pending: Option<Arc<AtomicUsize>>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            if let Some(pending) = pending {
                pending.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        };
        conn.out.enqueue(bytes, pending);
        if !self.dirty.contains(&id) {
            self.dirty.push(id);
        }
    }

    fn apply_ops(&mut self) {
        loop {
            let ops = self.ctl.take_ops();
            if ops.is_empty() {
                return;
            }
            for op in ops {
                match op {
                    Op::Send { conn, frame } => self.enqueue_frame(conn.0, frame, None),
                    Op::Push {
                        conn,
                        frame,
                        pending,
                    } => self.enqueue_frame(conn.0, frame, Some(pending)),
                    Op::Close { conn } => self.begin_close(conn.0),
                    Op::Drain => self.do_drain(),
                    Op::Stop => self.do_stop(),
                }
            }
        }
    }

    fn do_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self
                .poller
                .ctl(sys::EPOLL_CTL_DEL, listener.as_raw_fd(), 0, TOKEN_LISTENER);
            // Dropping the listener closes the port; new connects are
            // refused from here on.
        }
    }

    fn do_stop(&mut self) {
        self.do_drain();
        self.stopping = true;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.begin_close(id);
        }
    }

    /// Stops reading `id` and drops it once its write buffer drains,
    /// or after [`CLOSE_FLUSH_WINDOW`] regardless.
    fn begin_close(&mut self, id: u64) {
        // Flush eagerly first: for most closes the buffer empties here
        // and the connection dies without a timer.
        self.flush_conn(id);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.out.is_empty() {
            self.drop_conn(id);
            return;
        }
        if !conn.closing {
            conn.closing = true;
            // No more reads; the peer sees EOF for anything it sends.
            let _ = conn.stream.shutdown(Shutdown::Read);
            self.doomed
                .push_back((Instant::now() + CLOSE_FLUSH_WINDOW, id));
            self.update_interest(id);
        }
    }

    fn run_timers(&mut self) {
        let now = Instant::now();
        while let Some(&(deadline, id)) = self.doomed.front() {
            if deadline > now {
                break;
            }
            self.doomed.pop_front();
            if self.conns.contains_key(&id) {
                self.drop_conn(id);
            }
        }
        let Some(wheel) = self.wheel.as_mut() else {
            return;
        };
        let timeout = wheel.timeout;
        let fired = wheel.advance(now);
        for id in fired {
            let Some(conn) = self.conns.get(&id) else {
                continue;
            };
            if conn.closing {
                continue;
            }
            let idle_for = now.duration_since(conn.last_activity);
            if idle_for >= timeout {
                self.metrics.idle_closed.add(1);
                self.drop_conn(id);
            } else if let Some(wheel) = self.wheel.as_mut() {
                wheel.schedule(id, conn.last_activity + timeout);
            }
        }
    }

    /// One batched flush pass over every connection that queued bytes
    /// this iteration.
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.metrics.flush_batch.inc();
        let ids = std::mem::take(&mut self.dirty);
        for id in ids {
            self.flush_conn(id);
        }
    }

    fn flush_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.out.flush(&mut conn.stream) {
            Ok(sent) => {
                if sent > 0 {
                    conn.last_activity = Instant::now();
                }
                if conn.closing && conn.out.is_empty() {
                    self.drop_conn(id);
                    return;
                }
            }
            Err(_) => {
                self.drop_conn(id);
                return;
            }
        }
        self.update_interest(id);
    }

    /// Recomputes the epoll mask for `id` from its current state:
    /// read interest follows the backpressure watermarks, write
    /// interest exists only while flushed bytes are stuck.
    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.paused {
            if conn.out.bytes <= LOW_WATER {
                conn.paused = false;
            }
        } else if conn.out.bytes >= HIGH_WATER {
            conn.paused = true;
        }
        let mut want = sys::EPOLLRDHUP;
        if !conn.closing && !conn.paused {
            want |= sys::EPOLLIN;
        }
        if !conn.out.is_empty() {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.ctl(sys::EPOLL_CTL_MOD, fd, want, id);
        }
    }

    fn drop_conn(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        conn.out.abandon();
        let _ = self
            .poller
            .ctl(sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, id);
        self.metrics.connections.add(-1);
        if !conn.notified {
            conn.notified = true;
            self.service.on_close(ConnId(id));
        }
        // The fd closes when `conn.stream` drops here.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_wheel_fires_and_rearms() {
        let start = Instant::now();
        let mut wheel = IdleWheel::new(Duration::from_millis(100), start);
        wheel.schedule(7, start + Duration::from_millis(100));
        assert!(wheel.next_due().is_some());
        assert!(wheel.advance(start + Duration::from_millis(20)).is_empty());
        let fired = wheel.advance(start + Duration::from_millis(500));
        assert_eq!(fired, vec![7]);
        assert!(wheel.next_due().is_none());
    }

    #[test]
    fn outbuf_coalesces_responses_but_not_pushes() {
        let mut out = OutBuf::default();
        out.enqueue(vec![1, 2], None);
        out.enqueue(vec![3], None);
        assert_eq!(out.segs.len(), 1, "small responses share a segment");
        let pending = Arc::new(AtomicUsize::new(1));
        out.enqueue(vec![4], Some(Arc::clone(&pending)));
        out.enqueue(vec![5], None);
        assert_eq!(out.segs.len(), 3, "pushes keep their own segment");
        assert_eq!(out.bytes, 5);
        out.abandon();
        assert_eq!(
            pending.load(Ordering::SeqCst),
            0,
            "abandon releases backlog"
        );
        assert_eq!(out.bytes, 0);
    }

    #[test]
    fn ctl_queue_round_trips_and_wakes() {
        let ctl = ReactorCtl::new().expect("ctl");
        ctl.send(ConnId(3), vec![0, 0, 0, 2, b'{', b'}']);
        ctl.close(ConnId(3));
        let ops = ctl.take_ops();
        assert_eq!(ops.len(), 2);
        assert!(matches!(
            ops[0],
            Op::Send {
                conn: ConnId(3),
                ..
            }
        ));
        assert!(matches!(ops[1], Op::Close { conn: ConnId(3) }));
        let mut rx = ctl.take_wake_rx().expect("waker available once");
        let mut buf = [0u8; 8];
        let n = rx.read(&mut buf).expect("wake bytes present");
        assert!(n >= 1, "a queued batch leaves a wake byte in the self-pipe");
        assert!(ctl.take_wake_rx().is_none());
    }

    #[test]
    fn raise_nofile_limit_reports_a_sane_value() {
        let eff = raise_nofile_limit(1024);
        assert!(eff >= 256, "soft fd limit should be at least a few hundred");
    }
}
