//! The readiness-driven connection layer: N epoll reactor shards.
//!
//! Where the gateway used to spawn one blocking handler thread per
//! connection, it now runs a fixed set of **reactor shards**. Each shard
//! owns an [`sys::Epoll`] instance, a token→connection map, an inbox of
//! newly accepted sockets and an [`sys::WakeFd`]; shard 0 additionally
//! owns the (nonblocking, level-triggered) listener and deals accepted
//! connections across shards with the same splitmix64 partition the
//! fleet uses for streams (`shard_of_conn`). Connection sockets are
//! nonblocking and **edge-triggered**: every readable event loops
//! [`FrameReader::poll`] until `Pending`, so 1-byte-at-a-time delivery
//! reassembles exactly like whole-frame delivery, and every writable
//! event flushes the connection's queued reply frames with vectored
//! writes until the socket would block.
//!
//! A shard serves each frame to completion, pushes included: the
//! windows a push completes are computed on the shard before its reply
//! is queued. Backpressure composes in two layers: a push above the
//! per-push bound is refused with a typed `Busy` (admission), and a
//! connection whose *outbound* queue exceeds the configured write budget
//! stops being read until the kernel accepts the backlog — so a client
//! that stops reading its replies cannot grow gateway memory without
//! bound, it just stops being served.
//!
//! Shutdown is event-driven, not timed: a `Shutdown` request parks its
//! connection (`ServeOutcome::ShutdownPending`); once the drain has
//! published the final reports every shard is woken, and the shard
//! epilogue answers each parked connection with the `ShutdownAck`,
//! flushes, and tears down. The drain-report invariant (id-ordered,
//! bit-identical to an offline fleet run) is untouched — the reactor
//! only changes how bytes move, never what is computed.
//!
//! Functions on the event path are annotated `// analyze::reactor`: the
//! `reactor-discipline` rule of `hrv-analyze` statically bans blocking
//! calls (sleeps, joins, channel receives, blocking read/write loops,
//! re-blocking a socket) inside them.

pub mod sys;

use crate::error::ServiceError;
use crate::frame::{FramePoll, FrameReader, HEADER_LEN};
use crate::gateway::{STATE_DONE, STATE_RUNNING};
use crate::proto::Reply;
use hrv_core::lock_unpoisoned;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use sys::{Epoll, EpollEvent, WakeFd};

/// Epoll token of a shard's wake eventfd.
const TOKEN_WAKE: u64 = 0;
/// Epoll token of the listener (shard 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;
/// Upper bound on a shard's epoll_wait sleep: the liveness backstop for
/// any state change that raced a wakeup.
const WAIT_MS: i32 = 25;
/// Events harvested per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Frames per vectored write.
const MAX_IOV: usize = 16;
/// How long the drain epilogue keeps flushing straggler connections
/// after the gateway reaches `STATE_DONE` before dropping them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What the reactor needs from the gateway: frame service, shutdown
/// reports, and the telemetry hooks of the connection layer. Kept as a
/// trait so the reactor machinery stays free of the gateway's shared
/// state (and unit-testable against a stub).
pub(crate) trait ShardService: Send + Sync + 'static {
    /// Serves one decoded frame body; `handshaken` is the connection's
    /// Hello state, owned by the reactor.
    fn serve(&self, handshaken: &mut bool, body: &[u8]) -> ServeOutcome;
    /// The encoded `ShutdownAck` once the drain has published the final
    /// reports (`None` while the drain is still running).
    fn shutdown_reply(&self) -> Option<Vec<u8>>;
    /// Current gateway state (`STATE_RUNNING` / `STATE_DRAINING` /
    /// `STATE_DONE`).
    fn state(&self) -> u8;
    /// A connection was accepted (admitted or not).
    fn on_accept(&self);
    /// A connection beyond the cap is being refused; returns the encoded
    /// typed refusal to send before dropping it.
    fn refusal(&self, limit: usize) -> Vec<u8>;
    /// A frame completed reassembly after `busy` of socket-read work
    /// (idle waits excluded — they land in [`ShardService::on_conn_idle`]).
    fn on_frame_read(&self, busy: Duration);
    /// A connection that was idle for `idle` became readable again.
    fn on_conn_idle(&self, idle: Duration);
    /// A framing error is being answered with a typed error reply.
    fn on_frame_error(&self);
}

/// Outcome of serving one frame.
pub(crate) enum ServeOutcome {
    /// An encoded reply frame body to queue on the connection.
    Reply(Vec<u8>),
    /// The request was `Shutdown`: park the connection; the drain
    /// epilogue delivers the `ShutdownAck` once the reports exist.
    ShutdownPending,
}

/// Reactor tuning, fixed at gateway start.
#[derive(Clone, Debug)]
pub(crate) struct ReactorConfig {
    /// Global cap on live connections across all shards.
    pub max_connections: usize,
    /// Per-connection outbound byte budget: above it, the connection
    /// stops being read until the backlog flushes.
    pub write_buffer: usize,
}

/// The splitmix64 finalizer, mirroring the fleet's stream partition
/// (`shard_of` in `crates/stream/src/fleet.rs`): connection `seq` goes
/// to shard `shard_of_conn(seq, shards)`.
pub(crate) fn shard_of_conn(seq: u64, shards: usize) -> usize {
    let mut x = seq.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

/// The cross-thread face of one shard: wake it, or hand it a freshly
/// accepted connection. Cloneable; the gateway keeps one per shard to
/// wake them on state changes (drain start, reports published).
#[derive(Clone, Debug)]
pub(crate) struct ShardHandle {
    wake: Arc<WakeFd>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
}

impl ShardHandle {
    /// Interrupts the shard's `epoll_wait`.
    pub fn wake(&self) {
        self.wake.wake();
    }

    /// Queues an accepted connection for the shard to adopt.
    fn deliver(&self, conn: TcpStream) {
        lock_unpoisoned(&self.inbox).push(conn);
        self.wake.wake();
    }
}

/// Creates the wake/inbox pair for each of `n` shards. Split from
/// [`spawn_shards`] so the gateway can store the handles in its shared
/// state before the shard threads (which borrow that state) start.
pub(crate) fn shard_handles(n: usize) -> io::Result<Vec<ShardHandle>> {
    (0..n.max(1))
        .map(|_| {
            Ok(ShardHandle {
                wake: Arc::new(WakeFd::new()?),
                inbox: Arc::new(Mutex::new(Vec::new())),
            })
        })
        .collect()
}

/// Spawns one event-loop thread per handle; shard 0 takes the listener.
pub(crate) fn spawn_shards<S: ShardService>(
    service: &Arc<S>,
    listener: TcpListener,
    handles: &[ShardHandle],
    config: &ReactorConfig,
) -> io::Result<Vec<JoinHandle<()>>> {
    let peers: Arc<Vec<ShardHandle>> = Arc::new(handles.to_vec());
    let conn_count = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::with_capacity(peers.len());
    let mut listener = Some(listener);
    for (id, handle) in handles.iter().enumerate() {
        let epoll = Epoll::new()?;
        epoll.add(handle.wake.raw_fd(), TOKEN_WAKE, true, false, false)?;
        let own_listener = if id == 0 { listener.take() } else { None };
        if let Some(l) = &own_listener {
            // Level-triggered: backlog entries left behind by a
            // transient accept failure (e.g. fd exhaustion) re-fire.
            epoll.add(l.as_raw_fd(), TOKEN_LISTENER, true, false, false)?;
        }
        let shard = Shard {
            id,
            epoll,
            wake: Arc::clone(&handle.wake),
            inbox: Arc::clone(&handle.inbox),
            peers: Arc::clone(&peers),
            listener: own_listener,
            conns: BTreeMap::new(),
            next_token: TOKEN_FIRST_CONN,
            accepted_seq: 0,
            conn_count: Arc::clone(&conn_count),
            max_connections: config.max_connections.max(1),
            write_buffer: config.write_buffer.max(HEADER_LEN),
            drain_deadline: None,
        };
        let service = Arc::clone(service);
        threads.push(
            thread::Builder::new()
                .name(format!("hrv-service-reactor-{id}"))
                .spawn(move || shard.run(service.as_ref()))?,
        );
    }
    Ok(threads)
}

/// A connection's outbound queue: encoded reply frames, flushed with
/// vectored writes. `head` is the write offset into the front frame.
#[derive(Debug, Default)]
struct OutBuf {
    frames: VecDeque<Vec<u8>>,
    head: usize,
    queued: usize,
}

/// What a flush attempt left behind.
enum Flush {
    /// Everything written.
    Drained,
    /// The socket would block; `EPOLLOUT` will continue the flush.
    Blocked,
    /// The transport failed; tear the connection down.
    Failed,
}

impl OutBuf {
    /// Queues `body` as one length-prefixed frame.
    fn push_frame(&mut self, body: &[u8]) {
        let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(body);
        self.queued += frame.len();
        self.frames.push_back(frame);
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Outbound bytes not yet accepted by the kernel.
    fn bytes_queued(&self) -> usize {
        self.queued
    }

    /// Writes queued frames to `stream` (vectored, up to [`MAX_IOV`]
    /// frames per call) until drained or the socket would block.
    // analyze::reactor
    fn flush_to(&mut self, stream: &mut TcpStream) -> Flush {
        loop {
            if self.frames.is_empty() {
                return Flush::Drained;
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.frames.len().min(MAX_IOV));
            for (i, frame) in self.frames.iter().enumerate().take(MAX_IOV) {
                let bytes = if i == 0 {
                    &frame[self.head..]
                } else {
                    &frame[..]
                };
                slices.push(IoSlice::new(bytes));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Flush::Failed,
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Flush::Failed,
            }
        }
    }

    /// Advances the queue past `n` written bytes.
    fn consume(&mut self, mut n: usize) {
        self.queued = self.queued.saturating_sub(n);
        while n > 0 {
            let Some(front) = self.frames.front() else {
                return;
            };
            let left = front.len() - self.head;
            if n < left {
                self.head += n;
                return;
            }
            n -= left;
            self.head = 0;
            self.frames.pop_front();
        }
    }
}

/// One live connection.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: OutBuf,
    /// Hello completed (version negotiated).
    handshaken: bool,
    /// Reads suspended: outbound queue over the write budget.
    paused: bool,
    /// Peer EOF or framing error: never read again, flush and close.
    read_closed: bool,
    /// Close as soon as the outbound queue drains.
    close_after_flush: bool,
    /// Sent `Shutdown`; waiting for the drain to publish reports.
    awaiting_shutdown: bool,
    /// The parked `Shutdown` has been answered.
    shutdown_acked: bool,
    /// Interest currently registered with the epoll (read, write).
    interest: (bool, bool),
    /// Socket-read work accumulated toward the current partial frame.
    busy: Duration,
    /// When the connection last went idle (no complete frame pending).
    idle_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            reader: FrameReader::new(),
            out: OutBuf::default(),
            handshaken: false,
            paused: false,
            read_closed: false,
            close_after_flush: false,
            awaiting_shutdown: false,
            shutdown_acked: false,
            interest: (true, false),
            busy: Duration::ZERO,
            idle_since: Some(Instant::now()),
        }
    }

    /// The interest set this connection currently wants.
    fn wanted_interest(&self) -> (bool, bool) {
        (
            !self.paused && !self.read_closed && !self.awaiting_shutdown,
            !self.out.is_empty(),
        )
    }
}

/// One reactor shard: an epoll instance plus the connections assigned
/// to it. Runs [`Shard::run`] on its own thread until the drain
/// epilogue completes.
struct Shard {
    id: usize,
    epoll: Epoll,
    wake: Arc<WakeFd>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    peers: Arc<Vec<ShardHandle>>,
    listener: Option<TcpListener>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    accepted_seq: u64,
    conn_count: Arc<AtomicUsize>,
    max_connections: usize,
    write_buffer: usize,
    drain_deadline: Option<Instant>,
}

impl Shard {
    /// The event loop: wait, dispatch, adopt new connections, and once
    /// the gateway leaves `STATE_RUNNING`, run the drain epilogue until
    /// every connection is flushed and gone.
    // analyze::reactor
    fn run<S: ShardService>(mut self, service: &S) {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        loop {
            let fired = self.epoll.wait(&mut events, WAIT_MS).unwrap_or(0);
            for &event in events.iter().take(fired) {
                match event.token() {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(service),
                    token => self.conn_event(token, event, service),
                }
            }
            self.adopt_inbox(service);
            if service.state() != STATE_RUNNING && self.drain_epilogue(service) {
                return;
            }
        }
    }

    /// Accepts until the listener would block. Level-triggered, so a
    /// transient failure (fd exhaustion) retries on the next wait.
    // analyze::reactor
    fn accept_ready<S: ShardService>(&mut self, service: &S) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((conn, _peer)) => {
                    service.on_accept();
                    if self.conn_count.load(Ordering::SeqCst) >= self.max_connections {
                        self.refuse(conn, service);
                        continue;
                    }
                    self.conn_count.fetch_add(1, Ordering::SeqCst);
                    self.accepted_seq += 1;
                    let target = shard_of_conn(self.accepted_seq, self.peers.len());
                    if target == self.id {
                        self.adopt(conn, service);
                    } else {
                        self.peers[target].deliver(conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient (EMFILE, ECONNABORTED, …): leave the backlog
                // for the next level-triggered readiness.
                Err(_) => return,
            }
        }
    }

    /// Typed best-effort refusal for a connection over the cap: one
    /// nonblocking write (a fresh socket's send buffer always has room
    /// for this tiny frame), then drop.
    // analyze::reactor
    fn refuse<S: ShardService>(&mut self, mut conn: TcpStream, service: &S) {
        let body = service.refusal(self.max_connections);
        if conn.set_nonblocking(true).is_err() {
            return;
        }
        let mut out = OutBuf::default();
        out.push_frame(&body);
        let _ = out.flush_to(&mut conn);
    }

    /// Takes ownership of an accepted connection: nonblocking, Nagle
    /// off, registered edge-triggered. The immediate `on_readable` pass
    /// covers bytes that arrived before registration.
    // analyze::reactor
    fn adopt<S: ShardService>(&mut self, conn: TcpStream, service: &S) {
        if conn.set_nonblocking(true).is_err() {
            self.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = conn.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(conn.as_raw_fd(), token, true, false, true)
            .is_err()
        {
            self.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(token, Conn::new(conn));
        self.on_readable(token, service);
    }

    /// Adopts connections other shards (shard 0's accept path) handed
    /// over via the inbox.
    // analyze::reactor
    fn adopt_inbox<S: ShardService>(&mut self, service: &S) {
        let pending: Vec<TcpStream> = {
            // analyze::allow(reactor-discipline): the inbox mutex guards a bounded Vec swap — held for the mem::take only, never across I/O
            let mut inbox = lock_unpoisoned(&self.inbox);
            std::mem::take(&mut *inbox)
        };
        for conn in pending {
            self.adopt(conn, service);
        }
    }

    /// Dispatches one readiness event for a live connection. Writable
    /// first — flushing may lift the write-budget pause and re-enable
    /// reads — then readable/hangup.
    // analyze::reactor
    fn conn_event<S: ShardService>(&mut self, token: u64, event: EpollEvent, service: &S) {
        if event.writable() {
            self.flush(token, service);
        }
        if event.readable() || event.hangup() {
            self.on_readable(token, service);
        }
    }

    /// Drives the connection's `FrameReader` until the socket has no
    /// complete frame left, serving each completed frame. Edge-triggered
    /// correctness lives here: the loop only stops on `Pending` (socket
    /// drained), a parked shutdown, a closed/broken peer, or the write
    /// budget pausing reads.
    // analyze::reactor
    fn on_readable<S: ShardService>(&mut self, token: u64, service: &S) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.read_closed || conn.paused || conn.awaiting_shutdown {
            return;
        }
        if let Some(since) = conn.idle_since.take() {
            service.on_conn_idle(since.elapsed());
        }
        let mut pass = Instant::now();
        let mut close_now = false;
        loop {
            match conn.reader.poll(&mut conn.stream) {
                Ok(FramePoll::Frame(body)) => {
                    service.on_frame_read(conn.busy + pass.elapsed());
                    conn.busy = Duration::ZERO;
                    let outcome = service.serve(&mut conn.handshaken, &body);
                    // Serving (a push's window compute included) is timed
                    // by its own stages; the next frame's read starts now.
                    pass = Instant::now();
                    match outcome {
                        ServeOutcome::Reply(reply) => conn.out.push_frame(&reply),
                        ServeOutcome::ShutdownPending => {
                            conn.awaiting_shutdown = true;
                            break;
                        }
                    }
                    if conn.out.bytes_queued() > self.write_buffer {
                        conn.paused = true;
                        break;
                    }
                }
                Ok(FramePoll::Pending) => {
                    conn.busy += pass.elapsed();
                    conn.idle_since = Some(Instant::now());
                    break;
                }
                Ok(FramePoll::Closed) => {
                    conn.read_closed = true;
                    conn.close_after_flush = true;
                    close_now = conn.out.is_empty();
                    break;
                }
                Err(err) => {
                    // Framing is broken; typed goodbye, flush, then drop.
                    service.on_frame_error();
                    conn.out.push_frame(&Reply::Error(err).encode());
                    conn.read_closed = true;
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        if close_now {
            self.close(token);
            return;
        }
        self.flush(token, service);
    }

    /// Flushes the connection's outbound queue and reconciles epoll
    /// interest / the write-budget pause with the result.
    // analyze::reactor
    fn flush<S: ShardService>(&mut self, token: u64, service: &S) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.out.flush_to(&mut conn.stream) {
            Flush::Drained => {
                if conn.close_after_flush {
                    self.close(token);
                    return;
                }
                let resume = conn.paused;
                conn.paused = false;
                self.update_interest(token);
                if resume {
                    // Bytes may be waiting with no new edge: re-enter
                    // the read loop directly rather than trust the
                    // re-armed registration alone.
                    self.on_readable(token, service);
                }
            }
            Flush::Blocked => self.update_interest(token),
            Flush::Failed => self.close(token),
        }
    }

    /// Re-registers the connection when its wanted interest set changed
    /// (`EPOLL_CTL_MOD` also re-arms the edge trigger, so an
    /// already-true condition fires a fresh event).
    // analyze::reactor
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wanted = conn.wanted_interest();
        if wanted == conn.interest {
            return;
        }
        conn.interest = wanted;
        let (readable, writable) = wanted;
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), token, readable, writable, true)
            .is_err()
        {
            self.close(token);
        }
    }

    /// Removes and drops a connection (closing the socket detaches it
    /// from the epoll set).
    // analyze::reactor
    fn close(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One pass of the shutdown sequence, entered every loop iteration
    /// once the gateway leaves `STATE_RUNNING`. Returns `true` when the
    /// shard has nothing left to do.
    ///
    /// * Drops the listener (stop admitting) on the first pass.
    /// * Answers parked `Shutdown` connections the moment the drain
    ///   publishes the final reports (typed error instead if the drain
    ///   unwound — its scope guard still moves the state to `STATE_DONE`).
    /// * At `STATE_DONE`, flushes every connection and closes it, with a
    ///   bounded grace window for peers slow to drain their socket.
    // analyze::reactor
    fn drain_epilogue<S: ShardService>(&mut self, service: &S) -> bool {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        let parked: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.awaiting_shutdown && !c.shutdown_acked)
            .map(|(&t, _)| t)
            .collect();
        if !parked.is_empty() {
            let reply = match service.shutdown_reply() {
                Some(ack) => Some(ack),
                None if service.state() == STATE_DONE => Some(
                    Reply::Error(ServiceError::Io(
                        "gateway drain failed before publishing final reports".into(),
                    ))
                    .encode(),
                ),
                None => None,
            };
            if let Some(reply) = reply {
                for token in parked {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.out.push_frame(&reply);
                        conn.shutdown_acked = true;
                        conn.close_after_flush = true;
                    }
                    self.flush(token, service);
                }
            }
        }
        if service.state() != STATE_DONE {
            return false;
        }
        // Fully drained: every connection closes once its replies flush.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
            self.flush(token, service);
        }
        if self.conns.is_empty() {
            return true;
        }
        let deadline = *self
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
        if Instant::now() >= deadline {
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.close(token);
            }
        }
        self.conns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_partition_matches_fleet_shape() {
        // Same finalizer constants as the fleet's stream partition: the
        // first few assignments are a fixed, well-spread sequence.
        let shards = 4;
        let assigned: Vec<usize> = (1..=8).map(|seq| shard_of_conn(seq, shards)).collect();
        assert!(assigned.iter().all(|&s| s < shards));
        // Not all on one shard (the partition actually spreads).
        assert!(assigned.iter().any(|&s| s != assigned[0]));
        // Degenerate shard counts never panic.
        assert_eq!(shard_of_conn(123, 0), 0);
        assert_eq!(shard_of_conn(123, 1), 0);
    }

    #[test]
    fn out_buf_vectored_queue_accounting() {
        let mut out = OutBuf::default();
        out.push_frame(&[1, 2, 3]);
        out.push_frame(&[4; 10]);
        assert_eq!(out.bytes_queued(), (4 + 3) + (4 + 10));
        // Consume across a frame boundary byte by byte, like a socket
        // accepting 1 byte per write.
        for _ in 0..(7 + 14) {
            out.consume(1);
        }
        assert!(out.is_empty());
        assert_eq!(out.bytes_queued(), 0);
    }

    #[test]
    fn out_buf_partial_consume_keeps_offset() {
        let mut out = OutBuf::default();
        out.push_frame(&[9; 100]);
        out.consume(50);
        assert_eq!(out.bytes_queued(), 54);
        out.consume(54);
        assert!(out.is_empty());
    }
}
