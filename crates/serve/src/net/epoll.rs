//! Event-driven transport: a fixed worker pool over `epoll_wait`.
//!
//! Worker 0 owns the nonblocking listener and deals accepted streams
//! round-robin across all workers (itself included) through lock-free-ish
//! inboxes (a mutexed `Vec` drained once per wakeup) plus a [`Waker`].
//! Each worker runs a level-triggered readiness loop over a slab of
//! connection slots:
//!
//! * **Read**: drain the socket (capped per wakeup for fairness — the
//!   level-triggered poller re-reports a still-readable fd), feed the
//!   [`Conn`] machine, answer every complete pipelined request.
//! * **Write**: flush until `WouldBlock`; a partial write arms
//!   `EPOLLOUT` and the remainder goes out when the peer drains. Above
//!   the high-water mark the machine stops parsing and the worker drops
//!   read interest — per-connection backpressure, not global stalls.
//! * **Slow routes**: `POST /v1/form`/`POST /v1/grouping` sleep out the batch
//!   window, so they are shipped to a small [`OffloadPool`] of blocking
//!   threads; the connection pauses (preserving pipelined response
//!   order) and a generation-tagged completion re-enters through the
//!   worker's inbox. Stale completions for a recycled slot are dropped
//!   by the generation check.
//! * **Idle deadline**: a coarse [`TimerWheel`] enforces the same
//!   `--conn-timeout-ms` the blocking path applies via socket
//!   timeouts. Entries re-arm lazily: a wheel slot firing early (any
//!   activity since arming) just re-inserts at the real deadline, so
//!   busy connections cost one wheel hop per timeout window, not per
//!   request.

use crate::http::{route_full, HttpRequest, RouteOutcome};
use crate::net::conn::{Conn, Step};
use crate::state::ServeState;
use gf_netpoll::{Event, Interest, Poller, Waker};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Slab indices double as epoll tokens; the two reserved tokens sit at
/// the top of the space where no slab will ever reach.
const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Per-wakeup read cap: one firehose connection yields after this many
/// bytes so its neighbors get a turn (level-triggering re-reports it).
const READ_BUDGET: usize = 256 * 1024;
const READ_CHUNK: usize = 16 * 1024;

/// Cross-thread mailbox of one worker: freshly accepted streams from
/// the acceptor and completions from the offload pool.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// Outcome of an offloaded request, addressed by (slot, generation).
struct Completion {
    token: usize,
    gen: u64,
    outcome: RouteOutcome,
}

/// The shared half of a worker: what other threads may touch.
pub(crate) struct WorkerShared {
    inbox: Mutex<Inbox>,
    waker: Waker,
}

impl WorkerShared {
    pub(crate) fn new() -> std::io::Result<WorkerShared> {
        Ok(WorkerShared {
            inbox: Mutex::new(Inbox::default()),
            waker: Waker::new()?,
        })
    }

    fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().unwrap().conns.push(stream);
        self.waker.wake();
    }

    fn push_completion(&self, completion: Completion) {
        self.inbox.lock().unwrap().completions.push(completion);
        self.waker.wake();
    }

    /// Wakes the worker with nothing in the inbox (shutdown nudge).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// Blocking thread pool for slow (batch-window) routes. Workers hold
/// the [`OffloadQueue`] handle for submission; the pool itself stays
/// with the server handle, which joins the threads on shutdown.
pub(crate) struct OffloadPool {
    queue: Arc<OffloadQueue>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct OffloadQueue {
    jobs: Mutex<VecDeque<OffloadJob>>,
    ready: Condvar,
    stop: AtomicBool,
}

impl OffloadQueue {
    fn submit(&self, job: OffloadJob) {
        self.jobs.lock().unwrap().push_back(job);
        self.ready.notify_one();
    }
}

struct OffloadJob {
    req: HttpRequest,
    dest: Arc<WorkerShared>,
    token: usize,
    gen: u64,
}

impl OffloadPool {
    pub(crate) fn spawn(threads: usize, state: Arc<ServeState>) -> OffloadPool {
        let queue = Arc::new(OffloadQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let threads = (0..threads.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut jobs = queue.jobs.lock().unwrap();
                        loop {
                            if queue.stop.load(Ordering::SeqCst) {
                                return;
                            }
                            if let Some(job) = jobs.pop_front() {
                                break job;
                            }
                            jobs = queue.ready.wait(jobs).unwrap();
                        }
                    };
                    let outcome = route_full(&state, &job.req);
                    job.dest.push_completion(Completion {
                        token: job.token,
                        gen: job.gen,
                        outcome,
                    });
                })
            })
            .collect();
        OffloadPool { queue, threads }
    }

    /// The submission handle workers keep.
    pub(crate) fn handle(&self) -> Arc<OffloadQueue> {
        Arc::clone(&self.queue)
    }

    pub(crate) fn stop(mut self) {
        self.queue.stop.store(true, Ordering::SeqCst);
        self.queue.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Coarse hashed timer wheel for idle deadlines. One entry per armed
/// connection; granularity is an eighth of the timeout (clamped to
/// 10ms..1s), so firings are at most one tick late — plenty for a
/// 30-second idle cutoff, and still responsive under the sub-second
/// timeouts the regression tests use.
struct TimerWheel {
    buckets: Vec<Vec<(usize, u64)>>,
    granularity: Duration,
    cursor: usize,
    next_tick: Instant,
}

impl TimerWheel {
    fn new(timeout: Duration, now: Instant) -> TimerWheel {
        let granularity = (timeout / 8)
            .max(Duration::from_millis(10))
            .min(Duration::from_secs(1));
        let spans = (timeout.as_nanos() / granularity.as_nanos()).max(1) as usize;
        TimerWheel {
            buckets: vec![Vec::new(); spans + 2],
            granularity,
            cursor: 0,
            next_tick: now + granularity,
        }
    }

    /// Inserts `(token, gen)` to fire at or shortly after `deadline`.
    fn arm(&mut self, token: usize, gen: u64, deadline: Instant) {
        let from_tick = deadline.saturating_duration_since(self.next_tick);
        let ticks = (from_tick.as_nanos() / self.granularity.as_nanos()) as usize + 1;
        let ticks = ticks.min(self.buckets.len() - 1);
        let idx = (self.cursor + ticks) % self.buckets.len();
        self.buckets[idx].push((token, gen));
    }

    /// How long the poller may sleep before the next tick is due.
    fn next_wait(&self, now: Instant) -> Duration {
        self.next_tick.saturating_duration_since(now)
    }

    /// Advances past every tick `now` has reached, collecting the due
    /// entries into `out` (callers re-arm the still-live ones).
    fn collect_due(&mut self, now: Instant, out: &mut Vec<(usize, u64)>) {
        while self.next_tick <= now {
            self.cursor = (self.cursor + 1) % self.buckets.len();
            out.append(&mut self.buckets[self.cursor]);
            self.next_tick += self.granularity;
        }
    }
}

/// One connection slot in a worker's slab.
struct Slot {
    stream: TcpStream,
    conn: Conn,
    /// Bumped on every slab-slot reuse; stale wheel entries and offload
    /// completions carry the old value and are ignored.
    gen: u64,
    interest: Interest,
    last_activity: Instant,
}

pub(crate) struct Worker {
    poller: Poller,
    shared: Arc<WorkerShared>,
    /// All workers' shared halves, for round-robin dealing (worker 0).
    peers: Vec<Arc<WorkerShared>>,
    next_peer: usize,
    /// Present on worker 0 only; registered nonblocking.
    listener: Option<TcpListener>,
    state: Arc<ServeState>,
    offload: Option<Arc<OffloadQueue>>,
    conn_timeout: Option<Duration>,
    wheel: Option<TimerWheel>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_gen: u64,
    stop: Arc<AtomicBool>,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shared: Arc<WorkerShared>,
        peers: Vec<Arc<WorkerShared>>,
        listener: Option<TcpListener>,
        state: Arc<ServeState>,
        offload: Option<Arc<OffloadQueue>>,
        conn_timeout: Option<Duration>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<Worker> {
        let poller = Poller::new()?;
        poller.add(&shared.waker, TOKEN_WAKER, Interest::READ)?;
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.add(listener, TOKEN_LISTENER, Interest::READ)?;
        }
        let wheel = conn_timeout.map(|t| TimerWheel::new(t, Instant::now()));
        Ok(Worker {
            poller,
            shared,
            peers,
            next_peer: 0,
            listener,
            state,
            offload,
            conn_timeout,
            wheel,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            stop,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<(usize, u64)> = Vec::new();
        loop {
            let timeout = self
                .wheel
                .as_ref()
                .map(|wheel| wheel.next_wait(Instant::now()));
            if let Err(err) = self.poller.wait(&mut events, timeout) {
                if self.stop.load(Ordering::SeqCst) {
                    return;
                }
                eprintln!("gf-serve: poll error: {err}");
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.shared.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.drive(token as usize, ev.readable || ev.error, ev.writable),
                }
            }
            self.drain_inbox();
            self.expire_idle(&mut due);
        }
    }

    /// Accepts until the backlog is drained, dealing streams round-robin
    /// across the worker pool.
    fn accept_ready(&mut self) {
        loop {
            let listener = self.listener.as_ref().expect("listener event on worker 0");
            match listener.accept() {
                Ok((stream, _)) => {
                    self.state
                        .stats
                        .conns_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let target = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if Arc::ptr_eq(&self.peers[target], &self.shared) {
                        self.register(stream);
                    } else {
                        self.peers[target].push_conn(stream);
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    eprintln!("gf-serve: accept error: {err}");
                    return;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let interest = Interest::READ;
        if self.poller.add(&stream, token as u64, interest).is_err() {
            self.free.push(token);
            return;
        }
        self.next_gen += 1;
        let gen = self.next_gen;
        let now = Instant::now();
        if let (Some(wheel), Some(timeout)) = (&mut self.wheel, self.conn_timeout) {
            wheel.arm(token, gen, now + timeout);
        }
        self.slots[token] = Some(Slot {
            stream,
            conn: Conn::new(self.offload.is_some()),
            gen,
            interest,
            last_activity: now,
        });
    }

    fn drain_inbox(&mut self) {
        let Inbox { conns, completions } = {
            let mut inbox = self.shared.inbox.lock().unwrap();
            std::mem::take(&mut *inbox)
        };
        for completion in completions {
            let live = self
                .slots
                .get(completion.token)
                .and_then(Option::as_ref)
                .is_some_and(|slot| slot.gen == completion.gen);
            if !live {
                continue; // connection died (or slot recycled) mid-offload
            }
            if let Some(slot) = self.slots[completion.token].as_mut() {
                slot.conn.complete_offload(&completion.outcome);
                slot.last_activity = Instant::now();
            }
            // Flush the fresh response and resume parsing pipelined
            // requests that queued up behind the offloaded one.
            self.drive(completion.token, false, true);
        }
        for stream in conns {
            self.register(stream);
        }
    }

    /// Times out idle connections and lazily re-arms the live ones.
    fn expire_idle(&mut self, due: &mut Vec<(usize, u64)>) {
        let Some(timeout) = self.conn_timeout else {
            return;
        };
        let now = Instant::now();
        if let Some(wheel) = &mut self.wheel {
            wheel.collect_due(now, due);
        }
        for (token, gen) in due.drain(..) {
            let Some(slot) = self.slots.get(token).and_then(Option::as_ref) else {
                continue;
            };
            if slot.gen != gen {
                continue;
            }
            let deadline = slot.last_activity + timeout;
            if deadline <= now {
                self.state
                    .stats
                    .conns_timed_out
                    .fetch_add(1, Ordering::Relaxed);
                self.close(token);
            } else if let Some(wheel) = &mut self.wheel {
                wheel.arm(token, gen, deadline);
            }
        }
    }

    /// Runs one connection forward: optional read drain, request
    /// stepping, flush, then interest/done bookkeeping. The slot is
    /// taken out of the slab while driven so `&mut self` stays usable.
    fn drive(&mut self, token: usize, do_read: bool, do_write: bool) {
        let Some(mut slot) = self.slots.get_mut(token).and_then(Option::take) else {
            return;
        };
        slot.last_activity = Instant::now();
        let mut dead = false;
        if do_read {
            dead = !Self::read_some(&mut slot);
        }
        if !dead && do_write {
            dead = !Self::flush_some(&mut slot);
        }
        if !dead {
            dead = !self.pump(token, &mut slot);
        }
        if dead || slot.conn.done() {
            let _ = self.poller.delete(&slot.stream);
            self.free.push(token);
            // slot drops here, closing the fd.
        } else {
            let want = Interest {
                readable: slot.conn.wants_read(),
                writable: slot.conn.has_pending_write(),
            };
            if want != slot.interest && self.poller.modify(&slot.stream, token as u64, want).is_ok()
            {
                slot.interest = want;
            }
            self.slots[token] = Some(slot);
        }
    }

    /// Alternates stepping the machine and flushing until neither makes
    /// progress (more bytes needed, backpressure, or `WouldBlock`).
    /// Returns `false` when the connection died mid-write.
    fn pump(&mut self, token: usize, slot: &mut Slot) -> bool {
        let mut write_blocked = false;
        loop {
            let mut progressed = false;
            loop {
                match slot.conn.step(&self.state) {
                    Step::Responded => progressed = true,
                    Step::Idle => break,
                    Step::Offload(req) => {
                        let pool = self.offload.as_ref().expect("offload step without pool");
                        pool.submit(OffloadJob {
                            req,
                            dest: Arc::clone(&self.shared),
                            token,
                            gen: slot.gen,
                        });
                        progressed = true;
                        break;
                    }
                }
            }
            if !write_blocked && slot.conn.has_pending_write() {
                if !Self::flush_until_blocked(slot, &mut write_blocked) {
                    return false;
                }
                progressed = true;
            }
            if !progressed {
                return true;
            }
        }
    }

    /// Drains the socket into the machine, up to the fairness budget.
    /// Returns `false` when the connection errored.
    fn read_some(slot: &mut Slot) -> bool {
        let mut budget = READ_BUDGET;
        let mut buf = [0u8; READ_CHUNK];
        while budget > 0 {
            match slot.stream.read(&mut buf) {
                Ok(0) => {
                    slot.conn.mark_eof();
                    return true;
                }
                Ok(n) => {
                    slot.conn.ingest(&buf[..n]);
                    budget = budget.saturating_sub(n);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// One bounded flush attempt (used on `EPOLLOUT`).
    fn flush_some(slot: &mut Slot) -> bool {
        let mut blocked = false;
        Self::flush_until_blocked(slot, &mut blocked)
    }

    fn flush_until_blocked(slot: &mut Slot, blocked: &mut bool) -> bool {
        while slot.conn.has_pending_write() {
            match slot.stream.write(slot.conn.pending_write()) {
                Ok(0) => return false,
                Ok(n) => slot.conn.consume_written(n),
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    *blocked = true;
                    return true;
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    fn close(&mut self, token: usize) {
        if let Some(slot) = self.slots.get_mut(token).and_then(Option::take) {
            let _ = self.poller.delete(&slot.stream);
            self.free.push(token);
        }
    }
}
