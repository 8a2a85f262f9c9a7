//! The RPC server: readiness-driven accept/decode, worker dispatch.
//!
//! The server runs on one of two execution substrates, chosen at start:
//!
//! - **Reactor core** (pollable listener + system clock): a single
//!   [`Reactor`] thread owns every connection. Readiness wakes it, it
//!   decodes frames and feeds them to a per-connection *state machine*
//!   ([`ServerConnDriver`] around [`ConnState`]); fast methods dispatch
//!   inline on the reactor thread, everything else goes to the shared
//!   [`FairPool`]. Replies — from workers or the inline path — queue on
//!   the connection and flush in coalesced vectored writes. This scales
//!   to tens of thousands of connections on a handful of threads.
//! - **Thread per connection** (everything else): each accepted
//!   connection gets a blocking reader thread running the same state
//!   machine. In-process transports (loopback, SimNet, channels) and
//!   virtual-clock servers always use this path, which is what keeps the
//!   deterministic virtual-time suites byte-identical: the reactor is an
//!   execution substrate, not a semantic change.
//!
//! Either way each decoded request is handed to the worker pool (or the
//! inline fast path), which calls the [`Dispatcher`] and sends the reply
//! back on the same connection; long-running methods never block frame
//! decode, so concurrent calls on one connection proceed in parallel,
//! exactly as in the original runtime.
//!
//! # The inline fast path
//!
//! Handing every request to a worker costs a thread switch, which for a
//! short method dwarfs the method itself (the observation goes back to
//! Birrell & Nelson, who dispatched simple calls on the thread that read
//! the packet). Servers on the *system* clock therefore keep a small
//! adaptive classifier per connection: a method whose last observed
//! service time was under [`INLINE_FAST_MICROS`] is dispatched directly
//! on the reader thread, skipping the queue and the switch; a slow
//! observation demotes it back to the worker pool. Methods start out
//! unclassified — and therefore on the pool — so a blocking method's
//! first call can never wedge the reader. Servers on a virtual clock
//! always use the pool: inline dispatch would serialise virtual-time
//! sleeps that the deterministic suites expect to overlap.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use netobj_transport::reactor::{AcceptDriver, ConnDriver, Drive, Reactor, ReactorSnapshot};
use netobj_transport::{Bytes, ClockHandle, Conn, Listener};
use netobj_wire::{SpaceId, WireRep};

use crate::budget::{ClientUsage, FairAdmit, FairPool, ResourceBudget};
use crate::error::{RemoteError, RemoteErrorKind};
use crate::msg::{Request, RpcMsg, SendBuf};

/// The result of dispatching one call.
pub struct Dispatch {
    /// The pickled result or a structured error.
    pub outcome: Result<Vec<u8>, RemoteError>,
    /// Runs when the caller acknowledges the reply (or on timeout, or when
    /// the connection dies) — used by the runtime to release the transient
    /// dirty pins protecting object references embedded in the result.
    pub completion: Option<Box<dyn FnOnce() + Send>>,
}

impl Dispatch {
    /// A dispatch with no completion hook.
    pub fn plain(outcome: Result<Vec<u8>, RemoteError>) -> Dispatch {
        Dispatch {
            outcome,
            completion: None,
        }
    }
}

impl From<Result<Vec<u8>, RemoteError>> for Dispatch {
    fn from(outcome: Result<Vec<u8>, RemoteError>) -> Dispatch {
        Dispatch::plain(outcome)
    }
}

/// Per-request observability context the server hands to
/// [`Dispatcher::dispatch_cx`]: the causal span identifiers decoded from
/// the request header (`0` = absent, e.g. an old peer) plus the time the
/// request spent waiting in the worker queue, measured on the server's
/// clock (virtual time under a virtual clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchCx {
    /// Trace id propagated from the root caller (`0` = absent).
    pub trace_id: u64,
    /// The caller's span id for this call (`0` = absent).
    pub span_id: u64,
    /// Time between decoding the request on the reader thread and a
    /// worker picking it up.
    pub queue_wait: std::time::Duration,
}

/// The upcall interface from the RPC server into the object runtime.
///
/// Implementations route a call to the named object's method and return the
/// pickled result. They must be thread-safe: the server invokes `dispatch`
/// concurrently from its worker pool.
pub trait Dispatcher: Send + Sync + 'static {
    /// Handles one invocation.
    ///
    /// `caller` is the space that issued the request (needed by the
    /// collector: dirty sets list spaces). `target` names the object,
    /// `method` the method, and `args` carries the argument pickle.
    fn dispatch(&self, caller: SpaceId, target: WireRep, method: u32, args: &[u8]) -> Dispatch;

    /// Handles one invocation with observability context.
    ///
    /// The server calls this entry point; the default implementation drops
    /// the context and delegates to [`Dispatcher::dispatch`], so plain
    /// dispatchers (including closures) keep working unchanged.
    fn dispatch_cx(
        &self,
        cx: DispatchCx,
        caller: SpaceId,
        target: WireRep,
        method: u32,
        args: &[u8],
    ) -> Dispatch {
        let _ = cx;
        self.dispatch(caller, target, method, args)
    }
}

impl<F> Dispatcher for F
where
    F: Fn(SpaceId, WireRep, u32, &[u8]) -> Result<Vec<u8>, RemoteError> + Send + Sync + 'static,
{
    fn dispatch(&self, caller: SpaceId, target: WireRep, method: u32, args: &[u8]) -> Dispatch {
        Dispatch::plain(self(caller, target, method, args))
    }
}

/// Counters describing a server's activity.
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Requests shed because the aggregate queue was at capacity
    /// (including queued jobs displaced by a fairer newcomer).
    shed_global: AtomicU64,
    /// Requests and connections refused because one client exceeded its
    /// own [`ResourceBudget`].
    shed_quota: AtomicU64,
}

/// Configuration for [`RpcServer::start_with_config`]: worker count,
/// aggregate queue limit, per-client budget and the serving clock.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads (at least one).
    pub workers: usize,
    /// Aggregate queued-request limit; `None` = unbounded.
    pub queue_limit: Option<usize>,
    /// Per-client admission limits.
    pub budget: ResourceBudget,
    /// Clock for ack timeouts and queue-wait measurement.
    pub clock: ClockHandle,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_limit: None,
            budget: ResourceBudget::unlimited(),
            clock: ClockHandle::system(),
        }
    }
}

/// A running RPC server bound to one listener.
pub struct RpcServer {
    stopped: Arc<AtomicBool>,
    listener: Arc<dyn Listener>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// `Some` when this server runs on the reactor core (pollable
    /// listener, system clock); `None` on the thread-per-connection path.
    reactor: Option<Arc<Reactor>>,
    stats: Arc<ServerStats>,
    pool: Arc<FairPool>,
}

impl RpcServer {
    /// Starts serving `listener` with `workers` worker threads and an
    /// unbounded job queue.
    pub fn start(
        listener: Box<dyn Listener>,
        dispatcher: Arc<dyn Dispatcher>,
        workers: usize,
    ) -> RpcServer {
        Self::start_with_queue(listener, dispatcher, workers, None)
    }

    /// Starts serving `listener` with `workers` worker threads. With
    /// `queue_limit` set, at most that many decoded requests wait for a
    /// worker; excess requests are *shed* — answered immediately with a
    /// retryable [`RemoteErrorKind::Busy`] error instead of queueing
    /// without bound behind slow calls.
    pub fn start_with_queue(
        listener: Box<dyn Listener>,
        dispatcher: Arc<dyn Dispatcher>,
        workers: usize,
        queue_limit: Option<usize>,
    ) -> RpcServer {
        Self::start_with_clock(
            listener,
            dispatcher,
            workers,
            queue_limit,
            ClockHandle::system(),
        )
    }

    /// Like [`RpcServer::start_with_queue`], but acknowledgement timeouts
    /// are measured on `clock`, and under a virtual clock each in-flight
    /// dispatch holds the clock so waiting callers cannot time out while
    /// their call is still executing.
    pub fn start_with_clock(
        listener: Box<dyn Listener>,
        dispatcher: Arc<dyn Dispatcher>,
        workers: usize,
        queue_limit: Option<usize>,
        clock: ClockHandle,
    ) -> RpcServer {
        Self::start_with_config(
            listener,
            dispatcher,
            ServerConfig {
                workers,
                queue_limit,
                budget: ResourceBudget::unlimited(),
                clock,
            },
        )
    }

    /// Starts serving `listener` with full admission-control configuration:
    /// per-client budgets are enforced on connections and dispatch, and
    /// over-budget requests are answered with the non-retryable
    /// [`RemoteErrorKind::QuotaExceeded`] error (global saturation still
    /// answers with retryable [`RemoteErrorKind::Busy`]).
    pub fn start_with_config(
        listener: Box<dyn Listener>,
        dispatcher: Arc<dyn Dispatcher>,
        config: ServerConfig,
    ) -> RpcServer {
        let ServerConfig {
            workers,
            queue_limit,
            budget,
            clock,
        } = config;
        let stopped = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let pool = FairPool::new(workers, "rpc-worker", queue_limit, budget);
        let listener: Arc<dyn Listener> = Arc::from(listener);

        // Reactor core: a pollable listener on a system clock is served by
        // the event loop instead of per-connection threads. Virtual-clock
        // servers always keep the thread path — the deterministic suites
        // rely on blocking reads interleaving with virtual-time holds.
        if clock.as_virtual().is_none() && listener.as_pollable().is_some() {
            if let Ok(reactor) = Reactor::start(Reactor::DEFAULT_TICK) {
                let accept = ServerAccept {
                    dispatcher: Arc::clone(&dispatcher),
                    pool: Arc::clone(&pool),
                    stats: Arc::clone(&stats),
                    stopped: Arc::clone(&stopped),
                    clock: clock.clone(),
                };
                if reactor
                    .register_listener(Arc::clone(&listener), Box::new(accept))
                    .is_ok()
                {
                    return RpcServer {
                        stopped,
                        listener,
                        accept_thread: None,
                        reactor: Some(Arc::new(reactor)),
                        stats,
                        pool,
                    };
                }
            }
            // No readiness backend (or registration failed): fall through
            // to the blocking path below.
        }

        let accept_stopped = Arc::clone(&stopped);
        let accept_stats = Arc::clone(&stats);
        let accept_listener = Arc::clone(&listener);
        let accept_pool = Arc::clone(&pool);
        let accept_thread = std::thread::Builder::new()
            .name("rpc-accept".into())
            .spawn(move || loop {
                let conn = match accept_listener.accept() {
                    Ok(c) => c,
                    Err(_) => break,
                };
                if accept_stopped.load(Ordering::Acquire) {
                    conn.close();
                    break;
                }
                accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                let conn: Arc<dyn Conn> = Arc::from(conn);
                let dispatcher = Arc::clone(&dispatcher);
                let pool = Arc::clone(&accept_pool);
                let stats = Arc::clone(&accept_stats);
                let stopped = Arc::clone(&accept_stopped);
                let clock = clock.clone();
                std::thread::Builder::new()
                    .name("rpc-conn".into())
                    .spawn(move || connection_loop(conn, dispatcher, pool, stats, stopped, clock))
                    .expect("spawn rpc connection reader");
            })
            .expect("spawn rpc accept thread");

        RpcServer {
            stopped,
            listener,
            accept_thread: Some(accept_thread),
            reactor: None,
            stats,
            pool,
        }
    }

    /// The endpoint this server accepts connections on.
    pub fn local_endpoint(&self) -> netobj_transport::Endpoint {
        self.listener.local_endpoint()
    }

    /// Total connections accepted.
    pub fn connections(&self) -> u64 {
        self.stats.connections.load(Ordering::Relaxed)
    }

    /// Total requests dispatched.
    pub fn requests(&self) -> u64 {
        self.stats.requests.load(Ordering::Relaxed)
    }

    /// Total requests that produced an error reply.
    pub fn errors(&self) -> u64 {
        self.stats.errors.load(Ordering::Relaxed)
    }

    /// Total requests shed for any cause: global saturation plus
    /// per-client quota rejections.
    pub fn shed(&self) -> u64 {
        self.shed_global() + self.shed_quota()
    }

    /// Requests shed with a retryable `Busy` reply because the aggregate
    /// worker queue was full (including queued requests displaced by fair
    /// shedding in favour of a less greedy client).
    pub fn shed_global(&self) -> u64 {
        self.stats.shed_global.load(Ordering::Relaxed)
    }

    /// Requests and connections refused with a non-retryable
    /// `QuotaExceeded` reply because one client exceeded its own budget.
    pub fn shed_quota(&self) -> u64 {
        self.stats.shed_quota.load(Ordering::Relaxed)
    }

    /// Requests waiting in the worker queue right now. Exact: counted
    /// under the queue lock, not read from a lock-free channel.
    pub fn queue_depth(&self) -> usize {
        self.pool.queued()
    }

    /// Deepest queue backlog ever reached (monotonic high-water mark).
    pub fn queue_high_water(&self) -> usize {
        self.pool.queue_high_water()
    }

    /// Worker threads currently executing a dispatch (approximate).
    pub fn active_workers(&self) -> usize {
        self.pool.active()
    }

    /// Per-client usage snapshot (sorted by client id) for quota gauges.
    pub fn per_client(&self) -> Vec<(SpaceId, ClientUsage)> {
        self.pool.per_client()
    }

    /// Reactor-core statistics: `Some` when this server runs on the
    /// readiness event loop, `None` on the thread-per-connection path.
    pub fn reactor_stats(&self) -> Option<ReactorSnapshot> {
        self.reactor.as_ref().map(|r| r.stats())
    }

    /// Stops accepting and tears the server down.
    pub fn stop(&mut self) {
        self.stopped.store(true, Ordering::Release);
        self.listener.close();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Reactor first: its shutdown closes every registered connection
        // and runs each driver's teardown (ack drains, quota unbinding)
        // while the pool can still report ShutDown to late frames.
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        self.pool.shutdown();
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long a completion hook waits for its [`RpcMsg::ReplyAck`] before
/// running anyway. Bounds transient-pin lifetime if the caller dies without
/// acknowledging (mirrors the paper's rule that transient dirty entries
/// must not outlive a failed transmission indefinitely).
pub const DEFAULT_ACK_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

type Completion = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct AckTable {
    pending: parking_lot::Mutex<Vec<(u64, std::time::Instant, Completion)>>,
    /// Entry count mirrored outside the lock: most calls carry no ack
    /// obligation, so the per-frame expiry sweep and the per-reply
    /// acknowledge can skip the lock entirely while the table is empty.
    len: AtomicUsize,
}

impl AckTable {
    fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    fn insert(&self, call_id: u64, deadline: std::time::Instant, completion: Completion) {
        let mut pending = self.pending.lock();
        pending.push((call_id, deadline, completion));
        self.len.store(pending.len(), Ordering::Release);
    }

    fn acknowledge(&self, call_id: u64) {
        if self.is_empty() {
            return;
        }
        let found = {
            let mut pending = self.pending.lock();
            let found = pending
                .iter()
                .position(|(id, _, _)| *id == call_id)
                .map(|i| pending.swap_remove(i).2);
            self.len.store(pending.len(), Ordering::Release);
            found
        };
        if let Some(run) = found {
            run();
        }
    }

    fn expire(&self, now: std::time::Instant) {
        if self.is_empty() {
            return;
        }
        let expired: Vec<Completion> = {
            let mut pending = self.pending.lock();
            let mut out = Vec::new();
            let mut i = 0;
            while i < pending.len() {
                if pending[i].1 <= now {
                    out.push(pending.swap_remove(i).2);
                } else {
                    i += 1;
                }
            }
            self.len.store(pending.len(), Ordering::Release);
            out
        };
        for run in expired {
            run();
        }
    }

    fn drain(&self) {
        let all: Vec<Completion> = {
            let mut pending = self.pending.lock();
            self.len.store(0, Ordering::Release);
            pending.drain(..).map(|(_, _, c)| c).collect()
        };
        for run in all {
            run();
        }
    }
}

/// Remembers recently seen request ids on one connection so that a
/// duplicating channel cannot execute a call twice. Bounded FIFO window.
/// The peer picks the ids, so the set keeps std's DoS-resistant hasher.
struct SeenRequests {
    order: std::collections::VecDeque<u64>,
    set: std::collections::HashSet<u64>,
}

impl SeenRequests {
    const WINDOW: usize = 4096;

    fn new() -> SeenRequests {
        SeenRequests {
            order: std::collections::VecDeque::new(),
            set: std::collections::HashSet::new(),
        }
    }

    /// Returns false if `id` was already seen (a duplicate to drop).
    fn insert(&mut self, id: u64) -> bool {
        if !self.set.insert(id) {
            return false;
        }
        self.order.push_back(id);
        if self.order.len() > Self::WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// Service-time ceiling (on the connection's clock) under which a method
/// is considered *fast* and eligible for inline dispatch on the reader
/// thread. Well above a short method's cost, well below anything that
/// blocks on I/O, locks held across calls, or deliberate sleeps.
pub const INLINE_FAST_MICROS: u64 = 200;

/// Adaptive per-connection classifier for the inline fast path.
///
/// Maps `(object, method)` to the last verdict: `true` = the previous
/// dispatch finished under [`INLINE_FAST_MICROS`], so the next one may run
/// on the reader thread. Unknown methods are never inlined — their first
/// call always goes through the worker pool, so a method that blocks
/// cannot wedge the reader before it has ever been observed. `None` when
/// the server runs on a virtual clock (inline dispatch would serialise
/// virtual-time sleeps the deterministic suites expect to overlap).
///
/// The peer picks the keys, so the map keeps std's DoS-resistant hasher,
/// and only calls whose method actually ran are recorded: a peer cycling
/// through absent objects or methods leaves no entries behind.
struct FastMethods {
    verdicts: parking_lot::Mutex<std::collections::HashMap<(u64, u32), bool>>,
}

impl FastMethods {
    fn new() -> FastMethods {
        FastMethods {
            verdicts: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn key(rq: &Request) -> (u64, u32) {
        (rq.target.ix.0, rq.method)
    }

    fn is_fast(&self, key: (u64, u32)) -> bool {
        *self.verdicts.lock().get(&key).unwrap_or(&false)
    }

    /// Records a verdict from the call's service time; `None` (the method
    /// never ran) records nothing.
    fn observe(&self, key: (u64, u32), service: Option<std::time::Duration>) {
        let Some(service) = service else {
            return;
        };
        let fast = service.as_micros() <= u128::from(INLINE_FAST_MICROS);
        self.verdicts.lock().insert(key, fast);
    }
}

/// Everything a request needs besides its own fields, bundled so the
/// reader clones ONE `Arc` per job instead of one per component.
struct ConnCtx {
    conn: Arc<dyn Conn>,
    dispatcher: Arc<dyn Dispatcher>,
    stats: Arc<ServerStats>,
    clock: ClockHandle,
    acks: AckTable,
    /// One recycling reply encoder per connection: once the transport has
    /// released the previous reply frame, the next reply reuses its
    /// allocation. Workers serving this connection serialise on the mutex
    /// only for the encode itself.
    send_buf: parking_lot::Mutex<SendBuf>,
    /// `Some` on system-clock servers: the inline fast-path classifier.
    fast: Option<FastMethods>,
}

/// Dispatches one request and sends its reply; shared by the worker path
/// and the reader's inline fast path. Returns the method's service time
/// (on the connection's clock) for the fast-path classifier, or `None`
/// when dispatch refused the call before the method ran (no such object
/// or method, undecodable arguments).
fn serve_request(
    ctx: &ConnCtx,
    rq: Request,
    enqueued: std::time::Instant,
) -> Option<std::time::Duration> {
    let clock = &ctx.clock;
    // While the method runs, virtual time must not jump: the caller is
    // waiting on real work the clock cannot see.
    let hold = clock.as_virtual().map(|vc| vc.hold());
    let svc_start = clock.now();
    let cx = DispatchCx {
        trace_id: rq.trace_id,
        span_id: rq.span_id,
        queue_wait: svc_start.saturating_duration_since(enqueued),
    };
    // `rq.args` is a shared slice of the received frame: the argument
    // pickle reaches the dispatcher with no copy since the transport read.
    let dispatch = ctx
        .dispatcher
        .dispatch_cx(cx, rq.caller, rq.target, rq.method, &rq.args);
    let after = clock.now();
    drop(hold);
    if dispatch.outcome.is_err() {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    let ran = !matches!(
        &dispatch.outcome,
        Err(e) if matches!(
            e.kind,
            RemoteErrorKind::NoSuchObject
                | RemoteErrorKind::NoSuchMethod
                | RemoteErrorKind::BadArguments
        )
    );
    let needs_ack = dispatch.completion.is_some();
    // Register the completion *before* the reply leaves, so the ack can
    // never race past it.
    if let Some(completion) = dispatch.completion {
        ctx.acks
            .insert(rq.call_id, after + DEFAULT_ACK_TIMEOUT, completion);
    }
    let frame = ctx.send_buf.lock().encode_reply(
        rq.call_id,
        needs_ack,
        dispatch.outcome.as_ref().map(|v| v.as_slice()),
    );
    if ctx.conn.send(frame).is_err() {
        // The caller is gone; run the completion immediately.
        ctx.acks.acknowledge(rq.call_id);
    }
    ran.then(|| after.saturating_duration_since(svc_start))
}

/// Verdict of [`ConnState::handle_frame`]: keep the connection, or tear
/// it down (malformed traffic, protocol violation, quota refusal, a dead
/// peer, or server shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Continue,
    Close,
}

/// The per-connection protocol state machine, shared verbatim by both
/// execution substrates: the blocking reader thread feeds it from
/// `recv_timeout`, the reactor feeds it from readiness-driven decode.
/// Admission control, identity binding, dup suppression and the inline
/// fast path therefore behave identically on either core.
struct ConnState {
    ctx: Arc<ConnCtx>,
    pool: Arc<FairPool>,
    stopped: Arc<AtomicBool>,
    seen: SeenRequests,
    /// The client this connection is attributed to for the connection
    /// budget: unknown until the first request decodes (the transport
    /// accept path carries no identity).
    bound: Option<SpaceId>,
}

impl ConnState {
    fn new(
        conn: Arc<dyn Conn>,
        dispatcher: Arc<dyn Dispatcher>,
        pool: Arc<FairPool>,
        stats: Arc<ServerStats>,
        stopped: Arc<AtomicBool>,
        clock: ClockHandle,
    ) -> ConnState {
        let ctx = Arc::new(ConnCtx {
            conn,
            dispatcher,
            stats,
            fast: clock.as_virtual().is_none().then(FastMethods::new),
            clock,
            acks: AckTable::default(),
            send_buf: parking_lot::Mutex::new(SendBuf::new()),
        });
        ConnState {
            ctx,
            pool,
            stopped,
            seen: SeenRequests::new(),
            bound: None,
        }
    }

    /// Sweeps expired ack obligations (no-op while the table is empty).
    fn sweep_acks(&self) {
        if !self.ctx.acks.is_empty() {
            self.ctx.acks.expire(self.ctx.clock.now());
        }
    }

    /// Runs one decoded wire frame through the state machine.
    fn handle_frame(&mut self, frame: &Bytes) -> Step {
        let ctx = &self.ctx;
        if self.stopped.load(Ordering::Acquire) {
            return Step::Close;
        }
        self.sweep_acks();
        let msg = match RpcMsg::decode(frame) {
            Ok(m) => m,
            Err(_) => {
                // Malformed traffic: drop the connection.
                return Step::Close;
            }
        };
        let rq = match msg {
            RpcMsg::Request(rq) => {
                if !self.seen.insert(rq.call_id) {
                    // A duplicated frame from an at-least-once channel:
                    // the call already ran (or is running); drop it. The
                    // caller matches on call id, so a duplicate reply from
                    // the first execution serves both frames.
                    return Step::Continue;
                }
                rq
            }
            RpcMsg::ReplyAck(call_id) => {
                ctx.acks.acknowledge(call_id);
                return Step::Continue;
            }
            RpcMsg::Reply(_) => {
                // Replies arriving at a server end are protocol violations.
                return Step::Close;
            }
        };
        if self.bound.is_none() {
            if self.pool.register_conn(rq.caller) {
                self.bound = Some(rq.caller);
            } else {
                // Over the client's connection budget: refuse the request
                // and drop the connection. Non-retryable — the client must
                // close connections first.
                ctx.stats.shed_quota.fetch_add(1, Ordering::Relaxed);
                let err = RemoteError::new(
                    RemoteErrorKind::QuotaExceeded,
                    "client connection limit exceeded",
                );
                let frame = ctx
                    .send_buf
                    .lock()
                    .encode_reply(rq.call_id, false, Err(&err));
                let _ = ctx.conn.send(frame);
                return Step::Close;
            }
        }
        ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
        let enqueued = ctx.clock.now();
        let fast_key = FastMethods::key(&rq);
        if let Some(fast) = &ctx.fast {
            if fast.is_fast(fast_key) {
                // Last observation was fast: skip the worker handoff and
                // dispatch on the decoding thread (the reader, or the
                // reactor itself). A slow surprise demotes the method so
                // the next call goes back to the pool. Inline calls bypass
                // queue admission, but the decoder serialises them, so one
                // connection can hold at most one at a time.
                let service = serve_request(ctx, rq, enqueued);
                fast.observe(fast_key, service);
                return Step::Continue;
            }
        }
        let call_id = rq.call_id;
        let caller = rq.caller;
        let job_ctx = Arc::clone(ctx);
        let shed_ctx = Arc::clone(ctx);
        let admitted = self.pool.try_execute(
            caller,
            Box::new(move || {
                let service = serve_request(&job_ctx, rq, enqueued);
                if let Some(fast) = &job_ctx.fast {
                    fast.observe(fast_key, service);
                }
            }),
            // Runs instead of the job if a fairer newcomer displaces it
            // from a full queue: the method never executed, so the caller
            // gets the same retryable Busy a front-door shed produces.
            Box::new(move || {
                shed_ctx.stats.shed_global.fetch_add(1, Ordering::Relaxed);
                let busy = RemoteError::new(RemoteErrorKind::Busy, "displaced by fair admission");
                let frame = shed_ctx
                    .send_buf
                    .lock()
                    .encode_reply(call_id, false, Err(&busy));
                let _ = shed_ctx.conn.send(frame);
            }),
        );
        match admitted {
            FairAdmit::Queued => Step::Continue,
            FairAdmit::Saturated => {
                // Shed before dispatch: the method did not (and will not)
                // run, so the rejection is a *not delivered* failure the
                // caller may retry freely. Answer from the decoding thread
                // — by definition no worker is free to do it.
                ctx.stats.shed_global.fetch_add(1, Ordering::Relaxed);
                let busy = RemoteError::new(RemoteErrorKind::Busy, "server worker pool saturated");
                let frame = ctx.send_buf.lock().encode_reply(call_id, false, Err(&busy));
                if ctx.conn.send(frame).is_err() {
                    return Step::Close;
                }
                Step::Continue
            }
            FairAdmit::OverQuota => {
                // The client exceeded its own queue share or in-flight
                // budget. Unlike Busy this is not transient congestion:
                // answer with the non-retryable QuotaExceeded.
                ctx.stats.shed_quota.fetch_add(1, Ordering::Relaxed);
                let err = RemoteError::new(
                    RemoteErrorKind::QuotaExceeded,
                    "client request budget exceeded",
                );
                let frame = ctx.send_buf.lock().encode_reply(call_id, false, Err(&err));
                if ctx.conn.send(frame).is_err() {
                    return Step::Close;
                }
                Step::Continue
            }
            FairAdmit::ShutDown => Step::Close,
        }
    }

    /// Connection over: no acks can arrive; release everything the
    /// connection holds. Idempotent.
    fn finish(&mut self) {
        self.ctx.conn.close();
        self.ctx.acks.drain();
        if let Some(client) = self.bound.take() {
            self.pool.unregister_conn(client);
        }
    }
}

/// The reactor-side wrapper: adapts [`ConnState`] to the transport's
/// [`ConnDriver`] callbacks. `on_frame` (and therefore the inline fast
/// path) runs directly on the reactor thread; replies it queues are
/// flushed by the reactor's coalesced write right after the frame batch.
struct ServerConnDriver {
    state: ConnState,
}

impl ConnDriver for ServerConnDriver {
    fn on_frame(&mut self, frame: Bytes) -> Drive {
        match self.state.handle_frame(&frame) {
            Step::Continue => Drive::Continue,
            Step::Close => Drive::Close,
        }
    }

    fn on_tick(&mut self) {
        // Matches the blocking path's 500 ms `recv_timeout` sweep: expired
        // ack obligations are released even while the connection is idle.
        self.state.sweep_acks();
    }

    fn on_close(&mut self) {
        self.state.finish();
    }
}

/// Builds a [`ServerConnDriver`] for every connection the reactor accepts.
struct ServerAccept {
    dispatcher: Arc<dyn Dispatcher>,
    pool: Arc<FairPool>,
    stats: Arc<ServerStats>,
    stopped: Arc<AtomicBool>,
    clock: ClockHandle,
}

impl AcceptDriver for ServerAccept {
    fn on_accept(&mut self, conn: Arc<dyn Conn>) -> Option<Box<dyn ConnDriver>> {
        if self.stopped.load(Ordering::Acquire) {
            conn.close();
            return None;
        }
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(ServerConnDriver {
            state: ConnState::new(
                conn,
                Arc::clone(&self.dispatcher),
                Arc::clone(&self.pool),
                Arc::clone(&self.stats),
                Arc::clone(&self.stopped),
                self.clock.clone(),
            ),
        }))
    }
}

/// The blocking substrate: one thread per connection, driving the same
/// [`ConnState`] from a bounded `recv_timeout` loop.
fn connection_loop(
    conn: Arc<dyn Conn>,
    dispatcher: Arc<dyn Dispatcher>,
    pool: Arc<FairPool>,
    stats: Arc<ServerStats>,
    stopped: Arc<AtomicBool>,
    clock: ClockHandle,
) {
    let conn_handle = Arc::clone(&conn);
    let mut state = ConnState::new(conn, dispatcher, pool, stats, stopped, clock);
    loop {
        if state.stopped.load(Ordering::Acquire) {
            break;
        }
        // A bounded recv lets us sweep expired ack obligations even when
        // the connection is idle.
        let frame = match conn_handle.recv_timeout(std::time::Duration::from_millis(500)) {
            Ok(f) => f,
            Err(netobj_transport::TransportError::Timeout) => {
                state.sweep_acks();
                continue;
            }
            Err(_) => break,
        };
        if state.handle_frame(&frame) == Step::Close {
            break;
        }
    }
    state.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CallClient;
    use crate::error::{RemoteErrorKind, RpcError};
    use netobj_transport::loopback::Loopback;
    use netobj_transport::{Endpoint, Transport};
    use netobj_wire::ObjIx;
    use std::time::Duration;

    fn echo_dispatcher() -> Arc<dyn Dispatcher> {
        Arc::new(
            |_caller: SpaceId, target: WireRep, method: u32, args: &[u8]| {
                if method == 99 {
                    return Err(RemoteError::new(RemoteErrorKind::NoSuchMethod, "99"));
                }
                let mut out = target.ix.0.to_le_bytes().to_vec();
                out.extend_from_slice(args);
                Ok(out)
            },
        )
    }

    fn start_over_loopback() -> (RpcServer, Arc<CallClient>) {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let server = RpcServer::start(l, echo_dispatcher(), 4);
        let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));
        (server, client)
    }

    fn target(ix: u64) -> WireRep {
        WireRep::new(SpaceId::from_raw(2), ObjIx(ix))
    }

    #[test]
    fn end_to_end_call() {
        let (server, client) = start_over_loopback();
        let got = client.call(target(7), 0, vec![9]).unwrap();
        assert_eq!(&got[..8], &7u64.to_le_bytes());
        assert_eq!(got[8], 9);
        assert_eq!(server.requests(), 1);
        assert_eq!(server.errors(), 0);
    }

    #[test]
    fn error_reply_counted() {
        let (server, client) = start_over_loopback();
        let got = client.call(target(1), 99, vec![]);
        assert!(matches!(got, Err(RpcError::Remote(_))));
        assert_eq!(server.errors(), 1);
    }

    #[test]
    fn many_concurrent_clients() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let server = RpcServer::start(l, echo_dispatcher(), 8);
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
            let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(u128::from(i)));
            joins.push(std::thread::spawn(move || {
                for j in 0..20u8 {
                    let got = client.call(target(i), 0, vec![j]).unwrap();
                    assert_eq!(got[8], j);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(server.requests(), 160);
        assert_eq!(server.connections(), 8);
    }

    #[test]
    fn slow_call_does_not_block_fast_call_on_same_connection() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, method: u32, _a: &[u8]| {
                if method == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Ok(vec![method as u8])
            });
        let _server = RpcServer::start(l, dispatcher, 4);
        let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));

        let slow_client = Arc::clone(&client);
        let slow = std::thread::spawn(move || slow_client.call(target(0), 1, vec![]));
        std::thread::sleep(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        let fast = client.call(target(0), 2, vec![]).unwrap();
        assert_eq!(fast, vec![2]);
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "fast call was blocked by slow call"
        );
        assert_eq!(slow.join().unwrap().unwrap(), vec![1]);
    }

    #[test]
    fn dropped_ack_token_releases_server_completion() {
        use std::sync::atomic::AtomicU64;

        struct Pinning {
            released: Arc<AtomicU64>,
        }
        impl Dispatcher for Pinning {
            fn dispatch(&self, _c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]) -> Dispatch {
                let released = Arc::clone(&self.released);
                Dispatch {
                    outcome: Ok(vec![]),
                    completion: Some(Box::new(move || {
                        released.fetch_add(1, Ordering::SeqCst);
                    })),
                }
            }
        }

        let released = Arc::new(AtomicU64::new(0));
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let _server = RpcServer::start(
            l,
            Arc::new(Pinning {
                released: Arc::clone(&released),
            }),
            2,
        );
        let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));

        let reply = client
            .call_raw(target(0), 0, vec![], Duration::from_secs(5))
            .unwrap();
        assert!(reply.ack.is_some());
        // Not yet acknowledged: the callee's transient pins must still be
        // held (the caller may be registering references).
        assert_eq!(released.load(Ordering::SeqCst), 0);
        drop(reply); // error-path drop sends the ack
        let t0 = std::time::Instant::now();
        while released.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(released.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn saturated_pool_sheds_with_busy() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]| {
                std::thread::sleep(Duration::from_millis(200));
                Ok(vec![])
            });
        let server = RpcServer::start_with_queue(l, dispatcher, 1, Some(1));
        let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));

        // 1 worker + 1 queue slot: of six concurrent calls at least one
        // must be shed, and shed calls answer far faster than the 200 ms
        // the method takes.
        let mut joins = Vec::new();
        for _ in 0..6 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                c.call_with_timeout(target(0), 0, vec![], Duration::from_secs(5))
            }));
        }
        let mut busy = 0;
        for j in joins {
            if let Err(RpcError::Remote(e)) = j.join().unwrap() {
                assert_eq!(e.kind, RemoteErrorKind::Busy);
                busy += 1;
            }
        }
        assert!(busy >= 1, "no call was shed");
        assert_eq!(server.shed(), busy);
    }

    #[test]
    fn over_quota_client_sheds_with_quota_exceeded() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]| {
                std::thread::sleep(Duration::from_millis(200));
                Ok(vec![])
            });
        let server = RpcServer::start_with_config(
            l,
            dispatcher,
            ServerConfig {
                workers: 1,
                queue_limit: Some(64),
                budget: ResourceBudget {
                    max_inflight: Some(2),
                    ..ResourceBudget::unlimited()
                },
                ..ServerConfig::default()
            },
        );
        let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));

        // Six concurrent calls against an in-flight budget of two: the
        // queue has room (global limit 64), so every rejection must be the
        // per-client QuotaExceeded, not Busy.
        let mut joins = Vec::new();
        for _ in 0..6 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                c.call_with_timeout(target(0), 0, vec![], Duration::from_secs(5))
            }));
        }
        let mut quota = 0;
        for j in joins {
            if let Err(RpcError::Remote(e)) = j.join().unwrap() {
                assert_eq!(e.kind, RemoteErrorKind::QuotaExceeded);
                quota += 1;
            }
        }
        assert!(quota >= 1, "no call was quota-shed");
        assert_eq!(server.shed_quota(), quota);
        assert_eq!(server.shed_global(), 0);
        assert_eq!(server.shed(), quota);
    }

    #[test]
    fn connection_limit_refuses_excess_connections() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let server = RpcServer::start_with_config(
            l,
            echo_dispatcher(),
            ServerConfig {
                workers: 2,
                budget: ResourceBudget {
                    max_connections: Some(1),
                    ..ResourceBudget::unlimited()
                },
                ..ServerConfig::default()
            },
        );
        let caller = SpaceId::from_raw(7);
        let conn1 = t.connect(&Endpoint::loopback("srv")).unwrap();
        let c1 = CallClient::new(Arc::from(conn1), caller);
        c1.call(target(1), 0, vec![]).unwrap();
        // Second connection claiming the same identity: its first request
        // is refused with QuotaExceeded and the connection is dropped.
        let conn2 = t.connect(&Endpoint::loopback("srv")).unwrap();
        let c2 = CallClient::new(Arc::from(conn2), caller);
        match c2.call_with_timeout(target(1), 0, vec![], Duration::from_secs(5)) {
            Err(RpcError::Remote(e)) => assert_eq!(e.kind, RemoteErrorKind::QuotaExceeded),
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        assert!(server.shed_quota() >= 1);
        // The first connection keeps working, and a different client may
        // still connect.
        c1.call(target(1), 0, vec![]).unwrap();
        let conn3 = t.connect(&Endpoint::loopback("srv")).unwrap();
        let c3 = CallClient::new(Arc::from(conn3), SpaceId::from_raw(8));
        c3.call(target(1), 0, vec![]).unwrap();
    }

    #[test]
    fn queue_high_water_tracks_backlog() {
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let dispatcher: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, _t: WireRep, _m: u32, _a: &[u8]| {
                std::thread::sleep(Duration::from_millis(100));
                Ok(vec![])
            });
        let server = RpcServer::start_with_queue(l, dispatcher, 1, Some(16));
        let conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&client);
            joins.push(std::thread::spawn(move || {
                c.call_with_timeout(target(0), 0, vec![], Duration::from_secs(5))
            }));
        }
        for j in joins {
            j.join().unwrap().unwrap();
        }
        // All four calls completed; at some point at least two sat queued
        // behind the single 100 ms worker (first may have been picked up
        // instantly). The mark persists after the queue drains.
        assert_eq!(server.queue_depth(), 0);
        assert!(server.queue_high_water() >= 2);
    }

    #[test]
    fn stop_tears_down() {
        let (mut server, client) = start_over_loopback();
        server.stop();
        std::thread::sleep(Duration::from_millis(100));
        let got = client.call_with_timeout(target(0), 0, vec![], Duration::from_millis(200));
        assert!(got.is_err());
    }

    #[test]
    fn calls_to_absent_targets_record_no_fast_path_verdicts() {
        // A peer cycling through fresh (object, method) pairs that name
        // nothing must not grow the connection's classifier map.
        let t = Loopback::new();
        let l = t.listen(&Endpoint::loopback("srv")).unwrap();
        let client_conn = t.connect(&Endpoint::loopback("srv")).unwrap();
        let server_conn: Arc<dyn Conn> = Arc::from(l.accept().unwrap());
        let absent: Arc<dyn Dispatcher> =
            Arc::new(|_c: SpaceId, t: WireRep, _m: u32, _a: &[u8]| {
                Err(RemoteError::new(
                    RemoteErrorKind::NoSuchObject,
                    t.ix.0.to_string(),
                ))
            });
        let pool = FairPool::new(2, "test-worker", None, ResourceBudget::unlimited());
        let mut state = ConnState::new(
            server_conn,
            absent,
            pool,
            Arc::default(),
            Arc::default(),
            ClockHandle::system(),
        );
        for n in 0..10_000u64 {
            let rq = RpcMsg::Request(Request {
                call_id: n + 1,
                caller: SpaceId::from_raw(1),
                target: target(n),
                method: 0,
                args: Bytes::new(),
                trace_id: 0,
                span_id: 0,
            });
            assert_eq!(state.handle_frame(&rq.encode()), Step::Continue);
            // Every call is answered before the next is sent.
            client_conn.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let fast = state.ctx.fast.as_ref().expect("system clock enables it");
        assert_eq!(fast.verdicts.lock().len(), 0);
        state.finish();
    }

    #[test]
    fn loopback_server_stays_on_thread_path() {
        let (server, _client) = start_over_loopback();
        assert!(server.reactor_stats().is_none());
    }

    #[cfg(unix)]
    mod reactor_core {
        use super::*;
        use netobj_transport::tcp::Tcp;

        fn start_over_tcp() -> (RpcServer, Arc<CallClient>) {
            let l = Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
            let server = RpcServer::start(l, echo_dispatcher(), 4);
            let conn = Tcp.connect(&server.local_endpoint()).unwrap();
            let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));
            (server, client)
        }

        fn wait_until(mut cond: impl FnMut() -> bool) {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "condition not reached in 10s"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }

        #[test]
        fn tcp_server_uses_the_reactor() {
            let (server, client) = start_over_tcp();
            assert!(
                server.reactor_stats().is_some(),
                "tcp + system clock must select the reactor core"
            );
            for i in 0..50u8 {
                let got = client.call(target(7), 0, vec![i]).unwrap();
                assert_eq!(&got[..8], &7u64.to_le_bytes());
                assert_eq!(got[8], i);
            }
            assert_eq!(server.requests(), 50);
            assert_eq!(server.connections(), 1);
            let stats = server.reactor_stats().unwrap();
            assert_eq!(stats.accepted, 1);
            assert_eq!(stats.connections, 1);
        }

        #[test]
        fn slow_call_does_not_block_fast_call_on_reactor() {
            let l = Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
            let dispatcher: Arc<dyn Dispatcher> =
                Arc::new(|_c: SpaceId, _t: WireRep, method: u32, _a: &[u8]| {
                    if method == 1 {
                        std::thread::sleep(Duration::from_millis(300));
                    }
                    Ok(vec![method as u8])
                });
            let server = RpcServer::start(l, dispatcher, 4);
            assert!(server.reactor_stats().is_some());
            let conn = Tcp.connect(&server.local_endpoint()).unwrap();
            let client = CallClient::new(Arc::from(conn), SpaceId::from_raw(1));

            let slow_client = Arc::clone(&client);
            let slow = std::thread::spawn(move || slow_client.call(target(0), 1, vec![]));
            std::thread::sleep(Duration::from_millis(30));
            let t0 = std::time::Instant::now();
            let fast = client.call(target(0), 2, vec![]).unwrap();
            assert_eq!(fast, vec![2]);
            assert!(
                t0.elapsed() < Duration::from_millis(200),
                "fast call was blocked by slow call"
            );
            assert_eq!(slow.join().unwrap().unwrap(), vec![1]);
        }

        #[test]
        fn closed_connections_release_identity_and_quota_state() {
            let l = Tcp.listen(&Endpoint::tcp("127.0.0.1:0")).unwrap();
            let server = RpcServer::start_with_config(
                l,
                echo_dispatcher(),
                ServerConfig {
                    workers: 2,
                    budget: ResourceBudget {
                        max_connections: Some(1),
                        ..ResourceBudget::unlimited()
                    },
                    ..ServerConfig::default()
                },
            );
            assert!(server.reactor_stats().is_some());
            let caller = SpaceId::from_raw(7);
            let conn1 = Tcp.connect(&server.local_endpoint()).unwrap();
            let c1 = CallClient::new(Arc::from(conn1), caller);
            c1.call(target(1), 0, vec![]).unwrap();
            assert_eq!(server.per_client().len(), 1);
            drop(c1);
            // The reactor notices the close and unbinds the identity, so
            // the same client may connect again under its 1-conn budget.
            wait_until(|| server.per_client().is_empty());
            wait_until(|| server.reactor_stats().unwrap().connections == 0);
            let conn2 = Tcp.connect(&server.local_endpoint()).unwrap();
            let c2 = CallClient::new(Arc::from(conn2), caller);
            c2.call(target(1), 0, vec![]).unwrap();
        }

        #[test]
        fn stop_closes_reactor_connections() {
            let (mut server, client) = start_over_tcp();
            client.call(target(1), 0, vec![]).unwrap();
            server.stop();
            let got = client.call_with_timeout(target(0), 0, vec![], Duration::from_secs(1));
            assert!(got.is_err());
        }
    }
}
