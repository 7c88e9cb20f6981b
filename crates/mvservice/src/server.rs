//! The allocation daemon: a TCP server over the [`Registry`] with one
//! socket core and two wire codecs.
//!
//! Design constraints (std-only, no async runtime, unix only):
//!
//! - **one socket core**: a nonblocking readiness-polled event loop —
//!   one acceptor/poll thread owns every connection's state (read
//!   buffer, codec parse state, write backlog with backpressure) and
//!   multiplexes them over epoll/`poll(2)` (see [`crate::poll`] and
//!   [`crate::event`]), so 10k+ concurrent connections cost fds, not
//!   threads;
//! - **two codecs** ([`Config::codec`], sniffed per connection by its
//!   first byte): newline-delimited JSON text, or length-prefixed
//!   binary frames carrying the same protocol payloads — see
//!   [`crate::codec`];
//! - the loop's poll wait doubles as the shutdown-poll tick. A
//!   *request* timeout only starts once a partial frame has arrived (an
//!   idle keep-alive connection never times out);
//! - malformed input produces a structured `{"ok":false,"error":…}`
//!   reply and the connection stays open — only a stalled partial
//!   request, an oversized frame, a codec violation, or an I/O error
//!   closes it;
//! - the registry sits behind one mutex: reallocation is the expensive
//!   part and is CPU-bound, so serializing mutations is the correct
//!   concurrency regime, while `assign`/`stats` hold the lock for an
//!   O(1) lookup only;
//! - when a [`FaultPlan`] is configured, every request passes through a
//!   deterministic injection point (drop / truncate / delay keyed on
//!   the connection index and per-connection request sequence number)
//!   and every reallocation may be forced to fail or time out — see
//!   [`crate::fault`]. With no plan configured the hook is `None` and
//!   the hot path pays a single branch;
//! - mutating requests may carry a `req_id` idempotency key: the reply
//!   to a successfully applied mutation is cached, and a retry bearing
//!   the same key is answered from the cache (marked `"replayed":
//!   true`) instead of double-applying the delta;
//! - with `batch_max > 1` the server group-commits: mutating requests
//!   from every connection park in one coalescing queue, a dispatcher
//!   drains up to `batch_max` of them (lingering `batch_delay` for
//!   companions) and applies the drain as a **single** engine batch
//!   ([`Registry::apply_events`]); each parked client gets its own
//!   per-event reply, handed back to the event loop through the
//!   completion queue. Replies to coalesced mutations echo the
//!   request's `req_id`, so pipelined clients can match them out of
//!   band. With the default `batch_max = 1` the queue does not exist
//!   and mutations run inline on the loop thread.

use crate::codec::{CodecAccept, Payload};
use crate::fault::{FaultAction, FaultHook, FaultPlan, InjectedFault, ScriptedFaults};
use crate::metrics::Metrics;
use crate::namespace::{Namespaces, RegistryTemplate};
use crate::poll::{self, WakeRx, Waker};
use crate::protocol::{changes_json, error_reply, ok_reply, tenant_of, Request};
use crate::registry::{Registry, RegistryEvent};
use crate::store::{Durability, SnapshotState, Store, TenantSnapshot};
use mvisolation::{IsolationLevel, LevelChange};
use mvmodel::TxnId;
use mvrobustness::{CompEntry, LevelSet};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Level menu served to clients.
    pub levels: LevelSet,
    /// Engine worker threads per reallocation probe.
    pub threads: usize,
    /// How long a *partial* request line may stall before the
    /// connection is dropped (with an error reply).
    pub request_timeout: Duration,
    /// Deadline for a single incremental reallocation; on expiry the
    /// mutation is rolled back and the last-known-good allocation keeps
    /// being served (`None` = no deadline).
    pub realloc_timeout: Option<Duration>,
    /// Deterministic fault-injection schedule (`None` = no injection).
    pub faults: Option<FaultPlan>,
    /// Group-commit coalescing: the most mutating requests one
    /// dispatcher drain may apply as a single engine batch. The default
    /// `1` disables the coalescing queue entirely — mutations run
    /// inline on the event-loop thread.
    pub batch_max: usize,
    /// How long a drain lingers for companion mutations after the first
    /// one arrives (the group-commit window). Only meaningful when
    /// `batch_max > 1`.
    pub batch_delay: Duration,
    /// Which wire codecs incoming connections may negotiate (default:
    /// sniff per connection).
    pub codec: CodecAccept,
    /// Durable state directory (`None` = in-memory only, the
    /// pre-durability behavior). When set, every applied mutation is
    /// appended to a write-ahead event log there, snapshots are taken,
    /// and `bind` recovers the previous state before serving.
    pub data_dir: Option<PathBuf>,
    /// Take a snapshot (and truncate the log) every this many appended
    /// records; `0` disables snapshots (the log grows unbounded).
    pub snapshot_every: u64,
    /// When the write-ahead log is fsynced (see [`Durability`]).
    pub durability: Durability,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:7411".to_string(),
            levels: LevelSet::default(),
            threads: 1,
            request_timeout: Duration::from_secs(10),
            realloc_timeout: None,
            faults: None,
            batch_max: 1,
            batch_delay: Duration::from_micros(100),
            codec: CodecAccept::default(),
            data_dir: None,
            snapshot_every: 1024,
            durability: Durability::default(),
        }
    }
}

/// How many `(tenant, req_id) → reply` entries the idempotency replay
/// cache keeps; oldest entries are evicted first.
const REPLAY_CACHE_CAP: usize = 1024;

/// Bounded insertion-order map backing the idempotency cache. Keys are
/// `(tenant, req_id)`: idempotency keys are scoped per tenant, so two
/// tenants reusing the same numeric key never collide.
struct ReplayCache {
    replies: HashMap<(Arc<str>, u64), Value>,
    order: VecDeque<(Arc<str>, u64)>,
    cap: usize,
}

impl ReplayCache {
    fn new() -> Self {
        ReplayCache::with_capacity(REPLAY_CACHE_CAP)
    }

    fn with_capacity(cap: usize) -> Self {
        ReplayCache {
            replies: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, tenant: &Arc<str>, req_id: u64) -> Option<&Value> {
        self.replies.get(&(Arc::clone(tenant), req_id))
    }

    fn insert(&mut self, tenant: Arc<str>, req_id: u64, reply: Value) {
        if self
            .replies
            .insert((Arc::clone(&tenant), req_id), reply)
            .is_none()
        {
            self.order.push_back((tenant, req_id));
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }

    /// Every cached entry as `(tenant, req_id, reply)` in insertion
    /// order — the snapshot capture (restoring in the same order
    /// preserves the eviction queue).
    fn entries(&self) -> Vec<(String, u64, Value)> {
        self.order
            .iter()
            .map(|key| {
                let reply = self.replies[key].clone();
                (key.0.to_string(), key.1, reply)
            })
            .collect()
    }
}

/// One reply completed by the dispatcher for an event-loop connection.
pub(crate) struct Completion {
    /// The connection key the request arrived on.
    pub(crate) key: u64,
    pub(crate) reply: Value,
    /// Cut the encoded reply mid-frame and kill the connection (an
    /// injected `Truncate` fault).
    pub(crate) truncate: bool,
}

/// Dispatcher → event-loop handoff: completed replies plus the waker
/// that turns them into poll readiness.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    fn new(waker: Waker) -> Self {
        Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    pub(crate) fn push_all(&self, items: Vec<Completion>) {
        if items.is_empty() {
            return;
        }
        self.queue
            .lock()
            .expect("completions poisoned")
            .extend(items);
        self.waker.wake();
    }

    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completions poisoned"))
    }
}

/// One mutating request parked in the coalescing queue, with everything
/// the dispatcher needs to answer its connection.
pub(crate) struct Pending {
    req: Request,
    /// The namespace the mutation routes to (interned).
    tenant: Arc<str>,
    op: &'static str,
    req_id: Option<u64>,
    /// Connection key: the fault coordinate, the reply-grouping key,
    /// and where the event loop delivers the reply.
    conn: u64,
    /// When the request was accepted — per-event latency is measured
    /// from here, so it includes the group-commit wait.
    accepted: Instant,
    /// An injected `Truncate` fault rides along: the event loop cuts
    /// this event's reply mid-frame and kills the connection.
    truncate: bool,
}

/// The group-commit coalescing queue (`Config::batch_max > 1` only):
/// mutating requests from every connection land here and a single
/// dispatcher thread drains them into one [`Registry::apply_events`]
/// call per drain.
struct Batcher {
    queue: Mutex<VecDeque<Pending>>,
    /// Signalled on every enqueue; the dispatcher waits on it.
    available: Condvar,
    max: usize,
    delay: Duration,
}

/// How often the event loop's poll wait and the dispatcher's queue wait
/// time out to re-check the shutdown flag (and, in the loop, the
/// partial-frame stall clocks) when nothing is ready.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(25);

/// Set by the `SIGINT`/`SIGTERM` handler; polled by every server.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs process-wide `SIGINT` and `SIGTERM` handlers that request a
/// graceful stop of every running [`Server`]. Call once, from the
/// binary — library users who manage their own signals use
/// [`Server::handle`] instead.
pub fn install_signal_handlers() {
    extern "C" fn request_shutdown(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }
    // SAFETY: `signal(2)` takes an int and a handler address and
    // returns the previous one, matching this declaration on Unix;
    // SIGINT and SIGTERM are 2 and 15 there. The handler is a plain
    // `extern "C" fn(i32)` that only does an atomic store.
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        signal(SIGINT, request_shutdown as *const () as usize);
        signal(SIGTERM, request_shutdown as *const () as usize);
    }
}

pub(crate) struct Shared {
    /// The tenant → registry map (single-tenant deployments simply only
    /// ever touch `"default"`). Lock order across the whole server:
    /// `replays` → a tenant registry → the store; the namespaces map
    /// lock is taken only for lookups, never while waiting on another
    /// lock. The snapshot path takes `replays` then *every* tenant
    /// registry (ascending by name) — same order, so no cycles.
    namespaces: Namespaces,
    pub(crate) metrics: Metrics,
    shutdown: AtomicBool,
    pub(crate) request_timeout: Duration,
    /// `Some` only when a fault plan was configured.
    faults: Option<Arc<ScriptedFaults>>,
    /// Idempotency cache for mutating requests carrying a `req_id`.
    /// Lock order: `replays` before any registry, never the reverse.
    replays: Mutex<ReplayCache>,
    /// `Some` only when `batch_max > 1`: the group-commit queue.
    batch: Option<Batcher>,
    /// Which codecs incoming connections may negotiate.
    pub(crate) codec: CodecAccept,
    /// Dispatcher → event-loop reply handoff.
    pub(crate) completions: Completions,
    /// `Some` only when a data directory was configured: the durability
    /// subsystem (write-ahead log + snapshots).
    store: Option<Arc<Store>>,
    /// What `bind` recovered from disk, as reported under
    /// `stats.durability.recovery`.
    recovery: Value,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// A cloneable handle that can stop a running [`Server`] from another
/// thread.
#[derive(Clone)]
pub struct ServerHandle(Arc<Shared>);

impl ServerHandle {
    /// Requests a graceful stop; `run` returns once in-flight requests
    /// finish.
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    pub fn is_shutting_down(&self) -> bool {
        self.0.stopping()
    }

    /// The chronological fault-injection log (empty when no plan is
    /// configured). Determinism checks compare this across runs.
    pub fn fault_log(&self) -> Vec<InjectedFault> {
        self.0.faults.as_ref().map_or_else(Vec::new, |f| f.log())
    }

    /// Total faults injected so far (0 when no plan is configured).
    pub fn faults_injected(&self) -> u64 {
        self.0.faults.as_ref().map_or(0, |f| f.injected())
    }

    /// A point-in-time snapshot of the server's [`Metrics`] as JSON —
    /// the same counters the `stats` verb reports (requests, latency
    /// quantiles, connections gauge, per-codec counters). The `serve`
    /// front end prints its shutdown summary from this.
    pub fn metrics_json(&self) -> Value {
        self.0.metrics.to_json()
    }
}

/// The allocation daemon. [`Server::bind`] then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// The event loop's half of the completion-queue waker.
    wake_rx: WakeRx,
}

impl Server {
    /// Binds the listening socket and builds the tenant namespaces,
    /// wired with the configured reallocation deadline and fault plan.
    /// With a data directory configured this is also where recovery
    /// happens: load the newest valid snapshot, verify the recovery
    /// invariant, replay the log tail, reseed the replay cache — all
    /// before the first connection is accepted.
    pub fn bind(config: Config) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let (waker, wake_rx) = poll::waker()?;
        let faults = config
            .faults
            .map(|plan| Arc::new(ScriptedFaults::new(plan)));
        // Recovery replays run fault-free (they re-apply mutations that
        // already succeeded once); the chaos seam arms only after.
        let mut namespaces = Namespaces::new(RegistryTemplate {
            levels: config.levels,
            threads: config.threads,
            realloc_timeout: config.realloc_timeout,
            faults: None,
        });
        let mut replays = ReplayCache::new();
        let mut recovery = Value::Null;
        let store = match &config.data_dir {
            None => None,
            Some(dir) => {
                let (store, recovered) =
                    Store::open(dir, config.durability, config.snapshot_every)?;
                let start = Instant::now();
                recover(&namespaces, &mut replays, &recovered).map_err(|msg| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("recovery from {} failed: {msg}", dir.display()),
                    )
                })?;
                recovery = json!({
                    "snapshot_seq": recovered.snapshot_seq,
                    "snapshot_tenants": recovered
                        .snapshot
                        .as_ref()
                        .map_or(0, |s| s.tenants.len()),
                    "wal_records_replayed": recovered.records.len(),
                    "torn_bytes_truncated": recovered.torn_bytes,
                    "recovery_us": start.elapsed().as_micros()
                        .min(u128::from(u64::MAX)) as u64,
                });
                Some(Arc::new(store))
            }
        };
        if let Some(hook) = &faults {
            namespaces.install_faults(Arc::clone(hook) as _);
        }
        let batch = (config.batch_max > 1).then(|| Batcher {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            max: config.batch_max,
            delay: config.batch_delay,
        });
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                namespaces,
                metrics: Metrics::new(),
                shutdown: AtomicBool::new(false),
                request_timeout: config.request_timeout,
                faults,
                replays: Mutex::new(replays),
                batch,
                codec: config.codec,
                completions: Completions::new(waker),
                store,
                recovery,
            }),
            wake_rx,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(Arc::clone(&self.shared))
    }

    /// Serves until a `shutdown` request, a [`ServerHandle::shutdown`],
    /// or a handled signal. Flushes every live connection before
    /// returning.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let dispatcher = self.shared.batch.as_ref().map(|_| {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || run_dispatcher(&shared))
        });
        let result = crate::event::run_event_loop(&self.listener, &self.shared, self.wake_rx);
        if let Some(d) = dispatcher {
            // Connections are done; the dispatcher drains any parked
            // mutations (late replies land on an already-stopped loop,
            // which is fine) and exits on the shutdown flag.
            let _ = d.join();
        }
        result
    }
}

/// What one decoded request frame resolved to.
pub(crate) enum RequestAction {
    /// Answer with `reply`; close after when `stop` or `truncate`.
    Reply {
        reply: Value,
        stop: bool,
        truncate: bool,
    },
    /// An injected `Drop`: close without replying — the request never
    /// executed, so a client retry (same `req_id`) applies it exactly
    /// once.
    SilentClose,
    /// Parked in the coalescing queue; the dispatcher answers through
    /// the completion queue, keyed by the connection.
    Parked,
}

/// Decodes one payload into the request verb plus its tenant envelope —
/// the shared back half of both codecs.
fn decode(payload: &Payload) -> Result<(Request, String), String> {
    let decode_value = |v: &Value| {
        let req = Request::from_value(v)?;
        let tenant = tenant_of(v)?.to_string();
        Ok((req, tenant))
    };
    match payload {
        Payload::Line(line) => {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("invalid JSON request: {e}"))?;
            decode_value(&v)
        }
        Payload::Frame(v) => decode_value(v),
    }
}

/// Handles one decoded payload: (maybe) inject a fault, decode the
/// request, park it (group-commit path) or execute it inline. Shared
/// verbatim by both codecs — this is what keeps replay, coalescing, and
/// fault semantics bit-identical across them. `conn` is the connection
/// key, `seq` its per-connection request sequence number.
pub(crate) fn process_payload(
    shared: &Shared,
    payload: &Payload,
    conn: u64,
    seq: u64,
) -> RequestAction {
    let action = shared
        .faults
        .as_ref()
        .map_or(FaultAction::None, |f| f.on_request(conn, seq));
    if matches!(action, FaultAction::Drop) {
        return RequestAction::SilentClose;
    }
    if let FaultAction::Delay(pause) = action {
        thread::sleep(pause);
    }
    let start = Instant::now();
    let parsed = decode(payload);
    // Group-commit path: mutating requests park in the coalescing queue
    // and the dispatcher answers them (per-event metrics, replay cache,
    // and any Truncate fault are all handled at drain time). Everything
    // else — reads, control, malformed input — stays inline.
    if let (Some(batcher), Ok((req, tenant))) = (shared.batch.as_ref(), &parsed) {
        if matches!(req, Request::Register { .. } | Request::Deregister { .. }) {
            let (tenant, _) = shared.namespaces.resolve(tenant);
            let pending = Pending {
                op: req.op_name(),
                req_id: req.req_id(),
                req: req.clone(),
                tenant,
                conn,
                accepted: start,
                truncate: matches!(action, FaultAction::Truncate),
            };
            let mut queue = batcher.queue.lock().expect("batch queue poisoned");
            queue.push_back(pending);
            batcher.available.notify_one();
            return RequestAction::Parked;
        }
    }
    let (op, reply, stop, mutated) = match parsed {
        Err(msg) => ("invalid", error_reply(&msg), false, false),
        Ok((req, tenant)) => {
            let op = req.op_name();
            let mutated = matches!(
                req,
                Request::Register { .. }
                    | Request::Deregister { .. }
                    | Request::TemplateRegister { .. }
                    | Request::Instantiate { .. }
            );
            let (reply, stop) = execute(shared, req, &tenant);
            (op, reply, stop, mutated)
        }
    };
    let ok = reply["ok"] == true;
    shared.metrics.record(op, ok, start.elapsed());
    if mutated {
        // Inline mutations check the snapshot trigger themselves; the
        // coalesced path checks once per drain. No locks are held here.
        maybe_snapshot(shared);
    }
    RequestAction::Reply {
        reply,
        stop,
        truncate: matches!(action, FaultAction::Truncate),
    }
}

/// Raw outcome of a mutation, captured under the registry lock. The
/// JSON reply is assembled from it *after* the lock is released, so
/// concurrent readers (`assign`, `stats`) only ever wait on the
/// mutation itself, never on serialization.
struct MutationRaw {
    /// `Ok` carries the reply ingredients; `Err` the error message.
    res: Result<MutationOk, String>,
    registry_size: u64,
    stale: bool,
}

struct MutationOk {
    txn_id: Option<TxnId>,
    level: Option<&'static str>,
    changed: Vec<LevelChange>,
}

/// Builds the wire reply from a [`MutationRaw`] (outside any lock).
fn mutation_reply(raw: MutationRaw) -> Value {
    let mut v = match raw.res {
        Ok(ok) => {
            let mut v = ok_reply();
            if let Some(id) = ok.txn_id {
                v["txn_id"] = Value::from(id.0);
            }
            if let Some(level) = ok.level {
                v["level"] = Value::from(level);
            }
            v["changed"] = changes_json(&ok.changed);
            v["registry_size"] = Value::from(raw.registry_size);
            v
        }
        Err(msg) => error_reply(&msg),
    };
    if raw.stale {
        v["stale"] = Value::from(true);
    }
    v
}

/// Applies one membership event to a registry, capturing the raw reply
/// ingredients under the lock. Shared by the inline path ([`mutate`])
/// and nothing else — the coalesced path goes through
/// [`Registry::apply_events`].
fn apply_event(reg: &mut Registry, event: &RegistryEvent) -> MutationRaw {
    let res = match event {
        RegistryEvent::Register(line) => match reg.register(line) {
            Ok(realloc) => {
                let id = realloc
                    .changed
                    .iter()
                    .find(|c| c.before.is_none())
                    .map(|c| c.txn);
                Ok(MutationOk {
                    txn_id: id,
                    level: id.map(|id| realloc.allocation.level(id).as_str()),
                    changed: realloc.changed,
                })
            }
            Err(e) => Err(e.to_string()),
        },
        RegistryEvent::Deregister(id) => match reg.deregister(*id) {
            Ok(realloc) => Ok(MutationOk {
                txn_id: Some(*id),
                level: None,
                changed: realloc.changed,
            }),
            Err(e) => Err(e.to_string()),
        },
        RegistryEvent::TemplateRegister(_) | RegistryEvent::Instantiate { .. } => {
            unreachable!("template events run through their own inline path")
        }
    };
    MutationRaw {
        res,
        registry_size: reg.len() as u64,
        stale: reg.degraded(),
    }
}

/// Runs a mutating request through the idempotency cache: a `req_id`
/// already answered replays the original reply (marked); otherwise the
/// mutation executes and, when it applied (`ok: true`), its reply is
/// remembered. Replies carrying a `req_id` echo it back, so pipelined
/// clients can match replies out of band. The replay lock is held
/// across check + execute + insert so concurrent retries of the same
/// `req_id` cannot double-apply; lock order is `replays` → registry
/// (see [`Shared`]).
///
/// With a store configured, the applied event is appended to the
/// write-ahead log **under the tenant's registry lock** — per-tenant
/// log order always equals apply order — and the logged record carries
/// the complete reply (including the `req_id` echo), so recovery
/// reseeds the replay cache with exactly what the client saw. The
/// commit point (one fsync under the `batch` policy) runs after the
/// lock is released.
fn mutate(shared: &Shared, tenant: &str, req_id: Option<u64>, event: RegistryEvent) -> Value {
    mutate_with(shared, tenant, req_id, &event, |reg| {
        mutation_reply(apply_event(reg, &event))
    })
}

/// The shared inline-mutation skeleton: replay-cache check, `apply`
/// under the tenant's registry lock, WAL append (still under the lock)
/// for applied mutations, commit after release, reply caching. Both the
/// engine path ([`mutate`]) and the template catalog path (which never
/// touches the allocator) run through it, so idempotency and
/// durability semantics are identical across the two.
fn mutate_with(
    shared: &Shared,
    tenant: &str,
    req_id: Option<u64>,
    event: &RegistryEvent,
    apply: impl FnOnce(&mut Registry) -> Value,
) -> Value {
    let run = |shared: &Shared| {
        let (tkey, reg_arc) = shared.namespaces.resolve(tenant);
        let mut reg = reg_arc.lock().expect("registry poisoned");
        let mut v = apply(&mut reg);
        if let Some(rid) = req_id {
            v["req_id"] = Value::from(rid);
        }
        // Only applied mutations are logged: a failed (rolled-back)
        // attempt left no state behind, so there is nothing to replay.
        if v["ok"] == true {
            if let Some(store) = &shared.store {
                if let Err(e) = store.append(&tkey, event, req_id, &v) {
                    eprintln!("mvservice: wal append failed: {e}");
                }
            }
        }
        drop(reg);
        if let Some(store) = &shared.store {
            if let Err(e) = store.commit() {
                eprintln!("mvservice: wal fsync failed: {e}");
            }
        }
        v
    };
    match req_id {
        None => run(shared),
        Some(rid) => {
            let (tkey, _) = shared.namespaces.resolve(tenant);
            let mut cache = shared.replays.lock().expect("replay cache poisoned");
            if let Some(prev) = cache.get(&tkey, rid) {
                let mut v = prev.clone();
                v["replayed"] = Value::from(true);
                shared.metrics.record_replay();
                return v;
            }
            let v = run(shared);
            // Only applied mutations are cached: a failed (rolled-back)
            // attempt left no state behind, so a retry must re-execute.
            if v["ok"] == true {
                cache.insert(tkey, rid, v.clone());
            }
            v
        }
    }
}

/// Executes a decoded request against its tenant's registry.
/// Mutations create the tenant on first touch; reads against an
/// unknown tenant answer as if it were empty (they never create one).
fn execute(shared: &Shared, req: Request, tenant: &str) -> (Value, bool) {
    match req {
        Request::Register { line, req_id } => {
            let v = mutate(shared, tenant, req_id, RegistryEvent::Register(line));
            if v["ok"] == true && v["replayed"] != true {
                // Ad-hoc registration is the delta-path admission: the
                // engine re-solved for this one transaction.
                shared.metrics.record_admission(false);
            }
            (v, false)
        }
        Request::Deregister { id, req_id } => {
            let v = mutate(shared, tenant, req_id, RegistryEvent::Deregister(id));
            (v, false)
        }
        Request::TemplateRegister { template, req_id } => {
            let event = RegistryEvent::TemplateRegister(template.clone());
            let v = mutate_with(shared, tenant, req_id, &event, |reg| {
                match reg.register_template(&template) {
                    Ok(entry) => {
                        let mut v = ok_reply();
                        v["template_id"] = Value::from(entry.template_id as u64);
                        v["level"] = Value::from(entry.level.as_str());
                        v["templates"] = Value::from(reg.template_count() as u64);
                        v["reverified"] = Value::from(entry.reverified as u64);
                        // Registering can move *earlier* templates to a
                        // lower level (the greedy recompute sees the
                        // grown set); report exactly what moved so
                        // callers can refresh cached levels.
                        v["changed"] = Value::Array(
                            entry
                                .changed
                                .iter()
                                .map(|c| {
                                    json!({
                                        "template": c.template_id as u64,
                                        "before": c.from.as_str(),
                                        "after": c.to.as_str(),
                                    })
                                })
                                .collect(),
                        );
                        v
                    }
                    Err(e) => error_reply(&e.to_string()),
                }
            });
            if v["ok"] == true && v["replayed"] != true {
                shared.metrics.record_template();
            }
            (v, false)
        }
        Request::Instantiate {
            template_id,
            params,
            req_id,
        } => {
            let event = RegistryEvent::Instantiate {
                template_id: template_id as usize,
                params: params.clone(),
            };
            let v = mutate_with(shared, tenant, req_id, &event, |reg| {
                match reg.admit_instance(template_id as usize, &params) {
                    Ok((level, instances)) => {
                        let mut v = ok_reply();
                        v["template_id"] = Value::from(template_id);
                        v["level"] = Value::from(level.as_str());
                        v["instances"] = Value::from(instances);
                        v
                    }
                    Err(e) => error_reply(&e.to_string()),
                }
            });
            if v["ok"] == true && v["replayed"] != true {
                shared.metrics.record_admission(true);
            }
            (v, false)
        }
        Request::TemplateList => {
            let templates: Vec<Value> = match shared.namespaces.get(tenant) {
                None => Vec::new(),
                Some((_, reg_arc)) => {
                    let reg = reg_arc.lock().expect("registry poisoned");
                    reg.templates()
                        .into_iter()
                        .map(|t| {
                            json!({
                                "id": t.id as u64,
                                "name": t.name,
                                "text": t.text,
                                "level": t.level.as_str(),
                                "param_count": t.param_count as u64,
                                "instances": t.instances,
                            })
                        })
                        .collect()
                }
            };
            let mut v = ok_reply();
            v["templates"] = Value::Array(templates);
            (v, false)
        }
        Request::Assign { id } => {
            let found = shared.namespaces.get(tenant).and_then(|(_, reg_arc)| {
                let mut reg = reg_arc.lock().expect("registry poisoned");
                reg.assign(id).map(|level| (level, reg.degraded()))
            });
            match found {
                Some((level, degraded)) => {
                    let mut v = ok_reply();
                    v["txn_id"] = Value::from(id.0);
                    v["level"] = Value::from(level.as_str());
                    if degraded {
                        // The served allocation is still the exact
                        // optimum of the *applied* set, but a recent
                        // change was rejected — let readers know.
                        v["stale"] = Value::from(true);
                    }
                    (v, false)
                }
                None => (
                    error_reply(&format!("transaction {id} is not registered")),
                    false,
                ),
            }
        }
        Request::Stats => {
            let mut v = shared.metrics.to_json();
            v["ok"] = Value::from(true);
            v["tenant"] = Value::from(tenant);
            v["tenants"] = Value::from(shared.namespaces.len() as u64);
            match shared.namespaces.get(tenant) {
                Some((_, reg_arc)) => {
                    let reg = reg_arc.lock().expect("registry poisoned");
                    v["registry_size"] = Value::from(reg.len() as u64);
                    v["levels"] = Value::from(reg.levels().label());
                    v["degraded"] = Value::from(reg.degraded());
                    v["failed_reallocs"] = Value::from(reg.failed_reallocs());
                    v["last_realloc"] = match reg.last_stats() {
                        None => Value::Null,
                        Some(s) => {
                            let mut m = serde_json::Map::new();
                            m.insert("probes".to_string(), Value::from(s.probes));
                            m.insert("cache_hits".to_string(), Value::from(s.cache_hits));
                            m.insert("cached_specs".to_string(), Value::from(s.cached_specs));
                            m.insert("iso_builds".to_string(), Value::from(s.iso_builds));
                            m.insert(
                                "components_checked".to_string(),
                                Value::from(s.components_checked),
                            );
                            m.insert(
                                "components_cached".to_string(),
                                Value::from(s.components_cached),
                            );
                            m.insert("kernel_row_ops".to_string(), Value::from(s.kernel_row_ops));
                            m.insert("batch_events".to_string(), Value::from(s.batch_events));
                            m.insert(
                                "batched_components_solved".to_string(),
                                Value::from(s.batched_components_solved),
                            );
                            m.insert("threads".to_string(), Value::from(s.threads as u64));
                            m.insert(
                                "wall_us".to_string(),
                                Value::from(s.wall.as_micros().min(u128::from(u64::MAX)) as u64),
                            );
                            Value::Object(m)
                        }
                    };
                }
                None => {
                    // An unknown (or not yet touched) tenant reads as
                    // empty — same fields, zero values.
                    v["registry_size"] = Value::from(0u64);
                    v["levels"] = Value::from(shared.namespaces.levels().label());
                    v["degraded"] = Value::from(false);
                    v["failed_reallocs"] = Value::from(0u64);
                    v["last_realloc"] = Value::Null;
                }
            }
            if let Some(f) = &shared.faults {
                v["faults_injected"] = Value::from(f.injected());
            }
            let sc = shared.namespaces.shared_cache();
            v["shared_cache"] = json!({
                "hits": sc.hits(),
                "misses": sc.misses(),
                "inserts": sc.inserts(),
                "entries": sc.len() as u64,
                "hit_rate": sc.hit_rate(),
            });
            if let Some(store) = &shared.store {
                v["durability"] = json!({
                    "policy": store.durability().as_str(),
                    "wal_appends": store.appends(),
                    "fsyncs": store.fsyncs(),
                    "snapshots": store.snapshots(),
                    "next_seq": store.next_seq(),
                    "since_snapshot": store.since_snapshot(),
                    "recovery": shared.recovery.clone(),
                });
            }
            (v, false)
        }
        Request::List => {
            let txns: Vec<Value> = match shared.namespaces.get(tenant) {
                None => Vec::new(),
                Some((_, reg_arc)) => {
                    let mut reg = reg_arc.lock().expect("registry poisoned");
                    reg.list()
                        .into_iter()
                        .map(|t| {
                            let mut m = serde_json::Map::new();
                            m.insert("id".to_string(), Value::from(t.id.0));
                            m.insert("text".to_string(), Value::from(t.text));
                            m.insert("level".to_string(), Value::from(t.level.as_str()));
                            Value::Object(m)
                        })
                        .collect()
                }
            };
            let mut v = ok_reply();
            v["txns"] = Value::Array(txns);
            (v, false)
        }
        Request::Ping => {
            let mut v = ok_reply();
            v["pong"] = Value::from(true);
            (v, false)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let mut v = ok_reply();
            v["shutting_down"] = Value::from(true);
            (v, true)
        }
    }
}

/// The group-commit dispatcher loop: wait for the first parked
/// mutation, linger up to `batch_delay` for companions (re-checking
/// until the window closes or the drain is full), then drain up to
/// `batch_max` events and apply them as one engine batch. Exits once
/// shutdown is requested and the queue is empty.
fn run_dispatcher(shared: &Shared) {
    let batcher = shared
        .batch
        .as_ref()
        .expect("dispatcher runs only with batching enabled");
    loop {
        let drain: Vec<Pending> = {
            let mut queue = batcher.queue.lock().expect("batch queue poisoned");
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.stopping() {
                    return;
                }
                let (guard, _timeout) = batcher
                    .available
                    .wait_timeout(queue, POLL_TICK)
                    .expect("batch queue poisoned");
                queue = guard;
            }
            // The group-commit window: something is queued — hold the
            // drain open briefly so bursts from other connections
            // coalesce into the same engine batch. Skipped when
            // stopping (drain immediately) or the drain is already
            // full.
            if !shared.stopping() && !batcher.delay.is_zero() {
                let window_closes = Instant::now() + batcher.delay;
                while queue.len() < batcher.max {
                    let now = Instant::now();
                    if now >= window_closes || shared.stopping() {
                        break;
                    }
                    let (guard, _timeout) = batcher
                        .available
                        .wait_timeout(queue, window_closes - now)
                        .expect("batch queue poisoned");
                    queue = guard;
                }
            }
            let n = queue.len().min(batcher.max);
            queue.drain(..n).collect()
        };
        process_drain(shared, drain);
    }
}

/// Applies one drained batch end to end: per-*event* replay-cache
/// check, one [`Registry::apply_events`] pass per tenant group (events
/// keep their submission order within each tenant), per-event metrics
/// and replay caching, then one completion-queue push for the drain.
///
/// With a store configured, each applied event's reply is assembled
/// and appended to the write-ahead log under its tenant's registry
/// lock (log order = apply order, and the logged reply is exactly what
/// the client receives); the whole drain then commits with **one**
/// fsync under the `batch` durability policy — the group-commit
/// alignment the fsync policy is named for.
fn process_drain(shared: &Shared, batch: Vec<Pending>) {
    let mut replies: Vec<Option<Value>> = Vec::with_capacity(batch.len());
    replies.resize_with(batch.len(), || None);
    let mut fresh: Vec<usize> = Vec::new();
    let mut deferred: Vec<usize> = Vec::new();
    {
        // Replay check per event, not per batch: each retried req_id
        // individually replays its original reply; only genuinely new
        // events reach the engine. Lock order stays replays → registry.
        let cache = shared.replays.lock().expect("replay cache poisoned");
        let mut claimed: Vec<(Arc<str>, u64)> = Vec::new();
        for (i, p) in batch.iter().enumerate() {
            if let Some(rid) = p.req_id {
                if let Some(prev) = cache.get(&p.tenant, rid) {
                    let mut v = prev.clone();
                    v["replayed"] = Value::from(true);
                    shared.metrics.record_replay();
                    replies[i] = Some(v);
                    continue;
                }
                let key = (Arc::clone(&p.tenant), rid);
                if claimed.contains(&key) {
                    // The same idempotency key twice in one drain (a
                    // fast retry racing its original): defer the
                    // duplicate to the next drain, where the replay
                    // cache — updated by this one — decides.
                    deferred.push(i);
                    continue;
                }
                claimed.push(key);
            }
            fresh.push(i);
        }
    }
    // Group the fresh events by tenant (submission order within each
    // group is preserved); each group is one engine batch under its
    // own tenant's registry lock, so tenants coalesce independently.
    let mut tenant_order: Vec<Arc<str>> = Vec::new();
    let mut by_tenant: HashMap<Arc<str>, Vec<usize>> = HashMap::new();
    for &i in &fresh {
        let slot = by_tenant.entry(Arc::clone(&batch[i].tenant)).or_default();
        if slot.is_empty() {
            tenant_order.push(Arc::clone(&batch[i].tenant));
        }
        slot.push(i);
    }
    let mut total_events = 0usize;
    for tkey in &tenant_order {
        let idxs = &by_tenant[tkey];
        let events: Vec<RegistryEvent> = idxs
            .iter()
            .map(|&i| match &batch[i].req {
                Request::Register { line, .. } => RegistryEvent::Register(line.clone()),
                Request::Deregister { id, .. } => RegistryEvent::Deregister(*id),
                _ => unreachable!("only mutating requests are enqueued"),
            })
            .collect();
        total_events += events.len();
        let (_, reg_arc) = shared.namespaces.resolve(tkey);
        let mut reg = reg_arc.lock().expect("registry poisoned");
        match reg.apply_events(&events) {
            Ok(reply) => {
                let changed_json = changes_json(&reply.changed);
                let registry_size = reg.len() as u64;
                let stale = reg.degraded();
                for ((&i, outcome), event) in idxs.iter().zip(&reply.outcomes).zip(&events) {
                    let mut v = match outcome {
                        Ok(id) => {
                            // A registered id deregistered later in the
                            // same batch has no level anymore — `assign`
                            // reads the *post-batch* truth.
                            let level = match event {
                                RegistryEvent::Register(_) => reg.assign(*id).map(|l| l.as_str()),
                                RegistryEvent::Deregister(_) => None,
                                RegistryEvent::TemplateRegister(_)
                                | RegistryEvent::Instantiate { .. } => {
                                    unreachable!("template events are never coalesced")
                                }
                            };
                            let mut v = ok_reply();
                            v["txn_id"] = Value::from(id.0);
                            if let Some(level) = level {
                                v["level"] = Value::from(level);
                            }
                            v["changed"] = changed_json.clone();
                            v["registry_size"] = Value::from(registry_size);
                            v
                        }
                        Err(e) => error_reply(&e.to_string()),
                    };
                    if stale {
                        v["stale"] = Value::from(true);
                    }
                    if let Some(rid) = batch[i].req_id {
                        v["req_id"] = Value::from(rid);
                    }
                    if v["ok"] == true {
                        if matches!(event, RegistryEvent::Register(_)) {
                            shared.metrics.record_admission(false);
                        }
                        if let Some(store) = &shared.store {
                            if let Err(e) = store.append(tkey, event, batch[i].req_id, &v) {
                                eprintln!("mvservice: wal append failed: {e}");
                            }
                        }
                    }
                    replies[i] = Some(v);
                }
            }
            Err(e) => {
                // Whole-batch failure for this tenant (injected fault
                // or timeout): nothing applied, every event of the
                // group reports the same degradation error, and the
                // last-known-good allocation keeps being served. Other
                // tenants' groups are untouched.
                let msg = e.to_string();
                let stale = reg.degraded();
                for &i in idxs {
                    let mut v = error_reply(&msg);
                    if stale {
                        v["stale"] = Value::from(true);
                    }
                    if let Some(rid) = batch[i].req_id {
                        v["req_id"] = Value::from(rid);
                    }
                    replies[i] = Some(v);
                }
            }
        }
    }
    // The drain's single commit point: one covering fsync under the
    // `batch` durability policy.
    if let Some(store) = &shared.store {
        if let Err(e) = store.commit() {
            eprintln!("mvservice: wal fsync failed: {e}");
        }
    }
    if total_events > 0 {
        shared.metrics.record_batch(total_events);
    }
    // Per-event metrics (replays included): latency runs from request
    // acceptance, so the group-commit wait is part of the reported
    // cost.
    for (i, p) in batch.iter().enumerate() {
        if let Some(v) = &replies[i] {
            shared
                .metrics
                .record(p.op, v["ok"] == true, p.accepted.elapsed());
        }
    }
    {
        // Remember applied mutations per event req_id — exactly the
        // single-event rule, applied event-by-event inside the batch.
        let mut cache = shared.replays.lock().expect("replay cache poisoned");
        for &i in &fresh {
            if let (Some(rid), Some(v)) = (batch[i].req_id, &replies[i]) {
                if v["ok"] == true {
                    cache.insert(Arc::clone(&batch[i].tenant), rid, v.clone());
                }
            }
        }
    }
    // One completion-queue push + wake for the whole drain. Submission
    // order is kept, so each connection receives its replies in order;
    // once a truncated reply kills a connection, the loop drops the
    // rest of its replies (their retries hit the replay cache).
    let completions: Vec<Completion> = batch
        .iter()
        .zip(replies.iter_mut())
        .filter_map(|(p, reply)| {
            reply.take().map(|reply| Completion {
                key: p.conn,
                reply,
                truncate: p.truncate,
            })
        })
        .collect();
    shared.completions.push_all(completions);
    // Deferred duplicates re-enter at the front, in original order, for
    // the next drain.
    if !deferred.is_empty() {
        let batcher = shared.batch.as_ref().expect("drain implies batching");
        let mut pendings: Vec<Pending> = Vec::new();
        for (i, p) in batch.into_iter().enumerate() {
            if deferred.contains(&i) {
                pendings.push(p);
            }
        }
        let mut queue = batcher.queue.lock().expect("batch queue poisoned");
        for p in pendings.into_iter().rev() {
            queue.push_front(p);
        }
        batcher.available.notify_one();
    }
    // One snapshot check per drain, with no locks held.
    maybe_snapshot(shared);
}

/// Takes a snapshot when one is due. Stop-the-world over the captured
/// cut: `replays` then *every* tenant registry (ascending by name —
/// the same global lock order every mutation follows) are held from
/// capture through WAL truncation, so the snapshot is a consistent
/// point of the multi-tenant state and no record can land between what
/// it covers and the truncated log. One snapshot runs at a time
/// ([`Store::begin_snapshot`] is a CAS); callers invoke this with no
/// locks held.
pub(crate) fn maybe_snapshot(shared: &Shared) {
    let Some(store) = &shared.store else { return };
    if !store.wants_snapshot() || !store.begin_snapshot() {
        return;
    }
    let tenants = shared.namespaces.all();
    let replays = shared.replays.lock().expect("replay cache poisoned");
    let mut guards = Vec::with_capacity(tenants.len());
    for (name, reg) in &tenants {
        guards.push((Arc::clone(name), reg.lock().expect("registry poisoned")));
    }
    let mut state = SnapshotState::default();
    for (name, reg) in guards.iter_mut() {
        let listed = reg.list();
        let catalog = reg.templates();
        state.tenants.push(TenantSnapshot {
            name: name.to_string(),
            lines: listed.iter().map(|t| t.text.clone()).collect(),
            alloc: listed
                .iter()
                .map(|t| (t.id.0, t.level.as_str().to_string()))
                .collect(),
            templates: catalog
                .iter()
                .map(|t| (t.text.clone(), t.level.as_str().to_string()))
                .collect(),
            instances: catalog.iter().map(|t| t.instances).collect(),
        });
    }
    state.replays = replays.entries();
    state.cache = shared
        .namespaces
        .shared_cache()
        .entries()
        .into_iter()
        .map(|(key, entry)| {
            let stored = match entry {
                CompEntry::Unallocatable => None,
                CompEntry::Robust(lvls) => Some(
                    lvls.iter()
                        .map(|(id, l)| (id.0, l.as_str().to_string()))
                        .collect(),
                ),
            };
            (key, stored)
        })
        .collect();
    if let Err(e) = store.write_snapshot(&state) {
        eprintln!("mvservice: snapshot failed: {e}");
        store.abort_snapshot();
    }
}

/// Rebuilds the in-memory state `bind` serves from what the store
/// recovered. Snapshot first: the shared fingerprint cache is restored
/// *before* the tenants (so re-registration is answered from cache),
/// each tenant's canonical lines are re-registered — re-solved, not
/// trusted — and the **recovery invariant** is checked: the recomputed
/// allocation must equal the snapshotted one (the optimum is unique by
/// Proposition 4.2, so any mismatch means corruption, not drift). Then
/// the WAL tail replays in log order and the replay cache is reseeded
/// with the exact replies the clients originally saw.
fn recover(
    namespaces: &Namespaces,
    replays: &mut ReplayCache,
    recovered: &crate::store::Recovered,
) -> Result<(), String> {
    let parse_level = |lvl: &str| {
        lvl.parse::<IsolationLevel>()
            .map_err(|_| format!("bad isolation level `{lvl}` in snapshot"))
    };
    if let Some(snap) = &recovered.snapshot {
        for (key, entry) in &snap.cache {
            let entry = match entry {
                None => CompEntry::Unallocatable,
                Some(lvls) => CompEntry::Robust(
                    lvls.iter()
                        .map(|(id, lvl)| parse_level(lvl).map(|l| (TxnId(*id), l)))
                        .collect::<Result<Vec<_>, _>>()?,
                ),
            };
            namespaces.shared_cache().restore(*key, entry);
        }
        for t in &snap.tenants {
            let (_, reg_arc) = namespaces.resolve(&t.name);
            let mut reg = reg_arc.lock().expect("registry poisoned");
            for line in &t.lines {
                reg.register(line)
                    .map_err(|e| format!("tenant {}: replaying `{line}`: {e}", t.name))?;
            }
            if reg.len() != t.alloc.len() {
                return Err(format!(
                    "tenant {}: snapshot lists {} transactions but {} recovered",
                    t.name,
                    t.alloc.len(),
                    reg.len()
                ));
            }
            for (id, lvl) in &t.alloc {
                let want = parse_level(lvl)?;
                match reg.assign(TxnId(*id)) {
                    Some(got) if got == want => {}
                    got => {
                        return Err(format!(
                            "tenant {}: recovery invariant violated: T{id} \
                             recomputed as {got:?}, snapshot says {want}",
                            t.name
                        ));
                    }
                }
            }
            // Template catalogs recover the same way the allocation
            // does: re-registered in snapshot (= registration) order
            // and re-audited, never trusted. The recomputed levels are
            // checked only after the whole sequence replays — a later
            // registration legitimately moves earlier templates, so the
            // snapshot records final levels, not at-registration ones.
            for (line, _) in &t.templates {
                reg.register_template(line)
                    .map_err(|e| format!("tenant {}: replaying template `{line}`: {e}", t.name))?;
            }
            for ((line, lvl), info) in t.templates.iter().zip(reg.templates()) {
                let want = parse_level(lvl)?;
                if info.level != want {
                    return Err(format!(
                        "tenant {}: recovery invariant violated: template `{line}` \
                         recomputed as {}, snapshot says {want}",
                        t.name, info.level
                    ));
                }
            }
            reg.restore_instances(&t.instances);
        }
        for (tenant, rid, reply) in &snap.replays {
            let (key, _) = namespaces.resolve(tenant);
            replays.insert(key, *rid, reply.clone());
        }
    }
    for rec in &recovered.records {
        let (key, reg_arc) = namespaces.resolve(&rec.tenant);
        {
            let mut reg = reg_arc.lock().expect("registry poisoned");
            // Only applied mutations were logged, so the replay must
            // apply too; a failure here means the log and snapshot
            // disagree.
            let res = match &rec.event {
                RegistryEvent::Register(line) => reg.register(line).map(|_| ()),
                RegistryEvent::Deregister(id) => reg.deregister(*id).map(|_| ()),
                RegistryEvent::TemplateRegister(line) => reg.register_template(line).map(|_| ()),
                RegistryEvent::Instantiate {
                    template_id,
                    params,
                } => reg.admit_instance(*template_id, params).map(|_| ()),
            };
            res.map_err(|e| {
                format!(
                    "tenant {}: replaying log record {}: {e}",
                    rec.tenant, rec.seq
                )
            })?;
        }
        if let Some(rid) = rec.req_id {
            replays.insert(key, rid, rec.reply.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::ReplayCache;
    use serde_json::json;
    use std::sync::Arc;

    fn t(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    /// The eviction boundary: filling past capacity evicts strictly
    /// oldest-first, so every entry younger than `cap` insertions — the
    /// window a retrying client can actually still be in — survives.
    #[test]
    fn replay_cache_evicts_oldest_first_and_keeps_the_retry_window() {
        const CAP: usize = 8;
        let mut cache = ReplayCache::with_capacity(CAP);
        let tenant = t("acme");
        for rid in 0..(CAP as u64 * 2) {
            cache.insert(Arc::clone(&tenant), rid, json!({"rid": rid}));
            // Invariants hold at every step, not just at the end.
            assert!(cache.order.len() <= CAP, "order grew past cap");
            assert_eq!(cache.replies.len(), cache.order.len(), "map/queue skew");
            // The newest min(inserted, cap) entries are all present.
            let oldest_kept = (rid + 1).saturating_sub(CAP as u64);
            for kept in oldest_kept..=rid {
                assert_eq!(
                    cache.get(&tenant, kept),
                    Some(&json!({"rid": kept})),
                    "entry {kept} inside the retry window was dropped at step {rid}"
                );
            }
            if oldest_kept > 0 {
                assert_eq!(
                    cache.get(&tenant, oldest_kept - 1),
                    None,
                    "evicted entry resurfaced at step {rid}"
                );
            }
        }
        // Insertion order is preserved end to end (the snapshot capture
        // relies on this to restore the eviction queue faithfully).
        let rids: Vec<u64> = cache.entries().iter().map(|(_, rid, _)| *rid).collect();
        let expect: Vec<u64> = (CAP as u64..CAP as u64 * 2).collect();
        assert_eq!(rids, expect, "entries() must walk oldest → newest");
    }

    /// Re-inserting a live key must not duplicate it in the eviction
    /// queue — a duplicate would make one retry burst age out other
    /// tenants' entries early.
    #[test]
    fn replay_cache_duplicate_insert_does_not_double_count() {
        let mut cache = ReplayCache::with_capacity(4);
        let tenant = t("acme");
        for _ in 0..10 {
            cache.insert(Arc::clone(&tenant), 7, json!({"first": true}));
        }
        assert_eq!(cache.order.len(), 1, "duplicate inserts grew the queue");
        assert_eq!(cache.get(&tenant, 7), Some(&json!({"first": true})));
        // Keys are tenant-scoped: the same rid elsewhere is distinct.
        cache.insert(t("zeta"), 7, json!({"zeta": true}));
        assert_eq!(cache.get(&t("zeta"), 7), Some(&json!({"zeta": true})));
        assert_eq!(cache.get(&tenant, 7), Some(&json!({"first": true})));
        assert_eq!(cache.order.len(), 2);
    }
}
