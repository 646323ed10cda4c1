//! The topology under test and the threads that drive its consumers.
//!
//! Root `Broker` + `BrokerServer`, one relay (`attach_upstream`), and
//! behind the relay an edge (`RemoteEdgeFeed` → `EdgeIndex` →
//! `EdgeServer`) and a full-replica leaf (`RemoteZoneView`). Everything
//! talks loopback TCP inside this process, and every component runs its
//! `Default` configuration.

use crate::stats::thread_cpu_ns;
use crate::trace::Span;
use darkdns_broker::transport::{tcp_connect, Bytes, FrameConn, RelayHandle, TransportError};
use darkdns_broker::{
    Broker, BrokerConfig, BrokerMessage, BrokerServer, BrokerSubscription, SubWait,
    TransportClient, TransportConfig,
};
use darkdns_core::broker_view::{BrokerZoneView, RemoteZoneView};
use darkdns_dns::wire::SNAPSHOT_CHUNK_MAGIC;
use darkdns_dns::{decode_delta_push, DomainName, Serial, ZoneSnapshot};
use darkdns_edge::{EdgeConfig, EdgeIndex, EdgeServer, RemoteEdgeFeed};
use darkdns_registry::tld::TldId;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a consumer blocks on an idle socket before it re-checks its
/// stop flag. Consumers block; they never spin.
const RECV_TIMEOUT: Duration = Duration::from_millis(20);

/// Which consumer a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Edge,
    Leaf,
    /// The in-process `BrokerZoneView` on the root (traced runs only).
    InProc,
}

/// A consumer's serial for one shard moved to `serial` at `at`.
#[derive(Debug, Clone, Copy)]
pub struct Advance {
    pub tld: usize,
    pub serial: u32,
    pub at: Instant,
}

/// Where the edge and the leaf have got to; the load threads and the
/// set-up wait on it instead of polling.
pub struct Progress {
    state: Mutex<ProgressState>,
    cond: Condvar,
}

#[derive(Clone)]
pub struct ProgressState {
    pub edge: Vec<Option<u32>>,
    pub leaf: Vec<Option<u32>>,
    /// Bumped on every update, so a waiter can tell it missed nothing.
    pub changes: u64,
}

impl Progress {
    fn new(shards: usize) -> Self {
        Progress {
            state: Mutex::new(ProgressState {
                edge: vec![None; shards],
                leaf: vec![None; shards],
                changes: 0,
            }),
            cond: Condvar::new(),
        }
    }

    pub fn get(&self) -> ProgressState {
        self.state.lock().expect("progress lock poisoned").clone()
    }

    /// Block until an update newer than `seen` lands or `until` passes.
    pub fn wait(&self, seen: u64, until: Instant) -> ProgressState {
        let mut state = self.state.lock().expect("progress lock poisoned");
        while state.changes == seen {
            let now = Instant::now();
            if now >= until {
                break;
            }
            state = self
                .cond
                .wait_timeout(state, until - now)
                .expect("progress lock poisoned")
                .0;
        }
        state.clone()
    }

    fn update(&self, tier: Tier, tld: usize, serial: u32) {
        let mut state = self.state.lock().expect("progress lock poisoned");
        match tier {
            Tier::Edge => state.edge[tld] = Some(serial),
            Tier::Leaf => state.leaf[tld] = Some(serial),
            Tier::InProc => return,
        }
        state.changes += 1;
        drop(state);
        self.cond.notify_all();
    }
}

/// Busy time and events of one consumer, readable while it runs
/// (traced runs only).
#[derive(Default)]
pub struct Busy {
    pub cpu_ns: AtomicU64,
    pub events: AtomicU64,
}

impl Busy {
    pub fn read(&self) -> (u64, u64) {
        (
            self.cpu_ns.load(Ordering::Relaxed),
            self.events.load(Ordering::Relaxed),
        )
    }
}

/// What a consumer thread hands back when it stops.
#[derive(Default)]
pub struct Outcome {
    pub advances: Vec<Advance>,
    pub spans: Vec<Span>,
    /// The leaf's zone-NRD log, every name in drain order.
    pub nrd: Vec<DomainName>,
    pub snapshots: Vec<Option<ZoneSnapshot>>,
    pub resyncs: u64,
}

/// The one-event pump every consumer shape offers.
trait Consumer {
    fn pump_one(&mut self) -> usize;
    fn view(&self) -> &BrokerZoneView;
    /// After each event; the leaf drains its zone-NRD log here.
    fn after_event(&mut self, _nrd: &mut Vec<DomainName>) {}
}

type Dial =
    Box<dyn FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError> + Send>;

fn dial_to(addr: SocketAddr) -> Dial {
    Box::new(move |claims| {
        let mut conn = tcp_connect(addr).map_err(TransportError::Io)?;
        conn.set_recv_timeout(Some(RECV_TIMEOUT))?;
        TransportClient::connect(conn, claims)
    })
}

impl Consumer for RemoteEdgeFeed<Dial> {
    fn pump_one(&mut self) -> usize {
        self.pump(1)
    }
    fn view(&self) -> &BrokerZoneView {
        RemoteEdgeFeed::view(self)
    }
}

impl Consumer for RemoteZoneView<Dial> {
    fn pump_one(&mut self) -> usize {
        self.pump(1)
    }
    fn view(&self) -> &BrokerZoneView {
        RemoteZoneView::view(self)
    }
    fn after_event(&mut self, nrd: &mut Vec<DomainName>) {
        self.view_mut().drain_new_domains(nrd);
    }
}

/// `BrokerZoneView` fed from an in-process root subscription, waiting
/// on the queue rather than polling it.
struct InProcView {
    sub: BrokerSubscription,
    view: BrokerZoneView,
}

impl Consumer for InProcView {
    fn pump_one(&mut self) -> usize {
        match self.sub.next_wait(RECV_TIMEOUT) {
            SubWait::Message(BrokerMessage::Snapshot { tld, snapshot }) => {
                self.view.ingest_snapshot(tld, snapshot);
                1
            }
            SubWait::Message(BrokerMessage::Delta { tld, frame }) => {
                let push = decode_delta_push(&frame).expect("broker frames are well-formed");
                usize::from(self.view.ingest_delta(tld, &push))
            }
            SubWait::Evicted => {
                self.view.ingest_eviction();
                0
            }
            SubWait::TimedOut => 0,
        }
    }
    fn view(&self) -> &BrokerZoneView {
        &self.view
    }
    fn after_event(&mut self, nrd: &mut Vec<DomainName>) {
        self.view.drain_new_domains(nrd);
    }
}

const fn span_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Edge => "edge.feed.pump",
        Tier::Leaf => "core.view.pump",
        Tier::InProc => "inproc.view.pump",
    }
}

/// Pump `consumer` one event at a time until `stop`, recording every
/// serial advance. In traced runs each event's pump call is timed on
/// the thread's CPU clock, so the blocking wait for the frame is not
/// counted as work.
fn drive(
    consumer: &mut impl Consumer,
    tier: Tier,
    shards: usize,
    progress: &Progress,
    stop: &AtomicBool,
    busy: Option<&Busy>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut last: Vec<Option<u32>> = vec![None; shards];
    while !stop.load(Ordering::Relaxed) {
        let cpu0 = busy.map(|_| thread_cpu_ns());
        let applied = consumer.pump_one();
        if applied == 0 {
            continue;
        }
        consumer.after_event(&mut out.nrd);
        let at = Instant::now();
        let cpu = cpu0.map_or(0, |cpu0| thread_cpu_ns() - cpu0);
        if let Some(busy) = busy {
            busy.cpu_ns.fetch_add(cpu, Ordering::Relaxed);
            busy.events.fetch_add(applied as u64, Ordering::Relaxed);
        }
        for (tld, seen) in last.iter_mut().enumerate() {
            let serial = consumer.view().serial(TldId(tld as u16)).map(Serial::get);
            if serial == *seen {
                continue;
            }
            *seen = serial;
            let serial = serial.expect("a consumer never loses a shard it had");
            out.advances.push(Advance { tld, serial, at });
            progress.update(tier, tld, serial);
            if busy.is_some() {
                out.spans.push(Span {
                    name: span_name(tier),
                    id: (tld as u16, serial),
                    parent: Some("push"),
                    start: at - Duration::from_nanos(cpu),
                    end: at,
                });
            }
        }
    }
    let view = consumer.view();
    out.snapshots = (0..shards)
        .map(|t| view.snapshot(TldId(t as u16)).cloned())
        .collect();
    out.resyncs = view.resync_count();
    out
}

/// A [`FrameConn`] wrapper counting the bytes and snapshot chunks a
/// fresh leaf receives while it bootstraps.
struct CountingConn<C> {
    inner: C,
    bytes: Arc<AtomicU64>,
    chunks: Arc<AtomicU64>,
}

impl<C: FrameConn> FrameConn for CountingConn<C> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.inner.send_frame(parts)
    }
    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        self.inner.send_frames(frames)
    }
    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        self.bytes
            .fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
        if frame.starts_with(SNAPSHOT_CHUNK_MAGIC) {
            self.chunks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(frame)
    }
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_recv_timeout(timeout)
    }
    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_send_timeout(timeout)
    }
}

/// One fresh leaf's bootstrap through the relay.
pub struct Join {
    pub secs: f64,
    pub bytes: u64,
    pub chunks: u64,
    /// The joined view matched the root head on every shard.
    pub ok: bool,
}

/// Everything the consumer threads and traced observers handed back.
pub struct Finished {
    pub edge: Outcome,
    pub leaf: Outcome,
    pub inproc: Option<Outcome>,
    pub relay_advances: Vec<Advance>,
}

pub struct Topology {
    pub root: Broker,
    pub root_server: BrokerServer,
    pub relay_server: BrokerServer,
    pub relay: RelayHandle,
    pub relay_addr: SocketAddr,
    pub edge_server: EdgeServer,
    pub edge_addr: SocketAddr,
    pub index: Arc<EdgeIndex>,
    pub progress: Arc<Progress>,
    pub busy_edge: Arc<Busy>,
    pub busy_leaf: Arc<Busy>,
    /// CPU of the traced run's own observers: the in-process baseline
    /// view and the relay-head poller.
    pub busy_observers: Arc<Busy>,
    pub shards: usize,
    stop: Arc<AtomicBool>,
    edge: JoinHandle<Outcome>,
    leaf: JoinHandle<Outcome>,
    inproc: Option<JoinHandle<Outcome>>,
    relay_poller: Option<JoinHandle<Vec<Advance>>>,
}

fn wait_until(what: &str, deadline: Instant, mut done: impl FnMut() -> bool) -> Result<(), String> {
    while !done() {
        if Instant::now() >= deadline {
            return Err(format!("{what} did not happen within the deadline"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

impl Topology {
    /// Build the topology over `snaps` (shard `i` is TLD `i`) and wait
    /// until every tier has bootstrapped. `traced` adds the relay-head
    /// poller and the in-process baseline view.
    pub fn build(snaps: &[ZoneSnapshot], traced: bool) -> Result<Topology, String> {
        let shards = snaps.len();
        let tlds: Vec<TldId> = (0..shards).map(|t| TldId(t as u16)).collect();
        let deadline = Instant::now() + Duration::from_secs(120);

        let root = Broker::new(BrokerConfig::default());
        for (tld, snap) in tlds.iter().zip(snaps) {
            root.add_shard(*tld, snap.clone());
        }
        let root_server = BrokerServer::new(root.clone(), TransportConfig::default());
        let root_addr = root_server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())?;

        let relay_server = BrokerServer::new(
            Broker::new(BrokerConfig::default()),
            TransportConfig::default(),
        );
        let relay = relay_server.attach_upstream(tlds.clone(), move || {
            Ok(Box::new(tcp_connect(root_addr).map_err(TransportError::Io)?) as Box<dyn FrameConn>)
        });
        wait_until("relay bootstrap", deadline, || {
            relay.stats().snapshots_installed >= shards as u64
        })?;
        let relay_addr = relay_server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())?;

        let index = Arc::new(EdgeIndex::default());
        let edge_server = EdgeServer::new(Arc::clone(&index), EdgeConfig::default());
        let edge_addr = edge_server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())?;

        let progress = Arc::new(Progress::new(shards));
        let stop = Arc::new(AtomicBool::new(false));
        let busy_edge = Arc::new(Busy::default());
        let busy_leaf = Arc::new(Busy::default());
        let busy_observers = Arc::new(Busy::default());

        let edge = {
            let (tlds, index, progress, stop) = (
                tlds.clone(),
                Arc::clone(&index),
                Arc::clone(&progress),
                Arc::clone(&stop),
            );
            let busy = traced.then(|| Arc::clone(&busy_edge));
            std::thread::spawn(move || {
                let mut feed = RemoteEdgeFeed::connect(&tlds, dial_to(relay_addr), index)
                    .expect("edge feed dials the relay");
                drive(
                    &mut feed,
                    Tier::Edge,
                    shards,
                    &progress,
                    &stop,
                    busy.as_deref(),
                )
            })
        };
        let leaf = {
            let (tlds, progress, stop) = (tlds.clone(), Arc::clone(&progress), Arc::clone(&stop));
            let busy = traced.then(|| Arc::clone(&busy_leaf));
            std::thread::spawn(move || {
                let mut view = RemoteZoneView::connect(&tlds, dial_to(relay_addr))
                    .expect("leaf dials the relay");
                drive(
                    &mut view,
                    Tier::Leaf,
                    shards,
                    &progress,
                    &stop,
                    busy.as_deref(),
                )
            })
        };
        let inproc = traced.then(|| {
            let (root, progress, stop) = (root.clone(), Arc::clone(&progress), Arc::clone(&stop));
            let (tlds, busy) = (tlds.clone(), Arc::clone(&busy_observers));
            std::thread::spawn(move || {
                let mut view = InProcView {
                    sub: root.subscribe(&tlds, None),
                    view: BrokerZoneView::detached(&tlds),
                };
                drive(
                    &mut view,
                    Tier::InProc,
                    shards,
                    &progress,
                    &stop,
                    Some(&busy),
                )
            })
        });
        let relay_poller = traced.then(|| {
            let (broker, stop) = (relay_server.broker().clone(), Arc::clone(&stop));
            let busy = Arc::clone(&busy_observers);
            std::thread::spawn(move || poll_relay_heads(&broker, shards, &stop, &busy))
        });

        let topo = Topology {
            root,
            root_server,
            relay_server,
            relay,
            relay_addr,
            edge_server,
            edge_addr,
            index,
            progress,
            busy_edge,
            busy_leaf,
            busy_observers,
            shards,
            stop,
            edge,
            leaf,
            inproc,
            relay_poller,
        };
        let zero = vec![Serial::new(0); shards];
        if !topo.wait_for(&zero, deadline) {
            return Err("edge or leaf never bootstrapped".into());
        }
        Ok(topo)
    }

    /// Whether this instance carries the traced run's observers.
    pub fn traced(&self) -> bool {
        self.inproc.is_some()
    }

    /// Block until the edge and the leaf both serve `targets` (or later).
    pub fn wait_for(&self, targets: &[Serial], deadline: Instant) -> bool {
        let reached = |s: &ProgressState| {
            targets.iter().enumerate().all(|(t, target)| {
                let at = |v: Option<u32>| v.is_some_and(|v| v >= target.get());
                at(s.edge[t]) && at(s.leaf[t])
            })
        };
        let mut state = self.progress.get();
        while !reached(&state) {
            if Instant::now() >= deadline {
                return false;
            }
            state = self.progress.wait(state.changes, deadline);
        }
        true
    }

    /// Dial a fresh leaf through the relay and time it from dial to the
    /// root's head serial on every shard.
    pub fn join_leaf(&self) -> Join {
        let heads: Vec<ZoneSnapshot> = (0..self.shards)
            .map(|t| {
                self.root
                    .head(TldId(t as u16))
                    .expect("root has every shard")
            })
            .collect();
        let tlds: Vec<TldId> = (0..self.shards).map(|t| TldId(t as u16)).collect();
        let bytes = Arc::new(AtomicU64::new(0));
        let chunks = Arc::new(AtomicU64::new(0));
        let (b, c, addr) = (Arc::clone(&bytes), Arc::clone(&chunks), self.relay_addr);
        let start = Instant::now();
        let deadline = start + Duration::from_secs(60);
        let view = RemoteZoneView::connect(&tlds, move |claims: &[(TldId, Option<Serial>)]| {
            let conn = tcp_connect(addr).map_err(TransportError::Io)?;
            let mut conn = CountingConn {
                inner: conn,
                bytes: Arc::clone(&b),
                chunks: Arc::clone(&c),
            };
            conn.set_recv_timeout(Some(RECV_TIMEOUT))?;
            TransportClient::connect(conn, claims)
        });
        let Ok(mut view) = view else {
            return Join {
                secs: start.elapsed().as_secs_f64(),
                bytes: 0,
                chunks: 0,
                ok: false,
            };
        };
        let at_head = |view: &BrokerZoneView| {
            heads
                .iter()
                .enumerate()
                .all(|(t, h)| view.serial(TldId(t as u16)) == Some(h.serial()))
        };
        while !at_head(view.view()) && Instant::now() < deadline {
            view.pump(1);
        }
        let secs = start.elapsed().as_secs_f64();
        let ok = at_head(view.view())
            && heads
                .iter()
                .enumerate()
                .all(|(t, h)| view.view().len(TldId(t as u16)) == Some(h.len()));
        Join {
            secs,
            bytes: bytes.load(Ordering::Relaxed),
            chunks: chunks.load(Ordering::Relaxed),
            ok,
        }
    }

    /// Stop every consumer thread, shut the servers down leaf-to-root,
    /// and hand back what the threads recorded.
    pub fn finish(self) -> Finished {
        self.stop.store(true, Ordering::Relaxed);
        let edge = self.edge.join().expect("edge feed thread");
        let leaf = self.leaf.join().expect("leaf thread");
        let inproc = self
            .inproc
            .map(|h| h.join().expect("in-process view thread"));
        let relay_advances = self
            .relay_poller
            .map(|h| h.join().expect("relay poller thread"))
            .unwrap_or_default();
        self.edge_server.shutdown();
        self.relay_server.shutdown();
        self.root_server.shutdown();
        Finished {
            edge,
            leaf,
            inproc,
            relay_advances,
        }
    }
}

/// Traced runs: poll the relay broker's per-shard head serial, so the
/// root→relay hop can be split out without touching the relay.
fn poll_relay_heads(
    broker: &Broker,
    shards: usize,
    stop: &AtomicBool,
    busy: &Busy,
) -> Vec<Advance> {
    let mut last = vec![0u32; shards];
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let cpu0 = thread_cpu_ns();
        for (tld, seen) in last.iter_mut().enumerate() {
            if let Some(stats) = broker.shard_stats(TldId(tld as u16)) {
                let serial = stats.head_serial.get();
                if serial != *seen {
                    *seen = serial;
                    out.push(Advance {
                        tld,
                        serial,
                        at: Instant::now(),
                    });
                }
            }
        }
        busy.cpu_ns
            .fetch_add(thread_cpu_ns() - cpu0, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(250));
    }
    out
}
